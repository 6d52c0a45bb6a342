//! # la1-suite — the Look-Aside (LA-1) interface design & verification suite
//!
//! A facade over the workspace that reproduces *On the Design and
//! Verification Methodology of the Look-Aside Interface* (DATE 2004):
//!
//! | crate | role |
//! |---|---|
//! | [`core`](la1_core) | the LA-1 interface at UML/ASM/SystemC/RTL levels |
//! | [`psl`](la1_psl) | PSL properties, SEREs, runtime monitors |
//! | [`asm`](la1_asm) | ASM modelling + bounded exploration |
//! | [`eventsim`](la1_eventsim) | SystemC-like delta-cycle kernel |
//! | [`rtl`](la1_rtl) | four-state netlists, DDR/tristate simulation, Verilog |
//! | [`smc`](la1_smc) | RuleBase-style BDD model checker |
//! | [`ovl`](la1_ovl) | OVL-style assertion monitor modules |
//! | [`bdd`](la1_bdd) | the ROBDD package under `smc` |
//! | [`fault`](la1_fault) | deterministic fault-injection campaigns |
//! | [`cover`](la1_cover) | functional coverage + coverage-guided closure |
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! table/figure harnesses.

pub use la1_asm as asm;
pub use la1_bdd as bdd;
pub use la1_core as core;
pub use la1_cover as cover;
pub use la1_eventsim as eventsim;
pub use la1_fault as fault;
pub use la1_ovl as ovl;
pub use la1_psl as psl;
pub use la1_rtl as rtl;
pub use la1_smc as smc;
