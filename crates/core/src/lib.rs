//! # la1-core — the Look-Aside (LA-1) interface, designed and verified
//!
//! This crate is the primary contribution of the reproduced paper,
//! *On the Design and Verification Methodology of the Look-Aside
//! Interface* (Habibi, Ahmed, Ait Mohamed, Tahar — DATE 2004): an IP
//! model of the NPF **LA-1** interface built top-down through four
//! refinement levels, with verification integrated at each level.
//!
//! ```text
//!   UML  ──►  ASM  ──►  SystemC  ──►  Verilog RTL
//!  (spec)   (model     (assertion    (RuleBase-style
//!           checking    based          model checking
//!           of PSL)     verification)  + OVL simulation)
//! ```
//!
//! | module | paper artefact |
//! |---|---|
//! | [`spec`] | the LA-1 implementation agreement: pins, timing, parity |
//! | [`uml`] | the UML class diagram and clock-annotated sequence diagrams (Fig. 3) |
//! | [`properties`] | the PSL property suite shared by every level |
//! | [`asm_model`] | the ASM model incl. the light Verilog-like simulator (Fig. 4) |
//! | [`sc_model`] | the SystemC model with attached compiled PSL monitors |
//! | [`rtl_model`] | the synthesizable RTL: DDR paths, tristate banks, byte writes |
//! | [`cycle_model`] | the one cycle-level interface all executable levels share, and the lockstep loop over it |
//! | [`refine`] | the Fig. 2 flow: conformance + property re-verification |
//! | [`workloads`] | traffic generators (random mixes, packet lookups) |
//! | [`stimulus`] | UVM-style transaction stack: sequencers, driver, monitor |
//! | [`harness`] | the ABV measurement loops behind the paper's Table 3 |
//!
//! # Quickstart
//!
//! ```
//! use la1_core::spec::LaConfig;
//! use la1_core::sc_model::LaSystemC;
//! use la1_core::spec::BankOp;
//!
//! let cfg = LaConfig::new(1);
//! let mut la1 = LaSystemC::new(&cfg);
//! la1.cycle(&[BankOp::write(0, 3, 0xCAFE_F00D, 0b1111)]);
//! la1.cycle(&[BankOp::read(0, 3)]);
//! la1.cycle(&[]); // SRAM access cycle
//! la1.cycle(&[]); // data-out cycle
//! assert_eq!(la1.bank_output(0), Some(0xCAFE_F00D));
//! ```

pub mod asm_model;
pub mod checkpoint;
pub mod cycle_model;
pub mod harness;
pub mod json;
pub mod properties;
pub mod refine;
pub mod rtl_model;
pub mod sc_model;
pub mod spec;
pub mod stimulus;
pub mod uml;
pub mod workloads;

#[cfg(test)]
mod tests;
