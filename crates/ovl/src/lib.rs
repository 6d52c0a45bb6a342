//! # la1-ovl — an Open Verification Library (OVL) style monitor suite
//!
//! The reproduced paper (*On the Design and Verification Methodology of
//! the Look-Aside Interface*, DATE 2004) compares SystemC assertion
//! monitors against the Accellera **Open Verification Library**: Verilog
//! assertion-monitor modules instantiated into the simulated design.
//! The paper observes that "every call to an OVL will load the
//! correspondent module as part of the simulated design" — the monitors
//! are paid for at simulation time.
//!
//! This crate reproduces that architecture: an [`OvlBench`] holds
//! assertion-monitor instances wired to expressions over a
//! [`la1_rtl::RtlSim`]'s nets. The bench lists the distinct expressions
//! once and compiles them against the simulator's netlist into one
//! probe pass ([`la1_rtl::Sim::probe_pass`]); once per sampled cycle it
//! runs that pass over the simulator's values (so monitor cost lands on
//! the simulator, as in the paper's Table 3), advances the monitors'
//! internal state machines from it, and records violations. On the
//! 64-lane simulator one pass serves every lane's bench
//! ([`OvlBench::on_cycle_from`]).
//!
//! Each monitor mirrors its OVL counterpart: an *event* (the property),
//! a *message*, and a *severity*.
//!
//! # Example
//!
//! ```
//! use la1_rtl::{Netlist, Expr, RtlSim};
//! use la1_ovl::{OvlBench, Severity};
//!
//! let mut n = Netlist::new("d");
//! let clk = n.input("clk", 1);
//! let q = n.reg("q", 1);
//! n.dff_posedge(clk, Expr::not(Expr::net(q)), q);
//!
//! let mut bench = OvlBench::new();
//! bench.assert_never("q_stuck", Severity::Error, Expr::and(Expr::net(q), Expr::bit(false)));
//!
//! let mut sim = RtlSim::new(&n);
//! for _ in 0..4 {
//!     sim.set_u64(clk, 1);
//!     sim.step();
//!     bench.on_cycle(&sim); // sample on the rising edge
//!     sim.set_u64(clk, 0);
//!     sim.step();
//! }
//! assert!(bench.violations().is_empty());
//! ```

mod bench;
mod monitors;

pub use bench::{OvlBench, OvlInstanceSnap, OvlSnap, OvlViolation, Severity};
pub use monitors::{MonitorKind, OvlDynState};

#[cfg(test)]
mod tests;
