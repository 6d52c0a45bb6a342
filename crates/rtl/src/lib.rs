//! # la1-rtl — a Verilog-like RTL netlist, simulator and emitter
//!
//! The lowest level of the reproduced paper's design flow (*On the Design
//! and Verification Methodology of the Look-Aside Interface*, DATE 2004)
//! is a synthesizable Verilog implementation simulated by a commercial
//! Verilog simulator and model-checked by RuleBase. This crate rebuilds
//! that layer:
//!
//! * [`Logic`] / [`LogicVec`] — IEEE-1364 four-state values
//!   (`0`, `1`, `X`, `Z`) with tristate resolution, held as a value and
//!   an unknown bit-plane and operated on 64 bits per word operation;
//! * [`Netlist`] — a structural design: wires, registers, continuous
//!   assignments over [`Expr`]s, positive/negative-edge and **DDR**
//!   flip-flops (the LA-1 data paths transfer on both edges of `K`),
//!   synchronous-write/asynchronous-read RAM blocks with per-bit write
//!   masks (byte write control), and tristate drivers (the paper connects
//!   multi-bank control signals "using tristate buffers");
//! * [`Sim`] — the interpreted cycle simulator: apply inputs, settle
//!   combinational logic, capture clocked elements on detected edges,
//!   settle again. Interpretation cost per cycle is the point of the
//!   paper's Table 3 (compiled SystemC vs. interpreted HDL). One engine,
//!   generic over what an arena slot holds, serves as [`RtlSim`] (one
//!   four-state vector per slot) and [`BatchedRtlSim`] (64 independent
//!   stimulus lanes per slot in a [`PackedVec`]);
//! * [`TransitionSystem`] — a bit-blasted next-state-function view of a
//!   two-valued netlist for the `la1-smc` symbolic model checker
//!   ([`Netlist::extract`]), built through the hash-consing
//!   [`BitBuilder`];
//! * [`Netlist::to_verilog`] — emits the design as synthesizable
//!   Verilog-2001 text, the flow's final artefact;
//! * [`VcdWriter`] — IEEE-1364 Value Change Dump output for waveform
//!   inspection.
//!
//! # Example
//!
//! ```
//! use la1_rtl::{Netlist, Expr, NetKind, RtlSim, LogicVec};
//!
//! let mut n = Netlist::new("toggler");
//! let clk = n.input("clk", 1);
//! let q = n.reg("q", 1);
//! let d = Expr::not(Expr::net(q));
//! n.dff_posedge(clk, d, q);
//! let _ = NetKind::Wire; // public kind enum
//!
//! let mut sim = RtlSim::new(&n);
//! sim.set(clk, LogicVec::from_u64(0, 1));
//! sim.step();
//! sim.set(clk, LogicVec::from_u64(1, 1)); // rising edge
//! sim.step();
//! assert_eq!(sim.get(q).to_u64(), Some(1));
//! ```

mod engine;
mod extract;
mod logic;
mod netlist;
mod packed;
mod schedule;
mod vcd;
mod verilog;

pub use engine::{
    BatchedRtlSim, BatchedRtlState, ProbePass, Probed, RtlSim, RtlState, SettleMode, Sim, SimState,
    Value,
};
pub use extract::{BitBuilder, BitExpr, BitId, TransitionSystem};
pub use logic::{Logic, LogicVec};
pub use netlist::{Edge, Expr, Item, NetId, NetKind, Netlist};
pub use packed::{PackedVec, LANES};
pub use vcd::VcdWriter;

#[cfg(test)]
mod tests;
