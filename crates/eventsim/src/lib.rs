//! # la1-eventsim — a SystemC-like discrete-event simulation kernel
//!
//! This crate stands in for the OSCI SystemC 2.0 kernel used in
//! *On the Design and Verification Methodology of the Look-Aside Interface*
//! (DATE 2004). It provides the pieces of the SystemC core language the
//! paper's LA-1 SystemC model needs:
//!
//! * an event-driven simulator with **delta cycles**
//!   ([`Simulator`]): evaluate → update → notify, repeated until no
//!   activity remains in the current instant, then time advances;
//! * [`Signal`]s with SystemC `sc_signal` semantics — reads see the
//!   value from the previous delta, writes take effect in the update
//!   phase and fire a *value-changed* event;
//! * method **processes** with static sensitivity lists
//!   ([`Simulator::process`]), run once at elaboration like SystemC
//!   method processes;
//! * [`Event`]s with delta and timed notification;
//! * user-defined channels ([`SimState::add_channel`]): state shared by
//!   several processes, stored in the kernel's arena.
//!
//! The LA-1 model drives its 180°-out-of-phase master clocks (`K`/`K#`)
//! itself, one edge pair per protocol cycle, so the kernel needs no
//! free-running clock generator.
//!
//! The kernel is **arena-indexed**: signals, channels and processes are
//! `u32` handles into dense vectors owned by [`SimState`]; processes
//! are closures receiving `&mut SimState`. Static sensitivity is a flat
//! CSR adjacency, the update queue is a deduplicated id vector, and
//! process activation uses an epoch-stamped run queue — no `Rc`,
//! `RefCell` or per-event allocation on the evaluate/update hot path.
//!
//! The kernel is deliberately single-threaded and deterministic:
//! verification results must be reproducible.
//!
//! # Example
//!
//! ```
//! use la1_eventsim::Simulator;
//!
//! let mut sim = Simulator::new();
//! let a = sim.signal("a", 0u32);
//! let b = sim.signal("b", 0u32);
//! // signal handles are `Copy`: capture them by value
//! sim.process("double", &[a.event()], move |st| {
//!     let v = a.read(st);
//!     b.write(st, v * 2);
//! });
//! a.write(&mut sim, 21);
//! sim.run_deltas();
//! assert_eq!(b.read(&sim), 42);
//! ```

mod kernel;
mod signal;

pub use kernel::{Event, ProcessId, SimState, SimTime, Simulator};
pub use signal::Signal;

#[cfg(test)]
mod tests;
