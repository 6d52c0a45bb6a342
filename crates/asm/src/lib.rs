//! # la1-asm — an Abstract State Machine modelling and exploration framework
//!
//! This crate reproduces the role the Microsoft AsmL tool plays in
//! *On the Design and Verification Methodology of the Look-Aside Interface*
//! (DATE 2004):
//!
//! * **Modelling** — a machine is a set of typed state variables
//!   ([`Value`]) plus guarded rules ([`Rule`]). A rule's *guard* is the
//!   AsmL `require` precondition that filters the states in which the rule
//!   may fire; a rule's body produces one or more consistent *update sets*
//!   (the AsmL `any x in {…}` nondeterministic choice yields several).
//! * **Exploration** — [`Explorer`] performs the bounded reachability
//!   analysis the AsmL tool calls *exploration*, producing an explicit
//!   [`Fsm`] (an under-approximation when limits are hit, exactly as the
//!   paper describes).
//! * **Model checking** — PSL directives from `la1-psl` are attached to
//!   the exploration; each explored path drags monitor state along
//!   (deduplicated via monitor fingerprints), and the paper's stop filter
//!   `P_status && !P_value` cuts a counterexample path on violation.
//!
//! The AsmL conformance test (co-executing the ASM and SystemC models on
//! one stimulus) lives with the models in `la1-core`: both implement its
//! cycle-level interface, and one lockstep loop compares their pins.
//!
//! # Example
//!
//! ```
//! use la1_asm::{MachineBuilder, Value, Explorer, ExploreConfig};
//!
//! // a modulo-3 counter
//! let mut b = MachineBuilder::new();
//! let c = b.var("count", Value::Int(0));
//! b.rule("tick", move |s| s.int(c) < 2, move |s| {
//!     vec![vec![(c, Value::Int(s.int(c) + 1))]]
//! });
//! b.rule("wrap", move |s| s.int(c) == 2, move |_| {
//!     vec![vec![(c, Value::Int(0))]]
//! });
//! let machine = b.build();
//! let result = Explorer::new(&machine, ExploreConfig::default()).run();
//! assert_eq!(result.fsm.num_states(), 3);
//! assert_eq!(result.fsm.num_transitions(), 3);
//! ```

mod explore;
mod machine;
mod shard;
mod value;

pub use explore::{
    int_domain, BudgetReason, CheckOutcome, Counterexample, ExploreConfig, ExploreResult,
    ExploreStats, ExploreVerdict, Explorer, Fsm, PropertyReport,
};
pub use machine::{AsmState, InconsistentUpdateError, Machine, MachineBuilder, Rule, VarId};
pub use value::{intern_sym, Value};

#[cfg(test)]
mod tests;
