//! # la1-smc — a BDD-based symbolic model checker ("RuleBase")
//!
//! This crate plays the role of IBM RuleBase 1.5 in the reproduced paper
//! (*On the Design and Verification Methodology of the Look-Aside
//! Interface*, DATE 2004): it model-checks PSL safety properties against
//! the RTL implementation.
//!
//! The pipeline is:
//!
//! 1. `la1-rtl` extracts a bit-level [`TransitionSystem`] from the
//!    netlist ([`la1_rtl::Netlist::extract`]);
//! 2. each PSL assert directive is **synthesized into a monitor
//!    circuit** (registers tracking SERE positions and pending
//!    obligations) appended to the transition system, with a single
//!    `fail` bit — the standard industrial property-to-checker
//!    construction;
//! 3. symbolic forward reachability proves `AG !fail`, produces a
//!    counterexample trace, or — when the configured BDD node budget is
//!    exhausted — reports **state explosion**, the paper's Table 2
//!    outcome for the 4-bank configuration.
//!
//! Monitor circuits are laid out from `la1-psl`'s [`la1_psl::Nfa`]
//! positions and hash-consed into the extracted DAG through
//! [`la1_rtl::BitBuilder`], the builder extraction itself uses.
//!
//! Two image-computation strategies are provided:
//! [`Strategy::Monolithic`] conjoins the whole transition relation up
//! front (RuleBase-1.5-era behaviour, used for Table 2) and
//! [`Strategy::Partitioned`] keeps per-bit relations with early
//! quantification (an ablation: on the read-mode instance it explodes
//! at 3 banks, one bank before the monolithic strategy).
//!
//! # Example
//!
//! ```
//! use la1_rtl::{Netlist, Expr};
//! use la1_psl::parse_directive;
//! use la1_smc::{ModelChecker, SmcConfig, SmcOutcome};
//!
//! // a toggling bit can never stay high two steps in a row
//! let mut n = Netlist::new("t");
//! let clk = n.input("clk", 1);
//! let q = n.reg("q", 1);
//! n.dff_posedge(clk, Expr::not(Expr::net(q)), q);
//! let ts = n.extract(&[clk]);
//!
//! let d = parse_directive("assert no_stuck : never {q ; q ; q ; q}").unwrap();
//! let report = ModelChecker::new(&ts, SmcConfig::default()).check(&d).unwrap();
//! assert!(matches!(report.outcome, SmcOutcome::Proved));
//! ```

mod reach;
mod synth;

pub use reach::{
    ModelChecker, SmcBudgetReason, SmcConfig, SmcOutcome, SmcReport, SmcStats, SmcTrace, Strategy,
};
pub use synth::UnsupportedPropertyError;

pub use la1_rtl::TransitionSystem;

#[cfg(test)]
mod tests;
