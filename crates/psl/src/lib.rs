//! # la1-psl — a Property Specification Language (PSL) implementation
//!
//! This crate reproduces the property layer of *On the Design and
//! Verification Methodology of the Look-Aside Interface* (DATE 2004). The
//! paper specifies the LA-1 interface's behaviour as PSL properties and
//! verifies them three times: by model checking at the ASM level, by
//! compiled assertion monitors at the SystemC level, and by RuleBase /
//! OVL at the RTL level. All three consumers use this crate.
//!
//! The four PSL layers are represented as:
//!
//! * **Boolean layer** — [`BoolExpr`], expressions over named signals
//!   evaluated in a single cycle;
//! * **temporal layer** — [`Sere`] (Sequential Extended Regular
//!   Expressions) and [`Property`] (always / never / next / until /
//!   before / eventually! / suffix implication);
//! * **verification layer** — [`Directive`] (`assert` / `assume` /
//!   `cover` with a name and severity);
//! * **modeling layer** — left to the host model (the paper models
//!   auxiliary behaviour in ASM/SystemC directly; so do we).
//!
//! Properties can be written programmatically or parsed from text with
//! [`parse_property`] / [`parse_directive`].
//!
//! # Monitors and the paper's `P_status` / `P_value` encoding
//!
//! [`Monitor`] executes a property over a finite trace, one cycle at a
//! time. After each cycle it exposes the paper's two-variable encoding
//! ([`PslState`]): the property is *correct* if `status ∧ value`,
//! *incorrect* if `status ∧ ¬value`, and still *undetermined* while a
//! temporal obligation spans the current cycle. The ASM explorer in
//! `la1-asm` uses exactly the paper's stop-filter `status ∧ ¬value` to cut
//! counterexample paths.
//!
//! # Example
//!
//! ```
//! use la1_psl::{parse_property, Monitor, Verdict};
//! # fn main() -> Result<(), la1_psl::ParsePslError> {
//! let prop = parse_property("always {req ; !req} |=> ack")?;
//! let mut mon = Monitor::new(&prop);
//! // cycle 0: req=1, ack=0 ; cycle 1: req=0 ; cycle 2: ack=1 -> holds
//! for (req, ack) in [(true, false), (false, false), (false, true)] {
//!     mon.step(&[("req", req), ("ack", ack)]);
//! }
//! assert_eq!(mon.finalize(), Verdict::Holds);
//! # Ok(())
//! # }
//! ```

mod ast;
mod monitor;
mod nfa;
mod parser;

pub use ast::{BoolExpr, Directive, DirectiveKind, Property, Sere, Severity};
pub use monitor::{BindError, BoundMonitor, Monitor, MonitorSnap, Obligation, PslState, Verdict};
pub use nfa::{Nfa, Positions};
pub use parser::{parse_bool_expr, parse_directive, parse_property, parse_sere, ParsePslError};

/// A single-cycle snapshot of signal values, consulted by monitors.
///
/// Implemented for slices of `(name, value)` pairs, for
/// `std::collections::HashMap<String, bool>`, and for closures wrapped in
/// [`FnValuation`]. Unknown signals evaluate to `false` (PSL's convention
/// for unconnected monitor inputs in the paper's OVL comparison).
pub trait Valuation {
    /// Current value of the named signal.
    fn value(&self, name: &str) -> bool;
}

impl Valuation for [(&str, bool)] {
    fn value(&self, name: &str) -> bool {
        self.iter()
            .find(|(n, _)| *n == name)
            .is_some_and(|&(_, v)| v)
    }
}

impl<const N: usize> Valuation for [(&str, bool); N] {
    fn value(&self, name: &str) -> bool {
        self.as_slice().value(name)
    }
}

impl Valuation for std::collections::HashMap<String, bool> {
    fn value(&self, name: &str) -> bool {
        self.get(name).copied().unwrap_or(false)
    }
}

/// Adapts a closure `Fn(&str) -> bool` into a [`Valuation`].
///
/// ```
/// use la1_psl::{FnValuation, Valuation};
/// let v = FnValuation(|name: &str| name == "hot");
/// assert!(v.value("hot"));
/// assert!(!v.value("cold"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnValuation<F>(pub F);

impl<F: Fn(&str) -> bool> Valuation for FnValuation<F> {
    fn value(&self, name: &str) -> bool {
        (self.0)(name)
    }
}

#[cfg(test)]
mod tests;
