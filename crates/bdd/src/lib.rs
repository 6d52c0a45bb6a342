//! # la1-bdd — a reduced ordered binary decision diagram (ROBDD) package
//!
//! This crate is the substrate for the `la1-smc` symbolic model checker,
//! which plays the role of IBM RuleBase in the reproduced paper
//! (*On the Design and Verification Methodology of the Look-Aside Interface*,
//! DATE 2004).
//!
//! The package provides:
//!
//! * a [`Bdd`] manager with a unique table (hash-consing) and a computed
//!   table caching operation results,
//! * the classic operations: [`Bdd::ite`], [`Bdd::and`], [`Bdd::or`],
//!   [`Bdd::xor`], [`Bdd::not`], [`Bdd::implies`], [`Bdd::iff`],
//! * quantification ([`Bdd::exists`], [`Bdd::forall`]) and the combined
//!   relational product [`Bdd::and_exists`] used for image computation,
//! * variable substitution ([`Bdd::rename`]) for current-state/next-state
//!   variable swapping,
//! * model counting ([`Bdd::sat_count`]) and witness extraction
//!   ([`Bdd::one_sat`]) for counterexample generation,
//! * an explicit **node budget**: every allocating operation is fallible and
//!   returns [`BddOverflowError`] once the budget is exhausted. The budget is
//!   how the RuleBase-style *state explosion* verdict of the paper's Table 2
//!   is detected and reported.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), la1_bdd::BddOverflowError> {
//! use la1_bdd::Bdd;
//!
//! let mut bdd = Bdd::new(2);
//! let a = bdd.var(0);
//! let b = bdd.var(1);
//! let f = bdd.and(a, b)?;
//! let g = bdd.not(f)?;
//! let na = bdd.not(a)?;
//! let nb = bdd.not(b)?;
//! let h = bdd.or(na, nb)?;
//! assert_eq!(g, h); // De Morgan, canonical representation
//! # Ok(())
//! # }
//! ```

mod manager;
mod ops;
mod quant;
mod sat;

pub use manager::{Bdd, BddOverflowError, NodeId, VarId};
pub use sat::Assignment;

#[cfg(test)]
mod tests;
