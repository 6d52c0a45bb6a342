//! Boolean connectives, all expressed through the canonical `ite` operator.

use crate::manager::{Bdd, BddOverflowError, CacheKey, NodeId};

impl Bdd {
    /// If-then-else: the unique function `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the universal connective; all other binary operations are
    /// implemented in terms of it.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Result<NodeId, BddOverflowError> {
        // Terminal cases.
        if f == Self::ONE {
            return Ok(g);
        }
        if f == Self::ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == Self::ONE && h == Self::ZERO {
            return Ok(f);
        }
        let key = CacheKey::Ite(f, g, h);
        if let Some(r) = self.cache.get(&key) {
            return Ok(r);
        }
        let top = self.var_raw(f).min(self.var_raw(g)).min(self.var_raw(h));
        let (f0, f1) = self.cofactor_at(f, top);
        let (g0, g1) = self.cofactor_at(g, top);
        let (h0, h1) = self.cofactor_at(h, top);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Cofactors of `f` with respect to variable `var`, assuming `var` is at
    /// or above `f`'s top variable in the order.
    pub(crate) fn cofactor_at(&self, f: NodeId, var: u32) -> (NodeId, NodeId) {
        if self.var_raw(f) == var {
            let n = self.nodes[f.index()];
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Logical negation `¬f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn not(&mut self, f: NodeId) -> Result<NodeId, BddOverflowError> {
        self.ite(f, Self::ZERO, Self::ONE)
    }

    /// Conjunction `f ∧ g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        self.ite(f, g, Self::ZERO)
    }

    /// Disjunction `f ∨ g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        self.ite(f, Self::ONE, g)
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Implication `f → g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        self.ite(f, g, Self::ONE)
    }

    /// Biconditional `f ↔ g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        let ng = self.not(g)?;
        self.ite(f, g, ng)
    }

    /// Difference `f ∧ ¬g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn diff(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, BddOverflowError> {
        let ng = self.not(g)?;
        self.and(f, ng)
    }

    /// Conjunction of an iterator of functions (`⊤` when empty).
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn and_all<I: IntoIterator<Item = NodeId>>(
        &mut self,
        items: I,
    ) -> Result<NodeId, BddOverflowError> {
        let mut acc = Self::ONE;
        for f in items {
            acc = self.and(acc, f)?;
            if acc == Self::ZERO {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction of an iterator of functions (`⊥` when empty).
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn or_all<I: IntoIterator<Item = NodeId>>(
        &mut self,
        items: I,
    ) -> Result<NodeId, BddOverflowError> {
        let mut acc = Self::ZERO;
        for f in items {
            acc = self.or(acc, f)?;
            if acc == Self::ONE {
                break;
            }
        }
        Ok(acc)
    }

    /// Evaluates `f` under a total assignment (`assignment[v]` is the value
    /// of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the highest variable in `f`.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !self.is_terminal(cur) {
            let n = self.nodes[cur.index()];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == Self::ONE
    }
}
