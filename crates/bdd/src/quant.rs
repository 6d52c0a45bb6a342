//! Quantification, relational product and variable renaming — the three
//! operations symbolic reachability is made of.

use crate::manager::{Bdd, BddOverflowError, CacheKey, NodeId, VarId};

impl Bdd {
    /// Existential quantification `∃ vars. f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn exists(&mut self, f: NodeId, vars: &[VarId]) -> Result<NodeId, BddOverflowError> {
        let cube = self.intern_cube(vars.iter().map(|v| v.0).collect());
        self.exists_rec(f, cube)
    }

    fn exists_rec(&mut self, f: NodeId, cube: u32) -> Result<NodeId, BddOverflowError> {
        if self.is_terminal(f) {
            return Ok(f);
        }
        let key = CacheKey::Exists(f, cube);
        if let Some(r) = self.cache.get(&key) {
            return Ok(r);
        }
        let var = self.var_raw(f);
        // Variables below the smallest quantified variable can be skipped
        // only per-node; walk the node normally.
        let (lo, hi) = self.cofactors(f);
        let quantified = self.cubes[cube as usize].binary_search(&var).is_ok();
        let lo_q = self.exists_rec(lo, cube)?;
        let hi_q = self.exists_rec(hi, cube)?;
        let r = if quantified {
            self.or(lo_q, hi_q)?
        } else {
            self.mk(var, lo_q, hi_q)?
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Universal quantification `∀ vars. f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn forall(&mut self, f: NodeId, vars: &[VarId]) -> Result<NodeId, BddOverflowError> {
        let cube = self.intern_cube(vars.iter().map(|v| v.0).collect());
        self.forall_rec(f, cube)
    }

    fn forall_rec(&mut self, f: NodeId, cube: u32) -> Result<NodeId, BddOverflowError> {
        if self.is_terminal(f) {
            return Ok(f);
        }
        let key = CacheKey::Forall(f, cube);
        if let Some(r) = self.cache.get(&key) {
            return Ok(r);
        }
        let var = self.var_raw(f);
        let (lo, hi) = self.cofactors(f);
        let quantified = self.cubes[cube as usize].binary_search(&var).is_ok();
        let lo_q = self.forall_rec(lo, cube)?;
        let hi_q = self.forall_rec(hi, cube)?;
        let r = if quantified {
            self.and(lo_q, hi_q)?
        } else {
            self.mk(var, lo_q, hi_q)?
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// The relational product `∃ vars. (f ∧ g)` computed without building
    /// the full conjunction first — the workhorse of image computation.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn and_exists(
        &mut self,
        f: NodeId,
        g: NodeId,
        vars: &[VarId],
    ) -> Result<NodeId, BddOverflowError> {
        let cube = self.intern_cube(vars.iter().map(|v| v.0).collect());
        self.and_exists_rec(f, g, cube)
    }

    fn and_exists_rec(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: u32,
    ) -> Result<NodeId, BddOverflowError> {
        if f == Self::ZERO || g == Self::ZERO {
            return Ok(Self::ZERO);
        }
        if f == Self::ONE && g == Self::ONE {
            return Ok(Self::ONE);
        }
        if f == Self::ONE {
            return self.exists_rec(g, cube);
        }
        if g == Self::ONE {
            return self.exists_rec(f, cube);
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        let key = CacheKey::AndExists(a, b, cube);
        if let Some(r) = self.cache.get(&key) {
            return Ok(r);
        }
        let top = self.var_raw(a).min(self.var_raw(b));
        let (a0, a1) = self.cofactor_at(a, top);
        let (b0, b1) = self.cofactor_at(b, top);
        let quantified = self.cubes[cube as usize].binary_search(&top).is_ok();
        let r = if quantified {
            let lo = self.and_exists_rec(a0, b0, cube)?;
            if lo == Self::ONE {
                Self::ONE
            } else {
                let hi = self.and_exists_rec(a1, b1, cube)?;
                self.or(lo, hi)?
            }
        } else {
            let lo = self.and_exists_rec(a0, b0, cube)?;
            let hi = self.and_exists_rec(a1, b1, cube)?;
            self.mk(top, lo, hi)?
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Renames variables in `f` according to `map` (pairs of
    /// `(from, to)` variables).
    ///
    /// The renaming must be order-preserving for the result to remain
    /// reduced/ordered under the manager's fixed variable order: for any two
    /// mapped variables `u < v`, `map(u) < map(v)` must hold, and mapped
    /// targets must not interleave wrongly with unmapped variables in the
    /// support of `f`. The current-state/next-state interleaved encoding used
    /// by `la1-smc` satisfies this.
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn rename(
        &mut self,
        f: NodeId,
        map: &[(VarId, VarId)],
    ) -> Result<NodeId, BddOverflowError> {
        let id = self.intern_map(map.iter().map(|(a, b)| (a.0, b.0)).collect());
        self.rename_rec(f, id)
    }

    fn rename_rec(&mut self, f: NodeId, map: u32) -> Result<NodeId, BddOverflowError> {
        if self.is_terminal(f) {
            return Ok(f);
        }
        let key = CacheKey::Rename(f, map);
        if let Some(r) = self.cache.get(&key) {
            return Ok(r);
        }
        let var = self.var_raw(f);
        let (lo, hi) = self.cofactors(f);
        let lo_r = self.rename_rec(lo, map)?;
        let hi_r = self.rename_rec(hi, map)?;
        let target = match self.maps[map as usize].binary_search_by_key(&var, |&(a, _)| a) {
            Ok(i) => self.maps[map as usize][i].1,
            Err(_) => var,
        };
        // Rebuild via ite on the (possibly renamed) variable so that an
        // order-violating rename still yields a canonical diagram.
        let v = self.mk(target, Self::ZERO, Self::ONE)?;
        let r = self.ite(v, hi_r, lo_r)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Restricts variable `var` to `value` in `f` (the cofactor).
    ///
    /// # Errors
    ///
    /// Returns [`BddOverflowError`] if the node budget is exhausted.
    pub fn restrict(
        &mut self,
        f: NodeId,
        var: VarId,
        value: bool,
    ) -> Result<NodeId, BddOverflowError> {
        if self.is_terminal(f) {
            return Ok(f);
        }
        let top = self.var_raw(f);
        if top > var.0 {
            return Ok(f);
        }
        let (lo, hi) = self.cofactors(f);
        if top == var.0 {
            return Ok(if value { hi } else { lo });
        }
        let lo_r = self.restrict(lo, var, value)?;
        let hi_r = self.restrict(hi, var, value)?;
        self.mk(top, lo_r, hi_r)
    }
}
