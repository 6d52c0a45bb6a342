//! Model counting and witness extraction.

use crate::manager::{Bdd, NodeId, VarId};

/// A partial assignment extracted from a satisfiable BDD.
///
/// Variables not mentioned are *don't care*: any value keeps the function
/// true. Use [`Assignment::value`] to query and [`Assignment::complete`]
/// to pad don't-cares with `false`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<(VarId, bool)>,
}

impl Assignment {
    /// The assigned value of `var`, or `None` if it is a don't-care.
    pub fn value(&self, var: VarId) -> Option<bool> {
        self.values.iter().find(|(v, _)| *v == var).map(|&(_, b)| b)
    }

    /// The constrained `(variable, value)` pairs, ascending by variable.
    pub fn pairs(&self) -> &[(VarId, bool)] {
        &self.values
    }

    /// Expands to a total assignment over `num_vars` variables, defaulting
    /// don't-cares to `false`.
    pub fn complete(&self, num_vars: u32) -> Vec<bool> {
        let mut out = vec![false; num_vars as usize];
        for &(v, b) in &self.values {
            out[v.0 as usize] = b;
        }
        out
    }
}

impl Bdd {
    /// Number of satisfying assignments of `f` over the full variable
    /// universe of the manager, as `f64` (exact for < 2^53).
    pub fn sat_count(&self, f: NodeId) -> f64 {
        // memo indexed by node id; NaN marks a node not yet counted
        let mut memo = vec![f64::NAN; self.nodes.len()];
        let total_vars = self.num_vars();
        // fraction of the cube satisfying f, times 2^n
        fn frac(bdd: &Bdd, f: NodeId, memo: &mut [f64]) -> f64 {
            if f == Bdd::ZERO {
                return 0.0;
            }
            if f == Bdd::ONE {
                return 1.0;
            }
            if !memo[f.index()].is_nan() {
                return memo[f.index()];
            }
            let (lo, hi) = bdd.cofactors(f);
            let v = 0.5 * frac(bdd, lo, memo) + 0.5 * frac(bdd, hi, memo);
            memo[f.index()] = v;
            v
        }
        frac(self, f, &mut memo) * 2f64.powi(total_vars as i32)
    }

    /// Extracts one satisfying partial assignment of `f`, or `None` if
    /// `f` is unsatisfiable.
    pub fn one_sat(&self, f: NodeId) -> Option<Assignment> {
        if f == Self::ZERO {
            return None;
        }
        let mut values = Vec::new();
        let mut cur = f;
        while !self.is_terminal(cur) {
            let n = self.nodes[cur.index()];
            if n.hi != Self::ZERO {
                values.push((VarId(n.var), true));
                cur = n.hi;
            } else {
                values.push((VarId(n.var), false));
                cur = n.lo;
            }
        }
        debug_assert_eq!(cur, Self::ONE);
        Some(Assignment { values })
    }

    /// Extracts one satisfying assignment restricted to `vars`, completing
    /// the don't-cares among `vars` with `false`.
    ///
    /// Returns `None` if `f` is unsatisfiable.
    pub fn one_sat_over(&self, f: NodeId, vars: &[VarId]) -> Option<Vec<(VarId, bool)>> {
        let a = self.one_sat(f)?;
        Some(
            vars.iter()
                .map(|&v| (v, a.value(v).unwrap_or(false)))
                .collect(),
        )
    }
}

impl Bdd {
    /// Renders the diagram rooted at `f` in Graphviz DOT format
    /// (solid = high edge, dashed = low edge).
    ///
    /// ```
    /// # fn main() -> Result<(), la1_bdd::BddOverflowError> {
    /// use la1_bdd::Bdd;
    /// let mut bdd = Bdd::new(2);
    /// let a = bdd.var(0);
    /// let b = bdd.var(1);
    /// let f = bdd.and(a, b)?;
    /// let dot = bdd.to_dot(f);
    /// assert!(dot.contains("digraph bdd"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self, f: NodeId) -> String {
        let mut out = String::from("digraph bdd {\n");
        out.push_str("  t0 [label=\"0\", shape=box];\n");
        out.push_str("  t1 [label=\"1\", shape=box];\n");
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        let name = |n: NodeId| -> String {
            if n == Bdd::ZERO {
                "t0".to_string()
            } else if n == Bdd::ONE {
                "t1".to_string()
            } else {
                format!("n{}", n.index())
            }
        };
        while let Some(n) = stack.pop() {
            if self.is_terminal(n) || seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            let var = self.node_var(n).expect("non-terminal");
            let (lo, hi) = self.cofactors(n);
            out.push_str(&format!("  {} [label=\"{var}\"];\n", name(n)));
            out.push_str(&format!("  {} -> {} [style=dashed];\n", name(n), name(lo)));
            out.push_str(&format!("  {} -> {};\n", name(n), name(hi)));
            stack.push(lo);
            stack.push(hi);
        }
        out.push_str("}\n");
        out
    }
}
