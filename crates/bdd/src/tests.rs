//! Unit and property tests for the BDD package.

use crate::{Bdd, BddOverflowError, NodeId, VarId};

fn setup(n: u32) -> Bdd {
    Bdd::new(n)
}

#[test]
fn terminals_are_fixed() {
    let bdd = setup(1);
    assert!(bdd.is_terminal(Bdd::ZERO));
    assert!(bdd.is_terminal(Bdd::ONE));
    assert_ne!(Bdd::ZERO, Bdd::ONE);
    assert_eq!(bdd.constant(true), Bdd::ONE);
    assert_eq!(bdd.constant(false), Bdd::ZERO);
}

#[test]
fn var_is_canonical() {
    let mut bdd = setup(3);
    assert_eq!(bdd.var(1), bdd.var(1));
    assert_ne!(bdd.var(0), bdd.var(1));
}

#[test]
fn and_or_not_basics() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    assert_eq!(bdd.and(a, Bdd::ONE)?, a);
    assert_eq!(bdd.and(a, Bdd::ZERO)?, Bdd::ZERO);
    assert_eq!(bdd.or(a, Bdd::ZERO)?, a);
    assert_eq!(bdd.or(a, Bdd::ONE)?, Bdd::ONE);
    let na = bdd.not(a)?;
    assert_eq!(bdd.and(a, na)?, Bdd::ZERO);
    assert_eq!(bdd.or(a, na)?, Bdd::ONE);
    let ab = bdd.and(a, b)?;
    let ba = bdd.and(b, a)?;
    assert_eq!(ab, ba);
    Ok(())
}

#[test]
fn de_morgan() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let ab = bdd.and(a, b)?;
    let lhs = bdd.not(ab)?;
    let na = bdd.not(a)?;
    let nb = bdd.not(b)?;
    let rhs = bdd.or(na, nb)?;
    assert_eq!(lhs, rhs);
    Ok(())
}

#[test]
fn xor_truth_table() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let x = bdd.xor(a, b)?;
    assert!(!bdd.eval(x, &[false, false]));
    assert!(bdd.eval(x, &[true, false]));
    assert!(bdd.eval(x, &[false, true]));
    assert!(!bdd.eval(x, &[true, true]));
    Ok(())
}

#[test]
fn ite_is_shannon_expansion() -> Result<(), BddOverflowError> {
    let mut bdd = setup(3);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let c = bdd.var(2);
    let f = bdd.ite(a, b, c)?;
    for bits in 0..8u8 {
        let assignment = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
        let expect = if assignment[0] {
            assignment[1]
        } else {
            assignment[2]
        };
        assert_eq!(bdd.eval(f, &assignment), expect);
    }
    Ok(())
}

#[test]
fn exists_removes_variable() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let ab = bdd.and(a, b)?;
    let ex = bdd.exists(ab, &[VarId(0)])?;
    assert_eq!(ex, b);
    let all = bdd.exists(ab, &[VarId(0), VarId(1)])?;
    assert_eq!(all, Bdd::ONE);
    assert!(bdd.support(ex).iter().all(|v| *v != VarId(0)));
    Ok(())
}

#[test]
fn forall_dual() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let or = bdd.or(a, b)?;
    // forall a. (a | b) == b
    assert_eq!(bdd.forall(or, &[VarId(0)])?, b);
    // forall a. (a & b) == false
    let and = bdd.and(a, b)?;
    assert_eq!(bdd.forall(and, &[VarId(0)])?, Bdd::ZERO);
    Ok(())
}

#[test]
fn and_exists_matches_composed() -> Result<(), BddOverflowError> {
    let mut bdd = setup(4);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let c = bdd.var(2);
    let d = bdd.var(3);
    let f = bdd.or(a, b)?;
    let fc = bdd.and(f, c)?;
    let g = bdd.xor(b, d)?;
    let direct = bdd.and_exists(fc, g, &[VarId(1)])?;
    let conj = bdd.and(fc, g)?;
    let composed = bdd.exists(conj, &[VarId(1)])?;
    assert_eq!(direct, composed);
    Ok(())
}

#[test]
fn rename_shifts_support() -> Result<(), BddOverflowError> {
    let mut bdd = setup(4);
    let a = bdd.var(0);
    let b = bdd.var(2);
    let f = bdd.and(a, b)?;
    let g = bdd.rename(f, &[(VarId(0), VarId(1)), (VarId(2), VarId(3))])?;
    assert_eq!(bdd.support(g), vec![VarId(1), VarId(3)]);
    let h = bdd.rename(g, &[(VarId(1), VarId(0)), (VarId(3), VarId(2))])?;
    assert_eq!(h, f);
    Ok(())
}

#[test]
fn restrict_cofactors() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let f = bdd.ite(a, b, Bdd::ZERO)?;
    assert_eq!(bdd.restrict(f, VarId(0), true)?, b);
    assert_eq!(bdd.restrict(f, VarId(0), false)?, Bdd::ZERO);
    Ok(())
}

#[test]
fn sat_count_small() -> Result<(), BddOverflowError> {
    let mut bdd = setup(3);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let f = bdd.or(a, b)?; // 3 of 4 over {a,b}, times 2 for free c
    assert_eq!(bdd.sat_count(f) as u64, 6);
    assert_eq!(bdd.sat_count(Bdd::ONE) as u64, 8);
    assert_eq!(bdd.sat_count(Bdd::ZERO) as u64, 0);
    Ok(())
}

#[test]
fn one_sat_satisfies() -> Result<(), BddOverflowError> {
    let mut bdd = setup(3);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let nb = bdd.not(b)?;
    let f = bdd.and(a, nb)?;
    let w = bdd.one_sat(f).expect("satisfiable");
    assert!(bdd.eval(f, &w.complete(3)));
    assert_eq!(w.value(VarId(0)), Some(true));
    assert_eq!(w.value(VarId(1)), Some(false));
    assert!(bdd.one_sat(Bdd::ZERO).is_none());
    Ok(())
}

#[test]
fn budget_overflow_is_reported() {
    // A tiny budget must fail when building a function needing many nodes.
    let mut bdd = Bdd::with_budget(16, 24);
    // 16 variable nodes + 2 terminals = 18 of the 24-node budget.
    let vars: Vec<_> = (0..16).map(|i| bdd.var(i)).collect();
    let mut acc = Bdd::ONE;
    let mut failed = false;
    for pair in vars.chunks(2) {
        let x_xor_y = match bdd.xor(pair[0], pair[1]) {
            Ok(f) => f,
            Err(e) => {
                assert_eq!(e.budget, 24);
                failed = true;
                break;
            }
        };
        match bdd.and(acc, x_xor_y) {
            Ok(r) => acc = r,
            Err(e) => {
                assert_eq!(e.budget, 24);
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "24-node budget must not fit an 8-pair xor chain");
}

#[test]
fn size_and_support() -> Result<(), BddOverflowError> {
    let mut bdd = setup(3);
    let a = bdd.var(0);
    let c = bdd.var(2);
    let f = bdd.and(a, c)?;
    assert_eq!(bdd.size(f), 4); // two decision nodes + two terminals
    assert_eq!(bdd.support(f), vec![VarId(0), VarId(2)]);
    assert_eq!(bdd.support(Bdd::ONE), vec![]);
    Ok(())
}

#[test]
fn memory_accounting_monotone() -> Result<(), BddOverflowError> {
    let mut bdd = setup(8);
    let before = bdd.memory_bytes();
    let mut acc = Bdd::ZERO;
    for i in 0..8 {
        let v = bdd.var(i);
        acc = bdd.or(acc, v)?;
    }
    assert!(bdd.memory_bytes() > before);
    assert!(bdd.peak_node_count() >= bdd.size(acc));
    Ok(())
}

#[test]
fn memory_accounting_covers_every_table() -> Result<(), BddOverflowError> {
    // x_i <-> x_{i+10} under the natural order: exponentially many nodes
    let mut bdd = setup(20);
    let mut acc = Bdd::ONE;
    for i in 0..10 {
        let (a, b) = (bdd.var(i), bdd.var(i + 10));
        let eq = bdd.iff(a, b)?;
        acc = bdd.and(acc, eq)?;
    }
    let (unique, computed) = bdd.table_slots();
    let nodes = bdd.node_count();
    assert!(nodes > 300, "tables must outgrow their first size");
    assert!(unique >= 2 * nodes, "unique table at most half full");
    assert!(computed >= nodes, "one computed-table slot per node");
    assert!(
        bdd.memory_bytes()
            >= nodes * std::mem::size_of::<[u32; 3]>()
                + unique * std::mem::size_of::<u32>()
                + computed * std::mem::size_of::<[u32; 4]>()
    );
    Ok(())
}

#[test]
fn computed_table_caps_at_budget() {
    let bdd = Bdd::with_budget(4, 24);
    assert_eq!(bdd.table_slots().1, 32);
    assert!(Bdd::with_budget(4, usize::MAX).budget() <= Bdd::MAX_NODES);
}

/// splitmix64: a seeded, dependency-free source of test choices.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn computed_table_size_never_changes_results() -> Result<(), BddOverflowError> {
    const VARS: u32 = 12;
    for seed in 0..4u64 {
        let mut rng = seed;
        let mut full = setup(VARS);
        let mut lossy = Bdd::with_cache_slots(VARS, 2);
        let mut pool: Vec<NodeId> = (0..VARS).map(|v| full.var(v)).collect();
        for v in 0..VARS {
            lossy.var(v);
        }
        for _ in 0..600 {
            let pick = |rng: &mut u64| pool[(next(rng) % pool.len() as u64) as usize];
            let (f, g, h) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let vars: Vec<VarId> = (0..VARS)
                .filter(|_| next(&mut rng).is_multiple_of(3))
                .map(VarId)
                .collect();
            let op = next(&mut rng) % 5;
            let apply = |bdd: &mut Bdd| match op {
                0 => bdd.ite(f, g, h),
                1 => bdd.and_exists(f, g, &vars),
                2 => bdd.exists(f, &vars),
                3 => bdd.forall(f, &vars),
                _ => {
                    // swap each chosen variable with its successor
                    let map: Vec<_> = vars
                        .iter()
                        .filter(|v| v.0 + 1 < VARS)
                        .flat_map(|&v| [(v, VarId(v.0 + 1)), (VarId(v.0 + 1), v)])
                        .collect();
                    bdd.rename(f, &map)
                }
            };
            let r = apply(&mut full)?;
            assert_eq!(apply(&mut lossy)?, r, "seed {seed}, op {op}");
            assert_eq!(lossy.node_count(), full.node_count(), "seed {seed}");
            pool.push(r);
        }
    }
    Ok(())
}

#[test]
fn display_impls() {
    assert_eq!(NodeId(3).to_string(), "n3");
    assert_eq!(VarId(7).to_string(), "x7");
    let err = BddOverflowError { budget: 10 };
    assert!(err.to_string().contains("10"));
}

#[test]
fn dot_export_structure() -> Result<(), BddOverflowError> {
    let mut bdd = setup(2);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let f = bdd.xor(a, b)?;
    let dot = bdd.to_dot(f);
    assert!(dot.starts_with("digraph bdd {"));
    // xor over 2 vars: 3 decision nodes
    assert_eq!(dot.matches("style=dashed").count(), 3);
    assert!(dot.contains("label=\"x0\""));
    assert!(dot.contains("label=\"x1\""));
    assert!(dot.contains("t0 [label="));
    // terminals only, for a constant
    let dot_const = bdd.to_dot(Bdd::ONE);
    assert!(!dot_const.contains("label=\"x"));
    Ok(())
}

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random expression tree and checks the BDD against brute-force
    /// truth-table evaluation.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
    }

    impl Expr {
        fn eval(&self, a: &[bool]) -> bool {
            match self {
                Expr::Var(i) => a[*i as usize],
                Expr::Not(e) => !e.eval(a),
                Expr::And(l, r) => l.eval(a) && r.eval(a),
                Expr::Or(l, r) => l.eval(a) || r.eval(a),
                Expr::Xor(l, r) => l.eval(a) ^ r.eval(a),
            }
        }

        fn build(&self, bdd: &mut Bdd) -> NodeId {
            match self {
                Expr::Var(i) => bdd.var(*i),
                Expr::Not(e) => {
                    let f = e.build(bdd);
                    bdd.not(f).expect("budget")
                }
                Expr::And(l, r) => {
                    let (f, g) = (l.build(bdd), r.build(bdd));
                    bdd.and(f, g).expect("budget")
                }
                Expr::Or(l, r) => {
                    let (f, g) = (l.build(bdd), r.build(bdd));
                    bdd.or(f, g).expect("budget")
                }
                Expr::Xor(l, r) => {
                    let (f, g) = (l.build(bdd), r.build(bdd));
                    bdd.xor(f, g).expect("budget")
                }
            }
        }
    }

    fn arb_expr(num_vars: u32) -> impl Strategy<Value = Expr> {
        let leaf = (0..num_vars).prop_map(Expr::Var);
        leaf.prop_recursive(5, 64, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                (inner.clone(), inner.clone())
                    .prop_map(|(l, r)| Expr::And(Box::new(l), Box::new(r))),
                (inner.clone(), inner.clone())
                    .prop_map(|(l, r)| Expr::Or(Box::new(l), Box::new(r))),
                (inner.clone(), inner).prop_map(|(l, r)| Expr::Xor(Box::new(l), Box::new(r))),
            ]
        })
    }

    proptest! {
        #[test]
        fn bdd_matches_truth_table(e in arb_expr(5)) {
            let mut bdd = Bdd::new(5);
            let f = e.build(&mut bdd);
            for bits in 0..32u32 {
                let a: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 == 1).collect();
                prop_assert_eq!(bdd.eval(f, &a), e.eval(&a));
            }
        }

        #[test]
        fn semantically_equal_expressions_share_node(e in arb_expr(4)) {
            // f == not(not(f)) structurally after reduction
            let mut bdd = Bdd::new(4);
            let f = e.build(&mut bdd);
            let nf = bdd.not(f).unwrap();
            let nnf = bdd.not(nf).unwrap();
            prop_assert_eq!(f, nnf);
        }

        #[test]
        fn exists_is_disjunction_of_cofactors(e in arb_expr(4), v in 0u32..4) {
            let mut bdd = Bdd::new(4);
            let f = e.build(&mut bdd);
            let ex = bdd.exists(f, &[VarId(v)]).unwrap();
            let c0 = bdd.restrict(f, VarId(v), false).unwrap();
            let c1 = bdd.restrict(f, VarId(v), true).unwrap();
            let or = bdd.or(c0, c1).unwrap();
            prop_assert_eq!(ex, or);
        }

        #[test]
        fn one_sat_yields_model(e in arb_expr(5)) {
            let mut bdd = Bdd::new(5);
            let f = e.build(&mut bdd);
            if let Some(w) = bdd.one_sat(f) {
                prop_assert!(bdd.eval(f, &w.complete(5)));
            } else {
                prop_assert_eq!(f, Bdd::ZERO);
            }
        }

        #[test]
        fn sat_count_matches_enumeration(e in arb_expr(4)) {
            let mut bdd = Bdd::new(4);
            let f = e.build(&mut bdd);
            let mut count = 0u64;
            for bits in 0..16u32 {
                let a: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
                if bdd.eval(f, &a) { count += 1; }
            }
            prop_assert_eq!(bdd.sat_count(f) as u64, count);
        }
    }
}
