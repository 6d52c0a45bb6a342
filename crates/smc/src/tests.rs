//! Unit and property tests for the symbolic model checker.

use crate::*;
use la1_psl::parse_directive;
use la1_rtl::{Expr, Netlist};

/// A toggling bit: q alternates 0,1,0,1,... on rising clock edges.
fn toggler() -> TransitionSystem {
    let mut n = Netlist::new("t");
    let clk = n.input("clk", 1);
    let q = n.reg("q", 1);
    n.dff_posedge(clk, Expr::not(Expr::net(q)), q);
    n.extract(&[clk])
}

/// A 2-bit counter that wraps, with a `top` flag wire.
fn counter2() -> TransitionSystem {
    let mut n = Netlist::new("c2");
    let clk = n.input("clk", 1);
    let q = n.reg("q", 2);
    let b0 = Expr::Index(q, 0);
    let b1 = Expr::Index(q, 1);
    let d = Expr::Concat(vec![
        Expr::not(b0.clone()),
        Expr::xor(b1.clone(), b0.clone()),
    ]);
    n.dff_posedge(clk, d, q);
    let top = n.wire("top", 1);
    n.assign(top, Expr::and(b0, b1));
    n.extract(&[clk])
}

fn check(ts: &TransitionSystem, src: &str) -> SmcReport {
    let d = parse_directive(src).unwrap();
    ModelChecker::new(ts, SmcConfig::default())
        .check(&d)
        .unwrap()
}

fn check_with(ts: &TransitionSystem, src: &str, config: SmcConfig) -> SmcReport {
    let d = parse_directive(src).unwrap();
    ModelChecker::new(ts, config).check(&d).unwrap()
}

#[test]
fn proves_simple_invariant() {
    let ts = toggler();
    // q and clk never... q toggles only on rising edges so q == "clk
    // was high an even number of half-steps ago"; a tautology instead:
    let r = check(&ts, "assert tauto : always (q || !q)");
    assert!(r.proved());
    assert!(r.stats.bdd_nodes > 0);
    assert!(r.stats.iterations > 0);
    assert!(r.stats.reachable_states >= 2.0);
}

#[test]
fn finds_violation_with_trace() {
    let ts = toggler();
    // q does become 1: "always !q" must fail
    let r = check(&ts, "assert never_q : always !q");
    let SmcOutcome::Violated(trace) = &r.outcome else {
        panic!("expected violation, got {:?}", r.outcome);
    };
    // final state has q=1
    let qi = trace.state_bits.iter().position(|n| n == "q[0]").unwrap();
    assert!(trace.steps.last().unwrap()[qi]);
    // trace starts at the initial state (q=0, clk=0)
    assert!(!trace.steps[0][qi]);
    assert!(trace.render().contains("step 0:"));
}

#[test]
fn never_sere_proved_and_violated() {
    let ts = toggler();
    // q never holds three consecutive steps (it holds exactly 2: the
    // rising-edge step and the falling-edge step of each period)
    let r = check(&ts, "assert no3 : never {q ; q ; q}");
    assert!(r.proved(), "{:?}", r.outcome);
    let r = check(&ts, "assert no2 : never {q ; q}");
    assert!(matches!(r.outcome, SmcOutcome::Violated(_)));
}

#[test]
fn suffix_implication_checked() {
    let ts = counter2();
    // after top (q=3), the counter wraps: next step has q=0 ... but the
    // extracted system steps are half-periods; q changes only on rising
    // edges, so after a `top` step comes either another top (falling
    // half) or zero. "top |-> next[2] !top" holds.
    let r = check(&ts, "assert wrap : always {top} |-> next[2] !top");
    assert!(r.proved(), "{:?}", r.outcome);
    // and "always {top} |-> next[2] top" must fail
    let r = check(&ts, "assert stay : always {top} |-> next[2] top");
    assert!(matches!(r.outcome, SmcOutcome::Violated(_)));
}

#[test]
fn until_property() {
    let ts = counter2();
    // from reset, q stays below 3 until top (weak until on bits)
    let r = check(&ts, "assert below : (!top) until top");
    assert!(r.proved(), "{:?}", r.outcome);
}

#[test]
fn before_property_violation() {
    let ts = counter2();
    // claim q[1] rises before q[0] — false: q[0] rises first
    let r = check(&ts, "assert order : q[1] before q[0]");
    assert!(
        matches!(r.outcome, SmcOutcome::Violated(_)),
        "{:?}",
        r.outcome
    );
    // the true ordering is proved
    let r = check(&ts, "assert order2 : q[0] before q[1]");
    assert!(r.proved(), "{:?}", r.outcome);
}

#[test]
fn bounded_run_returns_partial_not_proved() {
    let ts = counter2();
    // the 2-bit counter needs 4 iterations to converge; one iteration
    // is a bounded exploration, not a proof
    let r = check_with(
        &ts,
        "assert t : always (top || !top)",
        SmcConfig {
            max_iterations: Some(1),
            ..SmcConfig::default()
        },
    );
    assert!(
        matches!(
            r.outcome,
            SmcOutcome::Partial {
                explored: 1,
                reason: SmcBudgetReason::MaxIterations
            }
        ),
        "{:?}",
        r.outcome
    );
    assert!(!r.proved());
    // a zero wall-clock budget stops before the first iteration
    let r = check_with(
        &ts,
        "assert t : always (top || !top)",
        SmcConfig {
            wall_clock: Some(std::time::Duration::ZERO),
            ..SmcConfig::default()
        },
    );
    assert!(
        matches!(
            r.outcome,
            SmcOutcome::Partial {
                reason: SmcBudgetReason::WallClock,
                ..
            }
        ),
        "{:?}",
        r.outcome
    );
    // a violation inside the bound is still reported as a violation
    let r = check_with(
        &ts,
        "assert v : always !q[0]",
        SmcConfig {
            max_iterations: Some(4),
            ..SmcConfig::default()
        },
    );
    assert!(
        matches!(r.outcome, SmcOutcome::Violated(_)),
        "{:?}",
        r.outcome
    );
}

#[test]
fn state_explosion_on_tiny_budget() {
    let ts = counter2();
    let cfg = SmcConfig {
        node_budget: 40,
        ..SmcConfig::default()
    };
    let r = check_with(&ts, "assert tauto : always (top || !top)", cfg);
    assert!(
        matches!(r.outcome, SmcOutcome::StateExplosion),
        "{:?}",
        r.outcome
    );
}

#[test]
fn strategies_agree() {
    let ts = counter2();
    for src in [
        "assert a : always (q[0] || !q[0])",
        "assert b : never {top ; top ; top}",
        "assert c : always {top} |-> next[2] !top",
        "assert d : always !q[1]", // violated
    ] {
        let mono = check_with(
            &ts,
            src,
            SmcConfig {
                strategy: crate::Strategy::Monolithic,
                ..SmcConfig::default()
            },
        );
        let part = check_with(
            &ts,
            src,
            SmcConfig {
                strategy: crate::Strategy::Partitioned,
                ..SmcConfig::default()
            },
        );
        assert_eq!(
            matches!(mono.outcome, SmcOutcome::Proved),
            matches!(part.outcome, SmcOutcome::Proved),
            "strategy disagreement on {src}"
        );
    }
}

#[test]
fn liveness_rejected() {
    let ts = toggler();
    let d = parse_directive("assert live : eventually! {q}").unwrap();
    let err = ModelChecker::new(&ts, SmcConfig::default())
        .check(&d)
        .unwrap_err();
    assert!(err.to_string().contains("safety subset"));
}

#[test]
fn non_assert_rejected() {
    let ts = toggler();
    let d = parse_directive("cover c : eventually! {q}").unwrap();
    assert!(ModelChecker::new(&ts, SmcConfig::default())
        .check(&d)
        .is_err());
}

#[test]
fn unknown_signal_rejected() {
    let ts = toggler();
    let d = parse_directive("assert u : always ghost_signal").unwrap();
    let err = ModelChecker::new(&ts, SmcConfig::default())
        .check(&d)
        .unwrap_err();
    assert!(err.construct.contains("ghost_signal"));
}

#[test]
fn trace_replays_through_transition_system() {
    // every step of a counterexample must be a genuine transition
    let ts = counter2();
    let r = check(&ts, "assert never_top : always !top");
    let SmcOutcome::Violated(trace) = &r.outcome else {
        panic!("expected violation");
    };
    // the monitor-extended system has extra bits; replay only checks
    // the original design bits via the next functions of the monitor ts
    // — easiest is to re-synthesize and evaluate; here we check the
    // design-bit prefix evolves per the original ts
    let design_bits = ts.num_state_bits();
    for w in trace.steps.windows(2) {
        let (s0, s1) = (&w[0], &w[1]);
        let inputs: Vec<bool> = vec![]; // counter2 has no free inputs
        for (bit, &actual) in s1.iter().take(design_bits).enumerate() {
            let expect = ts.eval_node(ts.next[bit], &s0[..design_bits], &inputs);
            assert_eq!(actual, expect, "bit {bit} does not follow the design");
        }
    }
}

/// Compares `produced` against the committed golden file (or rewrites
/// it under `UPDATE_GOLDEN=1`).
fn check_golden(file: &str, produced: &str) {
    let path = format!("{}/golden/{}", env!("CARGO_MANIFEST_DIR"), file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, produced).expect("update golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read committed golden file");
    assert_eq!(
        produced, golden,
        "synthesized circuits drifted from the committed golden \
         (crates/smc/golden/{file}); if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p la1-smc"
    );
}

/// Free inputs `a` and `b` registered into `ra <= a` and `rb <= b & ra`
/// on the rising edge of `clk`.
fn two_regs() -> TransitionSystem {
    let mut n = Netlist::new("g");
    let clk = n.input("clk", 1);
    let a = n.input("a", 1);
    let b = n.input("b", 1);
    let ra = n.reg("ra", 1);
    let rb = n.reg("rb", 1);
    n.dff_posedge(clk, Expr::net(a), ra);
    n.dff_posedge(clk, Expr::and(Expr::net(b), Expr::net(ra)), rb);
    n.extract(&[clk])
}

/// Pins every synthesized monitor circuit node by node, with the
/// checker's verdict and counters over it. Between them the properties
/// use every SERE operator, every repetition form, nested suffix
/// implication and `always` inside a consequent.
#[test]
fn synthesized_circuits_golden() {
    const PROPERTIES: [&str; 12] = [
        "always (ra -> rb)",
        "always {ra ; rb} |=> next[2] ra",
        "always {ra ; rb} |-> (ra until rb)",
        "never {ra : rb ; ra}",
        "never {{ra ; rb} && {rb ; ra[*1:2]}}",
        "never {ra[*2:] ; rb[+] ; {ra | rb}[*3]}",
        "always (ra before rb)",
        "ra -> next rb",
        "never {ra ; rb[*] ; ra}",
        "always ({ra} |=> {rb ; ra} |-> next !rb)",
        "{ra ; rb} |=> always ra",
        "always ({a : b} |-> rb)",
    ];
    let ts = two_regs();
    let checker = ModelChecker::new(&ts, SmcConfig::default());
    let mut out = String::new();
    for (i, prop) in PROPERTIES.iter().enumerate() {
        let d = parse_directive(&format!("assert p{i} : {prop}")).unwrap();
        let m = crate::synth::synthesize(&ts, &d.property, &d.name).unwrap();
        out.push_str(&format!("== {d}\nstate bits:\n"));
        for (name, init) in m.ts.state_bits.iter().zip(&m.ts.init) {
            out.push_str(&format!("  {name} init={}\n", *init as u8));
        }
        out.push_str(&format!(
            "next: {:?}\nfail: {}\nnodes:\n",
            m.ts.next, m.fail
        ));
        for (id, node) in m.ts.nodes.iter().enumerate() {
            out.push_str(&format!("  {id}: {node:?}\n"));
        }
        let r = checker.check(&d).unwrap();
        let verdict = match &r.outcome {
            SmcOutcome::Violated(trace) => format!("violated in {} steps", trace.steps.len()),
            other => format!("{other:?}"),
        };
        out.push_str(&format!(
            "verdict: {verdict}\npeak nodes: {}, iterations: {}, reachable states: {}\n\n",
            r.stats.bdd_nodes, r.stats.iterations, r.stats.reachable_states
        ));
    }
    check_golden("circuits.txt", &out);
}

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn bounded_never_matches_step_parity(len in 1u32..5) {
            // in the toggler, q is high for exactly 2 consecutive steps;
            // `never {q[*len]}` is proved iff len > 2
            let ts = toggler();
            let src = format!("assert n : never {{q[*{len}]}}");
            let r = check(&ts, &src);
            if len > 2 {
                prop_assert!(r.proved(), "{:?}", r.outcome);
            } else {
                prop_assert!(matches!(r.outcome, SmcOutcome::Violated(_)));
            }
        }

        #[test]
        fn budget_monotone(budget in 100usize..4000) {
            // a verdict obtained under a small budget never flips under a
            // larger one (explosion may become a proof, not vice versa)
            let ts = counter2();
            let small = check_with(&ts, "assert t : always (top || !top)", SmcConfig {
                node_budget: budget,
                ..SmcConfig::default()
            });
            let big = check_with(&ts, "assert t : always (top || !top)", SmcConfig::default());
            prop_assert!(big.proved());
            if small.proved() {
                prop_assert!(matches!(big.outcome, SmcOutcome::Proved));
            }
        }
    }
}

// A module of its own: `use super::*` would import `la1_smc::Strategy`,
// which clashes with proptest's.
#[cfg(feature = "proptest")]
mod circuit_props {
    use crate::synth::synthesize;
    use la1_psl::{BoolExpr, Nfa, Property, Sere};
    use la1_rtl::Netlist;
    use proptest::prelude::*;

    /// SEREs over signals {a, b}: the generator of la1-psl's
    /// reference-matcher proptest.
    fn arb_sere() -> impl Strategy<Value = Sere> {
        let leaf = prop_oneof![
            Just(Sere::signal("a")),
            Just(Sere::signal("b")),
            Just(Sere::Bool(BoolExpr::Not(Box::new(BoolExpr::var("a"))))),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Sere::Concat(Box::new(x), Box::new(y))),
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Sere::Or(Box::new(x), Box::new(y))),
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Sere::Fusion(Box::new(x), Box::new(y))),
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Sere::And(Box::new(x), Box::new(y))),
                (inner.clone(), 0u32..3, 0u32..3).prop_map(|(x, lo, extra)| Sere::Repeat {
                    sere: Box::new(x),
                    min: lo,
                    max: Some(lo + extra),
                }),
                inner.clone().prop_map(|x| Sere::Repeat {
                    sere: Box::new(x),
                    min: 1,
                    max: None,
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Stepped over a random trace, the `never {s}` circuit raises
        /// `fail` exactly in the steps where `s`'s automaton matches a
        /// segment ending there.
        #[test]
        fn never_circuit_agrees_with_nfa(
            sere in arb_sere(),
            bits in prop::collection::vec((any::<bool>(), any::<bool>()), 1..8),
        ) {
            let mut n = Netlist::new("p");
            let clk = n.input("clk", 1);
            n.input("a", 1);
            n.input("b", 1);
            let ts = n.extract(&[clk]);
            let m = synthesize(&ts, &Property::Never(sere.clone()), "p").unwrap();
            let nfa = Nfa::from_sere(&sere);
            let trace: Vec<Vec<(&str, bool)>> =
                bits.iter().map(|&(a, b)| vec![("a", a), ("b", b)]).collect();
            let mut state = m.ts.init.clone();
            for (t, &(a, b)) in bits.iter().enumerate() {
                let inputs = [a, b];
                let expect = nfa.nullable() || (0..=t).any(|i| nfa.accepts(&trace[i..=t]));
                prop_assert_eq!(m.ts.eval_node(m.fail, &state, &inputs), expect, "{} at step {}", sere, t);
                state = m.ts.next.iter().map(|&f| m.ts.eval_node(f, &state, &inputs)).collect();
            }
        }
    }
}
