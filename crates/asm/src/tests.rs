//! Unit and property tests for the ASM framework.

use crate::*;
use la1_psl::{parse_directive, Directive};

/// Builds a modulo-`n` counter with a `flag` that is true when count == 0.
fn counter(n: i64) -> Machine {
    let mut b = MachineBuilder::new();
    let c = b.var("count", Value::Int(0));
    b.rule(
        "tick",
        move |s| s.int(c) < n - 1,
        move |s| vec![vec![(c, Value::Int(s.int(c) + 1))]],
    );
    b.rule(
        "wrap",
        move |s| s.int(c) == n - 1,
        move |_| vec![vec![(c, Value::Int(0))]],
    );
    b.predicate("at_zero", move |s| s.int(c) == 0);
    b.predicate("at_max", move |s| s.int(c) == n - 1);
    b.build()
}

#[test]
fn value_accessors_and_conversions() {
    assert!(Value::from(true).as_bool());
    assert_eq!(Value::from(7i64).as_int(), 7);
    assert_eq!(Value::from("INIT").as_sym(), "INIT");
    assert_eq!(Value::Bool(false).to_string(), "false");
    assert_eq!(Value::Int(3).to_string(), "3");
    assert_eq!(Value::Sym("A").to_string(), "A");
}

#[test]
#[should_panic(expected = "expected Bool")]
fn value_wrong_accessor_panics() {
    Value::Int(1).as_bool();
}

#[test]
fn machine_builder_basics() {
    let m = counter(3);
    assert_eq!(m.var_names(), &["count"]);
    assert!(m.var("count").is_some());
    assert!(m.var("missing").is_none());
    assert_eq!(m.rules().len(), 2);
    assert_eq!(m.rules()[0].name(), "tick");
    let s = m.initial_state();
    assert_eq!(m.format_state(&s), "count=0");
    assert!(m.predicate("at_zero", &s));
    assert!(!m.predicate("at_max", &s));
    assert!(!m.predicate("unknown", &s));
}

#[test]
#[should_panic(expected = "declared twice")]
fn duplicate_variable_panics() {
    let mut b = MachineBuilder::new();
    b.var("x", Value::Bool(false));
    b.var("x", Value::Bool(true));
}

#[test]
fn exploration_counts_states_and_transitions() {
    let m = counter(5);
    let r = Explorer::new(&m, ExploreConfig::default()).run();
    assert_eq!(r.fsm.num_states(), 5);
    assert_eq!(r.fsm.num_transitions(), 5); // a single cycle
    assert!(!r.stats.truncated);
    assert_eq!(r.fsm.initial(), 0);
    let labels: Vec<&str> = r.fsm.transitions().map(|(_, l, _)| l).collect();
    assert_eq!(labels.iter().filter(|&&l| l == "tick").count(), 4);
    assert_eq!(labels.iter().filter(|&&l| l == "wrap").count(), 1);
}

#[test]
fn exploration_respects_state_limit() {
    let m = counter(100);
    let cfg = ExploreConfig {
        max_states: 10,
        ..ExploreConfig::default()
    };
    let r = Explorer::new(&m, cfg).run();
    assert!(r.stats.truncated);
    assert!(r.fsm.num_states() <= 10);
}

#[test]
fn exploration_respects_depth_limit() {
    let m = counter(100);
    let cfg = ExploreConfig {
        max_depth: Some(3),
        ..ExploreConfig::default()
    };
    let r = Explorer::new(&m, cfg).run();
    assert!(r.stats.truncated);
    assert_eq!(r.fsm.num_states(), 4); // 0..=3
}

#[test]
fn budget_verdicts_name_the_limit_that_fired() {
    let m = counter(100);
    // exhaustive run: Complete
    let r = Explorer::new(&m, ExploreConfig::default()).run();
    assert_eq!(r.stats.verdict, ExploreVerdict::Complete);
    assert!(r.stats.verdict.is_complete());
    // state budget
    let r = Explorer::new(
        &m,
        ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        },
    )
    .run();
    assert_eq!(
        r.stats.verdict,
        ExploreVerdict::Partial {
            explored: r.fsm.num_states(),
            reason: BudgetReason::MaxStates
        }
    );
    // depth bound
    let r = Explorer::new(
        &m,
        ExploreConfig {
            max_depth: Some(3),
            ..ExploreConfig::default()
        },
    )
    .run();
    assert!(matches!(
        r.stats.verdict,
        ExploreVerdict::Partial {
            reason: BudgetReason::MaxDepth,
            ..
        }
    ));
    // transition budget
    let r = Explorer::new(
        &m,
        ExploreConfig {
            max_transitions: 5,
            ..ExploreConfig::default()
        },
    )
    .run();
    assert!(matches!(
        r.stats.verdict,
        ExploreVerdict::Partial {
            reason: BudgetReason::MaxTransitions,
            ..
        }
    ));
}

#[test]
fn wall_clock_budget_returns_partial() {
    // an effectively infinite state space with a zero budget stops at
    // the first deadline check instead of exploring 200k states, for
    // both the sequential and the parallel engine
    let m = counter(i64::MAX);
    for workers in [1, 4] {
        let cfg = ExploreConfig {
            wall_clock: Some(std::time::Duration::ZERO),
            workers: Some(workers),
            ..ExploreConfig::default()
        };
        let r = Explorer::new(&m, cfg).run();
        assert!(
            matches!(
                r.stats.verdict,
                ExploreVerdict::Partial {
                    reason: BudgetReason::WallClock,
                    ..
                }
            ),
            "workers={workers}: {:?}",
            r.stats.verdict
        );
        assert!(r.stats.truncated);
        assert!(
            r.fsm.num_states() < 200_000,
            "workers={workers}: deadline ignored"
        );
    }
}

#[test]
fn nondeterministic_choice_branches() {
    // `any b in {true, false}` — one rule, two update sets
    let mut b = MachineBuilder::new();
    let x = b.var("x", Value::Int(0));
    let f = b.var("f", Value::Bool(false));
    b.rule(
        "choose",
        move |s| s.int(x) == 0,
        move |_| {
            vec![
                vec![(x, Value::Int(1)), (f, Value::Bool(true))],
                vec![(x, Value::Int(1)), (f, Value::Bool(false))],
            ]
        },
    );
    let m = b.build();
    let r = Explorer::new(&m, ExploreConfig::default()).run();
    // initial + two distinct successors (f differs)
    assert_eq!(r.fsm.num_states(), 3);
    assert_eq!(r.fsm.num_transitions(), 2);
}

#[test]
fn inconsistent_update_detected() {
    let mut b = MachineBuilder::new();
    let x = b.var("x", Value::Int(0));
    b.rule(
        "bad",
        |_| true,
        move |_| vec![vec![(x, Value::Int(1)), (x, Value::Int(2))]],
    );
    let m = b.build();
    let state = m.initial_state();
    let rule = m.rules()[0].clone();
    let updates = vec![(x, Value::Int(1)), (x, Value::Int(2))];
    let err = m.apply(&state, &rule, &updates).unwrap_err();
    assert_eq!(err.location, "x");
    assert!(err.to_string().contains("bad"));
}

#[test]
fn duplicate_identical_updates_are_consistent() {
    let mut b = MachineBuilder::new();
    let x = b.var("x", Value::Int(0));
    b.rule("ok", |_| true, move |_| vec![vec![(x, Value::Int(1))]]);
    let m = b.build();
    let rule = m.rules()[0].clone();
    let updates = vec![(x, Value::Int(1)), (x, Value::Int(1))];
    let next = m.apply(&m.initial_state(), &rule, &updates).unwrap();
    assert_eq!(next.int(x), 1);
}

fn assert_dirs(srcs: &[&str]) -> Vec<Directive> {
    srcs.iter().map(|s| parse_directive(s).unwrap()).collect()
}

#[test]
fn model_checking_invariant_holds() {
    let m = counter(4);
    let dirs = assert_dirs(&["assert count_bounded : always !ghost_overflow"]);
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&dirs)
        .run();
    assert!(r.all_pass());
    assert!(matches!(r.reports[0].outcome, CheckOutcome::Holds));
}

#[test]
fn model_checking_finds_violation_with_counterexample() {
    let m = counter(4);
    // claim the counter never reaches its max — false
    let dirs = assert_dirs(&["assert never_max : always !at_max"]);
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&dirs)
        .run();
    assert!(!r.all_pass());
    let cex = r.first_counterexample().expect("counterexample");
    assert_eq!(cex.property, "never_max");
    // path: initial, tick, tick, tick — 4 entries, last state at_max
    assert_eq!(cex.path.len(), 4);
    let last = &cex.path.last().unwrap().1;
    assert!(m.predicate("at_max", last));
    let rendered = cex.render(&m);
    assert!(rendered.contains("never_max"));
    assert!(rendered.contains("tick"));
}

#[test]
fn model_checking_temporal_property() {
    // at_max must be followed by at_zero in the next state
    let m = counter(3);
    let dirs = assert_dirs(&["assert wrap_next : always (at_max -> next at_zero)"]);
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&dirs)
        .run();
    assert!(r.all_pass(), "{:?}", r.reports);
}

#[test]
fn model_checking_temporal_violation() {
    // claim at_zero is always immediately followed by at_max — false for n=3
    let m = counter(3);
    let dirs = assert_dirs(&["assert zero_then_max : always (at_zero -> next at_max)"]);
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&dirs)
        .run();
    let cex = r.first_counterexample().expect("violation");
    assert!(cex.path.len() >= 2);
}

#[test]
fn cover_directive_reports_reachability() {
    let m = counter(3);
    let dirs = assert_dirs(&[
        "cover reaches_max : eventually! {at_max}",
        "cover reaches_ghost : eventually! {ghost}",
    ]);
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&dirs)
        .run();
    assert!(matches!(r.reports[0].outcome, CheckOutcome::Covered));
    assert!(matches!(r.reports[1].outcome, CheckOutcome::NotCovered));
}

#[test]
fn stop_on_violation_prunes_paths() {
    let m = counter(10);
    let dirs = assert_dirs(&["assert stuck_at_zero : always at_zero"]);
    let pruned = Explorer::new(
        &m,
        ExploreConfig {
            stop_on_violation: true,
            ..ExploreConfig::default()
        },
    )
    .with_directives(&dirs)
    .run();
    // the violating path is cut immediately: only the initial state explored
    assert_eq!(pruned.fsm.num_states(), 1);
    assert!(!pruned.all_pass());
}

#[test]
fn monitors_split_product_states() {
    // without properties the counter has n states; with a temporal monitor
    // the product may not collapse states that differ in obligation
    let m = counter(3);
    let dirs = assert_dirs(&["assert q : always (at_zero -> next[2] at_max)"]);
    let r = Explorer::new(
        &m,
        ExploreConfig {
            stop_on_violation: false,
            ..ExploreConfig::default()
        },
    )
    .with_directives(&dirs)
    .run();
    assert!(r.fsm.num_states() >= 3);
}

// ---- property tests ---------------------------------------------------------

#[test]
fn assume_directive_constrains_environment() {
    // a counter that can also be bumped by 2; an assume forbids the
    // bump, making "never odd->odd" style claims provable
    let mut b = MachineBuilder::new();
    let c = b.var("count", Value::Int(0));
    b.rule(
        "inc",
        move |s| s.int(c) < 6,
        move |s| vec![vec![(c, Value::Int(s.int(c) + 1))]],
    );
    b.rule(
        "bump2",
        move |s| s.int(c) < 6,
        move |s| vec![vec![(c, Value::Int(s.int(c) + 2))]],
    );
    b.predicate("is_two", move |s| s.int(c) == 2);
    b.predicate("was_bumped", move |s| s.int(c) % 2 == 0 && s.int(c) > 0);
    let m = b.build();

    // without the assume, state 2 is reachable directly from 0
    let cover = la1_psl::parse_directive("cover sees_two : eventually! {is_two}").unwrap();
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(std::slice::from_ref(&cover))
        .run();
    assert!(matches!(r.reports[0].outcome, CheckOutcome::Covered));

    // the assume prunes any path where an even value appears before an
    // odd one (i.e. forbids bump2 from 0) — the explorer must respect it
    let assume = la1_psl::parse_directive("assume env : never {was_bumped}").unwrap();
    let r = Explorer::new(&m, ExploreConfig::default())
        .with_directives(&[assume, cover])
        .run();
    assert!(
        matches!(r.reports[1].outcome, CheckOutcome::Covered),
        "2 still reachable via 0->1->2: {:?}",
        r.reports
    );
    // and no explored state violates the assumption
    for s in r.fsm.states() {
        assert!(!m.predicate("was_bumped", s), "{}", m.format_state(s));
    }
}

#[test]
fn fsm_dot_export_structure() {
    let m = counter(3);
    let r = Explorer::new(&m, ExploreConfig::default()).run();
    let dot = r.fsm.to_dot(|s| m.format_state(s));
    assert!(dot.starts_with("digraph fsm {"));
    assert_eq!(dot.matches("->").count(), r.fsm.num_transitions());
    assert!(dot.contains("doublecircle"));
    assert!(dot.contains("wrap"));
}

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
// ---- parallel engine -------------------------------------------------------

/// A 4×4 grid machine: two independent counters, so BFS levels are wide
/// and full of diamond reconvergence — a good workout for dedup and the
/// level-synchronous engine.
fn grid(n: i64) -> Machine {
    let mut b = MachineBuilder::new();
    let a = b.var("a", Value::Int(0));
    let c = b.var("c", Value::Int(0));
    b.rule(
        "inc_a",
        move |s| s.int(a) < n,
        move |s| vec![vec![(a, Value::Int(s.int(a) + 1))]],
    );
    b.rule(
        "inc_c",
        move |s| s.int(c) < n,
        move |s| vec![vec![(c, Value::Int(s.int(c) + 1))]],
    );
    b.predicate("in_range", move |s| s.int(a) <= n && s.int(c) <= n);
    b.predicate("diag", move |s| s.int(a) == s.int(c));
    b.predicate("corner", move |s| s.int(a) == n && s.int(c) == n);
    b.build()
}

fn run_grid(workers: usize, dirs: &[Directive], stop_on_violation: bool) -> ExploreResult {
    Explorer::new(
        &grid(3),
        ExploreConfig {
            workers: Some(workers),
            stop_on_violation,
            ..ExploreConfig::default()
        },
    )
    .with_directives(dirs)
    .run()
}

#[test]
fn diamond_dedup_hits_count_revisits() {
    // a ⨯ c diamond: (0,0) → (1,0)/(0,1) → (1,1); the second arrival at
    // (1,1) is the one dedup hit
    let m = grid(1);
    let r = Explorer::new(
        &m,
        ExploreConfig {
            workers: Some(1),
            ..ExploreConfig::default()
        },
    )
    .run();
    assert_eq!(r.fsm.num_states(), 4);
    assert_eq!(r.fsm.num_transitions(), 4);
    assert_eq!(r.stats.dedup_hits, 1);
    // every transition either discovers a node or is a dedup hit
    assert_eq!(
        r.stats.dedup_hits,
        r.stats.transitions - (r.stats.states - 1)
    );
    assert_eq!(r.stats.interned_states, 4);
    assert_eq!(r.stats.peak_frontier, 2);
    assert_eq!(r.stats.workers, 1);
    assert_eq!(r.stats.max_depth_reached, 2);
}

#[test]
fn parallel_workers_match_sequential_exactly() {
    let dirs = assert_dirs(&[
        "assert bounded : always in_range",
        "assert diag_ok : always (diag -> in_range)",
    ]);
    let base = run_grid(1, &dirs, true);
    assert!(base.all_pass());
    assert_eq!(base.fsm.num_states(), 16);
    for workers in [2, 4] {
        let r = run_grid(workers, &dirs, true);
        assert_eq!(r.stats.workers, workers);
        // byte-identical FSM: same states in the same order, same
        // transition list, same verdicts
        assert_eq!(r.fsm.states(), base.fsm.states(), "workers={workers}");
        let t: Vec<_> = r.fsm.transitions().collect();
        let tb: Vec<_> = base.fsm.transitions().collect();
        assert_eq!(t, tb, "workers={workers}");
        assert_eq!(r.stats.states, base.stats.states);
        assert_eq!(r.stats.transitions, base.stats.transitions);
        assert_eq!(r.stats.dedup_hits, base.stats.dedup_hits);
        assert_eq!(r.stats.peak_frontier, base.stats.peak_frontier);
        assert_eq!(r.stats.interned_states, base.stats.interned_states);
        assert_eq!(r.stats.max_depth_reached, base.stats.max_depth_reached);
        assert_eq!(r.stats.truncated, base.stats.truncated);
        assert!(r.all_pass());
    }
}

#[test]
fn effective_workers_pins_the_default_resolution() {
    // explicit counts pass through (clamped to at least 1)...
    for w in [1usize, 3, 8] {
        let cfg = ExploreConfig {
            workers: Some(w),
            ..ExploreConfig::default()
        };
        assert_eq!(cfg.effective_workers(), w);
    }
    let clamped = ExploreConfig {
        workers: Some(0),
        ..ExploreConfig::default()
    };
    assert_eq!(clamped.effective_workers(), 1);
    // ...and the default is one worker per available core — the
    // parallel path is on unless a caller opts back into `Some(1)`
    let default = ExploreConfig::default();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    assert_eq!(default.effective_workers(), cores);
    // the resolution is exactly what a run reports
    let m = grid(1);
    let r = Explorer::new(&m, ExploreConfig::default()).run();
    assert_eq!(r.stats.workers, cores);
}

#[test]
fn parallel_violation_same_counterexample_length() {
    // `corner` is first reachable at depth 6, so every engine must
    // report a 7-entry counterexample (initial state + 6 rules)
    let dirs = assert_dirs(&["assert never_corner : always !corner"]);
    let base = run_grid(1, &dirs, true);
    let base_cex = base.first_counterexample().expect("violated").path.len();
    assert_eq!(base_cex, 7);
    for workers in [2, 4] {
        let r = run_grid(workers, &dirs, true);
        let cex = r.first_counterexample().expect("violated").path.len();
        assert_eq!(cex, base_cex, "workers={workers}");
        assert!(!r.all_pass());
    }
}

#[test]
fn parallel_without_stop_filter_matches_sequential() {
    // with stop_on_violation=false the engines must agree even on
    // violating runs: the full grid is explored either way
    let dirs = assert_dirs(&["assert never_corner : always !corner"]);
    let base = run_grid(1, &dirs, false);
    assert_eq!(base.fsm.num_states(), 16);
    for workers in [2, 4] {
        let r = run_grid(workers, &dirs, false);
        assert_eq!(r.fsm.states(), base.fsm.states(), "workers={workers}");
        assert_eq!(r.stats.transitions, base.stats.transitions);
        assert_eq!(r.stats.dedup_hits, base.stats.dedup_hits);
        let (Some(c1), Some(c2)) = (base.first_counterexample(), r.first_counterexample()) else {
            panic!("both runs must violate");
        };
        assert_eq!(c1.path.len(), c2.path.len());
    }
}

#[test]
fn parallel_respects_state_limit_deterministically() {
    let cfg = |workers| ExploreConfig {
        workers: Some(workers),
        max_states: 7,
        ..ExploreConfig::default()
    };
    let base = Explorer::new(&grid(3), cfg(1)).run();
    assert!(base.stats.truncated);
    assert_eq!(base.fsm.num_states(), 7);
    for workers in [2, 4] {
        let r = Explorer::new(&grid(3), cfg(workers)).run();
        assert!(r.stats.truncated);
        assert_eq!(r.fsm.states(), base.fsm.states(), "workers={workers}");
        let t: Vec<_> = r.fsm.transitions().collect();
        let tb: Vec<_> = base.fsm.transitions().collect();
        assert_eq!(t, tb, "workers={workers}");
    }
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn counter_fsm_size_equals_modulus(n in 2i64..40) {
            let m = counter(n);
            let r = Explorer::new(&m, ExploreConfig::default()).run();
            prop_assert_eq!(r.fsm.num_states() as i64, n);
            prop_assert_eq!(r.fsm.num_transitions() as i64, n);
        }

        #[test]
        fn exploration_is_deterministic(n in 2i64..15) {
            let m = counter(n);
            let a = Explorer::new(&m, ExploreConfig::default()).run();
            let b = Explorer::new(&m, ExploreConfig::default()).run();
            prop_assert_eq!(a.fsm.num_states(), b.fsm.num_states());
            prop_assert_eq!(a.fsm.num_transitions(), b.fsm.num_transitions());
            let ta: Vec<_> = a.fsm.transitions().map(|(f, l, t)| (f, l.to_string(), t)).collect();
            let tb: Vec<_> = b.fsm.transitions().map(|(f, l, t)| (f, l.to_string(), t)).collect();
            prop_assert_eq!(ta, tb);
        }

        #[test]
        fn counterexample_paths_replay(n in 3i64..12) {
            // any counterexample the explorer returns must be a genuine path
            let m = counter(n);
            let dirs = assert_dirs(&["assert never_max : always !at_max"]);
            let r = Explorer::new(&m, ExploreConfig::default()).with_directives(&dirs).run();
            let cex = r.first_counterexample().expect("must violate");
            // replay: apply each named rule from the initial state
            let mut state = m.initial_state();
            prop_assert_eq!(&cex.path[0].1, &state);
            for (rule_name, expected) in &cex.path[1..] {
                let rule_name = rule_name.as_ref().expect("non-initial steps have rules");
                let rule = m.rules().iter().find(|r| r.name() == rule_name.as_str()).unwrap();
                prop_assert!((rule.guard)(&state), "rule guard must hold along the path");
                let choices = (rule.body)(&state);
                let matched = choices.iter().any(|u| {
                    m.apply(&state, rule, u).map(|s| &s == expected).unwrap_or(false)
                });
                prop_assert!(matched, "some choice must produce the recorded state");
                state = expected.clone();
            }
            prop_assert!(m.predicate("at_max", &state));
        }
    }
}
