//! Unit and property tests for the PSL crate.

use crate::*;

type Cycle<'a> = Vec<(&'a str, bool)>;

fn run(prop: &str, trace: &[Cycle]) -> Verdict {
    let p = parse_property(prop).expect("property parses");
    let mut m = Monitor::new(&p);
    for cy in trace {
        let st = m.step(cy.as_slice());
        if st.is_violation() {
            return Verdict::Fails;
        }
    }
    m.finalize()
}

fn cy(pairs: &[(&'static str, bool)]) -> Cycle<'static> {
    pairs.to_vec()
}

// ---- Boolean layer ---------------------------------------------------------

#[test]
fn bool_expr_eval() {
    let e = parse_bool_expr("a && (!b || c)").unwrap();
    assert!(e.eval(&[("a", true), ("b", false), ("c", false)]));
    assert!(!e.eval(&[("a", true), ("b", true), ("c", false)]));
    assert!(e.eval(&[("a", true), ("b", true), ("c", true)]));
}

#[test]
fn bool_expr_ops() {
    assert!(parse_bool_expr("true").unwrap().eval(&[]));
    assert!(!parse_bool_expr("false").unwrap().eval(&[]));
    assert!(parse_bool_expr("a ^ b").unwrap().eval(&[("a", true)]));
    assert!(parse_bool_expr("a == b").unwrap().eval(&[]));
    assert!(!parse_bool_expr("a == b").unwrap().eval(&[("a", true)]));
}

#[test]
fn bool_expr_signals_collected() {
    let e = parse_bool_expr("a && (b || a) && data[3]").unwrap();
    assert_eq!(e.signals(), vec!["a", "b", "data[3]"]);
}

#[test]
fn unknown_signals_default_false() {
    let e = parse_bool_expr("ghost").unwrap();
    assert!(!e.eval(&[("other", true)]));
}

#[test]
fn fn_valuation_adapter() {
    let e = parse_bool_expr("x || y").unwrap();
    assert!(e.eval(&FnValuation(|n: &str| n == "y")));
}

// ---- parser ----------------------------------------------------------------

#[test]
fn parse_rejects_garbage() {
    assert!(parse_property("always {").is_err());
    assert!(parse_property("next[0] a").is_err());
    assert!(parse_property("a b").is_err());
    assert!(parse_bool_expr("&&").is_err());
    assert!(parse_sere("{a[*3:1]}").is_err());
    assert!(
        parse_property("{a}").is_err(),
        "plain weak SERE not allowed"
    );
}

#[test]
fn parse_directive_forms() {
    let d = parse_directive("assert read_ok : always {rd} |=> vld;").unwrap();
    assert_eq!(d.kind, DirectiveKind::Assert);
    assert_eq!(d.name, "read_ok");
    assert_eq!(d.severity, Severity::Error);
    let d = parse_directive("cover saw_write : eventually! {wr}").unwrap();
    assert_eq!(d.kind, DirectiveKind::Cover);
    let d = parse_directive("assume env : always !reset").unwrap();
    assert_eq!(d.kind, DirectiveKind::Assume);
    assert!(parse_directive("verify x : a").is_err());
}

#[test]
fn display_round_trips_through_parser() {
    for src in [
        "always {req ; busy[*] ; done} |=> ack",
        "never {a ; b}",
        "eventually! {done}",
        "a until b",
        "a until! b",
        "a before b",
        "next[3] a",
        "next !a",
        "a until !b",
        "a before !b",
        "always (a -> (b until c))",
        "{a ; b}!",
    ] {
        let p1 = parse_property(src).unwrap();
        let p2 = parse_property(&p1.to_string()).unwrap();
        assert_eq!(p1, p2, "round-trip failed for {src}");
    }
}

/// `next!`, `until!` and `before!` are single keywords: a `!` after a
/// space negates the operand instead.
#[test]
fn spaced_bang_negates_the_operand() {
    let not_b = BoolExpr::Not(Box::new(BoolExpr::var("b")));
    assert!(matches!(
        parse_property("next !b").unwrap(),
        Property::Next { strong: false, body, .. } if *body == Property::Bool(not_b.clone())
    ));
    assert!(matches!(
        parse_property("a until !b").unwrap(),
        Property::Until { strong: false, q, .. } if q == not_b
    ));
    assert!(matches!(
        parse_property("a before! b").unwrap(),
        Property::Before { strong: true, .. }
    ));
}

/// Texts whose monitors would overflow a repeat count or exhaust memory
/// are parse errors, not panics or aborts in `Monitor::new` or the
/// model checker.
#[test]
fn oversized_monitors_are_parse_errors() {
    for src in [
        "always {a[*4294967295:]} |=> b",
        "always {a[*100000000]} |=> b",
        "always {{a ; b}[*40] && {b[*2] ; a}[*30]} |=> c",
    ] {
        assert!(parse_property(src).is_err(), "{src}");
    }
    for src in [
        "assert x : always {a[*4294967295:]} |=> q",
        "assert x : always a -> next[100000000] q",
    ] {
        assert!(parse_directive(src).is_err(), "{src}");
    }
    assert!(parse_sere("{a[*1000]}").is_ok());
    assert!(parse_property("next[1024] a").is_ok());
}

// ---- SERE / NFA semantics ---------------------------------------------------

#[test]
fn nfa_simple_concat() {
    let s = parse_sere("{a ; b}").unwrap();
    let nfa = Nfa::from_sere(&s);
    assert!(nfa.accepts(&[cy(&[("a", true)]), cy(&[("b", true)])]));
    assert!(!nfa.accepts(&[cy(&[("a", true)]), cy(&[("b", false)])]));
    assert!(!nfa.accepts(&[cy(&[("a", true)])]));
    assert!(!nfa.accepts(&[]));
}

#[test]
fn nfa_or() {
    let s = parse_sere("{a | b}").unwrap();
    let nfa = Nfa::from_sere(&s);
    assert!(nfa.accepts(&[cy(&[("a", true)])]));
    assert!(nfa.accepts(&[cy(&[("b", true)])]));
    assert!(!nfa.accepts(&[cy(&[])]));
}

#[test]
fn nfa_star_and_plus() {
    let star = Nfa::from_sere(&parse_sere("{a[*]}").unwrap());
    assert!(star.nullable());
    assert!(star.accepts(&[]));
    assert!(star.accepts(&vec![cy(&[("a", true)]); 3]));
    assert!(!star.accepts(&[cy(&[("a", true)]), cy(&[])]));

    let plus = Nfa::from_sere(&parse_sere("{a[+]}").unwrap());
    assert!(!plus.nullable());
    assert!(plus.accepts(&[cy(&[("a", true)])]));
    assert!(plus.accepts(&vec![cy(&[("a", true)]); 4]));
    assert!(!plus.accepts(&[]));
}

#[test]
fn nfa_bounded_repeat() {
    let nfa = Nfa::from_sere(&parse_sere("{a[*2:3]}").unwrap());
    let a = cy(&[("a", true)]);
    assert!(!nfa.accepts(std::slice::from_ref(&a)));
    assert!(nfa.accepts(&[a.clone(), a.clone()]));
    assert!(nfa.accepts(&[a.clone(), a.clone(), a.clone()]));
    assert!(!nfa.accepts(&[a.clone(), a.clone(), a.clone(), a]));
}

#[test]
fn nfa_exact_repeat() {
    let nfa = Nfa::from_sere(&parse_sere("{a[*2]}").unwrap());
    let a = cy(&[("a", true)]);
    assert!(!nfa.accepts(std::slice::from_ref(&a)));
    assert!(nfa.accepts(&[a.clone(), a.clone()]));
    assert!(!nfa.accepts(&[a.clone(), a.clone(), a]));
}

#[test]
fn nfa_fusion_overlaps_one_cycle() {
    // {a ; b} : {b ; c} — b cycle shared
    let nfa = Nfa::from_sere(&parse_sere("{ {a ; b} : {b ; c} }").unwrap());
    assert!(nfa.accepts(&[cy(&[("a", true)]), cy(&[("b", true)]), cy(&[("c", true)]),]));
    assert!(!nfa.accepts(&[
        cy(&[("a", true)]),
        cy(&[("b", true)]),
        cy(&[("b", true)]),
        cy(&[("c", true)]),
    ]));
}

#[test]
fn nfa_fusion_single_cycles() {
    // {a} : {b} — both in the same single cycle
    let nfa = Nfa::from_sere(&parse_sere("{ {a} : {b} }").unwrap());
    assert!(nfa.accepts(&[cy(&[("a", true), ("b", true)])]));
    assert!(!nfa.accepts(&[cy(&[("a", true)])]));
}

#[test]
fn nfa_length_matching_and() {
    // {a[+]} && {b ; c} must match exactly 2 cycles with both patterns
    let nfa = Nfa::from_sere(&parse_sere("{ {a[+]} && {b ; c} }").unwrap());
    assert!(nfa.accepts(&[
        cy(&[("a", true), ("b", true)]),
        cy(&[("a", true), ("c", true)]),
    ]));
    assert!(!nfa.accepts(&[cy(&[("a", true), ("b", true)])]));
    assert!(!nfa.accepts(&[
        cy(&[("a", true), ("b", true)]),
        cy(&[("a", false), ("c", true)]),
    ]));
}

// ---- temporal monitors -------------------------------------------------------

#[test]
fn always_bool() {
    let t = vec![cy(&[("a", true)]); 5];
    assert_eq!(run("always a", &t), Verdict::Holds);
    let mut t2 = t.clone();
    t2[3] = cy(&[("a", false)]);
    assert_eq!(run("always a", &t2), Verdict::Fails);
}

#[test]
fn failure_cycle_is_recorded() {
    let p = parse_property("always a").unwrap();
    let mut m = Monitor::new(&p);
    m.step(&[("a", true)]);
    m.step(&[("a", true)]);
    m.step(&[("a", false)]);
    assert_eq!(m.failed_at(), Some(2));
    assert_eq!(m.verdict(), Verdict::Fails);
}

#[test]
fn never_sere() {
    let t = vec![cy(&[("a", true)]), cy(&[("b", true)]), cy(&[])];
    assert_eq!(run("never {a ; a}", &t), Verdict::Holds);
    assert_eq!(run("never {a ; b}", &t), Verdict::Fails);
}

#[test]
fn eventually_strong() {
    let t = vec![cy(&[]), cy(&[]), cy(&[("done", true)])];
    assert_eq!(run("eventually! {done}", &t), Verdict::Holds);
    let t2 = vec![cy(&[]); 3];
    assert_eq!(run("eventually! {done}", &t2), Verdict::Fails);
}

#[test]
fn next_weak_and_strong() {
    let t = vec![cy(&[("a", true)]), cy(&[("b", true)])];
    assert_eq!(run("next b", &t), Verdict::Holds);
    assert_eq!(run("next a", &t), Verdict::Fails);
    // trace ends before the next cycle: weak holds, strong fails
    let short = vec![cy(&[("a", true)])];
    assert_eq!(run("next b", &short), Verdict::Holds);
    assert_eq!(run("next! b", &short), Verdict::Fails);
}

#[test]
fn next_n() {
    let t = vec![cy(&[]), cy(&[]), cy(&[]), cy(&[("x", true)])];
    assert_eq!(run("next[3] x", &t), Verdict::Holds);
    assert_eq!(run("next[2] x", &t), Verdict::Fails);
}

#[test]
fn until_weak_and_strong() {
    let t = vec![cy(&[("p", true)]), cy(&[("p", true)]), cy(&[("q", true)])];
    assert_eq!(run("p until q", &t), Verdict::Holds);
    assert_eq!(run("p until! q", &t), Verdict::Holds);
    // p drops before q arrives
    let t2 = vec![cy(&[("p", true)]), cy(&[]), cy(&[("q", true)])];
    assert_eq!(run("p until q", &t2), Verdict::Fails);
    // q never arrives
    let t3 = vec![cy(&[("p", true)]), cy(&[("p", true)]), cy(&[("p", true)])];
    assert_eq!(run("p until q", &t3), Verdict::Holds);
    assert_eq!(run("p until! q", &t3), Verdict::Fails);
}

#[test]
fn before_semantics() {
    let t = vec![cy(&[]), cy(&[("p", true)]), cy(&[("q", true)])];
    assert_eq!(run("p before q", &t), Verdict::Holds);
    let t2 = vec![cy(&[]), cy(&[("q", true)])];
    assert_eq!(run("p before q", &t2), Verdict::Fails);
    // simultaneous p and q: p is not strictly before q
    let t3 = vec![cy(&[("p", true), ("q", true)])];
    assert_eq!(run("p before q", &t3), Verdict::Fails);
    // neither happens: weak holds, strong fails
    let t4 = vec![cy(&[]); 2];
    assert_eq!(run("p before q", &t4), Verdict::Holds);
    assert_eq!(run("p before! q", &t4), Verdict::Fails);
}

#[test]
fn boolean_implication_property() {
    let t = vec![
        cy(&[("req", true), ("gnt", true)]),
        cy(&[]),
        cy(&[("req", true), ("gnt", true)]),
    ];
    assert_eq!(run("always (req -> gnt)", &t), Verdict::Holds);
    let t2 = vec![cy(&[("req", true)])];
    assert_eq!(run("always (req -> gnt)", &t2), Verdict::Fails);
}

#[test]
fn suffix_implication_overlap() {
    // {a ; b} |-> c : c in the same cycle as b
    let t = vec![cy(&[("a", true)]), cy(&[("b", true), ("c", true)])];
    assert_eq!(run("always {a ; b} |-> c", &t), Verdict::Holds);
    let t2 = vec![cy(&[("a", true)]), cy(&[("b", true)])];
    assert_eq!(run("always {a ; b} |-> c", &t2), Verdict::Fails);
}

#[test]
fn suffix_implication_non_overlap() {
    // {a} |=> b : b in the following cycle
    let t = vec![cy(&[("a", true)]), cy(&[("b", true)])];
    assert_eq!(run("always {a} |=> b", &t), Verdict::Holds);
    let t2 = vec![cy(&[("a", true)]), cy(&[])];
    assert_eq!(run("always {a} |=> b", &t2), Verdict::Fails);
    // vacuous: trigger never fires
    let t3 = vec![cy(&[]); 4];
    assert_eq!(run("always {a} |=> b", &t3), Verdict::Holds);
}

#[test]
fn suffix_implication_retriggers() {
    // every req must be followed by ack
    let t = vec![
        cy(&[("req", true)]),
        cy(&[("ack", true), ("req", true)]),
        cy(&[("ack", true)]),
    ];
    assert_eq!(run("always {req} |=> ack", &t), Verdict::Holds);
    let t2 = vec![
        cy(&[("req", true)]),
        cy(&[("ack", true), ("req", true)]),
        cy(&[]),
    ];
    assert_eq!(run("always {req} |=> ack", &t2), Verdict::Fails);
}

#[test]
fn suffix_implication_temporal_consequent() {
    // read request answered two cycles later (the LA-1 read shape)
    let t = vec![cy(&[("rd", true)]), cy(&[]), cy(&[("dvalid", true)])];
    assert_eq!(run("always {rd} |=> next dvalid", &t), Verdict::Holds);
    assert_eq!(run("always {rd} |=> dvalid", &t), Verdict::Fails);
}

#[test]
fn sere_strong_prefix() {
    let t = vec![cy(&[("a", true)]), cy(&[("b", true)])];
    assert_eq!(run("{a ; b}!", &t), Verdict::Holds);
    let t2 = vec![cy(&[("a", true)]), cy(&[])];
    assert_eq!(run("{a ; b}!", &t2), Verdict::Fails);
    // fails early: no continuation possible
    let p = parse_property("{a ; b}!").unwrap();
    let mut m = Monitor::new(&p);
    m.step(&[("a", false)]);
    assert_eq!(m.verdict(), Verdict::Fails);
}

#[test]
fn monitor_state_encoding() {
    let p = parse_property("always a").unwrap();
    let mut m = Monitor::new(&p);
    let st = m.step(&[("a", true)]);
    assert!(!st.status, "always is never determined mid-trace");
    assert!(st.value);
    let st = m.step(&[("a", false)]);
    assert!(st.status);
    assert!(!st.value);
    assert!(st.is_violation());
}

#[test]
fn monitor_snapshot_restore_is_equivalent() {
    // Properties chosen to exercise every Ob variant: Always/Defer,
    // Never, Eventually, SereStrong, Until, Before, SuffixImpl.
    let props = [
        "always {rd} |=> next dvalid",
        "always a",
        "never {a ; b}",
        "eventually! {a ; a}",
        "{a ; b[*] ; a}!",
        "a until! b",
        "a before b",
        "always {a ; b} |-> {b ; a}!",
    ];
    // A deterministic but irregular trace over a and b / rd and dvalid.
    let trace: Vec<Cycle> = (0u32..12)
        .map(|i| {
            vec![
                ("a", i.wrapping_mul(2654435761) % 3 != 0),
                ("b", i.wrapping_mul(40503) % 2 == 0),
                ("rd", i % 4 == 1),
                ("dvalid", i % 4 == 3),
            ]
        })
        .collect();
    for text in props {
        let p = parse_property(text).unwrap();
        for split in 0..trace.len() {
            let mut straight = Monitor::new(&p);
            let mut first = Monitor::new(&p);
            for cyv in &trace[..split] {
                straight.step(cyv.as_slice());
                first.step(cyv.as_slice());
            }
            let mut resumed = Monitor::new(&p);
            resumed.restore(&first.snapshot()).unwrap();
            assert_eq!(
                resumed.fingerprint(),
                straight.fingerprint(),
                "{text}@{split}"
            );
            for cyv in &trace[split..] {
                let a = straight.step(cyv.as_slice());
                let b = resumed.step(cyv.as_slice());
                assert_eq!(a, b, "{text}@{split}");
                assert_eq!(
                    resumed.fingerprint(),
                    straight.fingerprint(),
                    "{text}@{split}"
                );
            }
            assert_eq!(resumed.finalize(), straight.finalize(), "{text}@{split}");
            assert_eq!(resumed.covered(), straight.covered(), "{text}@{split}");
        }
    }
}

#[test]
fn monitor_snapshot_rejects_foreign_root() {
    let p = parse_property("always {a ; b} |=> a").unwrap();
    let other = parse_property("never {b}").unwrap();
    let mut m = Monitor::new(&p);
    m.step(&[("a", true), ("b", false)]);
    let snap = m.snapshot();
    // Restore validates indices and active positions against the
    // target monitor's own property.
    assert!(Monitor::new(&other).restore(&snap).is_err());
    let mut foreign = Monitor::new(&other);
    foreign.step(&[("b", false)]);
    let before = foreign.fingerprint();
    let mut bad = snap.clone();
    bad.obs.push(Obligation::Never {
        sere: 0,
        active: [7].into_iter().collect(),
    });
    assert!(
        foreign.restore(&bad).is_err(),
        "position past the automaton"
    );
    assert_eq!(
        foreign.fingerprint(),
        before,
        "a failed restore changes nothing"
    );
    assert!(Monitor::new(&p).restore(&snap).is_ok());
}

/// Active sets reaching past position 63 take their list form. A set
/// rebuilt from its positions, as the checkpoint decoder builds it,
/// must equal the live one, and the restored monitor must go on alike.
#[test]
fn wide_active_sets_restore_canonically() {
    let p = parse_property("never {a[*70] ; b}").unwrap();
    let mut m = Monitor::new(&p);
    for _ in 0..68 {
        m.step(&[("a", true)]);
    }
    let snap = m.snapshot();
    let mut rebuilt = snap.clone();
    for ob in &mut rebuilt.obs {
        if let Obligation::Never { active, .. } = ob {
            assert!(active.iter().any(|p| p >= 64), "list form expected");
            *active = active.iter().collect();
        }
    }
    assert_eq!(rebuilt, snap);
    let mut restored = Monitor::new(&p);
    restored.restore(&rebuilt).unwrap();
    assert_eq!(restored.fingerprint(), m.fingerprint());
    for cy in [
        [("a", true), ("b", false)],
        [("a", true), ("b", false)],
        [("a", false), ("b", true)],
    ] {
        assert_eq!(restored.step(&cy), m.step(&cy));
    }
    assert!(m.state().is_violation(), "70 a's then b matches");
}

#[test]
fn bound_monitor_slices() {
    let p = parse_property("always {rd} |=> vld").unwrap();
    let mut m = Monitor::new(&p).bind(&["rd", "vld"]).unwrap();
    m.step(&[true, false]);
    m.step(&[false, true]);
    assert_eq!(m.finalize(), Verdict::Holds);
    assert!(m.failed_at().is_none());
    // slots follow the bound order, not the property's
    let mut m = Monitor::new(&p).bind(&["x", "vld", "rd"]).unwrap();
    m.step(&[false, false, true]);
    m.step(&[false, false, false]);
    assert_eq!(m.failed_at(), Some(1));
}

#[test]
fn stepping_by_name_reads_each_signal_once_per_step() {
    let p = parse_property("always {a ; a} |=> (a -> (a || b))").unwrap();
    let mut m = Monitor::new(&p);
    let reads = std::cell::Cell::new(0);
    let env = FnValuation(|_: &str| {
        reads.set(reads.get() + 1);
        true
    });
    for cycle in 0..4 {
        reads.set(0);
        m.step(&env);
        // two automaton positions and, once due, the consequent ask for
        // `a` up to four times a step; `a` decides `a || b`
        assert_eq!(reads.get(), 1, "cycle {cycle}");
    }
}

#[test]
fn binding_names_every_unbound_signal() {
    let p = parse_property("always {x ; rd} |=> (y && rd && x)").unwrap();
    let err = Monitor::new(&p).bind(&["rd", "vld"]).unwrap_err();
    assert_eq!(err.unbound, ["x", "y"]);
    assert_eq!(err.to_string(), "unbound signals: x, y");
    assert!(Monitor::new(&p).bind(&["y", "x", "rd"]).is_ok());
}

#[test]
fn cover_via_eventually() {
    let p = parse_property("eventually! {wr}").unwrap();
    let mut m = Monitor::new(&p);
    m.step(&[("wr", false)]);
    assert!(!m.covered());
    m.step(&[("wr", true)]);
    assert!(m.covered());
    assert_eq!(m.finalize(), Verdict::Holds);
}

#[test]
fn property_and_combinator() {
    let p = Property::And(
        Box::new(parse_property("always a").unwrap()),
        Box::new(parse_property("always b").unwrap()),
    );
    let mut m = Monitor::new(&p);
    m.step(&[("a", true), ("b", true)]);
    let st = m.step(&[("a", true), ("b", false)]);
    assert!(st.is_violation());
}

#[test]
fn signals_of_property() {
    let p = parse_property("always {rd ; busy[*]} |=> (dv && !perr)").unwrap();
    assert_eq!(p.signals(), vec!["busy", "dv", "perr", "rd"]);
}

// ---- property-based tests -----------------------------------------------------

// ---- additional SERE corner cases ---------------------------------------------

#[test]
fn nfa_fusion_with_repeat() {
    // {a[+] : b} — the last a-cycle coincides with b
    let nfa = Nfa::from_sere(&parse_sere("{ {a[+]} : {b} }").unwrap());
    assert!(nfa.accepts(&[cy(&[("a", true), ("b", true)])]));
    assert!(nfa.accepts(&[cy(&[("a", true)]), cy(&[("a", true), ("b", true)]),]));
    assert!(!nfa.accepts(&[cy(&[("a", true)]), cy(&[("b", true)])]));
}

#[test]
fn nfa_nested_or_with_concat() {
    let nfa = Nfa::from_sere(&parse_sere("{ {a ; b} | {c} ; d }").unwrap());
    // | binds tighter than ; here: {a;b} | ({c};d)? — our grammar:
    // sere -> sere_or (';' sere_or)*, so this parses as ({a;b}|{c}) ; d
    assert!(nfa.accepts(&[cy(&[("a", true)]), cy(&[("b", true)]), cy(&[("d", true)]),]));
    assert!(nfa.accepts(&[cy(&[("c", true)]), cy(&[("d", true)])]));
    assert!(!nfa.accepts(&[cy(&[("c", true)])]));
}

#[test]
fn nfa_star_of_alternation() {
    let nfa = Nfa::from_sere(&parse_sere("{ {a | b}[*] ; c }").unwrap());
    assert!(nfa.accepts(&[cy(&[("c", true)])]));
    assert!(nfa.accepts(&[
        cy(&[("a", true)]),
        cy(&[("b", true)]),
        cy(&[("a", true)]),
        cy(&[("c", true)]),
    ]));
    assert!(!nfa.accepts(&[cy(&[("a", true)]), cy(&[])]));
}

#[test]
fn nfa_bounded_repeat_of_compound() {
    let nfa = Nfa::from_sere(&parse_sere("{ {a ; b}[*2] }").unwrap());
    let (a, b) = (cy(&[("a", true)]), cy(&[("b", true)]));
    assert!(nfa.accepts(&[a.clone(), b.clone(), a.clone(), b.clone()]));
    assert!(!nfa.accepts(&[a.clone(), b.clone()]));
    assert!(!nfa.accepts(&[a.clone(), b.clone(), a, b.clone(), b]));
}

#[test]
fn monitor_nullable_prefix_suffix_implication() {
    // {a[*]} |-> b with an empty match: b must hold immediately
    let t = vec![cy(&[("b", true)]), cy(&[("a", true), ("b", true)])];
    assert_eq!(run("always {a[*]} |-> b", &t), Verdict::Holds);
    let t2 = vec![cy(&[])];
    assert_eq!(run("always {a[*]} |-> b", &t2), Verdict::Fails);
}

#[test]
fn monitor_fingerprint_stable_and_state_sensitive() {
    let p = parse_property("always {rd} |=> next dv").unwrap();
    let m1 = Monitor::new(&p);
    let m2 = Monitor::new(&p);
    assert_eq!(m1.fingerprint(), m2.fingerprint(), "fresh monitors agree");
    let mut m3 = Monitor::new(&p);
    m3.step(&[("rd", true)]);
    assert_ne!(
        m1.fingerprint(),
        m3.fingerprint(),
        "a pending obligation changes the fingerprint"
    );
    // two monitors after the same idle history agree (the fingerprint
    // may conservatively distinguish a fresh monitor from a stepped one)
    let mut m4 = Monitor::new(&p);
    m4.step(&[("rd", false)]);
    let mut m5 = Monitor::new(&p);
    m5.step(&[("rd", false)]);
    assert_eq!(
        m4.fingerprint(),
        m5.fingerprint(),
        "identical histories give identical fingerprints"
    );
}

/// Obligations at the same positions of different automata are
/// different states: monitor A has seen `a` of `{a ; b}`, monitor B `c`
/// of `{c ; d}`, and only A fails when `b` follows. The explorer
/// deduplicates by fingerprint, so equal digests would merge them and
/// lose A's violation.
#[test]
fn fingerprint_tells_automata_apart() {
    let p = Property::And(
        Box::new(parse_property("never {a ; b}").unwrap()),
        Box::new(parse_property("never {c ; d}").unwrap()),
    );
    let mut a = Monitor::new(&p);
    let mut b = Monitor::new(&p);
    a.step(&[("a", true)]);
    b.step(&[("c", true)]);
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert!(a.step(&[("b", true)]).is_violation());
    assert!(!b.step(&[("b", true)]).is_violation());
}

#[test]
fn directive_constructors() {
    let p = parse_property("always a").unwrap();
    let d = Directive::assert("inv", p.clone());
    assert_eq!(d.kind, DirectiveKind::Assert);
    assert!(d.message.contains("inv"));
    let c = Directive::cover("hit", p);
    assert_eq!(c.kind, DirectiveKind::Cover);
    assert_eq!(c.severity, Severity::Warning);
    assert!(c.to_string().starts_with("cover hit :"));
}

#[test]
fn severity_ordering_and_display() {
    assert!(Severity::Fatal > Severity::Error);
    assert!(Severity::Error > Severity::Warning);
    assert_eq!(Severity::Note.to_string(), "note");
    assert_eq!(Severity::default(), Severity::Error);
}

// ---- Parser robustness -----------------------------------------------------

#[test]
fn parser_rejects_multibyte_input_without_panicking() {
    // The operator lexer matches on raw bytes; a fixed-width &str slice
    // here used to split the two-byte `é` and panic.
    let err = parse_property("aaé").unwrap_err();
    assert_eq!(err.offset, 2, "error should point at the first bad byte");
    let err = parse_bool_expr("a && é|->").unwrap_err();
    assert!(err.offset <= "a && é|->".len());
    // multi-byte text inside otherwise-valid structure
    assert!(parse_directive("assert x : always {réq}").is_err());
}

#[test]
fn parser_bounds_nesting_depth() {
    // Unbounded recursive descent would overflow the stack (an abort,
    // not an Err) on pathological inputs.
    let deep_parens = format!("{}a{}", "(".repeat(10_000), ")".repeat(10_000));
    let err = parse_bool_expr(&deep_parens).unwrap_err();
    assert!(err.message.contains("nesting"), "got: {}", err.message);
    let deep_bangs = format!("{}a", "!".repeat(10_000));
    assert!(parse_bool_expr(&deep_bangs).is_err());
    let deep_props = format!("{}a", "always ".repeat(10_000));
    assert!(parse_property(&deep_props).is_err());
    let deep_sere = format!("{}a{}", "{".repeat(10_000), "}".repeat(10_000));
    assert!(parse_sere(&deep_sere).is_err());
    // moderate nesting still parses fine
    let ok = format!("{}a{}", "(".repeat(64), ")".repeat(64));
    assert!(parse_bool_expr(&ok).is_ok());
}

// ---- NFA vs. brute-force reference matcher -------------------------------------

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    // `always sig` over a random trace fails iff some cycle has `sig` false.
    proptest! {
        #[test]
        fn always_matches_all_quantifier(values in prop::collection::vec(any::<bool>(), 1..40)) {
            let t: Vec<Cycle> = values.iter().map(|&v| cy(if v { &[("s", true)] } else { &[("s", false)] })).collect();
            let expect = if values.iter().all(|&v| v) { Verdict::Holds } else { Verdict::Fails };
            prop_assert_eq!(run("always s", &t), expect);
        }

        #[test]
        fn never_matches_no_occurrence(values in prop::collection::vec(any::<bool>(), 1..40)) {
            let t: Vec<Cycle> = values.iter().map(|&v| cy(if v { &[("s", true)] } else { &[("s", false)] })).collect();
            let expect = if values.iter().any(|&v| v) { Verdict::Fails } else { Verdict::Holds };
            prop_assert_eq!(run("never {s}", &t), expect);
        }

        #[test]
        fn req_ack_suffix_impl_is_shifted_implication(
            reqs in prop::collection::vec(any::<bool>(), 1..30),
            acks in prop::collection::vec(any::<bool>(), 1..30),
        ) {
            let n = reqs.len().min(acks.len());
            let t: Vec<Cycle> = (0..n).map(|i| vec![("req", reqs[i]), ("ack", acks[i])]).collect();
            // {req} |=> ack  ==  req_i -> ack_{i+1}; a req in the last cycle is
            // a pending weak obligation (holds).
            let violated = (0..n.saturating_sub(1)).any(|i| reqs[i] && !acks[i + 1]);
            let expect = if violated { Verdict::Fails } else { Verdict::Holds };
            prop_assert_eq!(run("always {req} |=> ack", &t), expect);
        }

        #[test]
        fn until_matches_reference_semantics(
            ps in prop::collection::vec(any::<bool>(), 1..25),
            qs in prop::collection::vec(any::<bool>(), 1..25),
        ) {
            let n = ps.len().min(qs.len());
            let t: Vec<Cycle> = (0..n).map(|i| vec![("p", ps[i]), ("q", qs[i])]).collect();
            // reference: find first q; all cycles before it must have p;
            // if no q, weak holds iff p holds to the end.
            let first_q = (0..n).find(|&i| qs[i]);
            let expect = match first_q {
                Some(k) if (0..k).all(|i| ps[i]) => Verdict::Holds,
                Some(_) => Verdict::Fails,
                None if (0..n).all(|i| ps[i]) => Verdict::Holds,
                None => Verdict::Fails,
            };
            prop_assert_eq!(run("p until q", &t), expect);
        }

        /// The parser is total: arbitrary byte soup — including invalid
        /// UTF-8 (lossily decoded) and unbalanced operators — returns
        /// `Err`, never panics.
        #[test]
        fn parser_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let src = String::from_utf8_lossy(&bytes);
            let _ = parse_directive(&src);
            let _ = parse_property(&src);
            let _ = parse_sere(&src);
            let _ = parse_bool_expr(&src);
        }

        /// Same totality guarantee over strings biased toward PSL tokens,
        /// which reach much deeper into the grammar than raw byte soup.
        #[test]
        fn parser_never_panics_on_token_soup(picks in prop::collection::vec(0usize..16, 0..48)) {
            const TOKS: [&str; 16] = [
                "always", "never", "eventually!", "next", "until", "abort",
                "|->", "|=>", "{", "}", "(", ")", "[*2]", "&&", "!", "sig",
            ];
            let src = picks.iter().map(|&i| TOKS[i]).collect::<Vec<_>>().join(" ");
            let _ = parse_directive(&src);
            let _ = parse_property(&src);
            let _ = parse_sere(&src);
            let _ = parse_bool_expr(&src);
        }

        #[test]
        fn nfa_repeat_counts_exactly(k in 0usize..6, reps in 1u32..4) {
            let sere = parse_sere(&format!("{{a[*{reps}]}}")).unwrap();
            let nfa = Nfa::from_sere(&sere);
            let t: Vec<Cycle> = (0..k).map(|_| cy(&[("a", true)])).collect();
            prop_assert_eq!(nfa.accepts(&t), k as u32 == reps);
        }
    }

    /// Reference semantics: does `sere` match exactly `trace[lo..hi]`?
    fn matches_ref(sere: &Sere, trace: &[Vec<(&str, bool)>], lo: usize, hi: usize) -> bool {
        match sere {
            Sere::Bool(b) => hi == lo + 1 && b.eval(trace[lo].as_slice()),
            Sere::Concat(a, c) => {
                (lo..=hi).any(|m| matches_ref(a, trace, lo, m) && matches_ref(c, trace, m, hi))
            }
            Sere::Fusion(a, c) => {
                // overlap on one cycle: a matches [lo, m), c matches [m-1, hi)
                (lo + 1..=hi)
                    .any(|m| matches_ref(a, trace, lo, m) && matches_ref(c, trace, m - 1, hi))
            }
            Sere::Or(a, c) => matches_ref(a, trace, lo, hi) || matches_ref(c, trace, lo, hi),
            Sere::And(a, c) => matches_ref(a, trace, lo, hi) && matches_ref(c, trace, lo, hi),
            Sere::Repeat { sere, min, max } => {
                fn rep(
                    s: &Sere,
                    trace: &[Vec<(&str, bool)>],
                    lo: usize,
                    hi: usize,
                    count: u32,
                    min: u32,
                    max: Option<u32>,
                ) -> bool {
                    if lo == hi {
                        // the remaining copies may all match empty if the
                        // inner SERE is nullable (min <= max always holds)
                        return count >= min || matches_ref(s, trace, lo, lo);
                    }
                    if let Some(mx) = max {
                        if count >= mx {
                            return false;
                        }
                    }
                    (lo + 1..=hi).any(|m| {
                        matches_ref(s, trace, lo, m) && rep(s, trace, m, hi, count + 1, min, max)
                    })
                }
                rep(sere, trace, lo, hi, 0, *min, *max)
            }
        }
    }

    /// A small strategy over SEREs on signals {a, b}.
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

    fn arb_bool() -> impl Strategy<Value = BoolExpr> {
        let not = |name| BoolExpr::Not(Box::new(BoolExpr::var(name)));
        prop_oneof![
            Just(BoolExpr::var("a")),
            Just(BoolExpr::var("b")),
            Just(not("a")),
            Just(not("b")),
        ]
    }

    /// A strategy over properties on signals {a, b} that reaches every
    /// obligation kind: Boolean leaves, `never`, `eventually!` and
    /// `{s}!` over [`arb_sere`], `until` and `before` weak and strong,
    /// and above them `always`, `next[1..3]` weak and strong, `b -> p`,
    /// `|->` and `|=>` with temporal consequents, and `&&`.
    fn arb_property() -> impl Strategy<Value = Property> {
        let until = |(p, q, strong)| Property::Until { p, q, strong };
        let before = |(p, q, strong)| Property::Before { p, q, strong };
        let leaf = prop_oneof![
            arb_bool().prop_map(Property::Bool),
            arb_sere().prop_map(Property::Never),
            arb_sere().prop_map(Property::Eventually),
            arb_sere().prop_map(Property::SereStrong),
            (arb_bool(), arb_bool(), any::<bool>()).prop_map(until),
            (arb_bool(), arb_bool(), any::<bool>()).prop_map(before),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Property::always),
                (inner.clone(), 1u32..4, any::<bool>()).prop_map(|(body, n, strong)| {
                    Property::Next {
                        n,
                        strong,
                        body: Box::new(body),
                    }
                }),
                (arb_bool(), inner.clone()).prop_map(|(b, p)| Property::Implies(b, Box::new(p))),
                (arb_sere(), inner.clone(), any::<bool>()).prop_map(|(pre, post, overlap)| {
                    Property::SuffixImpl {
                        pre,
                        post: Box::new(post),
                        overlap,
                    }
                }),
                (inner.clone(), inner).prop_map(|(x, y)| Property::And(Box::new(x), Box::new(y))),
            ]
        })
    }

    type Cycles = Vec<(bool, bool)>;

    fn cycles(len: std::ops::Range<usize>) -> impl Strategy<Value = Cycles> {
        prop::collection::vec((any::<bool>(), any::<bool>()), len)
    }

    fn step(m: &mut Monitor, (a, b): (bool, bool)) -> PslState {
        m.step(&[("a", a), ("b", b)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// A snapshot taken at any cycle and restored into a fresh
        /// monitor continues exactly like the uninterrupted one.
        #[test]
        fn snapshot_restore_matches_the_uninterrupted_run(
            prop in arb_property(),
            trace in cycles(1..12),
            cut in 0usize..12,
        ) {
            let cut = cut.min(trace.len());
            let mut straight = Monitor::new(&prop);
            for &c in &trace[..cut] {
                step(&mut straight, c);
            }
            let mut resumed = Monitor::new(&prop);
            resumed.restore(&straight.snapshot()).map_err(|e| format!("{prop}: {e}"))?;
            prop_assert_eq!(resumed.fingerprint(), straight.fingerprint(), "{}", prop);
            for &c in &trace[cut..] {
                prop_assert_eq!(step(&mut resumed, c), step(&mut straight, c), "{}", prop);
                prop_assert_eq!(resumed.fingerprint(), straight.fingerprint(), "{}", prop);
            }
            prop_assert_eq!(resumed.finalize(), straight.finalize(), "{}", prop);
            prop_assert_eq!(resumed.covered(), straight.covered(), "{}", prop);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// A monitor bound to any order of its signals, unread ones
        /// among them, steps exactly like the same property stepped by
        /// name: same states, failure cycle, coverage, fingerprints and
        /// final verdict.
        #[test]
        fn bound_slots_agree_with_stepping_by_name(
            prop in arb_property(),
            keys in prop::collection::vec(any::<u32>(), 4..5),
            trace in cycles(1..12),
        ) {
            const NAMES: [&str; 4] = ["a", "b", "na", "nb"];
            let mut order: Vec<usize> = (0..NAMES.len()).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let signals: Vec<&str> = order.iter().map(|&i| NAMES[i]).collect();
            let mut by_name = Monitor::new(&prop);
            let mut bound = Monitor::new(&prop).bind(&signals).map_err(|e| format!("{prop}: {e}"))?;
            for &(a, b) in &trace {
                // the unread signals carry the negations, so a wrong slot shows
                let values: Vec<bool> = order.iter().map(|&i| [a, b, !a, !b][i]).collect();
                prop_assert_eq!(bound.step(&values), step(&mut by_name, (a, b)), "{}", prop);
                prop_assert_eq!(bound.failed_at(), by_name.failed_at(), "{}", prop);
                prop_assert_eq!(bound.covered(), by_name.covered(), "{}", prop);
                prop_assert_eq!(bound.fingerprint(), by_name.fingerprint(), "{}", prop);
            }
            prop_assert_eq!(bound.finalize(), by_name.finalize(), "{}", prop);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8192))]

        /// The contract the explorer's deduplication relies on: monitors
        /// of one property with equal fingerprints report the same
        /// `PslState` on every cycle of any common suffix, and the same
        /// `finalize`.
        #[test]
        fn equal_fingerprints_behave_alike(
            prop in arb_property(),
            prefixes in prop::collection::vec(cycles(0..6), 8..9),
            suffix in cycles(1..7),
        ) {
            let runs: Vec<(u64, Vec<PslState>, Verdict)> = prefixes
                .iter()
                .map(|prefix| {
                    let mut m = Monitor::new(&prop);
                    prefix.iter().for_each(|&c| {
                        step(&mut m, c);
                    });
                    let fingerprint = m.fingerprint();
                    let states = suffix.iter().map(|&c| step(&mut m, c)).collect();
                    (fingerprint, states, m.finalize())
                })
                .collect();
            for x in &runs {
                for y in runs.iter().filter(|y| y.0 == x.0) {
                    prop_assert_eq!(&x.1, &y.1, "{}", prop);
                    prop_assert_eq!(x.2, y.2, "{}", prop);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The Glushkov automaton and the brute-force reference matcher
        /// agree on whole-trace matches for random SEREs and random traces.
        #[test]
        fn nfa_agrees_with_reference_matcher(
            sere in arb_sere(),
            bits in prop::collection::vec((any::<bool>(), any::<bool>()), 0..6),
        ) {
            let trace: Vec<Vec<(&str, bool)>> = bits
                .iter()
                .map(|&(a, b)| vec![("a", a), ("b", b)])
                .collect();
            let nfa = Nfa::from_sere(&sere);
            let got = nfa.accepts(&trace);
            let expect = matches_ref(&sere, &trace, 0, trace.len());
            prop_assert_eq!(got, expect, "sere: {}", sere);
        }
    }
}
