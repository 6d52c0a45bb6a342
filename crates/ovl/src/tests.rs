//! Unit and property tests for the OVL monitor suite.

use crate::*;
use la1_rtl::{Expr, NetId, Netlist, RtlSim};

/// A design exposing raw inputs so tests can drive arbitrary waveforms.
fn probe_design() -> (Netlist, NetId, NetId, NetId) {
    let mut n = Netlist::new("probe");
    let a = n.input("a", 1);
    let b = n.input("b", 1);
    let v = n.input("v", 4);
    (n, a, b, v)
}

/// Drives the inputs cycle by cycle and samples the bench each cycle.
fn drive(
    bench: &mut OvlBench,
    design: &Netlist,
    a: NetId,
    b: NetId,
    v: NetId,
    waves: &[(u64, u64, u64)],
) {
    let mut sim = RtlSim::new(design);
    for &(av, bv, vv) in waves {
        sim.set_u64(a, av);
        sim.set_u64(b, bv);
        sim.set_u64(v, vv);
        sim.step();
        bench.on_cycle(&sim);
    }
}

#[test]
fn assert_always_fires_on_low() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_always("a_high", Severity::Error, Expr::net(a));
    drive(&mut bench, &n, a, b, v, &[(1, 0, 0), (0, 0, 0), (1, 0, 0)]);
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].cycle, 1);
    assert_eq!(bench.violations()[0].kind, MonitorKind::Always);
    assert!(bench.violations()[0].to_string().contains("a_high"));
}

#[test]
fn assert_never_and_proposition() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_never("b_never", Severity::Warning, Expr::net(b));
    bench.assert_proposition("tauto", Severity::Note, Expr::bit(true));
    drive(&mut bench, &n, a, b, v, &[(0, 0, 0), (0, 1, 0)]);
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].severity, Severity::Warning);
}

#[test]
fn assert_implication_same_cycle() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_implication("a_implies_b", Severity::Error, Expr::net(a), Expr::net(b));
    drive(&mut bench, &n, a, b, v, &[(0, 0, 0), (1, 1, 0), (1, 0, 0)]);
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].cycle, 2);
}

#[test]
fn assert_next_counts_cycles() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_next("a_then_b2", Severity::Error, Expr::net(a), Expr::net(b), 2);
    // a at cycle 0 -> b must hold at cycle 2 (holds);
    // a at cycle 3 -> b must hold at cycle 5 (fails)
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[
            (1, 0, 0),
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
        ],
    );
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].cycle, 5);
}

#[test]
fn assert_next_overlapping_obligations() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_next("n", Severity::Error, Expr::net(a), Expr::net(b), 2);
    // starts at cycles 0 and 1; b holds at 2 but not 3: one violation
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)],
    );
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].cycle, 3);
}

#[test]
fn assert_cycle_sequence_mandatory_tail() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    // a ; a ; b — after two consecutive a's, b must follow
    bench.assert_cycle_sequence(
        "seq",
        Severity::Error,
        vec![Expr::net(a), Expr::net(a), Expr::net(b)],
    );
    // good instance
    drive(&mut bench, &n, a, b, v, &[(1, 0, 0), (1, 0, 0), (0, 1, 0)]);
    assert!(bench.violations().is_empty());
    // bad instance
    let mut bench2 = OvlBench::new();
    bench2.assert_cycle_sequence(
        "seq",
        Severity::Error,
        vec![Expr::net(a), Expr::net(a), Expr::net(b)],
    );
    drive(&mut bench2, &n, a, b, v, &[(1, 0, 0), (1, 0, 0), (0, 0, 0)]);
    assert_eq!(bench2.violations().len(), 1);
}

#[test]
fn assert_frame_window() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    // after a, b must arrive between 1 and 3 cycles later
    bench.assert_frame("f", Severity::Error, Expr::net(a), Expr::net(b), 1, 3);
    // b arrives 2 cycles later: ok
    drive(&mut bench, &n, a, b, v, &[(1, 0, 0), (0, 0, 0), (0, 1, 0)]);
    assert!(bench.violations().is_empty());
    // b never arrives: violation when the window closes
    let mut bench2 = OvlBench::new();
    bench2.assert_frame("f", Severity::Error, Expr::net(a), Expr::net(b), 1, 3);
    drive(
        &mut bench2,
        &n,
        a,
        b,
        v,
        &[(1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    );
    assert_eq!(bench2.violations().len(), 1);
}

#[test]
fn assert_change_and_unchange() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_change("c", Severity::Error, Expr::net(a), Expr::net(v), 2);
    bench.assert_unchange("u", Severity::Error, Expr::net(b), Expr::net(v), 2);
    // a at cycle 0 with v=5; v changes at cycle 2: change ok
    // b at cycle 3 with v=7; v changes at cycle 4: unchange violation
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(1, 0, 5), (0, 0, 5), (0, 0, 6), (0, 1, 7), (0, 0, 9)],
    );
    let viols = bench.violations();
    assert_eq!(viols.len(), 1);
    assert_eq!(viols[0].monitor, "u");
}

#[test]
fn assert_change_timeout() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_change("c", Severity::Error, Expr::net(a), Expr::net(v), 2);
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(1, 0, 5), (0, 0, 5), (0, 0, 5), (0, 0, 5)],
    );
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].kind, MonitorKind::Change);
}

#[test]
fn assert_one_hot_and_zero_one_hot() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_one_hot("oh", Severity::Error, Expr::net(v));
    bench.assert_zero_one_hot("zoh", Severity::Error, Expr::net(v));
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(0, 0, 0b0100), (0, 0, 0b0000), (0, 0, 0b0110)],
    );
    // cycle 0: one-hot ok; cycle 1: one_hot fires (zero bits); cycle 2:
    // both fire (two bits)
    let oh: Vec<_> = bench
        .violations()
        .iter()
        .filter(|vi| vi.monitor == "oh")
        .collect();
    let zoh: Vec<_> = bench
        .violations()
        .iter()
        .filter(|vi| vi.monitor == "zoh")
        .collect();
    assert_eq!(oh.len(), 2);
    assert_eq!(zoh.len(), 1);
}

#[test]
fn assert_range_bounds() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_range("r", Severity::Error, Expr::net(v), 2, 10);
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(0, 0, 2), (0, 0, 10), (0, 0, 11), (0, 0, 1)],
    );
    assert_eq!(bench.violations().len(), 2);
}

#[test]
fn assert_time_hold_window() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    // after a, b must stay high for 2 cycles
    bench.assert_time("t", Severity::Error, Expr::net(a), Expr::net(b), 2);
    // good: b high at cycles 1 and 2 — start sampled at cycle 0
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 0)],
    );
    assert!(bench.violations().is_empty(), "{:?}", bench.violations());
    // bad: b drops after one cycle
    let mut bench2 = OvlBench::new();
    bench2.assert_time("t", Severity::Error, Expr::net(a), Expr::net(b), 2);
    drive(&mut bench2, &n, a, b, v, &[(1, 0, 0), (0, 1, 0), (0, 0, 0)]);
    assert_eq!(bench2.violations().len(), 1);
}

#[test]
fn fatal_flag_and_report() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_never("nofire", Severity::Fatal, Expr::net(a));
    assert_eq!(bench.num_monitors(), 1);
    drive(&mut bench, &n, a, b, v, &[(1, 0, 0)]);
    assert!(bench.fatal_fired());
    let report = bench.report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].2, 1);
    assert_eq!(bench.cycles(), 1);
}

#[test]
#[should_panic(expected = "num_cks >= 1")]
fn assert_next_zero_rejected() {
    let mut bench = OvlBench::new();
    bench.assert_next("x", Severity::Error, Expr::bit(true), Expr::bit(true), 0);
}

#[test]
fn assert_even_parity_checks_combined_vector() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    // watch {a, v}: 5 bits total; a acts as the parity bit of v
    bench.assert_even_parity(
        "par",
        Severity::Error,
        Expr::net(b),
        Expr::Concat(vec![Expr::net(v), Expr::net(a)]),
    );
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[
            (1, 1, 0b0001), // two ones: even, valid -> ok
            (0, 1, 0b0011), // two ones: ok
            (0, 1, 0b0001), // one one: odd -> violation
            (1, 0, 0b0001), // odd but not valid -> ignored
        ],
    );
    assert_eq!(bench.violations().len(), 1);
    assert_eq!(bench.violations()[0].cycle, 2);
    assert_eq!(bench.violations()[0].kind, MonitorKind::EvenParity);
}

#[test]
fn assert_width_bounds_pulses() {
    let (n, a, b, v) = probe_design();
    let mut bench = OvlBench::new();
    bench.assert_width("w", Severity::Error, Expr::net(a), 2, 3);
    // pulse of 2 (ok), pulse of 1 (short), pulse of 4 (long)
    drive(
        &mut bench,
        &n,
        a,
        b,
        v,
        &[
            (1, 0, 0),
            (1, 0, 0),
            (0, 0, 0),
            (1, 0, 0),
            (0, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (0, 0, 0),
        ],
    );
    let kinds: Vec<&str> = bench
        .violations()
        .iter()
        .map(|vi| vi.message.as_str())
        .collect();
    assert_eq!(bench.violations().len(), 2, "{kinds:?}");
    assert!(kinds[0].contains("shorter"));
    assert!(kinds[1].contains("longer"));
}

#[test]
#[should_panic(expected = "assert_width bounds")]
fn assert_width_rejects_bad_bounds() {
    let mut bench = OvlBench::new();
    bench.assert_width("w", Severity::Error, Expr::bit(true), 3, 2);
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
        #[test]
        fn always_counts_lows(bits in prop::collection::vec(any::<bool>(), 1..40)) {
            let (n, a, b, v) = probe_design();
            let mut bench = OvlBench::new();
            bench.assert_always("a", Severity::Error, Expr::net(a));
            let waves: Vec<(u64, u64, u64)> = bits.iter().map(|&x| (x as u64, 0, 0)).collect();
            drive(&mut bench, &n, a, b, v, &waves);
            let lows = bits.iter().filter(|&&x| !x).count();
            prop_assert_eq!(bench.violations().len(), lows);
        }

        #[test]
        fn next_matches_shifted_implication(
            starts in prop::collection::vec(any::<bool>(), 4..24),
            tests in prop::collection::vec(any::<bool>(), 4..24),
            k in 1u32..4,
        ) {
            let len = starts.len().min(tests.len());
            let (n, a, b, v) = probe_design();
            let mut bench = OvlBench::new();
            bench.assert_next("nx", Severity::Error, Expr::net(a), Expr::net(b), k);
            let waves: Vec<(u64, u64, u64)> =
                (0..len).map(|i| (starts[i] as u64, tests[i] as u64, 0)).collect();
            drive(&mut bench, &n, a, b, v, &waves);
            let expected = (0..len)
                .filter(|&i| starts[i] && i + (k as usize) < len && !tests[i + k as usize])
                .count();
            prop_assert_eq!(bench.violations().len(), expected);
        }

        #[test]
        fn range_counts_out_of_bounds(vals in prop::collection::vec(0u64..16, 1..30)) {
            let (n, a, b, v) = probe_design();
            let mut bench = OvlBench::new();
            bench.assert_range("r", Severity::Error, Expr::net(v), 3, 12);
            let waves: Vec<(u64, u64, u64)> = vals.iter().map(|&x| (0, 0, x)).collect();
            drive(&mut bench, &n, a, b, v, &waves);
            let expected = vals.iter().filter(|&&x| !(3..=12).contains(&x)).count();
            prop_assert_eq!(bench.violations().len(), expected);
        }
    }
}
