//! The checkpoint layer's headline guarantee, tested differentially:
//! *checkpoint → serialize → parse → restore → continue* is
//! byte-for-byte indistinguishable from running straight through —
//! at every refinement level (ASM, SystemC, RTL, RTL+OVL) and on the
//! 64-lane batched RTL engine.
//!
//! Each case runs one seeded workload twice: the reference executes
//! uninterrupted; the subject is snapshotted at a pseudo-random cut
//! cycle, round-tripped through the serialized JSONL text, restored
//! into a *fresh* model, and continued. From the cut to the end the
//! two must agree on every observable, every cycle:
//!
//! * pins — per-bank data output, write-done, parity error;
//! * verdicts — monitor violation counts *and* detail lists;
//! * coverage — a [`CoverageCollector`] attached to each continuation
//!   must end with identical hit counts, first-hit cycles and ring
//!   history (the full collector state, compared structurally).
//!
//! The deterministic sweeps below always run (they are the substrate
//! of the `check.sh` checkpoint-equivalence gate); the `props` module
//! widens the cut-point/seed space under `--features proptest`.

use la1_suite::core::asm_model::LaAsmModel;
use la1_suite::core::checkpoint::Snapshot;
use la1_suite::core::cycle_model::{CycleModel, CycleObserver, RtlWithOvl};
use la1_suite::core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_suite::core::sc_model::LaSystemC;
use la1_suite::core::spec::{BankOp, LaConfig};
use la1_suite::core::stimulus::stream_seed;
use la1_suite::core::workloads::{RandomMix, Workload};
use la1_suite::cover::{CoverageCollector, CoverageModel};
use la1_suite::rtl::LANES;

/// A small configuration whose address corners are reachable in a
/// short run (the coverage model has per-bank lo/hi address bins).
fn small_cfg(banks: u32) -> LaConfig {
    let mut cfg = LaConfig::new(banks);
    cfg.words_per_bank = 8;
    cfg
}

/// `n` cycles of seeded mixed traffic.
fn mix(cfg: &LaConfig, seed: u64, n: usize) -> Vec<Vec<BankOp>> {
    let mut w = RandomMix::new(cfg, seed, 0.6, 0.55);
    (0..n).map(|_| w.next_cycle()).collect()
}

/// The same stream with full-word byte enables (the ASM level
/// abstracts byte control and rejects partial writes).
fn full_be_mix(cfg: &LaConfig, seed: u64, n: usize) -> Vec<Vec<BankOp>> {
    let full = (1u32 << cfg.byte_enables()) - 1;
    mix(cfg, seed, n)
        .into_iter()
        .map(|ops| {
            ops.into_iter()
                .map(|op| match op {
                    BankOp::Write {
                        bank, addr, data, ..
                    } => BankOp::write(bank, addr, data, full),
                    read => read,
                })
                .collect()
        })
        .collect()
}

/// Deterministic pseudo-random `(seed, cut)` pairs: the differential
/// sweep's stand-in for proptest generation in the always-on tier.
fn sweep(base: u64, points: usize, len: usize) -> Vec<(u64, usize)> {
    (0..points as u64)
        .map(|i| {
            let seed = stream_seed(base, i);
            let cut = 5 + (stream_seed(seed, 1) as usize) % (len - 15);
            (seed, cut)
        })
        .collect()
}

/// Continues both models over `tail`, asserting every observable every
/// cycle, then compares final verdicts and the complete coverage
/// state collected over the continuation.
fn continue_and_compare(
    cfg: &LaConfig,
    orig: &mut dyn CycleModel,
    restored: &mut dyn CycleModel,
    tail: &[Vec<BankOp>],
    ctx: &str,
) {
    let mut cov_orig = CoverageCollector::new(CoverageModel::la1(cfg));
    let mut cov_rest = CoverageCollector::new(CoverageModel::la1(cfg));
    for (i, ops) in tail.iter().enumerate() {
        orig.cycle(ops);
        restored.cycle(ops);
        for b in 0..cfg.banks {
            assert_eq!(
                orig.bank_output(b),
                restored.bank_output(b),
                "{ctx}: bank {b} data diverged {i} cycles after restore"
            );
            assert_eq!(
                orig.write_done(b),
                restored.write_done(b),
                "{ctx}: bank {b} write-done diverged {i} cycles after restore"
            );
            assert_eq!(
                orig.parity_error(b),
                restored.parity_error(b),
                "{ctx}: bank {b} parity diverged {i} cycles after restore"
            );
        }
        cov_orig.observe(ops, orig);
        cov_rest.observe(ops, restored);
    }
    assert_eq!(
        orig.violation_count(),
        restored.violation_count(),
        "{ctx}: violation counts diverged"
    );
    assert_eq!(
        orig.violation_details(),
        restored.violation_details(),
        "{ctx}: violation details diverged"
    );
    assert_eq!(cov_orig.hits(), cov_rest.hits(), "{ctx}: bin hits diverged");
    assert_eq!(
        cov_orig.first_hits(),
        cov_rest.first_hits(),
        "{ctx}: first-hit cycles diverged"
    );
    assert_eq!(
        cov_orig.snapshot_state(),
        cov_rest.snapshot_state(),
        "{ctx}: collector ring history diverged"
    );
}

/// Round-trips a snapshot through its serialized text, asserting the
/// text is byte-stable under re-serialization.
fn round_trip(snap: Snapshot, ctx: &str) -> Snapshot {
    let text = snap.to_jsonl();
    let parsed = Snapshot::parse(&text).unwrap_or_else(|e| panic!("{ctx}: parse failed: {e:?}"));
    assert_eq!(parsed, snap, "{ctx}: parse changed the snapshot");
    assert_eq!(
        parsed.to_jsonl(),
        text,
        "{ctx}: re-serialization not byte-stable"
    );
    parsed
}

#[test]
fn asm_restore_is_equivalent_at_random_cut_points() {
    let cfg = small_cfg(2);
    for (seed, cut) in sweep(0xA51, 6, 90) {
        let ops = full_be_mix(&cfg, seed, 90);
        let mut orig = LaAsmModel::new(&cfg);
        for c in &ops[..cut] {
            orig.cycle(c);
        }
        let snap = round_trip(Snapshot::of_asm(&orig), "asm");
        let mut restored = snap.into_asm(&cfg).expect("restore the ASM model");
        continue_and_compare(
            &cfg,
            &mut orig,
            &mut restored,
            &ops[cut..],
            &format!("asm seed={seed} cut={cut}"),
        );
    }
}

#[test]
fn systemc_restore_is_equivalent_at_random_cut_points() {
    let cfg = small_cfg(2);
    for (seed, cut) in sweep(0x5C5, 6, 90) {
        let ops = mix(&cfg, seed, 90);
        let mut orig = LaSystemC::new(&cfg);
        orig.attach_default_monitors();
        for c in &ops[..cut] {
            orig.cycle(c);
        }
        let snap = round_trip(
            Snapshot::of_systemc(&cfg, &orig).expect("snapshot the SystemC model"),
            "systemc",
        );
        let mut restored = snap.into_systemc(&cfg).expect("restore the SystemC model");
        continue_and_compare(
            &cfg,
            &mut orig,
            &mut restored,
            &ops[cut..],
            &format!("systemc seed={seed} cut={cut}"),
        );
    }
}

#[test]
fn rtl_restore_is_equivalent_at_random_cut_points() {
    let cfg = small_cfg(2);
    let design = LaRtl::build(&cfg, None);
    for (seed, cut) in sweep(0x271, 6, 90) {
        let ops = mix(&cfg, seed, 90);
        let mut orig = LaRtlDriver::new(&design);
        for c in &ops[..cut] {
            orig.cycle(c);
        }
        let snap = round_trip(
            Snapshot::of_rtl(&orig).expect("snapshot the RTL driver"),
            "rtl",
        );
        let mut restored = snap.into_rtl(&design).expect("restore the RTL driver");
        continue_and_compare(
            &cfg,
            &mut orig,
            &mut restored,
            &ops[cut..],
            &format!("rtl seed={seed} cut={cut}"),
        );
    }
}

#[test]
fn rtl_ovl_restore_is_equivalent_at_random_cut_points() {
    let cfg = small_cfg(2);
    let design = LaRtl::build(&cfg, None);
    for (seed, cut) in sweep(0x0F1, 6, 90) {
        let ops = mix(&cfg, seed, 90);
        let mut orig = RtlWithOvl::new(&design);
        for c in &ops[..cut] {
            orig.cycle(c);
        }
        let snap = round_trip(
            Snapshot::of_rtl_ovl(&cfg, &orig).expect("snapshot the monitored RTL"),
            "rtl+ovl",
        );
        let mut restored = snap
            .into_rtl_ovl(&design)
            .expect("restore the monitored RTL");
        continue_and_compare(
            &cfg,
            &mut orig,
            &mut restored,
            &ops[cut..],
            &format!("rtl+ovl seed={seed} cut={cut}"),
        );
    }
}

#[test]
fn batched_rtl_restore_is_equivalent_at_random_cut_points() {
    let cfg = small_cfg(1);
    let design = LaRtl::build(&cfg, None);
    for (seed, cut) in sweep(0xBA7, 4, 70) {
        // every lane gets its own stream, so the restored pattern
        // planes must be right for all 64 lanes, not just lane 0
        let lanes: Vec<Vec<Vec<BankOp>>> = (0..LANES)
            .map(|l| mix(&cfg, stream_seed(seed, l as u64), 70))
            .collect();
        let row = |i: usize| -> Vec<&[BankOp]> { lanes.iter().map(|l| l[i].as_slice()).collect() };
        let mut orig = LaRtlBatchDriver::new(&design);
        for i in 0..cut {
            orig.cycle(&row(i));
        }
        let snap = round_trip(
            Snapshot::of_rtl_batch(&orig).expect("snapshot the batched driver"),
            "rtl-batch",
        );
        let mut restored = snap
            .into_rtl_batch(&design)
            .expect("restore the batched driver");
        for i in cut..70 {
            orig.cycle(&row(i));
            restored.cycle(&row(i));
            for lane in 0..LANES {
                for b in 0..cfg.banks {
                    assert_eq!(
                        orig.bank_output(lane, b),
                        restored.bank_output(lane, b),
                        "batch seed={seed} cut={cut}: lane {lane} bank {b} data diverged"
                    );
                    assert_eq!(
                        orig.write_done(lane, b),
                        restored.write_done(lane, b),
                        "batch seed={seed} cut={cut}: lane {lane} bank {b} wdone diverged"
                    );
                }
            }
        }
        // final machine state, not just pins: re-captured snapshots
        // must serialize to the same bytes
        let a = Snapshot::of_rtl_batch(&orig).unwrap().to_jsonl();
        let b = Snapshot::of_rtl_batch(&restored).unwrap().to_jsonl();
        assert_eq!(
            a, b,
            "batch seed={seed} cut={cut}: end-state snapshots differ"
        );
    }
}

#[test]
fn restored_model_resnapshot_is_byte_identical() {
    // snapshot → restore → snapshot again must reproduce the exact
    // serialized bytes at every level: nothing is lost or reordered
    let cfg = small_cfg(2);
    let design = LaRtl::build(&cfg, None);
    let ops = mix(&cfg, 31, 40);
    let full = full_be_mix(&cfg, 31, 40);

    let mut asm = LaAsmModel::new(&cfg);
    full.iter().for_each(|c| asm.cycle(c));
    let t = Snapshot::of_asm(&asm).to_jsonl();
    let r = Snapshot::parse(&t).unwrap().into_asm(&cfg).unwrap();
    assert_eq!(
        Snapshot::of_asm(&r).to_jsonl(),
        t,
        "asm re-snapshot drifted"
    );

    let mut sc = LaSystemC::new(&cfg);
    sc.attach_default_monitors();
    ops.iter().for_each(|c| sc.cycle(c));
    let t = Snapshot::of_systemc(&cfg, &sc).unwrap().to_jsonl();
    let r = Snapshot::parse(&t).unwrap().into_systemc(&cfg).unwrap();
    assert_eq!(
        Snapshot::of_systemc(&cfg, &r).unwrap().to_jsonl(),
        t,
        "systemc re-snapshot drifted"
    );

    let mut rtl = LaRtlDriver::new(&design);
    ops.iter().for_each(|c| rtl.cycle(c));
    let t = Snapshot::of_rtl(&rtl).unwrap().to_jsonl();
    let r = Snapshot::parse(&t).unwrap().into_rtl(&design).unwrap();
    assert_eq!(
        Snapshot::of_rtl(&r).unwrap().to_jsonl(),
        t,
        "rtl re-snapshot drifted"
    );

    let mut ovl = RtlWithOvl::new(&design);
    ops.iter().for_each(|c| ovl.cycle(c));
    let t = Snapshot::of_rtl_ovl(&cfg, &ovl).unwrap().to_jsonl();
    let r = Snapshot::parse(&t).unwrap().into_rtl_ovl(&design).unwrap();
    assert_eq!(
        Snapshot::of_rtl_ovl(&cfg, &r).unwrap().to_jsonl(),
        t,
        "rtl+ovl re-snapshot drifted"
    );
}

// Wider randomized sweeps behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest).
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any seed, any cut point, any small bank count: the SystemC
        /// restore-and-continue path is observationally identical.
        #[test]
        fn systemc_restore_equivalent(seed in 0u64..10_000, cut in 5usize..75, banks in 1u32..4) {
            let cfg = small_cfg(banks);
            let ops = mix(&cfg, seed, 90);
            let mut orig = LaSystemC::new(&cfg);
            orig.attach_default_monitors();
            for c in &ops[..cut] {
                orig.cycle(c);
            }
            let snap = Snapshot::of_systemc(&cfg, &orig).unwrap();
            let mut restored = Snapshot::parse(&snap.to_jsonl())
                .unwrap()
                .into_systemc(&cfg)
                .unwrap();
            continue_and_compare(
                &cfg,
                &mut orig,
                &mut restored,
                &ops[cut..],
                &format!("prop systemc seed={seed} cut={cut} banks={banks}"),
            );
        }

        /// The same property on the scalar RTL driver.
        #[test]
        fn rtl_restore_equivalent(seed in 0u64..10_000, cut in 5usize..75, banks in 1u32..4) {
            let cfg = small_cfg(banks);
            let design = LaRtl::build(&cfg, None);
            let ops = mix(&cfg, seed, 90);
            let mut orig = LaRtlDriver::new(&design);
            for c in &ops[..cut] {
                orig.cycle(c);
            }
            let snap = Snapshot::of_rtl(&orig).unwrap();
            let mut restored = Snapshot::parse(&snap.to_jsonl())
                .unwrap()
                .into_rtl(&design)
                .unwrap();
            continue_and_compare(
                &cfg,
                &mut orig,
                &mut restored,
                &ops[cut..],
                &format!("prop rtl seed={seed} cut={cut} banks={banks}"),
            );
        }

        /// Truncating a serialized snapshot anywhere never panics and
        /// never parses: every cut yields a typed error.
        #[test]
        fn snapshot_prefixes_always_reject(seed in 0u64..10_000, permille in 0u64..1000) {
            let cfg = small_cfg(2);
            let mut sc = LaSystemC::new(&cfg);
            for c in &mix(&cfg, seed, 30) {
                sc.cycle(c);
            }
            let text = Snapshot::of_systemc(&cfg, &sc).unwrap().to_jsonl();
            let cut = (text.len() * (permille as usize)) / 1000;
            prop_assert!(Snapshot::parse(&text[..cut]).is_err());
        }
    }
}
