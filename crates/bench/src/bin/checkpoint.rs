//! Warm-start vs cold-start: what a [`Snapshot`] buys over replaying
//! the recorded preamble [`Trace`] cycle by cycle.
//!
//! A farm shard (or a staged-closure continuation stream) that needs
//! the model past a long initialization preamble has two ways in: the
//! *cold* path replays the recorded trace through a fresh driver; the
//! *warm* path parses the serialized snapshot and restores it. Both
//! land on byte-identical model state — this binary re-proves that on
//! every row by comparing the re-captured snapshots — so the only
//! difference is time, and that difference is the whole point of the
//! checkpoint layer: the warm path is O(state), the cold path is
//! O(preamble cycles).
//!
//! Measured per bank count, scalar and 64-lane batched RTL:
//!
//! * cold — `Trace::parse` of the serialized trace plus a full replay
//!   into a fresh driver (what a shard without a snapshot must do);
//! * warm — `Snapshot::parse` of the serialized snapshot plus
//!   `into_rtl` / `into_rtl_batch` (what a warm-started shard does).
//!
//! Both sides start from serialized text: the comparison is
//! end-to-end from the bytes a journal or plan actually carries.
//!
//! Usage: `checkpoint [banks...] [--cycles N] [--seed N] [--runs N]
//! [--json <path>] [--assert-speedup X] [--smoke]`
//!
//! * `banks...` — bank counts to measure (default `1 2 4`);
//! * `--cycles` — preamble length in cycles (default 10000; 1500
//!   under `--smoke`);
//! * `--runs` — timing repetitions, best-of (default 3);
//! * `--assert-speedup X` — exit non-zero unless every scalar row's
//!   warm start is at least `X`× faster than its cold start;
//! * `--smoke` — gate mode for `scripts/check.sh`: small fixed
//!   configs, byte-equivalence enforced, no timing floor (timing on a
//!   loaded CI box is noise; equivalence is not).

use la1_bench::{write_json, BenchArgs, Gate};
use la1_core::checkpoint::{config_fingerprint, Snapshot, Trace};
use la1_core::json::Json;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::spec::{BankOp, LaConfig};
use la1_core::workloads::{RandomMix, Workload};
use std::time::Instant;

const LANES: usize = la1_rtl::LANES;

/// Times `f` over `runs` repetitions and returns the best elapsed
/// seconds together with the last result (all results are equal by
/// construction — the paths are deterministic).
fn best_of<T>(runs: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("runs >= 1"))
}

fn main() {
    let mut args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let cycles: u64 = args.value("--cycles", if smoke { 1_500 } else { 10_000 });
    let seed: u64 = args.value("--seed", 1);
    let runs: u32 = args.value("--runs", 3);
    let json_path: Option<String> = args.opt("--json");
    let assert_speedup: Option<f64> = args.opt("--assert-speedup");
    let banks_list = args.banks(if smoke { &[1, 2] } else { &[1, 2, 4] });

    println!("Checkpoint warm-start vs cold trace replay ({cycles}-cycle preamble).");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>8} | {:>12} | {:>12} | {:>8}",
        "Banks", "Cold (ms)", "Warm (ms)", "Speedup", "Batch cold", "Batch warm", "Speedup"
    );
    println!("{}", "-".repeat(88));

    let mut jsons = Vec::new();
    let mut gate = Gate::new("checkpoint");
    for &banks in &banks_list {
        let config = LaConfig::new(banks);
        let design = LaRtl::build(&config, None);

        // Record the preamble once: seeded write-heavy initialization
        // traffic, the same shape ClosurePreamble::record uses.
        let mut mix = RandomMix::new(&config, seed, 0.2, 0.7);
        let mut trace = Trace::new(config_fingerprint("rtl", &config));
        for _ in 0..cycles {
            trace.record(&mix.next_cycle());
        }
        let trace_text = trace.to_jsonl();

        // Ground truth: one untimed straight-through run, snapshotted.
        let mut reference = LaRtlDriver::new(&design);
        trace.replay_into(&mut reference);
        let ref_snap = Snapshot::of_rtl(&reference).expect("snapshot the reference driver");
        let snap_text = ref_snap.to_jsonl();

        let mut batch_reference = LaRtlBatchDriver::new(&design);
        for ops in &trace.cycles {
            let refs: Vec<&[BankOp]> = (0..LANES).map(|_| ops.as_slice()).collect();
            batch_reference.cycle(&refs);
        }
        let batch_ref_snap =
            Snapshot::of_rtl_batch(&batch_reference).expect("snapshot the batched reference");
        let batch_snap_text = batch_ref_snap.to_jsonl();

        // Scalar cold: parse the trace, replay it into a fresh driver.
        let (cold_s, cold_driver) = best_of(runs, || {
            let t = Trace::parse(&trace_text).expect("parse the recorded trace");
            let mut driver = LaRtlDriver::new(&design);
            t.replay_into(&mut driver);
            driver
        });
        // Scalar warm: parse the snapshot, restore the driver from it.
        let (warm_s, warm_driver) = best_of(runs, || {
            Snapshot::parse(&snap_text)
                .expect("parse the serialized snapshot")
                .into_rtl(&design)
                .expect("restore the scalar driver")
        });
        let cold_after = Snapshot::of_rtl(&cold_driver)
            .expect("re-snapshot cold")
            .to_jsonl();
        let warm_after = Snapshot::of_rtl(&warm_driver)
            .expect("re-snapshot warm")
            .to_jsonl();
        if cold_after != snap_text || warm_after != snap_text {
            gate.fail(format!(
                "{banks} banks: warm/cold scalar state diverged from straight-through"
            ));
        }

        // Batched cold: replay the trace broadcast across all lanes.
        let (batch_cold_s, batch_cold_driver) = best_of(runs, || {
            let t = Trace::parse(&trace_text).expect("parse the recorded trace");
            let mut driver = LaRtlBatchDriver::new(&design);
            for ops in &t.cycles {
                let refs: Vec<&[BankOp]> = (0..LANES).map(|_| ops.as_slice()).collect();
                driver.cycle(&refs);
            }
            driver
        });
        // Batched warm: parse + restore all 64 lanes at once.
        let (batch_warm_s, batch_warm_driver) = best_of(runs, || {
            Snapshot::parse(&batch_snap_text)
                .expect("parse the serialized batch snapshot")
                .into_rtl_batch(&design)
                .expect("restore the batched driver")
        });
        let batch_cold_after = Snapshot::of_rtl_batch(&batch_cold_driver)
            .expect("re-snapshot batch cold")
            .to_jsonl();
        let batch_warm_after = Snapshot::of_rtl_batch(&batch_warm_driver)
            .expect("re-snapshot batch warm")
            .to_jsonl();
        if batch_cold_after != batch_snap_text || batch_warm_after != batch_snap_text {
            gate.fail(format!(
                "{banks} banks: warm/cold batched state diverged from straight-through"
            ));
        }

        let speedup = cold_s / warm_s.max(1e-9);
        let batch_speedup = batch_cold_s / batch_warm_s.max(1e-9);
        println!(
            "{banks:>6} | {:>12.3} | {:>12.3} | {speedup:>7.1}x | {:>12.3} | {:>12.3} | {batch_speedup:>7.1}x",
            cold_s * 1e3,
            warm_s * 1e3,
            batch_cold_s * 1e3,
            batch_warm_s * 1e3,
        );
        if let Some(floor) = assert_speedup {
            if speedup < floor {
                gate.fail(format!(
                    "{banks} banks: warm-start speedup {speedup:.2}x below the {floor}x floor"
                ));
            }
        }
        jsons.push(Json::obj([
            ("banks", Json::num(banks as u64)),
            ("preamble_cycles", Json::num(cycles)),
            ("snapshot_bytes", Json::num(snap_text.len() as u64)),
            (
                "batch_snapshot_bytes",
                Json::num(batch_snap_text.len() as u64),
            ),
            ("cold_ms", Json::fixed(cold_s * 1e3, 3)),
            ("warm_ms", Json::fixed(warm_s * 1e3, 3)),
            ("speedup", Json::fixed(speedup, 2)),
            ("batch_cold_ms", Json::fixed(batch_cold_s * 1e3, 3)),
            ("batch_warm_ms", Json::fixed(batch_warm_s * 1e3, 3)),
            ("batch_speedup", Json::fixed(batch_speedup, 2)),
        ]));
    }
    if let Some(path) = json_path {
        write_json(&path, jsons, &[]);
    }
    gate.finish(smoke || assert_speedup.is_some());
}
