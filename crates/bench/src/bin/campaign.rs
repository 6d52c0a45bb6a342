//! Runs the deterministic fault-injection campaign and prints the
//! cross-level detection matrix (crate `la1-fault`).
//!
//! Usage: `campaign [banks...] [--seed N] [--runs N] [--levels l1,l2]
//! [--batched] [--assert-speedup X] [--json <path>] [--smoke]`
//!
//! * `banks...` — bank counts to campaign over (default `1 2 4`);
//! * `--seed` — campaign seed (default 42); same seed + config gives
//!   byte-identical output;
//! * `--runs` — seeded runs per (fault, level) cell (default 3);
//! * `--levels` — comma-separated level filter (`asm`, `systemc`,
//!   `rtl`, `rtl+ovl`); default all four. `--levels rtl,rtl+ovl`
//!   isolates the bit-parallel levels for throughput measurement;
//! * `--batched` — run the RTL levels through the 64-lane parallel
//!   fault engine ([`la1_fault::run_campaign_batched`]) with fault
//!   dropping; verdicts are byte-identical to the scalar engine;
//! * `--assert-speedup X` — time the scalar engine too, assert the
//!   matrices match byte for byte and that batched is at least `X`×
//!   faster (implies `--batched`);
//! * `--json` — write the machine-readable matrices (one JSON object
//!   per bank count, in a JSON array) to a file. Batched runs carry a
//!   `"perf"` object with `patterns_per_second` and (under
//!   `--assert-speedup`) `speedup_vs_scalar`;
//! * `--smoke` — gate mode for `scripts/check.sh`: exits non-zero
//!   unless every fault model is detected by at least one channel at
//!   the RTL+OVL level and the healthy design never hangs. Combined
//!   with `--batched`, additionally asserts batched == scalar.

use la1_bench::{write_json, BenchArgs, Gate};
use la1_core::json::Json;
use la1_fault::{
    run_campaign, run_campaign_batched, CampaignConfig, DetectionMatrix, FaultModel, Level,
};
use std::time::Instant;

/// Seeded runs the campaign executes: per level, one per supported
/// (fault, run) pair plus the healthy control. Level-independent work
/// counted identically for the scalar and batched engines.
fn pattern_count(config: &CampaignConfig) -> u64 {
    let mut n = 0u64;
    for &level in &config.levels {
        for &fault in &config.faults {
            if la1_fault::supports(fault, level) {
                n += config.runs_per_fault as u64;
            }
        }
        n += 1; // healthy control
    }
    n
}

/// The `"perf"` object a `--json` matrix carries: wall-clock figures,
/// kept out of the deterministic matrix itself.
fn perf_json(
    mode: &str,
    elapsed: f64,
    patterns: u64,
    speedup: Option<f64>,
    batch: Option<Json>,
) -> Json {
    let mut fields = vec![
        ("mode", Json::str(mode)),
        ("elapsed_seconds", Json::fixed(elapsed, 4)),
        ("patterns", Json::num(patterns)),
        (
            "patterns_per_second",
            Json::fixed(patterns as f64 / elapsed.max(1e-9), 1),
        ),
        (
            "speedup_vs_scalar",
            speedup.map_or(Json::Null, |s| Json::fixed(s, 2)),
        ),
    ];
    fields.extend(batch.map(|b| ("batch", b)));
    Json::obj(fields)
}

fn parse_levels(spec: &str) -> Vec<Level> {
    spec.split(',')
        .map(|s| {
            Level::from_name(s.trim())
                .unwrap_or_else(|| panic!("unknown level '{s}' (asm, systemc, rtl, rtl+ovl)"))
        })
        .collect()
}

fn main() {
    let mut args = BenchArgs::parse();
    let seed: u64 = args.value("--seed", 42);
    let runs: u32 = args.value("--runs", 3);
    let levels: Option<Vec<Level>> = args.opt::<String>("--levels").map(|s| parse_levels(&s));
    let assert_speedup: Option<f64> = args.opt("--assert-speedup");
    let batched = args.flag("--batched") || assert_speedup.is_some();
    let json_path: Option<String> = args.opt("--json");
    let smoke = args.flag("--smoke");
    let banks_list = args.banks(&[1, 2, 4]);

    let mut jsons = Vec::new();
    let mut gate = Gate::new("campaign");
    for &banks in &banks_list {
        let mut config = CampaignConfig::new(banks, seed);
        config.runs_per_fault = runs;
        if let Some(levels) = &levels {
            config.levels = levels.clone();
        }
        let patterns = pattern_count(&config);

        // The scalar engine runs when it is the requested mode, or as
        // the timed/verdict reference for --assert-speedup / batched
        // smoke runs.
        let need_scalar = !batched || assert_speedup.is_some() || smoke;
        let scalar = need_scalar.then(|| {
            let t0 = Instant::now();
            let matrix = run_campaign(&config);
            (matrix, t0.elapsed().as_secs_f64())
        });

        let (matrix, perf) = if batched {
            let t0 = Instant::now();
            let (matrix, stats) = run_campaign_batched(&config);
            let elapsed = t0.elapsed().as_secs_f64();
            println!("{}", stats.render());
            let speedup = scalar.as_ref().map(|(reference, scalar_elapsed)| {
                assert_eq!(
                    reference.to_json(),
                    matrix.to_json(),
                    "batched campaign diverged from scalar at {banks} bank(s)"
                );
                scalar_elapsed / elapsed.max(1e-9)
            });
            let pps = patterns as f64 / elapsed.max(1e-9);
            println!(
                "throughput: {patterns} patterns in {elapsed:.3}s = {pps:.1} patterns/s{}",
                speedup
                    .map(|s| format!(" ({s:.2}x vs scalar)"))
                    .unwrap_or_default()
            );
            if let (Some(floor), Some(s)) = (assert_speedup, speedup) {
                if s < floor {
                    gate.fail(format!(
                        "{banks} banks: batched speedup {s:.2}x below the {floor}x floor"
                    ));
                }
            }
            let batch = Json::obj([
                ("rtl_lane_runs", Json::num(stats.rtl_lane_runs as u64)),
                ("groups", Json::num(stats.groups as u64)),
                (
                    "lanes_retired_early",
                    Json::num(stats.lanes_retired_early as u64),
                ),
                ("lane_cycles_saved", Json::num(stats.lane_cycles_saved)),
            ]);
            let perf = perf_json("batched", elapsed, patterns, speedup, Some(batch));
            (matrix, perf)
        } else {
            let (matrix, elapsed) = scalar.expect("scalar mode always runs the scalar engine");
            (matrix, perf_json("scalar", elapsed, patterns, None, None))
        };

        println!("{}", matrix.render());
        let mut doc = matrix.json();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("perf".to_string(), perf));
        }
        jsons.push(doc);
        if smoke {
            let gate_rtl_ovl = config.levels.contains(&Level::RtlOvl);
            for fault in FaultModel::ALL {
                if gate_rtl_ovl && !matrix.detected_at(fault, Level::RtlOvl) {
                    gate.fail(format!(
                        "{} banks: {} escaped every channel at rtl+ovl",
                        banks,
                        fault.name()
                    ));
                }
            }
            for (level, ok) in &matrix.healthy {
                if !ok {
                    gate.fail(format!("{banks} banks: healthy design hung at {level}"));
                }
            }
        }
    }
    if let Some(path) = json_path {
        write_json(&path, jsons, DetectionMatrix::ROWS);
    }
    gate.finish(smoke || assert_speedup.is_some());
}
