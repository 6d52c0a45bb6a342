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
//! * `--assert-speedup X` — time the scalar engine too, as
//!   `SPEEDUP_PAIRS` interleaved scalar/batched pairs; assert every
//!   run's matrix matches the first scalar one byte for byte and that
//!   the median batched run is at least `X`× faster than the median
//!   scalar run (implies `--batched`);
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

/// Interleaved scalar/batched run pairs `--assert-speedup` times. One
/// ~5 ms batched run timed against one scalar run read anywhere from
/// 2.9× to 6.9× at 4 banks on a 2-vCPU VM; the medians of interleaved
/// pairs move far less, and a host burst hits both sides.
const SPEEDUP_PAIRS: usize = 11;

/// The median of `samples` (upper median for an even count).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

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
        // smoke runs. Each engine's figure is the median of its runs.
        let need_scalar = !batched || assert_speedup.is_some() || smoke;
        let pairs = if assert_speedup.is_some() {
            SPEEDUP_PAIRS
        } else {
            1
        };
        let mut scalar: Option<DetectionMatrix> = None;
        let mut scalar_s = Vec::new();
        let mut batched_run = None;
        let mut batched_s = Vec::new();
        for _ in 0..pairs {
            if need_scalar {
                let t0 = Instant::now();
                let matrix = run_campaign(&config);
                scalar_s.push(t0.elapsed().as_secs_f64());
                match &scalar {
                    Some(reference) => assert_eq!(
                        reference.to_json(),
                        matrix.to_json(),
                        "scalar campaign changed between runs at {banks} bank(s)"
                    ),
                    None => scalar = Some(matrix),
                }
            }
            if batched {
                let t0 = Instant::now();
                let (matrix, stats) = run_campaign_batched(&config);
                batched_s.push(t0.elapsed().as_secs_f64());
                if let Some(reference) = &scalar {
                    assert_eq!(
                        reference.to_json(),
                        matrix.to_json(),
                        "batched campaign diverged from scalar at {banks} bank(s)"
                    );
                }
                batched_run = Some((matrix, stats));
            }
        }
        let scalar_elapsed = need_scalar.then(|| median(&mut scalar_s));

        let (matrix, perf) = if let Some((matrix, stats)) = batched_run {
            let elapsed = median(&mut batched_s);
            println!("{}", stats.render());
            let speedup = scalar_elapsed.map(|s| s / elapsed.max(1e-9));
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
            let matrix = scalar.expect("scalar mode always runs the scalar engine");
            let elapsed = scalar_elapsed.expect("scalar mode always times the scalar engine");
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
