//! Runs the coverage-closure campaign: coverage-guided vs pure-random
//! constrained-random stimulus (crate `la1-cover`).
//!
//! Usage: `closure [banks...] [--seed N] [--budget N] [--epoch N]
//! [--la1b] [--batched] [--streams N] [--assert-speedup X]
//! [--json <path>] [--smoke]`
//!
//! * `banks...` — bank counts to close coverage on (default `1 2 4`);
//! * `--seed` — generator seed (default 1); same seed + config gives
//!   byte-identical output;
//! * `--budget` — cycle budget per run (default 400000);
//! * `--epoch` — cycles between guidance updates (default 500);
//! * `--la1b` — use the burst (LA-1B) configuration, adding the tier-2
//!   burst bins;
//! * `--batched` — run multi-stream closure on the interpreted RTL
//!   through the 64-lane bit-parallel engine
//!   ([`la1_cover::run_closure_rtl_batched`]) instead of the
//!   single-stream SystemC loop;
//! * `--streams N` — independent stimulus streams per run in batched
//!   mode (default 64, the lane width);
//! * `--assert-speedup X` — time the sequential multi-stream reference
//!   too, assert its report is byte-identical and that the batched
//!   engine is at least `X`× faster (implies `--batched`);
//! * `--json` — write the machine-readable reports to a file. Batched
//!   runs carry a `"perf"` object with `patterns_per_second` (lane
//!   cycles per second) and `speedup_vs_scalar`;
//! * `--smoke` — gate mode for `scripts/check.sh`: banks default to
//!   `1 2`, budget to 40000, and the binary exits non-zero unless the
//!   guided run closes 100% of tier-1 bins within the budget.

use la1_bench::{write_json, BenchArgs, Gate};
use la1_core::json::Json;
use la1_core::spec::LaConfig;
use la1_cover::{
    run_closure, run_closure_rtl, run_closure_rtl_batched, ClosureConfig, ClosureReport,
    MultiClosureReport,
};
use std::time::Instant;

fn row(report: &ClosureReport) -> String {
    let ctc = match report.cycles_to_closure {
        Some(c) => c.to_string(),
        None => format!(">{}", report.budget),
    };
    format!(
        "{:>6} | {:>7} | {:>10} | {:>5}/{:<5} | {:>10}",
        report.banks,
        if report.guided { "guided" } else { "random" },
        report.cycles_run,
        report.bins_hit,
        report.bins_total,
        ctc
    )
}

fn multi_row(report: &MultiClosureReport) -> String {
    let ctc = match report.cycles_to_closure {
        Some(c) => c.to_string(),
        None => format!(">{}", report.budget),
    };
    format!(
        "{:>6} | {:>7} | {:>10} | {:>5}/{:<5} | {:>10}",
        report.banks,
        format!(
            "{} x{}",
            if report.guided { "gui" } else { "rnd" },
            report.streams
        ),
        report.cycles_run,
        report.bins_hit,
        report.bins_total,
        ctc
    )
}

fn main() {
    let mut args = BenchArgs::parse();
    let seed: u64 = args.value("--seed", 1);
    let budget: Option<u64> = args.opt("--budget");
    let epoch: Option<u64> = args.opt("--epoch");
    let la1b = args.flag("--la1b");
    let streams: u32 = args.value("--streams", 64);
    let assert_speedup: Option<f64> = args.opt("--assert-speedup");
    let batched = args.flag("--batched") || assert_speedup.is_some();
    let json_path: Option<String> = args.opt("--json");
    let smoke = args.flag("--smoke");
    let banks_list = args.banks(if smoke { &[1, 2] } else { &[1, 2, 4] });
    let budget = budget.unwrap_or(if smoke { 40_000 } else { 400_000 });

    if batched {
        println!("Multi-stream RTL coverage closure (bit-parallel, {streams} streams).");
        println!(
            "{:>6} | {:>7} | {:>10} | {:>11} | {:>10}",
            "Banks", "Mode", "Cycles", "Bins hit", "To close"
        );
    } else {
        println!("Coverage closure: guided vs random constrained-random stimulus.");
        println!(
            "{:>6} | {:>7} | {:>10} | {:>11} | {:>10}",
            "Banks", "Mode", "Cycles", "Bins hit", "To close"
        );
    }
    println!("{}", "-".repeat(58));
    let mut jsons = Vec::new();
    let mut gate = Gate::new("closure");
    for &banks in &banks_list {
        let la_config = if la1b {
            LaConfig::la1b(banks)
        } else {
            LaConfig::new(banks)
        };
        let mut cfg = ClosureConfig::new(la_config, seed);
        cfg.budget = budget;
        if let Some(e) = epoch {
            cfg.epoch = e;
        }

        if batched {
            let scalar = assert_speedup.is_some().then(|| {
                let t0 = Instant::now();
                let report = run_closure_rtl(&cfg, true, streams);
                (report, t0.elapsed().as_secs_f64())
            });
            let t0 = Instant::now();
            let guided = run_closure_rtl_batched(&cfg, true, streams);
            let elapsed = t0.elapsed().as_secs_f64();
            println!("{}", multi_row(&guided));
            let speedup = scalar.as_ref().map(|(reference, scalar_elapsed)| {
                assert_eq!(
                    reference.to_json(),
                    guided.to_json(),
                    "batched closure diverged from the sequential reference at {banks} bank(s)"
                );
                scalar_elapsed / elapsed.max(1e-9)
            });
            let pps = guided.lane_cycles as f64 / elapsed.max(1e-9);
            println!(
                "throughput: {} lane-cycles in {elapsed:.3}s = {pps:.0} patterns/s{}",
                guided.lane_cycles,
                speedup
                    .map(|s| format!(" ({s:.2}x vs scalar)"))
                    .unwrap_or_default()
            );
            if let (Some(floor), Some(s)) = (assert_speedup, speedup) {
                if s < floor {
                    gate.fail(format!(
                        "{banks} banks: batched closure speedup {s:.2}x below the {floor}x floor"
                    ));
                }
            }
            if smoke && (!guided.closed || guided.tier1_hit != guided.tier1_total) {
                gate.fail(format!(
                    "{} banks: batched closure left {}/{} tier-1 bins unhit within {} cycles: {:?}",
                    banks,
                    guided.tier1_total - guided.tier1_hit,
                    guided.tier1_total,
                    budget,
                    guided.unhit
                ));
            }
            let perf = Json::obj([
                ("mode", Json::str("batched")),
                ("elapsed_seconds", Json::fixed(elapsed, 4)),
                ("patterns", Json::num(guided.lane_cycles)),
                ("patterns_per_second", Json::fixed(pps, 0)),
                (
                    "speedup_vs_scalar",
                    speedup.map_or(Json::Null, |s| Json::fixed(s, 2)),
                ),
            ]);
            jsons.push(Json::obj([("guided", guided.json()), ("perf", perf)]));
            continue;
        }

        let guided = run_closure(&cfg, true);
        println!("{}", row(&guided));
        if smoke {
            if !guided.closed || guided.tier1_hit != guided.tier1_total {
                gate.fail(format!(
                    "{} banks: guided closure left {}/{} tier-1 bins unhit within {} cycles: {:?}",
                    banks,
                    guided.tier1_total - guided.tier1_hit,
                    guided.tier1_total,
                    budget,
                    guided.unhit
                ));
            }
            jsons.push(Json::obj([("guided", guided.json())]));
            continue;
        }
        let random = run_closure(&cfg, false);
        println!("{}", row(&random));
        jsons.push(Json::obj([
            ("guided", guided.json()),
            ("random", random.json()),
        ]));
    }
    if let Some(path) = json_path {
        write_json(&path, jsons, &[]);
    }
    gate.finish(smoke || assert_speedup.is_some());
}
