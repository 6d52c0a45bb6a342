//! Drives the verification farm (crate `la1-farm`): sharded fault
//! campaigns, closure stream groups and exploration sweeps across a
//! worker pool, reporting jobs/s and patterns/s per worker count —
//! with crash recovery (write-ahead journal + `--resume`), a retry
//! policy and the self-chaos harness.
//!
//! Usage: `farm [banks...] [--workers 1,2,4,8] [--mode campaign,closure,explore]
//! [--seed N] [--runs N] [--jobs N] [--streams N] [--budget N] [--epoch N]
//! [--preamble N]
//! [--depth N] [--levels l1,l2] [--scalar] [--serve] [--assert-scaling X]
//! [--json <path>] [--merged-json <path>] [--journal <path>] [--resume <path>]
//! [--chaos SEED] [--chaos-sites N] [--max-retries N] [--backoff-ms N]
//! [--deadline-ms N] [--smoke]`
//!
//! * `banks...` — bank counts to farm over (default `2`; `1 2` under
//!   `--smoke`);
//! * `--workers` — comma-separated worker counts to run every plan at
//!   (default `1,2,4,8`; `1,4` under `--smoke`). The first count is
//!   the reference: every later run's merged JSON is asserted
//!   byte-identical to it — the farm's determinism contract;
//! * `--mode` — comma-separated plan kinds (default
//!   `campaign,closure`; all three under `--smoke`);
//! * `--jobs` — campaign shards / closure stream groups per plan
//!   (default 8; the decomposition is fixed, workers only change who
//!   runs which job);
//! * `--streams` — streams per closure job (default 8, lanes of one
//!   batched driver);
//! * `--budget` / `--epoch` — per-stream closure cycle budget and
//!   guidance epoch;
//! * `--preamble` — cycles of shared warm-start preamble traffic for
//!   closure plans (default 0 = none). The preamble is recorded once,
//!   snapshotted, and every shard restores the snapshot instead of
//!   re-running it; the plan fingerprint (and so the journal header)
//!   pins the exact preamble;
//! * `--levels` — campaign level filter (as in the `campaign` binary);
//! * `--scalar` — run the scalar engines inside jobs instead of the
//!   64-lane batched ones;
//! * `--serve` — stream each job's result as one flushed JSON line on
//!   stdout (job-id order, deterministic) during the *first*
//!   worker-count pass, plus a closing `farm-summary` line. The stream
//!   survives a hung-up consumer: on a broken pipe the output stops
//!   but the run — gates, JSON artifacts, exit code — continues;
//! * `--journal <path>` — write-ahead-journal the first worker-count
//!   pass (single-plan runs only): the plan fingerprint plus each
//!   committed result as one flushed JSONL line, crash-recoverable;
//! * `--resume <path>` — resume the first pass from an interrupted
//!   journal: committed results replay verbatim, only the remainder
//!   runs, and the merged report is asserted byte-identical to the
//!   fresh full runs at the later worker counts;
//! * `--chaos SEED` — the self-chaos harness: deterministically
//!   sabotage `--chaos-sites` (default 3) job indices with a
//!   panic / synthetic timeout / delay round-robin on their first
//!   attempt. A *clean* reference pass runs first and every chaos pass
//!   is asserted byte-identical to it — the convergence gate of
//!   `scripts/check.sh` (give the policy `--max-retries` ≥ 1 or the
//!   assert will trip on the degraded report, by design);
//! * `--max-retries` / `--backoff-ms` / `--deadline-ms` — the run
//!   policy: retries per failed job, deterministic backoff base, hard
//!   per-attempt wall-clock deadline (deadlines are timing-dependent;
//!   deterministic gates leave them unset);
//! * `--assert-scaling X` — gate: the last worker count must be at
//!   least `X`× faster than the first on every campaign/closure plan.
//!   On hosts with fewer cores than workers the floor degrades to
//!   `max(0.5, X * cores / workers)` (with a stderr note), so the gate
//!   checks threading overhead instead of impossible parallelism;
//! * `--json` — write per-plan reports (perf + resilience counters +
//!   merged result) to a file, the `BENCH_farm.json` artifact of
//!   `scripts/bench.sh`;
//! * `--merged-json` — write just the merged deterministic reports
//!   (one per plan, no perf data) to a file: the byte-diffable
//!   artifact the kill-and-resume gate compares across runs;
//! * `--smoke` — gate mode for `scripts/check.sh`: fixed small
//!   configs, 1-vs-4-worker byte identity on merged JSON *and* the
//!   serve stream, campaign merge == unsharded engine, tier-1 closure
//!   and explore verdicts, no degraded shards.

use la1_bench::{sout, write_json, BenchArgs, Gate};
use la1_core::json::Json;
use la1_core::spec::LaConfig;
use la1_cover::{ClosureConfig, ClosurePreamble};
use la1_farm::{
    ChaosConfig, FarmPlan, FarmReport, FarmRunStats, Journal, JobResult, MergedReport, RunPolicy,
};
use la1_fault::{run_campaign_batched, CampaignConfig, Level};
use std::time::{Duration, Instant};

fn parse_levels(spec: &str) -> Vec<Level> {
    spec.split(',')
        .map(|s| {
            Level::from_name(s.trim())
                .unwrap_or_else(|| panic!("unknown level '{s}' (asm, systemc, rtl, rtl+ovl)"))
        })
        .collect()
}

fn parse_workers(spec: &str) -> Vec<usize> {
    let list: Vec<usize> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .unwrap_or_else(|_| panic!("invalid worker count '{t}'"))
        })
        .collect();
    assert!(!list.is_empty(), "--workers needs at least one count");
    list
}

/// One plan's timed passes over the worker-count list.
struct PlanResult {
    label: String,
    banks: u32,
    jobs: usize,
    /// Elapsed seconds per worker count.
    elapsed: Vec<f64>,
    /// Work units accounted by the jobs (pattern runs / lane-cycles /
    /// transitions — identical across passes).
    patterns: u64,
    /// The merged deterministic report (identical across passes).
    report: FarmReport,
    /// Resilience counters accumulated over every pass of this plan.
    stats: FarmRunStats,
    /// The chaos-sabotaged job indices, when the harness was on.
    chaos_sites: Option<Vec<usize>>,
}

fn main() {
    let mut args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let serve = args.flag("--serve");
    let scalar = args.flag("--scalar");
    let json_path: Option<String> = args.opt("--json");
    let merged_json_path: Option<String> = args.opt("--merged-json");
    let journal_path: Option<String> = args.opt("--journal");
    let resume_path: Option<String> = args.opt("--resume");
    let chaos_seed: Option<u64> = args.opt("--chaos");
    let chaos_sites: u32 = args.value("--chaos-sites", 3);
    let max_retries: u32 = args.value("--max-retries", 0);
    let backoff_ms: u64 = args.value("--backoff-ms", 0);
    let deadline_ms: Option<u64> = args.opt("--deadline-ms");
    let assert_scaling: Option<f64> = args.opt("--assert-scaling");
    let workers_spec: String =
        args.value("--workers", String::from(if smoke { "1,4" } else { "1,2,4,8" }));
    let mode: String = args.value(
        "--mode",
        String::from(if smoke {
            "campaign,closure,explore"
        } else {
            "campaign,closure"
        }),
    );
    let seed: u64 = args.value("--seed", 42);
    let runs: u32 = args.value("--runs", if smoke { 1 } else { 3 });
    let jobs: usize = args.value("--jobs", if smoke { 4 } else { 8 });
    let streams: u32 = args.value("--streams", 8);
    let budget: u64 = args.value("--budget", if smoke { 4_000 } else { 24_000 });
    let epoch: u64 = args.value("--epoch", if smoke { 200 } else { 500 });
    let preamble_cycles: u64 = args.value("--preamble", 0);
    let depth: usize = args.value("--depth", if smoke { 4 } else { 6 });
    let levels: Option<Vec<Level>> = args.opt::<String>("--levels").map(|s| parse_levels(&s));
    let banks_list = args.banks(if smoke { &[1, 2] } else { &[2] });

    assert!(
        journal_path.is_none() || resume_path.is_none(),
        "--journal and --resume are mutually exclusive (a resume appends to its own journal)"
    );
    let workers_list = parse_workers(&workers_spec);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let batched = !scalar;
    let policy = RunPolicy {
        deadline: deadline_ms.map(Duration::from_millis),
        max_retries,
        backoff_base_ms: backoff_ms,
        retry_seed: seed,
    };

    // The fixed plan list: the decomposition is part of the plan, so
    // every worker-count pass runs the identical job set.
    let mut plans: Vec<(String, FarmPlan)> = Vec::new();
    for kind in mode.split(',').map(str::trim) {
        match kind {
            "campaign" => {
                for &banks in &banks_list {
                    let mut config = CampaignConfig::new(banks, seed);
                    config.runs_per_fault = runs;
                    if let Some(levels) = &levels {
                        config.levels = levels.clone();
                    }
                    plans.push((
                        format!("campaign/{banks}b"),
                        FarmPlan::Campaign {
                            config,
                            jobs,
                            batched,
                        },
                    ));
                }
            }
            "closure" => {
                for &banks in &banks_list {
                    let mut cfg = ClosureConfig::new(LaConfig::new(banks), seed);
                    cfg.budget = budget;
                    cfg.epoch = epoch;
                    let preamble = if preamble_cycles > 0 {
                        let rec = ClosurePreamble::record(&cfg.config, seed, preamble_cycles);
                        Some(Box::new(
                            rec.with_snapshots(&cfg.config)
                                .expect("snapshotting a freshly recorded preamble cannot fail"),
                        ))
                    } else {
                        None
                    };
                    plans.push((
                        format!("closure/{banks}b"),
                        FarmPlan::Closure {
                            cfg,
                            jobs: jobs as u32,
                            streams_per_job: streams,
                            guided: true,
                            batched,
                            preamble,
                        },
                    ));
                }
            }
            "explore" => {
                // one bounded model-checking job per bank count, small
                // AsmL-style domains (the Table 1 configuration)
                let configs = banks_list.iter().map(|&b| la1_bench::table_config(b)).collect();
                plans.push((
                    "explore".to_string(),
                    FarmPlan::Explore {
                        configs,
                        explore: la1_asm::ExploreConfig {
                            max_depth: Some(depth),
                            ..la1_asm::ExploreConfig::default()
                        },
                    },
                ));
            }
            other => panic!("unknown mode '{other}' (campaign, closure, explore)"),
        }
    }
    if journal_path.is_some() || resume_path.is_some() {
        assert_eq!(
            plans.len(),
            1,
            "--journal/--resume map one journal file to one plan — select a single \
             mode and bank count"
        );
    }

    sout(format!(
        "verification farm: {} plan(s), workers {:?}, {} core(s), {} engines{}{}",
        plans.len(),
        workers_list,
        cores,
        if batched { "batched" } else { "scalar" },
        if chaos_seed.is_some() { ", chaos on" } else { "" },
        if max_retries > 0 {
            format!(", {max_retries} retries")
        } else {
            String::new()
        },
    ));
    let mut gate = Gate::new("farm");
    let mut results: Vec<PlanResult> = Vec::new();
    let mut totals = FarmRunStats::default();
    for (label, plan) in &plans {
        let njobs = plan.jobs().len();
        let chaos = chaos_seed.map(|s| {
            let mut cfg = ChaosConfig::new(s);
            cfg.sites = chaos_sites;
            cfg.plan(njobs)
        });
        if let Some(chaos) = &chaos {
            sout(format!(
                "{label:<14} chaos: sabotaging jobs {:?} of {njobs}",
                chaos.sites()
            ));
        }
        // under chaos, the reference is a *clean* (chaos-free,
        // untimed) pass: every chaos pass must converge to it byte
        // for byte — retries healing injected faults completely
        let mut reference: Option<(FarmReport, Vec<String>)> = chaos.as_ref().map(|_| {
            let mut records = Vec::with_capacity(njobs);
            let report = plan.run_streaming(workers_list[0], |i, r| records.push(r.record(i)));
            (report, records)
        });
        let chaos_reference = reference.is_some();
        let mut elapsed = Vec::new();
        let mut patterns = 0u64;
        let mut plan_stats = FarmRunStats::default();
        for (pass, &w) in workers_list.iter().enumerate() {
            let mut records: Vec<String> = Vec::with_capacity(njobs);
            let stream_live = serve && pass == 0;
            let mut pass_patterns = 0u64;
            let mut emit = |i: usize, r: &JobResult, _attempts: u32| {
                pass_patterns += r.patterns();
                let rec = r.record(i);
                if stream_live {
                    sout(&rec);
                }
                records.push(rec);
            };
            let t0 = Instant::now();
            let (report, stats) = if pass == 0 && resume_path.is_some() {
                let path = std::path::Path::new(resume_path.as_deref().expect("checked"));
                plan.resume(path, w, &policy, chaos.as_ref(), &mut emit)
                    .unwrap_or_else(|e| panic!("farm --resume: {e}"))
            } else {
                let mut journal = (pass == 0)
                    .then_some(journal_path.as_deref())
                    .flatten()
                    .map(|p| {
                        Journal::create(std::path::Path::new(p), plan)
                            .unwrap_or_else(|e| panic!("farm --journal {p}: {e}"))
                    });
                plan.run_with(w, &policy, chaos.as_ref(), journal.as_mut(), &mut emit)
            };
            let dt = t0.elapsed().as_secs_f64();
            elapsed.push(dt);
            plan_stats.absorb(&stats);
            sout(format!(
                "{label:<14} workers={w}: {njobs} jobs in {dt:.3}s = {:.1} jobs/s, \
                 {:.0} patterns/s{}",
                njobs as f64 / dt.max(1e-9),
                pass_patterns as f64 / dt.max(1e-9),
                if stats.retried + stats.failed + stats.replayed > 0 {
                    format!(
                        " ({} retried, {} failed, {} replayed)",
                        stats.retried, stats.failed, stats.replayed
                    )
                } else {
                    String::new()
                },
            ));
            match &reference {
                None => {
                    patterns = pass_patterns;
                    reference = Some((report, records));
                }
                Some((ref_report, ref_records)) => {
                    // the determinism contract, asserted on every run:
                    // against the first pass, or under chaos against
                    // the clean chaos-free reference
                    let vs = if chaos_reference {
                        "the clean chaos-free run".to_string()
                    } else {
                        format!("{} workers", workers_list[0])
                    };
                    assert_eq!(
                        ref_report.to_json(),
                        report.to_json(),
                        "{label}: merged report at {w} workers diverged from {vs}"
                    );
                    assert_eq!(
                        ref_records, &records,
                        "{label}: serve stream at {w} workers diverged from {vs}"
                    );
                    if chaos_reference && pass == 0 {
                        patterns = pass_patterns;
                    }
                }
            }
        }
        let (report, _) = reference.expect("at least one worker-count pass");
        totals.absorb(&plan_stats);
        results.push(PlanResult {
            label: label.clone(),
            banks: match plan {
                FarmPlan::Campaign { config, .. } => config.la1.banks,
                FarmPlan::Closure { cfg, .. } => cfg.config.banks,
                FarmPlan::Explore { .. } => 0,
            },
            jobs: njobs,
            elapsed,
            patterns,
            report,
            stats: plan_stats,
            chaos_sites: chaos.as_ref().map(|c| c.sites()),
        });
    }

    // scaling gate: last worker count vs first, floor degraded on
    // hosts with fewer cores than workers
    if let Some(x) = assert_scaling {
        let w_ref = workers_list[0];
        let w_top = *workers_list.last().expect("non-empty worker list");
        let floor = if cores >= w_top {
            x
        } else {
            let degraded = (x * cores as f64 / w_top as f64).max(0.5);
            eprintln!(
                "farm: only {cores} core(s) for {w_top} workers — scaling floor degraded \
                 from {x}x to {degraded:.2}x (threading-overhead check)"
            );
            degraded
        };
        for r in &results {
            if r.label.starts_with("explore") {
                continue; // explore plans have one job per bank; too few jobs to gate
            }
            let speedup = r.elapsed[0] / r.elapsed.last().expect("non-empty").max(1e-9);
            sout(format!(
                "{}: speedup {w_ref}->{w_top} workers = {speedup:.2}x (floor {floor:.2}x)",
                r.label
            ));
            if speedup < floor {
                gate.fail(format!(
                    "{}: {speedup:.2}x at {w_top} workers below the {floor:.2}x floor",
                    r.label
                ));
            }
        }
    }

    // smoke gates beyond byte identity (already asserted above):
    // campaign merge == unsharded engine, tier-1 closure, explore
    // pass, no degraded shards in the final report
    if smoke {
        for (r, (_, plan)) in results.iter().zip(&plans) {
            if !r.report.is_complete() {
                for d in &r.report.degraded {
                    gate.fail(format!(
                        "{}: job {} degraded the report: {}",
                        r.label, d.job, d.reason
                    ));
                }
            }
            match &r.report.merged {
                MergedReport::Campaign(matrix) => {
                    let FarmPlan::Campaign { config, .. } = plan else {
                        unreachable!()
                    };
                    let unsharded = if batched {
                        run_campaign_batched(config).0
                    } else {
                        la1_fault::run_campaign(config)
                    };
                    if matrix.to_json() != unsharded.to_json() {
                        gate.fail(format!(
                            "{}: farm merge diverged from the unsharded campaign",
                            r.label
                        ));
                    }
                    for (level, ok) in &matrix.healthy {
                        if !ok {
                            gate.fail(format!(
                                "{}: healthy design hung at {level}",
                                r.label
                            ));
                        }
                    }
                }
                MergedReport::Closure(c) => {
                    if c.tier1_hit != c.tier1_total {
                        gate.fail(format!(
                            "{}: {}/{} tier-1 bins unhit within {} cycles/stream: {:?}",
                            r.label,
                            c.tier1_total - c.tier1_hit,
                            c.tier1_total,
                            budget,
                            c.unhit
                        ));
                    }
                }
                MergedReport::Explore(e) => {
                    if !e.all_pass() {
                        gate.fail(format!("{}: a directive failed under exploration", r.label));
                    }
                }
            }
        }
    }

    if serve {
        // the closing record of the serve stream: what the whole run
        // cost in resilience terms (deterministic counters only)
        sout(
            Json::obj([
                ("kind", Json::str("farm-summary")),
                ("plans", Json::num(plans.len() as u64)),
                ("jobs_run", Json::num(totals.jobs_run as u64)),
                ("retried", Json::num(totals.retried as u64)),
                ("failed", Json::num(totals.failed as u64)),
                ("replayed", Json::num(totals.replayed as u64)),
            ])
            .render(),
        );
    }

    if let Some(path) = merged_json_path {
        // merged reports only — the byte-diffable artifact for the
        // kill-and-resume gate (no perf, no counters)
        write_json(
            &path,
            results.iter().map(|r| r.report.json()).collect(),
            FarmReport::ROWS,
        );
    }
    if let Some(path) = json_path {
        let jsons = results
            .iter()
            .map(|r| {
                let per_pass =
                    |f: &dyn Fn(f64) -> Json| Json::Arr(r.elapsed.iter().map(|&e| f(e)).collect());
                Json::obj([
                    ("plan", Json::str(&r.label)),
                    ("banks", Json::num(r.banks as u64)),
                    ("jobs", Json::num(r.jobs as u64)),
                    ("cores", Json::num(cores as u64)),
                    (
                        "workers",
                        Json::num_arr(workers_list.iter().map(|&w| w as u64)),
                    ),
                    ("elapsed_seconds", per_pass(&|e| Json::fixed(e, 4))),
                    (
                        "jobs_per_second",
                        per_pass(&|e| Json::fixed(r.jobs as f64 / e.max(1e-9), 2)),
                    ),
                    ("patterns", Json::num(r.patterns)),
                    (
                        "patterns_per_second",
                        per_pass(&|e| Json::fixed(r.patterns as f64 / e.max(1e-9), 0)),
                    ),
                    (
                        "speedup_vs_first",
                        per_pass(&|e| Json::fixed(r.elapsed[0] / e.max(1e-9), 2)),
                    ),
                    (
                        "resilience",
                        Json::obj([
                            ("jobs_run", Json::num(r.stats.jobs_run as u64)),
                            ("retried", Json::num(r.stats.retried as u64)),
                            ("failed", Json::num(r.stats.failed as u64)),
                            ("replayed", Json::num(r.stats.replayed as u64)),
                            ("max_retries", Json::num(max_retries as u64)),
                            (
                                "chaos_sites",
                                r.chaos_sites.as_ref().map_or(Json::Null, |s| {
                                    Json::num_arr(s.iter().map(|&j| j as u64))
                                }),
                            ),
                        ]),
                    ),
                    ("merged", r.report.json()),
                ])
            })
            .collect();
        write_json(&path, jsons, FarmReport::ROWS);
    }
    gate.finish(smoke || assert_scaling.is_some());
}
