//! `farm_regression`: two farm plans through `FarmPlan::run_with` on a
//! two-thread pool, each with a fresh write-ahead journal — the only
//! workload where the pool, merge, journal, JSON and checkpoint-restore
//! layers do real work.
//!
//! * a batched campaign plan, sharded by fault;
//! * an unguided batched closure plan whose shards restore a warm
//!   preamble from snapshots instead of replaying it.

use crate::harness::{Bench, Checks, Figure, Scale};
use crate::stats::{fnv, max_workers, Summary};
use crate::trace::{Fold, Tracer};
use la1_core::checkpoint::Snapshot;
use la1_core::rtl_model::LaRtl;
use la1_core::spec::LaConfig;
use la1_cover::{ClosureConfig, ClosurePreamble};
use la1_farm::journal::{load, result_to_json};
use la1_farm::{FarmPlan, FarmRunStats, JobResult, Journal, RunPolicy};
use la1_fault::{run_campaign_batched, CampaignConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Sizes {
    banks: u32,
    runs_per_fault: u32,
    campaign_jobs: usize,
    closure_jobs: u32,
    streams_per_job: u32,
    budget: u64,
    preamble: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            banks: 4,
            runs_per_fault: 4,
            campaign_jobs: 16,
            closure_jobs: 4,
            streams_per_job: 8,
            budget: 5_000,
            preamble: 10_000,
        },
        #[cfg(test)]
        Scale::Tiny => Sizes {
            banks: 1,
            runs_per_fault: 1,
            campaign_jobs: 2,
            closure_jobs: 2,
            streams_per_job: 2,
            budget: 400,
            preamble: 100,
        },
    }
}

/// One plan with its journal file and the last sample's outputs.
struct Plan {
    label: &'static str,
    plan: FarmPlan,
    jobs: usize,
    journal: PathBuf,
    report: String,
    first_report: Option<String>,
    /// The results the journal gave back, for the probes.
    loaded: Vec<JobResult>,
}

/// The farm workload's state: the campaign plan, then the closure plan.
pub struct Farm {
    workers: usize,
    plans: [Plan; 2],
    stats: FarmRunStats,
}

/// `farm_regression`: plan decomposition plus recording and
/// snapshotting the closure preamble.
pub fn setup(seed: u64, scale: Scale, tr: &mut Tracer, scratch: &Path) -> Box<dyn Bench> {
    let s = sizes(scale);
    let mut campaign = CampaignConfig::new(s.banks, seed);
    campaign.runs_per_fault = s.runs_per_fault;
    let mut cfg = ClosureConfig::new(LaConfig::new(s.banks), seed);
    cfg.budget = s.budget;
    tr.enter("checkpoint.record", "checkpoint");
    let recorded = ClosurePreamble::record(&cfg.config, seed, s.preamble);
    tr.exit();
    tr.enter("checkpoint.snapshot", "checkpoint");
    let preamble = recorded
        .with_snapshots(&cfg.config)
        .expect("a freshly recorded preamble snapshots");
    tr.exit();
    let plan = |label, plan: FarmPlan| Plan {
        label,
        jobs: plan.jobs().len(),
        journal: scratch.join(format!("{label}.journal.jsonl")),
        plan,
        report: String::new(),
        first_report: None,
        loaded: Vec::new(),
    };
    Box::new(Farm {
        workers: max_workers(),
        plans: [
            plan(
                "campaign",
                FarmPlan::Campaign {
                    config: campaign,
                    jobs: s.campaign_jobs,
                    batched: true,
                },
            ),
            plan(
                "closure",
                FarmPlan::Closure {
                    cfg,
                    jobs: s.closure_jobs,
                    streams_per_job: s.streams_per_job,
                    guided: false,
                    batched: true,
                    preamble: Some(Box::new(preamble)),
                },
            ),
        ],
        stats: FarmRunStats::default(),
    })
}

impl Bench for Farm {
    fn sample(&mut self, tr: &mut Tracer) -> Vec<Figure> {
        let on = tr.on();
        let t = Instant::now();
        for p in &mut self.plans {
            tr.enter("farm.run_with", "farm");
            let mut journal = Journal::create(&p.journal, &p.plan)
                .unwrap_or_else(|e| panic!("create {}: {e}", p.journal.display()));
            let mut append = Fold::default();
            let (report, stats) = p.plan.run_with(
                self.workers,
                &RunPolicy::default(),
                None,
                None,
                |id, r, tries| {
                    append.time(on, || journal.append(id, tries, r));
                },
            );
            tr.fold(&append, "journal.append", "journal");
            tr.exit();
            tr.enter("farm.report_to_json", "json");
            p.report = report.to_json();
            tr.exit();
            self.stats.absorb(&stats);
        }
        let jobs: usize = self.plans.iter().map(|p| p.jobs).sum();
        vec![("jobs_per_s", "1/s", jobs as f64 / t.elapsed().as_secs_f64())]
    }

    fn check(&mut self, checks: &mut Checks) {
        checks.eq("failed jobs", self.stats.failed, 0);
        for p in &mut self.plans {
            let first = p.first_report.get_or_insert_with(|| p.report.clone());
            checks.check(p.report == *first, || {
                format!("{}: merged report differs between samples", p.label)
            });
            checks.check(!p.report.contains("degraded-farm"), || {
                format!("{}: degraded shards", p.label)
            });
            match load(&p.journal, &p.plan) {
                Ok(recovered) => {
                    p.loaded = recovered.results.into_iter().map(|(r, _)| r).collect();
                    checks.eq(
                        &format!("{}: journaled results", p.label),
                        p.loaded.len(),
                        p.jobs,
                    );
                    checks.check(p.plan.merge(&p.loaded).to_json() == p.report, || {
                        format!("{}: journal replay merges to a different report", p.label)
                    });
                }
                Err(e) => checks.check(false, || format!("{}: journal load: {e}", p.label)),
            }
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let [campaign, closure] = &self.plans;
        vec![
            ("campaign_fnv", fnv(campaign.report.as_bytes())),
            ("closure_fnv", fnv(closure.report.as_bytes())),
            ("jobs", (campaign.jobs + closure.jobs) as u64),
        ]
    }

    /// The sharded campaign merge must equal the unsharded engine.
    fn verify_once(&mut self, checks: &mut Checks) {
        let FarmPlan::Campaign { config, .. } = &self.plans[0].plan else {
            unreachable!("the first plan is the campaign plan");
        };
        let unsharded = run_campaign_batched(config).0.to_json();
        checks.check(self.plans[0].report == unsharded, || {
            "campaign plan merge differs from run_campaign_batched".into()
        });
    }

    /// Each job alone, the merge and result serialization over the
    /// journaled results, and a snapshot restore.
    fn probe(&mut self, tr: &mut Tracer) {
        for p in &self.plans {
            let job_span = match p.label {
                "campaign" => "farm.job.campaign",
                _ => "farm.job.closure",
            };
            for job in p.plan.jobs() {
                tr.enter(job_span, "farm");
                job.run();
                tr.exit();
            }
            tr.enter("farm.merge", "farm");
            p.plan.merge(&p.loaded);
            tr.exit();
            let mut serialize = Fold::default();
            for r in &p.loaded {
                serialize.time(true, || result_to_json(r));
            }
            tr.fold(&serialize, "journal.result_to_json", "json");
        }
        let FarmPlan::Closure {
            cfg,
            preamble: Some(preamble),
            ..
        } = &self.plans[1].plan
        else {
            unreachable!("the second plan is the warm closure plan");
        };
        let text = preamble
            .batch_snapshot
            .as_ref()
            .expect("the preamble is warm")
            .to_jsonl();
        let design = LaRtl::build(&cfg.config, None);
        for _ in 0..5 {
            tr.enter("checkpoint.restore", "checkpoint");
            Snapshot::parse(&text)
                .and_then(|s| s.into_rtl_batch(&design))
                .expect("the preamble snapshot restores");
            tr.exit();
        }
    }

    fn layers(&self, tr: &Tracer, wall_s: f64) -> Vec<(&'static str, f64)> {
        let median = |v: Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                Summary::of(&v).median
            }
        };
        let campaign_jobs = tr.durations("farm.job.campaign");
        let closure_jobs = tr.durations("farm.job.closure");
        let job_ns: f64 = campaign_jobs.iter().chain(&closure_jobs).sum();
        let max_job = campaign_jobs
            .iter()
            .chain(&closure_jobs)
            .fold(0.0f64, |a, &b| a.max(b));
        let serialize_ns = median(tr.per_sample("farm.report_to_json"))
            + tr.total("journal.result_to_json").0 as f64;
        vec![
            ("farm.job_s.campaign", median(campaign_jobs) / 1e9),
            ("farm.job_s.closure", median(closure_jobs) / 1e9),
            ("farm.job_s.max", max_job / 1e9),
            ("farm.merge_ms", tr.total("farm.merge").0 as f64 / 1e6),
            (
                "farm.journal_append_ms",
                median(tr.per_sample("journal.append")) / 1e6,
            ),
            ("farm.serialize_ms", serialize_ns / 1e6),
            (
                "farm.efficiency",
                job_ns / 1e9 / (self.workers as f64 * wall_s),
            ),
            ("farm.retried", self.stats.retried as f64),
            ("farm.failed", self.stats.failed as f64),
            (
                "checkpoint.record_ms",
                median(tr.durations("checkpoint.record")) / 1e6,
            ),
            (
                "checkpoint.snapshot_ms",
                median(tr.durations("checkpoint.snapshot")) / 1e6,
            ),
            (
                "checkpoint.restore_ms",
                median(tr.durations("checkpoint.restore")) / 1e6,
            ),
        ]
    }
}
