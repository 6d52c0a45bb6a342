//! The farm's job model: self-contained work units, their results, and
//! the plans that decompose a verification task into jobs and merge the
//! results back.
//!
//! Determinism contract: a [`FarmPlan`] fixes its job decomposition
//! *independently of the worker count* — [`FarmPlan::jobs`] is a pure
//! function of the plan — and every job is a pure function of its own
//! description. Results are merged (and streamed) in job-id order, so
//! the merged report and the JSONL stream are byte-identical for every
//! worker count.

use la1_asm::ExploreConfig;
use la1_core::asm_model::LaAsmModel;
use la1_core::json::Json;
use la1_core::spec::LaConfig;
use la1_core::stimulus::stream_seed;
use la1_cover::{
    run_closure_rtl_from, BinStats, ClosureConfig, ClosurePreamble, CoverageModel,
    MultiClosureReport,
};
use la1_fault::{
    run_campaign_batched_shard, run_campaign_shard, CampaignConfig, CampaignShard, DetectionMatrix,
};
use la1_rtl::{BatchedRtlSim, RtlSim};

/// One self-contained unit of farm work. Jobs are plain data (no
/// handles, no shared state), so a worker thread can run any job by
/// value of its description alone.
#[derive(Debug, Clone)]
pub enum FarmJob {
    /// One shard of a fault campaign: the shard's fault subset across
    /// every configured level (plus the healthy controls on the shard
    /// that carries them).
    Campaign {
        /// The full campaign configuration (shared by all shards).
        config: CampaignConfig,
        /// This job's fault subset.
        shard: CampaignShard,
        /// Run the RTL levels through the 64-lane batched engine.
        batched: bool,
    },
    /// One group of coverage-closure streams with a job-private seed.
    Closure {
        /// The closure configuration; `cfg.seed` is already the
        /// job-derived seed ([`stream_seed`] of the plan's base seed).
        cfg: ClosureConfig,
        /// Whether guidance is on.
        guided: bool,
        /// Streams this job runs (64 per driver on the batched engine).
        streams: u32,
        /// Run the streams through the bit-parallel RTL driver.
        batched: bool,
        /// Shared traffic preamble every stream runs first: restored
        /// from its snapshot when warm, replayed when cold. Shared by
        /// all jobs of the plan, so it is part of the plan fingerprint.
        /// Boxed: the preamble (trace + two snapshots) dwarfs the other
        /// variants, and jobs are cloned per shard.
        preamble: Option<Box<ClosurePreamble>>,
    },
    /// One bounded model-checking run of the LA-1 ASM model.
    Explore {
        /// Interface configuration to explore.
        config: LaConfig,
        /// Exploration limits; plans pin `workers: Some(1)` so farm
        /// jobs do not nest thread pools.
        explore: ExploreConfig,
    },
}

impl FarmJob {
    /// The job kind as a JSONL tag.
    pub fn kind(&self) -> &'static str {
        match self {
            FarmJob::Campaign { .. } => "campaign",
            FarmJob::Closure { .. } => "closure",
            FarmJob::Explore { .. } => "explore",
        }
    }

    /// Runs the job to completion. Pure: the result depends only on
    /// the job description, never on the worker or the schedule.
    pub fn run(&self) -> JobResult {
        match self {
            FarmJob::Campaign {
                config,
                shard,
                batched,
            } => {
                let matrix = if *batched {
                    run_campaign_batched_shard(config, shard).0
                } else {
                    run_campaign_shard(config, shard)
                };
                JobResult::Campaign(matrix)
            }
            FarmJob::Closure {
                cfg,
                guided,
                streams,
                batched,
                preamble,
            } => {
                // a preamble mismatch is a plan-construction bug; the
                // panic is caught by the pool's per-attempt isolation
                // and surfaces as a Failed slot in the degraded section
                let preamble = preamble.as_deref();
                let report = if *batched {
                    run_closure_rtl_from::<BatchedRtlSim>(cfg, *guided, *streams, preamble)
                } else {
                    run_closure_rtl_from::<RtlSim>(cfg, *guided, *streams, preamble)
                }
                .expect("preamble matches the plan configuration");
                JobResult::Closure(report)
            }
            FarmJob::Explore { config, explore } => {
                let model = LaAsmModel::new(config);
                let r = model.model_check(explore.clone());
                JobResult::Explore(ExploreSummary {
                    banks: config.banks,
                    states: r.fsm.num_states(),
                    transitions: r.fsm.num_transitions(),
                    max_depth_reached: r.stats.max_depth_reached,
                    complete: r.stats.verdict.is_complete(),
                    budget: r
                        .stats
                        .verdict
                        .budget_reason()
                        .map(|b| b.as_str().to_string()),
                    all_pass: r.all_pass(),
                })
            }
        }
    }

    /// [`FarmJob::run`] under a per-job wall-clock deadline. Explore
    /// jobs get the deadline plumbed into
    /// [`ExploreConfig::wall_clock`] (at 75% of the budget, leaving
    /// headroom to assemble the partial result) so they stop
    /// *gracefully* with [`la1_asm::ExploreVerdict::Partial`] instead
    /// of being abandoned by the pool's hard watchdog; campaign and
    /// closure jobs have no cooperative cut-off and rely on the
    /// watchdog alone.
    pub fn run_deadline(&self, deadline: Option<std::time::Duration>) -> JobResult {
        match (self, deadline) {
            (FarmJob::Explore { config, explore }, Some(d)) => {
                let soft = d.mul_f64(0.75);
                let wall_clock = Some(explore.wall_clock.map_or(soft, |w| w.min(soft)));
                FarmJob::Explore {
                    config: config.clone(),
                    explore: ExploreConfig {
                        wall_clock,
                        ..explore.clone()
                    },
                }
                .run()
            }
            _ => self.run(),
        }
    }
}

/// Why a job's final attempt did not produce a mergeable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The job panicked; the payload message is preserved.
    Panic(String),
    /// The job exceeded its wall-clock deadline (or the chaos harness
    /// injected a synthetic timeout).
    Timeout {
        /// The deadline that fired, in milliseconds (0 when the chaos
        /// harness injected the timeout with no real deadline set).
        budget_ms: u64,
    },
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Panic(msg) => write!(f, "panic: {msg}"),
            FailReason::Timeout { budget_ms } => {
                write!(f, "timeout after {budget_ms}ms")
            }
        }
    }
}

/// A result of the wrong kind reached a plan's merge — a scheduler or
/// journal bug. Carries everything needed to report it without
/// crashing the merge (the three `panic!` arms this replaced used to
/// take the whole farm down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Job id whose result mismatched.
    pub job: usize,
    /// The result kind the plan expected.
    pub expected: &'static str,
    /// The result kind actually delivered.
    pub actual: &'static str,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge error: job {} delivered a {} result to a {} plan",
            self.job, self.actual, self.expected
        )
    }
}

/// The plain-data summary an explore job hands back across the thread
/// boundary (an [`la1_asm::ExploreResult`] carries the whole FSM; the
/// farm only forwards the Table-1-style counters and verdicts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreSummary {
    /// Bank count of the explored configuration.
    pub banks: u32,
    /// Product states explored.
    pub states: usize,
    /// Transitions recorded.
    pub transitions: usize,
    /// Deepest BFS level reached.
    pub max_depth_reached: usize,
    /// Whether the reachable graph was exhausted within all budgets.
    pub complete: bool,
    /// The budget that cut a partial run short
    /// ([`la1_asm::BudgetReason::as_str`] token), `None` when
    /// complete. Wall-clock partials surface in the farm report's
    /// degraded section.
    pub budget: Option<String>,
    /// Whether every attached directive passed.
    pub all_pass: bool,
}

impl ExploreSummary {
    /// The summary as a JSON value: an explore-farm `runs` row, and the
    /// body of the journal's explore payload.
    pub fn json(&self) -> Json {
        Json::obj([
            ("banks", Json::num(self.banks as u64)),
            ("states", Json::num(self.states as u64)),
            ("transitions", Json::num(self.transitions as u64)),
            (
                "max_depth_reached",
                Json::num(self.max_depth_reached as u64),
            ),
            ("complete", Json::Bool(self.complete)),
            ("budget", self.budget.as_ref().map_or(Json::Null, Json::str)),
            ("all_pass", Json::Bool(self.all_pass)),
        ])
    }
}

/// The result of one [`FarmJob`], in mergeable form.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// A shard's detection matrix ([`DetectionMatrix::merge`]).
    Campaign(DetectionMatrix),
    /// A stream group's closure report; its `bins` field merges via
    /// [`CoverageModel::merge_bins`].
    Closure(MultiClosureReport),
    /// An exploration summary (merged by concatenation in job order).
    Explore(ExploreSummary),
    /// The job produced no result: every attempt panicked or timed
    /// out. Merges record it in the report's degraded section instead
    /// of aborting.
    Failed {
        /// Job id (slot index into the plan's decomposition).
        job: usize,
        /// The final attempt's failure.
        reason: FailReason,
    },
}

impl JobResult {
    /// The result kind as a JSONL tag (mirrors [`FarmJob::kind`], plus
    /// `"failed"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobResult::Campaign(_) => "campaign",
            JobResult::Closure(_) => "closure",
            JobResult::Explore(_) => "explore",
            JobResult::Failed { .. } => "failed",
        }
    }
    /// Work units this result accounts for, in the unit natural to the
    /// job kind: seeded runs for campaign shards (cells × runs plus
    /// healthy controls), lane-cycles for closure groups, transitions
    /// for explorations. Plans are homogeneous, so a plan's
    /// patterns-per-second figure is unit-consistent.
    pub fn patterns(&self) -> u64 {
        match self {
            JobResult::Campaign(m) => {
                let runs: u64 = m
                    .cells
                    .values()
                    .flat_map(|levels| levels.values())
                    .map(|c| c.runs as u64)
                    .sum();
                runs + m.healthy.len() as u64
            }
            JobResult::Closure(r) => r.lane_cycles,
            JobResult::Explore(s) => s.transitions as u64,
            JobResult::Failed { .. } => 0,
        }
    }

    /// Renders the one-line JSON record the `--serve` stream emits for
    /// this result. Deterministic: no timing, no worker identity —
    /// byte-identical for every worker count.
    pub fn record(&self, job: usize) -> String {
        let mut fields = vec![
            ("job", Json::num(job as u64)),
            ("kind", Json::str(self.kind())),
        ];
        match self {
            JobResult::Campaign(m) => {
                let cells = m.cells.values().flat_map(|levels| levels.values());
                fields.extend([
                    ("banks", Json::num(m.banks as u64)),
                    ("cells", Json::num(cells.clone().count() as u64)),
                    (
                        "detected",
                        Json::num(cells.filter(|c| c.detected()).count() as u64),
                    ),
                    ("healthy_ok", Json::Bool(m.healthy.values().all(|&ok| ok))),
                ]);
            }
            JobResult::Closure(r) => fields.extend([
                ("banks", Json::num(r.banks as u64)),
                ("seed", Json::num(r.seed)),
                ("streams", Json::num(r.streams as u64)),
                ("cycles_run", Json::num(r.cycles_run)),
                ("bins_hit", Json::num(r.bins_hit as u64)),
                ("bins_total", Json::num(r.bins_total as u64)),
                ("closed", Json::Bool(r.closed)),
            ]),
            JobResult::Explore(s) => fields.extend([
                ("banks", Json::num(s.banks as u64)),
                ("states", Json::num(s.states as u64)),
                ("transitions", Json::num(s.transitions as u64)),
                ("complete", Json::Bool(s.complete)),
                ("all_pass", Json::Bool(s.all_pass)),
            ]),
            JobResult::Failed { reason, .. } => {
                fields.push(("reason", Json::str(reason.to_string())));
            }
        }
        Json::obj(fields).render()
    }
}

/// A verification task decomposed into farm jobs plus the merge that
/// reassembles the sharded results.
#[derive(Debug, Clone)]
pub enum FarmPlan {
    /// A fault campaign sharded by global fault index
    /// ([`CampaignShard::split`]); merged by
    /// [`DetectionMatrix::merge`], reproducing the unsharded campaign
    /// byte for byte.
    Campaign {
        /// Campaign configuration.
        config: CampaignConfig,
        /// Shards to split the fault list into (clamped to the fault
        /// count by `split`).
        jobs: usize,
        /// Use the 64-lane batched RTL engine inside each job.
        batched: bool,
    },
    /// A coverage-closure campaign as independent stream groups, one
    /// job per group with a [`stream_seed`]-derived seed; merged by
    /// [`CoverageModel::merge_bins`].
    Closure {
        /// The base closure configuration; job `j` runs with seed
        /// `stream_seed(cfg.seed, j)`.
        cfg: ClosureConfig,
        /// Stream groups to run.
        jobs: u32,
        /// Streams per group (64 lanes per driver on the batched engine).
        streams_per_job: u32,
        /// Whether guidance is on.
        guided: bool,
        /// Use the bit-parallel RTL driver inside each job.
        batched: bool,
        /// Shared warm-start preamble ([`ClosurePreamble`]): every
        /// shard restores (or cold-replays) it before its seeded
        /// streams start, so the per-shard preamble cost collapses to
        /// a snapshot restore. Participates in [`FarmPlan::fingerprint`]
        /// through the plan's `Debug` rendering — the journal header
        /// pins the exact preamble (trace *and* snapshots), so a
        /// `--resume` against a drifted preamble refuses instead of
        /// silently mixing campaigns.
        preamble: Option<Box<ClosurePreamble>>,
    },
    /// A sweep of bounded model-checking runs, one job per
    /// configuration; merged by concatenation in job order.
    Explore {
        /// The configurations to explore.
        configs: Vec<LaConfig>,
        /// Shared exploration limits (`workers` is pinned to
        /// `Some(1)` per job so the farm's pool is the only one).
        explore: ExploreConfig,
    },
}

impl FarmPlan {
    /// The plan's fixed job decomposition — a pure function of the
    /// plan, independent of how many workers will run it.
    ///
    /// # Panics
    ///
    /// Panics if a closure plan asks for zero jobs or zero streams per
    /// job.
    pub fn jobs(&self) -> Vec<FarmJob> {
        match self {
            FarmPlan::Campaign {
                config,
                jobs,
                batched,
            } => CampaignShard::split(config, *jobs)
                .into_iter()
                .map(|shard| FarmJob::Campaign {
                    config: config.clone(),
                    shard,
                    batched: *batched,
                })
                .collect(),
            FarmPlan::Closure {
                cfg,
                jobs,
                streams_per_job,
                guided,
                batched,
                preamble,
            } => {
                assert!(*jobs > 0, "at least one closure job");
                assert!(*streams_per_job > 0, "at least one stream per job");
                (0..*jobs)
                    .map(|j| {
                        let mut job_cfg = cfg.clone();
                        job_cfg.seed = stream_seed(cfg.seed, j as u64);
                        FarmJob::Closure {
                            cfg: job_cfg,
                            guided: *guided,
                            streams: *streams_per_job,
                            batched: *batched,
                            preamble: preamble.clone(),
                        }
                    })
                    .collect()
            }
            FarmPlan::Explore { configs, explore } => configs
                .iter()
                .map(|config| FarmJob::Explore {
                    config: config.clone(),
                    explore: ExploreConfig {
                        workers: Some(1),
                        ..explore.clone()
                    },
                })
                .collect(),
        }
    }

    /// How many jobs [`Self::jobs`] decomposes the plan into, without
    /// building them (every closure job carries its own copy of the
    /// preamble).
    pub fn job_count(&self) -> usize {
        match self {
            FarmPlan::Campaign { config, jobs, .. } => CampaignShard::split(config, *jobs).len(),
            FarmPlan::Closure { jobs, .. } => *jobs as usize,
            FarmPlan::Explore { configs, .. } => configs.len(),
        }
    }

    /// The result kind this plan's merge expects.
    pub fn expected_kind(&self) -> &'static str {
        match self {
            FarmPlan::Campaign { .. } => "campaign",
            FarmPlan::Closure { .. } => "closure",
            FarmPlan::Explore { .. } => "explore",
        }
    }

    /// Folds the job results (in job-id order) into the plan's merged
    /// report. The fold is over order-insensitive merges, so any
    /// permutation would produce the same report — job-id order is
    /// fixed anyway to make the byte-identity guarantee trivial.
    ///
    /// Failure tolerance: a [`JobResult::Failed`] slot, a result of
    /// the wrong kind ([`MergeError`]), a job with no result (a torn
    /// journal's lost tail), a result beyond the plan's last job or an
    /// exploration cut short by its wall-clock budget contributes a
    /// [`Degraded`] entry instead of aborting the merge — the report is
    /// the union of what succeeded, with the gaps spelled out.
    pub fn merge(&self, results: &[JobResult]) -> FarmReport {
        let mut degraded: Vec<Degraded> = Vec::new();
        // first pass, shared by every plan kind: pull out failures, kind
        // mismatches, surplus and missing results in job-id order
        let expected = self.expected_kind();
        let jobs = self.job_count();
        let mut ok: Vec<(usize, &JobResult)> = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            let reason = match r {
                _ if i >= jobs => format!("surplus: the plan has {jobs} jobs"),
                JobResult::Failed { reason, .. } => reason.to_string(),
                r if r.kind() != expected => MergeError {
                    job: i,
                    expected,
                    actual: r.kind(),
                }
                .to_string(),
                r => {
                    ok.push((i, r));
                    continue;
                }
            };
            degraded.push(Degraded {
                job: i,
                kind: expected,
                reason,
            });
        }
        degraded.extend((results.len()..jobs).map(|job| Degraded {
            job,
            kind: expected,
            reason: "missing: no result".to_string(),
        }));
        let merged = match self {
            FarmPlan::Campaign { config, .. } => {
                let mut merged: Option<DetectionMatrix> = None;
                for (_, r) in &ok {
                    let JobResult::Campaign(m) = r else {
                        unreachable!("kind-filtered above")
                    };
                    match &mut merged {
                        None => merged = Some(m.clone()),
                        Some(acc) => acc.merge(m),
                    }
                }
                MergedReport::Campaign(merged.unwrap_or_else(|| DetectionMatrix::empty(config)))
            }
            FarmPlan::Closure {
                cfg,
                jobs,
                streams_per_job,
                guided,
                ..
            } => {
                let mut bins = BinStats::new();
                let mut lane_cycles = 0u64;
                for (_, r) in &ok {
                    let JobResult::Closure(rep) = r else {
                        unreachable!("kind-filtered above")
                    };
                    CoverageModel::merge_bins(&mut bins, &rep.bins);
                    lane_cycles += rep.lane_cycles;
                }
                let model = CoverageModel::la1(&cfg.config);
                // a bin no surviving shard reported merges as unhit
                let zero = la1_cover::BinStat::default();
                let stat = |b: &la1_cover::CoverBin| bins.get(&b.name()).unwrap_or(&zero);
                let closed = model.bins().iter().all(|b| stat(b).hits > 0);
                let cycles_to_closure = if closed {
                    model
                        .bins()
                        .iter()
                        .map(|b| stat(b).first_hit.expect("closed bin has a first hit") + 1)
                        .max()
                } else {
                    None
                };
                MergedReport::Closure(ClosureFarmReport {
                    banks: cfg.config.banks,
                    burst: cfg.config.is_burst(),
                    guided: *guided,
                    seed: cfg.seed,
                    jobs: *jobs,
                    streams_per_job: *streams_per_job,
                    lane_cycles,
                    bins_total: model.len(),
                    bins_hit: model.bins().iter().filter(|b| stat(b).hits > 0).count(),
                    tier1_total: model.tier1_len(),
                    tier1_hit: model
                        .bins()
                        .iter()
                        .filter(|b| b.tier() == 1 && stat(b).hits > 0)
                        .count(),
                    closed,
                    cycles_to_closure,
                    total_hits: bins.values().map(|s| s.hits).sum(),
                    unhit: model
                        .bins()
                        .iter()
                        .filter(|b| stat(b).hits == 0)
                        .map(|b| b.name())
                        .collect(),
                    bins,
                })
            }
            FarmPlan::Explore { .. } => {
                let mut runs: Vec<ExploreSummary> = Vec::with_capacity(ok.len());
                for (i, r) in &ok {
                    let JobResult::Explore(s) = r else {
                        unreachable!("kind-filtered above")
                    };
                    // a wall-clock partial is timing-dependent — the
                    // one verdict a resumable campaign must not let
                    // masquerade as a structural bound
                    if s.budget.as_deref() == Some("wall-clock") {
                        degraded.push(Degraded {
                            job: *i,
                            kind: expected,
                            reason: "partial: wall-clock budget".to_string(),
                        });
                    }
                    runs.push(s.clone());
                }
                MergedReport::Explore(ExploreFarmReport { runs })
            }
        };
        degraded.sort_by_key(|d| d.job);
        FarmReport { merged, degraded }
    }
}

/// Merged closure-farm figures, derived from the unioned
/// [`BinStats`] map in coverage-model order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureFarmReport {
    /// Bank count of the configuration.
    pub banks: u32,
    /// Whether the configuration was an LA-1B (burst) one.
    pub burst: bool,
    /// Whether guidance was on.
    pub guided: bool,
    /// The plan's base seed (job seeds derive from it).
    pub seed: u64,
    /// Stream groups run.
    pub jobs: u32,
    /// Streams per group.
    pub streams_per_job: u32,
    /// Total stimulus volume across all jobs and streams.
    pub lane_cycles: u64,
    /// Bins defined by the coverage model.
    pub bins_total: usize,
    /// Bins hit by at least one stream of any job.
    pub bins_hit: usize,
    /// Tier-1 bins defined.
    pub tier1_total: usize,
    /// Tier-1 bins hit.
    pub tier1_hit: usize,
    /// Whether the merged coverage is complete.
    pub closed: bool,
    /// Per-stream cycles after which the merged coverage was complete
    /// (one past the latest earliest-any-shard first hit); `None` when
    /// some bin stayed unhit.
    pub cycles_to_closure: Option<u64>,
    /// Total hits across all bins — the additive volume counter the
    /// merge sums (coverage verdicts never depend on it).
    pub total_hits: u64,
    /// Names of the bins no stream of any job hit, in model order.
    pub unhit: Vec<String>,
    /// The merged per-bin map itself.
    pub bins: BinStats,
}

impl ClosureFarmReport {
    /// The report as a JSON value, one merged bin per `bins` row.
    pub fn json(&self) -> Json {
        let bins = self.bins.iter().map(|(name, s)| {
            Json::obj([
                ("bin", Json::str(name)),
                ("tier", Json::num(s.tier as u64)),
                ("hits", Json::num(s.hits)),
                ("first_hit", Json::opt_num(s.first_hit)),
            ])
        });
        Json::obj([
            ("kind", Json::str("closure-farm")),
            ("banks", Json::num(self.banks as u64)),
            ("burst", Json::Bool(self.burst)),
            ("guided", Json::Bool(self.guided)),
            ("seed", Json::num(self.seed)),
            ("jobs", Json::num(self.jobs as u64)),
            ("streams_per_job", Json::num(self.streams_per_job as u64)),
            ("lane_cycles", Json::num(self.lane_cycles)),
            ("bins_total", Json::num(self.bins_total as u64)),
            ("bins_hit", Json::num(self.bins_hit as u64)),
            ("tier1_total", Json::num(self.tier1_total as u64)),
            ("tier1_hit", Json::num(self.tier1_hit as u64)),
            ("closed", Json::Bool(self.closed)),
            ("cycles_to_closure", Json::opt_num(self.cycles_to_closure)),
            ("total_hits", Json::num(self.total_hits)),
            ("unhit", Json::str_arr(&self.unhit)),
            ("bins", Json::Arr(bins.collect())),
        ])
    }
}

/// Merged explore-farm report: the per-configuration summaries in job
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreFarmReport {
    /// One summary per explored configuration.
    pub runs: Vec<ExploreSummary>,
}

impl ExploreFarmReport {
    /// Whether every run passed all its directives.
    pub fn all_pass(&self) -> bool {
        self.runs.iter().all(|r| r.all_pass)
    }

    /// Whether every run exhausted its reachable graph.
    pub fn complete(&self) -> bool {
        self.runs.iter().all(|r| r.complete)
    }

    /// The report as a JSON value, one [`ExploreSummary`] per `runs`
    /// row.
    pub fn json(&self) -> Json {
        Json::obj([
            ("kind", Json::str("explore-farm")),
            ("jobs", Json::num(self.runs.len() as u64)),
            (
                "states",
                Json::num(self.runs.iter().map(|s| s.states as u64).sum()),
            ),
            (
                "transitions",
                Json::num(self.runs.iter().map(|s| s.transitions as u64).sum()),
            ),
            ("complete", Json::Bool(self.complete())),
            ("all_pass", Json::Bool(self.all_pass())),
            (
                "runs",
                Json::Arr(self.runs.iter().map(ExploreSummary::json).collect()),
            ),
        ])
    }
}

/// One shard the merged report could not account for in full: a job
/// that failed every attempt, a kind-mismatched result, or an
/// exploration cut short by its wall-clock budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// Job id (slot index into the plan's decomposition).
    pub job: usize,
    /// The plan's job kind.
    pub kind: &'static str,
    /// Human-readable failure description (deterministic: derived from
    /// the job description and failure, never from timing or worker
    /// identity).
    pub reason: String,
}

/// The merged result of a farm plan: what every surviving shard
/// contributed, plus the [`Degraded`] section naming the shards that
/// did not make it. A clean run has an empty `degraded` list and
/// renders byte-identically to the pre-fault-tolerance report.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// The merge over the successful shards.
    pub merged: MergedReport,
    /// Failed or partial shards, in job-id order.
    pub degraded: Vec<Degraded>,
}

impl FarmReport {
    /// Whether every shard contributed fully.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }

    /// The report as a JSON value: the merged body itself for a clean
    /// run, or a `degraded-farm` object listing the gaps and nesting
    /// the merged body.
    pub fn json(&self) -> Json {
        if self.degraded.is_empty() {
            return self.merged.json();
        }
        let degraded = self.degraded.iter().map(|d| {
            Json::obj([
                ("job", Json::num(d.job as u64)),
                ("kind", Json::str(d.kind)),
                ("reason", Json::str(&d.reason)),
            ])
        });
        Json::obj([
            ("kind", Json::str("degraded-farm")),
            ("degraded", Json::Arr(degraded.collect())),
            ("merged", self.merged.json()),
        ])
    }

    /// Renders the deterministic JSON report (no timing, no worker
    /// count): byte-identical for every worker count. A clean campaign
    /// run is byte-identical to the unsharded engine's
    /// [`DetectionMatrix::to_json`].
    pub fn to_json(&self) -> String {
        self.json().render_pretty(Self::ROWS)
    }

    /// The arrays [`Self::to_json`] lays out one element per line: the
    /// degraded shards, the matrix cells, the merged bins and the
    /// explore runs.
    pub const ROWS: &'static [&'static str] = &["degraded", "matrix", "bins", "runs"];
}

/// The merged body of a farm report, one variant per plan kind.
#[derive(Debug, Clone)]
pub enum MergedReport {
    /// Merged detection matrix — byte-identical to the unsharded
    /// campaign's when no shard failed.
    Campaign(DetectionMatrix),
    /// Merged closure figures.
    Closure(ClosureFarmReport),
    /// Concatenated exploration summaries.
    Explore(ExploreFarmReport),
}

impl MergedReport {
    /// The merged body as a JSON value (no timing, no worker count).
    pub fn json(&self) -> Json {
        match self {
            MergedReport::Campaign(m) => m.json(),
            MergedReport::Closure(r) => r.json(),
            MergedReport::Explore(r) => r.json(),
        }
    }
}
