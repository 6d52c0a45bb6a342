//! Multi-stream RTL coverage closure — scalar and bit-parallel.
//!
//! Where [`run_closure`](crate::run_closure) drives one stimulus
//! stream against the SystemC model, the multi-stream runner drives
//! `streams` independent seeded streams against the interpreted RTL
//! and *merges* their coverage: a bin is closed as soon as any stream
//! hits it.
//!
//! [`run_closure_rtl_from`] is written once, generic over the
//! [`LaDriver`] instance. It splits the streams into drivers of the
//! instance's lane count:
//!
//! * [`run_closure_rtl`] — the scalar reference: one [`LaRtlDriver`]
//!   per stream, streams executed one after another within each epoch;
//! * [`run_closure_rtl_batched`] — up to 64 streams as the lanes of one
//!   [`LaRtlBatchDriver`], every compiled-netlist operation advancing
//!   all of them at once (PPSFP), as many drivers as the streams need.
//!
//! Per-lane pins are bit-identical across the instances, so the merged
//! bin sets, first-hit cycles and JSON reports are equal byte for byte
//! — the equivalence the test suite pins at 1/2 banks, under LA-1B and
//! with more streams than lanes.
//!
//! The runner is epoch-lockstep: guidance retargets **all** guided
//! streams from the *merged* unhit-bin list at every epoch boundary
//! (cooperative closure), and the budget-or-full stopping rule is
//! evaluated per epoch. Within an epoch streams share nothing, which is
//! what makes the sequential and bit-parallel schedules coincide.

use crate::closure::{ClosureConfig, Generator};
use crate::collect::CoverageCollector;
use crate::model::{BinStats, CoverBin, CoverageModel};
use la1_core::checkpoint::{config_fingerprint, CheckpointError, Snapshot, Trace};
use la1_core::cycle_model::{CycleObserver, LaneModel};
use la1_core::json::Json;
use la1_core::rtl_model::{LaDriver, LaRtl, LaRtlBatchDriver, LaRtlDriver, LaneSim};
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::stream_seed;
use la1_core::workloads::{RandomMix, Workload};
use la1_rtl::{BatchedRtlSim, RtlSim};

/// A shared traffic preamble every closure stream runs before its
/// seeded stimulus starts — typically table-initialization traffic on
/// a large configuration, which can dwarf the closure run itself.
///
/// The cold path replays the recorded [`Trace`] cycle by cycle; the
/// warm path restores the RTL state [`Snapshot`]s captured after the
/// preamble and skips the replay entirely. The two are byte-equivalent
/// (the core differential test layer proves snapshot restore equals
/// straight-through execution), so a warm-started farm shard produces
/// the identical report — the `checkpoint` bench measures the speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosurePreamble {
    /// The recorded preamble traffic (the cold path, and the ground
    /// truth the snapshots are captured from).
    pub trace: Trace,
    /// Scalar RTL state after the preamble (`None` → replay the trace).
    pub snapshot: Option<Snapshot>,
    /// Batched RTL state after the preamble: the scalar state in every
    /// lane, byte-identical to replaying the trace in all 64 lanes
    /// (`None` → do that replay).
    pub batch_snapshot: Option<Snapshot>,
}

impl ClosurePreamble {
    /// Records `cycles` of seeded write-heavy initialization traffic
    /// as a replayable trace (no snapshots: the cold preamble).
    pub fn record(config: &LaConfig, seed: u64, cycles: u64) -> ClosurePreamble {
        let mut mix = RandomMix::new(config, seed, 0.2, 0.7);
        let mut trace = Trace::new(config_fingerprint("rtl", config));
        for _ in 0..cycles {
            trace.record(&mix.next_cycle());
        }
        ClosurePreamble {
            trace,
            snapshot: None,
            batch_snapshot: None,
        }
    }

    /// Replays the recorded trace once, on the scalar RTL driver, and
    /// captures the post-preamble snapshots every later stream restores
    /// instead of replaying: the scalar driver's own, and the batched one
    /// of [`LaRtlBatchDriver::broadcast`], which puts the scalar state in
    /// every lane rather than replaying the trace on 64 lanes.
    ///
    /// # Errors
    ///
    /// Fails if the trace was recorded for another configuration.
    pub fn with_snapshots(mut self, config: &LaConfig) -> Result<ClosurePreamble, CheckpointError> {
        let design = LaRtl::build(config, None);
        self.check_trace(&design)?;
        let mut driver = LaRtlDriver::new(&design);
        self.replay(&mut driver);
        self.snapshot = Some(Snapshot::of_rtl(&driver)?);
        let batch = LaRtlBatchDriver::broadcast(&driver).map_err(CheckpointError::Restore)?;
        self.batch_snapshot = Some(Snapshot::of_rtl_batch(&batch)?);
        Ok(self)
    }

    /// Preamble length in cycles.
    pub fn cycles(&self) -> u64 {
        self.trace.cycles.len() as u64
    }

    /// Whether the warm path is available.
    pub fn is_warm(&self) -> bool {
        self.snapshot.is_some() && self.batch_snapshot.is_some()
    }

    /// Replays the trace into every lane of `driver`.
    fn replay<S: LaneSim>(&self, driver: &mut LaDriver<S>) {
        let mut lanes = Vec::with_capacity(S::LANES);
        for ops in &self.trace.cycles {
            lanes.clear();
            lanes.resize(S::LANES, ops.as_slice());
            driver.cycle_lanes(&lanes);
        }
    }

    /// A driver past the preamble in every lane: restored when warm,
    /// replayed when cold. Fingerprint-checked either way.
    fn driver<S: LaneSim>(&self, design: &LaRtl) -> Result<LaDriver<S>, CheckpointError> {
        // the one-lane instance is the scalar driver
        let snapshot = if S::LANES == 1 {
            &self.snapshot
        } else {
            &self.batch_snapshot
        };
        if let Some(snap) = snapshot {
            return S::restore(snap, design);
        }
        self.check_trace(design)?;
        let mut driver = LaDriver::new(design);
        self.replay(&mut driver);
        Ok(driver)
    }

    fn check_trace(&self, design: &LaRtl) -> Result<(), CheckpointError> {
        let expected = config_fingerprint("rtl", design.config());
        if self.trace.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.trace.fingerprint,
                expected,
            });
        }
        Ok(())
    }
}

/// Outcome of one multi-stream closure run; all coverage figures are
/// over the merged (any-stream) bin sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiClosureReport {
    /// Bank count of the configuration.
    pub banks: u32,
    /// Whether the configuration was an LA-1B (burst) one.
    pub burst: bool,
    /// Whether guidance was on.
    pub guided: bool,
    /// Base seed the per-stream seeds derive from.
    pub seed: u64,
    /// Independent stimulus streams run.
    pub streams: u32,
    /// Per-stream cycle budget.
    pub budget: u64,
    /// Cycles each stream actually ran (lockstep, so lane-uniform).
    pub cycles_run: u64,
    /// Total stimulus volume: `streams * cycles_run`.
    pub lane_cycles: u64,
    /// Bins defined by the coverage model.
    pub bins_total: usize,
    /// Bins hit by at least one stream.
    pub bins_hit: usize,
    /// Tier-1 bins defined.
    pub tier1_total: usize,
    /// Tier-1 bins hit by at least one stream.
    pub tier1_hit: usize,
    /// Whether every bin closed within the budget.
    pub closed: bool,
    /// Per-stream cycles after which merged coverage was complete (one
    /// past the latest earliest-stream first hit); `None` when the
    /// budget ran out first.
    pub cycles_to_closure: Option<u64>,
    /// Names of the bins no stream hit, in model order.
    pub unhit: Vec<String>,
    /// Merged per-bin statistics in mergeable form — what the farm
    /// unions across closure shards ([`CoverageModel::merge_bins`]).
    /// Not part of [`Self::to_json`], which stays byte-pinned.
    pub bins: BinStats,
}

impl MultiClosureReport {
    /// Fraction of bins hit by at least one stream.
    pub fn coverage(&self) -> f64 {
        if self.bins_total == 0 {
            1.0
        } else {
            self.bins_hit as f64 / self.bins_total as f64
        }
    }

    /// The report as a JSON value (without [`Self::bins`]).
    pub fn json(&self) -> Json {
        Json::obj([
            ("banks", Json::num(self.banks as u64)),
            ("burst", Json::Bool(self.burst)),
            ("guided", Json::Bool(self.guided)),
            ("seed", Json::num(self.seed)),
            ("streams", Json::num(self.streams as u64)),
            ("budget", Json::num(self.budget)),
            ("cycles_run", Json::num(self.cycles_run)),
            ("lane_cycles", Json::num(self.lane_cycles)),
            ("bins_total", Json::num(self.bins_total as u64)),
            ("bins_hit", Json::num(self.bins_hit as u64)),
            ("tier1_total", Json::num(self.tier1_total as u64)),
            ("tier1_hit", Json::num(self.tier1_hit as u64)),
            ("closed", Json::Bool(self.closed)),
            ("cycles_to_closure", Json::opt_num(self.cycles_to_closure)),
            ("unhit", Json::str_arr(&self.unhit)),
        ])
    }

    /// Renders the deterministic JSON report.
    pub fn to_json(&self) -> String {
        self.json().render_pretty(&[])
    }
}

/// One stream's generator and its private coverage collector.
struct Stream {
    generator: Generator,
    collector: CoverageCollector,
}

/// The merged unhit-bin list all guided streams retarget from.
fn merged_unhit(streams: &[Stream]) -> Vec<CoverBin> {
    let model = streams[0].collector.model();
    model
        .bins()
        .iter()
        .enumerate()
        .filter(|(i, _)| streams.iter().all(|s| s.collector.hits()[*i] == 0))
        .map(|(_, b)| *b)
        .collect()
}

/// Assembles the merged report once the loop has stopped: every
/// stream's per-bin statistics union via [`CoverageModel::merge_bins`]
/// (the same fold the farm applies across closure shards), and the
/// report figures derive from the merged map in model order.
fn merged_report(
    cfg: &ClosureConfig,
    guided: bool,
    streams: Vec<Stream>,
    cycles_run: u64,
) -> MultiClosureReport {
    let model = streams[0].collector.model().clone();
    let mut bins = BinStats::new();
    for s in &streams {
        CoverageModel::merge_bins(&mut bins, &s.collector.bin_stats());
    }
    let stat = |b: &CoverBin| &bins[&b.name()];
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
    let bins_hit = model.bins().iter().filter(|b| stat(b).hits > 0).count();
    let tier1_hit = model
        .bins()
        .iter()
        .filter(|b| b.tier() == 1 && stat(b).hits > 0)
        .count();
    let unhit = model
        .bins()
        .iter()
        .filter(|b| stat(b).hits == 0)
        .map(|b| b.name())
        .collect();
    MultiClosureReport {
        banks: cfg.config.banks,
        burst: cfg.config.is_burst(),
        guided,
        seed: cfg.seed,
        streams: streams.len() as u32,
        budget: cfg.budget,
        cycles_run,
        lane_cycles: streams.len() as u64 * cycles_run,
        bins_total: model.len(),
        bins_hit,
        tier1_total: model.tier1_len(),
        tier1_hit,
        closed,
        cycles_to_closure,
        unhit,
        bins,
    }
}

/// The scalar multi-stream reference: one [`LaRtlDriver`] per stream,
/// streams executed sequentially within each epoch. A pure function of
/// `(cfg, guided, streams)`.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl(cfg: &ClosureConfig, guided: bool, streams: u32) -> MultiClosureReport {
    run_closure_rtl_from::<RtlSim>(cfg, guided, streams, None)
        .expect("no preamble, so no checkpoint error is possible")
}

/// The bit-parallel multi-stream runner: the streams as the lanes of
/// [`LaRtlBatchDriver`]s, 64 per driver. Produces a report
/// byte-identical to [`run_closure_rtl`] with the same arguments.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl_batched(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
) -> MultiClosureReport {
    run_closure_rtl_from::<BatchedRtlSim>(cfg, guided, streams, None)
        .expect("no preamble, so no checkpoint error is possible")
}

/// The multi-stream closure loop, generic over the driver instance,
/// with an optional shared [`ClosurePreamble`] every stream runs
/// (warm-restored or cold-replayed) before its seeded stimulus starts.
///
/// The streams split into drivers of [`LaneSim::LANES`] lanes each, and
/// every driver runs its streams through each epoch in turn: one lane
/// per driver is [`run_closure_rtl`]'s schedule, 64 is
/// [`run_closure_rtl_batched`]'s. Coverage is collected over the
/// closure cycles only, so the instances, and the warm and cold
/// preambles, produce byte-identical reports.
///
/// # Errors
///
/// Fails if the preamble does not match the configuration.
///
/// # Panics
///
/// Panics if `streams` is zero.
pub fn run_closure_rtl_from<S: LaneSim>(
    cfg: &ClosureConfig,
    guided: bool,
    streams: u32,
    preamble: Option<&ClosurePreamble>,
) -> Result<MultiClosureReport, CheckpointError> {
    assert!(streams > 0, "at least one stream");
    let design = LaRtl::build(&cfg.config, None);
    let mut state: Vec<Stream> = (0..streams)
        .map(|i| Stream {
            generator: Generator::for_stream(cfg, guided, stream_seed(cfg.seed, i as u64)),
            collector: CoverageCollector::new(CoverageModel::la1(&cfg.config)),
        })
        .collect();
    let mut drivers = Vec::new();
    for _ in state.chunks(S::LANES) {
        drivers.push(match preamble {
            Some(p) => p.driver::<S>(&design)?,
            None => LaDriver::<S>::new(&design),
        });
    }
    let mut ops: Vec<Vec<BankOp>> = vec![Vec::new(); S::LANES];
    let mut run = 0u64;
    while run < cfg.budget {
        let unhit = merged_unhit(&state);
        if unhit.is_empty() {
            break;
        }
        if guided {
            for s in &mut state {
                s.generator.retarget(&unhit);
            }
        }
        let step = cfg.epoch.min(cfg.budget - run);
        for (group, driver) in state.chunks_mut(S::LANES).zip(&mut drivers) {
            for _ in 0..step {
                for (buf, s) in ops.iter_mut().zip(group.iter_mut()) {
                    *buf = s.generator.next_cycle();
                }
                let refs: Vec<&[BankOp]> = ops[..group.len()].iter().map(Vec::as_slice).collect();
                driver.cycle_lanes(&refs);
                for (lane, (s, ops)) in group.iter_mut().zip(&ops).enumerate() {
                    s.collector.observe(ops, &mut LaneModel::new(driver, lane));
                }
            }
        }
        run += step;
    }
    Ok(merged_report(cfg, guided, state, run))
}
