//! `traffic_lookup` and `traffic_contention`: NPU traffic through the
//! transaction-level stimulus stack, at each scalar level and on the
//! 64-lane engine.
//!
//! A sample runs a fixed number of cycles at each scalar level —
//! SystemC with its PSL monitors attached (Table 3's δ_SC), the RTL
//! driver, and the RTL with the OVL suite sampled inside
//! `cycle_with` (δ_OVL) — each observed by a scoreboard and the traffic
//! coverage model, then a fixed number of cycles of 64 sibling streams
//! on the batched RTL engine with one scoreboard per lane. Models and
//! streams carry their state from one sample to the next, so every
//! sample drives fresh traffic into a warm model.

use crate::harness::{Bench, Checks, Figure, Scale};
use crate::trace::{Fold, Tracer};
use la1_core::cycle_model::{BatchLaneModel, CycleModel, CycleObserver};
use la1_core::harness::attach_la1_ovl;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::traffic::{contention, PacketStream};
use la1_core::stimulus::{stream_seed, Agent, TransactionMonitor};
use la1_core::workloads::Workload;
use la1_cover::{CoverageCollector, CoverageModel};
use la1_ovl::OvlBench;
use la1_rtl::LANES;
use std::path::Path;
use std::time::Instant;

/// Which traffic mix drives the levels.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// Zipf packet lookups over 256 flows (s = 1.1), read-dominated.
    Lookup,
    /// Three masters arbitrated round-robin, ~55% writes beside reads.
    Contention,
}

impl Mix {
    fn stream(self, cfg: &LaConfig, seed: u64) -> Box<dyn Workload> {
        match self {
            Mix::Lookup => Box::new(Agent::new(cfg, PacketStream::new(cfg, seed, 256, 1.1))),
            Mix::Contention => Box::new(contention(cfg, seed, 3)),
        }
    }

    /// The stream index the `traffic` binary derives each mix's seed
    /// with, so the default seed drives the same streams.
    fn stream_index(self) -> u64 {
        match self {
            Mix::Lookup => 3,
            Mix::Contention => 1,
        }
    }
}

const BANKS: u32 = 4;

/// Cycles per sample at each scalar level, and on the batched engine.
fn cycles(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (10_000, 1_500),
        #[cfg(test)]
        Scale::Tiny => (300, 40),
    }
}

/// A scalar level's model step.
enum Step {
    SystemC(LaSystemC),
    Rtl(LaRtlDriver),
    RtlOvl(LaRtlDriver, OvlBench),
}

/// One scalar level with its own stimulus and observers.
struct Level {
    /// Span name of the level's pass.
    name: &'static str,
    /// The level's throughput figure.
    figure: &'static str,
    step: Step,
    stimulus: Box<dyn Workload>,
    monitor: TransactionMonitor,
    cover: CoverageCollector,
    /// Interpreter evaluations across all samples (RTL levels).
    evals: u64,
}

impl Level {
    fn new(step: Step, cfg: &LaConfig, stimulus: Box<dyn Workload>) -> Level {
        let (name, figure) = match step {
            Step::SystemC(_) => ("systemc_psl", "lookups_per_s.systemc_psl"),
            Step::Rtl(_) => ("rtl", "lookups_per_s.rtl"),
            Step::RtlOvl(..) => ("rtl_ovl", "lookups_per_s.rtl_ovl"),
        };
        Level {
            name,
            figure,
            step,
            stimulus,
            monitor: TransactionMonitor::new(cfg),
            cover: CoverageCollector::new(CoverageModel::la1_traffic(cfg)),
            evals: 0,
        }
    }

    fn violations(&self) -> usize {
        match &self.step {
            Step::SystemC(m) => m.violations().len(),
            Step::Rtl(_) => 0,
            Step::RtlOvl(_, bench) => bench.violations().len(),
        }
    }

    fn counters(&self) -> (u64, u64, u64) {
        let s = self.monitor.stats();
        (s.reads_issued, s.lookups_completed, s.writes_committed)
    }

    /// Runs `cycles` cycles; returns the ops driven.
    fn pass(&mut self, cycles: u64, tr: &mut Tracer) -> u64 {
        let on = tr.on();
        let mut stim = Fold::default();
        let mut step = Fold::default();
        let mut ovl = Fold::default();
        let mut sb = Fold::default();
        let mut cov = Fold::default();
        let evals_before = self.evals_now();
        let mut ops_driven = 0;
        let Level {
            step: model,
            stimulus,
            monitor,
            cover,
            ..
        } = self;
        for _ in 0..cycles {
            let ops = stim.time(on, || stimulus.next_cycle());
            ops_driven += ops.len() as u64;
            let observed: &mut dyn CycleModel = match &mut *model {
                Step::SystemC(m) => {
                    step.time(on, || m.cycle(&ops));
                    m
                }
                Step::Rtl(d) => {
                    step.time(on, || d.cycle(&ops));
                    d
                }
                Step::RtlOvl(d, bench) => {
                    step.time(on, || {
                        d.cycle_with(&ops, |sim| {
                            ovl.time(on, || bench.on_cycle(sim));
                        })
                    });
                    d
                }
            };
            sb.time(on, || monitor.observe(&ops, &mut *observed));
            cov.time(on, || cover.observe(&ops, &mut *observed));
        }
        self.evals += self.evals_now() - evals_before;
        tr.fold(&stim, "stimulus.next_cycle", "stimulus");
        let parent = match self.step {
            Step::SystemC(_) => tr.fold(&step, "systemc.cycle", "systemc"),
            Step::Rtl(_) => tr.fold(&step, "rtl.cycle", "rtl"),
            Step::RtlOvl(..) => tr.fold(&step, "rtl_ovl.cycle", "rtl"),
        };
        tr.fold_under(parent, &ovl, "ovl.on_cycle", "ovl");
        tr.fold(&sb, "scoreboard.observe", "scoreboard");
        tr.fold(&cov, "cover.observe", "cover");
        ops_driven
    }

    fn evals_now(&self) -> u64 {
        match &self.step {
            Step::SystemC(_) => 0,
            Step::Rtl(d) | Step::RtlOvl(d, _) => d.evals(),
        }
    }
}

/// 64 sibling streams on the batched RTL engine, one scoreboard per
/// lane.
struct Lanes {
    driver: LaRtlBatchDriver,
    streams: Vec<Box<dyn Workload>>,
    monitors: Vec<TransactionMonitor>,
    ops: Vec<Vec<BankOp>>,
    evals: u64,
}

impl Lanes {
    fn pass(&mut self, cycles: u64, tr: &mut Tracer) {
        let on = tr.on();
        let (mut stim, mut step, mut observe) = (Fold::default(), Fold::default(), Fold::default());
        let evals_before = self.driver.evals();
        let Lanes {
            driver,
            streams,
            monitors,
            ops,
            ..
        } = self;
        for _ in 0..cycles {
            stim.time_n(on, LANES as u64, || {
                for (buf, s) in ops.iter_mut().zip(streams.iter_mut()) {
                    *buf = s.next_cycle();
                }
            });
            step.time(on, || {
                let refs: Vec<&[BankOp]> = ops.iter().map(Vec::as_slice).collect();
                driver.cycle(&refs);
            });
            observe.time_n(on, LANES as u64, || {
                for (lane, m) in monitors.iter_mut().enumerate() {
                    m.observe(&ops[lane], &mut BatchLaneModel::new(driver, lane));
                }
            });
        }
        self.evals += self.driver.evals() - evals_before;
        tr.fold(&stim, "lane_stimulus.next_cycle", "stimulus");
        tr.fold(&step, "rtl_x64.cycle", "rtl_x64");
        tr.fold(&observe, "lane_observe.observe", "scoreboard");
    }

    fn lookups(&self) -> u64 {
        self.monitors
            .iter()
            .map(|m| m.stats().lookups_completed)
            .sum()
    }
}

/// A traffic workload's state.
pub struct Traffic {
    mix: Mix,
    cfg: LaConfig,
    seed: u64,
    cycles: u64,
    lane_cycles: u64,
    levels: Vec<Level>,
    lanes: Lanes,
    /// Ops driven and cycles run at each scalar level (the levels see
    /// the same stream), and cycles run on the lanes, over all samples.
    ops: u64,
    cycles_run: u64,
    lane_cycles_run: u64,
}

/// `traffic_lookup`: read-dominated Zipf packet lookups.
pub fn setup_lookup(seed: u64, scale: Scale, _tr: &mut Tracer, _scratch: &Path) -> Box<dyn Bench> {
    Box::new(Traffic::new(Mix::Lookup, seed, scale))
}

/// `traffic_contention`: three arbitrated masters, write-heavy.
pub fn setup_contention(
    seed: u64,
    scale: Scale,
    _tr: &mut Tracer,
    _scratch: &Path,
) -> Box<dyn Bench> {
    Box::new(Traffic::new(Mix::Contention, seed, scale))
}

impl Traffic {
    /// Builds the design, compiles the simulators, elaborates every
    /// model and attaches the monitors and observers — everything
    /// before the first simulated cycle.
    fn new(mix: Mix, base_seed: u64, scale: Scale) -> Traffic {
        let cfg = LaConfig::new(BANKS);
        let seed = stream_seed(base_seed, mix.stream_index());
        let (cycles, lane_cycles) = cycles(scale);
        let design = LaRtl::build(&cfg, None);
        let mut systemc = LaSystemC::new(&cfg);
        systemc.attach_default_monitors();
        let mut ovl = OvlBench::new();
        attach_la1_ovl(&mut ovl, &design);
        let levels = [
            Step::SystemC(systemc),
            Step::Rtl(LaRtlDriver::new(&design)),
            Step::RtlOvl(LaRtlDriver::new(&design), ovl),
        ]
        .into_iter()
        .map(|step| Level::new(step, &cfg, mix.stream(&cfg, seed)))
        .collect();
        let lanes = Lanes {
            driver: LaRtlBatchDriver::new(&design),
            streams: (0..LANES as u64)
                .map(|l| mix.stream(&cfg, stream_seed(seed, l + 1)))
                .collect(),
            monitors: (0..LANES).map(|_| TransactionMonitor::new(&cfg)).collect(),
            ops: vec![Vec::new(); LANES],
            evals: 0,
        };
        Traffic {
            mix,
            cfg,
            seed,
            cycles,
            lane_cycles,
            levels,
            lanes,
            ops: 0,
            cycles_run: 0,
            lane_cycles_run: 0,
        }
    }
}

impl Bench for Traffic {
    fn sample(&mut self, tr: &mut Tracer) -> Vec<Figure> {
        let mut figures = Vec::new();
        for (i, level) in self.levels.iter_mut().enumerate() {
            let before = level.monitor.stats().lookups_completed;
            let t = Instant::now();
            tr.enter(level.name, "traffic");
            let ops = level.pass(self.cycles, tr);
            tr.exit();
            let secs = t.elapsed().as_secs_f64();
            if i == 0 {
                self.ops += ops;
            }
            let lookups = level.monitor.stats().lookups_completed - before;
            figures.push((level.figure, "1/s", lookups as f64 / secs));
        }
        self.cycles_run += self.cycles;
        let before = self.lanes.lookups();
        let t = Instant::now();
        tr.enter("rtl_x64", "traffic");
        self.lanes.pass(self.lane_cycles, tr);
        tr.exit();
        let secs = t.elapsed().as_secs_f64();
        self.lane_cycles_run += self.lane_cycles;
        figures.push((
            "lookups_per_s.rtl_x64",
            "1/s",
            (self.lanes.lookups() - before) as f64 / secs,
        ));
        figures
    }

    fn check(&mut self, checks: &mut Checks) {
        let reference = self.levels[0].counters();
        let reference_bins = self.levels[0].cover.hit_names();
        for level in &self.levels {
            let s = level.monitor.stats();
            checks.check(s.clean(), || {
                format!("{}: scoreboard unclean: {s:?}", level.name)
            });
            checks.eq(
                &format!("{}: assertion violations", level.name),
                level.violations(),
                0,
            );
            checks.eq(
                &format!("{}: (reads, lookups, writes) vs systemc_psl", level.name),
                level.counters(),
                reference,
            );
            checks.eq(
                &format!("{}: coverage bins hit vs systemc_psl", level.name),
                level.cover.hit_names(),
                reference_bins.clone(),
            );
        }
        for (lane, m) in self.lanes.monitors.iter().enumerate() {
            let s = m.stats();
            checks.check(s.clean(), || {
                format!("rtl_x64 lane {lane}: scoreboard unclean: {s:?}")
            });
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let (reads, lookups, writes) = self.levels[0].counters();
        let lane =
            |f: fn(&TransactionMonitor) -> u64| -> u64 { self.lanes.monitors.iter().map(f).sum() };
        vec![
            ("reads", reads),
            ("lookups", lookups),
            ("writes_committed", writes),
            ("coverage_bins_hit", self.levels[0].cover.covered() as u64),
            ("lane_lookups", lane(|m| m.stats().lookups_completed)),
            (
                "lane_writes_committed",
                lane(|m| m.stats().writes_committed),
            ),
        ]
    }

    /// SystemC with its monitors detached, over the same stream from
    /// reset: the base the PSL monitors' differential cost is taken
    /// against.
    fn probe(&mut self, tr: &mut Tracer) {
        let mut model = LaSystemC::new(&self.cfg);
        let mut stimulus = self.mix.stream(&self.cfg, self.seed);
        let mut step = Fold::default();
        tr.enter("systemc_bare", "traffic");
        for _ in 0..self.cycles {
            let ops = stimulus.next_cycle();
            step.time(true, || model.cycle(&ops));
        }
        tr.fold(&step, "systemc.bare_cycle", "systemc");
        tr.exit();
    }

    fn layers(&self, tr: &Tracer, _wall_s: f64) -> Vec<(&'static str, f64)> {
        let per_cycle = |name| tr.ns_per_call(name);
        let systemc = per_cycle("systemc.bare_cycle");
        let (ovl_ns, _) = tr.total("ovl.on_cycle");
        let (rtl_ovl_ns, _) = tr.total("rtl_ovl.cycle");
        let (x64_ns, x64_calls) = tr.total("rtl_x64.cycle");
        let lanes = LANES as f64;
        let scalar_cycles = self.cycles_run as f64;
        let lane_cycles = self.lane_cycles_run as f64;
        vec![
            ("stimulus.ns_per_cycle", per_cycle("stimulus.next_cycle")),
            ("stimulus.ops_per_cycle", self.ops as f64 / scalar_cycles),
            (
                "lane_stimulus.ns_per_lane_cycle",
                per_cycle("lane_stimulus.next_cycle"),
            ),
            ("systemc.ns_per_cycle", systemc),
            ("psl.ns_per_cycle", per_cycle("systemc.cycle") - systemc),
            ("rtl.ns_per_cycle", per_cycle("rtl.cycle")),
            (
                "rtl.evals_per_cycle",
                self.levels[1].evals as f64 / scalar_cycles,
            ),
            ("ovl.ns_per_cycle", per_cycle("ovl.on_cycle")),
            (
                "ovl.share",
                100.0 * ovl_ns as f64 / rtl_ovl_ns.max(1) as f64,
            ),
            (
                "rtl_x64.ns_per_lane_cycle",
                x64_ns as f64 / (x64_calls.max(1) as f64 * lanes),
            ),
            (
                "rtl_x64.evals_per_cycle",
                self.lanes.evals as f64 / lane_cycles,
            ),
            ("scoreboard.ns_per_cycle", per_cycle("scoreboard.observe")),
            ("cover.ns_per_cycle", per_cycle("cover.observe")),
            (
                "lane_observe.ns_per_lane_cycle",
                per_cycle("lane_observe.observe"),
            ),
        ]
    }
}
