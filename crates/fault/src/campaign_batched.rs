//! The bit-parallel (PPSFP) campaign runner.
//!
//! [`run_campaign_batched`] produces the **same** [`DetectionMatrix`]
//! as [`run_campaign`](crate::run_campaign) — byte-identical
//! [`DetectionMatrix::to_json`] — but runs all RTL-level work on the
//! 64-lane [`LaRtlBatchDriver`]: every compiled-netlist operation
//! evaluates 64 independent seeded runs at once, the classic
//! parallel-pattern single-fault-propagation trick turned into
//! parallel-*run* simulation.
//!
//! How the runs map onto lanes:
//!
//! * Lanes can only share a simulator when they share a netlist, so
//!   runs are grouped by DUT netlist: one *healthy* group carries every
//!   scoreboard golden plus the DUTs of all stimulus faults (which
//!   corrupt the op stream, not the design), and one extra group per
//!   parity-faulted bank carries that bank's `parity_fault` DUTs.
//! * Closed-loop runs (`stuck_at_0_read_sel` plus the healthy-design
//!   control) keep per-lane feedback state — outstanding read, progress
//!   counter, watchdog timer — and live in their own group.
//! * **Fault dropping**: a lane retires the cycle its run's verdict is
//!   complete — at the precomputed guard-trip cycle, after the first
//!   scoreboard mismatch (bare-RTL level only; `rtl+ovl` DUT lanes must
//!   keep sampling their monitors to the end of the script), or at
//!   closed-loop completion/watchdog. Retired lanes stop receiving
//!   stimulus and comparisons; the simulator itself still steps, so
//!   dropping is observable in [`BatchStats`] without altering any
//!   verdict or detection cycle.
//!
//! Determinism is inherited wholesale: per-run seeds, fault plans and
//! scripts are derived exactly as the scalar runner derives them, and
//! the per-lane protocol drive is bit-identical to
//! [`LaRtlDriver`](la1_core::rtl_model::LaRtlDriver) — so the matrix
//! cells, latencies and disagreements come out equal by construction
//! (the equivalence tests in this crate check byte-identity at 1/2/4
//! banks).
//!
//! The ASM and SystemC levels are two-valued compiled models with no
//! packed representation; their (much cheaper) runs take the scalar
//! path, and both runners share the run derivation
//! ([`planned_runs`](crate::campaign::planned_runs)) and the matrix
//! tally ([`assemble_matrix`](crate::campaign::assemble_matrix)).

use crate::campaign::{
    assemble_matrix, closed_loop_bounds, inject_stream, note_violations, open_loop_script,
    planned_runs, prime_write, replay_script, scalar_level, CampaignConfig, CampaignShard,
    DetectionMatrix, Level, LevelRuns, RunResult,
};
use crate::models::{FaultModel, FaultPlan, Injector};
use la1_core::harness::attach_la1_ovl;
use la1_core::rtl_model::{decode_cycle, LaRtl, LaRtlBatchDriver, XPin};
use la1_core::spec::{BankOp, LaConfig};
use la1_ovl::OvlBench;
use la1_rtl::LANES;
use std::collections::BTreeMap;

/// Bit-parallel execution statistics: how much lane-level work the
/// batched engine did and how much of it fault dropping retired early.
/// Pure bookkeeping — none of it feeds back into the matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Seeded RTL-level lane runs executed (DUTs, goldens and
    /// closed-loop controls).
    pub rtl_lane_runs: u32,
    /// Lanes retired before their script's natural end (fault
    /// dropping).
    pub lanes_retired_early: u32,
    /// Lane-cycles of stimulus skipped by early retirement.
    pub lane_cycles_saved: u64,
    /// Batched simulators instantiated (lane groups across levels).
    pub groups: u32,
}

impl BatchStats {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "batched: {} lane runs in {} group(s), {} lane(s) dropped early, {} lane-cycles saved",
            self.rtl_lane_runs, self.groups, self.lanes_retired_early, self.lane_cycles_saved
        )
    }
}

/// Which netlist a lane group simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKind {
    /// Open-loop lanes over the given parity-faulted bank (`None` =
    /// healthy netlist: goldens + stimulus-fault DUTs).
    Open(Option<u32>),
    /// Closed-loop lanes (healthy netlist, per-lane feedback).
    Closed,
}

/// One 64-lane simulator plus its per-lane monitor benches.
struct LaneGroup {
    kind: GroupKind,
    driver: LaRtlBatchDriver,
    /// OVL bench per DUT lane at the `rtl+ovl` level.
    benches: Vec<Option<OvlBench>>,
    used: usize,
}

impl LaneGroup {
    /// Cycles every lane, sampling the OVL bench of each lane `sample`
    /// selects at the rising edge.
    fn cycle(&mut self, ops: &[&[BankOp]], sample: impl Fn(usize) -> bool) {
        let LaneGroup {
            driver, benches, ..
        } = self;
        driver.cycle_with(ops, |sim| {
            for (lane, bench) in benches.iter_mut().enumerate() {
                if let Some(bench) = bench.as_mut().filter(|_| sample(lane)) {
                    bench.on_cycle(&mut sim.lane_probe(lane));
                }
            }
        });
    }
}

/// Allocates one lane of `kind`, opening a new group when the current
/// one is full; attaches an OVL bench to the lane when `with_bench`.
fn alloc_lane(
    groups: &mut Vec<LaneGroup>,
    cfg: &LaConfig,
    kind: GroupKind,
    with_bench: bool,
) -> (usize, usize) {
    let parity = match kind {
        GroupKind::Open(p) => p,
        GroupKind::Closed => None,
    };
    let gi = match groups
        .iter()
        .rposition(|g| g.kind == kind && g.used < LANES)
    {
        Some(gi) => gi,
        None => {
            let design = LaRtl::build(cfg, parity);
            groups.push(LaneGroup {
                kind,
                driver: LaRtlBatchDriver::new(&design),
                benches: (0..LANES).map(|_| None).collect(),
                used: 0,
            });
            groups.len() - 1
        }
    };
    let lane = groups[gi].used;
    groups[gi].used += 1;
    if with_bench {
        // monitors probe by net id, and every build of one config
        // allocates the identical net arena (the parity fault only
        // rewrites an expression), so attaching against a fresh build
        // is attachment against the group's design
        let mut bench = OvlBench::new();
        attach_la1_ovl(&mut bench, &LaRtl::build(cfg, parity));
        groups[gi].benches[lane] = Some(bench);
    }
    (gi, lane)
}

/// One prepared open-loop run: everything about it is precomputed —
/// the injected script is a pure transform of the intended ops, and
/// the guard trip (illegal ops on the single address bus) is a static
/// property of that script, so the whole guard schedule is known
/// before the first simulator step.
struct OpenRun {
    fault: FaultModel,
    activation: u64,
    intended: Vec<Vec<BankOp>>,
    injected: Vec<Vec<BankOp>>,
    /// cycle whose write arms the one-shot X injection, if any
    x_cycle: Option<u64>,
    /// first cycle whose injected ops violate the bus protocol
    guard_cycle: Option<u64>,
    dut: (usize, usize),
    gold: (usize, usize),
}

/// One closed-loop lane with its live feedback state (mirrors the
/// scalar `closed_loop_run` locals one-for-one).
struct ClosedRun {
    /// `None` is the healthy-design control.
    fault: Option<FaultModel>,
    injector: Option<Injector>,
    activation: u64,
    min_cycles: u64,
    lane: (usize, usize),
    completed: u32,
    outstanding: bool,
    counter: u32,
    last_progress: u64,
    detections: BTreeMap<String, u64>,
    hung: bool,
    done: bool,
    /// cycles this lane was actually driven (for the dropping stats)
    driven: u64,
}

impl ClosedRun {
    /// A lane about to start priming; `plan == None` is the control.
    fn new(config: &CampaignConfig, plan: Option<FaultPlan>, lane: (usize, usize)) -> ClosedRun {
        let cfg = &config.la1;
        let activation = plan.as_ref().map_or(0, |p| p.activation);
        let (min_cycles, _) =
            closed_loop_bounds(cfg, activation, config.watchdog_cycles, config.target_reads);
        ClosedRun {
            fault: plan.as_ref().map(|p| p.model),
            injector: plan.map(Injector::new),
            activation,
            min_cycles,
            lane,
            completed: 0,
            outstanding: false,
            counter: 0,
            last_progress: (cfg.banks * cfg.words_per_bank) as u64,
            detections: BTreeMap::new(),
            hung: false,
            done: false,
            driven: 0,
        }
    }
}

/// Runs every seeded run of one RTL-family level through the batched
/// simulator, restricted to the shard's faults. Returns the per-run
/// results in `(fault, run)` order plus the healthy-design control
/// verdict (`None` when the shard does not carry the controls).
fn run_rtl_level_batched(
    config: &CampaignConfig,
    shard: &CampaignShard,
    level: Level,
    level_idx: usize,
    stats: &mut BatchStats,
) -> LevelRuns {
    let cfg = &config.la1;
    let with_bench = level == Level::RtlOvl;
    let mut groups: Vec<LaneGroup> = Vec::new();
    let mut open_runs: Vec<OpenRun> = Vec::new();
    let mut closed_runs: Vec<ClosedRun> = Vec::new();

    // ---- prepare: derive every run exactly as the scalar runner does
    for (fault, plan, mut rng) in planned_runs(config, shard, level, level_idx) {
        if fault.closed_loop() {
            let lane = alloc_lane(&mut groups, cfg, GroupKind::Closed, with_bench);
            closed_runs.push(ClosedRun::new(config, Some(plan), lane));
            continue;
        }
        let intended = replay_script(cfg, open_loop_script(cfg, &mut rng));
        let (injected, x_cycle) = inject_stream(cfg, &plan, &intended);
        // the guard trips where the driver's decode would panic
        let guard_cycle = injected
            .iter()
            .position(|ops| decode_cycle(cfg, ops).is_err())
            .map(|i| i as u64);
        let parity = (fault == FaultModel::ParityFault).then_some(plan.bank);
        let dut = alloc_lane(&mut groups, cfg, GroupKind::Open(parity), with_bench);
        let gold = alloc_lane(&mut groups, cfg, GroupKind::Open(None), false);
        open_runs.push(OpenRun {
            fault,
            activation: plan.activation,
            intended,
            injected,
            x_cycle,
            guard_cycle,
            dut,
            gold,
        });
    }
    // the healthy-design closed-loop control rides in the closed group
    // (only on the shard carrying the controls)
    if shard.healthy {
        let control_lane = alloc_lane(&mut groups, cfg, GroupKind::Closed, with_bench);
        closed_runs.push(ClosedRun::new(config, None, control_lane));
    }

    stats.groups += groups.len() as u32;
    stats.rtl_lane_runs += (2 * open_runs.len() + closed_runs.len()) as u32;

    // ---- deep-state preamble: broadcast into every lane of every
    // group (DUTs, goldens, closed-loop lanes alike) before any script
    // starts, monitors sampling — exactly what each scalar run does
    // from reset, so preambled matrices stay byte-identical between
    // the scalar and batched runners.
    for ops in &config.preamble {
        for group in groups.iter_mut() {
            let refs: Vec<&[BankOp]> = vec![ops.as_slice(); group.used];
            group.cycle(&refs, |_| true);
        }
    }

    // ---- open-loop lockstep: all open groups advance one cycle
    // together so cross-group scoreboard pairs compare at the same
    // instant; first scoreboard mismatches land in `sb_cycles`
    let script_len = open_runs.first().map_or(0, |r| r.intended.len()) as u64;
    let mut sb_cycles: Vec<Option<u64>> = vec![None; open_runs.len()];
    let empty: &[BankOp] = &[];
    let mut ops_buf: Vec<Vec<&[BankOp]>> =
        groups.iter().map(|g| vec![empty; g.used]).collect();
    let mut sample_buf: Vec<Vec<bool>> = groups.iter().map(|g| vec![false; g.used]).collect();
    for cycle in 0..script_len {
        for (gi, buf) in ops_buf.iter_mut().enumerate() {
            buf.iter_mut().for_each(|o| *o = empty);
            sample_buf[gi].iter_mut().for_each(|s| *s = false);
        }
        for (i, run) in open_runs.iter().enumerate() {
            let c = cycle as usize;
            let g = run.guard_cycle.unwrap_or(u64::MAX);
            // a scoreboard hit retires the bare-RTL pair; at rtl+ovl
            // only the golden retires (the DUT's monitors keep going)
            let sb_stop = sb_cycles[i].map_or(u64::MAX, |m| m + 1);
            let dut_active = cycle < g && (level == Level::RtlOvl || cycle < sb_stop);
            if dut_active {
                ops_buf[run.dut.0][run.dut.1] = &run.injected[c];
                sample_buf[run.dut.0][run.dut.1] = true;
                if run.x_cycle == Some(cycle) {
                    groups[run.dut.0].driver.inject_x(run.dut.1, XPin::WData);
                }
            }
            // the golden executes the guard-trip cycle itself (the
            // scalar loop cycles it before the guard fires)
            if cycle < g.saturating_add(1).min(sb_stop) {
                ops_buf[run.gold.0][run.gold.1] = &run.intended[c];
            }
        }
        for (gi, group) in groups.iter_mut().enumerate() {
            if group.kind != GroupKind::Closed {
                group.cycle(&ops_buf[gi], |lane| sample_buf[gi][lane]);
            }
        }
        for (i, run) in open_runs.iter().enumerate() {
            if sb_cycles[i].is_some() || cycle >= run.guard_cycle.unwrap_or(u64::MAX) {
                continue;
            }
            let dut = &groups[run.dut.0].driver;
            let gold = &groups[run.gold.0].driver;
            for bank in 0..cfg.banks {
                if dut.bank_output(run.dut.1, bank) != gold.bank_output(run.gold.1, bank)
                    || dut.write_done(run.dut.1, bank) != gold.write_done(run.gold.1, bank)
                {
                    sb_cycles[i] = Some(cycle);
                    break;
                }
            }
        }
    }

    // ---- closed-loop: per-lane feedback, lanes retire as they finish
    let words = cfg.words_per_bank;
    let slots = cfg.banks * words;
    let prime_len = slots as u64;
    let (_, hard_cap) = closed_loop_bounds(cfg, 0, config.watchdog_cycles, config.target_reads);
    let closed_gis: Vec<usize> = (0..groups.len())
        .filter(|&gi| groups[gi].kind == GroupKind::Closed)
        .collect();
    let mut lane_ops: Vec<Vec<Vec<BankOp>>> =
        groups.iter().map(|g| vec![Vec::new(); g.used]).collect();
    for cycle in 0..hard_cap {
        if closed_runs.iter().all(|r| r.done) {
            break;
        }
        for run in &mut closed_runs {
            let (gi, lane) = run.lane;
            lane_ops[gi][lane].clear();
            if run.done {
                continue;
            }
            run.driven += 1;
            let ops = &mut lane_ops[gi][lane];
            if cycle < prime_len {
                ops.push(prime_write(cfg, cycle as u32));
            } else {
                if !run.outstanding {
                    let slot = run.counter % slots;
                    run.counter += 1;
                    ops.push(BankOp::read(slot / words, (slot % words) as u64));
                    run.outstanding = true;
                }
                if let Some(injector) = &mut run.injector {
                    injector.apply(cycle, cfg, ops);
                }
            }
            // the closed-loop fault set only ever *removes* strobes, so
            // the guard (which the scalar runner arms every cycle)
            // provably never trips here
            debug_assert!(decode_cycle(cfg, ops).is_ok());
        }
        for &gi in &closed_gis {
            let used = groups[gi].used;
            let refs: Vec<&[BankOp]> = lane_ops[gi].iter().map(Vec::as_slice).collect();
            let active: Vec<bool> = (0..used)
                .map(|lane| closed_runs.iter().any(|r| r.lane == (gi, lane) && !r.done))
                .collect();
            groups[gi].cycle(&refs, |lane| active[lane]);
        }
        if cycle < prime_len {
            continue;
        }
        for run in &mut closed_runs {
            if run.done {
                continue;
            }
            let (gi, lane) = run.lane;
            let driver = &groups[gi].driver;
            if (0..cfg.banks).any(|b| driver.bank_output(lane, b).is_some()) {
                run.completed += 1;
                run.outstanding = false;
                run.last_progress = cycle;
                if run.completed >= config.target_reads && cycle >= run.min_cycles {
                    run.done = true;
                    continue;
                }
            }
            if cycle - run.last_progress >= config.watchdog_cycles {
                run.detections
                    .insert("watchdog".to_string(), cycle.saturating_sub(run.activation));
                run.hung = true;
                run.done = true;
            }
        }
    }

    // ---- assemble per-run results (identical to the scalar paths)
    let mut results: Vec<(FaultModel, RunResult)> = Vec::new();
    for (i, run) in open_runs.iter().enumerate() {
        let mut detections: BTreeMap<String, u64> = BTreeMap::new();
        if let Some(g) = run.guard_cycle {
            detections.insert("guard".to_string(), g.saturating_sub(run.activation));
        }
        if let Some(m) = sb_cycles[i] {
            detections.insert("scoreboard".to_string(), m.saturating_sub(run.activation));
        }
        if let Some(bench) = &groups[run.dut.0].benches[run.dut.1] {
            note_violations(&mut detections, violations(bench), run.activation);
        }
        // dropping stats: cycles the DUT/golden lanes did not consume
        let g = run.guard_cycle.unwrap_or(u64::MAX);
        let sb_stop = sb_cycles[i].map_or(u64::MAX, |m| m + 1);
        let dut_end = if level == Level::RtlOvl {
            g.min(script_len)
        } else {
            g.min(sb_stop).min(script_len)
        };
        let gold_end = g.saturating_add(1).min(sb_stop).min(script_len);
        for end in [dut_end, gold_end] {
            if end < script_len {
                stats.lanes_retired_early += 1;
                stats.lane_cycles_saved += script_len - end;
            }
        }
        results.push((
            run.fault,
            RunResult {
                detections,
                hung: false,
            },
        ));
    }
    let mut healthy_ok = None;
    for mut run in closed_runs {
        if run.completed < config.target_reads && !run.hung {
            // the hard cap ran out without the watchdog firing —
            // same post-loop verdict as the scalar runner
            run.detections.insert(
                "watchdog".to_string(),
                hard_cap.saturating_sub(run.activation),
            );
            run.hung = true;
        }
        if let Some(bench) = &groups[run.lane.0].benches[run.lane.1] {
            note_violations(&mut run.detections, violations(bench), run.activation);
        }
        if run.driven < hard_cap {
            stats.lanes_retired_early += 1;
            stats.lane_cycles_saved += hard_cap - run.driven;
        }
        match run.fault {
            Some(fault) => results.push((
                fault,
                RunResult {
                    detections: run.detections,
                    hung: run.hung,
                },
            )),
            None => healthy_ok = Some(!run.hung),
        }
    }
    (results, healthy_ok)
}

/// A lane bench's violations as `(monitor, cycle)` pairs.
fn violations(bench: &OvlBench) -> impl Iterator<Item = (String, u64)> + '_ {
    bench
        .violations()
        .iter()
        .map(|v| (v.monitor.clone(), v.cycle))
}

/// Runs the full campaign with all RTL-level work on the 64-lane
/// batched simulator, producing a matrix byte-identical to
/// [`run_campaign`](crate::run_campaign) plus the bit-parallel
/// execution stats.
pub fn run_campaign_batched(config: &CampaignConfig) -> (DetectionMatrix, BatchStats) {
    run_campaign_batched_shard(config, &CampaignShard::full(config))
}

/// Runs one shard of the campaign with the batched RTL engines —
/// the farm's per-worker unit of work. Shard semantics match
/// [`run_campaign_shard`](crate::run_campaign_shard): global seed
/// indices, healthy controls only on the carrying shard, so merged
/// shard matrices reproduce [`run_campaign_batched`] byte-for-byte.
pub fn run_campaign_batched_shard(
    config: &CampaignConfig,
    shard: &CampaignShard,
) -> (DetectionMatrix, BatchStats) {
    let mut stats = BatchStats::default();
    let matrix = assemble_matrix(config, shard, |level, level_idx| match level {
        Level::Rtl | Level::RtlOvl => {
            run_rtl_level_batched(config, shard, level, level_idx, &mut stats)
        }
        Level::Asm | Level::SystemC => scalar_level(config, shard, level, level_idx),
    });
    (matrix, stats)
}
