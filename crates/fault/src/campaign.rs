//! The deterministic fault-injection campaign runner and its
//! detection matrix.
//!
//! A campaign takes a [`CampaignConfig`] — interface configuration,
//! seed, fault list, level list, runs per fault — and produces a
//! [`DetectionMatrix`]: for every `(fault model, level)` pair, which
//! detection channel caught the fault in how many of the seeded runs,
//! and with what mean latency in cycles. The channels are:
//!
//! * `scoreboard` — a healthy same-level golden model driven with the
//!   *intended* operations, compared pin-by-pin against the faulted
//!   run every cycle (data-valid word and write-done flag per bank);
//! * the attached monitors — PSL properties at the SystemC level
//!   (`parity_0`, `read_latency_0`, …), OVL modules at the RTL+OVL
//!   level (`ovl_parity_0`, …), reported under their own names;
//! * `guard` — a panic guard around every DUT cycle: the levels
//!   enforce the bus protocol by assertion, so a hostile stimulus
//!   (two reads on the one address bus) trips it;
//! * `watchdog` — closed-loop runs issue a read whenever none is
//!   outstanding and declare the run [hung](CellStats::hung) after
//!   `watchdog_cycles` without a data-valid response.
//!
//! Everything is deterministic: per-run RNGs are seeded from
//! `(campaign seed, fault index, level index, run index)`, the matrix
//! is held in ordered maps, and neither wall-clock time nor iteration
//! order of unordered containers enters the result — the same seed and
//! config produce a byte-identical [`DetectionMatrix::to_json`].

use crate::models::{FaultModel, FaultPlan, HostileMasterSeq, Injector};
use la1_core::asm_model::LaAsmModel;
use la1_core::checkpoint::Trace;
use la1_core::cycle_model::{pin_mismatch, CycleModel, RtlWithOvl};
use la1_core::json::Json;
use la1_core::properties::{cycle_properties_for, Directive};
use la1_core::rtl_model::{LaRtl, LaRtlDriver, XPin};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig, READ_LATENCY};
use la1_core::stimulus::{Driver, ScriptSequence};
use la1_core::workloads::{RandomMix, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The executable refinement levels a campaign can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// The ASM-level model (full-word writes, no monitors).
    Asm,
    /// The SystemC model with compiled PSL monitors.
    SystemC,
    /// The interpreted RTL without monitors.
    Rtl,
    /// The interpreted RTL with the OVL monitor suite.
    RtlOvl,
}

impl Level {
    /// All levels, in refinement order.
    pub const ALL: [Level; 4] = [Level::Asm, Level::SystemC, Level::Rtl, Level::RtlOvl];

    /// The level's report name (matches [`CycleModel::level`]).
    pub fn name(self) -> &'static str {
        match self {
            Level::Asm => "asm",
            Level::SystemC => "systemc",
            Level::Rtl => "rtl",
            Level::RtlOvl => "rtl+ovl",
        }
    }

    /// Parses a report name back into the level (the bench binaries'
    /// `--levels` option).
    pub fn from_name(name: &str) -> Option<Level> {
        Level::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// Whether `fault` can be expressed at `level`.
///
/// X injection needs the four-state RTL simulator; the parity path
/// does not exist in the ASM model (which abstracts data transport).
pub fn supports(fault: FaultModel, level: Level) -> bool {
    match fault {
        FaultModel::XInjectWData => matches!(level, Level::Rtl | Level::RtlOvl),
        FaultModel::ParityFault => !matches!(level, Level::Asm),
        _ => true,
    }
}

/// One campaign's shape: which faults, which levels, how many seeded
/// runs of each, and the closed-loop watchdog parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Interface configuration the models are built from.
    pub la1: LaConfig,
    /// Campaign seed; all per-run seeds derive from it.
    pub seed: u64,
    /// Seeded runs per `(fault, level)` cell.
    pub runs_per_fault: u32,
    /// Closed-loop runs report `hung` after this many cycles without a
    /// data-valid response.
    pub watchdog_cycles: u64,
    /// Closed-loop runs complete after this many successful reads.
    pub target_reads: u32,
    /// Levels to drive.
    pub levels: Vec<Level>,
    /// Fault models to inject.
    pub faults: Vec<FaultModel>,
    /// Deep-state preamble: op cycles replayed into every run's DUT
    /// *and* golden from reset, before the scripted workload starts,
    /// so faults are exercised against a warmed model instead of an
    /// empty one. Script cycle numbering is untouched (the preamble
    /// runs "before cycle 0"), so activation windows and injection
    /// timing are identical with or without it. Ops must be
    /// protocol-legal full-word traffic — partial-byte writes are not
    /// representable at the ASM level the goldens include. Empty by
    /// default; the farm journals pin it through the plan fingerprint
    /// like every other campaign parameter.
    pub preamble: Vec<Vec<BankOp>>,
}

impl CampaignConfig {
    /// The default campaign at `banks` banks: all faults, all levels,
    /// 3 runs per cell, a simulation-sized 8-words-per-bank interface.
    pub fn new(banks: u32, seed: u64) -> CampaignConfig {
        CampaignConfig {
            la1: LaConfig {
                banks,
                words_per_bank: 8,
                word_width: 16,
                mc_addr_domain: vec![0, 1],
                mc_data_domain: vec![0, 0x5A5A],
                burst_len: 1,
            },
            seed,
            runs_per_fault: 3,
            watchdog_cycles: 24,
            target_reads: 6,
            levels: Level::ALL.to_vec(),
            faults: FaultModel::ALL.to_vec(),
            preamble: Vec::new(),
        }
    }

    /// Records a deep-state preamble in place: `cycles` of seeded
    /// full-word random traffic (write-heavy, so the banks actually
    /// fill). Full-word because the preamble replays into the ASM
    /// golden too, which abstracts byte lanes away.
    pub fn record_preamble(&mut self, seed: u64, cycles: u64) {
        let mut mix = RandomMix::full_word(&self.la1, seed, 0.25, 0.65);
        self.preamble = (0..cycles).map(|_| mix.next_cycle()).collect();
    }

    /// Adopts a recorded checkpoint [`Trace`] as the deep-state
    /// preamble — how a deep state reached elsewhere (say a staged
    /// closure preamble) becomes the starting point of a fault
    /// campaign. Only the op cycles are taken: a trace fingerprint
    /// pins one `(level, config)` pair, while the campaign replays
    /// the same ops into every level's DUT and golden.
    pub fn preamble_from_trace(&mut self, trace: &Trace) {
        self.preamble = trace.cycles.clone();
    }
}

/// The slice of a campaign one farm job runs.
///
/// A shard names the *global* indices into [`CampaignConfig::faults`]
/// it covers — per-run seeds are derived from those indices
/// ([`run_seed`]), so a shard reproduces exactly the runs the full
/// campaign would execute for its faults, and shard results union back
/// into the full matrix byte-for-byte ([`DetectionMatrix::merge`]).
/// Exactly one shard of a family should carry `healthy: true`: the
/// healthy-design closed-loop controls run once per campaign, not once
/// per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignShard {
    /// Indices into [`CampaignConfig::faults`] this shard runs.
    pub fault_indices: Vec<usize>,
    /// Whether this shard runs the healthy-design controls.
    pub healthy: bool,
}

impl CampaignShard {
    /// The whole campaign as one shard (what [`run_campaign`] uses).
    pub fn full(config: &CampaignConfig) -> CampaignShard {
        CampaignShard {
            fault_indices: (0..config.faults.len()).collect(),
            healthy: true,
        }
    }

    /// Splits the campaign into `shards` round-robin fault shards; the
    /// first carries the healthy controls. Fewer shards come back when
    /// there are fewer faults than requested.
    pub fn split(config: &CampaignConfig, shards: usize) -> Vec<CampaignShard> {
        let shards = shards.max(1).min(config.faults.len().max(1));
        (0..shards)
            .map(|s| CampaignShard {
                fault_indices: (s..config.faults.len()).step_by(shards).collect(),
                healthy: s == 0,
            })
            .collect()
    }

    pub(crate) fn includes(&self, fault_idx: usize) -> bool {
        self.fault_indices.contains(&fault_idx)
    }
}

/// Per-channel detection tally within one `(fault, level)` cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStat {
    /// Runs in which this channel detected the fault.
    pub detected: u32,
    /// Sum over detecting runs of (detection cycle − activation
    /// cycle); divide by `detected` for the mean latency.
    pub latency_sum: u64,
}

/// One `(fault, level)` cell of the detection matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Seeded runs executed for this cell.
    pub runs: u32,
    /// Runs that ended hung (no forward progress within the watchdog
    /// budget, or a guard-tripping panic mid-run in closed loop).
    pub hung: u32,
    /// Detection tally per channel name (ordered).
    pub monitors: BTreeMap<String, MonitorStat>,
}

impl CellStats {
    /// Whether any channel detected the fault in any run.
    pub fn detected(&self) -> bool {
        self.monitors.values().any(|m| m.detected > 0)
    }

    /// Whether an attached monitor (PSL/OVL — not the scoreboard,
    /// guard or watchdog harness channels) detected the fault.
    pub fn monitor_detected(&self) -> bool {
        self.monitors
            .iter()
            .any(|(name, m)| !is_harness_channel(name) && m.detected > 0)
    }
}

fn is_harness_channel(name: &str) -> bool {
    matches!(name, "scoreboard" | "guard" | "watchdog")
}

/// The campaign result: detection statistics per fault model, level
/// and channel, plus the healthy-design control runs and the
/// cross-level agreement report. Ordered maps keep rendering and JSON
/// byte-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionMatrix {
    /// Bank count of the campaign's interface.
    pub banks: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Seeded runs per cell.
    pub runs_per_fault: u32,
    /// `fault name → level name → cell`.
    pub cells: BTreeMap<String, BTreeMap<String, CellStats>>,
    /// Healthy-design closed-loop control per level: `true` when the
    /// run completed its target reads without tripping the watchdog.
    pub healthy: BTreeMap<String, bool>,
    /// Cross-level monitor disagreements: faults one level's attached
    /// monitors catch and another's miss.
    pub disagreements: Vec<String>,
}

impl DetectionMatrix {
    /// An empty matrix carrying the campaign's identity (banks, seed,
    /// runs-per-fault) and no results — the merge seed a fault-tolerant
    /// orchestrator starts from when every shard of a campaign failed,
    /// so a fully degraded run still renders a well-formed report.
    pub fn empty(config: &CampaignConfig) -> DetectionMatrix {
        DetectionMatrix {
            banks: config.la1.banks,
            seed: config.seed,
            runs_per_fault: config.runs_per_fault,
            cells: BTreeMap::new(),
            healthy: BTreeMap::new(),
            disagreements: Vec::new(),
        }
    }

    /// The cell for `(fault, level)`, if that pair was run.
    pub fn cell(&self, fault: FaultModel, level: Level) -> Option<&CellStats> {
        self.cells.get(fault.name())?.get(level.name())
    }

    fn cell_mut(&mut self, fault: FaultModel, level: Level) -> &mut CellStats {
        self.cells
            .entry(fault.name().to_string())
            .or_default()
            .entry(level.name().to_string())
            .or_default()
    }

    /// Whether `fault` was detected by at least one channel at `level`.
    pub fn detected_at(&self, fault: FaultModel, level: Level) -> bool {
        self.cell(fault, level).is_some_and(CellStats::detected)
    }

    /// Whether `fault` was detected on at least one of the levels run.
    pub fn detected_somewhere(&self, fault: FaultModel) -> bool {
        self.cells
            .get(fault.name())
            .is_some_and(|levels| levels.values().any(CellStats::detected))
    }

    /// Unions another shard's results into this matrix.
    ///
    /// The merge is a *cell-keyed set union*: every `(fault, level)`
    /// cell, and every per-level healthy verdict, is complete within
    /// the shard that produced it, so a key present on both sides must
    /// carry identical content (shards of one deterministic campaign
    /// always do) and is kept once. That makes the merge associative,
    /// commutative and idempotent, hence order- and
    /// worker-count-insensitive — the farm's determinism argument.
    /// Cross-level disagreements are recomputed from the merged cells.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices come from different campaigns (banks,
    /// seed or runs-per-fault differ) or if a shared cell disagrees —
    /// both are contract violations, not recoverable states.
    pub fn merge(&mut self, other: &DetectionMatrix) {
        assert_eq!(self.banks, other.banks, "merging different interfaces");
        assert_eq!(self.seed, other.seed, "merging different campaign seeds");
        assert_eq!(
            self.runs_per_fault, other.runs_per_fault,
            "merging different runs-per-fault settings"
        );
        for (fault, levels) in &other.cells {
            let mine = self.cells.entry(fault.clone()).or_default();
            for (level, cell) in levels {
                match mine.entry(level.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(cell.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(e) => {
                        assert_eq!(
                            e.get(),
                            cell,
                            "shards disagree on cell ({fault}, {level})"
                        );
                    }
                }
            }
        }
        for (level, ok) in &other.healthy {
            match self.healthy.entry(level.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(*ok);
                }
                std::collections::btree_map::Entry::Occupied(e) => {
                    assert_eq!(e.get(), ok, "shards disagree on healthy control at {level}");
                }
            }
        }
        self.disagreements = compute_disagreements(&self.cells);
    }

    /// Renders the matrix as the human-readable campaign report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fault-injection campaign: {} bank(s), seed {}, {} run(s) per cell\n",
            self.banks, self.seed, self.runs_per_fault
        ));
        out.push_str(&format!(
            "{:<24} {:<9} {:<6} {}\n",
            "fault", "level", "hung", "detected by (channel@mean-latency)"
        ));
        for (fault, levels) in &self.cells {
            for (level, cell) in levels {
                let channels = if cell.monitors.is_empty() {
                    "MISSED".to_string()
                } else {
                    cell.monitors
                        .iter()
                        .map(|(name, m)| {
                            format!(
                                "{name}@{:.1} ({}/{})",
                                m.latency_sum as f64 / m.detected.max(1) as f64,
                                m.detected,
                                cell.runs
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                out.push_str(&format!(
                    "{:<24} {:<9} {:<6} {}\n",
                    fault,
                    level,
                    format!("{}/{}", cell.hung, cell.runs),
                    channels
                ));
            }
        }
        out.push_str("healthy-design control (closed loop): ");
        let healthy = self
            .healthy
            .iter()
            .map(|(level, ok)| format!("{level}={}", if *ok { "ok" } else { "HUNG" }))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&healthy);
        out.push('\n');
        if self.disagreements.is_empty() {
            out.push_str("cross-level monitor agreement: all levels agree\n");
        } else {
            for d in &self.disagreements {
                out.push_str(&format!("cross-level disagreement: {d}\n"));
            }
        }
        out
    }

    /// The matrix as a JSON value: one row per (fault, level) cell in
    /// key order, no timing data.
    pub fn json(&self) -> Json {
        let mut rows = Vec::new();
        for (fault, levels) in &self.cells {
            for (level, cell) in levels {
                let monitors = cell.monitors.iter().map(|(name, m)| {
                    Json::obj([
                        ("monitor", Json::str(name)),
                        ("detected", Json::num(m.detected as u64)),
                        (
                            "mean_latency",
                            Json::fixed(m.latency_sum as f64 / m.detected.max(1) as f64, 1),
                        ),
                    ])
                });
                rows.push(Json::obj([
                    ("fault", Json::str(fault)),
                    ("level", Json::str(level)),
                    ("runs", Json::num(cell.runs as u64)),
                    ("hung", Json::num(cell.hung as u64)),
                    ("monitors", Json::Arr(monitors.collect())),
                ]));
            }
        }
        let healthy = self
            .healthy
            .iter()
            .map(|(level, ok)| Json::obj([("level", Json::str(level)), ("ok", Json::Bool(*ok))]));
        Json::obj([
            ("banks", Json::num(self.banks as u64)),
            ("seed", Json::num(self.seed)),
            ("runs_per_fault", Json::num(self.runs_per_fault as u64)),
            ("matrix", Json::Arr(rows)),
            ("healthy", Json::Arr(healthy.collect())),
            ("disagreements", Json::str_arr(&self.disagreements)),
        ])
    }

    /// Serializes the matrix as deterministic JSON, one cell per line:
    /// the same seed and config give byte-identical output.
    pub fn to_json(&self) -> String {
        self.json().render_pretty(Self::ROWS)
    }

    /// The arrays [`Self::to_json`] lays out one element per line.
    pub const ROWS: &'static [&'static str] = &["matrix"];
}

/// One model at one level, owning everything it simulates.
pub(crate) enum AnyModel {
    Asm(LaAsmModel),
    Sc(LaSystemC),
    Rtl(LaRtlDriver),
    RtlOvl(RtlWithOvl),
}

impl AnyModel {
    fn as_model(&mut self) -> &mut dyn CycleModel {
        match self {
            AnyModel::Asm(m) => m,
            AnyModel::Sc(m) => m,
            AnyModel::Rtl(m) => m,
            AnyModel::RtlOvl(m) => m,
        }
    }

    /// The model's pins, read-only.
    fn pins(&self) -> &dyn CycleModel {
        match self {
            AnyModel::Asm(m) => m,
            AnyModel::Sc(m) => m,
            AnyModel::Rtl(m) => m,
            AnyModel::RtlOvl(m) => m,
        }
    }

    /// Arms the four-state X injection on the write-data pins (RTL
    /// levels only; a no-op elsewhere).
    fn inject_x(&mut self) {
        match self {
            AnyModel::Rtl(m) => m.inject_x(XPin::WData),
            AnyModel::RtlOvl(m) => m.driver_mut().inject_x(XPin::WData),
            AnyModel::Asm(_) | AnyModel::Sc(_) => {}
        }
    }
}

/// Builds the faulted device under test for one run; a SystemC DUT
/// attaches `suite`, the level's PSL suite, parsed once per level.
pub(crate) fn build_dut(
    level: Level,
    cfg: &LaConfig,
    plan: Option<&FaultPlan>,
    suite: &[Directive],
) -> AnyModel {
    let parity_bank = plan
        .filter(|p| p.model == FaultModel::ParityFault)
        .map(|p| p.bank);
    match level {
        Level::Asm => AnyModel::Asm(LaAsmModel::new(cfg)),
        Level::SystemC => {
            let mut sc = LaSystemC::new(cfg);
            sc.attach_monitors(suite)
                .expect("the cycle-level suite reads only the model's signals");
            if let Some(bank) = parity_bank {
                sc.inject_parity_fault(bank);
            }
            AnyModel::Sc(sc)
        }
        Level::Rtl => AnyModel::Rtl(LaRtlDriver::new(&LaRtl::build(cfg, parity_bank))),
        Level::RtlOvl => AnyModel::RtlOvl(RtlWithOvl::new(&LaRtl::build(cfg, parity_bank))),
    }
}

/// Builds the healthy golden model the scoreboard compares against —
/// same level, no fault, no monitors (the RTL+OVL golden is the bare
/// driver: the scoreboard only reads pins).
pub(crate) fn build_golden(level: Level, cfg: &LaConfig) -> AnyModel {
    match level {
        Level::Asm => AnyModel::Asm(LaAsmModel::new(cfg)),
        Level::SystemC => AnyModel::Sc(LaSystemC::new(cfg)),
        Level::Rtl | Level::RtlOvl => {
            AnyModel::Rtl(LaRtlDriver::new(&LaRtl::build(cfg, None)))
        }
    }
}

thread_local! {
    /// Set while a guarded DUT cycle runs, so the process panic hook
    /// stays silent for expected protocol-assert trips.
    static GUARDING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics caught by the campaign's cycle guard and defers to the
/// previous hook for everything else.
pub(crate) fn install_guard_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDING.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Drives one DUT cycle under the panic guard; `true` means a protocol
/// assertion tripped.
pub(crate) fn guarded_cycle(dut: &mut AnyModel, ops: &[BankOp]) -> bool {
    GUARDING.with(|g| g.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| dut.as_model().cycle(ops)));
    GUARDING.with(|g| g.set(false));
    result.is_err()
}

/// The outcome of one seeded run.
pub(crate) struct RunResult {
    /// channel name → detection latency in cycles (first detection).
    pub(crate) detections: BTreeMap<String, u64>,
    /// Closed-loop run made no progress within the watchdog budget.
    pub(crate) hung: bool,
}

/// The open-loop stimulus: a priming phase writing a distinct word to
/// every `(bank, addr)` slot, a mixed phase with one random read and
/// one round-robin write per cycle (the round-robin write order means
/// no slot is overwritten before the sweep, so a single corrupted
/// write always reaches a read), a full read sweep, and a drain tail
/// long enough to flush deferred strobes and in-flight reads.
pub(crate) fn open_loop_script(cfg: &LaConfig, rng: &mut StdRng) -> Vec<Vec<BankOp>> {
    let words = cfg.words_per_bank;
    let slots = cfg.banks * words;
    let full_be = (1u32 << cfg.byte_enables()) - 1;
    let mut script: Vec<Vec<BankOp>> = (0..slots)
        .map(|slot| vec![prime_write(cfg, slot)])
        .collect();
    for i in 0..slots {
        let read = BankOp::read(
            rng.gen_range(0..cfg.banks),
            rng.gen_range(0..words) as u64,
        );
        let write = BankOp::write(i / words, (i % words) as u64, 0x1000 + i as u64, full_be);
        script.push(vec![read, write]);
    }
    for slot in 0..slots {
        script.push(vec![BankOp::read(slot / words, (slot % words) as u64)]);
    }
    for _ in 0..READ_LATENCY as u64 + 4 {
        script.push(Vec::new());
    }
    script
}

/// The priming write of `slot` (`bank * words_per_bank + addr`): a
/// distinct full word, so every later read returns real data.
pub(crate) fn prime_write(cfg: &LaConfig, slot: u32) -> BankOp {
    let words = cfg.words_per_bank;
    let full_be = (1u32 << cfg.byte_enables()) - 1;
    BankOp::write(
        slot / words,
        (slot % words) as u64,
        0x0100 + slot as u64,
        full_be,
    )
}

/// Records each `(channel, cycle)` monitor violation as a detection at
/// its latency after `activation`, keeping every channel's earliest.
pub(crate) fn note_violations(
    detections: &mut BTreeMap<String, u64>,
    violations: impl IntoIterator<Item = (String, u64)>,
    activation: u64,
) {
    for (name, cycle) in violations {
        let latency = cycle.saturating_sub(activation);
        detections
            .entry(name)
            .and_modify(|l| *l = (*l).min(latency))
            .or_insert(latency);
    }
}

/// Closed-loop run bounds: the earliest cycle a run whose fault
/// activates at `activation` may complete (never before the activation
/// window has passed and the fault had a chance to swallow a
/// post-activation read), and the hard cap on the run's length.
pub(crate) fn closed_loop_bounds(
    cfg: &LaConfig,
    activation: u64,
    watchdog_cycles: u64,
    target_reads: u32,
) -> (u64, u64) {
    let window = activation_window(cfg);
    let prime_len = (cfg.banks * cfg.words_per_bank) as u64;
    let min_cycles = window.1.max(activation + READ_LATENCY as u64 + 4);
    let hard_cap = prime_len
        + (window.1 - window.0)
        + (target_reads as u64 + 4) * (READ_LATENCY as u64 + 2)
        + 2 * watchdog_cycles
        + 16;
    (min_cycles, hard_cap)
}

/// Replays a campaign script through the transaction layer: a
/// [`ScriptSequence`] behind a [`Driver`]. The driver is built on the
/// base-LA-1 view of the configuration (burst length 1): campaign
/// scripts are *directed* stimulus whose exact cycle shape — including
/// deliberate LA-1B spacing violations on the RTL levels — is the
/// point, so only the structural one-read-one-write bus mapping
/// applies, and a legal script comes back verbatim.
pub(crate) fn replay_script(cfg: &LaConfig, script: Vec<Vec<BankOp>>) -> Vec<Vec<BankOp>> {
    let base = LaConfig {
        burst_len: 1,
        ..cfg.clone()
    };
    let total = script.len();
    let mut driver = Driver::new(&base);
    let mut seq = ScriptSequence::new(script);
    (0..total).map(|_| driver.cycle_from(&mut seq)).collect()
}

/// Derives the faulted stimulus of one open-loop run from the intended
/// cycles. Most faults are [`Injector`] transforms of the op stream;
/// the hostile double-read master is a transaction-level sequence
/// ([`HostileMasterSeq`]) riding the intended script behind its own
/// driver. Returns the injected cycles plus the cycle (if any) whose
/// write arms the one-shot X injection.
pub(crate) fn inject_stream(
    cfg: &LaConfig,
    plan: &FaultPlan,
    intended: &[Vec<BankOp>],
) -> (Vec<Vec<BankOp>>, Option<u64>) {
    if plan.model == FaultModel::HostileMaster {
        let base = LaConfig {
            burst_len: 1,
            ..cfg.clone()
        };
        let mut driver = Driver::new(&base);
        let mut seq = HostileMasterSeq::new(
            ScriptSequence::new(intended.to_vec()),
            plan.bank,
            plan.activation,
        );
        let injected = (0..intended.len())
            .map(|_| driver.cycle_from(&mut seq))
            .collect();
        return (injected, None);
    }
    let mut injector = Injector::new(plan.clone());
    let mut injected = Vec::with_capacity(intended.len());
    let mut x_cycle = None;
    for (i, ops) in intended.iter().enumerate() {
        let cycle = i as u64;
        let mut inj = ops.clone();
        injector.apply(cycle, cfg, &mut inj);
        if injector.x_due(cycle, &inj) {
            x_cycle = Some(cycle);
        }
        injected.push(inj);
    }
    (injected, x_cycle)
}

/// The activation-cycle sampling window: the mixed phase of the
/// open-loop script, where every cycle carries both a read and a write
/// (so every one-shot fault is guaranteed to arm).
pub(crate) fn activation_window(cfg: &LaConfig) -> (u64, u64) {
    let slots = (cfg.banks * cfg.words_per_bank) as u64;
    (slots, 2 * slots)
}

/// One open-loop run: faulted DUT vs healthy golden on the same
/// intended stimulus, monitors collected afterwards. The intended
/// cycles come off the transaction layer ([`replay_script`]) and the
/// faulted stimulus off [`inject_stream`].
pub(crate) fn open_loop_run(
    level: Level,
    cfg: &LaConfig,
    plan: FaultPlan,
    rng: &mut StdRng,
    preamble: &[Vec<BankOp>],
    suite: &[Directive],
) -> RunResult {
    let script = replay_script(cfg, open_loop_script(cfg, rng));
    let (injected_script, x_cycle) = inject_stream(cfg, &plan, &script);
    let mut golden = build_golden(level, cfg);
    let mut dut = build_dut(level, cfg, Some(&plan), suite);
    let mut detections: BTreeMap<String, u64> = BTreeMap::new();
    let activation = plan.activation;
    // deep-state preamble: both models advance through it from reset
    // (the DUT guarded — a structural fault may legitimately trip an
    // assertion on deep traffic), then the script starts at cycle 0
    // as if the preamble were part of reset.
    for ops in preamble {
        golden.as_model().cycle(ops);
        if guarded_cycle(&mut dut, ops) {
            detections.insert("guard".to_string(), 0);
            return RunResult {
                detections,
                hung: false,
            };
        }
    }
    for (i, intended) in script.iter().enumerate() {
        let cycle = i as u64;
        let injected = &injected_script[i];
        if x_cycle == Some(cycle) {
            dut.inject_x();
        }
        golden.as_model().cycle(intended);
        if guarded_cycle(&mut dut, injected) {
            detections.insert("guard".to_string(), cycle.saturating_sub(activation));
            break;
        }
        if !detections.contains_key("scoreboard") {
            let (dut, golden) = (dut.pins(), golden.pins());
            if (0..cfg.banks).any(|bank| pin_mismatch(golden, dut, bank).is_some()) {
                detections.insert("scoreboard".to_string(), cycle.saturating_sub(activation));
            }
        }
    }
    note_violations(&mut detections, dut.pins().violation_details(), activation);
    RunResult {
        detections,
        hung: false,
    }
}

/// One closed-loop run: the master issues a read whenever none is
/// outstanding and counts data-valid responses; `watchdog_cycles`
/// without progress declares the run hung. `plan == None` is the
/// healthy-design control.
pub(crate) fn closed_loop_run(
    level: Level,
    cfg: &LaConfig,
    plan: Option<FaultPlan>,
    watchdog_cycles: u64,
    target_reads: u32,
    preamble: &[Vec<BankOp>],
    suite: &[Directive],
) -> RunResult {
    let words = cfg.words_per_bank;
    let slots = cfg.banks * words;
    let mut dut = build_dut(level, cfg, plan.as_ref(), suite);
    let mut injector = plan.clone().map(Injector::new);
    let activation = plan.as_ref().map_or(0, |p| p.activation);
    let mut detections: BTreeMap<String, u64> = BTreeMap::new();
    let mut hung = false;

    // deep-state preamble, then priming every slot so reads return real
    // data (the closed loop's cycle numbering below counts the priming
    // but not the preamble, which is part of reset)
    let prime = (0..slots).map(|slot| vec![prime_write(cfg, slot)]);
    for ops in preamble.iter().cloned().chain(prime) {
        if guarded_cycle(&mut dut, &ops) {
            detections.insert("guard".to_string(), 0);
            return RunResult {
                detections,
                hung: true,
            };
        }
    }

    let prime_len = slots as u64;
    let (min_cycles, hard_cap) = closed_loop_bounds(cfg, activation, watchdog_cycles, target_reads);
    let mut completed = 0u32;
    let mut last_progress = prime_len;
    let mut outstanding = false;
    let mut counter: u32 = 0;
    for cycle in prime_len..hard_cap {
        let mut ops = Vec::new();
        if !outstanding {
            let slot = counter % slots;
            counter += 1;
            ops.push(BankOp::read(slot / words, (slot % words) as u64));
            outstanding = true;
        }
        if let Some(injector) = &mut injector {
            injector.apply(cycle, cfg, &mut ops);
        }
        if guarded_cycle(&mut dut, &ops) {
            detections.insert("guard".to_string(), cycle.saturating_sub(activation));
            hung = true;
            break;
        }
        if (0..cfg.banks).any(|b| dut.pins().bank_output(b).is_some()) {
            completed += 1;
            outstanding = false;
            last_progress = cycle;
            if completed >= target_reads && cycle >= min_cycles {
                break;
            }
        }
        if cycle - last_progress >= watchdog_cycles {
            detections.insert("watchdog".to_string(), cycle.saturating_sub(activation));
            hung = true;
            break;
        }
    }
    if completed < target_reads && !hung {
        // the hard cap ran out without the watchdog firing: still no
        // forward progress to the target — report it as hung
        detections.insert("watchdog".to_string(), hard_cap.saturating_sub(activation));
        hung = true;
    }
    note_violations(&mut detections, dut.pins().violation_details(), activation);
    RunResult { detections, hung }
}

/// Derives the per-run seed from the campaign seed and the run's
/// coordinates (splitmix-style finalizer keeps neighboring runs
/// decorrelated).
pub(crate) fn run_seed(base: u64, fault_idx: usize, level_idx: usize, run: u32) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + fault_idx as u64))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + level_idx as u64))
        .wrapping_add(0x94D0_49BB_1331_11EBu64.wrapping_mul(1 + run as u64));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z
}

/// Runs the full campaign: every configured fault on every supporting
/// level, `runs_per_fault` seeded runs each, plus one healthy-design
/// closed-loop control per level, and the cross-level monitor
/// agreement check.
pub fn run_campaign(config: &CampaignConfig) -> DetectionMatrix {
    run_campaign_shard(config, &CampaignShard::full(config))
}

/// Runs one shard of the campaign with the scalar engines: only the
/// shard's fault indices (with their *global* per-run seeds), and the
/// healthy controls only when the shard carries them. The union of a
/// disjoint shard family's matrices ([`DetectionMatrix::merge`])
/// reproduces [`run_campaign`] byte-for-byte.
pub fn run_campaign_shard(config: &CampaignConfig, shard: &CampaignShard) -> DetectionMatrix {
    assemble_matrix(config, shard, |level, level_idx| {
        scalar_level(config, shard, level, level_idx)
    })
}

/// One level's results: every run in `(fault, run)` order, plus the
/// healthy-design control verdict when the shard carries the controls.
pub(crate) type LevelRuns = (Vec<(FaultModel, RunResult)>, Option<bool>);

/// The shard's runs at one level, each with its fault plan and its
/// per-run RNG (advanced past the plan draw), derived from the run's
/// global coordinates — what every runner executes.
pub(crate) fn planned_runs<'a>(
    config: &'a CampaignConfig,
    shard: &'a CampaignShard,
    level: Level,
    level_idx: usize,
) -> impl Iterator<Item = (FaultModel, FaultPlan, StdRng)> + 'a {
    let cfg = &config.la1;
    config
        .faults
        .iter()
        .enumerate()
        .filter(move |&(fault_idx, &fault)| shard.includes(fault_idx) && supports(fault, level))
        .flat_map(move |(fault_idx, &fault)| {
            (0..config.runs_per_fault).map(move |run| {
                let seed = run_seed(config.seed, fault_idx, level_idx, run);
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = FaultPlan::sample(fault, cfg, activation_window(cfg), &mut rng);
                (fault, plan, rng)
            })
        })
}

/// Runs one level of the shard on the scalar models.
pub(crate) fn scalar_level(
    config: &CampaignConfig,
    shard: &CampaignShard,
    level: Level,
    level_idx: usize,
) -> LevelRuns {
    let cfg = &config.la1;
    let suite = cycle_properties_for(cfg);
    let closed = |plan| {
        closed_loop_run(
            level,
            cfg,
            plan,
            config.watchdog_cycles,
            config.target_reads,
            &config.preamble,
            &suite,
        )
    };
    let runs = planned_runs(config, shard, level, level_idx)
        .map(|(fault, plan, mut rng)| {
            let result = if fault.closed_loop() {
                closed(Some(plan))
            } else {
                open_loop_run(level, cfg, plan, &mut rng, &config.preamble, &suite)
            };
            (fault, result)
        })
        .collect();
    (runs, shard.healthy.then(|| !closed(None).hung))
}

/// Tallies the shard's per-level results into its matrix: one cell per
/// supported `(fault, level)` pair, each run counted once per channel
/// that detected it. `run_level` runs one level (the scalar or the
/// batched engines); levels run in configuration order.
pub(crate) fn assemble_matrix(
    config: &CampaignConfig,
    shard: &CampaignShard,
    mut run_level: impl FnMut(Level, usize) -> LevelRuns,
) -> DetectionMatrix {
    install_guard_hook();
    let mut matrix = DetectionMatrix::empty(config);
    for (level_idx, &level) in config.levels.iter().enumerate() {
        for (fault_idx, &fault) in config.faults.iter().enumerate() {
            if shard.includes(fault_idx) && supports(fault, level) {
                matrix.cell_mut(fault, level);
            }
        }
        let (runs, healthy) = run_level(level, level_idx);
        for (fault, result) in runs {
            let cell = matrix.cell_mut(fault, level);
            cell.runs += 1;
            cell.hung += u32::from(result.hung);
            for (channel, latency) in result.detections {
                let stat = cell.monitors.entry(channel).or_default();
                stat.detected += 1;
                stat.latency_sum += latency;
            }
        }
        if let Some(ok) = healthy {
            matrix.healthy.insert(level.name().to_string(), ok);
        }
    }
    matrix.disagreements = compute_disagreements(&matrix.cells);
    matrix
}

/// Cross-level monitor agreement: the monitored levels (PSL at
/// SystemC, OVL at RTL) should catch the same faults.
pub(crate) fn compute_disagreements(
    cells: &BTreeMap<String, BTreeMap<String, CellStats>>,
) -> Vec<String> {
    let mut disagreements = Vec::new();
    for (fault, levels) in cells {
        let monitored: Vec<(&String, bool)> = levels
            .iter()
            .filter(|(name, _)| name.as_str() == "systemc" || name.as_str() == "rtl+ovl")
            .map(|(name, cell)| (name, cell.monitor_detected()))
            .collect();
        if monitored.len() < 2 {
            continue;
        }
        let caught: Vec<&str> = monitored
            .iter()
            .filter(|(_, d)| *d)
            .map(|(n, _)| n.as_str())
            .collect();
        if !caught.is_empty() && caught.len() < monitored.len() {
            let missed: Vec<&str> = monitored
                .iter()
                .filter(|(_, d)| !*d)
                .map(|(n, _)| n.as_str())
                .collect();
            disagreements.push(format!(
                "{fault}: monitors caught it at [{}] but missed it at [{}]",
                caught.join(", "),
                missed.join(", ")
            ));
        }
    }
    disagreements
}
