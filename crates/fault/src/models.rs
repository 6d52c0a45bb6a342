//! Parameterized fault models and their deterministic per-run plans.
//!
//! A [`FaultModel`] names *what kind* of defect is injected; a
//! [`FaultPlan`] fixes *where and when* for one run — bank, bit index
//! and activation cycle are all sampled up front from the run's seeded
//! RNG, so a run is a pure function of `(seed, config)` and two runs
//! with the same seed are byte-identical. The [`Injector`] applies the
//! stimulus-side faults as a transform on the intended per-cycle
//! operation list; device-internal faults (parity generation, X
//! injection) are flagged here and wired into the model by the
//! campaign runner.

use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::{SeqContext, SequenceItem, Sequencer};
use rand::rngs::StdRng;
use rand::Rng;

/// The built-in library of fault models the campaign engine injects.
///
/// Stimulus faults corrupt the operation stream a master drives into
/// the interface (strobes dropped, duplicated or stuck, address/data
/// bits flipped, hostile double-reads); device faults corrupt the
/// design under test itself (wrong parity generation, an X driven onto
/// an input pin mid-write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// R# stuck at 0: every read strobe from the activation cycle on is
    /// lost. Only progress monitoring (the closed-loop watchdog) can
    /// see this — nothing illegal ever appears on the pins.
    StuckAt0ReadSel,
    /// R# stuck at 1: a read strobe appears on every otherwise idle
    /// cycle from the activation cycle on.
    StuckAt1ReadSel,
    /// W# stuck at 0: every write strobe from the activation cycle on
    /// is lost.
    StuckAt0WriteSel,
    /// Transient single-cycle flip of one address bit on the first read
    /// at/after the activation cycle.
    AddrBitFlip,
    /// Transient single-cycle flip of one data bit on the first write
    /// at/after the activation cycle.
    DataBitFlip,
    /// Device-internal parity-generation fault on one bank, active from
    /// cycle 0 (a manufacturing-style defect, not a transient).
    ParityFault,
    /// The first read strobe at/after the activation cycle is dropped.
    DropReadStrobe,
    /// The first write strobe at/after the activation cycle is dropped.
    DropWriteStrobe,
    /// The first read strobe at/after the activation cycle is replayed
    /// on the next cycle that has a free read slot.
    DuplicateReadStrobe,
    /// The write-data input pins are driven to X for one full cycle on
    /// the first write at/after the activation cycle (RTL four-state
    /// levels only).
    XInjectWData,
    /// A hostile master issues two read strobes in the same cycle at
    /// the activation cycle — a protocol violation every level rejects
    /// by assertion, caught by the panic guard.
    HostileMaster,
}

impl FaultModel {
    /// Every built-in fault model, in matrix row order.
    pub const ALL: [FaultModel; 11] = [
        FaultModel::StuckAt0ReadSel,
        FaultModel::StuckAt1ReadSel,
        FaultModel::StuckAt0WriteSel,
        FaultModel::AddrBitFlip,
        FaultModel::DataBitFlip,
        FaultModel::ParityFault,
        FaultModel::DropReadStrobe,
        FaultModel::DropWriteStrobe,
        FaultModel::DuplicateReadStrobe,
        FaultModel::XInjectWData,
        FaultModel::HostileMaster,
    ];

    /// Stable snake_case name used in the detection matrix and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::StuckAt0ReadSel => "stuck_at_0_read_sel",
            FaultModel::StuckAt1ReadSel => "stuck_at_1_read_sel",
            FaultModel::StuckAt0WriteSel => "stuck_at_0_write_sel",
            FaultModel::AddrBitFlip => "addr_bit_flip",
            FaultModel::DataBitFlip => "data_bit_flip",
            FaultModel::ParityFault => "parity_fault",
            FaultModel::DropReadStrobe => "drop_read_strobe",
            FaultModel::DropWriteStrobe => "drop_write_strobe",
            FaultModel::DuplicateReadStrobe => "duplicate_read_strobe",
            FaultModel::XInjectWData => "x_inject_wdata",
            FaultModel::HostileMaster => "hostile_master",
        }
    }

    /// Whether the fault lives in the device rather than the stimulus
    /// (the campaign wires these into the model instead of the op
    /// stream).
    pub fn is_device_fault(self) -> bool {
        matches!(self, FaultModel::ParityFault | FaultModel::XInjectWData)
    }

    /// Whether detection needs a closed-loop run (progress watchdog)
    /// instead of the open-loop scoreboard run.
    pub fn closed_loop(self) -> bool {
        matches!(self, FaultModel::StuckAt0ReadSel)
    }
}

/// The concrete per-run parameters of one injected fault, sampled from
/// the run's seeded RNG before the run starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault model being injected.
    pub model: FaultModel,
    /// First cycle at/after which the fault is active or armed.
    pub activation: u64,
    /// Bank parameter (faulted bank for parity, forced-read target).
    pub bank: u32,
    /// Bit index parameter (address/data flips).
    pub bit: u32,
}

impl FaultPlan {
    /// Samples a plan for `model` with the activation cycle drawn from
    /// `window` (half-open). All sampling happens here, up front, so
    /// the injection itself consumes no randomness.
    pub fn sample(
        model: FaultModel,
        cfg: &LaConfig,
        window: (u64, u64),
        rng: &mut StdRng,
    ) -> FaultPlan {
        let activation = if model == FaultModel::ParityFault {
            // a manufacturing defect is present from power-on
            0
        } else {
            rng.gen_range(window.0..window.1)
        };
        FaultPlan {
            model,
            activation,
            bank: rng.gen_range(0..cfg.banks),
            bit: match model {
                FaultModel::AddrBitFlip => rng.gen_range(0..cfg.addr_bits()),
                FaultModel::DataBitFlip => rng.gen_range(0..cfg.word_width),
                _ => 0,
            },
        }
    }
}

/// Applies a [`FaultPlan`] to the intended operation stream, cycle by
/// cycle. One-shot faults arm at the plan's activation cycle and fire
/// on the first matching operation; persistent faults stay active from
/// the activation cycle on.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    /// one-shot faults that already fired
    fired: bool,
    /// pending strobe replay for [`FaultModel::DuplicateReadStrobe`]
    replay: Option<BankOp>,
    /// address counter for forced reads
    forced: u64,
}

impl Injector {
    /// A fresh injector for one run.
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            fired: false,
            replay: None,
            forced: 0,
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Transforms the intended operations for `cycle` in place.
    /// Returns `true` when the fault changed the stimulus this cycle.
    pub fn apply(&mut self, cycle: u64, cfg: &LaConfig, ops: &mut Vec<BankOp>) -> bool {
        let active = cycle >= self.plan.activation;
        match self.plan.model {
            FaultModel::StuckAt0ReadSel => {
                let before = ops.len();
                if active {
                    ops.retain(|op| !matches!(op, BankOp::Read { .. }));
                }
                ops.len() != before
            }
            FaultModel::StuckAt1ReadSel => {
                if active && !ops.iter().any(|op| matches!(op, BankOp::Read { .. })) {
                    let addr = self.forced % cfg.words_per_bank as u64;
                    self.forced += 1;
                    ops.push(BankOp::read(self.plan.bank, addr));
                    return true;
                }
                false
            }
            FaultModel::StuckAt0WriteSel => {
                let before = ops.len();
                if active {
                    ops.retain(|op| !matches!(op, BankOp::Write { .. }));
                }
                ops.len() != before
            }
            FaultModel::AddrBitFlip => {
                if active && !self.fired {
                    if let Some(BankOp::Read { addr, .. }) =
                        ops.iter_mut().find(|op| matches!(op, BankOp::Read { .. }))
                    {
                        let flipped = *addr ^ (1 << self.plan.bit);
                        // addr_bits covers words_per_bank, but guard
                        // non-power-of-two depths against the protocol
                        // range assert — the flip must stay a legal
                        // (merely wrong) address
                        *addr = if flipped < cfg.words_per_bank as u64 {
                            flipped
                        } else {
                            *addr ^ 1
                        };
                        self.fired = true;
                        return true;
                    }
                }
                false
            }
            FaultModel::DataBitFlip => {
                if active && !self.fired {
                    if let Some(BankOp::Write { data, .. }) =
                        ops.iter_mut().find(|op| matches!(op, BankOp::Write { .. }))
                    {
                        *data ^= 1 << self.plan.bit;
                        self.fired = true;
                        return true;
                    }
                }
                false
            }
            FaultModel::DropReadStrobe => {
                if active && !self.fired {
                    if let Some(pos) = ops.iter().position(|op| matches!(op, BankOp::Read { .. })) {
                        ops.remove(pos);
                        self.fired = true;
                        return true;
                    }
                }
                false
            }
            FaultModel::DropWriteStrobe => {
                if active && !self.fired {
                    if let Some(pos) = ops.iter().position(|op| matches!(op, BankOp::Write { .. }))
                    {
                        ops.remove(pos);
                        self.fired = true;
                        return true;
                    }
                }
                false
            }
            FaultModel::DuplicateReadStrobe => {
                if let Some(replay) = self.replay {
                    // the duplicated strobe waits for a cycle with a
                    // free read slot — the protocol allows only one
                    if !ops.iter().any(|op| matches!(op, BankOp::Read { .. })) {
                        ops.push(replay);
                        self.replay = None;
                        return true;
                    }
                    return false;
                }
                if active && !self.fired {
                    if let Some(op) = ops
                        .iter()
                        .find(|op| matches!(op, BankOp::Read { .. }))
                        .copied()
                    {
                        self.replay = Some(op);
                        self.fired = true;
                    }
                }
                false
            }
            // device faults do not transform the op stream; the
            // hostile master lives at transaction level now — see
            // [`HostileMasterSeq`]
            FaultModel::HostileMaster | FaultModel::ParityFault | FaultModel::XInjectWData => false,
        }
    }

    /// For [`FaultModel::XInjectWData`]: whether the X should be driven
    /// during this cycle (first write at/after activation). Consumes
    /// the one-shot arm.
    pub fn x_due(&mut self, cycle: u64, ops: &[BankOp]) -> bool {
        if self.plan.model == FaultModel::XInjectWData
            && cycle >= self.plan.activation
            && !self.fired
            && ops.iter().any(|op| matches!(op, BankOp::Write { .. }))
        {
            self.fired = true;
            return true;
        }
        false
    }
}

/// The [`FaultModel::HostileMaster`] fault expressed at transaction
/// level: a sequencer wrapper riding an inner sequence that, at the
/// activation cycle, bypasses the driver's legality gate with a
/// [`SequenceItem::Raw`] double read — two read strobes on the single
/// time-multiplexed address bus, the protocol violation every level
/// rejects by assertion.
#[derive(Debug)]
pub struct HostileMasterSeq<S: Sequencer> {
    inner: S,
    bank: u32,
    activation: u64,
    fired: bool,
    /// reads the inner sequence emitted since the current cycle began
    reads_this_cycle: u32,
}

impl<S: Sequencer> HostileMasterSeq<S> {
    /// Wraps `inner`, attacking `bank` at cycle `activation`.
    pub fn new(inner: S, bank: u32, activation: u64) -> HostileMasterSeq<S> {
        HostileMasterSeq {
            inner,
            bank,
            activation,
            fired: false,
            reads_this_cycle: 0,
        }
    }
}

impl<S: Sequencer> Sequencer for HostileMasterSeq<S> {
    fn next_item(&mut self, ctx: &SeqContext) -> SequenceItem {
        let item = self.inner.next_item(ctx);
        match item {
            SequenceItem::Idle if !self.fired && ctx.cycle >= self.activation => {
                // end of the inner master's cycle: append the hostile
                // strobes so the cycle carries at least two reads
                self.fired = true;
                let mut ops = vec![BankOp::read(self.bank, 0)];
                if self.reads_this_cycle + 1 < 2 {
                    ops.push(BankOp::read(self.bank, 1));
                }
                self.reads_this_cycle = 0;
                SequenceItem::Raw(ops)
            }
            SequenceItem::Idle => {
                self.reads_this_cycle = 0;
                item
            }
            SequenceItem::Read { .. } | SequenceItem::Burst { .. } => {
                self.reads_this_cycle += 1;
                item
            }
            other => other,
        }
    }
}
