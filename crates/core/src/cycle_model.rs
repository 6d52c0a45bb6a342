//! One cycle-level execution interface across the executable levels.
//!
//! The paper runs the same stimulus through three executable artefacts —
//! the ASM model's *light Verilog-like simulator* (Fig. 4), the SystemC
//! model, and the interpreted RTL — and compares what each level's pins
//! show. [`CycleModel`] captures that shared contract: drive one full
//! protocol cycle, sample the bank outputs and write-done flags, and
//! collect the attached monitors' verdicts. [`co_execute`] runs any set
//! of implementors in lockstep on one stimulus and reports the first
//! disagreement; the cross-level tests use it. The refinement flow's
//! conformance step is `la1_asm::conformance_check` over `StepSystem`
//! instead, and the fault campaign has its own open- and closed-loop
//! runners.
//!
//! | implementor | level |
//! |---|---|
//! | [`LaAsmModel`](crate::asm_model::LaAsmModel) | ASM (full-word writes only) |
//! | [`LaSystemC`] | SystemC + compiled PSL monitors |
//! | [`LaRtlDriver`] | interpreted RTL, no monitors |
//! | [`RtlWithOvl`] | interpreted RTL + OVL monitor modules |
//! | [`LaneModel`] | one lane of an [`LaDriver`], observation only |
//!
//! The OVL monitors attach through the netlist's net-id arena (each
//! probe is an [`la1_rtl::Expr`] over [`la1_rtl::NetId`]s), so loading a
//! monitor never clones design state — it reads the same value slots the
//! compiled simulator evaluates into.

use crate::harness::attach_la1_ovl;
use crate::rtl_model::{LaDriver, LaRtl, LaRtlDriver, LaneSim, RtlDriverSnap};
use crate::sc_model::LaSystemC;
use crate::spec::BankOp;
use crate::workloads::Workload;
use la1_ovl::{OvlBench, OvlSnap};
use la1_rtl::BatchedRtlSim;
use std::fmt;

/// A cycle-accurate executable model of the LA-1 interface.
///
/// All levels share the protocol: at most one read and one write per
/// cycle (single address bus), read latency of
/// [`crate::spec::READ_LATENCY`] cycles, single-cycle write commit.
pub trait CycleModel {
    /// Short name of the refinement level, for reports.
    fn level(&self) -> &'static str;

    /// Drives one full clock cycle with the given operations.
    ///
    /// # Panics
    ///
    /// Panics if more than one read or write is supplied, or a bank or
    /// address is out of range (every level enforces the bus protocol).
    fn cycle(&mut self, ops: &[BankOp]);

    /// The word a bank produced in the last completed cycle, if its
    /// data-valid flag was set.
    fn bank_output(&self, bank: u32) -> Option<u64>;

    /// Whether the bank's write-done flag is set after the last cycle.
    fn write_done(&self, bank: u32) -> bool;

    /// Monitor violations recorded so far (0 for levels running without
    /// attached monitors).
    fn violation_count(&self) -> usize;

    /// Completed cycles.
    fn cycles(&self) -> u64;

    /// The recorded violations as `(monitor name, cycle)` pairs —
    /// the per-monitor detail behind [`CycleModel::violation_count`].
    /// Levels without attached monitors report none.
    fn violation_details(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Whether the bank's parity checker flags an error after the last
    /// cycle. Levels abstracting the parity path away (the ASM model)
    /// report `false`. Takes `&mut self` because the interpreted RTL
    /// samples the net lazily through its simulator.
    fn parity_error(&mut self, _bank: u32) -> bool {
        false
    }
}

/// A passive per-cycle observer attached to a [`CycleModel`] run:
/// called after every completed cycle with the operations that were
/// driven and the model whose pins to sample. Observation-only — an
/// observer reads pins (`bank_output`, `write_done`, `parity_error`)
/// and must not drive the model.
///
/// The unit type `()` is the no-op observer the plain loops use.
pub trait CycleObserver {
    /// Called once per completed cycle, after the model stepped.
    fn observe(&mut self, ops: &[BankOp], model: &mut dyn CycleModel);
}

impl CycleObserver for () {
    fn observe(&mut self, _ops: &[BankOp], _model: &mut dyn CycleModel) {}
}

impl CycleModel for LaSystemC {
    fn level(&self) -> &'static str {
        "systemc"
    }
    fn cycle(&mut self, ops: &[BankOp]) {
        LaSystemC::cycle(self, ops);
    }
    fn bank_output(&self, bank: u32) -> Option<u64> {
        LaSystemC::bank_output(self, bank)
    }
    fn write_done(&self, bank: u32) -> bool {
        LaSystemC::write_done(self, bank)
    }
    fn violation_count(&self) -> usize {
        self.violations().len()
    }
    fn cycles(&self) -> u64 {
        LaSystemC::cycles(self)
    }
    fn violation_details(&self) -> Vec<(String, u64)> {
        self.violations()
            .iter()
            .map(|v| (v.property.clone(), v.cycle))
            .collect()
    }
    fn parity_error(&mut self, bank: u32) -> bool {
        LaSystemC::parity_error(self, bank)
    }
}

impl CycleModel for LaRtlDriver {
    fn level(&self) -> &'static str {
        "rtl"
    }
    fn cycle(&mut self, ops: &[BankOp]) {
        LaRtlDriver::cycle(self, ops);
    }
    fn bank_output(&self, bank: u32) -> Option<u64> {
        LaRtlDriver::bank_output(self, bank)
    }
    fn write_done(&self, bank: u32) -> bool {
        LaRtlDriver::write_done(self, bank)
    }
    fn violation_count(&self) -> usize {
        0
    }
    fn cycles(&self) -> u64 {
        LaRtlDriver::cycles(self)
    }
    fn parity_error(&mut self, bank: u32) -> bool {
        LaRtlDriver::parity_error(self, bank)
    }
}

/// The interpreted RTL with the full OVL monitor suite loaded into the
/// simulated design — the Table 3 right column as one [`CycleModel`].
#[derive(Debug)]
pub struct RtlWithOvl {
    driver: LaRtlDriver,
    bench: OvlBench,
}

impl RtlWithOvl {
    /// Builds the driver and attaches the LA-1 OVL suite
    /// ([`attach_la1_ovl`]) to it.
    pub fn new(design: &LaRtl) -> Self {
        let mut bench = OvlBench::new();
        attach_la1_ovl(&mut bench, design);
        RtlWithOvl {
            driver: LaRtlDriver::new(design),
            bench,
        }
    }

    /// The underlying OVL bench (violation details, per-monitor report).
    pub fn bench(&self) -> &OvlBench {
        &self.bench
    }

    /// The underlying RTL driver.
    pub fn driver(&self) -> &LaRtlDriver {
        &self.driver
    }

    /// Mutable access to the underlying RTL driver (fault-injection
    /// hooks such as [`LaRtlDriver::inject_x`]).
    pub fn driver_mut(&mut self) -> &mut LaRtlDriver {
        &mut self.driver
    }

    /// Captures driver and OVL-bench state together at a protocol-cycle
    /// boundary.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as
    /// [`LaRtlDriver::snapshot_state`].
    pub fn snapshot_state(&self) -> Result<RtlOvlSnap, String> {
        Ok(RtlOvlSnap {
            driver: self.driver.snapshot_state()?,
            bench: self.bench.snapshot(),
        })
    }

    /// Installs a snapshot into a freshly built model over the same
    /// design (the OVL suite re-attaches identically, so the bench
    /// lines up by construction).
    ///
    /// # Errors
    ///
    /// Fails if the driver or bench state does not match this design.
    pub fn restore_state(&mut self, snap: &RtlOvlSnap) -> Result<(), String> {
        self.driver.restore_state(&snap.driver)?;
        self.bench.restore_state(&snap.bench)
    }
}

/// A plain-data snapshot of an [`RtlWithOvl`] model: the RTL driver
/// state plus the OVL bench's obligation windows and violation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlOvlSnap {
    /// The interpreted-RTL driver state.
    pub driver: RtlDriverSnap,
    /// The OVL bench state.
    pub bench: OvlSnap,
}

impl CycleModel for RtlWithOvl {
    fn level(&self) -> &'static str {
        "rtl+ovl"
    }
    fn cycle(&mut self, ops: &[BankOp]) {
        let bench = &mut self.bench;
        self.driver.cycle_with(ops, |sim| {
            bench.on_cycle(sim);
        });
    }
    fn bank_output(&self, bank: u32) -> Option<u64> {
        self.driver.bank_output(bank)
    }
    fn write_done(&self, bank: u32) -> bool {
        self.driver.write_done(bank)
    }
    fn violation_count(&self) -> usize {
        self.bench.violations().len()
    }
    fn cycles(&self) -> u64 {
        self.driver.cycles()
    }
    fn violation_details(&self) -> Vec<(String, u64)> {
        self.bench
            .violations()
            .iter()
            .map(|v| (v.monitor.clone(), v.cycle))
            .collect()
    }
    fn parity_error(&mut self, bank: u32) -> bool {
        self.driver.parity_error(bank)
    }
}

/// An observation-only [`CycleModel`] view of one lane of an
/// [`LaDriver`] — lets per-model observers (coverage collectors,
/// scoreboards) sample a lane through the same interface they use on
/// the scalar levels.
///
/// The driver steps all its lanes together, so this view cannot drive
/// cycles itself: [`CycleModel::cycle`] panics. Use it only after
/// [`LaDriver::cycle_lanes`] for pin sampling.
pub struct LaneModel<'a, S: LaneSim> {
    driver: &'a mut LaDriver<S>,
    lane: usize,
}

/// A [`LaneModel`] over the 64-lane
/// [`LaRtlBatchDriver`](crate::rtl_model::LaRtlBatchDriver).
pub type BatchLaneModel<'a> = LaneModel<'a, BatchedRtlSim>;

impl<'a, S: LaneSim> LaneModel<'a, S> {
    /// Borrows one lane of the driver as a passive model view.
    pub fn new(driver: &'a mut LaDriver<S>, lane: usize) -> Self {
        LaneModel { driver, lane }
    }
}

impl<S: LaneSim> CycleModel for LaneModel<'_, S> {
    fn level(&self) -> &'static str {
        "rtl"
    }
    fn cycle(&mut self, _ops: &[BankOp]) {
        unreachable!("LaneModel is observation-only; drive LaDriver::cycle_lanes instead")
    }
    fn bank_output(&self, bank: u32) -> Option<u64> {
        self.driver.lane_output(self.lane, bank)
    }
    fn write_done(&self, bank: u32) -> bool {
        self.driver.lane_write_done(self.lane, bank)
    }
    fn violation_count(&self) -> usize {
        0
    }
    fn cycles(&self) -> u64 {
        self.driver.cycles()
    }
    fn parity_error(&mut self, bank: u32) -> bool {
        self.driver.lane_parity_error(self.lane, bank)
    }
}

/// A cross-level disagreement found by [`co_execute`].
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Cycle index at which the levels disagreed (0-based).
    pub cycle: u64,
    /// The bank whose pins disagreed.
    pub bank: u32,
    /// The reference level (first model).
    pub reference: &'static str,
    /// The disagreeing level.
    pub level: &'static str,
    /// What disagreed, rendered.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {} bank {}: {} disagrees with {}: {}",
            self.cycle, self.bank, self.level, self.reference, self.detail
        )
    }
}

impl std::error::Error for Divergence {}

/// Co-executes several levels on the same stimulus, comparing the
/// sampled pins after every cycle; the first model is the reference.
///
/// Returns the first [`Divergence`], or `Ok(())` when all levels agree
/// on every cycle — the generic form of the paper's conformance test
/// (and, run against a deliberately faulted design, of the scoreboard
/// that exposes injected bugs).
///
/// # Errors
///
/// Returns the first cross-level disagreement in bank output or
/// write-done state.
pub fn co_execute<W: Workload + ?Sized>(
    banks: u32,
    models: &mut [&mut dyn CycleModel],
    workload: &mut W,
    cycles: u64,
) -> Result<(), Divergence> {
    co_execute_observed(banks, models, workload, cycles, &mut [])
}

/// [`co_execute`] with passive per-model observers attached: after each
/// cycle, `observers[i]` (when present) samples `models[i]`, then the
/// levels are compared as usual. Pass fewer observers than models (or
/// none) to observe a prefix only — coverage collection typically
/// attaches one observer per level to score them all on one stimulus.
///
/// # Errors
///
/// Returns the first cross-level disagreement in bank output or
/// write-done state.
pub fn co_execute_observed<W: Workload + ?Sized>(
    banks: u32,
    models: &mut [&mut dyn CycleModel],
    workload: &mut W,
    cycles: u64,
    observers: &mut [&mut dyn CycleObserver],
) -> Result<(), Divergence> {
    for cycle in 0..cycles {
        let ops = workload.next_cycle();
        for m in models.iter_mut() {
            m.cycle(&ops);
        }
        for (obs, m) in observers.iter_mut().zip(models.iter_mut()) {
            obs.observe(&ops, &mut **m);
        }
        let (reference, rest) = models.split_first().expect("at least one model");
        for bank in 0..banks {
            let want_out = reference.bank_output(bank);
            let want_done = reference.write_done(bank);
            for m in rest.iter() {
                if m.bank_output(bank) != want_out {
                    return Err(Divergence {
                        cycle,
                        bank,
                        reference: reference.level(),
                        level: m.level(),
                        detail: format!(
                            "output {:?} vs {:?}",
                            m.bank_output(bank),
                            want_out
                        ),
                    });
                }
                if m.write_done(bank) != want_done {
                    return Err(Divergence {
                        cycle,
                        bank,
                        reference: reference.level(),
                        level: m.level(),
                        detail: format!(
                            "write_done {} vs {}",
                            m.write_done(bank),
                            want_done
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}
