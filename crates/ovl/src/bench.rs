//! The bench: monitor instances attached to a simulated design.

use crate::monitors::{MonitorKind, MonitorState, OvlDynState, Sample};
use la1_rtl::{Expr, LogicVec, ProbePass, Probed, RtlSim, Value};
use std::fmt;

/// OVL severity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// Informational.
    Note,
    /// Minor problem.
    Warning,
    /// Major problem (OVL default).
    #[default]
    Error,
    /// Simulation should stop.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Fatal => "fatal",
        };
        f.write_str(s)
    }
}

/// A recorded assertion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvlViolation {
    /// Monitor instance name.
    pub monitor: String,
    /// Which OVL module fired.
    pub kind: MonitorKind,
    /// Sampled cycle index (bench-local).
    pub cycle: u64,
    /// Failure severity.
    pub severity: Severity,
    /// The message string (OVL's `msg` parameter plus detail).
    pub message: String,
}

impl fmt::Display for OvlViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({}) at cycle {}: {}",
            self.severity,
            self.monitor,
            self.kind.ovl_name(),
            self.cycle,
            self.message
        )
    }
}

struct Instance {
    name: String,
    severity: Severity,
    state: MonitorState,
    /// fired count (monitors keep reporting, like OVL's default)
    failures: u64,
}

/// A set of OVL-style assertion monitors sampled once per call to
/// [`OvlBench::on_cycle`].
///
/// The host drives the design clock itself and calls `on_cycle` at the
/// sampling instant (the LA-1 harness samples on rising `K`). See the
/// crate docs for an example.
///
/// The bench lists the distinct expressions its monitors read once
/// ([`OvlBench::exprs`]); each instance holds indices into that list.
/// A sample evaluates the list in one compiled probe pass
/// ([`la1_rtl::Sim::probe_pass`]) and steps every monitor from it.
#[derive(Default)]
pub struct OvlBench {
    instances: Vec<Instance>,
    /// the distinct expressions the instances read
    exprs: Vec<Expr>,
    /// [`OvlBench::on_cycle`]'s pass over `exprs`, compiled on first use
    pass: Option<ProbePass<LogicVec>>,
    violations: Vec<OvlViolation>,
    cycles: u64,
    /// stop requests from Fatal monitors
    fatal: bool,
}

impl fmt::Debug for OvlBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OvlBench")
            .field("monitors", &self.instances.len())
            .field("violations", &self.violations.len())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl OvlBench {
    /// Creates an empty bench.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of `e` in the bench's expression list, listed on first
    /// use.
    fn expr(&mut self, e: Expr) -> u32 {
        let i = self.exprs.iter().position(|x| *x == e).unwrap_or_else(|| {
            self.exprs.push(e);
            self.pass = None; // the list grew: recompile on next use
            self.exprs.len() - 1
        });
        i as u32
    }

    fn attach(&mut self, name: impl Into<String>, severity: Severity, state: MonitorState) {
        self.instances.push(Instance {
            name: name.into(),
            severity,
            state,
            failures: 0,
        });
    }

    /// `assert_always`: `test` holds every sampled cycle.
    pub fn assert_always(&mut self, name: impl Into<String>, severity: Severity, test: Expr) {
        let state = MonitorState::Simple {
            kind: MonitorKind::Always,
            test: self.expr(test),
        };
        self.attach(name, severity, state);
    }

    /// `assert_never`: `test` never holds.
    pub fn assert_never(&mut self, name: impl Into<String>, severity: Severity, test: Expr) {
        let state = MonitorState::Simple {
            kind: MonitorKind::Never,
            test: self.expr(test),
        };
        self.attach(name, severity, state);
    }

    /// `assert_proposition`: like `assert_always` (sampled with the
    /// others in this implementation).
    pub fn assert_proposition(&mut self, name: impl Into<String>, severity: Severity, test: Expr) {
        let state = MonitorState::Simple {
            kind: MonitorKind::Proposition,
            test: self.expr(test),
        };
        self.attach(name, severity, state);
    }

    /// `assert_implication`: `antecedent -> consequent`, same cycle.
    pub fn assert_implication(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        antecedent: Expr,
        consequent: Expr,
    ) {
        let state = MonitorState::Implication {
            antecedent: self.expr(antecedent),
            consequent: self.expr(consequent),
        };
        self.attach(name, severity, state);
    }

    /// `assert_next`: `num_cks` cycles after `start`, `test` holds.
    ///
    /// # Panics
    ///
    /// Panics if `num_cks` is zero (use `assert_implication`).
    pub fn assert_next(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        start: Expr,
        test: Expr,
        num_cks: u32,
    ) {
        assert!(num_cks > 0, "assert_next requires num_cks >= 1");
        let state = MonitorState::Next {
            start: self.expr(start),
            test: self.expr(test),
            num_cks,
            pending: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_cycle_sequence`: whenever `events[..n-1]` hold on
    /// consecutive cycles, `events[n-1]` must hold on the cycle after.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two events.
    pub fn assert_cycle_sequence(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        events: Vec<Expr>,
    ) {
        assert!(events.len() >= 2, "assert_cycle_sequence needs >= 2 events");
        let state = MonitorState::CycleSequence {
            events: events.into_iter().map(|e| self.expr(e)).collect(),
            active: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_frame`: after `start`, `test` must hold at some cycle in
    /// `[min_cks, max_cks]` (and not before `min_cks`).
    ///
    /// # Panics
    ///
    /// Panics if `min_cks > max_cks`.
    pub fn assert_frame(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        start: Expr,
        test: Expr,
        min_cks: u32,
        max_cks: u32,
    ) {
        assert!(min_cks <= max_cks, "assert_frame requires min <= max");
        let state = MonitorState::Frame {
            start: self.expr(start),
            test: self.expr(test),
            min_cks,
            max_cks,
            pending: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_change`: `test` changes value within `num_cks` of `start`.
    pub fn assert_change(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        start: Expr,
        test: Expr,
        num_cks: u32,
    ) {
        assert!(num_cks > 0, "assert_change requires num_cks >= 1");
        let state = MonitorState::ChangeLike {
            kind: MonitorKind::Change,
            start: self.expr(start),
            test: self.expr(test),
            num_cks,
            pending: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_unchange`: `test` keeps its value for `num_cks` after
    /// `start`.
    pub fn assert_unchange(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        start: Expr,
        test: Expr,
        num_cks: u32,
    ) {
        assert!(num_cks > 0, "assert_unchange requires num_cks >= 1");
        let state = MonitorState::ChangeLike {
            kind: MonitorKind::Unchange,
            start: self.expr(start),
            test: self.expr(test),
            num_cks,
            pending: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_one_hot`: exactly one bit of `test` is set.
    pub fn assert_one_hot(&mut self, name: impl Into<String>, severity: Severity, test: Expr) {
        let state = MonitorState::VectorCheck {
            kind: MonitorKind::OneHot,
            test: self.expr(test),
        };
        self.attach(name, severity, state);
    }

    /// `assert_zero_one_hot`: at most one bit of `test` is set.
    pub fn assert_zero_one_hot(&mut self, name: impl Into<String>, severity: Severity, test: Expr) {
        let state = MonitorState::VectorCheck {
            kind: MonitorKind::ZeroOneHot,
            test: self.expr(test),
        };
        self.attach(name, severity, state);
    }

    /// `assert_range`: the value of `test` lies in `[min, max]`.
    pub fn assert_range(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        test: Expr,
        min: u64,
        max: u64,
    ) {
        let test = self.expr(test);
        self.attach(name, severity, MonitorState::Range { test, min, max });
    }

    /// `assert_time`: after `start`, `test` holds for `num_cks`
    /// consecutive cycles.
    pub fn assert_time(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        start: Expr,
        test: Expr,
        num_cks: u32,
    ) {
        assert!(num_cks > 0, "assert_time requires num_cks >= 1");
        let state = MonitorState::Time {
            start: self.expr(start),
            test: self.expr(test),
            num_cks,
            pending: Vec::new(),
        };
        self.attach(name, severity, state);
    }

    /// `assert_even_parity`: whenever `valid` holds, the vector `test`
    /// (data bits plus parity bits) contains an even number of ones —
    /// the LA-1 data-path integrity check.
    pub fn assert_even_parity(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        valid: Expr,
        test: Expr,
    ) {
        let (valid, test) = (self.expr(valid), self.expr(test));
        self.attach(name, severity, MonitorState::EvenParity { valid, test });
    }

    /// `assert_width`: every high pulse of `test` lasts between
    /// `min_cks` and `max_cks` sampled cycles.
    ///
    /// # Panics
    ///
    /// Panics if `min_cks > max_cks` or `min_cks` is zero.
    pub fn assert_width(
        &mut self,
        name: impl Into<String>,
        severity: Severity,
        test: Expr,
        min_cks: u32,
        max_cks: u32,
    ) {
        assert!(min_cks >= 1 && min_cks <= max_cks, "assert_width bounds");
        let state = MonitorState::Width {
            test: self.expr(test),
            min_cks,
            max_cks,
            high_for: None,
        };
        self.attach(name, severity, state);
    }

    /// Number of attached monitor instances (each one is a module in
    /// the simulated design, per the paper's observation).
    pub fn num_monitors(&self) -> usize {
        self.instances.len()
    }

    /// The distinct expressions the monitors read, in first-attach
    /// order: what a probe pass for [`OvlBench::on_cycle_from`] compiles.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Samples every monitor once against the simulator's current state,
    /// through the bench's own probe pass, compiled against `sim`'s
    /// netlist on first use.
    ///
    /// Returns the number of violations recorded this cycle.
    pub fn on_cycle(&mut self, sim: &RtlSim) -> usize {
        let mut pass = self
            .pass
            .take()
            .unwrap_or_else(|| sim.probe_pass(&self.exprs));
        let fired = self.on_cycle_from(&sim.run_probes(&mut pass), 0);
        self.pass = Some(pass);
        fired
    }

    /// Samples every monitor once from lane `lane` of a probe pass over
    /// [`OvlBench::exprs`] — one pass serves every lane of a batched
    /// simulator, each lane's bench stepping from it.
    ///
    /// Returns the number of violations recorded this cycle.
    pub fn on_cycle_from<V: Value>(&mut self, probed: &Probed<'_, V>, lane: usize) -> usize {
        let sample = Sample { probed, lane };
        let cycle = self.cycles;
        self.cycles += 1;
        let mut fired = 0;
        for inst in &mut self.instances {
            if let Err(detail) = inst.state.sample(&sample) {
                inst.failures += 1;
                fired += 1;
                if inst.severity >= Severity::Fatal {
                    self.fatal = true;
                }
                self.violations.push(OvlViolation {
                    monitor: inst.name.clone(),
                    kind: inst.state.kind(),
                    cycle,
                    severity: inst.severity,
                    message: detail,
                });
            }
        }
        fired
    }

    /// Sampled cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// All recorded violations, in order.
    pub fn violations(&self) -> &[OvlViolation] {
        &self.violations
    }

    /// True once a [`Severity::Fatal`] monitor fired — the host should
    /// stop the simulation.
    pub fn fatal_fired(&self) -> bool {
        self.fatal
    }

    /// A per-monitor failure-count report, in attach order.
    pub fn report(&self) -> Vec<(String, MonitorKind, u64)> {
        self.instances
            .iter()
            .map(|i| (i.name.clone(), i.state.kind(), i.failures))
            .collect()
    }

    /// Captures the bench's dynamic state: per-instance obligation
    /// windows and failure counts, plus the recorded violations and the
    /// sampled-cycle counter.
    ///
    /// The monitor *wiring* (expressions, bounds, severities) is not
    /// captured — the host reconstructs the bench with the same attach
    /// calls and then applies the snapshot with
    /// [`OvlBench::restore_state`].
    pub fn snapshot(&self) -> OvlSnap {
        OvlSnap {
            instances: self
                .instances
                .iter()
                .map(|i| OvlInstanceSnap {
                    name: i.name.clone(),
                    kind: i.state.kind(),
                    failures: i.failures,
                    dyn_state: i.state.dyn_state(),
                })
                .collect(),
            violations: self.violations.clone(),
            cycles: self.cycles,
            fatal: self.fatal,
        }
    }

    /// Installs a snapshot taken from an identically constructed bench
    /// (same monitors, attached in the same order). Fails — leaving the
    /// bench partially updated only in its per-instance fields, none of
    /// which a caller should rely on after an error — if the instance
    /// list does not line up or a dynamic payload does not fit its
    /// monitor.
    pub fn restore_state(&mut self, snap: &OvlSnap) -> Result<(), String> {
        if self.instances.len() != snap.instances.len() {
            return Err(format!(
                "snapshot has {} monitors, bench has {}",
                snap.instances.len(),
                self.instances.len()
            ));
        }
        for (inst, is) in self.instances.iter_mut().zip(&snap.instances) {
            if inst.name != is.name || inst.state.kind() != is.kind {
                return Err(format!(
                    "monitor mismatch: bench has {} ({}), snapshot has {} ({})",
                    inst.name,
                    inst.state.kind().ovl_name(),
                    is.name,
                    is.kind.ovl_name()
                ));
            }
            inst.state.apply_dyn_state(&is.dyn_state)?;
            inst.failures = is.failures;
        }
        self.violations = snap.violations.clone();
        self.cycles = snap.cycles;
        self.fatal = snap.fatal;
        Ok(())
    }
}

/// Snapshot of one monitor instance: identity (for validation), the
/// failure count and the dynamic obligation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvlInstanceSnap {
    /// Instance name, matched against the rebuilt bench.
    pub name: String,
    /// Monitor kind, matched against the rebuilt bench.
    pub kind: MonitorKind,
    /// Violations this instance has fired so far.
    pub failures: u64,
    /// Obligation windows / sequence threads / pulse length.
    pub dyn_state: OvlDynState,
}

/// A plain-data snapshot of an [`OvlBench`], taken with
/// [`OvlBench::snapshot`] and applied with [`OvlBench::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvlSnap {
    /// Per-instance state, in attach order.
    pub instances: Vec<OvlInstanceSnap>,
    /// Violations recorded so far.
    pub violations: Vec<OvlViolation>,
    /// Sampled cycles so far.
    pub cycles: u64,
    /// Whether a fatal monitor has fired.
    pub fatal: bool,
}
