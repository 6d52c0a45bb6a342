//! The measurement loops behind the paper's experiments.
//!
//! * [`run_abv`] — the one measurement loop over any
//!   [`CycleModel`]: both Table 3 columns are thin wrappers around it;
//! * [`run_systemc_abv`] — Table 3 left column: the SystemC model with
//!   compiled PSL monitors attached;
//! * [`run_rtl_ovl`] — Table 3 right column: the interpreted RTL with
//!   OVL monitor modules loaded into the simulated design;
//! * [`asm_model_check`] — Table 1 rows;
//! * [`rulebase_read_mode`] — Table 2 rows.

use crate::asm_model::LaAsmModel;
use crate::cycle_model::{co_execute_observed, CycleModel, CycleObserver, RtlWithOvl};
use crate::properties::rtl_read_mode_property;
use crate::rtl_model::LaRtl;
use crate::sc_model::LaSystemC;
use crate::spec::LaConfig;
use crate::workloads::Workload;
use la1_asm::{ExploreConfig, ExploreResult};
use la1_ovl::{OvlBench, Severity};
use la1_rtl::Expr;
use la1_smc::{ModelChecker, SmcConfig, SmcReport};
use std::time::{Duration, Instant};

/// Result of a simulation-based ABV run.
#[derive(Debug, Clone)]
pub struct AbvRunStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Assertion violations observed (0 on a healthy design).
    pub violations: usize,
}

impl AbvRunStats {
    /// Average wall-clock time per simulated cycle.
    pub fn time_per_cycle(&self) -> Duration {
        if self.cycles == 0 {
            Duration::ZERO
        } else {
            // in u128 nanoseconds: a `u32` divisor wraps at 2^32 cycles;
            // the quotient's whole seconds fit `elapsed`'s `u64`
            let ns = self.elapsed.as_nanos() / u128::from(self.cycles);
            Duration::new((ns / 1_000_000_000) as u64, (ns % 1_000_000_000) as u32)
        }
    }
}

/// Runs any [`CycleModel`] for `cycles` cycles of `workload` under the
/// wall clock — the one measurement loop behind both Table 3 columns.
pub fn run_abv<M, W>(model: &mut M, workload: &mut W, cycles: u64) -> AbvRunStats
where
    M: CycleModel,
    W: Workload + ?Sized,
{
    run_abv_observed(model, workload, cycles, &mut ())
}

/// [`run_abv`] with a passive [`CycleObserver`] sampling the model
/// after every cycle — the hook coverage collection attaches through.
/// `&mut ()` is the no-op observer. The cycles run through
/// [`co_execute_observed`] with the model alone.
pub fn run_abv_observed<W>(
    model: &mut dyn CycleModel,
    workload: &mut W,
    cycles: u64,
    observer: &mut dyn CycleObserver,
) -> AbvRunStats
where
    W: Workload + ?Sized,
{
    let start = Instant::now();
    // no bank is compared: a lone model has no peer to diverge from
    co_execute_observed(0, &mut [&mut *model], workload, cycles, &mut [observer])
        .expect("a lone model cannot diverge");
    AbvRunStats {
        cycles,
        elapsed: start.elapsed(),
        violations: model.violation_count(),
    }
}

/// Runs the SystemC-level model for `cycles` cycles of `workload` with
/// the full cycle-level monitor suite attached (Table 3, δ_SC).
pub fn run_systemc_abv<W: Workload>(
    config: &LaConfig,
    workload: &mut W,
    cycles: u64,
) -> AbvRunStats {
    let mut la1 = LaSystemC::new(config);
    la1.attach_default_monitors();
    run_abv(&mut la1, workload, cycles)
}

/// Attaches the OVL equivalents of the cycle-level property suite to an
/// RTL bench: each instance is a module loaded into the simulated
/// design, exactly the cost structure the paper measures.
pub fn attach_la1_ovl(bench: &mut OvlBench, rtl: &LaRtl) {
    let nets = rtl.nets();
    let burst = rtl.config().is_burst();
    for b in 0..rtl.config().banks as usize {
        // read latency: rd_v1 -> dv two cycles later
        bench.assert_next(
            format!("ovl_read_latency_{b}"),
            Severity::Error,
            Expr::net(nets.rd_v1[b]),
            Expr::net(nets.dv[b]),
            2,
        );
        if burst {
            // LA-1B: the second beat follows one cycle later
            bench.assert_next(
                format!("ovl_burst_beat_{b}"),
                Severity::Error,
                Expr::net(nets.rd_v1[b]),
                Expr::net(nets.dv[b]),
                3,
            );
        }
        // no data valid without a read in the preceding window
        let mut seq = vec![Expr::not(Expr::net(nets.rd_v1[b]))];
        if burst {
            seq.push(Expr::not(Expr::net(nets.rd_v1[b])));
        }
        seq.push(Expr::bit(true));
        seq.push(Expr::not(Expr::net(nets.dv[b])));
        bench.assert_cycle_sequence(
            format!("ovl_no_spurious_dv_{b}"),
            Severity::Error,
            seq,
        );
        // parity never fires
        bench.assert_never(
            format!("ovl_parity_{b}"),
            Severity::Error,
            Expr::net(nets.perr[b]),
        );
        // write commit: wr_v0 (set at the falling edge of the accept
        // cycle) and wdone (set at the next rising edge) are visible at
        // the same rising-edge sample, so the OVL form is a same-cycle
        // implication
        bench.assert_implication(
            format!("ovl_write_commit_{b}"),
            Severity::Error,
            Expr::net(nets.wr_v0[b]),
            Expr::net(nets.wdone[b]),
        );
    }
    if rtl.config().banks > 1 {
        let dv_vec = Expr::Concat(nets.dv.iter().map(|&d| Expr::net(d)).collect());
        bench.assert_zero_one_hot("ovl_dv_onehot", Severity::Error, dv_vec);
    }
    // end-to-end bus integrity: whenever any bank drives, the data plus
    // its even byte parity must contain an even number of ones
    let any_dv = nets
        .dv
        .iter()
        .fold(Expr::bit(false), |acc, &d| Expr::or(acc, Expr::net(d)));
    bench.assert_even_parity(
        "ovl_bus_parity",
        Severity::Error,
        any_dv,
        Expr::Concat(vec![Expr::net(nets.dq), Expr::net(nets.dq_par)]),
    );
}

/// Runs the interpreted RTL with OVL monitors for `cycles` cycles of
/// `workload` (Table 3, δ_OVL). Monitors are sampled at each rising
/// edge of `K`.
pub fn run_rtl_ovl<W: Workload>(config: &LaConfig, workload: &mut W, cycles: u64) -> AbvRunStats {
    let mut model = RtlWithOvl::new(&LaRtl::build(config, None));
    run_abv(&mut model, workload, cycles)
}

/// Runs the ASM-level model checking of the full property suite —
/// one Table 1 row.
pub fn asm_model_check(config: &LaConfig, explore: ExploreConfig) -> ExploreResult {
    LaAsmModel::new(config).model_check(explore)
}

/// Runs the RuleBase-style symbolic model checking of the read-mode
/// property — one Table 2 row.
///
/// # Errors
///
/// Propagates [`la1_smc::UnsupportedPropertyError`] (does not occur for
/// the built-in read-mode property).
pub fn rulebase_read_mode(
    config: &LaConfig,
    smc: SmcConfig,
) -> Result<SmcReport, la1_smc::UnsupportedPropertyError> {
    let rtl = LaRtl::build(config, None);
    let ts = rtl.extract();
    ModelChecker::new(&ts, smc).check(&rtl_read_mode_property())
}
