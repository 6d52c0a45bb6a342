//! Workspace-level integration tests: exercises spanning several crates
//! at once, as a downstream user of `la1-suite` would.

use la1_suite::asm::{ExploreConfig, Explorer};
use la1_suite::core::asm_model::LaAsmModel;
use la1_suite::core::cycle_model::co_execute;
use la1_suite::core::harness::{run_rtl_ovl, run_systemc_abv};
use la1_suite::core::properties::{cycle_properties, rtl_read_mode_property};
use la1_suite::core::refine::run_flow;
use la1_suite::core::rtl_model::{LaRtl, LaRtlDriver};
use la1_suite::core::sc_model::LaSystemC;
use la1_suite::core::spec::{BankOp, LaConfig};
use la1_suite::core::workloads::{RandomMix, Workload};
use la1_suite::psl::parse_directive;
use la1_suite::smc::{ModelChecker, SmcConfig, SmcOutcome};

fn small_cfg(banks: u32) -> LaConfig {
    LaConfig {
        banks,
        words_per_bank: 4,
        word_width: 16,
        mc_addr_domain: vec![0, 1],
        mc_data_domain: vec![0, 0x5A5A],
        burst_len: 1,
    }
}

/// The full design & verification flow passes end-to-end on a 1-bank
/// device — the headline integration check.
#[test]
fn figure2_flow_end_to_end() {
    // the flow's RTL stage runs the symbolic checker, so use the
    // model-checking geometry throughout
    let report = run_flow(
        &LaConfig::mc_small(1),
        ExploreConfig {
            max_states: 15_000,
            ..ExploreConfig::default()
        },
        SmcConfig::default(),
    );
    assert!(report.all_passed(), "{}", report.render());
}

/// A property verified at the ASM level still holds when re-verified at
/// the RTL level (the paper's refinement-correctness argument): the
/// read-mode behaviour survives two refinement steps.
#[test]
fn refinement_preserves_read_mode() {
    // the symbolic checker runs on the model-checking geometry
    let cfg = LaConfig::mc_small(1);
    // ASM level: cycle-sampled read latency
    let model = LaAsmModel::new(&cfg);
    let asm_prop =
        parse_directive("assert read_latency : always {rd0} |=> next dv0").unwrap();
    let r = Explorer::new(model.machine(), ExploreConfig::default())
        .with_directives(&[asm_prop])
        .run();
    assert!(r.all_pass(), "{:?}", r.reports);
    // RTL level: edge-sampled read mode via the symbolic checker
    let rtl = LaRtl::build(&cfg, None);
    let ts = rtl.extract();
    let report = ModelChecker::new(&ts, SmcConfig::default())
        .check(&rtl_read_mode_property())
        .unwrap();
    assert!(matches!(report.outcome, SmcOutcome::Proved));
}

/// An injected parity bug is caught by two verification paths: the SMC
/// proof fails on the broken RTL, and the SystemC monitors fire on the
/// equivalent SystemC fault (`la1-core` tests the OVL path).
#[test]
fn fault_injection_caught_everywhere() {
    // (a) symbolic model checking on the model-checking geometry
    let cfg = LaConfig::mc_small(1);
    let bad_rtl = LaRtl::build(&cfg, Some(0));
    let ts = bad_rtl.extract();
    let d = parse_directive("assert parity : always !perr_0").unwrap();
    let r = ModelChecker::new(&ts, SmcConfig::default()).check(&d).unwrap();
    assert!(matches!(r.outcome, SmcOutcome::Violated(_)));
    // (b) SystemC monitors
    let mut sc = LaSystemC::new(&cfg);
    sc.attach_monitors(&cycle_properties(1)).unwrap();
    sc.inject_parity_fault(0);
    sc.cycle(&[BankOp::write(0, 0, 0x0101, 0b11)]);
    for _ in 0..4 {
        sc.cycle(&[BankOp::read(0, 0)]);
    }
    sc.cycle(&[]);
    sc.cycle(&[]);
    assert!(sc.violations().iter().any(|v| v.property == "parity_0"));
}

/// The ASM and SystemC models conform on longer random stimulus than
/// the in-crate tests use.
#[test]
fn long_conformance_run() {
    let cfg = small_cfg(2);
    let mut asm = LaAsmModel::new(&cfg);
    let mut sc = LaSystemC::new(&cfg);
    let mut mix = RandomMix::full_word(&cfg, 31337, 0.5, 0.5);
    co_execute(cfg.banks, &mut [&mut asm, &mut sc], &mut mix, 450).expect("levels agree");
}

/// SystemC and RTL produce identical outputs under byte-masked writes
/// (which the ASM level abstracts away).
#[test]
fn byte_enable_equivalence_sc_rtl() {
    let cfg = LaConfig::new(2);
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    let mut w = RandomMix::new(&cfg, 2024, 0.5, 0.7);
    for cycle in 0..150 {
        let ops = w.next_cycle();
        sc.cycle(&ops);
        drv.cycle(&ops);
        for b in 0..cfg.banks {
            assert_eq!(
                sc.bank_output(b),
                drv.bank_output(b),
                "cycle {cycle} bank {b}"
            );
        }
    }
}

/// Table 3's direction holds even in a debug-build smoke test: the
/// compiled SystemC flow is faster per cycle than the interpreted
/// RTL+OVL flow. One timed run of each is at the mercy of a busy host,
/// so the two flows alternate for 7 rounds and the medians of their
/// per-cycle times are compared.
#[test]
fn systemc_outpaces_rtl_ovl() {
    const ROUNDS: usize = 7;
    let cfg = LaConfig::new(2);
    let (mut sc, mut ovl) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut w1 = RandomMix::new(&cfg, 5, 0.6, 0.4);
        let run = run_systemc_abv(&cfg, &mut w1, 400);
        assert_eq!(run.violations, 0);
        sc.push(run.time_per_cycle());
        let mut w2 = RandomMix::new(&cfg, 5, 0.6, 0.4);
        let run = run_rtl_ovl(&cfg, &mut w2, 100);
        assert_eq!(run.violations, 0);
        ovl.push(run.time_per_cycle());
    }
    sc.sort_unstable();
    ovl.sort_unstable();
    let (sc, ovl) = (sc[ROUNDS / 2], ovl[ROUNDS / 2]);
    assert!(ovl > sc, "median rtl+ovl {ovl:?}/cycle vs sc {sc:?}/cycle");
}
