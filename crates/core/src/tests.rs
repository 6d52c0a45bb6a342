//! Unit and integration tests for the LA-1 core: every level must obey
//! the same protocol, and the verification machinery must both pass on
//! the healthy design and catch injected faults.

use crate::asm_model::LaAsmModel;
use crate::cycle_model::{co_execute, CycleModel, CycleObserver, RtlWithOvl};
use crate::harness::{attach_la1_ovl, run_rtl_ovl, run_systemc_abv, AbvRunStats};
use crate::properties::{cycle_properties, rtl_properties, rtl_read_mode_property};
use crate::refine::run_flow;
use crate::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use crate::sc_model::LaSystemC;
use crate::spec::*;
use crate::uml::*;
use crate::workloads::{PacketLookup, RandomMix, ReadBurst, Workload};
use la1_asm::{CheckOutcome, ExploreConfig};
use la1_ovl::OvlBench;
use la1_rtl::LANES;
use la1_smc::{ModelChecker, SmcConfig, SmcOutcome};

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

// ---- spec -------------------------------------------------------------------

#[test]
fn spec_halves_and_masks() {
    let cfg = LaConfig::new(1);
    assert_eq!(cfg.half_width(), 16);
    assert_eq!(cfg.low_half(0xAAAA_BBBB), 0xBBBB);
    assert_eq!(cfg.high_half(0xAAAA_BBBB), 0xAAAA);
    assert_eq!(cfg.mask_word(0xFFFF_FFFF_FFFF), 0xFFFF_FFFF);
    assert_eq!(cfg.byte_enables(), 4);
    assert_eq!(cfg.bit_mask_of(0b0011), 0x0000_FFFF);
    assert_eq!(cfg.bit_mask_of(0b1000), 0xFF00_0000);
}

#[test]
fn spec_even_parity() {
    assert!(!even_parity(0, 8));
    assert!(even_parity(1, 8));
    assert!(!even_parity(0b11, 8));
    // per-byte parity of a 16-bit half: low byte 0x03 (2 ones -> 0),
    // high byte 0x01 (1 one -> 1)
    let p = byte_parity(0x0103, 16);
    assert_eq!(p, 0b10);
}

#[test]
fn spec_pin_inventory_matches_figure1() {
    let cfg = LaConfig::new(4);
    let pins = cfg.pins();
    let names: Vec<&str> = pins.iter().map(|p| p.name.as_str()).collect();
    assert!(names.contains(&"K"));
    assert!(names.contains(&"K#"));
    assert!(names.contains(&"SA"));
    assert!(names.contains(&"R0#"));
    assert!(names.contains(&"W3#"));
    let d = pins.iter().find(|p| p.name == "D").unwrap();
    assert_eq!(d.width, DATA_PINS); // the 18-pin DDR path
    let q = pins.iter().find(|p| p.name == "Q").unwrap();
    assert_eq!(q.width, 18);
    assert_eq!(q.dir, PinDir::SlaveOut);
}

#[test]
fn spec_bank_bits() {
    assert_eq!(bank_bits(1), 0);
    assert_eq!(bank_bits(2), 1);
    assert_eq!(bank_bits(4), 2);
    assert_eq!(bank_bits(8), 3);
}

// ---- uml --------------------------------------------------------------------

#[test]
fn uml_renders() {
    let cd = la1_class_diagram();
    let txt = cd.render();
    for c in ["WritePort", "ReadPort", "SramMemory", "SimManager"] {
        assert!(txt.contains(c), "{txt}");
    }
    let sd = read_mode_sequence();
    let txt = sd.render();
    assert!(txt.contains("OnReadRequest[0]()@K"));
    assert!(txt.contains("OnReadRequest[2]()@K#"));
}

#[test]
fn uml_sequence_check_detects_deviation() {
    let sd = read_mode_sequence();
    let mut trace: Vec<ObservedMessage> = sd
        .messages
        .iter()
        .map(|m| ObservedMessage {
            from: m.from.to_string(),
            to: m.to.to_string(),
            method: m.method.to_string(),
            cycle: m.cycle,
            clock: m.clock,
        })
        .collect();
    assert!(sd.check(&trace).is_ok());
    trace[1].cycle = 3; // SRAM access too late
    let err = sd.check(&trace).unwrap_err();
    assert_eq!(err.at, 1);
}

// ---- SystemC model ------------------------------------------------------------

#[test]
fn sc_read_returns_written_word() {
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::write(0, 5, 0xDEAD_BEEF, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 5)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), Some(0xDEAD_BEEF));
    assert!(!la1.parity_error(0));
}

#[test]
fn sc_read_latency_is_two_cycles() {
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::write(0, 1, 0x1234_5678, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 1)]); // issued cycle 1
    assert_eq!(la1.bank_output(0), None);
    la1.cycle(&[]); // cycle 2
    assert_eq!(la1.bank_output(0), None);
    la1.cycle(&[]); // cycle 3: dv for the read of cycle 1
    assert_eq!(la1.bank_output(0), Some(0x1234_5678));
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), None, "dv is a single-cycle pulse");
}

#[test]
fn sc_byte_write_control() {
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::write(0, 2, 0xFFFF_FFFF, 0b1111)]);
    la1.cycle(&[]); // allow the commit
    la1.cycle(&[BankOp::write(0, 2, 0x0000_0000, 0b0001)]); // clear byte 0 only
    la1.cycle(&[BankOp::read(0, 2)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), Some(0xFFFF_FF00));
}

#[test]
fn sc_concurrent_read_write_same_bank() {
    // a headline LA-1 feature: read and write in the same cycle
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::write(0, 0, 0xAAAA_AAAA, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 0), BankOp::write(0, 0, 0x5555_5555, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 0)]);
    la1.cycle(&[]);
    // the cycle-1 read observes the *concurrent* cycle-1 write: the
    // single-cycle write commit lands before the two-cycle read pipeline
    // samples the array (all three levels share this ordering)
    assert_eq!(la1.bank_output(0), Some(0x5555_5555));
    la1.cycle(&[]);
    // the cycle-2 read also observes it
    assert_eq!(la1.bank_output(0), Some(0x5555_5555));
}

#[test]
fn sc_monitors_pass_on_healthy_design() {
    let cfg = LaConfig::new(2);
    let mut la1 = LaSystemC::new(&cfg);
    la1.attach_monitors(&cycle_properties(2)).unwrap();
    let mut w = RandomMix::new(&cfg, 11, 0.5, 0.4);
    for _ in 0..300 {
        la1.cycle(&w.next_cycle());
    }
    assert!(la1.violations().is_empty(), "{:?}", la1.violations());
}

#[test]
fn sc_monitors_refuse_signals_the_model_does_not_drive() {
    // bound by name, `dv9` would read false forever on one bank and the
    // assertion could never fire
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    let dirs: Vec<_> = [
        "assert typo : always !dv9",
        "assert ok : always !perr0",
        "assert both : always (rd7 -> next wr8)",
    ]
    .iter()
    .map(|src| la1_psl::parse_directive(src).unwrap())
    .collect();
    let err = la1.attach_monitors(&dirs).unwrap_err();
    assert_eq!(err.unbound, ["dv9", "rd7", "wr8"]);
    // nothing was attached: a refused suite leaves the model unmonitored
    la1.attach_monitors(&dirs[1..2]).unwrap();
    assert_eq!(la1.snapshot_state().unwrap().monitors.len(), 1);
}

#[test]
fn sc_monitors_catch_parity_fault() {
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.attach_monitors(&cycle_properties(1)).unwrap();
    la1.inject_parity_fault(0);
    la1.cycle(&[BankOp::write(0, 0, 0x0123_4567, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 0)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    assert!(
        la1.violations().iter().any(|v| v.property == "parity_0"),
        "{:?}",
        la1.violations()
    );
}

#[test]
fn sc_trace_matches_figure3() {
    let cfg = LaConfig::new(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.enable_trace();
    la1.cycle(&[BankOp::read(0, 0)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    let seq = read_mode_sequence();
    seq.check(&la1.trace()).expect("Fig. 3 trace");
}

// ---- ASM model -----------------------------------------------------------------

#[test]
fn asm_model_checks_clean_on_one_bank() {
    let model = LaAsmModel::new(&small_cfg(1));
    let r = model.model_check(ExploreConfig {
        max_states: 30_000,
        ..ExploreConfig::default()
    });
    assert!(r.all_pass(), "{:?}", r.reports);
    // cover of concurrent read+write must be reachable
    let cover = r
        .reports
        .iter()
        .find(|p| p.name == "concurrent_rw_0")
        .unwrap();
    assert!(matches!(cover.outcome, CheckOutcome::Covered));
}

/// Table 1's explorer counts at depth 3 (the 4-bank row is also the
/// benchmark's `formal_proof` configuration). The visited set is keyed
/// by monitor fingerprints, so a change to how monitors digest their
/// obligations that merges or splits product states moves these. The
/// model-checking geometry (`mc_small`: 2 words of 2 bits per bank)
/// explores product graphs of the same size, and passes as well.
#[test]
fn table1_explorer_counts() {
    for (cfg, states, transitions) in [
        (small_cfg(1), 184, 274),
        (small_cfg(2), 1_591, 2_716),
        (small_cfg(3), 6_434, 14_078),
        (small_cfg(4), 18_157, 62_680),
        (LaConfig::mc_small(2), 1_591, 2_716),
        (LaConfig::mc_small(3), 6_434, 14_078),
    ] {
        let r = crate::harness::asm_model_check(
            &cfg,
            ExploreConfig {
                max_depth: Some(3),
                max_states: 5_000_000,
                max_transitions: 20_000_000,
                stop_on_violation: true,
                ..ExploreConfig::default()
            },
        );
        assert!(r.all_pass(), "{cfg:?}: {:?}", r.reports);
        assert_eq!(
            (r.fsm.num_states(), r.fsm.num_transitions()),
            (states, transitions),
            "{cfg:?}"
        );
    }
}

#[test]
fn asm_step_system_read_latency() {
    let cfg = small_cfg(1);
    let full = (1u32 << cfg.byte_enables()) - 1;
    let mut m = LaAsmModel::new(&cfg);
    m.cycle(&[BankOp::write(0, 1, 90, full)]);
    m.cycle(&[]);
    m.cycle(&[BankOp::read(0, 1)]);
    m.cycle(&[]);
    assert_eq!(m.bank_output(0), None);
    m.cycle(&[]);
    assert_eq!(m.bank_output(0), Some(90));
}

#[test]
fn asm_rejects_out_of_range_actions() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cfg = small_cfg(1);
    let full = (1u32 << cfg.byte_enables()) - 1;
    let fresh = LaAsmModel::new(&cfg).snapshot_state();
    for ops in [
        vec![BankOp::read(5, 0)],
        vec![BankOp::read(0, 99)],
        vec![BankOp::write(5, 0, 1, full)],
        vec![BankOp::write(0, 4, 1, full)],
        // a valid read beside a bad write: neither applies
        vec![BankOp::read(0, 1), BankOp::write(0, 4, 1, full)],
    ] {
        let mut m = LaAsmModel::new(&cfg);
        let stepped = catch_unwind(AssertUnwindSafe(|| m.cycle(&ops)));
        assert!(stepped.is_err(), "{ops:?} accepted");
        assert_eq!(CycleModel::cycles(&m), 0, "{ops:?}");
        assert_eq!(m.snapshot_state(), fresh, "{ops:?} changed the state");
    }
}

#[test]
fn asm_violation_produces_counterexample() {
    // BFS reports the shortest violating path: the initial state, then
    // one rule per step. `always !dv0` falls to a read and its two
    // latency cycles; `always !rd0` (2 banks, depth-bounded) to the
    // read itself.
    let cases = [
        (
            small_cfg(1),
            "assert never_dv : always !dv0",
            None,
            &["SimManager_Init", "tick_read", "tick_idle", "tick_idle"][..],
        ),
        (
            LaConfig::mc_small(2),
            "assert no_reads_ever : always !rd0",
            Some(3),
            &["SimManager_Init", "tick_read"][..],
        ),
    ];
    for (cfg, src, max_depth, rules) in cases {
        let model = LaAsmModel::new(&cfg);
        let bad = la1_psl::parse_directive(src).unwrap();
        let explore = ExploreConfig {
            max_depth,
            ..ExploreConfig::default()
        };
        let r = la1_asm::Explorer::new(model.machine(), explore)
            .with_directives(&[bad])
            .run();
        let cex = r.first_counterexample().expect("counterexample");
        let path: Vec<Option<&str>> = cex.path.iter().map(|(rule, _)| rule.as_deref()).collect();
        let expected: Vec<Option<&str>> = std::iter::once(None)
            .chain(rules.iter().map(|&rule| Some(rule)))
            .collect();
        assert_eq!(path, expected, "{src}");
    }
}

// ---- conformance ASM <-> SystemC --------------------------------------------------

#[test]
fn asm_systemc_conformance_small() {
    for banks in [1, 2] {
        let cfg = small_cfg(banks);
        for seed in 99..102 {
            let mut asm = LaAsmModel::new(&cfg);
            let mut sc = LaSystemC::new(&cfg);
            let mut mix = RandomMix::full_word(&cfg, seed, 0.5, 0.5);
            co_execute(cfg.banks, &mut [&mut asm, &mut sc], &mut mix, 60)
                .unwrap_or_else(|e| panic!("{banks} banks, seed {seed}: {e}"));
        }
    }
}

// ---- RTL model --------------------------------------------------------------------

#[test]
fn rtl_read_returns_written_word() {
    let cfg = LaConfig::new(1);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    drv.cycle(&[BankOp::write(0, 5, 0xDEAD_BEEF, 0b1111)]);
    drv.cycle(&[BankOp::read(0, 5)]);
    drv.cycle(&[]);
    drv.cycle(&[]);
    assert_eq!(drv.bank_output(0), Some(0xDEAD_BEEF));
    assert!(!drv.parity_error(0));
}

#[test]
fn rtl_byte_write_control() {
    let cfg = LaConfig::new(1);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    drv.cycle(&[BankOp::write(0, 2, 0xFFFF_FFFF, 0b1111)]);
    drv.cycle(&[]);
    drv.cycle(&[BankOp::write(0, 2, 0, 0b0001)]);
    drv.cycle(&[BankOp::read(0, 2)]);
    drv.cycle(&[]);
    drv.cycle(&[]);
    assert_eq!(drv.bank_output(0), Some(0xFFFF_FF00));
}

#[test]
fn rtl_multibank_routing() {
    let cfg = LaConfig::new(4);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    for b in 0..4 {
        drv.cycle(&[BankOp::write(b, 1, 0x1000 + b as u64, 0b1111)]);
    }
    drv.cycle(&[]);
    let mut seen = Vec::new();
    for b in 0..4 {
        drv.cycle(&[BankOp::read(b, 1)]);
        drv.cycle(&[]);
        drv.cycle(&[]);
        seen.push(drv.bank_output(b));
    }
    assert_eq!(
        seen,
        vec![Some(0x1000), Some(0x1001), Some(0x1002), Some(0x1003)]
    );
}

#[test]
fn rtl_verilog_emission() {
    let cfg = LaConfig::new(2);
    let rtl = LaRtl::build(&cfg, None);
    let v = rtl.to_verilog();
    assert!(v.contains("module la1_2bank"));
    assert!(v.contains("always @(negedge k)"), "write address on K#");
    assert!(v.contains("'bz"), "tristate bank outputs");
    assert!(v.contains("mem_"), "per-bank SRAM arrays");
}

#[test]
fn rtl_smc_proves_read_mode_small() {
    let cfg = LaConfig::mc_small(1);
    let rtl = LaRtl::build(&cfg, None);
    let ts = rtl.extract();
    let r = ModelChecker::new(&ts, SmcConfig::default())
        .check(&rtl_read_mode_property())
        .unwrap();
    assert!(matches!(r.outcome, SmcOutcome::Proved), "{:?}", r.outcome);
}

/// The 1-bank Table 2 row. Hash-consing makes the node arena independent
/// of how the BDD package caches operation results, so these counts pin
/// any change to that cache as well as to the checker.
#[test]
fn rulebase_read_mode_one_bank_golden() {
    let r =
        crate::harness::rulebase_read_mode(&LaConfig::mc_small(1), SmcConfig::default()).unwrap();
    assert!(matches!(r.outcome, SmcOutcome::Proved), "{:?}", r.outcome);
    assert_eq!(r.stats.bdd_nodes, 36_028);
    assert_eq!(r.stats.iterations, 11);
}

/// Extraction numbers the DAG in declaration order, so every call —
/// in this process or another — yields the same transition system.
#[test]
fn extract_is_deterministic() {
    let rtl = LaRtl::build(&LaConfig::mc_small(2), None);
    let first = rtl.extract();
    for _ in 0..10 {
        let ts = rtl.extract();
        assert_eq!(ts.nodes, first.nodes);
        assert_eq!(ts.next, first.next);
        assert_eq!(ts.init, first.init);
        assert_eq!(ts.state_bits, first.state_bits);
        assert_eq!(ts.input_bits, first.input_bits);
    }
}

#[test]
fn rtl_smc_proves_full_suite_small() {
    let cfg = LaConfig::mc_small(1);
    let rtl = LaRtl::build(&cfg, None);
    let ts = rtl.extract();
    let checker = ModelChecker::new(&ts, SmcConfig::default());
    for d in rtl_properties(1) {
        let r = checker.check(&d).unwrap();
        assert!(
            matches!(r.outcome, SmcOutcome::Proved),
            "{}: {:?}",
            d.name,
            r.outcome
        );
    }
}

#[test]
fn rtl_smc_catches_parity_fault() {
    let cfg = LaConfig::mc_small(1);
    let rtl = LaRtl::build(&cfg, Some(0));
    let ts = rtl.extract();
    let d = la1_psl::parse_directive("assert parity : always !perr_0").unwrap();
    let r = ModelChecker::new(&ts, SmcConfig::default())
        .check(&d)
        .unwrap();
    assert!(
        matches!(r.outcome, SmcOutcome::Violated(_)),
        "{:?}",
        r.outcome
    );
}

#[test]
fn rtl_ovl_clean_and_faulty() {
    let cfg = LaConfig::new(1);
    // healthy
    let mut w = RandomMix::new(&cfg, 3, 0.5, 0.4);
    let stats = run_rtl_ovl(&cfg, &mut w, 150);
    assert_eq!(stats.violations, 0);
    // parity-faulted design must fire the OVL parity monitor
    let mut faulty = RtlWithOvl::new(&LaRtl::build(&cfg, Some(0)));
    faulty.cycle(&[BankOp::write(0, 0, 0x0101_0101, 0b1111)]);
    for _ in 0..4 {
        faulty.cycle(&[BankOp::read(0, 0)]);
    }
    for _ in 0..3 {
        faulty.cycle(&[]);
    }
    assert!(faulty.violation_count() > 0);
    assert!(
        faulty
            .bench()
            .violations()
            .iter()
            .any(|v| v.monitor.contains("parity")),
        "{:?}",
        faulty.bench().violations()
    );
}

#[test]
fn time_per_cycle_handles_zero_cycles() {
    use std::time::Duration;
    // a run that simulated nothing has no meaningful per-cycle time;
    // dividing would panic
    let idle = AbvRunStats {
        cycles: 0,
        elapsed: Duration::from_millis(5),
        violations: 0,
    };
    assert_eq!(idle.time_per_cycle(), Duration::ZERO);
    let real = AbvRunStats {
        cycles: 4,
        elapsed: Duration::from_millis(8),
        violations: 0,
    };
    assert_eq!(real.time_per_cycle(), Duration::from_millis(2));
    // a `u32` divisor would wrap: to 0 at 2^32 cycles, to 2 at 2^32 + 2
    for cycles in [1u64 << 32, (1 << 32) + 2] {
        let long = AbvRunStats {
            cycles,
            elapsed: Duration::from_secs(cycles),
            violations: 0,
        };
        assert_eq!(
            long.time_per_cycle(),
            Duration::from_secs(1),
            "{cycles} cycles"
        );
    }
}

// ---- cross-level agreement ---------------------------------------------------------

#[test]
fn all_three_levels_agree_on_random_traffic() {
    let cfg = small_cfg(2);
    let mut asm = LaAsmModel::new(&cfg);
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);

    // ASM abstracts byte enables: force full-word writes
    let mut w = RandomMix::new(&cfg, 77, 0.6, 0.5);
    let full_be = (1u32 << cfg.byte_enables()) - 1;
    let mut full_word_mix = move || {
        let mut ops = w.next_cycle();
        for op in &mut ops {
            if let BankOp::Write { byte_en, .. } = op {
                *byte_en = full_be;
            }
        }
        ops
    };
    co_execute(
        cfg.banks,
        &mut [&mut asm, &mut sc, &mut drv],
        &mut full_word_mix,
        120,
    )
    .expect("ASM, SystemC and RTL levels must agree");
    assert_eq!(CycleModel::cycles(&asm), 120);
    assert_eq!(CycleModel::cycles(&sc), 120);
    assert_eq!(CycleModel::cycles(&drv), 120);
}

/// Wraps a model and lies about one bank's sampled pins for exactly one
/// cycle — the minimal injected mismatch for divergence-report tests.
struct Corrupt {
    inner: Box<dyn CycleModel>,
    at_cycle: u64,
    bank: u32,
    flip_write_done: bool,
}

impl Corrupt {
    /// co_execute samples after stepping: while checking cycle `c` the
    /// inner model has completed `c + 1` cycles.
    fn active(&self) -> bool {
        self.inner.cycles() == self.at_cycle + 1
    }
}

impl CycleModel for Corrupt {
    fn level(&self) -> &'static str {
        self.inner.level()
    }
    fn cycle(&mut self, ops: &[BankOp]) {
        self.inner.cycle(ops);
    }
    fn bank_output(&self, bank: u32) -> Option<u64> {
        let out = self.inner.bank_output(bank);
        if !self.flip_write_done && self.active() && bank == self.bank {
            return Some(out.unwrap_or(0) ^ 1);
        }
        out
    }
    fn write_done(&self, bank: u32) -> bool {
        let done = self.inner.write_done(bank);
        if self.flip_write_done && self.active() && bank == self.bank {
            return !done;
        }
        done
    }
    fn violation_count(&self) -> usize {
        self.inner.violation_count()
    }
    fn cycles(&self) -> u64 {
        self.inner.cycles()
    }
}

fn make_model(cfg: &LaConfig, which: usize) -> Box<dyn CycleModel> {
    match which {
        0 => Box::new(LaAsmModel::new(cfg)),
        1 => Box::new(LaSystemC::new(cfg)),
        2 => Box::new(LaRtlDriver::new(&LaRtl::build(cfg, None))),
        _ => Box::new(RtlWithOvl::new(&LaRtl::build(cfg, None))),
    }
}

#[test]
fn co_execute_reports_cycle_bank_and_signal_for_every_model_pair() {
    let cfg = small_cfg(2);
    const AT: u64 = 7;
    const BANK: u32 = 1;
    let names = ["asm", "systemc", "rtl", "rtl+ovl"];
    for reference in 0..names.len() {
        for diverging in 0..names.len() {
            if reference == diverging {
                continue;
            }
            for flip_write_done in [false, true] {
                let mut golden = make_model(&cfg, reference);
                let mut corrupt = Corrupt {
                    inner: make_model(&cfg, diverging),
                    at_cycle: AT,
                    bank: BANK,
                    flip_write_done,
                };
                let mut idle = || Vec::<BankOp>::new();
                let err = co_execute(
                    cfg.banks,
                    &mut [golden.as_mut(), &mut corrupt],
                    &mut idle,
                    20,
                )
                .expect_err("the injected mismatch must be reported");
                assert_eq!(err.cycle, AT, "{err}");
                assert_eq!(err.bank, BANK, "{err}");
                assert_eq!(err.reference, names[reference], "{err}");
                assert_eq!(err.level, names[diverging], "{err}");
                let signal = if flip_write_done {
                    "write_done"
                } else {
                    "output"
                };
                assert!(err.detail.contains(signal), "{err}");
            }
        }
    }
}

// ---- flow + harness -----------------------------------------------------------------

#[test]
fn full_flow_passes_on_one_bank() {
    let cfg = LaConfig::mc_small(1);
    let report = run_flow(
        &cfg,
        ExploreConfig {
            max_states: 20_000,
            ..ExploreConfig::default()
        },
        SmcConfig::default(),
    );
    assert!(report.all_passed(), "{}", report.render());
    assert!(report.verilog.contains("module la1_1bank"));
}

#[test]
fn harness_systemc_abv_runs_clean() {
    let cfg = LaConfig::new(2);
    let mut w = PacketLookup::new(&cfg, 5, 0.7, 0.1, 16);
    let stats = run_systemc_abv(&cfg, &mut w, 200);
    assert_eq!(stats.cycles, 200);
    assert_eq!(stats.violations, 0);
    assert!(stats.time_per_cycle() > std::time::Duration::ZERO);
}

// ---- workloads ------------------------------------------------------------------------

#[test]
fn workloads_are_deterministic_per_seed() {
    let cfg = LaConfig::new(4);
    let collect = |seed| {
        let mut w = RandomMix::new(&cfg, seed, 0.5, 0.5);
        (0..50).flat_map(|_| w.next_cycle()).collect::<Vec<_>>()
    };
    assert_eq!(collect(1), collect(1));
    assert_ne!(collect(1), collect(2));
}

#[test]
fn workload_ops_within_bounds() {
    let cfg = LaConfig::new(3);
    let mut w = PacketLookup::new(&cfg, 9, 0.9, 0.4, 8);
    for _ in 0..200 {
        for op in w.next_cycle() {
            assert!(op.bank() < cfg.banks);
            match op {
                BankOp::Read { addr, .. } | BankOp::Write { addr, .. } => {
                    assert!(addr < cfg.words_per_bank as u64);
                }
            }
        }
    }
}

#[test]
fn read_burst_sweeps_all_addresses() {
    let cfg = small_cfg(2);
    let mut w = ReadBurst::new(&cfg);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..(2 * 4) {
        for op in w.next_cycle() {
            if let BankOp::Read { bank, addr } = op {
                seen.insert((bank, addr));
            }
        }
    }
    assert_eq!(seen.len(), 8);
}

// ---- property tests ----------------------------------------------------------------------

// ---- fault library ---------------------------------------------------------------

#[test]
fn fault_slow_read_caught_by_smc() {
    use crate::rtl_model::RtlFault;
    let cfg = LaConfig::mc_small(1);
    let rtl = LaRtl::build_with_faults(&cfg, &[RtlFault::SlowRead(0)]);
    let ts = rtl.extract();
    let r = ModelChecker::new(&ts, SmcConfig::default())
        .check(&rtl_read_mode_property())
        .unwrap();
    let SmcOutcome::Violated(trace) = &r.outcome else {
        panic!(
            "latency bug must violate the read-mode property: {:?}",
            r.outcome
        );
    };
    assert!(trace.steps.len() >= 5, "request + latency steps");
}

#[test]
fn fault_dead_read_port_caught_by_ovl() {
    use crate::rtl_model::RtlFault;
    let cfg = LaConfig::new(1);
    let mut dead = RtlWithOvl::new(&LaRtl::build_with_faults(
        &cfg,
        &[RtlFault::DeadReadPort(0)],
    ));
    for _ in 0..6 {
        dead.cycle(&[BankOp::read(0, 0)]);
    }
    assert!(
        dead.bench()
            .violations()
            .iter()
            .any(|v| v.monitor.contains("read_latency")),
        "{:?}",
        dead.bench().violations()
    );
}

#[test]
fn fault_slow_read_diverges_from_golden_model() {
    use crate::rtl_model::RtlFault;
    let cfg = LaConfig::new(1);
    let rtl = LaRtl::build_with_faults(&cfg, &[RtlFault::SlowRead(0)]);
    let mut drv = LaRtlDriver::new(&rtl);
    let mut golden = LaSystemC::new(&cfg);
    let mut cycle = 0u64;
    let mut stimulus = move || {
        cycle += 1;
        if cycle == 2 {
            vec![BankOp::read(0, 0)]
        } else {
            vec![]
        }
    };
    let err = co_execute(1, &mut [&mut golden, &mut drv], &mut stimulus, 10)
        .expect_err("the scoreboard must expose the latency bug");
    assert_eq!(err.level, "rtl", "{err}");
}

#[test]
fn healthy_build_with_empty_fault_list_is_clean() {
    use crate::rtl_model::RtlFault;
    let cfg = LaConfig::new(1);
    let a = LaRtl::build_with_faults(&cfg, &[]);
    let b = LaRtl::build(&cfg, None);
    assert_eq!(a.to_verilog(), b.to_verilog());
    let _ = RtlFault::ParityBank(0); // the enum is part of the public API
}

// ---- LA-1B burst extension ---------------------------------------------------------

#[test]
fn burst_sc_returns_two_consecutive_words() {
    let cfg = LaConfig::la1b(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::write(0, 10, 0x1111_1111, 0b1111)]);
    la1.cycle(&[BankOp::write(0, 11, 0x2222_2222, 0b1111)]);
    la1.cycle(&[BankOp::read(0, 10)]);
    la1.cycle(&[]);
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), Some(0x1111_1111), "first beat");
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), Some(0x2222_2222), "second beat");
    la1.cycle(&[]);
    assert_eq!(la1.bank_output(0), None, "burst over");
}

#[test]
fn burst_rtl_matches_sc() {
    let cfg = LaConfig::la1b(1);
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    // preload some data through both, then random burst traffic
    let mut preload = 0u64;
    let mut w = crate::workloads::BurstLookup::new(&cfg, 404);
    let mut stimulus = move || {
        if preload < 8 {
            preload += 1;
            vec![BankOp::write(0, preload - 1, 0xFF + preload, 0b1111)]
        } else {
            w.next_cycle()
        }
    };
    co_execute(1, &mut [&mut sc, &mut drv], &mut stimulus, 88)
        .expect("burst SystemC and RTL must agree");
}

#[test]
fn burst_monitors_hold_and_catch_missing_beat() {
    let cfg = LaConfig::la1b(2);
    let mut la1 = LaSystemC::new(&cfg);
    la1.attach_default_monitors();
    let mut w = crate::workloads::BurstLookup::new(&cfg, 7);
    for _ in 0..200 {
        la1.cycle(&w.next_cycle());
    }
    assert!(la1.violations().is_empty(), "{:?}", la1.violations());

    // a non-burst device checked against the burst property set must
    // fail the second-beat property
    let plain = LaConfig::new(1);
    let mut wrong = LaSystemC::new(&plain);
    wrong
        .attach_monitors(&crate::properties::cycle_properties_for(&LaConfig::la1b(1)))
        .unwrap();
    wrong.cycle(&[BankOp::read(0, 0)]);
    for _ in 0..4 {
        wrong.cycle(&[]);
    }
    assert!(
        wrong
            .violations()
            .iter()
            .any(|v| v.property == "burst_second_beat_0"),
        "{:?}",
        wrong.violations()
    );
}

#[test]
fn burst_protocol_violation_panics() {
    let cfg = LaConfig::la1b(1);
    let mut la1 = LaSystemC::new(&cfg);
    la1.cycle(&[BankOp::read(0, 0)]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        la1.cycle(&[BankOp::read(0, 2)]); // too soon: bus still busy
    }));
    assert!(result.is_err(), "back-to-back reads must be rejected");
}

#[test]
fn burst_rtl_ovl_clean() {
    let cfg = LaConfig::la1b(1);
    let mut w = crate::workloads::BurstLookup::new(&cfg, 11);
    let stats = run_rtl_ovl(&cfg, &mut w, 150);
    assert_eq!(stats.violations, 0);
    assert_eq!(stats.cycles, 150);
}

#[test]
fn burst_asm_level_rejected() {
    let result = std::panic::catch_unwind(|| LaAsmModel::new(&LaConfig::la1b(1)));
    assert!(result.is_err(), "ASM level is base LA-1 only");
}

#[test]
fn burst_throughput_beats_single_reads() {
    // the point of LA-1B: more words per address-bus slot
    let burst_cfg = LaConfig::la1b(1);
    let plain_cfg = LaConfig::new(1);
    let cycles = 300;

    let mut burst = LaSystemC::new(&burst_cfg);
    let mut wb = crate::workloads::BurstLookup::new(&burst_cfg, 5);
    let mut burst_words = 0u64;
    for _ in 0..cycles {
        burst.cycle(&wb.next_cycle());
        if burst.bank_output(0).is_some() {
            burst_words += 1;
        }
    }

    let mut plain = LaSystemC::new(&plain_cfg);
    let mut wp = crate::workloads::BurstLookup::new(&plain_cfg, 5);
    let mut plain_words = 0u64;
    let mut plain_reads = 0u64;
    let mut burst_reads = 0u64;
    for _ in 0..cycles {
        let ops = wp.next_cycle();
        plain_reads += ops.iter().filter(|o| o.is_read()).count() as u64;
        plain.cycle(&ops);
        if plain.bank_output(0).is_some() {
            plain_words += 1;
        }
    }
    let mut wb2 = crate::workloads::BurstLookup::new(&burst_cfg, 5);
    for _ in 0..cycles {
        burst_reads += wb2.next_cycle().iter().filter(|o| o.is_read()).count() as u64;
    }
    // same or more words delivered from roughly half the address slots
    assert!(burst_reads < plain_reads);
    assert!(
        burst_words as f64 >= plain_words as f64 * 0.95,
        "burst {burst_words} vs plain {plain_words}"
    );
}

// ---- compiled vs full settle: golden equivalence -----------------------------------

/// The activity-driven compiled schedule and the full Jacobi fixpoint
/// must produce bit-identical per-cycle pin traces and monitor verdicts
/// on the same stimulus — across bank counts and both interface
/// variants, including a faulted design so the monitors actually fire.
#[test]
fn golden_full_vs_activity_settle_equivalence() {
    use la1_rtl::SettleMode;
    for banks in [1u32, 2, 4] {
        for cfg in [LaConfig::new(banks), LaConfig::la1b(banks)] {
            // bank 0's parity generator is broken: every read of bank 0
            // must fire the parity monitors identically under both modes
            let rtl = LaRtl::build(&cfg, Some(0));
            let nets = rtl.nets().clone();
            let mut act = LaRtlDriver::new(&rtl);
            let mut full = LaRtlDriver::new(&rtl);
            assert_eq!(
                act.sim_mut().settle_mode(),
                SettleMode::ActivityDriven,
                "activity-driven settling is the default"
            );
            full.sim_mut().set_settle_mode(SettleMode::Full);
            let mut bench_act = OvlBench::new();
            attach_la1_ovl(&mut bench_act, &rtl);
            let mut bench_full = OvlBench::new();
            attach_la1_ovl(&mut bench_full, &rtl);

            let mut pins: Vec<_> = vec![nets.dq, nets.dq_par];
            pins.extend(&nets.dv);
            pins.extend(&nets.perr);
            pins.extend(&nets.wdone);

            let mut w = crate::workloads::BurstLookup::new(&cfg, 2004);
            for cycle in 0..100 {
                let ops = w.next_cycle();
                act.cycle_with(&ops, |s| {
                    bench_act.on_cycle(s);
                });
                full.cycle_with(&ops, |s| {
                    bench_full.on_cycle(s);
                });
                for &net in &pins {
                    let a = act.sim_mut().get(net).clone();
                    assert_eq!(
                        &a,
                        full.sim_mut().get(net),
                        "banks {banks} burst {} cycle {cycle}: pin trace diverged",
                        cfg.burst_len
                    );
                }
                for b in 0..banks {
                    assert_eq!(act.bank_output(b), full.bank_output(b));
                }
            }
            let verdicts = |bench: &OvlBench| -> Vec<(String, u64)> {
                bench
                    .violations()
                    .iter()
                    .map(|v| (v.monitor.clone(), v.cycle))
                    .collect()
            };
            assert_eq!(verdicts(&bench_act), verdicts(&bench_full));
            assert!(
                !bench_act.violations().is_empty(),
                "the injected parity fault must fire under both modes"
            );
        }
    }
}

// ---- waveform dump -----------------------------------------------------------------

#[test]
fn rtl_read_transaction_waveform() {
    use la1_rtl::VcdWriter;
    let cfg = LaConfig::new(1);
    let rtl = LaRtl::build(&cfg, None);
    let nets = rtl.nets().clone();
    let mut drv = LaRtlDriver::new(&rtl);
    // the driver owns the sim; sample through cycle_with
    let mut vcd = VcdWriter::new(rtl.netlist(), &[nets.k, nets.rd_sel, nets.dv[0], nets.dq]);
    drv.cycle_with(&[BankOp::write(0, 1, 0xABCD_1234, 0b1111)], |s| {
        vcd.sample(s)
    });
    drv.cycle_with(&[BankOp::read(0, 1)], |s| vcd.sample(s));
    drv.cycle_with(&[], |s| vcd.sample(s));
    drv.cycle_with(&[], |s| vcd.sample(s));
    let text = vcd.render();
    assert!(text.contains("$scope module la1_1bank $end"));
    assert!(text.contains("$var wire 16")); // the DDR dq bus
    assert!(vcd.num_changes() >= 2, "clock + dv/dq activity recorded");
    assert_eq!(drv.bank_output(0), Some(0xABCD_1234));
}

/// Like every other level, both RTL driver instances reject an
/// operation on a bank the design does not have, before anything is
/// staged. Without the check the address bus folds the bank onto an
/// existing one (a 1-bank read of bank 1 returns bank 0's word) or
/// decodes it to no bank at all (a 3-bank write to bank 3 vanishes).
#[test]
fn rtl_drivers_reject_out_of_range_bank() {
    use crate::rtl_model::LaRtlBatchDriver;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for banks in 1..=3u32 {
        let cfg = LaConfig::new(banks);
        let design = LaRtl::build(&cfg, None);
        let full_be = (1 << cfg.byte_enables()) - 1;
        let preload = [BankOp::write(0, 0, 0x1100, full_be)];
        for op in [
            BankOp::read(banks, 0),
            BankOp::write(banks, 0, 0x2200, full_be),
        ] {
            let ops = [op];
            let mut scalar = LaRtlDriver::new(&design);
            scalar.cycle(&preload);
            let tripped = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..=READ_LATENCY {
                    scalar.cycle(&ops);
                }
            }));
            assert!(
                tripped.is_err(),
                "scalar, {banks} bank(s): {op:?} ran, bank 0 output {:?}",
                scalar.bank_output(0)
            );
            assert_eq!(
                scalar.cycles(),
                1,
                "the rejected cycle left the driver untouched"
            );
            let mut batch = LaRtlBatchDriver::new(&design);
            batch.cycle(&[&preload]);
            let lanes: [&[BankOp]; 2] = [&[], &ops];
            let tripped = catch_unwind(AssertUnwindSafe(|| batch.cycle(&lanes)));
            assert!(tripped.is_err(), "batched, {banks} bank(s): {op:?} ran");
            assert_eq!(batch.cycles(), 1);
        }
    }
}

// ---- batched (PPSFP) driver equivalence -------------------------------------

/// Every lane of the batched RTL driver must match an independent
/// scalar driver run bit-for-bit: merged DDR outputs, write-done and
/// parity-error pins, and the OVL verdict stream sampled at rising `K`
/// — at 1/2/4 banks, LA-1 and LA-1B, healthy and parity-faulted, with
/// four-state X injection on a subset of lanes.
#[test]
fn batched_driver_matches_scalar_lanes() {
    use crate::cycle_model::BatchLaneModel;
    use crate::rtl_model::{LaRtlBatchDriver, RtlFault, XPin};
    use la1_rtl::LANES;

    let la1b_cfg = LaConfig {
        burst_len: 2,
        ..small_cfg(2)
    };
    let scenarios: Vec<(LaConfig, Vec<RtlFault>)> = vec![
        (small_cfg(1), vec![]),
        (small_cfg(2), vec![RtlFault::ParityBank(0)]),
        (small_cfg(4), vec![]),
        (la1b_cfg, vec![RtlFault::ParityBank(1)]),
    ];
    for (cfg, faults) in scenarios {
        let design = LaRtl::build_with_faults(&cfg, &faults);
        let mut batch = LaRtlBatchDriver::new(&design);
        let mut scalars: Vec<LaRtlDriver> = (0..LANES).map(|_| LaRtlDriver::new(&design)).collect();
        let attach = || {
            let mut b = OvlBench::new();
            attach_la1_ovl(&mut b, &design);
            b
        };
        let mut bench_b: Vec<OvlBench> = (0..LANES).map(|_| attach()).collect();
        let mut bench_s: Vec<OvlBench> = (0..LANES).map(|_| attach()).collect();
        let mut pass = batch.sim_mut().probe_pass(bench_b[0].exprs());
        let mut mixes: Vec<RandomMix> = (0..LANES)
            .map(|l| RandomMix::new(&cfg, 0xBEEF + l as u64, 0.6, 0.6))
            .collect();
        let x_pins = [XPin::WData, XPin::Addr, XPin::ReadSel, XPin::WriteSel];

        for cycle in 0..24u64 {
            let ops: Vec<Vec<BankOp>> = mixes.iter_mut().map(|m| m.next_cycle()).collect();
            if cycle == 9 {
                // X-inject a different pin on every fifth lane
                for lane in (0..LANES).step_by(5) {
                    let pin = x_pins[(lane / 5) % x_pins.len()];
                    batch.inject_x(lane, pin);
                    scalars[lane].inject_x(pin);
                }
            }
            let slices: Vec<&[BankOp]> = ops.iter().map(|v| v.as_slice()).collect();
            batch.cycle_with(&slices, |sim| {
                let probed = sim.run_probes(&mut pass);
                for (lane, bench) in bench_b.iter_mut().enumerate() {
                    bench.on_cycle_from(&probed, lane);
                }
            });
            for (lane, sc) in scalars.iter_mut().enumerate() {
                let bench = &mut bench_s[lane];
                sc.cycle_with(&ops[lane], |sim| {
                    bench.on_cycle(sim);
                });
            }
            for (lane, sc) in scalars.iter_mut().enumerate() {
                for b in 0..cfg.banks {
                    assert_eq!(
                        batch.bank_output(lane, b),
                        sc.bank_output(b),
                        "bank_output lane {lane} bank {b} cycle {cycle} ({}b)",
                        cfg.banks
                    );
                    assert_eq!(batch.write_done(lane, b), sc.write_done(b));
                    assert_eq!(batch.parity_error(lane, b), sc.parity_error(b));
                    let view = BatchLaneModel::new(&mut batch, lane);
                    assert_eq!(view.bank_output(b), sc.bank_output(b));
                }
            }
        }
        for lane in 0..LANES {
            let render = |b: &OvlBench| -> Vec<(String, u64, String)> {
                b.violations()
                    .iter()
                    .map(|v| (v.monitor.clone(), v.cycle, v.message.clone()))
                    .collect()
            };
            assert_eq!(
                render(&bench_b[lane]),
                render(&bench_s[lane]),
                "OVL verdicts diverged on lane {lane} ({} banks)",
                cfg.banks
            );
        }
    }
}

/// `cycles` of the write-heavy [`RandomMix`] a closure preamble
/// records, run on a scalar driver and then put in every lane by
/// [`LaRtlBatchDriver::broadcast`], next to the same cycles replayed in
/// all 64 lanes of a batched driver: both drivers, and their snapshots
/// rendered as JSONL.
fn broadcast_and_replay(
    cfg: &LaConfig,
    seed: u64,
    cycles: usize,
) -> ((LaRtlBatchDriver, String), (LaRtlBatchDriver, String)) {
    use crate::checkpoint::Snapshot;
    let design = LaRtl::build(cfg, None);
    let mut scalar = LaRtlDriver::new(&design);
    let mut replayed = LaRtlBatchDriver::new(&design);
    let mut mix = RandomMix::new(cfg, seed, 0.2, 0.7);
    for _ in 0..cycles {
        let ops = mix.next_cycle();
        scalar.cycle(&ops);
        replayed.cycle(&[ops.as_slice(); LANES]);
    }
    let broadcast = LaRtlBatchDriver::broadcast(&scalar).expect("broadcast");
    let render = |d: &LaRtlBatchDriver| Snapshot::of_rtl_batch(d).unwrap().to_jsonl();
    let (b, r) = (render(&broadcast), render(&replayed));
    ((broadcast, b), (replayed, r))
}

/// The broadcast driver holds, byte for byte, the state a 64-lane replay
/// reaches, and it goes on as that replay does when its lanes diverge.
#[test]
fn broadcast_equals_a_64_lane_replay() {
    for cfg in [
        LaConfig::new(1),
        LaConfig::new(2),
        LaConfig::new(4),
        LaConfig::la1b(2),
        LaConfig::mc_small(3),
    ] {
        let ((mut broadcast, b), (mut replayed, r)) = broadcast_and_replay(&cfg, 42, 2_000);
        assert_eq!(b, r, "{} banks, burst {}", cfg.banks, cfg.burst_len);
        let mut mixes: Vec<RandomMix> = (0..LANES as u64)
            .map(|lane| RandomMix::new(&cfg, 1_000 + lane, 0.5, 0.5))
            .collect();
        for cycle in 0..200 {
            let ops: Vec<Vec<BankOp>> = mixes.iter_mut().map(|m| m.next_cycle()).collect();
            let lanes: Vec<&[BankOp]> = ops.iter().map(Vec::as_slice).collect();
            broadcast.cycle(&lanes);
            replayed.cycle(&lanes);
            for lane in 0..LANES {
                for bank in 0..cfg.banks {
                    assert_eq!(
                        broadcast.bank_output(lane, bank),
                        replayed.bank_output(lane, bank),
                        "{} banks: lane {lane} bank {bank} cycle {cycle}",
                        cfg.banks
                    );
                    assert_eq!(
                        broadcast.write_done(lane, bank),
                        replayed.write_done(lane, bank)
                    );
                    assert_eq!(
                        broadcast.parity_error(lane, bank),
                        replayed.parity_error(lane, bank)
                    );
                }
            }
        }
    }
}

/// The broadcast refuses a scalar driver with an armed X injection, and
/// the engine refuses a scalar simulator of another design, leaving its
/// target as it was.
#[test]
fn broadcast_refuses_armed_x_and_foreign_designs() {
    use crate::rtl_model::XPin;
    use la1_rtl::{BatchedRtlSim, RtlSim};
    let design = LaRtl::build(&LaConfig::new(2), None);
    let mut scalar = LaRtlDriver::new(&design);
    scalar.cycle(&[BankOp::write(1, 3, 0xDEAD_BEEF, 0xF)]);
    scalar.inject_x(XPin::Addr);
    assert!(LaRtlBatchDriver::broadcast(&scalar).is_err());

    for other in [
        LaConfig::new(1),
        LaConfig::new(4),
        LaConfig::la1b(2),
        LaConfig::mc_small(2),
    ] {
        let mut target = BatchedRtlSim::new(design.netlist());
        target.set_u64_all(design.nets().wr_sel, 1);
        target.set_u64_all(design.nets().k, 1);
        target.step();
        let before = target.export_state().unwrap();
        let foreign = RtlSim::new(LaRtl::build(&other, None).netlist());
        assert!(
            target.import_broadcast(&foreign).is_err(),
            "{} banks, burst {}",
            other.banks,
            other.burst_len
        );
        assert_eq!(target.export_state().unwrap(), before);
    }
}

#[test]
fn uml_use_cases_cover_both_deployment_modes() {
    let cases = la1_use_cases();
    // the paper's two deployment modes: stand-alone IP + verification unit
    assert!(cases.iter().any(|c| c.name == "IntegrateAsIp"));
    assert!(cases.iter().any(|c| c.name == "ValidateDevice"));
    let txt = render_use_cases(&cases);
    assert!(txt.contains("NetworkProcessor"));
    assert!(txt.contains("verification unit"));
}

// ---- stimulus (transaction-level stack) ------------------------------------

use crate::harness::run_abv_observed;
use crate::stimulus::traffic::{contention, PacketStream, QdrStream, ZipfKeys};
use crate::stimulus::{
    stream_seed, Agent, Driver, ScriptSequence, SeqContext, SequenceItem, Sequencer,
    TransactionMonitor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A test sequencer replaying a flat item list (no per-cycle
/// structure — the driver's legality rules decide the packing).
struct ItemScript(VecDeque<SequenceItem>);

impl Sequencer for ItemScript {
    fn next_item(&mut self, _ctx: &SeqContext) -> SequenceItem {
        self.0.pop_front().unwrap_or(SequenceItem::Idle)
    }
}

fn burst_cfg(banks: u32) -> LaConfig {
    LaConfig {
        burst_len: 2,
        ..small_cfg(banks)
    }
}

#[test]
fn agent_randommix_matches_legacy_workload_stream() {
    // the Sequencer port of RandomMix, run through the Driver, must
    // reproduce the legacy Workload pin stream byte for byte
    let cfg = small_cfg(2);
    let mut legacy = RandomMix::new(&cfg, 99, 0.6, 0.4);
    let mut agent = Agent::new(&cfg, RandomMix::new(&cfg, 99, 0.6, 0.4));
    for _ in 0..400 {
        assert_eq!(legacy.next_cycle(), agent.next_cycle());
    }
}

#[test]
fn driver_expands_burst_under_la1() {
    let cfg = small_cfg(1);
    let mut drv = Driver::new(&cfg);
    let mut seq = ItemScript(VecDeque::from([SequenceItem::Burst { bank: 0, addr: 1 }]));
    assert_eq!(drv.cycle_from(&mut seq), vec![BankOp::read(0, 1)]);
    assert_eq!(drv.cycle_from(&mut seq), vec![BankOp::read(0, 2)]);
    assert_eq!(drv.cycle_from(&mut seq), vec![]);
}

#[test]
fn driver_spaces_reads_under_la1b() {
    // three reads offered back to back: the driver delays (never
    // drops) them to the legal 2-cycle spacing
    let cfg = burst_cfg(1);
    let mut drv = Driver::new(&cfg);
    let items: VecDeque<_> = (0..3)
        .map(|i| SequenceItem::Read { bank: 0, addr: i })
        .collect();
    let mut seq = ItemScript(items);
    let mut read_cycles = Vec::new();
    for c in 0..8 {
        let ops = drv.cycle_from(&mut seq);
        if ops.iter().any(BankOp::is_read) {
            read_cycles.push(c);
        }
    }
    assert_eq!(read_cycles, vec![0, 2, 4]);
    assert_eq!(drv.stats().reads_issued, 3);
    assert!(drv.stats().items_delayed > 0);
}

#[test]
fn driver_takes_one_read_and_one_write_per_cycle() {
    let cfg = small_cfg(1);
    let mut drv = Driver::new(&cfg);
    let mut seq = ItemScript(VecDeque::from([
        SequenceItem::Read { bank: 0, addr: 0 },
        SequenceItem::Write {
            bank: 0,
            addr: 1,
            data: 7,
            byte_en: 0b11,
        },
        SequenceItem::Read { bank: 0, addr: 2 },
    ]));
    // first cycle packs the read + write; the second read spills over
    let ops = drv.cycle_from(&mut seq);
    assert_eq!(ops.len(), 2);
    assert_eq!(drv.cycle_from(&mut seq), vec![BankOp::read(0, 2)]);
}

#[test]
fn driver_raw_items_bypass_legality() {
    // the hostile escape hatch: two reads in one cycle, verbatim
    let cfg = small_cfg(1);
    let mut drv = Driver::new(&cfg);
    let mut seq = ItemScript(VecDeque::from([SequenceItem::Raw(vec![
        BankOp::read(0, 0),
        BankOp::read(0, 1),
    ])]));
    let ops = drv.cycle_from(&mut seq);
    assert_eq!(ops.len(), 2);
    assert_eq!(drv.stats().raw_cycles, 1);
}

#[test]
fn driver_latches_inject_x_requests() {
    let cfg = small_cfg(1);
    let mut drv = Driver::new(&cfg);
    let mut seq = ItemScript(VecDeque::from([
        SequenceItem::InjectX,
        SequenceItem::Read { bank: 0, addr: 0 },
    ]));
    let ops = drv.cycle_from(&mut seq);
    assert_eq!(ops, vec![BankOp::read(0, 0)]);
    assert!(drv.take_inject_x());
    assert!(!drv.take_inject_x());
}

#[test]
fn script_sequence_replays_cycles_verbatim() {
    let cfg = small_cfg(2);
    let script = vec![
        vec![BankOp::read(0, 1), BankOp::write(1, 2, 0xAB, 0b11)],
        vec![],
        vec![BankOp::write(0, 3, 0xCD, 0b01)],
    ];
    let mut agent = Agent::new(&cfg, ScriptSequence::new(script.clone()));
    for cycle in &script {
        assert_eq!(&agent.next_cycle(), cycle);
    }
    assert_eq!(agent.next_cycle(), vec![]);
}

#[test]
fn multi_master_contention_arbitrates_and_replays() {
    let cfg = small_cfg(2);
    let mut a = contention(&cfg, 0xFEED, 3);
    let mut b = contention(&cfg, 0xFEED, 3);
    let mut delayed_seen = false;
    for _ in 0..300 {
        let ops = a.next_cycle();
        assert_eq!(ops, b.next_cycle(), "seeded contention must replay");
        // the single address bus holds even with three masters
        assert!(ops.iter().filter(|o| o.is_read()).count() <= 1);
        assert!(ops.iter().filter(|o| !o.is_read()).count() <= 1);
        delayed_seen |= a.driver().stats().items_delayed > 0;
    }
    assert!(delayed_seen, "three masters must collide sometimes");
    assert!(a.driver().stats().reads_issued > 100);
}

#[test]
fn monitor_scoreboards_clean_random_run() {
    let cfg = small_cfg(2);
    let mut sc = LaSystemC::new(&cfg);
    let mut w = RandomMix::new(&cfg, 5, 0.6, 0.5);
    let mut mon = TransactionMonitor::with_log(&cfg, 64);
    run_abv_observed(&mut sc, &mut w, 300, &mut mon);
    let stats = *mon.stats();
    assert!(
        stats.clean(),
        "healthy design must scoreboard clean: {stats:?}"
    );
    assert!(stats.lookups_completed > 50);
    // only the in-flight tail (≤ READ_LATENCY cycles deep) may be open
    assert!(stats.reads_issued - stats.lookups_completed <= READ_LATENCY as u64);
    assert!(stats.writes_committed > 50);
    assert!(!mon.transactions().is_empty());
}

#[test]
fn monitor_scoreboards_clean_burst_run() {
    let cfg = burst_cfg(1);
    let mut sc = LaSystemC::new(&cfg);
    let mut agent = Agent::new(&cfg, QdrStream::new(&cfg, 11, 0.5));
    let mut mon = TransactionMonitor::new(&cfg);
    run_abv_observed(&mut sc, &mut agent, 200, &mut mon);
    let stats = *mon.stats();
    assert!(
        stats.clean(),
        "burst lookups must scoreboard clean: {stats:?}"
    );
    // sustained QDR stream: a read strobe every burst_len cycles
    assert!(stats.reads_issued >= 95);
    assert!(stats.lookups_completed >= 90);
}

#[test]
fn monitor_catches_data_corruption() {
    // drive the model with a corrupted write while telling the monitor
    // the intended one: the transaction scoreboard must notice when
    // the lookup comes back
    let cfg = small_cfg(1);
    let mut sc = LaSystemC::new(&cfg);
    let mut mon = TransactionMonitor::new(&cfg);
    let intended = [
        vec![BankOp::write(0, 2, 0x1234, 0b11)],
        vec![BankOp::read(0, 2)],
        vec![],
        vec![],
        vec![],
    ];
    for (i, ops) in intended.iter().enumerate() {
        let driven = if i == 0 {
            vec![BankOp::write(0, 2, 0x1235, 0b11)] // injected bit flip
        } else {
            ops.clone()
        };
        sc.cycle(&driven);
        mon.observe(ops, &mut sc);
    }
    assert_eq!(mon.stats().data_mismatches, 1);
    assert_eq!(mon.stats().lookups_completed, 1);
}

#[test]
fn monitor_catches_dropped_read_strobe() {
    let cfg = small_cfg(1);
    let mut sc = LaSystemC::new(&cfg);
    let mut mon = TransactionMonitor::new(&cfg);
    let intended = [vec![BankOp::read(0, 1)], vec![], vec![], vec![]];
    for (i, ops) in intended.iter().enumerate() {
        let driven = if i == 0 { vec![] } else { ops.clone() };
        sc.cycle(&driven);
        mon.observe(ops, &mut sc);
    }
    assert_eq!(mon.stats().missing_dv, 1);
    assert_eq!(mon.stats().lookups_completed, 0);
}

#[test]
fn monitor_same_cycle_write_visible_to_read() {
    // the refinement models make a same-cycle write visible to the
    // read; the shadow memory must agree or clean runs would mismatch
    let cfg = small_cfg(1);
    let mut sc = LaSystemC::new(&cfg);
    let mut mon = TransactionMonitor::new(&cfg);
    let script = [
        vec![BankOp::write(0, 1, 0x11, 0b11)],
        vec![BankOp::read(0, 1), BankOp::write(0, 1, 0x22, 0b11)],
        vec![BankOp::write(0, 1, 0x33, 0b11)], // after issue: not visible
        vec![],
        vec![],
    ];
    for ops in &script {
        sc.cycle(ops);
        mon.observe(ops, &mut sc);
    }
    assert_eq!(mon.stats().data_mismatches, 0);
    assert_eq!(mon.stats().lookups_completed, 1);
}

#[test]
fn packet_stream_is_deterministic_and_clean() {
    let cfg = small_cfg(2);
    let mut a = Agent::new(&cfg, PacketStream::new(&cfg, 0xD00D, 32, 1.2));
    let mut b = Agent::new(&cfg, PacketStream::new(&cfg, 0xD00D, 32, 1.2));
    let mut sc = LaSystemC::new(&cfg);
    let mut mon = TransactionMonitor::new(&cfg);
    for _ in 0..300 {
        let ops = a.next_cycle();
        assert_eq!(ops, b.next_cycle(), "seeded packet traffic must replay");
        sc.cycle(&ops);
        mon.observe(&ops, &mut sc);
    }
    assert!(mon.stats().clean(), "packet traffic must scoreboard clean");
    assert!(
        mon.stats().lookups_completed > 30,
        "bursty arrivals still look up"
    );
}

#[test]
fn zipf_keys_skew_toward_low_ranks() {
    let zipf = ZipfKeys::new(16, 1.2);
    let mut rng = StdRng::seed_from_u64(77);
    let mut counts = [0u32; 16];
    for _ in 0..4000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    assert!(counts[0] > counts[8] && counts[0] > counts[15]);
    assert!(counts.iter().sum::<u32>() == 4000);
}

#[test]
fn stream_seed_separates_streams() {
    let seeds: Vec<u64> = (0..8).map(|i| stream_seed(42, i)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len());
}

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sc_rtl_equivalent_on_random_programs(seed in 0u64..500) {
            let cfg = small_cfg(1);
            let mut sc = LaSystemC::new(&cfg);
            let rtl = LaRtl::build(&cfg, None);
            let mut drv = LaRtlDriver::new(&rtl);
            let mut w = RandomMix::new(&cfg, seed, 0.7, 0.6);
            for _ in 0..60 {
                let ops = w.next_cycle();
                sc.cycle(&ops);
                drv.cycle(&ops);
                prop_assert_eq!(sc.bank_output(0), drv.bank_output(0));
            }
        }

        #[test]
        fn parity_helper_matches_xor(half in any::<u16>()) {
            let p = byte_parity(half as u64, 16);
            let lo = (half & 0xFF).count_ones() % 2;
            let hi = (half >> 8).count_ones() % 2;
            prop_assert_eq!(p, (lo as u64) | ((hi as u64) << 1));
        }

        /// Same seed ⇒ byte-identical RandomMix op streams (the
        /// determinism every campaign-style experiment leans on).
        #[test]
        fn random_mix_streams_replay(seed in 0u64..1_000, banks in 1u32..5) {
            let cfg = small_cfg(banks);
            let emit = |s: u64| {
                let mut w = RandomMix::new(&cfg, s, 0.6, 0.5);
                (0..200).map(|_| w.next_cycle()).collect::<Vec<_>>()
            };
            prop_assert_eq!(emit(seed), emit(seed));
        }

        /// Every RandomMix cycle respects the single address bus: at
        /// most one read and one write, all targets in range.
        #[test]
        fn random_mix_respects_single_address_bus(seed in 0u64..1_000, banks in 1u32..5) {
            let cfg = small_cfg(banks);
            let mut w = RandomMix::new(&cfg, seed, 0.8, 0.8);
            for _ in 0..300 {
                let ops = w.next_cycle();
                prop_assert!(ops.iter().filter(|o| o.is_read()).count() <= 1);
                prop_assert!(ops.iter().filter(|o| !o.is_read()).count() <= 1);
                for op in &ops {
                    prop_assert!(op.bank() < cfg.banks);
                    let addr = match *op {
                        BankOp::Read { addr, .. } | BankOp::Write { addr, .. } => addr,
                    };
                    prop_assert!(addr < cfg.words_per_bank as u64);
                }
            }
        }

        /// The full-word constructor keeps every write full-word and
        /// still replays byte-identically per seed.
        #[test]
        fn random_mix_full_word_is_full_word(seed in 0u64..1_000) {
            let cfg = small_cfg(2);
            let full_be = (1u32 << cfg.byte_enables()) - 1;
            let mut w = RandomMix::full_word(&cfg, seed, 0.5, 0.7);
            for _ in 0..300 {
                for op in w.next_cycle() {
                    if let BankOp::Write { byte_en, .. } = op {
                        prop_assert_eq!(byte_en, full_be);
                    }
                }
            }
        }

        /// The Driver's legality rules hold by construction for ANY
        /// item stream: at most one read and one write per cycle,
        /// LA-1B burst spacing respected, and no read is ever dropped
        /// — delayed items all drain once the stream goes idle.
        #[test]
        fn driver_legality_invariants_hold_for_any_items(seed in 0u64..400) {
            let cfg = burst_cfg(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut items = VecDeque::new();
            let mut reads_offered = 0u64;
            for _ in 0..60 {
                items.push_back(match rng.gen_range(0..10u32) {
                    0..=3 => {
                        reads_offered += 1;
                        SequenceItem::Read {
                            bank: rng.gen_range(0..cfg.banks),
                            addr: rng.gen_range(0..cfg.words_per_bank as u64),
                        }
                    }
                    4..=6 => SequenceItem::Write {
                        bank: rng.gen_range(0..cfg.banks),
                        addr: rng.gen_range(0..cfg.words_per_bank as u64),
                        data: rng.gen(),
                        byte_en: 0b11,
                    },
                    7..=8 => {
                        reads_offered += 1; // one strobe under LA-1B
                        SequenceItem::Burst {
                            bank: rng.gen_range(0..cfg.banks),
                            addr: rng.gen_range(0..cfg.words_per_bank as u64 - 1),
                        }
                    }
                    _ => SequenceItem::Idle,
                });
            }
            let mut drv = Driver::new(&cfg);
            let mut seq = ItemScript(items);
            let mut last_read: Option<u64> = None;
            let mut reads_seen = 0u64;
            let mut idle_streak = 0u32;
            for c in 0..2_000u64 {
                let ops = drv.cycle_from(&mut seq);
                prop_assert!(ops.iter().filter(|o| o.is_read()).count() <= 1);
                prop_assert!(ops.iter().filter(|o| !o.is_read()).count() <= 1);
                if ops.iter().any(BankOp::is_read) {
                    if let Some(prev) = last_read {
                        prop_assert!(c - prev >= cfg.burst_len as u64);
                    }
                    last_read = Some(c);
                    reads_seen += 1;
                }
                idle_streak = if ops.is_empty() { idle_streak + 1 } else { 0 };
                if idle_streak > 4 {
                    break;
                }
            }
            // delayed, never dropped: every offered read strobe came out
            prop_assert_eq!(reads_seen, reads_offered);
        }

        /// The Zipf key generator replays exactly per seed.
        #[test]
        fn zipf_sampling_replays_per_seed(seed in any::<u64>()) {
            let zipf = ZipfKeys::new(64, 0.9);
            let draw = |s: u64| {
                let mut rng = StdRng::seed_from_u64(s);
                (0..128).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
            };
            prop_assert_eq!(draw(seed), draw(seed));
        }

        /// Broadcasting a scalar driver's state into 64 lanes lands on
        /// the snapshot a 64-lane replay of its operations reaches.
        #[test]
        fn broadcast_equals_a_64_lane_replay_for_any_preamble(
            banks in 1u32..5,
            burst in any::<bool>(),
            seed in any::<u64>(),
            cycles in 0usize..=400,
        ) {
            let cfg = if burst { LaConfig::la1b(banks) } else { LaConfig::new(banks) };
            let ((_, b), (_, r)) = broadcast_and_replay(&cfg, seed, cycles);
            prop_assert_eq!(b, r);
        }

        /// The Sequencer port of RandomMix stays byte-identical to the
        /// legacy Workload stream for every seed, not just the golden
        /// ones.
        #[test]
        fn randommix_sequencer_port_matches_workload(seed in 0u64..1_000) {
            let cfg = small_cfg(2);
            let mut legacy = RandomMix::new(&cfg, seed, 0.7, 0.5);
            let mut agent = Agent::new(&cfg, RandomMix::new(&cfg, seed, 0.7, 0.5));
            for _ in 0..150 {
                prop_assert_eq!(legacy.next_cycle(), agent.next_cycle());
            }
        }
    }
}

// ---- checkpoint / replay ----------------------------------------------------

mod checkpoint_tests {
    use super::*;
    use crate::checkpoint::{config_fingerprint, CheckpointError, LevelSnap, Snapshot, Trace};
    use crate::rtl_model::LaRtlBatchDriver;
    use la1_rtl::LANES;

    fn mix(cfg: &LaConfig, seed: u64, n: usize) -> Vec<Vec<BankOp>> {
        let mut w = RandomMix::new(cfg, seed, 0.45, 0.45);
        (0..n).map(|_| w.next_cycle()).collect()
    }

    /// The same stream with full-word byte enables (the ASM level
    /// abstracts byte control).
    fn full_be_mix(cfg: &LaConfig, seed: u64, n: usize) -> Vec<Vec<BankOp>> {
        let full = (1u32 << cfg.byte_enables()) - 1;
        mix(cfg, seed, n)
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|op| match op {
                        BankOp::Write {
                            bank, addr, data, ..
                        } => BankOp::write(bank, addr, data, full),
                        read => read,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systemc_checkpoint_restore_continues_identically() {
        let cfg = small_cfg(2);
        let ops = mix(&cfg, 11, 80);
        let mut orig = LaSystemC::new(&cfg);
        orig.attach_default_monitors();
        for c in &ops[..40] {
            orig.cycle(c);
        }
        let snap = Snapshot::of_systemc(&cfg, &orig).unwrap();
        let text = snap.to_jsonl();
        let parsed = Snapshot::parse(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_jsonl(), text, "re-serialization is byte-stable");
        let mut restored = parsed.into_systemc(&cfg).unwrap();
        assert_eq!(restored.cycles(), orig.cycles());
        for c in &ops[40..] {
            orig.cycle(c);
            restored.cycle(c);
            for b in 0..cfg.banks {
                assert_eq!(orig.bank_output(b), restored.bank_output(b));
                assert_eq!(orig.write_done(b), restored.write_done(b));
            }
        }
        assert_eq!(orig.violation_count(), restored.violation_count());
        assert_eq!(orig.violation_details(), restored.violation_details());
    }

    #[test]
    fn asm_checkpoint_restore_continues_identically() {
        let cfg = small_cfg(2);
        let ops = full_be_mix(&cfg, 13, 60);
        let mut orig = LaAsmModel::new(&cfg);
        for c in &ops[..30] {
            orig.cycle(c);
        }
        let snap = Snapshot::of_asm(&orig);
        let parsed = Snapshot::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        let mut restored = parsed.into_asm(&cfg).unwrap();
        for c in &ops[30..] {
            orig.cycle(c);
            restored.cycle(c);
            for b in 0..cfg.banks {
                assert_eq!(orig.bank_output(b), restored.bank_output(b));
                assert_eq!(orig.write_done(b), restored.write_done(b));
            }
        }
    }

    #[test]
    fn rtl_checkpoint_restore_continues_identically() {
        let cfg = small_cfg(2);
        let design = LaRtl::build(&cfg, None);
        let ops = mix(&cfg, 17, 60);
        let mut orig = LaRtlDriver::new(&design);
        for c in &ops[..30] {
            orig.cycle(c);
        }
        let snap = Snapshot::of_rtl(&orig).unwrap();
        let parsed = Snapshot::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        let mut restored = parsed.into_rtl(&design).unwrap();
        for c in &ops[30..] {
            orig.cycle(c);
            restored.cycle(c);
            for b in 0..cfg.banks {
                assert_eq!(orig.bank_output(b), restored.bank_output(b));
                assert_eq!(orig.write_done(b), restored.write_done(b));
            }
        }
    }

    #[test]
    fn rtl_ovl_checkpoint_restore_continues_identically() {
        let cfg = small_cfg(2);
        let design = LaRtl::build(&cfg, None);
        let ops = mix(&cfg, 19, 60);
        let mut orig = RtlWithOvl::new(&design);
        for c in &ops[..30] {
            orig.cycle(c);
        }
        let snap = Snapshot::of_rtl_ovl(&cfg, &orig).unwrap();
        let parsed = Snapshot::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        let mut restored = parsed.into_rtl_ovl(&design).unwrap();
        for c in &ops[30..] {
            orig.cycle(c);
            restored.cycle(c);
            for b in 0..cfg.banks {
                assert_eq!(orig.bank_output(b), restored.bank_output(b));
            }
        }
        assert_eq!(orig.violation_count(), restored.violation_count());
        assert_eq!(orig.violation_details(), restored.violation_details());
    }

    #[test]
    fn batched_checkpoint_restore_continues_identically() {
        let cfg = small_cfg(1);
        let design = LaRtl::build(&cfg, None);
        // two distinct lanes exercised, the rest idle
        let lane_a = mix(&cfg, 23, 40);
        let lane_b = mix(&cfg, 29, 40);
        let mut orig = LaRtlBatchDriver::new(&design);
        for i in 0..20 {
            orig.cycle(&[&lane_a[i], &lane_b[i]]);
        }
        let snap = Snapshot::of_rtl_batch(&orig).unwrap();
        let parsed = Snapshot::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        let mut restored = parsed.into_rtl_batch(&design).unwrap();
        for i in 20..40 {
            orig.cycle(&[&lane_a[i], &lane_b[i]]);
            restored.cycle(&[&lane_a[i], &lane_b[i]]);
            for lane in 0..LANES {
                for b in 0..cfg.banks {
                    assert_eq!(orig.bank_output(lane, b), restored.bank_output(lane, b));
                    assert_eq!(orig.write_done(lane, b), restored.write_done(lane, b));
                }
            }
        }
    }

    #[test]
    fn snapshot_truncation_at_every_byte_is_a_typed_error() {
        let cfg = small_cfg(1);
        let mut m = LaAsmModel::new(&cfg);
        for c in &full_be_mix(&cfg, 3, 10) {
            m.cycle(c);
        }
        let text = Snapshot::of_asm(&m).to_jsonl();
        for cut in 0..text.len() {
            let err =
                Snapshot::parse(&text[..cut]).expect_err("every proper prefix must fail to parse");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::Malformed { .. }
                ),
                "unexpected error at byte {cut}: {err}"
            );
        }
        assert!(Snapshot::parse(&text).is_ok());
    }

    #[test]
    fn trace_truncation_at_every_byte_is_a_typed_error() {
        let cfg = small_cfg(2);
        let mut trace = Trace::new(config_fingerprint("systemc", &cfg));
        for c in &mix(&cfg, 5, 8) {
            trace.record(c);
        }
        let text = trace.to_jsonl();
        for cut in 0..text.len() {
            assert!(
                Trace::parse(&text[..cut]).is_err(),
                "strict parse accepted a {cut}-byte prefix"
            );
        }
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn trace_recover_salvages_complete_cycles() {
        let cfg = small_cfg(2);
        let mut trace = Trace::new(config_fingerprint("rtl", &cfg));
        let ops = mix(&cfg, 7, 6);
        for c in &ops {
            trace.record(c);
        }
        let text = trace.to_jsonl();
        // full stream: complete
        let (full, complete) = Trace::recover(&text).unwrap();
        assert!(complete);
        assert_eq!(full, trace);
        // cut inside the footer: all cycles salvaged, marked incomplete
        let footer_start = text.rfind("{\"end\"").unwrap();
        let (salvaged, complete) = Trace::recover(&text[..footer_start + 5]).unwrap();
        assert!(!complete);
        assert_eq!(salvaged.cycles, trace.cycles);
        // cut inside the last cycle line: that cycle is dropped
        let lines: Vec<&str> = text.lines().collect();
        let upto_last_cycle: usize = lines[..lines.len() - 2].iter().map(|l| l.len() + 1).sum();
        let torn = &text[..upto_last_cycle + lines[lines.len() - 2].len() / 2];
        let (salvaged, complete) = Trace::recover(torn).unwrap();
        assert!(!complete);
        assert_eq!(
            salvaged.cycles,
            trace.cycles[..trace.cycles.len() - 1].to_vec()
        );
    }

    #[test]
    fn snapshot_rejects_wrong_fingerprint_and_version() {
        let cfg1 = small_cfg(1);
        let cfg2 = small_cfg(2);
        let m = LaAsmModel::new(&cfg1);
        let snap = Snapshot::of_asm(&m);
        // wrong configuration
        assert!(matches!(
            snap.into_asm(&cfg2),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // wrong level
        assert!(matches!(
            snap.into_systemc(&cfg1),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // wrong version
        let text = snap.to_jsonl().replace("\"version\": 1", "\"version\": 99");
        assert_eq!(
            Snapshot::parse(&text),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                expected: 1
            })
        );
        // wrong kind
        let text = snap.to_jsonl().replace("la1-snapshot", "la1-other");
        assert!(matches!(
            Snapshot::parse(&text),
            Err(CheckpointError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn snapshot_rejects_huge_section_counts_without_allocating() {
        // a section count read from the file sizes a loop, never an
        // allocation: each corrupt count runs out of sections and is a
        // typed error instead of a capacity-overflow panic or an abort
        let goldens = [
            (
                include_str!("../golden/snapshot_systemc_2bank_seed41.jsonl"),
                "\"banks\": 2",
            ),
            (
                include_str!("../golden/snapshot_systemc_2bank_seed41.jsonl"),
                "\"monitors\": 10",
            ),
            (
                include_str!("../golden/snapshot_rtl_2bank_seed41.jsonl"),
                "\"rams\": 39",
            ),
            (
                include_str!("../golden/snapshot_rtl_ovl_2bank_seed41.jsonl"),
                "\"instances\": 10",
            ),
            (
                include_str!("../golden/snapshot_rtl_batch_2bank_seed41.jsonl"),
                "\"rams\": 39",
            ),
        ];
        for (text, field) in goldens {
            assert!(text.contains(field), "golden lacks {field}");
            let key = field.split(':').next().unwrap();
            for count in [u64::MAX, 1 << 40] {
                let corrupt = text.replacen(field, &format!("{key}: {count}"), 1);
                assert!(
                    Snapshot::parse(&corrupt).is_err(),
                    "{key} = {count} was accepted"
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_states_a_model_cannot_step() {
        // these parse, but the next cycle would panic on a value of the
        // wrong kind or an address outside the bank: restoring refuses
        // them and leaves the model it refused them into unchanged
        let cfg = small_cfg(2);
        let asm = include_str!("../golden/snapshot_asm_2bank_seed41.jsonl");
        let names = LaAsmModel::new(&cfg).machine().var_names().to_vec();
        for (name, value) in [
            ("rv2_0", r#"{"t": "i", "v": 1}"#),
            ("ra2_0", r#"{"t": "i", "v": 99}"#),
            ("ra2_0", r#"{"t": "i", "v": -1}"#),
            ("ra1_1", r#"{"t": "i", "v": 4}"#),
            ("wa_1", r#"{"t": "i", "v": 4}"#),
        ] {
            let index = names.iter().position(|n| n == name).expect("declared");
            let (start, _) = asm
                .match_indices(r#"{"t": "#)
                .nth(index)
                .expect("in golden");
            let end = start + asm[start..].find('}').expect("closed") + 1;
            let corrupt = format!("{}{value}{}", &asm[..start], &asm[end..]);
            let snap = Snapshot::parse(&corrupt).expect("the edited golden parses");
            assert!(snap.into_asm(&cfg).is_err(), "{name} = {value} restored");
            let LevelSnap::Asm(state) = &snap.payload else {
                unreachable!("an asm golden")
            };
            let mut model = LaAsmModel::new(&cfg);
            let before = model.snapshot_state();
            assert!(model.restore_state(state).is_err());
            assert_eq!(model.snapshot_state(), before, "{name} = {value}");
        }
        let sc = include_str!("../golden/snapshot_systemc_2bank_seed41.jsonl");
        for field in ["rd_addr", "wr_addr", "ra1", "ra2", "wa_c", "beat2_addr"] {
            // bank 0's line comes first
            let key = format!("\"{field}\": ");
            let (head, tail) = sc.split_once(&key).expect("in golden");
            let digits = tail.find(|c: char| !c.is_ascii_digit()).expect("a number");
            let corrupt = format!("{head}{key}99{}", &tail[digits..]);
            let snap = Snapshot::parse(&corrupt).expect("the edited golden parses");
            assert!(snap.into_systemc(&cfg).is_err(), "{field} = 99 restored");
            let LevelSnap::SystemC(state) = &snap.payload else {
                unreachable!("a systemc golden")
            };
            let mut model = LaSystemC::new(&cfg);
            model.attach_default_monitors();
            let before = model.snapshot_state().expect("settled");
            assert!(model.restore_state(state).is_err());
            assert_eq!(
                model.snapshot_state().expect("settled"),
                before,
                "{field} = 99"
            );
        }
    }

    #[test]
    fn trace_replays_into_a_model() {
        let cfg = small_cfg(2);
        let ops = mix(&cfg, 31, 25);
        let mut recorded = Trace::new(config_fingerprint("systemc", &cfg));
        let mut direct = LaSystemC::new(&cfg);
        for c in &ops {
            recorded.record(c);
            direct.cycle(c);
        }
        let mut replayed = LaSystemC::new(&cfg);
        recorded.replay_into(&mut replayed);
        assert_eq!(replayed.cycles(), direct.cycles());
        for b in 0..cfg.banks {
            assert_eq!(replayed.bank_output(b), direct.bank_output(b));
        }
    }

    /// Compares one serialized artifact against its committed golden
    /// file, or regenerates it under `UPDATE_GOLDEN=1`.
    fn check_golden(name: &str, golden: &str, text: &str) {
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, text).expect("update golden file");
            return;
        }
        assert_eq!(
            text, golden,
            "serialized {name} drifted from the committed golden              (crates/core/golden/{name}); the snapshot format is a              persistence contract — old checkpoints must stay loadable.              If the change is intentional, bump SNAPSHOT_VERSION and              regenerate with UPDATE_GOLDEN=1 cargo test -p la1-core"
        );
    }

    #[test]
    fn serialized_checkpoints_match_committed_goldens() {
        // one fixed seeded state per level: the byte-level format
        // contract, pinned in version control
        let cfg = small_cfg(2);
        let design = LaRtl::build(&cfg, None);
        let ops = mix(&cfg, 41, 50);
        let full = full_be_mix(&cfg, 41, 50);

        let mut asm = crate::asm_model::LaAsmModel::new(&cfg);
        full.iter().for_each(|c| asm.cycle(c));
        check_golden(
            "snapshot_asm_2bank_seed41.jsonl",
            include_str!("../golden/snapshot_asm_2bank_seed41.jsonl"),
            &Snapshot::of_asm(&asm).to_jsonl(),
        );

        let mut sc = LaSystemC::new(&cfg);
        sc.attach_default_monitors();
        ops.iter().for_each(|c| sc.cycle(c));
        check_golden(
            "snapshot_systemc_2bank_seed41.jsonl",
            include_str!("../golden/snapshot_systemc_2bank_seed41.jsonl"),
            &Snapshot::of_systemc(&cfg, &sc).unwrap().to_jsonl(),
        );

        let mut rtl = LaRtlDriver::new(&design);
        ops.iter().for_each(|c| rtl.cycle(c));
        check_golden(
            "snapshot_rtl_2bank_seed41.jsonl",
            include_str!("../golden/snapshot_rtl_2bank_seed41.jsonl"),
            &Snapshot::of_rtl(&rtl).unwrap().to_jsonl(),
        );

        let mut ovl = RtlWithOvl::new(&design);
        ops.iter().for_each(|c| ovl.cycle(c));
        check_golden(
            "snapshot_rtl_ovl_2bank_seed41.jsonl",
            include_str!("../golden/snapshot_rtl_ovl_2bank_seed41.jsonl"),
            &Snapshot::of_rtl_ovl(&cfg, &ovl).unwrap().to_jsonl(),
        );

        let mut batch = LaRtlBatchDriver::new(&design);
        for c in &ops[..20] {
            let lanes: Vec<&[BankOp]> = (0..LANES).map(|_| c.as_slice()).collect();
            batch.cycle(&lanes);
        }
        check_golden(
            "snapshot_rtl_batch_2bank_seed41.jsonl",
            include_str!("../golden/snapshot_rtl_batch_2bank_seed41.jsonl"),
            &Snapshot::of_rtl_batch(&batch).unwrap().to_jsonl(),
        );

        let mut trace = Trace::new(config_fingerprint("rtl", &cfg));
        ops[..20].iter().for_each(|c| trace.record(c));
        check_golden(
            "trace_rtl_2bank_seed41.jsonl",
            include_str!("../golden/trace_rtl_2bank_seed41.jsonl"),
            &trace.to_jsonl(),
        );
    }

    /// One directive per obligation kind a monitor can hold: `Defer`
    /// behind `next[2]` and `next!`, `Never`, `Eventually`, `SereStrong`
    /// and a nested `SuffixImpl` spawned as consequents, strong `Until`,
    /// `Before`, and a fused SERE.
    const OBLIGATION_DIRECTIVES: [&str; 9] = [
        "assert d1 : always {rd0} |=> next[2] dv0",
        "assert d2 : always (wr0 -> next! wdone0)",
        "assert d3 : never {rd0 ; wr0[*] ; dv0}",
        "cover  d4 : eventually! {rd0 ; dv0}",
        "assert d5 : always {wr0} |=> {rd0 ; dv0}!",
        "assert d6 : always (rd0 -> (wr0 until! dv0))",
        "assert d7 : always (wr0 -> (rd0 before dv0))",
        "assert d8 : always {rd0 ; !rd0} |-> ({dv0} |=> next !dv0)",
        "assert d9 : always {wr0 : wdone0} |=> !perr0",
    ];

    fn obligation_model(cfg: &LaConfig) -> LaSystemC {
        let dirs: Vec<_> = OBLIGATION_DIRECTIVES
            .iter()
            .map(|src| la1_psl::parse_directive(src).expect("directive parses"))
            .collect();
        let mut sc = LaSystemC::new(cfg);
        sc.attach_monitors(&dirs).unwrap();
        sc
    }

    #[test]
    fn monitor_obligation_snapshots_match_golden_and_restore() {
        let cfg = small_cfg(1);
        // cuts where, between them, every directive holds its
        // characteristic obligation across the cycle boundary
        let cuts = [5, 26, 40];
        let ops = mix(&cfg, 41, 70);
        let mut straight = obligation_model(&cfg);
        let mut text = String::new();
        let mut snaps = Vec::new();
        for (i, c) in ops[..40].iter().enumerate() {
            straight.cycle(c);
            if cuts.contains(&(i + 1)) {
                let snap = Snapshot::of_systemc(&cfg, &straight).unwrap();
                text.push_str(&snap.to_jsonl());
                snaps.push(snap);
            }
        }
        check_golden(
            "snapshot_systemc_monitors_1bank_seed41.jsonl",
            include_str!("../golden/snapshot_systemc_monitors_1bank_seed41.jsonl"),
            &text,
        );
        // every directive's characteristic obligation is live in at
        // least one of the snapshots
        for (name, needle) in [
            ("d1", "\"ob\": \"defer\", \"remaining\": 1"),
            ("d2", "\"strong\": true"),
            ("d3", "\"ob\": \"never\""),
            ("d4", "\"ob\": \"eventually\""),
            ("d5", "\"ob\": \"sere-strong\""),
            ("d6", "\"ob\": \"until\""),
            ("d7", "\"ob\": \"before\""),
            ("d8", "\"persistent\": false"),
            ("d9", "\"ob\": \"suffix-impl\""),
        ] {
            let tag = format!("\"name\": \"{name}\"");
            assert!(
                text.lines().any(|l| l.contains(&tag) && l.contains(needle)),
                "{name}: no snapshot holds {needle}"
            );
        }
        // each snapshot, restored by hand into a model with the same
        // directives, continues exactly like the uninterrupted run
        for (cut, snap) in cuts.into_iter().zip(&snaps) {
            let parsed = Snapshot::parse(&snap.to_jsonl()).unwrap();
            let LevelSnap::SystemC(state) = &parsed.payload else {
                panic!("systemc snapshot expected");
            };
            let mut orig = obligation_model(&cfg);
            ops[..cut].iter().for_each(|c| orig.cycle(c));
            let mut restored = obligation_model(&cfg);
            restored.restore_state(state).unwrap();
            for c in &ops[cut..cut + 30] {
                orig.cycle(c);
                restored.cycle(c);
                assert_eq!(orig.violations(), restored.violations(), "cut {cut}");
            }
            assert_eq!(
                restored.snapshot_state().unwrap(),
                orig.snapshot_state().unwrap(),
                "cut {cut}: verdicts, failed_at or obligations diverged"
            );
        }
    }

    #[test]
    fn committed_golden_snapshots_still_restore() {
        // loadability, not just byte identity: each committed golden
        // must parse and restore into a live model of its level
        let cfg = small_cfg(2);
        let design = LaRtl::build(&cfg, None);
        let asm = Snapshot::parse(include_str!("../golden/snapshot_asm_2bank_seed41.jsonl"))
            .expect("parse asm golden");
        assert_eq!(asm.into_asm(&cfg).expect("restore asm golden").cycles(), 50);
        let sc = Snapshot::parse(include_str!(
            "../golden/snapshot_systemc_2bank_seed41.jsonl"
        ))
        .expect("parse systemc golden");
        assert_eq!(
            sc.into_systemc(&cfg)
                .expect("restore systemc golden")
                .cycles(),
            50
        );
        let rtl = Snapshot::parse(include_str!("../golden/snapshot_rtl_2bank_seed41.jsonl"))
            .expect("parse rtl golden");
        assert_eq!(
            rtl.into_rtl(&design).expect("restore rtl golden").cycles(),
            50
        );
        let ovl = Snapshot::parse(include_str!(
            "../golden/snapshot_rtl_ovl_2bank_seed41.jsonl"
        ))
        .expect("parse rtl+ovl golden");
        assert_eq!(
            ovl.into_rtl_ovl(&design)
                .expect("restore rtl+ovl golden")
                .cycles(),
            50
        );
        let batch = Snapshot::parse(include_str!(
            "../golden/snapshot_rtl_batch_2bank_seed41.jsonl"
        ))
        .expect("parse batch golden");
        batch.into_rtl_batch(&design).expect("restore batch golden");
        let trace = Trace::parse(include_str!("../golden/trace_rtl_2bank_seed41.jsonl"))
            .expect("parse trace golden");
        assert_eq!(trace.cycles.len(), 20);
        let mut replayed = LaRtlDriver::new(&design);
        trace.replay_into(&mut replayed);
        assert_eq!(replayed.cycles(), 20);
    }
}
