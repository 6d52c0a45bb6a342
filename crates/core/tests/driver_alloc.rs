//! Steady-state LA-1 driver cycles must not touch the heap: the op
//! decode, edge staging and DDR merge of both driver instances work in
//! place, on top of the simulator's own allocation-free stepping. The
//! same holds for the SystemC model with its PSL monitors attached, and
//! for OVL monitors sampling through a probe pass, on the scalar driver
//! and on all 64 lanes of the batched one. A counting global allocator
//! proves it.

#[path = "../../rtl/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs_on_this_thread;
use la1_core::cycle_model::{CycleModel, RtlWithOvl};
use la1_core::harness::attach_la1_ovl;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::workloads::{RandomMix, Workload};
use la1_ovl::OvlBench;
use la1_rtl::LANES;

/// Cycles in the warm-up window, and again in the measured one.
const CYCLES: usize = 200;

/// `2 * CYCLES` cycles of seeded random traffic for each of `lanes`
/// streams, built before anything is measured.
fn traffic(cfg: &LaConfig, lanes: usize) -> Vec<Vec<Vec<BankOp>>> {
    (0..lanes as u64)
        .map(|lane| {
            let mut mix = RandomMix::new(cfg, 0xD21 + lane, 0.5, 0.5);
            (0..2 * CYCLES).map(|_| mix.next_cycle()).collect()
        })
        .collect()
}

#[test]
fn scalar_driver_cycles_do_not_allocate() {
    for banks in [1, 2, 4] {
        let cfg = LaConfig::new(banks);
        let mut driver = LaRtlDriver::new(&LaRtl::build(&cfg, None));
        let ops = &traffic(&cfg, 1)[0];
        for cycle in &ops[..CYCLES] {
            driver.cycle(cycle);
        }
        let before = allocs_on_this_thread();
        for cycle in &ops[CYCLES..] {
            driver.cycle(cycle);
        }
        let allocs = allocs_on_this_thread() - before;
        assert_eq!(
            allocs, 0,
            "{banks} bank(s): {allocs} allocations in {CYCLES} cycles"
        );
    }
}

#[test]
fn batched_driver_cycles_do_not_allocate() {
    for banks in [1, 2, 4] {
        let cfg = LaConfig::new(banks);
        let mut driver = LaRtlBatchDriver::new(&LaRtl::build(&cfg, None));
        let lanes = traffic(&cfg, LANES);
        let cycles: Vec<Vec<&[BankOp]>> = (0..2 * CYCLES)
            .map(|c| lanes.iter().map(|lane| lane[c].as_slice()).collect())
            .collect();
        for refs in &cycles[..CYCLES] {
            driver.cycle(refs);
        }
        let before = allocs_on_this_thread();
        for refs in &cycles[CYCLES..] {
            driver.cycle(refs);
        }
        let allocs = allocs_on_this_thread() - before;
        assert_eq!(
            allocs, 0,
            "{banks} bank(s): {allocs} allocations in {CYCLES} cycles"
        );
    }
}

#[test]
fn systemc_monitor_cycles_do_not_allocate() {
    let cfg = LaConfig::new(4);
    let mut mix = RandomMix::new(&cfg, 0xD21, 0.6, 0.4);
    let ops: Vec<Vec<BankOp>> = (0..1_100).map(|_| mix.next_cycle()).collect();
    let mut model = LaSystemC::new(&cfg);
    model.attach_default_monitors();
    for cycle in &ops[..100] {
        model.cycle(cycle);
    }
    let before = allocs_on_this_thread();
    for cycle in &ops[100..] {
        model.cycle(cycle);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(allocs, 0, "{allocs} allocations in 1,000 monitored cycles");
}

#[test]
fn rtl_ovl_cycles_do_not_allocate() {
    let cfg = LaConfig::new(4);
    let mut mix = RandomMix::new(&cfg, 0xD21, 0.6, 0.4);
    let ops: Vec<Vec<BankOp>> = (0..1_100).map(|_| mix.next_cycle()).collect();
    let mut model = RtlWithOvl::new(&LaRtl::build(&cfg, None));
    for cycle in &ops[..100] {
        model.cycle(cycle);
    }
    let before = allocs_on_this_thread();
    for cycle in &ops[100..] {
        model.cycle(cycle);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations in 1,000 OVL-monitored cycles"
    );
    assert_eq!(model.violation_count(), 0);
}

#[test]
fn batched_ovl_lane_sampling_does_not_allocate() {
    let cfg = LaConfig::new(4);
    let design = LaRtl::build(&cfg, None);
    let mut driver = LaRtlBatchDriver::new(&design);
    let mut benches: Vec<OvlBench> = (0..LANES)
        .map(|_| {
            let mut bench = OvlBench::new();
            attach_la1_ovl(&mut bench, &design);
            bench
        })
        .collect();
    let mut pass = driver.sim_mut().probe_pass(benches[0].exprs());
    let lanes = traffic(&cfg, LANES);
    let cycles: Vec<Vec<&[BankOp]>> = (0..2 * CYCLES)
        .map(|c| lanes.iter().map(|lane| lane[c].as_slice()).collect())
        .collect();
    let mut run = |refs: &[&[BankOp]]| {
        driver.cycle_with(refs, |sim| {
            let probed = sim.run_probes(&mut pass);
            for (lane, bench) in benches.iter_mut().enumerate() {
                bench.on_cycle_from(&probed, lane);
            }
        })
    };
    for refs in &cycles[..CYCLES] {
        run(refs);
    }
    let before = allocs_on_this_thread();
    for refs in &cycles[CYCLES..] {
        run(refs);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations in {CYCLES} cycles of 64 benches"
    );
    assert!(benches.iter().all(|b| b.violations().is_empty()));
}
