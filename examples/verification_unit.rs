//! The paper's second deployment mode: the LA-1 IP as a **verification
//! unit** "to validate other LA-1 Interface compatible devices".
//!
//! A third-party device model (here: an RTL build with a deliberately
//! broken parity generator, standing in for a vendor's device under
//! test) is exercised with reference traffic while:
//!
//! * the golden SystemC model runs in lockstep as a scoreboard,
//! * the PSL monitors watch the golden side,
//! * the OVL monitors watch the device under test.
//!
//! The injected fault is caught by the OVL parity monitor and by the
//! output comparison — without the verification unit, the corrupt
//! parity would reach the network processor silently.
//!
//! Run with `cargo run --release --example verification_unit`.

use la1_core::harness::attach_la1_ovl;
use la1_core::rtl_model::{LaRtl, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::LaConfig;
use la1_core::workloads::{RandomMix, Workload};
use la1_ovl::OvlBench;

fn main() {
    let cfg = LaConfig::new(2);

    // the "vendor device": an LA-1 implementation with a parity bug on
    // bank 1
    let dut = LaRtl::build(&cfg, Some(1));
    let mut dut_drv = LaRtlDriver::new(&dut);
    let mut ovl = OvlBench::new();
    attach_la1_ovl(&mut ovl, &dut);

    // the golden reference (our verified IP) as a scoreboard
    let mut golden = LaSystemC::new(&cfg);
    golden.attach_default_monitors();

    let mut traffic = RandomMix::new(&cfg, 99, 0.6, 0.5);
    let mut data_mismatches = 0u32;
    let cycles = 400;
    for _ in 0..cycles {
        let ops = traffic.next_cycle();
        golden.cycle(&ops);
        dut_drv.cycle_with(&ops, |sim| {
            ovl.on_cycle(sim);
        });
        for b in 0..cfg.banks {
            if golden.bank_output(b) != dut_drv.bank_output(b) {
                data_mismatches += 1;
            }
        }
    }

    println!("verification unit report after {cycles} cycles:");
    println!(
        "  golden model PSL monitors : {} violations (reference is clean)",
        golden.violations().len()
    );
    println!(
        "  device-under-test OVL     : {} violations",
        ovl.violations().len()
    );
    for (name, kind, failures) in ovl.report() {
        if failures > 0 {
            println!("    {name} ({}) fired {failures} times", kind.ovl_name());
        }
    }
    println!("  scoreboard data mismatches: {data_mismatches}");

    assert!(
        golden.violations().is_empty(),
        "the golden IP must be clean"
    );
    assert!(
        ovl.violations()
            .iter()
            .any(|v| v.monitor.contains("parity_1")),
        "the DUT's bank-1 parity bug must be caught"
    );
    println!("\nthe vendor device's parity bug was caught by the verification unit");
}
