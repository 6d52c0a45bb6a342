//! The paper's motivating workload: IPv6 packet classification through
//! a look-aside table.
//!
//! A network processor streams packet flow tuples; each is hashed into
//! a classification-table address and looked up through the LA-1
//! interface while the control plane occasionally rewrites entries.
//! The PSL monitors stay attached the whole time — assertion-based
//! verification in the field, as the paper intends the IP to be used.
//!
//! Run with `cargo run --example packet_lookup`.

use la1_core::properties::cycle_properties;
use la1_core::sc_model::LaSystemC;
use la1_core::spec::LaConfig;
use la1_core::workloads::{PacketLookup, Workload};

fn main() {
    let cfg = LaConfig::new(4);
    let mut la1 = LaSystemC::new(&cfg);
    la1.attach_monitors(&cycle_properties(cfg.banks))
        .expect("the suite reads the model's signals");

    let mut traffic = PacketLookup::new(&cfg, 0xBEEF, 0.8, 0.05, 64);
    let cycles = 5_000u64;
    let mut lookups = 0u64;
    let mut updates = 0u64;
    let mut hits = 0u64;

    for _ in 0..cycles {
        let ops = traffic.next_cycle();
        for op in &ops {
            if op.is_read() {
                lookups += 1;
            } else {
                updates += 1;
            }
        }
        la1.cycle(&ops);
        for b in 0..cfg.banks {
            if la1.bank_output(b).is_some_and(|w| w != 0) {
                hits += 1;
            }
        }
    }

    println!("packet classification over LA-1 ({} banks):", cfg.banks);
    println!("  cycles simulated : {cycles}");
    println!("  table lookups    : {lookups}");
    println!("  table updates    : {updates}");
    println!("  non-empty results: {hits}");
    println!(
        "  kernel activity  : {} process activations",
        la1.activations()
    );
    println!(
        "  PSL monitors     : {} attached, {} violations",
        cfg.banks * 5,
        la1.violations().len()
    );
    assert!(la1.violations().is_empty(), "{:?}", la1.violations());
    println!("all assertions held");
}
