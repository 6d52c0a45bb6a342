//! Quickstart: build a 1-bank LA-1 at the SystemC level, attach the PSL
//! monitors, run a write-then-read, and watch everything stay green.
//!
//! Run with `cargo run --example quickstart`.

use la1_core::properties::cycle_properties;
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};

fn main() {
    let cfg = LaConfig::new(1);
    println!(
        "LA-1 device: {} bank(s), {} x {}-bit words, read latency {} cycles",
        cfg.banks,
        cfg.words_per_bank,
        cfg.word_width,
        la1_core::spec::READ_LATENCY
    );

    let mut la1 = LaSystemC::new(&cfg);
    la1.attach_monitors(&cycle_properties(cfg.banks))
        .expect("the suite reads the model's signals");

    // cycle 0: write 0xCAFEF00D to word 3 (all byte enables)
    la1.cycle(&[BankOp::write(0, 3, 0xCAFE_F00D, 0b1111)]);
    println!("cycle 0: W# asserted, addr=3, data=0xCAFEF00D");

    // cycle 1: read word 3 — concurrently with another write (a
    // headline LA-1 feature: concurrent read and write)
    la1.cycle(&[BankOp::read(0, 3), BankOp::write(0, 4, 0x1111_2222, 0b1111)]);
    println!("cycle 1: R# asserted addr=3, concurrent W# addr=4");

    // cycles 2-3: the read's SRAM access, then data out on both edges
    la1.cycle(&[]);
    println!("cycle 2: SRAM access");
    la1.cycle(&[]);
    let word = la1.bank_output(0).expect("data valid in cycle 3");
    println!("cycle 3: QVLD high, Q = {word:#010x} (two DDR halves merged)");
    assert_eq!(word, 0xCAFE_F00D);

    println!(
        "\n{} PSL monitors ran for {} cycles: {} violations",
        cfg.banks * 5,
        la1.cycles(),
        la1.violations().len()
    );
    assert!(la1.violations().is_empty());
    println!("quickstart passed");
}
