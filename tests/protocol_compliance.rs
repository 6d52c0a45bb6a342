//! Pin-level protocol scenarios, each run against both the SystemC and
//! RTL models with exact per-cycle expectations — the cross-level
//! compliance suite a standards body would ship with the IP.

use la1_suite::core::rtl_model::{LaRtl, LaRtlDriver};
use la1_suite::core::sc_model::LaSystemC;
use la1_suite::core::spec::{BankOp, LaConfig};

/// Drives both models through `script` and checks `bank_output(bank)`
/// against `expected` after every cycle.
fn run_scenario(
    cfg: &LaConfig,
    bank: u32,
    script: &[Vec<BankOp>],
    expected: &[Option<u64>],
    name: &str,
) {
    assert_eq!(script.len(), expected.len(), "{name}: script/expectation");
    let mut sc = LaSystemC::new(cfg);
    let rtl = LaRtl::build(cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    for (cycle, (ops, want)) in script.iter().zip(expected).enumerate() {
        sc.cycle(ops);
        drv.cycle(ops);
        assert_eq!(
            sc.bank_output(bank),
            *want,
            "{name}: SystemC, cycle {cycle}"
        );
        assert_eq!(drv.bank_output(bank), *want, "{name}: RTL, cycle {cycle}");
    }
}

#[test]
fn scenario_single_read_after_write() {
    let cfg = LaConfig::new(1);
    run_scenario(
        &cfg,
        0,
        &[
            vec![BankOp::write(0, 3, 0x0102_0304, 0b1111)],
            vec![BankOp::read(0, 3)],
            vec![],
            vec![],
            vec![],
        ],
        &[None, None, None, Some(0x0102_0304), None],
        "single_read_after_write",
    );
}

#[test]
fn scenario_back_to_back_reads_pipeline() {
    // three reads on consecutive cycles: outputs appear on three
    // consecutive cycles, fully pipelined
    let cfg = LaConfig::new(1);
    run_scenario(
        &cfg,
        0,
        &[
            vec![BankOp::write(0, 0, 0xA0, 0b1111)],
            vec![BankOp::write(0, 1, 0xA1, 0b1111)],
            vec![BankOp::write(0, 2, 0xA2, 0b1111)],
            vec![BankOp::read(0, 0)],
            vec![BankOp::read(0, 1)],
            vec![BankOp::read(0, 2)],
            vec![],
            vec![],
            vec![],
        ],
        &[
            None,
            None,
            None,
            None,
            None,
            Some(0xA0),
            Some(0xA1),
            Some(0xA2),
            None,
        ],
        "back_to_back_reads",
    );
}

#[test]
fn scenario_byte_enable_sweep() {
    // every byte-enable pattern writes exactly its bytes
    let cfg = LaConfig::new(1);
    for be in 1u32..16 {
        let mask = cfg.bit_mask_of(be);
        let base = 0xFFFF_FFFFu64;
        let newv = 0x1122_3344u64;
        let want = (base & !mask) | (newv & mask);
        run_scenario(
            &cfg,
            0,
            &[
                vec![BankOp::write(0, 1, base, 0b1111)],
                vec![],
                vec![BankOp::write(0, 1, newv, be)],
                vec![BankOp::read(0, 1)],
                vec![],
                vec![],
            ],
            &[None, None, None, None, None, Some(want)],
            &format!("byte_enable_{be:04b}"),
        );
    }
}

#[test]
fn scenario_interleaved_banks() {
    // reads and writes ping-pong between two banks without interference
    let cfg = LaConfig::new(2);
    run_scenario(
        &cfg,
        0,
        &[
            vec![BankOp::write(0, 0, 0xB0, 0b1111)],
            vec![BankOp::write(1, 0, 0xB1, 0b1111)],
            vec![BankOp::read(0, 0), BankOp::write(1, 1, 0xC1, 0b1111)],
            vec![BankOp::read(1, 0), BankOp::write(0, 1, 0xC0, 0b1111)],
            vec![BankOp::read(0, 1)],
            vec![BankOp::read(1, 1)],
            vec![],
            vec![],
        ],
        &[
            None,
            None,
            None,
            None,
            Some(0xB0), // bank 0's read of cycle 2
            None,
            Some(0xC0), // bank 0's read of cycle 4
            None,
        ],
        "interleaved_banks_bank0",
    );
}

#[test]
fn scenario_same_cycle_read_write_other_bank() {
    // concurrent read (bank 0) and write (bank 1): neither disturbs the
    // other — the headline concurrent-operation feature across banks
    let cfg = LaConfig::new(2);
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    let prologue = [vec![BankOp::write(0, 2, 0xDD, 0b1111)], vec![]];
    for ops in &prologue {
        sc.cycle(ops);
        drv.cycle(ops);
    }
    let concurrent = vec![BankOp::read(0, 2), BankOp::write(1, 2, 0xEE, 0b1111)];
    sc.cycle(&concurrent);
    drv.cycle(&concurrent);
    for _ in 0..2 {
        sc.cycle(&[]);
        drv.cycle(&[]);
    }
    assert_eq!(sc.bank_output(0), Some(0xDD));
    assert_eq!(drv.bank_output(0), Some(0xDD));
    // and the bank-1 write landed
    let check = vec![BankOp::read(1, 2)];
    sc.cycle(&check);
    drv.cycle(&check);
    sc.cycle(&[]);
    drv.cycle(&[]);
    sc.cycle(&[]);
    drv.cycle(&[]);
    assert_eq!(sc.bank_output(1), Some(0xEE));
    assert_eq!(drv.bank_output(1), Some(0xEE));
}

#[test]
fn scenario_burst_pair_both_levels() {
    let cfg = LaConfig::la1b(1);
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    let script: Vec<Vec<BankOp>> = vec![
        vec![BankOp::write(0, 4, 0x44, 0b1111)],
        vec![BankOp::write(0, 5, 0x55, 0b1111)],
        vec![BankOp::read(0, 4)],
        vec![],
        vec![],
        vec![],
        vec![],
    ];
    let expected = [
        None,
        None,
        None,
        None,
        Some(0x44), // first beat
        Some(0x55), // auto-incremented second beat
        None,
    ];
    for (cycle, (ops, want)) in script.iter().zip(&expected).enumerate() {
        sc.cycle(ops);
        drv.cycle(ops);
        assert_eq!(sc.bank_output(0), *want, "sc cycle {cycle}");
        assert_eq!(drv.bank_output(0), *want, "rtl cycle {cycle}");
    }
}

#[test]
fn scenario_write_to_all_words_then_readback() {
    let cfg = LaConfig {
        banks: 1,
        words_per_bank: 8,
        word_width: 32,
        mc_addr_domain: vec![0, 1],
        mc_data_domain: vec![0, 1],
        burst_len: 1,
    };
    let mut sc = LaSystemC::new(&cfg);
    let rtl = LaRtl::build(&cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    for a in 0..8u64 {
        let ops = vec![BankOp::write(0, a, 0x1000 + a * 3, 0b1111)];
        sc.cycle(&ops);
        drv.cycle(&ops);
    }
    for a in 0..8u64 {
        let ops = vec![BankOp::read(0, a)];
        sc.cycle(&ops);
        drv.cycle(&ops);
        // read of address a-2 completes while read a issues
        if a >= 2 {
            let want = Some(0x1000 + (a - 2) * 3);
            assert_eq!(sc.bank_output(0), want);
            assert_eq!(drv.bank_output(0), want);
        }
    }
}
