//! ASM-level model checking with a deliberate bug: demonstrates the
//! paper's counterexample machinery.
//!
//! First the healthy model is explored with all interface properties —
//! everything passes. Then a *wrong* property (claiming 1-cycle read
//! latency instead of 2) is checked; the explorer's stop filter
//! `P_status && !P_value` cuts a path and reports it as a
//! counterexample trace.
//!
//! Run with `cargo run --example model_check_asm`.

use la1_asm::{ExploreConfig, Explorer};
use la1_core::asm_model::LaAsmModel;
use la1_core::spec::LaConfig;
use la1_psl::parse_directive;

fn main() {
    let cfg = LaConfig {
        banks: 1,
        words_per_bank: 4,
        word_width: 16,
        mc_addr_domain: vec![0, 1],
        mc_data_domain: vec![0, 0x5A5A],
        burst_len: 1,
    };
    let model = LaAsmModel::new(&cfg);

    // 1. the paper's property suite on the healthy model
    let result = model.model_check(ExploreConfig {
        max_states: 30_000,
        ..ExploreConfig::default()
    });
    println!(
        "exploration: {} states, {} transitions in {:?}",
        result.stats.states, result.stats.transitions, result.stats.elapsed
    );
    for report in &result.reports {
        println!(
            "  {:<20} {}",
            report.name,
            if report.outcome.is_pass() {
                "pass"
            } else {
                "FAIL"
            }
        );
    }
    assert!(result.all_pass());

    // 2. a wrong specification: data valid only ONE cycle after a read
    println!("\nchecking a deliberately wrong property (latency 1):");
    let wrong = parse_directive("assert wrong_latency : always {rd0} |=> dv0").unwrap();
    let result = Explorer::new(model.machine(), ExploreConfig::default())
        .with_directives(&[wrong])
        .run();
    let cex = result
        .first_counterexample()
        .expect("the wrong property must be violated");
    println!("{}", cex.render(model.machine()));
    println!("the read needs 2 cycles (Fig. 3), so `|=> dv0` is violated");
}
