//! Symbolic model checking of the RTL read mode, 1 to 4 banks —
//! the Table 2 phenomenon, live.
//!
//! The monolithic (RuleBase-1.5-era) image strategy proves the read-mode
//! property for 1-3 banks with sharply growing BDD cost, then exhausts
//! its node budget at 4 banks: **state explosion**. The partitioned
//! strategy (an ablation) peaks higher at 1 and 2 banks and exhausts the
//! same budget at 3, so it runs only up to 2 banks here.
//!
//! Run with `cargo run --release --example rulebase_rtl`.

use la1_core::properties::rtl_read_mode_property;
use la1_core::rtl_model::LaRtl;
use la1_core::spec::LaConfig;
use la1_smc::{ModelChecker, SmcConfig, SmcOutcome, Strategy};

fn main() {
    let budget = 40_000_000;
    println!("read-mode property: {}", rtl_read_mode_property().property);
    println!("node budget: {budget}\n");
    for strategy in [Strategy::Monolithic, Strategy::Partitioned] {
        println!("strategy: {strategy:?}");
        // the partitioned ablation explodes at 3 banks after 35-40 s; 4
        // banks is the monolithic strategy's explosion row
        let max_banks = match strategy {
            Strategy::Monolithic => 4,
            Strategy::Partitioned => 2,
        };
        for banks in 1..=max_banks {
            let cfg = LaConfig::mc_small(banks);
            let rtl = LaRtl::build(&cfg, None);
            let ts = rtl.extract();
            let report = ModelChecker::new(
                &ts,
                SmcConfig {
                    strategy,
                    node_budget: budget,
                    ..SmcConfig::default()
                },
            )
            .check(&rtl_read_mode_property())
            .expect("safety property");
            let outcome = match report.outcome {
                SmcOutcome::Proved => "proved".to_string(),
                SmcOutcome::Violated(_) => "VIOLATED".to_string(),
                SmcOutcome::StateExplosion => "STATE EXPLOSION".to_string(),
                SmcOutcome::Partial { explored, reason } => {
                    format!("partial ({explored} iterations, {reason})")
                }
            };
            println!(
                "  {banks} bank(s): {:<16} {:>9.3}s  {:>9} BDD nodes  {:>7.1} MB",
                outcome,
                report.stats.cpu_time.as_secs_f64(),
                report.stats.bdd_nodes,
                report.stats.memory_bytes as f64 / 1048576.0
            );
        }
        println!();
    }
    println!("the explosion confirms the paper's conclusion: integrate model");
    println!("checking at the early (ASM) design stages, not at the RTL");
}
