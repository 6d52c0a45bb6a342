//! The complete Fig. 2 flow: UML → ASM (model checking) → SystemC
//! (conformance + ABV) → Verilog RTL (symbolic re-verification +
//! sequence-diagram check).
//!
//! Run with `cargo run --release --example refinement_flow`.

use la1_asm::ExploreConfig;
use la1_core::refine::run_flow;
use la1_core::spec::LaConfig;
use la1_core::uml::{la1_class_diagram, read_mode_sequence};
use la1_smc::SmcConfig;

fn main() {
    println!("{}", la1_class_diagram().render());
    println!("{}", read_mode_sequence().render());

    // the flow's RTL stage runs the RuleBase-style checker, so the
    // model-checking geometry keeps the demonstration quick
    let cfg = LaConfig::mc_small(2);
    let report = run_flow(
        &cfg,
        ExploreConfig {
            max_states: 20_000,
            ..ExploreConfig::default()
        },
        SmcConfig::default(),
    );
    println!("{}", report.render());
    assert!(
        report.all_passed(),
        "the flow must pass on the healthy design"
    );

    println!("--- emitted Verilog (final artefact, first 40 lines) ---");
    for line in report.verilog.lines().take(40) {
        println!("{line}");
    }
    println!("... ({} lines total)", report.verilog.lines().count());
}
