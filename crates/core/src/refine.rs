//! The Fig. 2 flow: design-and-verification through the refinement
//! levels, with conformance checks between them.
//!
//! `run_flow` executes the paper's methodology end to end:
//!
//! 1. render the UML artefacts (class diagram + sequence diagrams);
//! 2. model-check the PSL properties on the ASM model via bounded
//!    exploration;
//! 3. translate to SystemC and run the AsmL-style **conformance test**
//!    co-executing both models on the same stimulus;
//! 4. run assertion-based verification on the SystemC model;
//! 5. derive the Verilog RTL, re-verify the same properties with the
//!    RuleBase-style symbolic model checker, and check the executed
//!    read-mode trace against the Fig. 3 sequence diagram.

use crate::asm_model::LaAsmModel;
use crate::harness::run_abv;
use crate::properties::rtl_properties;
use crate::rtl_model::LaRtl;
use crate::sc_model::LaSystemC;
use crate::spec::LaConfig;
use crate::uml::{la1_class_diagram, read_mode_sequence, write_mode_sequence};
use crate::workloads::RandomMix;
use la1_asm::{conformance_check, ConformanceError, ExploreConfig};
use la1_smc::{ModelChecker, SmcConfig, SmcOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one flow stage.
#[derive(Debug, Clone)]
pub enum StageResult {
    /// The stage passed.
    Passed(String),
    /// The stage failed with a reason.
    Failed(String),
}

impl StageResult {
    /// True for [`StageResult::Passed`].
    pub fn passed(&self) -> bool {
        matches!(self, StageResult::Passed(_))
    }
}

/// The complete flow report.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// `(stage name, result)` in execution order.
    pub stages: Vec<(String, StageResult)>,
    /// The emitted Verilog of the final RTL.
    pub verilog: String,
}

impl FlowReport {
    /// True when every stage passed.
    pub fn all_passed(&self) -> bool {
        self.stages.iter().all(|(_, r)| r.passed())
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::from("LA-1 design & verification flow (Fig. 2)\n");
        for (name, result) in &self.stages {
            match result {
                StageResult::Passed(detail) => {
                    out.push_str(&format!("  [pass] {name}: {detail}\n"));
                }
                StageResult::Failed(detail) => {
                    out.push_str(&format!("  [FAIL] {name}: {detail}\n"));
                }
            }
        }
        out
    }
}

/// Generates a reproducible stimulus mix for the conformance
/// co-execution (reads, writes, concurrent read+write, idles).
pub fn conformance_stimulus(config: &LaConfig, seed: u64, len: usize) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let banks = config.banks as u64;
    let words = config.words_per_bank as u64;
    let data_max = 1u64 << config.word_width.min(32);
    let mut sequences = Vec::new();
    for _ in 0..3 {
        let mut seq = vec!["init".to_string()];
        for _ in 0..len {
            let b = rng.gen_range(0..banks);
            let a = rng.gen_range(0..words);
            let d = rng.gen_range(0..data_max);
            let action = match rng.gen_range(0..4) {
                0 => "tick".to_string(),
                1 => format!("read {b} {a}"),
                2 => format!("write {b} {a} {d}"),
                _ => {
                    let rb = rng.gen_range(0..banks);
                    let ra = rng.gen_range(0..words);
                    format!("rw {rb} {ra} {b} {a} {d}")
                }
            };
            seq.push(action);
        }
        sequences.push(seq);
    }
    sequences
}

/// Runs the complete Fig. 2 flow for `config`.
///
/// `explore` bounds the ASM exploration; `smc` configures the
/// RuleBase-style checker.
pub fn run_flow(config: &LaConfig, explore: ExploreConfig, smc: SmcConfig) -> FlowReport {
    let mut stages: Vec<(String, StageResult)> = Vec::new();

    // 1. UML level
    let cd = la1_class_diagram();
    let sd_read = read_mode_sequence();
    let sd_write = write_mode_sequence();
    stages.push((
        "uml_spec".to_string(),
        StageResult::Passed(format!(
            "{} classes, {} + {} messages in the read/write sequence diagrams",
            cd.classes.len(),
            sd_read.messages.len(),
            sd_write.messages.len()
        )),
    ));

    // 2. ASM level: model checking
    let asm = LaAsmModel::new(config);
    let mc = asm.model_check(explore);
    stages.push((
        "asm_model_checking".to_string(),
        if mc.all_pass() {
            StageResult::Passed(format!(
                "{} properties over {} states / {} transitions in {:?}",
                mc.reports.len(),
                mc.stats.states,
                mc.stats.transitions,
                mc.stats.elapsed
            ))
        } else {
            let failed: Vec<&str> = mc
                .reports
                .iter()
                .filter(|r| !r.outcome.is_pass())
                .map(|r| r.name.as_str())
                .collect();
            StageResult::Failed(format!("violated: {}", failed.join(", ")))
        },
    ));

    // 3. ASM -> SystemC conformance co-execution
    let mut asm_sys = LaAsmModel::new(config);
    let mut sc_sys = LaSystemC::new(config);
    let stimulus = conformance_stimulus(config, 2004, 40);
    let conf: Result<(), ConformanceError> =
        conformance_check(&mut asm_sys, &mut sc_sys, &stimulus);
    stages.push((
        "asm_to_systemc_conformance".to_string(),
        match conf {
            Ok(()) => StageResult::Passed(format!(
                "{} stimulus sequences co-executed",
                stimulus.len()
            )),
            Err(e) => StageResult::Failed(e.to_string()),
        },
    ));

    // 4. SystemC ABV — the generic measurement loop over the shared
    // cycle-level interface
    let mut sc = LaSystemC::new(config);
    sc.attach_default_monitors();
    let mut mix = RandomMix::new(config, 7, 0.5, 0.3);
    let abv = run_abv(&mut sc, &mut mix, 200);
    stages.push((
        "systemc_abv".to_string(),
        if abv.violations == 0 {
            StageResult::Passed(format!("200 cycles, {} monitors clean", config.banks * 5))
        } else {
            StageResult::Failed(format!("{:?}", sc.violations()))
        },
    ));

    // 5. RTL: emit Verilog + re-verify with the symbolic checker
    let rtl = LaRtl::build(config, None);
    let verilog = rtl.to_verilog();
    let ts = rtl.extract();
    let checker = ModelChecker::new(&ts, smc);
    let mut rtl_ok = true;
    let mut detail = String::new();
    for d in rtl_properties(config.banks) {
        match checker.check(&d) {
            Ok(report) => match report.outcome {
                SmcOutcome::Proved => {
                    detail.push_str(&format!("{} proved; ", d.name));
                }
                SmcOutcome::Violated(_) => {
                    rtl_ok = false;
                    detail.push_str(&format!("{} VIOLATED; ", d.name));
                }
                SmcOutcome::StateExplosion => {
                    // the paper hits this at 4 banks; report without
                    // failing the flow (the property is re-checked by
                    // simulation at that size)
                    detail.push_str(&format!("{} state explosion; ", d.name));
                }
                SmcOutcome::Partial { explored, reason } => {
                    // budget-limited, not a verdict either way; like
                    // explosion, simulation re-checks the property
                    detail.push_str(&format!(
                        "{} partial ({explored} iterations, {reason}); ",
                        d.name
                    ));
                }
            },
            Err(e) => {
                rtl_ok = false;
                detail.push_str(&format!("{}: {e}; ", d.name));
            }
        }
    }
    stages.push((
        "rtl_model_checking".to_string(),
        if rtl_ok {
            StageResult::Passed(detail.clone())
        } else {
            StageResult::Failed(detail.clone())
        },
    ));

    // 6. Fig. 3 trace check on the executing SystemC model
    let mut traced = LaSystemC::new(config);
    traced.enable_trace();
    traced.cycle(&[crate::spec::BankOp::read(0, 0)]);
    traced.cycle(&[]);
    traced.cycle(&[]);
    let trace = traced.trace();
    let seq = read_mode_sequence();
    stages.push((
        "read_mode_sequence_check".to_string(),
        match seq.check(&trace) {
            Ok(()) => StageResult::Passed("executed trace matches Fig. 3".to_string()),
            Err(e) => StageResult::Failed(e.to_string()),
        },
    ));

    FlowReport { stages, verilog }
}
