//! `formal_proof`: time to verdict of the two model checkers — the
//! BDD-based read-mode proof on the small RTL configuration (Table 2's
//! monolithic engine) and the ASM exploration of the Table 1
//! configuration. No simulation layer runs.

use crate::harness::{Bench, Checks, Figure, Scale};
use crate::stats::Summary;
use crate::trace::Tracer;
use la1_asm::{ExploreConfig, ExploreStats};
use la1_core::harness::asm_model_check;
use la1_core::properties::rtl_read_mode_property;
use la1_core::rtl_model::LaRtl;
use la1_core::spec::LaConfig;
use la1_psl::Directive;
use la1_smc::{ModelChecker, SmcConfig, SmcReport, Strategy};
use std::path::Path;

/// The node budget Table 2 runs the monolithic engine with.
const NODE_BUDGET: usize = 40_000_000;

/// The proof and exploration inputs, and the last sample's results.
pub struct Formal {
    checker: ModelChecker,
    property: Directive,
    asm_config: LaConfig,
    depth: usize,
    proof: Option<SmcReport>,
    /// Engine-reported reachability time of every traced sample (s).
    reach_s: Vec<f64>,
    explore: Option<(ExploreStats, bool)>,
    first: Option<Vec<(&'static str, u64)>>,
}

/// `formal_proof`: build and extract the RTL, build the checker.
pub fn setup(_seed: u64, scale: Scale, tr: &mut Tracer, _scratch: &Path) -> Box<dyn Bench> {
    let (proof_banks, asm_banks, depth) = match scale {
        Scale::Full => (2, 4, 3),
        #[cfg(test)]
        Scale::Tiny => (1, 1, 2),
    };
    let rtl = LaRtl::build(&LaConfig::mc_small(proof_banks), None);
    tr.enter("rtl.extract", "rtl");
    let ts = rtl.extract();
    tr.exit();
    tr.enter("smc.new", "smc");
    let checker = ModelChecker::new(
        &ts,
        SmcConfig {
            strategy: Strategy::Monolithic,
            node_budget: NODE_BUDGET,
            ..SmcConfig::default()
        },
    );
    tr.exit();
    Box::new(Formal {
        checker,
        property: rtl_read_mode_property(),
        // the Table 1 configuration: small AsmL-style domains
        asm_config: LaConfig {
            banks: asm_banks,
            words_per_bank: 4,
            word_width: 16,
            mc_addr_domain: vec![0, 1],
            mc_data_domain: vec![0, 0x5A5A],
            burst_len: 1,
        },
        depth,
        proof: None,
        reach_s: Vec::new(),
        explore: None,
        first: None,
    })
}

impl Bench for Formal {
    fn sample(&mut self, tr: &mut Tracer) -> Vec<Figure> {
        tr.enter("smc.check", "smc");
        let t = std::time::Instant::now();
        let proof = self
            .checker
            .check(&self.property)
            .expect("the read-mode property is in the safety subset");
        let proof_s = t.elapsed().as_secs_f64();
        tr.exit();
        tr.enter("asm.explore", "asm");
        let t = std::time::Instant::now();
        let explore = asm_model_check(
            &self.asm_config,
            ExploreConfig {
                max_depth: Some(self.depth),
                max_states: 5_000_000,
                max_transitions: 20_000_000,
                stop_on_violation: true,
                workers: Some(1),
                ..ExploreConfig::default()
            },
        );
        let explore_s = t.elapsed().as_secs_f64();
        tr.exit();
        if tr.on() {
            self.reach_s.push(proof.stats.cpu_time.as_secs_f64());
        }
        self.proof = Some(proof);
        self.explore = Some((explore.stats.clone(), explore.all_pass()));
        vec![("proof_s", "s", proof_s), ("explore_s", "s", explore_s)]
    }

    fn check(&mut self, checks: &mut Checks) {
        let proof = self.proof.as_ref().expect("checked after a sample");
        checks.check(proof.proved(), || {
            format!("read-mode verdict {:?}", proof.outcome)
        });
        let (_, all_pass) = self.explore.as_ref().expect("checked after a sample");
        checks.check(*all_pass, || "an ASM property failed".into());
        let counters = self.counters();
        let first = self.first.get_or_insert_with(|| counters.clone()).clone();
        checks.eq("engine counters vs first sample", counters, first);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let proof = &self.proof.as_ref().expect("counted after a sample").stats;
        let (explore, _) = self.explore.as_ref().expect("counted after a sample");
        vec![
            ("bdd_peak_nodes", proof.bdd_nodes as u64),
            ("smc_iterations", proof.iterations as u64),
            ("asm_states", explore.states as u64),
            ("asm_transitions", explore.transitions as u64),
        ]
    }

    fn layers(&self, tr: &Tracer, _wall_s: f64) -> Vec<(&'static str, f64)> {
        let median = |v: Vec<f64>| Summary::of(&v).median;
        let proof = &self.proof.as_ref().expect("a traced run has samples").stats;
        let (explore, _) = self.explore.as_ref().expect("a traced run has samples");
        let explore_s = median(tr.durations("asm.explore")) / 1e9;
        vec![
            ("rtl.extract_ms", median(tr.durations("rtl.extract")) / 1e6),
            ("smc.check_s", median(tr.durations("smc.check")) / 1e9),
            ("smc.reach_s", median(self.reach_s.clone())),
            ("bdd.peak_nodes", proof.bdd_nodes as f64),
            (
                "bdd.memory_mb",
                proof.memory_bytes as f64 / (1024.0 * 1024.0),
            ),
            ("smc.iterations", proof.iterations as f64),
            ("asm.states", explore.states as f64),
            ("asm.transitions", explore.transitions as f64),
            ("asm.dedup_hits", explore.dedup_hits as f64),
            ("asm.peak_frontier", explore.peak_frontier as f64),
            ("asm.states_per_s", explore.states as f64 / explore_s),
        ]
    }
}
