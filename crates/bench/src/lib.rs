//! # la1-bench — harnesses regenerating the paper's tables and figures
//!
//! Each binary prints one table/figure of *On the Design and
//! Verification Methodology of the Look-Aside Interface* (DATE 2004) in
//! the paper's row format:
//!
//! * `table1` — AsmL-style model checking: banks vs CPU time, FSM
//!   nodes, transitions;
//! * `table2` — RuleBase-style model checking of the read mode: banks
//!   vs CPU time, memory, BDD count; state explosion at 4 banks;
//! * `table3` — ABV simulation: SystemC + compiled monitors vs
//!   interpreted RTL + OVL, time per cycle and the δ_OVL/δ_SC ratio;
//! * `figure1` — the interface pin/bank structure;
//! * `figure3` — the clock-annotated read-mode sequence diagram,
//!   checked against an executed trace.
//!
//! Timing with medians and spreads lives in the `benchmark` package
//! under `src/bin/benchmark/`.

use la1_asm::ExploreConfig;
use la1_core::harness::{asm_model_check, rulebase_read_mode, run_rtl_ovl, run_systemc_abv};
use la1_core::json::Json;
use la1_core::spec::LaConfig;
use la1_core::workloads::RandomMix;
use la1_smc::{SmcConfig, SmcOutcome, Strategy};
use std::time::Duration;

/// Default BDD node budget for the Table 2 reproduction, calibrated so
/// the RuleBase-era monolithic strategy proves 1–3 banks (peaks of
/// 36,028 / 1,839,090 / 15,095,821 nodes) and explodes at 4 banks, where
/// it exhausts the budget.
pub const TABLE2_NODE_BUDGET: usize = 40_000_000;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Bank count.
    pub banks: u32,
    /// Exploration CPU time.
    pub cpu_time: Duration,
    /// FSM nodes explored.
    pub nodes: usize,
    /// FSM transitions explored.
    pub transitions: usize,
    /// Whether all properties passed.
    pub all_pass: bool,
    /// Worker threads the exploration ran with.
    pub workers: usize,
}

/// Runs one Table 1 row: model checking of all interface properties
/// combined, at the ASM level, with a bounded exploration (the AsmL
/// tool's configuration limits). Uses the explorer's default worker
/// count (one per core); results do not depend on it, only `cpu_time`
/// does.
pub fn table1_row(banks: u32, max_depth: usize) -> Table1Row {
    let cfg = table_config(banks);
    let r = asm_model_check(
        &cfg,
        ExploreConfig {
            max_depth: Some(max_depth),
            max_states: 5_000_000,
            max_transitions: 20_000_000,
            stop_on_violation: true,
            ..ExploreConfig::default()
        },
    );
    Table1Row {
        banks,
        cpu_time: r.stats.elapsed,
        nodes: r.fsm.num_states(),
        transitions: r.fsm.num_transitions(),
        all_pass: r.all_pass(),
        workers: r.stats.workers,
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Bank count.
    pub banks: u32,
    /// Checking CPU time.
    pub cpu_time: Duration,
    /// BDD memory in MB.
    pub memory_mb: f64,
    /// Peak BDD node count.
    pub bdds: usize,
    /// The verdict (`Proved` for 1–3 banks, `StateExplosion` at 4).
    pub outcome: &'static str,
}

/// Runs one Table 2 row: the read-mode property on the N-bank RTL with
/// the monolithic (RuleBase-era) strategy and a finite node budget.
pub fn table2_row(banks: u32, strategy: Strategy, node_budget: usize) -> Table2Row {
    let cfg = LaConfig::mc_small(banks);
    let report = rulebase_read_mode(
        &cfg,
        SmcConfig {
            strategy,
            node_budget,
            ..SmcConfig::default()
        },
    )
    .expect("read-mode property is in the safety subset");
    Table2Row {
        banks,
        cpu_time: report.stats.cpu_time,
        memory_mb: report.stats.memory_bytes as f64 / (1024.0 * 1024.0),
        bdds: report.stats.bdd_nodes,
        outcome: match report.outcome {
            SmcOutcome::Proved => "proved",
            SmcOutcome::Violated(_) => "VIOLATED",
            SmcOutcome::StateExplosion => "state explosion",
            SmcOutcome::Partial { .. } => "partial",
        },
    }
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Bank count.
    pub banks: u32,
    /// SystemC + compiled monitors: average time per cycle.
    pub delta_sc: Duration,
    /// Interpreted RTL + OVL: average time per cycle.
    pub delta_ovl: Duration,
    /// δ_OVL / δ_SC.
    pub ratio: f64,
}

/// Runs one Table 3 row with the same random read/write mix on both
/// simulators.
///
/// Each side is measured three times and the fastest run is kept —
/// per-cycle cost is a property of the simulator, so the minimum is the
/// least load-contaminated estimate.
pub fn table3_row(banks: u32, sc_cycles: u64, rtl_cycles: u64) -> Table3Row {
    let cfg = LaConfig::new(banks);
    let mut d_sc = Duration::MAX;
    let mut d_ovl = Duration::MAX;
    for _ in 0..3 {
        let mut w_sc = RandomMix::new(&cfg, 42, 0.6, 0.4);
        let sc = run_systemc_abv(&cfg, &mut w_sc, sc_cycles);
        assert_eq!(sc.violations, 0, "healthy design must stay clean");
        d_sc = d_sc.min(sc.time_per_cycle());
        let mut w_rtl = RandomMix::new(&cfg, 42, 0.6, 0.4);
        let ovl = run_rtl_ovl(&cfg, &mut w_rtl, rtl_cycles);
        assert_eq!(ovl.violations, 0, "healthy design must stay clean");
        d_ovl = d_ovl.min(ovl.time_per_cycle());
    }
    Table3Row {
        banks,
        delta_sc: d_sc,
        delta_ovl: d_ovl,
        ratio: d_ovl.as_secs_f64() / d_sc.as_secs_f64().max(1e-12),
    }
}

/// The configuration the table harnesses use at the ASM level (small
/// AsmL-style domains).
pub fn table_config(banks: u32) -> LaConfig {
    LaConfig {
        banks,
        words_per_bank: 4,
        word_width: 16,
        mc_addr_domain: vec![0, 1],
        mc_data_domain: vec![0, 0x5A5A],
        burst_len: 1,
    }
}

/// Formats a `Duration` in seconds with 4 decimals (paper style).
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a `Duration` in microseconds.
pub fn micros(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// The bench binaries' shared command-line conventions: positional
/// bank counts plus `--flag` / `--flag value` options. Recognized
/// options are consumed one by one; whatever remains must be bank
/// counts.
///
/// ```
/// let mut args = la1_bench::BenchArgs::from_tokens(
///     ["2", "--seed", "7", "--smoke"].map(String::from).to_vec(),
/// );
/// assert_eq!(args.opt::<u64>("--seed"), Some(7));
/// assert!(args.flag("--smoke"));
/// assert!(!args.flag("--batched"));
/// assert_eq!(args.banks(&[1, 2, 4]), vec![2]);
/// ```
#[derive(Debug)]
pub struct BenchArgs {
    tokens: Vec<String>,
}

impl BenchArgs {
    /// The process's arguments (program name skipped).
    pub fn parse() -> BenchArgs {
        BenchArgs {
            tokens: std::env::args().skip(1).collect(),
        }
    }

    /// An explicit token list (tests, composition).
    pub fn from_tokens(tokens: Vec<String>) -> BenchArgs {
        BenchArgs { tokens }
    }

    /// Consumes the boolean flag `name`; `true` when present.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.tokens.iter().position(|t| t == name) {
            Some(i) => {
                self.tokens.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes `name value`, parsing the value.
    ///
    /// # Panics
    ///
    /// Panics when the value is missing or fails to parse — these are
    /// operator errors the binaries report by aborting.
    pub fn opt<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.tokens.iter().position(|t| t == name)?;
        if i + 1 >= self.tokens.len() {
            panic!("{name} requires a value");
        }
        let raw = self.tokens.remove(i + 1);
        self.tokens.remove(i);
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => panic!("invalid value '{raw}' for {name}"),
        }
    }

    /// Consumes `name value` with a fallback default.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }

    /// Consumes the remaining positional tokens as bank counts,
    /// falling back to `default` when none were given.
    ///
    /// # Panics
    ///
    /// Panics on leftover unrecognized flags or non-integer tokens.
    pub fn banks(self, default: &[u32]) -> Vec<u32> {
        let banks: Vec<u32> = self
            .tokens
            .iter()
            .map(|t| {
                t.parse().unwrap_or_else(|_| {
                    panic!("unexpected argument '{t}' (bank counts must be integers)")
                })
            })
            .collect();
        if banks.is_empty() {
            default.to_vec()
        } else {
            banks
        }
    }
}

/// Writes one line to stdout, flushed immediately, tolerating a broken
/// pipe: when a consumer like `head` or a dashboard hangs up, the
/// output silently stops but the computation — and its gates, JSON
/// artifacts and exit code — continues. (Rust ignores `SIGPIPE`, so a
/// plain `println!` would panic on EPIPE instead.) Flushing per line
/// is the `--serve` contract: a live consumer sees each record the
/// moment its job commits, not when a buffer happens to fill.
pub fn sout(line: impl AsRef<str>) {
    use std::io::Write;
    let out = std::io::stdout();
    let mut h = out.lock();
    let _ = h
        .write_all(line.as_ref().as_bytes())
        .and_then(|()| h.write_all(b"\n"))
        .and_then(|()| h.flush());
}

/// Writes `items` as a JSON array document to `path` — one block per
/// item, the arrays named in `rows` one element per line — and logs the
/// path to stderr: the `--json` output convention shared by every bench
/// binary (byte-stable for a given item list).
pub fn write_json(path: &str, items: Vec<Json>, rows: &[&str]) {
    std::fs::write(path, Json::Arr(items).render_pretty(rows)).expect("write JSON output");
    eprintln!("wrote {path}");
}

/// The bench binaries' pass/fail gate: failures accumulate during the
/// run; [`Gate::finish`] prints them and exits non-zero, or prints
/// `<name> gate: ok` when the gate was armed and nothing failed.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    failures: Vec<String>,
}

impl Gate {
    /// A fresh gate for the binary `name`.
    pub fn new(name: &'static str) -> Gate {
        Gate {
            name,
            failures: Vec::new(),
        }
    }

    /// Records one failure.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Whether any failure was recorded.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Reports the verdict: recorded failures always exit the process
    /// non-zero; a clean result prints the ok line only when `armed`
    /// (gate mode was requested).
    pub fn finish(self, armed: bool) {
        if self.failures.is_empty() {
            if armed {
                sout(format!("{} gate: ok", self.name));
            }
            return;
        }
        for f in &self.failures {
            eprintln!("{} gate FAILED: {f}", self.name);
        }
        std::process::exit(1);
    }
}
