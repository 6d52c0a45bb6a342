//! The LA-1 stack's benchmark: five named workloads, each run in its
//! own process, reporting the end-to-end metrics and — in a traced run
//! — the per-layer metrics that `BENCHMARK.json` declares.
//!
//! ```text
//! benchmark run <workload> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark run-all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare <A.jsonl> <B.jsonl>
//! ```
//!
//! A run prints a table of every metric (median, quartiles, tail and
//! sample count), appends its result as one JSON line to `--out`
//! (default `target/benchmark/runs.jsonl`), and ends its output with
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes its spans to
//! `target/benchmark/<workload>.trace.json`. See `README.md`.

mod compare;
mod farm;
mod fault;
mod formal;
mod harness;
mod stats;
mod trace;
mod traffic;

use harness::{RunOutput, Scale, Workload};
use la1_core::json::{parse, Json};
use stats::{as_f64, num, obj, show, Summary};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's declaration: workloads, metrics, units and bounds.
const DECLARATION: &str = include_str!("../../../../../../BENCHMARK.json");

/// Where results, traces and scratch files go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = "target/benchmark";

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "traffic_lookup",
        default_seed: Some(7),
        setup: traffic::setup_lookup,
    },
    Workload {
        name: "traffic_contention",
        default_seed: Some(7),
        setup: traffic::setup_contention,
    },
    Workload {
        name: "fault_campaign",
        default_seed: Some(42),
        setup: fault::setup,
    },
    Workload {
        name: "farm_regression",
        default_seed: Some(42),
        setup: farm::setup,
    },
    Workload {
        name: "formal_proof",
        default_seed: None,
        setup: formal::setup,
    },
];

/// A declared metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
struct Declared {
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn declared() -> Declared {
    let doc = parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<Metric> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists its metrics")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                Metric {
                    name: field("name"),
                    unit: field("unit"),
                    better: field("better"),
                    bound: m.get("bound").and_then(as_f64),
                }
            })
            .collect()
    };
    Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(as_f64)
            .expect("BENCHMARK.json sets run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

impl Declared {
    /// The bound `compare` judges a metric by. A workload figure is not
    /// declared: it takes the bound of `wall_s`, the sample time it is
    /// measured over. A per-layer metric has none.
    fn bound(&self, name: &str) -> Option<f64> {
        let find = |name: &str| self.end_to_end.iter().find(|m| m.name == name);
        if let Some(m) = find(name) {
            return m.bound;
        }
        if self.per_layer.iter().any(|m| m.name == name) {
            return None;
        }
        find("wall_s").and_then(|m| m.bound)
    }
}

/// The metrics a run reports, in declaration order: every end-to-end
/// metric, or with tracing every per-layer metric. A layer the
/// workload does not run reads 0.
///
/// # Panics
///
/// Panics when a workload reports a per-layer metric that is not
/// declared — a benchmark bug the tests catch.
fn reported(out: &RunOutput, decl: &Declared, trace: bool) -> Vec<(Metric, f64)> {
    if trace {
        for (name, _) in &out.layers {
            assert!(
                decl.per_layer.iter().any(|m| m.name == *name),
                "per-layer metric {name} is not declared in BENCHMARK.json"
            );
        }
        return decl
            .per_layer
            .iter()
            .map(|m| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |l| l.1);
                (m.clone(), v)
            })
            .collect();
    }
    decl.end_to_end
        .iter()
        .map(|m| {
            let v = match m.name.as_str() {
                "setup_s" => out.setup.median,
                "wall_s" => out.wall.median,
                "peak_rss_mb" => out.peak_rss_mb,
                other => panic!("end-to-end metric {other} has no measurement"),
            };
            (m.clone(), v)
        })
        .collect()
}

/// The one-line summary that ends a run's output.
fn summary_line(out: &RunOutput, metrics: &[(Metric, f64)]) -> Json {
    obj(vec![
        ("correct", Json::Bool(out.checks.failures.is_empty())),
        ("attempted", Json::num(out.checks.attempted)),
        ("failed", Json::num(out.checks.failures.len() as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.name.clone(),
                            obj(vec![("value", num(*v)), ("unit", Json::str(&m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The run as one result-file line: the reported metrics plus the
/// workload's figures (medians over the untraced samples), each with
/// its direction, and the summaries, counters and host behind them.
fn result_line(out: &RunOutput, metrics: &[(Metric, f64)], seconds: f64, trace: bool) -> Json {
    let entry = |v: f64, unit: &str, better: &str| {
        obj(vec![
            ("value", num(v)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ])
    };
    let mut all: Vec<(String, Json)> = metrics
        .iter()
        .map(|(m, v)| (m.name.clone(), entry(*v, &m.unit, &m.better)))
        .collect();
    if !trace {
        // a rate is better higher, a time lower
        all.extend(out.figures.iter().map(|(name, unit, s)| {
            let better = if *unit == "1/s" { "higher" } else { "lower" };
            (name.to_string(), entry(s.median, unit, better))
        }));
    }
    let mut summaries = vec![
        ("setup_s".to_string(), out.setup.to_json()),
        ("wall_s".to_string(), out.wall.to_json()),
    ];
    if let Some(t) = &out.traced_wall {
        summaries.push(("traced_wall_s".to_string(), t.to_json()));
    }
    summaries.extend(
        out.figures
            .iter()
            .map(|(n, _, s)| (n.to_string(), s.to_json())),
    );
    obj(vec![
        ("workload", Json::str(out.workload)),
        ("seed", Json::num(out.seed)),
        ("seconds", num(seconds)),
        ("trace", Json::Bool(trace)),
        ("host", stats::host_fingerprint()),
        ("correct", Json::Bool(out.checks.failures.is_empty())),
        ("attempted", Json::num(out.checks.attempted)),
        ("failed", Json::num(out.checks.failures.len() as u64)),
        ("metrics", Json::Obj(all)),
        ("summaries", Json::Obj(summaries)),
        (
            "counters",
            Json::Obj(
                out.counters
                    .iter()
                    .map(|(n, v)| (n.to_string(), Json::num(*v)))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(out.checks.failures.iter().map(Json::str).collect()),
        ),
    ])
}

/// The human-readable report printed before the summary line.
fn print_report(out: &RunOutput, metrics: &[(Metric, f64)], trace: bool) {
    let row = |name: &str, unit: &str, s: &Summary| {
        let tail = s
            .tail
            .map_or("-".to_string(), |(p, v)| format!("p{p} {}", show(v)));
        println!(
            "  {name:<32} {unit:>9} {:>14} {:>14} {:>14} {tail:>16} {:>4}",
            show(s.median),
            show(s.q1),
            show(s.q3),
            s.n
        );
    };
    println!(
        "{} (seed {}){}",
        out.workload,
        out.seed,
        if trace { ", traced" } else { "" }
    );
    println!(
        "  {:<32} {:>9} {:>14} {:>14} {:>14} {:>16} {:>4}",
        "metric", "unit", "median", "q1", "q3", "tail", "n"
    );
    row("setup_s", "s", &out.setup);
    row("wall_s", "s", &out.wall);
    if let Some(t) = &out.traced_wall {
        row("traced wall_s", "s", t);
    }
    for (name, unit, s) in &out.figures {
        row(name, unit, s);
    }
    println!("  peak_rss_mb {:.1} MB", out.peak_rss_mb);
    if trace {
        let spans = out.tracer.layer_self_ns();
        let total: i64 = spans.values().sum();
        println!(
            "  per-layer self time over {} traced sample(s):",
            out.traced_wall.as_ref().map_or(0, |t| t.n)
        );
        for (layer, ns) in &spans {
            println!(
                "    {layer:<14} {:>12.3} ms {:>6.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        println!("  per-layer metrics (the others read 0: this workload does not run them):");
        for (m, v) in metrics {
            if out.layers.iter().any(|(n, _)| *n == m.name) {
                println!("    {:<34} {:>16.6} {}", m.name, v, m.unit);
            }
        }
    }
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    println!("  counters: {}", counters.join(" "));
    println!(
        "  checks: {} attempted, {} failed",
        out.checks.attempted,
        out.checks.failures.len()
    );
}

/// Parsed command-line options shared by `run` and `run-all`.
#[derive(Debug)]
struct Options {
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn options(args: &[String], decl: &Declared) -> Result<Options, String> {
    let mut o = Options {
        seed: None,
        seconds: decl.run_seconds,
        trace: false,
        out: Path::new(OUT_DIR).join("runs.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--seed" => o.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&o.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })
}

/// Runs one workload in this process and reports it.
fn run_one(w: &Workload, o: &Options, decl: &Declared) -> Result<bool, String> {
    let scratch = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let out = harness::run(w, o.seed, o.seconds, o.trace, Scale::Full, &scratch);
    // best effort: a leftover scratch directory only costs disk
    let _ = std::fs::remove_dir_all(&scratch);
    let metrics = reported(&out, decl, o.trace);
    print_report(&out, &metrics, o.trace);
    for f in &out.checks.failures {
        eprintln!("check failed: {f}");
    }
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    if o.trace {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.json", w.name));
        std::fs::write(&path, out.tracer.to_json().render() + "\n").map_err(|e| io(&path, e))?;
    }
    if let Some(dir) = o.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    }
    let line = result_line(&out, &metrics, o.seconds, o.trace).render();
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&o.out)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| io(&o.out, e))?;
    println!("{}", summary_line(&out, &metrics).render());
    Ok(out.checks.failures.is_empty())
}

/// Runs every workload in sequence, each in a process of its own so
/// its peak memory is its own.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", w.name, "--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&o.out);
        if let Some(seed) = o.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", w.name))?;
        ok &= status.success();
    }
    Ok(ok)
}

const USAGE: &str = "usage:
  benchmark run <workload> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark run-all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark compare <A.jsonl> <B.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let decl = declared();
    let result = match args.first().map(String::as_str) {
        Some("run" | "--workload") if args.len() >= 2 => workload(&args[1])
            .and_then(|w| Ok((w, options(&args[2..], &decl)?)))
            .and_then(|(w, o)| run_one(w, &o, &decl)),
        Some("run-all") => options(&args[1..], &decl).and_then(|o| run_all(&o)),
        Some("compare") if args.len() == 3 => {
            compare::compare(&args[1], &args[2], |m| decl.bound(m)).map(|(report, tally)| {
                print!("{report}");
                tally == compare::Tally::default()
            })
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// Every workload at tiny size, untraced and traced: checks pass,
    /// reported names are the declared ones, and traced self times are
    /// non-negative and fit inside the traced samples.
    #[test]
    fn every_workload_runs_clean_and_reports_the_declared_metrics() {
        let decl = declared();
        let scratch =
            std::env::temp_dir().join(format!("la1-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create scratch dir");
        let mut produced: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let out = harness::run(w, None, 0.0, trace, Scale::Tiny, &scratch);
                assert!(
                    out.checks.failures.is_empty(),
                    "{}: {:?}",
                    w.name,
                    out.checks.failures
                );
                assert!(out.checks.attempted > 0);
                let metrics = reported(&out, &decl, trace);
                let want = if trace {
                    &decl.per_layer
                } else {
                    &decl.end_to_end
                };
                let got: Vec<Metric> = metrics.iter().map(|(m, _)| m.clone()).collect();
                assert_eq!(names(&got), names(want), "{}", w.name);
                let line = summary_line(&out, &metrics).render();
                assert!(parse(&line).is_ok(), "{line}");
                if !trace {
                    assert!(
                        metrics.iter().all(|(_, v)| *v > 0.0),
                        "{}: {metrics:?}",
                        w.name
                    );
                    continue;
                }
                produced.extend(out.layers.iter().map(|(n, _)| *n));
                let own = out.tracer.self_ns();
                let in_samples: i64 = out
                    .tracer
                    .spans()
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.sample.is_some())
                    .map(|(_, &ns)| ns)
                    .sum();
                assert!(
                    own.iter().all(|&ns| ns >= 0),
                    "{}: negative self time",
                    w.name
                );
                let traced = out.traced_wall.expect("a traced run has traced samples");
                assert!(
                    in_samples as f64 <= traced.median * traced.n as f64 * 1e9 * 1.0001 + 1e3,
                    "{}: self times exceed the traced wall time",
                    w.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
        // every declared per-layer metric comes from some workload
        for m in &decl.per_layer {
            assert!(
                produced.contains(&m.name.as_str()),
                "{} is never measured",
                m.name
            );
        }
    }

    /// A workload figure halved over two runs is a regression even when
    /// `wall_s` stays inside its bound.
    #[test]
    fn compare_bounds_the_workload_figures() {
        let decl = declared();
        assert_eq!(decl.bound("lookups_per_s.rtl_ovl"), decl.bound("wall_s"));
        assert_eq!(decl.bound("ovl.share"), None);
        let dir = std::env::temp_dir().join(format!("la1-benchmark-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let file = |name: &str, rate: [f64; 2], wall: [f64; 2]| {
            let lines: Vec<String> = (0..2)
                .map(|i| {
                    let entry = |v: f64, unit: &str, better: &str| {
                        obj(vec![
                            ("value", num(v)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                        ])
                    };
                    obj(vec![
                        ("workload", Json::str("traffic_lookup")),
                        (
                            "metrics",
                            obj(vec![
                                ("wall_s", entry(wall[i], "s", "lower")),
                                ("lookups_per_s.rtl_ovl", entry(rate[i], "1/s", "higher")),
                            ]),
                        ),
                    ])
                    .render()
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, lines.join("\n")).expect("write result file");
            path.display().to_string()
        };
        let a = file("a.jsonl", [100_000.0, 104_000.0], [0.24, 0.25]);
        let b = file("b.jsonl", [50_000.0, 52_000.0], [0.25, 0.26]);
        let (report, tally) = compare::compare(&a, &b, |m| decl.bound(m)).expect("compare");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            tally,
            compare::Tally {
                regressed: 1,
                unresolved: 0
            },
            "{report}"
        );
        let line = report
            .lines()
            .find(|l| l.contains("lookups_per_s.rtl_ovl"))
            .expect("the figure is compared");
        assert!(line.ends_with("regressed"), "{line}");
    }

    #[test]
    fn declaration_names_the_workloads_and_setup_time() {
        let doc = parse(DECLARATION).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
        let decl = declared();
        let setup = decl
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = decl
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
