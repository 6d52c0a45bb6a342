//! The measurement loop every workload runs through: set-up, one
//! warm-up sample, timed samples for a fixed number of seconds,
//! correctness checks between samples (never timed), and — in a traced
//! run — traced samples interleaved with untraced ones plus per-layer
//! probes at the end.
//!
//! Set-up is timed again between samples, not only once up front: on a
//! shared host the machine's speed drifts over seconds, and a set-up —
//! far shorter than a sample — is timed inside one such stretch. Spread
//! over the whole run, the set-ups' median sees the machine the samples
//! saw. Each extra state is dropped right after it is built, and the
//! peak resident set is read before the first one, so it holds the
//! workload's state once.

use crate::stats::{peak_rss_mb, Summary};
use crate::trace::Tracer;
use la1_core::json::{parse, Json};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up is timed at least this many times...
const MIN_SETUPS: usize = 5;
/// ...and, once between two samples, whenever less than this share of
/// the run went into set-up so far...
const SETUP_SHARE: f64 = 0.1;
/// ...up to this many times.
const MAX_SETUPS: usize = 200;
/// A set-up faster than this is timed in batches of back-to-back
/// set-ups long enough for the clock to resolve.
const MIN_TIMED: Duration = Duration::from_micros(100);

/// Input sizes: what the benchmark measures, or the small instance the
/// unit tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `README.md`.
    Full,
    /// Seconds-scale total for the unit tests.
    #[cfg(test)]
    Tiny,
}

impl Scale {
    /// The key goldens are stored under.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            #[cfg(test)]
            Scale::Tiny => "tiny",
        }
    }
}

/// Correctness checks: how many ran and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Failure messages, one per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records an equality check.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// One workload-specific throughput or latency figure of one sample.
pub type Figure = (&'static str, &'static str, f64);

/// What a workload implements. The harness owns timing; a workload
/// owns its state, its checks and its per-layer arithmetic.
pub trait Bench {
    /// Runs one sample of the workload's fixed work, recording spans
    /// when `tr` is on. Returns the sample's figures (name, unit,
    /// value).
    fn sample(&mut self, tr: &mut Tracer) -> Vec<Figure>;

    /// Checks the last sample's outputs (untimed).
    fn check(&mut self, checks: &mut Checks);

    /// Deterministic counters after the warm-up sample, compared with
    /// `golden.json` when the run uses the default seed.
    fn counters(&self) -> Vec<(&'static str, u64)>;

    /// Expensive cross-engine checks, run once per process after the
    /// warm-up sample (untimed).
    fn verify_once(&mut self, _checks: &mut Checks) {}

    /// Per-layer measurements a traced run takes once, after its
    /// samples.
    fn probe(&mut self, _tr: &mut Tracer) {}

    /// Per-layer metrics from the trace; `wall_s` is the untraced
    /// median sample time.
    fn layers(&self, tr: &Tracer, wall_s: f64) -> Vec<(&'static str, f64)>;
}

/// Builds a workload's state: `(seed, scale, tracer, scratch dir)`.
pub type Setup = fn(u64, Scale, &mut Tracer, &Path) -> Box<dyn Bench>;

/// A named workload.
pub struct Workload {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Seed used when none is given; `None` when the inputs do not
    /// depend on a seed (goldens then apply to every run).
    pub default_seed: Option<u64>,
    /// Builds the state the samples run on.
    pub setup: Setup,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Set-up times (s).
    pub setup: Summary,
    /// Untraced sample times (s).
    pub wall: Summary,
    /// Traced sample times (s), in a traced run.
    pub traced_wall: Option<Summary>,
    /// Workload figures over the untraced samples.
    pub figures: Vec<(&'static str, &'static str, Summary)>,
    /// Counters after the warm-up sample.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-layer metrics, in a traced run.
    pub layers: Vec<(&'static str, f64)>,
    /// Correctness checks.
    pub checks: Checks,
    /// Peak resident set of the process after set-up and the warm-up
    /// sample (MiB).
    pub peak_rss_mb: f64,
    /// The spans (empty when untraced).
    pub tracer: Tracer,
}

/// Runs `w`: set-up, a warm-up sample, then samples for `seconds` (at
/// least one untraced and, when tracing, one traced), with set-up timed
/// again between them.
pub fn run(
    w: &Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scratch: &Path,
) -> RunOutput {
    let seed = seed.or(w.default_seed).unwrap_or(0);
    let mut tracer = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let make = |tracer: &mut Tracer| (w.setup)(seed, scale, tracer, scratch);
    let mut setup = SetupClock::default();

    let mut bench = setup.time(|| make(&mut tracer));
    bench.sample(&mut off);
    // one state and one sample: read before the checks and the extra
    // set-ups below allocate anything of their own
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let mut checks = Checks::default();
    bench.check(&mut checks);
    let counters = bench.counters();
    if seed == w.default_seed.unwrap_or(seed) {
        check_golden(w.name, scale, &counters, &mut checks);
    }
    bench.verify_once(&mut checks);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut figures: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    for i in 0u32.. {
        let traced_sample = trace && i % 2 == 1;
        let t = Instant::now();
        let figs = if traced_sample {
            tracer.set_sample(Some(i));
            tracer.enter("sample", "benchmark");
            let figs = bench.sample(&mut tracer);
            tracer.exit();
            tracer.set_sample(None);
            figs
        } else {
            bench.sample(&mut off)
        };
        let elapsed = t.elapsed();
        if traced_sample {
            traced.push(elapsed);
        } else {
            untraced.push(elapsed);
            for (name, unit, v) in figs {
                match figures.iter_mut().find(|f| f.0 == name) {
                    Some(f) => f.2.push(v),
                    None => figures.push((name, unit, vec![v])),
                }
            }
        }
        bench.check(&mut checks);
        let run_s = start.elapsed().as_secs_f64();
        if setup.times.len() < MAX_SETUPS && setup.spent.as_secs_f64() < SETUP_SHARE * run_s {
            drop(setup.time(|| make(&mut tracer)));
        }
        if start.elapsed() >= budget && !untraced.is_empty() && (!trace || !traced.is_empty()) {
            break;
        }
    }
    while setup.times.len() < MIN_SETUPS {
        drop(setup.time(|| make(&mut tracer)));
    }

    let wall = Summary::of_secs(&untraced);
    let mut layers = Vec::new();
    if trace {
        bench.probe(&mut tracer);
        layers = bench.layers(&tracer, wall.median);
        let traced_median = Summary::of_secs(&traced).median;
        layers.push(("trace.overhead", traced_median / wall.median));
    }
    RunOutput {
        workload: w.name,
        seed,
        setup: Summary::of_secs(&setup.times),
        wall,
        traced_wall: trace.then(|| Summary::of_secs(&traced)),
        figures: figures
            .into_iter()
            .map(|(n, u, v)| (n, u, Summary::of(&v)))
            .collect(),
        counters,
        layers,
        checks,
        peak_rss_mb,
        tracer,
    }
}

/// Times set-ups: each call yields one timed set-up, batching those
/// too fast for the clock.
#[derive(Default)]
struct SetupClock {
    /// Set-ups run back to back per timing (calibrated on first use).
    batch: usize,
    /// Time per set-up, one entry per timing.
    times: Vec<Duration>,
    /// Total time spent setting up, calibration included.
    spent: Duration,
}

impl SetupClock {
    /// Times `make` (in a batch when it is fast) and returns the last
    /// state built; the rest of a batch is dropped after the clock
    /// stops.
    fn time(&mut self, mut make: impl FnMut() -> Box<dyn Bench>) -> Box<dyn Bench> {
        self.batch = self.batch.max(1);
        loop {
            let t = Instant::now();
            let mut built: Vec<Box<dyn Bench>> = (0..self.batch).map(|_| make()).collect();
            let elapsed = t.elapsed();
            self.spent += elapsed;
            let last = built.pop().expect("a batch builds at least one state");
            if elapsed >= MIN_TIMED {
                self.times.push(elapsed / self.batch as u32);
                return last;
            }
            let scale = MIN_TIMED.as_nanos() / elapsed.as_nanos().max(1) + 1;
            self.batch *= scale as usize;
        }
    }
}

/// The golden counters recorded for each workload's default seed.
const GOLDEN: &str = include_str!("golden.json");

/// Compares `counters` with the golden entry for `(workload, scale)`;
/// a missing entry is itself a failure, so a new counter cannot go
/// unpinned.
fn check_golden(workload: &str, scale: Scale, counters: &[(&str, u64)], checks: &mut Checks) {
    let golden = parse(GOLDEN).expect("golden.json is valid JSON");
    let entry = golden.get(workload).and_then(|w| w.get(scale.name()));
    for (name, got) in counters {
        let want = entry.and_then(|e| e.get(name)).and_then(Json::as_u64);
        checks.check(want == Some(*got), || {
            format!(
                "golden {workload}/{}/{name}: got {got}, want {want:?}",
                scale.name()
            )
        });
    }
}
