//! Order statistics over timing samples, the host fingerprint every
//! result carries, and the JSON helpers results are built with.

use la1_core::json::Json;
use std::time::Duration;

/// Order statistics of one measured quantity over a run's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest whole percentile with at least ten samples above
    /// it, with its value; `None` below 20 samples, where no
    /// percentile at or above the median qualifies.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every quantity has at least one
    /// sample by construction of the measurement loop.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = tail_percentile(n).map(|p| (p, quantile(&sorted, p as f64 / 100.0)));
        Summary {
            n,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        }
    }

    /// Summarizes durations in seconds.
    pub fn of_secs(values: &[Duration]) -> Summary {
        Summary::of(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
    }

    /// The interquartile range as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("n", Json::num(self.n as u64)),
            ("median", num(self.median)),
            ("q1", num(self.q1)),
            ("q3", num(self.q3)),
        ];
        if let Some((p, v)) = self.tail {
            fields.push(("tail_pct", Json::num(p as u64)));
            fields.push(("tail", num(v)));
        }
        obj(fields)
    }
}

/// The highest whole percentile `p >= 50` with at least ten of `n`
/// samples above it: `p <= 100 * (1 - 10 / n)`.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// The `p`-quantile of sorted samples by the exclusive method
/// (position `p * (n + 1)`, clamped to the sample range, linearly
/// interpolated) — Python's `statistics.quantiles` default, so these
/// quartiles match what a reader computes from the same values.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
}

/// A JSON number with every digit of the value; `null` when it is not
/// finite.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v}"))
    } else {
        Json::Null
    }
}

/// A value for a printed table: six decimals, or six significant
/// digits when six decimals would hide it (sub-millisecond set-ups).
pub fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number as a float.
pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// FNV-1a over bytes: the digest goldens pin rendered reports with.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Worker threads a workload may use: at most two, and no more than
/// the host has.
pub fn max_workers() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process's peak resident set (`VmHWM`) in MiB, when the host
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the numbers came from: core count, CPU model, compiler and
/// commit. Each part is `null` when the host cannot tell.
pub fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        });
    let rustc = command_line("rustc", &["--version"]);
    // `--git-dir` keeps git from searching parent directories: only a
    // checkout that is itself a repository names a commit
    let commit = command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    let opt = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    obj(vec![
        ("nproc", Json::num(nproc() as u64)),
        ("cpu", opt(cpu)),
        ("rustc", opt(rustc)),
        ("commit", opt(commit)),
    ])
}

/// The first line a command prints, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // odd count, unsorted input: [1, 3, 5, 7, 9] -> [2.0, 5.0, 8.0]
        let s = Summary::of(&[9.0, 1.0, 7.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 5.0, 8.0));
        // a single sample is every quantile
        let s = Summary::of(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3, s.tail), (4.5, 4.5, 4.5, None));
        assert_eq!(Summary::of(&[2.0, 4.0, 6.0]).spread(), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(25), Some(60));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        // 1..=100: p90 sits at position 0.9 * 101 = 90.9 -> 90.9,
        // and exactly ten samples (91..=100) lie above it
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = Summary::of(&values).tail.expect("100 samples have a tail");
        assert_eq!(p, 90);
        assert!((v - 90.9).abs() < 1e-9);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
        // the rule holds at every sample count
        for n in 20..300 {
            let values: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (_, v) = Summary::of(&values).tail.expect("n >= 20");
            assert!(values.iter().filter(|&&x| x > v).count() >= 10, "n = {n}");
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(num(0.1234567891).render(), "0.1234567891");
        assert_eq!(num(1e-7).render(), "0.0000001");
        assert_eq!(num(f64::NAN), Json::Null);
        // tables keep a sub-millisecond set-up visible
        assert_eq!(show(1.05e-7), "1.05000e-7");
        assert_eq!(show(0.25), "0.250000");
        assert_eq!(show(0.0), "0.000000");
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
    }
}
