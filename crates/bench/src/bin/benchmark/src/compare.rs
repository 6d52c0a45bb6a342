//! `benchmark compare A B`: every (workload, metric) pair of two result
//! files, each holding one or more runs, the parent `A` judged against
//! the change `B`. Run `i` of one file pairs with run `i` of the other.
//!
//! * **improved** — at least ten run pairs, `B` wins at least nine
//!   tenths of them (ties count for neither side), and the medians
//!   differ by more than `A`'s interquartile range;
//! * **regressed** — `B`'s median is worse than `A`'s by more than the
//!   metric's bound, and either `A`'s own spread is within the bound or
//!   every run of `B` reads worse than every run of `A`; for a metric
//!   without a bound, the mirror image of the improvement rule;
//! * **unresolved** — `A`'s own spread is wider than the bound and the
//!   runs of `A` and `B` overlap;
//! * **unchanged** — none of the above.

use crate::stats::{as_f64, show, Summary};
use la1_core::json::{parse, Json};
use std::collections::BTreeMap;

/// One metric's values across the runs of a file.
#[derive(Debug, Default)]
struct Series {
    unit: String,
    lower_is_better: bool,
    values: Vec<f64>,
}

/// `(workload, metric)` → series, in name order.
type Runs = BTreeMap<(String, String), Series>;

/// Reads a result file: one JSON run per line.
fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let run = parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(as_f64)
                .ok_or_else(|| bad(&format!("{name}: no value")))?;
            let series = runs
                .entry((workload.to_string(), name.clone()))
                .or_default();
            series.unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            series.lower_is_better = m.get("better").and_then(Json::as_str) != Some("higher");
            series.values.push(value);
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> (&'static str, f64) {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| better(a[i], b[i])).count();
    let win = wins as f64 / pairs.max(1) as f64;
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let moved = (sb.median - sa.median).abs() > sa.q3 - sa.q1;
    let gained = better(sb.median, sa.median);
    let improved = pairs >= 10 && win >= 0.9 && moved && gained;
    let worse_share = if sa.median == 0.0 {
        0.0
    } else if lower_is_better {
        (sb.median - sa.median) / sa.median.abs()
    } else {
        (sa.median - sb.median) / sa.median.abs()
    };
    // every run of `x` reads better than every run of `y`
    let apart = |x: &[f64], y: &[f64]| x.iter().all(|&u| y.iter().all(|&v| better(u, v)));
    let verdict = match bound {
        _ if improved => "improved",
        Some(bound) if worse_share > bound && (sa.spread() <= bound || apart(a, b)) => "regressed",
        Some(bound) if sa.spread() > bound && !apart(a, b) && !apart(b, a) => "unresolved",
        None if pairs >= 10 && losses as f64 >= 0.9 * pairs as f64 && moved && !gained => {
            "regressed"
        }
        _ => "unchanged",
    };
    (verdict, win)
}

/// Verdicts of one comparison that call for a second look.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Pairs judged regressed.
    pub regressed: usize,
    /// Pairs judged unresolved.
    pub unresolved: usize,
}

/// Compares two result files, judging each metric by `bound(name)`;
/// returns the report and how many pairs regressed or stayed
/// unresolved.
pub fn compare(
    a: &str,
    b: &str,
    bound: impl Fn(&str) -> Option<f64>,
) -> Result<(String, Tally), String> {
    let (runs_a, runs_b) = (read(a)?, read(b)?);
    let mut out = format!(
        "{:<20} {:<32} {:>6} {:>34} {:>34} {:>5}  verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "win"
    );
    let mut tally = Tally::default();
    for (key, sa) in &runs_a {
        let Some(sb) = runs_b.get(key) else { continue };
        let (v, win) = verdict(&sa.values, &sb.values, sa.lower_is_better, bound(&key.1));
        match v {
            "regressed" => tally.regressed += 1,
            "unresolved" => tally.unresolved += 1,
            _ => {}
        }
        let show = |s: &Series| {
            let m = Summary::of(&s.values);
            format!(
                "{} [{}, {}] n={}",
                show(m.median),
                show(m.q1),
                show(m.q3),
                m.n
            )
        };
        out.push_str(&format!(
            "{:<20} {:<32} {:>6} {:>34} {:>34} {:>5.2}  {v}\n",
            key.0,
            key.1,
            sa.unit,
            show(sa),
            show(sb),
            win
        ));
    }
    out.push_str(&format!(
        "{} regressed, {} unresolved\n",
        tally.regressed, tally.unresolved
    ));
    Ok((out, tally))
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_win_and_bound_rules() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * i as f64).collect();
        // every run 20% faster: improved
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, true, Some(0.1)).0, "improved");
        assert_eq!(verdict(&a, &b, true, Some(0.1)).1, 1.0);
        // 20% slower with a 10% bound: regressed
        let c: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &c, true, Some(0.1)).0, "regressed");
        // higher-is-better flips both
        assert_eq!(verdict(&a, &c, false, Some(0.1)).0, "improved");
        // 2% slower inside a 10% bound: unchanged
        let d: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&a, &d, true, Some(0.1)).0, "unchanged");
        // a parent spread wider than the bound, runs overlapping: unresolved
        let noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(verdict(&noisy, &noisy, true, Some(0.1)).0, "unresolved");
        // ...but a 3x slowdown clear of every parent run: regressed
        let slow: Vec<f64> = noisy.iter().map(|x| x * 3.0).collect();
        assert_eq!(verdict(&noisy, &slow, true, Some(0.1)).0, "regressed");
        // ...and a speed-up clear of every parent run, too few pairs to
        // claim it: unchanged
        let fast: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(verdict(&noisy, &fast, true, Some(0.1)).0, "unchanged");
        // two runs of a rate halved: regressed
        assert_eq!(
            verdict(&[1000.0, 1040.0], &[500.0, 520.0], false, Some(0.25)).0,
            "regressed"
        );
        // too few pairs to claim a gain
        assert_eq!(verdict(&a[..3], &b[..3], true, Some(0.1)).0, "unchanged");
    }
}
