//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is one call boundary: name, layer, start and end (ns since
//! the tracer was made), parent span and sample id. Per-cycle calls
//! are folded: a [`Fold`] accumulates a call count and busy time over
//! a whole level pass, and lands in the buffer as one span, so a
//! 30k-cycle pass costs a handful of spans, not 100k. Spans stay in a
//! buffer allocated up front and are written out when the workload
//! ends. With tracing off every entry point returns at once.

use crate::stats::{num, obj};
use la1_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans the buffer holds before it has to grow.
const CAPACITY: usize = 1 << 14;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate/module layer the call belongs to.
    pub layer: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Sample the span belongs to; `None` for set-up and probes.
    pub sample: Option<u32>,
    /// Calls folded into the span (1 for a plain span).
    pub calls: u64,
    /// Time spent inside the calls. For a plain span, its duration;
    /// for a folded one, the sum of the folded calls' durations.
    pub busy_ns: u64,
}

/// Records spans when on; does nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: Option<u32>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { CAPACITY } else { 0 }),
            open: Vec::new(),
            sample: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with a sample id (`None` outside
    /// samples).
    pub fn set_sample(&mut self, sample: Option<u32>) {
        self.sample = sample;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            sample: self.sample,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter/exit pairs are written
    /// together in this benchmark's code.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[i];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Records a fold as one span under the innermost open span and
    /// returns its index, so folds of calls made inside the folded
    /// calls can name it as their parent.
    pub fn fold(&mut self, fold: &Fold, name: &'static str, layer: &'static str) -> Option<usize> {
        let parent = self.open.last().copied();
        self.fold_under(parent, fold, name, layer)
    }

    /// [`Tracer::fold`] under an explicit parent span.
    pub fn fold_under(
        &mut self,
        parent: Option<usize>,
        fold: &Fold,
        name: &'static str,
        layer: &'static str,
    ) -> Option<usize> {
        if !self.on || fold.calls == 0 {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let start_ns = fold.first.map_or(0, at);
        let end_ns = fold.last.map_or(start_ns, at);
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            sample: self.sample,
            calls: fold.calls,
            busy_ns: fold.busy_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its busy time minus its children's.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.busy_ns as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.busy_ns as i64;
            }
        }
        own
    }

    /// Self time per layer over the spans inside samples, in layer
    /// order.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, i64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.sample.is_some() {
                *by_layer.entry(s.layer).or_insert(0) += own;
            }
        }
        by_layer
    }

    /// Busy ns and calls summed over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| (ns + s.busy_ns, calls + s.calls))
    }

    /// Mean ns per folded call of `name` (0 when never called).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (ns, calls) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Busy ns of every span called `name`, one entry per span.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns as f64)
            .collect()
    }

    /// Busy ns of the spans called `name` summed per sample, one entry
    /// per sample that has any.
    pub fn per_sample(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(id) = s.sample {
                *sums.entry(id).or_insert(0.0) += s.busy_ns as f64;
            }
        }
        sums.into_values().collect()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::num);
        Json::Arr(
            self.spans
                .iter()
                .zip(self.self_ns())
                .map(|(s, own)| {
                    obj(vec![
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("start_ns", Json::num(s.start_ns)),
                        ("end_ns", Json::num(s.end_ns)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("sample", opt(s.sample.map(u64::from))),
                        ("calls", Json::num(s.calls)),
                        ("busy_ns", Json::num(s.busy_ns)),
                        ("self_ns", num(own as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Call count and busy time of one kind of per-cycle call over a pass.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    calls: u64,
    busy_ns: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Fold {
    /// Runs `f`, timing it as one call when `on`.
    #[inline]
    pub fn time<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        self.time_n(on, 1, f)
    }

    /// Runs `f`, timing it as `calls` calls when `on` (a loop over
    /// lanes timed as one interval).
    #[inline]
    pub fn time_n<R>(&mut self, on: bool, calls: u64, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.calls += calls;
        self.busy_ns += (end - start).as_nanos() as u64;
        self.first.get_or_insert(start);
        self.last = Some(end);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds() {
        let mut t = Tracer::new(true);
        t.set_sample(Some(0));
        t.enter("pass", "traffic");
        let mut step = Fold::default();
        let mut inner = Fold::default();
        for _ in 0..3 {
            step.time(true, || inner.time(true, || std::hint::black_box(1 + 1)));
        }
        let parent = t.fold(&step, "step", "rtl");
        t.fold_under(parent, &inner, "probe", "ovl");
        t.exit();
        let own = t.self_ns();
        assert!(own.iter().all(|&ns| ns >= 0), "{own:?}");
        assert_eq!(own.iter().sum::<i64>(), t.spans()[0].busy_ns as i64);
        assert_eq!(t.total("step").1, 3);
        assert_eq!(t.per_sample("pass").len(), 1);
        // off: nothing is recorded
        let mut off = Tracer::new(false);
        off.enter("pass", "traffic");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
