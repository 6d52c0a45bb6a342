//! The coverage collector: a passive [`CycleObserver`] that samples
//! stimulus and pins each cycle and scores the [`CoverageModel`]'s
//! bins.
//!
//! All bin predicates are *pin-derived*: they are pure functions of the
//! driven operations plus the outputs every
//! [`CycleModel`](la1_core::cycle_model::CycleModel) exposes (per-bank
//! data-valid word, write-done flag, parity-error flag) over a short
//! history window. Nothing peeks at level-internal state, so a healthy
//! design hits the identical bin set at every refinement level — the
//! cross-level coverage-equivalence property the test suite pins.

use crate::model::{BinKind, BinStat, BinStats, CoverBin, CoverageModel};
use la1_core::cycle_model::{CycleModel, CycleObserver};
use la1_core::json::Json;
use la1_core::spec::{BankOp, READ_LATENCY};

/// What one bank showed in one cycle: the driven operations and the
/// sampled pins.
#[derive(Debug, Clone, Default)]
struct BankSample {
    /// Read address driven this cycle, if any.
    read: Option<u64>,
    /// Write `(address, byte_en)` driven this cycle, if any.
    write: Option<(u64, u32)>,
    /// Word on the output bus if the data-valid flag was set.
    dv: Option<u64>,
    /// Write-done flag.
    wdone: bool,
    /// Parity-error flag.
    perr: bool,
}

/// One cycle's samples across all banks.
#[derive(Debug, Clone, Default)]
struct CycleSample {
    banks: Vec<BankSample>,
}

impl CycleSample {
    fn any_read(&self) -> bool {
        self.banks.iter().any(|b| b.read.is_some())
    }

    fn any_write(&self) -> bool {
        self.banks.iter().any(|b| b.write.is_some())
    }

    /// Whether any op (read or write) targets `(bank, addr)`.
    fn targets(&self, bank: usize, addr: u64) -> bool {
        let b = &self.banks[bank];
        b.read == Some(addr) || matches!(b.write, Some((a, _)) if a == addr)
    }
}

/// Serializable form of one bank's cycle sample (the collector's
/// private ring entries, mirrored so a checkpoint can carry them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSampleSnap {
    /// Read address driven this cycle, if any.
    pub read: Option<u64>,
    /// Write `(address, byte_en)` driven this cycle, if any.
    pub write: Option<(u64, u32)>,
    /// Word on the output bus if the data-valid flag was set.
    pub dv: Option<u64>,
    /// Write-done flag.
    pub wdone: bool,
    /// Parity-error flag.
    pub perr: bool,
}

/// Serializable dynamic state of a [`CoverageCollector`]
/// ([`CoverageCollector::snapshot_state`] /
/// [`CoverageCollector::restore_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorSnap {
    /// Hit count per bin, in model order.
    pub hits: Vec<u64>,
    /// First-hit cycle per bin, in model order.
    pub first_hit: Vec<Option<u64>>,
    /// The history ring in storage order: `history[i][bank]`.
    pub history: Vec<Vec<BankSampleSnap>>,
    /// Cycles observed so far.
    pub cycle: u64,
}

/// Collects functional coverage from any [`CycleModel`] run.
///
/// Attach through
/// [`run_abv_observed`](la1_core::harness::run_abv_observed) or
/// [`co_execute_observed`](la1_core::cycle_model::co_execute_observed);
/// the collector is observation-only and never drives the model.
#[derive(Debug)]
pub struct CoverageCollector {
    model: CoverageModel,
    /// Hit count per bin, indexed like `model.bins()`.
    hits: Vec<u64>,
    /// First cycle (0-based) each bin was hit.
    first_hit: Vec<Option<u64>>,
    /// History ring: `history[(cycle - k) % depth]` is the sample from
    /// `k` cycles ago once `cycle >= k`.
    history: Vec<CycleSample>,
    cycle: u64,
}

impl CoverageCollector {
    /// Creates a collector for `model` with all bins unhit.
    pub fn new(model: CoverageModel) -> Self {
        let n = model.len();
        let depth = model.lookback() + 1;
        let banks = model.banks as usize;
        CoverageCollector {
            model,
            hits: vec![0; n],
            first_hit: vec![None; n],
            history: (0..depth)
                .map(|_| CycleSample {
                    banks: vec![BankSample::default(); banks],
                })
                .collect(),
            cycle: 0,
        }
    }

    /// The coverage model being scored.
    pub fn model(&self) -> &CoverageModel {
        &self.model
    }

    /// Cycles observed so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Hit counts, indexed like [`CoverageModel::bins`].
    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    /// First-hit cycle per bin (0-based), indexed like
    /// [`CoverageModel::bins`].
    pub fn first_hits(&self) -> &[Option<u64>] {
        &self.first_hit
    }

    /// Number of bins hit at least once.
    pub fn covered(&self) -> usize {
        self.hits.iter().filter(|&&h| h > 0).count()
    }

    /// Number of tier-1 bins hit at least once.
    pub fn covered_tier1(&self) -> usize {
        self.model
            .bins()
            .iter()
            .zip(&self.hits)
            .filter(|(b, &h)| b.tier() == 1 && h > 0)
            .count()
    }

    /// Whether every defined bin has been hit.
    pub fn is_full(&self) -> bool {
        self.hits.iter().all(|&h| h > 0)
    }

    /// The bins not yet hit, in model order.
    pub fn unhit(&self) -> Vec<CoverBin> {
        self.model
            .bins()
            .iter()
            .zip(&self.hits)
            .filter(|(_, &h)| h == 0)
            .map(|(b, _)| *b)
            .collect()
    }

    /// The hit bins' names, in model order — the cross-level
    /// equivalence test compares these sets between levels.
    pub fn hit_names(&self) -> Vec<String> {
        self.model
            .bins()
            .iter()
            .zip(&self.hits)
            .filter(|(_, &h)| h > 0)
            .map(|(b, _)| b.name())
            .collect()
    }

    /// Snapshots the per-bin statistics in mergeable form — the
    /// coverage result one farm shard hands back
    /// ([`CoverageModel::merge_bins`] folds them).
    pub fn bin_stats(&self) -> BinStats {
        self.model
            .bins()
            .iter()
            .enumerate()
            .map(|(i, bin)| {
                (
                    bin.name(),
                    BinStat {
                        tier: bin.tier(),
                        hits: self.hits[i],
                        first_hit: self.first_hit[i],
                    },
                )
            })
            .collect()
    }

    /// The cycle count after which coverage was complete: one past the
    /// latest first hit. `None` while any bin is unhit.
    pub fn cycles_to_full(&self) -> Option<u64> {
        if !self.is_full() {
            return None;
        }
        self.first_hit.iter().map(|f| f.unwrap() + 1).max()
    }

    /// Captures the collector's full dynamic state: per-bin counters
    /// *and* the sample-history ring. The ring matters — the sequence
    /// and monitor-activation bins look back several cycles, so a
    /// restored collector without it would score the first post-restore
    /// cycles differently from a straight-through run.
    pub fn snapshot_state(&self) -> CollectorSnap {
        CollectorSnap {
            hits: self.hits.clone(),
            first_hit: self.first_hit.clone(),
            history: self
                .history
                .iter()
                .map(|c| {
                    c.banks
                        .iter()
                        .map(|b| BankSampleSnap {
                            read: b.read,
                            write: b.write,
                            dv: b.dv,
                            wdone: b.wdone,
                            perr: b.perr,
                        })
                        .collect()
                })
                .collect(),
            cycle: self.cycle,
        }
    }

    /// Restores state captured by [`CoverageCollector::snapshot_state`]
    /// into a collector built over the same coverage model. Errors when
    /// the shapes disagree (different model, bank count or lookback
    /// depth).
    pub fn restore_state(&mut self, snap: &CollectorSnap) -> Result<(), String> {
        if snap.hits.len() != self.hits.len() || snap.first_hit.len() != self.first_hit.len() {
            return Err(format!(
                "collector snapshot has {} bins, model defines {}",
                snap.hits.len(),
                self.hits.len()
            ));
        }
        if snap.history.len() != self.history.len() {
            return Err(format!(
                "collector snapshot has a depth-{} history ring, model needs {}",
                snap.history.len(),
                self.history.len()
            ));
        }
        let banks = self.model.banks as usize;
        if snap.history.iter().any(|c| c.len() != banks) {
            return Err(format!("collector snapshot bank count is not {banks}"));
        }
        self.hits = snap.hits.clone();
        self.first_hit = snap.first_hit.clone();
        self.history = snap
            .history
            .iter()
            .map(|c| CycleSample {
                banks: c
                    .iter()
                    .map(|b| BankSample {
                        read: b.read,
                        write: b.write,
                        dv: b.dv,
                        wdone: b.wdone,
                        perr: b.perr,
                    })
                    .collect(),
            })
            .collect();
        self.cycle = snap.cycle;
        Ok(())
    }

    /// The sample from `k` cycles before the current one, or `None`
    /// when the run is younger than `k` cycles.
    fn back(&self, k: usize) -> Option<&CycleSample> {
        if (self.cycle as usize) < k {
            return None;
        }
        let depth = self.history.len();
        let idx = (self.cycle as usize - k) % depth;
        Some(&self.history[idx])
    }

    fn hit(&mut self, index: usize) {
        self.hits[index] += 1;
        if self.first_hit[index].is_none() {
            self.first_hit[index] = Some(self.cycle);
        }
    }

    /// Evaluates every bin predicate against the current history
    /// window and records hits. `cur` must already be stored at the
    /// ring slot for the current cycle.
    fn score(&mut self) {
        let words = self.model.words;
        let full = self.model.full_byte_en;
        let burst = self.model.burst_len;
        let lat = READ_LATENCY as usize;
        let hi_read = if burst >= 2 { words - burst } else { words - 1 };
        let mut fired = Vec::new();
        {
            let cur = self.back(0).expect("current sample present");
            for (i, bin) in self.model.bins().iter().enumerate() {
                let b = bin.bank as usize;
                let ok = match bin.kind {
                    BinKind::OpRead => cur.banks[b].read.is_some(),
                    BinKind::OpWrite => cur.banks[b].write.is_some(),
                    BinKind::OpWritePartial => {
                        matches!(cur.banks[b].write, Some((_, be)) if be != full)
                    }
                    BinKind::OpRwSame => {
                        cur.banks[b].read.is_some() && cur.banks[b].write.is_some()
                    }
                    BinKind::OpRwCross => {
                        cur.banks[b].read.is_some()
                            && cur
                                .banks
                                .iter()
                                .enumerate()
                                .any(|(o, s)| o != b && s.write.is_some())
                    }
                    BinKind::AddrReadLo => cur.banks[b].read == Some(0),
                    BinKind::AddrReadHi => cur.banks[b].read == Some(hi_read),
                    BinKind::AddrWriteLo => {
                        matches!(cur.banks[b].write, Some((0, _)))
                    }
                    BinKind::AddrWriteHi => {
                        matches!(cur.banks[b].write, Some((a, _)) if a == words - 1)
                    }
                    BinKind::SeqB2bRead => {
                        cur.banks[b].read.is_some()
                            && self
                                .back(burst as usize)
                                .is_some_and(|p| p.banks[b].read.is_some())
                    }
                    BinKind::SeqB2bWrite => {
                        cur.banks[b].write.is_some()
                            && self.back(1).is_some_and(|p| p.banks[b].write.is_some())
                    }
                    BinKind::SeqRaw => self.back(1).is_some_and(|p| {
                        matches!(p.banks[b].write, Some((a, _))
                            if cur.banks[b].read == Some(a))
                    }),
                    BinKind::BankCross => {
                        cur.targets(b + 1, 0)
                            && self
                                .back(1)
                                .is_some_and(|p| p.targets(b, words - 1))
                    }
                    BinKind::IdleCycle => !cur.any_read() && !cur.any_write(),
                    BinKind::MonReadLatencyArmed => self
                        .back(lat)
                        .is_some_and(|p| p.banks[b].read.is_some()),
                    BinKind::MonReadLatencyHeld => {
                        cur.banks[b].dv.is_some()
                            && self
                                .back(lat)
                                .is_some_and(|p| p.banks[b].read.is_some())
                    }
                    BinKind::MonNoSpuriousArmed => {
                        self.no_spurious_armed(b, burst, lat)
                    }
                    BinKind::MonNoSpuriousHeld => {
                        cur.banks[b].dv.is_none()
                            && self.no_spurious_armed(b, burst, lat)
                    }
                    BinKind::MonParityArmed => cur.banks[b].dv.is_some(),
                    BinKind::MonParityHeld => {
                        cur.banks[b].dv.is_some() && !cur.banks[b].perr
                    }
                    BinKind::MonWriteCommitArmed => {
                        self.back(1).is_some_and(|p| p.banks[b].write.is_some())
                    }
                    BinKind::MonWriteCommitHeld => {
                        cur.banks[b].wdone
                            && self.back(1).is_some_and(|p| p.banks[b].write.is_some())
                    }
                    BinKind::MonBurstBeatArmed => self
                        .back(lat + 1)
                        .is_some_and(|p| p.banks[b].read.is_some()),
                    BinKind::MonBurstBeatHeld => {
                        cur.banks[b].dv.is_some()
                            && self
                                .back(lat + 1)
                                .is_some_and(|p| p.banks[b].read.is_some())
                    }
                    BinKind::BurstMinSpacing => {
                        cur.any_read()
                            && self.back(burst as usize).is_some_and(|p| p.any_read())
                            && (1..burst as usize)
                                .all(|k| self.back(k).is_some_and(|p| !p.any_read()))
                    }
                    BinKind::XPipeFull => {
                        cur.any_read()
                            && cur.any_write()
                            && self
                                .back(1)
                                .is_some_and(|p| p.any_read() && p.any_write())
                    }
                    BinKind::XReadStream => {
                        cur.banks[b].read.is_some()
                            && self
                                .back(burst as usize)
                                .is_some_and(|p| p.banks[b].read.is_some())
                            && self
                                .back(2 * burst as usize)
                                .is_some_and(|p| p.banks[b].read.is_some())
                    }
                    BinKind::XWriteStream => {
                        cur.banks[b].write.is_some()
                            && (1..=2).all(|k| {
                                self.back(k)
                                    .is_some_and(|p| p.banks[b].write.is_some())
                            })
                    }
                    BinKind::XRwTurnaround => {
                        cur.banks[b].read.is_some()
                            && self.back(1).is_some_and(|p| p.banks[b].write.is_some())
                    }
                };
                if ok {
                    fired.push(i);
                }
            }
        }
        for i in fired {
            self.hit(i);
        }
    }

    /// The `no_spurious_dv` never-SERE's prefix matched: no read on
    /// the bank over the whole latency window ending one cycle ago
    /// (the burst form's window is one cycle longer).
    fn no_spurious_armed(&self, bank: usize, burst: u64, lat: usize) -> bool {
        let depth = if burst >= 2 { lat + 1 } else { lat };
        (lat..=depth).all(|k| {
            self.back(k)
                .is_some_and(|p| p.banks[bank].read.is_none())
        })
    }

    /// The coverage report as a JSON value.
    pub fn json(&self) -> Json {
        let bins = self.model.bins().iter().enumerate().map(|(i, bin)| {
            Json::obj([
                ("name", Json::str(bin.name())),
                ("tier", Json::num(bin.tier() as u64)),
                ("hits", Json::num(self.hits[i])),
                ("first_hit", Json::opt_num(self.first_hit[i])),
            ])
        });
        Json::obj([
            ("cycles", Json::num(self.cycle)),
            ("bins_total", Json::num(self.model.len() as u64)),
            ("bins_hit", Json::num(self.covered() as u64)),
            ("bins", Json::Arr(bins.collect())),
        ])
    }

    /// Renders the deterministic JSON coverage report, one bin per
    /// line.
    pub fn to_json(&self) -> String {
        self.json().render_pretty(&["bins"])
    }
}

impl CycleObserver for CoverageCollector {
    fn observe(&mut self, ops: &[BankOp], model: &mut dyn CycleModel) {
        let depth = self.history.len();
        let slot = (self.cycle as usize) % depth;
        {
            let sample = &mut self.history[slot];
            for (bank, s) in sample.banks.iter_mut().enumerate() {
                let bank = bank as u32;
                *s = BankSample {
                    read: None,
                    write: None,
                    dv: model.bank_output(bank),
                    wdone: model.write_done(bank),
                    perr: model.parity_error(bank),
                };
            }
            for op in ops {
                let s = &mut sample.banks[op.bank() as usize];
                match *op {
                    BankOp::Read { addr, .. } => s.read = Some(addr),
                    BankOp::Write { addr, byte_en, .. } => s.write = Some((addr, byte_en)),
                }
            }
        }
        self.score();
        self.cycle += 1;
    }
}
