//! The coverage-guided constrained-random stimulus generator.
//!
//! [`GuidedMix`] behaves like
//! [`RandomMix`](la1_core::workloads::RandomMix) until it is told what
//! is still missing: [`GuidedMix::retarget`] takes the collector's
//! unhit-bin list and enqueues a short *directed preamble* for each bin
//! (sequence preambles for the sequence bins, corner addresses for the
//! address bins, idle windows for the never-style monitor bins).
//! Directed cycles drain first; random traffic fills the rest.
//!
//! Since the transaction-level refactor, `GuidedMix` is a
//! [`Sequencer`]: it yields [`SequenceItem`]s and the
//! [`Driver`](la1_core::stimulus::Driver) owns the protocol legality
//! rules (single address bus, LA-1B burst spacing). The generator
//! consults [`SeqContext::read_legal`] so its rng draw order — and
//! therefore the emitted cycle stream — is byte-identical to the
//! pre-refactor `Workload` implementation (pinned by the golden-stream
//! tests): a planned read is *delayed* (idle cycle emitted) until the
//! output bus is free, never dropped, and the random fill's read draw
//! is consumed even on cycles where a read would be illegal.
//!
//! The stream is a pure function of `(seed, config, retarget calls)`:
//! the generator draws only from its own seeded [`StdRng`].

use crate::model::{BinKind, CoverBin};
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::{SeqContext, SequenceItem, Sequencer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Serializable dynamic state of a [`GuidedMix`]
/// ([`GuidedMix::snapshot_state`] / [`GuidedMix::restore_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuidedMixSnap {
    /// The seeded rng's internal counter state.
    pub rng: u64,
    /// Directed cycles awaiting emission, front first.
    pub plan: Vec<Vec<BankOp>>,
    /// Items of the cycle currently being handed to the driver.
    pub items: Vec<SequenceItem>,
}

/// A seeded, deterministic, coverage-guided constrained-random
/// workload (see module docs).
#[derive(Debug)]
pub struct GuidedMix {
    rng: StdRng,
    banks: u32,
    words: u64,
    full_byte_en: u32,
    burst_len: u64,
    read_prob: f64,
    write_prob: f64,
    /// Directed cycles awaiting emission, front first.
    plan: VecDeque<Vec<BankOp>>,
    /// Items of the cycle currently being handed to the driver.
    items: VecDeque<SequenceItem>,
}

impl GuidedMix {
    /// Creates the generator. Until the first [`GuidedMix::retarget`]
    /// it emits pure constrained-random traffic (reads with probability
    /// `read_prob`, writes with `write_prob`, both burst-legal).
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(config: &LaConfig, seed: u64, read_prob: f64, write_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_prob));
        assert!((0.0..=1.0).contains(&write_prob));
        GuidedMix {
            rng: StdRng::seed_from_u64(seed),
            banks: config.banks,
            words: config.words_per_bank as u64,
            full_byte_en: (1u32 << config.byte_enables()) - 1,
            burst_len: config.burst_len as u64,
            read_prob,
            write_prob,
            plan: VecDeque::new(),
            items: VecDeque::new(),
        }
    }

    /// Number of directed cycles still queued.
    pub fn planned(&self) -> usize {
        self.plan.len()
    }

    /// Captures the generator's dynamic state: the rng's internal
    /// counter, the directed plan and the partially-drained item queue.
    /// The static traffic parameters come back from the configuration
    /// on restore.
    pub fn snapshot_state(&self) -> GuidedMixSnap {
        GuidedMixSnap {
            rng: self.rng.state(),
            plan: self.plan.iter().cloned().collect(),
            items: self.items.iter().cloned().collect(),
        }
    }

    /// Restores state captured by [`GuidedMix::snapshot_state`] into a
    /// generator built with the same configuration and probabilities.
    pub fn restore_state(&mut self, snap: &GuidedMixSnap) {
        self.rng = StdRng::from_state(snap.rng);
        self.plan = snap.plan.iter().cloned().collect();
        self.items = snap.items.iter().cloned().collect();
    }

    /// Replaces the rng with a freshly seeded one (plan and queued
    /// items stay) — how a restored checkpoint fans out into divergent
    /// continuation streams.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Replaces the directed plan with preambles for `unhit` bins.
    /// Call once per epoch with the collector's unhit list; an empty
    /// list clears the plan (back to pure random fill).
    pub fn retarget(&mut self, unhit: &[CoverBin]) {
        self.plan.clear();
        self.items.clear();
        for bin in unhit {
            let scenario = self.scenario_for(bin);
            self.plan.extend(scenario);
        }
    }

    /// A random in-range word address.
    fn addr(&mut self) -> u64 {
        self.rng.gen_range(0..self.words)
    }

    /// A random full-word write to `bank`.
    fn write(&mut self, bank: u32, addr: u64) -> BankOp {
        let data = self.rng.gen::<u64>();
        BankOp::write(bank, addr, data, self.full_byte_en)
    }

    /// The directed preamble hitting `bin` on a healthy design. Each
    /// scenario is self-contained; separating idle cycles are appended
    /// so consecutive scenarios cannot mask each other's sequence
    /// shapes.
    fn scenario_for(&mut self, bin: &CoverBin) -> Vec<Vec<BankOp>> {
        let b = bin.bank;
        let w = self.words;
        let gap = self.burst_len as usize - 1;
        let mut s: Vec<Vec<BankOp>> = match bin.kind {
            BinKind::OpRead => {
                let a = self.addr();
                vec![vec![BankOp::read(b, a)]]
            }
            BinKind::OpWrite => {
                let a = self.addr();
                vec![vec![self.write(b, a)]]
            }
            BinKind::OpWritePartial => {
                let a = self.addr();
                let data = self.rng.gen::<u64>();
                let be = self.rng.gen_range(1..self.full_byte_en);
                vec![vec![BankOp::write(b, a, data, be)]]
            }
            BinKind::OpRwSame => {
                let ra = self.addr();
                let wa = self.addr();
                let wr = self.write(b, wa);
                vec![vec![BankOp::read(b, ra), wr]]
            }
            BinKind::OpRwCross => {
                let other = (b + 1) % self.banks;
                let ra = self.addr();
                let wa = self.addr();
                let wr = self.write(other, wa);
                vec![vec![BankOp::read(b, ra), wr]]
            }
            BinKind::AddrReadLo => vec![vec![BankOp::read(b, 0)]],
            BinKind::AddrReadHi => {
                // highest burst-safe start address (the second beat
                // wraps, so read the bin's definition of "max")
                let hi = if self.burst_len >= 2 {
                    w - self.burst_len
                } else {
                    w - 1
                };
                vec![vec![BankOp::read(b, hi)]]
            }
            BinKind::AddrWriteLo => vec![vec![self.write(b, 0)]],
            BinKind::AddrWriteHi => vec![vec![self.write(b, w - 1)]],
            BinKind::SeqB2bRead => {
                let a1 = self.addr();
                let a2 = self.addr();
                let mut v = vec![vec![BankOp::read(b, a1)]];
                v.extend((0..gap).map(|_| Vec::new()));
                v.push(vec![BankOp::read(b, a2)]);
                v
            }
            BinKind::SeqB2bWrite => {
                let a1 = self.addr();
                let a2 = self.addr();
                let w1 = self.write(b, a1);
                let w2 = self.write(b, a2);
                vec![vec![w1], vec![w2]]
            }
            BinKind::SeqRaw => {
                let a = self.addr();
                let wr = self.write(b, a);
                vec![vec![wr], vec![BankOp::read(b, a)]]
            }
            BinKind::BankCross => {
                let w1 = self.write(b, w - 1);
                let w2 = self.write(b + 1, 0);
                vec![vec![w1], vec![w2]]
            }
            BinKind::IdleCycle => vec![Vec::new()],
            BinKind::MonReadLatencyArmed
            | BinKind::MonReadLatencyHeld
            | BinKind::MonParityArmed
            | BinKind::MonParityHeld => {
                // a read whose data beat (and parity check) is observed
                let a = self.addr();
                vec![vec![BankOp::read(b, a)], Vec::new(), Vec::new()]
            }
            BinKind::MonNoSpuriousArmed | BinKind::MonNoSpuriousHeld => {
                // a full no-read window on every bank
                let window = if self.burst_len >= 2 { 4 } else { 3 };
                (0..window).map(|_| Vec::new()).collect()
            }
            BinKind::MonWriteCommitArmed | BinKind::MonWriteCommitHeld => {
                let a = self.addr();
                vec![vec![self.write(b, a)], Vec::new()]
            }
            BinKind::MonBurstBeatArmed | BinKind::MonBurstBeatHeld => {
                let a = self.addr();
                vec![vec![BankOp::read(b, a)], Vec::new(), Vec::new(), Vec::new()]
            }
            BinKind::BurstMinSpacing => {
                let a1 = self.addr();
                let a2 = self.addr();
                let mut v = vec![vec![BankOp::read(b, a1)]];
                v.extend((0..gap).map(|_| Vec::new()));
                v.push(vec![BankOp::read(b, a2)]);
                v
            }
            BinKind::XPipeFull => {
                // two consecutive full cycles (only planned on LA-1,
                // where back-to-back reads are legal)
                let mut v = Vec::new();
                for _ in 0..2 {
                    let ra = self.addr();
                    let wa = self.addr();
                    let wr = self.write(b, wa);
                    v.push(vec![BankOp::read(b, ra), wr]);
                }
                v
            }
            BinKind::XReadStream => {
                let mut v = Vec::new();
                for i in 0..3 {
                    let a = self.addr();
                    v.push(vec![BankOp::read(b, a)]);
                    if i < 2 {
                        v.extend((0..gap).map(|_| Vec::new()));
                    }
                }
                v
            }
            BinKind::XWriteStream => (0..3)
                .map(|_| {
                    let a = self.addr();
                    vec![self.write(b, a)]
                })
                .collect(),
            BinKind::XRwTurnaround => {
                let wa = self.addr();
                let ra = self.addr();
                let wr = self.write(b, wa);
                vec![vec![wr], vec![BankOp::read(b, ra)]]
            }
        };
        // one idle separator so the next scenario's history window
        // starts from this scenario's tail, not inside it
        s.push(Vec::new());
        s
    }

    /// Pure constrained-random fill (used when no directed cycles are
    /// queued). The read-probability draw is consumed even when the
    /// bus is busy (`!read_legal`), matching the pre-refactor stream.
    fn fill_random(&mut self, read_legal: bool) {
        if self.rng.gen_bool(self.read_prob) && read_legal {
            let bank = self.rng.gen_range(0..self.banks);
            let addr = self.addr();
            self.items.push_back(SequenceItem::Read { bank, addr });
        }
        if self.rng.gen_bool(self.write_prob) {
            let bank = self.rng.gen_range(0..self.banks);
            let addr = self.addr();
            let data = self.rng.gen::<u64>();
            // same 80/20 full/partial split as RandomMix, so the
            // unguided run is a fair baseline
            let byte_en = if self.rng.gen_bool(0.8) {
                self.full_byte_en
            } else {
                self.rng.gen_range(1..self.full_byte_en)
            };
            self.items.push_back(SequenceItem::Write {
                bank,
                addr,
                data,
                byte_en,
            });
        }
    }
}

impl Sequencer for GuidedMix {
    fn next_item(&mut self, ctx: &SeqContext) -> SequenceItem {
        if self.items.is_empty() {
            match self.plan.front() {
                Some(planned) if planned.iter().any(BankOp::is_read) && !ctx.read_legal => {
                    // output bus still busy with the previous burst:
                    // delay the planned read, emit an idle filler
                }
                Some(_) => {
                    let ops = self.plan.pop_front().expect("front checked");
                    self.items.extend(ops.iter().map(SequenceItem::from_op));
                }
                None => self.fill_random(ctx.read_legal),
            }
            self.items.push_back(SequenceItem::Idle);
        }
        self.items.pop_front().expect("queue refilled above")
    }
}
