//! The functional coverage model of the LA-1 protocol.
//!
//! A [`CoverageModel`] is built once from a [`LaConfig`] and defines a
//! fixed, deterministically ordered list of [`CoverBin`]s. Bins are
//! *protocol-level*: they are decided from the per-cycle stimulus
//! (`&[BankOp]`) plus the pins every
//! [`CycleModel`](la1_core::cycle_model::CycleModel) exposes (per-bank
//! data-valid word, write-done flag, parity-error flag), so the same
//! model scores every refinement level.
//!
//! Tiers: tier 1 is the base-LA-1 bin set, closable by any
//! protocol-legal stimulus; tier 2 is the LA-1B burst extension's bins,
//! which only exist when the configuration is a burst one; tier 3 is
//! the traffic cross-bin extension ([`CoverageModel::la1_traffic`])
//! observing shapes only multi-master contention and sustained
//! burst-stream workloads produce — the default
//! [`CoverageModel::la1`] model excludes them so existing closure and
//! campaign reports stay byte-identical.

use la1_core::spec::{LaConfig, READ_LATENCY};
use std::collections::BTreeMap;

/// The kind of one coverage bin (the `bank` field of [`CoverBin`]
/// selects the instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// A read was issued to the bank (bank×op cross).
    OpRead,
    /// A write was issued to the bank (bank×op cross).
    OpWrite,
    /// A partial (byte-controlled) write was issued to the bank.
    OpWritePartial,
    /// Concurrent read and write on the *same* bank in one cycle —
    /// the headline LA-1 feature (the suite's `concurrent_rw` cover).
    OpRwSame,
    /// A read on this bank concurrent with a write on another bank
    /// (multi-bank configurations only).
    OpRwCross,
    /// A read of word 0 (address corner).
    AddrReadLo,
    /// A read of the last word (address corner).
    AddrReadHi,
    /// A write to word 0 (address corner).
    AddrWriteLo,
    /// A write to the last word (address corner).
    AddrWriteHi,
    /// Reads on this bank in two protocol-adjacent cycles
    /// (back-to-back for LA-1; spaced `burst_len` under LA-1B).
    SeqB2bRead,
    /// Writes on this bank in two consecutive cycles.
    SeqB2bWrite,
    /// Read-after-write of the *same address* on consecutive cycles —
    /// the freshly-committed-data forwarding path.
    SeqRaw,
    /// Ops in consecutive cycles crossing the boundary from this
    /// bank's last word to the next bank's word 0.
    BankCross,
    /// A cycle carrying no operation at all.
    IdleCycle,
    /// `read_latency` monitor antecedent triggered (a read accepted).
    MonReadLatencyArmed,
    /// `read_latency` observed holding: read issued
    /// [`READ_LATENCY`] cycles ago and data-valid now.
    MonReadLatencyHeld,
    /// `no_spurious_dv` antecedent triggered: the never-SERE's prefix
    /// (`!rd` the right number of cycles back) matched, one step from
    /// a potential violation.
    MonNoSpuriousArmed,
    /// `no_spurious_dv` observed holding: prefix matched and the bank
    /// kept its data-valid flag low.
    MonNoSpuriousHeld,
    /// `parity` monitor exercised: the bank drove data (the parity
    /// comparator saw a real word).
    MonParityArmed,
    /// `parity` observed holding: data driven and no parity error.
    MonParityHeld,
    /// `write_commit` antecedent triggered (a write accepted).
    MonWriteCommitArmed,
    /// `write_commit` observed holding: write issued last cycle and
    /// `wdone` now.
    MonWriteCommitHeld,
    /// LA-1B `burst_second_beat` antecedent triggered (tier 2).
    MonBurstBeatArmed,
    /// LA-1B second beat observed: read issued `READ_LATENCY + 1`
    /// cycles ago and data-valid now (tier 2).
    MonBurstBeatHeld,
    /// Two reads (any banks) spaced at exactly the minimum legal
    /// LA-1B distance of `burst_len` cycles (tier 2).
    BurstMinSpacing,
    /// Full pipeline two cycles running: a read *and* a write in each
    /// of two consecutive cycles, anywhere on the interface — the
    /// signature of multi-master contention keeping both bus slots
    /// busy (tier 3, global, non-burst configurations only).
    XPipeFull,
    /// Three reads on this bank at the minimum legal spacing — a
    /// sustained lookup stream (tier 3).
    XReadStream,
    /// Writes on this bank in three consecutive cycles — a sustained
    /// update stream (tier 3).
    XWriteStream,
    /// A write on this bank immediately followed by a read on it (any
    /// addresses) — the bus turnaround mixed traffic produces, where
    /// [`BinKind::SeqRaw`] only observes the same-address case
    /// (tier 3).
    XRwTurnaround,
}

impl BinKind {
    /// Whether this kind is instantiated once per bank (as opposed to
    /// once per model).
    fn per_bank(self) -> bool {
        !matches!(
            self,
            BinKind::IdleCycle | BinKind::BurstMinSpacing | BinKind::XPipeFull
        )
    }
}

/// One coverage bin: a kind plus its bank instance (0 for global
/// kinds; for [`BinKind::BankCross`] the *lower* bank of the crossed
/// boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverBin {
    /// What the bin observes.
    pub kind: BinKind,
    /// Instance bank (see type-level docs).
    pub bank: u32,
}

impl CoverBin {
    /// The bin's stable report name.
    pub fn name(&self) -> String {
        let b = self.bank;
        match self.kind {
            BinKind::OpRead => format!("op_read_{b}"),
            BinKind::OpWrite => format!("op_write_{b}"),
            BinKind::OpWritePartial => format!("op_write_partial_{b}"),
            BinKind::OpRwSame => format!("op_rw_same_{b}"),
            BinKind::OpRwCross => format!("op_rw_cross_{b}"),
            BinKind::AddrReadLo => format!("addr_read_lo_{b}"),
            BinKind::AddrReadHi => format!("addr_read_hi_{b}"),
            BinKind::AddrWriteLo => format!("addr_write_lo_{b}"),
            BinKind::AddrWriteHi => format!("addr_write_hi_{b}"),
            BinKind::SeqB2bRead => format!("seq_b2b_read_{b}"),
            BinKind::SeqB2bWrite => format!("seq_b2b_write_{b}"),
            BinKind::SeqRaw => format!("seq_raw_{b}"),
            BinKind::BankCross => format!("bank_cross_{b}_{}", b + 1),
            BinKind::IdleCycle => "idle_cycle".to_string(),
            BinKind::MonReadLatencyArmed => format!("mon_read_latency_{b}_armed"),
            BinKind::MonReadLatencyHeld => format!("mon_read_latency_{b}_held"),
            BinKind::MonNoSpuriousArmed => format!("mon_no_spurious_dv_{b}_armed"),
            BinKind::MonNoSpuriousHeld => format!("mon_no_spurious_dv_{b}_held"),
            BinKind::MonParityArmed => format!("mon_parity_{b}_armed"),
            BinKind::MonParityHeld => format!("mon_parity_{b}_held"),
            BinKind::MonWriteCommitArmed => format!("mon_write_commit_{b}_armed"),
            BinKind::MonWriteCommitHeld => format!("mon_write_commit_{b}_held"),
            BinKind::MonBurstBeatArmed => format!("mon_burst_beat_{b}_armed"),
            BinKind::MonBurstBeatHeld => format!("mon_burst_beat_{b}_held"),
            BinKind::BurstMinSpacing => "burst_min_spacing".to_string(),
            BinKind::XPipeFull => "traffic_pipe_full".to_string(),
            BinKind::XReadStream => format!("traffic_read_stream_{b}"),
            BinKind::XWriteStream => format!("traffic_write_stream_{b}"),
            BinKind::XRwTurnaround => format!("traffic_rw_turnaround_{b}"),
        }
    }

    /// Coverage tier: 1 for the base LA-1 bin set, 2 for the LA-1B
    /// burst extension's bins, 3 for the traffic cross-bin extension.
    pub fn tier(&self) -> u32 {
        match self.kind {
            BinKind::MonBurstBeatArmed | BinKind::MonBurstBeatHeld | BinKind::BurstMinSpacing => 2,
            BinKind::XPipeFull
            | BinKind::XReadStream
            | BinKind::XWriteStream
            | BinKind::XRwTurnaround => 3,
            _ => 1,
        }
    }
}

/// Aggregated statistics for one bin across any number of streams or
/// farm shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinStat {
    /// The bin's coverage tier (identical on every shard of one model).
    pub tier: u32,
    /// Total hits across the merged streams.
    pub hits: u64,
    /// Earliest per-stream first-hit cycle across the merged streams.
    pub first_hit: Option<u64>,
}

/// Mergeable per-bin statistics, keyed by bin name (ordered). The
/// farm's unit of coverage result: every closure shard produces one,
/// and [`CoverageModel::merge_bins`] folds them.
pub type BinStats = BTreeMap<String, BinStat>;

/// The coverage model for one interface configuration: a fixed,
/// deterministically ordered bin list plus the protocol parameters the
/// bin predicates need.
#[derive(Debug, Clone)]
pub struct CoverageModel {
    bins: Vec<CoverBin>,
    /// Bank count of the configuration.
    pub banks: u32,
    /// Words per bank (the address-corner bins use `words - 1`).
    pub words: u64,
    /// Full byte-enable mask (everything below it is a partial write).
    pub full_byte_en: u32,
    /// Read burst length (1 for LA-1, ≥ 2 for LA-1B).
    pub burst_len: u64,
}

impl CoverageModel {
    /// Builds the LA-1 coverage model for `config`.
    pub fn la1(config: &LaConfig) -> Self {
        let mut bins = Vec::new();
        let burst = config.is_burst();
        for b in 0..config.banks {
            let mut push = |kind: BinKind| bins.push(CoverBin { kind, bank: b });
            push(BinKind::OpRead);
            push(BinKind::OpWrite);
            push(BinKind::OpWritePartial);
            push(BinKind::OpRwSame);
            if config.banks > 1 {
                push(BinKind::OpRwCross);
            }
            push(BinKind::AddrReadLo);
            push(BinKind::AddrReadHi);
            push(BinKind::AddrWriteLo);
            push(BinKind::AddrWriteHi);
            push(BinKind::SeqB2bRead);
            push(BinKind::SeqB2bWrite);
            push(BinKind::SeqRaw);
            push(BinKind::MonReadLatencyArmed);
            push(BinKind::MonReadLatencyHeld);
            push(BinKind::MonNoSpuriousArmed);
            push(BinKind::MonNoSpuriousHeld);
            push(BinKind::MonParityArmed);
            push(BinKind::MonParityHeld);
            push(BinKind::MonWriteCommitArmed);
            push(BinKind::MonWriteCommitHeld);
            if burst {
                push(BinKind::MonBurstBeatArmed);
                push(BinKind::MonBurstBeatHeld);
            }
        }
        for b in 0..config.banks.saturating_sub(1) {
            bins.push(CoverBin {
                kind: BinKind::BankCross,
                bank: b,
            });
        }
        bins.push(CoverBin {
            kind: BinKind::IdleCycle,
            bank: 0,
        });
        if burst {
            bins.push(CoverBin {
                kind: BinKind::BurstMinSpacing,
                bank: 0,
            });
        }
        debug_assert!(bins
            .iter()
            .all(|bin| { !bin.kind.per_bank() || bin.bank < config.banks }));
        CoverageModel {
            bins,
            banks: config.banks,
            words: config.words_per_bank as u64,
            full_byte_en: (1u32 << config.byte_enables()) - 1,
            burst_len: config.burst_len as u64,
        }
    }

    /// Builds the traffic-extended coverage model: every
    /// [`CoverageModel::la1`] bin plus the tier-3 cross bins observing
    /// multi-master and sustained-stream shapes. A separate
    /// constructor — not the default — so the pre-existing closure and
    /// campaign bin counts (and their byte-pinned JSON reports) are
    /// untouched.
    pub fn la1_traffic(config: &LaConfig) -> Self {
        let mut model = CoverageModel::la1(config);
        for b in 0..config.banks {
            for kind in [
                BinKind::XReadStream,
                BinKind::XWriteStream,
                BinKind::XRwTurnaround,
            ] {
                model.bins.push(CoverBin { kind, bank: b });
            }
        }
        if !config.is_burst() {
            // consecutive-cycle reads are illegal under LA-1B, so the
            // full-pipeline cross bin only exists for plain LA-1
            model.bins.push(CoverBin {
                kind: BinKind::XPipeFull,
                bank: 0,
            });
        }
        model
    }

    /// The defined bins, in report order.
    pub fn bins(&self) -> &[CoverBin] {
        &self.bins
    }

    /// Number of defined bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the model defines no bins (never the case for
    /// [`CoverageModel::la1`]).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Number of tier-1 bins (the CI closure gate's denominator).
    pub fn tier1_len(&self) -> usize {
        self.bins.iter().filter(|b| b.tier() == 1).count()
    }

    /// Unions another shard's per-bin statistics into `into`.
    ///
    /// The *bin set* is unioned (a bin is covered when any shard hit
    /// it), per-bin hit counts sum, and first-hit cycles take the
    /// minimum. On the covered/uncovered view — the coverage verdict —
    /// the merge is associative, commutative and idempotent, so merged
    /// closure results are order- and worker-count-insensitive. Hit
    /// *counts* are additive volume counters: merging the same shard
    /// twice doubles them (deliberately — they measure stimulus
    /// volume), which is why the farm delivers each shard exactly once.
    pub fn merge_bins(into: &mut BinStats, other: &BinStats) {
        for (name, stat) in other {
            match into.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(stat.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let s = e.get_mut();
                    debug_assert_eq!(s.tier, stat.tier, "bin {name} changed tier across shards");
                    s.hits += stat.hits;
                    s.first_hit = match (s.first_hit, stat.first_hit) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
            }
        }
    }

    /// The history depth (in cycles, excluding the current one) the
    /// bin predicates look back: the longest antecedent window.
    pub fn lookback(&self) -> usize {
        // burst second beat: read READ_LATENCY + 1 cycles ago
        let base = READ_LATENCY as usize + 1;
        if self.bins.iter().any(|b| b.kind == BinKind::XReadStream) {
            // read-stream cross bin: reads 2 * burst_len cycles apart
            base.max(2 * self.burst_len as usize)
        } else {
            base
        }
    }
}
