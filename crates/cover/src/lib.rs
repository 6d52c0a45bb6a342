//! # la1-cover — functional coverage and coverage-guided closure
//!
//! The reproduced paper's flow (UML → ASM → SystemC → RTL) judges
//! verification quality entirely through assertion monitors and model
//! checking: monitors catch violations, but nothing measures *how much
//! of the protocol the stimulus ever exercised*. This crate adds that
//! missing half of the ABV methodology:
//!
//! * [`CoverageModel`] — the functional coverage model of the LA-1
//!   protocol: per-bank op-kind bins, bank×op cross bins, sequence bins
//!   (back-to-back traffic, read-after-write on the same address),
//!   address corner bins (word 0, word max, bank-boundary crossings),
//!   LA-1B burst bins, and *monitor-activation* bins — each PSL/OVL
//!   property observed both in its antecedent-triggered (armed) state
//!   and holding under stimulus (held);
//! * [`CoverageCollector`] — an observation-only
//!   [`CycleObserver`](la1_core::cycle_model::CycleObserver): pin
//!   samples in, bin hits out. It attaches to *any*
//!   [`CycleModel`](la1_core::cycle_model::CycleModel) through the
//!   generic `run_abv_observed` / `co_execute_observed` loops, so the
//!   same coverage model scores ASM, SystemC, RTL and RTL+OVL runs —
//!   the ILA-style level-agnostic verification collateral;
//! * [`GuidedMix`] — a seeded, fully deterministic coverage-guided
//!   constrained-random generator: each epoch it inspects the set of
//!   unhit bins and emits directed preambles for them (sequence
//!   preambles, address-corner steering) interleaved with legal random
//!   traffic;
//! * [`run_closure`] — the closure loop: guided or pure-random stimulus
//!   run to 100 % bin coverage (or a cycle budget), reporting
//!   cycles-to-closure. A pure function of `(seed, config)` — the same
//!   inputs give byte-identical [`ClosureReport::to_json`] output;
//! * [`run_closure_rtl`] / [`run_closure_rtl_batched`] — multi-stream
//!   closure on the interpreted RTL: any number of independent seeded
//!   streams merged into one bin set, run by one loop
//!   ([`run_closure_rtl_from`]) either sequentially through scalar
//!   drivers or 64 lanes at a time through the bit-parallel
//!   [`LaRtlBatchDriver`](la1_core::rtl_model::LaRtlBatchDriver)
//!   (PPSFP) — the two produce byte-identical
//!   [`MultiClosureReport::to_json`] output.
//!
//! Monitors catch violations; coverage proves the monitors were ever
//! provoked. The `closure` binary in `la1-bench` regenerates the
//! guided-vs-random closure table of EXPERIMENTS.md.

pub mod closure;
pub mod collect;
pub mod guided;
pub mod model;
pub mod multi;
pub mod staged;

pub use closure::{run_closure, ClosureConfig, ClosureReport, GeneratorSnap};
pub use collect::{BankSampleSnap, CollectorSnap, CoverageCollector};
pub use guided::{GuidedMix, GuidedMixSnap};
pub use model::{BinKind, BinStat, BinStats, CoverBin, CoverageModel};
pub use multi::{
    run_closure_rtl, run_closure_rtl_batched, run_closure_rtl_from, ClosurePreamble,
    MultiClosureReport,
};
pub use staged::{
    run_staged, staged_fingerprint, StageCheckpoint, StagedConfig, StagedReport, StreamOutcome,
    STAGE_VERSION,
};

#[cfg(test)]
mod tests;
