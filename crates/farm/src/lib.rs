//! # la1-farm — the verification-farm orchestrator
//!
//! The paper's methodology is embarrassingly parallel at the job
//! level: fault campaigns, coverage closure and bounded exploration
//! are independent `(seed, config)` runs whose results union cleanly.
//! This crate turns that observation into infrastructure:
//!
//! * [`FarmJob`] — a self-contained work unit (one campaign shard,
//!   one closure stream group, one exploration), pure in its
//!   description, running the existing scalar or 64-lane batched
//!   engines;
//! * [`FarmPlan`] — a verification task decomposed into jobs with a
//!   *worker-count-independent* decomposition
//!   ([`CampaignShard::split`](la1_fault::CampaignShard::split) by
//!   global fault index, [`stream_seed`](la1_core::stimulus::stream_seed)-derived
//!   per-job closure seeds, one exploration per configuration) and the
//!   merge that reassembles the results:
//!   [`DetectionMatrix::merge`](la1_fault::DetectionMatrix::merge)
//!   (cell-keyed union, order-insensitive),
//!   [`CoverageModel::merge_bins`](la1_cover::CoverageModel::merge_bins)
//!   (bin-set union + hit-count sum), summary concatenation for
//!   explorations;
//! * [`run_pending`] — the fault-tolerant pool: an atomic job-claim
//!   counter, per-job result slots, and a job-id-ordered emitter (the
//!   PR-1 determinism recipe), with per-attempt panic isolation,
//!   wall-clock deadlines and deterministic retry under a
//!   [`RunPolicy`]. `workers == 1` is the inline sequential reference;
//! * [`journal`] — the write-ahead journal: the plan fingerprint plus
//!   every committed result as one flushed JSONL line, so a `kill -9`'d
//!   campaign resumes from its last commit ([`FarmPlan::resume`]) and
//!   merges byte-identically to an uninterrupted run;
//! * [`chaos`] — the self-chaos harness: seeded, deterministic panic /
//!   timeout / delay injection into the farm's own scheduler, used by
//!   `scripts/check.sh` to prove the fault-tolerance layer converges.
//!
//! **Determinism contract.** [`FarmReport::to_json`] and the per-job
//! `--serve` records are byte-identical for every worker count; for
//! campaign plans the merged matrix is additionally byte-identical to
//! the *unsharded* engine's output. A chaos run with enough retries,
//! and a resumed run recovering from any torn journal prefix, are both
//! byte-identical to the clean uninterrupted run. The `farm` binary in
//! `la1-bench` measures jobs/s and patterns/s at 1/2/4/8 workers and
//! gates the scaling floor in `scripts/check.sh`.

pub mod chaos;
pub mod job;
pub mod journal;
pub mod pool;

pub use chaos::{ChaosConfig, ChaosFault, ChaosPlan};
pub use job::{
    ClosureFarmReport, Degraded, ExploreFarmReport, ExploreSummary, FailReason, FarmJob, FarmPlan,
    FarmReport, JobResult, MergeError, MergedReport,
};
pub use journal::{Journal, JournalError, Recovered};
pub use pool::{run_jobs, run_pending, FarmRunStats, RunPolicy};

use std::path::Path;

impl FarmPlan {
    /// Decomposes, runs and merges the plan on `workers` threads.
    pub fn run(&self, workers: usize) -> FarmReport {
        self.run_streaming(workers, |_, _| {})
    }

    /// [`FarmPlan::run`] with a per-job result callback, invoked in
    /// job-id order (the `--serve` stream).
    pub fn run_streaming<F: FnMut(usize, &JobResult)>(
        &self,
        workers: usize,
        mut emit: F,
    ) -> FarmReport {
        self.run_with(workers, &RunPolicy::default(), None, None, |i, r, _| {
            emit(i, r)
        })
        .0
    }

    /// A stable fingerprint over the plan's full description, pinned
    /// into the journal header so a journal can only resume the
    /// campaign that wrote it. FNV-1a over the `Debug` rendering —
    /// every plan field participates, so any config drift (different
    /// seed, budget, shard count, ...) changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{self:?}").bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The full fault-tolerant entry point: decomposes, runs every job
    /// under `policy` (deadlines, retries, panic isolation) with
    /// optional `chaos` injection, write-ahead-journals each committed
    /// result, and merges. `emit` is invoked in job-id order with
    /// `(job, result, attempts)` *after* the journal commit, so a crash
    /// between the two replays the line rather than losing it.
    pub fn run_with<F: FnMut(usize, &JobResult, u32)>(
        &self,
        workers: usize,
        policy: &RunPolicy,
        chaos: Option<&ChaosPlan>,
        mut journal: Option<&mut Journal>,
        mut emit: F,
    ) -> (FarmReport, FarmRunStats) {
        let jobs = self.jobs();
        let pending: Vec<(usize, &FarmJob)> = jobs.iter().enumerate().collect();
        let (results, stats) = run_pending(&pending, workers, policy, chaos, |id, r, attempts| {
            if let Some(j) = journal.as_deref_mut() {
                j.append(id, attempts, r);
            }
            emit(id, r, attempts);
        });
        (self.merge(&results), stats)
    }

    /// Resumes an interrupted [`FarmPlan::run_with`] from its journal:
    /// validates the header against this plan's fingerprint, truncates
    /// any torn trailing line, replays the committed prefix through
    /// `emit` (attempt counts preserved), runs only the remaining jobs
    /// under `policy`, and appends their commits to the same journal —
    /// so a resume can itself be killed and resumed again.
    ///
    /// The merged report is byte-identical to the uninterrupted run:
    /// jobs are pure and the journal stores full-fidelity results, so
    /// replay and re-execution are indistinguishable.
    pub fn resume<F: FnMut(usize, &JobResult, u32)>(
        &self,
        path: &Path,
        workers: usize,
        policy: &RunPolicy,
        chaos: Option<&ChaosPlan>,
        mut emit: F,
    ) -> Result<(FarmReport, FarmRunStats), JournalError> {
        let jobs = self.jobs();
        let recovered = journal::load(path, self)?;
        let mut journal = if recovered.valid_bytes == 0 {
            // nothing trustworthy (even the header was torn): start
            // the journal over from scratch
            Journal::create(path, self)?
        } else {
            Journal::reopen(path, recovered.valid_bytes)?
        };
        let mut stats = FarmRunStats {
            replayed: recovered.results.len(),
            ..FarmRunStats::default()
        };
        let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
        for (i, (r, attempts)) in recovered.results.iter().enumerate() {
            emit(i, r, *attempts);
            results.push(r.clone());
        }
        let pending: Vec<(usize, &FarmJob)> = jobs.iter().enumerate().skip(results.len()).collect();
        let (rest, run_stats) = run_pending(&pending, workers, policy, chaos, |id, r, attempts| {
            journal.append(id, attempts, r);
            emit(id, r, attempts);
        });
        stats.absorb(&run_stats);
        results.extend(rest);
        Ok((self.merge(&results), stats))
    }
}

#[cfg(test)]
mod tests;
