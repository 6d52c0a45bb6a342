//! The worker pool: claims jobs from a shared list, stores results in
//! job-id slots, and emits them to the stream callback strictly in
//! job-id order — now with per-attempt fault isolation.
//!
//! Workers race only over *which* job they claim, never over what a
//! job computes or where its result lands.
//! Claims come from one atomic counter, results go into per-job slots,
//! and the main thread replays the slots in index order — so the
//! result vector, the merged report and the `--serve` stream are
//! byte-identical for every worker count. `workers == 1` bypasses the
//! pool entirely and is the sequential reference.
//!
//! Fault tolerance (the [`RunPolicy`] layer) wraps every attempt:
//!
//! * a panicking job unwinds into
//!   [`JobResult::Failed`](crate::JobResult::Failed) via
//!   `catch_unwind` instead of poisoning the scoped pool;
//! * a wall-clock `deadline` runs the attempt on a watchdog thread and
//!   abandons it on expiry (explore jobs additionally get the deadline
//!   plumbed into `ExploreConfig::wall_clock`, so they usually stop
//!   *gracefully* with a `Partial` verdict first);
//! * failed attempts are retried up to `max_retries` times with a
//!   deterministic seed-derived backoff — jobs are pure, so a retry
//!   that succeeds is byte-identical to a never-failed run;
//! * the seeded [`ChaosPlan`] injects panics, synthetic timeouts and
//!   delays per `(job, attempt)` — the farm verifying the farm.

use crate::chaos::{splitmix, ChaosFault, ChaosPlan};
use crate::job::{FailReason, FarmJob, JobResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, Once};
use std::time::Duration;

/// How the pool shepherds each job: deadlines, retries, chaos.
/// [`RunPolicy::default`] is the PR-8 behaviour — no deadline, no
/// retries, no chaos — plus panic isolation, which is unconditional.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunPolicy {
    /// Hard per-attempt wall-clock budget. `None` (default) runs
    /// attempts inline with no watchdog. Deadlines are inherently
    /// timing-dependent; deterministic campaigns leave this unset and
    /// rely on structural budgets inside the jobs.
    pub deadline: Option<Duration>,
    /// Retries after a failed attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base of the deterministic backoff schedule in milliseconds;
    /// retry `k` of job `j` sleeps `base * 2^(k-1)` plus a
    /// seed-derived jitter below `base`. 0 (default) disables the
    /// sleep entirely — retries are then immediate.
    pub backoff_base_ms: u64,
    /// Seed the backoff jitter derives from.
    pub retry_seed: u64,
}

impl RunPolicy {
    /// The deterministic backoff before retry `attempt` (1-based) of
    /// `job`: exponential in the attempt, jittered by a splitmix of
    /// `(retry_seed, job, attempt)` so shards do not thundering-herd,
    /// and zero when `backoff_base_ms` is zero.
    pub fn backoff(&self, job: usize, attempt: u32) -> Duration {
        if self.backoff_base_ms == 0 || attempt == 0 {
            return Duration::ZERO;
        }
        let base = self.backoff_base_ms << (attempt - 1).min(8);
        let jitter = splitmix(self.retry_seed ^ ((job as u64) << 23) ^ attempt as u64)
            % self.backoff_base_ms;
        Duration::from_millis(base + jitter)
    }
}

/// What one pool run did, beyond the results themselves: fresh jobs
/// executed, retry attempts spent, jobs that still failed, and (at the
/// orchestration layer) journal results replayed instead of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmRunStats {
    /// Jobs executed by this pool run (excludes replayed results).
    pub jobs_run: usize,
    /// Retry attempts spent across all jobs (attempts beyond each
    /// job's first).
    pub retried: usize,
    /// Jobs whose final result was [`JobResult::Failed`].
    pub failed: usize,
    /// Results replayed from a journal instead of executed (filled by
    /// the resume path, not the pool).
    pub replayed: usize,
}

impl FarmRunStats {
    /// Folds another run's counters into this one (resume = replayed
    /// prefix + fresh pool run).
    pub fn absorb(&mut self, other: &FarmRunStats) {
        self.jobs_run += other.jobs_run;
        self.retried += other.retried;
        self.failed += other.failed;
        self.replayed += other.replayed;
    }
}

thread_local! {
    /// Set while a job attempt runs under `catch_unwind`, so the
    /// panic hook stays quiet for isolated panics (the same recipe as
    /// the fault crate's `GUARDING` hook for protocol asserts): the
    /// message is preserved in [`FailReason::Panic`] and surfaced in
    /// the degraded report instead of splattering stderr.
    static ISOLATING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once) the panic hook that suppresses output for panics
/// the pool is isolating; everything else forwards to the previous
/// hook.
fn install_isolation_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATING.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// The panic payload as a message, for [`FailReason::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs the job body under the isolation hook, converting a panic
/// into [`JobResult::Failed`].
fn isolated<F: FnOnce() -> JobResult>(job_id: usize, body: F) -> JobResult {
    install_isolation_hook();
    ISOLATING.with(|g| g.set(true));
    let result = catch_unwind(AssertUnwindSafe(body));
    ISOLATING.with(|g| g.set(false));
    result.unwrap_or_else(|payload| JobResult::Failed {
        job: job_id,
        reason: FailReason::Panic(panic_message(payload)),
    })
}

/// One attempt of one job under the policy: chaos first (deterministic
/// in `(job, attempt)`), then the panic-isolated body, under the hard
/// watchdog when a deadline is set.
fn run_attempt(
    job_id: usize,
    job: &FarmJob,
    attempt: u32,
    policy: &RunPolicy,
    chaos: Option<&ChaosPlan>,
) -> JobResult {
    let fault = chaos.and_then(|c| c.fault_for(job_id, attempt));
    match fault {
        Some(ChaosFault::Timeout) => {
            // synthetic expiry: exercises the timeout path without
            // waiting for a clock, so chaos stays deterministic
            return JobResult::Failed {
                job: job_id,
                reason: FailReason::Timeout {
                    budget_ms: policy.deadline.map_or(0, |d| d.as_millis() as u64),
                },
            };
        }
        Some(ChaosFault::Delay) => {
            let chaos = chaos.expect("fault implies a plan");
            std::thread::sleep(Duration::from_millis(chaos.delay_for(job_id, attempt)));
        }
        Some(ChaosFault::Panic) | None => {}
    }
    let inject_panic = fault == Some(ChaosFault::Panic);
    let deadline = policy.deadline;
    let body = move |job: &FarmJob| {
        isolated(job_id, || {
            if inject_panic {
                panic!("chaos: injected panic (job {job_id}, attempt {attempt})");
            }
            job.run_deadline(deadline)
        })
    };
    match policy.deadline {
        None => body(job),
        Some(deadline) => {
            // watchdog: run the attempt on a detached thread and
            // abandon it on expiry (the thread finishes in the
            // background; jobs are pure, so an abandoned attempt
            // cannot corrupt anything)
            let (tx, rx) = mpsc::channel();
            let owned = job.clone();
            std::thread::spawn(move || {
                let _ = tx.send(body(&owned));
            });
            match rx.recv_timeout(deadline) {
                Ok(result) => result,
                Err(_) => JobResult::Failed {
                    job: job_id,
                    reason: FailReason::Timeout {
                        budget_ms: deadline.as_millis() as u64,
                    },
                },
            }
        }
    }
}

/// Runs one job to its final result under the policy: attempts until
/// success or retries exhausted, with the deterministic backoff
/// between attempts. Returns the result and the attempt count.
fn run_one(
    job_id: usize,
    job: &FarmJob,
    policy: &RunPolicy,
    chaos: Option<&ChaosPlan>,
) -> (JobResult, u32) {
    let attempts = policy.max_retries + 1;
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let backoff = policy.backoff(job_id, attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        let result = run_attempt(job_id, job, attempt, policy, chaos);
        if !matches!(result, JobResult::Failed { .. }) {
            return (result, attempt + 1);
        }
        last = Some(result);
    }
    (last.expect("at least one attempt"), attempts)
}

/// Runs the `(id, job)` pairs on `workers` threads under `policy`,
/// invoking `emit` with each final result *in list order* (pair `i` is
/// emitted only after pairs `0..i`) along with its attempt count, and
/// returns the results in list order plus the run's counters.
///
/// The id in each pair is the job's *global* id — the journal line
/// tag, the chaos site key and the `Failed.job` field — which differs
/// from the list position when a resume runs only the remainder of a
/// plan. Ids must be ascending for the emit order to be the global
/// job-id order.
///
/// With `workers <= 1` the pairs run inline on the calling thread in
/// order — the sequential reference schedule. With more workers, the
/// calling thread only merges/emits; `workers` threads (capped at the
/// pair count) claim pairs from an atomic counter.
pub fn run_pending<F: FnMut(usize, &JobResult, u32)>(
    pending: &[(usize, &FarmJob)],
    workers: usize,
    policy: &RunPolicy,
    chaos: Option<&ChaosPlan>,
    mut emit: F,
) -> (Vec<JobResult>, FarmRunStats) {
    let mut stats = FarmRunStats {
        jobs_run: pending.len(),
        ..FarmRunStats::default()
    };
    if pending.is_empty() {
        return (Vec::new(), stats);
    }
    let account = |r: &JobResult, attempts: u32, stats: &mut FarmRunStats| {
        stats.retried += (attempts - 1) as usize;
        stats.failed += usize::from(matches!(r, JobResult::Failed { .. }));
    };
    let workers = workers.max(1).min(pending.len());
    if workers == 1 {
        let results = pending
            .iter()
            .map(|&(id, job)| {
                let (r, attempts) = run_one(id, job, policy, chaos);
                account(&r, attempts, &mut stats);
                emit(id, &r, attempts);
                r
            })
            .collect();
        return (results, stats);
    }

    let next = AtomicUsize::new(0);
    type Slot = Option<(JobResult, u32)>;
    let slots: Mutex<Vec<Slot>> = Mutex::new(vec![None; pending.len()]);
    let done = Condvar::new();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // one atomic claim per job: claim order is index order,
                // so the decomposition a worker sees never depends on
                // the schedule
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pending.len() {
                    break;
                }
                let (id, job) = pending[i];
                let r = run_one(id, job, policy, chaos);
                let mut guard = slots.lock().expect("farm slots poisoned");
                guard[i] = Some(r);
                done.notify_all();
            });
        }
        // the calling thread is the emitter: stream each result as
        // soon as every lower-index pair has landed
        let mut emitted = 0usize;
        let mut guard = slots.lock().expect("farm slots poisoned");
        while emitted < pending.len() {
            while guard[emitted].is_none() {
                guard = done.wait(guard).expect("farm slots poisoned");
            }
            while emitted < pending.len() {
                match &guard[emitted] {
                    Some((r, attempts)) => {
                        account(r, *attempts, &mut stats);
                        emit(pending[emitted].0, r, *attempts);
                        emitted += 1;
                    }
                    None => break,
                }
            }
        }
    });
    let results = slots
        .into_inner()
        .expect("farm slots poisoned")
        .into_iter()
        .map(|r| r.expect("every job slot filled").0)
        .collect();
    (results, stats)
}

/// Runs `jobs` on `workers` threads with the default policy (panic
/// isolation only), invoking `emit` with each result in job-id order —
/// the PR-8 entry point, kept for callers that need no fault-tolerance
/// knobs.
pub fn run_jobs<F: FnMut(usize, &JobResult)>(
    jobs: &[FarmJob],
    workers: usize,
    mut emit: F,
) -> Vec<JobResult> {
    let pending: Vec<(usize, &FarmJob)> = jobs.iter().enumerate().collect();
    run_pending(&pending, workers, &RunPolicy::default(), None, |i, r, _| {
        emit(i, r)
    })
    .0
}
