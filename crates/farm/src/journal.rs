//! The write-ahead journal: every committed job result as one JSONL
//! line, so a killed campaign resumes from its last commit instead of
//! starting over.
//!
//! Format (version 1):
//!
//! ```text
//! {"kind": "farm-journal", "version": 1, "fingerprint": "<plan hash>", "jobs": N}
//! {"job": 0, "attempts": 1, "result": {<full job result>}}
//! {"job": 1, "attempts": 2, "result": {...}}
//! ...
//! ```
//!
//! The header pins the plan (a fingerprint over the plan's full
//! description and its job count), so a journal can only resume the
//! campaign that wrote it. Result lines are appended — and flushed —
//! in job-id order as the pool's in-order emitter commits them, so a
//! journal is always a *prefix* of the campaign: recovery truncates
//! the torn trailing line a `kill -9` may leave (a proper prefix of a
//! serialized line never parses as JSON — pinned by test in
//! `la1_core::json`) and replays the complete prefix.
//!
//! Unlike the `--serve` stream, which summarizes, a journal line
//! carries the *full* result payload — the detection-matrix cells, the
//! per-bin coverage statistics — because the merged report of a
//! resumed run must be byte-identical to an uninterrupted one.

use crate::job::{ExploreSummary, FailReason, FarmPlan, JobResult};
use la1_core::json::{parse, FieldError, Json};
use la1_cover::{BinStat, BinStats, MultiClosureReport};
use la1_fault::{CellStats, DetectionMatrix, MonitorStat};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Journal format version this build writes and reads.
pub const JOURNAL_VERSION: u64 = 1;

/// An append-only journal for one farm run. Appends are flushed per
/// line; an I/O error is reported once to stderr and journaling stops
/// (the run itself keeps computing — losing the journal must never
/// lose the campaign).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Option<File>,
}

impl Journal {
    /// Creates (truncating) a journal for `plan` at `path` and writes
    /// the header line.
    pub fn create(path: &Path, plan: &FarmPlan) -> std::io::Result<Journal> {
        let mut file = File::create(path)?;
        let mut header = Json::obj([
            ("kind", Json::str("farm-journal")),
            ("version", Json::num(JOURNAL_VERSION)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", plan.fingerprint())),
            ),
            ("jobs", Json::num(plan.jobs().len() as u64)),
        ])
        .render();
        header.push('\n');
        file.write_all(header.as_bytes())?;
        file.flush()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Some(file),
        })
    }

    /// Reopens a recovered journal for appending the remainder of the
    /// run; `valid_bytes` is the length of the intact prefix
    /// ([`load`] reports it) and anything beyond — the torn trailing
    /// line — is truncated away first.
    pub fn reopen(path: &Path, valid_bytes: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Some(file),
        })
    }

    /// Appends one committed result, flushed so a crash right after
    /// the commit point still finds the line on recovery.
    pub fn append(&mut self, job: usize, attempts: u32, result: &JobResult) {
        let mut line = Json::obj([
            ("job", Json::num(job as u64)),
            ("attempts", Json::num(attempts as u64)),
            ("result", result_json(result)),
        ])
        .render();
        line.push('\n');
        self.append_line(&line);
    }

    fn append_line(&mut self, line: &str) {
        let Some(file) = &mut self.file else { return };
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            eprintln!(
                "farm journal: write to {} failed — journaling disabled, run continues",
                self.path.display()
            );
            self.file = None;
        }
    }
}

/// Why a journal could not be used to resume a plan.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or rewritten.
    Io(std::io::Error),
    /// The journal belongs to a different plan (or format version) —
    /// resuming would silently mix campaigns, so this is a hard error
    /// rather than a fresh start.
    PlanMismatch {
        /// What the journal header pinned.
        found: String,
        /// What the resuming plan expects.
        expected: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::PlanMismatch { found, expected } => write!(
                f,
                "journal belongs to a different plan (journal {found}, plan {expected})"
            ),
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// The recovered state of a journal: the intact committed prefix.
#[derive(Debug)]
pub struct Recovered {
    /// `(result, attempts)` for jobs `0..results.len()`, in job-id
    /// order.
    pub results: Vec<(JobResult, u32)>,
    /// Length in bytes of the intact prefix (header + complete result
    /// lines); the file content beyond this is torn and must be
    /// truncated before appending resumes.
    pub valid_bytes: u64,
}

/// Loads and validates a journal for `plan`.
///
/// Recovery rules, in order:
/// * unreadable file → [`JournalError::Io`];
/// * header line torn or unparseable → nothing to trust: an empty
///   recovery (`valid_bytes` 0) that resumes as a fresh run;
/// * header intact but for a different plan/version →
///   [`JournalError::PlanMismatch`];
/// * result lines replay until the first torn, unparseable or
///   out-of-order line; everything after is discarded.
pub fn load(path: &Path, plan: &FarmPlan) -> Result<Recovered, JournalError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut results = Vec::new();
    let mut valid_bytes = 0u64;
    let njobs = plan.jobs().len();
    let expected_fp = format!("{:016x}", plan.fingerprint());
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        let Some(body) = line.strip_suffix('\n') else {
            break; // torn trailing line: discard
        };
        let Ok(parsed) = parse(body) else {
            break; // corrupt line: trust only what precedes it
        };
        if idx == 0 {
            let fp = parsed.get("fingerprint").and_then(Json::as_str);
            let version = parsed.get("version").and_then(Json::as_u64);
            let jobs = parsed.get("jobs").and_then(Json::as_u64);
            if parsed.get("kind").and_then(Json::as_str) != Some("farm-journal") {
                break;
            }
            if version != Some(JOURNAL_VERSION)
                || fp != Some(expected_fp.as_str())
                || jobs != Some(njobs as u64)
            {
                return Err(JournalError::PlanMismatch {
                    found: format!(
                        "version {} fingerprint {} jobs {}",
                        Json::opt_num(version).render(),
                        fp.unwrap_or("?"),
                        Json::opt_num(jobs).render()
                    ),
                    expected: format!(
                        "version {JOURNAL_VERSION} fingerprint {expected_fp} jobs {njobs}"
                    ),
                });
            }
        } else {
            // a mistyped or out-of-range field is corruption like any
            // other: trust only the lines before it
            let Ok((job, attempts, result)) = read_entry(&parsed) else {
                break;
            };
            // commits are strictly in job-id order; a gap means the
            // line belongs to some other history — stop trusting here
            if job != results.len() || results.len() >= njobs {
                break;
            }
            results.push((result, attempts));
        }
        valid_bytes += line.len() as u64;
    }
    Ok(Recovered {
        results,
        valid_bytes,
    })
}

/// One result line: `(job, attempts, result)`.
fn read_entry(line: &Json) -> Result<(usize, u32, JobResult), FieldError> {
    let result = result_from_json(line.field("result")?)?;
    Ok((line.at("job")?, line.at("attempts")?, result))
}

// ---------------------------------------------------------------------
// full-fidelity result payloads

/// Serializes a result as a single JSON line fragment carrying every
/// field the merge and the serve record consume — the journal's
/// round-trip contract ([`result_from_json`] inverts it exactly).
pub fn result_to_json(result: &JobResult) -> String {
    result_json(result).render()
}

/// The payload [`result_to_json`] renders: the result kind, then the
/// result's own fields.
fn result_json(result: &JobResult) -> Json {
    let tagged = |body: Json, extra: Option<(&str, Json)>| {
        let mut fields = vec![("kind".to_string(), Json::str(result.kind()))];
        if let Json::Obj(body) = body {
            fields.extend(body);
        }
        fields.extend(extra.map(|(k, v)| (k.to_string(), v)));
        Json::Obj(fields)
    };
    match result {
        JobResult::Campaign(m) => {
            let cells = m.cells.iter().flat_map(|(fault, levels)| {
                levels.iter().map(move |(level, cell)| {
                    let monitors = cell.monitors.iter().map(|(name, s)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("detected", Json::num(s.detected as u64)),
                            ("latency_sum", Json::num(s.latency_sum)),
                        ])
                    });
                    Json::obj([
                        ("fault", Json::str(fault)),
                        ("level", Json::str(level)),
                        ("runs", Json::num(cell.runs as u64)),
                        ("hung", Json::num(cell.hung as u64)),
                        ("monitors", Json::Arr(monitors.collect())),
                    ])
                })
            });
            let healthy = m.healthy.iter().map(|(level, ok)| {
                Json::obj([("level", Json::str(level)), ("ok", Json::Bool(*ok))])
            });
            tagged(
                Json::obj([
                    ("banks", Json::num(m.banks as u64)),
                    ("seed", Json::num(m.seed)),
                    ("runs_per_fault", Json::num(m.runs_per_fault as u64)),
                    ("cells", Json::Arr(cells.collect())),
                    ("healthy", Json::Arr(healthy.collect())),
                    ("disagreements", Json::str_arr(&m.disagreements)),
                ]),
                None,
            )
        }
        JobResult::Closure(r) => {
            let bins = r.bins.iter().map(|(name, s)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("tier", Json::num(s.tier as u64)),
                    ("hits", Json::num(s.hits)),
                    ("first_hit", Json::opt_num(s.first_hit)),
                ])
            });
            tagged(r.json(), Some(("bins", Json::Arr(bins.collect()))))
        }
        JobResult::Explore(s) => tagged(s.json(), None),
        JobResult::Failed { job, reason } => {
            let (kind, detail) = match reason {
                FailReason::Panic(msg) => ("panic", Json::str(msg)),
                FailReason::Timeout { budget_ms } => ("timeout", Json::num(*budget_ms)),
            };
            tagged(
                Json::obj([
                    ("job", Json::num(*job as u64)),
                    ("reason", Json::str(kind)),
                    ("detail", detail),
                ]),
                None,
            )
        }
    }
}

/// Deserializes a [`result_to_json`] payload.
///
/// # Errors
///
/// A [`FieldError`] for any missing or mistyped field — a count that
/// does not fit its type included — or an unknown `kind` (the caller
/// treats the line, and the rest of the journal, as torn).
pub fn result_from_json(v: &Json) -> Result<JobResult, FieldError> {
    match v.at::<String>("kind")?.as_str() {
        "campaign" => {
            let mut cells: BTreeMap<String, BTreeMap<String, CellStats>> = BTreeMap::new();
            for cell in v.arr("cells")? {
                let mut monitors = BTreeMap::new();
                for m in cell.arr("monitors")? {
                    monitors.insert(
                        m.at("name")?,
                        MonitorStat {
                            detected: m.at("detected")?,
                            latency_sum: m.at("latency_sum")?,
                        },
                    );
                }
                cells.entry(cell.at("fault")?).or_default().insert(
                    cell.at("level")?,
                    CellStats {
                        runs: cell.at("runs")?,
                        hung: cell.at("hung")?,
                        monitors,
                    },
                );
            }
            let mut healthy = BTreeMap::new();
            for h in v.arr("healthy")? {
                healthy.insert(h.at("level")?, h.at("ok")?);
            }
            Ok(JobResult::Campaign(DetectionMatrix {
                banks: v.at("banks")?,
                seed: v.at("seed")?,
                runs_per_fault: v.at("runs_per_fault")?,
                cells,
                healthy,
                disagreements: v.at("disagreements")?,
            }))
        }
        "closure" => {
            let mut bins = BinStats::new();
            for b in v.arr("bins")? {
                bins.insert(
                    b.at("name")?,
                    BinStat {
                        tier: b.at("tier")?,
                        hits: b.at("hits")?,
                        first_hit: b.at("first_hit")?,
                    },
                );
            }
            Ok(JobResult::Closure(MultiClosureReport {
                banks: v.at("banks")?,
                burst: v.at("burst")?,
                guided: v.at("guided")?,
                seed: v.at("seed")?,
                streams: v.at("streams")?,
                budget: v.at("budget")?,
                cycles_run: v.at("cycles_run")?,
                lane_cycles: v.at("lane_cycles")?,
                bins_total: v.at("bins_total")?,
                bins_hit: v.at("bins_hit")?,
                tier1_total: v.at("tier1_total")?,
                tier1_hit: v.at("tier1_hit")?,
                closed: v.at("closed")?,
                cycles_to_closure: v.at("cycles_to_closure")?,
                unhit: v.at("unhit")?,
                bins,
            }))
        }
        "explore" => Ok(JobResult::Explore(ExploreSummary {
            banks: v.at("banks")?,
            states: v.at("states")?,
            transitions: v.at("transitions")?,
            max_depth_reached: v.at("max_depth_reached")?,
            complete: v.at("complete")?,
            budget: v.at("budget")?,
            all_pass: v.at("all_pass")?,
        })),
        "failed" => {
            let reason = match v.at::<String>("reason")?.as_str() {
                "panic" => FailReason::Panic(v.at("detail")?),
                "timeout" => FailReason::Timeout {
                    budget_ms: v.at("detail")?,
                },
                _ => return Err(unknown("reason")),
            };
            Ok(JobResult::Failed {
                job: v.at("job")?,
                reason,
            })
        }
        _ => Err(unknown("kind")),
    }
}

/// The error for a tag no decoder knows.
fn unknown(key: &str) -> FieldError {
    FieldError {
        key: key.to_string(),
        wanted: Some("known tag"),
    }
}
