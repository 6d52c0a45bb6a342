//! Versioned, fingerprint-pinned checkpoint formats: [`Snapshot`]
//! (full model state at a cycle boundary) and [`Trace`] (a replayable
//! pin-vector recording).
//!
//! Both serialize as JSONL through [`crate::json`] — one self-contained
//! object per line, a header line first and an explicit `end` footer
//! last, exactly like the verification-farm journal:
//!
//! ```text
//! {"kind": "la1-snapshot", "version": 1, "level": "systemc", ...}
//! {"sec": "sc", ...}
//! {"sec": "bank", ...}
//! ...
//! {"end": true, "lines": 7}
//! ```
//!
//! The properties that make the format safe to use from the farm and
//! the staged-closure flow:
//!
//! * **Versioned** — the header carries a format version; a reader
//!   built for another version refuses with
//!   [`CheckpointError::VersionMismatch`] instead of misinterpreting.
//! * **Fingerprint-pinned** — the header carries a fingerprint of the
//!   `(level, LaConfig)` pair the state was captured from
//!   ([`config_fingerprint`]). Restoring into a model built from a
//!   different configuration fails with
//!   [`CheckpointError::FingerprintMismatch`] rather than producing a
//!   silently-diverging run.
//! * **Torn-line tolerant** — every line is a complete JSON object, and
//!   a proper prefix of one never parses, so a write cut short by a
//!   crash is detectable at any byte boundary. The strict parsers
//!   report [`CheckpointError::Truncated`]; [`Trace::recover`]
//!   additionally salvages every complete cycle before the tear.
//!
//! Restoring a snapshot rebuilds the model from its constructor (which
//! recreates all static structure: netlists, processes, monitors) and
//! then installs the captured dynamic state, so a restored model is
//! *structurally* a fresh model and *behaviourally* the checkpointed
//! one — the equivalence the differential test layer proves.

use std::fmt;

use la1_asm::{intern_sym, Value};
use la1_ovl::{MonitorKind, OvlDynState, OvlInstanceSnap, OvlSnap, OvlViolation, Severity};
use la1_psl::{MonitorSnap, Obligation, Positions};
use la1_rtl::{BatchedRtlState, RtlState, LANES};

use crate::asm_model::{AsmSnap, LaAsmModel};
use crate::cycle_model::{CycleModel, RtlOvlSnap, RtlWithOvl};
use crate::json::{self, Json};
use crate::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver, RtlBatchDriverSnap, RtlDriverSnap};
use crate::sc_model::{LaSystemC, ScBankSnap, ScSnap, ScViolation};
use crate::spec::{BankOp, LaConfig};
use crate::stimulus::SequenceItem;
use crate::uml::{ClockRef, ObservedMessage};

/// Snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u64 = 1;
/// Trace format version written by this build.
pub const TRACE_VERSION: u64 = 1;

/// Why a checkpoint stream could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A line (other than a torn final one) is not the expected JSON
    /// shape. Lines are 1-based.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The stream ends early: a torn final line, a missing footer, or
    /// a footer whose line count disagrees with the lines present.
    Truncated,
    /// The header's format version is not the one this reader speaks.
    VersionMismatch {
        /// Version in the stream.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// The snapshot was captured from a different `(level, LaConfig)`
    /// pair than the model it is being restored into.
    FingerprintMismatch {
        /// Fingerprint in the stream.
        found: u64,
        /// Fingerprint of the restore target.
        expected: u64,
    },
    /// The payload does not fit the restore target (wrong level, bank
    /// count, monitor lineup, …).
    Restore(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint line {line}: {reason}")
            }
            CheckpointError::Truncated => f.write_str("truncated checkpoint stream"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found}, reader speaks {expected}")
            }
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match target {expected:016x}"
            ),
            CheckpointError::Restore(msg) => write!(f, "cannot restore checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over the level name and the configuration's `Debug`
/// rendering — any field added to [`LaConfig`] changes the fingerprint
/// automatically, the same scheme the farm uses to pin its journal to
/// a plan.
pub fn config_fingerprint(level: &str, cfg: &LaConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{level}|{cfg:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The level-specific payload of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelSnap {
    /// ASM light-simulator state.
    Asm(AsmSnap),
    /// SystemC model state (signals, SRAM, kernel counters, PSL
    /// monitors).
    SystemC(ScSnap),
    /// Interpreted-RTL driver state.
    Rtl(RtlDriverSnap),
    /// RTL driver plus OVL bench state.
    RtlOvl(RtlOvlSnap),
    /// 64-lane batched RTL driver state.
    RtlBatch(RtlBatchDriverSnap),
}

/// A complete, restorable model state captured at a protocol-cycle
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Pin to the `(level, LaConfig)` pair the state came from.
    pub fingerprint: u64,
    /// Protocol cycles completed when the state was captured.
    pub cycle: u64,
    /// The level-specific state.
    pub payload: LevelSnap,
}

impl Snapshot {
    /// The level tag written to the header (matches
    /// [`CycleModel::level`]).
    pub fn level(&self) -> &'static str {
        match &self.payload {
            LevelSnap::Asm(_) => "asm",
            LevelSnap::SystemC(_) => "systemc",
            LevelSnap::Rtl(_) => "rtl",
            LevelSnap::RtlOvl(_) => "rtl+ovl",
            LevelSnap::RtlBatch(_) => "rtl-batch",
        }
    }

    /// Captures an ASM model.
    pub fn of_asm(model: &LaAsmModel) -> Snapshot {
        Snapshot {
            fingerprint: config_fingerprint("asm", model.config()),
            cycle: model.cycles(),
            payload: LevelSnap::Asm(model.snapshot_state()),
        }
    }

    /// Captures a SystemC model at a settled cycle boundary.
    ///
    /// # Errors
    ///
    /// Fails if the event kernel is mid-delta (see
    /// [`LaSystemC::snapshot_state`]).
    pub fn of_systemc(cfg: &LaConfig, model: &LaSystemC) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("systemc", cfg),
            cycle: model.cycles(),
            payload: LevelSnap::SystemC(model.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures an interpreted-RTL driver.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection (see
    /// [`LaRtlDriver::snapshot_state`]).
    pub fn of_rtl(driver: &LaRtlDriver) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl", driver.config()),
            cycle: driver.cycles(),
            payload: LevelSnap::Rtl(driver.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures an RTL+OVL model.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection.
    pub fn of_rtl_ovl(cfg: &LaConfig, model: &RtlWithOvl) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl+ovl", cfg),
            cycle: model.cycles(),
            payload: LevelSnap::RtlOvl(model.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures a 64-lane batched RTL driver.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection in any lane.
    pub fn of_rtl_batch(driver: &LaRtlBatchDriver) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl-batch", driver.config()),
            cycle: driver.cycles(),
            payload: LevelSnap::RtlBatch(
                driver.snapshot_state().map_err(CheckpointError::Restore)?,
            ),
        })
    }

    fn check_pin(&self, level: &str, cfg: &LaConfig) -> Result<(), CheckpointError> {
        let expected = config_fingerprint(level, cfg);
        if self.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.fingerprint,
                expected,
            });
        }
        Ok(())
    }

    /// Builds a fresh ASM model for `cfg` and installs this state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the machine or holds a state it cannot step
    /// ([`LaAsmModel::restore_state`]).
    pub fn into_asm(&self, cfg: &LaConfig) -> Result<LaAsmModel, CheckpointError> {
        self.check_pin("asm", cfg)?;
        let LevelSnap::Asm(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not asm",
                self.level()
            )));
        };
        let mut model = LaAsmModel::new(cfg);
        model
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh SystemC model for `cfg` and installs this state.
    ///
    /// When the snapshot carries monitor state, the default
    /// cycle-level suite is attached first
    /// ([`LaSystemC::attach_default_monitors`]) — snapshots of models
    /// with a custom directive set must be restored by hand (build the
    /// model, attach the same directives, call
    /// [`LaSystemC::restore_state`]).
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, when the monitor
    /// lineup does not match, or when the payload holds a state the
    /// model cannot step ([`LaSystemC::restore_state`]).
    pub fn into_systemc(&self, cfg: &LaConfig) -> Result<LaSystemC, CheckpointError> {
        self.check_pin("systemc", cfg)?;
        let LevelSnap::SystemC(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not systemc",
                self.level()
            )));
        };
        let mut model = LaSystemC::new(cfg);
        if !snap.monitors.is_empty() {
            model.attach_default_monitors();
        }
        model
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh driver over `design` and installs this state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the arena
    /// shape does not fit the design.
    pub fn into_rtl(&self, design: &LaRtl) -> Result<LaRtlDriver, CheckpointError> {
        self.check_pin("rtl", design.config())?;
        let LevelSnap::Rtl(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl",
                self.level()
            )));
        };
        let mut driver = LaRtlDriver::new(design);
        driver
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(driver)
    }

    /// Builds a fresh RTL+OVL model over `design` and installs this
    /// state (the OVL suite re-attaches identically by construction).
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the design.
    pub fn into_rtl_ovl(&self, design: &LaRtl) -> Result<RtlWithOvl, CheckpointError> {
        self.check_pin("rtl+ovl", design.config())?;
        let LevelSnap::RtlOvl(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl+ovl",
                self.level()
            )));
        };
        let mut model = RtlWithOvl::new(design);
        model
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh batched driver over `design` and installs this
    /// state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the design.
    pub fn into_rtl_batch(&self, design: &LaRtl) -> Result<LaRtlBatchDriver, CheckpointError> {
        self.check_pin("rtl-batch", design.config())?;
        let LevelSnap::RtlBatch(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl-batch",
                self.level()
            )));
        };
        let mut driver = LaRtlBatchDriver::new(design);
        driver
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(driver)
    }

    /// Renders the snapshot as a JSONL stream (trailing newline
    /// included). Byte-stable: `parse(to_jsonl(s)).to_jsonl()` is
    /// identical.
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![Json::obj([
            ("kind", Json::str("la1-snapshot")),
            ("version", Json::num(SNAPSHOT_VERSION)),
            ("level", Json::str(self.level())),
            ("fingerprint", fp_str(self.fingerprint)),
            ("cycle", Json::num(self.cycle)),
        ])];
        match &self.payload {
            LevelSnap::Asm(s) => enc_asm(s, &mut lines),
            LevelSnap::SystemC(s) => enc_sc(s, &mut lines),
            LevelSnap::Rtl(s) => enc_rtl(s, &mut lines),
            LevelSnap::RtlOvl(s) => {
                enc_rtl(&s.driver, &mut lines);
                enc_ovl(&s.bench, &mut lines);
            }
            LevelSnap::RtlBatch(s) => enc_rtl_batch(s, &mut lines),
        }
        let payload = lines.len() as u64 - 1;
        lines.push(Json::obj([
            ("end", Json::Bool(true)),
            ("lines", Json::num(payload)),
        ]));
        json::jsonl(&lines)
    }

    /// Parses a snapshot stream, strictly: every line must parse and
    /// the footer must be present with the right line count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the stream is cut at any
    /// byte boundary, [`CheckpointError::VersionMismatch`] /
    /// [`CheckpointError::Malformed`] for wrong-format input. Never
    /// panics.
    pub fn parse(text: &str) -> Result<Snapshot, CheckpointError> {
        let lines = read_lines(text)?;
        let header = &lines[0];
        let fingerprint = check_header(header, "la1-snapshot", SNAPSHOT_VERSION)?;
        let cycle = header.at::<u64>("cycle").map_err(header_error)?;
        let level = header.at::<String>("level").map_err(header_error)?;

        // The footer must close the stream; everything between is the
        // payload.
        if lines.len() < 2 {
            return Err(CheckpointError::Truncated);
        }
        let footer = &lines[lines.len() - 1];
        if footer.get("end").and_then(Json::as_bool) != Some(true) {
            return Err(CheckpointError::Truncated);
        }
        let payload_lines = &lines[1..lines.len() - 1];
        if footer.get("lines").and_then(Json::as_u64) != Some(payload_lines.len() as u64) {
            return Err(CheckpointError::Truncated);
        }

        let mut secs = Sections {
            items: payload_lines,
            pos: 0,
        };
        let payload = match level.as_str() {
            "asm" => LevelSnap::Asm(dec_asm(&mut secs)?),
            "systemc" => LevelSnap::SystemC(dec_sc(&mut secs)?),
            "rtl" => LevelSnap::Rtl(dec_rtl(&mut secs)?),
            "rtl+ovl" => LevelSnap::RtlOvl(RtlOvlSnap {
                driver: dec_rtl(&mut secs)?,
                bench: dec_ovl(&mut secs)?,
            }),
            "rtl-batch" => LevelSnap::RtlBatch(dec_rtl_batch(&mut secs)?),
            other => {
                return Err(CheckpointError::Malformed {
                    line: 1,
                    reason: format!("unknown level `{other}`"),
                })
            }
        };
        if secs.pos != payload_lines.len() {
            return Err(secs.malformed("trailing payload lines".to_string()));
        }
        Ok(Snapshot {
            fingerprint,
            cycle,
            payload,
        })
    }
}

/// A replayable recording of the pin vectors driven into a model, one
/// entry per protocol cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Pin to the `(level, LaConfig)` pair the trace drives.
    pub fingerprint: u64,
    /// The recorded operations, cycle by cycle (empty vectors are idle
    /// cycles and are preserved).
    pub cycles: Vec<Vec<BankOp>>,
}

impl Trace {
    /// An empty trace pinned to `fingerprint`.
    pub fn new(fingerprint: u64) -> Trace {
        Trace {
            fingerprint,
            cycles: Vec::new(),
        }
    }

    /// Records one cycle's operations.
    pub fn record(&mut self, ops: &[BankOp]) {
        self.cycles.push(ops.to_vec());
    }

    /// Drives every recorded cycle into `model`, in order.
    pub fn replay_into<M: CycleModel + ?Sized>(&self, model: &mut M) {
        for ops in &self.cycles {
            model.cycle(ops);
        }
    }

    /// Renders the trace as a JSONL stream (trailing newline
    /// included).
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![Json::obj([
            ("kind", Json::str("la1-trace")),
            ("version", Json::num(TRACE_VERSION)),
            ("fingerprint", fp_str(self.fingerprint)),
        ])];
        lines.extend(
            self.cycles
                .iter()
                .map(|ops| Json::obj([("ops", Json::Arr(ops.iter().map(enc_op).collect()))])),
        );
        lines.push(Json::obj([
            ("end", Json::Bool(true)),
            ("cycles", Json::num(self.cycles.len() as u64)),
        ]));
        json::jsonl(&lines)
    }

    /// Parses a trace stream, strictly: the footer must be present and
    /// agree with the number of cycle lines.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] for any byte-boundary cut,
    /// [`CheckpointError::Malformed`] / `VersionMismatch` for
    /// wrong-format input. Never panics.
    pub fn parse(text: &str) -> Result<Trace, CheckpointError> {
        let (trace, complete) = Trace::load(text, true)?;
        if !complete {
            return Err(CheckpointError::Truncated);
        }
        Ok(trace)
    }

    /// Parses a possibly-torn trace stream, salvaging every complete
    /// cycle line. Returns the trace and whether the stream was
    /// complete (footer present and consistent).
    ///
    /// # Errors
    ///
    /// Still fails when the header itself is torn or wrong — there is
    /// nothing to salvage without a header.
    pub fn recover(text: &str) -> Result<(Trace, bool), CheckpointError> {
        Trace::load(text, false)
    }

    fn load(text: &str, strict: bool) -> Result<(Trace, bool), CheckpointError> {
        // A final line without its newline is torn mid-write: strict
        // readers refuse, recovery drops it.
        let torn_tail = !text.ends_with('\n');
        let mut raw: Vec<&str> = text.split('\n').collect();
        if raw.last() == Some(&"") {
            raw.pop();
        }
        if torn_tail && !raw.is_empty() {
            if strict {
                return Err(CheckpointError::Truncated);
            }
            raw.pop();
        }
        if raw.is_empty() {
            return Err(CheckpointError::Truncated);
        }
        let header = match json::parse(raw[0]) {
            Ok(j) => j,
            Err(_) => {
                return Err(if raw.len() == 1 {
                    CheckpointError::Truncated
                } else {
                    CheckpointError::Malformed {
                        line: 1,
                        reason: "unparseable header".to_string(),
                    }
                })
            }
        };
        let fingerprint = check_header(&header, "la1-trace", TRACE_VERSION)?;

        let mut trace = Trace::new(fingerprint);
        let mut complete = false;
        for (i, line) in raw.iter().enumerate().skip(1) {
            let last = i + 1 == raw.len();
            let j = match json::parse(line) {
                Ok(j) => j,
                Err(e) => {
                    if last && !strict {
                        break; // torn final line: salvage what we have
                    }
                    return Err(if last {
                        CheckpointError::Truncated
                    } else {
                        CheckpointError::Malformed {
                            line: i + 1,
                            reason: format!("{e:?}"),
                        }
                    });
                }
            };
            if j.get("end").and_then(Json::as_bool) == Some(true) {
                if !last {
                    return Err(CheckpointError::Malformed {
                        line: i + 1,
                        reason: "footer before end of stream".to_string(),
                    });
                }
                complete =
                    j.get("cycles").and_then(Json::as_u64) == Some(trace.cycles.len() as u64);
                if strict && !complete {
                    return Err(CheckpointError::Truncated);
                }
                break;
            }
            let decoded: Result<Vec<BankOp>, String> = j
                .arr("ops")
                .map_err(String::from)
                .and_then(|ops| ops.iter().map(dec_op).collect());
            trace
                .cycles
                .push(decoded.map_err(|reason| CheckpointError::Malformed {
                    line: i + 1,
                    reason,
                })?);
        }
        Ok((trace, complete))
    }
}

// ---------------------------------------------------------------------
// line plumbing

/// Parses a strict JSONL checkpoint stream into its lines — the reader
/// snapshots and stage checkpoints share. A final line without its
/// newline, or one that does not parse, is a torn write
/// ([`CheckpointError::Truncated`]); an earlier line that does not
/// parse is [`CheckpointError::Malformed`].
pub fn read_lines(text: &str) -> Result<Vec<Json>, CheckpointError> {
    if !text.ends_with('\n') {
        return Err(CheckpointError::Truncated);
    }
    let raw: Vec<&str> = text[..text.len() - 1].split('\n').collect();
    let mut out = Vec::with_capacity(raw.len());
    for (i, line) in raw.iter().enumerate() {
        match json::parse(line) {
            Ok(j) => out.push(j),
            // a proper prefix of a rendered object never parses
            Err(_) if i + 1 == raw.len() => return Err(CheckpointError::Truncated),
            Err(e) => {
                return Err(CheckpointError::Malformed {
                    line: i + 1,
                    reason: format!("{e:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// Checks a checkpoint header line's `kind` and format `version` and
/// reads its `fingerprint` — the preamble snapshots, traces and stage
/// checkpoints share.
///
/// # Errors
///
/// [`CheckpointError::VersionMismatch`] for another format version,
/// [`CheckpointError::Malformed`] (line 1) for anything else.
pub fn check_header(header: &Json, kind: &str, version: u64) -> Result<u64, CheckpointError> {
    if header.get("kind").and_then(Json::as_str) != Some(kind) {
        return Err(header_error(format!("not an {kind} header")));
    }
    let found = header.at::<u64>("version").map_err(header_error)?;
    if found != version {
        return Err(CheckpointError::VersionMismatch {
            found,
            expected: version,
        });
    }
    let fp = header.at::<String>("fingerprint").map_err(header_error)?;
    match u64::from_str_radix(&fp, 16) {
        Ok(fp_value) if fp.len() == 16 => Ok(fp_value),
        _ => Err(header_error(format!("bad fingerprint `{fp}`"))),
    }
}

fn header_error(reason: impl ToString) -> CheckpointError {
    CheckpointError::Malformed {
        line: 1,
        reason: reason.to_string(),
    }
}

/// Sequential reader over the payload lines (header excluded, so line
/// numbers in errors are offset by 2: one for the header, one for
/// 1-basing).
struct Sections<'a> {
    items: &'a [Json],
    pos: usize,
}

impl<'a> Sections<'a> {
    fn malformed(&self, reason: String) -> CheckpointError {
        CheckpointError::Malformed {
            line: self.pos + 1, // the line just consumed, 1-based with header
            reason,
        }
    }

    fn next_sec(&mut self, want: &str) -> Result<&'a Json, CheckpointError> {
        let j = self.items.get(self.pos).ok_or(CheckpointError::Truncated)?;
        self.pos += 1;
        match j.get("sec").and_then(Json::as_str) {
            Some(sec) if sec == want => Ok(j),
            Some(sec) => Err(self.malformed(format!("expected section `{want}`, found `{sec}`"))),
            None => Err(self.malformed(format!("expected section `{want}`"))),
        }
    }

    /// Wraps a field-level decode error with the current line number.
    fn field<T, E: ToString>(&self, r: Result<T, E>) -> Result<T, CheckpointError> {
        r.map_err(|e| self.malformed(e.to_string()))
    }
}

fn fp_str(fp: u64) -> Json {
    Json::str(format!("{fp:016x}"))
}

// ---------------------------------------------------------------------
// BankOp

fn enc_op(op: &BankOp) -> Json {
    match *op {
        BankOp::Read { bank, addr } => Json::obj([
            ("op", Json::str("r")),
            ("b", Json::num(bank as u64)),
            ("a", Json::num(addr)),
        ]),
        BankOp::Write {
            bank,
            addr,
            data,
            byte_en,
        } => Json::obj([
            ("op", Json::str("w")),
            ("b", Json::num(bank as u64)),
            ("a", Json::num(addr)),
            ("d", Json::num(data)),
            ("be", Json::num(byte_en as u64)),
        ]),
    }
}

fn dec_op(j: &Json) -> Result<BankOp, String> {
    match j.field("op")?.as_str() {
        Some("r") => Ok(BankOp::Read {
            bank: j.at("b")?,
            addr: j.at("a")?,
        }),
        Some("w") => Ok(BankOp::Write {
            bank: j.at("b")?,
            addr: j.at("a")?,
            data: j.at("d")?,
            byte_en: j.at("be")?,
        }),
        _ => Err("unknown op tag".to_string()),
    }
}

/// Encodes one [`BankOp`] in the checkpoint object form — the same
/// encoding [`Trace`] uses per cycle, exposed so higher layers (the
/// staged-closure checkpoint in `la1-cover`) serialize operations
/// identically.
pub fn op_to_json(op: &BankOp) -> Json {
    enc_op(op)
}

/// Inverts [`op_to_json`].
pub fn op_from_json(j: &Json) -> Result<BankOp, String> {
    dec_op(j)
}

/// Encodes one [`SequenceItem`] for checkpoint payloads (the parked
/// driver slots and queued sequencer items a stimulus snapshot must
/// carry).
pub fn item_to_json(item: &SequenceItem) -> Json {
    match item {
        SequenceItem::Read { bank, addr } => Json::obj([
            ("it", Json::str("r")),
            ("b", Json::num(*bank as u64)),
            ("a", Json::num(*addr)),
        ]),
        SequenceItem::Write {
            bank,
            addr,
            data,
            byte_en,
        } => Json::obj([
            ("it", Json::str("w")),
            ("b", Json::num(*bank as u64)),
            ("a", Json::num(*addr)),
            ("d", Json::num(*data)),
            ("be", Json::num(*byte_en as u64)),
        ]),
        SequenceItem::Burst { bank, addr } => Json::obj([
            ("it", Json::str("burst")),
            ("b", Json::num(*bank as u64)),
            ("a", Json::num(*addr)),
        ]),
        SequenceItem::Idle => Json::obj([("it", Json::str("idle"))]),
        SequenceItem::InjectX => Json::obj([("it", Json::str("x"))]),
        SequenceItem::Raw(ops) => Json::obj([
            ("it", Json::str("raw")),
            ("ops", Json::Arr(ops.iter().map(enc_op).collect())),
        ]),
    }
}

/// Inverts [`item_to_json`].
pub fn item_from_json(j: &Json) -> Result<SequenceItem, String> {
    match j.field("it")?.as_str() {
        Some("r") => Ok(SequenceItem::Read {
            bank: j.at("b")?,
            addr: j.at("a")?,
        }),
        Some("w") => Ok(SequenceItem::Write {
            bank: j.at("b")?,
            addr: j.at("a")?,
            data: j.at("d")?,
            byte_en: j.at("be")?,
        }),
        Some("burst") => Ok(SequenceItem::Burst {
            bank: j.at("b")?,
            addr: j.at("a")?,
        }),
        Some("idle") => Ok(SequenceItem::Idle),
        Some("x") => Ok(SequenceItem::InjectX),
        Some("raw") => Ok(SequenceItem::Raw(
            j.arr("ops")?.iter().map(dec_op).collect::<Result<_, _>>()?,
        )),
        _ => Err("unknown item tag".to_string()),
    }
}

// ---------------------------------------------------------------------
// ASM payload

fn enc_value(v: &Value) -> Json {
    match v {
        Value::Bool(b) => Json::obj([("t", Json::str("b")), ("v", Json::Bool(*b))]),
        Value::Int(i) => Json::obj([("t", Json::str("i")), ("v", Json::Num(i.to_string()))]),
        Value::Sym(s) => Json::obj([("t", Json::str("s")), ("v", Json::str(*s))]),
    }
}

fn dec_value(j: &Json) -> Result<Value, String> {
    match j.field("t")?.as_str() {
        Some("b") => Ok(Value::Bool(j.at("v")?)),
        Some("i") => Ok(Value::Int(j.at("v")?)),
        // `Value::Sym` holds a `&'static str`; the interner gives the
        // deserialized name the required lifetime.
        Some("s") => Ok(Value::Sym(intern_sym(&j.at::<String>("v")?))),
        _ => Err("unknown value tag".to_string()),
    }
}

fn enc_asm(s: &AsmSnap, out: &mut Vec<Json>) {
    out.push(Json::obj([
        ("sec", Json::str("asm")),
        ("initialized", Json::Bool(s.initialized)),
        ("cycles", Json::num(s.cycles)),
    ]));
    out.push(Json::obj([
        ("sec", Json::str("values")),
        ("vals", Json::Arr(s.values.iter().map(enc_value).collect())),
    ]));
}

fn dec_asm(secs: &mut Sections<'_>) -> Result<AsmSnap, CheckpointError> {
    let head = secs.next_sec("asm")?;
    let initialized = secs.field(head.at("initialized"))?;
    let cycles = secs.field(head.at("cycles"))?;
    let vals = secs.next_sec("values")?;
    let values: Result<Vec<Value>, String> = secs
        .field(vals.arr("vals"))?
        .iter()
        .map(dec_value)
        .collect();
    Ok(AsmSnap {
        values: secs.field(values)?,
        initialized,
        cycles,
    })
}

// ---------------------------------------------------------------------
// SystemC payload

fn enc_sc(s: &ScSnap, out: &mut Vec<Json>) {
    let (t, ts, act, del, upd) = s.kernel;
    out.push(Json::obj([
        ("sec", Json::str("sc")),
        ("k", Json::Bool(s.k)),
        ("k_bar", Json::Bool(s.k_bar)),
        ("trace_enabled", Json::Bool(s.trace_enabled)),
        ("parity_fault", Json::opt_num(s.parity_fault.map(u64::from))),
        ("kernel", Json::num_arr([t, ts, act, del, upd])),
        ("cycles", Json::num(s.cycles)),
        ("last_read", Json::opt_num(s.last_read)),
        ("banks", Json::num(s.banks.len() as u64)),
        ("monitors", Json::num(s.monitors.len() as u64)),
    ]));
    for b in &s.banks {
        out.push(enc_sc_bank(b));
    }
    out.push(Json::obj([
        ("sec", Json::str("trace")),
        ("msgs", Json::Arr(s.trace.iter().map(enc_msg).collect())),
    ]));
    out.push(Json::obj([
        ("sec", Json::str("sc-violations")),
        (
            "items",
            Json::Arr(
                s.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("property", Json::str(&v.property)),
                            ("cycle", Json::num(v.cycle)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
    for (name, m) in &s.monitors {
        out.push(enc_monitor(name, m));
    }
}

fn dec_sc(secs: &mut Sections<'_>) -> Result<ScSnap, CheckpointError> {
    let head = secs.next_sec("sc")?;
    let k = secs.field(head.at("k"))?;
    let k_bar = secs.field(head.at("k_bar"))?;
    let trace_enabled = secs.field(head.at("trace_enabled"))?;
    let parity_fault = secs.field(head.at("parity_fault"))?;
    let kernel: [u64; 5] = secs.field(
        head.at::<Vec<u64>>("kernel")
            .map_err(String::from)
            .and_then(|k| {
                k.try_into()
                    .map_err(|_| "kernel must have 5 counters".to_string())
            }),
    )?;
    let cycles = secs.field(head.at("cycles"))?;
    let last_read = secs.field(head.at("last_read"))?;
    // the counts size loops, never allocations: a corrupt count runs
    // out of sections instead of out of memory
    let n_banks = secs.field(head.at::<u64>("banks"))?;
    let n_monitors = secs.field(head.at::<u64>("monitors"))?;

    let mut banks = Vec::new();
    for _ in 0..n_banks {
        let b = secs.next_sec("bank")?;
        banks.push(secs.field(dec_sc_bank(b))?);
    }
    let tr = secs.next_sec("trace")?;
    let msgs: Result<Vec<ObservedMessage>, String> =
        secs.field(tr.arr("msgs"))?.iter().map(dec_msg).collect();
    let trace = secs.field(msgs)?;
    let vi = secs.next_sec("sc-violations")?;
    let items: Result<Vec<ScViolation>, String> = secs
        .field(vi.arr("items"))?
        .iter()
        .map(|v| {
            Ok(ScViolation {
                property: v.at("property")?,
                cycle: v.at("cycle")?,
            })
        })
        .collect();
    let violations = secs.field(items)?;
    let mut monitors = Vec::new();
    for _ in 0..n_monitors {
        let m = secs.next_sec("monitor")?;
        let name = secs.field(m.at("name"))?;
        monitors.push((name, secs.field(dec_monitor(m))?));
    }
    Ok(ScSnap {
        k,
        k_bar,
        banks,
        trace,
        trace_enabled,
        parity_fault,
        kernel: kernel.into(),
        monitors,
        violations,
        cycles,
        last_read,
    })
}

fn enc_sc_bank(b: &ScBankSnap) -> Json {
    Json::obj([
        ("sec", Json::str("bank")),
        ("rd_req", Json::Bool(b.rd_req)),
        ("rd_addr", Json::num(b.rd_addr)),
        ("wr_req", Json::Bool(b.wr_req)),
        ("wr_addr", Json::num(b.wr_addr)),
        ("wr_data_lo", Json::num(b.wr_data_lo)),
        ("wr_data_hi", Json::num(b.wr_data_hi)),
        ("wr_byte_en", Json::num(b.wr_byte_en as u64)),
        ("rv1", Json::Bool(b.rv1)),
        ("rv2", Json::Bool(b.rv2)),
        ("dv", Json::Bool(b.dv)),
        ("out_lo", Json::num(b.out_lo)),
        ("out_hi", Json::num(b.out_hi)),
        ("out_par_lo", Json::num(b.out_par_lo)),
        ("out_par_hi", Json::num(b.out_par_hi)),
        ("perr", Json::Bool(b.perr)),
        ("wv", Json::Bool(b.wv)),
        ("wdone", Json::Bool(b.wdone)),
        ("ra1", Json::num(b.ra1)),
        ("ra2", Json::num(b.ra2)),
        ("word_hold", Json::num(b.word_hold)),
        ("wa_c", Json::num(b.wa_c)),
        ("wd_lo_c", Json::num(b.wd_lo_c)),
        ("wd_hi_c", Json::num(b.wd_hi_c)),
        ("be_c", Json::num(b.be_c as u64)),
        ("hi_err", Json::Bool(b.hi_err)),
        ("beat2", Json::Bool(b.beat2)),
        ("beat2_addr", Json::num(b.beat2_addr)),
        ("sram", Json::num_arr(b.sram.iter().copied())),
    ])
}

fn dec_sc_bank(j: &Json) -> Result<ScBankSnap, String> {
    Ok(ScBankSnap {
        rd_req: j.at("rd_req")?,
        rd_addr: j.at("rd_addr")?,
        wr_req: j.at("wr_req")?,
        wr_addr: j.at("wr_addr")?,
        wr_data_lo: j.at("wr_data_lo")?,
        wr_data_hi: j.at("wr_data_hi")?,
        wr_byte_en: j.at("wr_byte_en")?,
        rv1: j.at("rv1")?,
        rv2: j.at("rv2")?,
        dv: j.at("dv")?,
        out_lo: j.at("out_lo")?,
        out_hi: j.at("out_hi")?,
        out_par_lo: j.at("out_par_lo")?,
        out_par_hi: j.at("out_par_hi")?,
        perr: j.at("perr")?,
        wv: j.at("wv")?,
        wdone: j.at("wdone")?,
        ra1: j.at("ra1")?,
        ra2: j.at("ra2")?,
        word_hold: j.at("word_hold")?,
        wa_c: j.at("wa_c")?,
        wd_lo_c: j.at("wd_lo_c")?,
        wd_hi_c: j.at("wd_hi_c")?,
        be_c: j.at("be_c")?,
        hi_err: j.at("hi_err")?,
        beat2: j.at("beat2")?,
        beat2_addr: j.at("beat2_addr")?,
        sram: j.at("sram")?,
    })
}

fn enc_msg(m: &ObservedMessage) -> Json {
    Json::obj([
        ("from", Json::str(&m.from)),
        ("to", Json::str(&m.to)),
        ("method", Json::str(&m.method)),
        ("cycle", Json::num(m.cycle as u64)),
        (
            "clock",
            Json::str(match m.clock {
                ClockRef::K => "K",
                ClockRef::KBar => "K#",
            }),
        ),
    ])
}

fn dec_msg(j: &Json) -> Result<ObservedMessage, String> {
    let clock = match j.field("clock")?.as_str() {
        Some("K") => ClockRef::K,
        Some("K#") => ClockRef::KBar,
        _ => return Err("unknown clock tag".to_string()),
    };
    Ok(ObservedMessage {
        from: j.at("from")?,
        to: j.at("to")?,
        method: j.at("method")?,
        cycle: j.at("cycle")?,
        clock,
    })
}

// ---------------------------------------------------------------------
// PSL monitor payload

fn enc_monitor(name: &str, m: &MonitorSnap) -> Json {
    Json::obj([
        ("sec", Json::str("monitor")),
        ("name", Json::str(name)),
        ("cycle", Json::num(m.cycle)),
        ("failed_at", Json::opt_num(m.failed_at)),
        ("determined_holds", Json::Bool(m.determined_holds)),
        ("covered", Json::Bool(m.covered)),
        ("obs", Json::Arr(m.obs.iter().map(enc_ob).collect())),
    ])
}

fn dec_monitor(j: &Json) -> Result<MonitorSnap, String> {
    let obs: Result<Vec<Obligation>, String> = j.arr("obs")?.iter().map(dec_ob).collect();
    Ok(MonitorSnap {
        obs: obs?,
        cycle: j.at("cycle")?,
        failed_at: j.at("failed_at")?,
        determined_holds: j.at("determined_holds")?,
        covered: j.at("covered")?,
    })
}

fn enc_active(active: &Positions) -> Json {
    Json::num_arr(active.iter().map(|p| p as u64))
}

/// Reads an active-position list. The range of each position is the
/// monitor's to check on restore; here it only has to fit a `usize`.
fn dec_active(j: &Json) -> Result<Positions, String> {
    let list: Vec<u64> = j.at("active")?;
    list.into_iter()
        .map(|p| usize::try_from(p).map_err(|_| format!("active position {p} out of range")))
        .collect()
}

fn enc_ob(ob: &Obligation) -> Json {
    match ob {
        Obligation::Always { body } => Json::obj([
            ("ob", Json::str("always")),
            ("body", Json::num(*body as u64)),
        ]),
        Obligation::Never { sere, active } => Json::obj([
            ("ob", Json::str("never")),
            ("sere", Json::num(*sere as u64)),
            ("active", enc_active(active)),
        ]),
        Obligation::Eventually { sere, active } => Json::obj([
            ("ob", Json::str("eventually")),
            ("sere", Json::num(*sere as u64)),
            ("active", enc_active(active)),
        ]),
        Obligation::SereStrong {
            sere,
            active,
            fresh,
        } => Json::obj([
            ("ob", Json::str("sere-strong")),
            ("sere", Json::num(*sere as u64)),
            ("active", enc_active(active)),
            ("fresh", Json::Bool(*fresh)),
        ]),
        Obligation::Defer {
            remaining,
            strong,
            body,
        } => Json::obj([
            ("ob", Json::str("defer")),
            ("remaining", Json::num(*remaining as u64)),
            ("strong", Json::Bool(*strong)),
            ("body", Json::num(*body as u64)),
        ]),
        Obligation::Until { p, q, strong } => Json::obj([
            ("ob", Json::str("until")),
            ("p", Json::num(*p as u64)),
            ("q", Json::num(*q as u64)),
            ("strong", Json::Bool(*strong)),
        ]),
        Obligation::Before { p, q, strong } => Json::obj([
            ("ob", Json::str("before")),
            ("p", Json::num(*p as u64)),
            ("q", Json::num(*q as u64)),
            ("strong", Json::Bool(*strong)),
        ]),
        Obligation::SuffixImpl {
            pre,
            active,
            post,
            overlap,
            persistent,
            fresh,
        } => Json::obj([
            ("ob", Json::str("suffix-impl")),
            ("pre", Json::num(*pre as u64)),
            ("active", enc_active(active)),
            ("post", Json::num(*post as u64)),
            ("overlap", Json::Bool(*overlap)),
            ("persistent", Json::Bool(*persistent)),
            ("fresh", Json::Bool(*fresh)),
        ]),
    }
}

fn dec_ob(j: &Json) -> Result<Obligation, String> {
    match j.field("ob")?.as_str() {
        Some("always") => Ok(Obligation::Always {
            body: j.at("body")?,
        }),
        Some("never") => Ok(Obligation::Never {
            sere: j.at("sere")?,
            active: dec_active(j)?,
        }),
        Some("eventually") => Ok(Obligation::Eventually {
            sere: j.at("sere")?,
            active: dec_active(j)?,
        }),
        Some("sere-strong") => Ok(Obligation::SereStrong {
            sere: j.at("sere")?,
            active: dec_active(j)?,
            fresh: j.at("fresh")?,
        }),
        Some("defer") => Ok(Obligation::Defer {
            remaining: j.at("remaining")?,
            strong: j.at("strong")?,
            body: j.at("body")?,
        }),
        Some("until") => Ok(Obligation::Until {
            p: j.at("p")?,
            q: j.at("q")?,
            strong: j.at("strong")?,
        }),
        Some("before") => Ok(Obligation::Before {
            p: j.at("p")?,
            q: j.at("q")?,
            strong: j.at("strong")?,
        }),
        Some("suffix-impl") => Ok(Obligation::SuffixImpl {
            pre: j.at("pre")?,
            active: dec_active(j)?,
            post: j.at("post")?,
            overlap: j.at("overlap")?,
            persistent: j.at("persistent")?,
            fresh: j.at("fresh")?,
        }),
        _ => Err("unknown obligation tag".to_string()),
    }
}

// ---------------------------------------------------------------------
// RTL payload

fn enc_rtl(s: &RtlDriverSnap, out: &mut Vec<Json>) {
    out.push(Json::obj([
        ("sec", Json::str("rtl")),
        ("cycles", Json::num(s.cycles)),
        // the scalar driver's one lane, unwrapped
        (
            "captured_lo",
            Json::opt_num(s.captured_lo.first().copied().flatten()),
        ),
        (
            "outputs",
            Json::Arr(
                s.outputs
                    .iter()
                    .flatten()
                    .map(|o| Json::opt_num(*o))
                    .collect(),
            ),
        ),
        ("steps", Json::num(s.sim.steps)),
        ("evals", Json::num(s.sim.evals)),
        ("prev_clk", Json::str(&s.sim.prev_clk)),
        ("rams", Json::num(s.sim.rams.len() as u64)),
    ]));
    out.push(Json::obj([
        ("sec", Json::str("rtl-vals")),
        ("vals", Json::str_arr(s.sim.vals.iter().map(String::as_str))),
    ]));
    for (i, words) in s.sim.rams.iter().enumerate() {
        out.push(Json::obj([
            ("sec", Json::str("rtl-ram")),
            ("idx", Json::num(i as u64)),
            ("words", Json::str_arr(words.iter().map(String::as_str))),
        ]));
    }
}

fn dec_rtl(secs: &mut Sections<'_>) -> Result<RtlDriverSnap, CheckpointError> {
    let head = secs.next_sec("rtl")?;
    let cycles = secs.field(head.at("cycles"))?;
    let captured_lo = secs.field(head.at("captured_lo"))?;
    let outputs = secs.field(head.at("outputs"))?;
    let steps = secs.field(head.at("steps"))?;
    let evals = secs.field(head.at("evals"))?;
    let prev_clk = secs.field(head.at("prev_clk"))?;
    let n_rams = secs.field(head.at::<u64>("rams"))?;
    let vals_line = secs.next_sec("rtl-vals")?;
    let vals = secs.field(vals_line.at("vals"))?;
    let mut rams = Vec::new();
    for i in 0..n_rams {
        let r = secs.next_sec("rtl-ram")?;
        if secs.field(r.at::<u64>("idx"))? != i {
            return Err(secs.malformed(format!("ram sections out of order at index {i}")));
        }
        rams.push(secs.field(r.at("words"))?);
    }
    Ok(RtlDriverSnap {
        sim: RtlState {
            vals,
            rams,
            prev_clk,
            steps,
            evals,
        },
        cycles,
        captured_lo: vec![captured_lo],
        outputs: vec![outputs],
    })
}

// ---------------------------------------------------------------------
// OVL payload

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
        Severity::Fatal => "fatal",
    }
}

fn severity_from(s: &str) -> Result<Severity, String> {
    match s {
        "note" => Ok(Severity::Note),
        "warning" => Ok(Severity::Warning),
        "error" => Ok(Severity::Error),
        "fatal" => Ok(Severity::Fatal),
        _ => Err(format!("unknown severity `{s}`")),
    }
}

fn kind_from(s: &str) -> Result<MonitorKind, String> {
    const ALL: [MonitorKind; 15] = [
        MonitorKind::Always,
        MonitorKind::Never,
        MonitorKind::Proposition,
        MonitorKind::Implication,
        MonitorKind::Next,
        MonitorKind::CycleSequence,
        MonitorKind::Frame,
        MonitorKind::Change,
        MonitorKind::Unchange,
        MonitorKind::OneHot,
        MonitorKind::ZeroOneHot,
        MonitorKind::Range,
        MonitorKind::Time,
        MonitorKind::EvenParity,
        MonitorKind::Width,
    ];
    ALL.into_iter()
        .find(|k| k.ovl_name() == s)
        .ok_or_else(|| format!("unknown monitor kind `{s}`"))
}

fn enc_dyn(d: &OvlDynState) -> Json {
    match d {
        OvlDynState::None => Json::obj([("t", Json::str("none"))]),
        OvlDynState::Counters(v) => Json::obj([
            ("t", Json::str("counters")),
            ("v", Json::num_arr(v.iter().map(|&c| c as u64))),
        ]),
        OvlDynState::Threads(v) => Json::obj([
            ("t", Json::str("threads")),
            ("v", Json::num_arr(v.iter().copied())),
        ]),
        OvlDynState::ValueCounters(v) => Json::obj([
            ("t", Json::str("valctr")),
            ("v", Json::num_arr(v.iter().map(|&(val, _)| val))),
            ("c", Json::num_arr(v.iter().map(|&(_, c)| c as u64))),
        ]),
        OvlDynState::Pulse(p) => Json::obj([
            ("t", Json::str("pulse")),
            ("v", Json::opt_num(p.map(u64::from))),
        ]),
    }
}

fn dec_dyn(j: &Json) -> Result<OvlDynState, String> {
    match j.field("t")?.as_str() {
        Some("none") => Ok(OvlDynState::None),
        Some("counters") => Ok(OvlDynState::Counters(j.at("v")?)),
        Some("threads") => Ok(OvlDynState::Threads(j.at("v")?)),
        Some("valctr") => {
            let vals: Vec<u64> = j.at("v")?;
            let counts: Vec<u32> = j.at("c")?;
            if vals.len() != counts.len() {
                return Err("valctr arrays differ in length".to_string());
            }
            Ok(OvlDynState::ValueCounters(
                vals.into_iter().zip(counts).collect(),
            ))
        }
        Some("pulse") => Ok(OvlDynState::Pulse(j.at("v")?)),
        _ => Err("unknown dyn-state tag".to_string()),
    }
}

fn enc_ovl(s: &OvlSnap, out: &mut Vec<Json>) {
    out.push(Json::obj([
        ("sec", Json::str("ovl")),
        ("cycles", Json::num(s.cycles)),
        ("fatal", Json::Bool(s.fatal)),
        ("instances", Json::num(s.instances.len() as u64)),
    ]));
    for inst in &s.instances {
        out.push(Json::obj([
            ("sec", Json::str("ovl-inst")),
            ("name", Json::str(&inst.name)),
            ("kind", Json::str(inst.kind.ovl_name())),
            ("failures", Json::num(inst.failures)),
            ("dyn", enc_dyn(&inst.dyn_state)),
        ]));
    }
    out.push(Json::obj([
        ("sec", Json::str("ovl-violations")),
        (
            "items",
            Json::Arr(
                s.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("monitor", Json::str(&v.monitor)),
                            ("kind", Json::str(v.kind.ovl_name())),
                            ("cycle", Json::num(v.cycle)),
                            ("severity", Json::str(severity_str(v.severity))),
                            ("message", Json::str(&v.message)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}

fn dec_ovl(secs: &mut Sections<'_>) -> Result<OvlSnap, CheckpointError> {
    let head = secs.next_sec("ovl")?;
    let cycles = secs.field(head.at("cycles"))?;
    let fatal = secs.field(head.at("fatal"))?;
    let n = secs.field(head.at::<u64>("instances"))?;
    let mut instances = Vec::new();
    for _ in 0..n {
        let i = secs.next_sec("ovl-inst")?;
        let name = secs.field(i.at("name"))?;
        let kind = secs.field(kind_from(&secs.field(i.at::<String>("kind"))?))?;
        let failures = secs.field(i.at("failures"))?;
        let dyn_state = secs.field(i.field("dyn").map_err(String::from).and_then(dec_dyn))?;
        instances.push(OvlInstanceSnap {
            name,
            kind,
            failures,
            dyn_state,
        });
    }
    let vi = secs.next_sec("ovl-violations")?;
    let items: Result<Vec<OvlViolation>, String> = secs
        .field(vi.arr("items"))?
        .iter()
        .map(|v| {
            Ok(OvlViolation {
                monitor: v.at("monitor")?,
                kind: kind_from(&v.at::<String>("kind")?)?,
                cycle: v.at("cycle")?,
                severity: severity_from(&v.at::<String>("severity")?)?,
                message: v.at("message")?,
            })
        })
        .collect();
    Ok(OvlSnap {
        instances,
        violations: secs.field(items)?,
        cycles,
        fatal,
    })
}

// ---------------------------------------------------------------------
// batched RTL payload

/// The `a` (value) and `b` (x) planes of a list of packed words, as
/// two arrays of per-word plane vectors.
fn enc_planes(words: &[(Vec<u64>, Vec<u64>)]) -> [(&'static str, Json); 2] {
    let a = words.iter().map(|(a, _)| Json::num_arr(a.iter().copied()));
    let b = words.iter().map(|(_, b)| Json::num_arr(b.iter().copied()));
    [("a", Json::Arr(a.collect())), ("b", Json::Arr(b.collect()))]
}

/// A list of (value, x) packed plane pairs, one per batched state word.
type PlanePairs = Vec<(Vec<u64>, Vec<u64>)>;

fn dec_planes(j: &Json) -> Result<PlanePairs, String> {
    let a: Vec<Vec<u64>> = j.at("a")?;
    let b: Vec<Vec<u64>> = j.at("b")?;
    if a.len() != b.len() {
        return Err("plane arrays `a`/`b` differ in length".to_string());
    }
    Ok(a.into_iter().zip(b).collect())
}

fn enc_rtl_batch(s: &RtlBatchDriverSnap, out: &mut Vec<Json>) {
    out.push(Json::obj([
        ("sec", Json::str("rtl-batch")),
        ("cycles", Json::num(s.cycles)),
        (
            "captured_lo",
            Json::Arr(s.captured_lo.iter().map(|o| Json::opt_num(*o)).collect()),
        ),
        ("steps", Json::num(s.sim.steps)),
        ("evals", Json::num(s.sim.evals)),
        ("prev_clk", Json::str(&s.sim.prev_clk)),
        ("rams", Json::num(s.sim.rams.len() as u64)),
    ]));
    out.push(Json::obj([
        ("sec", Json::str("batch-outputs")),
        (
            "lanes",
            Json::Arr(
                s.outputs
                    .iter()
                    .map(|lane| Json::Arr(lane.iter().map(|o| Json::opt_num(*o)).collect()))
                    .collect(),
            ),
        ),
    ]));
    let [a, b] = enc_planes(&s.sim.vals);
    out.push(Json::obj([("sec", Json::str("batch-vals")), a, b]));
    for (i, words) in s.sim.rams.iter().enumerate() {
        let [a, b] = enc_planes(words);
        out.push(Json::obj([
            ("sec", Json::str("batch-ram")),
            ("idx", Json::num(i as u64)),
            a,
            b,
        ]));
    }
}

fn dec_rtl_batch(secs: &mut Sections<'_>) -> Result<RtlBatchDriverSnap, CheckpointError> {
    let head = secs.next_sec("rtl-batch")?;
    let cycles = secs.field(head.at("cycles"))?;
    let captured_lo = secs.field(head.at::<Vec<Option<u64>>>("captured_lo"))?;
    if captured_lo.len() != LANES {
        return Err(secs.malformed(format!("captured_lo must have {LANES} lanes")));
    }
    let steps = secs.field(head.at("steps"))?;
    let evals = secs.field(head.at("evals"))?;
    let prev_clk = secs.field(head.at("prev_clk"))?;
    let n_rams = secs.field(head.at::<u64>("rams"))?;
    let outs = secs.next_sec("batch-outputs")?;
    let outputs = secs.field(outs.at::<Vec<Vec<Option<u64>>>>("lanes"))?;
    if outputs.len() != LANES {
        return Err(secs.malformed(format!("outputs must have {LANES} lanes")));
    }
    let vals_line = secs.next_sec("batch-vals")?;
    let vals = secs.field(dec_planes(vals_line))?;
    let mut rams = Vec::new();
    for i in 0..n_rams {
        let r = secs.next_sec("batch-ram")?;
        if secs.field(r.at::<u64>("idx"))? != i {
            return Err(secs.malformed(format!("ram sections out of order at index {i}")));
        }
        rams.push(secs.field(dec_planes(r))?);
    }
    Ok(RtlBatchDriverSnap {
        sim: BatchedRtlState {
            vals,
            rams,
            prev_clk,
            steps,
            evals,
        },
        cycles,
        captured_lo,
        outputs,
    })
}
