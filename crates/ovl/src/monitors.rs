//! The assertion-monitor state machines.

use la1_rtl::{Logic, LogicVec, Probed, Value};

/// Which OVL monitor a bench instance implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorKind {
    /// `assert_always` — the expression holds every sampled cycle.
    Always,
    /// `assert_never` — the expression never holds.
    Never,
    /// `assert_proposition` — like `assert_always` (OVL's unclocked
    /// variant; the bench samples it with the others).
    Proposition,
    /// `assert_implication` — antecedent implies consequent, same cycle.
    Implication,
    /// `assert_next` — `num_cks` after `start`, `test` holds.
    Next,
    /// `assert_cycle_sequence` — consecutive events, last one mandatory.
    CycleSequence,
    /// `assert_frame` — after `start`, `test` holds within
    /// `[min_cks, max_cks]`.
    Frame,
    /// `assert_change` — `test` changes within `num_cks` after `start`.
    Change,
    /// `assert_unchange` — `test` stays stable `num_cks` after `start`.
    Unchange,
    /// `assert_one_hot` — exactly one bit of the vector is set.
    OneHot,
    /// `assert_zero_one_hot` — at most one bit is set.
    ZeroOneHot,
    /// `assert_range` — the vector's value lies in `[min, max]`.
    Range,
    /// `assert_time` — after `start`, `test` holds for `num_cks` cycles.
    Time,
    /// `assert_even_parity` — the vector (data plus parity bits) has an
    /// even number of ones whenever `valid` holds.
    EvenParity,
    /// `assert_width` — once `test` rises, it stays high between
    /// `min_cks` and `max_cks` cycles.
    Width,
}

impl MonitorKind {
    /// The OVL module name.
    pub fn ovl_name(self) -> &'static str {
        match self {
            MonitorKind::Always => "assert_always",
            MonitorKind::Never => "assert_never",
            MonitorKind::Proposition => "assert_proposition",
            MonitorKind::Implication => "assert_implication",
            MonitorKind::Next => "assert_next",
            MonitorKind::CycleSequence => "assert_cycle_sequence",
            MonitorKind::Frame => "assert_frame",
            MonitorKind::Change => "assert_change",
            MonitorKind::Unchange => "assert_unchange",
            MonitorKind::OneHot => "assert_one_hot",
            MonitorKind::ZeroOneHot => "assert_zero_one_hot",
            MonitorKind::Range => "assert_range",
            MonitorKind::Time => "assert_time",
            MonitorKind::EvenParity => "assert_even_parity",
            MonitorKind::Width => "assert_width",
        }
    }
}

/// Internal per-instance state. Expressions are indices into the
/// bench's list of distinct expressions ([`crate::OvlBench::exprs`]).
#[derive(Debug, Clone)]
pub(crate) enum MonitorState {
    Simple {
        kind: MonitorKind,
        test: u32,
    },
    Implication {
        antecedent: u32,
        consequent: u32,
    },
    Next {
        start: u32,
        test: u32,
        num_cks: u32,
        /// countdowns of outstanding obligations
        pending: Vec<u32>,
    },
    CycleSequence {
        events: Vec<u32>,
        /// indices of the event each active thread expects next
        active: Vec<usize>,
    },
    Frame {
        start: u32,
        test: u32,
        min_cks: u32,
        max_cks: u32,
        /// cycles elapsed per outstanding window
        pending: Vec<u32>,
    },
    ChangeLike {
        kind: MonitorKind, // Change or Unchange
        start: u32,
        test: u32,
        num_cks: u32,
        /// (initial value, remaining cycles) per window
        pending: Vec<(u64, u32)>,
    },
    VectorCheck {
        kind: MonitorKind, // OneHot / ZeroOneHot
        test: u32,
    },
    Range {
        test: u32,
        min: u64,
        max: u64,
    },
    Time {
        start: u32,
        test: u32,
        num_cks: u32,
        /// remaining mandatory cycles per window
        pending: Vec<u32>,
    },
    EvenParity {
        valid: u32,
        test: u32,
    },
    Width {
        test: u32,
        min_cks: u32,
        max_cks: u32,
        /// length of the high pulse in progress, if any
        high_for: Option<u32>,
    },
}

/// The dynamic (cycle-varying) part of one monitor instance's state.
///
/// The expressions a monitor samples are fixed at attach time and are
/// reconstructed by the host when it rebuilds the bench; a snapshot
/// carries only what the monitor accumulated while running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OvlDynState {
    /// Monitors with no cycle-to-cycle state (always / never /
    /// proposition / implication / one-hot / range / parity).
    None,
    /// Outstanding countdown windows (`assert_next`, `assert_frame`,
    /// `assert_time`).
    Counters(Vec<u32>),
    /// Active sequence-thread positions (`assert_cycle_sequence`).
    Threads(Vec<u64>),
    /// Sampled-value windows (`assert_change` / `assert_unchange`):
    /// `(initial value, remaining cycles)` per window.
    ValueCounters(Vec<(u64, u32)>),
    /// Length of the high pulse in progress (`assert_width`).
    Pulse(Option<u32>),
}

impl MonitorState {
    pub(crate) fn dyn_state(&self) -> OvlDynState {
        match self {
            MonitorState::Simple { .. }
            | MonitorState::Implication { .. }
            | MonitorState::VectorCheck { .. }
            | MonitorState::Range { .. }
            | MonitorState::EvenParity { .. } => OvlDynState::None,
            MonitorState::Next { pending, .. }
            | MonitorState::Frame { pending, .. }
            | MonitorState::Time { pending, .. } => OvlDynState::Counters(pending.clone()),
            MonitorState::CycleSequence { active, .. } => {
                OvlDynState::Threads(active.iter().map(|&p| p as u64).collect())
            }
            MonitorState::ChangeLike { pending, .. } => OvlDynState::ValueCounters(pending.clone()),
            MonitorState::Width { high_for, .. } => OvlDynState::Pulse(*high_for),
        }
    }

    /// Installs a previously captured [`OvlDynState`]. Fails when the
    /// shape does not match this monitor's kind, or a sequence-thread
    /// position is out of range.
    pub(crate) fn apply_dyn_state(&mut self, st: &OvlDynState) -> Result<(), String> {
        match (self, st) {
            (
                MonitorState::Simple { .. }
                | MonitorState::Implication { .. }
                | MonitorState::VectorCheck { .. }
                | MonitorState::Range { .. }
                | MonitorState::EvenParity { .. },
                OvlDynState::None,
            ) => Ok(()),
            (
                MonitorState::Next { pending, .. }
                | MonitorState::Frame { pending, .. }
                | MonitorState::Time { pending, .. },
                OvlDynState::Counters(c),
            ) => {
                *pending = c.clone();
                Ok(())
            }
            (MonitorState::CycleSequence { events, active }, OvlDynState::Threads(t)) => {
                let mut pos = Vec::with_capacity(t.len());
                for &p in t {
                    if p as usize >= events.len() {
                        return Err(format!(
                            "sequence thread at position {p} but only {} events",
                            events.len()
                        ));
                    }
                    pos.push(p as usize);
                }
                *active = pos;
                Ok(())
            }
            (MonitorState::ChangeLike { pending, .. }, OvlDynState::ValueCounters(c)) => {
                *pending = c.clone();
                Ok(())
            }
            (MonitorState::Width { high_for, .. }, OvlDynState::Pulse(p)) => {
                *high_for = *p;
                Ok(())
            }
            (state, st) => Err(format!(
                "dynamic state {st:?} does not fit an {} monitor",
                state.kind().ovl_name()
            )),
        }
    }

    pub(crate) fn kind(&self) -> MonitorKind {
        match self {
            MonitorState::Simple { kind, .. } | MonitorState::VectorCheck { kind, .. } => *kind,
            MonitorState::ChangeLike { kind, .. } => *kind,
            MonitorState::Implication { .. } => MonitorKind::Implication,
            MonitorState::Next { .. } => MonitorKind::Next,
            MonitorState::CycleSequence { .. } => MonitorKind::CycleSequence,
            MonitorState::Frame { .. } => MonitorKind::Frame,
            MonitorState::Range { .. } => MonitorKind::Range,
            MonitorState::Time { .. } => MonitorKind::Time,
            MonitorState::EvenParity { .. } => MonitorKind::EvenParity,
            MonitorState::Width { .. } => MonitorKind::Width,
        }
    }

    /// Evaluates one sampled cycle of one lane of a probe pass over the
    /// bench's expressions. Returns `Err(detail)` on violation.
    pub(crate) fn sample<V: Value>(&mut self, sim: &Sample<'_, '_, V>) -> Result<(), String> {
        let truthy = |e: &u32| sim.truthy(*e);
        match self {
            MonitorState::Simple { kind, test } => {
                let v = truthy(test);
                match kind {
                    MonitorKind::Always | MonitorKind::Proposition if !v => {
                        Err("expression is not true".to_string())
                    }
                    MonitorKind::Never if v => Err("expression fired".to_string()),
                    _ => Ok(()),
                }
            }
            MonitorState::Implication {
                antecedent,
                consequent,
            } => {
                if truthy(antecedent) && !truthy(consequent) {
                    Err("antecedent without consequent".to_string())
                } else {
                    Ok(())
                }
            }
            MonitorState::Next {
                start,
                test,
                num_cks,
                pending,
            } => {
                let mut due = false;
                pending.iter_mut().for_each(|c| *c -= 1);
                pending.retain(|&c| {
                    if c == 0 {
                        due = true;
                        false
                    } else {
                        true
                    }
                });
                let mut result = Ok(());
                if due && !truthy(test) {
                    result = Err("test not true num_cks cycles after start".to_string());
                }
                if truthy(start) {
                    pending.push(*num_cks);
                }
                result
            }
            MonitorState::CycleSequence { events, active } => {
                // advance each thread in place; the last event is
                // mandatory once all previous ones matched
                let mut violation = None;
                let last = events.len() - 1;
                active.retain_mut(|pos| {
                    if truthy(&events[*pos]) {
                        *pos += 1;
                        *pos <= last
                    } else {
                        if *pos == last {
                            violation =
                                Some("sequence prefix matched but final event missing".to_string());
                        }
                        false
                    }
                });
                // a new attempt starts whenever the first event holds
                if truthy(&events[0]) && last > 0 {
                    active.push(1);
                }
                active.sort_unstable();
                active.dedup();
                match violation {
                    Some(v) => Err(v),
                    None => Ok(()),
                }
            }
            MonitorState::Frame {
                start,
                test,
                min_cks,
                max_cks,
                pending,
            } => {
                let t = truthy(test);
                let mut violation = None;
                pending.iter_mut().for_each(|c| *c += 1);
                pending.retain(|&elapsed| {
                    if t && elapsed >= *min_cks && elapsed <= *max_cks {
                        false // satisfied
                    } else if t && elapsed < *min_cks {
                        violation = Some("test asserted before min_cks".to_string());
                        false
                    } else if elapsed >= *max_cks {
                        violation = Some("test never asserted within max_cks".to_string());
                        false
                    } else {
                        true
                    }
                });
                if truthy(start) {
                    pending.push(0);
                }
                match violation {
                    Some(v) => Err(v),
                    None => Ok(()),
                }
            }
            MonitorState::ChangeLike {
                kind,
                start,
                test,
                num_cks,
                pending,
            } => {
                let cur = sim.value(*test);
                let mut violation = None;
                pending.iter_mut().for_each(|p| p.1 -= 1);
                pending.retain(|&(initial, remaining)| {
                    let changed = cur != Some(initial);
                    match kind {
                        MonitorKind::Change => {
                            if changed {
                                false // satisfied
                            } else if remaining == 0 {
                                violation = Some("value did not change within num_cks".to_string());
                                false
                            } else {
                                true
                            }
                        }
                        MonitorKind::Unchange => {
                            if changed {
                                violation = Some("value changed within num_cks".to_string());
                                false
                            } else {
                                remaining > 0
                            }
                        }
                        _ => unreachable!("ChangeLike holds Change/Unchange only"),
                    }
                });
                if truthy(start) {
                    if let Some(v) = cur {
                        pending.push((v, *num_cks));
                    }
                }
                match violation {
                    Some(v) => Err(v),
                    None => Ok(()),
                }
            }
            MonitorState::VectorCheck { kind, test } => {
                let ones = sim.ones(*test);
                match kind {
                    MonitorKind::OneHot if ones != Some(1) => {
                        Err(format!("expected one-hot, found {}", sim.show(*test)))
                    }
                    MonitorKind::ZeroOneHot if !matches!(ones, Some(0 | 1)) => {
                        Err(format!("expected zero-one-hot, found {}", sim.show(*test)))
                    }
                    _ => Ok(()),
                }
            }
            MonitorState::Range { test, min, max } => match sim.value(*test) {
                Some(v) if v >= *min && v <= *max => Ok(()),
                Some(v) => Err(format!("value {v} outside [{min}, {max}]")),
                None => Err("value is unknown".to_string()),
            },
            MonitorState::Time {
                start,
                test,
                num_cks,
                pending,
            } => {
                let t = truthy(test);
                let mut violation = None;
                pending.retain_mut(|remaining| {
                    if !t {
                        violation = Some("test deasserted during the hold window".to_string());
                        false
                    } else {
                        *remaining -= 1;
                        *remaining > 0
                    }
                });
                if truthy(start) && *num_cks > 0 {
                    pending.push(*num_cks);
                }
                match violation {
                    Some(v) => Err(v),
                    None => Ok(()),
                }
            }
            MonitorState::EvenParity { valid, test } => {
                if !truthy(valid) {
                    return Ok(());
                }
                match sim.ones(*test) {
                    None => Err(format!(
                        "parity vector has unknown bits: {}",
                        sim.show(*test)
                    )),
                    Some(ones) if ones % 2 == 0 => Ok(()),
                    Some(_) => Err(format!("odd number of ones in {}", sim.show(*test))),
                }
            }
            MonitorState::Width {
                test,
                min_cks,
                max_cks,
                high_for,
            } => {
                let t = truthy(test);
                match (t, high_for.as_mut()) {
                    (true, Some(n)) => {
                        *n += 1;
                        if *n > *max_cks {
                            *high_for = None; // report once per pulse
                            Err("pulse longer than max_cks".to_string())
                        } else {
                            Ok(())
                        }
                    }
                    (true, None) => {
                        *high_for = Some(1);
                        Ok(())
                    }
                    (false, Some(n)) => {
                        let len = *n;
                        *high_for = None;
                        if len < *min_cks {
                            Err(format!("pulse of {len} cycles shorter than min_cks"))
                        } else {
                            Ok(())
                        }
                    }
                    (false, None) => Ok(()),
                }
            }
        }
    }
}

/// One lane of a probe pass over a bench's expressions: what a monitor
/// reads in one sampled cycle.
pub(crate) struct Sample<'a, 'p, V: Value> {
    pub(crate) probed: &'a Probed<'p, V>,
    pub(crate) lane: usize,
}

impl<V: Value> Sample<'_, '_, V> {
    /// Whether bit 0 of expression `e` is `1`.
    fn truthy(&self, e: u32) -> bool {
        self.probed.get(e as usize).lane_bit(self.lane, 0) == Logic::L1
    }

    /// Expression `e`'s value, if fully known.
    fn value(&self, e: u32) -> Option<u64> {
        self.probed.get(e as usize).lane_u64(self.lane)
    }

    /// How many bits of expression `e` are `1`, if every bit is known.
    fn ones(&self, e: u32) -> Option<u32> {
        self.probed.get(e as usize).lane_ones(self.lane)
    }

    /// Expression `e`'s value for a violation message (allocates).
    fn show(&self, e: u32) -> LogicVec {
        self.probed.get(e as usize).get_lane(self.lane)
    }
}
