//! Synthesis of PSL safety properties into monitor circuits.
//!
//! A property becomes extra state bits (SERE position registers,
//! obligation shift registers) plus a combinational `fail` function over
//! the extended transition system. Proving the property is then
//! `AG !fail` — the construction commercial formal tools apply to PSL's
//! simple subset.

use la1_psl::{BoolExpr, Nfa, Property, Sere};
use la1_rtl::{BitBuilder, BitId, TransitionSystem};
use std::error::Error;
use std::fmt;
use std::mem::take;

/// Error for properties outside the supported safety subset
/// (strong/liveness operators need fairness machinery RuleBase-era
/// safety flows did not use either).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedPropertyError {
    /// Human-readable description of the unsupported construct.
    pub construct: String,
}

impl fmt::Display for UnsupportedPropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "property uses {} which is outside the supported safety subset",
            self.construct
        )
    }
}

impl Error for UnsupportedPropertyError {}

/// A transition system extended with monitor state; `fail` is the
/// violation bit.
pub(crate) struct SynthesizedMonitor {
    pub(crate) ts: TransitionSystem,
    pub(crate) fail: BitId,
}

/// A transition system being extended with monitor state: `dag` holds
/// its nodes (taken out of `ts`) while the monitor is built.
struct TsBuilder {
    ts: TransitionSystem,
    dag: BitBuilder,
}

impl TsBuilder {
    fn new(ts: &TransitionSystem) -> Self {
        let mut ts = ts.clone();
        let dag = BitBuilder::from_nodes(take(&mut ts.nodes));
        TsBuilder { ts, dag }
    }

    fn finish(self) -> TransitionSystem {
        let mut ts = self.ts;
        ts.nodes = self.dag.into_nodes();
        ts
    }

    /// Adds a monitor register; its next-state function must be patched
    /// via `set_next` once known. Returns the *state index* (the DAG
    /// variable is offset by the input count, which appending state
    /// bits never disturbs).
    fn register(&mut self, name: String, init: bool) -> (u32, BitId) {
        let state_index = self.ts.state_bits.len() as u32;
        let var = self.ts.input_bits.len() as u32 + state_index;
        self.ts.state_bits.push(name);
        self.ts.init.push(init);
        // placeholder next (hold); fixed up by set_next
        let cur = self.dag.var(var);
        self.ts.next.push(cur);
        (state_index, cur)
    }

    fn set_next(&mut self, var: u32, f: BitId) {
        self.ts.next[var as usize] = f;
    }

    /// Resolves a PSL signal atom to a 1-bit function of the current
    /// state/inputs.
    fn atom(&mut self, name: &str) -> Result<BitId, UnsupportedPropertyError> {
        if let Some(bits) = self.ts.probe(name) {
            if bits.len() == 1 {
                return Ok(bits[0]);
            }
            return Err(UnsupportedPropertyError {
                construct: format!("multi-bit signal {name} as a Boolean atom"),
            });
        }
        // indexed form name[i]
        if let Some(open) = name.rfind('[') {
            if let (base, Some(idx)) = (
                &name[..open],
                name[open + 1..]
                    .strip_suffix(']')
                    .and_then(|s| s.parse::<usize>().ok()),
            ) {
                if let Some(bits) = self.ts.probe(base) {
                    if idx < bits.len() {
                        return Ok(bits[idx]);
                    }
                }
            }
        }
        Err(UnsupportedPropertyError {
            construct: format!("unknown signal {name}"),
        })
    }

    fn bool_expr(&mut self, e: &BoolExpr) -> Result<BitId, UnsupportedPropertyError> {
        Ok(match e {
            BoolExpr::Const(b) => self.dag.konst(*b),
            BoolExpr::Var(n) => self.atom(n)?,
            BoolExpr::Not(a) => {
                let x = self.bool_expr(a)?;
                self.dag.not(x)
            }
            BoolExpr::And(a, b) => {
                let (x, y) = (self.bool_expr(a)?, self.bool_expr(b)?);
                self.dag.and(x, y)
            }
            BoolExpr::Or(a, b) => {
                let (x, y) = (self.bool_expr(a)?, self.bool_expr(b)?);
                self.dag.or(x, y)
            }
            BoolExpr::Xor(a, b) => {
                let (x, y) = (self.bool_expr(a)?, self.bool_expr(b)?);
                self.dag.xor(x, y)
            }
            BoolExpr::Implies(a, b) => {
                let (x, y) = (self.bool_expr(a)?, self.bool_expr(b)?);
                let nx = self.dag.not(x);
                self.dag.or(nx, y)
            }
            BoolExpr::Iff(a, b) => {
                let (x, y) = (self.bool_expr(a)?, self.bool_expr(b)?);
                let d = self.dag.xor(x, y);
                self.dag.not(d)
            }
        })
    }

    /// Lays out one register per position of the SERE's [`Nfa`],
    /// creating nodes position by position and, within a position,
    /// predecessor by predecessor (the order `golden/circuits.txt` pins).
    ///
    /// Returns `(accepted_now, any_active_now)`: `accepted_now` is true
    /// in every step where a match ends; matches are seeded each step
    /// that `seed_now` holds.
    fn sere_monitor(
        &mut self,
        sere: &Sere,
        seed_now: BitId,
        tag: &str,
    ) -> Result<(BitId, BitId), UnsupportedPropertyError> {
        let nfa = Nfa::from_sere(sere);
        let n = nfa.num_positions();
        // one register per position: "entered at the previous step"
        let regs: Vec<(u32, BitId)> = (0..n)
            .map(|i| self.register(format!("psl::{tag}::pos{i}"), false))
            .collect();
        let mut accepted = self.dag.konst(false);
        let mut any = self.dag.konst(false);
        let mut now_active: Vec<BitId> = Vec::with_capacity(n);
        for i in 0..n {
            let g = self.bool_expr(nfa.guard(i))?;
            // entered now if guard holds and (seeded-first or followed)
            let mut entry = if nfa.first().contains(&i) {
                seed_now
            } else {
                self.dag.konst(false)
            };
            for j in (0..n).filter(|&j| nfa.follow(j).contains(&i)) {
                entry = self.dag.or(entry, regs[j].1);
            }
            let act = self.dag.and(g, entry);
            now_active.push(act);
            if nfa.is_last(i) {
                accepted = self.dag.or(accepted, act);
            }
            any = self.dag.or(any, act);
        }
        for (&(var, _), &act) in regs.iter().zip(&now_active) {
            self.set_next(var, act);
        }
        if nfa.nullable() {
            accepted = self.dag.or(accepted, seed_now);
        }
        Ok((accepted, any))
    }
}

/// Synthesizes an `always`-rooted (or `never`) safety property into a
/// monitor circuit over a copy of `ts`.
pub(crate) fn synthesize(
    ts: &TransitionSystem,
    property: &Property,
    tag: &str,
) -> Result<SynthesizedMonitor, UnsupportedPropertyError> {
    let mut b = TsBuilder::new(ts);
    let true_bit = b.dag.konst(true);
    // the root property is armed once, at step 0, unless wrapped in
    // `always` (PSL: an un-quantified property applies to the first cycle)
    let fail = synth_fail(&mut b, property, true_bit, tag, false)?;
    Ok(SynthesizedMonitor {
        ts: b.finish(),
        fail,
    })
}

/// Returns a bit that is 1 in any step where the property (required to
/// start in every step that `trigger` holds, when `persistent`; required
/// to start at step 0 otherwise) is violated.
fn synth_fail(
    b: &mut TsBuilder,
    prop: &Property,
    trigger: BitId,
    tag: &str,
    top: bool,
) -> Result<BitId, UnsupportedPropertyError> {
    match prop {
        Property::Always(body) => synth_fail(b, body, trigger, tag, true),
        Property::Bool(e) => {
            let v = b.bool_expr(e)?;
            let nv = b.dag.not(v);
            let armed = arm(b, trigger, tag, top)?;
            Ok(b.dag.and(armed, nv))
        }
        Property::Implies(cond, body) => {
            let c = b.bool_expr(cond)?;
            let armed = arm(b, trigger, tag, top)?;
            let t = b.dag.and(armed, c);
            synth_fail_consequent(b, body, t, tag)
        }
        Property::Never(s) => {
            // `never` is inherently invariant: matches are forbidden
            // starting anywhere, so seeding is unconditional
            let (accepted, _) = b.sere_monitor(s, trigger, &format!("{tag}::never"))?;
            Ok(accepted)
        }
        Property::SuffixImpl { pre, post, overlap } => {
            let armed = arm(b, trigger, tag, top)?;
            let (accepted, _) = b.sere_monitor(pre, armed, &format!("{tag}::pre"))?;
            let t = if *overlap {
                accepted
            } else {
                let (var, cur) = b.register(format!("psl::{tag}::nonovl"), false);
                b.set_next(var, accepted);
                cur
            };
            synth_fail_consequent(b, post, t, tag)
        }
        Property::Next { .. } | Property::Until { .. } | Property::Before { .. } => {
            // handled as a consequent of an always-armed trigger
            let armed = arm(b, trigger, tag, top)?;
            synth_fail_consequent(b, prop, armed, tag)
        }
        Property::And(p, q) => {
            let f1 = synth_fail(b, p, trigger, tag, top)?;
            let f2 = synth_fail(b, q, trigger, tag, top)?;
            Ok(b.dag.or(f1, f2))
        }
        Property::Eventually(_) | Property::SereStrong(_) => Err(UnsupportedPropertyError {
            construct: "a strong (liveness) operator".to_string(),
        }),
    }
}

/// When a property is not under `always`, it only applies from step 0;
/// a `first-step` register gates the trigger.
fn arm(
    b: &mut TsBuilder,
    trigger: BitId,
    tag: &str,
    persistent: bool,
) -> Result<BitId, UnsupportedPropertyError> {
    if persistent {
        return Ok(trigger);
    }
    let (var, cur) = b.register(format!("psl::{tag}::first"), true);
    let zero = b.dag.konst(false);
    b.set_next(var, zero);
    Ok(b.dag.and(trigger, cur))
}

/// Fails when `prop`, obligated to hold starting at every step where
/// `trigger` holds, is violated.
fn synth_fail_consequent(
    b: &mut TsBuilder,
    prop: &Property,
    trigger: BitId,
    tag: &str,
) -> Result<BitId, UnsupportedPropertyError> {
    match prop {
        Property::Bool(e) => {
            let v = b.bool_expr(e)?;
            let nv = b.dag.not(v);
            Ok(b.dag.and(trigger, nv))
        }
        Property::Implies(cond, body) => {
            let c = b.bool_expr(cond)?;
            let t = b.dag.and(trigger, c);
            synth_fail_consequent(b, body, t, tag)
        }
        Property::And(p, q) => {
            let f1 = synth_fail_consequent(b, p, trigger, tag)?;
            let f2 = synth_fail_consequent(b, q, trigger, tag)?;
            Ok(b.dag.or(f1, f2))
        }
        Property::Next { n, strong: _, body } => {
            // shift the obligation n steps (weak and strong coincide on
            // the infinite traces of a transition system)
            let mut t = trigger;
            for k in 0..*n {
                let (var, cur) = b.register(format!("psl::{tag}::next{k}"), false);
                b.set_next(var, t);
                t = cur;
            }
            synth_fail_consequent(b, body, t, tag)
        }
        Property::Until { p, q, strong } => {
            if *strong {
                return Err(UnsupportedPropertyError {
                    construct: "until! (strong until)".to_string(),
                });
            }
            let pv = b.bool_expr(p)?;
            let qv = b.bool_expr(q)?;
            // active obligation: triggered now or pending from before,
            // not yet released by q
            let (var, pending) = b.register(format!("psl::{tag}::until"), false);
            let active = b.dag.or(trigger, pending);
            let nq = b.dag.not(qv);
            let open = b.dag.and(active, nq);
            b.set_next(var, open);
            let np = b.dag.not(pv);
            Ok(b.dag.and(open, np))
        }
        Property::Before { p, q, strong } => {
            if *strong {
                return Err(UnsupportedPropertyError {
                    construct: "before! (strong before)".to_string(),
                });
            }
            let pv = b.bool_expr(p)?;
            let qv = b.bool_expr(q)?;
            // obligation open until p occurs (without q); fails when q
            // occurs while p has not
            let (var, pending) = b.register(format!("psl::{tag}::before"), false);
            let active = b.dag.or(trigger, pending);
            let nq = b.dag.not(qv);
            let np = b.dag.not(pv);
            let still_open = b.dag.and(active, np);
            let keep = b.dag.and(still_open, nq);
            b.set_next(var, keep);
            // matches the runtime monitor: q arriving while the
            // obligation is open (even together with p) is a failure
            Ok(b.dag.and(active, qv))
        }
        Property::SuffixImpl { pre, post, overlap } => {
            let (accepted, _) = b.sere_monitor(pre, trigger, &format!("{tag}::pre2"))?;
            let t = if *overlap {
                accepted
            } else {
                let (var, cur) = b.register(format!("psl::{tag}::nonovl2"), false);
                b.set_next(var, accepted);
                cur
            };
            synth_fail_consequent(b, post, t, tag)
        }
        Property::Never(s) => {
            let (accepted, _) = b.sere_monitor(s, trigger, &format!("{tag}::never2"))?;
            Ok(accepted)
        }
        Property::Always(body) => {
            // `always` inside a consequent: once triggered, applies forever
            let (var, latched) = b.register(format!("psl::{tag}::latch"), false);
            let on = b.dag.or(latched, trigger);
            b.set_next(var, on);
            synth_fail_consequent(b, body, on, tag)
        }
        Property::Eventually(_) | Property::SereStrong(_) => Err(UnsupportedPropertyError {
            construct: "a strong (liveness) operator".to_string(),
        }),
    }
}
