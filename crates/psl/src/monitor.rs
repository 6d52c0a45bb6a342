//! Runtime property monitors — the "assertions compiled to C#" of the
//! reproduced paper, here compiled to Rust obligation machines.
//!
//! [`Monitor::new`] compiles its property once into tables of its
//! subterms in deterministic preorder — properties, SEREs and Booleans —
//! interns each signal the property reads as a variable index, and
//! builds one Glushkov automaton for each SERE an obligation can hold,
//! its position guards resolved to Boolean-table indices. A live
//! [`Obligation`] is plain data: indices into those tables, an
//! automaton's active [`Positions`], and flags; clones of a monitor
//! share the tables. [`Monitor::bind`] maps each variable to a slot of
//! the host's signal vector once, so a [`BoundMonitor`] step reads
//! slots and never looks a name up. Each simulation cycle the host calls
//! [`BoundMonitor::step`] with the cycle's signal values, or
//! [`Monitor::step`] with a by-name valuation; obligations
//! advance, discharge, spawn sub-obligations (e.g. the consequent of a
//! suffix implication) or fail. After the last cycle,
//! [`Monitor::finalize`] resolves the remaining obligations using PSL's
//! weak/strong distinction. A snapshot ([`MonitorSnap`]) is the
//! obligation list itself.

use crate::ast::{BoolExpr, Property, Sere};
use crate::nfa::{Nfa, Positions};
use crate::Valuation;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Overall verdict of a monitored property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Obligations are still open; no failure so far.
    Pending,
    /// The property holds (all obligations discharged, or finalized weak).
    Holds,
    /// The property failed.
    Fails,
}

/// The paper's two-variable property encoding.
///
/// * *correct*: `status && value`
/// * *incorrect*: `status && !value` — this is the explorer's stop filter
/// * *under verification*: `!status`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PslState {
    /// `P_status` — `true` once the verdict is determined.
    pub status: bool,
    /// `P_value` — the verdict (meaningful when `status` is `true`;
    /// `true` while still undetermined, i.e. "not yet violated").
    pub value: bool,
}

impl PslState {
    /// The stop-filter condition of the paper: determined *and* false.
    pub fn is_violation(self) -> bool {
        self.status && !self.value
    }
}

impl From<Verdict> for PslState {
    fn from(v: Verdict) -> Self {
        match v {
            Verdict::Pending => PslState {
                status: false,
                value: true,
            },
            Verdict::Holds => PslState {
                status: true,
                value: true,
            },
            Verdict::Fails => PslState {
                status: true,
                value: false,
            },
        }
    }
}

/// A live obligation of a [`Monitor`].
///
/// `body`, `post` are indices into the monitor's property table, `sere`
/// and `pre` into its SERE table, `p` and `q` into its Boolean table.
/// Each names the first preorder subterm structurally equal to the one
/// the obligation came from, so equal obligations are equal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Obligation {
    /// Spawns its body at every cycle, forever.
    Always { body: u32 },
    /// The SERE must never reach an accepting position.
    Never { sere: u32, active: Positions },
    /// The SERE must accept at least once (strong).
    Eventually { sere: u32, active: Positions },
    /// The SERE must match a prefix (seeded only at spawn).
    SereStrong {
        sere: u32,
        active: Positions,
        fresh: bool,
    },
    /// Defers a property by `remaining + 1` cycles.
    Defer {
        remaining: u32,
        strong: bool,
        body: u32,
    },
    /// `p until q`.
    Until { p: u32, q: u32, strong: bool },
    /// `p before q`.
    Before { p: u32, q: u32, strong: bool },
    /// `{pre} |->/|=> post`; `persistent` when hoisted out of `always`.
    SuffixImpl {
        pre: u32,
        active: Positions,
        post: u32,
        overlap: bool,
        persistent: bool,
        fresh: bool,
    },
}

/// What an obligation reports for one cycle.
enum ObStep {
    /// Keep the obligation for the next cycle.
    Continue(Obligation),
    /// Discharged successfully.
    Done,
    /// Violated at this cycle.
    Failed,
}

/// A property subterm with its children replaced by table indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    Bool(u32),
    Always(u32),
    Never(u32),
    Eventually(u32),
    SereStrong(u32),
    Next { n: u32, strong: bool, body: u32 },
    Until { p: u32, q: u32, strong: bool },
    Before { p: u32, q: u32, strong: bool },
    Implies(u32, u32),
    SuffixImpl { pre: u32, post: u32, overlap: bool },
    And(u32, u32),
}

/// A SERE subterm with its operands replaced by table indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SereNode {
    Bool(u32),
    Concat(u32, u32),
    Fusion(u32, u32),
    Or(u32, u32),
    And(u32, u32),
    Repeat {
        sere: u32,
        min: u32,
        max: Option<u32>,
    },
}

/// A Boolean subterm with its operands replaced by table indices and
/// its signal by a variable index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BoolNode {
    Const(bool),
    Var(u32),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Implies(u32, u32),
    Iff(u32, u32),
}

/// Marks a table entry whose operands are still being listed; no real
/// index reaches it, so the entry equals no finished one.
const PENDING: u32 = u32::MAX;

/// The index of the first entry of `table` equal to entry `at`. Links
/// inside entries are themselves such indices, so equal entries are
/// structurally equal subterms.
fn first_equal<T: PartialEq>(table: &[T], at: usize) -> u32 {
    let i = table.iter().position(|x| *x == table[at]);
    i.expect("an entry equals itself") as u32
}

/// How one step reads the property's variables (indices into
/// [`Tables::vars`]): from bound slots, or by name.
trait Vars {
    fn get(&mut self, tables: &Tables, var: u32) -> bool;
}

/// A bound step's values: variable `v` is `values[slots[v]]`.
struct Slots<'a> {
    slots: &'a [u32],
    values: &'a [bool],
}

impl Vars for Slots<'_> {
    fn get(&mut self, _: &Tables, var: u32) -> bool {
        self.values[self.slots[var as usize] as usize]
    }
}

/// A by-name step's values: each variable is looked up in `env` the
/// first time the step reads it and remembered, as bit `var` of `read`
/// and `value`, for the rest of the step (beyond 64 variables a read
/// looks the name up again).
struct ByName<'a, V: ?Sized> {
    env: &'a V,
    read: u64,
    value: u64,
}

impl<V: Valuation + ?Sized> Vars for ByName<'_, V> {
    fn get(&mut self, tables: &Tables, var: u32) -> bool {
        let lookup = || self.env.value(&tables.vars[var as usize]);
        let Some(bit) = 1u64.checked_shl(var) else {
            return lookup();
        };
        if self.read & bit == 0 {
            let v = lookup();
            self.read |= bit;
            self.value |= u64::from(v) << var;
        }
        self.value & bit != 0
    }
}

/// A SERE's automaton, each position's guard given as the Boolean-table
/// entries whose conjunction it is (position `p`'s are
/// `conjuncts[offsets[p]..offsets[p + 1]]`).
#[derive(Debug)]
struct Automaton {
    nfa: Nfa,
    offsets: Vec<u32>,
    conjuncts: Vec<u32>,
}

impl Automaton {
    /// One step (see [`Nfa::step`]), each guard read through `tables`.
    fn step<R: Vars>(
        &self,
        tables: &Tables,
        active: &Positions,
        seed: bool,
        r: &mut R,
    ) -> (Positions, bool) {
        self.nfa.step(active, seed, |p| {
            let (lo, hi) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            self.conjuncts[lo..hi].iter().all(|&b| tables.eval(b, r))
        })
    }
}

/// A property compiled once, shared by a monitor and its clones: its
/// property, SERE and Boolean subterms, each table in deterministic
/// preorder, the signals it reads, and the automaton of each SERE,
/// built when an obligation first steps it.
#[derive(Debug)]
struct Tables {
    props: Vec<Node>,
    seres: Vec<SereNode>,
    bools: Vec<BoolNode>,
    /// every signal the property reads, once, in first-read order
    vars: Vec<String>,
    autos: Vec<OnceLock<Automaton>>,
}

impl Tables {
    fn compile(root: &Property) -> Tables {
        let mut t = Tables {
            props: Vec::new(),
            seres: Vec::new(),
            bools: Vec::new(),
            vars: Vec::new(),
            autos: Vec::new(),
        };
        t.prop(root);
        t.autos = (0..t.seres.len()).map(|_| OnceLock::new()).collect();
        t
    }

    /// Lists `p` and its subterms; returns `p`'s index.
    fn prop(&mut self, p: &Property) -> u32 {
        let at = self.props.len();
        self.props.push(Node::Bool(PENDING));
        let node = match p {
            Property::Bool(b) => Node::Bool(self.boolean(b)),
            Property::Always(x) => Node::Always(self.prop(x)),
            Property::Never(s) => Node::Never(self.sere(s)),
            Property::Eventually(s) => Node::Eventually(self.sere(s)),
            Property::SereStrong(s) => Node::SereStrong(self.sere(s)),
            Property::Next { n, strong, body } => Node::Next {
                n: *n,
                strong: *strong,
                body: self.prop(body),
            },
            Property::Until { p, q, strong } => Node::Until {
                p: self.boolean(p),
                q: self.boolean(q),
                strong: *strong,
            },
            Property::Before { p, q, strong } => Node::Before {
                p: self.boolean(p),
                q: self.boolean(q),
                strong: *strong,
            },
            Property::Implies(b, x) => Node::Implies(self.boolean(b), self.prop(x)),
            Property::SuffixImpl { pre, post, overlap } => Node::SuffixImpl {
                pre: self.sere(pre),
                post: self.prop(post),
                overlap: *overlap,
            },
            Property::And(a, b) => Node::And(self.prop(a), self.prop(b)),
        };
        self.props[at] = node;
        first_equal(&self.props, at)
    }

    /// Lists `s` and its subterms; returns `s`'s index.
    fn sere(&mut self, s: &Sere) -> u32 {
        let at = self.seres.len();
        self.seres.push(SereNode::Bool(PENDING));
        let node = match s {
            Sere::Bool(b) => SereNode::Bool(self.boolean(b)),
            Sere::Concat(a, b) => SereNode::Concat(self.sere(a), self.sere(b)),
            Sere::Fusion(a, b) => SereNode::Fusion(self.sere(a), self.sere(b)),
            Sere::Or(a, b) => SereNode::Or(self.sere(a), self.sere(b)),
            Sere::And(a, b) => SereNode::And(self.sere(a), self.sere(b)),
            Sere::Repeat { sere, min, max } => SereNode::Repeat {
                sere: self.sere(sere),
                min: *min,
                max: *max,
            },
        };
        self.seres[at] = node;
        first_equal(&self.seres, at)
    }

    /// Lists `b` and its subterms; returns `b`'s index.
    fn boolean(&mut self, b: &BoolExpr) -> u32 {
        let at = self.bools.len();
        self.bools.push(BoolNode::Not(PENDING));
        let node = match b {
            BoolExpr::Const(c) => BoolNode::Const(*c),
            BoolExpr::Var(name) => BoolNode::Var(self.var(name)),
            BoolExpr::Not(a) => BoolNode::Not(self.boolean(a)),
            BoolExpr::And(a, b) => BoolNode::And(self.boolean(a), self.boolean(b)),
            BoolExpr::Or(a, b) => BoolNode::Or(self.boolean(a), self.boolean(b)),
            BoolExpr::Xor(a, b) => BoolNode::Xor(self.boolean(a), self.boolean(b)),
            BoolExpr::Implies(a, b) => BoolNode::Implies(self.boolean(a), self.boolean(b)),
            BoolExpr::Iff(a, b) => BoolNode::Iff(self.boolean(a), self.boolean(b)),
        };
        self.bools[at] = node;
        first_equal(&self.bools, at)
    }

    /// The variable index of signal `name`, interned on first use.
    fn var(&mut self, name: &str) -> u32 {
        match self.vars.iter().position(|v| v == name) {
            Some(i) => i as u32,
            None => {
                self.vars.push(name.to_string());
                self.vars.len() as u32 - 1
            }
        }
    }

    fn eval<R: Vars>(&self, b: u32, r: &mut R) -> bool {
        match self.bools[b as usize] {
            BoolNode::Const(c) => c,
            BoolNode::Var(v) => r.get(self, v),
            BoolNode::Not(a) => !self.eval(a, r),
            BoolNode::And(a, b) => self.eval(a, r) && self.eval(b, r),
            BoolNode::Or(a, b) => self.eval(a, r) || self.eval(b, r),
            BoolNode::Xor(a, b) => self.eval(a, r) ^ self.eval(b, r),
            BoolNode::Implies(a, b) => !self.eval(a, r) || self.eval(b, r),
            BoolNode::Iff(a, b) => self.eval(a, r) == self.eval(b, r),
        }
    }

    /// Boolean `b` as an expression: an automaton guard.
    fn bool_expr(&self, b: u32) -> BoolExpr {
        let e = |x: &u32| Box::new(self.bool_expr(*x));
        match &self.bools[b as usize] {
            BoolNode::Const(c) => BoolExpr::Const(*c),
            BoolNode::Var(v) => BoolExpr::Var(self.vars[*v as usize].clone()),
            BoolNode::Not(a) => BoolExpr::Not(e(a)),
            BoolNode::And(a, b) => BoolExpr::And(e(a), e(b)),
            BoolNode::Or(a, b) => BoolExpr::Or(e(a), e(b)),
            BoolNode::Xor(a, b) => BoolExpr::Xor(e(a), e(b)),
            BoolNode::Implies(a, b) => BoolExpr::Implies(e(a), e(b)),
            BoolNode::Iff(a, b) => BoolExpr::Iff(e(a), e(b)),
        }
    }

    /// SERE `s` as an expression, to build its automaton from.
    fn sere_expr(&self, s: u32) -> Sere {
        let e = |x: u32| Box::new(self.sere_expr(x));
        match self.seres[s as usize] {
            SereNode::Bool(b) => Sere::Bool(self.bool_expr(b)),
            SereNode::Concat(a, b) => Sere::Concat(e(a), e(b)),
            SereNode::Fusion(a, b) => Sere::Fusion(e(a), e(b)),
            SereNode::Or(a, b) => Sere::Or(e(a), e(b)),
            SereNode::And(a, b) => Sere::And(e(a), e(b)),
            SereNode::Repeat { sere, min, max } => Sere::Repeat {
                sere: e(sere),
                min,
                max,
            },
        }
    }

    /// Whether Boolean `b` is the expression `e`.
    fn is(&self, b: u32, e: &BoolExpr) -> bool {
        match (self.bools[b as usize], e) {
            (BoolNode::Const(c), BoolExpr::Const(d)) => c == *d,
            (BoolNode::Var(v), BoolExpr::Var(name)) => self.vars[v as usize] == *name,
            (BoolNode::Not(a), BoolExpr::Not(x)) => self.is(a, x),
            (BoolNode::And(a, b), BoolExpr::And(x, y))
            | (BoolNode::Or(a, b), BoolExpr::Or(x, y))
            | (BoolNode::Xor(a, b), BoolExpr::Xor(x, y))
            | (BoolNode::Implies(a, b), BoolExpr::Implies(x, y))
            | (BoolNode::Iff(a, b), BoolExpr::Iff(x, y)) => self.is(a, x) && self.is(b, y),
            _ => false,
        }
    }

    /// Pushes the Boolean-table entries whose conjunction is the guard
    /// `e`. A guard is a SERE's Boolean or, for fusion and length-matching
    /// `&&`, a conjunction of guards, so each non-`&&` part is a listed
    /// subterm.
    fn conjuncts(&self, e: &BoolExpr, out: &mut Vec<u32>) {
        if let BoolExpr::And(a, b) = e {
            self.conjuncts(a, out);
            self.conjuncts(b, out);
            return;
        }
        let b = (0..self.bools.len() as u32).find(|&b| self.is(b, e));
        out.push(b.expect("every guard conjunct is a listed Boolean subterm"));
    }

    fn auto(&self, s: u32) -> &Automaton {
        self.autos[s as usize].get_or_init(|| {
            let nfa = Nfa::from_sere(&self.sere_expr(s));
            let mut offsets = vec![0];
            let mut conjuncts = Vec::new();
            for p in 0..nfa.num_positions() {
                self.conjuncts(nfa.guard(p), &mut conjuncts);
                offsets.push(conjuncts.len() as u32);
            }
            Automaton {
                nfa,
                offsets,
                conjuncts,
            }
        })
    }

    /// Steps SERE `sere`, seeded every cycle: the next active set, or
    /// `None` once the SERE has matched.
    fn seeded_step<R: Vars>(&self, sere: u32, active: &Positions, r: &mut R) -> Option<Positions> {
        let a = self.auto(sere);
        let (next, accepted) = a.step(self, active, true, r);
        (!accepted && !a.nfa.nullable()).then_some(next)
    }

    /// The obligation that starts checking property `i`.
    fn instantiate(&self, i: u32) -> Obligation {
        let never = |sere: u32| Obligation::Never {
            sere,
            active: Positions::default(),
        };
        match self.props[i as usize] {
            // These are expanded lazily by `step_ob` via `spawn_now`;
            // wrap them in a zero-delay defer so that they are evaluated
            // in the cycle the instantiation becomes active.
            Node::Bool(_) | Node::Implies(..) | Node::Next { .. } | Node::And(..) => {
                Obligation::Defer {
                    remaining: 0,
                    strong: false,
                    body: i,
                }
            }
            Node::Always(body) => match self.props[body as usize] {
                // `always` over an automaton-backed body folds into a
                // single persistent obligation re-seeded every cycle.
                Node::Never(sere) => never(sere),
                Node::SuffixImpl { pre, post, overlap } => Obligation::SuffixImpl {
                    pre,
                    active: Positions::default(),
                    post,
                    overlap,
                    persistent: true,
                    fresh: true,
                },
                _ => Obligation::Always { body },
            },
            Node::Never(sere) => never(sere),
            Node::Eventually(sere) => Obligation::Eventually {
                sere,
                active: Positions::default(),
            },
            Node::SereStrong(sere) => Obligation::SereStrong {
                sere,
                active: Positions::default(),
                fresh: true,
            },
            Node::Until { p, q, strong } => Obligation::Until { p, q, strong },
            Node::Before { p, q, strong } => Obligation::Before { p, q, strong },
            Node::SuffixImpl { pre, post, overlap } => Obligation::SuffixImpl {
                pre,
                active: Positions::default(),
                post,
                overlap,
                persistent: false,
                fresh: true,
            },
        }
    }

    /// Expands property `i` *within* the current cycle (used for bodies
    /// whose evaluation starts now).
    fn spawn_now<R: Vars>(
        &self,
        i: u32,
        r: &mut R,
        worklist: &mut Vec<Obligation>,
    ) -> Result<(), ()> {
        match self.props[i as usize] {
            Node::Bool(b) => self.eval(b, r).then_some(()).ok_or(()),
            Node::Implies(b, p) if self.eval(b, r) => self.spawn_now(p, r, worklist),
            Node::Implies(..) => Ok(()),
            Node::Next { n, strong, body } => {
                debug_assert!(n >= 1, "parser guarantees next[n] with n >= 1");
                worklist.push(Obligation::Defer {
                    remaining: n,
                    strong,
                    body,
                });
                Ok(())
            }
            Node::And(a, b) => {
                self.spawn_now(a, r, worklist)?;
                self.spawn_now(b, r, worklist)
            }
            // Automaton-backed obligations created "now" must consume the
            // current cycle immediately; push them on the worklist.
            _ => {
                worklist.push(self.instantiate(i));
                Ok(())
            }
        }
    }

    fn step_ob<R: Vars>(
        &self,
        ob: Obligation,
        r: &mut R,
        worklist: &mut Vec<Obligation>,
    ) -> ObStep {
        match ob {
            Obligation::Always { body } => {
                if self.spawn_now(body, r, worklist).is_err() {
                    return ObStep::Failed;
                }
                ObStep::Continue(Obligation::Always { body })
            }
            Obligation::Never { sere, active } => match self.seeded_step(sere, &active, r) {
                Some(active) => ObStep::Continue(Obligation::Never { sere, active }),
                None => ObStep::Failed,
            },
            Obligation::Eventually { sere, active } => match self.seeded_step(sere, &active, r) {
                Some(active) => ObStep::Continue(Obligation::Eventually { sere, active }),
                None => ObStep::Done,
            },
            Obligation::SereStrong {
                sere,
                active,
                fresh,
            } => {
                let a = self.auto(sere);
                if fresh && a.nfa.nullable() {
                    return ObStep::Done;
                }
                let (next_active, accepted) = a.step(self, &active, fresh, r);
                if accepted {
                    ObStep::Done
                } else if next_active.is_empty() {
                    ObStep::Failed
                } else {
                    ObStep::Continue(Obligation::SereStrong {
                        sere,
                        active: next_active,
                        fresh: false,
                    })
                }
            }
            Obligation::Defer {
                remaining: 0, body, ..
            } => match self.spawn_now(body, r, worklist) {
                Ok(()) => ObStep::Done,
                Err(()) => ObStep::Failed,
            },
            Obligation::Defer {
                remaining,
                strong,
                body,
            } => ObStep::Continue(Obligation::Defer {
                remaining: remaining - 1,
                strong,
                body,
            }),
            Obligation::Until { p, q, strong } => {
                if self.eval(q, r) {
                    ObStep::Done
                } else if self.eval(p, r) {
                    ObStep::Continue(Obligation::Until { p, q, strong })
                } else {
                    ObStep::Failed
                }
            }
            Obligation::Before { p, q, strong } => {
                let pv = self.eval(p, r);
                let qv = self.eval(q, r);
                if pv && !qv {
                    ObStep::Done
                } else if qv {
                    ObStep::Failed
                } else {
                    ObStep::Continue(Obligation::Before { p, q, strong })
                }
            }
            Obligation::SuffixImpl {
                pre,
                active,
                post,
                overlap,
                persistent,
                fresh,
            } => {
                let a = self.auto(pre);
                let seed = persistent || fresh;
                let (next_active, accepted) = a.step(self, &active, seed, r);
                // a match ends now, or an empty match starts now
                if accepted || (seed && a.nfa.nullable()) {
                    if !overlap {
                        worklist.push(Obligation::Defer {
                            remaining: 1,
                            strong: false,
                            body: post,
                        });
                    } else if self.spawn_now(post, r, worklist).is_err() {
                        return ObStep::Failed;
                    }
                }
                if !persistent && next_active.is_empty() {
                    return ObStep::Done; // no further match possible: vacuous
                }
                ObStep::Continue(Obligation::SuffixImpl {
                    pre,
                    active: next_active,
                    post,
                    overlap,
                    persistent,
                    fresh: false,
                })
            }
        }
    }

    /// Checks one obligation of a restored snapshot against these
    /// tables: every index in range, every active position inside its
    /// automaton.
    fn admit(&self, ob: &Obligation) -> Result<(), String> {
        let in_range = |what: &str, i: u32, len: usize| {
            if (i as usize) < len {
                Ok(())
            } else {
                Err(format!("{what} index {i} out of range"))
            }
        };
        let prop = |i: u32| in_range("property", i, self.props.len());
        let boolean = |i: u32| in_range("boolean", i, self.bools.len());
        let sere = |i: u32, active: &Positions| {
            in_range("sere", i, self.autos.len())?;
            let n = self.auto(i).nfa.num_positions();
            match active.iter().find(|&p| p >= n) {
                Some(p) => Err(format!("active position {p} out of range (NFA has {n})")),
                None => Ok(()),
            }
        };
        match ob {
            Obligation::Always { body } | Obligation::Defer { body, .. } => prop(*body),
            Obligation::Never { sere: i, active }
            | Obligation::Eventually { sere: i, active }
            | Obligation::SereStrong {
                sere: i, active, ..
            } => sere(*i, active),
            Obligation::Until { p, q, .. } | Obligation::Before { p, q, .. } => {
                boolean(*p).and(boolean(*q))
            }
            Obligation::SuffixImpl {
                pre, active, post, ..
            } => sere(*pre, active).and(prop(*post)),
        }
    }
}

/// An executable monitor for one [`Property`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Monitor {
    tables: Arc<Tables>,
    active: Vec<Obligation>,
    /// recycled buffer for [`Monitor::step`]
    scratch: Vec<Obligation>,
    cycle: usize,
    failed_at: Option<usize>,
    /// True when every obligation discharged (possible for non-`always`
    /// properties).
    determined_holds: bool,
    /// True once the property has positively matched at least once —
    /// used for `cover` reporting.
    covered: bool,
}

impl Clone for Monitor {
    fn clone(&self) -> Self {
        Monitor {
            tables: Arc::clone(&self.tables),
            active: self.active.clone(),
            scratch: Vec::new(),
            cycle: self.cycle,
            failed_at: self.failed_at,
            determined_holds: self.determined_holds,
            covered: self.covered,
        }
    }

    /// Reuses the destination's obligation buffers. The ASM explorer
    /// clones the parent's monitors into a scratch vector for every
    /// successor; `Vec::clone_from` dispatches here element-wise, which
    /// keeps the hot loop free of per-successor vector allocations.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.tables, &source.tables) {
            self.tables = Arc::clone(&source.tables);
        }
        self.active.clone_from(&source.active);
        self.scratch.clear();
        self.cycle = source.cycle;
        self.failed_at = source.failed_at;
        self.determined_holds = source.determined_holds;
        self.covered = source.covered;
    }
}

impl Monitor {
    /// Creates a monitor whose obligations start at the first
    /// [`step`](Self::step) call.
    pub fn new(property: &Property) -> Self {
        let tables = Tables::compile(property);
        let active = vec![tables.instantiate(0)];
        Monitor {
            tables: Arc::new(tables),
            active,
            scratch: Vec::new(),
            cycle: 0,
            failed_at: None,
            determined_holds: false,
            covered: false,
        }
    }

    /// Binds this monitor to a fixed signal order: each signal the
    /// property reads is mapped once to its position in `signals`, and
    /// [`BoundMonitor::step`] reads those slots from a plain `&[bool]`
    /// (the SystemC-level ABV loop, where a lookup by name every cycle
    /// would be unfair to Table 3).
    ///
    /// # Errors
    ///
    /// [`BindError`] naming every signal the property reads that
    /// `signals` does not list: such a monitor could only ever read
    /// `false` there.
    pub fn bind(self, signals: &[&str]) -> Result<BoundMonitor, BindError> {
        let mut slots = Vec::with_capacity(self.tables.vars.len());
        let mut unbound = Vec::new();
        for var in &self.tables.vars {
            match signals.iter().position(|s| s == var) {
                Some(slot) => slots.push(slot as u32),
                None => unbound.push(var.clone()),
            }
        }
        if !unbound.is_empty() {
            return Err(BindError { unbound });
        }
        Ok(BoundMonitor {
            monitor: self,
            slots,
        })
    }

    /// Number of cycles consumed so far.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The cycle of the first violation, if any.
    pub fn failed_at(&self) -> Option<usize> {
        self.failed_at
    }

    /// Whether the property has positively matched at least once
    /// (meaningful for `cover`-style usage).
    pub fn covered(&self) -> bool {
        self.covered
    }

    /// Advances the monitor by one cycle and returns the paper's
    /// `P_status` / `P_value` pair after that cycle. Each signal the
    /// step needs is read from `env` by name at most once.
    pub fn step<V: Valuation + ?Sized>(&mut self, env: &V) -> PslState {
        self.step_with(&mut ByName {
            env,
            read: 0,
            value: 0,
        })
    }

    /// The one stepping path: advances every obligation one cycle,
    /// reading variables through `r`.
    fn step_with<R: Vars>(&mut self, r: &mut R) -> PslState {
        let mut worklist = std::mem::take(&mut self.active);
        // reuse the scratch vector: stepping must not allocate on the
        // steady-state path (it is the Table 3 hot loop)
        let mut next = std::mem::take(&mut self.scratch);
        next.clear();
        let mut failed = false;
        let mut discharged_any = false;
        while let Some(ob) = worklist.pop() {
            match self.tables.step_ob(ob, r, &mut worklist) {
                ObStep::Continue(ob) => next.push(ob),
                ObStep::Done => discharged_any = true,
                ObStep::Failed => failed = true,
            }
        }
        if failed && self.failed_at.is_none() {
            self.failed_at = Some(self.cycle);
        }
        if discharged_any {
            self.covered = true;
        }
        self.scratch = worklist;
        self.active = next;
        self.cycle += 1;
        if self.failed_at.is_none() && self.active.is_empty() {
            self.determined_holds = true;
        }
        self.state()
    }

    /// The current `P_status` / `P_value` pair without advancing.
    pub fn state(&self) -> PslState {
        PslState::from(self.verdict())
    }

    /// The current verdict: [`Verdict::Fails`] after any violation,
    /// [`Verdict::Holds`] once all obligations discharged, otherwise
    /// [`Verdict::Pending`].
    pub fn verdict(&self) -> Verdict {
        if self.failed_at.is_some() {
            Verdict::Fails
        } else if self.determined_holds {
            Verdict::Holds
        } else {
            Verdict::Pending
        }
    }

    /// A canonical 64-bit digest of the monitor's live obligation set.
    ///
    /// Two monitors for the same property with equal fingerprints behave
    /// identically on all future inputs (up to hash collision): the
    /// digest covers every field of every obligation, automaton indices
    /// included, and the obligations' order does not matter. The
    /// `la1-asm` explorer uses this to deduplicate model x monitor
    /// product states, which is how the paper keeps the explored FSM
    /// finite while properties are attached.
    pub fn fingerprint(&self) -> u64 {
        let mut digests: Vec<u64> = self
            .active
            .iter()
            .map(|ob| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                ob.hash(&mut h);
                h.finish()
            })
            .collect();
        digests.sort_unstable();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        digests.hash(&mut h);
        self.failed_at.is_some().hash(&mut h);
        self.determined_holds.hash(&mut h);
        h.finish()
    }

    /// Ends the trace: strong pending obligations fail, weak ones hold.
    pub fn finalize(&self) -> Verdict {
        if self.failed_at.is_some() {
            return Verdict::Fails;
        }
        for ob in &self.active {
            let fails = match ob {
                Obligation::Always { .. } | Obligation::Never { .. } => false,
                Obligation::Until { strong, .. }
                | Obligation::Before { strong, .. }
                | Obligation::Defer { strong, .. } => *strong,
                Obligation::Eventually { .. } | Obligation::SereStrong { .. } => true,
                Obligation::SuffixImpl { .. } => false, // weak: pending matches vacuous
            };
            if fails {
                return Verdict::Fails;
            }
        }
        Verdict::Holds
    }

    /// The monitor's live state as plain data.
    pub fn snapshot(&self) -> MonitorSnap {
        MonitorSnap {
            obs: self.active.clone(),
            cycle: self.cycle as u64,
            failed_at: self.failed_at.map(|c| c as u64),
            determined_holds: self.determined_holds,
            covered: self.covered,
        }
    }

    /// Replaces this monitor's live state with `snap`, a
    /// [`Monitor::snapshot`] of a monitor for the same property. Every
    /// index and active position is checked against this monitor's own
    /// tables; on error the live state is unchanged. A restored monitor
    /// behaves like the snapshotted one: same obligation order (the step
    /// worklist pops LIFO), same verdicts, same [`Monitor::fingerprint`].
    pub fn restore(&mut self, snap: &MonitorSnap) -> Result<(), String> {
        for ob in &snap.obs {
            self.tables.admit(ob)?;
        }
        self.active.clone_from(&snap.obs);
        self.scratch.clear();
        self.cycle = snap.cycle as usize;
        self.failed_at = snap.failed_at.map(|c| c as usize);
        self.determined_holds = snap.determined_holds;
        self.covered = snap.covered;
        Ok(())
    }
}

/// A plain-data snapshot of a [`Monitor`], valid against any monitor
/// for the same property. Serialization lives in the checkpoint layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnap {
    /// Live obligations in worklist order (order is semantic: the step
    /// worklist pops last-in-first-out).
    pub obs: Vec<Obligation>,
    /// Cycles consumed.
    pub cycle: u64,
    /// Cycle of the first violation, if any.
    pub failed_at: Option<u64>,
    /// Whether every obligation discharged.
    pub determined_holds: bool,
    /// Whether the property positively matched at least once.
    pub covered: bool,
}

/// Signals a property reads that a [`Monitor::bind`] signal order does
/// not list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The unlisted signals, in the order the property first reads them.
    pub unbound: Vec<String>,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unbound signals: {}", self.unbound.join(", "))
    }
}

impl std::error::Error for BindError {}

/// A monitor bound to a fixed signal ordering; the host supplies a plain
/// `&[bool]` each cycle.
///
/// ```
/// use la1_psl::{parse_property, Monitor, Verdict};
/// let p = parse_property("always (req -> next ack)").unwrap();
/// let mut m = Monitor::new(&p).bind(&["req", "ack"]).unwrap();
/// m.step(&[true, false]);
/// m.step(&[false, true]);
/// assert_eq!(m.finalize(), Verdict::Holds);
/// ```
#[derive(Debug, Clone)]
pub struct BoundMonitor {
    monitor: Monitor,
    /// the bound slot of each of the property's variables
    slots: Vec<u32>,
}

impl BoundMonitor {
    /// Advances one cycle with values in the bound signal order.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than a slot the property reads.
    pub fn step(&mut self, values: &[bool]) -> PslState {
        let slots = &self.slots;
        self.monitor.step_with(&mut Slots { slots, values })
    }

    /// See [`Monitor::finalize`].
    pub fn finalize(&self) -> Verdict {
        self.monitor.finalize()
    }

    /// See [`Monitor::verdict`].
    pub fn verdict(&self) -> Verdict {
        self.monitor.verdict()
    }

    /// See [`Monitor::failed_at`].
    pub fn failed_at(&self) -> Option<usize> {
        self.monitor.failed_at()
    }

    /// See [`Monitor::covered`].
    pub fn covered(&self) -> bool {
        self.monitor.covered()
    }

    /// See [`Monitor::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.monitor.fingerprint()
    }

    /// See [`Monitor::snapshot`].
    pub fn snapshot(&self) -> MonitorSnap {
        self.monitor.snapshot()
    }

    /// See [`Monitor::restore`]; the signal binding is kept.
    pub fn restore(&mut self, snap: &MonitorSnap) -> Result<(), String> {
        self.monitor.restore(snap)
    }
}
