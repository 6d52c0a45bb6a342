//! Glushkov (position) automata for SEREs.
//!
//! Every SERE compiles to an ε-free nondeterministic automaton whose
//! states are *positions*: each position carries the Boolean guard that
//! must hold in the cycle the position is visited. A trace segment
//! matches iff there is a path `p1 … pn` with `p1` initial, `p(i+1)` in
//! `follow(pi)`, `pn` final, and the i-th cycle satisfying `guard(pi)`.
//!
//! This construction handles all SERE operators without ε-elimination,
//! including fusion (`:`) and length-matching conjunction (`&&`). It is
//! the only one in the workspace: `la1-smc` reads the positions through
//! [`Nfa`]'s accessors to lay out its monitor circuits.

use crate::ast::{BoolExpr, Sere};

/// The set of automaton positions a SERE obligation occupies.
///
/// Sets whose positions all lie below 64 (every property in the LA-1
/// suite) are one inline word, so stepping them never allocates; larger
/// sets list their positions in ascending order. The form depends only
/// on the members, so equal sets compare and hash equal, and a set read
/// from a file costs memory in proportion to its length, not to its
/// largest position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Positions(Set);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Set {
    Small(u64),
    Large(Vec<usize>),
}

impl Default for Positions {
    fn default() -> Self {
        Positions(Set::Small(0))
    }
}

impl Positions {
    fn contains(&self, p: usize) -> bool {
        match &self.0 {
            Set::Small(w) => p < 64 && w >> p & 1 == 1,
            Set::Large(list) => list.binary_search(&p).is_ok(),
        }
    }

    fn insert(&mut self, p: usize) {
        match &mut self.0 {
            Set::Small(w) if p < 64 => *w |= 1 << p,
            Set::Small(w) => {
                // every member of `w` lies below `p`: the list stays sorted
                let mut list: Vec<usize> = (0..64).filter(|b| *w >> b & 1 == 1).collect();
                list.push(p);
                self.0 = Set::Large(list);
            }
            Set::Large(list) => {
                if let Err(at) = list.binary_search(&p) {
                    list.insert(at, p);
                }
            }
        }
    }

    /// Whether no position is occupied.
    pub fn is_empty(&self) -> bool {
        self.0 == Set::Small(0)
    }

    /// The occupied positions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (mut word, list): (u64, &[usize]) = match &self.0 {
            Set::Small(w) => (*w, &[]),
            Set::Large(list) => (0, list),
        };
        // one step per member: take the lowest set bit, then clear it
        let small = std::iter::from_fn(move || {
            let p = word.trailing_zeros() as usize;
            word &= word.wrapping_sub(1);
            (p < 64).then_some(p)
        });
        small.chain(list.iter().copied())
    }
}

impl FromIterator<usize> for Positions {
    fn from_iter<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        let mut list: Vec<usize> = positions.into_iter().collect();
        list.sort_unstable();
        list.dedup();
        match list.last() {
            Some(&max) if max >= 64 => Positions(Set::Large(list)),
            _ => Positions(Set::Small(list.iter().fold(0, |w, p| w | 1 << p))),
        }
    }
}

/// An ε-free position automaton compiled from a [`Sere`].
///
/// ```
/// use la1_psl::{parse_sere, Nfa};
/// let sere = parse_sere("{req ; busy[*] ; done}").unwrap();
/// let nfa = Nfa::from_sere(&sere);
/// assert!(nfa.accepts(&[
///     vec![("req", true)],
///     vec![("busy", true)],
///     vec![("done", true)],
/// ]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Nfa {
    /// Guard of each position.
    guards: Vec<BoolExpr>,
    /// Positions a match may start in.
    first: Vec<usize>,
    /// Successor positions of each position.
    follow: Vec<Vec<usize>>,
    /// Whether each position may end a match.
    last: Vec<bool>,
    /// Whether the SERE matches the empty segment.
    nullable: bool,
}

/// Intermediate fragment during Glushkov construction.
struct Frag {
    first: Vec<usize>,
    last: Vec<usize>,
    nullable: bool,
}

struct Builder {
    guards: Vec<BoolExpr>,
    follow: Vec<Vec<usize>>,
}

impl Builder {
    fn position(&mut self, guard: BoolExpr) -> usize {
        self.guards.push(guard);
        self.follow.push(Vec::new());
        self.guards.len() - 1
    }

    fn link(&mut self, from: &[usize], to: &[usize]) {
        for &f in from {
            for &t in to {
                if !self.follow[f].contains(&t) {
                    self.follow[f].push(t);
                }
            }
        }
    }

    fn build(&mut self, sere: &Sere) -> Frag {
        match sere {
            Sere::Bool(b) => {
                let p = self.position(b.clone());
                Frag {
                    first: vec![p],
                    last: vec![p],
                    nullable: false,
                }
            }
            Sere::Concat(a, b) => {
                let fa = self.build(a);
                let fb = self.build(b);
                self.link(&fa.last, &fb.first);
                let mut first = fa.first;
                if fa.nullable {
                    first.extend_from_slice(&fb.first);
                }
                let mut last = fb.last;
                if fb.nullable {
                    last.extend_from_slice(&fa.last);
                }
                Frag {
                    first,
                    last,
                    nullable: fa.nullable && fb.nullable,
                }
            }
            Sere::Or(a, b) => {
                let fa = self.build(a);
                let fb = self.build(b);
                Frag {
                    first: [fa.first, fb.first].concat(),
                    last: [fa.last, fb.last].concat(),
                    nullable: fa.nullable || fb.nullable,
                }
            }
            Sere::Fusion(a, b) => {
                // Fused positions carry the conjunction of a last-of-a
                // guard and a first-of-b guard; empty matches of either
                // side contribute nothing (PSL fusion needs the overlap
                // cycle to exist).
                let fa = self.build(a);
                let fb = self.build(b);
                let mut bridge = Vec::new(); // (a-last, b-first, fused position)
                for &l in &fa.last {
                    for &f in &fb.first {
                        let g = BoolExpr::And(
                            Box::new(self.guards[l].clone()),
                            Box::new(self.guards[f].clone()),
                        );
                        let p = self.position(g);
                        // the fused position inherits b-side successors
                        self.follow[p] = self.follow[f].clone();
                        bridge.push((l, f, p));
                    }
                }
                // predecessors of an a-last position now also reach its
                // fused counterparts
                let snapshot: Vec<Vec<usize>> = self.follow.clone();
                for &(l, _, p) in &bridge {
                    for (src, succs) in snapshot.iter().enumerate() {
                        if succs.contains(&l) && !self.follow[src].contains(&p) {
                            self.follow[src].push(p);
                        }
                    }
                }
                let mut first = fa.first.clone();
                let mut last: Vec<usize> = fb.last.clone();
                for &(l, f, p) in &bridge {
                    if fa.first.contains(&l) {
                        first.push(p); // single-cycle a-match starts fused
                    }
                    if fb.last.contains(&f) {
                        last.push(p); // single-cycle b-match ends fused
                    }
                }
                Frag {
                    first,
                    last,
                    nullable: false,
                }
            }
            Sere::And(a, b) => {
                // Length-matching conjunction: product of positions.
                let fa_nfa = Nfa::from_sere(a);
                let fb_nfa = Nfa::from_sere(b);
                let na = fa_nfa.guards.len();
                let nb = fb_nfa.guards.len();
                let mut index = vec![usize::MAX; na * nb];
                let mut first = Vec::new();
                let mut last = Vec::new();
                for pa in 0..na {
                    for pb in 0..nb {
                        let g = BoolExpr::And(
                            Box::new(fa_nfa.guards[pa].clone()),
                            Box::new(fb_nfa.guards[pb].clone()),
                        );
                        let p = self.position(g);
                        index[pa * nb + pb] = p;
                        if fa_nfa.last[pa] && fb_nfa.last[pb] {
                            last.push(p);
                        }
                    }
                }
                for &pa in &fa_nfa.first {
                    for &pb in &fb_nfa.first {
                        first.push(index[pa * nb + pb]);
                    }
                }
                for pa in 0..na {
                    for pb in 0..nb {
                        let src = index[pa * nb + pb];
                        for &qa in &fa_nfa.follow[pa] {
                            for &qb in &fb_nfa.follow[pb] {
                                let dst = index[qa * nb + qb];
                                if !self.follow[src].contains(&dst) {
                                    self.follow[src].push(dst);
                                }
                            }
                        }
                    }
                }
                Frag {
                    first,
                    last,
                    nullable: fa_nfa.nullable && fb_nfa.nullable,
                }
            }
            Sere::Repeat { sere, min, max } => {
                // Chain `min` mandatory copies; further copies (up to `max`,
                // or a looping star copy when unbounded) are optional. The
                // chaining below tracks, after each copy:
                //   tails            — positions from which the next copy
                //                      may start,
                //   prefix_nullable  — whether all copies so far can be
                //                      skipped (so a later copy's firsts
                //                      are also overall firsts),
                //   last             — positions where ≥ `min` copies have
                //                      completed.
                debug_assert!(max.is_none_or(|m| *min <= m), "parser rejects min > max");
                let total = max.unwrap_or(min + 1).max(1); // copies to lay out
                let mut tails: Vec<usize> = Vec::new();
                let mut first: Vec<usize> = Vec::new();
                let mut last: Vec<usize> = Vec::new();
                let mut prefix_nullable = true;
                let mut inner_nullable = false;
                if max == &Some(0) {
                    return Frag {
                        first,
                        last,
                        nullable: true,
                    };
                }
                for i in 0..total {
                    let c = self.build(sere);
                    inner_nullable = c.nullable;
                    self.link(&tails, &c.first);
                    if prefix_nullable {
                        first.extend_from_slice(&c.first);
                    }
                    if i + 1 >= *min {
                        last.extend_from_slice(&c.last);
                    }
                    let copy_optional = i >= *min || c.nullable;
                    if copy_optional {
                        tails.extend_from_slice(&c.last);
                    } else {
                        tails = c.last.clone();
                    }
                    if max.is_none() && i + 1 == total {
                        // star copy: loop back on itself
                        self.link(&c.last, &c.first);
                    }
                    prefix_nullable = prefix_nullable && copy_optional;
                }
                Frag {
                    first,
                    last,
                    nullable: *min == 0 || inner_nullable,
                }
            }
        }
    }
}

impl Nfa {
    /// Compiles a SERE into its position automaton.
    pub fn from_sere(sere: &Sere) -> Self {
        let mut b = Builder {
            guards: Vec::new(),
            follow: Vec::new(),
        };
        let frag = b.build(sere);
        let n = b.guards.len();
        let mut last = vec![false; n];
        for &l in &frag.last {
            last[l] = true;
        }
        let mut first = frag.first;
        first.sort_unstable();
        first.dedup();
        Nfa {
            guards: b.guards,
            first,
            follow: b.follow,
            last,
            nullable: frag.nullable,
        }
    }

    /// Number of positions (automaton states).
    pub fn num_positions(&self) -> usize {
        self.guards.len()
    }

    /// Whether the SERE matches the empty trace segment.
    pub fn nullable(&self) -> bool {
        self.nullable
    }

    /// Guard of position `p`: the Boolean that must hold in the cycle
    /// the position is visited.
    pub fn guard(&self, p: usize) -> &BoolExpr {
        &self.guards[p]
    }

    /// Positions a match may start in, ascending.
    pub fn first(&self) -> &[usize] {
        &self.first
    }

    /// Positions that may be visited the cycle after position `p`.
    pub fn follow(&self, p: usize) -> &[usize] {
        &self.follow[p]
    }

    /// Whether a match may end in position `p`.
    pub fn is_last(&self, p: usize) -> bool {
        self.last[p]
    }

    /// One step of the active-set simulation.
    ///
    /// `active` is the set of positions occupied *after the previous
    /// cycle*; if `seed` is true a fresh match attempt also starts this
    /// cycle. `guard(p)` says whether position `p`'s guard holds this
    /// cycle. Returns
    /// `(next_active, accepted_this_cycle)`.
    pub(crate) fn step(
        &self,
        active: &Positions,
        seed: bool,
        mut guard: impl FnMut(usize) -> bool,
    ) -> (Positions, bool) {
        let mut next = Positions::default();
        let mut accepted = false;
        let mut enter = |p: usize, next: &mut Positions| {
            if !next.contains(p) && guard(p) {
                next.insert(p);
                accepted |= self.last[p];
            }
        };
        if seed {
            for &p in &self.first {
                enter(p, &mut next);
            }
        }
        for q in active.iter() {
            for &p in &self.follow[q] {
                enter(p, &mut next);
            }
        }
        (next, accepted)
    }

    /// Whether the automaton matches the *entire* given trace, where each
    /// cycle is a list of `(signal, value)` pairs.
    pub fn accepts(&self, trace: &[Vec<(&str, bool)>]) -> bool {
        if trace.is_empty() {
            return self.nullable;
        }
        let mut active = Positions::default();
        let mut accepted_at_end = false;
        for (i, cycle) in trace.iter().enumerate() {
            let (next, acc) = self.step(&active, i == 0, |p| self.guards[p].eval(cycle.as_slice()));
            accepted_at_end = acc && i == trace.len() - 1;
            active = next;
            if active.is_empty() && i < trace.len() - 1 {
                return false;
            }
        }
        accepted_at_end
    }
}
