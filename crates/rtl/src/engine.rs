//! The compiled RTL simulator: one engine over two value types.
//!
//! `new` compiles the netlist **once** (via the shared
//! [`Schedule`](crate::schedule::Schedule)) into a flat array of ops over
//! a preallocated value arena: slots `0..num_nets` hold the net values,
//! the remaining slots hold constants and expression temporaries. The
//! engine is generic over what one arena slot holds, and monomorphized,
//! so no dynamic dispatch enters the hot loop:
//!
//! * [`RtlSim`] = `Sim<LogicVec>` — one four-state vector per slot;
//! * [`BatchedRtlSim`] = `Sim<PackedVec>` — 64 independent stimulus
//!   lanes per slot (PPSFP). Each lane is bit-identical to an [`RtlSim`]
//!   fed that lane's inputs.
//!
//! Everything about *when* to evaluate exists once, here: schedule
//! walking, dirty marking, activity-driven and full settle, the step
//! phases, edge detection, the snapshot shape checks and the monitor
//! probe pass. A [`Value`] supplies only what its representation
//! changes: the op kernels, the RAM word select, the lane-masked
//! sequential commit, the snapshot encoding of one slot and the
//! per-lane reads monitors sample.
//!
//! Assertion monitors observe the design through expressions the
//! schedule does not contain. [`Sim::probe_pass`] compiles a list of
//! them once, with the schedule's expression compiler, into a
//! [`ProbePass`] whose ops read the net slots and write temporaries of
//! the pass's own, outside the arena a snapshot exports;
//! [`Sim::run_probes`] evaluates the whole list in one allocation-free
//! call, for every lane at once.
//!
//! Settling is activity-driven: a CSR fanout (net → reading nodes) feeds
//! a topologically-ranked dirty worklist, so an idle cycle touches only
//! the cone of the nets that actually changed. With 64 lanes a node
//! re-settles when *any* lane changed; kernels are lane-wise pure, so
//! lanes whose inputs did not change recompute their previous value and
//! the union is conservative and exact. Designs with cyclic
//! combinational dependencies or multiply-driven (non-tristate) wires
//! fall back to the full Jacobi fixpoint ([`SettleMode::Full`]), which
//! replicates the original interpreter's pass-batched semantics exactly —
//! including the 1000-pass combinational-loop panic. For acyclic
//! single-driver networks both modes settle to the same unique fixpoint,
//! bit for bit.
//!
//! Each `step` applies staged input changes, settles, captures
//! every clocked element whose clock saw an edge (Verilog nonblocking
//! semantics: all samples happen before any commit), commits, and settles
//! again. Clocks must be **lane-uniform** (drive them with
//! [`BatchedRtlSim::set_u64_all`]), so all lanes share one edge schedule;
//! per-lane divergence lives in the data path, the DFF enables (committed
//! under a lane mask) and the RAM write addresses (one lane mask per
//! selected word). Steady-state stepping performs no heap allocation:
//! inputs stage into preallocated buffers, ops reuse their temporaries,
//! and commits copy within existing capacity.

use crate::logic::planes::{self, Pair};
use crate::logic::{Logic, LogicVec};
use crate::netlist::{Edge, Expr, Item, NetId, NetKind, Netlist};
use crate::packed::{PackedVec, LANES};
use crate::schedule::{CombNode, OpKind, OpsRange, ProbeSchedule, Schedule, SeqNode, TriDriver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// What one arena slot of a [`Sim`] holds: a four-state vector, or one
/// per lane. Lane sets are `u64` masks (lane `l` is bit `l`); a
/// single-lane value reads only bit 0.
pub trait Value: Clone + Default + PartialEq + fmt::Debug {
    /// One slot's plain-data snapshot encoding.
    type Saved;

    /// Every lane all-`0`.
    fn zeros(width: u32) -> Self;
    /// Every lane all-`X`.
    fn xs(width: u32) -> Self;
    /// Every lane set to `v`.
    fn splat(v: &LogicVec) -> Self;
    /// Width in bits of each lane's vector.
    fn width(&self) -> u32;
    /// Overwrites `self` with an equal-width `other` (allocation-free).
    fn assign_from(&mut self, other: &Self);
    /// The snapshot encoding.
    fn save(&self) -> Self::Saved;
    /// Decodes a snapshot encoding; `None` unless it is well formed and
    /// `width` bits wide.
    fn load(width: u32, saved: &Self::Saved) -> Option<Self>;

    /// One bit of one lane.
    fn lane_bit(&self, lane: usize, bit: u32) -> Logic;
    /// One lane as a scalar vector (allocates).
    fn get_lane(&self, lane: usize) -> LogicVec;
    /// One lane's value, if every bit is known and the width is at most
    /// 64 ([`LogicVec::to_u64`]).
    fn lane_u64(&self, lane: usize) -> Option<u64>;
    /// How many of one lane's bits are `1`, if every bit is known.
    fn lane_ones(&self, lane: usize) -> Option<u32>;
    /// The lanes whose bit 0 is exactly `1` (enables, write enables).
    fn lanes_high(&self) -> u64;
    /// A clock net's level: bit 0, which every lane must share.
    fn clock_level(&self) -> Logic;

    // --- op kernels: `self` is the op's dedicated destination ---

    /// `self[0] = a[bit]`.
    fn index_from(&mut self, a: &Self, bit: u32);
    /// `self = a[lo +: width(self)]`.
    fn slice_from(&mut self, a: &Self, lo: u32);
    /// Places `a` into `self` starting at bit `lo` (concat parts).
    fn place_from(&mut self, lo: u32, a: &Self);
    /// `self = ~a` ([`Logic::not`] per bit).
    fn not_from(&mut self, a: &Self);
    /// `self = f(a, b)`, one `(value, unknown)` plane pair at a time: the
    /// bitwise operators, whose word formulas both value types share.
    /// Whatever `f` returns for them, bits above the width stay `0`.
    fn zip_from(&mut self, a: &Self, b: &Self, f: impl Fn(Pair, Pair) -> Pair);
    /// `self[0] = (a == b)`, `X` where either side has an unknown bit.
    fn eq_from(&mut self, a: &Self, b: &Self);
    /// `self = sel ? a : b`, all-`X` where `sel` is unknown.
    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self);
    /// `self[0] = ^a` ([`LogicVec::reduce_xor`]).
    fn reduce_xor_from(&mut self, a: &Self);
    /// `self[0] = |a` ([`LogicVec::reduce_or`]).
    fn reduce_or_from(&mut self, a: &Self);
    /// Sets every bit of every lane to `Z` (an empty tristate bus).
    fn fill_z(&mut self);
    /// Folds one tristate driver into the accumulator `self`: it
    /// contributes `val` where `en` is `1`, `Z` where `en` is `0` and `X`
    /// otherwise, combined by [`Logic::resolve`].
    fn tri_accumulate(&mut self, en: &Self, val: &Self);

    // --- RAM word select and lane-masked sequential commit ---

    /// `self = ram[addr]` per lane; all-`X` where the address is unknown
    /// or not below `ram.len()`.
    fn ram_read(&mut self, addr: &Self, ram: &[Self]);
    /// Pushes `(word, lanes)` onto `sel` for every word that the known,
    /// in-range address of some lane in `lanes` selects.
    fn select_words(addr: &Self, lanes: u64, words: u32, sel: &mut Vec<(u32, u64)>);
    /// Fills a RAM write's dedicated `word` arena slot at the edge.
    /// `stored` is the first selected word. The scalar engine builds the
    /// written word there, so its snapshots carry it; the batched engine
    /// leaves the slot untouched.
    fn stage_word(word: &mut Self, stored: &Self, data: &Self, mask: Option<&Self>);
    /// Copies the bits of `data` whose `mask` bit is `1` (every bit
    /// without a mask) into the lanes of `self` in `lanes`; returns
    /// whether any bit changed (the flip-flop and RAM write commits).
    fn write_masked(&mut self, data: &Self, lanes: u64, mask: Option<&Self>) -> bool;
}

/// How a [`Sim`] settles the combinational network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// Iterate every combinational item to a fixpoint each settle (the
    /// interpreter's original algorithm).
    Full,
    /// Evaluate only the topological cone of changed nets (compiled
    /// schedule). Falls back to [`SettleMode::Full`] semantics when the
    /// design is combinationally cyclic or has multiply-driven wires.
    #[default]
    ActivityDriven,
}

/// A RAM write sampled at a clock edge, held for the commit phase.
#[derive(Debug, Clone, Default)]
struct WriteLatch<V> {
    /// `(word, lanes)` pairs the write address selected
    sel: Vec<(u32, u64)>,
    /// write data sampled at the edge
    data: V,
    /// write mask sampled at the edge, if the port has one
    mask: Option<V>,
}

/// Compiled simulation state for one [`Netlist`], generic over the
/// per-slot [`Value`]. Use it as [`RtlSim`] or [`BatchedRtlSim`].
///
/// The netlist is compiled once at construction; per-cycle evaluation
/// runs the flat op schedule in place over the value arena. See the
/// module docs for the settling strategy.
#[derive(Debug, Clone)]
pub struct Sim<V: Value> {
    design: Netlist,
    mode: SettleMode,
    /// compiled schedule (immutable after construction)
    sched: Schedule,
    // --- simulation state ---
    /// value arena: `0..num_nets` are net values, then consts and temps
    vals: Vec<V>,
    rams: Vec<Vec<V>>,
    /// staged input writes applied at the start of the next step
    input_stage: Vec<V>,
    staged: Vec<bool>,
    stage_list: Vec<u32>,
    /// previous end-of-step clock-bit values for edge detection
    prev_clk: Vec<Logic>,
    // --- worklist and per-step scratch (reused, never reallocated in
    // steady state, never snapshotted: rewritten before each read) ---
    dirty: Vec<bool>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// sampled seq nodes awaiting commit: (seq index, result slot, lanes)
    fired: Vec<(u32, u32, u64)>,
    /// per seq node: the RAM write it sampled (empty for flip-flops)
    writes: Vec<WriteLatch<V>>,
    /// full-settle scratch: (target, result, differs-from-pass-start)
    full_assign: Vec<(u32, u32, bool)>,
    steps: u64,
    /// compiled-op evaluations performed (the simulator-load statistic
    /// for Table 3)
    evals: u64,
}

/// The scalar simulator: one four-state vector per arena slot.
pub type RtlSim = Sim<LogicVec>;

/// The bit-parallel batched simulator: 64 lanes per arena slot, each
/// bit-identical to an [`RtlSim`] fed that lane's inputs.
pub type BatchedRtlSim = Sim<PackedVec>;

/// The slots an op's operands name.
trait Operands<V> {
    fn slot(&self, s: u32) -> &V;
}

/// The simulator's own ops read its whole arena.
impl<V> Operands<V> for [V] {
    #[inline(always)]
    fn slot(&self, s: u32) -> &V {
        &self[s as usize]
    }
}

/// A probe pass's ops read net slots in the simulator's arena and the
/// rest among the pass's own slots.
#[derive(Debug)]
struct Probing<'a, V> {
    nets: &'a [V],
    own: &'a [V],
}

impl<V> Operands<V> for Probing<'_, V> {
    #[inline(always)]
    fn slot(&self, s: u32) -> &V {
        let s = s as usize;
        match s.checked_sub(self.nets.len()) {
            Some(own) => &self.own[own],
            None => &self.nets[s],
        }
    }
}

/// `vals[dst]` to write beside `vals[src]` to read (`dst != src`).
#[inline(always)]
fn pair_mut<V>(vals: &mut [V], dst: u32, src: u32) -> (&mut V, &V) {
    let (dst, src) = (dst as usize, src as usize);
    if dst < src {
        let (lo, hi) = vals.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = vals.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// Evaluates `op` into `d`, its destination, borrowed beside the slots
/// below it (which hold all of its operands): one kernel call.
#[inline(always)]
fn eval_op<V: Value, A: Operands<V> + ?Sized>(op: OpKind, d: &mut V, x: &A, parts: &[u32]) {
    match op {
        OpKind::Copy { a } => d.assign_from(x.slot(a)),
        OpKind::Index { a, bit } => d.index_from(x.slot(a), bit),
        OpKind::Slice { a, lo } => d.slice_from(x.slot(a), lo),
        OpKind::Not { a } => d.not_from(x.slot(a)),
        OpKind::And { a, b } => d.zip_from(x.slot(a), x.slot(b), planes::and),
        OpKind::Or { a, b } => d.zip_from(x.slot(a), x.slot(b), planes::or),
        OpKind::Xor { a, b } => d.zip_from(x.slot(a), x.slot(b), planes::xor),
        OpKind::Eq { a, b } => d.eq_from(x.slot(a), x.slot(b)),
        OpKind::Mux { sel, a, b } => d.mux_from(x.slot(sel), x.slot(a), x.slot(b)),
        OpKind::Concat { parts: (p0, p1) } => {
            let mut off = 0;
            for &p in &parts[p0 as usize..p1 as usize] {
                let part = x.slot(p);
                d.place_from(off, part);
                off += part.width();
            }
        }
        OpKind::ReduceXor { a } => d.reduce_xor_from(x.slot(a)),
        OpKind::ReduceOr { a } => d.reduce_or_from(x.slot(a)),
    }
}

/// Monitor expressions compiled once against a simulator's netlist
/// ([`Sim::probe_pass`]), with the slots their constants and
/// temporaries live in. [`Sim::run_probes`] evaluates them all.
#[derive(Debug, Clone)]
pub struct ProbePass<V: Value> {
    sched: Box<ProbeSchedule>,
    /// slot `num_nets + i` of the pass is `own[i]`
    own: Vec<V>,
}

/// The values of a [`ProbePass`]'s expressions, as one
/// [`Sim::run_probes`] left them: every lane at once.
#[derive(Debug)]
pub struct Probed<'a, V: Value> {
    slots: Probing<'a, V>,
    roots: &'a [u32],
}

impl<V: Value> Probed<'_, V> {
    /// The value of expression `i` (in the order they were compiled).
    pub fn get(&self, i: usize) -> &V {
        self.slots.slot(self.roots[i])
    }
}

impl<V: Value> Sim<V> {
    /// `new` of both instances: compiles `design` and initializes the
    /// arena.
    fn compile(design: &Netlist) -> Self {
        let num_nets = design.nets.len();
        let sched = Schedule::compile(design);

        // --- the value arena ---
        let mut vals: Vec<V> = design
            .nets
            .iter()
            .map(|n| match n.kind {
                NetKind::Reg => n.init.as_ref().map_or_else(|| V::zeros(n.width), V::splat),
                NetKind::Input => V::zeros(n.width),
                NetKind::Wire => V::xs(n.width),
            })
            .collect();
        for w in &sched.widths[num_nets..] {
            vals.push(V::xs(*w));
        }
        for (slot, v) in &sched.consts {
            vals[*slot as usize] = V::splat(v);
        }
        let rams = design
            .items
            .iter()
            .map(|item| match item {
                Item::Ram { words, width, .. } => vec![V::zeros(*width); *words as usize],
                _ => Vec::new(),
            })
            .collect();
        let input_stage = design
            .nets
            .iter()
            .map(|n| match n.kind {
                NetKind::Input => V::zeros(n.width),
                _ => V::default(),
            })
            .collect();
        let writes = sched
            .seq
            .iter()
            .map(|node| match *node {
                SeqNode::RamWrite {
                    words,
                    width,
                    wmask,
                    ..
                } => WriteLatch {
                    // each lane selects at most one word
                    sel: Vec::with_capacity((words as usize).min(LANES)),
                    data: V::zeros(width),
                    mask: wmask.map(|_| V::zeros(width)),
                },
                _ => WriteLatch::default(),
            })
            .collect();

        let seq_len = sched.seq.len();
        let comb_len = sched.comb.len();
        let mut sim = Sim {
            design: design.clone(),
            mode: SettleMode::default(),
            sched,
            vals,
            rams,
            input_stage,
            staged: vec![false; num_nets],
            stage_list: Vec::with_capacity(num_nets),
            prev_clk: vec![Logic::L0; num_nets],
            dirty: vec![false; comb_len],
            heap: BinaryHeap::with_capacity(comb_len + 1),
            fired: Vec::with_capacity(seq_len),
            writes,
            full_assign: Vec::with_capacity(comb_len),
            steps: 0,
            evals: 0,
        };
        for n in 0..comb_len as u32 {
            sim.mark(n);
        }
        sim.settle();
        sim.latch_clock_levels();
        sim
    }

    /// The settle strategy in use.
    pub fn settle_mode(&self) -> SettleMode {
        self.mode
    }

    /// Selects the settle strategy. Both modes produce bit-identical net
    /// values for acyclic single-driver designs; switching is safe at any
    /// step boundary.
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        self.mode = mode;
    }

    /// The staging buffer of input `net` for the next step. A write that
    /// sets only some lanes asks to `carry`: on first use in a step the
    /// buffer then starts from the applied value, so the other lanes keep
    /// their inputs.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    fn stage_entry(&mut self, net: NetId, carry: bool) -> &mut V {
        let i = net.0 as usize;
        let decl = &self.design.nets[i];
        assert!(
            decl.kind == NetKind::Input,
            "net {} is not an input",
            decl.name
        );
        if !self.staged[i] {
            self.staged[i] = true;
            self.stage_list.push(net.0);
            if carry {
                self.input_stage[i].assign_from(&self.vals[i]);
            }
        }
        &mut self.input_stage[i]
    }

    /// The current value of any net.
    pub fn get(&self, net: NetId) -> &V {
        &self.vals[net.0 as usize]
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Compiled-op evaluations performed so far (the simulator-load
    /// statistic used by the Table 3 harness); a probe pass does not
    /// count.
    /// Activity-driven settling legitimately performs far fewer
    /// evaluations than the full fixpoint for the same stimulus. A
    /// batched op advances all 64 lanes, so comparing against an
    /// [`RtlSim`]'s count for the same stimulus measures the PPSFP win.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Marks a comb node dirty and queues it by topological rank.
    fn mark(&mut self, node: u32) {
        if !self.dirty[node as usize] {
            self.dirty[node as usize] = true;
            self.heap
                .push(Reverse((self.sched.rank[node as usize], node)));
        }
    }

    /// Marks every comb node reading `net`.
    fn mark_fanout(&mut self, net: u32) {
        let lo = self.sched.fanout_off[net as usize] as usize;
        let hi = self.sched.fanout_off[net as usize + 1] as usize;
        for i in lo..hi {
            let n = self.sched.fanout[i];
            self.mark(n);
        }
    }

    /// Runs a compiled op range in place over the arena: one kernel call
    /// per op.
    #[inline]
    fn run_ops(&mut self, range: OpsRange) {
        let Sim {
            sched, vals, evals, ..
        } = self;
        *evals += u64::from(range.1 - range.0);
        for op in &sched.ops[range.0 as usize..range.1 as usize] {
            let (operands, dst) = vals.split_at_mut(op.dst as usize);
            eval_op(op.kind, &mut dst[0], operands, &sched.parts);
        }
    }

    /// Evaluates one comb node; returns `(target net, result slot)`
    /// without committing.
    fn eval_node(&mut self, id: u32) -> (u32, u32) {
        match self.sched.comb[id as usize] {
            CombNode::Assign { ops, src, target } => {
                self.run_ops(ops);
                (target, src)
            }
            CombNode::RamRead {
                ops,
                addr,
                ram,
                target,
                out,
            } => {
                self.run_ops(ops);
                let (o, a) = pair_mut(&mut self.vals, out, addr);
                o.ram_read(a, &self.rams[ram as usize]);
                (target, out)
            }
            CombNode::Tri {
                target,
                acc,
                drivers,
            } => {
                self.vals[acc as usize].fill_z();
                for di in drivers.0..drivers.1 {
                    let TriDriver { ops, en, value } = self.sched.tri[di as usize];
                    self.run_ops(ops);
                    // the driver's slots lie below the accumulator's
                    let (drv, a) = self.vals.split_at_mut(acc as usize);
                    a[0].tri_accumulate(&drv[en as usize], &drv[value as usize]);
                }
                (target, acc)
            }
        }
    }

    /// Copies `result` into `target` if any lane differs; returns whether
    /// the target changed. Allocation-free: the copy reuses capacity.
    fn commit_pair(&mut self, target: u32, result: u32) -> bool {
        let (t, r) = pair_mut(&mut self.vals, target, result);
        if t == r {
            return false;
        }
        t.assign_from(r);
        true
    }

    /// Settles the combinational network (mode- and topology-dependent).
    fn settle(&mut self) {
        if self.heap.is_empty() {
            return; // nothing marked since the last settle
        }
        if self.mode == SettleMode::Full || self.sched.fallback_full {
            self.settle_full();
        } else {
            self.settle_activity();
        }
    }

    /// Activity-driven settle: drain the dirty worklist in topological
    /// rank order; each node evaluates at most once, and an unchanged
    /// target stops propagation.
    fn settle_activity(&mut self) {
        while let Some(Reverse((_, n))) = self.heap.pop() {
            if !self.dirty[n as usize] {
                continue; // stale duplicate entry
            }
            self.dirty[n as usize] = false;
            let (target, result) = self.eval_node(n);
            if self.commit_pair(target, result) {
                self.mark_fanout(target);
            }
        }
    }

    /// Full Jacobi fixpoint replicating the interpreter's pass-batched
    /// semantics: every pass evaluates all nodes against pass-start net
    /// values, then commits the changed single-driver targets in item
    /// order, then the resolved tristate targets in net order.
    ///
    /// # Panics
    ///
    /// Panics if the network does not settle within 1000 passes
    /// (combinational loop).
    fn settle_full(&mut self) {
        for _pass in 0..1000 {
            let mut changed = false;
            let mut fa = std::mem::take(&mut self.full_assign);
            fa.clear();
            for id in 0..self.sched.comb.len() as u32 {
                if matches!(self.sched.comb[id as usize], CombNode::Tri { .. }) {
                    continue; // evaluated below, committed last
                }
                let (target, result) = self.eval_node(id);
                fa.push((target, result, false));
            }
            let singles = fa.len();
            for ti in 0..self.sched.tri_order.len() {
                let (target, acc) = self.eval_node(self.sched.tri_order[ti]);
                fa.push((target, acc, false));
            }
            // compare every single-driver result against the pass-start
            // value, then apply the changed ones in item order
            for e in &mut fa[..singles] {
                e.2 = self.vals[e.0 as usize] != self.vals[e.1 as usize];
                changed |= e.2;
            }
            for &(target, result, differs) in &fa[..singles] {
                if differs {
                    self.commit_pair(target, result);
                }
            }
            // tristate targets: compare against the post-assign values
            for &(target, acc, _) in &fa[singles..] {
                changed |= self.commit_pair(target, acc);
            }
            fa.clear();
            self.full_assign = fa;
            if !changed {
                self.heap.clear();
                self.dirty.fill(false);
                return;
            }
        }
        panic!("combinational network did not settle within 1000 passes");
    }

    /// `step` of both instances: applies staged inputs, settles, captures
    /// clock edges (all lanes in lockstep), commits under each node's
    /// lane mask and settles again.
    fn advance(&mut self) {
        self.steps += 1;
        // 1. apply staged inputs (changed nets wake their fanout)
        for i in 0..self.stage_list.len() {
            let net = self.stage_list[i] as usize;
            self.staged[net] = false;
            if self.vals[net] != self.input_stage[net] {
                self.vals[net].assign_from(&self.input_stage[net]);
                self.mark_fanout(net as u32);
            }
        }
        self.stage_list.clear();
        // 2. settle so D inputs are coherent with the new primary inputs
        //    (inputs have setup before the edge)
        self.settle();
        // 3. sample clocked elements on detected edges (all samples
        //    before any commit — nonblocking-assignment semantics)
        self.fired.clear();
        for s in 0..self.sched.seq.len() {
            match self.sched.seq[s] {
                SeqNode::Dff {
                    clock, edge, en, d, ..
                } => {
                    if !self.edge_on(clock, edge) {
                        continue;
                    }
                    let lanes = match en {
                        Some((ops, slot)) => {
                            self.run_ops(ops);
                            self.vals[slot as usize].lanes_high()
                        }
                        None => !0,
                    };
                    if lanes != 0 {
                        self.run_ops(d.0);
                        self.fired.push((s as u32, d.1, lanes));
                    }
                }
                SeqNode::Ddr {
                    clock, rise, fall, ..
                } => {
                    let src = if self.edge_on(clock, Edge::Pos) {
                        rise
                    } else if self.edge_on(clock, Edge::Neg) {
                        fall
                    } else {
                        continue;
                    };
                    self.run_ops(src.0);
                    self.fired.push((s as u32, src.1, !0));
                }
                SeqNode::RamWrite {
                    clock,
                    we,
                    waddr,
                    wdata,
                    wmask,
                    ram,
                    words,
                    word,
                    ..
                } => {
                    if !self.edge_on(clock, Edge::Pos) {
                        continue;
                    }
                    self.run_ops(we.0);
                    let lanes = self.vals[we.1 as usize].lanes_high();
                    if lanes == 0 {
                        continue;
                    }
                    self.run_ops(waddr.0);
                    let mut w = std::mem::take(&mut self.writes[s]);
                    w.sel.clear();
                    V::select_words(&self.vals[waddr.1 as usize], lanes, words, &mut w.sel);
                    if let Some(&(first, _)) = w.sel.first() {
                        self.run_ops(wdata.0);
                        // sample data and mask now: their source nets may
                        // be regs that other seq nodes commit in phase 4
                        w.data.assign_from(&self.vals[wdata.1 as usize]);
                        if let (Some((mops, mslot)), Some(m)) = (wmask, w.mask.as_mut()) {
                            self.run_ops(mops);
                            m.assign_from(&self.vals[mslot as usize]);
                        }
                        V::stage_word(
                            &mut self.vals[word as usize],
                            &self.rams[ram as usize][first as usize],
                            &w.data,
                            w.mask.as_ref(),
                        );
                        self.fired.push((s as u32, word, lanes));
                    }
                    self.writes[s] = w;
                }
            }
        }
        // 4. commit
        for i in 0..self.fired.len() {
            let (s, slot, lanes) = self.fired[i];
            match self.sched.seq[s as usize] {
                SeqNode::Dff { q, .. } | SeqNode::Ddr { q, .. } => {
                    let (t, src) = pair_mut(&mut self.vals, q, slot);
                    if t.write_masked(src, lanes, None) {
                        self.mark_fanout(q);
                    }
                }
                SeqNode::RamWrite { ram, .. } => {
                    let ram = ram as usize;
                    let w = &self.writes[s as usize];
                    let mut changed = false;
                    for &(a, lanes) in &w.sel {
                        changed |= self.rams[ram][a as usize].write_masked(
                            &w.data,
                            lanes,
                            w.mask.as_ref(),
                        );
                    }
                    if changed {
                        for ri in 0..self.sched.ram_readers[ram].len() {
                            let reader = self.sched.ram_readers[ram][ri];
                            self.mark(reader);
                        }
                    }
                }
            }
        }
        // 5. settle combinational logic on the post-edge state
        self.settle();
        self.latch_clock_levels();
    }

    /// Remembers the clock levels for the next step's edge detection.
    fn latch_clock_levels(&mut self) {
        for i in 0..self.sched.clock_nets.len() {
            let cnet = self.sched.clock_nets[i] as usize;
            self.prev_clk[cnet] = self.vals[cnet].clock_level();
        }
    }

    fn edge_on(&self, clock: u32, edge: Edge) -> bool {
        let p = self.prev_clk[clock as usize];
        let c = self.vals[clock as usize].clock_level();
        match edge {
            Edge::Pos => p == Logic::L0 && c == Logic::L1,
            Edge::Neg => p == Logic::L1 && c == Logic::L0,
        }
    }

    /// Compiles monitor expressions, in order, against this simulator's
    /// netlist. The pass may run on any simulator of the same netlist.
    ///
    /// # Panics
    ///
    /// Panics on expression width mismatches.
    pub fn probe_pass(&self, exprs: &[Expr]) -> ProbePass<V> {
        let sched = Box::new(ProbeSchedule::compile(&self.design, exprs));
        let num_nets = sched.num_nets as usize;
        let mut own: Vec<V> = sched.widths[num_nets..].iter().map(|&w| V::xs(w)).collect();
        for (slot, v) in &sched.consts {
            own[*slot as usize - num_nets] = V::splat(v);
        }
        ProbePass { sched, own }
    }

    /// Evaluates every expression of `pass` against the current settled
    /// values, every lane at once, without allocating. Probe ops do not
    /// count in [`Sim::evals`].
    ///
    /// # Panics
    ///
    /// Panics if `pass` was compiled against a netlist with a different
    /// number of nets.
    pub fn run_probes<'a>(&'a self, pass: &'a mut ProbePass<V>) -> Probed<'a, V> {
        let num_nets = pass.sched.num_nets as usize;
        assert_eq!(
            num_nets,
            self.design.nets.len(),
            "probe pass of another netlist"
        );
        let nets = &self.vals[..num_nets];
        let ProbePass { sched, own } = pass;
        for op in &sched.ops {
            let (done, dst) = own.split_at_mut(op.dst as usize - num_nets);
            let x = Probing { nets, own: done };
            eval_op(op.kind, &mut dst[0], &x, &sched.parts);
        }
        Probed {
            slots: Probing { nets, own },
            roots: &sched.roots,
        }
    }

    /// Exports the simulator's full mutable state as plain data (the
    /// checkpoint layer serializes it). Exporting every arena slot —
    /// nets, constants *and* expression temporaries — makes
    /// [`Sim::import_state`] a pure copy with no re-settle, so a restored
    /// simulator is byte-identical to the one exported. Per-step scratch
    /// (commit lanes, sampled RAM writes) is rewritten before it is read
    /// each step and is deliberately not captured.
    ///
    /// Only legal at a quiescent step boundary: staged inputs applied,
    /// dirty worklist drained. (Every caller in the workspace snapshots
    /// between `step`s, where both hold by construction.)
    pub fn export_state(&self) -> Result<SimState<V::Saved>, String> {
        self.check_quiescent()?;
        Ok(SimState {
            vals: self.vals.iter().map(V::save).collect(),
            rams: self
                .rams
                .iter()
                .map(|ram| ram.iter().map(V::save).collect())
                .collect(),
            prev_clk: self.prev_clk.iter().map(|l| l.to_char()).collect(),
            steps: self.steps,
            evals: self.evals,
        })
    }

    /// Restores a state exported from a simulator of the same value type
    /// compiled from the *same* netlist. Shape-checks every slot (arena
    /// length, widths, RAM geometry) and rejects mismatches without
    /// modifying `self`.
    pub fn import_state(&mut self, st: &SimState<V::Saved>) -> Result<(), String> {
        self.check_shape(st.vals.len(), st.rams.len(), st.prev_clk.chars().count())?;
        let mut vals = Vec::with_capacity(st.vals.len());
        for (i, s) in st.vals.iter().enumerate() {
            let v = V::load(self.vals[i].width(), s)
                .ok_or_else(|| format!("bad value in arena slot {i}"))?;
            vals.push(v);
        }
        let mut rams = Vec::with_capacity(st.rams.len());
        for (r, words) in st.rams.iter().enumerate() {
            if words.len() != self.rams[r].len() {
                return Err(format!("RAM {r} word-count mismatch"));
            }
            let width = self.rams[r].first().map_or(0, V::width);
            let mut ram = Vec::with_capacity(words.len());
            for (a, s) in words.iter().enumerate() {
                ram.push(V::load(width, s).ok_or_else(|| format!("bad word {a} in RAM {r}"))?);
            }
            rams.push(ram);
        }
        let prev_clk = st
            .prev_clk
            .chars()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "bad clock-level table".to_string())?;
        self.vals = vals;
        self.rams = rams;
        self.prev_clk = prev_clk;
        self.steps = st.steps;
        self.evals = st.evals;
        // the imported arena is settled by the export precondition
        self.clear_worklist();
        Ok(())
    }

    /// The state-capture precondition: staged inputs applied and the
    /// dirty worklist drained.
    fn check_quiescent(&self) -> Result<(), String> {
        if !self.stage_list.is_empty() {
            return Err("cannot capture state with staged inputs pending".to_string());
        }
        if !self.heap.is_empty() {
            return Err("cannot capture state with an unsettled network".to_string());
        }
        Ok(())
    }

    /// Checks a state to install against this simulator's arena length,
    /// RAM count and clock table length.
    fn check_shape(&self, slots: usize, rams: usize, clocks: usize) -> Result<(), String> {
        if slots != self.vals.len() {
            return Err(format!(
                "arena size mismatch: the state has {slots} slots, design has {}",
                self.vals.len()
            ));
        }
        if rams != self.rams.len() || clocks != self.prev_clk.len() {
            return Err("RAM/clock table shape mismatch".to_string());
        }
        Ok(())
    }

    /// Drops pending inputs and dirty marks after a state install.
    fn clear_worklist(&mut self) {
        self.heap.clear();
        self.dirty.fill(false);
        self.stage_list.clear();
        self.staged.fill(false);
    }
}

// The engine's two entry points are defined per instance, not
// generically: a generic method is compiled into every crate that calls
// it, so the hot loop would exist once per calling crate, scattered over
// the binary. Defined here, this crate generates it once per value type.
impl RtlSim {
    /// Compiles `design` and initializes the arena: registers take their
    /// declared initial values, wires start at `X`, inputs at `0`.
    ///
    /// # Panics
    ///
    /// Panics on expression width mismatches (the same errors Verilog
    /// elaboration would reject).
    pub fn new(design: &Netlist) -> Self {
        Sim::compile(design)
    }

    /// Applies staged inputs, settles, captures every clocked element
    /// whose clock saw an edge, commits and settles again.
    pub fn step(&mut self) {
        self.advance();
    }

    /// Schedules an input change for the next [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or the width differs.
    pub fn set(&mut self, net: NetId, value: LogicVec) {
        let decl = &self.design.nets[net.0 as usize];
        assert_eq!(decl.width, value.width(), "width mismatch on {}", decl.name);
        self.stage_entry(net, false).assign_from(&value);
    }

    /// Schedules an input change given as an integer (allocation-free:
    /// the value is staged into a preallocated per-net buffer). Bits from
    /// 64 up are `0`, as [`BatchedRtlSim::set_u64_all`] stages them.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    pub fn set_u64(&mut self, net: NetId, value: u64) {
        self.stage_entry(net, false).assign_u64(value);
    }

    /// The current value of a net as an integer, if fully known.
    pub fn get_u64(&self, net: NetId) -> Option<u64> {
        self.get(net).to_u64()
    }

    /// A RAM word, for inspection (`item_index` is the position of the
    /// RAM in the netlist's item list).
    ///
    /// # Panics
    ///
    /// Panics if the item is not a RAM or the address is out of range.
    pub fn ram_word(&self, item_index: usize, addr: usize) -> &LogicVec {
        assert!(matches!(self.design.items[item_index], Item::Ram { .. }));
        &self.rams[item_index][addr]
    }
}

impl BatchedRtlSim {
    /// Compiles `design`; every lane starts in the state
    /// [`RtlSim::new`] gives.
    ///
    /// # Panics
    ///
    /// Panics on expression width mismatches (the same errors Verilog
    /// elaboration would reject).
    pub fn new(design: &Netlist) -> Self {
        Sim::compile(design)
    }

    /// Installs `scalar`'s full state in every lane: each arena slot and
    /// RAM word splatted, the clock levels and the step and eval counters
    /// copied. This is the state every lane holds after replaying
    /// `scalar`'s stimulus in all of them, since identical lanes make
    /// every settle evaluate the ops the scalar settle did; the one
    /// exception is a RAM write's `word` slot, which only the scalar
    /// engine fills ([`Value::stage_word`]), so it keeps this
    /// simulator's own value. [`Sim::export_state`] of the result equals
    /// the replayed simulator's.
    ///
    /// # Errors
    ///
    /// Fails, leaving `self` unchanged, unless `scalar` is quiescent
    /// (the [`Sim::export_state`] precondition) and has the same arena
    /// length, slot widths, RAM geometry and clock table as `self` (the
    /// [`Sim::import_state`] shape checks): the two must be compiled
    /// from the same netlist.
    pub fn import_broadcast(&mut self, scalar: &RtlSim) -> Result<(), String> {
        scalar.check_quiescent()?;
        self.check_shape(scalar.vals.len(), scalar.rams.len(), scalar.prev_clk.len())?;
        let mut vals = Vec::with_capacity(self.vals.len());
        for (i, (src, own)) in scalar.vals.iter().zip(&self.vals).enumerate() {
            if src.width() != own.width() {
                return Err(format!("width mismatch in arena slot {i}"));
            }
            vals.push(PackedVec::splat(src));
        }
        let mut rams = Vec::with_capacity(self.rams.len());
        for (r, (src, own)) in scalar.rams.iter().zip(&self.rams).enumerate() {
            if src.len() != own.len()
                || src.first().map(Value::width) != own.first().map(Value::width)
            {
                return Err(format!("RAM {r} geometry mismatch"));
            }
            rams.push(src.iter().map(PackedVec::splat).collect());
        }
        for node in &self.sched.seq {
            if let SeqNode::RamWrite { word, .. } = *node {
                vals[word as usize].assign_from(&self.vals[word as usize]);
            }
        }
        self.vals = vals;
        self.rams = rams;
        self.prev_clk.clone_from(&scalar.prev_clk);
        self.steps = scalar.steps;
        self.evals = scalar.evals;
        self.clear_worklist();
        Ok(())
    }

    /// Applies staged inputs, settles, captures clock edges (all lanes in
    /// lockstep), commits under each node's lane mask and settles again.
    pub fn step(&mut self) {
        self.advance();
    }

    /// Stages the same integer into every lane of an input.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input.
    pub fn set_u64_all(&mut self, net: NetId, value: u64) {
        self.stage_entry(net, false).set_all_lanes_u64(value);
    }

    /// Stages one lane of an input from a scalar vector.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input, the width differs, or
    /// `lane >= LANES`.
    pub fn set_lane(&mut self, net: NetId, lane: usize, value: &LogicVec) {
        self.stage_entry(net, true).set_lane(lane, value);
    }

    /// Stages one lane of an input from an integer (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or `lane >= LANES`.
    pub fn set_lane_u64(&mut self, net: NetId, lane: usize, value: u64) {
        self.stage_entry(net, true).set_lane_u64(lane, value);
    }

    /// Stages **every** lane of an input from per-lane integers in one
    /// bit-matrix transpose — the bulk-drive fast path (equivalent to 64
    /// [`Self::set_lane_u64`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or wider than 64 bits.
    pub fn set_lanes_u64(&mut self, net: NetId, vals: &[u64; LANES]) {
        self.stage_entry(net, false).set_lanes_u64(vals);
    }

    /// Stages all-`X` into one lane of an input (X-injection).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an input or `lane >= LANES`.
    pub fn set_lane_xs(&mut self, net: NetId, lane: usize) {
        self.stage_entry(net, true).set_lane_xs(lane);
    }

    /// One lane of a net as a scalar vector (allocates).
    pub fn get_lane(&self, net: NetId, lane: usize) -> LogicVec {
        self.vals[net.0 as usize].get_lane(lane)
    }

    /// One lane of a net as an integer, if fully known (allocation-free).
    pub fn lane_u64(&self, net: NetId, lane: usize) -> Option<u64> {
        self.vals[net.0 as usize].lane_to_u64(lane)
    }

    /// Reads **every** lane of a net as integers in one bit-matrix
    /// transpose; returns the fully-known lane mask (see
    /// [`PackedVec::lanes_u64`]) — the bulk-sample fast path.
    ///
    /// # Panics
    ///
    /// Panics if the net is wider than 64 bits.
    pub fn lanes_u64(&self, net: NetId, out: &mut [u64; LANES]) -> u64 {
        self.vals[net.0 as usize].lanes_u64(out)
    }
}

/// A plain-data export of a [`Sim`]'s full mutable state: every arena
/// slot and RAM word in the value type's snapshot encoding, the per-net
/// previous clock levels, and the step/eval counters. Built by
/// [`Sim::export_state`], consumed by [`Sim::import_state`];
/// serialization lives in the checkpoint layer (`la1-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState<S> {
    /// Every arena slot (nets, then constants and temporaries).
    pub vals: Vec<S>,
    /// RAM contents, indexed by netlist item then word address.
    pub rams: Vec<Vec<S>>,
    /// Previous end-of-step clock levels, one character per net.
    pub prev_clk: String,
    /// Steps executed.
    pub steps: u64,
    /// Compiled-op evaluations performed.
    pub evals: u64,
}

/// An [`RtlSim`] export: every slot as a four-state string, MSB first.
pub type RtlState = SimState<String>;

/// A [`BatchedRtlSim`] export: every slot as its `(value plane, X plane)`
/// word vectors, one word per bit position.
pub type BatchedRtlState = SimState<(Vec<u64>, Vec<u64>)>;
