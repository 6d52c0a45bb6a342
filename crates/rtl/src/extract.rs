//! Bit-blasting a two-valued netlist into a transition system for
//! symbolic model checking.
//!
//! The extraction gives every register bit (and every RAM bit) a state
//! variable, every non-clock primary-input bit a free input variable,
//! and designated clock nets an auto-toggling state bit (`c' = !c`), so
//! one transition of the system is one half-period of the clock — the
//! granularity at which the LA-1's DDR behaviour is visible.
//!
//! Four-state behaviour is not modelled: `Z` on a tristate bus is
//! treated as 0 and drivers are combined as `OR(enable_i AND value_i)`,
//! which is exact when at most one driver is enabled (the LA-1 bank
//! decoder guarantees this; the `la1-smc` checker can verify the
//! one-hotness as a property).

use crate::netlist::{Edge, Expr, Item, NetId, NetKind, Netlist};
use std::collections::{BTreeMap, HashMap};

/// Index of a node in a [`TransitionSystem`]'s DAG.
pub type BitId = u32;

/// A node of the bit-level combinational DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitExpr {
    /// Constant.
    Const(bool),
    /// A variable: **input bits first, then state bits** — so appending
    /// monitor state (as `la1-smc` does) never renumbers existing
    /// references.
    Var(u32),
    /// Negation of another node.
    Not(BitId),
    /// Conjunction.
    And(BitId, BitId),
    /// Disjunction.
    Or(BitId, BitId),
    /// Exclusive or.
    Xor(BitId, BitId),
}

/// A bit-level finite transition system extracted from a [`Netlist`].
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    /// The shared combinational DAG.
    pub nodes: Vec<BitExpr>,
    /// Names of the state bits (variables `num_input_bits()..`).
    pub state_bits: Vec<String>,
    /// Names of the free input bits (variables `0..num_input_bits()`).
    pub input_bits: Vec<String>,
    /// Initial value of each state bit.
    pub init: Vec<bool>,
    /// Next-state function of each state bit, as a node id.
    pub next: Vec<BitId>,
    /// Current-cycle value of every net, for property predicates:
    /// `(net name, bit functions lsb-first)`.
    probes: HashMap<String, Vec<BitId>>,
}

impl TransitionSystem {
    /// Number of state bits.
    pub fn num_state_bits(&self) -> usize {
        self.state_bits.len()
    }

    /// Number of free input bits.
    pub fn num_input_bits(&self) -> usize {
        self.input_bits.len()
    }

    /// The bit functions (lsb first) giving the current value of a net.
    pub fn probe(&self, net_name: &str) -> Option<&[BitId]> {
        self.probes.get(net_name).map(Vec::as_slice)
    }

    /// Names of all probeable nets.
    pub fn probe_names(&self) -> impl Iterator<Item = &str> {
        self.probes.keys().map(String::as_str)
    }

    /// Evaluates a node under full assignments to state and input bits
    /// (used for testing and for counterexample replay).
    pub fn eval_node(&self, id: BitId, state: &[bool], inputs: &[bool]) -> bool {
        let var = |v: u32| {
            let ni = self.input_bits.len() as u32;
            if v < ni {
                inputs[v as usize]
            } else {
                state[(v - ni) as usize]
            }
        };
        // iterative memoized evaluation over the DAG prefix
        let mut memo = vec![None::<bool>; self.nodes.len()];
        fn go(
            nodes: &[BitExpr],
            memo: &mut [Option<bool>],
            var: &dyn Fn(u32) -> bool,
            id: BitId,
        ) -> bool {
            if let Some(v) = memo[id as usize] {
                return v;
            }
            let v = match nodes[id as usize] {
                BitExpr::Const(b) => b,
                BitExpr::Var(i) => var(i),
                BitExpr::Not(a) => !go(nodes, memo, var, a),
                BitExpr::And(a, b) => go(nodes, memo, var, a) && go(nodes, memo, var, b),
                BitExpr::Or(a, b) => go(nodes, memo, var, a) || go(nodes, memo, var, b),
                BitExpr::Xor(a, b) => go(nodes, memo, var, a) ^ go(nodes, memo, var, b),
            };
            memo[id as usize] = Some(v);
            v
        }
        go(&self.nodes, &mut memo, &var, id)
    }
}

/// Hash-consing builder of a [`BitExpr`] DAG with light constant
/// folding: a structurally equal node is never created twice.
/// [`Netlist::extract`] builds its DAG with it, and `la1-smc` extends
/// that DAG with monitor circuits through it.
#[derive(Debug, Clone)]
pub struct BitBuilder {
    nodes: Vec<BitExpr>,
    dedup: HashMap<BitExpr, BitId>,
}

impl BitBuilder {
    /// Continues an existing DAG such as [`TransitionSystem::nodes`]:
    /// its nodes keep their ids and are shared by the nodes built next.
    pub fn from_nodes(nodes: Vec<BitExpr>) -> Self {
        let dedup = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as BitId))
            .collect();
        BitBuilder { nodes, dedup }
    }

    /// The DAG built so far, indexed by [`BitId`].
    pub fn into_nodes(self) -> Vec<BitExpr> {
        self.nodes
    }

    fn mk(&mut self, e: BitExpr) -> BitId {
        if let Some(&id) = self.dedup.get(&e) {
            return id;
        }
        let id = self.nodes.len() as BitId;
        self.nodes.push(e);
        self.dedup.insert(e, id);
        id
    }

    /// A constant.
    pub fn konst(&mut self, b: bool) -> BitId {
        self.mk(BitExpr::Const(b))
    }

    /// Variable `v` (input bits first, then state bits).
    pub fn var(&mut self, v: u32) -> BitId {
        self.mk(BitExpr::Var(v))
    }

    /// `!a`.
    pub fn not(&mut self, a: BitId) -> BitId {
        match self.nodes[a as usize] {
            BitExpr::Const(b) => self.konst(!b),
            BitExpr::Not(inner) => inner,
            _ => self.mk(BitExpr::Not(a)),
        }
    }

    /// `a & b`.
    pub fn and(&mut self, a: BitId, b: BitId) -> BitId {
        match (self.nodes[a as usize], self.nodes[b as usize]) {
            (BitExpr::Const(false), _) | (_, BitExpr::Const(false)) => self.konst(false),
            (BitExpr::Const(true), _) => b,
            (_, BitExpr::Const(true)) => a,
            _ if a == b => a,
            _ => self.mk(BitExpr::And(a.min(b), a.max(b))),
        }
    }

    /// `a | b`.
    pub fn or(&mut self, a: BitId, b: BitId) -> BitId {
        match (self.nodes[a as usize], self.nodes[b as usize]) {
            (BitExpr::Const(true), _) | (_, BitExpr::Const(true)) => self.konst(true),
            (BitExpr::Const(false), _) => b,
            (_, BitExpr::Const(false)) => a,
            _ if a == b => a,
            _ => self.mk(BitExpr::Or(a.min(b), a.max(b))),
        }
    }

    /// `a ^ b`.
    pub fn xor(&mut self, a: BitId, b: BitId) -> BitId {
        match (self.nodes[a as usize], self.nodes[b as usize]) {
            (BitExpr::Const(false), _) => b,
            (_, BitExpr::Const(false)) => a,
            (BitExpr::Const(true), _) => self.not(b),
            (_, BitExpr::Const(true)) => self.not(a),
            _ if a == b => self.konst(false),
            _ => self.mk(BitExpr::Xor(a.min(b), a.max(b))),
        }
    }

    fn mux(&mut self, sel: BitId, a: BitId, b: BitId) -> BitId {
        let sa = self.and(sel, a);
        let ns = self.not(sel);
        let nsb = self.and(ns, b);
        self.or(sa, nsb)
    }

    fn eq_vec(&mut self, a: &[BitId], b: &[BitId]) -> BitId {
        assert_eq!(a.len(), b.len(), "eq width mismatch");
        let mut acc = self.konst(true);
        for (&x, &y) in a.iter().zip(b) {
            let d = self.xor(x, y);
            let nd = self.not(d);
            acc = self.and(acc, nd);
        }
        acc
    }
}

impl Netlist {
    /// Extracts the bit-level transition system of a two-valued design.
    ///
    /// `clocks` lists the input nets to convert into auto-toggling state
    /// bits (each transition is one half-period). Every sequential item
    /// must be clocked by one of them.
    ///
    /// # Panics
    ///
    /// Panics if a sequential item is clocked by a net not in `clocks`,
    /// if the combinational network has a cycle, if a wire is undriven,
    /// or if an expression holds an `X` or `Z` constant (a two-valued
    /// transition system has no bit for it).
    pub fn extract(&self, clocks: &[NetId]) -> TransitionSystem {
        let mut b = BitBuilder::from_nodes(vec![BitExpr::Const(false), BitExpr::Const(true)]);
        // input bits are numbered first (variables `0..num_inputs`) so
        // that later state-bit additions never renumber them
        let mut input_base: HashMap<NetId, u32> = HashMap::new();
        let mut input_bits: Vec<String> = Vec::new();
        for (i, decl) in self.nets.iter().enumerate() {
            let id = NetId(i as u32);
            if decl.kind == NetKind::Input && !clocks.contains(&id) {
                input_base.insert(id, input_bits.len() as u32);
                for bit in 0..decl.width {
                    input_bits.push(format!("{}[{bit}]", decl.name));
                }
            }
        }
        let num_inputs = input_bits.len() as u32;

        let mut state_bits: Vec<String> = Vec::new();
        let mut init: Vec<bool> = Vec::new();
        // allocate state bits: clocks first, then regs, then RAM bits
        let mut clock_state: HashMap<NetId, u32> = HashMap::new();
        for &c in clocks {
            assert_eq!(self.width(c), 1, "clock nets must be 1 bit");
            clock_state.insert(c, state_bits.len() as u32);
            state_bits.push(self.net_name(c).to_string());
            init.push(false); // clocks start low; first transition is a rising edge
        }
        // Register and RAM bits are allocated in net-declaration order,
        // with each RAM's bits anchored at its read-data wire's position:
        // builders declare related nets together, so this keeps each
        // subsystem's state variables adjacent — which matters a great
        // deal for the BDD variable order the model checker derives.
        let mut reg_state: HashMap<NetId, u32> = HashMap::new();
        let mut ram_state: HashMap<usize, u32> = HashMap::new();
        let ram_by_rdata: HashMap<NetId, usize> = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(idx, item)| match item {
                Item::Ram { rdata, .. } => Some((*rdata, idx)),
                _ => None,
            })
            .collect();
        for (i, decl) in self.nets.iter().enumerate() {
            let id = NetId(i as u32);
            if decl.kind == NetKind::Reg {
                reg_state.insert(id, state_bits.len() as u32);
                for bit in 0..decl.width {
                    state_bits.push(format!("{}[{bit}]", decl.name));
                    let iv = decl
                        .init
                        .as_ref()
                        .map(|v| v.bit(bit).to_bool().unwrap_or(false))
                        .unwrap_or(false);
                    init.push(iv);
                }
            }
            if let Some(&idx) = ram_by_rdata.get(&id) {
                if let Item::Ram { words, width, .. } = &self.items[idx] {
                    ram_state.insert(idx, state_bits.len() as u32);
                    for w in 0..*words {
                        for bit in 0..*width {
                            state_bits.push(format!("{}.mem[{w}][{bit}]", decl.name));
                            init.push(false);
                        }
                    }
                }
            }
        }
        // current-value bit functions per net (state vars live above
        // the input vars). Nodes are created in declaration order —
        // clocks, then nets, then tristate targets by id — so every
        // extraction numbers the DAG the same way.
        let mut net_bits: HashMap<NetId, Vec<BitId>> = HashMap::new();
        for &c in clocks {
            let v = b.var(num_inputs + clock_state[&c]);
            net_bits.insert(c, vec![v]);
        }
        for (i, decl) in self.nets.iter().enumerate() {
            let net = NetId(i as u32);
            let base = match (reg_state.get(&net), input_base.get(&net)) {
                (Some(&base), _) => num_inputs + base,
                (None, Some(&base)) => base,
                (None, None) => continue,
            };
            net_bits.insert(net, (0..decl.width).map(|i| b.var(base + i)).collect());
        }

        // resolve combinational items to fixpoint (handles any
        // declaration order); tristate targets need all their drivers
        let mut tristate_targets: BTreeMap<NetId, Vec<(&Expr, &Expr)>> = BTreeMap::new();
        for item in &self.items {
            if let Item::Tristate {
                target,
                enable,
                value,
            } = item
            {
                tristate_targets
                    .entry(*target)
                    .or_default()
                    .push((enable, value));
            }
        }
        let mut progress = true;
        while progress {
            progress = false;
            for (idx, item) in self.items.iter().enumerate() {
                match item {
                    Item::Assign { target, expr } if !net_bits.contains_key(target) => {
                        if let Some(bits) = eval_bits(&mut b, &net_bits, expr) {
                            net_bits.insert(*target, bits);
                            progress = true;
                        }
                    }
                    Item::Ram {
                        raddr,
                        rdata,
                        words,
                        width,
                        ..
                    } if !net_bits.contains_key(rdata) => {
                        if let Some(addr) = eval_bits(&mut b, &net_bits, raddr) {
                            let base = ram_state[&idx];
                            let mut out = vec![b.konst(false); *width as usize];
                            for w in 0..*words {
                                let addr_const: Vec<BitId> =
                                    (0..addr.len()).map(|i| b.konst(w >> i & 1 == 1)).collect();
                                let hit = b.eq_vec(&addr, &addr_const);
                                for bit in 0..*width {
                                    let cell = b.var(num_inputs + base + w * width + bit);
                                    let sel = b.and(hit, cell);
                                    out[bit as usize] = b.or(out[bit as usize], sel);
                                }
                            }
                            net_bits.insert(*rdata, out);
                            progress = true;
                        }
                    }
                    _ => {}
                }
            }
            // tristate targets: need every driver's expressions resolved
            let targets: Vec<NetId> = tristate_targets.keys().copied().collect();
            for target in targets {
                if net_bits.contains_key(&target) {
                    continue;
                }
                let drivers = &tristate_targets[&target];
                let resolved: Option<Vec<(Vec<BitId>, Vec<BitId>)>> = drivers
                    .iter()
                    .map(|(en, val)| {
                        let e = eval_bits(&mut b, &net_bits, en)?;
                        let v = eval_bits(&mut b, &net_bits, val)?;
                        Some((e, v))
                    })
                    .collect();
                if let Some(resolved) = resolved {
                    let w = self.width(target) as usize;
                    let mut out = vec![b.konst(false); w];
                    for (en, val) in resolved {
                        for i in 0..w {
                            let gated = b.and(en[0], val[i]);
                            out[i] = b.or(out[i], gated);
                        }
                    }
                    net_bits.insert(target, out);
                    progress = true;
                }
            }
        }
        // every wire must be driven by now
        for (i, decl) in self.nets.iter().enumerate() {
            assert!(
                net_bits.contains_key(&NetId(i as u32)),
                "net {} is undriven or part of a combinational cycle",
                decl.name
            );
        }

        // Every net has bits now (asserted just above), and `eval_bits`
        // fails only on a net without them: from here on every
        // expression resolves.
        let resolved = |b: &mut BitBuilder, e: &Expr| {
            eval_bits(b, &net_bits, e).expect("every net is resolved above")
        };

        // next-state functions
        let mut next: Vec<BitId> = (0..state_bits.len())
            .map(|i| b.var(num_inputs + i as u32)) // default: hold
            .collect();
        for c in clocks {
            let bit = clock_state[c];
            let cur = b.var(num_inputs + bit);
            next[bit as usize] = b.not(cur);
        }
        for (idx, item) in self.items.iter().enumerate() {
            match item {
                Item::Dff {
                    clock,
                    edge,
                    enable,
                    d,
                    q,
                } => {
                    let cbit = *clock_state.get(clock).unwrap_or_else(|| {
                        panic!("dff clocked by non-clock net {}", self.net_name(*clock))
                    });
                    let c = b.var(num_inputs + cbit);
                    // posedge fires on transitions where the clock is
                    // currently low (it will be high next step)
                    let fire = match edge {
                        Edge::Pos => b.not(c),
                        Edge::Neg => c,
                    };
                    let fire = match enable {
                        Some(en) => {
                            let e = resolved(&mut b, en)[0];
                            b.and(fire, e)
                        }
                        None => fire,
                    };
                    let dbits = resolved(&mut b, d);
                    let qbase = reg_state[q];
                    for (i, &dbit) in dbits.iter().enumerate() {
                        let hold = b.var(num_inputs + qbase + i as u32);
                        next[(qbase + i as u32) as usize] = b.mux(fire, dbit, hold);
                    }
                }
                Item::DdrFf {
                    clock,
                    d_rise,
                    d_fall,
                    q,
                } => {
                    let cbit = *clock_state.get(clock).unwrap_or_else(|| {
                        panic!("ddr clocked by non-clock net {}", self.net_name(*clock))
                    });
                    let c = b.var(num_inputs + cbit);
                    let rise = b.not(c); // every step is an edge
                    let r = resolved(&mut b, d_rise);
                    let f = resolved(&mut b, d_fall);
                    let qbase = reg_state[q];
                    for i in 0..r.len() {
                        next[(qbase + i as u32) as usize] = b.mux(rise, r[i], f[i]);
                    }
                }
                Item::Ram {
                    clock,
                    we,
                    waddr,
                    wdata,
                    wmask,
                    words,
                    width,
                    ..
                } => {
                    let cbit = *clock_state.get(clock).unwrap_or_else(|| {
                        panic!("ram clocked by non-clock net {}", self.net_name(*clock))
                    });
                    let c = b.var(num_inputs + cbit);
                    let fire0 = b.not(c); // writes on the rising edge
                    let webit = resolved(&mut b, we)[0];
                    let fire = b.and(fire0, webit);
                    let addr = resolved(&mut b, waddr);
                    let data = resolved(&mut b, wdata);
                    let mask: Vec<BitId> = match wmask {
                        Some(m) => resolved(&mut b, m),
                        None => vec![b.konst(true); *width as usize],
                    };
                    let base = ram_state[&idx];
                    for w in 0..*words {
                        let addr_const: Vec<BitId> =
                            (0..addr.len()).map(|i| b.konst(w >> i & 1 == 1)).collect();
                        let hit = b.eq_vec(&addr, &addr_const);
                        let write_word = b.and(fire, hit);
                        for bit in 0..*width {
                            let svar = base + w * width + bit;
                            let cur = b.var(num_inputs + svar);
                            let wr = b.and(write_word, mask[bit as usize]);
                            next[svar as usize] = b.mux(wr, data[bit as usize], cur);
                        }
                    }
                }
                _ => {}
            }
        }

        let probes = self
            .nets
            .iter()
            .enumerate()
            .map(|(i, decl)| (decl.name.clone(), net_bits[&NetId(i as u32)].clone()))
            .collect();

        TransitionSystem {
            nodes: b.into_nodes(),
            state_bits,
            input_bits,
            init,
            next,
            probes,
        }
    }
}

/// Bit-blasts `e`, returning `None` if a referenced net is unresolved.
fn eval_bits(
    b: &mut BitBuilder,
    net_bits: &HashMap<NetId, Vec<BitId>>,
    e: &Expr,
) -> Option<Vec<BitId>> {
    Some(match e {
        Expr::Const(v) => v
            .iter()
            .map(|l| {
                // an X/Z constant: the documented `extract` panic
                b.konst(
                    l.to_bool()
                        .expect("constants must be two-valued for extraction"),
                )
            })
            .collect(),
        Expr::Net(n) => net_bits.get(n)?.clone(),
        Expr::Index(n, i) => vec![net_bits.get(n)?[*i as usize]],
        Expr::Slice(n, hi, lo) => net_bits.get(n)?[*lo as usize..=*hi as usize].to_vec(),
        Expr::Not(a) => {
            let v = eval_bits(b, net_bits, a)?;
            v.into_iter().map(|x| b.not(x)).collect()
        }
        Expr::And(x, y) => {
            let (vx, vy) = (eval_bits(b, net_bits, x)?, eval_bits(b, net_bits, y)?);
            vx.into_iter().zip(vy).map(|(p, q)| b.and(p, q)).collect()
        }
        Expr::Or(x, y) => {
            let (vx, vy) = (eval_bits(b, net_bits, x)?, eval_bits(b, net_bits, y)?);
            vx.into_iter().zip(vy).map(|(p, q)| b.or(p, q)).collect()
        }
        Expr::Xor(x, y) => {
            let (vx, vy) = (eval_bits(b, net_bits, x)?, eval_bits(b, net_bits, y)?);
            vx.into_iter().zip(vy).map(|(p, q)| b.xor(p, q)).collect()
        }
        Expr::Eq(x, y) => {
            let (vx, vy) = (eval_bits(b, net_bits, x)?, eval_bits(b, net_bits, y)?);
            vec![b.eq_vec(&vx, &vy)]
        }
        Expr::Mux { sel, a, b: alt } => {
            let s = eval_bits(b, net_bits, sel)?[0];
            let (va, vb) = (eval_bits(b, net_bits, a)?, eval_bits(b, net_bits, alt)?);
            va.into_iter()
                .zip(vb)
                .map(|(p, q)| b.mux(s, p, q))
                .collect()
        }
        Expr::Concat(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(eval_bits(b, net_bits, p)?);
            }
            out
        }
        Expr::ReduceXor(a) => {
            let v = eval_bits(b, net_bits, a)?;
            let mut acc = b.konst(false);
            for x in v {
                acc = b.xor(acc, x);
            }
            vec![acc]
        }
        Expr::ReduceOr(a) => {
            let v = eval_bits(b, net_bits, a)?;
            let mut acc = b.konst(false);
            for x in v {
                acc = b.or(acc, x);
            }
            vec![acc]
        }
    })
}
