//! Bounded reachability exploration (the AsmL tool's FSM generation) with
//! attached PSL model checking.
//!
//! The engine is a *level-synchronous* breadth-first search over the
//! product of machine states and monitor sets. Each BFS level is expanded
//! by a pool of worker threads over disjoint frontier chunks; successors
//! are recorded into per-worker buffers and committed sequentially at the
//! level barrier in `(parent index, rule index, choice index)` order —
//! exactly the order the sequential reference engine visits them — so
//! node numbering, transition lists, statistics and verdicts are
//! identical for every worker count (see `ExploreConfig::workers`).

use crate::machine::{AsmState, Machine};
use crate::shard::{combine_fps, hash_state, mix64, MonitorSetArena, ShardedIndex, StateArena};
use crate::Value;
use la1_psl::{Directive, DirectiveKind, Monitor, Valuation};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Limits guiding the exploration, mirroring the AsmL configuration
/// parameters (domains, bounds) the paper says "are the most important
/// issues to consider".
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum number of product states explored.
    pub max_states: usize,
    /// Maximum number of transitions recorded.
    pub max_transitions: usize,
    /// Maximum BFS depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Stop expanding a path once a property violation determined it
    /// (the paper's `P_status && !P_value` stop filter).
    pub stop_on_violation: bool,
    /// Worker threads for the level-synchronous parallel exploration.
    /// `None` (the default) uses one worker per available core;
    /// `Some(1)` takes the sequential fast path. Results are identical
    /// for every worker count.
    pub workers: Option<usize>,
    /// Optional wall-clock budget. When exceeded the run stops at the
    /// next check point and reports [`ExploreVerdict::Partial`] with
    /// [`BudgetReason::WallClock`]. Unlike the structural limits above,
    /// a wall-clock cut-off is inherently timing-dependent: how much was
    /// explored before the deadline varies run to run, so reproducible
    /// campaigns should prefer state/transition budgets. `None` (the
    /// default) means unbounded.
    pub wall_clock: Option<Duration>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 200_000,
            max_transitions: 2_000_000,
            max_depth: None,
            stop_on_violation: true,
            workers: None,
            wall_clock: None,
        }
    }
}

impl ExploreConfig {
    /// The worker count a run with this configuration actually uses:
    /// `workers` clamped to at least 1, or — when unset — one worker
    /// per available core. This is the exact resolution
    /// [`Explorer::run`] applies (and reports in
    /// [`ExploreStats::workers`]); farm-style schedulers that already
    /// occupy the cores should pin `workers: Some(1)` to keep nested
    /// parallelism out of their jobs.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            Some(w) => w.max(1),
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Which budget cut an exploration or model-checking run short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock budget elapsed.
    WallClock,
    /// The state-count budget (`max_states`) was reached.
    MaxStates,
    /// The transition budget (`max_transitions`) was reached.
    MaxTransitions,
    /// The depth bound (`max_depth`) pruned at least one frontier node.
    MaxDepth,
}

impl BudgetReason {
    /// A stable machine-readable token for reports and journals
    /// (`Display` stays the human-readable phrasing).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetReason::WallClock => "wall-clock",
            BudgetReason::MaxStates => "max-states",
            BudgetReason::MaxTransitions => "max-transitions",
            BudgetReason::MaxDepth => "max-depth",
        }
    }

    /// The inverse of [`BudgetReason::as_str`].
    pub fn from_str_token(token: &str) -> Option<BudgetReason> {
        Some(match token {
            "wall-clock" => BudgetReason::WallClock,
            "max-states" => BudgetReason::MaxStates,
            "max-transitions" => BudgetReason::MaxTransitions,
            "max-depth" => BudgetReason::MaxDepth,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetReason::WallClock => write!(f, "wall-clock budget"),
            BudgetReason::MaxStates => write!(f, "state budget"),
            BudgetReason::MaxTransitions => write!(f, "transition budget"),
            BudgetReason::MaxDepth => write!(f, "depth bound"),
        }
    }
}

/// Completeness verdict of an exploration run: did the engine see the
/// whole reachable product graph, or did a budget stop it early?
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ExploreVerdict {
    /// The reachable product graph was exhausted within all budgets;
    /// `Holds` verdicts are proofs over the full model.
    #[default]
    Complete,
    /// A budget cut the run short: `Holds` verdicts only cover the
    /// `explored` states actually visited (the paper's
    /// under-approximation caveat, made explicit).
    Partial {
        /// Product states explored before the cut-off.
        explored: usize,
        /// Which budget fired first.
        reason: BudgetReason,
    },
}

impl ExploreVerdict {
    /// True for [`ExploreVerdict::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, ExploreVerdict::Complete)
    }

    /// The budget that cut a partial run short (`None` when complete) —
    /// what downstream merges (the farm's degraded-shard report)
    /// propagate instead of dropping the caveat.
    pub fn budget_reason(&self) -> Option<BudgetReason> {
        match self {
            ExploreVerdict::Complete => None,
            ExploreVerdict::Partial { reason, .. } => Some(*reason),
        }
    }
}

/// The explicit finite state machine produced by exploration.
///
/// When limits were hit this is an *under-approximation* of the model's
/// full FSM — the paper makes the same caveat for the AsmL tool.
#[derive(Debug, Clone)]
pub struct Fsm {
    states: Vec<AsmState>,
    transitions: Vec<(usize, u32, usize)>,
    rule_labels: Vec<String>,
    initial: usize,
}

impl Fsm {
    /// Number of FSM nodes (Table 1's "Number of Nodes").
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of FSM transitions (Table 1's "FSM Transitions").
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The explored states.
    pub fn states(&self) -> &[AsmState] {
        &self.states
    }

    /// Transitions as `(from, rule_label, to)` triples.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, &str, usize)> + '_ {
        self.transitions
            .iter()
            .map(|&(f, r, t)| (f, self.rule_labels[r as usize].as_str(), t))
    }

    /// Index of the initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Renders the FSM in Graphviz DOT format, labelling states with
    /// `fmt` (e.g. [`Machine::format_state`]).
    ///
    /// ```
    /// use la1_asm::{MachineBuilder, Value, Explorer, ExploreConfig};
    /// let mut b = MachineBuilder::new();
    /// let x = b.var("x", Value::Bool(false));
    /// b.rule("flip", |_| true, move |s| vec![vec![(x, Value::Bool(!s.bool(x)))]]);
    /// let m = b.build();
    /// let fsm = Explorer::new(&m, ExploreConfig::default()).run().fsm;
    /// let dot = fsm.to_dot(|s| m.format_state(s));
    /// assert!(dot.contains("digraph fsm"));
    /// assert!(dot.contains("flip"));
    /// ```
    pub fn to_dot<F: Fn(&AsmState) -> String>(&self, fmt: F) -> String {
        let mut out = String::from("digraph fsm {\n  rankdir=LR;\n");
        out.push_str(&format!("  n{} [shape=doublecircle];\n", self.initial));
        for (i, s) in self.states.iter().enumerate() {
            out.push_str(&format!(
                "  n{i} [label=\"{}\"];\n",
                fmt(s).replace('"', "'")
            ));
        }
        for (from, label, to) in self.transitions() {
            out.push_str(&format!("  n{from} -> n{to} [label=\"{label}\"];\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Counters reported by the exploration (Table 1 columns).
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Product states explored.
    pub states: usize,
    /// Transitions recorded.
    pub transitions: usize,
    /// Wall-clock exploration time.
    pub elapsed: Duration,
    /// True when a configured limit truncated the exploration
    /// (equivalent to `!verdict.is_complete()`).
    pub truncated: bool,
    /// Whether the run was exhaustive or budget-limited, and why.
    pub verdict: ExploreVerdict,
    /// Deepest BFS level reached.
    pub max_depth_reached: usize,
    /// Successors that resolved to an already-visited product state
    /// (every committed transition either discovers a node or is a
    /// dedup hit).
    pub dedup_hits: usize,
    /// Widest BFS level encountered (frontier peak).
    pub peak_frontier: usize,
    /// Worker threads the exploration ran with.
    pub workers: usize,
    /// Distinct machine states in the interning arena. At most `states`;
    /// lower when product nodes share a machine state across different
    /// monitor configurations.
    pub interned_states: usize,
}

/// A violating path through the model, from the initial state to the
/// state where the paper's stop filter fired.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated directive's name.
    pub property: String,
    /// `(rule that was fired, resulting state)`; the first entry has no
    /// rule — it is the initial state.
    pub path: Vec<(Option<String>, AsmState)>,
}

impl Counterexample {
    /// Renders the path with the machine's variable names.
    pub fn render(&self, machine: &Machine) -> String {
        let mut out = format!("counterexample for {}:\n", self.property);
        for (i, (rule, state)) in self.path.iter().enumerate() {
            match rule {
                None => out.push_str(&format!(
                    "  #{i} (initial) {}\n",
                    machine.format_state(state)
                )),
                Some(r) => out.push_str(&format!(
                    "  #{i} --{r}--> {}\n",
                    machine.format_state(state)
                )),
            }
        }
        out
    }
}

/// Outcome of checking one directive during exploration.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// No violation found in the explored portion.
    Holds,
    /// The stop filter fired; a counterexample path is attached.
    Violated(Counterexample),
    /// A `cover` directive's trigger was reached.
    Covered,
    /// A `cover` directive's trigger was never reached within bounds.
    NotCovered,
}

impl CheckOutcome {
    /// True for [`CheckOutcome::Holds`] and [`CheckOutcome::Covered`].
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Holds | CheckOutcome::Covered)
    }
}

/// Per-directive result of an exploration run.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Directive name.
    pub name: String,
    /// Verdict.
    pub outcome: CheckOutcome,
}

/// Complete result of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// The generated FSM.
    pub fsm: Fsm,
    /// Counters for Table 1.
    pub stats: ExploreStats,
    /// One report per attached directive.
    pub reports: Vec<PropertyReport>,
}

impl ExploreResult {
    /// True when every attached directive passed.
    pub fn all_pass(&self) -> bool {
        self.reports.iter().all(|r| r.outcome.is_pass())
    }

    /// The first violated directive's counterexample, if any.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.reports.iter().find_map(|r| match &r.outcome {
            CheckOutcome::Violated(c) => Some(c),
            _ => None,
        })
    }
}

struct StateValuation<'a> {
    machine: &'a Machine,
    state: &'a AsmState,
}

impl Valuation for StateValuation<'_> {
    fn value(&self, name: &str) -> bool {
        self.machine.predicate(name, self.state)
    }
}

/// A node of the product graph. States and monitor sets live in interning
/// arenas; the node is five words of plain indices, so the frontier and
/// the visited set never clone an [`AsmState`].
#[derive(Clone, Copy)]
struct Node {
    /// Handle into the state arena.
    state: u32,
    /// Handle into the monitor-set arena.
    mons: u32,
    /// Parent node index; `u32::MAX` for the root.
    parent: u32,
    /// Rule fired to reach this node (meaningless for the root).
    rule: u32,
    /// BFS depth.
    depth: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// What [`evaluate_successor`] observed while stepping the monitors:
/// per-directive bitmasks (directive `i` ↔ bit `i`, capped at 128
/// directives per run).
struct EvalMasks {
    /// Non-`assume` directives whose monitor reported a violation.
    viol: u128,
    /// An `assume` directive was violated — the path is vacuous.
    assume_viol: bool,
    /// Directives whose monitor has covered its trigger.
    cover: u128,
}

/// Steps a clone of the parent's monitors over `next_state`, writing the
/// stepped monitors into `mons` and their fingerprints into `fps` (both
/// reused scratch buffers — `Vec::clone_from` recycles their storage).
fn evaluate_successor(
    machine: &Machine,
    directives: &[Directive],
    parent_monitors: &[Monitor],
    next_state: &AsmState,
    mons: &mut Vec<Monitor>,
    fps: &mut Vec<u64>,
) -> EvalMasks {
    // clone_from element-wise so the monitors' obligation buffers are
    // recycled across successors instead of reallocated
    mons.truncate(parent_monitors.len());
    let reused = mons.len();
    for (dst, src) in mons.iter_mut().zip(parent_monitors) {
        dst.clone_from(src);
    }
    mons.extend(parent_monitors[reused..].iter().cloned());
    fps.clear();
    let env = StateValuation {
        machine,
        state: next_state,
    };
    let mut masks = EvalMasks {
        viol: 0,
        assume_viol: false,
        cover: 0,
    };
    for (i, mon) in mons.iter_mut().enumerate() {
        let st = mon.step(&env);
        if mon.covered() {
            masks.cover |= 1 << i;
        }
        if st.is_violation() {
            match directives[i].kind {
                DirectiveKind::Assume => masks.assume_viol = true,
                _ => masks.viol |= 1 << i,
            }
        }
        fps.push(mon.fingerprint());
    }
    masks
}

/// Where the monitors of a to-be-inserted node come from.
enum MonsSource<'m> {
    /// Already interned (index into the monitor-set arena).
    Interned(u32),
    /// Borrowed scratch — cloned only if the set turns out to be new.
    Borrowed(&'m [Monitor]),
    /// Owned (crossed a thread boundary) — moved into the arena if new.
    Owned(Vec<Monitor>),
}

/// A non-pruned successor ready to be committed.
struct Successor<'m> {
    parent: u32,
    rule: u32,
    /// The successor machine state; moved into the arena when new.
    state: &'m mut AsmState,
    /// Stepped per-monitor fingerprints.
    fps: &'m [u64],
    state_hash: u64,
    mons_combined: u64,
    mons: MonsSource<'m>,
}

/// One successor observation from a worker, replayed at the level
/// barrier. Buffers are merged in worker order, and each worker emits
/// records in `(parent, rule, choice)` order, so the concatenation is
/// exactly the sequential engine's visit order.
enum Rec {
    /// The stop filter pruned this path (assume violation, or assertion
    /// violation with `stop_on_violation`). `state` is carried only when
    /// a counterexample tail may be needed.
    Pruned {
        parent: u32,
        rule: u32,
        viol: u128,
        cover: u128,
        state: Option<AsmState>,
    },
    /// Successor resolved (exactly, incl. collision verification) to a
    /// node already in the visited table before this level.
    Seen {
        parent: u32,
        rule: u32,
        viol: u128,
        cover: u128,
        to: u32,
    },
    /// Successor not visited before this level: carries everything the
    /// merge needs to insert it (or to dedup it against a same-level
    /// twin committed earlier in the replay).
    Fresh {
        parent: u32,
        rule: u32,
        viol: u128,
        cover: u128,
        state: AsmState,
        state_hash: u64,
        mons_combined: u64,
        fps: Box<[u64]>,
        mons: MonsRec,
    },
}

/// Monitor payload of a [`Rec::Fresh`] record.
enum MonsRec {
    /// The stepped set matched one already interned before this level.
    Interned(u32),
    /// A new monitor configuration, cloned in the worker.
    Owned(Vec<Monitor>),
}

/// The mutable exploration state shared by the sequential fast path and
/// the parallel engine's merge phase (workers see it as `&Engine`).
struct Engine<'e> {
    machine: &'e Machine,
    directives: &'e [Directive],
    config: &'e ExploreConfig,
    nodes: Vec<Node>,
    arena: StateArena,
    mon_sets: MonitorSetArena,
    visited: ShardedIndex,
    transitions: Vec<(usize, u32, usize)>,
    /// `verdicts[i]`: `None` = still checking, `Some` = settled.
    verdicts: Vec<Option<CheckOutcome>>,
    covered: Vec<bool>,
    /// First budget that fired, if any (`None` = still exhaustive).
    truncated: Option<BudgetReason>,
    /// Wall-clock cut-off, precomputed from `config.wall_clock`.
    deadline: Option<Instant>,
    max_depth_reached: usize,
    dedup_hits: usize,
}

impl Engine<'_> {
    /// Records a budget hit; the first reason wins so the verdict names
    /// the budget that actually stopped the run.
    fn truncate(&mut self, reason: BudgetReason) {
        self.truncated.get_or_insert(reason);
    }

    /// True once the wall-clock budget has elapsed.
    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Exact lookup in the visited table: fingerprint probe, then
    /// collision verification against the state arena and the interned
    /// monitor fingerprints.
    fn lookup_product(&self, product_fp: u64, state: &AsmState, fps: &[u64]) -> Option<u32> {
        self.visited.lookup(product_fp, |idx| {
            let node = &self.nodes[idx as usize];
            self.arena.get(node.state) == state && *self.mon_sets.get(node.mons).fps == *fps
        })
    }

    fn apply_cover(&mut self, cover: u128) {
        if cover == 0 {
            return;
        }
        for i in 0..self.covered.len() {
            if cover & (1 << i) != 0 {
                self.covered[i] = true;
            }
        }
    }

    /// Settles `Violated` verdicts (with counterexamples) for every
    /// not-yet-settled directive in `viol`, in directive order.
    fn settle_violations(&mut self, parent: u32, rule: u32, viol: u128, tail: &AsmState) {
        for i in 0..self.directives.len() {
            if viol & (1 << i) != 0 && self.verdicts[i].is_none() {
                let mut path = self.reconstruct(parent);
                path.push((
                    Some(self.machine.rules()[rule as usize].name().to_string()),
                    tail.clone(),
                ));
                let cex = Counterexample {
                    property: self.directives[i].name.clone(),
                    path,
                };
                self.verdicts[i] = Some(CheckOutcome::Violated(cex));
            }
        }
    }

    /// The paper's stop condition: every directive has a settled verdict
    /// and the configuration asks to stop on violation.
    fn assert_violated_and_stop(&self) -> bool {
        self.config.stop_on_violation
            && !self.verdicts.is_empty()
            && self.verdicts.iter().all(|v| v.is_some())
    }

    /// Walks parent pointers to rebuild the path from the initial state
    /// to `node_idx` inclusive.
    fn reconstruct(&self, node_idx: u32) -> Vec<(Option<String>, AsmState)> {
        let mut rev = Vec::new();
        let mut cur = node_idx;
        loop {
            let node = self.nodes[cur as usize];
            let state = self.arena.get(node.state).clone();
            if node.parent == NO_PARENT {
                rev.push((None, state));
                break;
            }
            rev.push((
                Some(self.machine.rules()[node.rule as usize].name().to_string()),
                state,
            ));
            cur = node.parent;
        }
        rev.reverse();
        rev
    }

    /// Deduplicates a non-pruned successor against the visited table and
    /// records the transition, inserting a new node when the product
    /// state is fresh. `Break` means a limit stopped the exploration.
    fn commit_successor(&mut self, s: Successor<'_>) -> ControlFlow<()> {
        let product_fp = mix64(s.state_hash, s.mons_combined);
        let existing = self.lookup_product(product_fp, s.state, s.fps);
        let to = match existing {
            Some(t) => {
                self.dedup_hits += 1;
                t
            }
            None => {
                if self.nodes.len() >= self.config.max_states {
                    self.truncate(BudgetReason::MaxStates);
                    return ControlFlow::Break(());
                }
                let idx = self.nodes.len() as u32;
                let depth = self.nodes[s.parent as usize].depth + 1;
                let state_idx = self.arena.intern(s.state_hash, s.state);
                let mons_idx = match s.mons {
                    MonsSource::Interned(m) => m,
                    MonsSource::Borrowed(ms) => {
                        self.mon_sets
                            .intern_with(s.mons_combined, s.fps, || ms.to_vec())
                    }
                    MonsSource::Owned(v) => {
                        self.mon_sets.intern_with(s.mons_combined, s.fps, move || v)
                    }
                };
                self.visited.insert_mut(product_fp, idx);
                self.nodes.push(Node {
                    state: state_idx,
                    mons: mons_idx,
                    parent: s.parent,
                    rule: s.rule,
                    depth,
                });
                idx
            }
        };
        self.transitions
            .push((s.parent as usize, s.rule, to as usize));
        ControlFlow::Continue(())
    }

    /// The sequential reference engine (`workers = 1`): a plain BFS with
    /// the historic visit order, kept allocation-free in the hot loop by
    /// the scratch buffers and the interning arenas.
    fn run_sequential(&mut self) {
        let machine = self.machine;
        let mut scratch_next = AsmState { values: Vec::new() };
        let mut scratch_mons: Vec<Monitor> = Vec::new();
        let mut scratch_fps: Vec<u64> = Vec::new();
        let mut frontier = 0usize;
        'bfs: while frontier < self.nodes.len() {
            let node_idx = frontier as u32;
            frontier += 1;
            // sample the clock every 64 node expansions — cheap enough
            // to keep out of the per-successor hot path
            if frontier & 63 == 0 && self.past_deadline() {
                self.truncate(BudgetReason::WallClock);
                break 'bfs;
            }
            let node = self.nodes[node_idx as usize];
            self.max_depth_reached = self.max_depth_reached.max(node.depth as usize);
            if let Some(max) = self.config.max_depth {
                if node.depth as usize >= max {
                    self.truncate(BudgetReason::MaxDepth);
                    continue;
                }
            }
            for (rule_idx, rule) in machine.rules().iter().enumerate() {
                if !(rule.guard)(self.arena.get(node.state)) {
                    continue;
                }
                let choices = (rule.body)(self.arena.get(node.state));
                for updates in &choices {
                    if self.transitions.len() >= self.config.max_transitions {
                        self.truncate(BudgetReason::MaxTransitions);
                        break 'bfs;
                    }
                    machine
                        .apply_into(self.arena.get(node.state), rule, updates, &mut scratch_next)
                        .expect("model produced an inconsistent update set");
                    let eval = evaluate_successor(
                        machine,
                        self.directives,
                        &self.mon_sets.get(node.mons).monitors,
                        &scratch_next,
                        &mut scratch_mons,
                        &mut scratch_fps,
                    );
                    self.apply_cover(eval.cover);
                    if eval.viol != 0 {
                        self.settle_violations(node_idx, rule_idx as u32, eval.viol, &scratch_next);
                    }
                    if eval.assume_viol || (self.config.stop_on_violation && eval.viol != 0) {
                        // the paper's stop filter: do not extend this path
                        if self.assert_violated_and_stop() {
                            break 'bfs;
                        }
                        continue;
                    }
                    let state_hash = hash_state(&scratch_next);
                    let mons_combined = combine_fps(&scratch_fps);
                    let committed = self.commit_successor(Successor {
                        parent: node_idx,
                        rule: rule_idx as u32,
                        state: &mut scratch_next,
                        fps: &scratch_fps,
                        state_hash,
                        mons_combined,
                        mons: MonsSource::Borrowed(&scratch_mons),
                    });
                    if committed.is_break() {
                        break 'bfs;
                    }
                }
            }
        }
    }

    /// Expands the frontier slice `lo..hi` into `out`. Runs on worker
    /// threads with a shared `&Engine` view; the visited table and the
    /// arenas are only read. `stop` is the early-exit flag, checked once
    /// per node expansion.
    fn expand_range(
        &self,
        lo: usize,
        hi: usize,
        stop: &AtomicBool,
        viol_seen: &Mutex<u128>,
        all_mask: u128,
        out: &mut Vec<Rec>,
    ) {
        let machine = self.machine;
        let mut scratch_next = AsmState { values: Vec::new() };
        let mut scratch_mons: Vec<Monitor> = Vec::new();
        let mut scratch_fps: Vec<u64> = Vec::new();
        for node_idx in lo..hi {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let node = self.nodes[node_idx];
            let cur = self.arena.get(node.state);
            let parent_monitors = &self.mon_sets.get(node.mons).monitors;
            let parent = node_idx as u32;
            for (rule_idx, rule) in machine.rules().iter().enumerate() {
                if !(rule.guard)(cur) {
                    continue;
                }
                let rule_u = rule_idx as u32;
                let choices = (rule.body)(cur);
                for updates in &choices {
                    machine
                        .apply_into(cur, rule, updates, &mut scratch_next)
                        .expect("model produced an inconsistent update set");
                    let eval = evaluate_successor(
                        machine,
                        self.directives,
                        parent_monitors,
                        &scratch_next,
                        &mut scratch_mons,
                        &mut scratch_fps,
                    );
                    if eval.assume_viol || (self.config.stop_on_violation && eval.viol != 0) {
                        out.push(Rec::Pruned {
                            parent,
                            rule: rule_u,
                            viol: eval.viol,
                            cover: eval.cover,
                            state: (eval.viol != 0).then(|| scratch_next.clone()),
                        });
                        if eval.viol != 0 && self.config.stop_on_violation && all_mask != 0 {
                            let mut seen = viol_seen.lock().expect("viol_seen poisoned");
                            *seen |= eval.viol;
                            // Every directive has (or will get) a settled
                            // verdict once its bit is seen — the merge is
                            // guaranteed to reach the records behind these
                            // bits, so remaining expansion work is moot.
                            if *seen == all_mask {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                        continue;
                    }
                    let state_hash = hash_state(&scratch_next);
                    let mons_combined = combine_fps(&scratch_fps);
                    let product_fp = mix64(state_hash, mons_combined);
                    if let Some(to) = self.lookup_product(product_fp, &scratch_next, &scratch_fps) {
                        out.push(Rec::Seen {
                            parent,
                            rule: rule_u,
                            viol: eval.viol,
                            cover: eval.cover,
                            to,
                        });
                    } else {
                        let mons = match self.mon_sets.lookup(mons_combined, &scratch_fps) {
                            Some(m) => MonsRec::Interned(m),
                            None => MonsRec::Owned(scratch_mons.clone()),
                        };
                        out.push(Rec::Fresh {
                            parent,
                            rule: rule_u,
                            viol: eval.viol,
                            cover: eval.cover,
                            state: scratch_next.clone(),
                            state_hash,
                            mons_combined,
                            fps: scratch_fps.clone().into_boxed_slice(),
                            mons,
                        });
                    }
                }
            }
        }
    }

    /// The parallel level-synchronous engine: expand each BFS level with
    /// `workers` threads over contiguous frontier chunks, then replay the
    /// per-worker record buffers in order at the level barrier. The
    /// replay performs all verdict settling, deduplication and limit
    /// accounting, making the run observably identical to `workers = 1`.
    fn run_parallel(&mut self, workers: usize) {
        let stop = AtomicBool::new(false);
        // Union of violation bits already carried by settled verdicts —
        // used for the early-exit: once every directive's bit is seen,
        // the level's outcome is decided and workers may stop expanding.
        // `assume` directives never settle, so their (always-clear) bits
        // correctly keep the mask from filling when assumes are present.
        let all_mask: u128 = if self.directives.is_empty() || !self.config.stop_on_violation {
            0 // early-exit disabled
        } else if self.directives.len() >= 128 {
            u128::MAX
        } else {
            (1 << self.directives.len()) - 1
        };
        let mut init_seen = 0u128;
        for (i, v) in self.verdicts.iter().enumerate() {
            if v.is_some() {
                init_seen |= 1 << i;
            }
        }
        let viol_seen = Mutex::new(init_seen);

        let mut level_start = 0usize;
        while level_start < self.nodes.len() {
            // the wall clock is sampled only at level barriers: workers
            // stay free of shared cut-off state beyond the existing
            // early-exit flag, at the cost of finishing the level in
            // flight when the deadline lands mid-level
            if self.past_deadline() {
                self.truncate(BudgetReason::WallClock);
                break;
            }
            let level_end = self.nodes.len();
            let depth = self.nodes[level_start].depth;
            self.max_depth_reached = self.max_depth_reached.max(depth as usize);
            if let Some(max) = self.config.max_depth {
                if depth as usize >= max {
                    self.truncate(BudgetReason::MaxDepth);
                    break;
                }
            }
            let count = level_end - level_start;
            let used = workers.min(count);
            let chunk = count.div_ceil(used);
            let mut buffers: Vec<Vec<Rec>> = (0..used).map(|_| Vec::new()).collect();
            let eng: &Engine<'_> = &*self;
            std::thread::scope(|s| {
                let mut iter = buffers.iter_mut().enumerate();
                // run the first chunk on the current thread
                let (_, first_buf) = iter.next().expect("at least one chunk");
                for (wi, buf) in iter {
                    let lo = level_start + wi * chunk;
                    let hi = (lo + chunk).min(level_end);
                    let stop = &stop;
                    let viol_seen = &viol_seen;
                    s.spawn(move || eng.expand_range(lo, hi, stop, viol_seen, all_mask, buf));
                }
                eng.expand_range(
                    level_start,
                    (level_start + chunk).min(level_end),
                    &stop,
                    &viol_seen,
                    all_mask,
                    first_buf,
                );
            });

            // Deterministic merge: replay records in (worker, emission)
            // order — the sequential visit order — so dedup decisions,
            // node numbering, verdicts and limit cut-offs are identical.
            let mut halt = false;
            'merge: for rec in buffers.into_iter().flatten() {
                if self.transitions.len() >= self.config.max_transitions {
                    self.truncate(BudgetReason::MaxTransitions);
                    halt = true;
                    break 'merge;
                }
                match rec {
                    Rec::Pruned {
                        parent,
                        rule,
                        viol,
                        cover,
                        state,
                    } => {
                        self.apply_cover(cover);
                        if viol != 0 {
                            let tail = state.expect("violating pruned record carries its state");
                            self.settle_violations(parent, rule, viol, &tail);
                        }
                        if self.assert_violated_and_stop() {
                            halt = true;
                            break 'merge;
                        }
                    }
                    Rec::Seen {
                        parent,
                        rule,
                        viol,
                        cover,
                        to,
                    } => {
                        self.apply_cover(cover);
                        if viol != 0 {
                            let tail = self.arena.get(self.nodes[to as usize].state).clone();
                            self.settle_violations(parent, rule, viol, &tail);
                        }
                        self.dedup_hits += 1;
                        self.transitions.push((parent as usize, rule, to as usize));
                    }
                    Rec::Fresh {
                        parent,
                        rule,
                        viol,
                        cover,
                        mut state,
                        state_hash,
                        mons_combined,
                        fps,
                        mons,
                    } => {
                        self.apply_cover(cover);
                        if viol != 0 {
                            self.settle_violations(parent, rule, viol, &state);
                        }
                        let mons = match mons {
                            MonsRec::Interned(m) => MonsSource::Interned(m),
                            MonsRec::Owned(v) => MonsSource::Owned(v),
                        };
                        let committed = self.commit_successor(Successor {
                            parent,
                            rule,
                            state: &mut state,
                            fps: &fps,
                            state_hash,
                            mons_combined,
                            mons,
                        });
                        if committed.is_break() {
                            halt = true;
                            break 'merge;
                        }
                    }
                }
            }
            if halt {
                break;
            }
            level_start = level_end;
        }
    }
}

/// The exploration engine.
///
/// Create one with [`Explorer::new`], optionally attach PSL directives
/// with [`Explorer::with_directives`], then call [`Explorer::run`].
pub struct Explorer<'a> {
    machine: &'a Machine,
    config: ExploreConfig,
    directives: Vec<Directive>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer over `machine`.
    pub fn new(machine: &'a Machine, config: ExploreConfig) -> Self {
        Explorer {
            machine,
            config,
            directives: Vec::new(),
        }
    }

    /// Attaches PSL directives to be checked during exploration.
    pub fn with_directives(mut self, directives: &[Directive]) -> Self {
        self.directives.extend(directives.iter().cloned());
        self
    }

    /// Runs the bounded exploration, returning the FSM, statistics and a
    /// verdict per attached directive.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 directives are attached (the engine packs
    /// per-directive flags into 128-bit masks) or if the model produces
    /// an inconsistent update set.
    pub fn run(self) -> ExploreResult {
        let start = Instant::now();
        let machine = self.machine;
        let directives: &[Directive] = &self.directives;
        assert!(
            directives.len() <= 128,
            "Explorer supports at most 128 attached directives"
        );
        let workers = self.config.effective_workers();

        let mut engine = Engine {
            machine,
            directives,
            config: &self.config,
            nodes: Vec::new(),
            arena: StateArena::new(),
            mon_sets: MonitorSetArena::new(),
            visited: ShardedIndex::new(workers),
            transitions: Vec::new(),
            verdicts: vec![None; directives.len()],
            covered: vec![false; directives.len()],
            truncated: None,
            deadline: self.config.wall_clock.map(|budget| start + budget),
            max_depth_reached: 0,
            dedup_hits: 0,
        };

        // initial node: monitors observe the initial state as cycle 0
        let mut init_state = machine.initial_state();
        let mut init_monitors: Vec<Monitor> = directives
            .iter()
            .map(|d| Monitor::new(&d.property))
            .collect();
        let mut init_prune = false;
        {
            let env = StateValuation {
                machine,
                state: &init_state,
            };
            for (i, mon) in init_monitors.iter_mut().enumerate() {
                let st = mon.step(&env);
                if mon.covered() {
                    engine.covered[i] = true;
                }
                if st.is_violation() && engine.verdicts[i].is_none() {
                    match directives[i].kind {
                        DirectiveKind::Assume => init_prune = true,
                        _ => {
                            engine.verdicts[i] = Some(CheckOutcome::Violated(Counterexample {
                                property: directives[i].name.clone(),
                                path: vec![(None, init_state.clone())],
                            }));
                        }
                    }
                }
            }
        }
        let init_fps: Vec<u64> = init_monitors.iter().map(Monitor::fingerprint).collect();
        let state_hash = hash_state(&init_state);
        let mons_combined = combine_fps(&init_fps);
        let state_idx = engine.arena.intern(state_hash, &mut init_state);
        let mons_idx = engine
            .mon_sets
            .intern_with(mons_combined, &init_fps, move || init_monitors);
        engine
            .visited
            .insert_mut(mix64(state_hash, mons_combined), 0);
        engine.nodes.push(Node {
            state: state_idx,
            mons: mons_idx,
            parent: NO_PARENT,
            rule: 0,
            depth: 0,
        });

        if !init_prune {
            if workers <= 1 {
                engine.run_sequential();
            } else {
                engine.run_parallel(workers);
            }
        }

        let reports = directives
            .iter()
            .enumerate()
            .map(|(i, d)| PropertyReport {
                name: d.name.clone(),
                outcome: match (engine.verdicts[i].clone(), d.kind) {
                    (Some(v), _) => v,
                    (None, DirectiveKind::Cover) => {
                        if engine.covered[i] {
                            CheckOutcome::Covered
                        } else {
                            CheckOutcome::NotCovered
                        }
                    }
                    (None, _) => CheckOutcome::Holds,
                },
            })
            .collect();

        let peak_frontier = {
            let depth_cap = engine.nodes.last().map_or(0, |n| n.depth as usize + 1);
            let mut widths = vec![0usize; depth_cap];
            for n in &engine.nodes {
                widths[n.depth as usize] += 1;
            }
            widths.into_iter().max().unwrap_or(0)
        };

        let fsm = Fsm {
            states: engine
                .nodes
                .iter()
                .map(|n| engine.arena.get(n.state).clone())
                .collect(),
            transitions: engine.transitions,
            rule_labels: machine
                .rules()
                .iter()
                .map(|r| r.name().to_string())
                .collect(),
            initial: 0,
        };
        let verdict = match engine.truncated {
            None => ExploreVerdict::Complete,
            Some(reason) => ExploreVerdict::Partial {
                explored: fsm.num_states(),
                reason,
            },
        };
        let stats = ExploreStats {
            states: fsm.num_states(),
            transitions: fsm.num_transitions(),
            elapsed: start.elapsed(),
            truncated: !verdict.is_complete(),
            verdict,
            max_depth_reached: engine.max_depth_reached,
            dedup_hits: engine.dedup_hits,
            peak_frontier,
            workers,
            interned_states: engine.arena.len(),
        };
        ExploreResult {
            fsm,
            stats,
            reports,
        }
    }
}

/// The finite domain of an integer variable: the values `lo..=hi`.
///
/// Mirrors AsmL's finite domains, "defined as finite collections of
/// values from which method arguments are taken" — the paper calls
/// defining them "the most important issue to consider" when configuring
/// the exploration.
///
/// ```
/// use la1_asm::{int_domain, Value};
/// assert_eq!(int_domain(0, 2), vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
/// ```
pub fn int_domain(lo: i64, hi: i64) -> Vec<Value> {
    (lo..=hi).map(Value::Int).collect()
}
