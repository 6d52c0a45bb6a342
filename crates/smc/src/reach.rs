//! Symbolic forward reachability and the model-checker front end.

use crate::synth::{synthesize, UnsupportedPropertyError};
use la1_bdd::{Bdd, BddOverflowError, NodeId, VarId};
use la1_psl::{Directive, DirectiveKind};
use la1_rtl::{BitExpr, BitId, TransitionSystem};
use std::time::{Duration, Instant};

/// Image-computation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One conjoined transition relation, built up front —
    /// RuleBase-1.5-era behaviour; blows up on the 4-bank LA-1 (Table 2).
    #[default]
    Monolithic,
    /// Per-bit relation partitions with early quantification — the
    /// Table 2 ablation. On the read-mode instance it peaks higher than
    /// `Monolithic` (1 and 2 banks) and explodes earlier (3 banks), so
    /// it does not show the limit to be a tool-era artefact.
    Partitioned,
}

/// Model-checking resource configuration.
#[derive(Debug, Clone)]
pub struct SmcConfig {
    /// Image strategy.
    pub strategy: Strategy,
    /// BDD node budget; exhaustion reports
    /// [`SmcOutcome::StateExplosion`].
    pub node_budget: usize,
    /// Bound on fixpoint iterations (`None` = until convergence). When
    /// the bound cuts the fixpoint short with no violation found, the
    /// outcome is [`SmcOutcome::Partial`], not a proof.
    pub max_iterations: Option<usize>,
    /// Optional wall-clock budget, checked once per fixpoint iteration;
    /// when it elapses the run reports [`SmcOutcome::Partial`] instead
    /// of iterating indefinitely. How many iterations fit in the budget
    /// is timing-dependent, so reproducible campaigns should prefer
    /// `max_iterations`/`node_budget`. `None` (default) = unbounded.
    pub wall_clock: Option<Duration>,
}

impl Default for SmcConfig {
    fn default() -> Self {
        SmcConfig {
            strategy: Strategy::Monolithic,
            node_budget: Bdd::DEFAULT_BUDGET,
            max_iterations: None,
            wall_clock: None,
        }
    }
}

/// Which budget stopped a fixpoint before convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmcBudgetReason {
    /// The wall-clock budget elapsed.
    WallClock,
    /// The `max_iterations` bound was reached.
    MaxIterations,
}

impl std::fmt::Display for SmcBudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmcBudgetReason::WallClock => write!(f, "wall-clock budget"),
            SmcBudgetReason::MaxIterations => write!(f, "iteration bound"),
        }
    }
}

/// Resource statistics (the paper's Table 2 columns).
#[derive(Debug, Clone, Default)]
pub struct SmcStats {
    /// Wall-clock checking time.
    pub cpu_time: Duration,
    /// Peak number of BDD nodes allocated ("BDDs").
    pub bdd_nodes: usize,
    /// Approximate BDD memory in bytes ("Memory").
    pub memory_bytes: usize,
    /// Reachable-state count (approximate, from the final fixpoint).
    pub reachable_states: f64,
    /// Breadth-first iterations until fixpoint or failure.
    pub iterations: usize,
}

/// A counterexample: one assignment of the named state bits per step.
#[derive(Debug, Clone)]
pub struct SmcTrace {
    /// Names of the state bits, in trace order.
    pub state_bits: Vec<String>,
    /// One `Vec<bool>` per step, from the initial state to the failure.
    pub steps: Vec<Vec<bool>>,
}

impl SmcTrace {
    /// Renders the trace with one `name=value` list per step, omitting
    /// internal monitor bits.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("step {i}:"));
            for (name, &v) in self.state_bits.iter().zip(step) {
                if !name.starts_with("psl::") {
                    out.push_str(&format!(" {name}={}", v as u8));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The verdict of one check.
#[derive(Debug, Clone)]
pub enum SmcOutcome {
    /// The property holds in all reachable states.
    Proved,
    /// The property fails; a trace leads to the violation.
    Violated(SmcTrace),
    /// The BDD node budget was exhausted — the paper's Table 2 verdict
    /// for the 4-bank configuration.
    StateExplosion,
    /// A budget stopped the fixpoint before convergence with no
    /// violation among the states reached so far: neither a proof nor a
    /// counterexample, only a bounded exploration of `explored`
    /// breadth-first rings.
    Partial {
        /// Fixpoint iterations completed before the cut-off.
        explored: usize,
        /// Which budget fired.
        reason: SmcBudgetReason,
    },
}

/// The result of checking one directive.
#[derive(Debug, Clone)]
pub struct SmcReport {
    /// Directive name.
    pub name: String,
    /// Verdict.
    pub outcome: SmcOutcome,
    /// Resource statistics.
    pub stats: SmcStats,
}

impl SmcReport {
    /// True when the outcome is [`SmcOutcome::Proved`].
    pub fn proved(&self) -> bool {
        matches!(self.outcome, SmcOutcome::Proved)
    }
}

/// The model checker front end: binds a [`TransitionSystem`] to a
/// configuration and checks PSL assert directives against it.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    ts: TransitionSystem,
    config: SmcConfig,
}

impl ModelChecker {
    /// Creates a checker for `ts`.
    pub fn new(ts: &TransitionSystem, config: SmcConfig) -> Self {
        ModelChecker {
            ts: ts.clone(),
            config,
        }
    }

    /// Checks one `assert` directive.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedPropertyError`] for liveness constructs or
    /// non-`assert` directives.
    pub fn check(&self, directive: &Directive) -> Result<SmcReport, UnsupportedPropertyError> {
        if directive.kind != DirectiveKind::Assert {
            return Err(UnsupportedPropertyError {
                construct: format!("a {} directive (only assert is checkable)", directive.kind),
            });
        }
        let monitor = synthesize(&self.ts, &directive.property, &directive.name)?;
        let start = Instant::now();
        let mut run = Run::new(&monitor.ts, &self.config);
        let outcome = match run.reachability(monitor.fail) {
            Ok(o) => o,
            Err(BddOverflowError { .. }) => SmcOutcome::StateExplosion,
        };
        let stats = SmcStats {
            cpu_time: start.elapsed(),
            bdd_nodes: run.bdd.peak_node_count(),
            memory_bytes: run.bdd.memory_bytes(),
            reachable_states: run.reachable_count(),
            iterations: run.iterations,
        };
        Ok(SmcReport {
            name: directive.name.clone(),
            outcome,
            stats,
        })
    }
}

/// One reachability run over an extended transition system.
struct Run<'a> {
    ts: &'a TransitionSystem,
    config: &'a SmcConfig,
    bdd: Bdd,
    /// node cache, indexed by BitId: BDD over current-state + input
    /// variables
    node_cache: Vec<Option<NodeId>>,
    cur_vars: Vec<VarId>,
    next_vars: Vec<VarId>,
    input_vars: Vec<VarId>,
    reached: NodeId,
    frontiers: Vec<NodeId>,
    iterations: usize,
}

impl<'a> Run<'a> {
    fn new(ts: &'a TransitionSystem, config: &'a SmcConfig) -> Self {
        let ns = ts.state_bits.len() as u32;
        let ni = ts.input_bits.len() as u32;
        // variable order: free inputs at the top (they feed everything
        // and are quantified in every image), then the current/next
        // state pairs interleaved
        let bdd = Bdd::with_budget(2 * ns + ni, config.node_budget);
        let input_vars: Vec<VarId> = (0..ni).map(VarId).collect();
        let cur_vars: Vec<VarId> = (0..ns).map(|i| VarId(ni + 2 * i)).collect();
        let next_vars: Vec<VarId> = (0..ns).map(|i| VarId(ni + 2 * i + 1)).collect();
        Run {
            ts,
            config,
            bdd,
            node_cache: vec![None; ts.nodes.len()],
            cur_vars,
            next_vars,
            input_vars,
            reached: Bdd::ZERO,
            frontiers: Vec::new(),
            iterations: 0,
        }
    }

    /// BDD (over current-state and input variables) of a DAG node.
    fn node_bdd(&mut self, id: BitId) -> Result<NodeId, BddOverflowError> {
        if let Some(n) = self.node_cache[id as usize] {
            return Ok(n);
        }
        let r = match self.ts.nodes[id as usize] {
            BitExpr::Const(b) => self.bdd.constant(b),
            BitExpr::Var(v) => {
                let ni = self.ts.input_bits.len() as u32;
                if v < ni {
                    self.bdd.var(self.input_vars[v as usize].0)
                } else {
                    self.bdd.var(self.cur_vars[(v - ni) as usize].0)
                }
            }
            BitExpr::Not(a) => {
                let x = self.node_bdd(a)?;
                self.bdd.not(x)?
            }
            BitExpr::And(a, b) => {
                let (x, y) = (self.node_bdd(a)?, self.node_bdd(b)?);
                self.bdd.and(x, y)?
            }
            BitExpr::Or(a, b) => {
                let (x, y) = (self.node_bdd(a)?, self.node_bdd(b)?);
                self.bdd.or(x, y)?
            }
            BitExpr::Xor(a, b) => {
                let (x, y) = (self.node_bdd(a)?, self.node_bdd(b)?);
                self.bdd.xor(x, y)?
            }
        };
        self.node_cache[id as usize] = Some(r);
        Ok(r)
    }

    /// The initial-state predicate over current-state variables.
    fn initial(&mut self) -> Result<NodeId, BddOverflowError> {
        let mut acc = Bdd::ONE;
        for (i, &b) in self.ts.init.iter().enumerate() {
            let v = if b {
                self.bdd.var(self.cur_vars[i].0)
            } else {
                self.bdd.nvar(self.cur_vars[i].0)
            };
            acc = self.bdd.and(acc, v)?;
        }
        Ok(acc)
    }

    /// Per-bit relation partitions `next_i <-> f_i(cur, inputs)`.
    fn partitions(&mut self) -> Result<Vec<NodeId>, BddOverflowError> {
        let next_fns: Vec<BitId> = self.ts.next.clone();
        let mut parts = Vec::with_capacity(next_fns.len());
        for (i, f) in next_fns.into_iter().enumerate() {
            let fb = self.node_bdd(f)?;
            let nv = self.bdd.var(self.next_vars[i].0);
            parts.push(self.bdd.iff(nv, fb)?);
        }
        Ok(parts)
    }

    /// Forward reachability until a `fail` state is reached, the
    /// fixpoint converges, or resources run out.
    fn reachability(&mut self, fail: BitId) -> Result<SmcOutcome, BddOverflowError> {
        let fail_bdd = self.node_bdd(fail)?;
        // bad states: some input makes fail true
        let bad = self.bdd.exists(fail_bdd, &self.input_vars.clone())?;

        let init = self.initial()?;
        self.reached = init;
        self.frontiers.push(init);

        // does the initial state already fail?
        let hit0 = self.bdd.and(init, bad)?;
        if hit0 != Bdd::ZERO {
            let trace = self.build_trace(0, hit0, fail_bdd)?;
            return Ok(SmcOutcome::Violated(trace));
        }

        let parts = self.partitions()?;
        let monolithic = match self.config.strategy {
            Strategy::Monolithic => Some(tree_and(&mut self.bdd, parts.clone())?),
            Strategy::Partitioned => None,
        };
        let quant_vars: Vec<VarId> = self
            .cur_vars
            .iter()
            .chain(self.input_vars.iter())
            .copied()
            .collect();
        let rename_back: Vec<(VarId, VarId)> = self
            .next_vars
            .iter()
            .zip(self.cur_vars.iter())
            .map(|(&n, &c)| (n, c))
            .collect();

        let deadline = self.config.wall_clock.map(|budget| Instant::now() + budget);
        let mut frontier = init;
        loop {
            if let Some(max) = self.config.max_iterations {
                if self.iterations >= max {
                    return Ok(SmcOutcome::Partial {
                        explored: self.iterations,
                        reason: SmcBudgetReason::MaxIterations,
                    });
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(SmcOutcome::Partial {
                    explored: self.iterations,
                    reason: SmcBudgetReason::WallClock,
                });
            }
            self.iterations += 1;
            // image of the frontier
            let img_next = match (&monolithic, self.config.strategy) {
                (Some(t), _) => self.bdd.and_exists(frontier, *t, &quant_vars)?,
                (None, _) => self.image_partitioned(frontier, &parts)?,
            };
            let img = self.bdd.rename(img_next, &rename_back)?;
            let new = self.bdd.diff(img, self.reached)?;
            if new == Bdd::ZERO {
                return Ok(SmcOutcome::Proved);
            }
            self.reached = self.bdd.or(self.reached, img)?;
            self.frontiers.push(new);
            let hit = self.bdd.and(new, bad)?;
            if hit != Bdd::ZERO {
                let k = self.frontiers.len() - 1;
                let trace = self.build_trace(k, hit, fail_bdd)?;
                return Ok(SmcOutcome::Violated(trace));
            }
            frontier = new;
        }
    }

    /// Image with per-bit partitions and early quantification: conjoin
    /// partitions one at a time, quantifying away current/input
    /// variables that no later partition mentions.
    fn image_partitioned(
        &mut self,
        frontier: NodeId,
        parts: &[NodeId],
    ) -> Result<NodeId, BddOverflowError> {
        // supports of the remaining partitions, from the back
        let mut remaining_support: Vec<Vec<VarId>> = Vec::with_capacity(parts.len() + 1);
        remaining_support.push(Vec::new());
        for p in parts.iter().rev() {
            let mut s = self.bdd.support(*p);
            s.extend(remaining_support.last().unwrap().iter().copied());
            s.sort_unstable();
            s.dedup();
            remaining_support.push(s);
        }
        remaining_support.reverse();

        let quantifiable: Vec<VarId> = self
            .cur_vars
            .iter()
            .chain(self.input_vars.iter())
            .copied()
            .collect();
        let mut acc = frontier;
        for (i, &p) in parts.iter().enumerate() {
            // variables not appearing in any later partition can go now
            let later = &remaining_support[i + 1];
            let gone: Vec<VarId> = quantifiable
                .iter()
                .copied()
                .filter(|v| later.binary_search(v).is_err())
                .collect();
            acc = self.bdd.and_exists(acc, p, &gone)?;
        }
        Ok(acc)
    }

    /// Reconstructs a concrete trace from the frontier rings.
    fn build_trace(
        &mut self,
        k: usize,
        hit: NodeId,
        fail_bdd: NodeId,
    ) -> Result<SmcTrace, BddOverflowError> {
        // pick a concrete bad state in ring k (with an input making fail
        // true, so the final state is genuinely violating)
        let cur_vars = self.cur_vars.clone();
        let with_inputs = self.bdd.and(hit, fail_bdd)?;
        let pick_from = if with_inputs != Bdd::ZERO {
            with_inputs
        } else {
            hit
        };
        let mut states_rev: Vec<Vec<bool>> = Vec::new();
        let mut target = self.cube_of(pick_from, &cur_vars)?;
        states_rev.push(self.decode(&target));
        for ring in (0..k).rev() {
            // predecessor in ring `ring` of `target`
            let target_next = {
                let map: Vec<(VarId, VarId)> = self
                    .cur_vars
                    .iter()
                    .zip(self.next_vars.iter())
                    .map(|(&c, &n)| (c, n))
                    .collect();
                self.bdd.rename(target, &map)?
            };
            let parts = self.partitions()?;
            let t = tree_and(&mut self.bdd, parts)?;
            let step = self.bdd.and(t, target_next)?;
            let pre_full = {
                let mut vars = self.next_vars.clone();
                vars.extend(self.input_vars.iter().copied());
                self.bdd.exists(step, &vars)?
            };
            let pre = self.bdd.and(pre_full, self.frontiers[ring])?;
            debug_assert_ne!(pre, Bdd::ZERO, "ring {ring} must contain a predecessor");
            target = self.cube_of(pre, &cur_vars)?;
            states_rev.push(self.decode(&target));
        }
        states_rev.reverse();
        Ok(SmcTrace {
            state_bits: self.ts.state_bits.clone(),
            steps: states_rev,
        })
    }

    /// A single concrete state of `set`, as a BDD cube over `vars`.
    fn cube_of(&mut self, set: NodeId, vars: &[VarId]) -> Result<NodeId, BddOverflowError> {
        let assignment = self
            .bdd
            .one_sat_over(set, vars)
            .expect("nonempty set has a witness");
        let mut acc = Bdd::ONE;
        for (v, b) in assignment {
            let lit = if b {
                self.bdd.var(v.0)
            } else {
                self.bdd.nvar(v.0)
            };
            acc = self.bdd.and(acc, lit)?;
        }
        Ok(acc)
    }

    /// Decodes a state cube into per-bit values.
    fn decode(&mut self, cube: &NodeId) -> Vec<bool> {
        let a = self.bdd.one_sat(*cube).expect("cube is satisfiable");
        self.cur_vars
            .iter()
            .map(|&v| a.value(v).unwrap_or(false))
            .collect()
    }

    /// Number of reachable states over the original state bits.
    fn reachable_count(&self) -> f64 {
        if self.reached == Bdd::ZERO {
            return 0.0;
        }
        // sat_count ranges over all manager variables; divide out the
        // free next-state and input variables
        let ns = self.cur_vars.len() as i32;
        let total_vars = self.bdd.num_vars() as i32;
        let free = total_vars - ns;
        self.bdd.sat_count(self.reached) / 2f64.powi(free)
    }
}

/// Conjoins a list of BDDs by balanced pairwise reduction, which keeps
/// intermediate results far smaller than a left fold.
fn tree_and(bdd: &mut Bdd, mut nodes: Vec<NodeId>) -> Result<NodeId, BddOverflowError> {
    if nodes.is_empty() {
        return Ok(Bdd::ONE);
    }
    while nodes.len() > 1 {
        let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
        for pair in nodes.chunks(2) {
            next.push(if pair.len() == 2 {
                bdd.and(pair[0], pair[1])?
            } else {
                pair[0]
            });
        }
        nodes = next;
    }
    Ok(nodes[0])
}
