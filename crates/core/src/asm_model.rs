//! The ASM-level LA-1 model.
//!
//! The paper maps the UML classes (WritePort, ReadPort, SramMemory and
//! the embedded *light Verilog-like simulator*, Fig. 4) to an ASM model
//! whose rules carry `require` preconditions, and model-checks PSL
//! properties during the AsmL tool's bounded exploration. This module
//! rebuilds that model on `la1-asm`:
//!
//! * `SimManager_Init` reproduces Fig. 4: it requires
//!   `system_flag = STARTED ∧ sim_status = INIT`, raises `m_k`, lowers
//!   `m_ks`, nondeterministically picks the per-port depth flags
//!   (`any rec in {true, false}`), clears the SRAM depth flag and moves
//!   to `CHECKING_PROP`;
//! * each `tick_*` rule advances one full clock cycle (both edges
//!   folded): the read pipeline shifts (latency
//!   [`crate::spec::READ_LATENCY`] cycles), pending writes commit, and
//!   the chosen stimulus (none / read / write / concurrent read+write —
//!   a headline LA-1 feature) is accepted at the cycle's rising edge.
//!   Rule parameters range over the AsmL-style finite domains in
//!   [`crate::spec::LaConfig`];
//! * scaling from 1 bank to N banks is "just a matter of object
//!   instantiation": [`LaAsmModel::new`] loops bank construction.

use crate::cycle_model::CycleModel;
use crate::properties::cycle_properties;
use crate::spec::{BankOp, LaConfig};
use la1_asm::{
    AsmState, ExploreConfig, ExploreResult, Explorer, Machine, MachineBuilder, Value, VarId,
};
use std::sync::Arc;

/// Variable handles for one bank.
#[derive(Debug, Clone, Copy)]
struct BankVars {
    rv1: VarId,
    ra1: VarId,
    rv2: VarId,
    ra2: VarId,
    dv: VarId,
    out: VarId,
    wv: VarId,
    wa: VarId,
    wd: VarId,
    wdone: VarId,
    /// Fig. 4's nondeterministic depth flags
    wp_depth: VarId,
    rp_depth: VarId,
}

/// Shared model parameters captured by rule closures.
struct Params {
    banks: Vec<BankVars>,
    /// `mem[b][w]`
    mem: Vec<Vec<VarId>>,
    sim_status: VarId,
    addr_domain: Vec<u64>,
    data_domain: Vec<u64>,
    word_mask: u64,
}

impl Params {
    /// The update set of one full-cycle tick with the given stimulus.
    fn tick_updates(
        &self,
        s: &AsmState,
        read: Option<(usize, u64)>,
        write: Option<(usize, u64, u64)>,
    ) -> Vec<(VarId, Value)> {
        let mut up = Vec::new();
        for (b, v) in self.banks.iter().enumerate() {
            // pipeline shift: stage 2 -> output
            let rv2 = s.bool(v.rv2);
            up.push((v.dv, Value::Bool(rv2)));
            let out = if rv2 {
                let a = s.int(v.ra2) as usize;
                s.int(self.mem[b][a])
            } else {
                0
            };
            up.push((v.out, Value::Int(out)));
            // stage 1 -> stage 2
            up.push((v.rv2, s.get(v.rv1).clone()));
            up.push((v.ra2, s.get(v.ra1).clone()));
            // new read accepted at the rising edge
            let rd = read.filter(|&(rb, _)| rb == b);
            up.push((v.rv1, Value::Bool(rd.is_some())));
            up.push((v.ra1, Value::Int(rd.map(|(_, a)| a as i64).unwrap_or(0))));
            // pending write commits at this cycle's rising edge
            let wv = s.bool(v.wv);
            up.push((v.wdone, Value::Bool(wv)));
            if wv {
                let a = s.int(v.wa) as usize;
                up.push((self.mem[b][a], s.get(v.wd).clone()));
            }
            // new write accepted (data completes on the falling edge;
            // folded into the cycle-level tick)
            let wr = write.filter(|&(wb, _, _)| wb == b);
            up.push((v.wv, Value::Bool(wr.is_some())));
            up.push((v.wa, Value::Int(wr.map(|(_, a, _)| a as i64).unwrap_or(0))));
            up.push((
                v.wd,
                Value::Int(wr.map(|(_, _, d)| (d & self.word_mask) as i64).unwrap_or(0)),
            ));
            // the init-phase depth flags are consumed by the first tick
            up.push((v.wp_depth, Value::Bool(false)));
            up.push((v.rp_depth, Value::Bool(false)));
        }
        up
    }
}

/// The LA-1 interface modeled as an Abstract State Machine.
///
/// ```
/// use la1_core::{asm_model::LaAsmModel, spec::LaConfig};
/// use la1_asm::ExploreConfig;
///
/// let model = LaAsmModel::new(&LaConfig::mc_small(1));
/// let result = model.model_check(ExploreConfig::default());
/// assert!(result.all_pass(), "{:?}", result.reports);
/// ```
pub struct LaAsmModel {
    machine: Machine,
    params: Arc<Params>,
    config: LaConfig,
    /// current state for the [`CycleModel`] interface
    state: AsmState,
    initialized: bool,
    /// full-cycle ticks executed through [`CycleModel::cycle`]
    cycles: u64,
}

impl std::fmt::Debug for LaAsmModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaAsmModel")
            .field("banks", &self.config.banks)
            .field("vars", &self.machine.var_names().len())
            .finish()
    }
}

impl LaAsmModel {
    /// Builds the ASM model for `config`.
    ///
    /// # Panics
    ///
    /// Panics if an address in `config.mc_addr_domain` exceeds
    /// `config.words_per_bank`.
    pub fn new(config: &LaConfig) -> Self {
        assert!(
            !config.is_burst(),
            "the ASM level models the base LA-1 (burst 1); the LA-1B burst \
             extension exists at the SystemC and RTL levels"
        );
        for &a in &config.mc_addr_domain {
            assert!(
                a < config.words_per_bank as u64,
                "mc address {a} outside the bank"
            );
        }
        let mut b = MachineBuilder::new();
        let sim_status = b.var("sim_status", Value::Sym("INIT"));
        let m_k = b.var("m_k", Value::Bool(false));
        let m_ks = b.var("m_ks", Value::Bool(true));
        let mut banks = Vec::new();
        let mut mem = Vec::new();
        // "upgrade the design from 1 bank to 4 banks ... by just a
        // matter of object instantiation"
        for bank in 0..config.banks {
            let v = BankVars {
                rv1: b.var(format!("rv1_{bank}"), Value::Bool(false)),
                ra1: b.var(format!("ra1_{bank}"), Value::Int(0)),
                rv2: b.var(format!("rv2_{bank}"), Value::Bool(false)),
                ra2: b.var(format!("ra2_{bank}"), Value::Int(0)),
                dv: b.var(format!("dv_{bank}"), Value::Bool(false)),
                out: b.var(format!("out_{bank}"), Value::Int(0)),
                wv: b.var(format!("wv_{bank}"), Value::Bool(false)),
                wa: b.var(format!("wa_{bank}"), Value::Int(0)),
                wd: b.var(format!("wd_{bank}"), Value::Int(0)),
                wdone: b.var(format!("wdone_{bank}"), Value::Bool(false)),
                wp_depth: b.var(format!("wp_depth_{bank}"), Value::Bool(false)),
                rp_depth: b.var(format!("rp_depth_{bank}"), Value::Bool(false)),
            };
            // the full bank is modeled; exploration only touches the
            // configured address domain, so untouched words cost nothing
            let words: Vec<VarId> = (0..config.words_per_bank)
                .map(|w| b.var(format!("mem_{bank}_{w}"), Value::Int(0)))
                .collect();
            banks.push(v);
            mem.push(words);
        }
        let word_mask = if config.word_width >= 64 {
            u64::MAX
        } else {
            (1u64 << config.word_width) - 1
        };
        let params = Arc::new(Params {
            banks: banks.clone(),
            mem,
            sim_status,
            addr_domain: config.mc_addr_domain.clone(),
            data_domain: config
                .mc_data_domain
                .iter()
                .map(|&d| d & word_mask)
                .collect(),
            word_mask,
        });

        // --- SimManager_Init (Fig. 4) ---------------------------------
        {
            let p = Arc::clone(&params);
            b.rule("SimManager_Init", move |s| s.sym(p.sim_status) == "INIT", {
                let p = Arc::clone(&params);
                move |_s| {
                    // enumerate `any rec in {true,false}` per port
                    let nb = p.banks.len();
                    let combos = 1u32 << (2 * nb as u32);
                    (0..combos)
                        .map(|c| {
                            let mut up = vec![
                                (p.sim_status, Value::Sym("CHECKING_PROP")),
                                (m_k, Value::Bool(true)),
                                (m_ks, Value::Bool(false)),
                            ];
                            for (i, v) in p.banks.iter().enumerate() {
                                up.push((v.wp_depth, Value::Bool(c >> (2 * i) & 1 == 1)));
                                up.push((v.rp_depth, Value::Bool(c >> (2 * i + 1) & 1 == 1)));
                            }
                            up
                        })
                        .collect()
                }
            });
        }

        // --- tick rules ------------------------------------------------
        let running = {
            let p = Arc::clone(&params);
            move |s: &AsmState| s.sym(p.sim_status) == "CHECKING_PROP"
        };
        {
            let p = Arc::clone(&params);
            b.rule("tick_idle", running.clone(), move |s| {
                vec![p.tick_updates(s, None, None)]
            });
        }
        {
            let p = Arc::clone(&params);
            b.rule("tick_read", running.clone(), move |s| {
                let mut sets = Vec::new();
                for bank in 0..p.banks.len() {
                    for &a in &p.addr_domain {
                        sets.push(p.tick_updates(s, Some((bank, a)), None));
                    }
                }
                sets
            });
        }
        {
            let p = Arc::clone(&params);
            b.rule("tick_write", running.clone(), move |s| {
                let mut sets = Vec::new();
                for bank in 0..p.banks.len() {
                    for &a in &p.addr_domain {
                        for &d in &p.data_domain {
                            sets.push(p.tick_updates(s, None, Some((bank, a, d))));
                        }
                    }
                }
                sets
            });
        }
        {
            let p = Arc::clone(&params);
            b.rule("tick_read_write", running, move |s| {
                // concurrent read and write (same or different bank)
                let mut sets = Vec::new();
                for rb in 0..p.banks.len() {
                    for &ra in &p.addr_domain {
                        for wb in 0..p.banks.len() {
                            for &wa in &p.addr_domain {
                                for &d in &p.data_domain {
                                    sets.push(p.tick_updates(s, Some((rb, ra)), Some((wb, wa, d))));
                                }
                            }
                        }
                    }
                }
                sets
            });
        }

        // --- predicates for the PSL properties --------------------------
        for (bank, v) in banks.iter().copied().enumerate() {
            b.predicate(format!("rd{bank}"), move |s| s.bool(v.rv1));
            b.predicate(format!("wr{bank}"), move |s| s.bool(v.wv));
            b.predicate(format!("dv{bank}"), move |s| s.bool(v.dv));
            b.predicate(format!("wdone{bank}"), move |s| s.bool(v.wdone));
            // parity is abstracted away at the ASM level: the data path
            // carries whole words, so the parity checker cannot fire
            b.predicate(format!("perr{bank}"), |_| false);
        }

        let machine = b.build();
        let state = machine.initial_state();
        LaAsmModel {
            machine,
            params,
            config: config.clone(),
            state,
            initialized: false,
            cycles: 0,
        }
    }

    /// The underlying ASM machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The configuration the model was built for.
    pub fn config(&self) -> &LaConfig {
        &self.config
    }

    /// The paper's property suite for this bank count.
    pub fn properties(&self) -> Vec<la1_psl::Directive> {
        cycle_properties(self.config.banks)
    }

    /// Explores the model with the interface properties attached —
    /// the Table 1 experiment.
    pub fn model_check(&self, explore: ExploreConfig) -> ExploreResult {
        let dirs = self.properties();
        Explorer::new(&self.machine, explore)
            .with_directives(&dirs)
            .run()
    }

    /// Explores without properties (raw FSM generation).
    pub fn explore(&self, explore: ExploreConfig) -> ExploreResult {
        Explorer::new(&self.machine, explore).run()
    }

    /// Captures the model's dynamic state: every ASM location's value
    /// (in declaration order) plus the cycle-interface bookkeeping.
    pub fn snapshot_state(&self) -> AsmSnap {
        let values = self
            .machine
            .var_names()
            .iter()
            .map(|n| {
                let var = self.machine.var(n).expect("declared variable resolves");
                self.state.get(var).clone()
            })
            .collect();
        AsmSnap {
            values,
            initialized: self.initialized,
            cycles: self.cycles,
        }
    }

    /// Installs a snapshot taken from a model built for the same
    /// configuration (same variable declaration order).
    ///
    /// # Errors
    ///
    /// Fails without modifying the model if the location count differs,
    /// a value's variant differs from its location's initial value, or a
    /// pipeline address (`ra1_*`, `ra2_*`, `wa_*`) lies outside the bank
    /// — states the next [`CycleModel::cycle`] could not step.
    pub fn restore_state(&mut self, snap: &AsmSnap) -> Result<(), String> {
        let names = self.machine.var_names();
        if snap.values.len() != names.len() {
            return Err(format!(
                "snapshot has {} locations, model has {}",
                snap.values.len(),
                names.len()
            ));
        }
        let mut state = self.machine.initial_state();
        for (name, value) in names.iter().zip(&snap.values) {
            let var = self.machine.var(name).expect("declared variable resolves");
            let init = state.get(var);
            if std::mem::discriminant(value) != std::mem::discriminant(init) {
                return Err(format!(
                    "location {name} holds {value:?}, not a value of its initial {init:?}'s kind"
                ));
            }
            state.set(var, value.clone());
        }
        let words = self.config.words_per_bank as i64;
        for (b, v) in self.params.banks.iter().enumerate() {
            for (var, what) in [(v.ra1, "ra1"), (v.ra2, "ra2"), (v.wa, "wa")] {
                let addr = state.int(var);
                if !(0..words).contains(&addr) {
                    return Err(format!(
                        "location {what}_{b} = {addr} outside the bank's {words} words"
                    ));
                }
            }
        }
        self.state = state;
        self.initialized = snap.initialized;
        self.cycles = snap.cycles;
        Ok(())
    }
}

/// A plain-data snapshot of a [`LaAsmModel`]: one [`Value`] per ASM
/// location in declaration order, plus the host bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmSnap {
    /// Location values, in [`Machine::var_names`] order.
    pub values: Vec<Value>,
    /// Whether the deterministic init tick has run.
    pub initialized: bool,
    /// Completed full-cycle ticks.
    pub cycles: u64,
}

impl CycleModel for LaAsmModel {
    fn level(&self) -> &'static str {
        "asm"
    }

    /// Drives one full-cycle tick of the light simulator.
    ///
    /// The ASM level abstracts byte control (the data path carries whole
    /// words), so writes must use the full byte-enable mask. Every
    /// operation is checked before the state changes.
    fn cycle(&mut self, ops: &[BankOp]) {
        let full_be = (1u32 << self.config.byte_enables()) - 1;
        let mut read = None;
        let mut write = None;
        for op in ops {
            match *op {
                BankOp::Read { bank, addr } => {
                    assert!(read.is_none(), "single address bus: one read per cycle");
                    read = Some((bank as usize, addr));
                }
                BankOp::Write {
                    bank,
                    addr,
                    data,
                    byte_en,
                } => {
                    assert!(write.is_none(), "single address bus: one write per cycle");
                    assert_eq!(
                        byte_en, full_be,
                        "the ASM level models full-word writes only"
                    );
                    write = Some((bank as usize, addr, data));
                }
            }
        }
        let words = self.config.words_per_bank as u64;
        let in_range = |b: usize, a: u64| b < self.params.banks.len() && a < words;
        assert!(
            read.is_none_or(|(b, a)| in_range(b, a))
                && write.is_none_or(|(b, a, _)| in_range(b, a)),
            "bank or address out of range for the ASM model"
        );
        if !self.initialized {
            // deterministic init: the depth flags stay false
            self.state
                .set(self.params.sim_status, Value::Sym("CHECKING_PROP"));
            self.initialized = true;
        }
        for (var, value) in self.params.tick_updates(&self.state, read, write) {
            self.state.set(var, value);
        }
        self.cycles += 1;
    }

    fn bank_output(&self, bank: u32) -> Option<u64> {
        let v = &self.params.banks[bank as usize];
        if self.state.bool(v.dv) {
            Some(self.state.int(v.out) as u64)
        } else {
            None
        }
    }

    fn write_done(&self, bank: u32) -> bool {
        self.state.bool(self.params.banks[bank as usize].wdone)
    }

    /// The light simulator carries no attached monitors; properties are
    /// checked during exploration instead.
    fn violation_count(&self) -> usize {
        0
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }
}
