//! The synthesizable RTL implementation of the LA-1 interface.
//!
//! This is the bottom of the paper's flow: a Verilog-style netlist with
//! the full pin-level protocol —
//!
//! * a single address bus, time-multiplexed: read address sampled at
//!   rising `K`, write address at the following falling edge (`K#`);
//! * 18-pin-style DDR data paths: the output bus `dq` carries the low
//!   half of a word while `K` is high and the high half while `K` is
//!   low, each with even byte parity on `dq_par`;
//! * byte write control: `bw` is sampled with each write data half;
//! * N banks whose output drivers share `dq` through **tristate
//!   buffers** (the paper: "the connection between the control signals
//!   is performed using tristate buffers");
//! * read latency of [`crate::spec::READ_LATENCY`] cycles and
//!   single-cycle write commit, matching the ASM and SystemC levels.
//!
//! [`LaRtl::netlist`] yields the structural design (emit Verilog with
//! [`la1_rtl::Netlist::to_verilog`], extract a transition system for
//! the `la1-smc` checker with [`la1_rtl::Netlist::extract`]).
//!
//! [`LaDriver`] clocks the interpreted simulator through full protocol
//! cycles: it decodes each cycle's operations ([`decode_cycle`]), stages
//! them on the rising and falling edges, injects X and merges the two
//! DDR halves. It is written once, generic over the simulator
//! ([`LaneSim`]); [`LaRtlDriver`] drives the scalar [`RtlSim`] and
//! [`LaRtlBatchDriver`] the 64-lane [`BatchedRtlSim`], one independent
//! operation stream per lane.

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::spec::{bank_bits, BankOp, LaConfig};
use la1_rtl::{
    BatchedRtlSim, BatchedRtlState, Edge, Expr, LogicVec, NetId, Netlist, RtlSim, RtlState, Sim,
    TransitionSystem, LANES,
};
use std::fmt;

/// Net handles of the built design.
#[derive(Debug, Clone)]
pub struct LaRtlNets {
    /// Master clock input.
    pub k: NetId,
    /// Read select input (active high in the model; `R#` is active low
    /// on the pins).
    pub rd_sel: NetId,
    /// Write select input.
    pub wr_sel: NetId,
    /// The single, time-multiplexed address bus.
    pub addr: NetId,
    /// DDR write-data input (one half per edge).
    pub wdata: NetId,
    /// Byte write control for the current data half.
    pub bw: NetId,
    /// Shared DDR read-data output bus.
    pub dq: NetId,
    /// Output parity bus.
    pub dq_par: NetId,
    /// Per-bank data-valid registers.
    pub dv: Vec<NetId>,
    /// Per-bank parity-error wires.
    pub perr: Vec<NetId>,
    /// Per-bank read stage-1 valid registers (property triggers).
    pub rd_v1: Vec<NetId>,
    /// Per-bank write-accepted registers (property triggers).
    pub wr_v0: Vec<NetId>,
    /// Per-bank write-done registers.
    pub wdone: Vec<NetId>,
}

/// A deliberately injected RTL bug, for exercising the verification
/// machinery (every fault must be caught by at least one of: the PSL
/// monitors, the OVL monitors, the symbolic model checker, or the
/// cross-level conformance check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtlFault {
    /// The bank's parity generator inverts byte 0 of every driven half.
    ParityBank(u32),
    /// The bank's data-valid/output stage is one cycle late (read
    /// latency 3 instead of 2) — violates the read-mode property.
    SlowRead(u32),
    /// The bank never raises data valid — reads are silently dropped.
    DeadReadPort(u32),
}

/// The RTL-level LA-1 design.
#[derive(Debug, Clone)]
pub struct LaRtl {
    netlist: Netlist,
    nets: LaRtlNets,
    cfg: LaConfig,
}

impl LaRtl {
    /// Builds the netlist for `config`; `parity_fault` optionally breaks
    /// one bank's parity generator (shorthand for the most common
    /// fault-injection case; see [`LaRtl::build_with_faults`]).
    pub fn build(config: &LaConfig, parity_fault: Option<u32>) -> LaRtl {
        let faults: Vec<RtlFault> = parity_fault.map(RtlFault::ParityBank).into_iter().collect();
        Self::build_with_faults(config, &faults)
    }

    /// Builds the netlist with an arbitrary set of injected faults.
    pub fn build_with_faults(config: &LaConfig, faults: &[RtlFault]) -> LaRtl {
        let parity_fault = faults.iter().find_map(|f| match f {
            RtlFault::ParityBank(b) => Some(*b),
            _ => None,
        });
        let slow_read = faults.iter().find_map(|f| match f {
            RtlFault::SlowRead(b) => Some(*b),
            _ => None,
        });
        let dead_read = faults.iter().find_map(|f| match f {
            RtlFault::DeadReadPort(b) => Some(*b),
            _ => None,
        });
        let cfg = config;
        let mut n = Netlist::new(format!("la1_{}bank", cfg.banks));
        let word_bits = cfg.addr_bits();
        let bbits = bank_bits(cfg.banks);
        let abits = word_bits + bbits;
        let half = cfg.half_width();
        let bytes_per_half = (half / 8).max(1);
        let bits_per_byte = half / bytes_per_half;

        let k = n.input("k", 1);
        let rd_sel = n.input("rd_sel", 1);
        let wr_sel = n.input("wr_sel", 1);
        let addr = n.input("addr", abits);
        let wdata = n.input("wdata", half);
        let bw = n.input("bw", bytes_per_half);

        let dq = n.wire("dq", half);
        let dq_par = n.wire("dq_par", bytes_per_half);
        n.mark_output(dq);
        n.mark_output(dq_par);

        // --- global write capture (single address bus) -----------------
        // W# sampled at rising K; write address at the following K#.
        let wv_g = n.reg("wv_g", 1);
        n.dff_posedge(k, Expr::net(wr_sel), wv_g);
        let wa_g = n.reg("wa_g", abits);
        n.dff_negedge(k, Expr::net(addr), wa_g);
        let wd_lo = n.reg("wd_lo", half);
        n.dff_posedge(k, Expr::net(wdata), wd_lo);
        let wd_hi = n.reg("wd_hi", half);
        n.dff_negedge(k, Expr::net(wdata), wd_hi);
        let bw_lo = n.reg("bw_lo", bytes_per_half);
        n.dff_posedge(k, Expr::net(bw), bw_lo);
        let bw_hi = n.reg("bw_hi", bytes_per_half);
        n.dff_negedge(k, Expr::net(bw), bw_hi);

        // full write word and bit mask
        let wword = n.wire("wword", cfg.word_width);
        n.assign(
            wword,
            Expr::Concat(vec![Expr::net(wd_lo), Expr::net(wd_hi)]),
        );
        let wmask = n.wire("wmask", cfg.word_width);
        let mut mask_parts = Vec::new();
        for half_sel in 0..2u32 {
            let src = if half_sel == 0 { bw_lo } else { bw_hi };
            for byte in 0..bytes_per_half {
                for _ in 0..bits_per_byte {
                    mask_parts.push(Expr::Index(src, byte));
                }
            }
        }
        n.assign(wmask, Expr::Concat(mask_parts));

        // bank decode from the live address bus (valid at the edge that
        // samples it: rising for reads, falling for write accepts)
        let bus_bank_hit = |bank: u32| -> Expr {
            if bbits == 0 {
                Expr::bit(true)
            } else {
                Expr::eq_const(Expr::Slice(addr, abits - 1, word_bits), bank as u64, bbits)
            }
        };
        // bank decode from the captured write address register (valid
        // from the falling edge that loads `wa_g` until the next one)
        let captured_bank_hit = |bank: u32| -> Expr {
            if bbits == 0 {
                Expr::bit(true)
            } else {
                Expr::eq_const(Expr::Slice(wa_g, abits - 1, word_bits), bank as u64, bbits)
            }
        };

        let mut dv_nets = Vec::new();
        let mut perr_nets = Vec::new();
        let mut rd_v1_nets = Vec::new();
        let mut wr_v0_nets = Vec::new();
        let mut wdone_nets = Vec::new();

        for b in 0..cfg.banks {
            // ---- read pipeline ----------------------------------------
            let rd_v1 = n.reg(format!("rd_v1_{b}"), 1);
            n.dff_posedge(k, Expr::and(Expr::net(rd_sel), bus_bank_hit(b)), rd_v1);
            let rd_a1 = n.reg(format!("rd_a1_{b}"), word_bits);
            n.dff_posedge(k, Expr::Slice(addr, word_bits.saturating_sub(1), 0), rd_a1);
            let rd_v2 = n.reg(format!("rd_v2_{b}"), 1);
            n.dff_posedge(k, Expr::net(rd_v1), rd_v2);
            let rd_a2 = n.reg(format!("rd_a2_{b}"), word_bits);
            n.dff_posedge(k, Expr::net(rd_a1), rd_a2);
            // LA-1B burst extension: second-beat valid flag and
            // auto-incremented address (the protocol spaces reads so the
            // shared read port is free on the beat's cycle)
            let burst_regs = if cfg.is_burst() {
                let rd_b2 = n.reg(format!("rd_b2_{b}"), 1);
                n.dff_posedge(k, Expr::net(rd_v2), rd_b2);
                let rd_a2b = n.reg(format!("rd_a2b_{b}"), word_bits);
                n.dff_posedge(k, increment(rd_a2, word_bits), rd_a2b);
                Some((rd_b2, rd_a2b))
            } else {
                None
            };

            // ---- SRAM bank --------------------------------------------
            // the read port addresses the array with the stage-2 address
            // so the output stage samples memory at the same instant the
            // ASM and SystemC levels do (a write committing on the same
            // edge is not yet visible — read-before-write)
            let rdata = n.wire(format!("rdata_{b}"), cfg.word_width);
            let we = n.wire(format!("we_{b}"), 1);
            n.assign(we, Expr::and(Expr::net(wv_g), captured_bank_hit(b)));
            let raddr = match burst_regs {
                Some((rd_b2, rd_a2b)) => Expr::mux(
                    Expr::net(rd_v2),
                    Expr::net(rd_a2),
                    Expr::mux(Expr::net(rd_b2), Expr::net(rd_a2b), Expr::net(rd_a2)),
                ),
                None => Expr::net(rd_a2),
            };
            n.ram(
                k,
                Expr::net(we),
                Expr::Slice(wa_g, word_bits.saturating_sub(1), 0),
                Expr::net(wword),
                Some(Expr::net(wmask)),
                raddr,
                rdata,
                cfg.words_per_bank,
                cfg.word_width,
            );

            // write bookkeeping: per-bank accept (set at the falling edge
            // once the address identifies the bank) and done flag. The
            // bank is decoded from the live `addr` bus — `wa_g` is
            // registered by this same falling edge, so a nonblocking
            // sample of it would see the *previous* write's address and
            // pulse done on the wrong bank.
            let wr_v0 = n.reg(format!("wr_v0_{b}"), 1);
            n.dff_negedge(k, Expr::and(Expr::net(wv_g), bus_bank_hit(b)), wr_v0);
            let wdone = n.reg(format!("wdone_{b}"), 1);
            n.dff_posedge(k, Expr::net(wr_v0), wdone);

            // ---- output stage -----------------------------------------
            // fault hooks: a slow read adds a pipeline stage; a dead
            // read port never asserts dv
            let healthy_dv = match burst_regs {
                Some((rd_b2, _)) => Expr::or(Expr::net(rd_v2), Expr::net(rd_b2)),
                None => Expr::net(rd_v2),
            };
            let dv_src = if slow_read == Some(b) {
                let rd_v3 = n.reg(format!("rd_v3_{b}"), 1);
                n.dff_posedge(k, Expr::net(rd_v2), rd_v3);
                Expr::net(rd_v3)
            } else if dead_read == Some(b) {
                Expr::bit(false)
            } else {
                healthy_dv
            };
            let dv = n.reg(format!("dv_{b}"), 1);
            n.dff_posedge(k, dv_src.clone(), dv);
            let out = n.reg(format!("out_{b}"), cfg.word_width);
            n.dff_en(k, Edge::Pos, dv_src, Expr::net(rdata), out);

            // DDR mux: low half while K is high, high half while K is low
            let drive = n.wire(format!("drive_{b}"), half);
            n.assign(
                drive,
                Expr::mux(
                    Expr::net(k),
                    Expr::Slice(out, half - 1, 0),
                    Expr::Slice(out, cfg.word_width - 1, half),
                ),
            );
            // even byte parity of the driven half
            let par = n.wire(format!("par_{b}"), bytes_per_half);
            let mut par_parts = Vec::new();
            for byte in 0..bytes_per_half {
                let lo_bit = byte * bits_per_byte;
                let hi_bit = lo_bit + bits_per_byte - 1;
                let mut p = Expr::ReduceXor(Box::new(Expr::Slice(drive, hi_bit, lo_bit)));
                if parity_fault == Some(b) && byte == 0 {
                    p = Expr::not(p); // injected fault
                }
                par_parts.push(p);
            }
            n.assign(par, Expr::Concat(par_parts));

            // tristate drivers onto the shared buses
            n.tristate(dq, Expr::net(dv), Expr::net(drive));
            n.tristate(dq_par, Expr::net(dv), Expr::net(par));

            // parity checker (verification-unit role): recompute and
            // compare against what the bank drives
            let perr = n.wire(format!("perr_{b}"), 1);
            let mut any_err = Expr::bit(false);
            for byte in 0..bytes_per_half {
                let lo_bit = byte * bits_per_byte;
                let hi_bit = lo_bit + bits_per_byte - 1;
                let recomputed = Expr::ReduceXor(Box::new(Expr::Slice(drive, hi_bit, lo_bit)));
                let mismatch = Expr::xor(recomputed, Expr::Index(par, byte));
                any_err = Expr::or(any_err, mismatch);
            }
            n.assign(perr, Expr::and(Expr::net(dv), any_err));

            dv_nets.push(dv);
            perr_nets.push(perr);
            rd_v1_nets.push(rd_v1);
            wr_v0_nets.push(wr_v0);
            wdone_nets.push(wdone);
        }

        // bus conflict detector (should be unreachable: single address
        // bus means at most one read per cycle)
        if cfg.banks > 1 {
            let conflict = n.wire("dv_conflict", 1);
            let mut any = Expr::bit(false);
            for i in 0..cfg.banks as usize {
                for j in (i + 1)..cfg.banks as usize {
                    any = Expr::or(any, Expr::and(Expr::net(dv_nets[i]), Expr::net(dv_nets[j])));
                }
            }
            n.assign(conflict, any);
        }

        let nets = LaRtlNets {
            k,
            rd_sel,
            wr_sel,
            addr,
            wdata,
            bw,
            dq,
            dq_par,
            dv: dv_nets,
            perr: perr_nets,
            rd_v1: rd_v1_nets,
            wr_v0: wr_v0_nets,
            wdone: wdone_nets,
        };
        LaRtl {
            netlist: n,
            nets,
            cfg: cfg.clone(),
        }
    }

    /// The structural netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The net handles.
    pub fn nets(&self) -> &LaRtlNets {
        &self.nets
    }

    /// The configuration the design was built for.
    pub fn config(&self) -> &LaConfig {
        &self.cfg
    }

    /// Emits the design as Verilog (the flow's final artefact).
    pub fn to_verilog(&self) -> String {
        self.netlist.to_verilog()
    }

    /// Extracts the transition system for symbolic model checking
    /// (clock `k` becomes an auto-toggling state bit).
    pub fn extract(&self) -> TransitionSystem {
        self.netlist.extract(&[self.nets.k])
    }
}

/// An input pin of the LA-1 design that [`LaRtlDriver::inject_x`] can
/// drive with four-state X for one full protocol cycle — the RTL-only
/// fault class the two-valued upper levels cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XPin {
    /// The read-select input `rd_sel`.
    ReadSel,
    /// The write-select input `wr_sel`.
    WriteSel,
    /// The time-multiplexed address bus `addr`.
    Addr,
    /// The DDR write-data input `wdata` (both halves of the cycle).
    WData,
}

/// One lane's operations for one cycle, decoded onto the input pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinCycle {
    /// `rd_sel`, `wr_sel`, `addr`, `wdata` and `bw` at rising `K`: the
    /// read address, the write data's low half and its byte enables.
    pub rise: [u64; 5],
    /// `addr`, `wdata` and `bw` at falling `K`: the write address, the
    /// write data's high half and its byte enables.
    pub fall: [u64; 3],
}

/// Decodes one lane's operations onto the pins, checking the bus
/// protocol every level enforces: at most one read and one write (the
/// single address bus), each to a bank and word in range.
///
/// # Errors
///
/// Names the first rule the operations break.
pub fn decode_cycle(cfg: &LaConfig, ops: &[BankOp]) -> Result<PinCycle, &'static str> {
    let bus = |bank: u32, addr: u64| {
        if bank >= cfg.banks {
            Err("bank out of range")
        } else if addr >= cfg.words_per_bank as u64 {
            Err("word address out of range")
        } else {
            Ok(addr | ((bank as u64) << cfg.addr_bits()))
        }
    };
    let half_be = cfg.byte_enables() / 2;
    let (mut read, mut write) = (false, false);
    let mut pins = PinCycle::default();
    for op in ops {
        match *op {
            BankOp::Read { bank, addr } => {
                if std::mem::replace(&mut read, true) {
                    return Err("single address bus: one read per cycle");
                }
                pins.rise[0] = 1;
                pins.rise[2] = bus(bank, addr)?;
            }
            BankOp::Write {
                bank,
                addr,
                data,
                byte_en,
            } => {
                if std::mem::replace(&mut write, true) {
                    return Err("single address bus: one write per cycle");
                }
                let data = cfg.mask_word(data);
                pins.rise[1] = 1;
                pins.rise[3] = cfg.low_half(data);
                pins.rise[4] = (byte_en & ((1 << half_be) - 1)) as u64;
                pins.fall = [
                    bus(bank, addr)?,
                    cfg.high_half(data),
                    (byte_en >> half_be) as u64,
                ];
            }
        }
    }
    Ok(pins)
}

/// What an [`LaDriver`] needs from the simulator it clocks: a lane count
/// (a lane is one independent simulation) and bulk per-lane staging and
/// sampling. [`RtlSim`] is the one-lane instance (`set_u64`/`get_u64`),
/// [`BatchedRtlSim`] the [`LANES`]-lane one (the transposed
/// `set_lanes_u64`/`lanes_u64`).
pub trait LaneSim: Sized {
    /// Lanes one step advances.
    const LANES: usize;
    /// One `u64` per lane.
    type Lanes: Copy + AsRef<[u64]> + AsMut<[u64]>;
    /// Every lane zero.
    const ZERO: Self::Lanes;
    /// The simulator's exported state.
    type State: Clone + PartialEq + Eq + fmt::Debug;

    /// Compiles `netlist`.
    fn compile(netlist: &Netlist) -> Self;
    /// Stages one value per lane into an input.
    fn stage(&mut self, net: NetId, lanes: &Self::Lanes);
    /// Stages one value into every lane of an input.
    fn stage_all(&mut self, net: NetId, value: u64);
    /// Stages all-X into one lane of an input.
    fn stage_x(&mut self, net: NetId, lane: usize);
    /// Applies the staged inputs and settles.
    fn settle(&mut self);
    /// Reads one value per lane into `out`; returns the mask of lanes
    /// whose value is fully known.
    fn sample(&self, net: NetId, out: &mut Self::Lanes) -> u64;
    /// The mask of lanes in which bit 0 of `net` is a known 1.
    fn ones(&self, net: NetId) -> u64;
    /// Compiled-op evaluations so far.
    fn evals(&self) -> u64;
    /// Exports the full simulator state.
    fn export(&self) -> Result<Self::State, String>;
    /// Installs an exported state.
    fn import(&mut self, state: &Self::State) -> Result<(), String>;
    /// One protocol cycle of `driver`: the per-instance entry point to
    /// the cycle body, so the body is compiled in this crate once per
    /// instance, however generic the calling code is.
    fn drive(driver: &mut LaDriver<Self>, ops: &[&[BankOp]], at_rising: &mut dyn FnMut(&mut Self));
    /// Builds a driver over `design` from a checkpoint of this instance
    /// ([`Snapshot::into_rtl`] or [`Snapshot::into_rtl_batch`]).
    fn restore(snap: &Snapshot, design: &LaRtl) -> Result<LaDriver<Self>, CheckpointError>;
}

impl LaneSim for RtlSim {
    const LANES: usize = 1;
    type Lanes = [u64; 1];
    const ZERO: [u64; 1] = [0];
    type State = RtlState;

    fn compile(netlist: &Netlist) -> Self {
        RtlSim::new(netlist)
    }
    fn stage(&mut self, net: NetId, lanes: &[u64; 1]) {
        self.set_u64(net, lanes[0]);
    }
    fn stage_all(&mut self, net: NetId, value: u64) {
        self.set_u64(net, value);
    }
    fn stage_x(&mut self, net: NetId, _lane: usize) {
        self.set(net, LogicVec::xs(self.get(net).width()));
    }
    fn settle(&mut self) {
        self.step();
    }
    fn sample(&self, net: NetId, out: &mut [u64; 1]) -> u64 {
        self.get_u64(net).map_or(0, |v| {
            out[0] = v;
            1
        })
    }
    fn ones(&self, net: NetId) -> u64 {
        u64::from(self.get_u64(net) == Some(1))
    }
    fn evals(&self) -> u64 {
        Sim::evals(self)
    }
    fn export(&self) -> Result<RtlState, String> {
        self.export_state()
    }
    fn import(&mut self, state: &RtlState) -> Result<(), String> {
        self.import_state(state)
    }
    fn drive(driver: &mut LaRtlDriver, ops: &[&[BankOp]], at_rising: &mut dyn FnMut(&mut Self)) {
        driver.run_cycle(ops, at_rising);
    }
    fn restore(snap: &Snapshot, design: &LaRtl) -> Result<LaRtlDriver, CheckpointError> {
        snap.into_rtl(design)
    }
}

impl LaneSim for BatchedRtlSim {
    const LANES: usize = LANES;
    type Lanes = [u64; LANES];
    const ZERO: [u64; LANES] = [0; LANES];
    type State = BatchedRtlState;

    fn compile(netlist: &Netlist) -> Self {
        BatchedRtlSim::new(netlist)
    }
    fn stage(&mut self, net: NetId, lanes: &[u64; LANES]) {
        self.set_lanes_u64(net, lanes);
    }
    fn stage_all(&mut self, net: NetId, value: u64) {
        self.set_u64_all(net, value);
    }
    fn stage_x(&mut self, net: NetId, lane: usize) {
        self.set_lane_xs(net, lane);
    }
    fn settle(&mut self) {
        self.step();
    }
    fn sample(&self, net: NetId, out: &mut [u64; LANES]) -> u64 {
        self.lanes_u64(net, out)
    }
    fn ones(&self, net: NetId) -> u64 {
        self.get(net).lanes_bit_is_one(0)
    }
    fn evals(&self) -> u64 {
        Sim::evals(self)
    }
    fn export(&self) -> Result<BatchedRtlState, String> {
        self.export_state()
    }
    fn import(&mut self, state: &BatchedRtlState) -> Result<(), String> {
        self.import_state(state)
    }
    fn drive(
        driver: &mut LaRtlBatchDriver,
        ops: &[&[BankOp]],
        at_rising: &mut dyn FnMut(&mut Self),
    ) {
        driver.run_cycle(ops, at_rising);
    }
    fn restore(snap: &Snapshot, design: &LaRtl) -> Result<LaRtlBatchDriver, CheckpointError> {
        snap.into_rtl_batch(design)
    }
}

/// Clocks an interpreted RTL simulator through full LA-1 protocol
/// cycles, one independent operation stream per lane: the design's one
/// bus functional model.
///
/// [`LaRtlDriver`] drives the scalar [`RtlSim`]; [`LaRtlBatchDriver`]
/// drives the 64-lane [`BatchedRtlSim`] (PPSFP), every lane bit-identical
/// to a scalar driver fed that lane's operations. The clock `K` is
/// lane-uniform (every lane sees the same edges), which is exactly the
/// PPSFP restriction.
#[derive(Debug)]
pub struct LaDriver<S: LaneSim> {
    design: LaRtl,
    sim: S,
    cycles: u64,
    /// dq low half captured while `K` was high, per lane
    captured_lo: Vec<Option<u64>>,
    /// merged output word per lane and bank (`lane * banks + bank`)
    outputs: Vec<Option<u64>>,
    /// pin to drive with X during the next cycle, per lane
    pending_x: Vec<Option<XPin>>,
}

/// The scalar LA-1 driver: one lane, over [`RtlSim`].
pub type LaRtlDriver = LaDriver<RtlSim>;

/// The bit-parallel LA-1 driver: [`LANES`] lanes, over [`BatchedRtlSim`].
pub type LaRtlBatchDriver = LaDriver<BatchedRtlSim>;

impl<S: LaneSim> LaDriver<S> {
    /// Creates a driver (the design starts with `K` low in every lane).
    pub fn new(design: &LaRtl) -> Self {
        LaDriver {
            design: design.clone(),
            sim: S::compile(design.netlist()),
            cycles: 0,
            captured_lo: vec![None; S::LANES],
            outputs: vec![None; S::LANES * design.cfg.banks as usize],
            pending_x: vec![None; S::LANES],
        }
    }

    /// Mutable access to the underlying simulator (OVL benches compile
    /// their probe passes against it).
    pub fn sim_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// Completed protocol cycles (lane-uniform by construction).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The configuration the driven design was built for.
    pub fn config(&self) -> &LaConfig {
        self.design.config()
    }

    /// Compiled-op evaluations performed so far; each one advances every
    /// lane.
    pub fn evals(&self) -> u64 {
        self.sim.evals()
    }

    /// Runs one full clock cycle with an independent operation list per
    /// lane; lanes beyond `ops.len()` idle.
    ///
    /// # Panics
    ///
    /// Panics, with the driver untouched, if a lane's operations break
    /// the bus protocol ([`decode_cycle`]), or if more than
    /// [`LaneSim::LANES`] lists are supplied.
    pub fn cycle_lanes(&mut self, ops: &[&[BankOp]]) {
        S::drive(self, ops, &mut |_| {});
    }

    /// [`Self::cycle_lanes`], invoking `at_rising` once the rising edge
    /// has settled (the OVL sampling point).
    fn cycle_lanes_with<F: FnOnce(&mut S)>(&mut self, ops: &[&[BankOp]], at_rising: F) {
        let mut at_rising = Some(at_rising);
        S::drive(self, ops, &mut |sim| {
            if let Some(f) = at_rising.take() {
                f(sim);
            }
        });
    }

    /// The merged output word of `bank` in `lane`.
    pub(crate) fn lane_output(&self, lane: usize, bank: u32) -> Option<u64> {
        self.outputs[lane * self.design.nets.dv.len() + bank as usize]
    }

    /// The parity-error flag of `bank` in `lane`.
    pub(crate) fn lane_parity_error(&self, lane: usize, bank: u32) -> bool {
        self.sim.ones(self.design.nets.perr[bank as usize]) >> lane & 1 == 1
    }

    /// The write-done flag of `bank` in `lane`.
    pub(crate) fn lane_write_done(&self, lane: usize, bank: u32) -> bool {
        self.sim.ones(self.design.nets.wdone[bank as usize]) >> lane & 1 == 1
    }

    /// Captures the driver's complete state at a protocol-cycle
    /// boundary: the simulator state plus every lane's DDR-merge
    /// bookkeeping.
    ///
    /// # Errors
    ///
    /// Fails if an X injection is armed but not yet consumed (arm it
    /// again after restoring instead).
    pub fn snapshot_state(&self) -> Result<LaDriverSnap<S::State>, String> {
        self.check_no_pending_x()?;
        Ok(LaDriverSnap {
            sim: self.sim.export()?,
            cycles: self.cycles,
            captured_lo: self.captured_lo.clone(),
            outputs: (self.outputs)
                .chunks(self.design.nets.dv.len())
                .map(<[_]>::to_vec)
                .collect(),
        })
    }

    /// Refuses an armed X injection: it belongs to the next cycle,
    /// which no state capture records.
    fn check_no_pending_x(&self) -> Result<(), String> {
        if self.pending_x.iter().any(Option::is_some) {
            return Err("cannot capture state with an armed X injection".to_string());
        }
        Ok(())
    }

    /// Installs a snapshot taken from a driver of the same instance over
    /// the same design.
    ///
    /// # Errors
    ///
    /// Fails without modifying the driver if the simulator state does
    /// not fit the design (arena size, widths, RAM geometry) or the
    /// per-lane lists have the wrong lane or bank count.
    pub fn restore_state(&mut self, snap: &LaDriverSnap<S::State>) -> Result<(), String> {
        let banks = self.design.nets.dv.len();
        if snap.captured_lo.len() != S::LANES
            || snap.outputs.len() != S::LANES
            || snap.outputs.iter().any(|o| o.len() != banks)
        {
            return Err("snapshot lane shape does not match the driver".to_string());
        }
        self.sim.import(&snap.sim)?;
        self.cycles = snap.cycles;
        self.captured_lo.clone_from(&snap.captured_lo);
        self.outputs = snap.outputs.concat();
        self.pending_x.fill(None);
        Ok(())
    }

    /// The protocol cycle, written once for both instances and reached
    /// only through [`LaneSim::drive`].
    fn run_cycle(&mut self, ops: &[&[BankOp]], at_rising: &mut dyn FnMut(&mut S)) {
        assert!(ops.len() <= S::LANES, "at most {} lanes", S::LANES);
        let (cfg, nets) = (&self.design.cfg, &self.design.nets);
        // decode every lane before anything is staged
        let mut rise = [S::ZERO; 5];
        let mut fall = [S::ZERO; 3];
        for (lane, lane_ops) in ops.iter().enumerate() {
            let pins = decode_cycle(cfg, lane_ops).unwrap_or_else(|rule| panic!("{rule}"));
            for (col, v) in rise.iter_mut().zip(pins.rise) {
                col.as_mut()[lane] = v;
            }
            for (col, v) in fall.iter_mut().zip(pins.fall) {
                col.as_mut()[lane] = v;
            }
        }
        // an armed X overrides its lane of the pin on both edges
        let stage_xs = |sim: &mut S| {
            for (lane, pin) in self.pending_x.iter().enumerate() {
                let net = match pin {
                    Some(XPin::ReadSel) => nets.rd_sel,
                    Some(XPin::WriteSel) => nets.wr_sel,
                    Some(XPin::Addr) => nets.addr,
                    Some(XPin::WData) => nets.wdata,
                    None => continue,
                };
                sim.stage_x(net, lane);
            }
        };

        // rising edge: read select + read address + write select +
        // write data low half + low byte enables
        let rise_pins = [nets.rd_sel, nets.wr_sel, nets.addr, nets.wdata, nets.bw];
        for (net, col) in rise_pins.into_iter().zip(&rise) {
            self.sim.stage(net, col);
        }
        stage_xs(&mut self.sim);
        self.sim.stage_all(nets.k, 1);
        self.sim.settle();
        // capture the low output halves (driven while K is high)
        let mut dq = S::ZERO;
        let known = self.sim.sample(nets.dq, &mut dq);
        for (lane, lo) in self.captured_lo.iter_mut().enumerate() {
            *lo = (known >> lane & 1 == 1).then_some(dq.as_ref()[lane]);
        }
        at_rising(&mut self.sim);

        // falling edge: write address + write data high half + high
        // byte enables
        for (net, col) in [nets.addr, nets.wdata, nets.bw].into_iter().zip(&fall) {
            self.sim.stage(net, col);
        }
        stage_xs(&mut self.sim);
        self.pending_x.fill(None);
        self.sim.stage_all(nets.k, 0);
        self.sim.settle();

        // merge the DDR halves per lane and bank
        let known = self.sim.sample(nets.dq, &mut dq);
        let (banks, half) = (nets.dv.len(), cfg.half_width());
        for (b, &dv) in nets.dv.iter().enumerate() {
            let valid = self.sim.ones(dv) & known;
            for (lane, lo) in self.captured_lo.iter().enumerate() {
                self.outputs[lane * banks + b] = match lo {
                    Some(lo) if valid >> lane & 1 == 1 => Some(lo | (dq.as_ref()[lane] << half)),
                    _ => None,
                };
            }
        }
        self.cycles += 1;
    }
}

impl LaRtlDriver {
    /// Arms a four-state X injection: during the next [`Self::cycle`]
    /// the pin is driven with all-X on both clock edges, overriding the
    /// operations. Whatever the design samples from that pin (a write
    /// word, an address, a select) becomes X and propagates through the
    /// state like a real unknown.
    pub fn inject_x(&mut self, pin: XPin) {
        self.pending_x[0] = Some(pin);
    }

    /// Runs one full clock cycle with at most one read and one write
    /// (the single address bus allows no more).
    ///
    /// # Panics
    ///
    /// Panics if the operations break the bus protocol
    /// ([`decode_cycle`]).
    pub fn cycle(&mut self, ops: &[BankOp]) {
        self.cycle_lanes(std::slice::from_ref(&ops));
    }

    /// Like [`Self::cycle`], invoking `at_rising` once the rising edge
    /// has settled (the OVL sampling point).
    pub fn cycle_with<F: FnOnce(&mut RtlSim)>(&mut self, ops: &[BankOp], at_rising: F) {
        self.cycle_lanes_with(std::slice::from_ref(&ops), at_rising);
    }

    /// The word a bank produced in the last completed cycle (both DDR
    /// halves merged), if its data-valid flag was set.
    pub fn bank_output(&self, bank: u32) -> Option<u64> {
        self.outputs[bank as usize]
    }

    /// Whether a bank's parity checker fired at the last rising edge.
    pub fn parity_error(&self, bank: u32) -> bool {
        self.lane_parity_error(0, bank)
    }

    /// Whether the bank's write-done register is set after the last
    /// completed cycle.
    pub fn write_done(&self, bank: u32) -> bool {
        self.lane_write_done(0, bank)
    }
}

impl LaRtlBatchDriver {
    /// A driver over `scalar`'s design with `scalar`'s state in every
    /// lane: the simulator broadcast by
    /// [`BatchedRtlSim::import_broadcast`], the cycle count copied and
    /// the DDR-merge bookkeeping repeated per lane. Its snapshot equals,
    /// byte for byte, that of a batched driver that ran `scalar`'s
    /// operations in every lane, without running them again.
    ///
    /// # Errors
    ///
    /// Fails if an X injection is armed on `scalar` (as
    /// [`LaDriver::snapshot_state`] does).
    pub fn broadcast(scalar: &LaRtlDriver) -> Result<LaRtlBatchDriver, String> {
        scalar.check_no_pending_x()?;
        let mut driver = LaRtlBatchDriver::new(&scalar.design);
        driver.sim.import_broadcast(&scalar.sim)?;
        driver.cycles = scalar.cycles;
        driver.captured_lo.fill(scalar.captured_lo[0]);
        driver.outputs = scalar.outputs.repeat(LANES);
        Ok(driver)
    }

    /// Arms a four-state X injection on one lane for the next cycle
    /// (see [`LaRtlDriver::inject_x`]).
    pub fn inject_x(&mut self, lane: usize, pin: XPin) {
        self.pending_x[lane] = Some(pin);
    }

    /// [`LaDriver::cycle_lanes`].
    pub fn cycle(&mut self, ops: &[&[BankOp]]) {
        self.cycle_lanes(ops);
    }

    /// Like [`Self::cycle`], invoking `at_rising` once the rising edge
    /// has settled (sample monitors there: one
    /// [`la1_rtl::Sim::run_probes`] serves every lane).
    pub fn cycle_with<F: FnOnce(&mut BatchedRtlSim)>(&mut self, ops: &[&[BankOp]], at_rising: F) {
        self.cycle_lanes_with(ops, at_rising);
    }

    /// [`LaRtlDriver::bank_output`] of one lane.
    pub fn bank_output(&self, lane: usize, bank: u32) -> Option<u64> {
        self.lane_output(lane, bank)
    }

    /// [`LaRtlDriver::parity_error`] of one lane.
    pub fn parity_error(&self, lane: usize, bank: u32) -> bool {
        self.lane_parity_error(lane, bank)
    }

    /// [`LaRtlDriver::write_done`] of one lane.
    pub fn write_done(&self, lane: usize, bank: u32) -> bool {
        self.lane_write_done(lane, bank)
    }
}

/// A plain-data snapshot of an [`LaDriver`] at a protocol-cycle
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaDriverSnap<St> {
    /// The simulator's exported state.
    pub sim: St,
    /// Completed protocol cycles.
    pub cycles: u64,
    /// The low DDR half captured during the last high phase, per lane.
    pub captured_lo: Vec<Option<u64>>,
    /// Merged output words per lane per bank.
    pub outputs: Vec<Vec<Option<u64>>>,
}

/// A snapshot of an [`LaRtlDriver`].
pub type RtlDriverSnap = LaDriverSnap<RtlState>;

/// A snapshot of an [`LaRtlBatchDriver`] (bit-plane encoded state).
pub type RtlBatchDriverSnap = LaDriverSnap<BatchedRtlState>;

/// A ripple-carry incrementer: `net + 1` truncated to `width` bits.
fn increment(net: NetId, width: u32) -> Expr {
    let mut parts = Vec::with_capacity(width as usize);
    let mut carry = Expr::bit(true);
    for i in 0..width {
        let bit = Expr::Index(net, i);
        parts.push(Expr::xor(bit.clone(), carry.clone()));
        carry = Expr::and(carry, bit);
    }
    Expr::Concat(parts)
}
