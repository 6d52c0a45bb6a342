//! The SystemC-level LA-1 model with attached compiled PSL monitors.
//!
//! The paper translates the verified ASM model to SystemC by syntactic
//! mapping (classes → modules, preconditions → triggering conditions)
//! and attaches the PSL properties as *external monitors compiled to
//! C#*. Here the modules are processes over `la1-eventsim` signals and
//! the monitors are `la1-psl` [`BoundMonitor`]s stepped once per clock
//! cycle — compiled Rust playing the role of compiled C#/C++.
//!
//! State shared between the port processes (the SRAM array, the message
//! trace, the fault switches) lives in the kernel's channel arena and
//! is reached through the `&mut SimState` each process receives; the
//! model captures only `Copy` signal and channel handles, so the
//! per-cycle hot path runs without `Rc`/`RefCell`.
//!
//! Timing (matching the ASM model and Fig. 3):
//!
//! * rising `K` of cycle *n*: requests are sampled; the read pipeline
//!   shifts; data for a read issued at *n − 2* is driven (low half);
//!   a write accepted at *n − 1* reports `wdone`;
//! * falling `K` of cycle *n*: the read data high half is driven; the
//!   `wdone` write commits to the SRAM; the write data high half is
//!   captured.

use crate::properties::cycle_properties_for;
use crate::spec::{byte_parity, BankOp, LaConfig};
use crate::uml::{ClockRef, ObservedMessage};
use la1_eventsim::{Signal, Simulator};
use la1_psl::{BindError, BoundMonitor, Directive, Monitor, MonitorSnap};

/// Signals of one bank's read and write ports (all `Copy` handles).
#[derive(Clone, Copy)]
struct ScBank {
    // host request side
    rd_req: Signal<bool>,
    rd_addr: Signal<u64>,
    wr_req: Signal<bool>,
    wr_addr: Signal<u64>,
    wr_data_lo: Signal<u64>,
    wr_data_hi: Signal<u64>,
    wr_byte_en: Signal<u32>,
    // read pipeline
    rv1: Signal<bool>,
    rv2: Signal<bool>,
    dv: Signal<bool>,
    out_lo: Signal<u64>,
    out_hi: Signal<u64>,
    out_par_lo: Signal<u64>,
    out_par_hi: Signal<u64>,
    perr: Signal<bool>,
    // write pipeline
    wv: Signal<bool>,
    wdone: Signal<bool>,
}

/// Internal per-bank state the port processes capture by handle. The
/// model keeps a second copy of the handles so checkpointing can read
/// and force every stateful signal without reaching into the closures.
#[derive(Clone, Copy)]
struct ScBankInternal {
    sram: u32,
    ra1: Signal<u64>,
    ra2: Signal<u64>,
    word_hold: Signal<u64>,
    wa_c: Signal<u64>,
    wd_lo_c: Signal<u64>,
    wd_hi_c: Signal<u64>,
    be_c: Signal<u32>,
    hi_err: Signal<bool>,
    beat2: Signal<bool>,
    beat2_addr: Signal<u64>,
}

/// A recorded monitor violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScViolation {
    /// Directive name.
    pub property: String,
    /// Cycle index at which the monitor reported `P_status && !P_value`.
    pub cycle: u64,
}

/// The LA-1 interface at the SystemC level.
///
/// See the crate-level quickstart for an example.
pub struct LaSystemC {
    sim: Simulator,
    cfg: LaConfig,
    k: Signal<bool>,
    k_bar: Signal<bool>,
    banks: Vec<ScBank>,
    internals: Vec<ScBankInternal>,
    monitors: Vec<(String, BoundMonitor)>,
    violations: Vec<ScViolation>,
    cycles: u64,
    /// channel handles into the kernel arena for state shared with the
    /// port processes
    trace_chan: u32,
    trace_enabled_chan: u32,
    parity_fault_chan: u32,
    /// cycle number visible to the tracing processes
    cycle_chan: u32,
    /// reusable monitor-snapshot buffer (hot path of Table 3)
    snapshot: Vec<bool>,
    /// cycle of the most recent read request (burst protocol check)
    last_read: Option<u64>,
}

impl std::fmt::Debug for LaSystemC {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaSystemC")
            .field("banks", &self.banks.len())
            .field("cycles", &self.cycles)
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

impl LaSystemC {
    /// Elaborates the model for `config`.
    pub fn new(config: &LaConfig) -> Self {
        let mut sim = Simulator::new();
        let k = sim.signal("K", false);
        let k_bar = sim.signal("K#", true);

        let word_mask = config.mask_word(u64::MAX);
        let trace_chan = sim.add_channel(Vec::<ObservedMessage>::new());
        let trace_enabled_chan = sim.add_channel(false);
        let parity_fault_chan = sim.add_channel(None::<u32>);
        let cycle_chan = sim.add_channel(0u64);

        let mut banks = Vec::new();
        let mut internals = Vec::new();
        for b in 0..config.banks {
            let bank = ScBank {
                rd_req: sim.signal(format!("rd_req_{b}"), false),
                rd_addr: sim.signal(format!("rd_addr_{b}"), 0),
                wr_req: sim.signal(format!("wr_req_{b}"), false),
                wr_addr: sim.signal(format!("wr_addr_{b}"), 0),
                wr_data_lo: sim.signal(format!("wr_data_lo_{b}"), 0),
                wr_data_hi: sim.signal(format!("wr_data_hi_{b}"), 0),
                wr_byte_en: sim.signal(format!("wr_byte_en_{b}"), 0),
                rv1: sim.signal(format!("rv1_{b}"), false),
                rv2: sim.signal(format!("rv2_{b}"), false),
                dv: sim.signal(format!("dv_{b}"), false),
                out_lo: sim.signal(format!("out_lo_{b}"), 0),
                out_hi: sim.signal(format!("out_hi_{b}"), 0),
                out_par_lo: sim.signal(format!("out_par_lo_{b}"), 0),
                out_par_hi: sim.signal(format!("out_par_hi_{b}"), 0),
                perr: sim.signal(format!("perr_{b}"), false),
                wv: sim.signal(format!("wv_{b}"), false),
                wdone: sim.signal(format!("wdone_{b}"), false),
            };
            let sram = sim.add_channel(vec![0u64; config.words_per_bank as usize]);
            // internal pipeline state shared by the two port processes
            let ra1 = sim.signal(format!("ra1_{b}"), 0u64);
            let ra2 = sim.signal(format!("ra2_{b}"), 0u64);
            let word_hold = sim.signal(format!("word_hold_{b}"), 0u64);
            let wa_c = sim.signal(format!("wa_c_{b}"), 0u64);
            let wd_lo_c = sim.signal(format!("wd_lo_c_{b}"), 0u64);
            let wd_hi_c = sim.signal(format!("wd_hi_c_{b}"), 0u64);
            let be_c = sim.signal(format!("be_c_{b}"), 0u32);
            let hi_err_latch = sim.signal(format!("hi_err_{b}"), false);
            // LA-1B burst extension: the second beat's pending flag and
            // auto-incremented address
            let beat2 = sim.signal(format!("beat2_{b}"), false);
            let beat2_addr = sim.signal(format!("beat2_addr_{b}"), 0u64);
            internals.push(ScBankInternal {
                sram,
                ra1,
                ra2,
                word_hold,
                wa_c,
                wd_lo_c,
                wd_hi_c,
                be_c,
                hi_err: hi_err_latch,
                beat2,
                beat2_addr,
            });

            // --- ReadPort module ------------------------------------
            {
                let cfg = config.clone();
                let bk = bank;
                let hi_err = hi_err_latch;
                let sens = [k.event()];
                let burst = cfg.is_burst();
                sim.process(format!("read_port_{b}"), &sens, move |st| {
                    let trace_on = *st.channel::<bool>(trace_enabled_chan);
                    let pfault = *st.channel::<Option<u32>>(parity_fault_chan);
                    let cyc = *st.channel::<u64>(cycle_chan) as u32;
                    if k.read(st) {
                        // rising edge of K; in burst mode a pending
                        // second beat also drives the bus this cycle
                        let beat = burst && beat2.read(st);
                        let producing = bk.rv2.read(st) || beat;
                        bk.dv.write(st, producing);
                        // schedule the burst's second beat
                        if burst {
                            beat2.write(st, bk.rv2.read(st));
                            beat2_addr.write(st, (ra2.read(st) + 1) % cfg.words_per_bank as u64);
                        }
                        if producing {
                            let read_addr = if bk.rv2.read(st) {
                                ra2.read(st)
                            } else {
                                beat2_addr.read(st)
                            };
                            let word = st.channel::<Vec<u64>>(sram)[read_addr as usize];
                            word_hold.write(st, word);
                            let lo = cfg.low_half(word);
                            bk.out_lo.write(st, lo);
                            let mut p = byte_parity(lo, cfg.half_width());
                            if pfault == Some(b) {
                                p ^= 1; // injected parity fault
                            }
                            bk.out_par_lo.write(st, p);
                            if trace_on {
                                st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                    ObservedMessage {
                                        from: "ReadPort".into(),
                                        to: "NetworkProcessor".into(),
                                        method: "OnReadRequest".into(),
                                        cycle: cyc,
                                        clock: ClockRef::K,
                                    },
                                );
                            }
                        } else {
                            bk.out_lo.write(st, 0);
                            bk.out_par_lo.write(st, 0);
                        }
                        // parity check of the previous rising half plus
                        // the latched falling-half verdict
                        let lo_now = if producing {
                            let read_addr = if bk.rv2.read(st) {
                                ra2.read(st)
                            } else {
                                beat2_addr.read(st)
                            };
                            cfg.low_half(st.channel::<Vec<u64>>(sram)[read_addr as usize])
                        } else {
                            0
                        };
                        let expect = byte_parity(lo_now, cfg.half_width());
                        let drive = if pfault == Some(b) && producing {
                            expect ^ 1
                        } else {
                            expect
                        };
                        bk.perr
                            .write(st, (producing && drive != expect) || hi_err.read(st));
                        // pipeline shift
                        bk.rv2.write(st, bk.rv1.read(st));
                        ra2.write(st, ra1.read(st));
                        let accepted = bk.rd_req.read(st);
                        bk.rv1.write(st, accepted);
                        ra1.write(st, bk.rd_addr.read(st));
                        if accepted && trace_on {
                            st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                ObservedMessage {
                                    from: "NetworkProcessor".into(),
                                    to: "ReadPort".into(),
                                    method: "OnReadRequest".into(),
                                    cycle: cyc,
                                    clock: ClockRef::K,
                                },
                            );
                        }
                        if bk.rv1.read(st) && trace_on {
                            // the stage-1 request accesses the SRAM now
                            st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                ObservedMessage {
                                    from: "ReadPort".into(),
                                    to: "SramMemory".into(),
                                    method: "LA1_SRAM_OnReadRequest".into(),
                                    cycle: cyc,
                                    clock: ClockRef::K,
                                },
                            );
                            st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                ObservedMessage {
                                    from: "ReadPort".into(),
                                    to: "ReadPort".into(),
                                    method: "FormatData".into(),
                                    cycle: cyc,
                                    clock: ClockRef::K,
                                },
                            );
                        }
                    } else {
                        // falling edge: drive the high DDR half
                        if bk.dv.read(st) {
                            let word = word_hold.read(st);
                            let hi = cfg.high_half(word);
                            bk.out_hi.write(st, hi);
                            let mut p = byte_parity(hi, cfg.half_width());
                            if pfault == Some(b) {
                                p ^= 1;
                            }
                            bk.out_par_hi.write(st, p);
                            hi_err.write(st, p != byte_parity(hi, cfg.half_width()));
                            if trace_on {
                                st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                    ObservedMessage {
                                        from: "ReadPort".into(),
                                        to: "NetworkProcessor".into(),
                                        method: "OnReadRequest".into(),
                                        cycle: cyc,
                                        clock: ClockRef::KBar,
                                    },
                                );
                            }
                        } else {
                            bk.out_hi.write(st, 0);
                            bk.out_par_hi.write(st, 0);
                            hi_err.write(st, false);
                        }
                    }
                });
            }

            // --- WritePort module -----------------------------------
            {
                let cfg = config.clone();
                let bk = bank;
                let sens = [k.event()];
                let mask_word = word_mask;
                sim.process(format!("write_port_{b}"), &sens, move |st| {
                    let trace_on = *st.channel::<bool>(trace_enabled_chan);
                    let cyc = *st.channel::<u64>(cycle_chan) as u32;
                    if k.read(st) {
                        // rising edge: commit the write accepted last
                        // cycle FIRST, using pre-update signal reads so
                        // back-to-back writes do not clobber the capture
                        // registers. (The read port of this bank runs
                        // earlier in the delta, so a concurrent read
                        // still observes the pre-commit memory — the
                        // read-before-write ordering all levels share.)
                        if bk.wv.read(st) {
                            let addr = wa_c.read(st) as usize;
                            let word = (wd_lo_c.read(st) | (wd_hi_c.read(st) << cfg.half_width()))
                                & mask_word;
                            let bit_mask = cfg.bit_mask_of(be_c.read(st));
                            let mem: &mut Vec<u64> = st.channel_mut(sram);
                            mem[addr] = (mem[addr] & !bit_mask) | (word & bit_mask);
                            if trace_on {
                                st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                    ObservedMessage {
                                        from: "WritePort".into(),
                                        to: "SramMemory".into(),
                                        method: "LA1_SRAM_OnWriteData".into(),
                                        cycle: cyc,
                                        clock: ClockRef::K,
                                    },
                                );
                            }
                        }
                        bk.wdone.write(st, bk.wv.read(st));
                        // accept a new write; capture address + low half
                        let accepted = bk.wr_req.read(st);
                        bk.wv.write(st, accepted);
                        if accepted {
                            wa_c.write(st, bk.wr_addr.read(st));
                            wd_lo_c.write(st, bk.wr_data_lo.read(st));
                            be_c.write(st, bk.wr_byte_en.read(st));
                            if trace_on {
                                st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                    ObservedMessage {
                                        from: "NetworkProcessor".into(),
                                        to: "WritePort".into(),
                                        method: "OnWriteRequest".into(),
                                        cycle: cyc,
                                        clock: ClockRef::K,
                                    },
                                );
                            }
                        }
                    } else {
                        // falling edge: capture the high data half of a
                        // newly accepted write (DDR input path)
                        if bk.wv.read(st) {
                            wd_hi_c.write(st, bk.wr_data_hi.read(st));
                            if trace_on {
                                st.channel_mut::<Vec<ObservedMessage>>(trace_chan).push(
                                    ObservedMessage {
                                        from: "NetworkProcessor".into(),
                                        to: "WritePort".into(),
                                        method: "OnReceiveData".into(),
                                        cycle: cyc,
                                        clock: ClockRef::KBar,
                                    },
                                );
                            }
                        }
                    }
                });
            }

            banks.push(bank);
        }

        let mut la1 = LaSystemC {
            sim,
            cfg: config.clone(),
            k,
            k_bar,
            banks,
            internals,
            monitors: Vec::new(),
            violations: Vec::new(),
            cycles: 0,
            trace_chan,
            trace_enabled_chan,
            parity_fault_chan,
            cycle_chan,
            snapshot: Vec::new(),
            last_read: None,
        };
        la1.sim.run_deltas(); // SystemC-style initialization run
        la1
    }

    /// Attaches PSL directives as external monitors (the paper's
    /// "assertion monitors in C#"), each bound once to the model's
    /// signal order ([`monitor_signal_names`]).
    ///
    /// # Errors
    ///
    /// [`BindError`] naming every signal the directives read that this
    /// model does not drive (e.g. `dv9` on a 1-bank model); nothing is
    /// attached then.
    pub fn attach_monitors(&mut self, directives: &[Directive]) -> Result<(), BindError> {
        let names = monitor_signal_names(self.cfg.banks);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut bound = Vec::with_capacity(directives.len());
        let mut unbound: Vec<String> = Vec::new();
        for d in directives {
            match Monitor::new(&d.property).bind(&names) {
                Ok(m) => bound.push((d.name.clone(), m)),
                Err(e) => {
                    for s in e.unbound {
                        if !unbound.contains(&s) {
                            unbound.push(s);
                        }
                    }
                }
            }
        }
        if !unbound.is_empty() {
            return Err(BindError { unbound });
        }
        self.monitors.extend(bound);
        Ok(())
    }

    /// Attaches the default cycle-level property suite (burst-aware).
    pub fn attach_default_monitors(&mut self) {
        let dirs = cycle_properties_for(&self.cfg);
        self.attach_monitors(&dirs)
            .expect("the default suite reads only the model's signals");
    }

    /// Advances one full clock cycle with the given operations applied
    /// at the rising edge.
    ///
    /// # Panics
    ///
    /// Panics if an operation targets a bank or address out of range.
    pub fn cycle(&mut self, ops: &[BankOp]) {
        *self.sim.channel_mut::<u64>(self.cycle_chan) = self.cycles;
        // present requests (setup before the rising edge)
        for bank in &self.banks {
            bank.rd_req.write(&mut self.sim, false);
            bank.wr_req.write(&mut self.sim, false);
        }
        for op in ops {
            let bank = self.banks[op.bank() as usize];
            match *op {
                BankOp::Read { addr, .. } => {
                    assert!(addr < self.cfg.words_per_bank as u64, "read address range");
                    if self.cfg.is_burst() {
                        // LA-1B: the output bus is busy for burst_len
                        // cycles, so reads must be spaced accordingly
                        assert!(
                            self.last_read
                                .is_none_or(|c| { self.cycles - c >= self.cfg.burst_len as u64 }),
                            "burst protocol violation: reads must be {} cycles apart",
                            self.cfg.burst_len
                        );
                    }
                    self.last_read = Some(self.cycles);
                    bank.rd_req.write(&mut self.sim, true);
                    bank.rd_addr.write(&mut self.sim, addr);
                }
                BankOp::Write {
                    addr,
                    data,
                    byte_en,
                    ..
                } => {
                    assert!(addr < self.cfg.words_per_bank as u64, "write address range");
                    bank.wr_req.write(&mut self.sim, true);
                    bank.wr_addr.write(&mut self.sim, addr);
                    let data = self.cfg.mask_word(data);
                    bank.wr_data_lo.write(&mut self.sim, self.cfg.low_half(data));
                    bank.wr_data_hi
                        .write(&mut self.sim, self.cfg.high_half(data));
                    bank.wr_byte_en.write(&mut self.sim, byte_en);
                }
            }
        }
        // rising edge of K / falling of K# (the request updates settle
        // in the same instant, before the edge-sensitive processes run)
        self.k.write(&mut self.sim, true);
        self.k_bar.write(&mut self.sim, false);
        self.sim.run_deltas();
        // sample the monitors at the settled rising edge
        self.sample_monitors();
        // falling edge of K / rising of K#
        self.k.write(&mut self.sim, false);
        self.k_bar.write(&mut self.sim, true);
        self.sim.run_deltas();
        self.cycles += 1;
    }

    fn sample_monitors(&mut self) {
        if self.monitors.is_empty() {
            return;
        }
        self.snapshot.clear();
        for bank in &self.banks {
            self.snapshot.push(bank.rv1.read(&self.sim));
            self.snapshot.push(bank.wv.read(&self.sim));
            self.snapshot.push(bank.dv.read(&self.sim));
            self.snapshot.push(bank.perr.read(&self.sim));
            self.snapshot.push(bank.wdone.read(&self.sim));
        }
        let snapshot = &self.snapshot;
        for (name, mon) in &mut self.monitors {
            let st = mon.step(snapshot);
            if st.is_violation() && !self.violations.iter().any(|v| v.property == *name) {
                self.violations.push(ScViolation {
                    property: name.clone(),
                    cycle: self.cycles,
                });
            }
        }
    }

    /// The word a bank is currently driving, if its data-valid flag is
    /// set (both DDR halves merged).
    pub fn bank_output(&self, bank: u32) -> Option<u64> {
        let b = &self.banks[bank as usize];
        if !b.dv.read(&self.sim) {
            return None;
        }
        Some(b.out_lo.read(&self.sim) | (b.out_hi.read(&self.sim) << self.cfg.half_width()))
    }

    /// Whether a bank's parity checker currently flags an error.
    pub fn parity_error(&self, bank: u32) -> bool {
        self.banks[bank as usize].perr.read(&self.sim)
    }

    /// Whether a bank reports a completed write this cycle.
    pub fn write_done(&self, bank: u32) -> bool {
        self.banks[bank as usize].wdone.read(&self.sim)
    }

    /// Recorded monitor violations.
    pub fn violations(&self) -> &[ScViolation] {
        &self.violations
    }

    /// Completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total kernel process activations (simulator-load statistic).
    pub fn activations(&self) -> u64 {
        self.sim.activations()
    }

    /// Starts recording the message trace (Fig. 3 checking).
    pub fn enable_trace(&mut self) {
        *self.sim.channel_mut::<bool>(self.trace_enabled_chan) = true;
    }

    /// The recorded message trace.
    pub fn trace(&self) -> Vec<ObservedMessage> {
        self.sim
            .channel::<Vec<ObservedMessage>>(self.trace_chan)
            .clone()
    }

    /// Injects a parity-generation fault on `bank` (for testing the
    /// monitors and the OVL comparison).
    pub fn inject_parity_fault(&mut self, bank: u32) {
        *self.sim.channel_mut::<Option<u32>>(self.parity_fault_chan) = Some(bank);
    }

    /// Clears an injected parity fault.
    pub fn clear_parity_fault(&mut self) {
        *self.sim.channel_mut::<Option<u32>>(self.parity_fault_chan) = None;
    }

    /// Captures the model's complete dynamic state at a cycle boundary.
    ///
    /// At a boundary the event kernel is quiescent (no queued updates,
    /// no notified processes, no timed events), so the model's state is
    /// exactly: every signal's current value, every channel's contents,
    /// the kernel's statistic counters, the attached monitors'
    /// obligation state, and the host-side bookkeeping. Restoring that
    /// into a freshly elaborated model ([`LaSystemC::restore_state`])
    /// continues byte-for-byte identically to never having stopped.
    ///
    /// # Errors
    ///
    /// Fails if called mid-delta (only possible from inside a process).
    pub fn snapshot_state(&self) -> Result<ScSnap, String> {
        if !self.sim.is_settled() {
            return Err("cannot snapshot between delta cycles".to_string());
        }
        let st = &self.sim;
        let mut banks = Vec::with_capacity(self.banks.len());
        for (bank, inner) in self.banks.iter().zip(&self.internals) {
            banks.push(ScBankSnap {
                rd_req: bank.rd_req.read(st),
                rd_addr: bank.rd_addr.read(st),
                wr_req: bank.wr_req.read(st),
                wr_addr: bank.wr_addr.read(st),
                wr_data_lo: bank.wr_data_lo.read(st),
                wr_data_hi: bank.wr_data_hi.read(st),
                wr_byte_en: bank.wr_byte_en.read(st),
                rv1: bank.rv1.read(st),
                rv2: bank.rv2.read(st),
                dv: bank.dv.read(st),
                out_lo: bank.out_lo.read(st),
                out_hi: bank.out_hi.read(st),
                out_par_lo: bank.out_par_lo.read(st),
                out_par_hi: bank.out_par_hi.read(st),
                perr: bank.perr.read(st),
                wv: bank.wv.read(st),
                wdone: bank.wdone.read(st),
                ra1: inner.ra1.read(st),
                ra2: inner.ra2.read(st),
                word_hold: inner.word_hold.read(st),
                wa_c: inner.wa_c.read(st),
                wd_lo_c: inner.wd_lo_c.read(st),
                wd_hi_c: inner.wd_hi_c.read(st),
                be_c: inner.be_c.read(st),
                hi_err: inner.hi_err.read(st),
                beat2: inner.beat2.read(st),
                beat2_addr: inner.beat2_addr.read(st),
                sram: st.channel::<Vec<u64>>(inner.sram).clone(),
            });
        }
        let monitors = self
            .monitors
            .iter()
            .map(|(name, mon)| (name.clone(), mon.snapshot()))
            .collect();
        Ok(ScSnap {
            k: self.k.read(st),
            k_bar: self.k_bar.read(st),
            banks,
            trace: st.channel::<Vec<ObservedMessage>>(self.trace_chan).clone(),
            trace_enabled: *st.channel::<bool>(self.trace_enabled_chan),
            parity_fault: *st.channel::<Option<u32>>(self.parity_fault_chan),
            kernel: st.kernel_stats(),
            monitors,
            violations: self.violations.clone(),
            cycles: self.cycles,
            last_read: self.last_read,
        })
    }

    /// Installs a [`LaSystemC::snapshot_state`] snapshot into this
    /// model, which must be freshly elaborated for the same
    /// configuration with the same monitors attached in the same order.
    ///
    /// Every stateful signal is forced to its captured value, channels
    /// and kernel counters are overwritten, and each monitor's
    /// obligations are checked against its compiled property and
    /// installed — no delta cycles run, because the snapshot was taken
    /// settled.
    ///
    /// # Errors
    ///
    /// Fails without modifying the model if the bank count, SRAM
    /// geometry or monitor list does not match the snapshot, or an
    /// address signal (`rd_addr`, `wr_addr`, `ra1`, `ra2`, `wa_c`,
    /// `beat2_addr`) lies outside the bank — a state the next
    /// [`LaSystemC::cycle`] could not step.
    pub fn restore_state(&mut self, snap: &ScSnap) -> Result<(), String> {
        if snap.banks.len() != self.banks.len() {
            return Err(format!(
                "snapshot has {} banks, model has {}",
                snap.banks.len(),
                self.banks.len()
            ));
        }
        if snap.monitors.len() != self.monitors.len() {
            return Err(format!(
                "snapshot has {} monitors, model has {}",
                snap.monitors.len(),
                self.monitors.len()
            ));
        }
        let words = self.cfg.words_per_bank as u64;
        for (b, (inner, bs)) in self.internals.iter().zip(&snap.banks).enumerate() {
            let sram = self.sim.channel::<Vec<u64>>(inner.sram).len();
            if bs.sram.len() != sram {
                return Err(format!(
                    "snapshot SRAM has {} words, model has {sram}",
                    bs.sram.len()
                ));
            }
            for (addr, what) in [
                (bs.rd_addr, "rd_addr"),
                (bs.wr_addr, "wr_addr"),
                (bs.ra1, "ra1"),
                (bs.ra2, "ra2"),
                (bs.wa_c, "wa_c"),
                (bs.beat2_addr, "beat2_addr"),
            ] {
                if addr >= words {
                    return Err(format!(
                        "bank {b}: {what} = {addr} outside the bank's {words} words"
                    ));
                }
            }
        }
        // restored into copies, so a refused obligation leaves every
        // live monitor as it was
        let mut monitors = self.monitors.clone();
        for ((name, mon), (snap_name, ms)) in monitors.iter_mut().zip(&snap.monitors) {
            if name != snap_name {
                return Err(format!(
                    "monitor mismatch: model has {name}, snapshot has {snap_name}"
                ));
            }
            mon.restore(ms)
                .map_err(|e| format!("monitor {name}: {e}"))?;
        }
        self.monitors = monitors;
        let st = &mut self.sim;
        self.k.force(st, snap.k);
        self.k_bar.force(st, snap.k_bar);
        for ((bank, inner), bs) in self.banks.iter().zip(&self.internals).zip(&snap.banks) {
            bank.rd_req.force(st, bs.rd_req);
            bank.rd_addr.force(st, bs.rd_addr);
            bank.wr_req.force(st, bs.wr_req);
            bank.wr_addr.force(st, bs.wr_addr);
            bank.wr_data_lo.force(st, bs.wr_data_lo);
            bank.wr_data_hi.force(st, bs.wr_data_hi);
            bank.wr_byte_en.force(st, bs.wr_byte_en);
            bank.rv1.force(st, bs.rv1);
            bank.rv2.force(st, bs.rv2);
            bank.dv.force(st, bs.dv);
            bank.out_lo.force(st, bs.out_lo);
            bank.out_hi.force(st, bs.out_hi);
            bank.out_par_lo.force(st, bs.out_par_lo);
            bank.out_par_hi.force(st, bs.out_par_hi);
            bank.perr.force(st, bs.perr);
            bank.wv.force(st, bs.wv);
            bank.wdone.force(st, bs.wdone);
            inner.ra1.force(st, bs.ra1);
            inner.ra2.force(st, bs.ra2);
            inner.word_hold.force(st, bs.word_hold);
            inner.wa_c.force(st, bs.wa_c);
            inner.wd_lo_c.force(st, bs.wd_lo_c);
            inner.wd_hi_c.force(st, bs.wd_hi_c);
            inner.be_c.force(st, bs.be_c);
            inner.hi_err.force(st, bs.hi_err);
            inner.beat2.force(st, bs.beat2);
            inner.beat2_addr.force(st, bs.beat2_addr);
            st.channel_mut::<Vec<u64>>(inner.sram).clone_from(&bs.sram);
        }
        st.channel_mut::<Vec<ObservedMessage>>(self.trace_chan)
            .clone_from(&snap.trace);
        *st.channel_mut::<bool>(self.trace_enabled_chan) = snap.trace_enabled;
        *st.channel_mut::<Option<u32>>(self.parity_fault_chan) = snap.parity_fault;
        st.restore_kernel_stats(snap.kernel);
        self.violations.clone_from(&snap.violations);
        self.cycles = snap.cycles;
        self.last_read = snap.last_read;
        Ok(())
    }
}

/// Snapshot of one bank's signals and SRAM contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScBankSnap {
    /// Host-side request signals (quiescent between cycles, captured
    /// for completeness).
    pub rd_req: bool,
    /// Read address input.
    pub rd_addr: u64,
    /// Write request input.
    pub wr_req: bool,
    /// Write address input.
    pub wr_addr: u64,
    /// Write data, low DDR half.
    pub wr_data_lo: u64,
    /// Write data, high DDR half.
    pub wr_data_hi: u64,
    /// Byte enables of the pending write.
    pub wr_byte_en: u32,
    /// Read pipeline stage-1 valid.
    pub rv1: bool,
    /// Read pipeline stage-2 valid.
    pub rv2: bool,
    /// Data-valid output.
    pub dv: bool,
    /// Output word, low half.
    pub out_lo: u64,
    /// Output word, high half.
    pub out_hi: u64,
    /// Output parity, low half.
    pub out_par_lo: u64,
    /// Output parity, high half.
    pub out_par_hi: u64,
    /// Parity-error flag.
    pub perr: bool,
    /// Write accepted flag.
    pub wv: bool,
    /// Write done flag.
    pub wdone: bool,
    /// Read pipeline stage-1 address.
    pub ra1: u64,
    /// Read pipeline stage-2 address.
    pub ra2: u64,
    /// The word held for the falling-edge DDR half.
    pub word_hold: u64,
    /// Captured write address.
    pub wa_c: u64,
    /// Captured write data, low half.
    pub wd_lo_c: u64,
    /// Captured write data, high half.
    pub wd_hi_c: u64,
    /// Captured byte enables.
    pub be_c: u32,
    /// Latched high-half parity error.
    pub hi_err: bool,
    /// LA-1B second-beat pending flag.
    pub beat2: bool,
    /// LA-1B second-beat address.
    pub beat2_addr: u64,
    /// The bank's SRAM contents.
    pub sram: Vec<u64>,
}

/// A plain-data snapshot of a [`LaSystemC`] model at a cycle boundary
/// — see [`LaSystemC::snapshot_state`]. Serialization lives in the
/// checkpoint layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScSnap {
    /// Clock `K` level (low between cycles).
    pub k: bool,
    /// Clock `K#` level.
    pub k_bar: bool,
    /// Per-bank signal and SRAM state.
    pub banks: Vec<ScBankSnap>,
    /// The recorded UML message trace.
    pub trace: Vec<ObservedMessage>,
    /// Whether trace recording is on.
    pub trace_enabled: bool,
    /// An injected parity fault, if armed.
    pub parity_fault: Option<u32>,
    /// Kernel statistic counters: (time, timed_seq, activations,
    /// deltas, updates_applied).
    pub kernel: (u64, u64, u64, u64, u64),
    /// Per-monitor obligation state, in attach order.
    pub monitors: Vec<(String, MonitorSnap)>,
    /// Recorded property violations.
    pub violations: Vec<ScViolation>,
    /// Completed cycles.
    pub cycles: u64,
    /// Cycle of the most recent read (burst spacing check).
    pub last_read: Option<u64>,
}

/// The fixed monitor signal order: per bank `rd{b}`, `wr{b}`, `dv{b}`,
/// `perr{b}`, `wdone{b}`.
pub fn monitor_signal_names(banks: u32) -> Vec<String> {
    let mut names = Vec::new();
    for b in 0..banks {
        names.push(format!("rd{b}"));
        names.push(format!("wr{b}"));
        names.push(format!("dv{b}"));
        names.push(format!("perr{b}"));
        names.push(format!("wdone{b}"));
    }
    names
}
