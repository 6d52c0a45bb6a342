//! The simulation kernel: processes, events, delta cycles and time.
//!
//! The kernel is *arena-indexed*: signals and channels live in dense
//! vectors inside [`SimState`], identified by `u32` handles. Processes
//! are closures receiving `&mut SimState`, so the evaluate/update hot
//! path runs without `Rc`, `RefCell` or per-event allocation:
//!
//! * static sensitivity is a flat CSR adjacency (event → process ids),
//! * the update queue is a deduplicated vector of slot ids (a signal
//!   written several times in one evaluate phase enqueues once),
//! * process activation uses an epoch-stamped run queue instead of
//!   per-process boolean flags or hash sets.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Simulation time in abstract time units (the LA-1 models use one unit
/// per quarter clock period).
pub type SimTime = u64;

/// Identifier of a kernel event.
///
/// Events connect value changes (or explicit notifications) to the
/// processes statically sensitive to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event(pub(crate) u32);

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a registered process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub(crate) u32);

/// One arena slot holding a signal's storage (type-erased so slots of
/// different value types share the dense vector).
pub(crate) trait SignalSlot {
    /// Applies the pending write; returns the event to fire if the value
    /// changed.
    fn apply_update(&mut self) -> Option<Event>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The kernel's mutable world: signal slots, channels, the event
/// calendar and the statistics counters.
///
/// Processes receive `&mut SimState` each activation; signal and
/// channel handles index into it. [`Simulator`] dereferences to
/// `SimState`, so handle methods accept the simulator directly outside
/// of processes.
pub struct SimState {
    pub(crate) time: SimTime,
    pub(crate) next_event: u32,
    /// the signal arena (slot id == `Signal::id`)
    pub(crate) slots: Vec<Box<dyn SignalSlot>>,
    /// slot ids with pending writes; deduplicated via each slot's
    /// `queued` flag, so last-write-wins applies exactly once
    pub(crate) update_queue: Vec<u32>,
    /// events notified for the next delta
    pub(crate) delta_notified: Vec<Event>,
    /// timed notifications: (time, seq for stable order, event)
    timed: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    timed_seq: u64,
    /// non-signal channel storage (FIFOs, semaphores, mutexes)
    pub(crate) channels: Vec<Box<dyn Any>>,
    /// total evaluate-phase process activations (a load statistic)
    pub(crate) activations: u64,
    /// total delta cycles executed
    pub(crate) deltas: u64,
    /// total update-phase applications (one per queued slot per delta)
    pub(crate) updates_applied: u64,
}

impl SimState {
    fn new() -> Self {
        SimState {
            time: 0,
            next_event: 0,
            slots: Vec::new(),
            update_queue: Vec::new(),
            delta_notified: Vec::new(),
            timed: BinaryHeap::new(),
            timed_seq: 0,
            channels: Vec::new(),
            activations: 0,
            deltas: 0,
            updates_applied: 0,
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Total process activations so far (a simulator-load statistic used
    /// by the Table 3 harness).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Total delta cycles executed so far.
    pub fn delta_cycles(&self) -> u64 {
        self.deltas
    }

    /// Total update-phase applications so far. With the deduplicated
    /// update queue this counts *slots* updated, not writes issued.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Slots currently awaiting the update phase.
    pub fn pending_updates(&self) -> usize {
        self.update_queue.len()
    }

    /// Whether the kernel is quiescent: no pending updates, no delta
    /// notifications, no timed notifications. At a settled cycle
    /// boundary (after [`crate::Simulator::run_deltas`]) this holds by
    /// construction — the checkpoint layer requires it, because a
    /// quiescent kernel's state is exactly its signal values, channel
    /// contents and counters.
    pub fn is_settled(&self) -> bool {
        self.update_queue.is_empty() && self.delta_notified.is_empty() && self.timed.is_empty()
    }

    /// The kernel's counter state — `(time, timed_seq, activations,
    /// deltas, updates_applied)` — for checkpointing a settled kernel.
    pub fn kernel_stats(&self) -> (SimTime, u64, u64, u64, u64) {
        (
            self.time,
            self.timed_seq,
            self.activations,
            self.deltas,
            self.updates_applied,
        )
    }

    /// Restores counters captured by [`SimState::kernel_stats`] into a
    /// settled kernel. Signal values and channel contents are restored
    /// separately by the owning model (it holds the typed handles); the
    /// kernel itself only carries these counters between cycles.
    pub fn restore_kernel_stats(&mut self, stats: (SimTime, u64, u64, u64, u64)) {
        let (time, timed_seq, activations, deltas, updates_applied) = stats;
        self.time = time;
        self.timed_seq = timed_seq;
        self.activations = activations;
        self.deltas = deltas;
        self.updates_applied = updates_applied;
    }

    /// Creates a fresh event.
    pub fn event(&mut self) -> Event {
        let e = Event(self.next_event);
        self.next_event += 1;
        e
    }

    /// Notifies `event` one delta cycle from now.
    pub fn notify(&mut self, event: Event) {
        self.delta_notified.push(event);
    }

    /// Notifies `event` after `delay` time units.
    pub fn notify_after(&mut self, event: Event, delay: SimTime) {
        self.timed_seq += 1;
        self.timed
            .push(Reverse((self.time + delay, self.timed_seq, event)));
    }

    /// Stores `channel` in the kernel's channel arena and returns its
    /// handle.
    ///
    /// This is the extension point for user-defined channels (the
    /// built-in [`crate::Fifo`], [`crate::Semaphore`] and
    /// [`crate::Mutex`] use it too): state shared by several processes
    /// lives in the arena and is reached through the `&mut SimState`
    /// each process receives, instead of `Rc<RefCell<…>>` captures.
    pub fn add_channel<C: 'static>(&mut self, channel: C) -> u32 {
        let id = self.channels.len() as u32;
        self.channels.push(Box::new(channel));
        id
    }

    /// Borrows the channel stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different `SimState` or `C` is not
    /// the stored type.
    pub fn channel<C: 'static>(&self, id: u32) -> &C {
        self.channels[id as usize]
            .downcast_ref()
            .expect("channel handle used with a foreign SimState")
    }

    /// Mutably borrows the channel stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different `SimState` or `C` is not
    /// the stored type.
    pub fn channel_mut<C: 'static>(&mut self, id: u32) -> &mut C {
        self.channels[id as usize]
            .downcast_mut()
            .expect("channel handle used with a foreign SimState")
    }
}

impl fmt::Debug for SimState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimState")
            .field("time", &self.time)
            .field("signals", &self.slots.len())
            .finish()
    }
}

type ProcessFn = Box<dyn FnMut(&mut SimState)>;

struct Process {
    name: String,
    f: ProcessFn,
}

/// The SystemC-like simulator.
///
/// Create signals and processes, then advance time with
/// [`Simulator::run_deltas`] (settle the current instant),
/// [`Simulator::run_until`], or [`Simulator::run_for`].
///
/// `Simulator` dereferences to [`SimState`], so signal handles work on
/// it directly: `s.read(&sim)`, `s.write(&mut sim, v)`.
pub struct Simulator {
    state: SimState,
    processes: Vec<Process>,
    /// static sensitivity as an edge list: (event id, process id)
    sens_edges: Vec<(u32, u32)>,
    /// CSR adjacency rebuilt lazily from `sens_edges`
    csr_offsets: Vec<u32>,
    csr_procs: Vec<u32>,
    csr_dirty: bool,
    /// processes runnable this delta, plus a drain scratch
    runnable: Vec<u32>,
    run_scratch: Vec<u32>,
    /// a process is queued iff its stamp equals the current epoch
    queued_stamp: Vec<u64>,
    epoch: u64,
    update_scratch: Vec<u32>,
    fired_scratch: Vec<Event>,
    /// processes never run yet (SystemC runs every method process once
    /// at the start of simulation)
    initialized: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.state.time)
            .field("processes", &self.processes.len())
            .finish()
    }
}

impl Deref for Simulator {
    type Target = SimState;
    fn deref(&self) -> &SimState {
        &self.state
    }
}

impl DerefMut for Simulator {
    fn deref_mut(&mut self) -> &mut SimState {
        &mut self.state
    }
}

impl Simulator {
    /// Creates an empty simulator at time 0.
    pub fn new() -> Self {
        Simulator {
            state: SimState::new(),
            processes: Vec::new(),
            sens_edges: Vec::new(),
            csr_offsets: Vec::new(),
            csr_procs: Vec::new(),
            csr_dirty: false,
            runnable: Vec::new(),
            run_scratch: Vec::new(),
            queued_stamp: Vec::new(),
            epoch: 1,
            update_scratch: Vec::new(),
            fired_scratch: Vec::new(),
            initialized: false,
        }
    }

    /// The kernel state (what processes receive).
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Mutable access to the kernel state.
    pub fn state_mut(&mut self) -> &mut SimState {
        &mut self.state
    }

    /// Registers a method process statically sensitive to `sensitivity`.
    ///
    /// Like a SystemC `SC_METHOD`, the process also runs once during
    /// initialization (the first `run_*` call).
    pub fn process<F: FnMut(&mut SimState) + 'static>(
        &mut self,
        name: impl Into<String>,
        sensitivity: &[Event],
        f: F,
    ) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(Process {
            name: name.into(),
            f: Box::new(f),
        });
        self.queued_stamp.push(0);
        for &e in sensitivity {
            self.sens_edges.push((e.0, id.0));
        }
        self.csr_dirty = true;
        id
    }

    /// The name of a registered process.
    pub fn process_name(&self, id: ProcessId) -> &str {
        &self.processes[id.0 as usize].name
    }

    /// Rebuilds the CSR sensitivity adjacency from the edge list and
    /// resizes the delta loop's queues. Runs only when processes were
    /// registered (or events created: every signal creates one) since
    /// the last build — never on the hot path.
    fn ensure_csr(&mut self) {
        let num_events = self.state.next_event as usize;
        if !self.csr_dirty && self.csr_offsets.len() == num_events + 1 {
            return;
        }
        self.csr_offsets.clear();
        self.csr_offsets.resize(num_events + 1, 0);
        for &(e, _) in &self.sens_edges {
            self.csr_offsets[e as usize + 1] += 1;
        }
        for i in 0..num_events {
            self.csr_offsets[i + 1] += self.csr_offsets[i];
        }
        self.csr_procs.clear();
        self.csr_procs.resize(self.sens_edges.len(), 0);
        let mut cursor = self.csr_offsets.clone();
        for &(e, p) in &self.sens_edges {
            let at = cursor[e as usize];
            self.csr_procs[at as usize] = p;
            cursor[e as usize] += 1;
        }
        self.csr_dirty = false;
        self.reserve_queues();
    }

    /// Queues every process sensitive to the already-collected events in
    /// `fired_scratch`, then clears it.
    fn wake_fired(&mut self) {
        for &Event(e) in &self.fired_scratch {
            let lo = self.csr_offsets[e as usize] as usize;
            let hi = self.csr_offsets[e as usize + 1] as usize;
            for &p in &self.csr_procs[lo..hi] {
                if self.queued_stamp[p as usize] != self.epoch {
                    self.queued_stamp[p as usize] = self.epoch;
                    self.runnable.push(p);
                }
            }
        }
        self.fired_scratch.clear();
    }

    fn make_runnable(&mut self, id: u32) {
        if self.queued_stamp[id as usize] != self.epoch {
            self.queued_stamp[id as usize] = self.epoch;
            self.runnable.push(id);
        }
    }

    fn initialize(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for i in 0..self.processes.len() {
            self.make_runnable(i as u32);
        }
    }

    /// Sizes the delta loop's queues to their bounds, so settling an
    /// instant allocates nothing once elaboration is done: each process
    /// is queued at most once per delta, and each signal updated and
    /// fired at most once (delta notifications aside).
    #[cold]
    fn reserve_queues(&mut self) {
        let reserve = |v: &mut Vec<u32>, n: usize| v.reserve(n.saturating_sub(v.len()));
        let (procs, slots) = (self.processes.len(), self.state.slots.len());
        reserve(&mut self.runnable, procs);
        reserve(&mut self.run_scratch, procs);
        reserve(&mut self.state.update_queue, slots);
        reserve(&mut self.update_scratch, slots);
        self.fired_scratch
            .reserve(slots.saturating_sub(self.fired_scratch.len()));
    }

    /// Runs one delta cycle: evaluate all runnable processes, apply
    /// signal updates, then schedule processes woken by the resulting
    /// (and explicitly delta-notified) events.
    ///
    /// Returns `true` if any process ran.
    fn delta(&mut self) -> bool {
        if self.runnable.is_empty()
            && self.state.update_queue.is_empty()
            && self.state.delta_notified.is_empty()
        {
            return false;
        }
        self.state.deltas += 1;
        // evaluate phase: drain the run queue into scratch and open a
        // new queueing epoch so processes re-queue for the next delta
        std::mem::swap(&mut self.runnable, &mut self.run_scratch);
        self.epoch += 1;
        for i in 0..self.run_scratch.len() {
            let pid = self.run_scratch[i] as usize;
            self.state.activations += 1;
            (self.processes[pid].f)(&mut self.state);
        }
        self.run_scratch.clear();
        // update phase: apply each queued slot once (ids are dedup'd)
        std::mem::swap(&mut self.state.update_queue, &mut self.update_scratch);
        for i in 0..self.update_scratch.len() {
            let sid = self.update_scratch[i] as usize;
            self.state.updates_applied += 1;
            if let Some(e) = self.state.slots[sid].apply_update() {
                self.fired_scratch.push(e);
            }
        }
        self.update_scratch.clear();
        self.fired_scratch.append(&mut self.state.delta_notified);
        // notify phase: walk the CSR rows of the fired events
        self.ensure_csr();
        self.wake_fired();
        true
    }

    /// Settles the current simulation instant: runs delta cycles until no
    /// process is runnable. Returns the number of delta cycles executed.
    ///
    /// # Panics
    ///
    /// Panics after 10 000 delta cycles in one instant (a combinational
    /// loop in the model).
    pub fn run_deltas(&mut self) -> usize {
        self.initialize();
        let mut n = 0;
        while self.delta() {
            n += 1;
            assert!(
                n < 10_000,
                "combinational loop: instant did not settle within 10000 deltas"
            );
        }
        n
    }

    /// Advances to the next timed notification, if any, and settles that
    /// instant. Returns the new time, or `None` when no timed events
    /// remain.
    pub fn step_time(&mut self) -> Option<SimTime> {
        self.run_deltas();
        let &Reverse((t, _, _)) = self.state.timed.peek()?;
        while let Some(&Reverse((t2, _, e))) = self.state.timed.peek() {
            if t2 != t {
                break;
            }
            self.state.timed.pop();
            self.fired_scratch.push(e);
        }
        self.state.time = t;
        self.ensure_csr();
        self.wake_fired();
        self.run_deltas();
        Some(t)
    }

    /// Runs until simulation time reaches `until` (inclusive of events at
    /// `until`).
    pub fn run_until(&mut self, until: SimTime) {
        self.run_deltas();
        while let Some(&Reverse((t, _, _))) = self.state.timed.peek() {
            if t > until {
                break;
            }
            self.step_time();
        }
        if self.state.time < until {
            self.state.time = until;
        }
    }

    /// Runs for `duration` time units from the current time.
    pub fn run_for(&mut self, duration: SimTime) {
        let until = self.state.time + duration;
        self.run_until(until);
    }
}
