//! Support structures for the parallel explorer: deterministic 64-bit
//! fingerprint mixing, interning arenas for machine states and monitor
//! sets, and the sharded visited table.
//!
//! All hashing here is *content-based* and free of per-process seeds, so
//! fingerprints are identical across runs, threads and worker counts —
//! a prerequisite for the engine's determinism guarantee.

use crate::machine::AsmState;
use la1_psl::Monitor;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::RwLock;

/// Mixes two 64-bit values with a 128-bit multiply-fold (wyhash-style).
/// Deterministic, seedless, and strong enough that the visited table can
/// treat equal fingerprints as "probably equal" and fall back to an exact
/// comparison against the arena only on candidate hits.
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    let m = u128::from(a ^ 0xA076_1D64_78BD_642F) * u128::from(b ^ 0xE703_7ED1_A0B4_28DB);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Content fingerprint of a machine state (fold of [`crate::Value::fp64`]).
pub(crate) fn hash_state(state: &AsmState) -> u64 {
    let mut h = 0x2545_F491_4F6C_DD1D_u64;
    for v in &state.values {
        h = mix64(h, v.fp64());
    }
    mix64(h, state.values.len() as u64)
}

/// Combined fingerprint of a monitor set (fold of per-monitor
/// [`Monitor::fingerprint`] values, order-sensitive — monitors are in
/// directive order).
pub(crate) fn combine_fps(fps: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15_u64;
    for &fp in fps {
        h = mix64(h, fp);
    }
    mix64(h, fps.len() as u64)
}

/// A tiny index vector: up to three `u32` indices inline, spilling to the
/// heap only for fingerprint collisions deeper than that (vanishingly
/// rare with 64-bit fingerprints).
#[derive(Debug, Clone)]
pub(crate) enum SmallIdxVec {
    /// Inline storage: `buf[..len]` are the live entries.
    Inline { len: u8, buf: [u32; 3] },
    /// Heap spill for >3 entries.
    Heap(Vec<u32>),
}

impl SmallIdxVec {
    pub(crate) fn new() -> Self {
        SmallIdxVec::Inline {
            len: 0,
            buf: [0; 3],
        }
    }

    pub(crate) fn push(&mut self, idx: u32) {
        match self {
            SmallIdxVec::Inline { len, buf } => {
                if (*len as usize) < buf.len() {
                    buf[*len as usize] = idx;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(idx);
                    *self = SmallIdxVec::Heap(v);
                }
            }
            SmallIdxVec::Heap(v) => v.push(idx),
        }
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            SmallIdxVec::Inline { len, buf } => &buf[..*len as usize],
            SmallIdxVec::Heap(v) => v,
        }
    }
}

/// Interning arena for machine states.
///
/// Nodes of the product graph store a `u32` handle instead of owning an
/// [`AsmState`]; distinct product nodes that share a machine state (same
/// state, different monitor sets) share one arena entry. Lookups are by
/// content fingerprint with exact comparison on candidate hits, so the
/// arena is collision-free.
pub(crate) struct StateArena {
    states: Vec<AsmState>,
    index: HashMap<u64, SmallIdxVec>,
}

impl StateArena {
    pub(crate) fn new() -> Self {
        StateArena {
            states: Vec::new(),
            index: HashMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    pub(crate) fn get(&self, idx: u32) -> &AsmState {
        &self.states[idx as usize]
    }

    /// Interns `state` (moving it out of the caller's buffer only when it
    /// is new), returning its handle.
    pub(crate) fn intern(&mut self, hash: u64, state: &mut AsmState) -> u32 {
        let idx = self.states.len() as u32;
        match self.index.entry(hash) {
            Entry::Occupied(mut e) => {
                for &i in e.get().as_slice() {
                    if self.states[i as usize] == *state {
                        return i;
                    }
                }
                e.get_mut().push(idx);
            }
            Entry::Vacant(e) => {
                let mut v = SmallIdxVec::new();
                v.push(idx);
                e.insert(v);
            }
        }
        self.states
            .push(std::mem::replace(state, AsmState { values: Vec::new() }));
        idx
    }
}

/// One interned monitor set: the per-monitor fingerprints (the set's
/// identity, per the [`Monitor::fingerprint`] contract) plus the live
/// monitors themselves.
pub(crate) struct MonitorSet {
    pub(crate) fps: Box<[u64]>,
    pub(crate) monitors: Vec<Monitor>,
}

/// Interning arena for monitor sets.
///
/// Exploration of the product graph revisits the same monitor
/// configuration from many machine states; interning stores each distinct
/// configuration once. Identity is the vector of monitor fingerprints:
/// by the fingerprint contract, monitors with equal fingerprints behave
/// identically on all future inputs, so substituting the interned set is
/// sound.
pub(crate) struct MonitorSetArena {
    sets: Vec<MonitorSet>,
    index: HashMap<u64, SmallIdxVec>,
}

impl MonitorSetArena {
    pub(crate) fn new() -> Self {
        MonitorSetArena {
            sets: Vec::new(),
            index: HashMap::new(),
        }
    }

    pub(crate) fn get(&self, idx: u32) -> &MonitorSet {
        &self.sets[idx as usize]
    }

    /// Finds an interned set with exactly these per-monitor fingerprints.
    pub(crate) fn lookup(&self, combined: u64, fps: &[u64]) -> Option<u32> {
        let cands = self.index.get(&combined)?;
        cands
            .as_slice()
            .iter()
            .copied()
            .find(|&i| *self.sets[i as usize].fps == *fps)
    }

    /// Interns the set, calling `make` to materialize the monitors only
    /// when the set is new.
    pub(crate) fn intern_with(
        &mut self,
        combined: u64,
        fps: &[u64],
        make: impl FnOnce() -> Vec<Monitor>,
    ) -> u32 {
        if let Some(i) = self.lookup(combined, fps) {
            return i;
        }
        let idx = self.sets.len() as u32;
        self.sets.push(MonitorSet {
            fps: fps.to_vec().into_boxed_slice(),
            monitors: make(),
        });
        self.index
            .entry(combined)
            .or_insert_with(SmallIdxVec::new)
            .push(idx);
        idx
    }
}

/// The sharded visited table of the product graph.
///
/// Maps a product fingerprint (machine state ⨯ monitor set) to candidate
/// node indices. The table is split into `next_power_of_two(workers)`
/// shards selected by the fingerprint's low bits; during a level's
/// expansion all workers take shared read locks, and all insertions
/// happen at the level barrier through `&mut self` (so the merge pays no
/// lock acquisition at all via [`RwLock::get_mut`]).
pub(crate) struct ShardedIndex {
    shards: Box<[RwLock<HashMap<u64, SmallIdxVec>>]>,
    mask: u64,
}

impl ShardedIndex {
    pub(crate) fn new(workers: usize) -> Self {
        let n = workers.max(1).next_power_of_two();
        ShardedIndex {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
        }
    }

    /// Looks up `fp`, returning the first candidate accepted by `verify`
    /// (the caller's exact state + monitor-fingerprint comparison, which
    /// screens out 64-bit collisions). Candidates are scanned in
    /// insertion order, which is deterministic.
    pub(crate) fn lookup(&self, fp: u64, mut verify: impl FnMut(u32) -> bool) -> Option<u32> {
        let shard = self.shards[(fp & self.mask) as usize]
            .read()
            .expect("visited shard poisoned");
        let cands = shard.get(&fp)?;
        cands.as_slice().iter().copied().find(|&i| verify(i))
    }

    /// Inserts through `&mut self` — lock-free; used by the sequential
    /// engine and by the level-barrier merge.
    pub(crate) fn insert_mut(&mut self, fp: u64, idx: u32) {
        let shard = self.shards[(fp & self.mask) as usize]
            .get_mut()
            .expect("visited shard poisoned");
        shard.entry(fp).or_insert_with(SmallIdxVec::new).push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(2, 1));
        assert_ne!(mix64(0, 0), 0);
    }

    #[test]
    fn small_idx_vec_spills_to_heap() {
        let mut v = SmallIdxVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert!(matches!(v, SmallIdxVec::Heap(_)));
    }

    #[test]
    fn state_arena_interns_by_content() {
        let mut arena = StateArena::new();
        let mk = |i: i64| AsmState {
            values: vec![Value::Int(i), Value::Bool(true)],
        };
        let mut a = mk(1);
        let h = hash_state(&a);
        let ia = arena.intern(h, &mut a);
        let mut b = mk(1);
        let ib = arena.intern(hash_state(&b), &mut b);
        assert_eq!(ia, ib, "equal states share one arena slot");
        assert_eq!(arena.len(), 1);
        // the deduplicated caller buffer is left untouched
        assert_eq!(b, mk(1));
        let mut c = mk(2);
        let ic = arena.intern(hash_state(&c), &mut c);
        assert_ne!(ia, ic);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(ic), &mk(2));
    }

    #[test]
    fn sharded_index_lookup_and_insert() {
        let mut idx = ShardedIndex::new(4);
        assert_eq!(idx.lookup(42, |_| true), None);
        idx.insert_mut(42, 7);
        idx.insert_mut(42, 9);
        assert_eq!(idx.lookup(42, |_| true), Some(7), "insertion order wins");
        assert_eq!(
            idx.lookup(42, |i| i == 9),
            Some(9),
            "verify screens candidates"
        );
        assert_eq!(idx.lookup(42, |_| false), None);
    }
}
