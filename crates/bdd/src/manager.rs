//! The BDD manager: node storage, unique table, computed table and the
//! node budget.

use std::error::Error;
use std::fmt;

/// Index of a BDD node inside a [`Bdd`] manager.
///
/// `NodeId` values are only meaningful for the manager that produced them.
/// The two terminal nodes are [`Bdd::ZERO`] and [`Bdd::ONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a Boolean variable in the manager's fixed order.
///
/// Variables are ordered by their numeric id: smaller ids appear closer to
/// the root of every diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Error returned when an operation would grow the manager past its
/// configured node budget.
///
/// This is the mechanism by which the `la1-smc` checker reports the
/// *state explosion* outcome of the paper's Table 2 (RuleBase, 4 banks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddOverflowError {
    /// The budget that was in force when the overflow happened.
    pub budget: usize,
}

impl fmt::Display for BddOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bdd node budget of {} nodes exhausted", self.budget)
    }
}

impl Error for BddOverflowError {}

/// An internal decision node: `if var then hi else lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: NodeId,
    pub(crate) hi: NodeId,
}

/// Keys for the computed table. The `u32` of the quantification and
/// renaming keys is an interned cube or map id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheKey {
    Ite(NodeId, NodeId, NodeId),
    Exists(NodeId, u32),
    Forall(NodeId, u32),
    AndExists(NodeId, NodeId, u32),
    Rename(NodeId, u32),
}

/// Interned cube and map ids stay below this, so they fit under the two
/// operation-tag bits of [`CacheKey::words`].
const MAX_INTERNED: u32 = 1 << 29;

impl CacheKey {
    /// Packs the key into three words. An `Ite` key is its three node ids,
    /// all below 2^31 (see [`Bdd::MAX_NODES`]); every other key sets the top
    /// bit of the third word, its operation tag in the next two bits and
    /// its cube or map id below them. The first word is always a
    /// non-terminal node: the operations return before caching a terminal
    /// operand, so an all-zero entry never matches a key.
    fn words(self) -> [u32; 3] {
        const TAGGED: u32 = 1 << 31;
        match self {
            CacheKey::Ite(f, g, h) => [f.0, g.0, h.0],
            CacheKey::Exists(f, cube) => [f.0, 0, TAGGED | cube],
            CacheKey::Forall(f, cube) => [f.0, 0, TAGGED | 1 << 29 | cube],
            CacheKey::AndExists(f, g, cube) => [f.0, g.0, TAGGED | 2 << 29 | cube],
            CacheKey::Rename(f, map) => [f.0, 0, TAGGED | 3 << 29 | map],
        }
    }
}

/// Hashes three words to 64 bits; tables index with the top bits.
fn hash3([a, b, c]: [u32; 3]) -> u64 {
    let ab = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (ab ^ u64::from(c)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// One computed-table entry: a packed key and the operation's result.
#[derive(Debug, Clone, Copy, Default)]
struct CacheEntry {
    key: [u32; 3],
    result: u32,
}

/// The computed table: a direct-mapped, power-of-two array of results.
/// An insert overwrites whatever entry held its slot.
///
/// Losing an entry never changes a result. Hash-consing makes every
/// result canonical, and every node a recomputation passes through was
/// created when the result was first computed, so the node arena (and
/// with it every [`NodeId`]) is the same under any eviction pattern.
#[derive(Debug, Clone)]
pub(crate) struct ComputedTable {
    entries: Vec<CacheEntry>,
    /// `64 - log2(entries.len())`.
    shift: u32,
    /// The table never grows past this many slots.
    max_slots: usize,
}

impl ComputedTable {
    fn new(slots: usize, max_slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2 && slots <= max_slots);
        ComputedTable {
            entries: vec![CacheEntry::default(); slots],
            shift: 64 - slots.trailing_zeros(),
            max_slots,
        }
    }

    fn slot(&self, key: [u32; 3]) -> usize {
        (hash3(key) >> self.shift) as usize
    }

    /// The cached result of `key`, if its slot still holds it.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<NodeId> {
        let key = key.words();
        let e = &self.entries[self.slot(key)];
        (e.key == key).then_some(NodeId(e.result))
    }

    /// Records `result` for `key`, evicting the slot's previous entry.
    pub(crate) fn insert(&mut self, key: CacheKey, result: NodeId) {
        let key = key.words();
        let slot = self.slot(key);
        self.entries[slot] = CacheEntry {
            key,
            result: result.0,
        };
    }

    /// Doubles the table while it has fewer slots than `nodes` and is
    /// below its cap. Slot `i` splits into slots `2i` and `2i + 1`, so
    /// every entry survives the move.
    fn fit(&mut self, nodes: usize) {
        while self.entries.len() < nodes && self.entries.len() < self.max_slots {
            let mut grown = ComputedTable::new(self.entries.len() * 2, self.max_slots);
            for e in self.entries.iter().filter(|e| e.key[0] != 0) {
                let slot = grown.slot(e.key);
                grown.entries[slot] = *e;
            }
            *self = grown;
        }
    }

    fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<CacheEntry>()
    }
}

/// A reduced ordered BDD manager with hash-consed nodes.
///
/// All diagrams produced by one manager share structure; equality of
/// [`NodeId`]s is equivalence of the represented functions.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), la1_bdd::BddOverflowError> {
/// use la1_bdd::Bdd;
/// let mut bdd = Bdd::new(3);
/// let x = bdd.var(0);
/// let t = bdd.or(x, Bdd::ONE)?;
/// assert_eq!(t, Bdd::ONE);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    pub(crate) nodes: Vec<Node>,
    /// The unique table: an open-addressed, power-of-two array of indices
    /// into `nodes`, probed linearly and kept at most half full. Slot
    /// value 0 is empty: terminal 0 is never hashed.
    unique: Vec<u32>,
    /// `64 - log2(unique.len())`.
    unique_shift: u32,
    pub(crate) cache: ComputedTable,
    num_vars: u32,
    budget: usize,
    /// Interned variable-set cubes used as compact cache keys for
    /// quantification (each distinct set gets a small integer id), and
    /// their ids sorted by content for lookup.
    pub(crate) cubes: Vec<Vec<u32>>,
    cube_order: Vec<u32>,
    /// Interned renaming maps for [`Bdd::rename`], likewise.
    pub(crate) maps: Vec<Vec<(u32, u32)>>,
    map_order: Vec<u32>,
    peak_nodes: usize,
}

impl Bdd {
    /// The terminal node representing the constant `false`.
    pub const ZERO: NodeId = NodeId(0);
    /// The terminal node representing the constant `true`.
    pub const ONE: NodeId = NodeId(1);

    const TERMINAL_VAR: u32 = u32::MAX;
    /// Default node budget: generous for ordinary use, finite so runaway
    /// computations surface as [`BddOverflowError`] instead of OOM.
    pub const DEFAULT_BUDGET: usize = 16_000_000;
    /// The largest budget a manager accepts: node ids fit in 31 bits,
    /// which leaves the computed table's operation tag a bit of its own.
    pub(crate) const MAX_NODES: usize = 1 << 31;
    /// Slots both tables start with (fewer if the budget is smaller).
    const MIN_SLOTS: usize = 1 << 8;

    /// Creates a manager for `num_vars` Boolean variables with the
    /// [default node budget](Self::DEFAULT_BUDGET).
    pub fn new(num_vars: u32) -> Self {
        Self::with_budget(num_vars, Self::DEFAULT_BUDGET)
    }

    /// Creates a manager whose total live node count may not exceed `budget`
    /// (capped at 2^31 nodes).
    ///
    /// A small budget is the faithful reproduction of a 2004-era model
    /// checker running out of memory; see the crate docs.
    pub fn with_budget(num_vars: u32, budget: usize) -> Self {
        let budget = budget.min(Self::MAX_NODES);
        // one computed-table slot per node, so never more than the budget
        // rounded up to a power of two
        let max_slots = budget.next_power_of_two().max(2);
        Self::with_tables(num_vars, budget, Self::MIN_SLOTS.min(max_slots), max_slots)
    }

    /// A manager whose computed table is fixed at `slots` slots, to test
    /// that results do not depend on the table's size.
    #[cfg(test)]
    pub(crate) fn with_cache_slots(num_vars: u32, slots: usize) -> Self {
        Self::with_tables(num_vars, Self::DEFAULT_BUDGET, slots, slots)
    }

    /// Slots in the unique and computed tables.
    #[cfg(test)]
    pub(crate) fn table_slots(&self) -> (usize, usize) {
        (self.unique.len(), self.cache.entries.len())
    }

    fn with_tables(num_vars: u32, budget: usize, slots: usize, max_slots: usize) -> Self {
        let terminal = |id| Node {
            var: Self::TERMINAL_VAR,
            lo: id,
            hi: id,
        };
        Bdd {
            nodes: vec![terminal(NodeId(0)), terminal(NodeId(1))],
            unique: vec![0; Self::MIN_SLOTS],
            unique_shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            cache: ComputedTable::new(slots, max_slots),
            num_vars,
            budget,
            cubes: Vec::new(),
            cube_order: Vec::new(),
            maps: Vec::new(),
            map_order: Vec::new(),
            peak_nodes: 2,
        }
    }

    /// Number of variables this manager was created with.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Grows the variable universe to at least `num_vars` variables.
    pub fn ensure_vars(&mut self, num_vars: u32) {
        if num_vars > self.num_vars {
            self.num_vars = num_vars;
        }
    }

    /// Total number of nodes ever allocated (live size of the manager).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Highest node count observed so far (equals [`Self::node_count`] since
    /// this manager does not garbage-collect).
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// The configured node budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Memory allocated for the node arena, the unique table and the
    /// computed table, in bytes.
    ///
    /// Matches the paper's Table 2 "Memory (in MB)" column when divided by
    /// `1024 * 1024`.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.unique.capacity() * std::mem::size_of::<u32>()
            + self.cache.bytes()
    }

    /// Returns the projection function for variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the manager's variable universe.
    pub fn var(&mut self, var: u32) -> NodeId {
        assert!(var < self.num_vars, "variable x{var} out of range");
        self.mk(var, Self::ZERO, Self::ONE)
            .expect("two-node diagram cannot exceed any sane budget")
    }

    /// Returns the negated projection function for variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the manager's variable universe.
    pub fn nvar(&mut self, var: u32) -> NodeId {
        assert!(var < self.num_vars, "variable x{var} out of range");
        self.mk(var, Self::ONE, Self::ZERO)
            .expect("two-node diagram cannot exceed any sane budget")
    }

    /// Returns the constant node for `value`.
    pub fn constant(&self, value: bool) -> NodeId {
        if value {
            Self::ONE
        } else {
            Self::ZERO
        }
    }

    /// True if `f` is one of the two terminal nodes.
    pub fn is_terminal(&self, f: NodeId) -> bool {
        f == Self::ZERO || f == Self::ONE
    }

    /// The decision variable of `f`, or `None` for terminals.
    pub fn node_var(&self, f: NodeId) -> Option<VarId> {
        let n = self.nodes[f.index()];
        (n.var != Self::TERMINAL_VAR).then_some(VarId(n.var))
    }

    /// The `(lo, hi)` cofactors of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn cofactors(&self, f: NodeId) -> (NodeId, NodeId) {
        assert!(!self.is_terminal(f), "terminals have no cofactors");
        let n = self.nodes[f.index()];
        (n.lo, n.hi)
    }

    pub(crate) fn var_raw(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].var
    }

    /// Hash-consing constructor (the `mk` of Andersen's lecture notes):
    /// returns the unique reduced node for `(var, lo, hi)`.
    ///
    /// The node budget is the only resource limit. The computed table
    /// cannot outgrow memory: it is direct-mapped and holds at most one
    /// slot per node. Its losses cost recomputation, never a different
    /// result. Clearing a whole cache mid-operation would make the
    /// in-flight recursion exponential, since every subproblem it had
    /// solved would be solved again. Here an insert evicts only the one
    /// entry whose slot it takes, every other result survives, and the
    /// table doubles with the arena, so the results it keeps scale with
    /// the diagrams the operation builds.
    pub(crate) fn mk(
        &mut self,
        var: u32,
        lo: NodeId,
        hi: NodeId,
    ) -> Result<NodeId, BddOverflowError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { var, lo, hi };
        let mask = self.unique.len() - 1;
        let mut slot = (hash3([var, lo.0, hi.0]) >> self.unique_shift) as usize;
        loop {
            match self.unique[slot] {
                0 => break,
                id if self.nodes[id as usize] == node => return Ok(NodeId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
        if self.nodes.len() >= self.budget {
            return Err(BddOverflowError {
                budget: self.budget,
            });
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique[slot] = id;
        if 2 * self.nodes.len() > self.unique.len() {
            self.grow_unique();
        }
        self.cache.fit(self.nodes.len());
        self.peak_nodes = self.peak_nodes.max(self.nodes.len());
        Ok(NodeId(id))
    }

    /// Doubles the unique table and re-inserts every decision node.
    fn grow_unique(&mut self) {
        let slots = self.unique.len() * 2;
        let mask = slots - 1;
        self.unique = vec![0; slots];
        self.unique_shift -= 1;
        for (id, n) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = (hash3([n.var, n.lo.0, n.hi.0]) >> self.unique_shift) as usize;
            while self.unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.unique[slot] = id as u32;
        }
    }

    /// Interns a sorted variable set and returns its compact id.
    pub(crate) fn intern_cube(&mut self, mut vars: Vec<u32>) -> u32 {
        vars.sort_unstable();
        vars.dedup();
        intern(&mut self.cubes, &mut self.cube_order, vars)
    }

    /// Interns a variable renaming (sorted by source var) and returns its id.
    pub(crate) fn intern_map(&mut self, mut map: Vec<(u32, u32)>) -> u32 {
        map.sort_unstable();
        map.dedup();
        intern(&mut self.maps, &mut self.map_order, map)
    }

    /// Number of nodes reachable from `f` (size of the diagram itself).
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            count += 1;
            if !self.is_terminal(n) {
                let node = self.nodes[n.index()];
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        count
    }

    /// The set of variables appearing in `f`, ascending.
    pub fn support(&self, f: NodeId) -> Vec<VarId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut vars = Vec::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if seen[n.index()] || self.is_terminal(n) {
                continue;
            }
            seen[n.index()] = true;
            let node = self.nodes[n.index()];
            vars.push(node.var);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        vars.sort_unstable();
        vars.dedup();
        vars.into_iter().map(VarId).collect()
    }
}

/// Returns the id of `item` in `items`, appending it if new. `order`
/// holds the ids sorted by content, for binary search.
fn intern<T: Ord>(items: &mut Vec<T>, order: &mut Vec<u32>, item: T) -> u32 {
    match order.binary_search_by(|&id| items[id as usize].cmp(&item)) {
        Ok(pos) => order[pos],
        Err(pos) => {
            let id = items.len() as u32;
            assert!(id < MAX_INTERNED, "too many distinct cubes or renamings");
            items.push(item);
            order.insert(pos, id);
            id
        }
    }
}
