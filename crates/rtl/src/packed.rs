//! Bit-parallel packed four-state vectors (PPSFP lanes).
//!
//! A [`PackedVec`] holds **64 independent four-state vectors** of the
//! same width — one simulation *lane* per machine-word bit, the classic
//! parallel-pattern trick from the fault-simulation literature. Each bit
//! position of the vector is stored as a pair of `u64` planes:
//!
//! | value  | `v` bit | `x` bit |
//! |--------|---------|---------|
//! | `0`    | 0       | 0       |
//! | `1`    | 1       | 0       |
//! | `X`    | 0       | 1       |
//! | `Z`    | 1       | 1       |
//!
//! so lane `l` of bit `i` is `(v[i] >> l & 1, x[i] >> l & 1)`. All
//! four-state operators of [`Logic`] then become a handful of word-wide
//! boolean ops evaluating 64 lanes at once; the scalar algebra is the
//! 1-lane special case, and [`BatchedRtlSim`](crate::BatchedRtlSim)
//! checks per-lane agreement against it bit for bit.
//!
//! Every operator here is the word-parallel transcription of the
//! corresponding [`Logic`]/[`LogicVec`] method (`and` with dominant `0`,
//! `or` with dominant `1`, `xor` unknown-propagating, tristate
//! `resolve`, reduction operators, whole-vector `Eq`); the proptests in
//! `tests.rs` pit each one lane by lane against the matching
//! [`LogicVec`] kernel and the [`Logic`] truth tables.

use crate::engine::Value;
use crate::logic::{Logic, LogicVec};

/// Number of independent patterns evaluated per pass (one per `u64` bit).
pub const LANES: usize = 64;

/// 64 four-state vectors of one width, stored as two bit-planes per bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedVec {
    width: u32,
    /// value plane, one word per bit position (lane = word bit)
    v: Vec<u64>,
    /// unknown/impedance plane, one word per bit position
    x: Vec<u64>,
}

#[inline]
fn encode(l: Logic) -> (bool, bool) {
    match l {
        Logic::L0 => (false, false),
        Logic::L1 => (true, false),
        Logic::X => (false, true),
        Logic::Z => (true, true),
    }
}

#[inline]
fn decode(v: bool, x: bool) -> Logic {
    match (v, x) {
        (false, false) => Logic::L0,
        (true, false) => Logic::L1,
        (false, true) => Logic::X,
        (true, true) => Logic::Z,
    }
}

impl PackedVec {
    /// All lanes all-`0`.
    pub fn zeros(width: u32) -> Self {
        PackedVec {
            width,
            v: vec![0; width as usize],
            x: vec![0; width as usize],
        }
    }

    /// All lanes all-`X`.
    pub fn xs(width: u32) -> Self {
        PackedVec {
            width,
            v: vec![0; width as usize],
            x: vec![!0; width as usize],
        }
    }

    /// Every lane set to the same scalar vector.
    ///
    /// # Panics
    ///
    /// Panics if widths cannot match (never: width is taken from `value`).
    pub fn splat(value: &LogicVec) -> Self {
        let mut p = PackedVec::zeros(value.width());
        for (i, b) in value.iter().enumerate() {
            let (v, x) = encode(b);
            p.v[i] = if v { !0 } else { 0 };
            p.x[i] = if x { !0 } else { 0 };
        }
        p
    }

    /// Width in bits of each lane's vector.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Rebuilds a packed vector from its raw `(value, unknown/impedance)`
    /// planes, one word per bit position (lane = word bit) — the snapshot
    /// encoding. `None` unless both planes have exactly `width` words.
    pub fn from_planes(width: u32, v: Vec<u64>, x: Vec<u64>) -> Option<PackedVec> {
        if v.len() != width as usize || x.len() != width as usize {
            return None;
        }
        Some(PackedVec { width, v, x })
    }

    /// The four-state value of one bit in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range or `lane >= LANES`.
    pub fn lane_bit(&self, lane: usize, bit: u32) -> Logic {
        assert!(lane < LANES);
        let v = self.v[bit as usize] >> lane & 1 == 1;
        let x = self.x[bit as usize] >> lane & 1 == 1;
        decode(v, x)
    }

    /// Extracts one lane as a scalar vector (allocates).
    pub fn get_lane(&self, lane: usize) -> LogicVec {
        LogicVec::from_bits((0..self.width).map(|i| self.lane_bit(lane, i)).collect())
    }

    /// Overwrites one lane from a scalar vector.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or `lane >= LANES`.
    pub fn set_lane(&mut self, lane: usize, value: &LogicVec) {
        assert!(lane < LANES);
        assert_eq!(self.width, value.width(), "lane width mismatch");
        let m = 1u64 << lane;
        for (i, b) in value.iter().enumerate() {
            let (v, x) = encode(b);
            self.v[i] = self.v[i] & !m | if v { m } else { 0 };
            self.x[i] = self.x[i] & !m | if x { m } else { 0 };
        }
    }

    /// Overwrites one lane from an integer (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn set_lane_u64(&mut self, lane: usize, value: u64) {
        assert!(lane < LANES);
        let m = 1u64 << lane;
        for i in 0..self.width as usize {
            let bit = if i < 64 { value >> i & 1 == 1 } else { false };
            self.v[i] = self.v[i] & !m | if bit { m } else { 0 };
            self.x[i] &= !m;
        }
    }

    /// Sets one lane to all-`X` (X-injection).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn set_lane_xs(&mut self, lane: usize) {
        assert!(lane < LANES);
        let m = 1u64 << lane;
        for i in 0..self.width as usize {
            self.v[i] &= !m;
            self.x[i] |= m;
        }
    }

    /// The lane's numeric value, if every bit is known and width ≤ 64.
    pub fn lane_to_u64(&self, lane: usize) -> Option<u64> {
        if self.width > 64 {
            return None;
        }
        let m = 1u64 << lane;
        let mut out = 0u64;
        for i in 0..self.width as usize {
            if self.x[i] & m != 0 {
                return None;
            }
            if self.v[i] & m != 0 {
                out |= 1 << i;
            }
        }
        Some(out)
    }

    /// Lanes (as a bitmask) where `bit` is exactly `1`.
    pub fn lanes_bit_is_one(&self, bit: u32) -> u64 {
        self.v[bit as usize] & !self.x[bit as usize]
    }

    /// Lanes where **every** bit is known (`0`/`1`).
    pub fn lanes_known(&self) -> u64 {
        let mut m = !0u64;
        for x in &self.x {
            m &= !x;
        }
        m
    }

    /// Lanes whose vector is fully known **and** equals `value`. Bits of
    /// `value` at or above the width are not compared.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn lanes_eq_u64(&self, value: u64) -> u64 {
        assert!(self.width <= 64, "lanes_eq_u64 needs width ≤ 64");
        let mut m = !0u64;
        for i in 0..self.width as usize {
            let want_one = value >> i & 1 == 1;
            m &= !self.x[i] & if want_one { self.v[i] } else { !self.v[i] };
        }
        m
    }

    /// True when every lane carries the same value at `bit` — the
    /// lane-uniformity invariant required of clock nets.
    pub fn bit_uniform(&self, bit: u32) -> bool {
        let (v, x) = (self.v[bit as usize], self.x[bit as usize]);
        (v == 0 || v == !0) && (x == 0 || x == !0)
    }

    /// Sets every lane to the same integer value (allocation-free).
    pub fn set_all_lanes_u64(&mut self, value: u64) {
        for i in 0..self.width as usize {
            let bit = if i < 64 { value >> i & 1 == 1 } else { false };
            self.v[i] = if bit { !0 } else { 0 };
            self.x[i] = 0;
        }
    }

    /// Overwrites **all** lanes from per-lane integers with a single
    /// bit-matrix transpose — equivalent to 64 [`Self::set_lane_u64`]
    /// calls but O(64 log 64) instead of O(64 × width) plane updates.
    /// Every bit becomes known.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn set_lanes_u64(&mut self, vals: &[u64; LANES]) {
        assert!(self.width <= 64, "set_lanes_u64 needs width ≤ 64");
        let mut t = *vals;
        transpose64(&mut t);
        let w = self.width as usize;
        self.v.copy_from_slice(&t[..w]);
        self.x.fill(0);
    }

    /// Reads **all** lanes as integers with a single bit-matrix
    /// transpose. `out[lane]` receives the lane's value-plane bits; the
    /// returned mask has a bit set for each lane whose vector is fully
    /// known — exactly the lanes where [`Self::lane_to_u64`] returns
    /// `Some(out[lane])`. Unknown lanes' `out` words carry the raw
    /// value-plane bits and must be qualified by the mask.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn lanes_u64(&self, out: &mut [u64; LANES]) -> u64 {
        assert!(self.width <= 64, "lanes_u64 needs width ≤ 64");
        let w = self.width as usize;
        out[..w].copy_from_slice(&self.v);
        out[w..].fill(0);
        transpose64(out);
        self.lanes_known()
    }
}

/// The batched simulator's slot: 64 lanes. Each kernel is the
/// word-parallel transcription of the [`LogicVec`] one.
impl Value for PackedVec {
    type Saved = (Vec<u64>, Vec<u64>);

    fn zeros(width: u32) -> Self {
        PackedVec::zeros(width)
    }

    fn xs(width: u32) -> Self {
        PackedVec::xs(width)
    }

    fn splat(v: &LogicVec) -> Self {
        PackedVec::splat(v)
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn assign_from(&mut self, other: &Self) {
        debug_assert_eq!(self.width, other.width);
        self.v.copy_from_slice(&other.v);
        self.x.copy_from_slice(&other.x);
    }

    fn save(&self) -> Self::Saved {
        (self.v.clone(), self.x.clone())
    }

    fn load(width: u32, (v, x): &Self::Saved) -> Option<Self> {
        PackedVec::from_planes(width, v.clone(), x.clone())
    }

    fn lane_bit(&self, lane: usize, bit: u32) -> Logic {
        PackedVec::lane_bit(self, lane, bit)
    }

    fn get_lane(&self, lane: usize) -> LogicVec {
        PackedVec::get_lane(self, lane)
    }

    fn lane_u64(&self, lane: usize) -> Option<u64> {
        self.lane_to_u64(lane)
    }

    fn lane_ones(&self, lane: usize) -> Option<u32> {
        let unknown = self.x.iter().fold(0, |acc, w| acc | w);
        let ones = self.v.iter().map(|w| (w >> lane & 1) as u32).sum();
        (unknown >> lane & 1 == 0).then_some(ones)
    }

    fn lanes_high(&self) -> u64 {
        self.lanes_bit_is_one(0)
    }

    fn clock_level(&self) -> Logic {
        debug_assert!(self.bit_uniform(0), "clock net must be lane-uniform");
        self.lane_bit(0, 0)
    }

    fn index_from(&mut self, a: &Self, bit: u32) {
        self.v[0] = a.v[bit as usize];
        self.x[0] = a.x[bit as usize];
    }

    fn slice_from(&mut self, a: &Self, lo: u32) {
        let lo = lo as usize;
        let w = self.width as usize;
        self.v.copy_from_slice(&a.v[lo..lo + w]);
        self.x.copy_from_slice(&a.x[lo..lo + w]);
    }

    fn place_from(&mut self, lo: u32, a: &Self) {
        let lo = lo as usize;
        let w = a.width as usize;
        self.v[lo..lo + w].copy_from_slice(&a.v);
        self.x[lo..lo + w].copy_from_slice(&a.x);
    }

    fn not_from(&mut self, a: &Self) {
        for i in 0..self.width as usize {
            self.v[i] = !a.v[i] & !a.x[i];
            self.x[i] = a.x[i];
        }
    }

    fn and_from(&mut self, a: &Self, b: &Self) {
        for i in 0..self.width as usize {
            let zero = (!a.v[i] & !a.x[i]) | (!b.v[i] & !b.x[i]);
            let one = (a.v[i] & !a.x[i]) & (b.v[i] & !b.x[i]);
            self.v[i] = one;
            self.x[i] = !(zero | one);
        }
    }

    fn or_from(&mut self, a: &Self, b: &Self) {
        for i in 0..self.width as usize {
            let one = (a.v[i] & !a.x[i]) | (b.v[i] & !b.x[i]);
            let zero = (!a.v[i] & !a.x[i]) & (!b.v[i] & !b.x[i]);
            self.v[i] = one;
            self.x[i] = !(one | zero);
        }
    }

    fn xor_from(&mut self, a: &Self, b: &Self) {
        for i in 0..self.width as usize {
            let known = !a.x[i] & !b.x[i];
            self.v[i] = (a.v[i] ^ b.v[i]) & known;
            self.x[i] = !known;
        }
    }

    fn eq_from(&mut self, a: &Self, b: &Self) {
        let mut any_unknown = 0u64;
        let mut neq = 0u64;
        for i in 0..a.width as usize {
            any_unknown |= a.x[i] | b.x[i];
            neq |= a.v[i] ^ b.v[i];
        }
        self.v[0] = !any_unknown & !neq;
        self.x[0] = any_unknown;
    }

    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self) {
        let s1 = sel.v[0] & !sel.x[0];
        let s0 = !sel.v[0] & !sel.x[0];
        let sx = sel.x[0];
        for i in 0..self.width as usize {
            self.v[i] = (s1 & a.v[i]) | (s0 & b.v[i]);
            self.x[i] = (s1 & a.x[i]) | (s0 & b.x[i]) | sx;
        }
    }

    fn reduce_xor_from(&mut self, a: &Self) {
        let mut any_unknown = 0u64;
        let mut parity = 0u64;
        for i in 0..a.width as usize {
            any_unknown |= a.x[i];
            parity ^= a.v[i];
        }
        self.v[0] = parity & !any_unknown;
        self.x[0] = any_unknown;
    }

    fn reduce_or_from(&mut self, a: &Self) {
        let mut one = 0u64;
        let mut zero = !0u64;
        for i in 0..a.width as usize {
            one |= a.v[i] & !a.x[i];
            zero &= !a.v[i] & !a.x[i];
        }
        self.v[0] = one;
        self.x[0] = !(one | zero);
    }

    fn fill_z(&mut self) {
        self.v.fill(!0);
        self.x.fill(!0);
    }

    fn tri_accumulate(&mut self, en: &Self, val: &Self) {
        let e1 = en.v[0] & !en.x[0];
        let e0 = !en.v[0] & !en.x[0];
        let ex = en.x[0];
        for i in 0..self.width as usize {
            // contribution encoding: 1-lanes pass val, 0-lanes are Z(1,1),
            // unknown-select lanes are X(0,1)
            let cv = (e1 & val.v[i]) | e0;
            let cx = (e1 & val.x[i]) | e0 | ex;
            let (av, ax) = (self.v[i], self.x[i]);
            let za = av & ax; // accumulator is Z
            let zc = cv & cx; // contribution is Z
            let same = !(av ^ cv) & !(ax ^ cx);
            self.v[i] = (za & cv) | (!za & zc & av) | (!za & !zc & same & av);
            self.x[i] = (za & cx) | (!za & zc & ax) | (!za & !zc & (same & ax | !same));
        }
    }

    fn ram_read(&mut self, addr: &Self, ram: &[Self]) {
        // gather: lanes whose (known) address selects word `a` copy it;
        // unknown or out-of-range lanes stay all-X
        self.v.fill(0);
        self.x.fill(!0);
        let reach = addr.reachable_words(ram.len() as u32) as usize;
        for (a, word) in ram[..reach].iter().enumerate() {
            let m = addr.lanes_eq_u64(a as u64);
            if m != 0 {
                merge_plane(&mut self.v, &word.v, m);
                merge_plane(&mut self.x, &word.x, m);
            }
        }
    }

    fn select_words(addr: &Self, lanes: u64, words: u32, sel: &mut Vec<(u32, u64)>) {
        for a in 0..addr.reachable_words(words) {
            let m = lanes & addr.lanes_eq_u64(u64::from(a));
            if m != 0 {
                sel.push((a, m));
            }
        }
    }

    fn stage_word(_word: &mut Self, _stored: &Self, _data: &Self, _mask: Option<&Self>) {}

    fn merge_lanes(&mut self, src: &Self, lanes: u64) -> bool {
        merge_plane(&mut self.v, &src.v, lanes) | merge_plane(&mut self.x, &src.x, lanes)
    }

    fn write_masked(&mut self, data: &Self, lanes: u64, mask: Option<&Self>) -> bool {
        let Some(mask) = mask else {
            return self.merge_lanes(data, lanes);
        };
        let mut changed = false;
        let bits = self.v.iter_mut().zip(self.x.iter_mut());
        let src = data.v.iter().zip(&data.x).zip(mask.v.iter().zip(&mask.x));
        for ((v, x), ((&dv, &dx), (&mv, &mx))) in bits.zip(src) {
            // bit written in the lanes whose mask bit is exactly 1
            let m = lanes & mv & !mx;
            let (nv, nx) = (*v & !m | dv & m, *x & !m | dx & m);
            changed |= nv != *v || nx != *x;
            (*v, *x) = (nv, nx);
        }
        changed
    }
}

/// The lanes `m` of every word of `dst` take `src`'s bits; returns
/// whether any word changed. Taking the planes as slices, not through a
/// `PackedVec`, lets the loop drop its bounds checks and vectorize.
fn merge_plane(dst: &mut [u64], src: &[u64], m: u64) -> bool {
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let n = *d & !m | s & m;
        changed |= n != *d;
        *d = n;
    }
    changed
}

impl PackedVec {
    /// How many of the word indices `0..words` this address vector can
    /// equal: those below `2^width`, and none beyond 64 bits (no lane
    /// then holds a `u64`).
    fn reachable_words(&self, words: u32) -> u32 {
        match self.width {
            0..32 => words.min(1 << self.width),
            32..=64 => words,
            _ => 0,
        }
    }
}

/// In-place 64×64 bit-matrix transpose (recursive delta-swap, Hacker's
/// Delight §7-3 adapted to LSB-first bit order): afterwards, bit `j` of
/// `a[i]` is what bit `i` of `a[j]` was. Maps a lane-major word array
/// to the bit-plane (bit-major) layout and back.
pub fn transpose64(a: &mut [u64; LANES]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < LANES {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}
