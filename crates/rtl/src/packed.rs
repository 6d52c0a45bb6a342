//! Bit-parallel packed four-state vectors (PPSFP lanes).
//!
//! A [`PackedVec`] holds **64 independent four-state vectors** of the
//! same width — one simulation *lane* per machine-word bit, the classic
//! parallel-pattern trick from the fault-simulation literature. Each bit
//! position of the vector is stored as a pair of `u64` planes `(v, x)` in
//! the encoding of [`planes`](crate::logic::planes) (`0` = `(0, 0)`, `1` =
//! `(1, 0)`, `X` = `(0, 1)`, `Z` = `(1, 1)`), so lane `l` of bit `i` is
//! bit `l` of both words of pair `i`. A [`LogicVec`] stores the same
//! planes transposed (a word's bits are bit positions, not lanes), so
//! both value types evaluate `not`, `and`, `or`, `xor` and tristate
//! `resolve` through the same word formulas; the scalar algebra is the
//! 1-lane special case, and [`BatchedRtlSim`](crate::BatchedRtlSim)
//! checks per-lane agreement against it bit for bit.
//!
//! The proptests in `tests.rs` pit each kernel lane by lane against the
//! matching [`LogicVec`] kernel and the [`Logic`] truth tables.

use crate::engine::Value;
use crate::logic::planes::{self, Pair};
use crate::logic::{Logic, LogicVec};

/// Number of independent patterns evaluated per pass (one per `u64` bit).
pub const LANES: usize = 64;

/// 64 four-state vectors of one width, stored as one plane pair per bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedVec {
    width: u32,
    /// one `(value, unknown/impedance)` pair per bit position (lane =
    /// word bit)
    bits: Vec<Pair>,
}

/// The pair whose every lane holds bit `i` of `value` (`0` from 64 up).
fn lanes_of_bit(value: u64, i: u32) -> Pair {
    ((value.checked_shr(i).unwrap_or(0) & 1).wrapping_neg(), 0)
}

impl PackedVec {
    /// All lanes all-`0`.
    pub fn zeros(width: u32) -> Self {
        PackedVec {
            width,
            bits: vec![(0, 0); width as usize],
        }
    }

    /// All lanes all-`X`.
    pub fn xs(width: u32) -> Self {
        PackedVec {
            width,
            bits: vec![(0, !0); width as usize],
        }
    }

    /// Every lane set to the same scalar vector.
    pub fn splat(value: &LogicVec) -> Self {
        let broadcast = |b| {
            let (v, x) = planes::encode(b);
            (v.wrapping_neg(), x.wrapping_neg())
        };
        PackedVec {
            width: value.width(),
            bits: value.iter().map(broadcast).collect(),
        }
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
        let bits = v.into_iter().zip(x).collect();
        Some(PackedVec { width, bits })
    }

    /// The four-state value of one bit in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range or `lane >= LANES`.
    pub fn lane_bit(&self, lane: usize, bit: u32) -> Logic {
        assert!(lane < LANES);
        planes::decode(self.bits[bit as usize], lane as u32)
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
        for (p, b) in self.bits.iter_mut().zip(value.iter()) {
            let (v, x) = planes::encode(b);
            *p = planes::merge(*p, (v << lane, x << lane), 1 << lane);
        }
    }

    /// Overwrites one lane from an integer (allocation-free); bits from
    /// 64 up are `0`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn set_lane_u64(&mut self, lane: usize, value: u64) {
        assert!(lane < LANES);
        for (i, p) in (0..).zip(&mut self.bits) {
            *p = planes::merge(*p, lanes_of_bit(value, i), 1 << lane);
        }
    }

    /// Sets one lane to all-`X` (X-injection).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn set_lane_xs(&mut self, lane: usize) {
        assert!(lane < LANES);
        for p in &mut self.bits {
            *p = planes::merge(*p, (0, !0), 1 << lane);
        }
    }

    /// The lane's numeric value, if every bit is known and width ≤ 64.
    pub fn lane_to_u64(&self, lane: usize) -> Option<u64> {
        if self.width > 64 || self.lanes_known() >> lane & 1 == 0 {
            return None;
        }
        let lane_bit = |(i, p): (usize, &Pair)| (p.0 >> lane & 1) << i;
        Some(self.bits.iter().enumerate().map(lane_bit).sum())
    }

    /// Lanes (as a bitmask) where `bit` is exactly `1`.
    pub fn lanes_bit_is_one(&self, bit: u32) -> u64 {
        planes::ones(self.bits[bit as usize])
    }

    /// Lanes where **every** bit is known (`0`/`1`).
    pub fn lanes_known(&self) -> u64 {
        !self.bits.iter().fold(0, |acc, p| acc | p.1)
    }

    /// True when every lane carries the same value at `bit` — the
    /// lane-uniformity invariant required of clock nets.
    pub fn bit_uniform(&self, bit: u32) -> bool {
        let (v, x) = self.bits[bit as usize];
        (v == 0 || v == !0) && (x == 0 || x == !0)
    }

    /// Sets every lane to the same integer value (allocation-free); bits
    /// from 64 up are `0`.
    pub fn set_all_lanes_u64(&mut self, value: u64) {
        for (i, p) in (0..).zip(&mut self.bits) {
            *p = lanes_of_bit(value, i);
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
        for (p, &v) in self.bits.iter_mut().zip(&t) {
            *p = (v, 0);
        }
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
        out.fill(0);
        for (o, p) in out.iter_mut().zip(&self.bits) {
            *o = p.0;
        }
        transpose64(out);
        self.lanes_known()
    }

    /// Calls `f(word, lanes)`, in ascending word order, for every word
    /// below `words` that the known address of some lane in `lanes`
    /// selects, with those lanes. The address bits split the lane set
    /// from the top bit down, so the cost follows the addresses the lanes
    /// hold, not the RAM size. An address wider than 64 bits selects
    /// nothing.
    fn for_each_word(&self, lanes: u64, words: u32, f: &mut impl FnMut(u32, u64)) {
        fn split(bits: &[Pair], at: u64, m: u64, words: u32, f: &mut impl FnMut(u32, u64)) {
            let Some((&(v, x), low)) = bits.split_last() else {
                return f(at as u32, m);
            };
            // `at` is the least address left under this bit
            for (bit, sel) in [(0, !v & !x), (1, v & !x)] {
                let at = at | bit << low.len();
                if m & sel != 0 && at < u64::from(words) {
                    split(low, at, m & sel, words, f);
                }
            }
        }
        if self.width <= 64 && words > 0 && lanes != 0 {
            split(&self.bits, 0, lanes, words, f);
        }
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
        self.bits.copy_from_slice(&other.bits);
    }

    fn save(&self) -> Self::Saved {
        self.bits.iter().copied().unzip()
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
        let ones = self.bits.iter().map(|p| (p.0 >> lane & 1) as u32).sum();
        (self.lanes_known() >> lane & 1 == 1).then_some(ones)
    }

    fn lanes_high(&self) -> u64 {
        self.lanes_bit_is_one(0)
    }

    fn clock_level(&self) -> Logic {
        debug_assert!(self.bit_uniform(0), "clock net must be lane-uniform");
        self.lane_bit(0, 0)
    }

    fn index_from(&mut self, a: &Self, bit: u32) {
        self.bits[0] = a.bits[bit as usize];
    }

    fn slice_from(&mut self, a: &Self, lo: u32) {
        let (lo, w) = (lo as usize, self.bits.len());
        self.bits.copy_from_slice(&a.bits[lo..lo + w]);
    }

    fn place_from(&mut self, lo: u32, a: &Self) {
        let lo = lo as usize;
        self.bits[lo..lo + a.bits.len()].copy_from_slice(&a.bits);
    }

    fn not_from(&mut self, a: &Self) {
        for (o, &p) in self.bits.iter_mut().zip(&a.bits) {
            *o = planes::not(p);
        }
    }

    fn zip_from(&mut self, a: &Self, b: &Self, f: impl Fn(Pair, Pair) -> Pair) {
        planes::zip(&mut self.bits, &a.bits, &b.bits, f);
    }

    fn eq_from(&mut self, a: &Self, b: &Self) {
        let (mut unknown, mut differ) = (0, 0);
        for (&p, &q) in a.bits.iter().zip(&b.bits) {
            unknown |= p.1 | q.1;
            differ |= p.0 ^ q.0;
        }
        self.bits[0] = (!unknown & !differ, unknown);
    }

    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self) {
        let s = sel.bits[0];
        let (s1, s0) = (planes::ones(s), !s.0 & !s.1);
        for ((o, &p), &q) in self.bits.iter_mut().zip(&a.bits).zip(&b.bits) {
            *o = (s1 & p.0 | s0 & q.0, s1 & p.1 | s0 & q.1 | s.1);
        }
    }

    fn reduce_xor_from(&mut self, a: &Self) {
        let (mut unknown, mut parity) = (0, 0);
        for &(v, x) in &a.bits {
            unknown |= x;
            parity ^= v;
        }
        self.bits[0] = (parity & !unknown, unknown);
    }

    fn reduce_or_from(&mut self, a: &Self) {
        let (mut one, mut zero) = (0, !0);
        for &(v, x) in &a.bits {
            one |= v & !x;
            zero &= !v & !x;
        }
        self.bits[0] = (one, !(one | zero));
    }

    fn fill_z(&mut self) {
        self.bits.fill((!0, !0));
    }

    fn tri_accumulate(&mut self, en: &Self, val: &Self) {
        let e = en.bits[0];
        let (e1, e0) = (planes::ones(e), !e.0 & !e.1);
        for (o, &p) in self.bits.iter_mut().zip(&val.bits) {
            // contribution: 1-lanes pass val, 0-lanes are Z (1, 1),
            // unknown-select lanes are X (0, 1)
            *o = planes::resolve(*o, (e1 & p.0 | e0, e1 & p.1 | e0 | e.1));
        }
    }

    fn ram_read(&mut self, addr: &Self, ram: &[Self]) {
        // gather: lanes whose (known) address selects word `a` copy it;
        // unknown or out-of-range lanes stay all-X
        self.bits.fill((0, !0));
        addr.for_each_word(!0, ram.len() as u32, &mut |a, m| {
            planes::merge_all(&mut self.bits, &ram[a as usize].bits, |_| m);
        });
    }

    fn select_words(addr: &Self, lanes: u64, words: u32, sel: &mut Vec<(u32, u64)>) {
        addr.for_each_word(lanes, words, &mut |a, m| sel.push((a, m)));
    }

    fn stage_word(_word: &mut Self, _stored: &Self, _data: &Self, _mask: Option<&Self>) {}

    fn write_masked(&mut self, data: &Self, lanes: u64, mask: Option<&Self>) -> bool {
        match mask {
            None => planes::merge_all(&mut self.bits, &data.bits, |_| lanes),
            // bit `i` is written in the lanes whose mask bit is exactly 1
            Some(mask) => planes::merge_all(&mut self.bits, &data.bits, |i| {
                lanes & planes::ones(mask.bits[i])
            }),
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
