//! Four-state logic values and vectors.

use crate::engine::Value;
use planes::Pair;
use std::fmt::{self, Write};

/// A single four-state logic value (IEEE 1364). Its discriminant is its
/// plane encoding ([`planes`]): bit 0 the value bit, bit 1 the unknown bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Logic {
    /// Logic low.
    #[default]
    L0 = 0,
    /// Logic high.
    L1 = 1,
    /// Unknown.
    X = 2,
    /// High impedance (undriven).
    Z = 3,
}

impl Logic {
    /// Every value, in discriminant order.
    const ALL: [Logic; 4] = [Logic::L0, Logic::L1, Logic::X, Logic::Z];

    /// Converts a `bool`.
    pub fn from_bool(b: bool) -> Logic {
        Logic::ALL[usize::from(b)]
    }

    /// The definite Boolean value, if any (`X`/`Z` yield `None`).
    pub fn to_bool(self) -> Option<bool> {
        self.is_known().then_some(self == Logic::L1)
    }

    /// True for `0` or `1`.
    pub fn is_known(self) -> bool {
        matches!(self, Logic::L0 | Logic::L1)
    }

    /// Logical negation; `X`/`Z` stay unknown.
    #[allow(clippy::should_implement_trait)] // deliberate: `Logic` is not Boolean
    pub fn not(self) -> Logic {
        Logic::apply(|a, _| planes::not(a), self, self)
    }

    /// Logical and; `0` is dominant.
    pub fn and(self, other: Logic) -> Logic {
        Logic::apply(planes::and, self, other)
    }

    /// Logical or; `1` is dominant.
    pub fn or(self, other: Logic) -> Logic {
        Logic::apply(planes::or, self, other)
    }

    /// Exclusive or; unknown if either side is unknown.
    pub fn xor(self, other: Logic) -> Logic {
        Logic::apply(planes::xor, self, other)
    }

    /// The character [`fmt::Display`] renders for this value.
    pub fn to_char(self) -> char {
        char::from(b"01xz"[self as usize])
    }

    /// Inverse of [`Logic::to_char`]; `None` for anything else.
    pub fn from_char(c: char) -> Option<Logic> {
        "01xz".find(c).map(|i| Logic::ALL[i])
    }

    /// Wired resolution of two drivers: `Z` yields to the other driver,
    /// agreement keeps the value, conflict is `X`.
    pub fn resolve(self, other: Logic) -> Logic {
        Logic::apply(planes::resolve, self, other)
    }

    /// A plane formula on one value per operand: one algebra for all.
    fn apply(f: fn(Pair, Pair) -> Pair, a: Logic, b: Logic) -> Logic {
        planes::decode(f(planes::encode(a), planes::encode(b)), 0)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char(self.to_char())
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

/// The four-state operators on pairs of 64-bit planes, written once for
/// both simulator value types.
///
/// A [`Pair`] `(v, x)` holds 64 four-state values, one per bit position
/// of its two words: `0` is `(0, 0)`, `1` is `(1, 0)`, `X` is `(0, 1)` and
/// `Z` is `(1, 1)`. A [`LogicVec`] pair holds 64 bit positions of one vector; a
/// [`PackedVec`](crate::PackedVec) pair holds one bit position of 64
/// lanes. [`Logic`]'s operators are these formulas on one bit; the unit
/// tests pin their full truth tables.
pub(crate) mod planes {
    use super::Logic;

    /// 64 four-state values: `(value plane, unknown/impedance plane)`.
    pub(crate) type Pair = (u64, u64);

    /// `l` at bit 0 of a pair.
    pub(crate) fn encode(l: Logic) -> Pair {
        (l as u64 & 1, l as u64 >> 1)
    }

    /// The value at bit `i` of a pair.
    pub(crate) fn decode((v, x): Pair, i: u32) -> Logic {
        Logic::ALL[(v >> i & 1 | (x >> i & 1) << 1) as usize]
    }

    /// The bits that are exactly `1`.
    pub(crate) fn ones((v, x): Pair) -> u64 {
        v & !x
    }

    /// The bits that are exactly `0`.
    fn zeros((v, x): Pair) -> u64 {
        !v & !x
    }

    /// Negation: `X`/`Z` become `X`. Sets the bits beyond a vector's
    /// width, which its caller clears.
    pub(crate) fn not(a: Pair) -> Pair {
        (zeros(a), a.1)
    }

    /// And: `0` is dominant.
    pub(crate) fn and(a: Pair, b: Pair) -> Pair {
        let one = ones(a) & ones(b);
        (one, !(zeros(a) | zeros(b) | one))
    }

    /// Or: `1` is dominant.
    pub(crate) fn or(a: Pair, b: Pair) -> Pair {
        let one = ones(a) | ones(b);
        (one, !(zeros(a) & zeros(b) | one))
    }

    /// Exclusive or: unknown if either side is unknown.
    pub(crate) fn xor(a: Pair, b: Pair) -> Pair {
        let known = !a.1 & !b.1;
        ((a.0 ^ b.0) & known, !known)
    }

    /// Wired resolution: `Z` yields to the other driver, agreement keeps
    /// the value, conflict is `X`.
    pub(crate) fn resolve(a: Pair, b: Pair) -> Pair {
        let (za, zb) = (a.0 & a.1, b.0 & b.1);
        let same = !(a.0 ^ b.0) & !(a.1 ^ b.1);
        // `a` stands where `b` is Z or the two agree; where neither is Z
        // and they differ, the drivers clash
        let keep = !za & (zb | same);
        let clash = !za & !keep;
        (za & b.0 | keep & a.0, za & b.1 | keep & a.1 | clash)
    }

    /// `d` with the bits in `m` taken from `s`.
    pub(crate) fn merge(d: Pair, s: Pair, m: u64) -> Pair {
        (d.0 & !m | s.0 & m, d.1 & !m | s.1 & m)
    }

    /// `out[i] = f(a[i], b[i])`: a binary operator over whole vectors.
    pub(crate) fn zip(out: &mut [Pair], a: &[Pair], b: &[Pair], f: impl Fn(Pair, Pair) -> Pair) {
        for ((o, &p), &q) in out.iter_mut().zip(a).zip(b) {
            *o = f(p, q);
        }
    }

    /// Takes the bits `m(i)` of each `src[i]` into `dst[i]`; returns
    /// whether any bit changed (the sequential commits).
    pub(crate) fn merge_all(dst: &mut [Pair], src: &[Pair], m: impl Fn(usize) -> u64) -> bool {
        let mut changed = false;
        for (i, (o, &s)) in dst.iter_mut().zip(src).enumerate() {
            let n = merge(*o, s, m(i));
            changed |= n != *o;
            *o = n;
        }
        changed
    }
}

/// The low `n ≤ 64` bits of a word.
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// A fixed-width vector of four-state values; bit 0 is the LSB.
///
/// The bits live on two planes ([`planes`]): bit `i` of the vector is bit
/// `i % 64` of word pair `i / 64`. Pair 0 is stored inline, so a vector
/// of up to 64 bits never touches the heap; the pairs for bits 64 and up
/// spill into `hi`. Plane bits at and above the width are `0`, so equal
/// vectors are equal field for field.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    width: u32,
    lo: Pair,
    hi: Box<[Pair]>,
}

impl LogicVec {
    /// A vector whose every word pair is `p`, cut to the width.
    fn filled(width: u32, p: Pair) -> Self {
        let spill = (width as usize).div_ceil(64).saturating_sub(1);
        let mut out = LogicVec {
            width,
            lo: p,
            hi: vec![p; spill].into(),
        };
        out.trim();
        out
    }

    /// All-zero vector of the given width.
    pub fn zeros(width: u32) -> Self {
        LogicVec::filled(width, (0, 0))
    }

    /// All-`X` vector of the given width.
    pub fn xs(width: u32) -> Self {
        LogicVec::filled(width, (0, !0))
    }

    /// All-`Z` vector of the given width.
    pub fn zs(width: u32) -> Self {
        LogicVec::filled(width, (!0, !0))
    }

    /// Builds a vector from the low `width` bits of `value`; bits from 64
    /// up are `0`.
    pub fn from_u64(value: u64, width: u32) -> Self {
        let mut out = LogicVec::zeros(width);
        out.assign_u64(value);
        out
    }

    /// Builds a vector from individual bits (LSB first).
    pub fn from_bits(bits: Vec<Logic>) -> Self {
        let mut out = LogicVec::zeros(bits.len() as u32);
        (0..).zip(bits).for_each(|(i, b)| out.set_bit(i, b));
        out
    }

    /// Parses the MSB-first four-state string [`fmt::Display`] renders
    /// (`"01xz"` characters); `None` on any other character. The
    /// checkpoint layer round-trips arena values through this form.
    pub fn parse_fourstate(s: &str) -> Option<LogicVec> {
        // Display renders MSB first; bit 0 is the last character
        let bits = s
            .chars()
            .rev()
            .map(Logic::from_char)
            .collect::<Option<_>>()?;
        Some(LogicVec::from_bits(bits))
    }

    /// The numeric value, if every bit is known and width ≤ 64.
    pub fn to_u64(&self) -> Option<u64> {
        (self.width <= 64 && self.lo.1 == 0).then_some(self.lo.0)
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The bit at `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bit(&self, index: u32) -> Logic {
        assert!(index < self.width, "bit {index} of {} bits", self.width);
        planes::decode(self.word(index / 64), index % 64)
    }

    /// Replaces the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_bit(&mut self, index: u32, value: Logic) {
        assert!(index < self.width, "bit {index} of {} bits", self.width);
        self.put(index, 1, planes::encode(value));
    }

    /// The bits `lo..=hi` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, hi: u32, lo: u32) -> LogicVec {
        assert!(hi >= lo && hi < self.width);
        let mut out = LogicVec::zeros(hi - lo + 1);
        out.slice_from(self, lo);
        out
    }

    /// Iterator over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }

    /// True if every bit is `0` or `1`.
    pub fn is_known(&self) -> bool {
        self.lo.1 == 0 && self.hi.iter().all(|p| p.1 == 0)
    }

    /// Bitwise reduction XOR (the parity of the vector).
    pub fn reduce_xor(&self) -> Logic {
        planes::decode(self.parity(), 0)
    }

    /// Bitwise reduction OR.
    pub fn reduce_or(&self) -> Logic {
        planes::decode(self.any_one(), 0)
    }

    /// Per-bit wired resolution of two equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn resolve(&self, other: &LogicVec) -> LogicVec {
        assert_eq!(self.width(), other.width(), "resolution width mismatch");
        let mut out = LogicVec::zeros(self.width);
        out.zip_from(self, other, planes::resolve);
        out
    }

    /// Overwrites the vector with the low bits of `value`, as
    /// [`LogicVec::from_u64`] builds it (allocation-free).
    pub(crate) fn assign_u64(&mut self, value: u64) {
        self.lo = (value, 0);
        self.hi.fill((0, 0));
        self.trim();
    }

    /// [`LogicVec::reduce_xor`] at bit 0 of a pair.
    fn parity(&self) -> Pair {
        if !self.is_known() {
            return (0, 1);
        }
        let folded = self.hi.iter().fold(self.lo.0, |acc, p| acc ^ p.0);
        (u64::from(folded.count_ones() & 1), 0)
    }

    /// [`LogicVec::reduce_or`] at bit 0 of a pair.
    fn any_one(&self) -> Pair {
        if planes::ones(self.lo) != 0 || self.hi.iter().any(|&p| planes::ones(p) != 0) {
            (1, 0)
        } else {
            (0, u64::from(!self.is_known()))
        }
    }

    /// Word pair `i`: bits `64 * i ..`.
    fn word(&self, i: u32) -> Pair {
        match i {
            0 => self.lo,
            _ => self.hi[i as usize - 1],
        }
    }

    fn word_mut(&mut self, i: u32) -> &mut Pair {
        match i {
            0 => &mut self.lo,
            _ => &mut self.hi[i as usize - 1],
        }
    }

    /// Clears the plane bits at and above the width.
    fn trim(&mut self) {
        let top = self.hi.len() as u32;
        let m = low_bits(self.width - 64 * top);
        let t = self.word_mut(top);
        *t = (t.0 & m, t.1 & m);
    }

    /// The `n ≤ 64` bits from bit `pos` up, at the bottom of a pair;
    /// `pos` is in range.
    #[inline(always)]
    fn get(&self, pos: u32, n: u32) -> Pair {
        let m = low_bits(n);
        let (i, s) = (pos / 64, pos % 64);
        let (p, q) = (
            self.word(i),
            self.hi.get(i as usize).copied().unwrap_or_default(),
        );
        // bits from the next pair fill in above the shifted-down ones
        let join = |a: u64, b: u64| (a >> s | b.checked_shl(64 - s).unwrap_or(0)) & m;
        (join(p.0, q.0), join(p.1, q.1))
    }

    /// Writes the low `n ≤ 64` bits of `p` from bit `pos` up; the bits
    /// are in range.
    #[inline(always)]
    fn put(&mut self, pos: u32, n: u32, p: Pair) {
        let m = low_bits(n);
        let (i, s) = (pos / 64, pos % 64);
        let w = self.word_mut(i);
        *w = planes::merge(*w, (p.0 << s, p.1 << s), m << s);
        if s + n > 64 {
            let w = self.word_mut(i + 1);
            *w = planes::merge(*w, (p.0 >> (64 - s), p.1 >> (64 - s)), m >> (64 - s));
        }
    }

    /// Every word pair set to `p`, cut to the width.
    fn fill(&mut self, p: Pair) {
        self.lo = p;
        self.hi.fill(p);
        self.trim();
    }
}

/// The scalar simulator's slot: one lane. Lane masks read bit 0 only, and
/// lane arguments are ignored.
impl Value for LogicVec {
    type Saved = String;

    fn zeros(width: u32) -> Self {
        LogicVec::zeros(width)
    }

    fn xs(width: u32) -> Self {
        LogicVec::xs(width)
    }

    fn splat(v: &LogicVec) -> Self {
        v.clone()
    }

    fn width(&self) -> u32 {
        self.width
    }

    #[inline(always)]
    fn assign_from(&mut self, other: &Self) {
        debug_assert_eq!(self.width, other.width);
        self.lo = other.lo;
        self.hi.copy_from_slice(&other.hi);
    }

    fn save(&self) -> String {
        self.to_string()
    }

    fn load(width: u32, saved: &Self::Saved) -> Option<Self> {
        LogicVec::parse_fourstate(saved).filter(|v| v.width() == width)
    }

    fn lane_bit(&self, _lane: usize, bit: u32) -> Logic {
        self.bit(bit)
    }

    fn get_lane(&self, _lane: usize) -> LogicVec {
        self.clone()
    }

    fn lane_u64(&self, _lane: usize) -> Option<u64> {
        self.to_u64()
    }

    fn lane_ones(&self, _lane: usize) -> Option<u32> {
        let ones = |p: &Pair| p.0.count_ones();
        let known = self.is_known();
        known.then(|| ones(&self.lo) + self.hi.iter().map(ones).sum::<u32>())
    }

    fn lanes_high(&self) -> u64 {
        planes::ones(self.lo) & 1
    }

    fn clock_level(&self) -> Logic {
        planes::decode(self.lo, 0)
    }

    fn index_from(&mut self, a: &Self, bit: u32) {
        self.lo = a.get(bit, 1);
    }

    #[inline]
    fn slice_from(&mut self, a: &Self, lo: u32) {
        let w = self.width;
        self.lo = a.get(lo, w.min(64));
        for (i, o) in (1..).zip(self.hi.iter_mut()) {
            *o = a.get(lo + 64 * i, (w - 64 * i).min(64));
        }
    }

    #[inline]
    fn place_from(&mut self, lo: u32, a: &Self) {
        self.put(lo, a.width.min(64), a.lo);
        for (i, &p) in (1..).zip(&*a.hi) {
            self.put(lo + 64 * i, (a.width - 64 * i).min(64), p);
        }
    }

    fn not_from(&mut self, a: &Self) {
        self.zip_from(a, a, |p, _| planes::not(p));
    }

    #[inline(always)]
    fn zip_from(&mut self, a: &Self, b: &Self, f: impl Fn(Pair, Pair) -> Pair) {
        self.lo = f(a.lo, b.lo);
        planes::zip(&mut self.hi, &a.hi, &b.hi, f);
        self.trim();
    }

    fn eq_from(&mut self, a: &Self, b: &Self) {
        let known = a.is_known() && b.is_known();
        self.lo = if known {
            (u64::from(a == b), 0)
        } else {
            (0, 1)
        };
    }

    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self) {
        match sel.clock_level() {
            Logic::L1 => self.assign_from(a),
            Logic::L0 => self.assign_from(b),
            _ => self.fill((0, !0)),
        }
    }

    fn reduce_xor_from(&mut self, a: &Self) {
        self.lo = a.parity();
    }

    fn reduce_or_from(&mut self, a: &Self) {
        self.lo = a.any_one();
    }

    fn fill_z(&mut self) {
        self.fill((!0, !0));
    }

    fn tri_accumulate(&mut self, en: &Self, val: &Self) {
        // an enabled driver contributes `val`, a disabled one Z (which
        // every value absorbs), an unknown enable X (which every value
        // resolves to)
        match en.clock_level() {
            Logic::L1 => {
                self.lo = planes::resolve(self.lo, val.lo);
                for (o, &q) in self.hi.iter_mut().zip(&*val.hi) {
                    *o = planes::resolve(*o, q);
                }
            }
            Logic::L0 => {}
            _ => self.fill((0, !0)),
        }
    }

    fn ram_read(&mut self, addr: &Self, ram: &[Self]) {
        match addr
            .to_u64()
            .and_then(|a| ram.get(usize::try_from(a).ok()?))
        {
            Some(word) => self.assign_from(word),
            None => self.fill((0, !0)),
        }
    }

    fn select_words(addr: &Self, lanes: u64, words: u32, sel: &mut Vec<(u32, u64)>) {
        if let Some(a) = addr.to_u64().filter(|&a| a < u64::from(words)) {
            sel.push((a as u32, lanes));
        }
    }

    fn stage_word(word: &mut Self, stored: &Self, data: &Self, mask: Option<&Self>) {
        word.assign_from(stored);
        word.write_masked(data, 1, mask);
    }

    #[inline(always)]
    fn write_masked(&mut self, data: &Self, lanes: u64, mask: Option<&Self>) -> bool {
        if lanes & 1 == 0 {
            return false;
        }
        let Some(mask) = mask else {
            let changed = *self != *data;
            self.assign_from(data);
            return changed;
        };
        let lo = planes::merge(self.lo, data.lo, planes::ones(mask.lo));
        let changed = lo != self.lo;
        self.lo = lo;
        let m = |i: usize| planes::ones(mask.hi[i]);
        planes::merge_all(&mut self.hi, &data.hi, m) | changed
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            f.write_char(self.bit(i).to_char())?;
        }
        Ok(())
    }
}
