//! Four-state logic values and vectors.

use crate::engine::Value;
use std::fmt;

/// A single four-state logic value (IEEE 1364).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    #[default]
    L0,
    /// Logic high.
    L1,
    /// Unknown.
    X,
    /// High impedance (undriven).
    Z,
}

impl Logic {
    /// Converts a `bool`.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::L1
        } else {
            Logic::L0
        }
    }

    /// The definite Boolean value, if any (`X`/`Z` yield `None`).
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::L0 => Some(false),
            Logic::L1 => Some(true),
            _ => None,
        }
    }

    /// True for `0` or `1`.
    pub fn is_known(self) -> bool {
        matches!(self, Logic::L0 | Logic::L1)
    }

    /// Logical negation; `X`/`Z` stay unknown.
    #[allow(clippy::should_implement_trait)] // deliberate: `Logic` is not Boolean
    pub fn not(self) -> Logic {
        match self {
            Logic::L0 => Logic::L1,
            Logic::L1 => Logic::L0,
            _ => Logic::X,
        }
    }

    /// Logical and; `0` is dominant.
    pub fn and(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(false), _) | (_, Some(false)) => Logic::L0,
            (Some(true), Some(true)) => Logic::L1,
            _ => Logic::X,
        }
    }

    /// Logical or; `1` is dominant.
    pub fn or(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(true), _) | (_, Some(true)) => Logic::L1,
            (Some(false), Some(false)) => Logic::L0,
            _ => Logic::X,
        }
    }

    /// Exclusive or; unknown if either side is unknown.
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// The character [`fmt::Display`] renders for this value.
    pub fn to_char(self) -> char {
        match self {
            Logic::L0 => '0',
            Logic::L1 => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Inverse of [`Logic::to_char`]; `None` for anything else.
    pub fn from_char(c: char) -> Option<Logic> {
        match c {
            '0' => Some(Logic::L0),
            '1' => Some(Logic::L1),
            'x' => Some(Logic::X),
            'z' => Some(Logic::Z),
            _ => None,
        }
    }

    /// Wired resolution of two drivers: `Z` yields to the other driver,
    /// agreement keeps the value, conflict is `X`.
    pub fn resolve(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Z, o) => o,
            (s, Logic::Z) => s,
            (a, b) if a == b => a,
            _ => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::L0 => '0',
            Logic::L1 => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        };
        write!(f, "{c}")
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

/// A fixed-width vector of four-state values; bit 0 is the LSB.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    bits: Vec<Logic>,
}

impl LogicVec {
    /// All-zero vector of the given width.
    pub fn zeros(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::L0; width as usize],
        }
    }

    /// All-`X` vector of the given width.
    pub fn xs(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::X; width as usize],
        }
    }

    /// All-`Z` vector of the given width.
    pub fn zs(width: u32) -> Self {
        LogicVec {
            bits: vec![Logic::Z; width as usize],
        }
    }

    /// Builds a vector from the low `width` bits of `value`.
    pub fn from_u64(value: u64, width: u32) -> Self {
        LogicVec {
            bits: (0..width)
                .map(|i| Logic::from_bool(value >> i & 1 == 1))
                .collect(),
        }
    }

    /// Builds a vector from individual bits (LSB first).
    pub fn from_bits(bits: Vec<Logic>) -> Self {
        LogicVec { bits }
    }

    /// Parses the MSB-first four-state string [`fmt::Display`] renders
    /// (`"01xz"` characters); `None` on any other character. The
    /// checkpoint layer round-trips arena values through this form.
    pub fn parse_fourstate(s: &str) -> Option<LogicVec> {
        let mut bits = s
            .chars()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()?;
        bits.reverse(); // Display renders MSB first; storage is LSB first
        Some(LogicVec { bits })
    }

    /// The numeric value, if every bit is known and width ≤ 64.
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            match b.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.bits.len() as u32
    }

    /// The bit at `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bit(&self, index: u32) -> Logic {
        self.bits[index as usize]
    }

    /// Replaces the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_bit(&mut self, index: u32, value: Logic) {
        self.bits[index as usize] = value;
    }

    /// The bits `lo..=hi` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, hi: u32, lo: u32) -> LogicVec {
        assert!(hi >= lo && (hi as usize) < self.bits.len());
        LogicVec {
            bits: self.bits[lo as usize..=hi as usize].to_vec(),
        }
    }

    /// Iterator over bits, LSB first.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        self.bits.iter().copied()
    }

    /// True if every bit is `0` or `1`.
    pub fn is_known(&self) -> bool {
        self.bits.iter().all(|b| b.is_known())
    }

    /// Bitwise reduction XOR (the parity of the vector).
    pub fn reduce_xor(&self) -> Logic {
        self.bits
            .iter()
            .copied()
            .fold(Logic::L0, |acc, b| acc.xor(b))
    }

    /// Bitwise reduction OR.
    pub fn reduce_or(&self) -> Logic {
        self.bits
            .iter()
            .copied()
            .fold(Logic::L0, |acc, b| acc.or(b))
    }

    /// Per-bit wired resolution of two equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn resolve(&self, other: &LogicVec) -> LogicVec {
        assert_eq!(self.width(), other.width(), "resolution width mismatch");
        LogicVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a.resolve(b))
                .collect(),
        }
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
        self.bits.len() as u32
    }

    fn assign_from(&mut self, other: &Self) {
        self.bits.copy_from_slice(&other.bits);
    }

    fn save(&self) -> String {
        self.to_string()
    }

    fn load(width: u32, saved: &Self::Saved) -> Option<Self> {
        LogicVec::parse_fourstate(saved).filter(|v| v.width() == width)
    }

    fn lane_bit(&self, _lane: usize, bit: u32) -> Logic {
        self.bits[bit as usize]
    }

    fn get_lane(&self, _lane: usize) -> LogicVec {
        self.clone()
    }

    fn lane_u64(&self, _lane: usize) -> Option<u64> {
        self.to_u64()
    }

    fn lane_ones(&self, _lane: usize) -> Option<u32> {
        let known = self.is_known();
        known.then(|| self.bits.iter().filter(|&&b| b == Logic::L1).count() as u32)
    }

    fn lanes_high(&self) -> u64 {
        u64::from(self.bits[0] == Logic::L1)
    }

    fn clock_level(&self) -> Logic {
        self.bits[0]
    }

    fn index_from(&mut self, a: &Self, bit: u32) {
        self.bits[0] = a.bits[bit as usize];
    }

    fn slice_from(&mut self, a: &Self, lo: u32) {
        let lo = lo as usize;
        let w = self.bits.len();
        self.bits.copy_from_slice(&a.bits[lo..lo + w]);
    }

    fn place_from(&mut self, lo: u32, a: &Self) {
        // concat parts are often single bits: a loop, not a memcpy call
        for (o, &b) in self.bits[lo as usize..].iter_mut().zip(&a.bits) {
            *o = b;
        }
    }

    fn not_from(&mut self, a: &Self) {
        for (o, x) in self.bits.iter_mut().zip(&a.bits) {
            *o = x.not();
        }
    }

    fn and_from(&mut self, a: &Self, b: &Self) {
        self.zip_from(a, b, Logic::and);
    }

    fn or_from(&mut self, a: &Self, b: &Self) {
        self.zip_from(a, b, Logic::or);
    }

    fn xor_from(&mut self, a: &Self, b: &Self) {
        self.zip_from(a, b, Logic::xor);
    }

    fn eq_from(&mut self, a: &Self, b: &Self) {
        self.bits[0] = if a.is_known() && b.is_known() {
            Logic::from_bool(a == b)
        } else {
            Logic::X
        };
    }

    fn mux_from(&mut self, sel: &Self, a: &Self, b: &Self) {
        match sel.bits[0] {
            Logic::L1 => self.bits.copy_from_slice(&a.bits),
            Logic::L0 => self.bits.copy_from_slice(&b.bits),
            _ => self.bits.fill(Logic::X),
        }
    }

    fn reduce_xor_from(&mut self, a: &Self) {
        self.bits[0] = a.reduce_xor();
    }

    fn reduce_or_from(&mut self, a: &Self) {
        self.bits[0] = a.reduce_or();
    }

    fn fill_z(&mut self) {
        self.bits.fill(Logic::Z);
    }

    fn tri_accumulate(&mut self, en: &Self, val: &Self) {
        for (o, &v) in self.bits.iter_mut().zip(&val.bits) {
            let contribution = match en.bits[0] {
                Logic::L1 => v,
                Logic::L0 => Logic::Z,
                _ => Logic::X,
            };
            *o = o.resolve(contribution);
        }
    }

    fn ram_read(&mut self, addr: &Self, ram: &[Self]) {
        match addr
            .to_u64()
            .and_then(|a| ram.get(usize::try_from(a).ok()?))
        {
            Some(word) => self.assign_from(word),
            None => self.bits.fill(Logic::X),
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

    fn merge_lanes(&mut self, src: &Self, lanes: u64) -> bool {
        if lanes & 1 == 0 || *self == *src {
            return false;
        }
        self.assign_from(src);
        true
    }

    fn write_masked(&mut self, data: &Self, lanes: u64, mask: Option<&Self>) -> bool {
        let Some(mask) = mask else {
            return self.merge_lanes(data, lanes);
        };
        let mut changed = false;
        if lanes & 1 != 0 {
            for ((o, &d), &m) in self.bits.iter_mut().zip(&data.bits).zip(&mask.bits) {
                if m == Logic::L1 && *o != d {
                    *o = d;
                    changed = true;
                }
            }
        }
        changed
    }
}

impl LogicVec {
    /// `self = f(a, b)` bit by bit (the binary op kernels).
    fn zip_from(&mut self, a: &LogicVec, b: &LogicVec, f: fn(Logic, Logic) -> Logic) {
        for (o, (&x, &y)) in self.bits.iter_mut().zip(a.bits.iter().zip(&b.bits)) {
            *o = f(x, y);
        }
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits.iter().rev() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}
