//! The universe of ASM state values.

use std::fmt;

/// A value stored in an ASM location.
///
/// AsmL is richly typed; the LA-1 models only need Booleans, bounded
/// integers and enumeration symbols, which keeps states hashable and the
/// exploration's state table exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A Boolean flag (clock levels, select lines, status bits).
    Bool(bool),
    /// A bounded integer (addresses, counters, data words).
    Int(i64),
    /// An enumeration symbol (e.g. `"INIT"`, `"CHECKING_PROP"`).
    Sym(&'static str),
}

impl Value {
    /// The Boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a [`Value::Bool`].
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected Bool, found {other:?}"),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a [`Value::Int`].
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// The symbol payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a [`Value::Sym`].
    pub fn as_sym(&self) -> &'static str {
        match self {
            Value::Sym(s) => s,
            other => panic!("expected Sym, found {other:?}"),
        }
    }

    /// A fast deterministic 64-bit content fingerprint, used by the
    /// explorer's visited table and state arena. Symbols hash by content,
    /// not by pointer, so fingerprints are stable across runs.
    pub(crate) fn fp64(&self) -> u64 {
        const K_BOOL: u64 = 0x9E6C_63C5_D1B4_5A97;
        const K_INT: u64 = 0xC2B2_AE3D_27D4_EB4F;
        const K_SYM: u64 = 0x1656_67B1_9E37_79F9;
        match self {
            Value::Bool(b) => K_BOOL ^ (*b as u64),
            Value::Int(i) => crate::shard::mix64(K_INT, *i as u64),
            Value::Sym(s) => {
                let mut h = K_SYM;
                for byte in s.bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
                crate::shard::mix64(K_SYM, h)
            }
        }
    }
}

/// Interns a symbol name, returning a `'static` string deduplicated in
/// a process-wide table.
///
/// [`Value::Sym`] holds `&'static str` so states stay `Copy`-cheap and
/// hash by content; model code uses literals. Snapshot *restore* is the
/// one place symbols arrive as runtime text (parsed from a serialized
/// checkpoint), and this function turns them back into the static form.
/// Each distinct name is leaked exactly once.
pub fn intern_sym(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    // The set is only ever inserted into, one whole leaked name at a
    // time, so a guard recovered from a poisoned lock still holds a
    // consistent table.
    let mut guard = table.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&s) = guard.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Self {
        Value::Sym(s)
    }
}
