//! Scalar cell values.
//!
//! A [`Value`] is a single cell in a [`crate::DataFrame`]. LINX query operations compare
//! values (filter terms) and aggregate them (group-and-aggregate), so the type supports
//! total ordering, hashing of a canonical key, numeric coercion, and display formatting.
//!
//! Since the typed-storage redesign, `Value` is the *boundary* representation rather
//! than the storage representation: columns compact homogeneous cells into primitive
//! vectors or dictionary codes (see [`crate::data::ColumnData`]), `Value`s appear at
//! the API edge (filter terms, aggregate results, [`crate::DataFrame::value`]), in
//! the `Mixed` fallback storage for heterogeneous/boolean columns, and as the
//! semantic reference the typed kernels are pinned against. Borrowed cell access
//! goes through [`crate::data::ValueRef`], which mirrors this type without owning.
//!
//! Strings are **interned**: [`Value::Str`] holds an `Arc<str>` deduplicated through a
//! process-wide pool, so cloning a string cell — group keys, histogram entries,
//! dictionary entries in dict-encoded columns — is a refcount bump, never a heap
//! allocation, and repeated categorical values (the common case in exploration
//! datasets) share one allocation across every view that contains them.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Process-wide string intern pool backing [`Value::Str`].
///
/// Sharded by a stable FNV-1a hash of the string so concurrent loaders rarely contend.
/// The pool holds one `Arc` per distinct string; to keep it from growing without bound
/// over the life of a long-serving process, each shard periodically sweeps entries no
/// longer referenced outside the pool (strong count 1). The sweep fires on a *call*
/// cadence — every `max(live entries, MIN_SWEEP)` intern calls against the shard —
/// not on insert growth, so a dropped dataset's dead strings are reclaimed by the
/// ordinary intern traffic of whatever the process serves next (lookups included),
/// even when the pool never again grows as large as that dataset made it. Amortized
/// O(1) per call.
mod pool {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex, OnceLock};

    const SHARDS: usize = 16;
    /// A shard never sweeps more often than every this many calls (avoids thrashing
    /// tiny pools).
    const MIN_SWEEP: usize = 1024;

    struct Shard {
        set: HashSet<Arc<str>>,
        calls_until_sweep: usize,
    }

    fn shards() -> &'static [Mutex<Shard>; SHARDS] {
        static POOL: OnceLock<[Mutex<Shard>; SHARDS]> = OnceLock::new();
        POOL.get_or_init(|| {
            std::array::from_fn(|_| {
                Mutex::new(Shard {
                    set: HashSet::new(),
                    calls_until_sweep: MIN_SWEEP,
                })
            })
        })
    }

    /// The canonical shared `Arc` for `s`, allocating only on first sight.
    pub fn intern(s: &str) -> Arc<str> {
        let mut h = crate::fingerprint::Fnv1a::new();
        h.write(s.as_bytes());
        let shard = &shards()[(h.finish() as usize) % SHARDS];
        let mut guard = shard.lock().expect("intern pool lock");
        guard.calls_until_sweep = guard.calls_until_sweep.saturating_sub(1);
        if guard.calls_until_sweep == 0 {
            guard.set.retain(|a| Arc::strong_count(a) > 1);
            guard.calls_until_sweep = guard.set.len().max(MIN_SWEEP);
        }
        if let Some(hit) = guard.set.get(s) {
            return Arc::clone(hit);
        }
        let arc: Arc<str> = Arc::from(s);
        guard.set.insert(Arc::clone(&arc));
        arc
    }
}

/// Intern a string into the process-wide pool, returning the canonical shared `Arc`.
///
/// [`Value::str`] and every string-producing path (CSV parsing, the persistence codec)
/// go through this, so equal strings across cells, frames, and datasets share one
/// allocation and clone as refcount bumps.
pub fn intern(s: &str) -> Arc<str> {
    pool::intern(s)
}

/// A single scalar cell value.
///
/// `Float` values are compared via a total order (`f64::total_cmp`) so that `Value` can
/// be sorted and used as a group-by key deterministically. NaN floats are normalized to
/// `Null` at construction time by [`Value::float`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (never NaN when constructed through [`Value::float`]).
    Float(f64),
    /// UTF-8 string, interned ([`intern`]): clones are refcount bumps.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

/// A borrowed, non-allocating grouping key: the canonical identity of a [`Value`] for
/// group-by, histograms, and distinct-counting.
///
/// Replaces the old `String`-rendering `group_key()`: hashing or comparing a key no
/// longer formats anything. `Int(1)`, `Float(1.0)`, `Str("1")`, and `Bool(true)` are
/// distinct keys (the enum discriminant participates in `Hash`/`Eq`). Floats key by
/// their IEEE-754 bit pattern — NaN never occurs ([`Value::float`] normalizes it to
/// `Null`), and `-0.0`/`0.0` stay distinct exactly as their old `{:?}` renderings did.
///
/// The derived `Ord` is a total order on key *identity*: variants rank in declaration
/// order (`Null < Int < Float < Str < Bool`), integers by value, floats by bit pattern,
/// strings by bytes. Unlike [`Value`]'s own order it never equates `Int(1)` with
/// `Float(1.0)`. Histograms keep their entries in this order
/// ([`crate::stats::Histogram`]), so their statistics sum in an order fixed by content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupKey<'a> {
    /// The null group.
    Null,
    /// Integer key.
    Int(i64),
    /// Float key, by bit pattern.
    Float(u64),
    /// String key, borrowing the cell's interned storage.
    Str(&'a str),
    /// Boolean key.
    Bool(bool),
}

impl fmt::Display for GroupKey<'_> {
    /// The canonical textual rendering (the old `group_key()` string format), used
    /// where a key must travel inside a string — e.g. op-memo paths. Distinct keys
    /// render distinctly: every variant carries its own prefix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupKey::Null => write!(f, "\u{0}null"),
            GroupKey::Int(i) => write!(f, "i:{i}"),
            GroupKey::Float(bits) => write!(f, "f:{:?}", f64::from_bits(*bits)),
            GroupKey::Str(s) => write!(f, "s:{s}"),
            GroupKey::Bool(b) => write!(f, "b:{b}"),
        }
    }
}

/// An owned grouping key for maps that must outlive the borrowed cell.
///
/// Construction from a [`Value`] ([`Value::owned_group_key`]) never allocates: the
/// `Str` variant clones the cell's interned `Arc<str>` — a refcount bump — so grouping
/// a column allocates only the output buckets. Ordered exactly as [`GroupKey`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OwnedGroupKey {
    /// The null group.
    Null,
    /// Integer key.
    Int(i64),
    /// Float key, by bit pattern.
    Float(u64),
    /// String key, sharing the cell's interned storage.
    Str(Arc<str>),
    /// Boolean key.
    Bool(bool),
}

impl Value {
    /// Construct a string value (interned; see [`intern`]).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(intern(s.as_ref()))
    }

    /// Construct a float value, normalizing NaN to [`Value::Null`].
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// Whether this value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as a float if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interpret the value as an integer if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The canonical, non-allocating grouping key of this value.
    ///
    /// Group-by, histograms, and distinct-counting key cells by this; keys of
    /// different value types never collide. (The old `String`-allocating rendering
    /// survives as [`GroupKey`]'s `Display`.)
    pub fn group_key(&self) -> GroupKey<'_> {
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => GroupKey::Float(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s),
            Value::Bool(b) => GroupKey::Bool(*b),
        }
    }

    /// The owned grouping key of this value — a refcount bump for strings, never an
    /// allocation. Use where the key outlives the cell borrow (map keys).
    pub fn owned_group_key(&self) -> OwnedGroupKey {
        match self {
            Value::Null => OwnedGroupKey::Null,
            Value::Int(i) => OwnedGroupKey::Int(*i),
            Value::Float(f) => OwnedGroupKey::Float(f.to_bits()),
            Value::Str(s) => OwnedGroupKey::Str(Arc::clone(s)),
            Value::Bool(b) => OwnedGroupKey::Bool(*b),
        }
    }

    /// Compare two values with a total order usable for sorting mixed columns.
    ///
    /// Ordering across types: Null < Bool < numeric (Int/Float unified) < Str.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let fa = a.as_f64().unwrap_or(f64::NEG_INFINITY);
                let fb = b.as_f64().unwrap_or(f64::NEG_INFINITY);
                fa.total_cmp(&fb)
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Semantic equality used by filter predicates: numeric values compare by value
    /// (so `Int(3) == Float(3.0)`), strings compare case-sensitively, null equals only
    /// null.
    pub fn semantic_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    /// Parse a raw textual token into the "most specific" value type.
    ///
    /// Empty strings and the literals `null`, `NULL`, `NaN`, `nan` become [`Value::Null`].
    pub fn parse_infer(token: &str) -> Value {
        let t = token.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("null") || t.eq_ignore_ascii_case("nan") {
            return Value::Null;
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::float(f);
        }
        Value::str(t)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_infer_covers_all_types() {
        assert_eq!(Value::parse_infer("42"), Value::Int(42));
        assert_eq!(Value::parse_infer("-3"), Value::Int(-3));
        assert_eq!(Value::parse_infer("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse_infer("true"), Value::Bool(true));
        assert_eq!(Value::parse_infer("FALSE"), Value::Bool(false));
        assert_eq!(Value::parse_infer("hello"), Value::str("hello"));
        assert!(Value::parse_infer("").is_null());
        assert!(Value::parse_infer("null").is_null());
        assert!(Value::parse_infer("NaN").is_null());
    }

    #[test]
    fn float_nan_becomes_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert_eq!(Value::float(2.5), Value::Float(2.5));
    }

    #[test]
    fn interning_shares_storage() {
        let a = Value::str("shared-category");
        let b = Value::str("shared-category");
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => {
                assert!(Arc::ptr_eq(x, y), "equal strings intern to one Arc")
            }
            _ => unreachable!(),
        }
        // Cloning a string value is a refcount bump of the same allocation.
        let c = a.clone();
        match (&a, &c) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn semantic_eq_coerces_numeric() {
        assert!(Value::Int(3).semantic_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).semantic_eq(&Value::Float(3.5)));
        assert!(Value::Null.semantic_eq(&Value::Null));
        assert!(!Value::Null.semantic_eq(&Value::Int(0)));
        assert!(Value::str("a").semantic_eq(&Value::str("a")));
        assert!(!Value::str("a").semantic_eq(&Value::str("A")));
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = vec![
            Value::str("zebra"),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("apple"),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::str("apple"),
                Value::str("zebra"),
            ]
        );
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::str("1").group_key());
        assert_ne!(Value::Bool(true).group_key(), Value::Int(1).group_key());
        assert_eq!(Value::Int(7).group_key(), Value::Int(7).group_key());
        assert_ne!(Value::Float(1.0).group_key(), Value::Int(1).group_key());
        // Owned keys agree with borrowed keys on identity.
        assert_eq!(
            Value::str("x").owned_group_key(),
            Value::str("x").owned_group_key()
        );
        assert_ne!(
            Value::Int(1).owned_group_key(),
            Value::str("1").owned_group_key()
        );
    }

    #[test]
    fn group_key_order_is_by_identity_and_shared_by_owned_keys() {
        let keys = [
            Value::Int(-1),
            Value::Int(1),
            // Floats order by bit pattern: the sign bit sorts `-0.0` last.
            Value::Float(0.0),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::str("1"),
            Value::str("a"),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                let order = a.group_key().cmp(&b.group_key());
                assert_eq!(order, i.cmp(&j), "{a:?} vs {b:?}");
                assert_eq!(a.owned_group_key().cmp(&b.owned_group_key()), order);
            }
        }
        // `Value`'s own order unifies what the key order keeps apart.
        assert_eq!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn group_key_display_is_injective_across_types() {
        let renders: Vec<String> = [
            Value::Int(1),
            Value::str("1"),
            Value::Float(1.0),
            Value::Bool(true),
            Value::Null,
        ]
        .iter()
        .map(|v| v.group_key().to_string())
        .collect();
        for i in 0..renders.len() {
            for j in (i + 1)..renders.len() {
                assert_ne!(renders[i], renders[j]);
            }
        }
        assert_eq!(Value::Int(7).group_key().to_string(), "i:7");
        assert_eq!(Value::str("a").group_key().to_string(), "s:a");
    }

    #[test]
    fn display_round_trip_for_common_values() {
        assert_eq!(Value::Int(10).to_string(), "10");
        assert_eq!(Value::str("x y").to_string(), "x y");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn as_f64_and_as_i64() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(4.5).as_f64(), Some(4.5));
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::str("4").as_f64(), None);
        assert_eq!(Value::Null.as_i64(), None);
    }
}
