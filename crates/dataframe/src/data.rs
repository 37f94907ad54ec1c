//! Typed columnar storage: [`ColumnData`], the [`NullMask`], and borrowed cell
//! references ([`ValueRef`]).
//!
//! A [`crate::Column`] used to store every cell as a boxed [`Value`] in an
//! `Arc<Vec<Value>>`, so each filter comparison, group-by key, and histogram bump paid
//! an enum match plus numeric coercion per cell — and every cell cost
//! `size_of::<Value>()` (24 bytes) of resident memory regardless of type. This module
//! replaces that with *typed* storage selected at construction time:
//!
//! * [`ColumnData::I64`] — all non-null cells are [`Value::Int`]: a plain `Vec<i64>`
//!   (8 bytes/row).
//! * [`ColumnData::F64`] — all non-null cells are [`Value::Float`]: a plain `Vec<f64>`
//!   storing exact bit patterns (8 bytes/row).
//! * [`ColumnData::Dict`] — all non-null cells are [`Value::Str`]: dictionary
//!   encoding. `codes` holds one `u32` per row indexing into `dict`, the ordered list
//!   of distinct strings. The dictionary *is* the interned-string pool graduated into
//!   per-column form: entries are the cells' pooled `Arc<str>`s (collected by refcount
//!   bump, never copied), so equal strings across columns and frames still share one
//!   allocation (4 bytes/row + one `Arc<str>` per distinct value).
//! * [`ColumnData::Mixed`] — everything else (mixed-type "object" columns, boolean
//!   columns, all-null columns): the seed `Vec<Value>` representation, unchanged.
//!
//! Nulls in the typed variants are carried by a side [`NullMask`] (one bit per
//! *storage* row); the typed vector holds an arbitrary placeholder at null positions
//! that is never read. `Mixed` keeps [`Value::Null`] inline and carries no mask.
//!
//! **Compaction is lossless by construction**: a typed variant is chosen only when
//! reconstructing every cell yields a `Value` identical to the original (same enum
//! variant, same bits, same interned string). That is the property that keeps
//! [`crate::DataFrame::fingerprint`] — which hashes a canonical per-cell byte stream —
//! bit-identical to the seed `Value`-path hashes, so every fingerprint-keyed cache
//! (engine result cache, persistent disk tier) keeps its keys across this
//! representation change and the persistence `FORMAT_VERSION` does not need to bump
//! (proptest-enforced in `tests/columns.rs`).

use std::sync::Arc;

use crate::value::{GroupKey, OwnedGroupKey, Value};

/// Maximum number of distinct strings a dictionary may hold. Columns with more
/// distinct values than this fall back to [`ColumnData::Mixed`] (codes are `u32`).
pub const DICT_MAX_ENTRIES: usize = u32::MAX as usize;

/// Typed backing storage of one column (see the module docs for the variant
/// selection rules and the null-handling contract).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null cells are integers.
    I64(Vec<i64>),
    /// All non-null cells are floats (exact IEEE-754 bit patterns preserved).
    F64(Vec<f64>),
    /// All non-null cells are strings, dictionary-encoded: `codes[row]` indexes
    /// `dict`, the first-occurrence-ordered distinct strings (interned `Arc`s).
    Dict {
        /// One code per storage row (placeholder `0` at null positions).
        codes: Vec<u32>,
        /// Distinct strings in first-occurrence order; every entry is referenced by
        /// at least one code at construction time.
        dict: Vec<Arc<str>>,
    },
    /// Fallback: boxed cells exactly as the seed stored them (mixed-type, boolean,
    /// or all-null columns). Nulls are inline; no mask.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Number of storage rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Whether there are no storage rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short name for the storage variant (used in debug output and benches).
    pub fn variant_name(&self) -> &'static str {
        match self {
            ColumnData::I64(_) => "i64",
            ColumnData::F64(_) => "f64",
            ColumnData::Dict { .. } => "dict",
            ColumnData::Mixed(_) => "mixed",
        }
    }

    /// Compact a cell vector into typed storage plus a null mask.
    ///
    /// Chooses the unique typed variant that round-trips losslessly (see the module
    /// docs); anything else — mixed types, booleans, all-null — stays [`ColumnData::Mixed`]
    /// with the input vector unchanged.
    pub fn compact(values: Vec<Value>) -> (ColumnData, Option<NullMask>) {
        Self::compact_with_dict_cap(values, DICT_MAX_ENTRIES)
    }

    /// [`ColumnData::compact`] with an explicit dictionary-size cap.
    ///
    /// Exposed (hidden) so tests can exercise the `u32`-code-boundary fallback
    /// without materializing four billion distinct strings; production callers use
    /// [`ColumnData::compact`], whose cap is [`DICT_MAX_ENTRIES`].
    #[doc(hidden)]
    pub fn compact_with_dict_cap(
        values: Vec<Value>,
        dict_cap: usize,
    ) -> (ColumnData, Option<NullMask>) {
        let (mut ints, mut floats, mut strs, mut nulls) = (0usize, 0, 0, 0);
        for v in &values {
            match v {
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Str(_) => strs += 1,
                Value::Bool(_) => {} // boolean columns stay Mixed; no typed variant to count for
                Value::Null => nulls += 1,
            }
        }
        let non_null = values.len() - nulls;
        if non_null == 0 {
            // All-null (or empty) columns stay Mixed: there is no type to store.
            return (ColumnData::Mixed(values), None);
        }
        let mask = |values: &[Value]| -> Option<NullMask> {
            if nulls == 0 {
                None
            } else {
                let mut m = NullMask::new_empty(values.len());
                for (i, v) in values.iter().enumerate() {
                    if v.is_null() {
                        m.set_null(i);
                    }
                }
                Some(m)
            }
        };
        if ints == non_null {
            let m = mask(&values);
            let xs = values
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    _ => 0, // null placeholder, never read
                })
                .collect();
            return (ColumnData::I64(xs), m);
        }
        if floats == non_null {
            let m = mask(&values);
            let xs = values
                .iter()
                .map(|v| match v {
                    Value::Float(f) => *f,
                    _ => 0.0, // null placeholder, never read
                })
                .collect();
            return (ColumnData::F64(xs), m);
        }
        if strs == non_null {
            // Dictionary-encode. Cells are interned, so the dictionary entries are
            // refcount bumps of the pool's Arcs. Bail out to Mixed if the distinct
            // count crosses the code boundary.
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(values.len());
            let mut index: std::collections::HashMap<Arc<str>, u32> =
                std::collections::HashMap::new();
            let mut overflow = false;
            for v in &values {
                match v {
                    Value::Str(s) => {
                        let code = match index.get(s.as_ref() as &str) {
                            Some(&c) => c,
                            None => {
                                if dict.len() >= dict_cap {
                                    overflow = true;
                                    break;
                                }
                                let c = dict.len() as u32;
                                dict.push(Arc::clone(s));
                                index.insert(Arc::clone(s), c);
                                c
                            }
                        };
                        codes.push(code);
                    }
                    _ => codes.push(0), // null placeholder, never read
                }
            }
            if !overflow {
                let m = mask(&values);
                return (ColumnData::Dict { codes, dict }, m);
            }
        }
        (ColumnData::Mixed(values), None)
    }

    /// Reconstruct the boxed-cell vector (the inverse of [`ColumnData::compact`]).
    /// String cells are refcount bumps of the dictionary entries.
    pub fn to_values(&self, nulls: Option<&NullMask>) -> Vec<Value> {
        let is_null = |i: usize| nulls.is_some_and(|m| m.is_null(i));
        match self {
            ColumnData::I64(xs) => xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if is_null(i) {
                        Value::Null
                    } else {
                        Value::Int(x)
                    }
                })
                .collect(),
            ColumnData::F64(xs) => xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if is_null(i) {
                        Value::Null
                    } else {
                        Value::Float(x)
                    }
                })
                .collect(),
            ColumnData::Dict { codes, dict } => codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if is_null(i) {
                        Value::Null
                    } else {
                        Value::Str(Arc::clone(&dict[c as usize]))
                    }
                })
                .collect(),
            ColumnData::Mixed(vs) => vs.clone(),
        }
    }

    /// The cell at storage row `i` as a borrowed reference (`i` must be in bounds;
    /// `nulls` must be the mask that travels with this storage).
    #[inline]
    pub fn value_ref<'a>(&'a self, i: usize, nulls: Option<&NullMask>) -> ValueRef<'a> {
        if nulls.is_some_and(|m| m.is_null(i)) {
            return ValueRef::Null;
        }
        match self {
            ColumnData::I64(xs) => ValueRef::Int(xs[i]),
            ColumnData::F64(xs) => ValueRef::Float(xs[i]),
            ColumnData::Dict { codes, dict } => ValueRef::Str(&dict[codes[i] as usize]),
            ColumnData::Mixed(vs) => ValueRef::from(&vs[i]),
        }
    }

    /// Approximate resident bytes of this storage (vector payloads plus, for string
    /// variants, each distinct string counted once with its `Arc` header).
    pub fn approx_bytes(&self) -> u64 {
        const ARC_STR_OVERHEAD: u64 = 16; // strong/weak counts ahead of the bytes
        match self {
            ColumnData::I64(xs) => (xs.len() * 8) as u64,
            ColumnData::F64(xs) => (xs.len() * 8) as u64,
            ColumnData::Dict { codes, dict } => {
                (codes.len() * 4) as u64
                    + dict
                        .iter()
                        .map(|s| s.len() as u64 + ARC_STR_OVERHEAD + 16)
                        .sum::<u64>()
            }
            ColumnData::Mixed(vs) => {
                // One boxed Value per cell, plus each distinct string allocation
                // counted once (cells are interned: equal strings share storage).
                let cells = (vs.len() * std::mem::size_of::<Value>()) as u64;
                let mut seen: std::collections::HashSet<*const u8> =
                    std::collections::HashSet::new();
                let strings: u64 = vs
                    .iter()
                    .filter_map(|v| match v {
                        Value::Str(s) => {
                            if seen.insert(s.as_ptr()) {
                                Some(s.len() as u64 + ARC_STR_OVERHEAD)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    })
                    .sum();
                cells + strings
            }
        }
    }
}

/// A null bitmap over storage rows: bit `i` set means row `i` is null.
///
/// Carried by the typed [`ColumnData`] variants (whose vectors hold placeholders at
/// null positions); absent entirely when a column has no nulls, so the common all-set
/// case costs nothing.
#[derive(Debug, Clone)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullMask {
    /// An all-valid (no nulls marked yet) mask over `len` rows.
    pub fn new_empty(len: usize) -> NullMask {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Mark row `i` null.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if self.bits[w] & (1u64 << b) == 0 {
            self.bits[w] |= 1u64 << b;
            self.nulls += 1;
        }
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.bits[w] & (1u64 << b) != 0
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of null rows (popcount, maintained incrementally).
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Append one row (null or not) — used by [`crate::Column::push`].
    pub fn push(&mut self, null: bool) {
        let i = self.len;
        self.len += 1;
        if self.len.div_ceil(64) > self.bits.len() {
            self.bits.push(0);
        }
        if null {
            let (w, b) = (i / 64, i % 64);
            self.bits[w] |= 1u64 << b;
            self.nulls += 1;
        }
    }

    /// Approximate resident bytes of the bitmap.
    pub fn approx_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }
}

/// A borrowed cell: what [`crate::Column::cells`] yields and the hot paths consume.
///
/// Unlike `&Value`, a `ValueRef` can be produced from typed storage without
/// materializing a boxed [`Value`]: integers and floats are carried inline, strings
/// borrow the dictionary (or `Mixed` cell) `Arc<str>`. Converting back to an owned
/// [`Value`] ([`ValueRef::to_value`]) is a refcount bump for strings, never a heap
/// allocation.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// Missing value.
    Null,
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell, borrowing the column's interned storage.
    Str(&'a Arc<str>),
    /// Boolean cell.
    Bool(bool),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }
}

impl<'a> ValueRef<'a> {
    /// Whether this cell is null.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The cell as a float, with the same coercions as [`Value::as_f64`].
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Float(f) => Some(*f),
            ValueRef::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// The cell as an integer, with the same coercions as [`Value::as_i64`].
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            ValueRef::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// The cell as a string slice if it is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The canonical borrowed grouping key (see [`Value::group_key`]).
    #[inline]
    pub fn group_key(&self) -> GroupKey<'a> {
        match self {
            ValueRef::Null => GroupKey::Null,
            ValueRef::Int(i) => GroupKey::Int(*i),
            ValueRef::Float(f) => GroupKey::Float(f.to_bits()),
            ValueRef::Str(s) => GroupKey::Str(s),
            ValueRef::Bool(b) => GroupKey::Bool(*b),
        }
    }

    /// The owned grouping key — a refcount bump for strings (see
    /// [`Value::owned_group_key`]).
    #[inline]
    pub fn owned_group_key(&self) -> OwnedGroupKey {
        match self {
            ValueRef::Null => OwnedGroupKey::Null,
            ValueRef::Int(i) => OwnedGroupKey::Int(*i),
            ValueRef::Float(f) => OwnedGroupKey::Float(f.to_bits()),
            ValueRef::Str(s) => OwnedGroupKey::Str(Arc::clone(s)),
            ValueRef::Bool(b) => OwnedGroupKey::Bool(*b),
        }
    }

    /// Materialize an owned [`Value`] — the API-edge conversion compat shims use; a
    /// refcount bump for strings.
    #[inline]
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Str(s) => Value::Str(Arc::clone(s)),
            ValueRef::Bool(b) => Value::Bool(*b),
        }
    }

    /// Total-order comparison with the same cross-type semantics as
    /// [`Value::total_cmp`] (Null < Bool < numeric < Str; numerics unified).
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Bool(_) => 1,
                ValueRef::Int(_) | ValueRef::Float(_) => 2,
                ValueRef::Str(_) => 3,
            }
        }
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let fa = a.as_f64().unwrap_or(f64::NEG_INFINITY);
                let fb = b.as_f64().unwrap_or(f64::NEG_INFINITY);
                fa.total_cmp(&fb)
            }
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    /// Equality by [`ValueRef::total_cmp`], matching [`Value`]'s `PartialEq` (so
    /// `Int(3) == Float(3.0)`, as before).
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == std::cmp::Ordering::Equal
    }
}

impl std::fmt::Display for ValueRef<'_> {
    /// Same rendering as [`Value`]'s `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueRef::Null => Ok(()),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            ValueRef::Str(s) => write!(f, "{s}"),
            ValueRef::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: Vec<Value>) {
        let (data, nulls) = ColumnData::compact(values.clone());
        assert_eq!(data.len(), values.len());
        let back = data.to_values(nulls.as_ref());
        // Exact variant-level identity, not just semantic equality.
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "variant preserved: {a:?} vs {b:?}"
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn int_columns_compact_to_i64() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(-7)];
        let (data, nulls) = ColumnData::compact(vals.clone());
        assert!(matches!(data, ColumnData::I64(_)));
        assert_eq!(nulls.as_ref().unwrap().null_count(), 1);
        round_trip(vals);
    }

    #[test]
    fn float_columns_compact_to_f64_bit_exact() {
        let vals = vec![Value::Float(-0.0), Value::Float(2.5), Value::Null];
        let (data, nulls) = ColumnData::compact(vals.clone());
        assert!(matches!(data, ColumnData::F64(_)));
        let back = data.to_values(nulls.as_ref());
        match (&back[0], &vals[0]) {
            (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            _ => panic!("float cell preserved"),
        }
    }

    #[test]
    fn string_columns_dictionary_encode_sharing_interned_arcs() {
        let vals = vec![
            Value::str("x"),
            Value::str("y"),
            Value::str("x"),
            Value::Null,
        ];
        let (data, nulls) = ColumnData::compact(vals.clone());
        match &data {
            ColumnData::Dict { codes, dict } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(&codes[..3], &[0, 1, 0]);
                // Dictionary entries are the interned pool Arcs, not copies.
                match &vals[0] {
                    Value::Str(s) => assert!(Arc::ptr_eq(s, &dict[0])),
                    _ => unreachable!(),
                }
            }
            other => panic!("expected dict, got {other:?}"),
        }
        assert_eq!(nulls.unwrap().null_count(), 1);
        round_trip(vals);
    }

    #[test]
    fn mixed_bool_and_all_null_columns_stay_mixed() {
        for vals in [
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Null, Value::Null],
            vec![Value::Int(1), Value::Float(1.5)],
        ] {
            let (data, nulls) = ColumnData::compact(vals.clone());
            assert!(matches!(data, ColumnData::Mixed(_)), "{vals:?}");
            assert!(nulls.is_none());
            round_trip(vals);
        }
    }

    #[test]
    fn dict_cap_overflow_falls_back_to_mixed() {
        let vals: Vec<Value> = (0..8).map(|i| Value::str(format!("s{i}"))).collect();
        let (data, _) = ColumnData::compact_with_dict_cap(vals.clone(), 4);
        assert!(matches!(data, ColumnData::Mixed(_)));
        let (data, _) = ColumnData::compact_with_dict_cap(vals.clone(), 8);
        assert!(matches!(data, ColumnData::Dict { .. }));
        round_trip(vals);
    }

    #[test]
    fn null_mask_push_and_count() {
        let mut m = NullMask::new_empty(0);
        for i in 0..130 {
            m.push(i % 3 == 0);
        }
        assert_eq!(m.len(), 130);
        assert_eq!(m.null_count(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(m.is_null(0) && m.is_null(129) && !m.is_null(64));
    }

    #[test]
    fn value_ref_mirrors_value_semantics() {
        let v = Value::str("abc");
        let r = ValueRef::from(&v);
        assert_eq!(r.as_str(), Some("abc"));
        assert_eq!(r.to_value(), v);
        assert_eq!(r.group_key(), v.group_key());
        assert_eq!(r.owned_group_key(), v.owned_group_key());
        assert_eq!(ValueRef::Int(3), ValueRef::Float(3.0));
        assert_eq!(ValueRef::Int(7).to_string(), "7");
        assert_eq!(ValueRef::Float(2.0).to_string(), "2.0");
        assert_eq!(ValueRef::Null.to_string(), "");
    }
}
