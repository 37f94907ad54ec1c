//! Stable content fingerprints, and the digest of a view's selection.
//!
//! The exploration service (`linx-engine`) keys its result cache by dataset content, so
//! the dataframe needs a hash that is (a) stable across runs and platforms — unlike
//! `std::collections::hash_map::DefaultHasher`, which is randomly seeded per process —
//! and (b) cheap relative to an exploration run. This module provides a tiny FNV-1a
//! hasher plus column/frame fingerprints built on it; a fingerprint scan is linear in
//! the data and vastly cheaper than the exploration run whose result it keys. It is
//! taken of root datasets — routing, request keys, the disk tier — and of no view:
//! the statistics cache keys a view by its storage's id and `selection_digest`
//! instead, which hashes row indices once per selection rather than every cell once
//! per frame.

use crate::column::Column;
use crate::data::ColumnData;
use crate::value::Value;

/// A 64-bit FNV-1a streaming hasher with a stable, documented algorithm.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed string (prefixing prevents concatenation collisions).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Absorb one cell value with a type tag, so `Int(1)`, `Str("1")` and `Bool(true)`
/// hash differently.
pub fn write_value(h: &mut Fnv1a, v: &Value) {
    match v {
        Value::Null => h.write(&[0]),
        Value::Int(i) => {
            h.write(&[1]);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write(&[2]);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write(&[3]);
            h.write_str(s);
        }
        Value::Bool(b) => h.write(&[4, *b as u8]),
    }
}

/// The stable content fingerprint of one column: name, declared dtype, length, and
/// every *visible* cell, in row order.
///
/// Iteration resolves through the column's selection when it is a view, so a view and
/// its materialized copy absorb bit-identical byte streams — the invariant that keeps
/// every fingerprint-keyed cache (engine result cache, disk tier) valid
/// across the zero-copy representation (proptest-verified in `tests/views.rs`).
///
/// Typed storage hashes per-variant without materializing a [`Value`] per cell, but
/// the byte stream is **identical** to what [`write_value`] would absorb for the
/// reconstructed cells: compaction is lossless (a typed variant exists only when
/// every non-null cell is exactly that `Value` variant), so an `i64` cell emits the
/// `Int` tag + little-endian bytes, a dict code emits the `Str` tag + its string, and
/// null bits emit the `Null` tag. That equality — typed-path fingerprint == seed
/// `Value`-path fingerprint — is what lets the persisted caches keep `FORMAT_VERSION`
/// unchanged across the storage redesign (proptest-enforced in `tests/columns.rs`).
pub fn column_fingerprint(column: &Column) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(column.name());
    h.write_str(&format!("{:?}", column.dtype()));
    h.write_u64(column.len() as u64);
    hash_cells(&mut h, column);
    h.finish()
}

/// The digest of a view's selection: its length, then every storage row index in
/// view order, one multiply per index.
///
/// It keys statistics within one process only (with the storage's id, see
/// [`crate::stats_cache`]), so unlike the fingerprints above it need not be stable
/// across versions.
pub(crate) fn selection_digest(rows: &[u32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (rows.len() as u64).wrapping_mul(K);
    for &row in rows {
        h = (h.rotate_left(26) ^ u64::from(row)).wrapping_mul(K);
    }
    h ^ (h >> 29)
}

/// Absorb every visible cell of `column` in row order, emitting the canonical
/// [`write_value`] byte stream directly from typed storage.
fn hash_cells(h: &mut Fnv1a, column: &Column) {
    let nulls = column.null_mask();
    let n = column.len();
    // Row-order storage indices (resolving the selection), shared by every arm.
    let sel = column.sel_indices();
    let idx = |vis: usize| -> usize {
        match sel {
            Some(s) => s[vis] as usize,
            None => vis,
        }
    };
    let is_null = |si: usize| nulls.is_some_and(|m| m.is_null(si));
    match column.data() {
        ColumnData::I64(xs) => {
            for vis in 0..n {
                let si = idx(vis);
                if is_null(si) {
                    h.write(&[0]);
                } else {
                    h.write(&[1]);
                    h.write_u64(xs[si] as u64);
                }
            }
        }
        ColumnData::F64(xs) => {
            for vis in 0..n {
                let si = idx(vis);
                if is_null(si) {
                    h.write(&[0]);
                } else {
                    h.write(&[2]);
                    h.write_u64(xs[si].to_bits());
                }
            }
        }
        ColumnData::Dict { codes, dict } => {
            for vis in 0..n {
                let si = idx(vis);
                if is_null(si) {
                    h.write(&[0]);
                } else {
                    h.write(&[3]);
                    h.write_str(&dict[codes[si] as usize]);
                }
            }
        }
        ColumnData::Mixed(vs) => {
            for vis in 0..n {
                write_value(h, &vs[idx(vis)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_prefix_safe() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        c.write_str("hello");
        // Pinned value (FNV-1a over the 8-byte LE length prefix then the bytes):
        // changing the algorithm or the framing is a cache-compatibility break for
        // any persisted or cross-process cache keyed by these fingerprints.
        assert_eq!(c.finish(), 0xff7a61ff11320f78);
    }

    #[test]
    fn typed_and_boxed_storage_fingerprint_identically() {
        // The cache-compatibility contract of the typed-storage redesign: hashing
        // typed slices produces the exact byte stream the boxed Value path produced.
        let samples: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-7)],
            vec![Value::Float(-0.0), Value::Float(2.5), Value::Null],
            vec![
                Value::str("x"),
                Value::Null,
                Value::str("x"),
                Value::str("y"),
            ],
            vec![
                Value::Bool(true),
                Value::Null,
                Value::Int(3),
                Value::str("s"),
            ],
        ];
        for cells in samples {
            let typed = Column::new("c", cells.clone());
            let boxed = Column::new_uncompacted("c", cells.clone());
            assert_eq!(
                column_fingerprint(&typed),
                column_fingerprint(&boxed),
                "{cells:?}"
            );
        }
    }

    #[test]
    fn values_hash_by_type_and_content() {
        let mut a = Fnv1a::new();
        write_value(&mut a, &Value::Int(1));
        let mut b = Fnv1a::new();
        write_value(&mut b, &Value::str("1"));
        let mut c = Fnv1a::new();
        write_value(&mut c, &Value::Bool(true));
        let mut d = Fnv1a::new();
        write_value(&mut d, &Value::Float(1.0));
        let hashes = [a.finish(), b.finish(), c.finish(), d.finish()];
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
    }
}
