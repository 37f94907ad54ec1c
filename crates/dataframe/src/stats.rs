//! Distribution statistics used by the LINX generic exploration reward.
//!
//! The paper (following ATENA \[6\]) scores:
//!
//! * **filter interestingness** with the KL divergence between the value distribution of
//!   a column in the filtered view and in its parent view,
//! * **group-by interestingness** with *conciseness* (few, well-populated groups are
//!   preferred over degenerate groupings), and
//! * **diversity** with a distance between query result distributions.
//!
//! This module provides the histogram and divergence primitives those scores are built
//! from.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::data::ColumnData;
use crate::value::{OwnedGroupKey, Value};

/// Smoothing constant used when comparing distributions with disjoint supports.
const EPS: f64 = 1e-9;

/// A frequency histogram over the distinct non-null values of a column.
///
/// Internally keyed by [`OwnedGroupKey`] — a refcount bump per distinct value, never a
/// formatted string — so building a histogram allocates only the bucket map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    counts: HashMap<OwnedGroupKey, (Value, usize)>,
    total: usize,
}

impl Histogram {
    /// Build a histogram from a column of values (nulls ignored) — any iterator of
    /// cells: a slice, or a selection view's [`crate::Column::cells`].
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Histogram {
        let mut counts: HashMap<OwnedGroupKey, (Value, usize)> = HashMap::new();
        let mut total = 0usize;
        for v in values {
            if v.is_null() {
                continue;
            }
            total += 1;
            counts
                .entry(v.owned_group_key())
                .and_modify(|e| e.1 += 1)
                .or_insert_with(|| (v.clone(), 1));
        }
        Histogram { counts, total }
    }

    /// Build a histogram over a column's visible rows, as a typed kernel (nulls
    /// ignored, same as [`Histogram::from_values`]).
    ///
    /// Dictionary storage counts by code into a flat `Vec` — no hashing per row —
    /// and builds map entries only once per distinct value; integer/float storage
    /// counts through primitive hash maps; `Mixed` falls back to the boxed path.
    pub fn from_column(col: &Column) -> Histogram {
        let n = col.len();
        match col.data() {
            ColumnData::I64(xs) => {
                let mut by_val: HashMap<i64, usize> = HashMap::new();
                let mut total = 0usize;
                for row in 0..n {
                    let si = col.storage_index(row);
                    if !col.is_null_storage(si) {
                        total += 1;
                        *by_val.entry(xs[si]).or_insert(0) += 1;
                    }
                }
                let counts = by_val
                    .into_iter()
                    .map(|(x, c)| (OwnedGroupKey::Int(x), (Value::Int(x), c)))
                    .collect();
                Histogram { counts, total }
            }
            ColumnData::F64(xs) => {
                let mut by_bits: HashMap<u64, usize> = HashMap::new();
                let mut total = 0usize;
                for row in 0..n {
                    let si = col.storage_index(row);
                    if !col.is_null_storage(si) {
                        total += 1;
                        *by_bits.entry(xs[si].to_bits()).or_insert(0) += 1;
                    }
                }
                let counts = by_bits
                    .into_iter()
                    .map(|(bits, c)| {
                        (
                            OwnedGroupKey::Float(bits),
                            (Value::Float(f64::from_bits(bits)), c),
                        )
                    })
                    .collect();
                Histogram { counts, total }
            }
            ColumnData::Dict { codes, dict } => {
                let mut by_code: Vec<usize> = vec![0; dict.len()];
                let mut total = 0usize;
                for row in 0..n {
                    let si = col.storage_index(row);
                    if !col.is_null_storage(si) {
                        total += 1;
                        by_code[codes[si] as usize] += 1;
                    }
                }
                let counts = by_code
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c > 0)
                    .map(|(code, c)| {
                        let s = &dict[code];
                        (
                            OwnedGroupKey::Str(Arc::clone(s)),
                            (Value::Str(Arc::clone(s)), c),
                        )
                    })
                    .collect();
                Histogram { counts, total }
            }
            ColumnData::Mixed(vs) => {
                Histogram::from_values((0..n).map(|row| &vs[col.storage_index(row)]))
            }
        }
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of counted (non-null) observations.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for a specific value.
    pub fn count(&self, v: &Value) -> usize {
        self.counts
            .get(&v.owned_group_key())
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Relative frequency of a value (0 if unseen or histogram empty).
    pub fn freq(&self, v: &Value) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.total as f64
        }
    }

    /// Iterate `(value, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, usize)> {
        self.counts.values().map(|(v, c)| (v, *c))
    }

    /// The `(value, count)` pairs sorted by descending count then ascending value
    /// (deterministic ordering for display / insight extraction).
    pub fn sorted(&self) -> Vec<(Value, usize)> {
        let mut pairs: Vec<(Value, usize)> = self.counts.values().cloned().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs
    }

    /// The most frequent value and its relative frequency, if any.
    pub fn mode(&self) -> Option<(Value, f64)> {
        self.sorted()
            .into_iter()
            .next()
            .map(|(v, c)| (v, c as f64 / self.total.max(1) as f64))
    }

    /// Shannon entropy (nats) of the value distribution.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        self.counts
            .values()
            .map(|(_, c)| {
                let p = *c as f64 / n;
                -p * p.ln()
            })
            .sum()
    }

    /// Normalized entropy in `[0, 1]` (entropy divided by `ln(n_distinct)`); 0 for
    /// degenerate (single-value or empty) distributions.
    pub fn normalized_entropy(&self) -> f64 {
        let k = self.n_distinct();
        if k <= 1 {
            return 0.0;
        }
        self.entropy() / (k as f64).ln()
    }

    /// KL divergence `KL(self || other)` with epsilon smoothing for values missing from
    /// `other`. Values unseen in `self` contribute nothing. Returns 0 for empty `self`.
    pub fn kl_divergence(&self, other: &Histogram) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let other_total = other.total.max(1) as f64;
        let mut kl = 0.0;
        // Look other's counts up by the stored group keys directly (KL runs on every
        // filter-interestingness reward; the loop performs no allocation).
        for (k, (_, c)) in &self.counts {
            let p = *c as f64 / self.total as f64;
            let q = other
                .counts
                .get(k)
                .map(|(_, oc)| *oc as f64 / other_total)
                .unwrap_or(0.0)
                .max(EPS);
            kl += p * (p / q).ln();
        }
        kl.max(0.0)
    }

    /// Total-variation distance (half the L1 distance) between the two distributions,
    /// a symmetric, bounded `[0, 1]` measure used for session diversity.
    pub fn total_variation(&self, other: &Histogram) -> f64 {
        let mut keys: std::collections::HashSet<&OwnedGroupKey> = std::collections::HashSet::new();
        for k in self.counts.keys() {
            keys.insert(k);
        }
        for k in other.counts.keys() {
            keys.insert(k);
        }
        let mut dist = 0.0;
        for k in keys {
            let p = self
                .counts
                .get(k)
                .map(|e| e.1 as f64 / self.total.max(1) as f64)
                .unwrap_or(0.0);
            let q = other
                .counts
                .get(k)
                .map(|e| e.1 as f64 / other.total.max(1) as f64)
                .unwrap_or(0.0);
            dist += (p - q).abs();
        }
        (dist / 2.0).clamp(0.0, 1.0)
    }
}

/// Conciseness of a grouping (paper §5.1, after Geng & Hamilton interestingness
/// measures): prefers groupings with a moderate number of groups and an even-but-not-
/// degenerate distribution of group sizes.
///
/// The score is `coverage * (1 - |normalized_entropy - 0.5| * 2) * size_penalty`, all in
/// `[0, 1]`:
/// * `coverage` — fraction of rows in non-singleton groups (groupings that shatter the
///   data into singletons carry no insight),
/// * the entropy term peaks for balanced-but-distinct group sizes,
/// * `size_penalty` discounts groupings with more than `max_groups` groups.
pub fn conciseness(group_sizes: &[usize], max_groups: usize) -> f64 {
    let total: usize = group_sizes.iter().sum();
    if total == 0 || group_sizes.is_empty() {
        return 0.0;
    }
    let k = group_sizes.len();
    if k == 1 {
        // Degenerate grouping: one group carries no comparative insight.
        return 0.05;
    }
    let covered: usize = group_sizes.iter().filter(|&&s| s > 1).sum();
    let coverage = covered as f64 / total as f64;
    let n = total as f64;
    let entropy: f64 = group_sizes
        .iter()
        .map(|&s| {
            let p = s as f64 / n;
            -p * p.ln()
        })
        .sum();
    let norm_entropy = entropy / (k as f64).ln().max(EPS);
    let balance = 1.0 - (norm_entropy - 0.75).abs();
    let size_penalty = if k <= max_groups {
        1.0
    } else {
        (max_groups as f64 / k as f64).sqrt()
    };
    (coverage * balance * size_penalty).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[&str]) -> Histogram {
        Histogram::from_values(&vals.iter().map(|s| Value::str(*s)).collect::<Vec<_>>())
    }

    #[test]
    fn histogram_counts_and_freqs() {
        let h = hist(&["a", "a", "b", "c", "a"]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.n_distinct(), 3);
        assert_eq!(h.count(&Value::str("a")), 3);
        assert!((h.freq(&Value::str("b")) - 0.2).abs() < 1e-12);
        assert_eq!(h.count(&Value::str("zzz")), 0);
        assert_eq!(h.mode().unwrap().0, Value::str("a"));
    }

    #[test]
    fn histogram_ignores_nulls() {
        let h = Histogram::from_values(&[Value::Null, Value::str("a"), Value::Null]);
        assert_eq!(h.total(), 1);
        assert_eq!(h.n_distinct(), 1);
    }

    #[test]
    fn from_column_matches_from_values_across_variants() {
        let samples: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Int(1), Value::Null, Value::Int(2)],
            vec![Value::Float(0.5), Value::Float(-0.5), Value::Float(0.5)],
            vec![
                Value::str("a"),
                Value::Null,
                Value::str("b"),
                Value::str("a"),
            ],
            vec![Value::Bool(true), Value::Int(1), Value::Null],
            vec![],
        ];
        for cells in samples {
            let col = Column::new("c", cells.clone());
            assert_eq!(
                Histogram::from_column(&col),
                Histogram::from_values(&cells),
                "{cells:?}"
            );
            // Views histogram through the selection.
            if cells.len() >= 2 {
                let view = col.gather(&[cells.len() - 1, 0]);
                let gathered = vec![cells[cells.len() - 1].clone(), cells[0].clone()];
                assert_eq!(
                    Histogram::from_column(&view),
                    Histogram::from_values(&gathered)
                );
            }
        }
    }

    #[test]
    fn entropy_uniform_vs_degenerate() {
        let uniform = hist(&["a", "b", "c", "d"]);
        let degenerate = hist(&["a", "a", "a", "a"]);
        assert!(uniform.entropy() > degenerate.entropy());
        assert!((uniform.normalized_entropy() - 1.0).abs() < 1e-9);
        assert_eq!(degenerate.normalized_entropy(), 0.0);
        assert_eq!(Histogram::default().entropy(), 0.0);
    }

    #[test]
    fn kl_divergence_zero_for_identical_and_positive_for_shifted() {
        let p = hist(&["a", "a", "b"]);
        let q = hist(&["a", "a", "b"]);
        assert!(p.kl_divergence(&q) < 1e-12);

        let shifted = hist(&["b", "b", "b"]);
        assert!(shifted.kl_divergence(&p) > 0.5);
        // Filtering to an unusual subset (all "c") vs parent gives large divergence.
        let weird = hist(&["c", "c"]);
        assert!(weird.kl_divergence(&p) > 1.0);
    }

    #[test]
    fn total_variation_bounds() {
        let p = hist(&["a", "a", "b"]);
        let q = hist(&["a", "a", "b"]);
        assert!(p.total_variation(&q) < 1e-12);
        let r = hist(&["z", "z"]);
        assert!((p.total_variation(&r) - 1.0).abs() < 1e-9);
        let s = hist(&["a", "b"]);
        let tv = p.total_variation(&s);
        assert!(tv > 0.0 && tv < 1.0);
    }

    #[test]
    fn conciseness_prefers_meaningful_groupings() {
        // Two balanced groups of 50: a useful comparative grouping.
        let good = conciseness(&[50, 50], 20);
        // 100 singleton groups: useless grouping (e.g. group by a unique id).
        let singletons = conciseness(&vec![1usize; 100], 20);
        // One group with everything: degenerate.
        let degenerate = conciseness(&[100], 20);
        assert!(good > singletons);
        assert!(good > degenerate);
        assert!(singletons < 0.2);
        assert!(degenerate <= 0.05 + 1e-12);
        assert_eq!(conciseness(&[], 20), 0.0);
    }

    #[test]
    fn conciseness_penalizes_too_many_groups() {
        let few = conciseness(&[10, 12, 9, 11], 20);
        let many_sizes: Vec<usize> = vec![2; 200];
        let many = conciseness(&many_sizes, 20);
        assert!(few > many);
    }
}
