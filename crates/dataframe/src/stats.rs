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

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::Column;
use crate::data::ColumnData;
use crate::value::Value;

/// Smoothing constant used when comparing distributions with disjoint supports.
const EPS: f64 = 1e-9;

/// A frequency histogram over the distinct non-null values of a column.
///
/// Stored as one flat vector of `(value, count)` entries sorted by the values' group
/// keys ([`crate::value::GroupKey`]'s total order: by type, then integers by value,
/// floats by bit pattern, strings by bytes). Key identity is the group key's, so
/// `Int(1)` and `Float(1.0)` — equal under [`Value`]'s own order — are distinct
/// entries, and so are `-0.0` and `0.0`.
///
/// The order is a function of the content alone, never of a hash seed or of the
/// storage's dictionary-code order. [`Histogram::entropy`],
/// [`Histogram::kl_divergence`] and [`Histogram::total_variation`] sum their terms in
/// it, so each returns the same bits for the same content in every process, and the
/// two divergences are merge-joins over the two vectors with no hashing.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// One entry per distinct non-null value, in key order.
    entries: Vec<(Value, usize)>,
    total: usize,
}

/// The histogram key order: [`Value::group_key`]'s derived total order. Equal
/// interned strings settle on one pointer comparison.
#[inline]
fn key_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) if Arc::ptr_eq(x, y) => Ordering::Equal,
        _ => a.group_key().cmp(&b.group_key()),
    }
}

/// Run-length encode a sorted slice into `(value, count)` entries.
fn runs<T: Copy>(
    sorted: &[T],
    same: impl Fn(&T, &T) -> bool,
    value: impl Fn(T) -> Value,
) -> Vec<(Value, usize)> {
    let mut entries: Vec<(Value, usize)> = sorted
        .chunk_by(same)
        .map(|run| (value(run[0]), run.len()))
        .collect();
    entries.shrink_to_fit();
    entries
}

impl PartialEq for Histogram {
    /// Equal when the same keys carry the same counts. Keys compare by identity, so
    /// histograms of `[Int(1)]` and `[Float(1.0)]` differ.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((a, ca), (b, cb))| ca == cb && key_cmp(a, b) == Ordering::Equal)
    }
}

impl Histogram {
    /// Build a histogram from a column of values (nulls ignored) — any iterator of
    /// cells: a slice, or a selection view's [`crate::Column::cells`].
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Histogram {
        let mut cells: Vec<&Value> = values.into_iter().filter(|v| !v.is_null()).collect();
        cells.sort_unstable_by(|a, b| key_cmp(a, b));
        Histogram {
            entries: runs(
                &cells,
                |a, b| key_cmp(a, b) == Ordering::Equal,
                Value::clone,
            ),
            total: cells.len(),
        }
    }

    /// Build a histogram over a column's visible rows, as a typed kernel (nulls
    /// ignored, same as [`Histogram::from_values`]).
    ///
    /// Integer and float storage sort the visible primitives (floats by bit pattern)
    /// and count runs; dictionary storage counts by code into a flat `Vec` — no
    /// hashing per row — and sorts only the distinct strings; `Mixed` falls back to
    /// the boxed path. No kernel hashes, and each emits its entries in key order.
    pub fn from_column(col: &Column) -> Histogram {
        let visible = (0..col.len())
            .map(|row| col.storage_index(row))
            .filter(|&si| !col.is_null_storage(si));
        match col.data() {
            ColumnData::I64(xs) => {
                let mut sorted: Vec<i64> = visible.map(|si| xs[si]).collect();
                sorted.sort_unstable();
                Histogram {
                    entries: runs(&sorted, |a, b| a == b, Value::Int),
                    total: sorted.len(),
                }
            }
            ColumnData::F64(xs) => {
                let mut sorted: Vec<u64> = visible.map(|si| xs[si].to_bits()).collect();
                sorted.sort_unstable();
                Histogram {
                    entries: runs(
                        &sorted,
                        |a, b| a == b,
                        |bits| Value::Float(f64::from_bits(bits)),
                    ),
                    total: sorted.len(),
                }
            }
            ColumnData::Dict { codes, dict } => {
                let mut by_code: Vec<usize> = vec![0; dict.len()];
                let mut total = 0usize;
                for si in visible {
                    total += 1;
                    by_code[codes[si] as usize] += 1;
                }
                let mut entries = Vec::with_capacity(by_code.iter().filter(|&&c| c > 0).count());
                entries.extend(
                    by_code
                        .iter()
                        .zip(dict)
                        .filter(|&(&c, _)| c > 0)
                        .map(|(&c, s)| (Value::Str(Arc::clone(s)), c)),
                );
                entries.sort_unstable_by(|a, b| key_cmp(&a.0, &b.0));
                Histogram { entries, total }
            }
            ColumnData::Mixed(vs) => Histogram::from_values(visible.map(|si| &vs[si])),
        }
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.entries.len()
    }

    /// Total number of counted (non-null) observations.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for a specific value (a binary search by key).
    pub fn count(&self, v: &Value) -> usize {
        self.entries
            .binary_search_by(|(k, _)| key_cmp(k, v))
            .map_or(0, |i| self.entries[i].1)
    }

    /// Relative frequency of a value (0 if unseen or histogram empty).
    pub fn freq(&self, v: &Value) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.total as f64
        }
    }

    /// Iterate `(value, count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, usize)> {
        self.entries.iter().map(|(v, c)| (v, *c))
    }

    /// The `(value, count)` pairs sorted by descending count then ascending value
    /// (deterministic ordering for display / insight extraction).
    pub fn sorted(&self) -> Vec<(Value, usize)> {
        let mut pairs = self.entries.clone();
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

    /// Shannon entropy (nats) of the value distribution, summed in key order.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        self.entries
            .iter()
            .map(|&(_, c)| {
                let p = c as f64 / n;
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
    ///
    /// One merge-join pass over both vectors, summing in key order.
    pub fn kl_divergence(&self, other: &Histogram) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let other_total = other.total.max(1) as f64;
        let b = &other.entries;
        let mut j = 0;
        let mut kl = 0.0;
        for (k, c) in &self.entries {
            while j < b.len() && key_cmp(&b[j].0, k) == Ordering::Less {
                j += 1;
            }
            let q = match b.get(j) {
                Some((v, oc)) if key_cmp(v, k) == Ordering::Equal => *oc as f64 / other_total,
                _ => 0.0,
            };
            let p = *c as f64 / self.total as f64;
            kl += p * (p / q.max(EPS)).ln();
        }
        kl.max(0.0)
    }

    /// Total-variation distance (half the L1 distance) between the two distributions,
    /// a symmetric, bounded `[0, 1]` measure used for session diversity.
    ///
    /// One merge-join pass over the union of both key sets, in key order.
    pub fn total_variation(&self, other: &Histogram) -> f64 {
        let p_total = self.total.max(1) as f64;
        let q_total = other.total.max(1) as f64;
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        let mut dist = 0.0;
        while i < a.len() || j < b.len() {
            let ord = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => key_cmp(&x.0, &y.0),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let (p, q) = match ord {
                Ordering::Less => (a[i].1 as f64 / p_total, 0.0),
                Ordering::Greater => (0.0, b[j].1 as f64 / q_total),
                Ordering::Equal => (a[i].1 as f64 / p_total, b[j].1 as f64 / q_total),
            };
            dist += (p - q).abs();
            i += usize::from(ord != Ordering::Greater);
            j += usize::from(ord != Ordering::Less);
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
