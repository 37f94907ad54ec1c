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
//!
//! # Codes
//!
//! A typed storage (`I64`, `F64`, `Dict`) is counted over **codes**: each storage row's
//! rank among the storage's distinct non-null values in key order. Equal values share
//! a code and nulls get none. The histogram of the whole storage
//! ([`Histogram::from_column`] on a contiguous column, or the entry a
//! [`crate::StatsCache`] keeps per storage) ranks the values, and builds the codes
//! once, when the storage's first view or grouping is counted. A view's histogram
//! then counts the codes its selection reaches — no sort, no string compare — and
//! its group sizes count the same codes. Two histograms over one storage, such as a
//! filter's output and its input, compare ranks instead of values. `Mixed` storage
//! keeps the boxed path.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use crate::column::Column;
use crate::data::ColumnData;
use crate::value::{GroupKey, Value};

/// Smoothing constant used when comparing distributions with disjoint supports.
const EPS: f64 = 1e-9;

/// One typed storage's distinct non-null values in key order: what its codes mean.
#[derive(Debug)]
pub(crate) struct Domain {
    /// The storage's id: ranks compare only between histograms of one storage.
    storage: u64,
    /// The value of each rank.
    values: Vec<Value>,
}

/// The keys of a histogram's entries, ascending in key order.
#[derive(Debug, Clone)]
enum Keys {
    /// The distinct values themselves.
    Values(Vec<Value>),
    /// Ranks into one storage's domain.
    Ranks(Arc<Domain>, Vec<u32>),
}

impl Default for Keys {
    fn default() -> Self {
        Keys::Values(Vec::new())
    }
}

/// A frequency histogram over the distinct non-null values of a column.
///
/// Its entries are sorted by the values' group keys ([`crate::value::GroupKey`]'s
/// total order: by type, then integers by value, floats by bit pattern, strings by
/// bytes). Key identity is the group key's, so `Int(1)` and `Float(1.0)` — equal under
/// [`Value`]'s own order — are distinct entries, and so are `-0.0` and `0.0`. A
/// histogram of typed storage holds its keys as codes of that storage (see the
/// module docs); the entries and every statistic are the same either way.
///
/// The order is a function of the content alone, never of a hash seed or of the
/// storage's dictionary-code order. [`Histogram::entropy`],
/// [`Histogram::kl_divergence`] and [`Histogram::total_variation`] sum their terms in
/// it, so each returns the same bits for the same content in every process, and the
/// two divergences are merge-joins over the two entry lists with no hashing.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    keys: Keys,
    /// The count of each entry, parallel to the keys.
    counts: Vec<usize>,
    total: usize,
    /// On the histogram of a whole typed storage: each storage row's code (a
    /// placeholder at null rows), which the storage's views are counted by, built on
    /// first use ([`Histogram::codes`]). `None` on every other histogram.
    codes: Option<OnceLock<Vec<u32>>>,
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

/// Walk the union of two ascending key lists in key order, calling `f` with each
/// key's count on either side (0 where a side lacks it). `cmp(i, j)` orders key `i`
/// of `a` against key `j` of `b`.
fn merge_join(
    a: &[usize],
    b: &[usize],
    cmp: impl Fn(usize, usize) -> Ordering,
    mut f: impl FnMut(usize, usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let ord = match (i < a.len(), j < b.len()) {
            (true, true) => cmp(i, j),
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match ord {
            Ordering::Less => f(a[i], 0),
            Ordering::Greater => f(0, b[j]),
            Ordering::Equal => f(a[i], b[j]),
        }
        i += usize::from(ord != Ordering::Greater);
        j += usize::from(ord != Ordering::Less);
    }
}

/// The distinct keys of numeric storage in order, as values, with their counts: sort
/// the keys, which order as the values' group keys do, and count runs.
fn sorted_runs(
    keys: impl Iterator<Item = u64>,
    value: impl Fn(u64) -> Value,
) -> (Vec<Value>, Vec<usize>) {
    let mut keys: Vec<u64> = keys.collect();
    keys.sort_unstable();
    let (mut values, mut counts): (Vec<Value>, Vec<usize>) = keys
        .chunk_by(|a, b| a == b)
        .map(|run| (value(run[0]), run.len()))
        .unzip();
    values.shrink_to_fit();
    counts.shrink_to_fit();
    (values, counts)
}

/// A memo of KL terms by `(count, other count)` for one divergence. One call meets
/// few distinct pairs — most keys of a near-unique column count 1 on both sides — so
/// most terms become a lookup instead of a logarithm. Direct-mapped: a clash
/// recomputes the term, which gives the same bits.
struct TermMemo([(usize, usize, f64); 64]);

impl TermMemo {
    fn new() -> TermMemo {
        TermMemo([(usize::MAX, usize::MAX, 0.0); 64])
    }

    fn term(&mut self, c: usize, oc: usize, compute: impl FnOnce() -> f64) -> f64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let h = ((c as u64).wrapping_mul(K) ^ oc as u64).wrapping_mul(K);
        let slot = &mut self.0[(h >> 58) as usize];
        if (slot.0, slot.1) != (c, oc) {
            *slot = (c, oc, compute());
        }
        slot.2
    }
}

impl PartialEq for Histogram {
    /// Equal when the same keys carry the same counts. Keys compare by identity, so
    /// histograms of `[Int(1)]` and `[Float(1.0)]` differ.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.counts == other.counts
            && (0..self.counts.len()).all(|i| key_cmp(self.key(i), other.key(i)).is_eq())
    }
}

impl Histogram {
    /// The value of entry `i`.
    fn key(&self, i: usize) -> &Value {
        match &self.keys {
            Keys::Values(values) => &values[i],
            Keys::Ranks(domain, ranks) => &domain.values[ranks[i] as usize],
        }
    }

    /// Build a histogram from a column of values (nulls ignored) — any iterator of
    /// cells: a slice, or a selection view's [`crate::Column::cells`].
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Histogram {
        let mut cells: Vec<&Value> = values.into_iter().filter(|v| !v.is_null()).collect();
        cells.sort_unstable_by(|a, b| key_cmp(a, b));
        let (mut keys, mut counts) = (Vec::new(), Vec::new());
        for run in cells.chunk_by(|a, b| key_cmp(a, b).is_eq()) {
            keys.push(run[0].clone());
            counts.push(run.len());
        }
        keys.shrink_to_fit();
        counts.shrink_to_fit();
        Histogram {
            keys: Keys::Values(keys),
            counts,
            total: cells.len(),
            codes: None,
        }
    }

    /// Build a histogram over a column's visible rows (nulls ignored, same as
    /// [`Histogram::from_values`]).
    ///
    /// A contiguous column's histogram is its whole storage's; a view of typed
    /// storage counts the storage's codes (see the module docs) over its selection.
    /// `Mixed` storage takes the boxed path.
    pub fn from_column(col: &Column) -> Histogram {
        match Histogram::whole(col) {
            Some(whole) if col.is_contiguous() => whole,
            Some(whole) => whole.count_view(col),
            None => match col.data() {
                ColumnData::Mixed(vs) => {
                    Histogram::from_values((0..col.len()).map(|row| &vs[col.storage_index(row)]))
                }
                // Typed storage past `u32` codes: box the cells.
                _ => Histogram::from_values(&col.cells().map(|c| c.to_value()).collect::<Vec<_>>()),
            },
        }
    }

    /// The histogram of `col`'s whole storage, whatever `col`'s selection, which
    /// builds the storage's codes when first asked. `None` for `Mixed` storage.
    ///
    /// A dictionary counts its strings and ranks the ones rows use by bytes; numeric
    /// storage sorts its keys — the `i64` with its sign bit flipped, or the `f64`'s bit
    /// pattern — and counts runs.
    pub(crate) fn whole(col: &Column) -> Option<Histogram> {
        let data = col.data();
        if data.len() > u32::MAX as usize {
            return None;
        }
        let nulls = col.null_mask();
        let rows = (0..data.len()).filter(|&si| !nulls.is_some_and(|m| m.is_null(si)));
        let (values, counts): (Vec<Value>, Vec<usize>) = match data {
            ColumnData::Dict { codes, dict } => {
                let mut count_of = vec![0usize; dict.len()];
                rows.for_each(|si| count_of[codes[si] as usize] += 1);
                let mut used: Vec<usize> = (0..dict.len()).filter(|&c| count_of[c] > 0).collect();
                used.sort_unstable_by(|&a, &b| dict[a].cmp(&dict[b]));
                used.iter()
                    .map(|&c| (Value::Str(Arc::clone(&dict[c])), count_of[c]))
                    .unzip()
            }
            ColumnData::I64(xs) => sorted_runs(rows.map(|si| (xs[si] as u64) ^ (1 << 63)), |k| {
                Value::Int((k ^ (1 << 63)) as i64)
            }),
            ColumnData::F64(xs) => sorted_runs(rows.map(|si| xs[si].to_bits()), |bits| {
                Value::Float(f64::from_bits(bits))
            }),
            ColumnData::Mixed(_) => return None,
        };
        let domain = Domain {
            storage: col.storage_id(),
            values,
        };
        Some(Histogram {
            keys: Keys::Ranks(Arc::new(domain), (0..counts.len() as u32).collect()),
            total: counts.iter().sum(),
            counts,
            codes: Some(OnceLock::new()),
        })
    }

    /// Whether this is the histogram of a whole typed storage ([`Histogram::whole`]).
    pub(crate) fn is_whole(&self) -> bool {
        self.codes.is_some()
    }

    /// Whether this whole-storage histogram has built its codes.
    pub(crate) fn has_codes(&self) -> bool {
        self.codes
            .as_ref()
            .is_some_and(|codes| codes.get().is_some())
    }

    /// The domain and codes of `col`'s storage, of which `self` is the whole
    /// histogram: each storage row's rank in the domain, found by binary search the
    /// first time — once per dictionary string, or once per numeric row.
    pub(crate) fn codes(&self, col: &Column) -> (&Arc<Domain>, &[u32]) {
        let (Keys::Ranks(domain, _), Some(codes)) = (&self.keys, &self.codes) else {
            panic!("counting needs the whole histogram of the column's storage");
        };
        debug_assert_eq!(domain.storage, col.storage_id(), "codes of another storage");
        let codes = codes.get_or_init(|| {
            let keys: Vec<GroupKey<'_>> = domain.values.iter().map(Value::group_key).collect();
            // A dictionary string no row uses is in no domain: its code is never read.
            let rank = |key: GroupKey<'_>| keys.binary_search(&key).map_or(0, |r| r as u32);
            let data = col.data();
            let nulls = col.null_mask();
            let rows = (0..data.len()).filter(|&si| !nulls.is_some_and(|m| m.is_null(si)));
            let mut codes = vec![0u32; data.len()];
            match data {
                ColumnData::Dict {
                    codes: dict_codes,
                    dict,
                } => {
                    let rank_of: Vec<u32> = dict.iter().map(|s| rank(GroupKey::Str(s))).collect();
                    rows.for_each(|si| codes[si] = rank_of[dict_codes[si] as usize]);
                }
                _ => rows.for_each(|si| codes[si] = rank(data.value_ref(si, None).group_key())),
            }
            codes
        });
        (domain, codes)
    }

    /// The histogram of `col`'s visible rows, counted over the codes `self` carries:
    /// `self` is the whole histogram of `col`'s storage.
    ///
    /// Counts into a table over the domain, then emits the non-zero counts in code
    /// order; a selection far smaller than the domain sorts its codes instead of
    /// sweeping the table.
    pub(crate) fn count_view(&self, col: &Column) -> Histogram {
        let (domain, codes) = self.codes(col);
        let (mut ranks, mut counts) = (Vec::new(), Vec::new());
        if col.len().saturating_mul(8) < domain.values.len() {
            let mut seen = Vec::with_capacity(col.len());
            col.for_each_non_null(|_, si| seen.push(codes[si]));
            seen.sort_unstable();
            for run in seen.chunk_by(|a, b| a == b) {
                ranks.push(run[0]);
                counts.push(run.len());
            }
        } else {
            let mut by_rank = vec![0u32; domain.values.len()];
            col.for_each_non_null(|_, si| by_rank[codes[si] as usize] += 1);
            for (rank, &c) in by_rank.iter().enumerate().filter(|&(_, &c)| c > 0) {
                ranks.push(rank as u32);
                counts.push(c as usize);
            }
        }
        ranks.shrink_to_fit();
        counts.shrink_to_fit();
        Histogram {
            keys: Keys::Ranks(Arc::clone(domain), ranks),
            total: counts.iter().sum(),
            counts,
            codes: None,
        }
    }

    /// The sizes of `col`'s groups — [`crate::groupby::Groups::sizes`]: first-occurrence
    /// order, nulls one group of their own — counted over the codes `self` carries
    /// (`self` is the whole histogram of `col`'s storage).
    pub(crate) fn group_sizes(&self, col: &Column) -> Vec<usize> {
        let (domain, codes) = self.codes(col);
        crate::groupby::sizes_by_code(col, domain.values.len(), |si| codes[si] as usize)
    }

    /// Approximate resident bytes: the struct itself, each entry's key and count, and
    /// on a whole-storage histogram also its domain's values and, once built, its
    /// codes (4 bytes a storage row). A view's ranks point into that domain, so they
    /// are charged 4 bytes each.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let values = |vs: &[Value]| -> u64 {
            vs.iter()
                .map(|v| (std::mem::size_of::<Value>() + v.as_str().map_or(0, str::len)) as u64)
                .sum()
        };
        let keys = match &self.keys {
            Keys::Values(vs) => values(vs),
            Keys::Ranks(domain, ranks) => {
                let domain = if self.is_whole() {
                    values(&domain.values)
                } else {
                    0
                };
                domain + 4 * ranks.len() as u64
            }
        };
        let counts = self.counts.len() * std::mem::size_of::<usize>();
        let codes = self
            .codes
            .as_ref()
            .and_then(OnceLock::get)
            .map_or(0, Vec::len);
        keys + (std::mem::size_of::<Histogram>() + counts + 4 * codes) as u64
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of counted (non-null) observations.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for a specific value (a binary search by key).
    pub fn count(&self, v: &Value) -> usize {
        let (mut lo, mut hi) = (0, self.counts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match key_cmp(self.key(mid), v) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.counts[mid],
            }
        }
        0
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
        (0..self.counts.len()).map(|i| (self.key(i), self.counts[i]))
    }

    /// The `(value, count)` pairs sorted by descending count then ascending value
    /// (deterministic ordering for display / insight extraction).
    pub fn sorted(&self) -> Vec<(Value, usize)> {
        let mut pairs: Vec<(Value, usize)> = self.iter().map(|(v, c)| (v.clone(), c)).collect();
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
        self.counts
            .iter()
            .map(|&c| {
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

    /// How entry `i` of `self` orders against entry `j` of `other`: by rank when both
    /// count one storage's codes, by value otherwise.
    fn key_order<'a>(&'a self, other: &'a Histogram) -> impl Fn(usize, usize) -> Ordering + 'a {
        let ranks = match (&self.keys, &other.keys) {
            (Keys::Ranks(a, ra), Keys::Ranks(b, rb)) if a.storage == b.storage => Some((ra, rb)),
            _ => None,
        };
        move |i, j| match ranks {
            Some((ra, rb)) => ra[i].cmp(&rb[j]),
            None => key_cmp(self.key(i), other.key(j)),
        }
    }

    /// KL divergence `KL(self || other)` with epsilon smoothing for values missing from
    /// `other`. Values unseen in `self` contribute nothing. Returns 0 for empty `self`.
    ///
    /// Walks `self`'s entries in key order, seeking each key in `other` — by rank
    /// within one storage, read straight off `other` when it is the whole storage's
    /// histogram — and sums the terms in that order; each term is computed once per
    /// distinct `(count, other count)` pair of the call.
    pub fn kl_divergence(&self, other: &Histogram) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let (n, other_total) = (self.total as f64, other.total.max(1) as f64);
        let mut memo = TermMemo::new();
        let mut term = |c: usize, oc: usize| {
            memo.term(c, oc, || {
                let (p, q) = (c as f64 / n, oc as f64 / other_total);
                p * (p / q.max(EPS)).ln()
            })
        };
        let mut kl = 0.0;
        match (&self.keys, &other.keys) {
            (Keys::Ranks(a, ranks), Keys::Ranks(b, _))
                if a.storage == b.storage && other.is_whole() =>
            {
                for (&rank, &c) in ranks.iter().zip(&self.counts) {
                    kl += term(c, other.counts[rank as usize]);
                }
            }
            _ => {
                let order = self.key_order(other);
                let mut j = 0;
                for (i, &c) in self.counts.iter().enumerate() {
                    while j < other.counts.len() && order(i, j).is_gt() {
                        j += 1;
                    }
                    let found = j < other.counts.len() && order(i, j).is_eq();
                    kl += term(c, if found { other.counts[j] } else { 0 });
                }
            }
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
        let mut dist = 0.0;
        merge_join(
            &self.counts,
            &other.counts,
            self.key_order(other),
            |c, oc| {
                dist += (c as f64 / p_total - oc as f64 / q_total).abs();
            },
        );
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
