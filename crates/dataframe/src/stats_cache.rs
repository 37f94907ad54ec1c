//! View-level statistics cache: memoized [`Histogram`]s, group sizes, and per-column
//! summary statistics, keyed by the column's storage and selection.
//!
//! Profiling the CDRL training loop shows that once op execution is memoized, the
//! remaining hot path is the generic exploration reward `R_gen` (paper §5.1), which
//! rebuilds per-column histograms and groupings from scratch on every step. Views
//! recur massively across reward calls — every episode revisits the same filtered
//! views (the op memo hands back the same view), the featurizer re-summarizes the
//! same columns, and batched goals over one dataset share whole view prefixes. A
//! [`StatsCache`] keys each statistic by `(kind, storage id, selection digest)`: the
//! id of the column's storage, which every view, clone and `select` of a column
//! shares and which new cells never reuse, and a digest of the view's selection
//! computed once when the selection is built. A lookup never hashes a cell, and no
//! view is ever fingerprinted.
//!
//! Storage ids are unique within the process, so one cache is safe to share across
//! datasets, and a statistic can never be served for other cells. Content is no
//! longer shared across storages: a frame rebuilt with equal cells, or a materialized
//! view, has new storage and computes its statistics once more.
//!
//! Histograms and group sizes of typed storage are counted over the storage's codes
//! (see [`crate::stats`]). The codes ride on the histogram of the whole storage, the
//! entry keyed by the storage with no selection: it builds them when the storage's
//! first view or grouping is counted, and is charged again for them then. A view's
//! lookup reaches that entry without counting a hit or a miss, and computes it on the
//! way when it is absent. Building a context, which asks only for whole columns'
//! histograms, builds no codes.
//!
//! The store is a [`ShardedLru`] (the same structure behind the engine's result
//! cache): keys spread over independently locked shards, exact per-shard LRU eviction,
//! global hit/miss/eviction counters. Entries are `Arc`-shared, so a cache hit is a
//! pointer bump, never a histogram clone. A lookup of a column the frame lacks
//! returns the error before any key is built, touching neither the store nor the
//! counters.
//!
//! The cache is memory-only: a miss recomputes. A statistic is cheap to rebuild
//! (well under a millisecond a column at 2k rows) next to persisting it as a file
//! of its own, so only whole exploration results are kept on disk.

use std::sync::Arc;

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::groupby::Groups;
use crate::sharded::ShardedLru;
use crate::stats::Histogram;

/// Point-in-time cache effectiveness counters — the sharded store's own counters,
/// re-exported under a statistics-cache name for telemetry consumers (`OpMemoStats`
/// style).
pub type StatsCacheStats = crate::sharded::CacheStats;

/// Cheap per-column summary statistics (the quantities the CDRL featurizer reads per
/// observation), computed once per `(view, column)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Number of rows in the view the summary was taken from.
    pub rows: usize,
    /// Number of distinct (non-null-collapsed) values.
    pub n_distinct: usize,
    /// Number of null cells.
    pub null_count: usize,
    /// Normalized Shannon entropy of the value distribution, in `[0, 1]`.
    pub normalized_entropy: f64,
    /// Whether the column's declared dtype is numeric.
    pub numeric: bool,
}

/// One cached statistic. All kinds share one store so capacity, eviction, and
/// counters are managed in one place; the payloads are `Arc`-shared.
#[derive(Debug, Clone)]
pub(crate) enum StatValue {
    /// A value histogram ([`StatsCache::histogram`]).
    Hist(Arc<Histogram>),
    /// Group sizes ([`StatsCache::group_sizes`]).
    Sizes(Arc<Vec<usize>>),
    /// Per-column summary statistics ([`StatsCache::summary`]).
    Summary(Arc<ColumnSummary>),
}

impl StatValue {
    /// Approximate resident payload bytes: what this entry charges against the
    /// cache's byte budget. Counts the dominant terms — a histogram's entries, and the
    /// codes and distinct values of a whole storage's histogram; one `usize` per group
    /// for group sizes — not exact allocator overhead; the budget is a bound, not an
    /// audit.
    pub(crate) fn approx_bytes(&self) -> u64 {
        const ARC: u64 = 16; // an `Arc`'s counts
        const HEADER: u64 = 32; // the payload's own struct and `Arc` header, roughly
        match self {
            StatValue::Hist(h) => ARC + h.approx_bytes(),
            StatValue::Sizes(s) => HEADER + (s.len() * std::mem::size_of::<usize>()) as u64,
            StatValue::Summary(_) => HEADER + std::mem::size_of::<ColumnSummary>() as u64,
        }
    }
}

/// Which statistic a key addresses (folded into the key so a histogram and the group
/// sizes of the same column never collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StatKind {
    /// Value histogram.
    Hist,
    /// Group sizes.
    Sizes,
    /// Per-column summary.
    Summary,
}

/// Cache key: statistic kind, the column's storage id, and its selection's digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StatKey {
    /// The statistic kind this key addresses.
    kind: StatKind,
    /// The id of the column's storage.
    storage: u64,
    /// The digest of the column's selection; `None` when the column shows its whole
    /// storage.
    selection: Option<u64>,
}

impl StatKey {
    /// The key of `kind` for `column`'s visible rows.
    fn new(kind: StatKind, column: &Column) -> StatKey {
        StatKey {
            kind,
            storage: column.storage_id(),
            selection: column.selection_digest(),
        }
    }
}

/// A sharded, thread-safe cache of per-`(view, column)` statistics.
///
/// Keyed by the column's storage id and selection digest (see the module docs), so a
/// view, its clones and every frame that `select`s its columns share entries, and
/// cells built anew never meet an entry of other cells.
///
/// Capacity is a budget of **approximate payload bytes**: a [`Histogram`] of a
/// per-row-unique column weighs O(rows) and is charged accordingly, so heavy entries
/// can no longer crowd the cache at the same price as tiny summaries. Entries heavier
/// than a whole shard's budget are simply not cached (recomputed on every request)
/// rather than flushing everything else.
#[derive(Debug)]
pub struct StatsCache {
    store: ShardedLru<StatKey, StatValue>,
}

impl Default for StatsCache {
    /// Defaults sized for a full training run over one dataset: every distinct view of
    /// a session tree contributes a handful of per-column statistics.
    fn default() -> Self {
        StatsCache::new(Self::DEFAULT_MEM_BYTES, Self::DEFAULT_SHARDS)
    }
}

impl StatsCache {
    /// Default total byte budget (what [`StatsCache::default`] allocates): 64 MiB.
    pub const DEFAULT_MEM_BYTES: usize = 64 * 1024 * 1024;
    /// Default shard count (what [`StatsCache::default`] allocates).
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache with a budget of `mem_bytes` approximate payload bytes spread over
    /// `shards` shards. A zero budget yields a cache that stores nothing (lookups
    /// always compute).
    pub fn new(mem_bytes: usize, shards: usize) -> Self {
        StatsCache {
            store: ShardedLru::new(mem_bytes, shards),
        }
    }

    /// Generic lookup-or-compute: memory first, then `compute`, which runs outside
    /// any lock.
    fn get_or_compute(&self, key: StatKey, compute: impl FnOnce() -> StatValue) -> StatValue {
        if let Some(entry) = self.store.get(&key) {
            return entry;
        }
        let computed = compute();
        self.insert(key, computed.clone());
        computed
    }

    fn insert(&self, key: StatKey, value: StatValue) {
        let weight = value.approx_bytes();
        self.store.insert_weighted(key, value, weight);
    }

    /// The histogram of `column`'s whole storage with the storage's codes built:
    /// looked up without counting (nobody asked for it), computed and cached when
    /// absent, and charged again when it builds its codes. `None` for `Mixed`
    /// storage.
    fn whole(&self, column: &Column) -> Option<Arc<Histogram>> {
        let key = StatKey {
            kind: StatKind::Hist,
            storage: column.storage_id(),
            selection: None,
        };
        let whole = match self.store.peek(&key) {
            Some(StatValue::Hist(h)) if h.has_codes() => return Some(h),
            Some(StatValue::Hist(h)) => h,
            _ => Arc::new(Histogram::whole(column)?),
        };
        if !whole.is_whole() {
            return None;
        }
        whole.codes(column);
        self.insert(key, StatValue::Hist(Arc::clone(&whole)));
        Some(whole)
    }

    /// The value histogram of `column` in `frame`, computed once per storage and
    /// selection. An unknown column is an error, never cached or counted.
    pub fn histogram(&self, frame: &DataFrame, column: &str) -> Result<Arc<Histogram>> {
        Ok(self.histogram_of(frame.column(column)?))
    }

    fn histogram_of(&self, col: &Column) -> Arc<Histogram> {
        let entry = self.get_or_compute(StatKey::new(StatKind::Hist, col), || {
            // A contiguous column's histogram is the whole storage's: no codes needed.
            let whole = if col.is_contiguous() {
                None
            } else {
                self.whole(col)
            };
            StatValue::Hist(Arc::new(match whole {
                Some(whole) => whole.count_view(col),
                None => Histogram::from_column(col),
            }))
        });
        match entry {
            StatValue::Hist(h) => h,
            _ => unreachable!("histogram key yields histogram entry"),
        }
    }

    /// The group sizes of `column` in `frame` (what the conciseness reward consumes),
    /// computed once per storage and selection: one `usize` per group in
    /// first-occurrence order, never the per-row grouping itself.
    pub fn group_sizes(&self, frame: &DataFrame, column: &str) -> Result<Arc<Vec<usize>>> {
        let col = frame.column(column)?;
        let entry = self.get_or_compute(StatKey::new(StatKind::Sizes, col), || {
            StatValue::Sizes(Arc::new(match self.whole(col) {
                Some(whole) => whole.group_sizes(col),
                None => Groups::from_column(col).sizes(),
            }))
        });
        match entry {
            StatValue::Sizes(s) => Ok(s),
            _ => unreachable!("sizes key yields sizes entry"),
        }
    }

    /// Per-column summary statistics of `column` in `frame`, computed once per
    /// storage and selection.
    pub fn summary(&self, frame: &DataFrame, column: &str) -> Result<Arc<ColumnSummary>> {
        let col = frame.column(column)?;
        let entry = self.get_or_compute(StatKey::new(StatKind::Summary, col), || {
            // Everything but the dtype comes from the cached histogram: the reward
            // path usually requested it already, so this is a pointer bump, not an
            // O(rows) pass.
            let hist = self.histogram_of(col);
            StatValue::Summary(Arc::new(ColumnSummary {
                rows: col.len(),
                n_distinct: hist.n_distinct(),
                null_count: col.len() - hist.total(),
                normalized_entropy: hist.normalized_entropy(),
                numeric: col.dtype().is_numeric(),
            }))
        });
        match entry {
            StatValue::Summary(s) => Ok(s),
            _ => unreachable!("summary key yields summary entry"),
        }
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> StatsCacheStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn frame() -> DataFrame {
        DataFrame::from_rows(
            &["country", "n"],
            vec![
                vec![Value::str("India"), Value::Int(1)],
                vec![Value::str("India"), Value::Int(2)],
                vec![Value::str("US"), Value::Int(3)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn histogram_computed_once_per_content() {
        let cache = StatsCache::default();
        let df = frame();
        let h1 = cache.histogram(&df, "country").unwrap();
        let h2 = cache.histogram(&df, "country").unwrap();
        assert!(Arc::ptr_eq(&h1, &h2), "second lookup is the shared Arc");
        assert_eq!(*h1, df.histogram("country").unwrap());
        // A clone of the frame has the same content fingerprint.
        let h3 = cache.histogram(&df.clone(), "country").unwrap();
        assert!(Arc::ptr_eq(&h1, &h3));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kinds_do_not_collide() {
        let cache = StatsCache::default();
        let df = frame();
        cache.histogram(&df, "country").unwrap();
        cache.group_sizes(&df, "country").unwrap();
        cache.summary(&df, "country").unwrap();
        let s = cache.stats();
        // Three distinct entries; the one hit is summary() reusing the histogram entry
        // for its entropy.
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 3));
    }

    #[test]
    fn group_sizes_match_full_groups() {
        let cache = StatsCache::default();
        let df = frame();
        let sizes = cache.group_sizes(&df, "country").unwrap();
        assert_eq!(*sizes, df.groups("country").unwrap().sizes());
        let again = cache.group_sizes(&df, "country").unwrap();
        assert!(
            Arc::ptr_eq(&sizes, &again),
            "second lookup is the shared Arc"
        );
    }

    #[test]
    fn summary_matches_direct_computation() {
        let cache = StatsCache::default();
        let df = frame();
        let sum = cache.summary(&df, "n").unwrap();
        assert_eq!(sum.rows, 3);
        assert_eq!(sum.n_distinct, 3);
        assert_eq!(sum.null_count, 0);
        assert!(sum.numeric);
        let again = cache.summary(&df, "n").unwrap();
        assert!(Arc::ptr_eq(&sum, &again));
    }

    #[test]
    fn errors_are_returned_not_cached() {
        let cache = StatsCache::default();
        let df = frame();
        assert!(cache.histogram(&df, "missing").is_err());
        assert!(cache.group_sizes(&df, "missing").is_err());
        assert!(cache.summary(&df, "missing").is_err());
        assert_eq!(cache.stats().entries, 0);
        // A column the frame lacks is no lookup: neither a hit nor a miss.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn different_content_gets_different_entries() {
        let cache = StatsCache::default();
        let df = frame();
        let filtered = df.take(&[0, 1]);
        let h_all = cache.histogram(&df, "country").unwrap();
        let h_sub = cache.histogram(&filtered, "country").unwrap();
        assert_ne!(*h_all, *h_sub, "subset histogram differs");
        assert_eq!(
            cache.stats().misses,
            2,
            "two distinct contents, two computes"
        );
    }

    #[test]
    fn zero_capacity_always_computes() {
        let cache = StatsCache::new(0, 4);
        let df = frame();
        cache.histogram(&df, "country").unwrap();
        cache.histogram(&df, "country").unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn eviction_bounds_residency() {
        let df = DataFrame::from_rows(
            &["a", "b", "c"],
            vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
        )
        .unwrap();
        // Single shard, byte budget sized for exactly two of these histogram
        // entries: the third distinct column evicts the LRU one.
        let weight = StatValue::Hist(Arc::new(df.histogram("a").unwrap())).approx_bytes();
        let cache = StatsCache::new(weight as usize * 2, 1);
        cache.histogram(&df, "a").unwrap();
        cache.histogram(&df, "b").unwrap();
        cache.histogram(&df, "a").unwrap(); // refresh "a"; "b" becomes LRU
        cache.histogram(&df, "c").unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.weight <= s.capacity);
        cache.histogram(&df, "b").unwrap(); // evicted, so recomputed
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn entries_weigh_by_approximate_bytes() {
        // A wide histogram (many distinct strings) must weigh far more than a
        // single-value one, and more than the same column's summary.
        let wide = DataFrame::from_rows(
            &["c"],
            (0..200)
                .map(|i| vec![Value::str(format!("category-{i}"))])
                .collect(),
        )
        .unwrap();
        let narrow = DataFrame::from_rows(&["c"], vec![vec![Value::str("x")]]).unwrap();
        let heavy = StatValue::Hist(Arc::new(wide.histogram("c").unwrap())).approx_bytes();
        let light = StatValue::Hist(Arc::new(narrow.histogram("c").unwrap())).approx_bytes();
        assert!(heavy > light * 50, "heavy {heavy} vs light {light}");

        let cache = StatsCache::default();
        cache.histogram(&wide, "c").unwrap();
        cache.summary(&wide, "c").unwrap();
        let s = cache.stats();
        assert!(
            s.weight >= heavy,
            "resident weight {} accounts for the heavy histogram {heavy}",
            s.weight
        );
    }
}
