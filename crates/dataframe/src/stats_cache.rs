//! View-level statistics cache: fingerprint-keyed memoization of [`Histogram`]s,
//! group sizes, and per-column summary statistics.
//!
//! Profiling the CDRL training loop shows that once op execution is memoized, the
//! remaining hot path is the generic exploration reward `R_gen` (paper §5.1), which
//! rebuilds per-column histograms and groupings from scratch on every step. Those
//! statistics depend only on the *content* of a view's column, and views recur
//! massively across reward calls — every episode revisits the same filtered views, the
//! featurizer re-summarizes the same columns, and batched goals over one dataset share
//! whole view prefixes. A [`StatsCache`] keys each statistic by
//! `(DataFrame::fingerprint, column)` — stable across runs, processes, and frame
//! clones — so each distinct `(view, column)` statistic is computed once per dataset.
//!
//! The store is a [`ShardedLru`] (the same structure behind the engine's result
//! cache): keys spread over independently locked shards, exact per-shard LRU eviction,
//! global hit/miss/eviction counters. Entries are `Arc`-shared, so a cache hit is a
//! pointer bump, never a histogram clone, and keys fold the column name through the
//! same stable FNV-1a as the frame fingerprint, so a lookup allocates nothing.
//!
//! The cache is memory-only: a miss recomputes. A statistic is cheap to rebuild
//! (well under a millisecond a column at 2k rows) next to persisting it as a file
//! of its own, so only whole exploration results are kept on disk.

use std::sync::Arc;

use crate::error::Result;
use crate::fingerprint::Fnv1a;
use crate::frame::DataFrame;
use crate::sharded::ShardedLru;
use crate::stats::Histogram;
use crate::value::Value;

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
    /// cache's byte budget. Counts the dominant terms — one flat `(value, count)`
    /// entry per distinct value (plus interned-string lengths) for histograms, one
    /// `usize` per group for group sizes — not exact allocator overhead; the budget
    /// is a bound, not an audit.
    pub(crate) fn approx_bytes(&self) -> u64 {
        /// One histogram entry: the `(value, count)` pair plus any string payload
        /// (interned, so shared — counted anyway as the conservative upper bound).
        fn entry_bytes(v: &Value) -> u64 {
            (std::mem::size_of::<(Value, usize)>() + v.as_str().map_or(0, str::len)) as u64
        }
        const HEADER: u64 = 32; // the payload's own struct and `Arc` header, roughly
        match self {
            StatValue::Hist(h) => HEADER + h.iter().map(|(v, _)| entry_bytes(v)).sum::<u64>(),
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

/// Cache key: statistic kind + frame content fingerprint + column-name fingerprint.
///
/// The column name is folded in with the same stable FNV-1a the frame fingerprint
/// uses, so keys are `Copy` and a lookup performs no allocation — the same
/// content-addressing trade-off the engine's result cache already makes with its
/// 64-bit request fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StatKey {
    /// The statistic kind this key addresses.
    kind: StatKind,
    /// The frame's content fingerprint ([`DataFrame::fingerprint`]).
    frame_fp: u64,
    /// Stable FNV-1a fingerprint of the column name.
    column_fp: u64,
}

impl StatKey {
    /// The key of `kind` for `column` of `frame`.
    fn new(kind: StatKind, frame: &DataFrame, column: &str) -> StatKey {
        let mut h = Fnv1a::new();
        h.write_str(column);
        StatKey {
            kind,
            frame_fp: frame.fingerprint(),
            column_fp: h.finish(),
        }
    }
}

/// A sharded, thread-safe cache of per-`(view, column)` statistics.
///
/// Keyed by [`DataFrame::fingerprint`], so two views with identical content share
/// entries no matter how they were produced, and a view whose content differs — even
/// by one cell — can never be served a stale statistic.
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

    /// Generic lookup-or-compute: memory first, then `compute`. `compute` runs
    /// outside any lock; errors are returned, never cached (a missing column should
    /// fail again, not poison an entry).
    fn get_or_compute(
        &self,
        key: StatKey,
        compute: impl FnOnce() -> Result<StatValue>,
    ) -> Result<StatValue> {
        if let Some(entry) = self.store.get(&key) {
            return Ok(entry);
        }
        let computed = compute()?;
        self.store
            .insert_weighted(key, computed.clone(), computed.approx_bytes());
        Ok(computed)
    }

    /// The value histogram of `column` in `frame`, computed once per distinct frame
    /// content. Errors (unknown column) are returned, never cached.
    pub fn histogram(&self, frame: &DataFrame, column: &str) -> Result<Arc<Histogram>> {
        let key = StatKey::new(StatKind::Hist, frame, column);
        match self.get_or_compute(key, || {
            Ok(StatValue::Hist(Arc::new(frame.histogram(column)?)))
        })? {
            StatValue::Hist(h) => Ok(h),
            _ => unreachable!("histogram key yields histogram entry"),
        }
    }

    /// The group sizes of `column` in `frame` (what the conciseness reward consumes),
    /// computed once per distinct frame content: one `usize` per group, never the
    /// per-row grouping itself.
    pub fn group_sizes(&self, frame: &DataFrame, column: &str) -> Result<Arc<Vec<usize>>> {
        let key = StatKey::new(StatKind::Sizes, frame, column);
        let entry = self.get_or_compute(key, || {
            Ok(StatValue::Sizes(Arc::new(frame.groups(column)?.sizes())))
        })?;
        match entry {
            StatValue::Sizes(s) => Ok(s),
            _ => unreachable!("sizes key yields sizes entry"),
        }
    }

    /// Per-column summary statistics of `column` in `frame`, computed once per
    /// distinct frame content.
    pub fn summary(&self, frame: &DataFrame, column: &str) -> Result<Arc<ColumnSummary>> {
        let key = StatKey::new(StatKind::Summary, frame, column);
        let entry = self.get_or_compute(key, || {
            let col = frame.column(column)?;
            // Everything but the dtype comes from the cached histogram: the reward
            // path usually requested it already, so this is a pointer bump, not an
            // O(rows) pass.
            let hist = self.histogram(frame, column)?;
            Ok(StatValue::Summary(Arc::new(ColumnSummary {
                rows: col.len(),
                n_distinct: hist.n_distinct(),
                null_count: col.len() - hist.total(),
                normalized_entropy: hist.normalized_entropy(),
                numeric: col.dtype().is_numeric(),
            })))
        })?;
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
