//! Property-based tests for the view-statistics cache: cached statistics must be
//! value-identical to freshly computed ones for arbitrary frames, and entries must be
//! invalidated (never reused) when the underlying frame content differs.

use linx_dataframe::stats_cache::StatsCache;
use linx_dataframe::{DataFrame, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Value::str),
        1 => (-5i64..5).prop_map(|i| Value::float(i as f64 / 2.0)),
        1 => Just(Value::Null),
    ]
}

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    prop::collection::vec((value_strategy(), value_strategy()), 1..50).prop_map(|rows| {
        DataFrame::from_rows(
            &["k", "v"],
            rows.into_iter().map(|(a, b)| vec![a, b]).collect(),
        )
        .unwrap()
    })
}

proptest! {
    /// For arbitrary frames, histograms / group sizes / summaries served by the cache
    /// (both the cold, computing lookup and the warm, cached one) are value-identical
    /// to freshly computed statistics.
    #[test]
    fn cached_statistics_are_value_identical(df in frame_strategy()) {
        let cache = StatsCache::default();
        for col in ["k", "v"] {
            let cold_hist = cache.histogram(&df, col).unwrap();
            let warm_hist = cache.histogram(&df, col).unwrap();
            let fresh_hist = df.histogram(col).unwrap();
            prop_assert_eq!(&*cold_hist, &fresh_hist);
            prop_assert_eq!(&*warm_hist, &fresh_hist);

            let cold_sizes = cache.group_sizes(&df, col).unwrap();
            let warm_sizes = cache.group_sizes(&df, col).unwrap();
            let fresh_sizes = df.groups(col).unwrap().sizes();
            prop_assert_eq!(&*cold_sizes, &fresh_sizes);
            prop_assert_eq!(&*warm_sizes, &fresh_sizes);

            let summary = cache.summary(&df, col).unwrap();
            let column = df.column(col).unwrap();
            prop_assert_eq!(summary.rows, df.num_rows());
            prop_assert_eq!(summary.n_distinct, column.n_unique());
            prop_assert_eq!(summary.null_count, column.null_count());
            prop_assert_eq!(summary.numeric, column.dtype().is_numeric());
            let fresh_entropy = fresh_hist.normalized_entropy();
            prop_assert_eq!(summary.normalized_entropy.to_bits(), fresh_entropy.to_bits());
        }
    }

    /// A frame whose content differs — even by a single appended row — has a different
    /// fingerprint, so the cache computes fresh statistics instead of reusing the
    /// original frame's entries.
    #[test]
    fn changed_content_invalidates_entries(df in frame_strategy(), extra in value_strategy()) {
        let cache = StatsCache::default();
        let before = cache.histogram(&df, "k").unwrap();

        // Same content, different construction: served from the same entry.
        let rebuilt = DataFrame::from_rows(
            &["k", "v"],
            (0..df.num_rows()).map(|i| df.row(i)).collect(),
        ).unwrap();
        prop_assert_eq!(df.fingerprint(), rebuilt.fingerprint());
        let hits_before = cache.stats().hits;
        let same = cache.histogram(&rebuilt, "k").unwrap();
        prop_assert_eq!(&*same, &*before);
        prop_assert_eq!(cache.stats().hits, hits_before + 1);

        // One extra row: different fingerprint, freshly computed statistic.
        let mut rows: Vec<Vec<Value>> = (0..df.num_rows()).map(|i| df.row(i)).collect();
        rows.push(vec![extra, Value::Null]);
        let grown = DataFrame::from_rows(&["k", "v"], rows).unwrap();
        prop_assert_ne!(df.fingerprint(), grown.fingerprint());
        let misses_before = cache.stats().misses;
        let fresh = cache.histogram(&grown, "k").unwrap();
        prop_assert_eq!(cache.stats().misses, misses_before + 1);
        prop_assert_eq!(&*fresh, &grown.histogram("k").unwrap());
    }

    /// The memoized `DataFrame::fingerprint` agrees across clones and row-wise
    /// reconstruction (the property the whole cache keys on).
    #[test]
    fn fingerprint_memoization_is_content_stable(df in frame_strategy()) {
        let fp = df.fingerprint();
        prop_assert_eq!(fp, df.clone().fingerprint());
        prop_assert_eq!(fp, df.fingerprint());
        let taken = df.take(&(0..df.num_rows()).collect::<Vec<_>>());
        prop_assert_eq!(fp, taken.fingerprint());
    }
}
