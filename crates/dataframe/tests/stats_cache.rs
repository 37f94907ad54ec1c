//! Property-based tests for the view-statistics cache: cached statistics must be
//! value-identical to freshly computed ones for arbitrary frames, and entries must be
//! invalidated (never reused) when the underlying frame content differs.

use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::stats::Histogram;
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

/// One row of six columns: one per storage kind, each with nulls (integers, floats
/// with `-0.0` and `0.0`, strings, and a mixed column), then a near-unique integer
/// and a near-unique string drawn from a domain far larger than the frame.
fn wide_row_strategy() -> impl Strategy<Value = Vec<Value>> {
    let int = prop_oneof![
        4 => (-4i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let string = prop_oneof![
        4 => prop::sample::select(vec!["a", "b", "c", "d", "e", "f"]).prop_map(Value::str),
        1 => Just(Value::Null),
    ];
    let float = prop_oneof![
        4 => (-3i64..4).prop_map(|i| Value::float(i as f64 / 2.0)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Null),
    ];
    let mixed = prop_oneof![
        1 => (0i64..3).prop_map(Value::Int),
        1 => (0i64..3).prop_map(|i| Value::Float(i as f64)),
        1 => prop::sample::select(vec!["0", "1"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ];
    let near_unique = (0u64..100_000).prop_map(|k| match k % 11 {
        0 => (Value::Null, Value::Null),
        _ => (Value::Int(k as i64 - 50_000), Value::str(format!("u{k}"))),
    });
    (int, float, string, mixed, near_unique)
        .prop_map(|(i, f, s, m, (ui, us))| vec![i, f, s, m, ui, us])
}

const WIDE: [&str; 6] = ["int", "float", "str", "mixed", "unique_int", "unique_str"];

proptest! {
    /// The cache's histograms equal `Histogram::from_values` over the visible cells,
    /// and its group sizes equal `groups().sizes()` in order, for the whole frame, a
    /// selection much smaller than each column's domain, a filter view, and a view of
    /// that view.
    #[test]
    fn cached_statistics_match_the_visible_cells(
        rows in prop::collection::vec(wide_row_strategy(), 1..200),
        picks in prop::collection::vec(0usize..1000, 0..6),
    ) {
        let frame = DataFrame::from_rows(&WIDE, rows).unwrap();
        let n = frame.num_rows();
        let small = frame.take(&picks.iter().map(|p| p % n).collect::<Vec<_>>());
        let filtered = frame
            .filter(&Predicate::new("int", CompareOp::Neq, Value::Int(0)))
            .unwrap();
        let nested = filtered.take(&(0..filtered.num_rows()).rev().step_by(2).collect::<Vec<_>>());
        let cache = StatsCache::default();
        for view in [&frame, &small, &filtered, &nested] {
            for name in WIDE {
                let cells: Vec<Value> =
                    (0..view.num_rows()).map(|i| view.value(i, name).unwrap()).collect();
                prop_assert_eq!(&*cache.histogram(view, name).unwrap(), &Histogram::from_values(&cells));
                prop_assert_eq!(
                    &*cache.group_sizes(view, name).unwrap(),
                    &view.groups(name).unwrap().sizes()
                );
            }
        }
    }

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

    /// A frame whose content differs — even by a single appended row — is new
    /// storage, so the cache computes fresh statistics instead of reusing the original
    /// frame's entries. Entries key on storage, not content: a frame rebuilt with the
    /// same cells is new storage too, and computes its statistic once more, equal to
    /// the original's.
    #[test]
    fn changed_content_invalidates_entries(df in frame_strategy(), extra in value_strategy()) {
        let cache = StatsCache::default();
        let before = cache.histogram(&df, "k").unwrap();

        // Same content, different construction: new storage, one more computation.
        let rebuilt = DataFrame::from_rows(
            &["k", "v"],
            (0..df.num_rows()).map(|i| df.row(i)).collect(),
        ).unwrap();
        prop_assert_eq!(df.fingerprint(), rebuilt.fingerprint());
        let misses_before = cache.stats().misses;
        let same = cache.histogram(&rebuilt, "k").unwrap();
        prop_assert_eq!(&*same, &*before);
        prop_assert_eq!(cache.stats().misses, misses_before + 1);

        // One extra row: different content, freshly computed statistic.
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
    /// reconstruction (the property routing and the engine's result cache key on).
    #[test]
    fn fingerprint_memoization_is_content_stable(df in frame_strategy()) {
        let fp = df.fingerprint();
        prop_assert_eq!(fp, df.clone().fingerprint());
        prop_assert_eq!(fp, df.fingerprint());
        let taken = df.take(&(0..df.num_rows()).collect::<Vec<_>>());
        prop_assert_eq!(fp, taken.fingerprint());
    }
}
