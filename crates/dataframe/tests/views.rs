//! Property tests for zero-copy selection views.
//!
//! Two invariants carry the whole view layer:
//!
//! 1. **Semantic equivalence** — for any frame and op chain, executing through
//!    selection views yields exactly what the seed's materializing gather path
//!    yielded: same rows, same group-by/histogram/distinct results, same aggregates.
//! 2. **Fingerprint equivalence** — `view.fingerprint() == view.materialize()
//!    .fingerprint()`, so every fingerprint-keyed cache entry (stats cache, engine
//!    result cache, the persistent disk tier) written before this representation
//!    change is still addressed by the same key after it.

use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::stats::Histogram;
use linx_dataframe::{DataFrame, StatsCache, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Value::str),
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

/// One row-subsetting step of a random chain.
#[derive(Debug, Clone)]
enum Step {
    Filter(CompareOp, Value),
    Head(usize),
    /// Keep every `k`-th row (a deterministic `take` exercising stride selections).
    Stride(usize),
    /// Reverse the rows (a reordering `take`).
    Reverse,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            prop::sample::select(vec![
                CompareOp::Eq,
                CompareOp::Neq,
                CompareOp::Gt,
                CompareOp::Le
            ]),
            value_strategy()
        )
            .prop_map(|(op, term)| Step::Filter(op, term)),
        (1usize..40).prop_map(Step::Head),
        (1usize..4).prop_map(Step::Stride),
        Just(Step::Reverse),
    ]
}

/// Apply one step. `materialize_each` replays the seed gather semantics (contiguous
/// copy after every subsetting op).
fn apply(df: &DataFrame, step: &Step, materialize_each: bool) -> DataFrame {
    let out = match step {
        Step::Filter(op, term) => df
            .filter(&Predicate::new("k", *op, term.clone()))
            .expect("column k exists"),
        Step::Head(n) => df.head(*n),
        Step::Stride(k) => df.take(&(0..df.num_rows()).step_by(*k).collect::<Vec<_>>()),
        Step::Reverse => df.take(&(0..df.num_rows()).rev().collect::<Vec<_>>()),
    };
    if materialize_each {
        out.materialize()
    } else {
        out
    }
}

fn rows_of(df: &DataFrame) -> Vec<Vec<Value>> {
    (0..df.num_rows()).map(|i| df.row(i)).collect()
}

proptest! {
    /// View-based execution of a random op chain equals the seed materialized
    /// semantics cell for cell, and every consumer computed on the view equals the
    /// same consumer on the materialized frame.
    #[test]
    fn views_match_materialized_semantics(
        df in frame_strategy(),
        steps in prop::collection::vec(step_strategy(), 0..6),
    ) {
        let mut view = df.clone();
        let mut gathered = df.clone();
        for step in &steps {
            view = apply(&view, step, false);
            gathered = apply(&gathered, step, true);
        }
        prop_assert_eq!(view.num_rows(), gathered.num_rows());
        prop_assert_eq!(rows_of(&view), rows_of(&gathered));

        // Consumers resolve through the selection identically.
        prop_assert_eq!(
            view.histogram("k").unwrap(),
            gathered.histogram("k").unwrap()
        );
        prop_assert_eq!(view.groups("k").unwrap(), gathered.groups("k").unwrap());
        prop_assert_eq!(
            view.distinct_values("k").unwrap(),
            gathered.distinct_values("k").unwrap()
        );
        let (vc, gc) = (view.column("v").unwrap(), gathered.column("v").unwrap());
        prop_assert_eq!(vc.sum(), gc.sum());
        prop_assert_eq!(vc.mean(), gc.mean());
        prop_assert_eq!(vc.n_unique(), gc.n_unique());
        prop_assert_eq!(vc.null_count(), gc.null_count());
        if view.num_rows() > 0 {
            prop_assert_eq!(
                view.group_by("k", AggFunc::Count, "v").unwrap().render(100),
                gathered.group_by("k", AggFunc::Count, "v").unwrap().render(100)
            );
        }
    }

    /// A view's fingerprint is bit-identical to its materialization's — the invariant
    /// that keeps every persisted/in-memory cache key valid across the zero-copy
    /// representation.
    #[test]
    fn view_fingerprint_equals_materialized_fingerprint(
        df in frame_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..6),
    ) {
        let mut view = df;
        for step in &steps {
            view = apply(&view, step, false);
        }
        // `materialize()` deliberately shares the view's memoized fingerprint (the
        // contents are identical by construction), so to actually exercise the
        // hash-through-selection path, rebuild an independent contiguous frame from
        // materialized columns: its fingerprint is recomputed from scratch.
        let independent = DataFrame::new(
            view.columns().map(|c| c.materialize()).collect::<Vec<_>>(),
        )
        .unwrap();
        prop_assert!(!independent.is_view());
        prop_assert_eq!(view.fingerprint(), independent.fingerprint());
        // The API-level contract holds too (and costs no second scan).
        prop_assert_eq!(view.fingerprint(), view.materialize().fingerprint());
    }

    /// The stats cache keys a view by its storage and selection: a clone, a `select`
    /// and an equal selection over the same storage share one entry, while a rebuilt
    /// frame, a materialized view and a different selection each compute once. Every
    /// answer equals the histogram of the view's own cells.
    #[test]
    fn stats_cache_shares_entries_within_one_storage(
        df in frame_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..4),
    ) {
        let mut view = df;
        for step in &steps {
            view = apply(&view, step, false);
        }
        let n = view.num_rows();
        let cells: Vec<Value> = (0..n).map(|i| view.value(i, "k").unwrap()).collect();
        let reference = Histogram::from_values(&cells);
        let cache = StatsCache::default();
        let h_view = cache.histogram(&view, "k").unwrap();
        prop_assert_eq!(&*h_view, &reference);
        let equal_selection = view.take(&(0..n).collect::<Vec<_>>());
        for same in [view.clone(), view.select(&["k"]).unwrap(), equal_selection] {
            prop_assert!(std::sync::Arc::ptr_eq(&h_view, &cache.histogram(&same, "k").unwrap()));
        }
        let s = cache.stats();
        prop_assert_eq!((s.misses, s.hits), (1, 3));

        let rebuilt = DataFrame::from_rows(&["k", "v"], rows_of(&view)).unwrap();
        let reversed = view.take(&(0..n).rev().collect::<Vec<_>>());
        let mut others = vec![rebuilt, view.materialize()];
        if n >= 2 {
            others.push(reversed);
        }
        for other in &others {
            let misses = cache.stats().misses;
            prop_assert_eq!(&*cache.histogram(other, "k").unwrap(), &reference);
            prop_assert_eq!(cache.stats().misses, misses + 1);
        }
    }
}
