//! Property-based tests for the dataframe engine invariants.

use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::stats::Histogram;
use linx_dataframe::{Column, DataFrame, StatsCache, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-50i64..50).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Value::str),
        1 => Just(Value::Null),
    ]
}

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    prop::collection::vec((value_strategy(), value_strategy()), 1..60).prop_map(|rows| {
        DataFrame::from_rows(
            &["k", "v"],
            rows.into_iter().map(|(a, b)| vec![a, b]).collect(),
        )
        .unwrap()
    })
}

/// One row of four columns, one per storage kind, each with nulls: integers, floats
/// (`-0.0` and `0.0` among them), strings, and a mixed column whose `Int(1)`,
/// `Float(1.0)`, `Str("1")` and `Bool(true)` are four distinct keys. Then a filter
/// flag and a key that orders a row permutation.
type TypedRow = ((Value, Value, Value, Value), bool, u64);

fn typed_row_strategy() -> impl Strategy<Value = TypedRow> {
    let int = prop_oneof![
        4 => (-4i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let float = prop_oneof![
        4 => (-4i64..5).prop_map(|i| Value::float(i as f64 / 2.0)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Null),
    ];
    let string = prop_oneof![
        4 => prop::sample::select(vec!["a", "b", "c", "d", "e", "f"]).prop_map(Value::str),
        1 => Just(Value::Null),
    ];
    let mixed = prop_oneof![
        2 => (0i64..3).prop_map(Value::Int),
        2 => (0i64..3).prop_map(|i| Value::Float(i as f64)),
        1 => Just(Value::Float(-0.0)),
        1 => prop::sample::select(vec!["0", "1", "x"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ];
    ((int, float, string, mixed), any::<bool>(), any::<u64>())
}

/// Column `c` (0–3) of `rows`, only the flagged rows when `flagged_only`.
fn typed_cells(rows: &[TypedRow], c: usize, flagged_only: bool) -> Vec<Value> {
    rows.iter()
        .filter(|r| r.1 || !flagged_only)
        .map(|((i, f, s, m), _, _)| [i, f, s, m][c].clone())
        .collect()
}

/// Column `c` (0–5) of `rows`: the four storage kinds of [`typed_cells`], then a
/// near-unique integer column and a near-unique string column, both with nulls,
/// drawn from each row's permutation key.
fn shared_cells(rows: &[TypedRow], c: usize) -> Vec<Value> {
    if c < 4 {
        return typed_cells(rows, c, false);
    }
    rows.iter()
        .map(|&(_, _, key)| match (key % 13, c) {
            (0, _) => Value::Null,
            (_, 4) => Value::Int((key % 997) as i64 - 498),
            _ => Value::str(format!("u{}", key % 997)),
        })
        .collect()
}

/// `KL(child || parent)` from per-key [`Histogram::count`] lookups, in `child`'s key
/// order: the reference every divergence path must match bit for bit.
fn per_key_kl(child: &Histogram, parent: &Histogram) -> f64 {
    let freq = |h: &Histogram, v: &Value| h.count(v) as f64 / h.total().max(1) as f64;
    let mut kl = 0.0;
    for (v, _) in child.iter() {
        let p = freq(child, v);
        let q = freq(parent, v).max(1e-9);
        kl += p * (p / q).ln();
    }
    if child.total() == 0 {
        0.0
    } else {
        kl.max(0.0)
    }
}

/// Total variation from per-key lookups over the union of both key sets.
fn per_key_tv(a: &Histogram, b: &Histogram) -> f64 {
    let freq = |h: &Histogram, v: &Value| h.count(v) as f64 / h.total().max(1) as f64;
    let mut l1 = 0.0;
    for (v, _) in a.iter() {
        l1 += (freq(a, v) - freq(b, v)).abs();
    }
    for (v, _) in b.iter().filter(|(v, _)| a.count(v) == 0) {
        l1 += freq(b, v);
    }
    (l1 / 2.0).clamp(0.0, 1.0)
}

/// The bits of every reward statistic of a filtered `child` measured against its
/// `parent`.
fn stat_bits(child: &Histogram, parent: &Histogram) -> [u64; 7] {
    [
        child.entropy(),
        child.normalized_entropy(),
        parent.entropy(),
        parent.normalized_entropy(),
        child.kl_divergence(parent),
        parent.kl_divergence(child),
        child.total_variation(parent),
    ]
    .map(f64::to_bits)
}

/// Histograms key by identity: `Int(1)` and `Float(1.0)` (equal as `Value`s) and
/// `-0.0` and `0.0` stay distinct entries, through both construction paths.
#[test]
fn histogram_keys_stay_distinct_across_numeric_types() {
    let of = |v: Value| Histogram::from_values(&[v]);
    assert_ne!(of(Value::Int(1)), of(Value::Float(1.0)));
    assert_ne!(of(Value::Float(-0.0)), of(Value::Float(0.0)));
    assert_eq!(of(Value::Int(1)).count(&Value::Float(1.0)), 0);
    let col = |v: Value| Histogram::from_column(&Column::new("c", vec![v]));
    assert_ne!(col(Value::Int(1)), col(Value::Float(1.0)));
    let mixed = Histogram::from_values(&[Value::Int(1), Value::Float(1.0), Value::str("1")]);
    assert_eq!(mixed.n_distinct(), 3);
    assert_eq!(mixed.count(&Value::Int(1)), 1);
}

proptest! {
    /// Filtering with Eq and Neq on the same term partitions the rows exactly
    /// (every row satisfies exactly one of the two predicates).
    #[test]
    fn filter_eq_neq_partitions(df in frame_strategy(), term in value_strategy()) {
        let eq = df.filter(&Predicate::new("k", CompareOp::Eq, term.clone())).unwrap();
        let neq = df.filter(&Predicate::new("k", CompareOp::Neq, term)).unwrap();
        prop_assert_eq!(eq.num_rows() + neq.num_rows(), df.num_rows());
    }

    /// Filtering never invents rows and is idempotent.
    #[test]
    fn filter_is_monotone_and_idempotent(df in frame_strategy(), term in value_strategy()) {
        let pred = Predicate::new("k", CompareOp::Eq, term);
        let once = df.filter(&pred).unwrap();
        prop_assert!(once.num_rows() <= df.num_rows());
        let twice = once.filter(&pred).unwrap();
        prop_assert_eq!(twice.num_rows(), once.num_rows());
    }

    /// Group-by COUNT totals equal the number of input rows, and the number of groups
    /// equals the number of distinct key values (including null as its own group).
    #[test]
    fn group_by_count_conserves_rows(df in frame_strategy()) {
        let agg = df.group_by("k", AggFunc::Count, "v").unwrap();
        let total: i64 = (0..agg.num_rows())
            .map(|i| agg.row(i)[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, df.num_rows());
    }

    /// SUM aggregated per group and then summed equals the column-wide sum.
    #[test]
    fn group_by_sum_matches_total_sum(df in frame_strategy()) {
        // v may be a mixed column; SUM skips non-numeric cells in both paths.
        let agg = df.group_by("k", AggFunc::Sum, "v");
        prop_assume!(agg.is_ok());
        let agg = agg.unwrap();
        let group_total: f64 = (0..agg.num_rows())
            .map(|i| agg.row(i)[1].as_f64().unwrap_or(0.0))
            .sum();
        let direct: f64 = df.column("v").unwrap().sum();
        prop_assert!((group_total - direct).abs() < 1e-6);
    }

    /// Histogram frequencies sum to 1 for non-empty columns, entropy is non-negative,
    /// and self-KL-divergence is zero.
    #[test]
    fn histogram_axioms(df in frame_strategy()) {
        let h = df.histogram("k").unwrap();
        if h.total() > 0 {
            let sum: f64 = h.iter().map(|(v, _)| h.freq(v)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        prop_assert!(h.entropy() >= 0.0);
        prop_assert!(h.kl_divergence(&h) < 1e-9);
        prop_assert!(h.total_variation(&h) < 1e-9);
    }

    /// Total variation distance is symmetric and bounded by 1.
    #[test]
    fn total_variation_symmetric(a in prop::collection::vec(value_strategy(), 0..40),
                                 b in prop::collection::vec(value_strategy(), 0..40)) {
        let ha = Histogram::from_values(&a);
        let hb = Histogram::from_values(&b);
        let d1 = ha.total_variation(&hb);
        let d2 = hb.total_variation(&ha);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d1));
    }

    /// The merge-joined divergences agree with per-key lookups: KL bit for bit (same
    /// terms, same key order), TV to rounding.
    ///
    /// Both for independent histograms and for pairs over one storage: a filter view
    /// against its parent frame, for every storage kind with nulls and for
    /// near-unique columns, built directly and through a [`StatsCache`], in both
    /// directions (parent against child reaches the smoothing branch for keys the
    /// child lacks). Small domains repeat `(child count, parent count)` pairs within
    /// one call.
    #[test]
    fn divergences_match_per_key_lookups(
        child in prop::collection::vec(value_strategy(), 0..40),
        parent in prop::collection::vec(value_strategy(), 0..40),
        rows in prop::collection::vec(typed_row_strategy(), 0..60),
    ) {
        let (hc, hp) = (Histogram::from_values(&child), Histogram::from_values(&parent));
        prop_assert_eq!(hc.kl_divergence(&hp).to_bits(), per_key_kl(&hc, &hp).to_bits());
        prop_assert!((hc.total_variation(&hp) - per_key_tv(&hc, &hp)).abs() < 1e-12);

        let flags: Vec<Value> = rows.iter().map(|r| Value::Int(i64::from(r.1))).collect();
        for c in 0..6 {
            let frame = DataFrame::new(vec![
                Column::new("x", shared_cells(&rows, c)),
                Column::new("flag", flags.clone()),
            ])
            .unwrap();
            let view = frame
                .filter(&Predicate::new("flag", CompareOp::Eq, Value::Int(1)))
                .unwrap();
            let cache = StatsCache::default();
            let direct = (view.histogram("x").unwrap(), frame.histogram("x").unwrap());
            let cached = (cache.histogram(&view, "x").unwrap(), cache.histogram(&frame, "x").unwrap());
            for (child, parent) in [(&direct.0, &direct.1), (&*cached.0, &*cached.1)] {
                for (a, b) in [(child, parent), (parent, child)] {
                    let (kl, reference) = (a.kl_divergence(b), per_key_kl(a, b));
                    prop_assert!(
                        kl.to_bits() == reference.to_bits(),
                        "column {c}: KL {kl:?} != per-key {reference:?}"
                    );
                    prop_assert!((a.total_variation(b) - per_key_tv(a, b)).abs() < 1e-12);
                }
            }
        }
    }

    /// Entropy, normalized entropy, KL and TV are functions of a column's content
    /// alone: the same bits under any permutation of the rows, for compacted and
    /// uncompacted storage, and for a filter view, its `materialize()` and a column
    /// rebuilt from its cells (whose dictionary follows the subset's own order).
    #[test]
    fn statistics_depend_on_content_only(
        rows in prop::collection::vec(typed_row_strategy(), 0..60),
    ) {
        let mut permuted = rows.clone();
        permuted.sort_by_key(|r| r.2);
        let flags: Vec<Value> = rows.iter().map(|r| Value::Int(i64::from(r.1))).collect();
        for c in 0..4 {
            let hist = |values: Vec<Value>| Histogram::from_column(&Column::new("x", values));
            let reference = stat_bits(
                &hist(typed_cells(&rows, c, true)),
                &hist(typed_cells(&rows, c, false)),
            );

            let shuffled = stat_bits(
                &hist(typed_cells(&permuted, c, true)),
                &hist(typed_cells(&permuted, c, false)),
            );
            prop_assert!(shuffled == reference, "permuted rows, column {c}: {shuffled:?} != {reference:?}");

            let boxed = |values: Vec<Value>| {
                Histogram::from_column(&Column::new_uncompacted("x", values))
            };
            let uncompacted = stat_bits(
                &boxed(typed_cells(&rows, c, true)),
                &boxed(typed_cells(&rows, c, false)),
            );
            prop_assert!(
                uncompacted == reference,
                "uncompacted, column {c}: {uncompacted:?} != {reference:?}"
            );

            let frame = DataFrame::new(vec![
                Column::new("x", typed_cells(&rows, c, false)),
                Column::new("flag", flags.clone()),
            ])
            .unwrap();
            let view = frame
                .filter(&Predicate::new("flag", CompareOp::Eq, Value::Int(1)))
                .unwrap();
            let parent = frame.histogram("x").unwrap();
            for (what, child) in [
                ("filter view", view.histogram("x").unwrap()),
                ("materialized view", view.materialize().histogram("x").unwrap()),
            ] {
                let bits = stat_bits(&child, &parent);
                prop_assert!(bits == reference, "{what}, column {c}: {bits:?} != {reference:?}");
            }
        }
    }

    /// CSV serialization round-trips row counts and cell display values.
    #[test]
    fn csv_round_trip(df in frame_strategy()) {
        let text = linx_dataframe::csv::to_csv(&df, ',');
        let back = linx_dataframe::csv::parse_csv(&text, Default::default()).unwrap();
        prop_assert_eq!(back.num_rows(), df.num_rows());
        prop_assert_eq!(back.num_columns(), df.num_columns());
    }

    /// take() preserves requested row order and content.
    #[test]
    fn take_preserves_rows(df in frame_strategy()) {
        let n = df.num_rows();
        prop_assume!(n >= 2);
        let idx = vec![n - 1, 0];
        let taken = df.take(&idx);
        prop_assert_eq!(taken.num_rows(), 2);
        prop_assert_eq!(taken.row(0), df.row(n - 1));
        prop_assert_eq!(taken.row(1), df.row(0));
    }
}
