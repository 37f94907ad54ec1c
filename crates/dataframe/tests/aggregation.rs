//! Correctness tests for the group-and-aggregate operator across all aggregation
//! functions, including null handling and group-order determinism. These complement the
//! property tests (sum/count conservation) with exact small-input checks.

use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::groupby::{AggFunc, Groups};
use linx_dataframe::{Column, DataFrame, DataFrameError, Value};
use proptest::prelude::*;

fn frame() -> DataFrame {
    DataFrame::from_rows(
        &["team", "points"],
        vec![
            vec![Value::str("A"), Value::Int(10)],
            vec![Value::str("A"), Value::Int(30)],
            vec![Value::str("A"), Value::Null],
            vec![Value::str("B"), Value::Int(5)],
            vec![Value::str("B"), Value::Int(5)],
        ],
    )
    .unwrap()
}

/// Look up a group's aggregate value by key in a two-column aggregate view.
fn agg_of(view: &DataFrame, key: &str) -> Value {
    for i in 0..view.num_rows() {
        let row = view.row(i);
        if row[0].as_str() == Some(key) {
            return row[1].clone();
        }
    }
    Value::Null
}

#[test]
fn count_includes_null_valued_rows() {
    let v = frame().group_by("team", AggFunc::Count, "points").unwrap();
    assert_eq!(agg_of(&v, "A"), Value::Int(3)); // includes the null-points row
    assert_eq!(agg_of(&v, "B"), Value::Int(2));
}

#[test]
fn sum_skips_nulls() {
    let v = frame().group_by("team", AggFunc::Sum, "points").unwrap();
    assert_eq!(agg_of(&v, "A").as_f64(), Some(40.0));
    assert_eq!(agg_of(&v, "B").as_f64(), Some(10.0));
}

#[test]
fn avg_is_over_non_null_values_only() {
    let v = frame().group_by("team", AggFunc::Avg, "points").unwrap();
    assert_eq!(agg_of(&v, "A").as_f64(), Some(20.0)); // (10+30)/2, null excluded
    assert_eq!(agg_of(&v, "B").as_f64(), Some(5.0));
}

#[test]
fn min_and_max_ignore_nulls() {
    let mn = frame().group_by("team", AggFunc::Min, "points").unwrap();
    let mx = frame().group_by("team", AggFunc::Max, "points").unwrap();
    assert_eq!(agg_of(&mn, "A").as_i64(), Some(10));
    assert_eq!(agg_of(&mx, "A").as_i64(), Some(30));
    assert_eq!(agg_of(&mn, "B").as_i64(), Some(5));
}

#[test]
fn count_distinct_counts_unique_non_null_values() {
    let v = frame()
        .group_by("team", AggFunc::CountDistinct, "points")
        .unwrap();
    assert_eq!(agg_of(&v, "A"), Value::Int(2)); // {10, 30}
    assert_eq!(agg_of(&v, "B"), Value::Int(1)); // {5}
}

#[test]
fn groups_preserve_first_occurrence_order() {
    // Team A occurs first, so it must be the first group row — deterministic ordering.
    let v = frame().group_by("team", AggFunc::Count, "points").unwrap();
    assert_eq!(v.row(0)[0].as_str(), Some("A"));
    assert_eq!(v.row(1)[0].as_str(), Some("B"));
}

#[test]
fn aggregation_after_filter_operates_on_the_subset() {
    let subset = frame()
        .filter(&Predicate::new("team", CompareOp::Eq, Value::str("A")))
        .unwrap();
    let v = subset.group_by("team", AggFunc::Sum, "points").unwrap();
    assert_eq!(v.num_rows(), 1);
    assert_eq!(agg_of(&v, "A").as_f64(), Some(40.0));
}

#[test]
fn aggregation_functions_round_trip_their_tokens() {
    for f in AggFunc::ALL {
        assert_eq!(AggFunc::parse(f.token()), Some(f));
    }
    assert_eq!(AggFunc::parse("COUNT"), Some(AggFunc::Count));
    assert_eq!(AggFunc::parse("nonsense"), None);
}

/// One generated row: an integer, a float (`-0.0` and `0.0`, and infinities whose sums
/// are NaN, among them), a string and a mixed cell, each possibly null; then the
/// row's filter flag and a key that draws its near-unique cells.
type Row = ((Value, Value, Value, Value), i64, u64);

fn row_strategy() -> impl Strategy<Value = Row> {
    let int = prop_oneof![
        4 => (-4i64..5).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let float = prop_oneof![
        4 => (-4i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        1 => Just(Value::Float(-0.0)),
        1 => prop::sample::select(vec![f64::INFINITY, f64::NEG_INFINITY]).prop_map(Value::Float),
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
    ((int, float, string, mixed), 0i64..4, any::<u64>())
}

/// A frame over `rows` with every storage kind, each with nulls: `i` (`I64`), `f`
/// (`F64`), `s` (`Dict`), `m` (mixed cells, `Mixed` unless they happen to share one
/// type), `bf` (the float cells boxed, always `Mixed`), near-unique `ui` and `us`, and
/// the null-free `flag`.
fn frame_of(rows: &[Row]) -> DataFrame {
    let cells = |c: usize| -> Vec<Value> {
        rows.iter()
            .map(|((i, f, s, m), _, _)| [i, f, s, m][c].clone())
            .collect()
    };
    let unique = |text: bool| -> Vec<Value> {
        rows.iter()
            .map(|&(_, _, key)| match key % 13 {
                0 => Value::Null,
                _ if text => Value::str(format!("u{}", key % 997)),
                _ => Value::Int((key % 997) as i64 - 498),
            })
            .collect()
    };
    DataFrame::new(vec![
        Column::new("i", cells(0)),
        Column::new("f", cells(1)),
        Column::new("s", cells(2)),
        Column::new("m", cells(3)),
        Column::new_uncompacted("bf", cells(1)),
        Column::new("ui", unique(false)),
        Column::new("us", unique(true)),
        Column::new("flag", rows.iter().map(|r| Value::Int(r.1)).collect()),
    ])
    .unwrap()
}

/// The boxed reference of [`DataFrame::group_by`]: `Groups::from_values` over the
/// visible cells, `AggFunc::apply` per group, and `Column::new` for both outputs.
fn reference_group_by(
    df: &DataFrame,
    g_attr: &str,
    agg: AggFunc,
    agg_attr: &str,
) -> linx_dataframe::Result<DataFrame> {
    let cells = |name: &str| -> linx_dataframe::Result<Vec<Value>> {
        Ok(df.column(name)?.cells().map(|c| c.to_value()).collect())
    };
    let (keys, values) = (cells(g_attr)?, cells(agg_attr)?);
    if agg.requires_numeric() && !df.column(agg_attr)?.dtype().is_numeric() {
        return Err(DataFrameError::NotNumeric(agg_attr.to_string()));
    }
    let groups = Groups::from_values(&keys);
    let aggregates = groups
        .indices
        .iter()
        .map(|rows| agg.apply(&rows.iter().map(|&r| &values[r]).collect::<Vec<_>>()))
        .collect();
    DataFrame::new(vec![
        Column::new(g_attr, groups.keys),
        Column::new(format!("{}({agg_attr})", agg.token()), aggregates),
    ])
}

/// Everything two answers must share: names, dtypes, storage (variant, typed
/// vectors, dictionary order, null mask), every cell by key identity (which tells
/// `-0.0` from `0.0` and `Int(1)` from `Float(1.0)`), and the fingerprint.
fn same_answer(got: &DataFrame, want: &DataFrame) -> Result<(), String> {
    if got.column_names() != want.column_names() {
        return Err(format!(
            "names {:?} != {:?}",
            got.column_names(),
            want.column_names()
        ));
    }
    for (a, b) in got.columns().zip(want.columns()) {
        let storage = |c: &Column| format!("{:?} {:?}", c.data(), c.null_mask());
        if a.dtype() != b.dtype() || a.data().variant_name() != b.data().variant_name() {
            return Err(format!(
                "{}: {} {} != {} {}",
                a.name(),
                a.dtype(),
                a.data().variant_name(),
                b.dtype(),
                b.data().variant_name()
            ));
        }
        if storage(a) != storage(b) {
            return Err(format!(
                "{}: storage {} != {}",
                a.name(),
                storage(a),
                storage(b)
            ));
        }
        if a.len() != b.len()
            || a.cells()
                .zip(b.cells())
                .any(|(x, y)| x.group_key() != y.group_key())
        {
            return Err(format!("{}: cells differ", a.name()));
        }
    }
    if got.fingerprint() != want.fingerprint() {
        return Err("fingerprints differ".to_string());
    }
    Ok(())
}

proptest! {
    /// `group_by` gives its boxed reference's answer, bit for bit, for every function
    /// and every pair of key and value columns over all four storage kinds, on the
    /// frame, a filter view, a view of that view, the view materialized (its
    /// dictionaries keep strings no row uses), an empty view and views whose keys are
    /// all null.
    #[test]
    fn group_by_matches_the_boxed_reference(rows in prop::collection::vec(row_strategy(), 0..48)) {
        let frame = frame_of(&rows);
        let flag = |op, v| Predicate::new("flag", op, Value::Int(v));
        let view = frame.filter(&flag(CompareOp::Neq, 0)).unwrap();
        let nested = view.filter(&flag(CompareOp::Neq, 1)).unwrap();
        let mut frames = vec![
            ("frame", frame.clone()),
            ("materialized view", view.materialize()),
            ("view", view),
            ("view of a view", nested),
            ("empty view", frame.filter(&flag(CompareOp::Eq, 9)).unwrap()),
        ];
        for key in ["i", "f", "s", "ui"] {
            let nulls = frame.filter(&Predicate::new(key, CompareOp::Eq, Value::Null)).unwrap();
            frames.push(("null keys", nulls));
        }
        let names = ["i", "f", "s", "m", "bf", "ui", "us", "flag"];
        for (what, df) in &frames {
            for g in names {
                for a in names {
                    for agg in AggFunc::ALL {
                        let context = format!("{what}: group_by({g}, {agg}, {a})");
                        match (df.group_by(g, agg, a), reference_group_by(df, g, agg, a)) {
                            (Ok(got), Ok(want)) => {
                                if let Err(diff) = same_answer(&got, &want) {
                                    prop_assert!(false, "{context}: {diff}");
                                }
                            }
                            (got, want) => {
                                let (got, want) = (format!("{:?}", got.err()), format!("{:?}", want.err()));
                                prop_assert!(got == want, "{context}: {got} != {want}");
                            }
                        }
                    }
                }
            }
        }
    }
}
