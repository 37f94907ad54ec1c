//! The request stand-in both overhead guards in `benches/` wrap: a 20-op
//! filter/group view chain over a 6k-row Netflix frame. A guard times it bare and
//! wrapped in the layer it prices, so the ratio is that layer's overhead.

use std::time::Instant;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::filter::{CompareOp, Predicate};
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::{DataFrame, Value};

/// Number of query operations in the chain.
pub const TREE_OPS: usize = 20;
/// Dataset size: large enough that real query work dominates fixed op overhead.
pub const ROWS: usize = 6_000;

/// One step of the chain: a row-subsetting filter or a group-and-aggregate leaf.
pub enum Step {
    /// Filter the running view and continue from the result.
    Filter(Predicate),
    /// Group-and-aggregate the running view: (group column, aggregation, aggregated column).
    Group(&'static str, AggFunc, &'static str),
}

/// 16 gently narrowing filters with a group-by after every fourth — 20 ops total.
pub fn chain() -> Vec<Step> {
    let filters = [
        Predicate::new("release_year", CompareOp::Ge, Value::Int(1999)),
        Predicate::new("duration", CompareOp::Ge, Value::Int(1)),
        Predicate::new("country", CompareOp::Neq, Value::str("Japan")),
        Predicate::new("rating", CompareOp::Neq, Value::str("NC-17")),
        Predicate::new("release_year", CompareOp::Le, Value::Int(2021)),
        Predicate::new("cast_size", CompareOp::Ge, Value::Int(3)),
        Predicate::new("date_added_year", CompareOp::Ge, Value::Int(1999)),
        Predicate::new("genre", CompareOp::Neq, Value::str("Stand-Up")),
        Predicate::new("type", CompareOp::Neq, Value::str("Documentary")),
        Predicate::new("duration", CompareOp::Le, Value::Int(200)),
        Predicate::new("country", CompareOp::Neq, Value::str("Mexico")),
        Predicate::new("rating", CompareOp::Neq, Value::str("G")),
        Predicate::new("release_year", CompareOp::Ge, Value::Int(2000)),
        Predicate::new("cast_size", CompareOp::Le, Value::Int(24)),
        Predicate::new("date_added_year", CompareOp::Le, Value::Int(2021)),
        Predicate::new("title", CompareOp::Neq, Value::str("Title 0")),
    ];
    let groups = [
        ("country", AggFunc::Count, "show_id"),
        ("rating", AggFunc::Count, "show_id"),
        ("type", AggFunc::Avg, "duration"),
        ("genre", AggFunc::Count, "show_id"),
    ];
    let mut steps = Vec::with_capacity(TREE_OPS);
    let mut g = groups.iter();
    for (i, pred) in filters.iter().enumerate() {
        steps.push(Step::Filter(pred.clone()));
        if (i + 1) % 4 == 0 {
            let (ga, agg, aa) = g.next().expect("four group steps");
            steps.push(Step::Group(ga, *agg, aa));
        }
    }
    assert_eq!(steps.len(), TREE_OPS);
    steps
}

/// The frame the chain runs over.
pub fn dataset() -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(ROWS),
            seed: 11,
        },
    )
}

/// The raw request payload: execute the chain, return a shape checksum.
pub fn run_chain(df: &DataFrame, steps: &[Step]) -> u64 {
    let mut view = df.clone();
    let mut checksum = 0u64;
    for step in steps {
        match step {
            Step::Filter(pred) => {
                view = view.filter(pred).expect("benchmark filters are valid");
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(view.num_rows() as u64);
            }
            Step::Group(g_attr, agg, agg_attr) => {
                let out = view
                    .group_by(g_attr, *agg, agg_attr)
                    .expect("benchmark group-bys are valid");
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(out.num_rows() as u64);
            }
        }
    }
    checksum
}

/// Median wall-clock microseconds of `runs` invocations of `f`.
pub fn median_micros(runs: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}
