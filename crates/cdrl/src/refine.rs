//! Post-training parameter refinement.
//!
//! After the CDRL policy has converged on a *compliant structure*, the paper's engine
//! still reports the operation parameters that "maximize the exploration utility" (§3,
//! Fig. 1d: the red parameters — the specific country and the group-by columns — are the
//! ones "discovered by the CDRL engine" to maximize `R_gen`). With the reproduction's
//! much smaller training budget the policy reliably learns the structure and the
//! operation kinds but may leave the *free* continuity parameters (the filter term, the
//! shared grouping column / aggregation) at a sub-optimal value it happened to sample.
//!
//! This module performs the same maximization deterministically and cheaply: a
//! coordinate-ascent search over the free parameters of the best compliant session that
//! keeps the session fully compliant (verified with the LDX engine) while maximizing the
//! generic exploration score. It is only ever applied to an already-compliant tree, so it
//! cannot turn a compliant session non-compliant, and it only *raises* the exploration
//! utility. This preserves the paper's semantics ("maximal-utility session in accordance
//! with the specifications") at a budget a laptop can afford. Documented in
//! `docs/DESIGN.md`.

use std::collections::BTreeSet;
use std::sync::Arc;

use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::{Column, DataFrame, StatsCache, Value};
use linx_explore::{ExplorationReward, ExplorationTree, NodeId, QueryOp, SessionExecutor};
use linx_ldx::VerifyEngine;

use crate::terms::TermInventory;

/// Refine the free parameters of a compliant session to maximize the generic exploration
/// score, keeping it compliant. Returns the input unchanged if it is not already
/// compliant or no improvement is found.
///
/// Candidates are scored through an op memo that lives for this call only, so the
/// views they share (every candidate of a round keeps most of the best tree's
/// operations) are computed once, and through `reward`'s statistics cache.
pub fn refine_session(
    tree: &ExplorationTree,
    dataset: &DataFrame,
    engine: &VerifyEngine,
    terms: &TermInventory,
    reward: &ExplorationReward,
) -> ExplorationTree {
    if tree.num_ops() == 0 || !engine.verify(tree) {
        return tree.clone();
    }
    let executor =
        SessionExecutor::new(dataset.clone()).with_stats(Arc::clone(reward.stats_cache()));
    let score = |t: &ExplorationTree| reward.session_score(&executor, t);

    let mut best = tree.clone();
    let mut best_score = score(&best);

    // Candidate value pools.
    let filter_attrs = filter_attributes(&best);
    let group_cols = groupable_columns(dataset, reward.stats_cache());
    let agg_choices = [
        AggFunc::Count,
        AggFunc::CountDistinct,
        AggFunc::Sum,
        AggFunc::Avg,
    ];

    // A few rounds of coordinate ascent (the search space is tiny; it converges fast).
    for _ in 0..3 {
        let round_start = best_score;

        // 1. Filter term, per attribute (all filters on an attribute share the term, so
        //    the eq/neq continuity pairing stays consistent).
        for attr in &filter_attrs {
            for term in terms.terms_for(attr) {
                let candidate = map_filter_terms(&best, attr, term);
                try_accept(candidate, engine, &score, &mut best, &mut best_score);
            }
        }

        // 2. Shared grouping column (all group-bys take the same column — the COL
        //    continuity variable).
        for col in &group_cols {
            let candidate = map_group_columns(&best, col);
            try_accept(candidate, engine, &score, &mut best, &mut best_score);
        }

        // 3. Shared aggregation function / aggregated attribute.
        for agg in agg_choices {
            for agg_attr in numeric_or_first(dataset, &group_cols) {
                let candidate = map_group_aggregations(&best, agg, &agg_attr);
                try_accept(candidate, engine, &score, &mut best, &mut best_score);
            }
        }

        if best_score <= round_start + 1e-9 {
            break;
        }
    }
    best
}

fn try_accept(
    candidate: ExplorationTree,
    engine: &VerifyEngine,
    score: &impl Fn(&ExplorationTree) -> f64,
    best: &mut ExplorationTree,
    best_score: &mut f64,
) {
    if engine.verify(&candidate) {
        let s = score(&candidate);
        if s > *best_score + 1e-9 {
            *best = candidate;
            *best_score = s;
        }
    }
}

/// The distinct attributes filtered on anywhere in the tree.
fn filter_attributes(tree: &ExplorationTree) -> Vec<String> {
    let mut set = BTreeSet::new();
    for (_, op) in tree.ops_in_order() {
        if let QueryOp::Filter { attr, .. } = op {
            set.insert(attr.clone());
        }
    }
    set.into_iter().collect()
}

/// Categorical columns suitable for grouping (2–15 distinct values), counted by the
/// root view's histograms in `stats`: the featurizer's summaries of the root view have
/// built them already, so no refinement hashes a column again.
fn groupable_columns(df: &DataFrame, stats: &StatsCache) -> Vec<String> {
    df.columns()
        .map(Column::name)
        .filter(|name| {
            let distinct = stats.histogram(df, name).map_or(0, |h| h.n_distinct());
            (2..=15).contains(&distinct)
        })
        .map(str::to_string)
        .collect()
}

/// Candidate aggregated attributes: the numeric columns (for sum/avg/min/max), falling
/// back to the first column so `count` always has a valid target.
fn numeric_or_first(df: &DataFrame, _group_cols: &[String]) -> Vec<String> {
    let mut out: Vec<String> = df
        .schema()
        .fields()
        .iter()
        .filter(|f| f.dtype.is_numeric())
        .map(|f| f.name.clone())
        .collect();
    if out.is_empty() {
        if let Some(name) = df.column_names().first() {
            out.push(name.to_string());
        }
    }
    out
}

/// Rebuild `tree`, applying `f` to every operation (preserving structure).
fn map_ops(tree: &ExplorationTree, f: impl Fn(&QueryOp) -> QueryOp) -> ExplorationTree {
    let mut out = ExplorationTree::new();
    let mut mapping = std::collections::HashMap::new();
    mapping.insert(NodeId::ROOT, NodeId::ROOT);
    for id in tree.pre_order() {
        if id == NodeId::ROOT {
            continue;
        }
        let parent = tree.parent(id).unwrap_or(NodeId::ROOT);
        let new_parent = *mapping.get(&parent).unwrap_or(&NodeId::ROOT);
        let op = tree.op(id).expect("non-root node has op");
        let new_id = out.add_child(new_parent, f(op));
        mapping.insert(id, new_id);
    }
    out
}

fn map_filter_terms(tree: &ExplorationTree, attr: &str, term: &Value) -> ExplorationTree {
    map_ops(tree, |op| match op {
        QueryOp::Filter {
            attr: a,
            op: o,
            term: t,
        } if a == attr => QueryOp::Filter {
            attr: a.clone(),
            op: *o,
            term: coerce_term(*o, term, t),
        },
        other => other.clone(),
    })
}

/// Keep the term's kind compatible with the operator: comparison ops need the original
/// term's numeric type; equality ops take the candidate as-is.
fn coerce_term(op: CompareOp, candidate: &Value, original: &Value) -> Value {
    match op {
        CompareOp::Eq | CompareOp::Neq | CompareOp::Contains | CompareOp::StartsWith => {
            candidate.clone()
        }
        _ => {
            // Numeric comparison: only substitute if the candidate is numeric.
            if candidate.as_f64().is_some() {
                candidate.clone()
            } else {
                original.clone()
            }
        }
    }
}

fn map_group_columns(tree: &ExplorationTree, col: &str) -> ExplorationTree {
    map_ops(tree, |op| match op {
        QueryOp::GroupBy { agg, agg_attr, .. } => QueryOp::GroupBy {
            g_attr: col.to_string(),
            agg: *agg,
            agg_attr: agg_attr.clone(),
        },
        other => other.clone(),
    })
}

fn map_group_aggregations(tree: &ExplorationTree, agg: AggFunc, agg_attr: &str) -> ExplorationTree {
    map_ops(tree, |op| match op {
        QueryOp::GroupBy { g_attr, .. } => QueryOp::GroupBy {
            g_attr: g_attr.clone(),
            agg,
            agg_attr: agg_attr.to_string(),
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_data::{generate, DatasetKind, ScaleConfig};
    use linx_ldx::parse_ldx;

    /// Reading the cached histograms' distinct counts chooses the columns that
    /// counting each column's distinct values with `Column::n_unique` chooses.
    #[test]
    fn groupable_columns_match_the_distinct_value_counts() {
        for kind in DatasetKind::ALL {
            let df = generate(
                kind,
                ScaleConfig {
                    rows: Some(2000),
                    seed: 0x11ac,
                },
            );
            let by_n_unique: Vec<String> = df
                .columns()
                .filter(|c| (2..=15).contains(&c.n_unique()))
                .map(|c| c.name().to_string())
                .collect();
            assert!(!by_n_unique.is_empty(), "{kind}");
            let stats = StatsCache::default();
            assert_eq!(groupable_columns(&df, &stats), by_n_unique, "{kind}");
        }
    }

    /// Netflix-like table where India's `type` distribution diverges sharply from the
    /// rest — the planted anomaly the refinement should discover.
    fn dataset() -> DataFrame {
        let mut rows = Vec::new();
        for _ in 0..60 {
            rows.push(vec![
                Value::str("India"),
                Value::str("Movie"),
                Value::Int(100),
            ]);
        }
        for _ in 0..4 {
            rows.push(vec![
                Value::str("India"),
                Value::str("TV Show"),
                Value::Int(3),
            ]);
        }
        for i in 0..80 {
            let t = if i % 2 == 0 { "Movie" } else { "TV Show" };
            rows.push(vec![Value::str("US"), Value::str(t), Value::Int(50)]);
        }
        for i in 0..40 {
            let t = if i % 2 == 0 { "Movie" } else { "TV Show" };
            rows.push(vec![Value::str("UK"), Value::str(t), Value::Int(50)]);
        }
        DataFrame::from_rows(&["country", "type", "duration"], rows).unwrap()
    }

    fn gold() -> linx_ldx::Ldx {
        parse_ldx(
            "ROOT CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap()
    }

    /// A compliant session that picked a bland country (UK) instead of the anomaly.
    fn bland_session() -> ExplorationTree {
        let mut t = ExplorationTree::new();
        let f1 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("UK")),
        );
        t.add_child(f1, QueryOp::group_by("type", AggFunc::Count, "duration"));
        let f2 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("UK")),
        );
        t.add_child(f2, QueryOp::group_by("type", AggFunc::Count, "duration"));
        t
    }

    #[test]
    fn refinement_raises_utility_and_stays_compliant() {
        let data = dataset();
        let engine = VerifyEngine::new(gold());
        let terms = TermInventory::build(&data, 12, &StatsCache::default());
        let reward = ExplorationReward::default();
        // Start from a deliberately low-utility (but compliant) choice: both group-bys on
        // an identifier-like column (duration) under a bland filter. Refinement should
        // move to a higher-utility configuration while preserving compliance.
        let mut weak = ExplorationTree::new();
        let f1 = weak.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("UK")),
        );
        weak.add_child(
            f1,
            QueryOp::group_by("duration", AggFunc::Count, "duration"),
        );
        let f2 = weak.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("UK")),
        );
        weak.add_child(
            f2,
            QueryOp::group_by("duration", AggFunc::Count, "duration"),
        );
        assert!(engine.verify(&weak));

        let refined = refine_session(&weak, &data, &engine, &terms, &reward);
        assert!(
            engine.verify(&refined),
            "refined session must stay compliant"
        );

        let exec = SessionExecutor::new(data.clone());
        // Refinement moved the group-by off the identifier-like `duration` column onto a
        // lower-cardinality categorical one, strictly raising utility.
        assert!(
            reward.session_score(&exec, &refined) > reward.session_score(&exec, &weak),
            "refinement should raise the exploration utility above the weak start"
        );
        // The structure is unchanged (two filters, each with a group-by child).
        assert_eq!(refined.num_ops(), weak.num_ops());
    }

    #[test]
    fn refinement_leaves_non_compliant_sessions_untouched() {
        let data = dataset();
        let engine = VerifyEngine::new(gold());
        let terms = TermInventory::build(&data, 12, &StatsCache::default());
        let reward = ExplorationReward::default();
        // A lone group-by is not compliant with the two-filter structure.
        let mut t = ExplorationTree::new();
        t.add_child(
            NodeId::ROOT,
            QueryOp::group_by("type", AggFunc::Count, "duration"),
        );
        let refined = refine_session(&t, &data, &engine, &terms, &reward);
        assert_eq!(refined.to_compact_string(), t.to_compact_string());
    }

    #[test]
    fn refinement_preserves_eq_neq_continuity() {
        let data = dataset();
        let engine = VerifyEngine::new(gold());
        let terms = TermInventory::build(&data, 12, &StatsCache::default());
        let reward = ExplorationReward::default();
        let refined = refine_session(&bland_session(), &data, &engine, &terms, &reward);
        // Both filters must use the SAME term (the X continuity variable).
        let terms_used: Vec<String> = refined
            .ops_in_order()
            .iter()
            .filter_map(|(_, op)| match op {
                QueryOp::Filter { term, .. } => Some(term.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(terms_used.len(), 2);
        assert_eq!(terms_used[0], terms_used[1]);
    }

    #[test]
    fn empty_session_is_returned_unchanged() {
        let data = dataset();
        let engine = VerifyEngine::new(gold());
        let terms = TermInventory::build(&data, 12, &StatsCache::default());
        let reward = ExplorationReward::default();
        let refined = refine_session(&ExplorationTree::new(), &data, &engine, &terms, &reward);
        assert_eq!(refined.num_ops(), 0);
    }
}
