//! Property-based tests for the exploration-tree model and session execution: pre-order
//! traversal invariants, parent/child consistency, that executing a session never
//! invents rows (every view is a subset-or-aggregate of its parent), and that the one
//! execution and scoring path matches a reference over random sessions on generated
//! benchmark data: memoized views equal `execute_op` on the parent view, and a cold, a
//! warm, a zero-budget and a shared `StatsCache` give the bits of a reference that
//! builds histograms and group sizes straight from the frames.

use std::collections::HashMap;
use std::sync::Arc;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::stats::{conciseness, Histogram};
use linx_dataframe::{DataFrame, StatsCache, Value};
use linx_explore::{
    ExplorationReward, ExplorationTree, NodeId, OpKind, OpMemo, QueryOp, RewardWeights,
    SessionExecutor,
};
use proptest::prelude::*;

/// A script of tree-building actions: add a filter/group-by, or go back.
#[derive(Debug, Clone)]
enum Step {
    Filter(&'static str),
    Group(&'static str),
    Back,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => prop::sample::select(vec!["A", "B", "C"]).prop_map(Step::Filter),
        3 => prop::sample::select(vec!["k", "v"]).prop_map(Step::Group),
        1 => Just(Step::Back),
    ]
}

fn build(steps: &[Step]) -> ExplorationTree {
    let mut t = ExplorationTree::new();
    for s in steps {
        match s {
            Step::Filter(term) => {
                t.push_op(QueryOp::filter("k", CompareOp::Eq, Value::str(*term)));
            }
            Step::Group(attr) => {
                t.push_op(QueryOp::group_by(*attr, AggFunc::Count, "v"));
            }
            Step::Back => {
                t.back();
            }
        }
    }
    t
}

fn dataset() -> DataFrame {
    let mut rows = Vec::new();
    for i in 0..60 {
        let k = ["A", "B", "C"][i % 3];
        rows.push(vec![Value::str(k), Value::Int((i % 7) as i64)]);
    }
    DataFrame::from_rows(&["k", "v"], rows).unwrap()
}

type Views = HashMap<NodeId, DataFrame>;

/// A step `(kind, a, b, c)` of a [`session`] script, drawn as plain indices.
type RawStep = (u8, usize, usize, usize);

/// Interestingness bits and primary histogram of each op that has a view and a parent
/// view, in session order, then the session score's bits.
type Scores = (Vec<u64>, Vec<Histogram>, u64);

/// The session `steps` build over `data`. A step `(kind, a, b, c)` filters for kinds
/// 0–3, groups for 4–5 and goes back otherwise; `a`, `b` and `c` pick, modulo their
/// counts, among the current view's columns, the operators or aggregates, and its
/// cells or columns. `shift` moves every filter term to another cell, as refinement's
/// candidates do. An op the view rejects stays as a failed leaf. Returns the tree and
/// each valid node's view from `execute_op` on its parent's view.
fn session(data: &DataFrame, steps: &[RawStep], shift: usize) -> (ExplorationTree, Views) {
    let exec = SessionExecutor::new(data.clone());
    let mut tree = ExplorationTree::new();
    let mut views = Views::from([(NodeId::ROOT, data.clone())]);
    for &(kind, a, b, c) in steps {
        let view = views[&tree.current()].clone();
        let names = view.column_names();
        let name = |i: usize| names[i % names.len()];
        let op = match kind {
            0..=3 => {
                let cell = view.value((c + shift) % view.num_rows().max(1), name(a));
                QueryOp::filter(name(a), CompareOp::ALL[b % 8], cell.unwrap_or(Value::Null))
            }
            4 | 5 => QueryOp::group_by(name(a), AggFunc::ALL[b % 6], name(c)),
            _ => {
                tree.back();
                continue;
            }
        };
        let result = exec.execute_op(&view, &op);
        let id = tree.push_op(op);
        if let Ok(result) = result {
            views.insert(id, result);
        } else {
            tree.back();
        }
    }
    (tree, views)
}

/// The reward's formulas over `views`, with every statistic built straight from the
/// frames and every sum taken in session order.
fn reference(tree: &ExplorationTree, views: &Views, w: RewardWeights) -> Scores {
    let (mut interest, mut primary) = (Vec::new(), Vec::<Histogram>::new());
    let (mut interest_sum, mut diversity_sum) = (0.0, 0.0);
    for (id, op) in tree.ops_in_order() {
        let (Some(input), Some(output)) = (views.get(&tree.parent(id).unwrap()), views.get(&id))
        else {
            continue;
        };
        let i = match op {
            QueryOp::Filter { attr, .. } if input.num_rows() > 0 && output.num_rows() > 0 => {
                let coverage = output.num_rows() as f64 / input.num_rows() as f64;
                let factor = match coverage {
                    c if c > 0.95 => 0.1,
                    c if c < 0.005 => 0.2,
                    _ => 1.0,
                };
                let divergences: Vec<f64> = (input.column_names().into_iter())
                    .filter(|c| c != attr)
                    .filter_map(|c| Some((input.histogram(c).ok()?, output.histogram(c).ok()?)))
                    .filter(|(parent, _)| parent.n_distinct() > 0)
                    .map(|(parent, child)| child.kl_divergence(&parent).min(3.0) / 3.0)
                    .collect();
                let sum = divergences.iter().fold(0.0, |s, d| s + d);
                (sum / divergences.len().max(1) as f64 * factor).clamp(0.0, 1.0)
            }
            QueryOp::GroupBy { g_attr, .. } if input.num_rows() > 0 => input
                .groups(g_attr)
                .map_or(0.0, |g| conciseness(&g.sizes(), w.max_groups)),
            _ => 0.0,
        };
        // The primary column: the op's attribute if the view kept it, else the first.
        let column = Some(op.primary_attr()).filter(|c| output.column(c).is_ok());
        let column = column.or_else(|| output.column_names().first().copied());
        let hist = column.and_then(|c| output.histogram(c).ok());
        let hist = hist.unwrap_or_default();
        // Diversity: the least total-variation distance to an earlier node (1 for the first).
        let distances = primary.iter().map(|earlier| hist.total_variation(earlier));
        let least = distances.fold(None, |m: Option<f64>, d| Some(m.map_or(d, |m| m.min(d))));
        interest_sum += i;
        diversity_sum += least.unwrap_or(1.0);
        interest.push(i.to_bits());
        primary.push(hist);
    }
    let score = (w.mu * interest_sum + w.lambda * diversity_sum) / tree.num_ops().max(1) as f64;
    (interest, primary, score.to_bits())
}

proptest! {
    /// Pre-order traversal visits every node exactly once, root first, and each
    /// non-root node appears after its parent.
    #[test]
    fn pre_order_is_a_valid_traversal(steps in prop::collection::vec(step_strategy(), 0..14)) {
        let tree = build(&steps);
        let order = tree.pre_order();
        prop_assert_eq!(order.len(), tree.len());
        prop_assert_eq!(order[0], NodeId::ROOT);
        let mut seen = std::collections::HashSet::new();
        for &id in &order {
            if let Some(parent) = tree.parent(id) {
                prop_assert!(seen.contains(&parent), "node visited before its parent");
            }
            prop_assert!(seen.insert(id), "node visited twice");
        }
    }

    /// num_ops equals the number of non-root nodes, and every op node has a parent.
    #[test]
    fn op_count_and_parent_consistency(steps in prop::collection::vec(step_strategy(), 0..14)) {
        let tree = build(&steps);
        prop_assert_eq!(tree.num_ops(), tree.len() - 1);
        for (id, _) in tree.ops_in_order() {
            prop_assert!(tree.parent(id).is_some());
            prop_assert!(tree.op(id).is_some());
        }
        // The root carries no operation.
        prop_assert!(tree.op(NodeId::ROOT).is_none());
    }

    /// Executing a session never invents rows: a filter view is no larger than its
    /// parent, and a group-by view has at most as many rows as the parent's distinct keys.
    #[test]
    fn execution_never_invents_rows(steps in prop::collection::vec(step_strategy(), 0..12)) {
        let data = dataset();
        let tree = build(&steps);
        let exec = SessionExecutor::new(data.clone());
        let views = exec.execute_tree_lenient(&tree);
        for (id, op) in tree.ops_in_order() {
            let (Some(view), Some(parent)) = (views.get(&id), tree.parent(id)) else { continue };
            let Some(pview) = views.get(&parent) else { continue };
            match op.kind() {
                OpKind::Filter => prop_assert!(view.num_rows() <= pview.num_rows()),
                OpKind::GroupBy => {
                    // One row per distinct group key; at most the parent's row count.
                    prop_assert!(view.num_rows() <= pview.num_rows().max(1));
                }
            }
        }
    }

    /// depth(root) is 0 and a child's depth is exactly one more than its parent's.
    #[test]
    fn depth_increments_by_one_per_level(steps in prop::collection::vec(step_strategy(), 0..14)) {
        let tree = build(&steps);
        prop_assert_eq!(tree.depth(NodeId::ROOT), 0);
        for (id, _) in tree.ops_in_order() {
            let parent = tree.parent(id).unwrap();
            prop_assert_eq!(tree.depth(id), tree.depth(parent) + 1);
        }
    }

    /// One session and its term-shifted variants, through one memo and each cache
    /// twice: a fresh cache's first pass is cold and its second warm.
    #[test]
    fn every_cache_gives_the_reference_bits(
        (kind, seed, rows) in (0..3usize, 0..1000u64, 20..120usize),
        steps in prop::collection::vec((0..8u8, 0..64usize, 0..64usize, 0..1024usize), 1..10),
        shifts in prop::collection::vec(0..1024usize, 1..4),
    ) {
        let kind = [DatasetKind::Netflix, DatasetKind::Flights, DatasetKind::PlayStore][kind];
        let data = generate(kind, ScaleConfig { rows: Some(rows), seed });
        let (w, memo) = (RewardWeights::default(), Arc::new(OpMemo::new()));
        let (shared, zero) = (Arc::new(StatsCache::default()), Arc::new(StatsCache::new(0, 1)));
        for shift in shifts {
            let (tree, direct) = session(&data, &steps, shift);
            let (expected, on) = (reference(&tree, &direct, w), tree.to_compact_string());
            let fresh = Arc::new(StatsCache::default());
            for (what, cache) in [("fresh", &fresh), ("zero-budget", &zero), ("shared", &shared)] {
                let exec = SessionExecutor::with_memo(data.clone(), Arc::clone(&memo))
                    .with_stats(Arc::clone(cache));
                let reward = ExplorationReward::with_cache(w, Arc::clone(cache));
                for _ in 0..2 {
                    let views = exec.execute_tree_lenient(&tree);
                    let same = |(id, v): (&NodeId, &DataFrame)| {
                        direct.get(id).is_some_and(|d| d.fingerprint() == v.fingerprint())
                    };
                    let equal = views.len() == direct.len() && views.iter().all(same);
                    prop_assert!(equal, "memoized views differ from execute_op on {}", on);
                    let (interest, primary) = (tree.ops_in_order().into_iter())
                        .filter_map(|(id, op)| Some((id, op, views.get(&tree.parent(id)?)?, views.get(&id)?)))
                        .map(|(id, op, input, output)| {
                            let hist = reward.primary_histogram(&tree, output, id);
                            (reward.interestingness(op, input, output).to_bits(), Histogram::clone(&hist))
                        })
                        .unzip();
                    let got: Scores = (interest, primary, reward.session_score(&exec, &tree).to_bits());
                    prop_assert!(got == expected, "{} cache on {}: {:?} != {:?}", what, on, got, expected);
                }
            }
            let warm = fresh.stats().hits > 0 && memo.stats().hits > 0;
            prop_assert!(expected.1.is_empty() || warm, "the second passes hit the memo and the cache");
        }
        prop_assert!(zero.stats().entries == 0, "a zero-budget cache stores nothing");
    }
}
