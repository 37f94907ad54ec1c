//! The generic exploration reward `R_gen` (paper §5.1, following ATENA \[6\]).
//!
//! `R_gen(S_i, a) = μ · Σ_{j≤i} Interestingness(q_j) + λ · Diversity(S_i)` where
//!
//! * **Interestingness** of a *filter* is the KL divergence between the filtered view's
//!   value distributions and the parent view's (an unusual subset scores high), scaled
//!   by a coverage factor so near-empty or near-total filters score low.
//! * **Interestingness** of a *group-by* is the conciseness of the grouping (moderately
//!   many, well-populated groups score high; groupings by unique identifiers score low).
//! * **Diversity** of the session is the minimum result distance between the latest
//!   query and every previous query (total-variation distance over the primary column's
//!   distribution) — repeating a near-identical query scores 0.
//!
//! # Performance
//!
//! Reward computation is the hot path of CDRL training (op execution itself is memoized
//! by [`crate::memo::OpMemo`]). Two mechanisms keep it cheap:
//!
//! * a [`StatsCache`] that every statistic goes through — histograms and group sizes
//!   are keyed by the column's storage id and the view's selection digest, so they
//!   are computed once per distinct view across every reward consumer handed the
//!   same cache (steps, episodes, goals over one dataset: the op memo hands back the
//!   same view) and no view is fingerprinted. A filter's output shares its input's
//!   storage, so filter interestingness takes each column's KL over codes of one
//!   storage (see `linx_dataframe::stats`). A reward built with [`ExplorationReward::new`] or
//!   `default` owns a fresh cache; training and serving share one with
//!   [`ExplorationReward::with_cache`], and [`ExplorationReward::session_score`]
//!   reads the one its [`SessionExecutor`] holds. There is no cache-less path;
//!   `StatsCache::new(0, 1)` stores nothing and so recomputes every statistic;
//! * the [`SessionDiversity`] tracker — each node's primary histogram is stored once
//!   per node, and per-step diversity updates only the new node's minimum distance
//!   (O(n) distance computations per step instead of an O(n²) all-pairs rescan).

use std::collections::HashMap;
use std::sync::Arc;

use linx_dataframe::stats::{conciseness, Histogram};
use linx_dataframe::stats_cache::StatsCache;
use linx_dataframe::DataFrame;
use serde::{Deserialize, Serialize};

use crate::op::QueryOp;
use crate::session::SessionExecutor;
use crate::tree::{ExplorationTree, NodeId};

/// Weights of the generic exploration reward.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RewardWeights {
    /// Weight of the summed per-query interestingness (μ).
    pub mu: f64,
    /// Weight of the session diversity term (λ).
    pub lambda: f64,
    /// Maximum number of groups considered "readable" in a group-by result.
    pub max_groups: usize,
}

impl Default for RewardWeights {
    fn default() -> Self {
        RewardWeights {
            mu: 1.0,
            lambda: 0.5,
            max_groups: 15,
        }
    }
}

/// Computes the generic exploration reward for sessions and individual operations.
#[derive(Debug, Clone)]
pub struct ExplorationReward {
    weights: RewardWeights,
    stats: Arc<StatsCache>,
}

impl Default for ExplorationReward {
    fn default() -> Self {
        ExplorationReward::new(RewardWeights::default())
    }
}

/// The histogram of the node's "primary" column in its result view: the operation's
/// primary attribute if still present, otherwise the first column; empty when the view
/// has no columns. Borrows the column name from the tree / the view — no allocation on
/// the hot path.
fn primary_histogram_in(
    stats: &StatsCache,
    tree: &ExplorationTree,
    view: &DataFrame,
    node: NodeId,
) -> Arc<Histogram> {
    tree.op(node)
        .map(|op| op.primary_attr())
        .filter(|c| view.column(c).is_ok())
        .or_else(|| view.column_names().first().copied())
        .and_then(|c| stats.histogram(view, c).ok())
        .unwrap_or_default()
}

impl ExplorationReward {
    /// Create a reward calculator with explicit weights over a fresh statistics cache
    /// of its own.
    pub fn new(weights: RewardWeights) -> Self {
        ExplorationReward::with_cache(weights, Arc::default())
    }

    /// Create a reward calculator whose histograms and group sizes are shared through
    /// `stats`. Every consumer handed the same cache — step rewards, session scoring,
    /// featurization — computes each distinct `(view, column)` statistic once.
    pub fn with_cache(weights: RewardWeights, stats: Arc<StatsCache>) -> Self {
        ExplorationReward { weights, stats }
    }

    /// The configured weights.
    pub fn weights(&self) -> RewardWeights {
        self.weights
    }

    /// The statistics cache [`Self::interestingness`], [`Self::primary_histogram`] and
    /// [`Self::diversity`] read through.
    pub fn stats_cache(&self) -> &Arc<StatsCache> {
        &self.stats
    }

    /// Interestingness of a single operation given its input (parent) view and output
    /// view, in `[0, 1]`-ish range (KL is clipped).
    pub fn interestingness(&self, op: &QueryOp, input: &DataFrame, output: &DataFrame) -> f64 {
        self.interestingness_in(&self.stats, op, input, output)
    }

    fn interestingness_in(
        &self,
        stats: &StatsCache,
        op: &QueryOp,
        input: &DataFrame,
        output: &DataFrame,
    ) -> f64 {
        match op {
            QueryOp::Filter { attr, .. } => {
                if input.num_rows() == 0 || output.num_rows() == 0 {
                    return 0.0;
                }
                let coverage = output.num_rows() as f64 / input.num_rows() as f64;
                // Near-total filters (>95% of rows kept) or tiny remnants (<0.5%) carry
                // little information.
                let coverage_factor = if coverage > 0.95 {
                    0.1
                } else if coverage < 0.005 {
                    0.2
                } else {
                    1.0
                };
                // Divergence of the other columns' distributions between subset and
                // parent — the essence of "this subset behaves differently". Summed
                // left to right as the columns come.
                let (mut div_sum, mut div_count) = (0.0, 0usize);
                for col in input.columns() {
                    let name = col.name();
                    if name == attr {
                        continue;
                    }
                    let (Ok(hi), Ok(ho)) =
                        (stats.histogram(input, name), stats.histogram(output, name))
                    else {
                        continue;
                    };
                    if hi.n_distinct() == 0 {
                        continue;
                    }
                    div_sum += ho.kl_divergence(&hi).min(3.0) / 3.0;
                    div_count += 1;
                }
                if div_count == 0 {
                    return 0.0;
                }
                let mean_div = div_sum / div_count as f64;
                (mean_div * coverage_factor).clamp(0.0, 1.0)
            }
            QueryOp::GroupBy { g_attr, .. } => {
                if input.num_rows() == 0 {
                    return 0.0;
                }
                // The cache memoizes just the group *sizes* — one usize per group —
                // rather than the full per-row `Groups` index structure.
                match stats.group_sizes(input, g_attr) {
                    Ok(sizes) => conciseness(&sizes, self.weights.max_groups),
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// Histogram of the node's primary column in its result view, pulled through the
    /// stats cache. This is the per-node quantity [`SessionDiversity`] accumulates.
    pub fn primary_histogram(
        &self,
        tree: &ExplorationTree,
        view: &DataFrame,
        node: NodeId,
    ) -> Arc<Histogram> {
        primary_histogram_in(&self.stats, tree, view, node)
    }

    /// Diversity contribution of a node: the minimum total-variation distance between
    /// its result view and the result view of any earlier (pre-order) node. 1.0 when it
    /// is the first operation.
    ///
    /// Node ids are a pre-order numbering of the session tree, so only ids *below*
    /// `node` are considered — earlier nodes are iterated directly instead of scanning
    /// the whole tree and discarding the later half. Incremental consumers (the CDRL
    /// environment) should prefer [`SessionDiversity`], which additionally stores each
    /// node's histogram so no histogram is ever rebuilt.
    pub fn diversity(
        &self,
        tree: &ExplorationTree,
        views: &HashMap<NodeId, DataFrame>,
        node: NodeId,
    ) -> f64 {
        let Some(view) = views.get(&node) else {
            return 0.0;
        };
        let this_hist = self.primary_histogram(tree, view, node);
        let mut min_dist: Option<f64> = None;
        for idx in 1..node.index() {
            let id = NodeId(idx);
            let Some(other) = views.get(&id) else {
                continue;
            };
            let other_hist = self.primary_histogram(tree, other, id);
            let d = this_hist.total_variation(&other_hist);
            min_dist = Some(min_dist.map_or(d, |m: f64| m.min(d)));
        }
        min_dist.unwrap_or(1.0)
    }

    /// The full generic exploration score of a session: mean per-op interestingness
    /// (weighted by μ) plus mean per-op diversity (weighted by λ). Invalid operations
    /// contribute zero. Returns 0 for an empty session.
    ///
    /// The session's views come from `executor`, and their statistics from the
    /// executor's [`StatsCache`], so repeated scorings of overlapping sessions reuse
    /// every view and every histogram. Diversity is accumulated incrementally through
    /// a [`SessionDiversity`] tracker: each node's primary histogram is built exactly
    /// once (O(n) histogram builds for an n-op session, not O(n²)).
    pub fn session_score(&self, executor: &SessionExecutor, tree: &ExplorationTree) -> f64 {
        if tree.num_ops() == 0 {
            return 0.0;
        }
        let views = executor.execute_tree_lenient(tree);
        let stats = executor.stats_cache();
        let mut interest_sum = 0.0;
        let mut diversity = SessionDiversity::new();
        let n = tree.num_ops() as f64;
        for (id, op) in tree.ops_in_order() {
            let parent = tree.parent(id).unwrap_or(NodeId::ROOT);
            if let (Some(input), Some(output)) = (views.get(&parent), views.get(&id)) {
                interest_sum += self.interestingness_in(stats, op, input, output);
                diversity.observe(id, primary_histogram_in(stats, tree, output, id));
            }
        }
        (self.weights.mu * interest_sum + self.weights.lambda * diversity.total()) / n
    }
}

/// Incremental diversity accumulator for one exploration session.
///
/// Stores each node's primary histogram once (`Arc`-shared with the stats cache), so a
/// step that appends node *n* costs n−1 total-variation distance computations and zero
/// histogram builds against earlier nodes. Earlier nodes' diversity scores are
/// unaffected by later insertions (each score is a minimum over *earlier* nodes only),
/// so scores are final at observation time — which is what makes the tracker sound.
#[derive(Debug, Clone, Default)]
pub struct SessionDiversity {
    /// `(node, histogram, diversity score)` in observation order. A small parallel
    /// list, not a map: sessions are a handful of ops and `observe` runs on the
    /// per-step training hot path.
    entries: Vec<(NodeId, Arc<Histogram>, f64)>,
    total: f64,
}

impl SessionDiversity {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget everything (start of a new episode).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total = 0.0;
    }

    /// Number of observed nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record `node`'s primary histogram and return its diversity: the minimum
    /// total-variation distance to every previously observed node (1.0 for the first).
    /// Call exactly once per node, in session (pre-order) order.
    pub fn observe(&mut self, node: NodeId, hist: Arc<Histogram>) -> f64 {
        let mut min_dist: Option<f64> = None;
        for (_, other, _) in &self.entries {
            let d = hist.total_variation(other);
            min_dist = Some(min_dist.map_or(d, |m: f64| m.min(d)));
        }
        let score = min_dist.unwrap_or(1.0);
        self.entries.push((node, hist, score));
        self.total += score;
        score
    }

    /// The recorded diversity of a node, if observed.
    pub fn score(&self, node: NodeId) -> Option<f64> {
        self.entries
            .iter()
            .find(|(id, _, _)| *id == node)
            .map(|(_, _, s)| *s)
    }

    /// Sum of all recorded per-node diversity scores.
    pub fn total(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;

    fn dataset() -> DataFrame {
        // 40 rows: country A rows are mostly Movies, country B rows are balanced.
        let mut rows = Vec::new();
        for i in 0..40 {
            let country = if i % 4 == 0 { "B" } else { "A" };
            let typ = if country == "A" {
                if i % 10 == 0 {
                    "TV Show"
                } else {
                    "Movie"
                }
            } else if i % 2 == 0 {
                "Movie"
            } else {
                "TV Show"
            };
            rows.push(vec![
                Value::str(country),
                Value::str(typ),
                Value::Int(i as i64),
            ]);
        }
        DataFrame::from_rows(&["country", "type", "id"], rows).unwrap()
    }

    #[test]
    fn filter_interestingness_higher_for_divergent_subset() {
        let df = dataset();
        let reward = ExplorationReward::default();
        let exec = SessionExecutor::new(df.clone());

        // Filter to country B (distribution of `type` differs from parent).
        let op_b = QueryOp::filter("country", CompareOp::Eq, Value::str("B"));
        let out_b = exec.execute_op(&df, &op_b).unwrap();
        let score_b = reward.interestingness(&op_b, &df, &out_b);

        // Filter keeping nearly everything (id >= 0) — low information.
        let op_all = QueryOp::filter("id", CompareOp::Ge, Value::Int(0));
        let out_all = exec.execute_op(&df, &op_all).unwrap();
        let score_all = reward.interestingness(&op_all, &df, &out_all);

        assert!(
            score_b > score_all,
            "divergent subset {score_b} vs trivial {score_all}"
        );
    }

    #[test]
    fn session_score_builds_each_histogram_once() {
        // A chain of n distinct filters: every node has a distinct view. One
        // session_score pass must compute O(n) primary histograms (one per node, plus
        // the per-op interestingness histograms) — not the O(n²) of an all-pairs
        // diversity rescan — and a second pass must add zero misses.
        let n = 12usize;
        let mut rows = Vec::new();
        for i in 0..(n as i64 * 4) {
            rows.push(vec![Value::Int(i), Value::str(format!("c{}", i % 5))]);
        }
        let df = DataFrame::from_rows(&["id", "cat"], rows).unwrap();
        let mut tree = ExplorationTree::new();
        for i in 0..n {
            // Nested chain: each filter keeps ids >= i, a distinct view per node.
            tree.push_op(QueryOp::filter("id", CompareOp::Ge, Value::Int(i as i64)));
        }
        let cache = Arc::new(StatsCache::default());
        let exec = SessionExecutor::new(df).with_stats(Arc::clone(&cache));
        let reward = ExplorationReward::default();

        reward.session_score(&exec, &tree);
        let cold = cache.stats();
        // Per node: one primary histogram + at most `columns` interestingness
        // histograms over input and output. Linear in n, with a small constant.
        let per_node_bound = 2 * 2 + 1; // 2 cols x (input+output) + primary
        assert!(
            cold.misses <= (per_node_bound * n + per_node_bound) as u64,
            "cold pass should be O(n) histogram builds: {cold:?}"
        );
        assert!(cold.misses >= n as u64, "each node needs its own histogram");

        reward.session_score(&exec, &tree);
        let warm = cache.stats();
        assert_eq!(warm.misses, cold.misses, "warm pass computes nothing new");
        assert!(warm.hits > cold.hits, "warm pass is served from the cache");
    }

    #[test]
    fn groupby_interestingness_prefers_low_cardinality_keys() {
        let df = dataset();
        let reward = ExplorationReward::default();
        let good = QueryOp::group_by("type", AggFunc::Count, "id");
        let bad = QueryOp::group_by("id", AggFunc::Count, "id"); // unique key
        let g = reward.interestingness(&good, &df, &df);
        let b = reward.interestingness(&bad, &df, &df);
        assert!(g > b, "type grouping {g} should beat id grouping {b}");
    }

    #[test]
    fn empty_views_score_zero() {
        let df = dataset();
        let reward = ExplorationReward::default();
        let op = QueryOp::filter("country", CompareOp::Eq, Value::str("ZZZ"));
        let out = SessionExecutor::new(df.clone())
            .execute_op(&df, &op)
            .unwrap();
        assert_eq!(reward.interestingness(&op, &df, &out), 0.0);
    }

    #[test]
    fn diversity_rewards_distinct_queries() {
        let df = dataset();
        let exec = SessionExecutor::new(df);
        let reward = ExplorationReward::default();

        // Session with two identical filters vs. two different filters.
        let mut same = ExplorationTree::new();
        same.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("A")),
        );
        same.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("A")),
        );
        let views_same = exec.execute_tree_lenient(&same);
        let d_same = reward.diversity(&same, &views_same, NodeId(2));

        let mut diff = ExplorationTree::new();
        diff.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("A")),
        );
        diff.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("B")),
        );
        let views_diff = exec.execute_tree_lenient(&diff);
        let d_diff = reward.diversity(&diff, &views_diff, NodeId(2));

        assert!(d_same < 1e-9);
        assert!(d_diff > 0.5);
    }

    #[test]
    fn incremental_tracker_agrees_with_direct_diversity() {
        let df = dataset();
        let exec = SessionExecutor::new(df);
        let reward = ExplorationReward::default();
        let mut tree = ExplorationTree::new();
        let a = tree.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("A")),
        );
        tree.add_child(a, QueryOp::group_by("type", AggFunc::Count, "id"));
        tree.back();
        tree.back();
        tree.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("B")),
        );
        let views = exec.execute_tree_lenient(&tree);

        let mut tracker = SessionDiversity::new();
        for (id, _) in tree.ops_in_order() {
            let view = &views[&id];
            let incremental = tracker.observe(id, reward.primary_histogram(&tree, view, id));
            let direct = reward.diversity(&tree, &views, id);
            assert!(
                (incremental - direct).abs() < 1e-12,
                "node {id:?}: tracker {incremental} vs direct {direct}"
            );
            assert_eq!(tracker.score(id), Some(incremental));
        }
        assert_eq!(tracker.len(), 3);
        assert!(tracker.total() > 0.0);
        tracker.clear();
        assert!(tracker.is_empty());
    }

    #[test]
    fn session_score_positive_for_meaningful_session_and_zero_for_empty() {
        let df = dataset();
        let exec = SessionExecutor::new(df);
        let reward = ExplorationReward::default();
        assert_eq!(reward.session_score(&exec, &ExplorationTree::new()), 0.0);

        let mut tree = ExplorationTree::new();
        let f = tree.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("B")),
        );
        tree.add_child(f, QueryOp::group_by("type", AggFunc::Count, "id"));
        let score = reward.session_score(&exec, &tree);
        assert!(score > 0.0);
    }

    #[test]
    fn invalid_ops_do_not_crash_session_score() {
        let df = dataset();
        let exec = SessionExecutor::new(df);
        let reward = ExplorationReward::default();
        let mut tree = ExplorationTree::new();
        tree.push_op(QueryOp::filter("missing_col", CompareOp::Eq, Value::Int(1)));
        let score = reward.session_score(&exec, &tree);
        assert_eq!(score, 0.0);
    }
}
