//! Session execution: materializing the result view of every node in an exploration
//! tree against an input dataframe.
//!
//! The CDRL environment executes operations incrementally (one per step); the notebook
//! renderer and the user-study simulator execute full trees. Both go through
//! [`SessionExecutor`], which caches the per-node views so shared prefixes are computed
//! once.

use std::collections::HashMap;
use std::sync::Arc;

use linx_dataframe::stats_cache::StatsCache;
use linx_dataframe::{DataFrame, Result};

use crate::memo::OpMemo;
use crate::op::QueryOp;
use crate::tree::{ExplorationTree, NodeId};

/// Executes exploration trees against a dataset through an [`OpMemo`], and holds the
/// [`StatsCache`] that scoring its sessions reads.
///
/// The memo keys materialized views by the operation path from the root, so
/// re-executions of the same session (notebook rendering, narratives, reward scoring)
/// and sessions with common prefixes (batched goals over one dataset) compute each
/// distinct view once. [`SessionExecutor::new`] builds a fresh memo and cache;
/// [`SessionExecutor::with_memo`] and [`SessionExecutor::with_stats`] share existing
/// ones.
#[derive(Debug, Clone)]
pub struct SessionExecutor {
    dataset: DataFrame,
    memo: Arc<OpMemo>,
    stats: Arc<StatsCache>,
}

impl SessionExecutor {
    /// Create an executor over a dataset (the tree's root view), with a fresh op memo
    /// and statistics cache of its own.
    pub fn new(dataset: DataFrame) -> Self {
        SessionExecutor::with_memo(dataset, Arc::default())
    }

    /// Create an executor whose materialized views are shared through `memo`, with a
    /// fresh statistics cache of its own.
    ///
    /// The memo keys views by operation path relative to the root dataset, so a memo
    /// must only ever be shared between executors over the same dataset.
    pub fn with_memo(dataset: DataFrame, memo: Arc<OpMemo>) -> Self {
        SessionExecutor {
            dataset,
            memo,
            stats: Arc::default(),
        }
    }

    /// Share `stats` instead: reward computations scoring sessions through this
    /// executor ([`crate::reward::ExplorationReward::session_score`]) memoize their
    /// histograms and group sizes in it. Unlike the op memo, the stats cache is keyed
    /// by column storage ids, unique within the process, so it may be shared across
    /// datasets.
    pub fn with_stats(mut self, stats: Arc<StatsCache>) -> Self {
        self.stats = stats;
        self
    }

    /// The statistics cache scoring this executor's sessions reads.
    pub fn stats_cache(&self) -> &Arc<StatsCache> {
        &self.stats
    }

    /// The root dataset.
    pub fn dataset(&self) -> &DataFrame {
        &self.dataset
    }

    /// The canonical memo key of a child node: the parent's path plus this operation.
    /// The root's path is the empty string.
    ///
    /// Filter terms use the canonical [`linx_dataframe::GroupKey`] rendering rather
    /// than `Display`, so terms of different types that render identically (`Int(1)`
    /// vs `Str("1")`) do not collide in the memo. (The key itself is non-allocating;
    /// only this path construction — once per op, not per row — renders it to text.)
    /// Every variable segment is length-prefixed: attribute names
    /// and filter terms come from dataset content (arbitrary with `--csv`), and naive
    /// interpolation would let a crafted cell value forge another op sequence's path
    /// and poison the shared memo. Exposed so incremental executors (the CDRL
    /// environment) can maintain per-node paths and share the same memo namespace.
    pub fn child_path(parent_path: &str, op: &QueryOp) -> String {
        fn push_field(out: &mut String, field: &str) {
            out.push('|');
            out.push_str(&field.len().to_string());
            out.push(':');
            out.push_str(field);
        }
        let mut path = parent_path.to_string();
        match op {
            QueryOp::Filter { attr, op, term } => {
                path.push_str("|F");
                push_field(&mut path, attr);
                push_field(&mut path, op.token());
                push_field(&mut path, &term.group_key().to_string());
            }
            QueryOp::GroupBy {
                g_attr,
                agg,
                agg_attr,
            } => {
                path.push_str("|G");
                push_field(&mut path, g_attr);
                push_field(&mut path, agg.token());
                push_field(&mut path, agg_attr);
            }
        }
        path
    }

    /// Execute `op` on `input` through the memo, under the node's operation path.
    ///
    /// `path` must be the [`Self::child_path`] of `input`'s own path — i.e. `input`
    /// must be the view the path's prefix denotes over this executor's dataset;
    /// handing in a mismatched pair poisons the memo for everyone sharing it.
    pub fn execute_op_at(&self, path: &str, input: &DataFrame, op: &QueryOp) -> Result<DataFrame> {
        self.memo
            .get_or_compute(path, || self.execute_op(input, op))
    }

    /// Execute a single operation against an input view.
    pub fn execute_op(&self, input: &DataFrame, op: &QueryOp) -> Result<DataFrame> {
        match op {
            QueryOp::Filter { .. } => {
                let pred = op.as_predicate().expect("filter has a predicate");
                input.filter(&pred)
            }
            QueryOp::GroupBy {
                g_attr,
                agg,
                agg_attr,
            } => input.group_by(g_attr, *agg, agg_attr),
        }
    }

    /// Execute the tree but tolerate per-node failures: failed nodes (and their
    /// descendants) are simply absent from the returned map. Used by reward computation,
    /// where an invalid operation should score poorly rather than abort the episode.
    pub fn execute_tree_lenient(&self, tree: &ExplorationTree) -> HashMap<NodeId, DataFrame> {
        let mut views: HashMap<NodeId, DataFrame> = HashMap::new();
        let mut paths: HashMap<NodeId, String> = HashMap::new();
        views.insert(NodeId::ROOT, self.dataset.clone());
        paths.insert(NodeId::ROOT, String::new());
        for id in tree.pre_order() {
            if id == NodeId::ROOT {
                continue;
            }
            let Some(parent) = tree.parent(id) else {
                continue;
            };
            let Some(parent_view) = views.get(&parent).cloned() else {
                continue;
            };
            let Some(op) = tree.op(id) else { continue };
            let path = Self::child_path(&paths[&parent], op);
            if let Ok(view) = self.execute_op_at(&path, &parent_view, op) {
                views.insert(id, view);
            }
            paths.insert(id, path);
        }
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;

    fn dataset() -> DataFrame {
        DataFrame::from_rows(
            &["country", "type", "duration"],
            vec![
                vec![Value::str("India"), Value::str("Movie"), Value::Int(120)],
                vec![Value::str("India"), Value::str("Movie"), Value::Int(90)],
                vec![Value::str("India"), Value::str("TV Show"), Value::Int(2)],
                vec![Value::str("US"), Value::str("Movie"), Value::Int(100)],
                vec![Value::str("US"), Value::str("TV Show"), Value::Int(4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn execute_tree_materializes_all_nodes() {
        let mut tree = ExplorationTree::new();
        let f = tree.push_op(QueryOp::filter(
            "country",
            CompareOp::Eq,
            Value::str("India"),
        ));
        let g = tree.push_op(QueryOp::group_by("type", AggFunc::Count, "duration"));
        let exec = SessionExecutor::new(dataset());
        let views = exec.execute_tree_lenient(&tree);
        assert_eq!(views.len(), 3);
        assert_eq!(views[&NodeId::ROOT].num_rows(), 5);
        assert_eq!(views[&f].num_rows(), 3);
        assert_eq!(views[&g].num_rows(), 2);
    }

    #[test]
    fn group_by_result_feeds_children() {
        // Filtering the result of a group-by by the aggregate column is legal.
        let mut tree = ExplorationTree::new();
        tree.push_op(QueryOp::group_by("country", AggFunc::Count, "duration"));
        tree.push_op(QueryOp::filter(
            "count(duration)",
            CompareOp::Ge,
            Value::Int(3),
        ));
        let exec = SessionExecutor::new(dataset());
        let views = exec.execute_tree_lenient(&tree);
        assert_eq!(views[&NodeId(2)].num_rows(), 1); // only India has >= 3 titles
    }

    #[test]
    fn strict_execution_propagates_errors() {
        // Executing one op through the memo is strict: the error comes back to the
        // caller, and the memo keeps no view for the failed path.
        let memo = Arc::new(OpMemo::default());
        let exec = SessionExecutor::with_memo(dataset(), Arc::clone(&memo));
        let group = QueryOp::group_by("country", AggFunc::Count, "duration");
        let group_path = SessionExecutor::child_path("", &group);
        let grouped = exec
            .execute_op_at(&group_path, exec.dataset(), &group)
            .unwrap();
        // 'type' no longer exists after the group-by.
        let filter = QueryOp::filter("type", CompareOp::Eq, Value::str("Movie"));
        let filter_path = SessionExecutor::child_path(&group_path, &filter);
        assert!(exec.execute_op_at(&filter_path, &grouped, &filter).is_err());
        assert!(exec.execute_op_at(&filter_path, &grouped, &filter).is_err());
        assert_eq!(
            memo.stats().entries,
            1,
            "only the group-by view is memoized"
        );
    }

    #[test]
    fn lenient_execution_skips_failed_subtrees() {
        let mut tree = ExplorationTree::new();
        tree.push_op(QueryOp::group_by("country", AggFunc::Count, "duration"));
        // 'type' no longer exists after the group-by.
        tree.push_op(QueryOp::filter("type", CompareOp::Eq, Value::str("Movie")));
        tree.push_op(QueryOp::group_by("type", AggFunc::Count, "duration"));
        let exec = SessionExecutor::new(dataset());
        let views = exec.execute_tree_lenient(&tree);
        assert!(views.contains_key(&NodeId(1)));
        assert!(!views.contains_key(&NodeId(2)));
        assert!(
            !views.contains_key(&NodeId(3)),
            "descendant of failed node skipped"
        );
    }

    #[test]
    fn memo_paths_resist_crafted_dataset_values() {
        // A filter term that *renders* like the tail of a filter+group-by chain must
        // not produce that chain's memo path: terms come from dataset content.
        let crafted = QueryOp::filter("c", CompareOp::Eq, Value::str("1]|G|1:g|5:count|1:a"));
        let plain_filter = QueryOp::filter("c", CompareOp::Eq, Value::str("1]"));
        let group = QueryOp::group_by("g", AggFunc::Count, "a");
        let crafted_path = SessionExecutor::child_path("", &crafted);
        let chain_path =
            SessionExecutor::child_path(&SessionExecutor::child_path("", &plain_filter), &group);
        assert_ne!(crafted_path, chain_path);

        // Identical ops still agree, and term types are distinguished.
        assert_eq!(
            SessionExecutor::child_path("", &group),
            SessionExecutor::child_path("", &group)
        );
        assert_ne!(
            SessionExecutor::child_path("", &QueryOp::filter("c", CompareOp::Eq, Value::Int(1))),
            SessionExecutor::child_path("", &QueryOp::filter("c", CompareOp::Eq, Value::str("1")))
        );
    }

    #[test]
    fn op_validity_checks() {
        let exec = SessionExecutor::new(dataset());
        let df = dataset();
        let valid = |op: QueryOp| exec.execute_op(&df, &op).is_ok();
        let eq_x = |attr: &str| QueryOp::filter(attr, CompareOp::Eq, Value::str("x"));
        assert!(valid(eq_x("country")));
        assert!(!valid(eq_x("bogus")));
        assert!(valid(QueryOp::group_by("type", AggFunc::Avg, "duration")));
        assert!(!valid(QueryOp::group_by("type", AggFunc::Sum, "country")));
    }
}
