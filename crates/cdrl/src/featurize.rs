//! State featurization: converting the current MDP state (the ongoing exploration tree
//! and the current result view) into the fixed-size observation vector the policy
//! network consumes.
//!
//! Following ATENA, the observation summarizes the *current view* column by column
//! (cardinality, null rate, entropy, type) plus a handful of global session features
//! (coverage of the view relative to the root dataset, current depth, step progress,
//! and the kind of the previous operation).

use linx_dataframe::stats_cache::StatsCache;
use linx_dataframe::DataFrame;
use linx_explore::{ExplorationTree, NodeId, OpKind};
use serde::{Deserialize, Serialize};

/// Maximum number of columns summarized in the observation (extra columns are ignored,
/// missing columns zero-padded) so the observation size is schema-independent.
pub const MAX_COLS: usize = 16;

/// Number of features per column.
pub const COL_FEATURES: usize = 4;

/// Number of global features.
pub const GLOBAL_FEATURES: usize = 8;

/// Total observation dimension.
pub const OBS_DIM: usize = MAX_COLS * COL_FEATURES + GLOBAL_FEATURES;

/// Builds observations for a fixed root dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Featurizer {
    root_rows: usize,
    root_columns: Vec<String>,
}

impl Featurizer {
    /// Create a featurizer for the root dataset.
    pub fn new(root: &DataFrame) -> Self {
        Featurizer {
            root_rows: root.num_rows().max(1),
            root_columns: root
                .column_names()
                .into_iter()
                .map(str::to_string)
                .collect(),
        }
    }

    /// The observation dimension (constant).
    pub fn obs_dim(&self) -> usize {
        OBS_DIM
    }

    /// Featurize the current state.
    ///
    /// * `view` — the result view of the current node,
    /// * `tree` — the ongoing session tree,
    /// * `step` / `max_steps` — episode progress,
    /// * `completable` — whether the structural specification can still be satisfied
    ///   (the immediate-verification signal; always `true` for goal-agnostic variants),
    /// * `stats` — the shared cache the per-column summaries are read through: the CDRL
    ///   environment observes the same views over and over (and re-observes them across
    ///   episodes), so the per-step column scans become lookups.
    pub fn featurize(
        &self,
        view: &DataFrame,
        tree: &ExplorationTree,
        step: usize,
        max_steps: usize,
        completable: bool,
        stats: &StatsCache,
    ) -> Vec<f64> {
        let mut obs = Vec::with_capacity(OBS_DIM);
        // Per-column features, aligned to the ROOT schema so columns keep stable slots
        // even when the current view (e.g. an aggregate) has different columns.
        for i in 0..MAX_COLS {
            match self
                .root_columns
                .get(i)
                .and_then(|name| column_features(view, name, stats))
            {
                Some(features) => obs.extend_from_slice(&features),
                None => obs.extend_from_slice(&[0.0; COL_FEATURES]),
            }
        }
        // Global features.
        let coverage = view.num_rows() as f64 / self.root_rows as f64;
        let depth = tree.depth(tree.current()) as f64 / (max_steps.max(1) as f64);
        let progress = step as f64 / max_steps.max(1) as f64;
        let ops = tree.num_ops() as f64 / max_steps.max(1) as f64;
        let last_kind = tree.op(tree.current()).map(|op| op.kind());
        obs.push(coverage.min(1.0));
        obs.push(depth.min(1.0));
        obs.push(progress.min(1.0));
        obs.push(ops.min(1.0));
        obs.push(if last_kind == Some(OpKind::Filter) {
            1.0
        } else {
            0.0
        });
        obs.push(if last_kind == Some(OpKind::GroupBy) {
            1.0
        } else {
            0.0
        });
        obs.push(if tree.current() == NodeId::ROOT {
            1.0
        } else {
            0.0
        });
        obs.push(if completable { 1.0 } else { 0.0 });
        debug_assert_eq!(obs.len(), OBS_DIM);
        obs
    }
}

/// The four per-column features (distinct ratio, null rate, normalized entropy,
/// numeric flag), from the stats cache. `None` when the view lacks the column (the
/// caller zero-pads).
fn column_features(
    view: &DataFrame,
    name: &str,
    stats: &StatsCache,
) -> Option<[f64; COL_FEATURES]> {
    let s = stats.summary(view, name).ok()?;
    let n = s.rows.max(1) as f64;
    Some([
        s.n_distinct as f64 / n,
        s.null_count as f64 / n,
        s.normalized_entropy,
        if s.numeric { 1.0 } else { 0.0 },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::Value;
    use linx_explore::QueryOp;

    fn df() -> DataFrame {
        DataFrame::from_rows(
            &["country", "duration"],
            vec![
                vec![Value::str("India"), Value::Int(100)],
                vec![Value::str("US"), Value::Int(50)],
                vec![Value::str("US"), Value::Int(70)],
                vec![Value::Null, Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn observation_has_fixed_dimension() {
        let root = df();
        let f = Featurizer::new(&root);
        let tree = ExplorationTree::new();
        let obs = f.featurize(&root, &tree, 0, 5, true, &StatsCache::default());
        assert_eq!(obs.len(), OBS_DIM);
        assert_eq!(obs.len(), f.obs_dim());
        assert!(obs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn coverage_and_root_flags_respond_to_state() {
        let root = df();
        let f = Featurizer::new(&root);
        let cache = StatsCache::default();
        let mut tree = ExplorationTree::new();
        let obs_root = f.featurize(&root, &tree, 0, 4, true, &cache);
        // coverage = 1, at-root flag = 1
        assert_eq!(obs_root[OBS_DIM - 8], 1.0);
        assert_eq!(obs_root[OBS_DIM - 2], 1.0);

        tree.push_op(QueryOp::filter("country", CompareOp::Eq, Value::str("US")));
        let view = root
            .filter(&linx_dataframe::filter::Predicate::new(
                "country",
                CompareOp::Eq,
                Value::str("US"),
            ))
            .unwrap();
        let obs = f.featurize(&view, &tree, 1, 4, false, &cache);
        assert!(
            (obs[OBS_DIM - 8] - 0.5).abs() < 1e-9,
            "coverage should be 1/2"
        );
        assert_eq!(obs[OBS_DIM - 4], 1.0, "last op was a filter");
        assert_eq!(obs[OBS_DIM - 2], 0.0, "no longer at root");
        assert_eq!(obs[OBS_DIM - 1], 0.0, "not completable flag");
    }

    #[test]
    fn cached_featurization_matches_uncached() {
        let root = df();
        let f = Featurizer::new(&root);
        let cache = StatsCache::default();
        let mut tree = ExplorationTree::new();
        tree.push_op(QueryOp::filter("country", CompareOp::Eq, Value::str("US")));
        let view = root
            .filter(&linx_dataframe::filter::Predicate::new(
                "country",
                CompareOp::Eq,
                Value::str("US"),
            ))
            .unwrap();
        for v in [&root, &view] {
            let cached = f.featurize(v, &tree, 1, 4, true, &cache);
            // The reference: each root column's features computed from the view's
            // column directly, then zero-padded to `MAX_COLS` slots.
            let mut direct = Vec::new();
            for name in ["country", "duration"] {
                let col = v.column(name).unwrap();
                let n = v.num_rows().max(1) as f64;
                let entropy = v.histogram(name).unwrap().normalized_entropy();
                let numeric = if col.dtype().is_numeric() { 1.0 } else { 0.0 };
                direct.extend([
                    col.n_unique() as f64 / n,
                    col.null_count() as f64 / n,
                    entropy,
                    numeric,
                ]);
            }
            direct.resize(MAX_COLS * COL_FEATURES, 0.0);
            assert_eq!(cached[..MAX_COLS * COL_FEATURES], direct[..]);
        }
        let s = cache.stats();
        assert!(s.misses > 0);
        // Re-observing the same views is pure lookups.
        f.featurize(&view, &tree, 2, 4, true, &cache);
        let s2 = cache.stats();
        assert_eq!(s2.misses, s.misses);
        assert!(s2.hits > s.hits);
    }

    #[test]
    fn missing_columns_are_zero_padded() {
        let root = df();
        let f = Featurizer::new(&root);
        // Aggregate view lacks the root columns entirely except country.
        let agg = root
            .group_by(
                "country",
                linx_dataframe::groupby::AggFunc::Count,
                "duration",
            )
            .unwrap();
        let tree = ExplorationTree::new();
        let obs = f.featurize(&agg, &tree, 1, 4, true, &StatsCache::default());
        // Column 1 ("duration") slot should be zero-padded since the view lacks it.
        let dur_slot = &obs[COL_FEATURES..2 * COL_FEATURES];
        assert!(dur_slot.iter().all(|&v| v == 0.0));
    }
}
