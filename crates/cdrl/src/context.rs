//! Shared per-dataset statistics: everything the CDRL environment derives from the
//! root dataset alone, bundled so it is **built once per dataset** and reused across
//! goals, episodes, and concurrently trained environments.
//!
//! Before this module existed, every [`crate::env::LinxEnv`] constructed its own
//! [`TermInventory`] and [`Featurizer`] — per goal, inside the serving hot path — and
//! every reward call rebuilt histograms from scratch. The serving layer
//! (`linx-engine`) now holds one [`DatasetStats`] per dataset context, next to the
//! schema/sample/`OpMemo`, so batch serving and CDRL training share one set of
//! per-dataset statistics (the reuse pattern interactive-scale EDA systems like
//! TiInsight and INODE rely on).

use std::sync::Arc;

use linx_dataframe::{DataFrame, StatsCache};

use crate::featurize::Featurizer;
use crate::terms::TermInventory;

/// Arc-bundled per-dataset statistics: cheap to clone, safe to share across threads.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// The observation builder (derived from the root schema and row count).
    pub featurizer: Arc<Featurizer>,
    /// The filter-term inventory (derived from root column distributions).
    pub terms: Arc<TermInventory>,
    /// The view-level statistics cache shared by every reward consumer.
    pub stats: Arc<StatsCache>,
}

impl DatasetStats {
    /// Build the shared statistics for a dataset, keeping at most `term_slots` filter
    /// terms per column. Allocates a fresh [`StatsCache`] (warmed by the inventory
    /// build, which routes its root-column histograms through it).
    pub fn build(dataset: &DataFrame, term_slots: usize) -> Self {
        Self::build_with_cache(dataset, term_slots, Arc::new(StatsCache::default()))
    }

    /// Like [`DatasetStats::build`], but memoizing into an existing cache.
    pub fn build_with_cache(
        dataset: &DataFrame,
        term_slots: usize,
        stats: Arc<StatsCache>,
    ) -> Self {
        let terms = TermInventory::build(dataset, term_slots, &stats);
        DatasetStats {
            featurizer: Arc::new(Featurizer::new(dataset)),
            terms: Arc::new(terms),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::Value;

    fn dataset() -> DataFrame {
        DataFrame::from_rows(
            &["country", "n"],
            (0..20)
                .map(|i| {
                    vec![
                        Value::str(if i % 2 == 0 { "US" } else { "India" }),
                        Value::Int(i),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn build_matches_direct_construction_and_warms_the_cache() {
        let df = dataset();
        let shared = DatasetStats::build(&df, 6);
        assert_eq!(shared.terms.slots(), 6);
        assert_eq!(
            shared.terms.terms_for("country"),
            TermInventory::build(&df, 6, &StatsCache::default()).terms_for("country")
        );
        assert_eq!(shared.featurizer.obs_dim(), Featurizer::new(&df).obs_dim());
        // The categorical inventory routed its histogram through the shared cache.
        let warmed = shared.stats.stats();
        assert!(warmed.misses > 0, "inventory build warms the cache");
        shared.stats.histogram(&df, "country").unwrap();
        assert!(shared.stats.stats().hits > warmed.hits);
    }

    #[test]
    fn clones_share_the_same_arcs() {
        let shared = DatasetStats::build(&dataset(), 4);
        let clone = shared.clone();
        assert!(Arc::ptr_eq(&shared.featurizer, &clone.featurizer));
        assert!(Arc::ptr_eq(&shared.terms, &clone.terms));
        assert!(Arc::ptr_eq(&shared.stats, &clone.stats));
    }
}
