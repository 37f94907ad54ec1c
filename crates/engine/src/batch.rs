//! The batch request and outcome types of [`crate::Router::run_batch`]: many goals
//! against one dataset, sharing per-dataset work.
//!
//! Batching is where the serving architecture pays off: the dataset fingerprint,
//! schema, and linking sample are computed once; materialized views are shared through
//! the dataset's [`linx_explore::OpMemo`]; and jobs run concurrently on the worker
//! pool, so a batch of N goals completes in roughly `ceil(N / workers)` training
//! rounds of wall-clock time instead of N.

use linx_dataframe::StatsCacheStats;
use linx_explore::OpMemoStats;

use crate::api::{Budget, ExploreResponse, JobError, Priority};
use crate::quota::TenantId;

/// A batch of goals to explore against one dataset.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Stable dataset name used in prompts and titles.
    pub dataset_id: String,
    /// The goals; responses come back in the same order.
    pub goals: Vec<String>,
    /// Priority applied to every job of the batch.
    pub priority: Priority,
    /// Budget applied to every job of the batch.
    pub budget: Budget,
    /// Tenant every job of the batch is billed to.
    pub tenant: TenantId,
}

impl BatchRequest {
    /// A normal-priority, default-budget batch billed to the default tenant.
    pub fn new(dataset_id: impl Into<String>, goals: Vec<String>) -> Self {
        BatchRequest {
            dataset_id: dataset_id.into(),
            goals,
            priority: Priority::Normal,
            budget: Budget::default(),
            tenant: TenantId::default(),
        }
    }

    /// Set the tenant.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// The outcome of a batch: per-goal responses (in request order) plus shared-work
/// telemetry.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One response per goal, in the order the goals were given.
    pub responses: Vec<ExploreResponse>,
    /// Effectiveness of the shared view memo for this batch's dataset.
    pub memo: OpMemoStats,
    /// Effectiveness of the shared view-statistics cache (reward histograms,
    /// groupings, featurizer summaries). The cache is engine-wide (keyed by column
    /// storage, shared across datasets), so these counters are cumulative for the engine,
    /// snapshotted after this batch.
    pub stats: StatsCacheStats,
    /// Wall-clock microseconds for the whole batch.
    pub total_micros: u64,
    /// The router shard that served the batch (the one owning the dataset).
    pub shard: usize,
}

impl BatchOutcome {
    /// Number of responses served from the result cache.
    pub fn cache_hits(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| r.served_from_cache)
            .count()
    }

    /// Number of responses with a successful outcome.
    pub fn succeeded(&self) -> usize {
        self.responses.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Number of responses refused by tenant admission control.
    pub fn throttled(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| matches!(r.outcome, Err(JobError::QuotaExceeded(_))))
            .count()
    }
}
