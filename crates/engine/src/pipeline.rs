//! The exploration pipeline as executed by engine workers.
//!
//! Mirrors `linx::Linx::explore` (derive → train → render → narrate) but is shaped for
//! serving: derivation inputs (schema, sample) are precomputed per dataset and shared
//! across a batch, and rendering goes through a shared [`OpMemo`] so materialized views
//! are computed once per dataset. This crate sits *below* the `linx` facade (which
//! re-exports it), so it drives the pipeline crates directly.

use std::sync::Arc;

use linx_cdrl::{CdrlConfig, CdrlTrainer, DatasetStats};
use linx_dataframe::{DataFrame, Schema, StatsCache};
use linx_explore::{narrate_with, Notebook, OpMemo, SessionExecutor};
use linx_nl2ldx::SpecDeriver;

use crate::api::ExploreResult;

/// Per-dataset context shared by every job of a batch: the inputs of specification
/// derivation, rewarding, and rendering that do not depend on the goal.
#[derive(Debug, Clone)]
pub struct DatasetContext {
    /// The full dataset.
    pub dataset: DataFrame,
    /// Stable dataset name used in prompts and titles.
    pub dataset_id: String,
    /// Content fingerprint of `dataset` (computed once).
    pub dataset_fp: u64,
    /// The schema (computed once).
    pub schema: Schema,
    /// The head sample used for schema/value linking (computed once).
    pub sample: DataFrame,
    /// How many rows `sample` was built from (requests with a smaller sample budget
    /// re-derive their own head).
    pub sample_rows: usize,
    /// Shared memo of materialized op results for this dataset.
    pub memo: Arc<OpMemo>,
    /// Shared per-dataset CDRL statistics (term inventory, featurizer, and the
    /// view-level stats cache), built once and reused by every goal trained against
    /// this dataset.
    pub shared: DatasetStats,
}

impl DatasetContext {
    /// Build the shared context for a dataset: one linear fingerprint scan, one `head`
    /// clone, plus one pass deriving the term inventory / featurizer (`term_slots`
    /// filter-term candidates per column) — all shared by every job of the batch.
    pub fn new(
        dataset: &DataFrame,
        dataset_id: impl Into<String>,
        sample_rows: usize,
        term_slots: usize,
    ) -> Self {
        Self::with_stats(
            dataset,
            dataset_id,
            sample_rows,
            term_slots,
            Arc::new(StatsCache::default()),
        )
    }

    /// Like [`DatasetContext::new`], but with an explicit — typically *shared* —
    /// view-statistics cache. [`crate::Engine`] hands every context its one
    /// engine-wide cache (statistics are content-keyed, so cross-dataset sharing is
    /// safe and the engine's byte budget is never multiplied per dataset), so the
    /// inventory/featurizer build and every reward computed later against this
    /// context share one set of memoized histograms. The cache is memory-only: it
    /// starts empty in every process.
    pub fn with_stats(
        dataset: &DataFrame,
        dataset_id: impl Into<String>,
        sample_rows: usize,
        term_slots: usize,
        stats: Arc<StatsCache>,
    ) -> Self {
        let sample_rows = sample_rows.max(5);
        DatasetContext {
            dataset: dataset.clone(),
            dataset_id: dataset_id.into(),
            dataset_fp: dataset.fingerprint(),
            schema: dataset.schema(),
            sample: dataset.head(sample_rows),
            sample_rows,
            memo: Arc::new(OpMemo::new()),
            shared: DatasetStats::build_with_cache(dataset, term_slots, stats),
        }
    }
}

/// The exploration was cancelled at a cooperative checkpoint (its deadline
/// passed between executor phases). Carries no stage: the caller observing the
/// cancellation knows which checkpoint it polled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// Run one exploration end to end against a shared dataset context.
///
/// `sample_rows` is the request's effective linking-sample budget; when it matches the
/// context's precomputed sample the shared one is used, otherwise a request-local head
/// is taken (the budget must actually shape the derivation, not just the cache key).
pub fn run_exploration(
    ctx: &DatasetContext,
    goal: &str,
    cdrl: CdrlConfig,
    sample_rows: usize,
) -> ExploreResult {
    match run_exploration_cancellable(ctx, goal, cdrl, sample_rows, &|| false) {
        Ok(result) => result,
        Err(Cancelled) => unreachable!("the never-cancel closure cannot cancel"),
    }
}

/// Like [`run_exploration`], but polls `cancelled` between the pipeline's
/// phases (after derivation, after training, after rendering) and aborts with
/// [`Cancelled`] as soon as it returns `true`. This is the engine's cooperative
/// deadline checkpoint: a long training run still finishes its current phase,
/// but an expired request stops burning CPU on rendering and narration it will
/// never deliver.
pub fn run_exploration_cancellable(
    ctx: &DatasetContext,
    goal: &str,
    cdrl: CdrlConfig,
    sample_rows: usize,
    cancelled: &dyn Fn() -> bool,
) -> Result<ExploreResult, Cancelled> {
    let request_sample;
    let sample = if sample_rows.max(5) == ctx.sample_rows {
        &ctx.sample
    } else {
        request_sample = ctx.dataset.head(sample_rows.max(5));
        &request_sample
    };
    let derivation = SpecDeriver::new().derive(goal, &ctx.dataset_id, &ctx.schema, Some(sample));
    if cancelled() {
        return Err(Cancelled);
    }
    let trainer = CdrlTrainer::new(cdrl);
    let executor = SessionExecutor::with_memo(ctx.dataset.clone(), Arc::clone(&ctx.memo))
        .with_stats(Arc::clone(&ctx.shared.stats));
    // Training, rendering, and narration all execute through the shared memo and the
    // shared per-dataset statistics: repeated op sequences — within a training run and
    // across the batch's goals — materialize once per dataset, and reward histograms /
    // term inventories / featurizers are computed once per dataset rather than per
    // goal. (A request whose config asks for a different term-slot count than the
    // precomputed inventory rebuilds its own; budgets only vary episodes, so in
    // practice the shared inventory is always used.)
    let shared = if trainer.config().term_slots == ctx.shared.terms.slots() {
        ctx.shared.clone()
    } else {
        DatasetStats::build_with_cache(
            &ctx.dataset,
            trainer.config().term_slots,
            Arc::clone(&ctx.shared.stats),
        )
    };
    let outcome = trainer.train_with_shared(executor.clone(), derivation.ldx.clone(), shared);
    if cancelled() {
        return Err(Cancelled);
    }
    let title = format!("{} — {}", ctx.dataset_id, goal);
    let notebook = Notebook::render(title, &executor, &outcome.best_tree);
    if cancelled() {
        return Err(Cancelled);
    }
    let narrative = narrate_with(&executor, &outcome.best_tree);
    Ok(ExploreResult {
        ldx_canonical: derivation.ldx.canonical(),
        notebook,
        narrative,
        best_structural: outcome.best_structural,
        best_score: outcome.best_score,
    })
}
