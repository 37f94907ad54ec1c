//! The exploration pipeline: derive → train → render → narrate.
//!
//! [`run_exploration`] is the one implementation of the paper's pipeline (§3,
//! Fig. 1). Engine workers run it for every request, and the `linx` facade's
//! `Linx::explore` / `Linx::explore_with_ldx` run it over a fresh
//! [`DatasetContext`]. Derivation inputs (schema, sample) are precomputed per dataset
//! and shared across goals, and training, rendering and narration go through the
//! context's shared [`OpMemo`] and statistics cache, so materialized views are
//! computed once per dataset. This crate sits *below* the `linx` facade (which
//! re-exports it), so it drives the pipeline crates directly.

use std::sync::Arc;

use linx_cdrl::{CdrlConfig, CdrlTrainer, DatasetStats, TrainOutcome};
use linx_dataframe::{DataFrame, Schema, StatsCache};
use linx_explore::{narrate_with, Narrative, Notebook, OpMemo, SessionExecutor};
use linx_ldx::Ldx;
use linx_nl2ldx::{DerivationResult, SpecDeriver};

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
    /// engine-wide cache (statistics are keyed by column storage ids, unique within
    /// the process, so cross-dataset sharing is safe and the engine's byte budget is
    /// never multiplied per dataset), so the
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

/// What an exploration trains against.
#[derive(Debug, Clone)]
pub enum Spec<'a> {
    /// A natural-language goal: its LDX is derived first (the paper's Step 1), and
    /// the notebook is titled `"{dataset_id} — {goal}"`.
    Goal(&'a str),
    /// A hand-written LDX specification, trained as given, with the notebook
    /// titled `title`. The outcome's derivation is [`DerivationResult::given`].
    Ldx {
        /// The specification.
        ldx: Ldx,
        /// The notebook title.
        title: &'a str,
    },
}

/// Everything one exploration produced: the `linx` facade returns it as
/// `LinxOutcome`, and the engine keeps the parts a client is served
/// ([`ExploreResult`]).
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The specification-derivation result (meta-goal, PyLDX template, LDX).
    pub derivation: DerivationResult,
    /// The CDRL training outcome (best session, compliance flags, training log).
    pub training: TrainOutcome,
    /// The rendered notebook of the best session.
    pub notebook: Notebook,
    /// Spelled-out natural-language insights derived from the best session (the
    /// paper's stated future extension; may be empty when the session surfaces no
    /// clear contrast).
    pub narrative: Narrative,
}

impl From<Exploration> for ExploreResult {
    fn from(exploration: Exploration) -> Self {
        ExploreResult {
            ldx_canonical: exploration.derivation.ldx.canonical(),
            notebook: exploration.notebook,
            narrative: exploration.narrative,
            best_structural: exploration.training.best_structural,
            best_score: exploration.training.best_score,
        }
    }
}

/// Run one exploration end to end against a shared dataset context: derive →
/// train → render → narrate.
///
/// `sample_rows` is the request's effective linking-sample budget; when it matches
/// the context's precomputed sample the shared one is used, otherwise a
/// request-local head is taken (the budget must actually shape the derivation, not
/// just the cache key).
///
/// `cancelled` is polled between the phases (after derivation, after training,
/// after rendering); the run aborts with [`Cancelled`] as soon as it returns
/// `true`. This is the engine's cooperative deadline checkpoint: a long training
/// run still finishes its current phase, but an expired request stops burning CPU
/// on rendering and narration it will never deliver. Pass `&|| false` to run to
/// completion.
pub fn run_exploration(
    ctx: &DatasetContext,
    spec: Spec<'_>,
    cdrl: CdrlConfig,
    sample_rows: usize,
    cancelled: &dyn Fn() -> bool,
) -> Result<Exploration, Cancelled> {
    let (derivation, title) = match spec {
        Spec::Goal(goal) => {
            let request_sample;
            let sample = if sample_rows.max(5) == ctx.sample_rows {
                &ctx.sample
            } else {
                request_sample = ctx.dataset.head(sample_rows.max(5));
                &request_sample
            };
            let derivation =
                SpecDeriver::new().derive(goal, &ctx.dataset_id, &ctx.schema, Some(sample));
            (derivation, format!("{} — {goal}", ctx.dataset_id))
        }
        Spec::Ldx { ldx, title } => (DerivationResult::given(ldx), title.to_string()),
    };
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
    // goal. Both callers build the context's inventory and the request's config from
    // one configuration (budgets only vary episodes), so the slot counts agree.
    debug_assert_eq!(
        trainer.config().term_slots,
        ctx.shared.terms.slots(),
        "the request's term slots must match the context's inventory"
    );
    let training =
        trainer.train_with_shared(executor.clone(), derivation.ldx.clone(), ctx.shared.clone());
    if cancelled() {
        return Err(Cancelled);
    }
    let notebook = Notebook::render(title, &executor, &training.best_tree);
    if cancelled() {
        return Err(Cancelled);
    }
    let narrative = narrate_with(&executor, &training.best_tree);
    Ok(Exploration {
        derivation,
        training,
        notebook,
        narrative,
    })
}
