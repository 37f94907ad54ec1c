//! The request/response surface of the exploration service.

use std::fmt;
use std::sync::Arc;

use linx_cdrl::CdrlConfig;
use linx_explore::{Narrative, Notebook};
use linx_metrics::Clock;

use crate::faults::FaultPlan;
use crate::quota::{TenantId, TenantQuota};
use crate::telemetry::{Stage, TraceHandle};

/// Identifies one submitted request within an engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{:06}", self.0)
    }
}

/// Scheduling priority of a request. Higher priorities are dequeued first; ties are
/// served in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work (benchmark sweeps, prefetching).
    Low,
    /// The default for interactive requests.
    #[default]
    Normal,
    /// Latency-sensitive requests; jump the queue.
    High,
}

/// Per-request resource limits, applied on top of the engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Cap on CDRL training episodes (`None` = engine default). Lower = faster,
    /// coarser sessions.
    pub max_episodes: Option<usize>,
    /// Cap on the number of dataset rows sampled for schema/value linking.
    pub max_sample_rows: Option<usize>,
}

impl Budget {
    /// The episode budget for this request given the engine default.
    pub fn episodes(&self, default_episodes: usize) -> usize {
        match self.max_episodes {
            Some(cap) => cap.min(default_episodes.max(1)).max(1),
            None => default_episodes,
        }
    }

    /// The sample-row budget for this request given the engine default.
    pub fn sample_rows(&self, default_rows: usize) -> usize {
        match self.max_sample_rows {
            Some(cap) => cap.min(default_rows.max(5)).max(5),
            None => default_rows,
        }
    }
}

/// One exploration request: a natural-language goal against a named dataset.
///
/// The dataset itself is passed alongside the request at submission time; `dataset_id`
/// is the stable name used in prompts, titles, and telemetry.
#[derive(Debug, Clone)]
pub struct ExploreRequest {
    /// Stable dataset name (e.g. `"netflix"`).
    pub dataset_id: String,
    /// The analytical goal, in natural language.
    pub goal: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Per-request budget caps.
    pub budget: Budget,
    /// The tenant this request is billed to: admission control
    /// ([`crate::QuotaTable`]) and the worker pool's turn-taking across tenants
    /// key off it.
    pub tenant: TenantId,
    /// Per-request stage trace. Defaults to disabled; the engine activates it on
    /// submission (and [`crate::Router::submit`] activates it earlier so the
    /// routing stage is captured too). Attach a pre-activated handle with
    /// [`ExploreRequest::with_trace`] to observe the breakdown from the caller's
    /// side.
    pub trace: TraceHandle,
    /// Absolute deadline on the engine clock, in microseconds. Enforced at
    /// admission (an already-expired request is rejected before any work), at
    /// dequeue (an expired queued job is dropped and its quota budget
    /// released), and cooperatively between executor phases. `None` (the
    /// default) means the request never expires; when
    /// [`EngineConfig::default_deadline_micros`] is set, the engine stamps
    /// `now + default` onto requests that carry no explicit deadline.
    pub deadline_micros: Option<u64>,
}

impl ExploreRequest {
    /// A normal-priority, default-budget request billed to the default tenant.
    pub fn new(dataset_id: impl Into<String>, goal: impl Into<String>) -> Self {
        ExploreRequest {
            dataset_id: dataset_id.into(),
            goal: goal.into(),
            priority: Priority::Normal,
            budget: Budget::default(),
            tenant: TenantId::default(),
            trace: TraceHandle::default(),
            deadline_micros: None,
        }
    }

    /// Set the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Set the tenant.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Attach a stage-trace handle. The handle can be cloned before attaching;
    /// after the response arrives, [`TraceHandle::snapshot`] on the caller's clone
    /// yields the per-stage breakdown.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Set an absolute deadline (microseconds on the engine clock). The request
    /// is rejected with [`JobError::DeadlineExceeded`] at whichever checkpoint
    /// first observes the deadline in the past.
    pub fn with_deadline_micros(mut self, deadline_micros: u64) -> Self {
        self.deadline_micros = Some(deadline_micros);
        self
    }
}

/// The payload of a successful exploration: what a serving layer returns to a client.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Canonical form of the derived LDX specification.
    pub ldx_canonical: String,
    /// The rendered notebook of the best session.
    pub notebook: Notebook,
    /// Spelled-out insights for the best session.
    pub narrative: Narrative,
    /// Whether the best session was structurally compliant with the specification.
    pub best_structural: bool,
    /// The best session's generic exploration score.
    pub best_score: f64,
}

impl ExploreResult {
    /// Approximate resident bytes: what this entry charges against the result
    /// cache's byte budget ([`EngineConfig::cache_mem_bytes`]). Sums the string
    /// payloads (notebook code/previews/captions, narrative text) plus a fixed
    /// per-cell overhead — the dominant terms, not exact allocator accounting.
    pub fn approx_bytes(&self) -> u64 {
        const CELL_OVERHEAD: u64 = 64;
        let notebook: u64 = self
            .notebook
            .cells
            .iter()
            .map(|c| {
                CELL_OVERHEAD + (c.code.len() + c.result_preview.len() + c.caption.len()) as u64
            })
            .sum();
        let narrative: u64 = self.narrative.bullets.iter().map(|b| b.len() as u64).sum();
        (self.ldx_canonical.len() + self.notebook.title.len() + self.narrative.headline.len())
            as u64
            + notebook
            + narrative
            + CELL_OVERHEAD
    }
}

/// Why a request produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the worker survived and the panic message is preserved.
    Panicked(String),
    /// The tenant's admission quota was exhausted; retry after earlier requests
    /// respond. Carries the refused tenant id.
    QuotaExceeded(TenantId),
    /// The worker disappeared without a response (should not happen; indicates a bug).
    WorkerLost,
    /// The request's deadline passed before a result was produced. Carries the
    /// pipeline stage at which the expiry was observed: [`Stage::Admit`] (dead
    /// on arrival), [`Stage::QueueWait`] (expired while queued; the job was
    /// dropped and its quota budget released), or [`Stage::Execute`] (cancelled
    /// cooperatively between executor phases).
    DeadlineExceeded(Stage),
    /// The engine is in load-shed mode (queue depth at the configured
    /// threshold) and rejected this Low-priority request before queueing it.
    /// Retry later or resubmit at a higher priority.
    Overloaded,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "exploration job panicked: {msg}"),
            JobError::QuotaExceeded(tenant) => {
                write!(f, "tenant '{tenant}' exceeded its admission quota")
            }
            JobError::WorkerLost => write!(f, "worker lost before responding"),
            JobError::DeadlineExceeded(stage) => {
                write!(f, "deadline exceeded (at stage {})", stage.name())
            }
            JobError::Overloaded => write!(f, "engine overloaded; low-priority request shed"),
        }
    }
}

/// The response to one [`ExploreRequest`].
#[derive(Debug, Clone)]
pub struct ExploreResponse {
    /// The id assigned at submission.
    pub id: RequestId,
    /// Echo of the request's dataset id.
    pub dataset_id: String,
    /// Echo of the request's goal.
    pub goal: String,
    /// The result, or why there is none.
    pub outcome: Result<ExploreResult, JobError>,
    /// Whether the result was served without a new training run: a result-cache hit,
    /// or a successful outcome shared from an identical in-flight request
    /// (single-flight coalescing). Always `false` for failed outcomes.
    pub served_from_cache: bool,
    /// Wall-clock microseconds from submission to response.
    pub total_micros: u64,
}

/// Configuration of an [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing exploration jobs. Defaults to available parallelism,
    /// capped at 8 (training is CPU-bound; more workers than cores just thrash).
    pub workers: usize,
    /// In-memory cache budget in **approximate payload bytes** for everything this
    /// engine holds resident: split evenly between the result cache (each entry
    /// weighed by [`ExploreResult::approx_bytes`]) and the single engine-wide
    /// [`linx_dataframe::StatsCache`] (each statistic weighed by its approximate
    /// payload bytes; shared across all datasets, so the budget is never multiplied
    /// per dataset). 0 disables in-memory caching
    /// (`--cache-mem-cap` on the CLI).
    pub cache_mem_bytes: usize,
    /// The CDRL engine configuration used for jobs (per-request budgets cap
    /// `cdrl.episodes`).
    pub cdrl: CdrlConfig,
    /// Default number of dataset rows sampled for schema/value linking.
    pub sample_rows: usize,
    /// The admission cap every tenant gets (`--max-in-flight` on the CLI),
    /// enforced by the [`crate::QuotaTable`] the router shares across its
    /// shards. Defaults to unlimited (the single-tenant behavior).
    pub default_quota: TenantQuota,
    /// Optional persistent cache tier (see [`crate::persist`]): when set, results
    /// are written through to (and re-loaded from) a disk directory keyed by
    /// content fingerprints, so answers survive restarts. Under a [`crate::Router`] the tier is opened once and shared by
    /// every shard. Defaults to `None` (memory-only, the prior behavior).
    pub persist: Option<crate::persist::PersistConfig>,
    /// The clock every timing measurement in this engine reads. Defaults to the
    /// real monotonic clock; tests substitute [`Clock::manual`] to make latency
    /// histograms and stage traces deterministic.
    pub clock: Clock,
    /// Requests whose end-to-end latency meets or exceeds this many microseconds
    /// are recorded in the slow-request ring log with their full stage breakdown
    /// (`--slow-ms` on the CLI). `None` disables the slow log.
    pub slow_threshold_micros: Option<u64>,
    /// Deterministic fault-injection plan (`--fault-plan` on the CLI). When
    /// set, the engine arms the process-wide failpoint registry
    /// ([`crate::faults::arm`]) with this plan before serving; named seams
    /// (`disk.read`, `disk.write`, `disk.write.torn`, `disk.rename`,
    /// `disk.unlink`, `pool.execute`, `route.place`, `http.accept`) then inject
    /// errors, latency, or panics according to the plan's seeded schedule.
    /// `None` (the default) leaves every failpoint as a single relaxed atomic
    /// load.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Default request deadline, **relative** microseconds (`--deadline-ms` on
    /// the CLI). Applied at submission as `now + default` to requests that
    /// carry no explicit [`ExploreRequest::deadline_micros`]. `None` disables
    /// default deadlines.
    pub default_deadline_micros: Option<u64>,
    /// Load-shed threshold on total queued jobs (`--shed-threshold` on the
    /// CLI). When the pool's queue depth reaches this value, Low-priority
    /// requests that miss the cache are rejected with [`JobError::Overloaded`]
    /// before admission, keeping interactive bands responsive. `None` disables
    /// depth-based shedding.
    pub shed_queue_depth: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8);
        EngineConfig {
            workers,
            cache_mem_bytes: 64 * 1024 * 1024,
            cdrl: CdrlConfig::default(),
            sample_rows: 200,
            default_quota: TenantQuota::default(),
            persist: None,
            clock: Clock::real(),
            slow_threshold_micros: None,
            fault_plan: None,
            default_deadline_micros: None,
            shed_queue_depth: None,
        }
    }
}

impl EngineConfig {
    /// A configuration with a reduced training budget for tests, demos, and benches.
    pub fn fast() -> Self {
        EngineConfig {
            cdrl: CdrlConfig {
                episodes: 80,
                ..CdrlConfig::default()
            },
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_cap_but_never_zero() {
        let b = Budget::default();
        assert_eq!(b.episodes(300), 300);
        assert_eq!(b.sample_rows(200), 200);
        let b = Budget {
            max_episodes: Some(50),
            max_sample_rows: Some(0),
        };
        assert_eq!(b.episodes(300), 50);
        assert_eq!(b.episodes(0), 1);
        assert_eq!(b.sample_rows(200), 5);
    }

    #[test]
    fn priorities_order_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn request_ids_render_padded() {
        assert_eq!(RequestId(7).to_string(), "req-000007");
    }
}
