//! `linx-engine` — a sharded, concurrent, cache-aware exploration service over the
//! LINX pipeline.
//!
//! The paper presents LINX as an *interactive system*: a user states an analytical
//! goal in natural language and receives an exploration notebook. Serving that
//! interaction to many users over many datasets takes more than the one-shot
//! `Linx::explore` call — it takes a serving layer. This crate is that layer:
//!
//! * [`api`] — [`ExploreRequest`] / [`ExploreResponse`] with request ids,
//!   [`Priority`] classes, per-request [`Budget`]s, and a [`TenantId`];
//! * [`quota`] — per-tenant admission control: a [`QuotaTable`] holding every
//!   tenant to one cap on requests admitted at once, enforced in front of the
//!   worker pool;
//! * [`pool`] — a std-only worker pool whose priority queue is tenant-fair:
//!   tenants take turns one job at a time within each priority band, so one
//!   flooding tenant delays its own backlog, not everyone else's;
//! * [`cache`] — a sharded LRU result cache keyed by a stable [`fingerprint`] of
//!   `(dataset content, goal, config)`;
//! * [`persist`] — the optional disk-backed second level of the result cache: a
//!   versioned, checksummed binary codec plus a size-capped [`DiskTier`], so
//!   answers survive restarts and are shared across shards and processes;
//! * [`pipeline`] — [`pipeline::run_exploration`], the one implementation of
//!   derive → train → render → narrate, run by every worker job and by the `linx`
//!   facade;
//! * [`engine`] — one shard: worker pool, result cache, single-flight coalescing
//!   and admission, reachable only through the router, with one reply path that
//!   answers and times every submission;
//! * [`router`] — the front door: a [`Router`] owning N engine shards (one is a
//!   valid deployment) with consistent-hash dataset placement, one shared quota
//!   table, and (when configured) one shared disk tier; [`Router::run_batch`]
//!   accepts many goals against one dataset ([`batch`]) and shares the derivation
//!   inputs and materialized views across them;
//! * [`telemetry`] — per-request stage tracing ([`TraceHandle`]), latency
//!   histograms for every lifecycle stage, a ring-buffer slow-request log, and
//!   Prometheus-text / JSON exposition via [`RouterStats::render_metrics`];
//! * [`faults`] — deterministic fault injection: a process-wide [`FaultPlan`]
//!   of named failpoints (disk I/O, pool execution, placement) armed from
//!   [`EngineConfig`] or `--fault-plan`, exercising the failure domains the
//!   rest of this list hardens — request deadlines, the disk-tier circuit
//!   breaker, load shedding, and [`Router::drain`];
//! * [`http`] / [`serve`] — the network front-end: a hand-rolled, std-only
//!   HTTP/1.1 parser with documented 400/431 caps, and the `linx serve`
//!   daemon mapping the router's admission errors onto wire statuses
//!   (429/503/504) with typed JSON error bodies and a drain sequence.
//!
//! Two invariants the layers lean on:
//!
//! 1. **Cache keys include dataset content** (never names or pointers), so routing a
//!    dataset to a different shard — or restarting a process — can at worst miss a
//!    warm cache; it can never serve a stale result.
//! 2. **Quotas guard worker slots, not lookups**: result-cache hits and coalesced
//!    attachments bypass admission because they cost no training run.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the full request lifecycle
//! (fingerprint → route → cache → coalesce → admit → schedule → pipeline) and
//! [`Router`] for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod faults;
pub mod fingerprint;
pub mod http;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod quota;
pub mod router;
pub mod serve;
pub mod stats;
pub mod telemetry;

pub use api::{
    Budget, EngineConfig, ExploreRequest, ExploreResponse, ExploreResult, JobError, Priority,
    RequestId,
};
pub use batch::{BatchOutcome, BatchRequest};
pub use cache::{CacheStats, ShardedLru};
pub use engine::{Engine, JobHandle};
pub use faults::{FaultKind, FaultPlan, ScopedPlan};
pub use fingerprint::{request_fingerprint, Fingerprint};
pub use http::{HttpParseError, HttpRequest, HttpResponse};
pub use persist::{
    DiskTier, PersistConfig, ScrubReport, TierStats, TieredCache, BREAKER_CLOSED,
    BREAKER_HALF_OPEN, BREAKER_OPEN,
};
pub use pipeline::DatasetContext;
pub use pool::{PoolStats, WorkerPool};
pub use quota::{
    AdmissionGuard, QuotaExceeded, QuotaStats, QuotaTable, TenantId, TenantQuota, ThrottleReason,
};
pub use router::{
    DrainReport, RoutedContext, Router, RouterConfig, RouterStats, RoutingTable, ShardStats,
};
pub use serve::{ServeConfig, Server};
pub use stats::EngineStats;
pub use telemetry::{
    MetricsRegistry, RequestTrace, ResponseMeta, SlowEntry, Stage, TelemetrySnapshot, TierLatency,
    TraceHandle, BANDS, SLOW_LOG_CAPACITY, STAGE_COUNT,
};
