//! Serving-stack telemetry: per-request stage traces, the engine's metrics
//! registry, the slow-request log, and the Prometheus/JSON exposition layer.
//!
//! Built on the primitives in [`linx_metrics::telemetry`] (mockable [`Clock`],
//! lock-free [`LatencyHistogram`]), this module answers the operational question
//! the lifetime counters in [`EngineStats`](crate::EngineStats) cannot: *where
//! did this request spend its time?*
//!
//! * [`Stage`] names the measured phases of the request lifecycle
//!   (route → cache-lookup → admit → queue-wait → execute → disk I/O → respond).
//! * [`TraceHandle`] is the per-request span record: carried on
//!   [`ExploreRequest`](crate::ExploreRequest), activated by the engine at
//!   intake, written lock-free from whichever thread runs each stage, and
//!   snapshotted into a [`RequestTrace`] at response time.
//! * [`MetricsRegistry`] holds the engine-owned instruments (cache-lookup and
//!   end-to-end latency histograms) plus the ring-buffer slow-request log;
//!   pool-, quota-, disk-, and router-owned histograms live with the component
//!   they measure and are assembled into a [`TelemetrySnapshot`] per shard.
//! * [`TelemetrySnapshot`] merges across shards exactly like
//!   [`EngineStats::merge`](crate::EngineStats::merge) — with the same caveat
//!   that instruments on *shared* components (the quota table, the disk tier,
//!   the router's ring) must be overwritten from the shared instance once, not
//!   summed per shard.
//! * [`RouterStats::render_metrics`](crate::RouterStats::render_metrics) /
//!   [`render_json`](crate::RouterStats::render_json) are the exposition
//!   formats: Prometheus text (the future `linx serve` `/metrics` body) and a
//!   JSON snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linx_metrics::{Clock, HistogramSnapshot, LatencyHistogram, BUCKETS};

use crate::api::{Priority, RequestId};
use crate::quota::TenantId;
use crate::router::RouterStats;

/// Number of measured lifecycle stages (the variants of [`Stage`]).
pub const STAGE_COUNT: usize = 7;

/// Priority-band label values, indexed like the pool's internal bands
/// (0 = High, 1 = Normal, 2 = Low). Used as the `band="..."` label in the
/// Prometheus exposition and as JSON keys.
pub const BANDS: [&str; 3] = ["high", "normal", "low"];

/// How many entries the slow-request ring log retains (oldest evicted first).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// One measured phase of the request lifecycle, in observation order.
///
/// `DiskIo` covers the per-request write-through of a computed result to the
/// persistent tier; disk *loads* happen inside the tiered cache lookup and are
/// accounted under `CacheLookup` (the tier's own read/write/evict histograms
/// split them out globally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Consistent-hash placement of the dataset onto a shard.
    Route = 0,
    /// Result-cache lookup (memory tier, falling through to the disk tier).
    CacheLookup = 1,
    /// Tenant admission control ([`crate::QuotaTable`]).
    Admit = 2,
    /// Waiting in the worker pool's fair queue for a worker slot.
    QueueWait = 3,
    /// The exploration pipeline (derive → train → render → narrate).
    Execute = 4,
    /// Writing the computed result through to the cache tiers.
    DiskIo = 5,
    /// Serving coalesced waiters and sending the response.
    Respond = 6,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Route,
        Stage::CacheLookup,
        Stage::Admit,
        Stage::QueueWait,
        Stage::Execute,
        Stage::DiskIo,
        Stage::Respond,
    ];

    /// The stage's snake_case name, used in metric names, slow-log dumps, and
    /// JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Route => "route",
            Stage::CacheLookup => "cache_lookup",
            Stage::Admit => "admit",
            Stage::QueueWait => "queue_wait",
            Stage::Execute => "execute",
            Stage::DiskIo => "disk_io",
            Stage::Respond => "respond",
        }
    }
}

#[derive(Debug)]
struct TraceInner {
    clock: Clock,
    born_micros: u64,
    stages: [AtomicU64; STAGE_COUNT],
}

/// The per-request span record, threaded through the full lifecycle.
///
/// Cheap to clone (an `Arc` bump) and lock-free to write: each stage
/// accumulates microseconds into its own atomic, so the intake thread, a
/// worker thread, and the router can all contribute to one trace. A default
/// handle is *disabled* (no allocation, every operation a no-op); the engine
/// activates it at intake via [`TraceHandle::ensure`], so callers constructing
/// requests never pay for tracing they didn't ask for.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<TraceInner>>);

impl TraceHandle {
    /// A disabled handle: all operations are no-ops (this is also `default()`).
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// An active handle born now on `clock`.
    pub fn active(clock: &Clock) -> Self {
        TraceHandle(Some(Arc::new(TraceInner {
            clock: clock.clone(),
            born_micros: clock.now_micros(),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }

    /// Whether this handle records anything.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// This handle if active, otherwise a fresh active handle on `clock`.
    pub fn ensure(&self, clock: &Clock) -> TraceHandle {
        if self.is_active() {
            self.clone()
        } else {
            TraceHandle::active(clock)
        }
    }

    /// Accumulate `micros` into a stage (no-op when disabled).
    pub fn add(&self, stage: Stage, micros: u64) {
        if let Some(inner) = &self.0 {
            inner.stages[stage as usize].fetch_add(micros, Ordering::Relaxed);
        }
    }

    /// Microseconds since the handle was activated (0 when disabled).
    pub fn total_micros(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.clock.now_micros().saturating_sub(inner.born_micros),
            None => 0,
        }
    }

    /// A plain-value copy of the stage timings recorded so far.
    pub fn snapshot(&self) -> RequestTrace {
        match &self.0 {
            Some(inner) => RequestTrace {
                stage_micros: std::array::from_fn(|i| inner.stages[i].load(Ordering::Relaxed)),
                total_micros: self.total_micros(),
            },
            None => RequestTrace::default(),
        }
    }
}

/// A completed (or in-progress) request's stage breakdown: plain values,
/// comparable and copyable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// Microseconds accumulated per stage, indexed by `Stage as usize`.
    pub stage_micros: [u64; STAGE_COUNT],
    /// Microseconds from trace activation to the snapshot.
    pub total_micros: u64,
}

impl RequestTrace {
    /// Microseconds spent in one stage.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_micros[stage as usize]
    }

    /// Sum of all stage timings (the *accounted* portion of `total_micros`;
    /// the remainder is untimed glue).
    pub fn accounted_micros(&self) -> u64 {
        self.stage_micros.iter().sum()
    }

    /// The stage breakdown as one line, in lifecycle order, milliseconds:
    /// `route=0.0 cache_lookup=0.2 ... respond=0.0 (ms)`.
    pub fn breakdown(&self) -> String {
        let mut out = String::with_capacity(96);
        for stage in Stage::ALL {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!(
                "{}={:.1}",
                stage.name(),
                self.stage(stage) as f64 / 1000.0
            ));
        }
        out.push_str(" (ms)");
        out
    }
}

/// One entry of the slow-request log: request identity plus its stage
/// breakdown at response time.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The id assigned at submission.
    pub id: RequestId,
    /// The request's dataset.
    pub dataset_id: String,
    /// The request's goal.
    pub goal: String,
    /// The tenant billed.
    pub tenant: TenantId,
    /// The scheduling priority.
    pub priority: Priority,
    /// Whether the response was served without a new training run.
    pub served_from_cache: bool,
    /// The router shard that served the request; `None` on a bare engine.
    pub shard: Option<usize>,
    /// The stage breakdown at response time.
    pub trace: RequestTrace,
}

impl SlowEntry {
    /// One human-readable line: identity, total, then the stage breakdown.
    pub fn render(&self) -> String {
        let shard = match self.shard {
            Some(s) => format!("[shard {s}] "),
            None => String::new(),
        };
        format!(
            "{id} {shard}{dataset} tenant={tenant} priority={priority:?} source={source} total={total:.1}ms | {breakdown} | goal: {goal:?}",
            id = self.id,
            dataset = self.dataset_id,
            tenant = self.tenant,
            priority = self.priority,
            source = if self.served_from_cache { "cache" } else { "computed" },
            total = self.trace.total_micros as f64 / 1000.0,
            breakdown = self.trace.breakdown(),
            goal = self.goal,
        )
    }
}

/// Request identity handed to [`MetricsRegistry::observe_response`] alongside
/// the trace (borrowed so the hot path clones nothing unless the request is
/// actually slow).
#[derive(Debug, Clone, Copy)]
pub struct ResponseMeta<'a> {
    /// The id assigned at submission.
    pub id: RequestId,
    /// The request's dataset.
    pub dataset_id: &'a str,
    /// The request's goal.
    pub goal: &'a str,
    /// The tenant billed.
    pub tenant: &'a TenantId,
    /// The scheduling priority.
    pub priority: Priority,
    /// Whether the response was served without a new training run.
    pub served_from_cache: bool,
}

/// The engine-owned instruments: lock-free latency histograms for the stages
/// the engine itself measures, and the ring-buffer slow-request log.
///
/// Component-owned histograms (queue wait and execution per band in the pool,
/// admission in the quota table, read/write/evict in the disk tier, routing in
/// the router) live with their components; [`crate::Router::stats`]
/// assembles everything into one [`TelemetrySnapshot`]. Recording is atomic
/// RMW only — the single lock here guards the slow log, taken solely for
/// responses that crossed the slow threshold.
#[derive(Debug)]
pub struct MetricsRegistry {
    clock: Clock,
    cache_lookup_micros: LatencyHistogram,
    total_micros: LatencyHistogram,
    /// Responses at or above this many microseconds enter the slow log
    /// (`u64::MAX` disables).
    slow_threshold_micros: u64,
    slow: Mutex<VecDeque<SlowEntry>>,
}

impl MetricsRegistry {
    /// A registry timing against `clock`; `slow_threshold_micros: None`
    /// disables the slow log.
    pub fn new(clock: Clock, slow_threshold_micros: Option<u64>) -> Self {
        MetricsRegistry {
            clock,
            cache_lookup_micros: LatencyHistogram::new(),
            total_micros: LatencyHistogram::new(),
            slow_threshold_micros: slow_threshold_micros.unwrap_or(u64::MAX),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
        }
    }

    /// The clock every engine timing flows through.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Record one result-cache lookup latency.
    pub fn record_cache_lookup(&self, micros: u64) {
        self.cache_lookup_micros.record(micros);
    }

    /// Record one end-to-end response latency without slow-log consideration
    /// (coalesced waiters and quota refusals use this).
    pub fn record_total(&self, micros: u64) {
        self.total_micros.record(micros);
    }

    /// Record a response end-to-end: its total latency, and — if it crossed
    /// the slow threshold — a slow-log entry with the full stage breakdown.
    /// Returns the total, so callers put the same number in the response.
    pub fn observe_response(&self, meta: ResponseMeta<'_>, trace: &TraceHandle) -> u64 {
        let total = trace.total_micros();
        self.total_micros.record(total);
        if total >= self.slow_threshold_micros {
            let entry = SlowEntry {
                id: meta.id,
                dataset_id: meta.dataset_id.to_string(),
                goal: meta.goal.to_string(),
                tenant: meta.tenant.clone(),
                priority: meta.priority,
                served_from_cache: meta.served_from_cache,
                shard: None,
                trace: trace.snapshot(),
            };
            let mut slow = self.slow.lock().expect("slow-log lock");
            if slow.len() == SLOW_LOG_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(entry);
        }
        total
    }

    /// The result-cache lookup latency distribution.
    pub fn cache_lookup(&self) -> HistogramSnapshot {
        self.cache_lookup_micros.snapshot()
    }

    /// The end-to-end response latency distribution.
    pub fn request_total(&self) -> HistogramSnapshot {
        self.total_micros.snapshot()
    }

    /// The slow-request log, oldest first.
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        self.slow
            .lock()
            .expect("slow-log lock")
            .iter()
            .cloned()
            .collect()
    }
}

/// The disk tier's operation latencies (read, write, evict, sync), snapshotted
/// together. All-zero when no tier is mounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierLatency {
    /// Entry loads (`fs::read` + decode), hits and misses alike.
    pub read: HistogramSnapshot,
    /// Entry stores (encode is the caller's; this is temp-write + rename).
    pub write: HistogramSnapshot,
    /// Size-cap eviction scans.
    pub evict: HistogramSnapshot,
    /// Durable-mode `fsync`s of the temp file before rename (empty unless the
    /// tier runs with [`PersistConfig::with_durable`](crate::PersistConfig)).
    pub sync: HistogramSnapshot,
}

impl TierLatency {
    /// Elementwise merge (see [`HistogramSnapshot::merge`]).
    pub fn merge(self, other: &TierLatency) -> TierLatency {
        TierLatency {
            read: self.read.merge(&other.read),
            write: self.write.merge(&other.write),
            evict: self.evict.merge(&other.evict),
            sync: self.sync.merge(&other.sync),
        }
    }
}

/// Every latency distribution of one engine shard (or, merged, of a whole
/// router), the histogram-side complement of [`EngineStats`](crate::EngineStats).
///
/// Merging note, mirrored from [`EngineStats::merge`](crate::EngineStats::merge):
/// `admit`, `disk`, and `route` are measured on components *shared* across
/// shards (the quota table, the disk tier, the router's ring), so a per-shard
/// snapshot repeats the shared instrument. [`crate::Router::stats`] folds
/// shards with [`TelemetrySnapshot::merge`] and then overwrites those three
/// from the shared instances once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Consistent-hash placement latency (router-owned; zero on a bare engine).
    pub route: HistogramSnapshot,
    /// Admission-control latency (quota-table-owned).
    pub admit: HistogramSnapshot,
    /// Result-cache lookup latency (engine-owned).
    pub cache_lookup: HistogramSnapshot,
    /// Queue-wait latency per priority band (pool-owned; see [`BANDS`]).
    pub queue_wait: [HistogramSnapshot; 3],
    /// Job execution latency per priority band (pool-owned; see [`BANDS`]).
    pub execute: [HistogramSnapshot; 3],
    /// Disk-tier operation latencies (tier-owned).
    pub disk: TierLatency,
    /// End-to-end response latency (engine-owned).
    pub total: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// Elementwise merge for aggregating shards (see the shared-instrument
    /// caveat on the type docs).
    pub fn merge(self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            route: self.route.merge(&other.route),
            admit: self.admit.merge(&other.admit),
            cache_lookup: self.cache_lookup.merge(&other.cache_lookup),
            queue_wait: std::array::from_fn(|i| self.queue_wait[i].merge(&other.queue_wait[i])),
            execute: std::array::from_fn(|i| self.execute[i].merge(&other.execute[i])),
            disk: self.disk.merge(&other.disk),
            total: self.total.merge(&other.total),
        }
    }
}

// --- exposition -------------------------------------------------------------------

pub(crate) fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

pub(crate) fn push_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Append one histogram series in the Prometheus convention: cumulative
/// `_bucket{le="..."}` samples, then `_sum` and `_count`.
pub(crate) fn push_histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    h: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        cumulative += n;
        let le = if i == BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            (1u64 << i).to_string()
        };
        if labels.is_empty() {
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        } else {
            out.push_str(&format!(
                "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
            ));
        }
    }
    push_sample(out, &format!("{name}_sum"), labels, h.sum);
    push_sample(out, &format!("{name}_count"), labels, h.count);
}

/// Append a whole histogram family: header plus one series per label set.
fn push_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(&str, &HistogramSnapshot)],
) {
    push_family(out, name, "histogram", help);
    for (labels, h) in series {
        push_histogram_series(out, name, labels, h);
    }
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum_micros\":{},\"mean_micros\":{:.1},\"p50_micros\":{},\"p95_micros\":{},\"p99_micros\":{},\"max_micros\":{}}}",
        h.count,
        h.sum,
        h.mean(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max,
    )
}

fn json_banded(per_band: &[HistogramSnapshot; 3]) -> String {
    let entries: Vec<String> = BANDS
        .iter()
        .zip(per_band.iter())
        .map(|(band, h)| format!("{band:?}:{}", json_histogram(h)))
        .collect();
    format!("{{{}}}", entries.join(","))
}

impl RouterStats {
    /// The Prometheus text exposition of the whole router: every counter and
    /// gauge from the aggregated [`EngineStats`](crate::EngineStats), per-shard
    /// routing counters, and every latency histogram with per-priority-band
    /// labels. This is the exact body the `linx serve` `/metrics` route will
    /// return; `serve-batch --metrics-out metrics.txt` writes it to a file.
    ///
    /// Every metric family is always present (zero-valued when idle), so
    /// scrapers and the golden-format test see a deterministic name set.
    pub fn render_metrics(&self) -> String {
        let agg = self.aggregate();
        let t = &self.telemetry;
        let mut out = String::with_capacity(24 * 1024);

        push_family(
            &mut out,
            "linx_requests_submitted_total",
            "counter",
            "Requests accepted by submit, including coalesced and cache-served ones.",
        );
        push_sample(&mut out, "linx_requests_submitted_total", "", agg.submitted);
        push_family(
            &mut out,
            "linx_requests_coalesced_total",
            "counter",
            "Requests attached to an identical in-flight request (single-flight).",
        );
        push_sample(&mut out, "linx_requests_coalesced_total", "", agg.coalesced);
        push_family(
            &mut out,
            "linx_requests_rejected_total",
            "counter",
            "Requests rejected because the engine was shutting down.",
        );
        push_sample(&mut out, "linx_requests_rejected_total", "", agg.rejected);

        push_family(
            &mut out,
            "linx_routed_total",
            "counter",
            "Requests and batch goals forwarded to each shard.",
        );
        for (shard, s) in self.shards.iter().enumerate() {
            push_sample(
                &mut out,
                "linx_routed_total",
                &format!("shard=\"{shard}\""),
                s.routed,
            );
        }

        push_family(
            &mut out,
            "linx_cache_hits_total",
            "counter",
            "Result-cache hits per tier.",
        );
        push_sample(
            &mut out,
            "linx_cache_hits_total",
            "tier=\"memory\"",
            agg.cache.hits,
        );
        push_sample(
            &mut out,
            "linx_cache_hits_total",
            "tier=\"disk\"",
            self.tier.hits,
        );
        push_family(
            &mut out,
            "linx_cache_misses_total",
            "counter",
            "Result-cache misses per tier.",
        );
        push_sample(
            &mut out,
            "linx_cache_misses_total",
            "tier=\"memory\"",
            agg.cache.misses,
        );
        push_sample(
            &mut out,
            "linx_cache_misses_total",
            "tier=\"disk\"",
            self.tier.misses,
        );
        push_family(
            &mut out,
            "linx_cache_evictions_total",
            "counter",
            "Entries evicted per tier (memory: LRU byte budget; disk: size cap).",
        );
        push_sample(
            &mut out,
            "linx_cache_evictions_total",
            "tier=\"memory\"",
            agg.cache.evictions,
        );
        push_sample(
            &mut out,
            "linx_cache_evictions_total",
            "tier=\"disk\"",
            self.tier.evictions,
        );
        push_family(
            &mut out,
            "linx_cache_entries",
            "gauge",
            "Entries resident per tier.",
        );
        push_sample(
            &mut out,
            "linx_cache_entries",
            "tier=\"memory\"",
            agg.cache.entries,
        );
        push_sample(
            &mut out,
            "linx_cache_entries",
            "tier=\"disk\"",
            self.tier.entries,
        );

        push_family(
            &mut out,
            "linx_tier_load_errors_total",
            "counter",
            "Disk-tier files that existed but failed to decode (deleted on contact).",
        );
        push_sample(
            &mut out,
            "linx_tier_load_errors_total",
            "",
            self.tier.load_errors,
        );
        push_family(
            &mut out,
            "linx_tier_stores_total",
            "counter",
            "Disk-tier entries written.",
        );
        push_sample(&mut out, "linx_tier_stores_total", "", self.tier.stores);
        push_family(
            &mut out,
            "linx_tier_bytes",
            "gauge",
            "Disk-tier resident bytes (approximate under external writers).",
        );
        push_sample(&mut out, "linx_tier_bytes", "", self.tier.bytes);

        push_family(
            &mut out,
            "linx_pool_workers",
            "gauge",
            "Worker threads across all shards.",
        );
        push_sample(&mut out, "linx_pool_workers", "", agg.pool.workers);
        push_family(
            &mut out,
            "linx_pool_completed_total",
            "counter",
            "Jobs run to completion (including caught panics).",
        );
        push_sample(
            &mut out,
            "linx_pool_completed_total",
            "",
            agg.pool.completed,
        );
        push_family(
            &mut out,
            "linx_pool_panicked_total",
            "counter",
            "Jobs whose execution panicked (caught; workers survived).",
        );
        push_sample(&mut out, "linx_pool_panicked_total", "", agg.pool.panicked);
        push_family(
            &mut out,
            "linx_pool_queued_now",
            "gauge",
            "Jobs waiting in the queue right now, per priority band.",
        );
        for (i, band) in BANDS.iter().enumerate() {
            push_sample(
                &mut out,
                "linx_pool_queued_now",
                &format!("band=\"{band}\""),
                agg.pool.queued_now[i],
            );
        }
        push_family(
            &mut out,
            "linx_pool_in_flight_now",
            "gauge",
            "Jobs executing right now, per priority band.",
        );
        for (i, band) in BANDS.iter().enumerate() {
            push_sample(
                &mut out,
                "linx_pool_in_flight_now",
                &format!("band=\"{band}\""),
                agg.pool.in_flight_now[i],
            );
        }

        push_family(
            &mut out,
            "linx_quota_admitted_total",
            "counter",
            "Requests admitted past the quota gate.",
        );
        push_sample(
            &mut out,
            "linx_quota_admitted_total",
            "",
            self.quota.admitted,
        );
        push_family(
            &mut out,
            "linx_quota_throttled_total",
            "counter",
            "Requests refused admission, by exhausted budget.",
        );
        push_sample(
            &mut out,
            "linx_quota_throttled_total",
            "reason=\"queue_cap\"",
            self.quota.throttled_queue,
        );
        push_sample(
            &mut out,
            "linx_quota_throttled_total",
            "reason=\"in_flight_cap\"",
            self.quota.throttled_in_flight,
        );
        push_family(
            &mut out,
            "linx_quota_queued",
            "gauge",
            "Requests admitted and waiting for a worker, across all tenants.",
        );
        push_sample(&mut out, "linx_quota_queued", "", self.quota.queued);
        push_family(
            &mut out,
            "linx_quota_running",
            "gauge",
            "Requests executing, across all tenants.",
        );
        push_sample(&mut out, "linx_quota_running", "", self.quota.running);
        push_family(
            &mut out,
            "linx_quota_tenants",
            "gauge",
            "Tenants holding budget or an explicit quota override.",
        );
        push_sample(&mut out, "linx_quota_tenants", "", self.quota.tenants);

        push_family(
            &mut out,
            "linx_deadline_expired_total",
            "counter",
            "Requests that ran out of deadline budget, by the checkpoint stage that noticed.",
        );
        for stage in [Stage::Admit, Stage::QueueWait, Stage::Execute] {
            push_sample(
                &mut out,
                "linx_deadline_expired_total",
                &format!("stage=\"{}\"", stage.name()),
                agg.deadline_expired[stage as usize],
            );
        }
        push_family(
            &mut out,
            "linx_shed_total",
            "counter",
            "Low-priority requests rejected by overload protection before queueing.",
        );
        push_sample(&mut out, "linx_shed_total", "", agg.shed);
        push_family(
            &mut out,
            "linx_disk_unlink_errors_total",
            "counter",
            "Disk-tier entry files that could not be removed (evictor skips them).",
        );
        push_sample(
            &mut out,
            "linx_disk_unlink_errors_total",
            "",
            self.tier.unlink_errors,
        );
        push_family(
            &mut out,
            "linx_disk_retries_total",
            "counter",
            "Disk-tier store attempts retried after a transient write failure.",
        );
        push_sample(&mut out, "linx_disk_retries_total", "", self.tier.retries);
        push_family(
            &mut out,
            "linx_breaker_state",
            "gauge",
            "Disk-tier circuit breaker state: 0 closed, 1 open, 2 half-open.",
        );
        push_sample(
            &mut out,
            "linx_breaker_state",
            "",
            u64::from(self.tier.breaker_state),
        );
        push_family(
            &mut out,
            "linx_breaker_trips_total",
            "counter",
            "Times the disk-tier circuit breaker opened on consecutive failures.",
        );
        push_sample(
            &mut out,
            "linx_breaker_trips_total",
            "",
            self.tier.breaker_trips,
        );
        push_family(
            &mut out,
            "linx_scrub_scanned_total",
            "counter",
            "Disk-tier entry files examined by the startup scrub.",
        );
        push_sample(
            &mut out,
            "linx_scrub_scanned_total",
            "",
            self.tier.scrub_scanned,
        );
        push_family(
            &mut out,
            "linx_scrub_quarantined_total",
            "counter",
            "Corrupt entry files the startup scrub moved into quarantine/.",
        );
        push_sample(
            &mut out,
            "linx_scrub_quarantined_total",
            "",
            self.tier.scrub_quarantined,
        );

        push_histogram_family(
            &mut out,
            "linx_route_micros",
            "Consistent-hash placement latency.",
            &[("", &t.route)],
        );
        push_histogram_family(
            &mut out,
            "linx_admit_micros",
            "Admission-control decision latency (admissions and refusals).",
            &[("", &t.admit)],
        );
        push_histogram_family(
            &mut out,
            "linx_cache_lookup_micros",
            "Result-cache lookup latency (memory tier plus disk fallthrough).",
            &[("", &t.cache_lookup)],
        );
        let queue_wait: Vec<(String, &HistogramSnapshot)> = BANDS
            .iter()
            .zip(t.queue_wait.iter())
            .map(|(band, h)| (format!("band=\"{band}\""), h))
            .collect();
        let queue_wait: Vec<(&str, &HistogramSnapshot)> =
            queue_wait.iter().map(|(l, h)| (l.as_str(), *h)).collect();
        push_histogram_family(
            &mut out,
            "linx_queue_wait_micros",
            "Time from enqueue to a worker picking the job up, per priority band.",
            &queue_wait,
        );
        let execute: Vec<(String, &HistogramSnapshot)> = BANDS
            .iter()
            .zip(t.execute.iter())
            .map(|(band, h)| (format!("band=\"{band}\""), h))
            .collect();
        let execute: Vec<(&str, &HistogramSnapshot)> =
            execute.iter().map(|(l, h)| (l.as_str(), *h)).collect();
        push_histogram_family(
            &mut out,
            "linx_execute_micros",
            "Job execution latency, per priority band.",
            &execute,
        );
        push_histogram_family(
            &mut out,
            "linx_disk_read_micros",
            "Disk-tier entry load latency (read + decode), hits and misses alike.",
            &[("", &t.disk.read)],
        );
        push_histogram_family(
            &mut out,
            "linx_disk_write_micros",
            "Disk-tier entry store latency (temp write + atomic rename).",
            &[("", &t.disk.write)],
        );
        push_histogram_family(
            &mut out,
            "linx_disk_sync_micros",
            "Durable-mode fsync latency on the disk-tier store path.",
            &[("", &t.disk.sync)],
        );
        push_histogram_family(
            &mut out,
            "linx_disk_evict_micros",
            "Disk-tier size-cap eviction scan latency.",
            &[("", &t.disk.evict)],
        );
        push_histogram_family(
            &mut out,
            "linx_request_total_micros",
            "End-to-end latency from submission to response.",
            &[("", &t.total)],
        );
        out
    }

    /// The JSON snapshot exposition: the same counters as
    /// [`RouterStats::render_metrics`] plus per-histogram summaries
    /// (count, mean, p50/p95/p99, max) instead of raw buckets.
    /// `serve-batch --metrics-out metrics.json` writes this form.
    pub fn render_json(&self) -> String {
        let agg = self.aggregate();
        let t = &self.telemetry;
        let shards: Vec<String> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"shard\":{i},\"routed\":{},\"submitted\":{},\"coalesced\":{},\"cache_hits\":{}}}",
                    s.routed, s.engine.submitted, s.engine.coalesced, s.engine.cache.hits,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"requests\": {{\"submitted\":{submitted},\"coalesced\":{coalesced},\"rejected\":{rejected},\"coalesce_rate\":{coalesce_rate:.4}}},\n",
                "  \"cache\": {{\n",
                "    \"memory\": {{\"hits\":{mhits},\"misses\":{mmisses},\"evictions\":{mevict},\"entries\":{mentries},\"hit_rate\":{mrate:.4}}},\n",
                "    \"disk\": {{\"hits\":{dhits},\"misses\":{dmisses},\"load_errors\":{derr},\"stores\":{dstores},\"evictions\":{devict},\"entries\":{dentries},\"bytes\":{dbytes},\"hit_rate\":{drate:.4},\"unlink_errors\":{dunlink},\"retries\":{dretries},\"scrub_scanned\":{dscanned},\"scrub_quarantined\":{dquarantined},\"orphans_reclaimed\":{dorphans}}}\n",
                "  }},\n",
                "  \"pool\": {{\"workers\":{workers},\"completed\":{completed},\"panicked\":{panicked},\"queued\":{queued},\"queued_now\":{queued_now},\"in_flight_now\":{in_flight_now}}},\n",
                "  \"quota\": {{\"admitted\":{admitted},\"throttled\":{throttled},\"throttled_queue\":{tq},\"throttled_in_flight\":{tif},\"queued\":{qqueued},\"running\":{qrunning},\"tenants\":{tenants}}},\n",
                "  \"degraded\": {{\"shed\":{shed},\"deadline_expired\":{{\"admit\":{dl_admit},\"queue_wait\":{dl_queue},\"execute\":{dl_exec}}},\"breaker\":{{\"state\":{br_state},\"trips\":{br_trips}}}}},\n",
                "  \"shards\": [{shards}],\n",
                "  \"latency_micros\": {{\n",
                "    \"route\": {route},\n",
                "    \"admit\": {admit},\n",
                "    \"cache_lookup\": {cache_lookup},\n",
                "    \"queue_wait\": {queue_wait},\n",
                "    \"execute\": {execute},\n",
                "    \"disk_read\": {disk_read},\n",
                "    \"disk_write\": {disk_write},\n",
                "    \"disk_sync\": {disk_sync},\n",
                "    \"disk_evict\": {disk_evict},\n",
                "    \"request_total\": {total}\n",
                "  }}\n",
                "}}\n",
            ),
            submitted = agg.submitted,
            coalesced = agg.coalesced,
            rejected = agg.rejected,
            coalesce_rate = agg.coalesce_rate(),
            mhits = agg.cache.hits,
            mmisses = agg.cache.misses,
            mevict = agg.cache.evictions,
            mentries = agg.cache.entries,
            mrate = agg.cache_hit_rate(),
            dhits = self.tier.hits,
            dmisses = self.tier.misses,
            derr = self.tier.load_errors,
            dstores = self.tier.stores,
            devict = self.tier.evictions,
            dentries = self.tier.entries,
            dbytes = self.tier.bytes,
            drate = agg.tier_hit_rate(),
            dunlink = self.tier.unlink_errors,
            dretries = self.tier.retries,
            dscanned = self.tier.scrub_scanned,
            dquarantined = self.tier.scrub_quarantined,
            dorphans = self.tier.orphans_reclaimed,
            shed = agg.shed,
            dl_admit = agg.deadline_expired[Stage::Admit as usize],
            dl_queue = agg.deadline_expired[Stage::QueueWait as usize],
            dl_exec = agg.deadline_expired[Stage::Execute as usize],
            br_state = self.tier.breaker_state,
            br_trips = self.tier.breaker_trips,
            workers = agg.pool.workers,
            completed = agg.pool.completed,
            panicked = agg.pool.panicked,
            queued = agg.pool.queued,
            queued_now = json_band_gauges(&agg.pool.queued_now),
            in_flight_now = json_band_gauges(&agg.pool.in_flight_now),
            admitted = self.quota.admitted,
            throttled = self.quota.throttled,
            tq = self.quota.throttled_queue,
            tif = self.quota.throttled_in_flight,
            qqueued = self.quota.queued,
            qrunning = self.quota.running,
            tenants = self.quota.tenants,
            shards = shards.join(","),
            route = json_histogram(&t.route),
            admit = json_histogram(&t.admit),
            cache_lookup = json_histogram(&t.cache_lookup),
            queue_wait = json_banded(&t.queue_wait),
            execute = json_banded(&t.execute),
            disk_read = json_histogram(&t.disk.read),
            disk_write = json_histogram(&t.disk.write),
            disk_sync = json_histogram(&t.disk.sync),
            disk_evict = json_histogram(&t.disk.evict),
            total = json_histogram(&t.total),
        )
    }
}

fn json_band_gauges(per_band: &[u64; 3]) -> String {
    let entries: Vec<String> = BANDS
        .iter()
        .zip(per_band.iter())
        .map(|(band, v)| format!("{band:?}:{v}"))
        .collect();
    format!("{{{}}}", entries.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::QuotaStats;
    use crate::router::ShardStats;
    use crate::stats::EngineStats;

    #[test]
    fn disabled_traces_cost_nothing_and_record_nothing() {
        let trace = TraceHandle::default();
        assert!(!trace.is_active());
        trace.add(Stage::Execute, 500);
        assert_eq!(trace.total_micros(), 0);
        assert_eq!(trace.snapshot(), RequestTrace::default());
    }

    #[test]
    fn trace_accumulates_stages_deterministically_under_manual_clock() {
        let clock = Clock::manual(1_000);
        let trace = TraceHandle::active(&clock);
        clock.advance(150);
        trace.add(Stage::CacheLookup, 150);
        clock.advance(2_000);
        trace.add(Stage::QueueWait, 1_200);
        trace.add(Stage::Execute, 800);
        trace.add(Stage::Execute, 50); // accumulates, not replaces
        let snap = trace.snapshot();
        assert_eq!(snap.stage(Stage::CacheLookup), 150);
        assert_eq!(snap.stage(Stage::QueueWait), 1_200);
        assert_eq!(snap.stage(Stage::Execute), 850);
        assert_eq!(snap.stage(Stage::Route), 0);
        assert_eq!(snap.total_micros, 2_150);
        assert_eq!(snap.accounted_micros(), 2_200);
        let line = snap.breakdown();
        assert!(line.contains("queue_wait=1.2"), "{line}");
        assert!(line.ends_with("(ms)"), "{line}");
    }

    #[test]
    fn ensure_reuses_an_active_trace_and_activates_a_disabled_one() {
        let clock = Clock::manual(0);
        let active = TraceHandle::active(&clock);
        active.add(Stage::Route, 42);
        let same = active.ensure(&clock);
        same.add(Stage::Route, 8);
        assert_eq!(active.snapshot().stage(Stage::Route), 50, "shared record");
        let fresh = TraceHandle::disabled().ensure(&clock);
        assert!(fresh.is_active());
    }

    fn meta(id: u64) -> ResponseMeta<'static> {
        ResponseMeta {
            id: RequestId(id),
            dataset_id: "netflix",
            goal: "Survey the duration of the titles",
            tenant: &TENANT,
            priority: Priority::Normal,
            served_from_cache: false,
        }
    }

    static TENANT: std::sync::LazyLock<TenantId> = std::sync::LazyLock::new(TenantId::default);

    #[test]
    fn slow_log_records_only_past_threshold_and_caps_its_ring() {
        let clock = Clock::manual(0);
        let registry = MetricsRegistry::new(clock.clone(), Some(1_000));
        // Fast request: recorded in the histogram, absent from the slow log.
        let fast = TraceHandle::active(&clock);
        clock.advance(400);
        assert_eq!(registry.observe_response(meta(1), &fast), 400);
        assert!(registry.slow_entries().is_empty());
        assert_eq!(registry.request_total().count, 1);
        // Slow requests: logged, ring-capped at SLOW_LOG_CAPACITY.
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 5) {
            let trace = TraceHandle::active(&clock);
            clock.advance(2_000 + i);
            trace.add(Stage::Execute, 2_000 + i);
            registry.observe_response(meta(100 + i), &trace);
        }
        let entries = registry.slow_entries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY, "ring caps the log");
        // Oldest entries were evicted: the first retained one is id 105.
        assert_eq!(entries[0].id, RequestId(105));
        let line = entries[0].render();
        assert!(line.contains("req-000105"), "{line}");
        assert!(line.contains("execute="), "{line}");
        assert!(line.contains("goal:"), "{line}");
    }

    #[test]
    fn disabled_slow_log_never_records() {
        let clock = Clock::manual(0);
        let registry = MetricsRegistry::new(clock.clone(), None);
        let trace = TraceHandle::active(&clock);
        clock.advance(u32::MAX as u64);
        registry.observe_response(meta(1), &trace);
        assert!(registry.slow_entries().is_empty());
    }

    #[test]
    fn telemetry_snapshot_merges_elementwise() {
        let h = LatencyHistogram::new();
        h.record(100);
        let one = h.snapshot();
        let zero = HistogramSnapshot::default();
        let a = TelemetrySnapshot {
            cache_lookup: one,
            queue_wait: [zero, one, zero],
            ..TelemetrySnapshot::default()
        };
        let b = TelemetrySnapshot {
            cache_lookup: one,
            queue_wait: [zero, zero, one],
            ..TelemetrySnapshot::default()
        };
        let merged = a.merge(&b);
        assert_eq!(merged.cache_lookup.count, 2);
        assert_eq!(merged.queue_wait[1].count, 1);
        assert_eq!(merged.queue_wait[2].count, 1);
        assert_eq!(merged.queue_wait[0].count, 0);
    }

    fn synthetic_stats() -> RouterStats {
        let h = LatencyHistogram::new();
        h.record(90);
        h.record(3_000);
        let telemetry = TelemetrySnapshot {
            cache_lookup: h.snapshot(),
            queue_wait: [
                HistogramSnapshot::default(),
                h.snapshot(),
                HistogramSnapshot::default(),
            ],
            ..TelemetrySnapshot::default()
        };
        let engine = EngineStats {
            submitted: 12,
            coalesced: 3,
            cache: crate::cache::CacheStats {
                hits: 5,
                misses: 7,
                ..Default::default()
            },
            ..EngineStats::default()
        };
        let quota = QuotaStats {
            admitted: 9,
            throttled: 3,
            throttled_queue: 2,
            throttled_in_flight: 1,
            ..QuotaStats::default()
        };
        RouterStats {
            shards: vec![ShardStats {
                routed: 12,
                engine,
                telemetry,
            }],
            quota,
            tier: Default::default(),
            telemetry,
        }
    }

    #[test]
    fn prometheus_text_is_well_formed_and_complete() {
        let text = synthetic_stats().render_metrics();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "malformed comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty(), "empty metric name in {line}");
            assert!(value.parse::<u64>().is_ok(), "non-integer value in {line}");
        }
        assert!(text.contains("linx_requests_submitted_total 12"));
        assert!(text.contains("linx_routed_total{shard=\"0\"} 12"));
        assert!(text.contains("linx_quota_throttled_total{reason=\"queue_cap\"} 2"));
        assert!(text.contains("linx_queue_wait_micros_bucket{band=\"normal\",le=\"128\"} 1"));
        assert!(text.contains("linx_queue_wait_micros_bucket{band=\"normal\",le=\"+Inf\"} 2"));
        assert!(text.contains("linx_queue_wait_micros_count{band=\"normal\"} 2"));
        assert!(text.contains("linx_queue_wait_micros_sum{band=\"normal\"} 3090"));
        // Idle families are still present, zero-valued.
        assert!(text.contains("linx_disk_read_micros_count 0"));
        assert!(text.contains("linx_pool_in_flight_now{band=\"low\"} 0"));
    }

    #[test]
    fn json_snapshot_carries_quantiles_and_band_breakdowns() {
        let json = synthetic_stats().render_json();
        assert!(json.contains("\"submitted\":12"));
        assert!(json.contains("\"throttled_queue\":2"));
        assert!(json.contains("\"queue_wait\": {\"high\":"));
        assert!(json.contains("\"p95_micros\":"));
        // Brace balance as a cheap well-formedness check (no string values
        // contain braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced JSON braces");
    }
}
