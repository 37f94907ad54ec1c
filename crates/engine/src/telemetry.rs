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
//!   they measure.
//! * [`TelemetrySnapshot`] holds a shard's own distributions; instruments on
//!   *shared* components (the router's ring, the quota table, the disk tier)
//!   are read once by [`Router::stats`](crate::Router::stats), never summed
//!   per shard — the same rule as [`EngineStats::merge`](crate::EngineStats::merge).
//! * Each exported metric family is declared once, in a private family list
//!   that [`RouterStats`] builds (and `linx serve` extends with its HTTP
//!   families). [`RouterStats::render_metrics`](crate::RouterStats::render_metrics)
//!   renders it as Prometheus text, the start of `linx serve`'s `/metrics`
//!   body, and [`render_json`](crate::RouterStats::render_json) as a JSON
//!   snapshot keyed by family name.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linx_metrics::{Clock, HistogramSnapshot, LatencyHistogram, BUCKETS};
use serde_json::{json, Value};

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

/// Every latency distribution of one engine shard (or, merged, of a whole
/// router), the histogram-side complement of [`EngineStats`](crate::EngineStats).
///
/// `route`, `admit` and `disk` are measured on instruments shared by every
/// shard (the router's ring, the quota table, the disk tier). A shard's
/// snapshot leaves them empty; [`crate::Router::stats`] reads each once from
/// its owner and folds the shards' own distributions in with
/// [`TelemetrySnapshot::merge`].
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
    /// Adds `other`'s per-shard distributions (cache lookup, queue wait,
    /// execute, total) to this snapshot's, for aggregating shards. The shared
    /// `route`, `admit` and `disk` stay this snapshot's (see the type docs).
    pub fn merge(self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cache_lookup: self.cache_lookup.merge(&other.cache_lookup),
            queue_wait: std::array::from_fn(|i| self.queue_wait[i].merge(&other.queue_wait[i])),
            execute: std::array::from_fn(|i| self.execute[i].merge(&other.execute[i])),
            total: self.total.merge(&other.total),
            ..self
        }
    }
}

// --- exposition -------------------------------------------------------------------

/// One sample of a [`Family`]: a counter or gauge value, or a latency distribution.
#[derive(Debug)]
pub(crate) enum Sample {
    Value(u64),
    Histogram(Box<HistogramSnapshot>),
}

impl From<u64> for Sample {
    fn from(v: u64) -> Self {
        Sample::Value(v)
    }
}

impl From<HistogramSnapshot> for Sample {
    fn from(h: HistogramSnapshot) -> Self {
        Sample::Histogram(Box::new(h))
    }
}

/// One exported metric family, declared once and rendered by both exposition
/// formats: its name, Prometheus type, help text, at most one label key, and
/// its samples, one per label value (a single unlabelled one when `label` is
/// `None`). A family is present even when idle, so its samples are zero then.
#[derive(Debug)]
pub(crate) struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    label: Option<&'static str>,
    samples: Vec<(String, Sample)>,
}

impl Family {
    fn new(name: &'static str, kind: &'static str, help: &'static str) -> Family {
        Family {
            name,
            kind,
            help,
            label: None,
            samples: Vec::new(),
        }
    }

    pub(crate) fn counter(name: &'static str, help: &'static str) -> Family {
        Family::new(name, "counter", help)
    }

    pub(crate) fn gauge(name: &'static str, help: &'static str) -> Family {
        Family::new(name, "gauge", help)
    }

    pub(crate) fn histogram(name: &'static str, help: &'static str) -> Family {
        Family::new(name, "histogram", help)
    }

    /// The family's single, unlabelled sample.
    pub(crate) fn one(self, sample: impl Into<Sample>) -> Family {
        Family {
            samples: vec![(String::new(), sample.into())],
            ..self
        }
    }

    /// One sample per value of the label `key`, in exposition order.
    pub(crate) fn by<L: ToString, S: Into<Sample>>(
        self,
        key: &'static str,
        samples: impl IntoIterator<Item = (L, S)>,
    ) -> Family {
        Family {
            label: Some(key),
            samples: samples
                .into_iter()
                .map(|(value, sample)| (value.to_string(), sample.into()))
                .collect(),
            ..self
        }
    }
}

/// The Prometheus text exposition of `families`: per family its `# HELP` and
/// `# TYPE` lines, then one line per sample. A histogram sample is a series:
/// cumulative `_bucket{le="..."}` lines, then `_sum` and `_count`.
pub(crate) fn render_text(families: &[Family]) -> String {
    fn line(out: &mut String, name: &str, suffix: &str, labels: &str, value: u64) {
        out.push_str(&match labels {
            "" => format!("{name}{suffix} {value}\n"),
            _ => format!("{name}{suffix}{{{labels}}} {value}\n"),
        });
    }
    let mut out = String::with_capacity(32 * 1024);
    for f in families {
        out.push_str(&format!(
            "# HELP {0} {1}\n# TYPE {0} {2}\n",
            f.name, f.help, f.kind
        ));
        for (value, sample) in &f.samples {
            let labels = f
                .label
                .map_or(String::new(), |key| format!("{key}=\"{value}\""));
            match sample {
                Sample::Value(v) => line(&mut out, f.name, "", &labels, *v),
                Sample::Histogram(h) => {
                    let sep = if labels.is_empty() { "" } else { "," };
                    let mut cumulative = 0;
                    for (i, n) in h.buckets.iter().enumerate() {
                        cumulative += n;
                        let le = match i {
                            _ if i == BUCKETS - 1 => "+Inf".to_string(),
                            _ => (1u64 << i).to_string(),
                        };
                        let bucket = format!("{labels}{sep}le=\"{le}\"");
                        line(&mut out, f.name, "_bucket", &bucket, cumulative);
                    }
                    line(&mut out, f.name, "_sum", &labels, h.sum);
                    line(&mut out, f.name, "_count", &labels, h.count);
                }
            }
        }
    }
    out
}

/// The JSON form of `families`, keyed by family name. An unlabelled family maps
/// to its sample, a labelled one to an object from label value to sample. A
/// counter or gauge sample is its value; a histogram sample is its summary in
/// microseconds: count, sum, mean, p50, p95, p99 and max.
fn render_json_value(families: &[Family]) -> Value {
    let sample = |s: &Sample| match s {
        Sample::Value(v) => json!(v),
        Sample::Histogram(h) => json!({
            "count": h.count,
            "sum_micros": h.sum,
            "mean_micros": h.mean(),
            "p50_micros": h.p50(),
            "p95_micros": h.p95(),
            "p99_micros": h.p99(),
            "max_micros": h.max,
        }),
    };
    let family = |f: &Family| match f.label {
        None => sample(&f.samples[0].1),
        Some(_) => Value::Object(
            f.samples
                .iter()
                .map(|(l, s)| (l.clone(), sample(s)))
                .collect(),
        ),
    };
    Value::Object(
        families
            .iter()
            .map(|f| (f.name.to_string(), family(f)))
            .collect(),
    )
}

impl RouterStats {
    /// Every exported router family, in exposition order: the aggregated
    /// counters and gauges, per-shard routing counts, the shared quota table's
    /// and disk tier's counters, and every latency histogram with
    /// per-priority-band labels.
    pub(crate) fn families(&self) -> Vec<Family> {
        let agg = self.aggregate();
        let (t, tier, quota) = (&self.telemetry, &self.tier, &self.quota);
        let by_tier = |memory, disk| [("memory", memory), ("disk", disk)];
        let checkpoints = [Stage::Admit, Stage::QueueWait, Stage::Execute];
        vec![
            Family::counter(
                "linx_requests_submitted_total",
                "Requests accepted by submit, including coalesced and cache-served ones.",
            )
            .one(agg.submitted),
            Family::counter(
                "linx_requests_coalesced_total",
                "Requests attached to an identical in-flight request (single-flight).",
            )
            .one(agg.coalesced),
            Family::counter(
                "linx_routed_total",
                "Requests and batch goals forwarded to each shard.",
            )
            .by("shard", self.shards.iter().map(|s| s.routed).enumerate()),
            Family::counter("linx_cache_hits_total", "Result-cache hits per tier.")
                .by("tier", by_tier(agg.cache.hits, tier.hits)),
            Family::counter("linx_cache_misses_total", "Result-cache misses per tier.")
                .by("tier", by_tier(agg.cache.misses, tier.misses)),
            Family::counter(
                "linx_cache_evictions_total",
                "Entries evicted per tier (memory: LRU byte budget; disk: size cap).",
            )
            .by("tier", by_tier(agg.cache.evictions, tier.evictions)),
            Family::gauge("linx_cache_entries", "Entries resident per tier.")
                .by("tier", by_tier(agg.cache.entries, tier.entries)),
            Family::counter(
                "linx_tier_load_errors_total",
                "Disk-tier files that existed but failed to decode (deleted on contact).",
            )
            .one(tier.load_errors),
            Family::counter("linx_tier_stores_total", "Disk-tier entries written.")
                .one(tier.stores),
            Family::gauge(
                "linx_tier_bytes",
                "Disk-tier resident bytes (approximate under external writers).",
            )
            .one(tier.bytes),
            Family::gauge("linx_pool_workers", "Worker threads across all shards.")
                .one(agg.pool.workers),
            Family::counter(
                "linx_pool_completed_total",
                "Jobs run to completion (including caught panics).",
            )
            .one(agg.pool.completed),
            Family::counter(
                "linx_pool_panicked_total",
                "Jobs whose execution panicked (caught; workers survived).",
            )
            .one(agg.pool.panicked),
            Family::gauge(
                "linx_pool_queued_now",
                "Jobs waiting in the queue right now, per priority band.",
            )
            .by("band", BANDS.into_iter().zip(agg.pool.queued_now)),
            Family::gauge(
                "linx_pool_in_flight_now",
                "Jobs executing right now, per priority band.",
            )
            .by("band", BANDS.into_iter().zip(agg.pool.in_flight_now)),
            Family::counter(
                "linx_quota_admitted_total",
                "Requests admitted past the quota gate.",
            )
            .one(quota.admitted),
            Family::counter(
                "linx_quota_throttled_total",
                "Requests refused admission, by exhausted budget.",
            )
            .by(
                "reason",
                [
                    ("queue_cap", quota.throttled_queue),
                    ("in_flight_cap", quota.throttled_in_flight),
                ],
            ),
            Family::gauge(
                "linx_quota_queued",
                "Requests admitted and waiting for a worker, across all tenants.",
            )
            .one(quota.queued),
            Family::gauge(
                "linx_quota_running",
                "Requests executing, across all tenants.",
            )
            .one(quota.running),
            Family::gauge(
                "linx_quota_tenants",
                "Tenants with a request queued or running.",
            )
            .one(quota.tenants),
            Family::counter(
                "linx_deadline_expired_total",
                "Requests that ran out of deadline budget, by the checkpoint stage that noticed.",
            )
            .by(
                "stage",
                checkpoints.map(|s| (s.name(), agg.deadline_expired[s as usize])),
            ),
            Family::counter(
                "linx_shed_total",
                "Low-priority requests rejected by overload protection before queueing.",
            )
            .one(agg.shed),
            Family::counter(
                "linx_disk_unlink_errors_total",
                "Disk-tier entry files that could not be removed (evictor skips them).",
            )
            .one(tier.unlink_errors),
            Family::counter(
                "linx_disk_retries_total",
                "Disk-tier store attempts retried after a transient write failure.",
            )
            .one(tier.retries),
            Family::gauge(
                "linx_breaker_state",
                "Disk-tier circuit breaker state: 0 closed, 1 open, 2 half-open.",
            )
            .one(u64::from(tier.breaker_state)),
            Family::counter(
                "linx_breaker_trips_total",
                "Times the disk-tier circuit breaker opened on consecutive failures.",
            )
            .one(tier.breaker_trips),
            Family::counter(
                "linx_scrub_scanned_total",
                "Disk-tier entry files examined by the startup scrub.",
            )
            .one(tier.scrub_scanned),
            Family::counter(
                "linx_scrub_quarantined_total",
                "Corrupt entry files the startup scrub moved into quarantine/.",
            )
            .one(tier.scrub_quarantined),
            Family::histogram("linx_route_micros", "Consistent-hash placement latency.")
                .one(t.route),
            Family::histogram(
                "linx_admit_micros",
                "Admission-control decision latency (admissions and refusals).",
            )
            .one(t.admit),
            Family::histogram(
                "linx_cache_lookup_micros",
                "Result-cache lookup latency (memory tier plus disk fallthrough).",
            )
            .one(t.cache_lookup),
            Family::histogram(
                "linx_queue_wait_micros",
                "Time from enqueue to a worker picking the job up, per priority band.",
            )
            .by("band", BANDS.into_iter().zip(t.queue_wait)),
            Family::histogram(
                "linx_execute_micros",
                "Job execution latency, per priority band.",
            )
            .by("band", BANDS.into_iter().zip(t.execute)),
            Family::histogram(
                "linx_disk_read_micros",
                "Disk-tier entry load latency (read + decode), hits and misses alike.",
            )
            .one(t.disk.read),
            Family::histogram(
                "linx_disk_write_micros",
                "Disk-tier entry store latency (temp write + atomic rename).",
            )
            .one(t.disk.write),
            Family::histogram(
                "linx_disk_sync_micros",
                "Durable-mode fsync latency on the disk-tier store path.",
            )
            .one(t.disk.sync),
            Family::histogram(
                "linx_disk_evict_micros",
                "Disk-tier size-cap eviction scan latency.",
            )
            .one(t.disk.evict),
            Family::histogram(
                "linx_request_total_micros",
                "End-to-end latency from submission to response.",
            )
            .one(t.total),
        ]
    }

    /// The Prometheus text exposition of every router family (zero-valued when
    /// idle, so scrapers see a fixed name set). `linx serve`'s `/metrics` body
    /// is this text followed by the HTTP layer's families;
    /// `serve-batch --metrics-out metrics.txt` writes it to a file.
    pub fn render_metrics(&self) -> String {
        render_text(&self.families())
    }

    /// The JSON snapshot of the same families, keyed by family name (see
    /// [`RouterStats::render_metrics`]): labelled families map each label value
    /// to its sample, histograms carry count, sum, mean, p50/p95/p99 and max
    /// instead of raw buckets. `serve-batch --metrics-out metrics.json` writes
    /// this form.
    pub fn render_json(&self) -> String {
        let value = render_json_value(&self.families());
        serde_json::to_string_pretty(&value).expect("printing a JSON value cannot fail") + "\n"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::persist::TierStats;
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

    /// A histogram of `n` samples starting at `first` micros, spaced so each
    /// call with distinct arguments lands in distinct buckets and sums.
    fn hist(first: u64, n: u64) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        for i in 0..n {
            h.record(first + i * first / 2 + i);
        }
        h.snapshot()
    }

    /// Two shards and every shared instrument, each sample distinct and nonzero.
    pub(crate) fn two_shard_stats() -> RouterStats {
        let shard = |k: u64| {
            let mut engine = EngineStats {
                submitted: 100 + k,
                coalesced: 20 + k,
                shed: 7 + k,
                ..EngineStats::default()
            };
            engine.cache.hits = 40 + k;
            engine.cache.misses = 50 + k;
            engine.cache.evictions = 9 + k;
            engine.cache.entries = 11 + k;
            engine.pool.workers = 2 + k;
            engine.pool.completed = 60 + k;
            engine.pool.panicked = 1 + k;
            engine.pool.queued_now = [13 + k, 17 + k, 19 + k];
            engine.pool.in_flight_now = [23 + k, 29 + k, 31 + k];
            engine.deadline_expired[Stage::Admit as usize] = 37 + k;
            engine.deadline_expired[Stage::QueueWait as usize] = 41 + k;
            engine.deadline_expired[Stage::Execute as usize] = 43 + k;
            engine
        };
        let telemetry = TelemetrySnapshot {
            route: hist(3, 4),
            admit: hist(5, 5),
            cache_lookup: hist(7, 6),
            queue_wait: [hist(90, 7), hist(110, 9), hist(130, 10)],
            execute: [hist(9_000, 11), hist(11_000, 12), hist(13_000, 13)],
            disk: TierLatency {
                read: hist(150, 14),
                write: hist(170, 15),
                evict: hist(190, 16),
                sync: hist(210, 17),
            },
            total: hist(20_000, 18),
        };
        RouterStats {
            shards: vec![
                ShardStats {
                    routed: 1_001,
                    engine: shard(1_000),
                    telemetry: TelemetrySnapshot::default(),
                },
                ShardStats {
                    routed: 2_002,
                    engine: shard(2_000),
                    telemetry: TelemetrySnapshot::default(),
                },
            ],
            quota: QuotaStats {
                admitted: 301,
                throttled: 305,
                queued: 307,
                running: 311,
                tenants: 313,
                throttled_queue: 302,
                throttled_in_flight: 303,
            },
            tier: TierStats {
                hits: 401,
                misses: 402,
                load_errors: 403,
                stores: 404,
                evictions: 405,
                entries: 406,
                bytes: 407,
                breaker_state: 2,
                breaker_trips: 408,
                unlink_errors: 409,
                retries: 410,
                scrub_scanned: 411,
                scrub_quarantined: 412,
                orphans_reclaimed: 413,
            },
            telemetry,
        }
    }

    /// Every sample line of the text form, read back from the JSON form:
    /// counters and gauges by label value, histograms by `count` (also the
    /// `+Inf` bucket) and `sum_micros`. Both forms also hold the same families
    /// and label values, and each histogram carries its quantiles.
    #[test]
    fn json_snapshot_carries_quantiles_and_band_breakdowns() {
        let stats = two_shard_stats();
        let json = serde_json::from_str(&stats.render_json()).expect("valid JSON");
        let mut text_series = Vec::new();
        let mut family = "";
        for line in stats.render_metrics().lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                family = typed.split(' ').next().expect("family name");
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let (name, labels) = series
                .strip_suffix('}')
                .and_then(|s| s.split_once('{'))
                .unwrap_or((series, ""));
            let label = labels
                .split(',')
                .find(|l| !l.is_empty() && !l.starts_with("le="))
                .map(|l| l.split_once('=').expect("key=value").1.trim_matches('"'));
            let field = match name.strip_prefix(family).expect("series of its family") {
                "" => None,
                "_count" => Some("count"),
                "_sum" => Some("sum_micros"),
                "_bucket" if labels.ends_with("le=\"+Inf\"") => Some("count"),
                "_bucket" => continue,
                other => panic!("unexpected series suffix {other:?} in {line}"),
            };
            let sample = label.map_or(&json[family], |l| &json[family][l]);
            let got = field.map_or(sample, |f| &sample[f]);
            assert_eq!(got.as_u64(), value.parse().ok(), "JSON disagrees on {line}");
            text_series.push((family.to_string(), label.map(String::from)));
            if let Some("sum_micros") = field {
                for quantile in ["mean_micros", "p50_micros", "p95_micros", "p99_micros"] {
                    assert!(sample[quantile].as_f64().unwrap_or(0.0) > 0.0, "{line}");
                }
                assert!(sample["max_micros"].as_u64() > Some(0), "{line}");
            }
        }
        text_series.sort();
        text_series.dedup();
        let mut json_series = Vec::new();
        for (name, value) in json.as_object().expect("object keyed by family") {
            match value.as_object() {
                Some(labelled) if !labelled.contains_key("count") => {
                    json_series.extend(labelled.keys().map(|l| (name.clone(), Some(l.clone()))))
                }
                _ => json_series.push((name.clone(), None)),
            }
        }
        assert_eq!(json_series, text_series, "the forms hold different series");
        assert_eq!(json_series.len(), 54, "38 families, 54 series");
    }
}
