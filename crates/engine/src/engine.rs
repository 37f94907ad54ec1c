//! The engine: request intake, cache lookups, job dispatch, response handles.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use linx_cdrl::CdrlConfig;
use linx_dataframe::{DataFrame, StatsCache};

use crate::api::{
    EngineConfig, ExploreRequest, ExploreResponse, ExploreResult, JobError, Priority, RequestId,
};
use crate::faults::{self, FaultKind};
use crate::fingerprint::request_fingerprint;
use crate::persist::{DiskTier, TieredCache};
use crate::pipeline::{run_exploration, Cancelled, DatasetContext, Spec};
use crate::pool::{PoolStats, WorkerPool};
use crate::quota::{QuotaTable, TenantId};
use crate::stats::EngineStats;
use crate::telemetry::{
    MetricsRegistry, ResponseMeta, SlowEntry, Stage, TelemetrySnapshot, TraceHandle, STAGE_COUNT,
};

/// Sweep the quota table's idle tenant entries every this many submissions, so
/// a long-running intake path cannot grow the table unboundedly between the
/// idle/shutdown sweeps.
const QUOTA_GC_INTERVAL: u64 = 256;

/// Shards of each engine's result cache (spreads lock contention).
const RESULT_CACHE_SHARDS: usize = 8;

type Outcome = Result<ExploreResult, JobError>;

/// A handle on one submitted request; resolves to the response.
pub struct JobHandle {
    id: RequestId,
    rx: mpsc::Receiver<ExploreResponse>,
}

impl JobHandle {
    /// The id assigned at submission.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Block until the response is available.
    ///
    /// A lost worker (response channel closed without a message) is reported as
    /// [`JobError::WorkerLost`] rather than a panic, so callers always get a response.
    pub fn wait(self) -> ExploreResponse {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| worker_lost(id))
    }

    /// Take the response if it has already arrived, without blocking.
    ///
    /// Returns `None` while the job is still queued or executing. Outcomes that
    /// resolve synchronously inside `submit` — cache hits, quota refusals, load
    /// shedding, admission-deadline expiry — are always visible here by the time
    /// `submit` returns, which is what lets a serving layer map them onto an
    /// immediate wire status instead of parking a poll loop. A disconnected
    /// channel (lost worker) reports [`JobError::WorkerLost`], mirroring
    /// [`JobHandle::wait`].
    pub fn try_wait(&self) -> Option<ExploreResponse> {
        match self.rx.try_recv() {
            Ok(response) => Some(response),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(worker_lost(self.id)),
        }
    }

    /// A handle that is already resolved to `error` — used by layers above the
    /// engine (e.g. the router's `route.place` failpoint) that must reject a
    /// request before any engine assigns it an id. `RequestId(0)` marks a
    /// response synthesized outside an engine (engines number from 1).
    pub(crate) fn resolved(dataset_id: String, goal: String, error: JobError) -> JobHandle {
        let id = RequestId(0);
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(untimed_error(id, dataset_id, goal, error));
        JobHandle { id, rx }
    }
}

/// The response of a request whose channel closed without one.
fn worker_lost(id: RequestId) -> ExploreResponse {
    untimed_error(id, String::new(), String::new(), JobError::WorkerLost)
}

/// A failure that no engine timed: a lost worker, or a refusal made before
/// any engine saw the request.
fn untimed_error(
    id: RequestId,
    dataset_id: String,
    goal: String,
    error: JobError,
) -> ExploreResponse {
    ExploreResponse {
        id,
        dataset_id,
        goal,
        outcome: Err(error),
        served_from_cache: false,
        total_micros: 0,
    }
}

/// One submission awaiting its response. The submitting request and every
/// waiter coalesced onto it are the same kind of value, answered the same way.
struct Reply {
    id: RequestId,
    dataset_id: String,
    goal: String,
    tenant: TenantId,
    priority: Priority,
    trace: TraceHandle,
    tx: mpsc::Sender<ExploreResponse>,
}

impl Reply {
    /// Record this submission's end-to-end latency from its own trace (and a
    /// slow-log entry past the threshold), then send its response.
    fn send(self, metrics: &MetricsRegistry, outcome: Outcome, served_from_cache: bool) {
        let total_micros = metrics.observe_response(
            ResponseMeta {
                id: self.id,
                dataset_id: &self.dataset_id,
                goal: &self.goal,
                tenant: &self.tenant,
                priority: self.priority,
                served_from_cache,
            },
            &self.trace,
        );
        let _ = self.tx.send(ExploreResponse {
            id: self.id,
            dataset_id: self.dataset_id,
            goal: self.goal,
            outcome,
            served_from_cache,
            total_micros,
        });
    }
}

/// One shard of the concurrent, cache-aware exploration service: a worker pool,
/// a result cache, single-flight coalescing and admission control.
///
/// Engines are built and driven only by a [`crate::Router`], the service's front
/// door (see its docs for a runnable example); [`crate::Router::engine`] exposes a
/// shard's [`Engine::config`].
pub struct Engine {
    config: EngineConfig,
    pool: WorkerPool,
    /// The engine-wide view-statistics cache, shared by every dataset context this
    /// engine builds. Statistics are keyed by view *content* fingerprints, so
    /// sharing across datasets is safe — and means the engine holds exactly one
    /// stats budget, not one per dataset.
    stats: Arc<StatsCache>,
    /// Per-tenant admission control in front of the pool. Shared by every shard
    /// of a [`crate::Router`], which makes the cap tenant-global.
    quota: Arc<QuotaTable>,
    /// What the intake path shares with the jobs it queues.
    shared: Arc<Shared>,
    next_id: AtomicU64,
}

/// The engine state a queued job still reaches after [`Engine::submit`] has
/// returned: one handle, captured by every job.
struct Shared {
    cache: TieredCache,
    /// Single-flight request coalescing: fingerprint → submissions waiting on the
    /// in-flight job for it. A submission whose fingerprint is already being
    /// computed attaches itself here instead of training again; the job answers
    /// the waiters when it settles.
    in_flight: Mutex<HashMap<u64, Vec<Reply>>>,
    /// Engine-owned latency histograms (cache lookup, end-to-end total) and the
    /// slow-request ring log. Component-owned instruments live with the pool,
    /// quota table, and disk tier; [`Engine::telemetry`] assembles all of them.
    metrics: MetricsRegistry,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    /// Jobs whose exploration panicked. Counted here because the job converts its own
    /// panic into a `JobError::Panicked` response, so the pool's unwind backstop (and
    /// therefore `PoolStats::panicked`) never sees it.
    job_panics: AtomicU64,
    /// Requests whose deadline expired, indexed by the [`Stage`] at which the
    /// expiry was observed (only `Admit`, `QueueWait`, and `Execute` are
    /// enforcement checkpoints; the other slots stay zero).
    deadline_expired: [AtomicU64; STAGE_COUNT],
    /// Low-priority requests rejected by load-shed mode before admission.
    shed: AtomicU64,
}

impl Shared {
    /// Attach `reply` as a waiter on the in-flight job for `fp`. Without one,
    /// hand `reply` back, first claiming the slot for it when `claim` is set.
    fn coalesce(&self, fp: u64, reply: Reply, claim: bool) -> Option<Reply> {
        let mut in_flight = self.in_flight.lock().expect("in-flight lock");
        if let Some(waiters) = in_flight.get_mut(&fp) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            waiters.push(reply);
            return None;
        }
        if claim {
            in_flight.insert(fp, Vec::new());
        }
        Some(reply)
    }

    /// Empty `fp`'s coalescing slot, answer every waiter attached to it, then
    /// the owner. The slot is released first, so a later identical submission
    /// finds the cache filled (or trains afresh after a failure) instead of
    /// attaching to a job that has already answered.
    fn settle(&self, fp: u64, owner: Reply, outcome: Outcome) {
        let clock = self.metrics.clock();
        let respond_start = clock.now_micros();
        let waiters = self
            .in_flight
            .lock()
            .expect("in-flight lock")
            .remove(&fp)
            .unwrap_or_default();
        // A deduplicated *result* counts as served-without-training; a
        // deduplicated *failure* is not a hit of anything.
        let served = outcome.is_ok();
        for waiter in waiters {
            waiter.send(&self.metrics, outcome.clone(), served);
        }
        owner.trace.add(
            Stage::Respond,
            clock.now_micros().saturating_sub(respond_start),
        );
        owner.send(&self.metrics, outcome, false);
    }

    /// The engine's own counters around `pool`, a live snapshot or a drained
    /// pool's final one. The shared quota table and disk tier are left zero; the
    /// router reads them once.
    fn snapshot(&self, mut pool: PoolStats) -> EngineStats {
        // Engine jobs convert their own panics into responses, bypassing the pool's
        // unwind counter; fold them back in so "panicked" means what it says.
        pool.panicked += self.job_panics.load(Ordering::Relaxed);
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cache: self.cache.memory_stats(),
            pool,
            deadline_expired: std::array::from_fn(|i| {
                self.deadline_expired[i].load(Ordering::Relaxed)
            }),
            shed: self.shed.load(Ordering::Relaxed),
            ..EngineStats::default()
        }
    }
}

impl Engine {
    /// Open the configured disk tier, degrading to memory-only (with a warning on
    /// stderr) when the directory cannot be created: persistence is an optimization
    /// and must never keep the service from starting.
    pub(crate) fn open_tier(config: &EngineConfig) -> Option<Arc<DiskTier>> {
        let persist = config.persist.as_ref()?;
        match DiskTier::open_with_clock(persist, config.clock.clone()) {
            Ok(tier) => {
                let scrub = tier.scrub_report();
                if scrub.quarantined > 0 || scrub.orphans_reclaimed > 0 {
                    eprintln!(
                        "linx-engine: scrub of {} quarantined {} of {} entries, reclaimed {} orphaned temp files",
                        persist.dir.display(),
                        scrub.quarantined,
                        scrub.scanned,
                        scrub.orphans_reclaimed
                    );
                }
                Some(tier)
            }
            Err(e) => {
                eprintln!(
                    "linx-engine: disabling persistent cache tier ({}): {e}",
                    persist.dir.display()
                );
                None
            }
        }
    }

    /// Start an engine: spawns the worker pool and allocates the result cache. The
    /// quota table and (optionally) the disk cache tier are shared with the other
    /// shards: the [`crate::Router`] hands every shard the same table, so tenant
    /// budgets are global, and the same tier, so results computed by one shard are
    /// served by all — and survive the process, since fingerprint keys are
    /// content-derived. The tier backs the result cache only; the engine's
    /// view-statistics cache is memory-only.
    pub(crate) fn with_shared(
        config: EngineConfig,
        quota: Arc<QuotaTable>,
        disk: Option<Arc<DiskTier>>,
    ) -> Self {
        // Arm the process-wide failpoint registry before any component that
        // consults it starts serving. Arming is idempotent across shards
        // sharing one config; an engine with no plan leaves the registry as-is.
        if let Some(plan) = &config.fault_plan {
            faults::arm(Arc::clone(plan));
        }
        let pool = WorkerPool::with_clock(config.workers, config.clock.clone());
        let metrics = MetricsRegistry::new(config.clock.clone(), config.slow_threshold_micros);
        // One byte budget per engine, split evenly between the two caches it owns —
        // so `cache_mem_bytes` bounds what the engine actually holds resident, no
        // matter how many datasets pass through.
        let result_budget = config.cache_mem_bytes / 2;
        let stats_budget = config.cache_mem_bytes - result_budget;
        let stats = Arc::new(StatsCache::new(stats_budget, StatsCache::DEFAULT_SHARDS));
        let cache = match disk {
            Some(tier) => TieredCache::with_disk(result_budget, RESULT_CACHE_SHARDS, tier),
            None => TieredCache::new(result_budget, RESULT_CACHE_SHARDS),
        };
        Engine {
            config,
            pool,
            stats,
            quota,
            shared: Arc::new(Shared {
                cache,
                in_flight: Mutex::new(HashMap::new()),
                metrics,
                submitted: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                job_panics: AtomicU64::new(0),
                deadline_expired: std::array::from_fn(|_| AtomicU64::new(0)),
                shed: AtomicU64::new(0),
            }),
            next_id: AtomicU64::new(1),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Precompute the shared per-dataset context (fingerprint, schema, sample, view
    /// memo, term inventory / featurizer). Submitting many goals against one context
    /// shares this work across them. Every context is handed the *engine-wide*
    /// statistics cache (keyed by column storage, so cross-dataset sharing is safe
    /// and the engine's byte budget is not multiplied per dataset). That cache lives in
    /// memory only, so a context built in a fresh process computes its root-frame
    /// statistics afresh, whether or not a disk tier is mounted.
    pub(crate) fn dataset_context(&self, dataset: &DataFrame, dataset_id: &str) -> DatasetContext {
        DatasetContext::with_stats(
            dataset,
            dataset_id,
            self.config.sample_rows,
            self.config.cdrl.term_slots,
            Arc::clone(&self.stats),
        )
    }

    /// Submit one request against a prepared dataset context.
    ///
    /// Cache hits resolve immediately on the calling thread; misses are queued on the
    /// worker pool at the request's priority. Every exit answers through
    /// `Reply::send`, which times the response from the request's own trace.
    pub(crate) fn submit(&self, ctx: &DatasetContext, request: ExploreRequest) -> JobHandle {
        let shared = &self.shared;
        let clock = &self.config.clock;
        let started = clock.now_micros();
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let seq = shared.submitted.fetch_add(1, Ordering::Relaxed);
        // Opportunistic quota-table sweep: the idle/shutdown gc alone lets a
        // long batch of one-shot tenants grow the table unboundedly.
        if seq % QUOTA_GC_INTERVAL == QUOTA_GC_INTERVAL - 1 {
            self.quota.gc();
        }
        let (tx, rx) = mpsc::channel();
        let handle = JobHandle { id, rx };
        let ExploreRequest {
            dataset_id,
            goal,
            priority,
            budget,
            tenant,
            trace,
            deadline_micros,
        } = request;
        let reply = Reply {
            id,
            dataset_id,
            goal,
            tenant,
            priority,
            // Activate the request's trace (a no-op clone when the router already
            // did); every stage below accumulates into it.
            trace: trace.ensure(clock),
            tx,
        };

        // Deadline checkpoint 1 (admission): a request that arrives already
        // expired is rejected before any lookup, admission, or queueing work.
        let deadline = deadline_micros.or_else(|| {
            self.config
                .default_deadline_micros
                .map(|d| started.saturating_add(d))
        });
        if deadline.is_some_and(|dl| started >= dl) {
            shared.deadline_expired[Stage::Admit as usize].fetch_add(1, Ordering::Relaxed);
            reply.send(
                &shared.metrics,
                Err(JobError::DeadlineExceeded(Stage::Admit)),
                false,
            );
            return handle;
        }

        let episodes = budget.episodes(self.config.cdrl.episodes);
        let sample_rows = budget.sample_rows(self.config.sample_rows);
        let cdrl = CdrlConfig {
            episodes,
            ..self.config.cdrl.clone()
        };
        let fp = request_fingerprint(ctx.dataset_fp, &reply.goal, &cdrl, episodes, sample_rows).0;

        let lookup_start = clock.now_micros();
        let cached = shared.cache.get(&fp);
        let lookup_micros = clock.now_micros().saturating_sub(lookup_start);
        shared.metrics.record_cache_lookup(lookup_micros);
        reply.trace.add(Stage::CacheLookup, lookup_micros);
        if let Some(result) = cached {
            reply.send(&shared.metrics, Ok(result), true);
            return handle;
        }

        // Single-flight: if an identical request is already executing (or queued),
        // attach to it instead of training the same thing twice. The hot serving
        // pattern — many users asking the same goal at once — costs one training run.
        // Coalesced attachments bypass quota admission: they cost no worker slot.
        // Known limitation: a coalesced request inherits the queued job's priority
        // and tenant lane (a High request attaching to a Low job does not bump it);
        // re-prioritizable queue entries are a ROADMAP item.
        let Some(reply) = shared.coalesce(fp, reply, false) else {
            return handle;
        };

        // Load shed: when the pool is saturated (queue depth at the configured
        // threshold), Low-priority work that missed both
        // the cache and the coalescing map is rejected before it can consume a
        // quota slot or a queue position. Cache hits and coalesced attachments
        // above still serve — shedding protects workers, not reads.
        if reply.priority == Priority::Low && self.should_shed() {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            reply.send(&shared.metrics, Err(JobError::Overloaded), false);
            return handle;
        }

        // Admission control: this request needs a worker-pool slot, so it must fit
        // the tenant's in-flight cap. Refusals respond immediately — a throttled
        // tenant gets fast feedback instead of a deep queue. The guard travels with
        // the job and releases the budget however the job ends — even if the pool
        // is dropped with the job still queued, so a quota table shared across
        // shards cannot leak a tenant's budget.
        let admit_start = clock.now_micros();
        let admitted = self.quota.admit_guarded(&reply.tenant);
        reply
            .trace
            .add(Stage::Admit, clock.now_micros().saturating_sub(admit_start));
        let mut admission = match admitted {
            Ok(guard) => guard,
            Err(refusal) => {
                reply.send(
                    &shared.metrics,
                    Err(JobError::QuotaExceeded(refusal.tenant)),
                    false,
                );
                return handle;
            }
        };

        // Claim the single-flight slot. An identical request may have slipped in
        // between the attach-check and admission; if so, attach after all (dropping
        // `admission` hands the just-admitted budget back).
        let Some(owner) = shared.coalesce(fp, reply, true) else {
            return handle;
        };

        let ctx = ctx.clone();
        let job = Arc::clone(shared);
        let clock = clock.clone();
        let enqueued = clock.now_micros();
        let (priority, tenant) = (owner.priority, owner.tenant.clone());
        self.pool.submit(priority, tenant, move || {
            let run_start = clock.now_micros();
            owner
                .trace
                .add(Stage::QueueWait, run_start.saturating_sub(enqueued));
            // Deadline checkpoint 2 (dequeue): a job whose deadline passed
            // while it sat in the queue is dropped before it burns a worker.
            // `admission` was never started, so dropping it here cancels the
            // tenant's queued budget — the guard's Drop path, not a new one.
            if deadline.is_some_and(|dl| run_start >= dl) {
                job.deadline_expired[Stage::QueueWait as usize].fetch_add(1, Ordering::Relaxed);
                drop(admission);
                job.settle(fp, owner, Err(JobError::DeadlineExceeded(Stage::QueueWait)));
                return;
            }
            admission.start();
            // First line of defense: capture the panic *message* here so the response
            // can carry it; the pool's own catch_unwind is the backstop. The
            // `pool.execute` failpoint sits inside the unwind barrier so injected
            // panics exercise exactly the real panic path (Error behaves like
            // Panic at this seam: an executor failure is an unwind). Deadline
            // checkpoint 3 runs cooperatively between pipeline phases.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                match faults::check("pool.execute") {
                    Some(FaultKind::Panic) | Some(FaultKind::Error) => {
                        panic!("injected fault at pool.execute")
                    }
                    Some(FaultKind::Delay(us)) => {
                        std::thread::sleep(std::time::Duration::from_micros(us))
                    }
                    None => {}
                }
                run_exploration(&ctx, Spec::Goal(&owner.goal), cdrl, sample_rows, &|| {
                    deadline.is_some_and(|dl| clock.now_micros() >= dl)
                })
            })) {
                Ok(Ok(exploration)) => Ok(ExploreResult::from(exploration)),
                Ok(Err(Cancelled)) => {
                    job.deadline_expired[Stage::Execute as usize].fetch_add(1, Ordering::Relaxed);
                    Err(JobError::DeadlineExceeded(Stage::Execute))
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    job.job_panics.fetch_add(1, Ordering::Relaxed);
                    Err(JobError::Panicked(msg))
                }
            };
            owner
                .trace
                .add(Stage::Execute, clock.now_micros().saturating_sub(run_start));
            if let Ok(result) = &outcome {
                // Write-through of the computed result; on a tiered cache this is
                // where the request itself pays disk I/O (loads count under
                // cache-lookup; the tier's own histograms split reads from writes).
                let insert_start = clock.now_micros();
                job.cache.insert(fp, result.clone());
                owner.trace.add(
                    Stage::DiskIo,
                    clock.now_micros().saturating_sub(insert_start),
                );
            }
            admission.finish();
            job.settle(fp, owner, outcome);
        });
        handle
    }

    /// Whether load-shed mode is active right now: queue depth at/over the
    /// configured threshold. Without a threshold this is always `false` (and
    /// costs one `Option` check on the submit path).
    fn should_shed(&self) -> bool {
        self.config
            .shed_queue_depth
            .is_some_and(|depth| self.pool.queued_total() >= depth)
    }

    /// This shard's own counters: requests, result cache and pool. The shared
    /// quota table and disk tier are left zero; the router reads them once.
    pub(crate) fn stats(&self) -> EngineStats {
        self.shared.snapshot(self.pool.stats())
    }

    /// This shard's own latency distributions. `route`, `admit` and `disk`
    /// are left empty: the router owns placement and reads the shared quota
    /// table and disk tier once.
    pub(crate) fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cache_lookup: self.shared.metrics.cache_lookup(),
            queue_wait: self.pool.queue_wait_latency(),
            execute: self.pool.execute_latency(),
            total: self.shared.metrics.request_total(),
            ..TelemetrySnapshot::default()
        }
    }

    /// The slow-request log, oldest first (empty unless
    /// [`EngineConfig::slow_threshold_micros`] is set).
    pub(crate) fn slow_entries(&self) -> Vec<SlowEntry> {
        self.shared.metrics.slow_entries()
    }

    /// Drain: stop intake (consumes the engine), let queued and in-flight jobs
    /// finish, join every worker, and return the engine's final counters
    /// (its own, as [`Engine::stats`]). Result write-through is synchronous
    /// inside each job, so when this returns every completed result has
    /// already reached the disk tier.
    pub(crate) fn drain(self) -> EngineStats {
        self.shared.snapshot(self.pool.shutdown())
    }
}
