//! The sharded multi-engine router: consistent-hash placement of datasets over N
//! [`Engine`] shards, behind one shared tenant quota table.
//!
//! Each dataset is owned by exactly one shard, chosen by consistent hashing over
//! [`linx_dataframe::DataFrame::fingerprint`]. Two properties follow:
//!
//! * **Locality** — every request for a dataset lands on the same shard, so that
//!   shard's result cache, [`linx_dataframe::StatsCache`], and `OpMemo` accumulate
//!   all of the dataset's reuse instead of diluting it N ways.
//! * **Minimal disruption** — placement hashes the shard *identity* onto a ring of
//!   virtual nodes rather than computing `fingerprint % N`, so growing N shards to
//!   N+1 moves only the keys captured by the new shard's ring segments (≈ `1/(N+1)`
//!   of them) instead of reshuffling almost everything.
//!
//! Correctness does not depend on placement at all: result-cache keys include the
//! dataset *content* fingerprint, so a key that moves to a different shard can at
//! worst miss a warm cache — it can never be served a stale result.
//!
//! Admission control is deliberately *not* per shard: [`Router::new`] builds one
//! [`QuotaTable`] and hands it to every shard, so a tenant's in-flight cap bounds
//! its total footprint across the whole router.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linx_dataframe::fingerprint::Fnv1a;
use linx_dataframe::DataFrame;
use linx_metrics::{Clock, LatencyHistogram};

use crate::api::{EngineConfig, ExploreRequest, JobError};
use crate::batch::{BatchOutcome, BatchRequest};
use crate::engine::{Engine, JobHandle};
use crate::faults::{self, FaultKind};
use crate::persist::{DiskTier, TierStats};
use crate::pipeline::DatasetContext;
use crate::quota::{QuotaStats, QuotaTable};
use crate::stats::EngineStats;
use crate::telemetry::{SlowEntry, Stage, TelemetrySnapshot};

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of engine shards (at least 1).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring. More vnodes flatten the
    /// key distribution at the cost of a larger (still tiny) routing table.
    pub vnodes: usize,
    /// Configuration applied to every shard's engine. Note that `engine.workers`
    /// is *per shard*: a 4-shard router over a 2-worker config runs 8 workers.
    pub engine: EngineConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 1,
            vnodes: 64,
            engine: EngineConfig::default(),
        }
    }
}

impl RouterConfig {
    /// A reduced-budget configuration for tests, demos, and benches.
    pub fn fast() -> Self {
        RouterConfig {
            shards: 2,
            vnodes: 64,
            engine: EngineConfig::fast(),
        }
    }
}

/// The pure placement function: a consistent-hash ring mapping dataset
/// fingerprints to shard indices, independent of any running engine.
///
/// Split out of [`Router`] so placement properties (stability, balance, bounded
/// movement under growth) can be tested without spawning worker threads.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `(ring position, shard index)`, sorted by position.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl RoutingTable {
    /// Build the ring for `shards` shards with `vnodes` virtual nodes each.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let mut h = Fnv1a::new();
                h.write_str("linx-shard");
                h.write_u64(shard as u64);
                h.write_u64(vnode as u64);
                ring.push((h.finish(), shard));
            }
        }
        ring.sort_unstable();
        RoutingTable { ring, shards }
    }

    /// The number of shards the ring places onto.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a dataset fingerprint: the first ring point at or after the
    /// key's own ring position (wrapping past the top).
    pub fn route(&self, dataset_fp: u64) -> usize {
        // Re-hash the fingerprint onto the ring so placement does not inherit any
        // structure the fingerprint might have.
        let mut h = Fnv1a::new();
        h.write_str("linx-key");
        h.write_u64(dataset_fp);
        let point = h.finish();
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard
    }
}

/// Per-shard telemetry: how many requests the router sent there, and the shard
/// engine's own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Requests routed to this shard (submissions and batch goals).
    pub routed: u64,
    /// The shard engine's counters.
    pub engine: EngineStats,
    /// The shard engine's latency distributions. Like `engine.quota` and
    /// `engine.tier`, the shared `route`, `admit` and `disk` histograms are
    /// empty here; they live on [`RouterStats::telemetry`].
    pub telemetry: TelemetrySnapshot,
}

/// A point-in-time snapshot of the whole router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// The shared admission-control counters (tenant-global, not per shard).
    pub quota: QuotaStats,
    /// The shared persistent-tier counters (one disk tier serves all shards;
    /// all-zero when no tier is mounted).
    pub tier: TierStats,
    /// Latency distributions: the shards' own merged, plus the shared
    /// `admit` and `disk` histograms and the router's `route` histogram, each
    /// read once from its owner. [`RouterStats::render_metrics`] exposes this
    /// as Prometheus text; [`RouterStats::render_json`] as a JSON snapshot.
    pub telemetry: TelemetrySnapshot,
}

impl RouterStats {
    /// Sum of every shard's engine counters, with the shared `quota` and
    /// `tier` counters of this snapshot.
    pub fn aggregate(&self) -> EngineStats {
        let shared = EngineStats {
            quota: self.quota,
            tier: self.tier,
            ..EngineStats::default()
        };
        self.shards
            .iter()
            .fold(shared, |acc, s| acc.merge(&s.engine))
    }

    /// One-line human-readable summary: routed counts per shard, then the
    /// aggregated engine summary.
    pub fn summary(&self) -> String {
        let routed: Vec<String> = self.shards.iter().map(|s| s.routed.to_string()).collect();
        format!(
            "router: {} shard(s), routed [{}] | {}",
            self.shards.len(),
            routed.join("/"),
            self.aggregate().summary(),
        )
    }
}

/// A dataset context bound to the shard that owns the dataset.
///
/// Produced by [`Router::dataset_context`]; pass it to [`Router::submit`] so every
/// request for the dataset lands on the owning shard.
#[derive(Debug, Clone)]
pub struct RoutedContext {
    /// The owning shard's index.
    pub shard: usize,
    /// The per-dataset context, built by the owning shard's engine.
    pub ctx: DatasetContext,
    /// Microseconds the router spent placing this dataset on the ring. Stamped
    /// onto each submitted request's trace as its `route` stage: requests don't
    /// re-route, they ride the context's placement.
    pub route_micros: u64,
}

/// A router owning N engine shards with consistent-hash dataset placement and one
/// shared tenant quota table.
///
/// The router is the service's only front door, for one shard or many:
/// [`Router::route`] decides ownership, [`Router::submit`] / [`Router::run_batch`]
/// forward work to the owning shard, and [`Router::stats`] aggregates telemetry.
/// All shards enforce admission against the same [`QuotaTable`], so one tenant's
/// budget is global rather than per shard.
///
/// ```
/// use linx_engine::{EngineConfig, ExploreRequest, Router, RouterConfig};
/// use linx_data::{generate, DatasetKind, ScaleConfig};
///
/// let dataset = generate(DatasetKind::Netflix, ScaleConfig { rows: Some(300), seed: 7 });
/// let mut engine = EngineConfig::fast();
/// engine.cdrl.episodes = 40; // keep the doctest fast
/// let router = Router::new(RouterConfig { shards: 1, engine, ..RouterConfig::default() });
///
/// let ctx = router.dataset_context(&dataset, "netflix");
/// let handle = router.submit(&ctx, ExploreRequest::new("netflix", "Examine titles from India"));
/// let response = handle.wait();
/// assert!(response.outcome.is_ok());
///
/// // The identical request is now served from the cache.
/// let again = router
///     .submit(&ctx, ExploreRequest::new("netflix", "Examine titles from India"))
///     .wait();
/// assert!(again.served_from_cache);
/// assert!(router.stats().aggregate().cache.hits >= 1);
/// router.shutdown();
/// ```
pub struct Router {
    shards: Vec<Engine>,
    table: RoutingTable,
    routed: Vec<AtomicU64>,
    quota: Arc<QuotaTable>,
    /// The shared persistent result tier, when one is configured: opened once here
    /// and handed to every shard, exactly like the quota table — so a result
    /// persisted by one shard is served by all of them, including after a ring
    /// change moved the dataset to a different shard.
    tier: Option<Arc<DiskTier>>,
    clock: Clock,
    /// Placement latency (ring lookups), router-owned: shards never route.
    route_micros: LatencyHistogram,
}

impl Router {
    /// Start `config.shards` engines behind a consistent-hash routing table, a
    /// shared quota table enforcing `config.engine.default_quota`, and — when
    /// `config.engine.persist` is set — one shared [`DiskTier`].
    pub fn new(config: RouterConfig) -> Self {
        let table = RoutingTable::new(config.shards, config.vnodes);
        let clock = config.engine.clock.clone();
        let quota = Arc::new(QuotaTable::with_clock(
            config.engine.default_quota,
            clock.clone(),
        ));
        let tier = Engine::open_tier(&config.engine);
        let shards: Vec<Engine> = (0..table.shards())
            .map(|_| Engine::with_shared(config.engine.clone(), Arc::clone(&quota), tier.clone()))
            .collect();
        let routed = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Router {
            shards,
            table,
            routed,
            quota,
            tier,
            clock,
            route_micros: LatencyHistogram::new(),
        }
    }

    /// The number of engine shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's engine. Outside this crate only its [`Engine::config`] is
    /// reachable: all work goes through the router.
    pub fn engine(&self, shard: usize) -> &Engine {
        &self.shards[shard]
    }

    /// The shard owning a dataset fingerprint.
    ///
    /// Deterministic and stable: the same fingerprint always routes to the same
    /// shard for a given shard count, and growing the shard count relocates only
    /// the keys the new shard captures (see [`RoutingTable`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use linx_engine::{Router, RouterConfig};
    ///
    /// let mut config = RouterConfig::fast();
    /// config.shards = 4;
    /// config.engine.workers = 1; // keep the doctest light
    /// let router = Router::new(config);
    ///
    /// let shard = router.route(0xfeed_beef_dead_c0de);
    /// assert!(shard < router.shards());
    /// // Routing is deterministic: the same fingerprint, the same shard.
    /// assert_eq!(shard, router.route(0xfeed_beef_dead_c0de));
    /// router.shutdown();
    /// ```
    pub fn route(&self, dataset_fp: u64) -> usize {
        self.table.route(dataset_fp)
    }

    /// Build the per-dataset context on the owning shard and bind them together.
    pub fn dataset_context(&self, dataset: &DataFrame, dataset_id: &str) -> RoutedContext {
        let fp = dataset.fingerprint();
        let route_start = self.clock.now_micros();
        let shard = self.table.route(fp);
        let route_micros = self.clock.now_micros().saturating_sub(route_start);
        self.route_micros.record(route_micros);
        RoutedContext {
            shard,
            ctx: self.shards[shard].dataset_context(dataset, dataset_id),
            route_micros,
        }
    }

    /// Submit one request to the shard owning the context's dataset. The request's
    /// trace is activated here (not at the shard) so the `route` stage — the
    /// placement cost of the context it rides — is part of the breakdown.
    pub fn submit(&self, routed: &RoutedContext, request: ExploreRequest) -> JobHandle {
        // The router's own failpoint: a placement layer that cannot forward.
        // Injected errors resolve to a typed `Overloaded` rejection — never a
        // hang, never a panic across the API boundary.
        match faults::check("route.place") {
            Some(FaultKind::Delay(us)) => std::thread::sleep(std::time::Duration::from_micros(us)),
            Some(FaultKind::Error) | Some(FaultKind::Panic) => {
                return JobHandle::resolved(
                    routed.ctx.dataset_id.clone(),
                    request.goal.clone(),
                    JobError::Overloaded,
                );
            }
            None => {}
        }
        self.routed[routed.shard].fetch_add(1, Ordering::Relaxed);
        let trace = request.trace.ensure(&self.clock);
        trace.add(Stage::Route, routed.route_micros);
        self.shards[routed.shard].submit(&routed.ctx, request.with_trace(trace))
    }

    /// Run a whole batch on the shard owning the dataset: build one context, submit
    /// every goal against it before waiting on any (the pool runs them concurrently
    /// while cache hits resolve inline), then collect the responses in goal order.
    /// The outcome records which shard served it. Batch completion is the router's
    /// natural idle point, so the shared quota table is swept here
    /// ([`QuotaTable::gc`]) — a long-lived router serving many drive-by tenant names
    /// stays bounded by *active* tenants.
    pub fn run_batch(&self, dataset: &DataFrame, batch: BatchRequest) -> BatchOutcome {
        let started = std::time::Instant::now();
        let routed = self.dataset_context(dataset, &batch.dataset_id);
        let handles: Vec<JobHandle> = batch
            .goals
            .iter()
            .map(|goal| {
                let request = ExploreRequest::new(batch.dataset_id.clone(), goal.clone())
                    .with_priority(batch.priority)
                    .with_budget(batch.budget)
                    .with_tenant(batch.tenant.clone());
                self.submit(&routed, request)
            })
            .collect();
        let responses = handles.into_iter().map(JobHandle::wait).collect();
        self.quota.gc();
        BatchOutcome {
            responses,
            memo: routed.ctx.memo.stats(),
            stats: routed.ctx.shared.stats.stats(),
            total_micros: started.elapsed().as_micros() as u64,
            shard: routed.shard,
        }
    }

    /// Counters snapshot across every shard plus the shared quota table and the
    /// shared persistent tier.
    pub fn stats(&self) -> RouterStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .zip(&self.routed)
            .map(|(engine, routed)| ShardStats {
                routed: routed.load(Ordering::Relaxed),
                engine: engine.stats(),
                telemetry: engine.telemetry(),
            })
            .collect();
        // Shared and router-owned instruments are read once, here; the shards
        // report only their own.
        let shared = TelemetrySnapshot {
            route: self.route_micros.snapshot(),
            admit: self.quota.admit_latency(),
            disk: self.tier.as_ref().map(|t| t.latency()).unwrap_or_default(),
            ..TelemetrySnapshot::default()
        };
        let telemetry = shards.iter().fold(shared, |acc, s| acc.merge(&s.telemetry));
        RouterStats {
            shards,
            quota: self.quota.stats(),
            tier: self.tier.as_ref().map(|t| t.stats()).unwrap_or_default(),
            telemetry,
        }
    }

    /// Every shard's slow-request log, stamped with its shard index and sorted
    /// slowest-first.
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        let mut entries: Vec<SlowEntry> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(i, engine)| {
                engine.slow_entries().into_iter().map(move |mut e| {
                    e.shard = Some(i);
                    e
                })
            })
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.trace.total_micros));
        entries
    }

    /// Graceful shutdown of every shard: queued jobs drain, workers join, and the
    /// shared quota table is swept of dead tenant entries — [`Router::drain`]
    /// without the report.
    pub fn shutdown(self) {
        self.drain();
    }

    /// Graceful drain: stop intake (consuming `self` makes new submissions
    /// impossible), finish every queued and in-flight job, join the workers,
    /// sweep the shared quota table, and report what the router saw — most
    /// importantly how much work was *refused* (shed, expired, throttled), so
    /// an operator retiring a process knows what its clients absorbed.
    ///
    /// Write-through to the disk tier happens inline on each store, so by the
    /// time every worker has joined the tier is flushed; there is no separate
    /// flush step to run here.
    pub fn drain(self) -> DrainReport {
        let Router {
            shards,
            quota,
            tier,
            ..
        } = self;
        let drained = shards
            .into_iter()
            .fold(EngineStats::default(), |acc, shard| {
                acc.merge(&shard.drain())
            });
        let quota_swept = quota.gc();
        // Every worker has joined, so the shared instruments are final: read
        // each once.
        let stats = EngineStats {
            quota: quota.stats(),
            tier: tier.as_ref().map(|t| t.stats()).unwrap_or_default(),
            ..drained
        };
        DrainReport {
            completed: stats.pool.completed,
            shed: stats.shed,
            deadline_expired: stats.deadline_expired_total(),
            throttled: stats.quota.throttled,
            quota_swept,
            stats,
        }
    }
}

/// What a [`Router::drain`] observed: lifetime completions, every flavour of
/// refused work, and the final aggregated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs the worker pools completed over the router's lifetime.
    pub completed: u64,
    /// Low-priority requests shed by overload protection.
    pub shed: u64,
    /// Requests that ran out of deadline budget at any checkpoint.
    pub deadline_expired: u64,
    /// Requests refused by per-tenant admission control.
    pub throttled: u64,
    /// Dead tenant entries swept from the shared quota table at drain time.
    pub quota_swept: usize,
    /// The final aggregated engine counters (shared quota and tier read once).
    pub stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let table = RoutingTable::new(4, 64);
        for fp in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let shard = table.route(fp);
            assert!(shard < 4);
            assert_eq!(shard, table.route(fp), "route({fp}) must be stable");
        }
    }

    #[test]
    fn every_shard_owns_a_reasonable_key_share() {
        let table = RoutingTable::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[table.route(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // Perfect balance would be 1000 per shard; vnode placement keeps every
            // shard within a loose factor of it.
            assert!(
                (300..=2200).contains(&count),
                "shard {shard} owns {count} of 4000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_keys_only_to_the_new_shard() {
        for n in 1..6 {
            let before = RoutingTable::new(n, 64);
            let after = RoutingTable::new(n + 1, 64);
            let keys = 2000u64;
            let mut moved = 0;
            for i in 0..keys {
                let fp = i.wrapping_mul(0x2545_f491_4f6c_dd1d);
                let (old, new) = (before.route(fp), after.route(fp));
                if old != new {
                    assert_eq!(new, n, "a moved key must land on the added shard");
                    moved += 1;
                }
            }
            // Expected movement is keys/(n+1); allow generous slack for ring
            // placement variance with 64 vnodes.
            let expected = keys / (n as u64 + 1);
            assert!(
                moved <= expected * 2,
                "{n}->{} shards moved {moved} keys (expected ~{expected})",
                n + 1
            );
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let table = RoutingTable::new(0, 0);
        assert_eq!(table.shards(), 1);
        assert_eq!(table.route(123), 0);
    }
}
