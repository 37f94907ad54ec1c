//! Integration tests for the telemetry layer: per-request stage traces flowing
//! through the real router/engine/pool stack, the slow-request log, and a golden
//! check on the Prometheus exposition so metric renames are always deliberate.

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::{BatchRequest, EngineConfig, Router, RouterConfig, Stage};

fn netflix(rows: usize, seed: u64) -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed,
        },
    )
}

/// A traced router small enough for a test batch: every request (threshold 0)
/// lands in the slow-request log.
fn traced_router(shards: usize) -> Router {
    let mut engine = EngineConfig::fast();
    engine.workers = 2;
    engine.cdrl.episodes = 30;
    engine.slow_threshold_micros = Some(0);
    Router::new(RouterConfig {
        shards,
        engine,
        ..RouterConfig::default()
    })
}

const GOALS: [&str; 3] = [
    "Survey the duration of the titles",
    "Examine characteristics of titles from India",
    "Find an atypical type",
];

/// The pool records a job's execute time *after* the job's closure has sent its
/// response, so a batch can return a beat before the worker finishes its
/// bookkeeping. Tests poll for the expected sample count instead of racing it.
fn wait_for(mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "telemetry samples did not settle within 10s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn traces_cover_the_request_lifecycle_end_to_end() {
    let router = traced_router(1);
    let dataset = netflix(250, 7);
    let goals: Vec<String> = GOALS.iter().map(|g| g.to_string()).collect();

    let cold = router.run_batch(&dataset, BatchRequest::new("netflix", goals.clone()));
    assert_eq!(cold.succeeded(), GOALS.len());
    wait_for(|| {
        let t = router.stats().telemetry;
        t.execute.iter().map(|h| h.count).sum::<u64>() == GOALS.len() as u64
    });

    let t = router.stats().telemetry;
    // One total-latency sample per request, each with a cache lookup.
    assert_eq!(t.total.count, GOALS.len() as u64);
    assert_eq!(t.cache_lookup.count, GOALS.len() as u64);
    // Every fresh request waited in exactly one band's queue and executed there.
    let queued: u64 = t.queue_wait.iter().map(|h| h.count).sum();
    let executed: u64 = t.execute.iter().map(|h| h.count).sum();
    assert_eq!(queued, GOALS.len() as u64);
    assert_eq!(executed, GOALS.len() as u64);
    // The batch was placed once by the router.
    assert!(t.route.count >= 1);
    // Execution dominates a fresh CDRL run, so the sum must be non-trivial.
    assert!(t.execute.iter().map(|h| h.sum).sum::<u64>() > 0);

    // Threshold 0 put every request in the slow log, newest-slowest first.
    let slow = router.slow_entries();
    assert_eq!(slow.len(), GOALS.len());
    assert!(slow
        .windows(2)
        .all(|w| w[0].trace.total_micros >= w[1].trace.total_micros));
    for entry in &slow {
        assert_eq!(entry.shard, Some(0));
        assert!(!entry.served_from_cache);
        assert!(entry.trace.total_micros > 0);
        assert!(entry.trace.stage_micros[Stage::Execute as usize] > 0);
        let line = entry.render();
        assert!(line.contains("execute="), "breakdown missing: {line}");
        assert!(line.contains(&entry.goal), "goal missing: {line}");
    }

    // A warm identical batch is served from cache: lookups and totals grow, but
    // nothing new executes, and the slow log marks the entries as cache-served.
    let warm = router.run_batch(&dataset, BatchRequest::new("netflix", goals));
    assert_eq!(warm.cache_hits(), GOALS.len());
    let t = router.stats().telemetry;
    assert_eq!(t.total.count, 2 * GOALS.len() as u64);
    assert_eq!(t.cache_lookup.count, 2 * GOALS.len() as u64);
    assert_eq!(
        t.execute.iter().map(|h| h.count).sum::<u64>(),
        GOALS.len() as u64
    );
    let slow = router.slow_entries();
    assert_eq!(slow.len(), 2 * GOALS.len());
    assert_eq!(
        slow.iter().filter(|e| e.served_from_cache).count(),
        GOALS.len()
    );

    router.shutdown();
}

#[test]
fn telemetry_merges_across_shards() {
    let router = traced_router(2);
    let dataset = netflix(250, 7);
    let goals: Vec<String> = GOALS.iter().map(|g| g.to_string()).collect();
    let outcome = router.run_batch(&dataset, BatchRequest::new("netflix", goals));
    assert_eq!(outcome.succeeded(), GOALS.len());

    let stats = router.stats();
    // The batch landed on exactly one shard, but the merged view still counts it.
    assert_eq!(stats.telemetry.total.count, GOALS.len() as u64);
    let owner = outcome.shard;
    assert_eq!(
        stats.shards[owner].telemetry.total.count,
        GOALS.len() as u64
    );
    assert_eq!(
        stats.shards[1 - owner].telemetry.total.count,
        0,
        "the idle shard recorded nothing"
    );
    for entry in router.slow_entries() {
        assert_eq!(entry.shard, Some(owner));
    }

    // Per-shard counters sum, result-cache bytes included; the shared quota
    // table is read once, by the router, and never reported per shard.
    let aggregate = stats.aggregate();
    let shard_weights: u64 = stats.shards.iter().map(|s| s.engine.cache.weight).sum();
    assert!(
        aggregate.cache.weight > 0,
        "results are resident: {aggregate:?}"
    );
    assert_eq!(aggregate.cache.weight, shard_weights);
    assert_eq!(aggregate.quota, stats.quota);
    assert_eq!(stats.quota.admitted, GOALS.len() as u64);
    for shard in &stats.shards {
        assert_eq!(shard.engine.quota, Default::default());
        assert_eq!(shard.telemetry.admit.count, 0);
    }
    assert_eq!(stats.telemetry.admit.count, GOALS.len() as u64);
    router.shutdown();
}

/// The exact set of Prometheus metric families the exposition emits, in order.
/// A rename or removal here is a breaking change for scrapers — update this
/// list only deliberately, alongside docs/ARCHITECTURE.md.
const GOLDEN_FAMILIES: [&str; 38] = [
    "linx_requests_submitted_total counter",
    "linx_requests_coalesced_total counter",
    "linx_routed_total counter",
    "linx_cache_hits_total counter",
    "linx_cache_misses_total counter",
    "linx_cache_evictions_total counter",
    "linx_cache_entries gauge",
    "linx_tier_load_errors_total counter",
    "linx_tier_stores_total counter",
    "linx_tier_bytes gauge",
    "linx_pool_workers gauge",
    "linx_pool_completed_total counter",
    "linx_pool_panicked_total counter",
    "linx_pool_queued_now gauge",
    "linx_pool_in_flight_now gauge",
    "linx_quota_admitted_total counter",
    "linx_quota_throttled_total counter",
    "linx_quota_queued gauge",
    "linx_quota_running gauge",
    "linx_quota_tenants gauge",
    "linx_deadline_expired_total counter",
    "linx_shed_total counter",
    "linx_disk_unlink_errors_total counter",
    "linx_disk_retries_total counter",
    "linx_breaker_state gauge",
    "linx_breaker_trips_total counter",
    "linx_scrub_scanned_total counter",
    "linx_scrub_quarantined_total counter",
    "linx_route_micros histogram",
    "linx_admit_micros histogram",
    "linx_cache_lookup_micros histogram",
    "linx_queue_wait_micros histogram",
    "linx_execute_micros histogram",
    "linx_disk_read_micros histogram",
    "linx_disk_write_micros histogram",
    "linx_disk_sync_micros histogram",
    "linx_disk_evict_micros histogram",
    "linx_request_total_micros histogram",
];

#[test]
fn prometheus_family_set_is_golden() {
    // An idle router must still emit every family, zero-valued.
    let router = traced_router(1);
    let text = router.stats().render_metrics();
    router.shutdown();

    let families: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(String::from)
        .collect();
    let golden: Vec<String> = GOLDEN_FAMILIES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        families, golden,
        "metric family set drifted from the golden list"
    );

    // Histogram series follow the Prometheus convention and end in +Inf.
    assert!(text.contains("linx_request_total_micros_bucket{le=\"+Inf\"} 0"));
    assert!(text.contains("linx_request_total_micros_count 0"));
    assert!(text.contains("linx_queue_wait_micros_bucket{band=\"high\",le=\"1\"} 0"));
}
