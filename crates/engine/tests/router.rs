//! Integration tests for the sharded router and tenant-fair admission control:
//! placement stability, cross-shard correctness, quota throttling, and
//! tenant-fair scheduling under a saturating tenant.

use std::sync::mpsc;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::{
    EngineConfig, ExploreRequest, JobError, Priority, Router, RouterConfig, RoutingTable, TenantId,
    TenantQuota, WorkerPool,
};
use proptest::prelude::*;

fn netflix(rows: usize, seed: u64) -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed,
        },
    )
}

/// A router config small enough that a test batch finishes in seconds.
fn tiny_router(shards: usize, workers: usize) -> RouterConfig {
    let mut engine = EngineConfig::fast();
    engine.workers = workers;
    engine.cdrl.episodes = 30;
    RouterConfig {
        shards,
        vnodes: 64,
        engine,
    }
}

proptest! {
    /// Consistent-hash placement is stable under shard-count growth: a key either
    /// keeps its shard or moves to the newly added one, and only a bounded fraction
    /// moves at all.
    #[test]
    fn adding_a_shard_relocates_a_bounded_fraction_of_keys(
        fps in prop::collection::vec(0u64..u64::MAX, 100..400),
        shards in 1usize..8,
    ) {
        let before = RoutingTable::new(shards, 64);
        let after = RoutingTable::new(shards + 1, 64);
        let mut moved = 0usize;
        for &fp in &fps {
            let (old, new) = (before.route(fp), after.route(fp));
            prop_assert!(old < shards && new < shards + 1);
            if old != new {
                prop_assert!(new == shards, "moved keys land only on the added shard");
                moved += 1;
            }
        }
        // Expected movement is |keys| / (shards + 1); allow ~3x slack for the
        // variance of 64-vnode ring segments before calling placement unstable.
        let bound = (3 * fps.len()) / (shards + 1) + 8;
        prop_assert!(
            moved <= bound,
            "moved {} of {} keys growing {} -> {} shards (bound {})",
            moved, fps.len(), shards, shards + 1, bound
        );
    }

    /// Placement is a pure function of (fingerprint, shard count, vnodes).
    #[test]
    fn routing_is_deterministic(fp in 0u64..u64::MAX, shards in 1usize..10) {
        let a = RoutingTable::new(shards, 64);
        let b = RoutingTable::new(shards, 64);
        prop_assert_eq!(a.route(fp), b.route(fp));
        prop_assert!(a.route(fp) < shards);
    }
}

/// Block a single-worker pool until the returned sender fires, so everything queued
/// behind the gate is scheduled by the fair queue deterministically.
fn gate(pool: &WorkerPool) -> mpsc::Sender<()> {
    let (started_tx, started_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    pool.submit(Priority::High, TenantId::default(), move || {
        started_tx.send(()).unwrap();
        gate_rx.recv().unwrap();
    });
    started_rx.recv().unwrap();
    gate_tx
}

/// The fairness acceptance bar: a tenant flooding 10x the victim's volume cannot
/// push the victim's median completion position beyond its fair share.
#[test]
fn saturating_tenant_cannot_starve_another_tenants_queue_positions() {
    let pool = WorkerPool::new(1);
    let open = gate(&pool);

    let (tx, rx) = mpsc::channel();
    // The saturating tenant floods 30 jobs before the victim submits 3.
    for _ in 0..30 {
        let tx = tx.clone();
        pool.submit(Priority::Normal, TenantId::new("flood"), move || {
            tx.send("flood").unwrap()
        });
    }
    for _ in 0..3 {
        let tx = tx.clone();
        pool.submit(Priority::Normal, TenantId::new("victim"), move || {
            tx.send("victim").unwrap()
        });
    }
    open.send(()).unwrap();

    let order: Vec<&str> = rx.iter().take(33).collect();
    let victim_positions: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(_, tag)| **tag == "victim")
        .map(|(i, _)| i + 1) // 1-indexed completion position
        .collect();
    assert_eq!(victim_positions.len(), 3);
    // Equal weights alternate the two tenants, so the victim's k-th job completes
    // near position 2k. FIFO would leave the median at position 32.
    let p50 = victim_positions[1];
    assert!(
        p50 <= 6,
        "victim p50 queue position {p50} exceeds its fair share; order: {order:?}"
    );
    assert!(
        *victim_positions.last().unwrap() <= 8,
        "victim tail position pushed out: {victim_positions:?}"
    );
    pool.shutdown();
}

#[test]
fn quota_throttles_only_the_overrunning_tenant() {
    let mut config = tiny_router(1, 1);
    config.engine.cdrl.episodes = 120; // jobs slow enough that the queue fills
    config.engine.default_quota = TenantQuota::limited(2);
    let router = Router::new(config);
    let dataset = netflix(250, 7);
    let routed = router.dataset_context(&dataset, "netflix");

    // Four distinct goals back to back: 2 admitted, 2 refused immediately.
    let goals = [
        "Survey the duration of the titles",
        "Survey the rating of the titles",
        "Survey the release year of the titles",
        "Find an atypical type",
    ];
    let handles: Vec<_> = goals
        .iter()
        .map(|g| {
            router.submit(
                &routed,
                ExploreRequest::new("netflix", *g).with_tenant("greedy"),
            )
        })
        .collect();
    // A different tenant is admitted despite greedy's exhaustion.
    let other = router
        .submit(
            &routed,
            ExploreRequest::new("netflix", "Examine characteristics of movies")
                .with_tenant("modest"),
        )
        .wait();
    assert!(other.outcome.is_ok(), "other tenant unaffected: {other:?}");

    let responses: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let throttled = responses
        .iter()
        .filter(|r| matches!(&r.outcome, Err(JobError::QuotaExceeded(t)) if t.as_str() == "greedy"))
        .count();
    let succeeded = responses.iter().filter(|r| r.outcome.is_ok()).count();
    assert_eq!(
        throttled, 2,
        "exactly the over-budget submissions are refused"
    );
    assert_eq!(succeeded, 2);

    let stats = router.stats();
    assert_eq!(stats.quota.throttled, 2);
    assert!(stats.quota.admitted >= 3);
    assert!(stats.summary().contains("throttled"));
    router.shutdown();
}

#[test]
fn router_serves_requests_and_keeps_dataset_locality() {
    let router = Router::new(tiny_router(3, 2));
    let a = netflix(200, 5);
    let b = netflix(220, 6);

    let ctx_a = router.dataset_context(&a, "netflix-a");
    let ctx_b = router.dataset_context(&b, "netflix-b");
    assert_eq!(ctx_a.shard, router.route(a.fingerprint()));
    assert_eq!(ctx_b.shard, router.route(b.fingerprint()));

    // Content decides placement; the dataset's display name does not.
    let renamed = router.dataset_context(&a, "totally-different-name");
    assert_eq!(renamed.shard, ctx_a.shard);

    let goal = "Survey the duration of the titles";
    let first = router
        .submit(&ctx_a, ExploreRequest::new("netflix-a", goal))
        .wait();
    assert!(first.outcome.is_ok());
    assert!(!first.served_from_cache);

    // The identical request routes to the same shard and hits its result cache.
    let again = router
        .submit(&ctx_a, ExploreRequest::new("netflix-a", goal))
        .wait();
    assert!(
        again.served_from_cache,
        "locality makes the cache effective"
    );

    let other = router
        .submit(&ctx_b, ExploreRequest::new("netflix-b", goal))
        .wait();
    assert!(other.outcome.is_ok());

    let stats = router.stats();
    let routed_total: u64 = stats.shards.iter().map(|s| s.routed).sum();
    assert_eq!(routed_total, 3);
    let aggregate = stats.aggregate();
    assert_eq!(aggregate.submitted, 3);
    assert!(aggregate.cache.hits >= 1);
    router.shutdown();
}

#[test]
fn routed_batches_record_their_shard() {
    let router = Router::new(tiny_router(2, 2));
    let dataset = netflix(200, 9);
    let outcome = router.run_batch(
        &dataset,
        linx_engine::BatchRequest::new(
            "netflix",
            vec![
                "Survey the rating of the titles".to_string(),
                "Find an atypical type".to_string(),
            ],
        )
        .with_tenant("batch-tenant"),
    );
    assert_eq!(outcome.shard, router.route(dataset.fingerprint()));
    assert_eq!(outcome.succeeded(), 2);
    assert_eq!(outcome.throttled(), 0);
    router.shutdown();
}
