//! Integration tests for the exploration service through a one-shard [`Router`]:
//! concurrency, caching, fingerprints, batching, and failure isolation.

use std::sync::Arc;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::{
    BatchRequest, Budget, EngineConfig, ExploreRequest, Priority, Router, RouterConfig, TenantId,
    WorkerPool,
};

fn netflix(rows: usize, seed: u64) -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed,
        },
    )
}

/// A one-shard router small enough that a test batch finishes in seconds.
fn tiny_router(workers: usize) -> Router {
    let mut engine = EngineConfig::fast();
    engine.workers = workers;
    engine.cdrl.episodes = 30;
    Router::new(RouterConfig {
        shards: 1,
        engine,
        ..RouterConfig::default()
    })
}

const GOALS: [&str; 8] = [
    "Find a country with different viewing habits than the rest of the world",
    "Examine characteristics of titles from India",
    "Survey the duration of the titles",
    "Examine characteristics of titles from US",
    "Survey the rating of the titles",
    "Find an atypical type",
    "Examine characteristics of movies",
    "Survey the release year of the titles",
];

#[test]
fn concurrent_submission_from_multiple_threads() {
    let router = Arc::new(tiny_router(4));
    let dataset = netflix(250, 7);
    let ctx = Arc::new(router.dataset_context(&dataset, "netflix"));

    // Four client threads submit two goals each and wait for their own responses —
    // the service is shared state, clients are independent.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let router = Arc::clone(&router);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                (0..2)
                    .map(|i| {
                        let goal = GOALS[(t * 2 + i) % GOALS.len()];
                        router
                            .submit(&ctx, ExploreRequest::new("netflix", goal))
                            .wait()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut ids = Vec::new();
    for h in handles {
        for response in h.join().expect("client thread") {
            assert!(response.outcome.is_ok(), "response failed: {response:?}");
            ids.push(response.id);
        }
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 8, "every request got a distinct id");
    let stats = router.stats().aggregate();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.pool.panicked, 0);
}

#[test]
fn repeated_request_is_served_from_cache() {
    let router = tiny_router(2);
    let dataset = netflix(250, 7);
    let ctx = router.dataset_context(&dataset, "netflix");

    let first = router
        .submit(&ctx, ExploreRequest::new("netflix", GOALS[0]))
        .wait();
    assert!(first.outcome.is_ok());
    assert!(!first.served_from_cache);

    let second = router
        .submit(&ctx, ExploreRequest::new("netflix", GOALS[0]))
        .wait();
    assert!(second.served_from_cache, "identical request hits the cache");
    assert!(
        router.stats().aggregate().cache.hits > 0,
        "hit counter advanced"
    );

    // Same goal, different budget => different result shape => distinct cache entry.
    let third = router
        .submit(
            &ctx,
            ExploreRequest::new("netflix", GOALS[0]).with_budget(Budget {
                max_episodes: Some(10),
                max_sample_rows: None,
            }),
        )
        .wait();
    assert!(!third.served_from_cache, "budget changes the cache key");

    // Same content under a different dataset context still hits: the key is content.
    let same_content_ctx = router.dataset_context(&netflix(250, 7), "netflix");
    let fourth = router
        .submit(&same_content_ctx, ExploreRequest::new("netflix", GOALS[0]))
        .wait();
    assert!(fourth.served_from_cache, "cache keys by dataset content");

    // Different dataset content misses.
    let other_ctx = router.dataset_context(&netflix(250, 8), "netflix");
    let fifth = router
        .submit(&other_ctx, ExploreRequest::new("netflix", GOALS[0]))
        .wait();
    assert!(!fifth.served_from_cache, "different content, different key");
    router.shutdown();
}

#[test]
fn fingerprints_are_stable_across_identical_frames() {
    let a = netflix(300, 3);
    let b = netflix(300, 3);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "same generator, same hash"
    );
    let c = netflix(300, 4);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seed, different hash"
    );
    let d = netflix(301, 3);
    assert_ne!(
        a.fingerprint(),
        d.fingerprint(),
        "different rows, different hash"
    );

    // Stable across clones and independent of sharing structure.
    assert_eq!(a.fingerprint(), a.clone().fingerprint());
}

#[test]
fn batch_of_eight_requests_beats_sequential_explore() {
    use linx::{Linx, LinxConfig};

    let dataset = netflix(300, 7);
    // A serving-shaped workload: 8 requests over 4 distinct goals (two "users" each).
    // `Linx::explore` has no serving layer, so it trains all 8; the engine trains the
    // 4 distinct ones and serves the duplicates by single-flight coalescing / cache.
    let goals: Vec<String> = (0..8).map(|i| GOALS[i % 4].to_string()).collect();
    let episodes = 30;

    let linx = Linx::new(LinxConfig {
        cdrl: linx_cdrl::CdrlConfig {
            episodes,
            ..linx_cdrl::CdrlConfig::default()
        },
        sample_rows: 200,
    });
    let seq_start = std::time::Instant::now();
    for goal in &goals {
        let _ = linx.explore(&dataset, "netflix", goal);
    }
    let sequential = seq_start.elapsed();

    let router = tiny_router(4);
    let par_start = std::time::Instant::now();
    let outcome = router.run_batch(&dataset, BatchRequest::new("netflix", goals.clone()));
    let batched = par_start.elapsed();
    assert_eq!(outcome.succeeded(), goals.len());
    assert_eq!(outcome.responses.len(), 8);
    // Responses come back in request order.
    for (response, goal) in outcome.responses.iter().zip(&goals) {
        assert_eq!(&response.goal, goal);
    }
    // The duplicates were not retrained.
    assert_eq!(
        outcome
            .responses
            .iter()
            .filter(|r| r.served_from_cache)
            .count(),
        4,
        "duplicate requests are coalesced/cached"
    );
    // The shared view memo was exercised across the batch.
    assert!(
        outcome.memo.hits > 0,
        "batch shares materialized views: {:?}",
        outcome.memo
    );
    // And so was the shared view-statistics cache (reward histograms / featurizer
    // summaries are computed once per distinct view across all goals).
    assert!(
        outcome.stats.hits > outcome.stats.misses,
        "batch shares per-view statistics: {:?}",
        outcome.stats
    );
    assert!(
        batched < sequential,
        "batched+deduped serving should beat sequential explore: {batched:?} vs {sequential:?}"
    );
    router.shutdown();
}

#[test]
fn dataset_context_builds_per_dataset_statistics_once() {
    let router = tiny_router(2);
    let dataset = netflix(200, 9);
    let routed = router.dataset_context(&dataset, "netflix");
    let ctx = &routed.ctx;

    // The term inventory and featurizer are constructed at context-build time with the
    // engine's configured shape, and the stats cache is already warmed by that build.
    assert_eq!(
        ctx.shared.terms.slots(),
        router.engine(0).config().cdrl.term_slots
    );
    assert!(ctx.shared.featurizer.obs_dim() > 0);
    let warmed = ctx.shared.stats.stats();
    assert!(warmed.misses > 0, "context build warms the stats cache");

    // Two goals served against the same context share those statistics: the second
    // goal's training run re-reads root-view statistics the first already computed.
    router
        .submit(&routed, ExploreRequest::new("netflix", GOALS[1]))
        .wait();
    let after_first = ctx.shared.stats.stats();
    router
        .submit(&routed, ExploreRequest::new("netflix", GOALS[3]))
        .wait();
    let after_second = ctx.shared.stats.stats();
    assert!(
        after_second.hits > after_first.hits,
        "second goal reuses the first goal's statistics: {after_second:?}"
    );
    router.shutdown();
}

#[test]
fn identical_in_flight_requests_are_coalesced() {
    let router = tiny_router(2);
    let dataset = netflix(200, 5);
    let ctx = router.dataset_context(&dataset, "netflix");

    // Submit the same request five times back to back; nothing has completed yet, so
    // the cache is cold and single-flight coalescing must bound training runs.
    let handles: Vec<_> = (0..5)
        .map(|_| router.submit(&ctx, ExploreRequest::new("netflix", GOALS[1])))
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    for r in &responses {
        assert!(r.outcome.is_ok(), "coalesced response failed: {r:?}");
    }
    let fresh = responses.iter().filter(|r| !r.served_from_cache).count();
    assert_eq!(fresh, 1, "exactly one request actually trained");
    let stats = router.stats().aggregate();
    assert!(
        stats.coalesced + stats.cache.hits >= 4,
        "duplicates were deduplicated: {stats:?}"
    );
    router.shutdown();
}

#[test]
fn worker_panic_is_isolated_and_the_pool_survives() {
    // Exercise panic isolation at the pool layer directly (exploration jobs are not
    // supposed to panic, so the engine-level path is exercised via the pool contract).
    let pool = WorkerPool::new(2);
    for _ in 0..3 {
        pool.submit(Priority::Normal, TenantId::default(), || {
            panic!("poisoned job")
        });
    }
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..4 {
        let tx = tx.clone();
        pool.submit(Priority::Normal, TenantId::default(), move || {
            tx.send(i).unwrap()
        });
    }
    drop(tx);
    let mut got: Vec<i32> = rx.iter().collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3], "pool keeps serving after panics");
    while pool.stats().completed < 7 {
        std::thread::yield_now();
    }
    assert_eq!(pool.stats().panicked, 3);
    pool.shutdown();
}

#[test]
fn cache_eviction_order_is_least_recently_used() {
    use linx_engine::ShardedLru;
    // Single shard so the LRU order is fully deterministic and observable.
    let cache: ShardedLru<u64, &'static str> = ShardedLru::new(2, 1);
    cache.insert(1, "a");
    cache.insert(2, "b");
    assert!(cache.get(&1).is_some()); // refresh 1; 2 is now LRU
    cache.insert(3, "c"); // evicts 2
    assert_eq!(cache.get(&2), None);
    assert!(cache.get(&1).is_some());
    assert!(cache.get(&3).is_some());
    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
}

#[test]
fn shutdown_drains_queued_work() {
    let router = tiny_router(1);
    let dataset = netflix(120, 1);
    let ctx = router.dataset_context(&dataset, "netflix");
    // Shutdown consumes the router, so post-shutdown submission is impossible by
    // construction. What we can observe is that graceful shutdown drains queued work.
    let handle = router.submit(&ctx, ExploreRequest::new("netflix", GOALS[2]));
    router.shutdown(); // must not drop the queued job
    let response = handle.wait();
    assert!(
        response.outcome.is_ok(),
        "graceful shutdown drains in-flight work: {response:?}"
    );
}
