//! Chaos suite: seeded fault storms against the serving stack.
//!
//! Every test drives the real engine/router/tier through the `faults` failpoint
//! registry with a *seeded* plan, so each storm replays identically run after
//! run. The invariants under test are the failure-domain contract:
//!
//! * no request ever hangs — every submission resolves to a typed response
//!   (watchdogs enforce this with `recv_timeout`, never a bare `join`);
//! * quota budgets are always returned, whatever path a job dies on;
//! * caches are never poisoned — a faulted lookup is a clean miss or the
//!   correct value, never wrong data;
//! * every shed / expired / broken-circuit request gets a *typed* error
//!   (`Overloaded`, `DeadlineExceeded`, or a miss), not a panic or a stall.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::faults::{self, arm_scoped, FaultKind, FaultPlan, ScopedPlan};
use linx_engine::persist::{BREAKER_CLOSED, BREAKER_OPEN};
use linx_engine::telemetry::Stage;
use linx_engine::{
    DiskTier, EngineConfig, ExploreRequest, ExploreResult, JobError, PersistConfig, Priority,
    RequestId, Router, RouterConfig, TenantQuota, TieredCache,
};
use linx_metrics::Clock;
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

/// Holds the fault scope with nothing armed. Every disk operation of a test runs
/// under a scope, this one or a storm's, so a parallel test's plan cannot fail it.
fn calm() -> ScopedPlan {
    arm_scoped(FaultPlan::new(0))
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("linx-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A config small enough that a storm finishes in seconds.
fn tiny_config(workers: usize) -> EngineConfig {
    let mut config = EngineConfig::fast();
    config.workers = workers;
    config.cdrl.episodes = 30;
    config
}

/// A one-shard router over `engine`: the service's front door at its smallest.
fn one_shard(engine: EngineConfig) -> Router {
    Router::new(RouterConfig {
        shards: 1,
        engine,
        ..RouterConfig::default()
    })
}

/// A distinguishable result payload for cache-poisoning checks: the canonical
/// LDX string encodes the fingerprint the entry was stored under.
fn marked_result(fp: u64) -> ExploreResult {
    ExploreResult {
        ldx_canonical: format!("fp={fp}"),
        notebook: linx_explore::Notebook {
            title: format!("chaos entry {fp}"),
            cells: Vec::new(),
        },
        narrative: linx_explore::Narrative {
            headline: String::new(),
            bullets: Vec::new(),
        },
        best_structural: true,
        best_score: fp as f64,
    }
}

/// Wait on a job handle through a watchdog thread: panics if the response does
/// not arrive within `secs` — a hang is a test failure, not a CI timeout.
fn wait_with_watchdog(
    handle: linx_engine::JobHandle,
    secs: u64,
    what: &str,
) -> linx_engine::ExploreResponse {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: no response within {secs}s — request hung"))
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// A tier over `dir` on a manual clock, so a test steps through the breaker
/// cooldown and the retry backoff without sleeping.
fn tier_on_manual_clock(dir: &Path) -> (Arc<DiskTier>, Clock) {
    let clock = Clock::manual(1_000);
    let _calm = calm();
    let tier = DiskTier::open_with_clock(&PersistConfig::new(dir), clock.clone()).unwrap();
    (tier, clock)
}

#[test]
fn breaker_trips_on_read_error_storm_and_recovers_after_cooldown() {
    let dir = temp_dir("breaker");
    let (tier, clock) = tier_on_manual_clock(&dir);
    {
        let _calm = calm();
        tier.store_result(1, &marked_result(1));
        assert!(tier.load_result(1).is_some(), "healthy tier serves");
    }
    assert_eq!(tier.stats().breaker_state, BREAKER_CLOSED);

    {
        let scoped = arm_scoped(FaultPlan::new(11).always("disk.read", FaultKind::Error));
        // One failure short of the threshold keeps the circuit closed; the
        // next consecutive failure opens it.
        for _ in 1..DiskTier::BREAKER_THRESHOLD {
            assert!(tier.load_result(1).is_none());
        }
        assert_eq!(tier.stats().breaker_state, BREAKER_CLOSED);
        assert!(tier.load_result(1).is_none());
        let stats = tier.stats();
        assert_eq!(stats.breaker_state, BREAKER_OPEN, "storm must trip");
        assert_eq!(stats.breaker_trips, 1);

        // While open, reads short-circuit to clean misses *before* touching the
        // failpoint — the fired counter stays put, up to the last microsecond
        // of the cooldown.
        let fired_before = scoped.plan().fired("disk.read");
        for _ in 0..8 {
            assert!(tier.load_result(1).is_none(), "open circuit is a miss");
        }
        clock.advance(DiskTier::BREAKER_COOLDOWN_MICROS - 1);
        assert!(tier.load_result(1).is_none(), "still cooling down");
        assert_eq!(
            scoped.plan().fired("disk.read"),
            fired_before,
            "open circuit must not touch the disk seam"
        );
    } // storm ends (disk healed)

    // Once the cooldown has elapsed, one half-open probe succeeds and closes the
    // circuit; the stored entry is intact — the breaker never corrupted anything.
    let _calm = calm();
    clock.advance(1);
    let recovered = tier
        .load_result(1)
        .expect("half-open probe against a healed disk must hit");
    assert_eq!(recovered.ldx_canonical, "fp=1");
    let stats = tier.stats();
    assert_eq!(stats.breaker_state, BREAKER_CLOSED, "probe closes");
    assert_eq!(stats.breaker_trips, 1, "recovery is not another trip");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_probe_reopens_the_breaker_and_counts_a_trip() {
    let dir = temp_dir("probe");
    let (tier, clock) = tier_on_manual_clock(&dir);
    {
        let _calm = calm();
        tier.store_result(2, &marked_result(2));
    }

    let _scoped = arm_scoped(FaultPlan::new(3).always("disk.read", FaultKind::Error));
    for _ in 0..DiskTier::BREAKER_THRESHOLD {
        assert!(tier.load_result(2).is_none());
    }
    assert_eq!(tier.stats().breaker_trips, 1);
    clock.advance(DiskTier::BREAKER_COOLDOWN_MICROS);
    // Cooldown elapsed, but the disk is still sick: the probe fails and reopens.
    assert!(tier.load_result(2).is_none());
    let stats = tier.stats();
    assert_eq!(stats.breaker_state, BREAKER_OPEN);
    assert_eq!(stats.breaker_trips, 2, "failed probe is a second trip");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_retries_ride_out_transient_failures_with_deterministic_backoff() {
    let dir = temp_dir("retry");
    let (tier, clock) = tier_on_manual_clock(&dir);
    {
        let _scoped = arm_scoped(FaultPlan::new(5).with_rule("disk.write", FaultKind::Error, 50));
        for fp in 10..26 {
            // Past any cooldown, so an open breaker admits this store as its probe.
            clock.advance(DiskTier::BREAKER_COOLDOWN_MICROS);
            let (retries, before) = (tier.stats().retries, clock.now_micros());
            tier.store_result(fp, &marked_result(fp));
            let retried = tier.stats().retries - retries;
            assert!(retried <= u64::from(DiskTier::WRITE_RETRIES));
            // Backoff slept on the *manual* clock — deterministic, and provably
            // taken: the base wait, doubling per retry.
            assert_eq!(
                clock.now_micros() - before,
                DiskTier::RETRY_BACKOFF_MICROS * ((1 << retried) - 1),
                "store {fp} after {retried} retries"
            );
        }
    }
    let stats = tier.stats();
    assert!(stats.retries > 0, "a 50% write storm must retry: {stats:?}");
    assert!(stats.stores > 0, "retries must rescue some stores");
    // Everything the tier claims to have stored reads back intact, once the
    // first read has probed a breaker the storm may have left open.
    let _calm = calm();
    clock.advance(DiskTier::BREAKER_COOLDOWN_MICROS);
    let mut verified = 0;
    for fp in 10..26 {
        if let Some(result) = tier.load_result(fp) {
            assert_eq!(result.ldx_canonical, format!("fp={fp}"));
            verified += 1;
        }
    }
    assert_eq!(verified, stats.stores, "stores counter matches reality");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failing_unlinks_are_counted_and_do_not_loop_the_evictor() {
    let dir = temp_dir("unlink");
    // The cap floors at 4 KiB, so store entries fat enough to blow past it and
    // force eviction scans.
    let config = PersistConfig::new(&dir).with_max_bytes(1);
    let bulky = |fp: u64| {
        let mut result = marked_result(fp);
        result.narrative.headline = "x".repeat(2048);
        result
    };
    let tier = {
        let _calm = calm();
        let tier = DiskTier::open(&config).unwrap();
        tier.store_result(40, &bulky(40));
        tier
    };
    {
        let _scoped = arm_scoped(FaultPlan::new(9).always("disk.unlink", FaultKind::Error));
        // Every eviction attempt fails to unlink; the scan must give up (and
        // back off) rather than spin, and the failures must be counted.
        for fp in 41..46 {
            tier.store_result(fp, &bulky(fp));
        }
    }
    let stats = tier.stats();
    assert!(
        stats.unlink_errors > 0,
        "failed unlinks must be counted: {stats:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Crash consistency: torn writes and failed renames
// ---------------------------------------------------------------------------

#[test]
fn torn_writes_are_published_then_quarantined_at_the_next_open() {
    let dir = temp_dir("torn");
    let tier = {
        let _calm = calm();
        DiskTier::open(&PersistConfig::new(&dir)).unwrap()
    };
    {
        // Keep exactly 20 bytes of the temp file and rename it anyway — the
        // shape a power cut leaves behind when the rename reached the journal
        // but the data blocks never reached the platter.
        let _scoped = arm_scoped(FaultPlan::parse("seed=1;disk.write.torn=delay:20@100").unwrap());
        tier.store_result(70, &marked_result(70));
    }
    let _calm = calm();
    tier.store_result(71, &marked_result(71));
    let torn = tier.dir().join(format!("res-{:016x}.lnx", 70u64));
    assert_eq!(
        std::fs::metadata(&torn).unwrap().len(),
        20,
        "torn file is published at its truncated length"
    );
    drop(tier);

    // The next open's scrub quarantines the torn entry — bytes preserved for
    // forensics, never unlinked — and the intact neighbour still serves.
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let scrub = tier.scrub_report();
    assert_eq!((scrub.scanned, scrub.quarantined, scrub.entries), (2, 1, 1));
    assert!(!torn.exists(), "torn entry must leave the cache directory");
    let kept = tier
        .quarantine_dir()
        .join(format!("res-{:016x}.lnx", 70u64));
    assert_eq!(std::fs::read(&kept).unwrap().len(), 20);
    assert!(tier.load_result(70).is_none(), "torn entry is a clean miss");
    assert_eq!(tier.load_result(71).unwrap().ldx_canonical, "fp=71");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_renames_drop_the_store_and_leave_no_temp_files() {
    let dir = temp_dir("rename");
    let (tier, clock) = tier_on_manual_clock(&dir);
    let before = clock.now_micros();
    {
        let _scoped = arm_scoped(FaultPlan::new(2).always("disk.rename", FaultKind::Error));
        tier.store_result(80, &marked_result(80));
    }
    let _calm = calm();
    // Every attempt failed, each retry after its backoff, and fewer failures
    // than the breaker's threshold left it closed.
    let stats = tier.stats();
    assert_eq!(stats.retries, u64::from(DiskTier::WRITE_RETRIES));
    assert_eq!(
        clock.now_micros() - before,
        DiskTier::RETRY_BACKOFF_MICROS * ((1 << DiskTier::WRITE_RETRIES) - 1)
    );
    assert_eq!(stats.breaker_state, BREAKER_CLOSED);
    assert!(tier.load_result(80).is_none(), "dropped store is a miss");
    assert_eq!(tier.stats().stores, 0);
    // The failed store cleaned up after itself: nothing for the orphan sweep.
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "no temp or entry files may remain after a failed rename"
    );
    // The disk healed: the same store now lands and reads back.
    tier.store_result(80, &marked_result(80));
    assert_eq!(tier.load_result(80).unwrap().ldx_canonical, "fp=80");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn already_expired_requests_are_rejected_at_admission() {
    let mut config = tiny_config(1);
    config.clock = Clock::manual(5_000);
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");

    let response = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Survey the duration of the titles")
                .with_deadline_micros(5_000), // now >= deadline: dead on arrival
        ),
        30,
        "admission expiry",
    );
    assert!(matches!(
        response.outcome,
        Err(JobError::DeadlineExceeded(Stage::Admit))
    ));
    let stats = router.stats().aggregate();
    assert_eq!(stats.deadline_expired[Stage::Admit as usize], 1);
    assert_eq!(stats.quota.queued, 0, "nothing was admitted");
    assert_eq!(stats.quota.running, 0);
    router.shutdown();
}

#[test]
fn requests_expiring_in_the_queue_are_dropped_and_release_their_budget() {
    let mut config = tiny_config(1); // one worker: the second job must queue
    let clock = Clock::manual(1_000);
    config.clock = clock.clone();
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");

    // Occupy the only worker with a job that stalls 300 ms (real time) at the
    // pool.execute seam; the deadline checkpoint at dequeue runs *before* that
    // seam, so the queued victim never consumes the delay rule.
    let _scoped =
        arm_scoped(FaultPlan::new(1).with_rule("pool.execute", FaultKind::Delay(300_000), 100));
    let blocker = router.submit(
        &ctx,
        ExploreRequest::new("netflix", "Examine characteristics of movies"),
    );
    let deadline = clock.now_micros() + 100;
    let victim = router.submit(
        &ctx,
        ExploreRequest::new("netflix", "Survey the rating of the titles")
            .with_deadline_micros(deadline),
    );
    // The victim is queued behind the blocker; advance the clock past its
    // deadline before the worker gets to it.
    clock.advance(10_000);

    let victim_response = wait_with_watchdog(victim, 60, "queued expiry");
    assert!(matches!(
        victim_response.outcome,
        Err(JobError::DeadlineExceeded(Stage::QueueWait))
    ));
    let blocker_response = wait_with_watchdog(blocker, 60, "blocker");
    assert!(blocker_response.outcome.is_ok(), "the blocker still served");

    let stats = router.stats().aggregate();
    assert_eq!(stats.deadline_expired[Stage::QueueWait as usize], 1);
    assert_eq!(stats.quota.queued, 0, "expired job returned its budget");
    assert_eq!(stats.quota.running, 0);
    router.shutdown();
}

#[test]
fn deadlines_cancel_cooperatively_between_executor_phases() {
    let mut config = tiny_config(1);
    let clock = Clock::manual(1_000);
    config.clock = clock.clone();
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");

    // The job stalls 400 ms (real) at the execute seam — *after* the dequeue
    // checkpoint — while the test expires its deadline on the manual clock.
    // The first cooperative poll inside the pipeline then cancels it.
    let _scoped =
        arm_scoped(FaultPlan::new(2).with_rule("pool.execute", FaultKind::Delay(400_000), 100));
    let handle = router.submit(
        &ctx,
        ExploreRequest::new("netflix", "Find an atypical type")
            .with_deadline_micros(clock.now_micros() + 100),
    );
    std::thread::sleep(Duration::from_millis(100)); // let it pass the dequeue check
    clock.advance(10_000);

    let response = wait_with_watchdog(handle, 60, "cooperative cancel");
    assert!(matches!(
        response.outcome,
        Err(JobError::DeadlineExceeded(Stage::Execute))
    ));
    let stats = router.stats().aggregate();
    assert_eq!(stats.deadline_expired[Stage::Execute as usize], 1);
    assert_eq!(stats.quota.running, 0, "cancelled job finished its budget");
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------------

#[test]
fn shed_mode_rejects_low_priority_misses_but_still_serves_reads() {
    let mut config = tiny_config(2);
    config.shed_queue_depth = Some(0); // degenerate: always in shed mode
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");

    // Normal priority is never shed: warm the cache through the front door.
    let warm = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Survey the duration of the titles"),
        ),
        60,
        "warmup",
    );
    assert!(warm.outcome.is_ok());

    // A Low-priority *hit* still serves — shedding protects workers, not reads.
    let hit = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Survey the duration of the titles")
                .with_priority(Priority::Low),
        ),
        30,
        "low-priority hit",
    );
    assert!(hit.served_from_cache, "cache hits bypass shedding");

    // A Low-priority *miss* is shed with a typed error, immediately.
    let miss = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Find an atypical type").with_priority(Priority::Low),
        ),
        30,
        "low-priority miss",
    );
    assert!(matches!(miss.outcome, Err(JobError::Overloaded)));
    let stats = router.stats().aggregate();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.quota.queued, 0, "shed requests never touch quota");
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Panic storms, budget release, drain
// ---------------------------------------------------------------------------

#[test]
fn panic_storm_releases_budgets_and_the_pool_survives() {
    let mut config = tiny_config(2);
    // Tight per-tenant budget: if any dying job leaked its admission slot, the
    // later submissions in the storm would come back QuotaExceeded instead.
    config.default_quota = TenantQuota::limited(2);
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");

    const STORM_GOALS: [&str; 4] = [
        "Survey the duration of the titles",
        "Find an atypical type",
        "Examine characteristics of movies",
        "Survey the rating of the titles",
    ];
    {
        let _scoped = arm_scoped(FaultPlan::new(7).always("pool.execute", FaultKind::Panic));
        for goal in STORM_GOALS {
            let response = wait_with_watchdog(
                router.submit(&ctx, ExploreRequest::new("netflix", goal)),
                60,
                goal,
            );
            match response.outcome {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("pool.execute"), "panic message: {msg}")
                }
                other => panic!("storm response must be Panicked, got {other:?}"),
            }
        }
    }
    let stats = router.stats().aggregate();
    assert_eq!(stats.pool.panicked, 4, "every injected panic was counted");
    assert_eq!(stats.quota.queued, 0, "panicked jobs returned their budget");
    assert_eq!(stats.quota.running, 0);

    // The storm is over; the same engine — same workers — serves again.
    let healed = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Survey the duration of the titles"),
        ),
        60,
        "post-storm request",
    );
    assert!(healed.outcome.is_ok(), "workers survived the storm");
    assert!(!healed.served_from_cache, "panics were never cached");
    router.shutdown();
}

#[test]
fn engine_drain_completes_under_a_panic_storm_without_deadlock() {
    // Satellite (d): shutdown/drain with workers dying mid-flight must finish
    // within a hard timeout, with budgets released and panics counted.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut config = tiny_config(2);
        config.default_quota = TenantQuota::limited(8);
        let router = one_shard(config);
        let ctx = router.dataset_context(&netflix(200, 7), "netflix");
        let _scoped = arm_scoped(FaultPlan::new(13).always("pool.execute", FaultKind::Panic));
        let handles: Vec<_> = [
            "Survey the duration of the titles",
            "Find an atypical type",
            "Examine characteristics of movies",
            "Survey the rating of the titles",
            "Survey the release year of the titles",
        ]
        .into_iter()
        .map(|goal| router.submit(&ctx, ExploreRequest::new("netflix", goal)))
        .collect();
        // Drain with the storm still armed: queued jobs run (and die), workers
        // join, and every handle still resolves.
        let stats = router.drain().stats;
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().outcome).collect();
        let _ = tx.send((stats, outcomes));
    });

    let (stats, outcomes) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("drain under a panic storm must not deadlock");
    assert_eq!(outcomes.len(), 5);
    for outcome in &outcomes {
        assert!(
            matches!(outcome, Err(JobError::Panicked(_))),
            "drained storm job must resolve to Panicked, got {outcome:?}"
        );
    }
    assert_eq!(stats.pool.panicked, 5);
    assert_eq!(stats.quota.queued, 0, "drain returned every budget");
    assert_eq!(stats.quota.running, 0);
}

// ---------------------------------------------------------------------------
// Router: placement failpoint and drain report
// ---------------------------------------------------------------------------

#[test]
fn route_place_faults_resolve_to_typed_rejections_and_drain_reports() {
    let mut config = RouterConfig::fast();
    config.engine.workers = 1;
    config.engine.cdrl.episodes = 30;
    let router = Router::new(config);
    let dataset = netflix(200, 7);
    let routed = router.dataset_context(&dataset, "netflix");

    {
        let _scoped = arm_scoped(FaultPlan::new(4).always("route.place", FaultKind::Error));
        let response = wait_with_watchdog(
            router.submit(
                &routed,
                ExploreRequest::new("netflix", "Survey the duration of the titles"),
            ),
            30,
            "route.place fault",
        );
        assert!(matches!(response.outcome, Err(JobError::Overloaded)));
        assert_eq!(response.id, RequestId(0), "synthesized outside any engine");
    }

    // Healed: the same router serves, and drain reports the lifetime totals.
    let served = wait_with_watchdog(
        router.submit(
            &routed,
            ExploreRequest::new("netflix", "Survey the duration of the titles"),
        ),
        60,
        "post-fault request",
    );
    assert!(served.outcome.is_ok());
    let report = router.drain();
    assert_eq!(report.completed, 1, "one job actually ran");
    assert_eq!(report.shed, 0);
    assert_eq!(report.deadline_expired, 0);
    assert_eq!(report.stats.quota.queued, 0);
    assert_eq!(report.stats.quota.running, 0);
}

#[test]
fn arming_via_engine_config_reaches_the_failpoints() {
    // Hold the scope lock with an empty plan so parallel chaos tests cannot
    // interleave, then let the engine arm the *real* plan from its config —
    // the same path `--fault-plan` takes.
    let _serialize = arm_scoped(FaultPlan::new(0));
    let plan = Arc::new(FaultPlan::new(21).always("pool.execute", FaultKind::Panic));
    let mut config = tiny_config(1);
    config.fault_plan = Some(Arc::clone(&plan));
    let router = one_shard(config);
    let ctx = router.dataset_context(&netflix(200, 7), "netflix");
    let response = wait_with_watchdog(
        router.submit(
            &ctx,
            ExploreRequest::new("netflix", "Survey the duration of the titles"),
        ),
        60,
        "config-armed fault",
    );
    assert!(matches!(response.outcome, Err(JobError::Panicked(_))));
    assert_eq!(plan.fired("pool.execute"), 1);
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite (c): property — storms never poison the tiered cache
// ---------------------------------------------------------------------------

/// Shared flag so the property can skip the disk tier cleanly if a case's
/// directory cannot be created (never observed; belt and braces).
static DISK_OK: AtomicBool = AtomicBool::new(true);

proptest! {
    #[test]
    fn fault_storms_never_poison_the_tiered_cache(
        seed in 0u64..1_000,
        read_pct in 0u32..=100,
        write_pct in 0u32..=100,
        unlink_pct in 0u32..=100,
    ) {
        prop_assume!(DISK_OK.load(Ordering::Relaxed));
        let dir = temp_dir(&format!("prop-{seed}-{read_pct}-{write_pct}-{unlink_pct}"));
        // Tiny caps on both tiers so stores, evictions, and unlinks all run
        // under fire. Each operation first steps the manual clock past the
        // breaker's cooldown, so an open breaker admits it as its probe and
        // every operation reaches its seam.
        let clock = Clock::manual(1_000);
        let tier = {
            let _calm = calm();
            DiskTier::open_with_clock(&PersistConfig::new(&dir).with_max_bytes(512), clock.clone())
                .unwrap()
        };
        let cache = TieredCache::with_disk(4096, 2, tier);
        let past_cooldown = || clock.advance(DiskTier::BREAKER_COOLDOWN_MICROS);

        let fps: Vec<u64> = (100..108).collect();
        {
            let _scoped = arm_scoped(
                FaultPlan::new(seed)
                    .with_rule("disk.read", FaultKind::Error, read_pct)
                    .with_rule("disk.write", FaultKind::Error, write_pct)
                    .with_rule("disk.unlink", FaultKind::Error, unlink_pct),
            );
            for &fp in &fps {
                past_cooldown();
                cache.insert(fp, marked_result(fp));
            }
            // Under the storm: every lookup is the correct value or a clean
            // miss — never data stored under a different key, never a panic.
            for &fp in &fps {
                past_cooldown();
                if let Some(result) = cache.get(&fp) {
                    prop_assert_eq!(result.ldx_canonical, format!("fp={}", fp));
                }
            }
        }
        // Storm over: the memory tier was never poisoned, and whatever the
        // disk tier kept decodes to exactly what was stored.
        let _calm = calm();
        for &fp in &fps {
            past_cooldown();
            if let Some(result) = cache.get(&fp) {
                prop_assert_eq!(result.ldx_canonical, format!("fp={}", fp));
            }
        }
        // A fresh write-read cycle on the healed stack is fully correct.
        cache.insert(999, marked_result(999));
        let readback = cache.get(&999).expect("healed cache must serve memory hits");
        prop_assert_eq!(readback.ldx_canonical, "fp=999");
        prop_assert!(faults::check("disk.read").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
