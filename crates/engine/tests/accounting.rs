//! Every way out of `Router::submit`, driven through one router: each
//! submission gets exactly one response, and the router's counters account for
//! each submission exactly once.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_engine::faults::{arm_scoped, FaultKind, FaultPlan};
use linx_engine::telemetry::Stage;
use linx_engine::{
    DrainReport, EngineConfig, ExploreRequest, ExploreResponse, ExploreResult, JobError, JobHandle,
    Priority, RoutedContext, Router, RouterConfig, RouterStats, SlowEntry, TenantQuota,
};
use linx_metrics::Clock;

/// The scenarios of this file arm the process-wide failpoints, so they run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Submissions in order, and the response each has given so far.
#[derive(Default)]
struct Log {
    handles: Vec<(&'static str, JobHandle)>,
    responses: Vec<ExploreResponse>,
}

impl Log {
    fn submit(
        &mut self,
        router: &Router,
        ctx: &RoutedContext,
        label: &'static str,
        request: ExploreRequest,
    ) {
        self.handles.push((label, router.submit(ctx, request)));
    }

    /// Wait until every submission so far has responded.
    fn settle(&mut self) {
        let Log { handles, responses } = self;
        for (label, handle) in &handles[responses.len()..] {
            responses.push(await_response(label, handle));
        }
    }
}

fn await_response(label: &str, handle: &JobHandle) -> ExploreResponse {
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(response) = handle.try_wait() {
            return response;
        }
        assert!(Instant::now() < give_up, "{label}: no response in 120 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one run of [`every_exit`] observed.
struct Run {
    /// `(label, response)` per submission, in submission order.
    responses: Vec<(&'static str, ExploreResponse)>,
    /// Each handle's id, in submission order.
    ids: Vec<u64>,
    /// The router's counters once every response had arrived.
    stats: RouterStats,
    /// The slow-request log at the same moment.
    slow: Vec<SlowEntry>,
    /// The report of the drain that followed.
    drained: DrainReport,
    /// What reading each handle once more found after the drain.
    second_reads: Vec<ExploreResponse>,
}

/// Drive every exit a submission can take out of one router: a completed job
/// and a memory-cache hit; a waiter coalesced onto a job that completes; a
/// queue-expired job with a waiter attached; a Low request shed at
/// `shed_queue_depth`; a quota refusal; an admission-expired request; and a
/// job panicked through the `pool.execute` failpoint. The slow log's
/// threshold is 0, so it may hold every response.
fn every_exit() -> Run {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clock = Clock::manual(1_000);
    let mut engine = EngineConfig::fast();
    engine.workers = 1;
    engine.cdrl.episodes = 20;
    engine.clock = clock.clone();
    engine.shed_queue_depth = Some(1);
    engine.default_quota = TenantQuota::limited(2);
    engine.slow_threshold_micros = Some(0);
    let router = Router::new(RouterConfig {
        shards: 1,
        engine,
        ..RouterConfig::default()
    });
    let dataset = generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(200),
            seed: 7,
        },
    );
    let ctx = router.dataset_context(&dataset, "netflix");
    let request = |goal: &str| ExploreRequest::new("netflix", goal);
    let mut log = Log::default();

    // A job that completes, then the same request from the memory cache.
    let first = "Survey the duration of the titles";
    log.submit(&router, &ctx, "completed", request(first));
    log.settle();
    log.submit(&router, &ctx, "cache hit", request(first));
    log.settle();

    // The blocker holds the only worker at the pool.execute seam while the
    // rest attach to it, queue behind it, or are turned away.
    {
        let _stall =
            arm_scoped(FaultPlan::new(1).always("pool.execute", FaultKind::Delay(300_000)));
        let blocker = "Examine characteristics of movies";
        log.submit(&router, &ctx, "blocker", request(blocker));
        log.submit(&router, &ctx, "waiter on the blocker", request(blocker));
        let queued = "Survey the rating of the titles";
        let deadline = clock.now_micros() + 100;
        log.submit(
            &router,
            &ctx,
            "queue-expired",
            request(queued).with_deadline_micros(deadline),
        );
        log.submit(
            &router,
            &ctx,
            "waiter on the queue-expired job",
            request(queued),
        );
        // One job is queued: the shed threshold is reached.
        log.submit(
            &router,
            &ctx,
            "shed",
            request("Find an atypical type").with_priority(Priority::Low),
        );
        // The blocker and the queued job hold the tenant's two slots.
        log.submit(
            &router,
            &ctx,
            "quota refusal",
            request("Survey the release year of the titles"),
        );
        log.submit(
            &router,
            &ctx,
            "admission-expired",
            request("Examine characteristics of titles from India")
                .with_deadline_micros(clock.now_micros()),
        );
        // The queued job's deadline passes before the worker is free.
        clock.advance(10_000);
        log.settle();
    }

    {
        let _panic = arm_scoped(FaultPlan::new(2).always("pool.execute", FaultKind::Panic));
        log.submit(
            &router,
            &ctx,
            "panicked",
            request("Examine characteristics of titles from US"),
        );
        log.settle();
    }

    let stats = router.stats();
    let slow = router.slow_entries();
    let drained = router.drain();
    let second_reads = log
        .handles
        .iter()
        .map(|(label, handle)| await_response(label, handle))
        .collect();
    Run {
        ids: log.handles.iter().map(|(_, h)| h.id().0).collect(),
        responses: log
            .handles
            .iter()
            .map(|(label, _)| *label)
            .zip(log.responses)
            .collect(),
        stats,
        slow,
        drained,
        second_reads,
    }
}

/// A comparable name for an outcome.
fn outcome_name(outcome: &Result<ExploreResult, JobError>) -> String {
    match outcome {
        Ok(_) => "ok".to_string(),
        Err(JobError::DeadlineExceeded(stage)) => format!("deadline_exceeded:{}", stage.name()),
        Err(JobError::QuotaExceeded(tenant)) => format!("quota_exceeded:{tenant}"),
        Err(JobError::Overloaded) => "overloaded".to_string(),
        Err(JobError::Panicked(msg)) => {
            assert!(msg.contains("pool.execute"), "panic message: {msg}");
            "panicked".to_string()
        }
        Err(other) => format!("{other:?}"),
    }
}

#[test]
fn every_exit_answers_once_and_is_counted_once() {
    let run = every_exit();

    // (label, outcome, served_from_cache), in submission order.
    let expected = [
        ("completed", "ok", false),
        ("cache hit", "ok", true),
        ("blocker", "ok", false),
        ("waiter on the blocker", "ok", true),
        ("queue-expired", "deadline_exceeded:queue_wait", false),
        (
            "waiter on the queue-expired job",
            "deadline_exceeded:queue_wait",
            false,
        ),
        ("shed", "overloaded", false),
        ("quota refusal", "quota_exceeded:default", false),
        ("admission-expired", "deadline_exceeded:admit", false),
        ("panicked", "panicked", false),
    ];
    assert_eq!(run.responses.len(), expected.len());
    for ((label, response), (want_label, want_outcome, want_cached)) in
        run.responses.iter().zip(expected)
    {
        assert_eq!(*label, want_label);
        assert_eq!(
            outcome_name(&response.outcome),
            want_outcome,
            "{label}: {response:?}"
        );
        assert_eq!(response.served_from_cache, want_cached, "{label}");
    }

    // One response per submission: each carries its handle's id, and a
    // second read after the drain finds the channel closed, not a second
    // response.
    let response_ids: Vec<u64> = run.responses.iter().map(|(_, r)| r.id.0).collect();
    assert_eq!(response_ids, run.ids);
    let mut distinct = run.ids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), run.ids.len(), "ids are unique");
    for (second, (label, _)) in run.second_reads.iter().zip(&run.responses) {
        assert!(
            matches!(second.outcome, Err(JobError::WorkerLost)),
            "{label} answered twice: {second:?}"
        );
    }

    // Every response sent recorded one end-to-end latency, and the slow log
    // names no request that was not answered.
    assert_eq!(
        run.stats.telemetry.total.count,
        run.responses.len() as u64,
        "one latency sample per response"
    );
    for entry in &run.slow {
        assert!(
            run.ids.contains(&entry.id.0),
            "slow entry {}",
            entry.render()
        );
    }

    // The accounting identity. Every submission leaves through exactly one
    // counted exit:
    //
    //   submitted = expired at admission + memory-cache hits + coalesced
    //             + shed + refused by quota + jobs the pool ran
    let s = run.drained.stats;
    let admit_expired = s.deadline_expired[Stage::Admit as usize];
    assert_eq!(s.submitted, run.responses.len() as u64);
    assert_eq!(
        admit_expired + s.cache.hits + s.coalesced + s.shed + s.quota.throttled + s.pool.completed,
        s.submitted,
        "{}",
        s.summary()
    );
    assert_eq!(
        (
            admit_expired,
            s.cache.hits,
            s.coalesced,
            s.shed,
            s.quota.throttled,
            s.pool.completed
        ),
        (1, 1, 2, 1, 1, 4)
    );
    // Every job the pool ran trained an answer, expired, or panicked:
    //
    //   jobs the pool ran = trained + expired in the queue
    //                     + expired executing + panicked
    let trained = run
        .responses
        .iter()
        .filter(|(_, r)| r.outcome.is_ok() && !r.served_from_cache)
        .count() as u64;
    assert_eq!(
        s.pool.completed,
        trained
            + s.deadline_expired[Stage::QueueWait as usize]
            + s.deadline_expired[Stage::Execute as usize]
            + s.pool.panicked
    );
    // Every lookup that did not hit missed; a request expired at admission
    // looks nothing up.
    assert_eq!(s.cache.misses, s.submitted - admit_expired - s.cache.hits);
    // Each job the pool ran was admitted once, and no budget outlives the drain.
    assert_eq!(s.quota.admitted, s.pool.completed);
    assert_eq!((s.quota.queued, s.quota.running), (0, 0));
    // The drain report reads the same counters.
    assert_eq!(run.drained.completed, s.pool.completed);
    assert_eq!(run.drained.shed, s.shed);
    assert_eq!(run.drained.throttled, s.quota.throttled);
    assert_eq!(run.drained.deadline_expired, s.deadline_expired_total());
}

#[test]
fn every_response_enters_the_slow_log_at_threshold_zero() {
    let run = every_exit();
    // Every exit times its response from the request's own trace, so at
    // threshold 0 each response leaves exactly one slow-log entry.
    let entry = |id: u64, dataset: &str, goal: &str, cached: bool| {
        (id, dataset.to_string(), goal.to_string(), cached)
    };
    let mut logged: Vec<_> = run
        .slow
        .iter()
        .map(|e| entry(e.id.0, &e.dataset_id, &e.goal, e.served_from_cache))
        .collect();
    logged.sort();
    let mut answered: Vec<_> = run
        .responses
        .iter()
        .map(|(_, r)| entry(r.id.0, &r.dataset_id, &r.goal, r.served_from_cache))
        .collect();
    answered.sort();
    assert_eq!(logged, answered);
}
