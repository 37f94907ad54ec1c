//! The traced run: attributes a request's time to the repository's modules by
//! timing calls into their public functions, and reads the counters the program
//! already keeps (`/metrics`, `Router::stats()`, `StatsCache::stats()`,
//! `OpMemo::stats()`). End-to-end metrics never come from here.
//!
//! Cold workloads run three phases over the first goals of the slice, the third
//! twice:
//! 1. **served**: the untraced closed loop over HTTP, as in the end-to-end run,
//!    then one `GET /metrics` (HTTP, engine stage and tier counters);
//! 2. **request**: each goal replayed in-process through the calls
//!    `pipeline::run_exploration` makes — `Router::dataset_context`,
//!    `SpecDeriver::derive`, `CdrlTrainer::train_with_shared` as one opaque span,
//!    `Notebook::render`, `narrate_with` — on a fresh router;
//! 3. **phases**: the trainer's episode loop driven through `LinxEnv`, `LinxAgent`,
//!    `PolicyGradientTrainer` and `refine_session` on another fresh router, so
//!    training splits into observe, select, step, update, score and refine. The
//!    policy picks every action with `select_action`; the trainer forces the
//!    operation types of some early episodes from a plan it keeps private, so the
//!    replay's sessions differ from the trained ones. `cdrl.replay_coverage`
//!    (phase spans ÷ the opaque train span of the same goal) shows how closely its
//!    time tracks. Each goal's replay runs with tracing off on a third fresh router
//!    at the same time; traced ÷ untraced replay time is the tracing overhead.
//!
//! `warm_restart` traces the restart itself (`DiskTier::open`, one
//! `DiskTier::load_result` per warm key, router start, contexts), then submits
//! untraced and then with a `TraceHandle` attached so the engine's stages become
//! child spans (traced ÷ untraced submit latency is its tracing overhead), and
//! finally replays its preparation's goals through phases 2 and 3 in the same way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linx_cdrl::{CdrlConfig, CdrlTrainer, LinxAgent, LinxEnv};
use linx_dataframe::DataFrame;
use linx_engine::{DiskTier, PersistConfig, RoutedContext, Router, ServeConfig, Server, Stage};
use linx_explore::{
    narrate_with, ExplorationReward, ExplorationTree, Notebook, RewardWeights, SessionExecutor,
};
use linx_ldx::Ldx;
use linx_nl2ldx::SpecDeriver;
use linx_rl::{EpisodeStep, PolicyGradientTrainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::Client;
use crate::cold;
use crate::common::*;
use crate::slice::{dataset_id, Goal, Slice};
use crate::spans::{self, Span, Totals, Tracer};
use crate::warm;

/// The per-layer metrics of the JSON line, in `BENCHMARK.json` order: the ones
/// every workload's traced run measures. Workload-specific layers (HTTP, disk
/// tier, engine stages, the cached-submit path) are printed in the layer report.
pub const PER_LAYER: [&str; 23] = [
    "data.generate_ms",
    "engine.context_ms",
    "nl2ldx.derive_ms",
    "cdrl.train_ms",
    "cdrl.step_ms",
    "explore.session_score_ms",
    "cdrl.refine_ms",
    "cdrl.observe_ms",
    "cdrl.select_ms",
    "rl.update_ms",
    "cdrl.replay_coverage",
    "cdrl.steps_per_req",
    "cdrl.applied_ratio",
    "explore.render_ms",
    "explore.narrate_ms",
    "dataframe.stats_hit_ratio",
    "dataframe.stats_evictions",
    "dataframe.stats_mb",
    "explore.memo_hit_ratio",
    "explore.memo_entries",
    "pool.cpu_ms_per_req",
    "pool.busy_ratio",
    "trace.overhead_ratio",
];

/// Names of the CDRL phase spans, in the order the report lists them.
const PHASES: [&str; 8] = [
    "cdrl.observe",
    "cdrl.select",
    "cdrl.step",
    "rl.update",
    "explore.session_score",
    "cdrl.compliance",
    "cdrl.greedy",
    "cdrl.refine",
];

/// Warm-restart requests whose engine stages are kept as spans, per analyst.
const TRACED_SUBMITS: usize = 2_000;

pub fn run(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Outcome {
    match workload {
        Workload::WarmRestart => run_warm(seed, seconds, smoke),
        _ => run_cold(workload, seed, seconds, smoke),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sum of every sample of a Prometheus family, optionally only the series whose
/// labels contain `label`.
fn prom(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name && series.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// What phases 2 and 3 measured.
struct Replay {
    spans: Vec<Span>,
    /// Per goal: (slice index, opaque train ns, Σ phase ns).
    coverage: Vec<(usize, u64, u64)>,
    /// Per goal: (slice index, request ns) of phase 2.
    request_ns: Vec<(usize, u64)>,
    steps: u64,
    applied: u64,
    /// Σ phase-replay time over the goals, with tracing on and with it off.
    replay_traced_ns: u64,
    replay_untraced_ns: u64,
    stats: linx_dataframe::StatsCacheStats,
    memo: (u64, u64, u64),
    tier: linx_engine::TierStats,
    disk_write: (u64, u64),
}

impl Replay {
    /// Traced ÷ untraced phase-replay time over the same goals.
    fn replay_overhead(&self) -> f64 {
        self.replay_traced_ns as f64 / self.replay_untraced_ns.max(1) as f64
    }
}

fn contexts_traced(
    t: &mut Tracer,
    span: &'static str,
    router: &Router,
    frames: &[(String, DataFrame)],
) -> HashMap<String, RoutedContext> {
    frames
        .iter()
        .map(|(id, frame)| {
            let ctx = t.time(span, || router.dataset_context(frame, id));
            (id.clone(), ctx)
        })
        .collect()
}

fn generate_traced(t: &mut Tracer, rows: usize) -> Vec<(String, DataFrame)> {
    linx_data::DatasetKind::ALL
        .iter()
        .map(|k| {
            let frame = t.time("data.generate", || generate_dataset(*k, rows));
            (dataset_id(*k).to_string(), frame)
        })
        .collect()
}

/// Phase 2 for one goal: the calls `run_exploration` makes, each in a span.
/// Returns the derived specification, the opaque train time and the request time.
fn request_phase(
    t: &mut Tracer,
    ctx: &RoutedContext,
    goal: &Goal,
    cdrl: &CdrlConfig,
) -> (Ldx, u64, u64) {
    let ctx = &ctx.ctx;
    t.enter("request");
    let derivation = t.time("nl2ldx.derive", || {
        SpecDeriver::new().derive(&goal.text, &ctx.dataset_id, &ctx.schema, Some(&ctx.sample))
    });
    let executor = SessionExecutor::with_memo(ctx.dataset.clone(), Arc::clone(&ctx.memo))
        .with_stats(Arc::clone(&ctx.shared.stats));
    t.enter("cdrl.train");
    let outcome = CdrlTrainer::new(cdrl.clone()).train_with_shared(
        executor.clone(),
        derivation.ldx.clone(),
        ctx.shared.clone(),
    );
    let train_ns = t.exit();
    let title = format!("{} — {}", ctx.dataset_id, goal.text);
    let notebook = t.time("explore.render", || {
        Notebook::render(title, &executor, &outcome.best_tree)
    });
    let narrative = t.time("explore.narrate", || {
        narrate_with(&executor, &outcome.best_tree)
    });
    let request_ns = t.exit();
    std::hint::black_box((notebook, narrative));
    (derivation.ldx, train_ns, request_ns)
}

fn consider_best(
    best: &mut Option<(bool, bool, f64, ExplorationTree)>,
    rank: (bool, bool, f64),
    tree: &ExplorationTree,
) {
    if tree.num_ops() == 0 {
        return;
    }
    if best
        .as_ref()
        .is_none_or(|(c, s, score, _)| rank > (*c, *s, *score))
    {
        *best = Some((rank.0, rank.1, rank.2, tree.clone()));
    }
}

/// What one phase replay did.
struct PhaseRun {
    /// Σ phase spans (0 when the tracer is off).
    phase_ns: u64,
    /// The whole replay, timed by the caller's clock.
    total_ns: u64,
    steps: u64,
    applied: u64,
}

/// Phase 3 for one goal: the trainer's loop through public calls, one span per
/// phase call.
fn phase_replay(t: &mut Tracer, ctx: &RoutedContext, ldx: &Ldx, cdrl: &CdrlConfig) -> PhaseRun {
    let start = Instant::now();
    let ctx = &ctx.ctx;
    let executor = SessionExecutor::with_memo(ctx.dataset.clone(), Arc::clone(&ctx.memo))
        .with_stats(Arc::clone(&ctx.shared.stats));
    let mut env = LinxEnv::with_shared(
        executor.clone(),
        ldx.clone(),
        cdrl.clone(),
        ctx.shared.clone(),
    );
    let mut agent = LinxAgent::new(&ctx.dataset, ldx, cdrl);
    let mut pg = PolicyGradientTrainer::new(TrainerConfig {
        lr: cdrl.learning_rate,
        entropy_coef: cdrl.entropy_coef,
        normalize_advantages: false,
        ..TrainerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(cdrl.seed ^ 0xc0ffee);
    let mut best = None;
    let (mut steps_taken, mut applied) = (0u64, 0u64);
    let replay = t.spans.len();
    t.enter("replay");
    for episode in 0..cdrl.episodes {
        env.reset();
        let progress = episode as f64 / cdrl.episodes.max(1) as f64;
        pg.set_entropy_coef(cdrl.entropy_coef * (1.0 - 0.9 * progress));
        pg.set_learning_rate(cdrl.learning_rate * (1.0 - 0.5 * progress));
        let mut steps: Vec<EpisodeStep> = Vec::new();
        while !env.is_done() {
            let obs = t.time("cdrl.observe", || env.observe());
            let (action, taken) =
                t.time("cdrl.select", || agent.select_action(&env, &obs, &mut rng));
            let outcome = t.time("cdrl.step", || env.step(action));
            steps_taken += 1;
            applied += outcome.applied as u64;
            steps.push(EpisodeStep {
                observation: obs,
                actions: taken,
                reward: outcome.reward,
            });
            if outcome.done {
                break;
            }
        }
        let bonus = t.time("cdrl.compliance", || env.end_of_session_bonus(steps.len()));
        for s in &mut steps {
            s.reward += bonus;
        }
        t.time("rl.update", || pg.update(agent.net_mut(), &steps));
        let (compliant, structural) = t.time("cdrl.compliance", || env.compliance_status());
        let score = t.time("explore.session_score", || env.session_score());
        consider_best(&mut best, (compliant, structural, score), env.tree());
    }
    t.enter("cdrl.greedy");
    env.reset();
    while !env.is_done() {
        let obs = env.observe();
        let (action, _) = agent.greedy_action(&env, &obs);
        if env.step(action).done {
            break;
        }
    }
    let (compliant, structural) = env.compliance_status();
    let score = env.session_score();
    consider_best(&mut best, (compliant, structural, score), env.tree());
    t.exit();
    if let Some((true, _, _, tree)) = &best {
        if cdrl.refine {
            t.time("cdrl.refine", || {
                let reward = ExplorationReward::with_cache(
                    RewardWeights::default(),
                    Arc::clone(&ctx.shared.stats),
                );
                let refined = linx_cdrl::refine_session(
                    tree,
                    &ctx.dataset,
                    env.compliance().engine(),
                    env.terms(),
                    &reward,
                );
                std::hint::black_box(reward.session_score(&executor, &refined));
            });
        }
    }
    t.exit();
    PhaseRun {
        phase_ns: t.spans.get(replay).map_or(0, |s| s.child_ns),
        total_ns: start.elapsed().as_nanos() as u64,
        steps: steps_taken,
        applied,
    }
}

/// Phases 2 and 3 over `goals` on fresh routers (with fresh disk tiers when
/// `disk`). Phase 2 runs on one router, two threads taking goals in slice order
/// like the analysts do. Phase 3 replays each goal twice at the same time, traced
/// on a second router and untraced on a third, so the pair shares whatever else
/// the machine is doing and differs only by the spans. The contexts are built
/// under the `context_span` name.
fn replay(
    main: &mut Tracer,
    epoch: Instant,
    sizes: &Sizes,
    goals: &[Goal],
    frames: &[(String, DataFrame)],
    disk: bool,
    context_span: &'static str,
) -> Replay {
    let dirs: Vec<Option<std::path::PathBuf>> = ["trace-request", "trace-phases", "trace-untraced"]
        .into_iter()
        .map(|label| disk.then(|| work_dir(label)))
        .collect();
    let routers: Vec<Router> = dirs
        .iter()
        .map(|dir| Router::new(router_config(sizes, dir.clone())))
        .collect();
    let ctxs: Vec<HashMap<String, RoutedContext>> = routers
        .iter()
        .map(|router| contexts_traced(main, context_span, router, frames))
        .collect();
    let (ctx_b, ctx_c, ctx_d) = (&ctxs[0], &ctxs[1], &ctxs[2]);
    let cdrl = router_config(sizes, None).engine.cdrl;

    // Phase 2: per goal (slice index, specification, opaque train ns, request ns).
    let next = AtomicUsize::new(0);
    type Requested = (usize, Ldx, u64, u64);
    let outs: Vec<(Vec<Span>, Vec<Requested>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(epoch);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(goal) = goals.get(i) else { break };
                        t.set_request(i as u64);
                        let id = dataset_id(goal.dataset);
                        let (ldx, train_ns, request_ns) =
                            request_phase(&mut t, &ctx_b[id], goal, &cdrl);
                        done.push((i, ldx, train_ns, request_ns));
                    }
                    (t.spans, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut thread_spans = Vec::new();
    let mut requested = Vec::new();
    for (sp, done) in outs {
        thread_spans.push(sp);
        requested.extend(done);
    }
    requested.sort_by_key(|r| r.0);

    // Phase 3, traced and untraced side by side.
    let router_b = &routers[0];
    let mut r = Replay {
        spans: Vec::new(),
        coverage: Vec::new(),
        request_ns: Vec::new(),
        steps: 0,
        applied: 0,
        replay_traced_ns: 0,
        replay_untraced_ns: 0,
        stats: ctx_b
            .values()
            .next()
            .map(|c| c.ctx.shared.stats.stats())
            .unwrap_or_default(),
        memo: ctx_b.values().fold((0, 0, 0), |acc, c| {
            let m = c.ctx.memo.stats();
            (acc.0 + m.hits, acc.1 + m.misses, acc.2 + m.entries)
        }),
        tier: router_b.stats().tier,
        disk_write: {
            let w = router_b.stats().telemetry.disk.write;
            (w.sum, w.count)
        },
    };
    let mut t = Tracer::new(epoch);
    let mut off = Tracer::off(epoch);
    for (i, ldx, train_ns, request_ns) in &requested {
        let id = dataset_id(goals[*i].dataset);
        t.set_request(*i as u64);
        let (traced, untraced) = std::thread::scope(|s| {
            let untraced = s.spawn(|| phase_replay(&mut off, &ctx_d[id], ldx, &cdrl));
            let traced = phase_replay(&mut t, &ctx_c[id], ldx, &cdrl);
            (traced, untraced.join().expect("untraced replay panicked"))
        });
        r.coverage.push((*i, *train_ns, traced.phase_ns));
        r.request_ns.push((*i, *request_ns));
        r.steps += traced.steps;
        r.applied += traced.applied;
        r.replay_traced_ns += traced.total_ns;
        r.replay_untraced_ns += untraced.total_ns;
    }
    thread_spans.push(t.spans);
    r.spans = spans::merge(thread_spans);
    drop(ctxs);
    for router in routers {
        router.shutdown();
    }
    for dir in dirs.iter().flatten() {
        remove_dir(dir);
    }
    r
}

/// The layer report and the per-layer metrics shared by every workload.
fn report_replay(out: &mut Outcome, all: &[Span], r: &Replay, goals: &[Goal]) {
    let tot = spans::totals(all);
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let n = r.request_ns.len().max(1) as f64;
    let request = get("request");
    let train = get("cdrl.train");
    out.notes.push(format!(
        "layer report ({} goals; share = self time ÷ Σ request, phases ÷ Σ phase replay):",
        r.request_ns.len()
    ));
    out.notes.push(format!(
        "  {:<24} {:>7} {:>12} {:>12} {:>8}",
        "span", "count", "mean ms", "self ms", "share"
    ));
    let mut line = |name: &str, base: &Totals| {
        let t = get(name);
        if t.count > 0 {
            out.notes.push(format!(
                "  {:<24} {:>7} {:>12.3} {:>12.1} {:>7.1}%",
                name,
                t.count,
                ms(t.total_ns) / t.count as f64,
                ms(t.self_ns),
                100.0 * t.self_ns as f64 / base.total_ns.max(1) as f64
            ));
        }
    };
    for name in ["data.generate", "engine.context"] {
        line(name, &request);
    }
    for name in [
        "request",
        "nl2ldx.derive",
        "cdrl.train",
        "explore.render",
        "explore.narrate",
    ] {
        line(name, &request);
    }
    let replay = get("replay");
    for name in PHASES {
        line(name, &replay);
    }
    let coverage: Vec<String> = r
        .coverage
        .iter()
        .map(|(i, train_ns, phase_ns)| {
            format!(
                "#{i} g{} {}: {:.2}",
                goals[*i].meta,
                dataset_id(goals[*i].dataset),
                *phase_ns as f64 / (*train_ns).max(1) as f64
            )
        })
        .collect();
    out.notes.push(format!(
        "cdrl.replay_coverage per request: {}",
        coverage.join(", ")
    ));
    out.notes.push(format!(
        "phase replay with tracing on ÷ off, same goals: {:.3}",
        r.replay_overhead()
    ));

    let per_req = |name: &str| ms(get(name).total_ns) / n;
    out.metric(
        "data.generate_ms",
        "ms",
        ms(get("data.generate").total_ns) / get("data.generate").count.max(1) as f64,
        get("data.generate").count,
    );
    out.metric(
        "engine.context_ms",
        "ms",
        ms(get("engine.context").total_ns) / get("engine.context").count.max(1) as f64,
        get("engine.context").count,
    );
    let reqs = r.request_ns.len() as u64;
    out.metric("nl2ldx.derive_ms", "ms", per_req("nl2ldx.derive"), reqs);
    out.metric("cdrl.train_ms", "ms", per_req("cdrl.train"), reqs);
    out.metric("cdrl.step_ms", "ms", per_req("cdrl.step"), reqs);
    out.metric(
        "explore.session_score_ms",
        "ms",
        per_req("explore.session_score"),
        reqs,
    );
    out.metric("cdrl.refine_ms", "ms", per_req("cdrl.refine"), reqs);
    out.metric("cdrl.observe_ms", "ms", per_req("cdrl.observe"), reqs);
    out.metric("cdrl.select_ms", "ms", per_req("cdrl.select"), reqs);
    out.metric("rl.update_ms", "ms", per_req("rl.update"), reqs);
    out.metric("cdrl.compliance_ms", "ms", per_req("cdrl.compliance"), reqs);
    out.metric("cdrl.greedy_ms", "ms", per_req("cdrl.greedy"), reqs);
    let phases: u64 = r.coverage.iter().map(|c| c.2).sum();
    out.metric(
        "cdrl.replay_coverage",
        "ratio",
        phases as f64 / train.total_ns.max(1) as f64,
        reqs,
    );
    out.metric("cdrl.steps_per_req", "count", r.steps as f64 / n, reqs);
    out.metric(
        "cdrl.applied_ratio",
        "ratio",
        r.applied as f64 / r.steps.max(1) as f64,
        r.steps,
    );
    out.metric("explore.render_ms", "ms", per_req("explore.render"), reqs);
    out.metric("explore.narrate_ms", "ms", per_req("explore.narrate"), reqs);
    let s = r.stats;
    out.metric(
        "dataframe.stats_hit_ratio",
        "ratio",
        s.hit_rate(),
        s.hits + s.misses,
    );
    out.metric("dataframe.stats_evictions", "count", s.evictions as f64, 1);
    out.metric(
        "dataframe.stats_mb",
        "MiB",
        s.weight as f64 / (1024.0 * 1024.0),
        s.entries,
    );
    let (mh, mm, me) = r.memo;
    out.metric(
        "explore.memo_hit_ratio",
        "ratio",
        mh as f64 / (mh + mm).max(1) as f64,
        mh + mm,
    );
    out.metric("explore.memo_entries", "count", me as f64, 1);
    out.metric("persist.stores", "count", r.tier.stores as f64, 1);
    out.metric(
        "persist.store_mb",
        "MiB",
        r.tier.bytes as f64 / (1024.0 * 1024.0),
        r.tier.entries,
    );
    out.metric(
        "persist.write_us",
        "us",
        r.disk_write.0 as f64 / r.disk_write.1.max(1) as f64,
        r.disk_write.1,
    );
}

fn run_cold(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(workload);
    let sizes = Sizes::of(workload, smoke);
    let slice = Slice::build(seed);
    let k = sizes
        .cold_goals(seconds, slice.goals.len())
        .min(sizes.trace_goals);
    let goals = &slice.goals[..k];
    out.notes.push(format!(
        "slice: seed {seed}; traced on the first {k}: {}; digest {:016x}",
        slice.composition(k),
        slice.digest(k)
    ));
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch);

    // Phase 1: served over HTTP, untraced inside the server.
    let frames = generate_traced(&mut main, sizes.rows);
    let cache_dir = (workload == Workload::Cold2kDisk).then(|| work_dir("trace-served"));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        router: router_config(&sizes, cache_dir.clone()),
        ..ServeConfig::default()
    };
    let server = match main.time("engine.server_start", || {
        Server::start(config, frames.clone())
    }) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("server did not start: {e}"));
            return out;
        }
    };
    let lr = cold::closed_loop(server.addr(), goals);
    let metrics = Client::connect(server.addr())
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map(|(_, body)| body)
        .unwrap_or_default();
    server.join();
    if let Some(dir) = &cache_dir {
        remove_dir(dir);
    }
    cold::check(&mut out, goals, &lr.records);
    let done = lr.records.len().max(1) as f64;
    let mean = |f: &dyn Fn(&cold::Record) -> f64| lr.records.iter().map(f).sum::<f64>() / done;
    out.metric(
        "http.submit_us",
        "us",
        mean(&|r| r.post_ns as f64 / 1e3),
        lr.records.len() as u64,
    );
    out.metric(
        "http.result_us",
        "us",
        mean(&|r| r.result_ns as f64 / 1e3),
        lr.records.len() as u64,
    );
    out.metric(
        "http.overhead_ms",
        "ms",
        mean(&|r| (r.latency_ns as f64 - r.server_micros as f64 * 1e3) / 1e6),
        lr.records.len() as u64,
    );
    for (name, family, unit, per_micro) in [
        ("engine.route_us", "linx_route_micros", "us", 1.0),
        (
            "engine.cache_lookup_us",
            "linx_cache_lookup_micros",
            "us",
            1.0,
        ),
        ("engine.admit_us", "linx_admit_micros", "us", 1.0),
        ("engine.queue_wait_us", "linx_queue_wait_micros", "us", 1.0),
        ("engine.execute_ms", "linx_execute_micros", "ms", 1e-3),
    ] {
        let count = prom(&metrics, &format!("{family}_count"), "");
        let sum = prom(&metrics, &format!("{family}_sum"), "");
        out.metric(name, unit, sum / count.max(1.0) * per_micro, count as u64);
    }
    let hits = prom(&metrics, "linx_cache_hits_total", "tier=\"memory\"");
    let misses = prom(&metrics, "linx_cache_misses_total", "tier=\"memory\"");
    out.metric(
        "engine.result_hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as u64,
    );
    out.metric(
        "engine.coalesced",
        "count",
        prom(&metrics, "linx_requests_coalesced_total", ""),
        1,
    );
    out.metric(
        "pool.cpu_ms_per_req",
        "ms",
        lr.cpu_s * 1e3 / done,
        lr.records.len() as u64,
    );
    out.metric(
        "pool.busy_ratio",
        "ratio",
        lr.cpu_s / (lr.wall_s * CLIENTS as f64),
        1,
    );

    // Phases 2 and 3.
    let r = replay(
        &mut main,
        epoch,
        &sizes,
        goals,
        &frames,
        workload == Workload::Cold2kDisk,
        "engine.context",
    );
    out.metric(
        "trace.overhead_ratio",
        "ratio",
        r.replay_overhead(),
        r.request_ns.len() as u64,
    );
    let mut all = main.spans;
    all.extend(r.spans.iter().cloned());
    report_replay(&mut out, &all, &r, goals);
    write_spans(&mut out, workload, &all);
    out
}

fn write_spans(out: &mut Outcome, workload: Workload, all: &[Span]) {
    let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"))
        .join(format!("spans-{}.jsonl", workload.name()));
    match spans::write_jsonl(&path, all) {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {}", all.len(), path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

fn run_warm(seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(Workload::WarmRestart);
    let Some(p) = warm::prepared(&mut out, seed, smoke) else {
        return out;
    };
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch);
    let frames = generate_traced(&mut main, p.sizes.rows);

    // The restart, layer by layer: scrub, per-key disk loads, router, contexts.
    let tier = match main.time("persist.open", || {
        DiskTier::open(&PersistConfig::new(&p.dir))
    }) {
        Ok(t) => t,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("disk tier did not open: {e}"));
            return out;
        }
    };
    let scrub = tier.scrub_report();
    let fps: HashMap<&str, u64> = frames
        .iter()
        .map(|(id, f)| (id.as_str(), f.fingerprint()))
        .collect();
    let engine = router_config(&p.sizes, None).engine;
    for goal in &p.goals {
        let fp = linx_engine::request_fingerprint(
            fps[dataset_id(goal.dataset)],
            &goal.text,
            &engine.cdrl,
            p.sizes.episodes,
            engine.sample_rows,
        );
        main.time("persist.read", || {
            std::hint::black_box(tier.load_result(fp.0))
        });
    }
    let ts = tier.stats();
    drop(tier);
    let router = main.time("engine.router_start", || {
        Router::new(router_config(&p.sizes, Some(p.dir.clone())))
    });
    let ctxs = contexts_traced(&mut main, "engine.context", &router, &frames);

    // Cached submits, first untraced, then with the engine's stage trace attached:
    // the ratio of their mean latencies is the tracing overhead on this workload.
    let half = Duration::from_secs(seconds.clamp(1, 4));
    let plain = warm::submit_loop(&router, &ctxs, &p.goals, half, None);
    let tracers: Vec<std::sync::Mutex<Tracer>> = (0..CLIENTS)
        .map(|_| std::sync::Mutex::new(Tracer::new(epoch)))
        .collect();
    let collect = |thread: usize, ns: u64, trace: linx_engine::RequestTrace| {
        let mut t = tracers[thread].lock().expect("tracer lock");
        if t.spans.len() >= TRACED_SUBMITS * (1 + Stage::ALL.len()) {
            return;
        }
        t.enter("engine.submit_hit");
        for stage in Stage::ALL {
            t.child(stage_span(stage), trace.stage(stage) * 1000);
        }
        t.exit();
        let submit = t.spans.len() - 1 - Stage::ALL.len();
        t.spans[submit].end_ns = t.spans[submit].start_ns + ns;
    };
    let traced = warm::submit_loop(&router, &ctxs, &p.goals, half, Some(&collect));
    out.attempted = plain.hist.count() + traced.hist.count();
    out.failed = plain.wrong + traced.wrong;
    out.failures
        .extend(plain.first_error.clone().or(traced.first_error.clone()));
    warm::verify(&mut out, &p, &router, &ctxs);
    let stats = router.stats();
    router.shutdown();

    let submit_spans = spans::merge(
        tracers
            .into_iter()
            .map(|t| t.into_inner().expect("tracer lock").spans)
            .collect(),
    );
    let st = spans::totals(&submit_spans);
    let stage_us = |name: &str| {
        st.get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let hits = st.get("engine.submit_hit").copied().unwrap_or_default();
    out.metric(
        "engine.submit_hit_us",
        "us",
        plain.hist.mean_ns() / 1e3,
        plain.hist.count(),
    );
    // A hit never reaches admission, the queue, execution or the write-through;
    // those stages read 0 here and are printed so the report shows every stage.
    for (name, stage) in [
        ("engine.route_us", Stage::Route),
        ("engine.cache_lookup_us", Stage::CacheLookup),
        ("engine.admit_us", Stage::Admit),
        ("engine.queue_wait_us", Stage::QueueWait),
        ("engine.execute_us", Stage::Execute),
        ("engine.disk_io_us", Stage::DiskIo),
        ("engine.respond_us", Stage::Respond),
    ] {
        out.metric(name, "us", stage_us(stage_span(stage)), hits.count);
    }
    out.metric(
        "engine.unstaged_us",
        "us",
        hits.self_ns as f64 / 1e3 / hits.count.max(1) as f64,
        hits.count,
    );
    let agg = stats.aggregate();
    let lookups = agg.cache.hits + agg.cache.misses;
    out.metric(
        "engine.result_hit_ratio",
        "ratio",
        agg.cache.hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    out.metric("engine.coalesced", "count", agg.coalesced as f64, 1);
    let open = spans::totals(&main.spans);
    let o = |name: &str| open.get(name).copied().unwrap_or_default();
    out.metric("persist.open_ms", "ms", ms(o("persist.open").total_ns), 1);
    out.metric("persist.scrub_entries", "count", scrub.scanned as f64, 1);
    let reads = o("persist.read");
    out.metric(
        "persist.read_us",
        "us",
        reads.total_ns as f64 / 1e3 / reads.count.max(1) as f64,
        reads.count,
    );
    out.metric(
        "persist.hit_ratio",
        "ratio",
        ts.hits as f64 / (ts.hits + ts.misses).max(1) as f64,
        ts.hits + ts.misses,
    );
    out.metric(
        "persist.errors",
        "count",
        (ts.load_errors + ts.retries + stats.tier.load_errors + stats.tier.retries) as f64,
        1,
    );
    out.metric(
        "engine.router_start_ms",
        "ms",
        ms(o("engine.router_start").total_ns),
        1,
    );
    out.metric(
        "pool.cpu_ms_per_req",
        "ms",
        plain.cpu_s * 1e3 / plain.hist.count().max(1) as f64,
        plain.hist.count(),
    );
    out.metric(
        "pool.busy_ratio",
        "ratio",
        plain.cpu_s / (plain.wall_s * CLIENTS as f64),
        1,
    );
    out.metric(
        "trace.overhead_ratio",
        "ratio",
        traced.hist.mean_ns() / plain.hist.mean_ns().max(1.0),
        traced.hist.count(),
    );

    // The preparation's goals through phases 2 and 3, for the training layers
    // this workload's answers came from.
    let k = p.goals.len().min(p.sizes.trace_goals);
    let r = replay(
        &mut main,
        epoch,
        &p.sizes,
        &p.goals[..k],
        &frames,
        true,
        "engine.context_fresh",
    );
    let mut all = main.spans;
    all.extend(r.spans.iter().cloned());
    report_replay(&mut out, &all, &r, &p.goals);
    all.extend(submit_spans);
    write_spans(&mut out, Workload::WarmRestart, &all);
    remove_dir(&p.dir);
    out
}

fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Route => "engine.route",
        Stage::CacheLookup => "engine.cache_lookup",
        Stage::Admit => "engine.admit",
        Stage::QueueWait => "engine.queue_wait",
        Stage::Execute => "engine.execute",
        Stage::DiskIo => "engine.disk_io",
        Stage::Respond => "engine.respond",
    }
}
