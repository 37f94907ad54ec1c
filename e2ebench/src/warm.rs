//! `warm_restart`: a router restarted over a cache directory that a preparation
//! process warmed with the slice. Two in-process analysts call `Router::submit`
//! for the whole run, so every answer comes from the cache tiers and no training
//! runs. The preparation runs in a child process: its time and memory stay out of
//! every metric.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use linx_cdrl::CdrlConfig;
use linx_engine::{request_fingerprint, ExploreRequest, RoutedContext, Router, TraceHandle};

use crate::common::*;
use crate::hist::Histogram;
use crate::slice::{dataset_id, Goal, Slice};
use crate::sys;

/// The cache key the engine gives `goal` on `ctx` under `sizes`.
pub fn fingerprint(ctx: &RoutedContext, goal: &Goal, sizes: &Sizes, sample_rows: usize) -> u64 {
    let cdrl = CdrlConfig {
        episodes: sizes.episodes,
        ..CdrlConfig::default()
    };
    request_fingerprint(
        ctx.ctx.dataset_fp,
        &goal.text,
        &cdrl,
        sizes.episodes,
        sample_rows,
    )
    .0
}

pub fn contexts(
    router: &Router,
    frames: &[(String, linx_dataframe::DataFrame)],
) -> HashMap<String, RoutedContext> {
    frames
        .iter()
        .map(|(id, frame)| (id.clone(), router.dataset_context(frame, id)))
        .collect()
}

/// The preparation, run as a child process: answer every warm goal through a
/// router with the disk tier at `dir`, then print one `fingerprint digest` line
/// per answer.
pub fn prepare(dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    let sizes = Sizes::of(Workload::WarmRestart, smoke);
    let slice = Slice::build(seed);
    let goals = &slice.goals[..sizes.warm_goals.min(slice.goals.len())];
    let config = router_config(&sizes, Some(dir.to_path_buf()));
    let sample_rows = config.engine.sample_rows;
    let router = Router::new(config);
    let frames = datasets(sizes.rows);
    let ctxs = contexts(&router, &frames);
    let handles: Vec<_> = goals
        .iter()
        .map(|g| {
            let ctx = &ctxs[dataset_id(g.dataset)];
            let req = ExploreRequest::new(dataset_id(g.dataset), g.text.clone());
            (g, ctx, router.submit(ctx, req))
        })
        .collect();
    for (goal, ctx, handle) in handles {
        let response = handle.wait();
        let result = response
            .outcome
            .map_err(|e| format!("preparation failed on {:?}: {e}", goal.text))?;
        println!(
            "{:016x} {:016x}",
            fingerprint(ctx, goal, &sizes, sample_rows),
            result_digest(&result)
        );
    }
    router.drain();
    Ok(())
}

/// Run the preparation child and collect the digests it recorded.
fn run_preparation(dir: &Path, seed: u64, smoke: bool) -> Result<HashMap<u64, u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--prepare-warm")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn preparation: {e}"))?;
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    let status = child.wait().map_err(|e| format!("wait preparation: {e}"))?;
    if !status.success() {
        return Err(format!("preparation exited with {status}"));
    }
    let mut digests = HashMap::new();
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        let (Some(fp), Some(d)) = (parts.next(), parts.next()) else {
            continue;
        };
        let parse =
            |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("digest line {line:?}: {e}"));
        digests.insert(parse(fp)?, parse(d)?);
    }
    Ok(digests)
}

/// One restart over the warm directory: `Router::new` (its scrub) and contexts
/// that load persisted statistics. Returns them and the seconds it took.
pub fn restart(
    dir: &Path,
    sizes: &Sizes,
    frames: &[(String, linx_dataframe::DataFrame)],
) -> (Router, HashMap<String, RoutedContext>, f64) {
    let t0 = Instant::now();
    let router = Router::new(router_config(sizes, Some(dir.to_path_buf())));
    let ctxs = contexts(&router, frames);
    (router, ctxs, secs(t0))
}

/// Restart and shut down again for `window`, at least once; the time of each restart.
pub fn restarts_for(
    dir: &Path,
    sizes: &Sizes,
    frames: &[(String, linx_dataframe::DataFrame)],
    window: Duration,
) -> Vec<f64> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    while setup_s.is_empty() || start.elapsed() < window {
        let (router, _, s) = restart(dir, sizes, frames);
        setup_s.push(s);
        router.shutdown();
    }
    setup_s
}

/// Everything a prepared warm run needs.
pub struct Prepared {
    pub sizes: Sizes,
    pub goals: Vec<Goal>,
    pub dir: PathBuf,
    pub digests: HashMap<u64, u64>,
    pub frames: Vec<(String, linx_dataframe::DataFrame)>,
}

pub fn prepared(out: &mut Outcome, seed: u64, smoke: bool) -> Option<Prepared> {
    let sizes = Sizes::of(Workload::WarmRestart, smoke);
    let slice = Slice::build(seed);
    let n = sizes.warm_goals.min(slice.goals.len());
    out.notes.push(format!(
        "slice: seed {seed}, {} distinct goals ({} repeats dropped); warmed with the first {n}: {}; digest {:016x}",
        slice.goals.len(),
        slice.duplicates,
        slice.composition(n),
        slice.digest(n)
    ));
    let dir = work_dir("warm");
    let digests = match run_preparation(&dir, seed, smoke) {
        Ok(d) if d.len() == n => d,
        Ok(d) => {
            out.attempted = 1;
            out.fail(format!("preparation recorded {} of {n} answers", d.len()));
            remove_dir(&dir);
            return None;
        }
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            remove_dir(&dir);
            return None;
        }
    };
    Some(Prepared {
        sizes,
        goals: slice.goals[..n].to_vec(),
        dir,
        digests,
        frames: datasets(sizes.rows),
    })
}

/// What the timed loop saw.
#[derive(Default)]
pub struct LoopStats {
    pub hist: Histogram,
    pub wrong: u64,
    pub first_error: Option<String>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Answers per second in each whole one-second window of the loop.
    pub window_rps: Vec<f64>,
}

impl LoopStats {
    /// Answers per second: the median over one-second windows, so a burst of
    /// interference from outside the process moves a few windows, not the figure.
    pub fn throughput(&self) -> f64 {
        if self.window_rps.is_empty() {
            return self.hist.count() as f64 / self.wall_s.max(1e-9);
        }
        median(&mut self.window_rps.clone())
    }
}

/// Two analysts call `Router::submit(..).wait()` for `duration`, cycling through
/// the warm goals. Only cheap checks run inside the loop; `trace` attaches a stage
/// trace to every request and hands its snapshot, with the analyst's index and the
/// request's latency, to the callback.
pub fn submit_loop(
    router: &Router,
    ctxs: &HashMap<String, RoutedContext>,
    goals: &[Goal],
    duration: Duration,
    trace: Option<&(dyn Fn(usize, u64, linx_engine::RequestTrace) + Sync)>,
) -> LoopStats {
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let deadline = start + duration;
    let analysts: Vec<(LoopStats, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    let mut a = LoopStats::default();
                    let mut windows = vec![0u64; duration.as_secs() as usize + 1];
                    let clock = linx_metrics::Clock::real();
                    let mut k = t;
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let goal = &goals[k % goals.len()];
                        k += CLIENTS;
                        let ctx = &ctxs[dataset_id(goal.dataset)];
                        let mut req =
                            ExploreRequest::new(dataset_id(goal.dataset), goal.text.clone());
                        let handle = trace.map(|_| TraceHandle::active(&clock));
                        if let Some(h) = &handle {
                            req = req.with_trace(h.clone());
                        }
                        let t0 = Instant::now();
                        let response = router.submit(ctx, req).wait();
                        let ns = t0.elapsed().as_nanos() as u64;
                        a.hist.record(ns);
                        let window = (now - start).as_secs() as usize;
                        if let Some(w) = windows.get_mut(window) {
                            *w += 1;
                        }
                        if let (Some(cb), Some(h)) = (trace, &handle) {
                            cb(t, ns, h.snapshot());
                        }
                        if !(response.served_from_cache && response.outcome.is_ok()) {
                            a.wrong += 1;
                            if a.first_error.is_none() {
                                a.first_error = Some(format!(
                                    "answer for {:?} was not a cached success: {:?}",
                                    goal.text,
                                    response.outcome.err()
                                ));
                            }
                        }
                    }
                    (a, windows)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let mut stats = LoopStats {
        wall_s: secs(start),
        cpu_s: sys::cpu_seconds() - cpu0,
        ..LoopStats::default()
    };
    let mut windows = vec![0u64; duration.as_secs() as usize];
    for (a, w) in analysts {
        stats.hist.merge(&a.hist);
        stats.wrong += a.wrong;
        stats.first_error = stats.first_error.or(a.first_error);
        for (sum, n) in windows.iter_mut().zip(w) {
            *sum += n;
        }
    }
    stats.window_rps = windows.into_iter().map(|n| n as f64).collect();
    stats
}

/// After the loop: every warm goal answers from the cache with the digest its
/// entry had when first computed, and no training job ran since the restart.
pub fn verify(
    out: &mut Outcome,
    p: &Prepared,
    router: &Router,
    ctxs: &HashMap<String, RoutedContext>,
) -> Quality {
    let mut quality = Quality::default();
    let sample_rows = router.engine(0).config().sample_rows;
    for goal in &p.goals {
        out.attempted += 1;
        let ctx = &ctxs[dataset_id(goal.dataset)];
        let response = router
            .submit(
                ctx,
                ExploreRequest::new(dataset_id(goal.dataset), goal.text.clone()),
            )
            .wait();
        let checked = response
            .outcome
            .map_err(|e| format!("{:?} failed: {e}", goal.text))
            .and_then(|result| {
                let fp = fingerprint(ctx, goal, &p.sizes, sample_rows);
                let digest = result_digest(&result);
                if p.digests.get(&fp) != Some(&digest) {
                    return Err(format!(
                        "answer for {:?} differs from the one first computed",
                        goal.text
                    ));
                }
                let answer = Answer {
                    ldx: result.ldx_canonical.clone(),
                    cells: result.notebook.cells.len(),
                    // Four decimals, as `linx serve` reports it: training the same
                    // request in two processes can differ in the score's last bit.
                    best_score: format!("{:.4}", result.best_score)
                        .parse()
                        .unwrap_or(f64::NAN),
                    best_structural: result.best_structural,
                    served_from_cache: response.served_from_cache,
                };
                check_answer(goal, &answer, true, &mut quality)
            });
        if let Err(e) = checked {
            out.fail(e);
        }
    }
    let stats = router.stats();
    let trained = stats.aggregate().pool.completed;
    if trained > 0 {
        out.fail(format!("{trained} training jobs ran after the restart"));
    }
    if stats.tier.load_errors > 0 {
        out.fail(format!("{} disk-tier load errors", stats.tier.load_errors));
    }
    quality
}

pub fn run(seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(Workload::WarmRestart);
    let Some(p) = prepared(&mut out, seed, smoke) else {
        return out;
    };
    let half = p.sizes.setup_window / 2;
    let mut setup_s = restarts_for(&p.dir, &p.sizes, &p.frames, half);
    let (router, ctxs, s) = restart(&p.dir, &p.sizes, &p.frames);
    setup_s.push(s);
    let stats = submit_loop(&router, &ctxs, &p.goals, Duration::from_secs(seconds), None);
    let peak_rss = sys::peak_rss_mb();
    let hist = &stats.hist;
    out.attempted = hist.count();
    out.failed = stats.wrong;
    out.failures.extend(stats.first_error.clone());
    let quality = verify(&mut out, &p, &router, &ctxs);
    router.shutdown();
    setup_s.extend(restarts_for(&p.dir, &p.sizes, &p.frames, half));
    remove_dir(&p.dir);

    out.notes.push(setup_note(&setup_s));
    let reps = setup_s.len() as u64;
    out.metric("setup_s", "s", median(&mut setup_s), reps);
    out.metric("throughput_rps", "req/s", stats.throughput(), hist.count());
    out.metric(
        "latency_p50_ms",
        "ms",
        hist.harrell_davis_ns(0.5) / 1e6,
        hist.count(),
    );
    if hist.beyond(0.9) >= 10 {
        out.metric(
            "latency_p90_ms",
            "ms",
            hist.harrell_davis_ns(0.9) / 1e6,
            hist.count(),
        );
    }
    out.metric(
        "success_rate",
        "ratio",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    let q = quality.n as u64;
    out.metric("best_score_mean", "score", quality.score_mean(), q);
    out.metric("structural_rate", "ratio", quality.structural_rate(), q);
    out.metric("spec_xted_mean", "similarity", quality.xted_mean(), q);
    out.metric("peak_rss_mb", "MiB", peak_rss, 1);
    out.metric(
        "cpu_ms_per_req",
        "ms",
        stats.cpu_s * 1e3 / hist.count().max(1) as f64,
        hist.count(),
    );
    out
}
