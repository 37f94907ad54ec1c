//! `cold_20k` and `cold_2k_disk`: two analysts ask distinct goals of an in-process
//! `linx serve` over keep-alive loopback HTTP, each waiting for a notebook before
//! asking the next goal (a closed loop of two clients on two workers).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use linx_engine::{ServeConfig, Server};
use serde_json::Value;

use crate::client::{json_string, Client};
use crate::common::*;
use crate::hist::Histogram;
use crate::slice::{dataset_id, Goal, Slice};
use crate::sys;

/// One request as the analyst saw it.
pub struct Record {
    pub index: usize,
    pub latency_ns: u64,
    /// Round trip of the `POST /v1/explore`.
    pub post_ns: u64,
    /// Round trip of the final `GET /v1/jobs/{id}/result`.
    pub result_ns: u64,
    /// The server's own `total_micros` for the request.
    pub server_micros: u64,
    /// The result document, or why there is none.
    pub body: Result<String, String>,
}

/// One from-scratch set-up: freshly generated datasets, on the disk workload an
/// empty cache directory, and `Server::start`. Returns the server, its cache
/// directory and the seconds it took.
pub fn set_up(
    workload: Workload,
    sizes: &Sizes,
) -> std::io::Result<(Server, Option<PathBuf>, f64)> {
    let t0 = Instant::now();
    let cache_dir = (workload == Workload::Cold2kDisk).then(|| work_dir("cold"));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        router: router_config(sizes, cache_dir.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(config, datasets(sizes.rows))?;
    Ok((server, cache_dir, secs(t0)))
}

/// Set up and tear down again for `window`, at least once; the time of each set-up.
pub fn setups_for(
    workload: Workload,
    sizes: &Sizes,
    window: Duration,
) -> std::io::Result<Vec<f64>> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    while setup_s.is_empty() || start.elapsed() < window {
        let (server, cache_dir, s) = set_up(workload, sizes)?;
        setup_s.push(s);
        server.join();
        if let Some(dir) = &cache_dir {
            remove_dir(dir);
        }
    }
    Ok(setup_s)
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Ask one goal: submit, long-poll until done, fetch the result.
fn ask(client: &mut Client, goal: &Goal) -> Result<(u64, u64, u64, String), String> {
    let body = format!(
        "{{\"dataset\":{},\"goal\":{}}}",
        json_string(dataset_id(goal.dataset)),
        json_string(&goal.text)
    );
    let t0 = Instant::now();
    let (status, reply) = client
        .request("POST", "/v1/explore", &body)
        .map_err(|e| format!("POST failed: {e}"))?;
    let post_ns = t0.elapsed().as_nanos() as u64;
    if status != 202 {
        return Err(format!("POST answered {status}: {reply}"));
    }
    let job = serde_json::from_str(&reply)
        .ok()
        .and_then(|v| v.get("job_id").and_then(Value::as_u64))
        .ok_or_else(|| format!("POST reply has no job_id: {reply}"))?;
    let server_micros = loop {
        let (status, reply) = client
            .request("GET", &format!("/v1/jobs/{job}?wait_ms=30000"), "")
            .map_err(|e| format!("poll failed: {e}"))?;
        let v = serde_json::from_str(&reply).map_err(|_| format!("poll reply: {reply}"))?;
        match (status, v.get("status").and_then(Value::as_str)) {
            (200, Some("done")) => {
                break v.get("total_micros").and_then(Value::as_u64).unwrap_or(0);
            }
            (200, Some("pending")) => continue,
            _ => return Err(format!("job {job} failed ({status}): {reply}")),
        }
    };
    let t1 = Instant::now();
    let (status, result) = client
        .request("GET", &format!("/v1/jobs/{job}/result"), "")
        .map_err(|e| format!("result fetch failed: {e}"))?;
    let result_ns = t1.elapsed().as_nanos() as u64;
    if status != 200 {
        return Err(format!("result answered {status}: {result}"));
    }
    Ok((post_ns, result_ns, server_micros, result))
}

/// The closed loop: `CLIENTS` analysts take goals `0..n` of the slice in order.
pub struct LoopResult {
    pub records: Vec<Record>,
    /// Each analyst's active time: from the loop's start to its last answer.
    pub active_s: Vec<f64>,
    pub cpu_s: f64,
    pub wall_s: f64,
}

pub fn closed_loop(addr: SocketAddr, goals: &[Goal]) -> LoopResult {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(goals.len()));
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let active_s: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).ok();
                    let mut last = 0.0;
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= goals.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let outcome = match client.as_mut() {
                            Some(c) => ask(c, &goals[index]),
                            None => Err("could not connect".to_string()),
                        };
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        last = secs(start);
                        let record = match outcome {
                            Ok((post_ns, result_ns, server_micros, body)) => Record {
                                index,
                                latency_ns,
                                post_ns,
                                result_ns,
                                server_micros,
                                body: Ok(body),
                            },
                            Err(e) => {
                                // A broken connection cannot be reused.
                                client = Client::connect(addr).ok();
                                Record {
                                    index,
                                    latency_ns,
                                    post_ns: 0,
                                    result_ns: 0,
                                    server_micros: 0,
                                    body: Err(e),
                                }
                            }
                        };
                        records.lock().expect("records lock").push(record);
                    }
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    LoopResult {
        records: records.into_inner().expect("records lock"),
        active_s,
        cpu_s: sys::cpu_seconds() - cpu0,
        wall_s: secs(start),
    }
}

/// Check every answer (outside the timed loop) and gather the quality rows.
pub fn check(out: &mut Outcome, goals: &[Goal], records: &[Record]) -> Quality {
    let mut quality = Quality::default();
    let mut by_index: Vec<&Record> = records.iter().collect();
    by_index.sort_by_key(|r| r.index);
    for r in by_index {
        out.attempted += 1;
        let goal = &goals[r.index];
        let answer = r.body.as_ref().map_err(Clone::clone).and_then(|body| {
            let v = serde_json::from_str(body).map_err(|e| format!("result JSON: {e}"))?;
            let get = |path: &[&str]| field(&v, path).cloned();
            Ok(Answer {
                ldx: get(&["result", "ldx"])
                    .and_then(|x| x.as_str().map(str::to_string))
                    .unwrap_or_default(),
                cells: get(&["result", "notebook", "cells"])
                    .and_then(|x| x.as_array().map(Vec::len))
                    .unwrap_or(0),
                best_score: get(&["result", "best_score"])
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::NAN),
                best_structural: get(&["result", "best_structural"])
                    .and_then(|x| x.as_bool())
                    .unwrap_or(false),
                served_from_cache: get(&["served_from_cache"])
                    .and_then(|x| x.as_bool())
                    .unwrap_or(true),
            })
        });
        if let Err(e) = answer.and_then(|a| check_answer(goal, &a, false, &mut quality)) {
            out.fail(e);
        }
    }
    quality
}

pub fn run(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(workload);
    let sizes = Sizes::of(workload, smoke);
    let slice = Slice::build(seed);
    let n = sizes.cold_goals(seconds, slice.goals.len());
    let goals = &slice.goals[..n];
    out.notes.push(format!(
        "slice: seed {seed}, {} distinct goals ({} repeats dropped); this run asks the first {n}: {}; digest {:016x}",
        slice.goals.len(),
        slice.duplicates,
        slice.composition(n),
        slice.digest(n)
    ));
    let half = sizes.setup_window / 2;
    let started = setups_for(workload, &sizes, half).and_then(|mut setup_s| {
        let (server, cache_dir, s) = set_up(workload, &sizes)?;
        setup_s.push(s);
        Ok((server, cache_dir, setup_s))
    });
    let (server, cache_dir, mut setup_s) = match started {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("server did not start: {e}"));
            return out;
        }
    };
    let lr = closed_loop(server.addr(), goals);
    let peak_rss = sys::peak_rss_mb();
    server.join();
    if let Some(dir) = &cache_dir {
        remove_dir(dir);
    }
    let quality = check(&mut out, goals, &lr.records);
    match setups_for(workload, &sizes, half) {
        Ok(after) => setup_s.extend(after),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("server did not start after the timed phase: {e}"));
        }
    }
    out.notes.push(setup_note(&setup_s));
    report_e2e(&mut out, setup_s, &lr, quality, peak_rss);
    out
}

/// The end-to-end rows of a cold run.
fn report_e2e(
    out: &mut Outcome,
    mut setup_s: Vec<f64>,
    lr: &LoopResult,
    quality: Quality,
    peak_rss: f64,
) {
    let mut hist = Histogram::default();
    for r in &lr.records {
        hist.record(r.latency_ns);
    }
    let completed = lr.records.len() as u64;
    let mean_active = lr.active_s.iter().sum::<f64>() / lr.active_s.len().max(1) as f64;
    let reps = setup_s.len() as u64;
    out.metric("setup_s", "s", median(&mut setup_s), reps);
    out.metric(
        "throughput_rps",
        "req/s",
        completed as f64 / mean_active.max(1e-9),
        completed,
    );
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
        out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64,
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
        lr.cpu_s * 1e3 / completed.max(1) as f64,
        completed,
    );
}
