//! Chaos-recovery benchmark: what failure-domain hardening costs when things
//! are healthy, and what it buys when they are not.
//!
//! Three claims under test:
//!
//! 1. **Fail-fast**: with the disk-tier circuit breaker OPEN, a lookup
//!    short-circuits to a clean miss without touching the filesystem — orders
//!    of magnitude cheaper than the failing read it replaces.
//! 2. **Recovery**: after the faulted disk heals, service is restored within
//!    roughly one cooldown (the half-open probe succeeds on its first try).
//! 3. **Healthy-path overhead**: the per-request resilience sequence — armed
//!    failpoint checks at `route.place` and `pool.execute`, the deadline
//!    checkpoints, and the shed-threshold check — costs ≤ 2% on the 20-op
//!    view-chain request stand-in ([`linx_bench::chain`]).
//!
//! Besides the criterion-style timings (CI smoke under `--test`), a full run
//! writes a machine-readable `BENCH_chaos.json` baseline. Set `LINX_BENCH_OUT`
//! to redirect the baseline file.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use linx_bench::chain::{chain, dataset, median_micros, run_chain, Step, ROWS, TREE_OPS};
use linx_dataframe::DataFrame;
use linx_engine::faults::{self, arm_scoped, FaultKind, FaultPlan};
use linx_engine::{DiskTier, ExploreResult, PersistConfig, BREAKER_OPEN};
use linx_metrics::Clock;

/// The shared per-process state a request's resilience checks read.
struct Resilience {
    clock: Clock,
    queued: AtomicUsize,
    shed_queue_depth: usize,
}

impl Resilience {
    fn new() -> Self {
        Resilience {
            clock: Clock::real(),
            queued: AtomicUsize::new(0),
            shed_queue_depth: 1_000,
        }
    }
}

/// The chain wrapped in the per-request resilience sequence `Router::submit`
/// and `Engine::submit` perform on the healthy path with `--fault-plan`,
/// `--deadline-ms`, and `--shed-threshold` all armed: a failpoint check at
/// placement, the admission deadline checkpoint, the shed-threshold check, a
/// failpoint check at execute, the dequeue deadline checkpoint, and the
/// cooperative cancellation polls between executor phases.
fn run_resilient(df: &DataFrame, steps: &[Step], res: &Resilience, deadline: u64) -> u64 {
    // route.place failpoint (armed plan, no matching rule → healthy).
    if faults::check("route.place").is_some() {
        return 0;
    }
    // Admission deadline checkpoint.
    if res.clock.now_micros() >= deadline {
        return 0;
    }
    // Shed check: queue depth against the threshold.
    if res.queued.load(Ordering::Relaxed) > res.shed_queue_depth {
        return 0;
    }
    // Dequeue deadline checkpoint + pool.execute failpoint.
    if res.clock.now_micros() >= deadline || faults::check("pool.execute").is_some() {
        return 0;
    }
    let checksum = run_chain(df, steps);
    // Cooperative cancellation polls between the executor's phases.
    for _ in 0..3 {
        if res.clock.now_micros() >= deadline {
            return 0;
        }
    }
    checksum
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("linx-chaos-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn sample_result(fp: u64) -> ExploreResult {
    ExploreResult {
        ldx_canonical: format!("fp={fp}"),
        notebook: linx_explore::Notebook {
            title: format!("bench entry {fp}"),
            cells: Vec::new(),
        },
        narrative: linx_explore::Narrative {
            headline: "x".repeat(256),
            bullets: Vec::new(),
        },
        best_structural: true,
        best_score: fp as f64,
    }
}

/// A healthy plan for the overhead measurement: armed (so every check pays the
/// registry load and rule scan) but with rules only on points the healthy path
/// never trips.
fn healthy_plan() -> FaultPlan {
    FaultPlan::new(42).with_rule("disk.unlink", FaultKind::Error, 0)
}

/// A tier holding entry `fp`, on `clock`.
fn tier_with_entry(tag: &str, clock: Clock, fp: u64) -> (PathBuf, Arc<DiskTier>) {
    let dir = temp_dir(tag);
    let tier = DiskTier::open_with_clock(&PersistConfig::new(&dir), clock).unwrap();
    tier.store_result(fp, &sample_result(fp));
    (dir, tier)
}

/// Open the tier's breaker with a read-error storm of
/// [`DiskTier::BREAKER_THRESHOLD`] consecutive failed reads of `fp`.
fn trip(tier: &DiskTier, fp: u64) {
    let _armed = arm_scoped(FaultPlan::new(7).always("disk.read", FaultKind::Error));
    for _ in 0..DiskTier::BREAKER_THRESHOLD {
        assert!(tier.load_result(fp).is_none(), "storm read fails");
    }
    assert_eq!(tier.stats().breaker_state, BREAKER_OPEN, "breaker tripped");
}

fn bench_chaos(c: &mut Criterion) {
    let df = dataset();
    let steps = chain();
    let res = Resilience::new();
    {
        let _armed = arm_scoped(healthy_plan());
        assert_eq!(
            run_chain(&df, &steps),
            run_resilient(&df, &steps, &res, u64::MAX),
            "resilience checks never change the computed result"
        );
    }

    c.bench_function("request_chain_bare", |b| {
        b.iter(|| criterion::black_box(run_chain(&df, &steps)))
    });
    {
        let _armed = arm_scoped(healthy_plan());
        c.bench_function("request_chain_resilient", |b| {
            b.iter(|| criterion::black_box(run_resilient(&df, &steps, &res, u64::MAX)))
        });
    }

    // Disk reads: healthy hit vs. fail-fast miss with the circuit open. The
    // tier's manual clock never advances, so the circuit stays open for the
    // whole measurement.
    let (dir, tier) = tier_with_entry("criterion", Clock::manual(0), 1);
    c.bench_function("disk_read_healthy_hit", |b| {
        b.iter(|| criterion::black_box(tier.load_result(1).is_some()))
    });
    trip(&tier, 1);
    c.bench_function("disk_read_circuit_open", |b| {
        b.iter(|| criterion::black_box(tier.load_result(1).is_none()))
    });
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_chaos);

/// Trip the breaker, heal the disk, and measure microseconds from the trip to
/// the first successful read (cooldown wait + half-open probe).
fn measure_recovery_micros() -> f64 {
    let (dir, tier) = tier_with_entry("recovery", Clock::real(), 9);
    trip(&tier, 9); // the disk heals here, with the circuit open
    let tripped = Instant::now();
    loop {
        if tier.load_result(9).is_some() {
            break;
        }
        assert!(
            tripped.elapsed().as_secs() < 10,
            "breaker never recovered after the disk healed"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let recovery = tripped.elapsed().as_secs_f64() * 1e6;
    std::fs::remove_dir_all(&dir).ok();
    recovery
}

/// Measure every variant and write the machine-readable baseline.
fn write_baseline() -> std::io::Result<()> {
    let df = dataset();
    let steps = chain();
    let res = Resilience::new();
    let runs = 25;

    // Prime both paths once (allocator warmup) before taking medians.
    run_chain(&df, &steps);
    let bare_micros = median_micros(runs, || run_chain(&df, &steps));
    let resilient_micros = {
        let _armed = arm_scoped(healthy_plan());
        run_resilient(&df, &steps, &res, u64::MAX);
        median_micros(runs, || run_resilient(&df, &steps, &res, u64::MAX))
    };
    let overhead_pct = (resilient_micros - bare_micros) / bare_micros.max(1e-9) * 100.0;

    // Fail-fast: median lookup latency with the circuit held open.
    let (dir, tier) = tier_with_entry("baseline", Clock::manual(0), 5);
    let healthy_read_micros = median_micros(200, || u64::from(tier.load_result(5).is_some()));
    trip(&tier, 5);
    let open_read_micros = median_micros(200, || u64::from(tier.load_result(5).is_none()));
    std::fs::remove_dir_all(&dir).ok();

    let recovery_micros = measure_recovery_micros();

    let json = format!(
        "{{\n  \"bench\": \"chaos_recovery\",\n  \"tree_ops\": {TREE_OPS},\n  \"rows\": {ROWS},\n  \"bare_micros\": {bare_micros:.1},\n  \"resilient_micros\": {resilient_micros:.1},\n  \"overhead_pct\": {overhead_pct:.2},\n  \"target_overhead_pct\": 2.0,\n  \"healthy_read_micros\": {healthy_read_micros:.2},\n  \"circuit_open_read_micros\": {open_read_micros:.2},\n  \"breaker_cooldown_micros\": {},\n  \"recovery_micros\": {recovery_micros:.1}\n}}\n",
        DiskTier::BREAKER_COOLDOWN_MICROS,
    );
    let path = std::env::var("LINX_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json").to_string()
    });
    std::fs::write(&path, &json)?;
    println!("wrote {path}:\n{json}");
    if overhead_pct > 2.0 {
        eprintln!("warning: resilience overhead {overhead_pct:.2}% above the 2% target");
    }
    Ok(())
}

fn main() {
    benches();
    // Smoke mode (`cargo bench -- --test`, as CI runs it) skips the baseline pass.
    if !std::env::args().any(|a| a == "--test") {
        if let Err(e) = write_baseline() {
            eprintln!("failed to write chaos baseline: {e}");
            std::process::exit(1);
        }
    }
}
