//! Telemetry-overhead benchmark: the 20-op view-chain request stand-in
//! ([`linx_bench::chain`]) executed bare vs. wrapped in the engine's full per-request
//! telemetry sequence — trace activation, one clock read and `Stage` add per
//! lifecycle stage, the component histograms (cache lookup, queue wait,
//! execution), the in-flight gauge, and `observe_response` with the slow log
//! armed. The claim under test: instrumentation costs a few microseconds per
//! request, invisible next to a real exploration (target ≤ 5% on this chain,
//! which is orders of magnitude cheaper than a CDRL run).
//!
//! Besides the criterion-style timings (CI smoke under `--test`), a full run
//! writes a machine-readable `BENCH_telemetry.json` baseline. Set
//! `LINX_BENCH_OUT` to redirect the baseline file.

use criterion::{criterion_group, Criterion};
use linx_bench::chain::{chain, dataset, median_micros, run_chain, Step, ROWS, TREE_OPS};
use linx_dataframe::DataFrame;
use linx_engine::{
    MetricsRegistry, Priority, RequestId, ResponseMeta, Stage, TenantId, TraceHandle,
};
use linx_metrics::{Clock, Gauge, LatencyHistogram};

/// Every instrument one request touches on the engine's fresh-compute path.
struct Instruments {
    clock: Clock,
    registry: MetricsRegistry,
    queue_wait: LatencyHistogram,
    execute: LatencyHistogram,
    in_flight: Gauge,
    tenant: TenantId,
}

impl Instruments {
    fn new() -> Self {
        let clock = Clock::real();
        Instruments {
            registry: MetricsRegistry::new(clock.clone(), Some(0)),
            clock,
            queue_wait: LatencyHistogram::new(),
            execute: LatencyHistogram::new(),
            in_flight: Gauge::new(),
            tenant: TenantId::default(),
        }
    }
}

/// The chain wrapped in the per-request telemetry sequence `Engine::submit` and
/// the worker perform: trace activation, a clock read + `Stage` add around every
/// lifecycle stage, the component histograms, and `observe_response` with the
/// slow log armed (threshold 0, so every iteration also pays the slow-log push).
fn run_instrumented(df: &DataFrame, steps: &[Step], ins: &Instruments, seq: u64) -> u64 {
    let clock = &ins.clock;
    let trace = TraceHandle::disabled().ensure(clock);

    let route_start = clock.now_micros();
    trace.add(Stage::Route, clock.now_micros().saturating_sub(route_start));

    let lookup_start = clock.now_micros();
    let lookup_micros = clock.now_micros().saturating_sub(lookup_start);
    ins.registry.record_cache_lookup(lookup_micros);
    trace.add(Stage::CacheLookup, lookup_micros);

    let admit_start = clock.now_micros();
    trace.add(Stage::Admit, clock.now_micros().saturating_sub(admit_start));

    let enqueued = clock.now_micros();
    let run_start = clock.now_micros();
    let wait = run_start.saturating_sub(enqueued);
    ins.queue_wait.record(wait);
    trace.add(Stage::QueueWait, wait);

    ins.in_flight.inc();
    let checksum = run_chain(df, steps);
    let exec = clock.now_micros().saturating_sub(run_start);
    ins.in_flight.dec();
    ins.execute.record(exec);
    trace.add(Stage::Execute, exec);

    let respond_start = clock.now_micros();
    trace.add(
        Stage::Respond,
        clock.now_micros().saturating_sub(respond_start),
    );
    ins.registry.observe_response(
        ResponseMeta {
            id: RequestId(seq),
            dataset_id: "netflix",
            goal: "telemetry overhead request",
            tenant: &ins.tenant,
            priority: Priority::Normal,
            served_from_cache: false,
        },
        &trace,
    );
    checksum
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let df = dataset();
    let steps = chain();
    let ins = Instruments::new();
    assert_eq!(
        run_chain(&df, &steps),
        run_instrumented(&df, &steps, &ins, 0),
        "instrumentation never changes the computed result"
    );

    c.bench_function("request_chain_bare", |b| {
        b.iter(|| criterion::black_box(run_chain(&df, &steps)))
    });
    let mut seq = 0u64;
    c.bench_function("request_chain_instrumented", |b| {
        b.iter(|| {
            seq += 1;
            criterion::black_box(run_instrumented(&df, &steps, &ins, seq))
        })
    });
}

criterion_group!(benches, bench_telemetry_overhead);

/// Measure both variants and write the machine-readable baseline.
fn write_baseline() -> std::io::Result<()> {
    let df = dataset();
    let steps = chain();
    let ins = Instruments::new();
    let runs = 25;

    // Prime both paths once (allocator warmup) before taking medians.
    run_chain(&df, &steps);
    run_instrumented(&df, &steps, &ins, 0);
    let bare_micros = median_micros(runs, || run_chain(&df, &steps));
    let mut seq = 0u64;
    let instrumented_micros = median_micros(runs, || {
        seq += 1;
        run_instrumented(&df, &steps, &ins, seq)
    });
    let overhead_pct = (instrumented_micros - bare_micros) / bare_micros.max(1e-9) * 100.0;

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"tree_ops\": {TREE_OPS},\n  \"rows\": {ROWS},\n  \"bare_micros\": {bare_micros:.1},\n  \"instrumented_micros\": {instrumented_micros:.1},\n  \"overhead_pct\": {overhead_pct:.2},\n  \"target_overhead_pct\": 5.0\n}}\n",
    );
    let path = std::env::var("LINX_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json").to_string()
    });
    std::fs::write(&path, &json)?;
    println!("wrote {path}:\n{json}");
    if overhead_pct > 5.0 {
        eprintln!("warning: telemetry overhead {overhead_pct:.2}% above the 5% target");
    }
    Ok(())
}

fn main() {
    benches();
    // Smoke mode (`cargo bench -- --test`, as CI runs it) skips the baseline pass.
    if !std::env::args().any(|a| a == "--test") {
        if let Err(e) = write_baseline() {
            eprintln!("failed to write telemetry baseline: {e}");
            std::process::exit(1);
        }
    }
}
