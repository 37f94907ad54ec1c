//! Persistent-tier benchmark: the result codec's encode/decode cost, plus the scenario
//! behind the disk tier's headline claim — a *cold process* over a *warm cache
//! directory* serves a repeated batch workload at least 2x faster than over an
//! empty directory, and the warm router may even use a different `--shards` count,
//! because every persisted key is a content fingerprint (process- and
//! shard-count-independent).
//!
//! A full run measures the scenario and writes the machine-readable
//! `BENCH_persist.json` baseline at the repository root (set `LINX_BENCH_OUT` to
//! redirect); CI runs the bench in smoke mode (`-- --test`), which skips the
//! baseline pass.
//!
//! Scale knobs: `LINX_TRAIN_EPISODES` (default 30) and `LINX_DATA_ROWS`
//! (default 300).

use std::path::PathBuf;
use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::persist::{decode_result, encode_result};
use linx_engine::{
    BatchRequest, EngineConfig, ExploreRequest, PersistConfig, Router, RouterConfig,
};

/// Goals per batch: enough to amortize the per-dataset context build.
const GOALS: usize = 4;
/// Shard counts of the writer and the (different) reader router.
const COLD_SHARDS: usize = 1;
const WARM_SHARDS: usize = 3;

fn episodes() -> usize {
    linx_bench::env_usize("LINX_TRAIN_EPISODES", 30)
}

fn rows() -> usize {
    linx_bench::env_usize("LINX_DATA_ROWS", 300)
}

fn dataset() -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows()),
            seed: 7,
        },
    )
}

fn goals() -> Vec<String> {
    (0..GOALS)
        .map(|i| format!("Survey the duration of the titles (warm {i})"))
        .collect()
}

/// A router whose shards share a persistent tier over `dir`. Constructing a fresh
/// router over an already-populated directory is the in-process equivalent of a
/// process restart: every in-memory cache starts empty, only the files remain (the
/// CI smoke test exercises the genuinely-separate-process case through the CLI).
fn router(shards: usize, dir: &PathBuf) -> Router {
    let mut engine = EngineConfig::fast();
    engine.workers = 1;
    engine.cdrl.episodes = episodes();
    engine.persist = Some(PersistConfig::new(dir));
    Router::new(RouterConfig {
        shards,
        vnodes: 64,
        engine,
    })
}

fn bench_codec(c: &mut Criterion) {
    // One real answer (a notebook, its narrative and scores): the only entry kind
    // the tier persists.
    let mut engine = EngineConfig::fast();
    engine.workers = 1;
    engine.cdrl.episodes = episodes();
    let router = Router::new(RouterConfig {
        shards: 1,
        engine,
        ..RouterConfig::default()
    });
    let ctx = router.dataset_context(&dataset(), "netflix");
    let result = router
        .submit(&ctx, ExploreRequest::new("netflix", goals()[0].clone()))
        .wait()
        .outcome
        .expect("codec sample trains");
    router.shutdown();
    c.bench_function("persist_codec/encode_result", |b| {
        b.iter(|| black_box(encode_result(black_box(&result))))
    });
    let bytes = encode_result(&result);
    c.bench_function("persist_codec/decode_result", |b| {
        b.iter(|| black_box(decode_result(black_box(&bytes)).expect("valid entry")))
    });
}

criterion_group!(benches, bench_codec);

/// Measure the cold-vs-warm-directory scenario and write the baseline.
fn write_baseline() -> std::io::Result<()> {
    let mut dir = std::env::temp_dir();
    dir.push(format!("linx-persist-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = dataset();

    // Empty directory: the batch trains everything, then persists it.
    let cold_router = router(COLD_SHARDS, &dir);
    let cold_start = Instant::now();
    let cold = cold_router.run_batch(&data, BatchRequest::new("netflix", goals()));
    let cold_micros = cold_start.elapsed().as_micros() as u64;
    assert_eq!(cold.succeeded(), GOALS, "cold batch must succeed");
    cold_router.shutdown();

    // Warm directory, cold process (fresh router, different shard count): the same
    // workload must be served from the disk tier without retraining.
    let warm_router = router(WARM_SHARDS, &dir);
    let warm_start = Instant::now();
    let warm = warm_router.run_batch(&data, BatchRequest::new("netflix", goals()));
    let warm_micros = warm_start.elapsed().as_micros() as u64;
    let stats = warm_router.stats();
    assert_eq!(warm.succeeded(), GOALS, "warm batch must succeed");
    let warm_cache_hits = warm.cache_hits();
    let disk_hits = stats.tier.hits;
    warm_router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = cold_micros as f64 / warm_micros.max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"persist_warm\",\n  \"rows\": {},\n  \"episodes\": {},\n  \"goals\": {GOALS},\n  \"cold_shards\": {COLD_SHARDS},\n  \"warm_shards\": {WARM_SHARDS},\n  \"cold_empty_dir_micros\": {cold_micros},\n  \"warm_dir_micros\": {warm_micros},\n  \"warm_speedup\": {speedup:.2},\n  \"warm_speedup_ok\": {},\n  \"warm_responses_from_cache\": {warm_cache_hits},\n  \"disk_tier_hits\": {disk_hits},\n  \"disk_tier_stores\": {}\n}}\n",
        rows(),
        episodes(),
        speedup >= 2.0,
        stats.tier.stores,
    );
    let path = std::env::var("LINX_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json").to_string()
    });
    std::fs::write(&path, &json)?;
    println!("wrote {path}:\n{json}");
    assert!(
        disk_hits > 0,
        "a different-shard-count router sharing the directory must hit the disk tier"
    );
    assert_eq!(
        warm_cache_hits, GOALS,
        "every warm response must be served without retraining"
    );
    assert!(
        speedup >= 2.0,
        "warm cache dir must be >= 2x faster than empty dir, measured {speedup:.2}x"
    );
    Ok(())
}

fn main() {
    benches();
    // Smoke mode (`cargo bench -- --test`, as CI runs it) skips the baseline pass.
    if !std::env::args().any(|a| a == "--test") {
        if let Err(e) = write_baseline() {
            eprintln!("failed to write persistence baseline: {e}");
            std::process::exit(1);
        }
    }
}
