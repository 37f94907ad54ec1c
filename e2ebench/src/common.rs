//! What every workload shares: sizes, the engine configuration, datasets, answer
//! digests, output checks, and the result a run reports.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use linx_cdrl::CdrlConfig;
use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::fingerprint::Fnv1a;
use linx_dataframe::DataFrame;
use linx_engine::{EngineConfig, ExploreResult, PersistConfig, RouterConfig};
use linx_ldx::parse_ldx;
use linx_metrics::xted_similarity;

use crate::slice::{dataset_id, Goal};

/// Datasets are generated with one fixed seed: the benchmark seed varies the goals.
pub const DATA_SEED: u64 = 0x11ac;
/// Analysts (closed-loop clients) and engine workers.
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cold20k,
    Cold2kDisk,
    WarmRestart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Cold20k,
        Workload::Cold2kDisk,
        Workload::WarmRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold20k => "cold_20k",
            Workload::Cold2kDisk => "cold_2k_disk",
            Workload::WarmRestart => "warm_restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub rows: usize,
    pub episodes: usize,
    /// Cold workloads: goals submitted per second of `--seconds`. The work of a run
    /// is fixed by `--seconds`, not by how fast the build is, so two builds answer
    /// the same goals and their quality rows compare exactly.
    pub goals_per_second: f64,
    /// Warm workload: goals the preparation warms the cache directory with.
    pub warm_goals: usize,
    /// How long a run keeps setting up from scratch, half before the timed phase
    /// and half after it; `setup_s` is the median of those set-ups. The machine
    /// this was built on alternates between phases of a second or so that differ in
    /// speed by up to half, and drifts over minutes; a 2k-row set-up takes 10–80 ms,
    /// so a handful made back to back all land in one phase.
    pub setup_window: Duration,
    /// Goals the traced run replays (each is trained four times there).
    pub trace_goals: usize,
}

impl Sizes {
    pub fn of(workload: Workload, smoke: bool) -> Sizes {
        let (rows, goals_per_second) = match workload {
            Workload::Cold20k => (20_000, 0.8),
            Workload::Cold2kDisk | Workload::WarmRestart => (2_000, 3.6),
        };
        if smoke {
            return Sizes {
                rows: 300,
                episodes: 6,
                goals_per_second: 2.0,
                warm_goals: 6,
                setup_window: Duration::ZERO,
                trace_goals: 4,
            };
        }
        Sizes {
            rows,
            episodes: 80,
            goals_per_second,
            warm_goals: 48,
            setup_window: Duration::from_secs(6),
            trace_goals: if rows > 10_000 { 8 } else { 24 },
        }
    }

    /// Goals a cold run submits for `seconds` of measurement: at least one per client.
    pub fn cold_goals(&self, seconds: u64, available: usize) -> usize {
        ((self.goals_per_second * seconds as f64).round() as usize)
            .max(CLIENTS)
            .min(available)
    }
}

/// The serving configuration: one shard, two workers, the default 64 MiB cache
/// budget, and the reference 80-episode training request.
pub fn router_config(sizes: &Sizes, cache_dir: Option<PathBuf>) -> RouterConfig {
    RouterConfig {
        shards: 1,
        vnodes: 64,
        engine: EngineConfig {
            workers: CLIENTS,
            cdrl: CdrlConfig {
                episodes: sizes.episodes,
                ..CdrlConfig::default()
            },
            persist: cache_dir.map(PersistConfig::new),
            ..EngineConfig::default()
        },
    }
}

pub fn generate_dataset(kind: DatasetKind, rows: usize) -> DataFrame {
    generate(
        kind,
        ScaleConfig {
            rows: Some(rows),
            seed: DATA_SEED,
        },
    )
}

pub fn datasets(rows: usize) -> Vec<(String, DataFrame)> {
    DatasetKind::ALL
        .iter()
        .map(|k| (dataset_id(*k).to_string(), generate_dataset(*k, rows)))
        .collect()
}

/// A fresh directory for this run's disk tier, inside the benchmark's directory.
pub fn work_dir(label: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")).join(format!(
        "{}-{}-{label}",
        std::process::id(),
        nanos
    ))
}

pub fn remove_dir(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave `work/` itself only when another run still uses it.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// A digest of everything an answer carries, to compare answers byte for byte.
pub fn result_digest(r: &ExploreResult) -> u64 {
    let mut h = Fnv1a::new();
    let mut s = |text: &str| {
        h.write(text.as_bytes());
        h.write(&[0]);
    };
    s(&r.ldx_canonical);
    s(&r.notebook.title);
    for cell in &r.notebook.cells {
        s(&cell.code);
        s(&cell.result_preview);
        s(&cell.caption);
        s(&cell.result_rows.to_string());
    }
    s(&r.narrative.headline);
    for b in &r.narrative.bullets {
        s(b);
    }
    s(&format!("{:016x}", r.best_score.to_bits()));
    s(if r.best_structural { "S" } else { "-" });
    h.finish()
}

/// One answer as the checks and the quality rows see it.
pub struct Answer {
    pub ldx: String,
    pub cells: usize,
    pub best_score: f64,
    pub best_structural: bool,
    pub served_from_cache: bool,
}

/// Quality of the answers a run checked, over a fixed set of goals.
#[derive(Default)]
pub struct Quality {
    pub n: usize,
    pub score_sum: f64,
    pub structural: usize,
    pub xted_sum: f64,
}

impl Quality {
    pub fn score_mean(&self) -> f64 {
        self.score_sum / self.n.max(1) as f64
    }
    pub fn structural_rate(&self) -> f64 {
        self.structural as f64 / self.n.max(1) as f64
    }
    pub fn xted_mean(&self) -> f64 {
        self.xted_sum / self.n.max(1) as f64
    }
}

/// Check one answer: a non-empty notebook and an LDX that parses; `cached` is what
/// the workload expects of `served_from_cache`. Adds it to `quality` when it passes.
pub fn check_answer(
    goal: &Goal,
    answer: &Answer,
    cached: bool,
    quality: &mut Quality,
) -> Result<(), String> {
    if answer.cells == 0 {
        return Err(format!("empty notebook for {:?}", goal.text));
    }
    if answer.served_from_cache != cached {
        return Err(format!(
            "served_from_cache={} (expected {cached}) for {:?}",
            answer.served_from_cache, goal.text
        ));
    }
    let ldx = parse_ldx(&answer.ldx)
        .map_err(|e| format!("answer LDX does not parse ({e}) for {:?}", goal.text))?;
    quality.n += 1;
    quality.score_sum += answer.best_score;
    quality.structural += answer.best_structural as usize;
    quality.xted_sum += xted_similarity(&ldx, &goal.gold);
    Ok(())
}

/// Seconds since `start`, as f64.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A note on the set-ups of a run, for the printed report.
pub fn setup_note(setup_s: &[f64]) -> String {
    let mut v = setup_s.to_vec();
    let mid = median(&mut v); // sorts `v`
    format!(
        "set-up: {} from-scratch set-ups, about half before and half after the timed phase; min {:.1} ms, median {:.1} ms, max {:.1} ms",
        v.len(),
        v.first().copied().unwrap_or(0.0) * 1e3,
        mid * 1e3,
        v.last().copied().unwrap_or(0.0) * 1e3
    )
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: u64,
}

/// What one run of one workload reports.
pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed before the metrics (slice composition, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
