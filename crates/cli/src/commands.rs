//! Implementation of the `linx` subcommands.
//!
//! Every command returns its output as a `String` (or an error message), which keeps the
//! commands unit-testable; writing to files / stdout happens at the edges.

use std::path::PathBuf;
use std::sync::Arc;

use linx::{Linx, LinxConfig};
use linx_benchgen::generate_benchmark;
use linx_data::{generate, ScaleConfig};
use linx_dataframe::csv::{read_csv, write_csv, CsvOptions};
use linx_dataframe::DataFrame;
use linx_engine::{
    BatchRequest, EngineConfig, FaultPlan, JobError, PersistConfig, Router, RouterConfig,
    RouterStats, ServeConfig, Server, TenantQuota,
};
use linx_explore::to_ipynb_string;
use linx_ldx::parse_ldx;
use linx_viz::{recommend_session, render_ascii, session_gallery};

use crate::argparse::{invalid, set_once, Cursor, ParseError, ParseResult};
use crate::{DatasetArg, FormatArg};

/// Arguments shared by commands that need an input dataset.
#[derive(Debug, Clone)]
pub struct DatasetSelection {
    /// Use one of the built-in synthetic benchmark datasets.
    pub dataset: Option<DatasetArg>,
    /// Load the dataset from a CSV file instead.
    pub csv: Option<PathBuf>,
    /// Dataset name used in prompts and notebook titles (defaults to the built-in
    /// dataset's name or the CSV file stem).
    pub name: Option<String>,
    /// Number of rows to generate for a built-in dataset (defaults to a small,
    /// representative scale).
    pub rows: Option<usize>,
    /// Random seed for synthetic data generation.
    pub seed: u64,
}

impl Default for DatasetSelection {
    fn default() -> Self {
        DatasetSelection {
            dataset: None,
            csv: None,
            name: None,
            rows: None,
            seed: 42,
        }
    }
}

/// Render a command's help text.
fn help_text(name: &str, about: &str, flags: &str, with_dataset_flags: bool) -> String {
    let mut out = format!("{about}\n\nUsage: {name} [OPTIONS]\n\nOptions:\n{flags}\n");
    if with_dataset_flags {
        out.push_str(DATASET_FLAGS_HELP);
        out.push('\n');
    }
    out.push_str("  -h, --help         Print this help\n");
    out
}

/// The help fragment describing the shared dataset-selection flags.
const DATASET_FLAGS_HELP: &str = "\
      --dataset <netflix|flights|playstore>  Use a built-in synthetic dataset
      --csv <PATH>       Load the dataset from a CSV file instead
      --name <NAME>      Dataset name used in prompts and titles
      --rows <N>         Rows to generate for a built-in dataset
      --seed <N>         Random seed for synthetic data generation [default: 42]";

/// Parse-time draft of [`DatasetSelection`]: every flag (including `--seed`) gets
/// consistent duplicate-flag rejection via [`set_once`].
#[derive(Debug, Default)]
struct DatasetFlags {
    dataset: Option<DatasetArg>,
    csv: Option<PathBuf>,
    name: Option<String>,
    rows: Option<usize>,
    seed: Option<u64>,
}

impl DatasetFlags {
    /// Consume one dataset-selection flag if `flag` is one, returning whether it was.
    fn try_flag(&mut self, flag: &str, cursor: &mut Cursor) -> ParseResult<bool> {
        match flag {
            "--dataset" => {
                let v = cursor.parse_value(flag)?;
                set_once(&mut self.dataset, v, flag)?;
            }
            "--csv" => {
                let v = cursor.path_value(flag)?;
                set_once(&mut self.csv, v, flag)?;
            }
            "--name" => {
                let v = cursor.value_of(flag)?;
                set_once(&mut self.name, v, flag)?;
            }
            "--rows" => {
                let v = cursor.parse_value(flag)?;
                set_once(&mut self.rows, v, flag)?;
            }
            "--seed" => {
                let v = cursor.parse_value(flag)?;
                set_once(&mut self.seed, v, flag)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validate cross-flag constraints and produce the selection.
    fn finish(self) -> ParseResult<DatasetSelection> {
        if self.dataset.is_some() && self.csv.is_some() {
            return Err(invalid("--dataset conflicts with --csv: pick one source"));
        }
        Ok(DatasetSelection {
            dataset: self.dataset,
            csv: self.csv,
            name: self.name,
            rows: self.rows,
            seed: self.seed.unwrap_or(42),
        })
    }
}

impl DatasetSelection {
    /// Load the selected dataset and resolve its display name.
    pub fn load(&self) -> Result<(DataFrame, String), String> {
        if let Some(path) = &self.csv {
            let df = read_csv(path, CsvOptions::default())
                .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
            let name = self.name.clone().unwrap_or_else(|| {
                path.file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .unwrap_or_else(|| "dataset".to_string())
            });
            return Ok((df, name));
        }
        let Some(dataset) = self.dataset else {
            return Err("select a dataset with --dataset or --csv".to_string());
        };
        let kind = dataset.kind();
        let rows = self.rows.or(Some(kind.small_rows()));
        let df = generate(
            kind,
            ScaleConfig {
                rows,
                seed: self.seed,
            },
        );
        let name = self
            .name
            .clone()
            .unwrap_or_else(|| kind.name().to_lowercase());
        Ok((df, name))
    }
}

/// The help fragment describing the router flags `serve` and `serve-batch` share.
const ROUTER_FLAGS_HELP: &str = "\
      --episodes <N>     Training episodes for the CDRL engine
      --workers <N>      Worker threads (per shard)
      --cache-mem-cap <BYTES>  In-memory cache budget in bytes (per shard) [default: 64 MiB]
      --shards <N>       Engine shards behind the router [default: 1]
      --cache-dir <PATH> Persistent cache directory (results survive the process)
      --cache-disk-cap <BYTES>  Size cap for the cache directory (needs --cache-dir) [default: 256 MiB]
      --slow-ms <N>      Log requests slower than N ms with per-stage breakdowns
      --fault-plan <SPEC>  Arm a fault-injection plan (seed=N;point=err|panic|delay:<us>@<pct>;..)
      --deadline-ms <N>  Per-request deadline; an expired request is rejected at the next checkpoint (504 over HTTP)
      --shed-threshold <N>  Shed low-priority requests once N jobs are queued per shard (503 over HTTP)";

/// The router flags `serve` and `serve-batch` share: parsed by one matcher and
/// mapped onto one [`RouterConfig`] by [`RouterFlags::config`]. Every flag is
/// optional and may be given once.
#[derive(Debug, Clone, Default)]
pub struct RouterFlags {
    /// Training episodes for the CDRL engine.
    pub episodes: Option<usize>,
    /// Worker threads (per shard).
    pub workers: Option<usize>,
    /// In-memory cache budget in approximate payload bytes (per shard; covers the
    /// result cache and the view-statistics cache).
    pub cache_mem_cap: Option<usize>,
    /// Engine shards behind the router (each dataset is owned by one shard).
    pub shards: Option<usize>,
    /// Persistent cache directory shared by all shards (results survive the
    /// process and are shared with other processes).
    pub cache_dir: Option<PathBuf>,
    /// Size cap for the persistent cache directory, in bytes.
    pub cache_disk_cap: Option<u64>,
    /// Record requests slower than this many milliseconds in the slow-request log.
    pub slow_ms: Option<u64>,
    /// Fault-injection plan (`seed=N;point=action@pct;..`), grammar-checked at
    /// parse time.
    pub fault_plan: Option<String>,
    /// Per-request deadline in milliseconds; requests that exceed it are rejected
    /// at the next checkpoint instead of burning workers.
    pub deadline_ms: Option<u64>,
    /// Load-shed threshold: when this many jobs are queued across a shard's bands,
    /// new low-priority requests are rejected with `Overloaded`.
    pub shed_threshold: Option<usize>,
}

impl RouterFlags {
    /// Consume one router flag if `flag` is one, returning whether it was.
    fn try_flag(&mut self, flag: &str, cursor: &mut Cursor) -> ParseResult<bool> {
        match flag {
            "--episodes" => set_once(&mut self.episodes, cursor.parse_value(flag)?, flag)?,
            "--workers" => set_once(&mut self.workers, cursor.parse_value(flag)?, flag)?,
            "--cache-mem-cap" => {
                set_once(&mut self.cache_mem_cap, cursor.parse_value(flag)?, flag)?
            }
            "--shards" => set_once(&mut self.shards, cursor.parse_value(flag)?, flag)?,
            "--cache-dir" => set_once(&mut self.cache_dir, cursor.path_value(flag)?, flag)?,
            "--cache-disk-cap" => {
                set_once(&mut self.cache_disk_cap, cursor.parse_value(flag)?, flag)?
            }
            "--slow-ms" => set_once(&mut self.slow_ms, cursor.parse_value(flag)?, flag)?,
            "--fault-plan" => {
                let spec = cursor.value_of(flag)?;
                // Validate the grammar at parse time so a typo fails fast.
                FaultPlan::parse(&spec).map_err(invalid)?;
                set_once(&mut self.fault_plan, spec, flag)?;
            }
            "--deadline-ms" => set_once(&mut self.deadline_ms, cursor.parse_value(flag)?, flag)?,
            "--shed-threshold" => {
                set_once(&mut self.shed_threshold, cursor.parse_value(flag)?, flag)?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Reject `flag` (when `given`) without a `--cache-dir`: it only shapes the
    /// persistent cache directory, so without one it would silently do nothing.
    fn require_cache_dir(&self, flag: &str, given: bool) -> ParseResult<()> {
        if given && self.cache_dir.is_none() {
            return Err(invalid(format!(
                "{flag} needs --cache-dir: it only applies to the persistent cache directory"
            )));
        }
        Ok(())
    }

    /// The router configuration these flags select; unset flags keep the defaults.
    pub fn config(&self) -> Result<RouterConfig, String> {
        let mut engine = EngineConfig::default();
        if let Some(episodes) = self.episodes {
            engine.cdrl.episodes = episodes;
        }
        if let Some(workers) = self.workers {
            engine.workers = workers;
        }
        if let Some(mem_bytes) = self.cache_mem_cap {
            engine.cache_mem_bytes = mem_bytes;
        }
        engine.slow_threshold_micros = self.slow_ms.map(|ms| ms.saturating_mul(1000));
        if let Some(dir) = &self.cache_dir {
            let mut persist = PersistConfig::new(dir);
            if let Some(cap) = self.cache_disk_cap {
                persist = persist.with_max_bytes(cap);
            }
            engine.persist = Some(persist);
        }
        if let Some(spec) = &self.fault_plan {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("invalid --fault-plan: {e}"))?;
            engine.fault_plan = Some(Arc::new(plan));
        }
        engine.default_deadline_micros = self.deadline_ms.map(|ms| ms.saturating_mul(1000));
        engine.shed_queue_depth = self.shed_threshold;
        Ok(RouterConfig {
            shards: self.shards.unwrap_or(1).max(1),
            engine,
            ..RouterConfig::default()
        })
    }
}

/// Arguments of `linx explore`.
#[derive(Debug, Clone)]
pub struct ExploreArgs {
    /// Dataset selection.
    pub data: DatasetSelection,
    /// The analytical goal, in natural language.
    pub goal: String,
    /// Training episodes for the CDRL engine (more episodes → better sessions, longer
    /// runtime).
    pub episodes: Option<usize>,
    /// Output format.
    pub format: FormatArg,
    /// Write the output to this file instead of stdout.
    pub out: Option<PathBuf>,
    /// Include ASCII chart recommendations for each cell (text format only).
    pub charts: bool,
    /// Print the derived LDX specification before the notebook.
    pub show_ldx: bool,
    /// Also write a self-contained HTML chart gallery of the session to this path.
    pub gallery: Option<PathBuf>,
}

// `DatasetSelection` is flattened into `ExploreArgs`/`DeriveArgs`, so expose the fields
// the tests and callers address most often.
impl std::ops::Deref for ExploreArgs {
    type Target = DatasetSelection;
    fn deref(&self) -> &DatasetSelection {
        &self.data
    }
}

impl ExploreArgs {
    fn help() -> String {
        help_text(
            "linx explore",
            "Run the full pipeline: dataset + goal -> specification -> session -> notebook",
            "      --goal <TEXT>      The analytical goal, in natural language (required)
      --episodes <N>     Training episodes for the CDRL engine
      --format <text|markdown|ipynb>  Output format [default: text]
      --out <PATH>       Write the output to this file instead of stdout
      --charts           Include ASCII chart recommendations (text format only)
      --show-ldx         Print the derived LDX specification before the notebook
      --gallery <PATH>   Also write a self-contained HTML chart gallery",
            true,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let mut data = DatasetFlags::default();
        let (mut goal, mut episodes, mut format, mut out, mut gallery) =
            (None, None, None, None, None);
        let (mut charts, mut show_ldx) = (false, false);
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--goal" => set_once(&mut goal, cursor.value_of(&flag)?, &flag)?,
                "--episodes" => set_once(&mut episodes, cursor.parse_value(&flag)?, &flag)?,
                "--format" => set_once(&mut format, cursor.parse_value(&flag)?, &flag)?,
                "--out" => set_once(&mut out, cursor.path_value(&flag)?, &flag)?,
                "--gallery" => set_once(&mut gallery, cursor.path_value(&flag)?, &flag)?,
                "--charts" => charts = true,
                "--show-ldx" => show_ldx = true,
                _ if data.try_flag(&flag, cursor)? => {}
                other => return Err(invalid(format!("unknown flag '{other}' for explore"))),
            }
        }
        Ok(ExploreArgs {
            data: data.finish()?,
            goal: goal.ok_or_else(|| invalid("explore requires --goal"))?,
            episodes,
            format: format.unwrap_or(FormatArg::Text),
            out,
            charts,
            show_ldx,
            gallery,
        })
    }
}

/// Run `linx explore`.
pub fn explore(args: &ExploreArgs) -> Result<String, String> {
    let (dataset, name) = args.data.load()?;
    let mut config = LinxConfig::default();
    if let Some(episodes) = args.episodes {
        config.cdrl.episodes = episodes;
    }
    let linx = Linx::new(config);
    let outcome = linx.explore(&dataset, &name, &args.goal);

    let mut output = String::new();
    if args.show_ldx && args.format != FormatArg::Ipynb {
        output.push_str("-- Derived LDX specification --\n");
        output.push_str(&outcome.derivation.ldx.canonical());
        output.push_str("\n\n");
    }
    match args.format {
        FormatArg::Text => {
            output.push_str(&outcome.notebook.to_text());
            if !outcome.narrative.is_empty() {
                output.push_str("\n-- Session summary --\n");
                output.push_str(&outcome.narrative.headline);
                output.push('\n');
                for bullet in &outcome.narrative.bullets {
                    output.push_str(&format!("  * {bullet}\n"));
                }
            }
            if args.charts {
                output.push_str("\n-- Recommended charts --\n");
                for cell in recommend_session(&dataset, &outcome.training.best_tree) {
                    for chart in &cell.charts {
                        output.push_str(&render_ascii(chart, 40));
                        output.push('\n');
                    }
                }
            }
        }
        FormatArg::Markdown => {
            output.push_str(&outcome.notebook.to_markdown());
            if !outcome.narrative.is_empty() {
                output.push_str("\n## Session summary\n\n");
                output.push_str(&outcome.narrative.to_markdown());
            }
        }
        FormatArg::Ipynb => {
            output = to_ipynb_string(&outcome.notebook, Some(&outcome.narrative));
        }
    }
    if let Some(path) = &args.gallery {
        let cells = recommend_session(&dataset, &outcome.training.best_tree);
        let html = session_gallery(&format!("{name} — {}", args.goal), &cells);
        std::fs::write(path, html)
            .map_err(|e| format!("failed to write gallery {}: {e}", path.display()))?;
    }
    write_or_return(output, &args.out)
}

/// Arguments of `linx derive`.
#[derive(Debug, Clone)]
pub struct DeriveArgs {
    /// Dataset selection.
    pub data: DatasetSelection,
    /// The analytical goal, in natural language.
    pub goal: String,
}

impl DeriveArgs {
    fn help() -> String {
        help_text(
            "linx derive",
            "Derive LDX specifications for a goal without running the CDRL engine",
            "      --goal <TEXT>      The analytical goal, in natural language (required)",
            true,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let mut data = DatasetFlags::default();
        let mut goal = None;
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--goal" => set_once(&mut goal, cursor.value_of(&flag)?, &flag)?,
                _ if data.try_flag(&flag, cursor)? => {}
                other => return Err(invalid(format!("unknown flag '{other}' for derive"))),
            }
        }
        Ok(DeriveArgs {
            data: data.finish()?,
            goal: goal.ok_or_else(|| invalid("derive requires --goal"))?,
        })
    }
}

/// Run `linx derive`.
pub fn derive(args: &DeriveArgs) -> Result<String, String> {
    let (dataset, name) = args.data.load()?;
    let linx = Linx::new(LinxConfig::default());
    let derivation = linx.derive_specs(&dataset, &name, &args.goal);
    let mut out = String::new();
    out.push_str(&format!("Goal       : {}\n", args.goal));
    out.push_str(&format!(
        "Meta-goal  : {} ({})\n",
        derivation.meta_goal.index(),
        derivation.meta_goal.description()
    ));
    out.push_str(&format!("Attribute  : {}\n", derivation.params.attr));
    out.push_str("\n-- PyLDX intermediate code (Fig. 1b) --\n");
    out.push_str(&derivation.pyldx.render());
    out.push_str("\n-- LDX specification (Fig. 1c) --\n");
    out.push_str(&derivation.ldx.canonical());
    out.push('\n');
    Ok(out)
}

/// Arguments of `linx check`.
#[derive(Debug, Clone)]
pub struct CheckArgs {
    /// Path to a file containing an LDX specification.
    pub path: PathBuf,
}

impl CheckArgs {
    fn help() -> String {
        help_text(
            "linx check <PATH>",
            "Parse and validate an LDX specification file",
            "      <PATH>             Path to a file containing an LDX specification",
            false,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let mut path: Option<PathBuf> = None;
        while let Some(tok) = cursor.next() {
            match tok.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                other if other.starts_with('-') => {
                    return Err(invalid(format!("unknown flag '{other}' for check")))
                }
                other => set_once(&mut path, PathBuf::from(other), "<PATH>")?,
            }
        }
        Ok(CheckArgs {
            path: path.ok_or_else(|| invalid("check requires a specification file path"))?,
        })
    }
}

/// Run `linx check`.
pub fn check(args: &CheckArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("failed to read {}: {e}", args.path.display()))?;
    let ldx = parse_ldx(&text).map_err(|e| format!("parse error: {e}"))?;
    ldx.validate().map_err(|e| format!("invalid LDX: {e}"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "OK: {} named nodes, at least {} operations\n",
        ldx.node_names().len(),
        ldx.min_operations()
    ));
    let continuity: Vec<String> = ldx.continuity_vars().into_iter().collect();
    out.push_str(&format!(
        "continuity variables: {}\n",
        if continuity.is_empty() {
            "(none)".to_string()
        } else {
            continuity.join(", ")
        }
    ));
    out.push_str(&format!(
        "operational specifications: {}\n",
        ldx.operational_specs().len()
    ));
    out.push_str("\n-- canonical form --\n");
    out.push_str(&ldx.canonical());
    out.push('\n');
    Ok(out)
}

/// Arguments of `linx benchmark`.
#[derive(Debug, Clone)]
pub struct BenchmarkArgs {
    /// Seed for benchmark generation (the paper's benchmark is a fixed artifact; the
    /// seed controls template population and paraphrasing).
    pub seed: u64,
    /// Only list goals over this dataset.
    pub dataset: Option<DatasetArg>,
    /// Only list goals of this meta-goal family (1–8, Table 1).
    pub meta_goal: Option<usize>,
    /// Maximum number of instances to list.
    pub limit: usize,
    /// Also print each instance's gold LDX specification.
    pub show_ldx: bool,
}

impl BenchmarkArgs {
    fn help() -> String {
        help_text(
            "linx benchmark",
            "List instances of the goal-oriented benchmark (paper Table 1)",
            "      --seed <N>         Seed for benchmark generation [default: 42]
      --dataset <netflix|flights|playstore>  Only list goals over this dataset
      --meta-goal <1-8>  Only list goals of this meta-goal family
      --limit <N>        Maximum number of instances to list [default: 20]
      --show-ldx         Also print each instance's gold LDX specification",
            false,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let (mut dataset, mut meta_goal, mut limit) = (None, None, None);
        let mut seed = None;
        let mut show_ldx = false;
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--seed" => set_once(&mut seed, cursor.parse_value(&flag)?, &flag)?,
                "--dataset" => set_once(&mut dataset, cursor.parse_value(&flag)?, &flag)?,
                "--meta-goal" => set_once(&mut meta_goal, cursor.parse_value(&flag)?, &flag)?,
                "--limit" => set_once(&mut limit, cursor.parse_value(&flag)?, &flag)?,
                "--show-ldx" => show_ldx = true,
                other => return Err(invalid(format!("unknown flag '{other}' for benchmark"))),
            }
        }
        Ok(BenchmarkArgs {
            seed: seed.unwrap_or(42),
            dataset,
            meta_goal,
            limit: limit.unwrap_or(20),
            show_ldx,
        })
    }
}

/// Run `linx benchmark`.
pub fn benchmark(args: &BenchmarkArgs) -> Result<String, String> {
    let benchmark = generate_benchmark(args.seed);
    let mut out = format!("benchmark: {} instances\n", benchmark.len());
    let mut listed = 0usize;
    for inst in benchmark.instances.iter() {
        if let Some(dataset) = args.dataset {
            if inst.dataset != dataset.kind() {
                continue;
            }
        }
        if let Some(meta) = args.meta_goal {
            if inst.meta_goal.index() != meta {
                continue;
            }
        }
        if listed >= args.limit {
            out.push_str("... (use --limit to list more)\n");
            break;
        }
        out.push_str(&inst.describe());
        out.push('\n');
        if args.show_ldx {
            for line in inst.gold_ldx.canonical().lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        listed += 1;
    }
    if listed == 0 {
        out.push_str("(no instances match the filters)\n");
    }
    Ok(out)
}

/// Arguments of `linx generate-data`.
#[derive(Debug, Clone)]
pub struct GenerateDataArgs {
    /// Which synthetic dataset to generate.
    pub dataset: DatasetArg,
    /// Number of rows (defaults to the dataset's paper-like scale).
    pub rows: Option<usize>,
    /// Random seed.
    pub seed: u64,
    /// Output CSV path.
    pub out: PathBuf,
}

impl GenerateDataArgs {
    fn help() -> String {
        help_text(
            "linx generate-data",
            "Generate a synthetic benchmark dataset and write it to CSV",
            "      --dataset <netflix|flights|playstore>  Which dataset to generate (required)
      --rows <N>         Number of rows (defaults to the dataset's paper-like scale)
      --seed <N>         Random seed [default: 42]
      --out <PATH>       Output CSV path (required)",
            false,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let (mut dataset, mut rows, mut out) = (None, None, None);
        let mut seed = None;
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--dataset" => set_once(&mut dataset, cursor.parse_value(&flag)?, &flag)?,
                "--rows" => set_once(&mut rows, cursor.parse_value(&flag)?, &flag)?,
                "--seed" => set_once(&mut seed, cursor.parse_value(&flag)?, &flag)?,
                "--out" => set_once(&mut out, cursor.path_value(&flag)?, &flag)?,
                other => return Err(invalid(format!("unknown flag '{other}' for generate-data"))),
            }
        }
        Ok(GenerateDataArgs {
            dataset: dataset.ok_or_else(|| invalid("generate-data requires --dataset"))?,
            rows,
            seed: seed.unwrap_or(42),
            out: out.ok_or_else(|| invalid("generate-data requires --out"))?,
        })
    }
}

/// Run `linx generate-data`.
pub fn generate_data(args: &GenerateDataArgs) -> Result<String, String> {
    let kind = args.dataset.kind();
    let df = generate(
        kind,
        ScaleConfig {
            rows: args.rows,
            seed: args.seed,
        },
    );
    write_csv(&df, &args.out, ',').map_err(|e| format!("failed to write CSV: {e}"))?;
    Ok(format!(
        "wrote {} rows x {} columns of {} to {}",
        df.num_rows(),
        df.num_columns(),
        kind.name(),
        args.out.display()
    ))
}

/// Arguments of `linx serve-batch`.
#[derive(Debug, Clone)]
pub struct ServeBatchArgs {
    /// Dataset selection.
    pub data: DatasetSelection,
    /// The router flags shared with `serve`.
    pub router: RouterFlags,
    /// The goals to explore (given inline and/or via a file).
    pub goals: Vec<String>,
    /// How many times to submit the whole batch (> 1 demonstrates the result cache).
    pub repeat: usize,
    /// Tenant the batch is billed to (admission control + tenant-fair scheduling).
    pub tenant: Option<String>,
    /// Write a metrics snapshot here after the run (`.json` → JSON snapshot,
    /// anything else → Prometheus text exposition).
    pub metrics_out: Option<PathBuf>,
}

impl ServeBatchArgs {
    fn help() -> String {
        help_text(
            "linx serve-batch",
            "Serve many goals against one dataset through the concurrent linx-engine",
            &format!(
                "      --goals <G1;G2;..> Semicolon-separated goals (may repeat)
      --goals-file <PATH> File with one goal per line ('#' comments allowed)
      --repeat <N>       Submit the whole batch N times [default: 1]
      --tenant <NAME>    Tenant the batch is billed to [default: default]
      --metrics-out <PATH>  Write a metrics snapshot after the run (.json → JSON, else Prometheus text)
{ROUTER_FLAGS_HELP}"
            ),
            true,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let mut data = DatasetFlags::default();
        let mut router = RouterFlags::default();
        let mut goals = Vec::new();
        let (mut repeat, mut tenant, mut metrics_out) = (None, None, None);
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--goals" => {
                    let list = cursor.value_of(&flag)?;
                    goals.extend(
                        list.split(';')
                            .map(str::trim)
                            .filter(|g| !g.is_empty())
                            .map(String::from),
                    );
                }
                "--goals-file" => {
                    let path = cursor.path_value(&flag)?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| invalid(format!("failed to read {}: {e}", path.display())))?;
                    goals.extend(
                        text.lines()
                            .map(str::trim)
                            .filter(|l| !l.is_empty() && !l.starts_with('#'))
                            .map(String::from),
                    );
                }
                "--repeat" => set_once(&mut repeat, cursor.parse_value(&flag)?, &flag)?,
                "--tenant" => set_once(&mut tenant, cursor.value_of(&flag)?, &flag)?,
                "--metrics-out" => set_once(&mut metrics_out, cursor.path_value(&flag)?, &flag)?,
                _ if router.try_flag(&flag, cursor)? => {}
                _ if data.try_flag(&flag, cursor)? => {}
                other => return Err(invalid(format!("unknown flag '{other}' for serve-batch"))),
            }
        }
        let data = data.finish()?;
        if goals.is_empty() {
            return Err(invalid(
                "serve-batch requires at least one goal (--goals or --goals-file)",
            ));
        }
        router.require_cache_dir("--cache-disk-cap", router.cache_disk_cap.is_some())?;
        Ok(ServeBatchArgs {
            data,
            router,
            goals,
            repeat: repeat.unwrap_or(1).max(1),
            tenant,
            metrics_out,
        })
    }
}

/// Write the router's metrics snapshot to `path` and return a one-line receipt.
///
/// A `.json` extension selects the JSON snapshot; everything else gets the
/// Prometheus text exposition — the same bytes a `/metrics` route would serve.
fn write_metrics(stats: &RouterStats, path: &PathBuf) -> Result<String, String> {
    let json = path.extension().is_some_and(|ext| ext == "json");
    let body = if json {
        stats.render_json()
    } else {
        stats.render_metrics()
    };
    std::fs::write(path, &body)
        .map_err(|e| format!("failed to write metrics {}: {e}", path.display()))?;
    Ok(format!(
        "wrote {} metrics ({} bytes) to {}\n",
        if json { "JSON" } else { "Prometheus" },
        body.len(),
        path.display()
    ))
}

/// Render the slow-request log collected during the run.
fn slow_log_dump(router: &Router, slow_ms: u64) -> String {
    let entries = router.slow_entries();
    if entries.is_empty() {
        return format!("-- slow requests (>= {slow_ms} ms): none --\n");
    }
    let mut out = format!("-- slow requests (>= {slow_ms} ms): {} --\n", entries.len());
    for entry in &entries {
        out.push_str("   ");
        out.push_str(&entry.render());
        out.push('\n');
    }
    out
}

/// Run `linx serve-batch`.
pub fn serve_batch(args: &ServeBatchArgs) -> Result<String, String> {
    let (dataset, name) = args.data.load()?;
    let router = Router::new(args.router.config()?);
    let tenant = args.tenant.clone().unwrap_or_else(|| "default".to_string());

    let persistence = match &args.router.cache_dir {
        Some(dir) => format!(" (persistent cache: {})", dir.display()),
        None => String::new(),
    };
    let mut out = format!(
        "serving {} goal(s) x {} round(s) against '{name}' ({} rows) with {} worker(s) x {} shard(s) as tenant '{tenant}'{persistence}\n",
        args.goals.len(),
        args.repeat,
        dataset.num_rows(),
        router.engine(0).config().workers,
        router.shards(),
    );
    for round in 1..=args.repeat {
        let outcome = router.run_batch(
            &dataset,
            BatchRequest::new(name.clone(), args.goals.clone()).with_tenant(tenant.clone()),
        );
        out.push_str(&format!(
            "-- round {round} [shard {}]: {}/{} ok, {} from cache, {} throttled, {:.1} ms total (memo: {} hits / {} misses; stats: {} hits / {} misses, {:.0}% hit rate)\n",
            outcome.shard,
            outcome.succeeded(),
            outcome.responses.len(),
            outcome.cache_hits(),
            outcome.throttled(),
            outcome.total_micros as f64 / 1000.0,
            outcome.memo.hits,
            outcome.memo.misses,
            outcome.stats.hits,
            outcome.stats.misses,
            outcome.stats.hit_rate() * 100.0,
        ));
        for r in &outcome.responses {
            let status = match &r.outcome {
                Ok(result) => {
                    let compliance = if result.best_structural {
                        "ok"
                    } else {
                        "partial"
                    };
                    let source = if r.served_from_cache {
                        "cache"
                    } else {
                        "fresh"
                    };
                    format!("{compliance:>7} [{source}]")
                }
                Err(JobError::Panicked(_)) => " panic [fresh]".to_string(),
                Err(JobError::QuotaExceeded(_)) => " quota [-----]".to_string(),
                Err(JobError::DeadlineExceeded(_)) => "  late [-----]".to_string(),
                Err(JobError::Overloaded) => "  shed [-----]".to_string(),
                Err(_) => "  fail [fresh]".to_string(),
            };
            out.push_str(&format!(
                "   {} {status} {:>8.1} ms  {} cells  {}\n",
                r.id,
                r.total_micros as f64 / 1000.0,
                r.outcome
                    .as_ref()
                    .map(|res| res.notebook.len())
                    .unwrap_or(0),
                r.goal,
            ));
        }
    }
    let stats = router.stats();
    out.push_str(&format!("{}\n", stats.summary()));
    if let Some(slow_ms) = args.router.slow_ms {
        out.push_str(&slow_log_dump(&router, slow_ms));
    }
    if let Some(path) = &args.metrics_out {
        out.push_str(&write_metrics(&stats, path)?);
    }
    let report = router.drain();
    out.push_str(&format!(
        "drained: {} completed, {} shed, {} expired, {} throttled, {} tenant entries swept\n",
        report.completed,
        report.shed,
        report.deadline_expired,
        report.throttled,
        report.quota_swept,
    ));
    Ok(out)
}

/// Arguments of `linx serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Dataset selection. When neither `--dataset` nor `--csv` is given, every
    /// built-in synthetic dataset is registered under its own name.
    pub data: DatasetSelection,
    /// The router flags shared with `serve-batch`.
    pub router: RouterFlags,
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Default per-tenant admission quota (max in-flight = max queued = N);
    /// exceeding it answers 429.
    pub max_in_flight: Option<usize>,
    /// Request body cap in bytes; larger bodies answer 400.
    pub max_body_bytes: Option<usize>,
    /// Durable cache-tier writes: fsync entries before rename (crash-safe at a
    /// store-latency cost).
    pub durable: bool,
    /// Open-connection cap; connections over it answer 503 immediately.
    pub max_connections: Option<usize>,
    /// Cumulative per-request read deadline in milliseconds (slowloris
    /// connections answer 408 once it expires).
    pub request_read_timeout_ms: Option<u64>,
}

impl ServeArgs {
    fn help() -> String {
        help_text(
            "linx serve",
            "Serve exploration requests over HTTP/1.1 (POST /v1/explore, GET /v1/jobs/{id}[/result], /healthz, /metrics)",
            &format!(
                "      --addr <HOST:PORT> Bind address [default: 127.0.0.1:7878]
      --max-in-flight <N>  Per-tenant admission quota; exceeding it answers 429
      --max-body-bytes <N>  Request body cap; larger bodies answer 400 [default: 1 MiB]
      --durable          fsync cache entries before rename so they survive a power cut (needs --cache-dir)
      --max-connections <N>  Open-connection cap; connections over it answer 503 [default: 1024, 0 = off]
      --request-read-timeout-ms <N>  Cumulative read deadline per request; slowloris clients answer 408 [default: 10000, 0 = off]
{ROUTER_FLAGS_HELP}"
            ),
            true,
        )
    }

    pub(crate) fn parse(cursor: &mut Cursor) -> ParseResult<Self> {
        let mut data = DatasetFlags::default();
        let mut router = RouterFlags::default();
        let mut addr = None;
        let (mut max_in_flight, mut max_body_bytes) = (None, None);
        let (mut durable, mut max_connections, mut request_read_timeout_ms) = (None, None, None);
        while let Some(flag) = cursor.next() {
            match flag.as_str() {
                "-h" | "--help" => return Err(ParseError::Help(Self::help())),
                "--addr" => set_once(&mut addr, cursor.value_of(&flag)?, &flag)?,
                "--max-in-flight" => {
                    set_once(&mut max_in_flight, cursor.parse_value(&flag)?, &flag)?
                }
                "--max-body-bytes" => {
                    set_once(&mut max_body_bytes, cursor.parse_value(&flag)?, &flag)?
                }
                "--durable" => set_once(&mut durable, true, &flag)?,
                "--max-connections" => {
                    set_once(&mut max_connections, cursor.parse_value(&flag)?, &flag)?
                }
                "--request-read-timeout-ms" => set_once(
                    &mut request_read_timeout_ms,
                    cursor.parse_value(&flag)?,
                    &flag,
                )?,
                _ if router.try_flag(&flag, cursor)? => {}
                _ if data.try_flag(&flag, cursor)? => {}
                other => return Err(invalid(format!("unknown flag '{other}' for serve"))),
            }
        }
        router.require_cache_dir("--cache-disk-cap", router.cache_disk_cap.is_some())?;
        router.require_cache_dir("--durable", durable.is_some())?;
        Ok(ServeArgs {
            data: data.finish()?,
            router,
            addr: addr.unwrap_or_else(|| "127.0.0.1:7878".to_string()),
            max_in_flight,
            max_body_bytes,
            durable: durable.unwrap_or(false),
            max_connections,
            request_read_timeout_ms,
        })
    }
}

/// Run `linx serve`: bind, announce, block until stdin closes (or a `shutdown`
/// line arrives), then drain and report.
///
/// The listening line is printed directly (not returned) so scripts can wait
/// for it while the daemon is still running; the returned string is the final
/// drain accounting. There is no std-only way to catch SIGTERM, so process
/// managers should close the daemon's stdin (or write `shutdown` to it) for a
/// graceful drain; SIGTERM still works, it just skips the drain line.
pub fn serve(args: &ServeArgs) -> Result<String, String> {
    let datasets = serve_datasets(&args.data)?;
    let mut router = args.router.config()?;
    router.engine.persist = router
        .engine
        .persist
        .map(|persist| persist.with_durable(args.durable));
    if let Some(cap) = args.max_in_flight {
        router.engine.default_quota = TenantQuota::limited(cap);
    }
    let mut config = ServeConfig {
        addr: args.addr.clone(),
        router,
        ..ServeConfig::default()
    };
    if let Some(cap) = args.max_body_bytes {
        config.max_body_bytes = cap;
    }
    if let Some(cap) = args.max_connections {
        config.max_connections = cap;
    }
    if let Some(deadline) = args.request_read_timeout_ms {
        config.request_read_timeout_millis = deadline;
    }

    let names: Vec<String> = datasets.iter().map(|(n, _)| n.clone()).collect();
    let server = Server::start(config, datasets)
        .map_err(|e| format!("failed to bind {}: {e}", args.addr))?;
    println!(
        "linx serve: listening on http://{} with dataset(s) [{}]; POST /v1/explore, GET /v1/jobs/{{id}}[/result], /healthz, /metrics; close stdin or type 'shutdown' to drain",
        server.addr(),
        names.join(", ")
    );
    use std::io::BufRead as _;
    let _ = std::io::Write::flush(&mut std::io::stdout());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if matches!(l.trim(), "shutdown" | "quit" | "exit") => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    server.shutdown();
    let report = server.join();
    Ok(format!("{}\n", Server::drain_line(&report)))
}

/// Resolve the datasets a `linx serve` daemon registers: the explicit
/// selection when one was given, every built-in otherwise.
fn serve_datasets(data: &DatasetSelection) -> Result<Vec<(String, DataFrame)>, String> {
    if data.dataset.is_some() || data.csv.is_some() {
        let (frame, name) = data.load()?;
        return Ok(vec![(name, frame)]);
    }
    Ok([
        (DatasetArg::Netflix, "netflix"),
        (DatasetArg::Flights, "flights"),
        (DatasetArg::Playstore, "playstore"),
    ]
    .into_iter()
    .map(|(arg, id)| {
        let frame = generate(
            arg.kind(),
            ScaleConfig {
                rows: data.rows,
                seed: data.seed,
            },
        );
        (id.to_string(), frame)
    })
    .collect())
}

fn write_or_return(output: String, out: &Option<PathBuf>) -> Result<String, String> {
    match out {
        Some(path) => {
            std::fs::write(path, &output)
                .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
            Ok(format!(
                "wrote {} bytes to {}",
                output.len(),
                path.display()
            ))
        }
        None => Ok(output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("linx-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn netflix_selection(rows: usize) -> DatasetSelection {
        DatasetSelection {
            dataset: Some(DatasetArg::Netflix),
            csv: None,
            name: None,
            rows: Some(rows),
            seed: 7,
        }
    }

    #[test]
    fn dataset_selection_requires_a_source() {
        let sel = DatasetSelection {
            dataset: None,
            csv: None,
            name: None,
            rows: None,
            seed: 1,
        };
        assert!(sel.load().is_err());
    }

    #[test]
    fn dataset_selection_loads_builtin_and_csv_sources() {
        let (df, name) = netflix_selection(300).load().unwrap();
        assert_eq!(df.num_rows(), 300);
        assert_eq!(name, "netflix");

        // Round-trip through CSV.
        let path = temp_path("roundtrip.csv");
        write_csv(&df, &path, ',').unwrap();
        let sel = DatasetSelection {
            dataset: None,
            csv: Some(path.clone()),
            name: None,
            rows: None,
            seed: 1,
        };
        let (loaded, csv_name) = sel.load().unwrap();
        assert_eq!(loaded.num_rows(), 300);
        assert!(csv_name.starts_with("linx-cli-test"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn derive_prints_pyldx_and_ldx() {
        let args = DeriveArgs {
            data: netflix_selection(300),
            goal: "Find a country with different viewing habits than the rest of the world"
                .to_string(),
        };
        let out = derive(&args).unwrap();
        assert!(out.contains("Meta-goal  : 1"));
        assert!(out.contains("PyLDX"));
        assert!(out.contains("[F,country,eq,(?<X>.*)]"));
    }

    #[test]
    fn check_validates_ldx_files_and_rejects_bad_ones() {
        let path = temp_path("spec.ldx");
        std::fs::write(
            &path,
            "ROOT CHILDREN {A1}\nA1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\nB1 LIKE [G,.*]",
        )
        .unwrap();
        let out = check(&CheckArgs { path: path.clone() }).unwrap();
        assert!(out.starts_with("OK: 3 named nodes"));
        assert!(out.contains("continuity variables: X"));
        std::fs::remove_file(&path).ok();

        let bad = temp_path("bad.ldx");
        std::fs::write(&bad, "ROOT CHILDREN {A1}").unwrap();
        assert!(check(&CheckArgs { path: bad.clone() }).is_err());
        std::fs::remove_file(&bad).ok();

        assert!(check(&CheckArgs {
            path: temp_path("missing.ldx")
        })
        .is_err());
    }

    #[test]
    fn benchmark_listing_respects_filters_and_limits() {
        let out = benchmark(&BenchmarkArgs {
            seed: 42,
            dataset: Some(DatasetArg::Flights),
            meta_goal: Some(7),
            limit: 3,
            show_ldx: true,
        })
        .unwrap();
        assert!(out.contains("benchmark: 182 instances"));
        assert!(out.contains("meta-goal 7"));
        assert!(out.contains("DESCENDANTS") || out.contains("CHILDREN"));
        // No more than `limit` described instances.
        assert!(out.matches("(Flights, meta-goal 7)").count() <= 3);

        let none = benchmark(&BenchmarkArgs {
            seed: 42,
            dataset: Some(DatasetArg::Netflix),
            meta_goal: Some(99),
            limit: 3,
            show_ldx: false,
        })
        .unwrap();
        assert!(none.contains("no instances match"));
    }

    #[test]
    fn generate_data_writes_csv() {
        let path = temp_path("netflix.csv");
        let out = generate_data(&GenerateDataArgs {
            dataset: DatasetArg::Netflix,
            rows: Some(150),
            seed: 3,
            out: path.clone(),
        })
        .unwrap();
        assert!(out.contains("wrote 150 rows"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 100);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_batch_writes_metrics_and_slow_log() {
        let prom_path = temp_path("metrics.prom");
        let json_path = temp_path("metrics.json");
        let mut args = ServeBatchArgs {
            data: netflix_selection(250),
            router: RouterFlags {
                episodes: Some(40),
                workers: Some(2),
                slow_ms: Some(0),
                ..RouterFlags::default()
            },
            goals: vec!["Survey the duration of the titles".to_string()],
            repeat: 1,
            tenant: None,
            metrics_out: Some(prom_path.clone()),
        };
        let out = serve_batch(&args).unwrap();
        assert!(out.contains("slow requests (>= 0 ms)"));
        assert!(out.contains("wrote Prometheus metrics"));
        assert!(out.contains("drained:"), "out: {out}");
        let text = std::fs::read_to_string(&prom_path).unwrap();
        assert!(text.contains("# TYPE linx_request_total_micros histogram"));
        assert!(text.contains("linx_queue_wait_micros_bucket{band=\"normal\""));
        std::fs::remove_file(&prom_path).ok();

        args.metrics_out = Some(json_path.clone());
        args.router.slow_ms = None;
        let out = serve_batch(&args).unwrap();
        assert!(out.contains("wrote JSON metrics"));
        assert!(!out.contains("slow requests"));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.trim_start().starts_with('{'));
        assert!(json.contains("\"linx_request_total_micros\""));
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn explore_produces_an_ipynb_document_end_to_end() {
        let args = ExploreArgs {
            data: netflix_selection(250),
            goal: "Examine characteristics of titles from India".to_string(),
            episodes: Some(40),
            format: FormatArg::Ipynb,
            out: None,
            charts: false,
            show_ldx: false,
            gallery: None,
        };
        let out = explore(&args).unwrap();
        assert!(out.contains("\"nbformat\": 4"));
        assert!(out.contains("\"cell_type\": \"code\""));
    }

    #[test]
    fn explore_text_output_with_charts_and_file_redirection() {
        let path = temp_path("notebook.txt");
        let args = ExploreArgs {
            data: netflix_selection(250),
            goal: "Survey the duration of the titles".to_string(),
            episodes: Some(40),
            format: FormatArg::Text,
            out: Some(path.clone()),
            charts: true,
            show_ldx: true,
            gallery: None,
        };
        let summary = explore(&args).unwrap();
        assert!(summary.contains("wrote"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("Derived LDX specification"));
        assert!(contents.contains("==="));
        std::fs::remove_file(path).ok();
    }
}
