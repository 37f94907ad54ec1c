//! `linx-cli` — the command-line interface to the LINX reproduction.
//!
//! The binary is called `linx` and exposes the end-to-end system plus the pieces a user
//! typically wants on their own:
//!
//! * `linx explore`  — dataset + natural-language goal → exploration notebook
//!   (text / Markdown / Jupyter `.ipynb`), optionally with ASCII chart recommendations
//!   and the spelled-out insight narrative.
//! * `linx derive`   — only Step 1: goal → meta-goal intent → PyLDX template → LDX.
//! * `linx check`    — parse and validate an LDX specification file; print its
//!   structural / operational split and continuity variables.
//! * `linx benchmark`— list instances of the 182-goal benchmark (Table 1).
//! * `linx generate-data` — write one of the synthetic benchmark datasets to CSV.
//! * `linx serve-batch` — run many goals against one dataset through the sharded,
//!   concurrent, cache-aware `linx-engine` service (`--shards` picks the router
//!   width, `--tenant` bills the batch to a tenant for admission control).
//! * `linx serve` — a long-running HTTP/1.1 daemon over the router: submit goals
//!   with `POST /v1/explore`, poll `GET /v1/jobs/{id}`, fetch results, and scrape
//!   `/metrics`; stdin-close (or a `shutdown` line) drains gracefully.
//!
//! `serve` and `serve-batch` parse the router flags they share (`--shards`,
//! `--workers`, the cache and resilience knobs, ...) through one
//! [`commands::RouterFlags`].
//!
//! The command definitions and their execution live in this library crate so they can be
//! unit-tested without spawning processes; `main.rs` is a thin wrapper. Argument parsing
//! is hand-rolled (see [`argparse`]) because the workspace builds offline, without
//! crates.io dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod argparse;
pub mod commands;

use argparse::{invalid, Cursor, ParseError, ParseResult};
use linx_data::DatasetKind;

/// Top-level usage text.
const USAGE: &str = "\
linx — goal-oriented automated data exploration (a Rust reproduction of LINX, EDBT 2025)

Usage: linx <COMMAND> [OPTIONS]

Commands:
  explore        Run the full pipeline: dataset + goal -> specification -> session -> notebook
  derive         Derive LDX specifications for a goal without running the CDRL engine
  check          Parse and validate an LDX specification file
  benchmark      List instances of the goal-oriented benchmark (paper Table 1)
  generate-data  Generate a synthetic benchmark dataset and write it to CSV
  serve-batch    Serve many goals against one dataset via the concurrent linx-engine
  serve          Serve exploration requests over HTTP/1.1 (submit/poll/result/healthz/metrics)

Options:
  -h, --help     Print this help (or a command's help after the command)
  -V, --version  Print the version
";

/// Which built-in synthetic dataset to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetArg {
    /// Netflix Movies and TV Shows.
    Netflix,
    /// Flight delays and cancellations.
    Flights,
    /// Google Play Store apps.
    Playstore,
}

impl DatasetArg {
    /// The corresponding dataset kind.
    pub fn kind(&self) -> DatasetKind {
        match self {
            DatasetArg::Netflix => DatasetKind::Netflix,
            DatasetArg::Flights => DatasetKind::Flights,
            DatasetArg::Playstore => DatasetKind::PlayStore,
        }
    }
}

impl std::str::FromStr for DatasetArg {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "netflix" => Ok(DatasetArg::Netflix),
            "flights" => Ok(DatasetArg::Flights),
            "playstore" => Ok(DatasetArg::Playstore),
            other => Err(format!(
                "unknown dataset '{other}' (expected netflix, flights, or playstore)"
            )),
        }
    }
}

/// Output format of an exploration notebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatArg {
    /// Plain text (terminal friendly).
    Text,
    /// Markdown.
    Markdown,
    /// Jupyter notebook JSON (`.ipynb`).
    Ipynb,
}

impl std::str::FromStr for FormatArg {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(FormatArg::Text),
            "markdown" => Ok(FormatArg::Markdown),
            "ipynb" => Ok(FormatArg::Ipynb),
            other => Err(format!(
                "unknown format '{other}' (expected text, markdown, or ipynb)"
            )),
        }
    }
}

/// The `linx` subcommands.
#[derive(Debug)]
pub enum Command {
    /// Run the full pipeline: dataset + goal → specification → compliant session → notebook.
    Explore(commands::ExploreArgs),
    /// Derive LDX specifications for a goal without running the CDRL engine.
    Derive(commands::DeriveArgs),
    /// Parse and validate an LDX specification file.
    Check(commands::CheckArgs),
    /// List instances of the goal-oriented benchmark (paper Table 1).
    Benchmark(commands::BenchmarkArgs),
    /// Generate a synthetic benchmark dataset and write it to CSV.
    GenerateData(commands::GenerateDataArgs),
    /// Serve a batch of goals against one dataset through `linx-engine`.
    ServeBatch(commands::ServeBatchArgs),
    /// Serve exploration requests over HTTP/1.1 via `linx-engine`'s daemon.
    Serve(commands::ServeArgs),
}

/// A parsed `linx` invocation.
#[derive(Debug)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
}

impl Cli {
    /// Parse from an explicit token iterator (the first token is the program name).
    pub fn try_parse_from<I, S>(args: I) -> ParseResult<Cli>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut toks: Vec<String> = args.into_iter().map(Into::into).collect();
        if !toks.is_empty() {
            toks.remove(0); // program name
        }
        // Top-level help only when it appears before the subcommand; otherwise the
        // subcommand's parser emits its own help.
        if toks.first().is_some_and(|t| t == "-h" || t == "--help") {
            return Err(ParseError::Help(USAGE.to_string()));
        }
        if toks.first().is_some_and(|t| t == "-V" || t == "--version") {
            return Err(ParseError::Help(format!(
                "linx {}",
                env!("CARGO_PKG_VERSION")
            )));
        }
        let mut cursor = Cursor::new(toks);
        let Some(name) = cursor.next() else {
            return Err(ParseError::Help(USAGE.to_string()));
        };
        let command = match name.as_str() {
            "explore" => Command::Explore(commands::ExploreArgs::parse(&mut cursor)?),
            "derive" => Command::Derive(commands::DeriveArgs::parse(&mut cursor)?),
            "check" => Command::Check(commands::CheckArgs::parse(&mut cursor)?),
            "benchmark" => Command::Benchmark(commands::BenchmarkArgs::parse(&mut cursor)?),
            "generate-data" => {
                Command::GenerateData(commands::GenerateDataArgs::parse(&mut cursor)?)
            }
            "serve-batch" => Command::ServeBatch(commands::ServeBatchArgs::parse(&mut cursor)?),
            "serve" => Command::Serve(commands::ServeArgs::parse(&mut cursor)?),
            other => return Err(invalid(format!("unknown command '{other}'\n\n{USAGE}"))),
        };
        Ok(Cli { command })
    }

    /// Parse the process arguments, printing help or errors and exiting as appropriate.
    pub fn parse() -> Cli {
        match Cli::try_parse_from(std::env::args()) {
            Ok(cli) => cli,
            Err(err) if err.is_help() => {
                println!("{}", err.message());
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: {}", err.message());
                std::process::exit(2);
            }
        }
    }
}

/// Execute a parsed command line and return its textual output.
pub fn run(cli: &Cli) -> Result<String, String> {
    match &cli.command {
        Command::Explore(args) => commands::explore(args),
        Command::Derive(args) => commands::derive(args),
        Command::Check(args) => commands::check(args),
        Command::Benchmark(args) => commands::benchmark(args),
        Command::GenerateData(args) => commands::generate_data(args),
        Command::ServeBatch(args) => commands::serve_batch(args),
        Command::Serve(args) => commands::serve(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_definition_is_well_formed() {
        // Every command's help renders, and the top-level help lists every command.
        for cmd in [
            "explore",
            "derive",
            "check",
            "benchmark",
            "generate-data",
            "serve-batch",
            "serve",
        ] {
            let err = Cli::try_parse_from(["linx", cmd, "--help"]).unwrap_err();
            assert!(err.is_help(), "{cmd} --help should render help");
            assert!(err.message().contains(cmd), "{cmd} help names the command");
            assert!(USAGE.contains(cmd), "top-level usage lists {cmd}");
        }
        assert!(Cli::try_parse_from(["linx", "--help"])
            .unwrap_err()
            .is_help());
        assert!(Cli::try_parse_from(["linx"]).unwrap_err().is_help());
        assert!(!Cli::try_parse_from(["linx", "frobnicate"])
            .unwrap_err()
            .is_help());
    }

    #[test]
    fn dataset_arg_maps_to_kinds() {
        assert_eq!(DatasetArg::Netflix.kind(), DatasetKind::Netflix);
        assert_eq!(DatasetArg::Flights.kind(), DatasetKind::Flights);
        assert_eq!(DatasetArg::Playstore.kind(), DatasetKind::PlayStore);
    }

    #[test]
    fn explore_command_parses_with_defaults() {
        let cli = Cli::try_parse_from([
            "linx",
            "explore",
            "--dataset",
            "netflix",
            "--goal",
            "Find an atypical country",
        ])
        .unwrap();
        match cli.command {
            Command::Explore(args) => {
                assert_eq!(args.data.dataset, Some(DatasetArg::Netflix));
                assert_eq!(args.goal, "Find an atypical country");
                assert_eq!(args.format, FormatArg::Text);
                assert!(args.data.csv.is_none());
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn benchmark_command_parses_filters() {
        let cli = Cli::try_parse_from([
            "linx",
            "benchmark",
            "--dataset",
            "flights",
            "--meta-goal",
            "7",
            "--limit",
            "5",
        ])
        .unwrap();
        match cli.command {
            Command::Benchmark(args) => {
                assert_eq!(args.dataset, Some(DatasetArg::Flights));
                assert_eq!(args.meta_goal, Some(7));
                assert_eq!(args.limit, 5);
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn missing_goal_is_a_parse_error() {
        assert!(Cli::try_parse_from(["linx", "explore", "--dataset", "netflix"]).is_err());
        assert!(Cli::try_parse_from(["linx", "derive"]).is_err());
    }

    #[test]
    fn dataset_and_csv_conflict() {
        let err = Cli::try_parse_from([
            "linx",
            "explore",
            "--dataset",
            "netflix",
            "--csv",
            "data.csv",
            "--goal",
            "g",
        ])
        .unwrap_err();
        assert!(err.message().contains("--csv"));
    }

    #[test]
    fn serve_batch_parses_goals_and_engine_knobs() {
        let cli = Cli::try_parse_from([
            "linx",
            "serve-batch",
            "--dataset",
            "netflix",
            "--goals",
            "goal one;goal two",
            "--workers",
            "3",
            "--episodes",
            "50",
            "--repeat",
            "2",
            "--shards",
            "4",
            "--tenant",
            "acme",
            "--metrics-out",
            "metrics.txt",
            "--slow-ms",
            "50",
            "--fault-plan",
            "seed=7;disk.read=err@25;pool.execute=delay:200@10",
            "--deadline-ms",
            "750",
            "--shed-threshold",
            "16",
        ])
        .unwrap();
        match cli.command {
            Command::ServeBatch(args) => {
                assert_eq!(args.goals, vec!["goal one", "goal two"]);
                assert_eq!(args.router.workers, Some(3));
                assert_eq!(args.router.episodes, Some(50));
                assert_eq!(args.repeat, 2);
                assert_eq!(args.router.shards, Some(4));
                assert_eq!(args.tenant.as_deref(), Some("acme"));
                assert_eq!(
                    args.metrics_out.as_deref(),
                    Some(std::path::Path::new("metrics.txt"))
                );
                assert_eq!(args.router.slow_ms, Some(50));
                assert_eq!(
                    args.router.fault_plan.as_deref(),
                    Some("seed=7;disk.read=err@25;pool.execute=delay:200@10")
                );
                assert_eq!(args.router.deadline_ms, Some(750));
                assert_eq!(args.router.shed_threshold, Some(16));
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn serve_batch_rejects_a_malformed_fault_plan() {
        let err = Cli::try_parse_from([
            "linx",
            "serve-batch",
            "--dataset",
            "netflix",
            "--goals",
            "g",
            "--fault-plan",
            "disk.read=explode@50",
        ])
        .unwrap_err();
        assert!(!err.is_help());
        assert!(err.message().contains("explode"), "{}", err.message());
    }

    #[test]
    fn serve_parses_daemon_knobs() {
        let cli = Cli::try_parse_from([
            "linx",
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--dataset",
            "netflix",
            "--rows",
            "200",
            "--shards",
            "2",
            "--shed-threshold",
            "0",
            "--max-in-flight",
            "1",
            "--max-body-bytes",
            "4096",
            "--fault-plan",
            "seed=7;http.accept=delay:200@10",
        ])
        .unwrap();
        match cli.command {
            Command::Serve(args) => {
                assert_eq!(args.addr, "127.0.0.1:0");
                assert_eq!(args.data.dataset, Some(DatasetArg::Netflix));
                assert_eq!(args.data.rows, Some(200));
                assert_eq!(args.router.shards, Some(2));
                assert_eq!(args.router.shed_threshold, Some(0));
                assert_eq!(args.max_in_flight, Some(1));
                assert_eq!(args.max_body_bytes, Some(4096));
                assert_eq!(
                    args.router.fault_plan.as_deref(),
                    Some("seed=7;http.accept=delay:200@10")
                );
            }
            other => panic!("unexpected command: {other:?}"),
        }
        // Defaults: well-known port, no dataset restriction (all built-ins).
        let cli = Cli::try_parse_from(["linx", "serve"]).unwrap();
        match cli.command {
            Command::Serve(args) => {
                assert_eq!(args.addr, "127.0.0.1:7878");
                assert!(args.data.dataset.is_none() && args.data.csv.is_none());
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    /// Reads one `RouterConfig` field.
    type Field = fn(&linx_engine::RouterConfig) -> String;

    /// The router flags `serve` and `serve-batch` share, each with a value and the
    /// `RouterConfig` field that value must set.
    const ROUTER_FLAGS: [(&str, &str, Field); 10] = [
        ("--episodes", "17", |c| c.engine.cdrl.episodes.to_string()),
        ("--workers", "3", |c| c.engine.workers.to_string()),
        ("--cache-mem-cap", "4096", |c| {
            c.engine.cache_mem_bytes.to_string()
        }),
        ("--shards", "4", |c| c.shards.to_string()),
        ("--cache-dir", "cache-dir", |c| {
            format!("{:?}", c.engine.persist.as_ref().map(|p| &p.dir))
        }),
        ("--cache-disk-cap", "1234", |c| {
            format!("{:?}", c.engine.persist.as_ref().map(|p| p.max_bytes))
        }),
        ("--slow-ms", "50", |c| {
            format!("{:?}", c.engine.slow_threshold_micros)
        }),
        ("--fault-plan", "seed=7;disk.read=err@25", |c| {
            format!("{:?}", c.engine.fault_plan.as_ref().map(|p| p.rules()))
        }),
        ("--deadline-ms", "750", |c| {
            format!("{:?}", c.engine.default_deadline_micros)
        }),
        ("--shed-threshold", "16", |c| {
            format!("{:?}", c.engine.shed_queue_depth)
        }),
    ];

    /// The router flags parsed from `linx <command> <extra..>`.
    fn router_flags(command: &str, extra: &[&str]) -> ParseResult<commands::RouterFlags> {
        let mut argv = vec!["linx", command];
        if command == "serve-batch" {
            argv.extend(["--goals", "g"]);
        }
        argv.extend(extra);
        match Cli::try_parse_from(argv)?.command {
            Command::Serve(args) => Ok(args.router),
            Command::ServeBatch(args) => Ok(args.router),
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn serve_and_serve_batch_map_each_router_flag_onto_the_same_field() {
        for (flag, value, field) in ROUTER_FLAGS {
            // `--cache-disk-cap` is a usage error without a `--cache-dir`.
            let mut extra = vec![flag, value];
            if flag == "--cache-disk-cap" {
                extra.extend(["--cache-dir", "cache-dir"]);
            }
            let landed: Vec<String> = ["serve", "serve-batch"]
                .into_iter()
                .map(|command| {
                    let base = router_flags(command, &extra[2..])
                        .unwrap()
                        .config()
                        .unwrap();
                    let set = router_flags(command, &extra).unwrap().config().unwrap();
                    assert_ne!(field(&set), field(&base), "{command} {flag} sets its field");
                    let twice = [extra.as_slice(), &[flag, value]].concat();
                    let err = router_flags(command, &twice).unwrap_err();
                    assert!(
                        err.message().contains("more than once"),
                        "{command} rejects a repeated {flag}: {}",
                        err.message()
                    );
                    field(&set)
                })
                .collect();
            assert_eq!(
                landed[0], landed[1],
                "{flag} lands alike under both commands"
            );
        }
    }

    #[test]
    fn disk_tier_flags_without_a_cache_dir_are_usage_errors() {
        let cases: [(&str, &[&str]); 3] = [
            ("serve", &["--cache-disk-cap", "1234"]),
            ("serve-batch", &["--cache-disk-cap", "1234"]),
            ("serve", &["--durable"]),
        ];
        for (command, flags) in cases {
            let err = router_flags(command, flags).unwrap_err();
            assert!(!err.is_help());
            assert!(
                err.message().contains(flags[0]) && err.message().contains("--cache-dir"),
                "{command} {flags:?}: {}",
                err.message()
            );
            let mounted = [flags, &["--cache-dir", "cache-dir"]].concat();
            router_flags(command, &mounted).unwrap();
        }
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        assert!(Cli::try_parse_from(["linx", "explore", "--goal", "g", "--bogus"]).is_err());
        assert!(Cli::try_parse_from(["linx", "benchmark", "--bogus"]).is_err());
        assert!(Cli::try_parse_from(["linx", "serve", "--bogus"]).is_err());
    }
}
