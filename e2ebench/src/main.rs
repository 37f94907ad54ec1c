//! The LINX end-to-end, layer-by-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold_20k|cold_2k_disk|warm_restart|all> --seed <n> --seconds <s> \
//!     [--trace 0|1] [--smoke]
//! ```
//!
//! Prints every metric by name, unit and sample count, then one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when an output check fails, 2 on bad arguments. See `README.md`.

mod client;
mod cold;
mod common;
mod hist;
mod slice;
mod spans;
mod sys;
mod traced;
mod warm;

use common::{Outcome, Workload};

/// The end-to-end metrics of the JSON line, in `BENCHMARK.json` order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_ms",
    "success_rate",
    "best_score_mean",
    "structural_rate",
    "spec_xted_mean",
    "peak_rss_mb",
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workloads = None;
    let mut seed = 7u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// One metric of the JSON line: `"name": {"value": v, "unit": u}`.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_number(value)
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_outcome(out: &Outcome, trace: bool) {
    println!(
        "== {} ({}) ==",
        out.workload.name(),
        if trace { "traced" } else { "untraced" }
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!(
            "  {:<28} {:>14.4} {:<10} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "checks: {} of {} requests passed every output check",
        out.attempted - out.failed.min(out.attempted),
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some("--prepare-warm") {
        let dir = std::path::PathBuf::from(raw.get(2).cloned().unwrap_or_default());
        let seed = raw
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| raw.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let smoke = raw.iter().any(|a| a == "--smoke");
        if let Err(e) = warm::prepare(&dir, seed, smoke) {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <cold_20k|cold_2k_disk|warm_restart|all> --seed <n> --seconds <s> [--trace 0|1] [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let names: &[&str] = if args.trace {
        &traced::PER_LAYER
    } else {
        &END_TO_END
    };
    let (correct, attempted, failed, metrics) = if args.workloads.len() == 1 {
        run_here(&args, names)
    } else {
        run_each_in_child(&args, names)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The JSON line's parts: correct, attempted, failed and the named metrics.
type Summary = (bool, u64, u64, Vec<String>);

/// Run the one workload of `args` in this process.
fn run_here(args: &Args, names: &[&str]) -> Summary {
    let w = args.workloads[0];
    let out = match (w, args.trace) {
        (Workload::WarmRestart, false) => warm::run(args.seed, args.seconds, args.smoke),
        (_, false) => cold::run(w, args.seed, args.seconds, args.smoke),
        (_, true) => traced::run(w, args.seed, args.seconds, args.smoke),
    };
    print_outcome(&out, args.trace);
    let metrics = names
        .iter()
        .filter_map(|name| out.metrics.iter().find(|m| m.name == *name))
        .map(|m| metric_json(m.name, m.value, m.unit))
        .collect();
    (out.correct(), out.attempted, out.failed, metrics)
}

/// Run each workload of `args` in a child process of its own, so each reports its
/// own peak RSS (`VmHWM` only ever rises within a process), and prefix each metric
/// of the JSON line with its workload.
fn run_each_in_child(args: &Args, names: &[&str]) -> Summary {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &args.workloads {
        let output = std::env::current_exe().and_then(|exe| {
            let mut cmd = std::process::Command::new(exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            cmd.output()
        });
        let stdout = output
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| serde_json::from_str(l).ok());
        for line in lines {
            println!("{line}");
        }
        let exited_ok = output.as_ref().is_ok_and(|o| o.status.success());
        let Some(v) = result else {
            let why = match &output {
                Ok(o) => o.status.to_string(),
                Err(e) => e.to_string(),
            };
            println!("== {} ==\n  FAILED: no result ({why})", w.name());
            (correct, attempted, failed) = (false, attempted + 1, failed + 1);
            continue;
        };
        correct &= exited_ok && v.get("correct").and_then(|c| c.as_bool()) == Some(true);
        let count = |key: &str| v.get(key).and_then(|c| c.as_u64()).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        let reported = v.get("metrics").and_then(|m| m.as_object());
        for name in names {
            let Some(m) = reported.and_then(|r| r.get(*name)) else {
                continue;
            };
            let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            metrics.push(metric_json(&format!("{}.{name}", w.name()), value, unit));
        }
    }
    (correct, attempted, failed, metrics)
}
