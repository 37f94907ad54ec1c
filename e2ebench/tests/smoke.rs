//! Runs every workload of the benchmark at smoke size, untraced and traced, and
//! checks the output contract: exit code 0, and a last line holding one JSON
//! object with `correct`, `attempted`, `failed` and every expected metric.

use std::process::Command;

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

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_linx-e2ebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn last_json(stdout: &str) -> serde_json::Value {
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn check(workload: &str, trace: &str, expected: &[&str]) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
    let v = last_json(&stdout);
    assert_eq!(
        v.get("correct").and_then(|c| c.as_bool()),
        Some(true),
        "{stdout}"
    );
    assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
    assert!(v.get("attempted").and_then(|c| c.as_u64()).unwrap_or(0) >= 1);
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    let mut keys: Vec<&str> = metrics.keys().map(String::as_str).collect();
    keys.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(keys, want, "{workload} trace={trace}");
    for (name, m) in metrics.iter() {
        let value = m.get("value").and_then(|x| x.as_f64());
        assert!(
            value.is_some_and(f64::is_finite),
            "{name} has no finite value"
        );
        assert!(
            m.get("unit").and_then(|u| u.as_str()).is_some(),
            "{name} has no unit"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in ["cold_20k", "cold_2k_disk", "warm_restart"] {
        check(w, "0", &END_TO_END);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let e2e = names("end_to_end");
    assert_eq!(
        e2e,
        END_TO_END.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    );
    let per_layer = names("per_layer");
    let per_layer: Vec<&str> = per_layer.iter().map(String::as_str).collect();
    for w in ["cold_20k", "cold_2k_disk", "warm_restart"] {
        check(w, "1", &per_layer);
    }
}

#[test]
fn all_runs_every_workload_and_prefixes_its_metrics() {
    let (code, stdout) = run(&[
        "--workload",
        "all",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert_eq!(code, 0, "all failed:\n{stdout}");
    let v = last_json(&stdout);
    assert_eq!(
        v.get("correct").and_then(|c| c.as_bool()),
        Some(true),
        "{stdout}"
    );
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    let workloads = ["cold_20k", "cold_2k_disk", "warm_restart"];
    let mut keys: Vec<&str> = metrics.keys().map(String::as_str).collect();
    keys.sort_unstable();
    let mut want: Vec<String> = workloads
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| format!("{w}.{m}")))
        .collect();
    want.sort_unstable();
    assert_eq!(keys, want);
    // Each workload ran in a process of its own and printed its own report.
    for w in workloads {
        assert!(
            stdout.contains(&format!("== {w} (untraced) ==")),
            "{stdout}"
        );
    }
    // Peak RSS only ever rises within a process: warm_restart, which runs last and
    // holds no HTTP server, reports less than a cold workload only because it ran
    // in a process of its own.
    let rss = |w: &str| {
        metrics[&format!("{w}.peak_rss_mb")]
            .get("value")
            .and_then(|x| x.as_f64())
            .expect("peak_rss_mb")
    };
    assert!(
        rss("warm_restart") < rss("cold_20k"),
        "warm_restart {} MiB, cold_20k {} MiB",
        rss("warm_restart"),
        rss("cold_20k")
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let (code, stdout) = run(&["--workload", "nope", "--seed", "1", "--seconds", "1"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
}
