//! Cross-process determinism: one request gives one answer in every process.
//!
//! The test re-executes its own binary in [`CHILDREN`] child processes, each running
//! one `Linx::explore` request, and requires every child to report the same best
//! tree, the same `best_score` bits and the same notebook text. The request is one
//! whose best tree used to depend on the process: reward statistics summed in
//! `HashMap` iteration order, which `RandomState` seeds per map and per process, and
//! two sessions with equal printed scores were then ranked by the last bits.

use std::process::{Command, Stdio};

use linx::{Linx, LinxConfig};
use linx_data::{generate, DatasetKind, ScaleConfig};

/// Set in a child process: run the request and print the answer.
const CHILD_ENV: &str = "LINX_CROSS_PROCESS_CHILD";
/// Number of child processes compared.
const CHILDREN: usize = 8;
/// Marks the start and end of a child's answer in its captured stdout.
const BEGIN: &str = "<<<answer>>>";
const END: &str = "<<<end>>>";

const GOAL: &str =
    "Find an atypical country among the titles, one with different habits than the rest";

/// `linx explore --dataset netflix --rows 400 --seed 7 --episodes 60 --goal GOAL`,
/// printed as tree, score bits and notebook text between the markers.
fn run_request() -> String {
    let dataset = generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(400),
            seed: 7,
        },
    );
    let mut config = LinxConfig::default();
    config.cdrl.episodes = 60;
    let outcome = Linx::new(config).explore(&dataset, "netflix", GOAL);
    format!(
        "{BEGIN}\n{}\n{:016x}\n{}\n{END}",
        outcome.training.best_tree.to_compact_string(),
        outcome.training.best_score.to_bits(),
        outcome.notebook.to_text(),
    )
}

#[test]
fn one_request_gives_one_answer_in_every_process() {
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("{}", run_request());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = (0..CHILDREN)
        .map(|_| {
            Command::new(&exe)
                .args([
                    "--exact",
                    "one_request_gives_one_answer_in_every_process",
                    "--nocapture",
                    "--test-threads=1",
                ])
                .env(CHILD_ENV, "1")
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn child test process")
        })
        .collect();
    let mut answers: Vec<String> = Vec::new();
    for child in children {
        let out = child.wait_with_output().expect("child test process");
        assert!(out.status.success(), "child failed: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let start = stdout.find(BEGIN).expect("child printed an answer");
        let end = stdout.find(END).expect("child finished its answer");
        answers.push(stdout[start..end].to_string());
    }
    let mut distinct = answers.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        1,
        "{CHILDREN} processes gave {} different answers:\n{}",
        distinct.len(),
        distinct.join("\n")
    );
}
