//! Kill-the-process crash-recovery harness.
//!
//! Every cycle spawns a real `linx serve` daemon (the workspace's own binary,
//! no shortcuts) against a shared `--cache-dir`, arms a torn-write fault plan,
//! SIGKILLs it mid-store, then restarts a clean daemon over the same directory
//! and verifies the crash-consistency contract end to end:
//!
//! * the startup scrub quarantines every torn entry (moved into `quarantine/`,
//!   never unlinked) and the scrub metrics reconcile exactly with a directory
//!   walk before and after the restart;
//! * intact entries warm-hit across the kill — a goal computed in an earlier
//!   cycle resolves as `served_from_cache:true` after every subsequent crash;
//! * `/healthz` answers 200 on the survivor — recovery is automatic, with no
//!   fsck step or manual intervention.
//!
//! Cycle count defaults to 25 (the acceptance bar) and can be reduced for
//! smoke runs via `LINX_CRASH_CYCLES`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `linx` binary built alongside this workspace's test profile:
/// `target/<profile>/deps/crash_recovery-<hash>` → `target/<profile>/linx`.
///
/// Built through cargo on every run, a no-op when it is current: neither
/// `cargo test -p linx-engine` nor a workspace-root `cargo test` rebuilds another
/// package's binary, so a `linx` left over from an earlier build would otherwise
/// be the program under test.
fn linx_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test binary lives in target/<profile>/deps");
    let status = Command::new(env!("CARGO"))
        .args(["build", "-q", "-p", "linx-cli", "--bin", "linx"])
        .args(if profile_dir.ends_with("release") {
            &["--release"][..]
        } else {
            &[][..]
        })
        .status()
        .expect("spawn cargo build for the linx binary");
    assert!(status.success(), "building the linx binary failed");
    let bin = profile_dir.join("linx");
    assert!(bin.exists(), "no linx binary at {}", bin.display());
    bin
}

/// Goals submitted to each victim. Only answers are persisted, one entry per job,
/// and in a debug build about five jobs finish in the 400 ms before the kill: with
/// three goals every store would land first and the SIGKILL would never catch the
/// victim mid-run, so it gets more work than it can finish.
const VICTIM_GOALS: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("linx-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A running daemon child plus the ephemeral address it announced.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

fn spawn_daemon(bin: &Path, cache_dir: &Path, fault_plan: Option<&str>) -> Daemon {
    let mut cmd = Command::new(bin);
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--dataset",
        "netflix",
        "--rows",
        "100",
        "--seed",
        "7",
        "--workers",
        "1",
        "--shards",
        "1",
        "--episodes",
        "20",
        "--cache-dir",
    ])
    .arg(cache_dir)
    .stdin(Stdio::piped())
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    if let Some(plan) = fault_plan {
        cmd.args(["--fault-plan", plan]);
    }
    let mut child = cmd.spawn().expect("spawn linx serve");

    // Wait for the listening banner on a side thread so a child that dies at
    // startup fails the test instead of hanging it.
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse::<SocketAddr>().ok());
                let _ = tx.send(addr);
                break;
            }
        }
        // Keep draining so the child never blocks on a full stdout pipe.
        for _ in lines {}
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("daemon never printed its listening banner")
        .expect("unparseable listening banner");
    Daemon { child, addr }
}

impl Daemon {
    /// Graceful drain: ask for shutdown over stdin and reap, bounded.
    fn shutdown(mut self) {
        if let Some(mut stdin) = self.child.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(_) => return,
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    panic!("daemon did not drain within 60s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// SIGKILL — the crash under test — and reap the zombie.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().expect("reap the killed daemon");
    }
}

/// One `Connection: close` request; the response is read to EOF.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: linx\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response head: {text}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Exact-name sample lookup in a Prometheus exposition body.
fn sample(body: &str, name: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("no sample named {name} in exposition"))
}

/// Names of the `.lnx` entry files in the top level of a directory.
fn lnx_names(dir: &Path) -> std::collections::BTreeSet<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("lnx"))
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(_) => std::collections::BTreeSet::new(),
    }
}

/// Submit a goal and poll its job until it settles; returns the final status
/// body (which carries `served_from_cache`).
fn run_goal(addr: SocketAddr, goal: &str) -> String {
    let (status, body) = http(
        addr,
        "POST",
        "/v1/explore",
        Some(&format!(
            "{{\"dataset\":\"netflix\",\"goal\":\"{goal}\",\"max_episodes\":5}}"
        )),
    );
    assert_eq!(status, 202, "submit: {body}");
    let id: u64 = body
        .split("\"job_id\":")
        .nth(1)
        .and_then(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no job_id in {body}"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "poll: {body}");
        if !body.contains("\"status\":\"pending\"") {
            assert!(body.contains("\"status\":\"done\""), "job failed: {body}");
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} hung");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn seeded_sigkill_cycles_recover_with_scrub_and_warm_hits() {
    let cycles: u32 = std::env::var("LINX_CRASH_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let bin = linx_bin();
    let cache_dir = temp_dir("cycles");
    let quarantine = cache_dir.join("quarantine");
    let mut total_quarantined = 0u64;

    for cycle in 0..cycles {
        // --- crash phase: a fault-armed victim is SIGKILLed mid-store -------
        // Torn writes publish a truncated entry 40% of the time (offset varies
        // per cycle); slow writes widen the window the SIGKILL lands in.
        let plan = format!(
            "seed={};disk.write.torn=delay:{}@40;disk.write=delay:120000@25",
            100 + cycle,
            8 + (cycle * 5) % 48
        );
        let victim = spawn_daemon(&bin, &cache_dir, Some(&plan));
        for goal in 0..VICTIM_GOALS {
            let (status, body) = http(
                victim.addr,
                "POST",
                "/v1/explore",
                Some(&format!(
                    "{{\"dataset\":\"netflix\",\"goal\":\"crash cycle {cycle} goal {goal}\",\"max_episodes\":5}}"
                )),
            );
            assert_eq!(status, 202, "victim submit: {body}");
        }
        // Let some stores land (intact or torn) and some stay in flight.
        std::thread::sleep(Duration::from_millis(400));
        victim.kill();

        // --- recovery phase: a clean daemon scrubs and serves ---------------
        let entries_before = lnx_names(&cache_dir);
        let quarantined_before = lnx_names(&quarantine);
        let survivor = spawn_daemon(&bin, &cache_dir, None);

        let (health, health_body) = http(survivor.addr, "GET", "/healthz", None);
        assert_eq!(
            health, 200,
            "cycle {cycle}: survivor unhealthy: {health_body}"
        );

        let (status, metrics) = http(survivor.addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let scanned = sample(&metrics, "linx_scrub_scanned_total");
        let quarantined = sample(&metrics, "linx_scrub_quarantined_total");
        assert_eq!(
            scanned,
            entries_before.len() as u64,
            "cycle {cycle}: scrub must examine every entry file it found"
        );
        // Only answers are persisted, and the survivor has run no job yet, so
        // nothing it wrote can be mistaken for a pre-crash entry. Reconcile by
        // name: every pre-crash entry is still resident or sits in
        // quarantine/ — the scrub never simply deletes one.
        let live_now = lnx_names(&cache_dir);
        let quarantined_now = lnx_names(&quarantine);
        let mut newly_quarantined = 0u64;
        let mut quarantined_names = 0u64;
        for name in &entries_before {
            let resident = live_now.contains(name);
            let in_quarantine = quarantined_now.contains(name);
            assert!(
                resident || in_quarantine,
                "cycle {cycle}: entry {name} vanished — neither resident nor quarantined"
            );
            if in_quarantine {
                quarantined_names += 1;
                if !quarantined_before.contains(name) {
                    newly_quarantined += 1;
                }
            }
        }
        // A re-torn entry can land on a file name quarantined in an earlier
        // cycle (the rename overwrites), so the counter is bounded by names
        // rather than matched exactly: at least every newly-appearing name, at
        // most every pre-crash name now in quarantine.
        assert!(
            quarantined >= newly_quarantined && quarantined <= quarantined_names,
            "cycle {cycle}: scrub counter {quarantined} outside [{newly_quarantined}, {quarantined_names}]"
        );
        total_quarantined += quarantined;

        // Intact entries warm-hit across the crash: the anchor goal is computed
        // once (cycle 0) and must come straight from the persistent cache in
        // every later cycle.
        let anchor = run_goal(survivor.addr, "crash warm anchor");
        if cycle > 0 {
            assert!(
                anchor.contains("\"served_from_cache\":true"),
                "cycle {cycle}: anchor must warm-hit after recovery: {anchor}"
            );
        }
        survivor.shutdown();
    }

    assert!(
        total_quarantined > 0,
        "{cycles} torn-write crash cycles produced no quarantined entry — \
         the harness exercised nothing"
    );
    // Reached only when every cycle passed: a failed run keeps the directory
    // (live entries and quarantine/) for inspection.
    std::fs::remove_dir_all(&cache_dir).expect("remove the harness cache directory");
}
