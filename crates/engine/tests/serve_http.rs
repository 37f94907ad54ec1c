//! Black-box conformance + soak harness for `linx serve` (the HTTP/1.1 daemon).
//!
//! Every test in this file drives a *real socket* against a [`Server`] bound to
//! an ephemeral port — no internal shortcuts — so what is pinned here is the
//! wire contract itself:
//!
//! * **Conformance goldens** — the exact status / header / JSON-error-body for
//!   `QuotaExceeded` (429), `Overloaded` (503 + `Retry-After`),
//!   `DeadlineExceeded` (504), unknown-route (404), and bad-method (405 +
//!   `Allow`), so the mapping cannot drift silently.
//! * **Parser properties** — arbitrary byte mutations of valid requests never
//!   panic the parser and always yield a parse or a typed 400/431; chunked
//!   and oversized bodies are rejected at the documented caps.
//! * **Soak** — N client threads × M requests against a fault-plan-armed
//!   server: no hangs (every read is timeout-bounded, the whole run sits
//!   under a watchdog), no connection leaks (the `connections_now` gauge
//!   returns to baseline), and every response is typed.
//! * **Drain under load** — in-flight jobs complete and stay pollable while
//!   new submissions answer 503, and the final [`DrainReport`] reconciles
//!   with what the clients observed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::DataFrame;
use linx_engine::faults::{self, arm_scoped, FaultKind, FaultPlan};
use linx_engine::http::{parse_request, MAX_REQUEST_LINE_BYTES};
use linx_engine::serve::{ServeConfig, Server};
use linx_engine::{EngineConfig, RouterConfig, TenantQuota};
use proptest::prelude::*;

fn netflix(rows: usize, seed: u64) -> DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed,
        },
    )
}

/// A serve config small enough that fresh explorations finish in well under a
/// second, bound to an ephemeral port.
fn tiny_serve_config(workers: usize) -> ServeConfig {
    let mut engine = EngineConfig::fast();
    engine.workers = workers;
    engine.cdrl.episodes = 30;
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        router: RouterConfig {
            shards: 1,
            engine,
            ..RouterConfig::fast()
        },
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig, rows: usize) -> Server {
    Server::start(config, vec![("netflix".to_string(), netflix(rows, 7))])
        .expect("bind ephemeral port")
}

/// Faults are process-global, so a socket test that pins exact statuses must
/// not overlap with a test that arms an error plan. Arming an *empty* plan
/// holds the same scope lock without injecting anything — the chaos-suite
/// idiom for serializing against fault windows.
fn exclude_faults() -> linx_engine::faults::ScopedPlan {
    arm_scoped(FaultPlan::new(0))
}

// --- a deliberately minimal HTTP client (so the server is tested, not reqwest) ---

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read exactly one response off the stream: head until `\r\n\r\n`, then
/// `Content-Length` body bytes. Every read is timeout-bounded by the socket's
/// read timeout, so a silent server fails the test instead of hanging it.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed before a full response head: {buf:?}"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read error waiting for response head: {e}"),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end - 4]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .expect("response must carry Content-Length");
    while buf.len() < head_end + content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed mid-body"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read error waiting for response body: {e}"),
        }
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).into_owned();
    buf.drain(..head_end + content_length);
    Response {
        status,
        headers,
        body,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// One request on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = connect(addr);
    let payload = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: linx\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(raw.as_bytes()).expect("write request");
    read_response(&mut stream, &mut Vec::new())
}

fn submit(addr: SocketAddr, body: &str) -> Response {
    http(addr, "POST", "/v1/explore", Some(body))
}

/// Extract `"job_id":N` from a 202 body without a JSON parser dependency.
fn job_id(accepted: &Response) -> u64 {
    assert_eq!(accepted.status, 202, "submit body: {}", accepted.body);
    let rest = accepted
        .body
        .split("\"job_id\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no job_id in {}", accepted.body));
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("job id digits")
}

/// Poll `/v1/jobs/{id}` until it leaves `pending`, bounded by `secs`.
fn poll_until_settled(addr: SocketAddr, id: u64, secs: u64) -> Response {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let resp = http(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(resp.status, 200, "poll body: {}", resp.body);
        if !resp.body.contains("\"status\":\"pending\"") {
            return resp;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} still pending after {secs}s — request hung"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Run `f` under a watchdog thread: the test fails if it does not finish in
/// `secs` — a hang is a test failure, not a CI timeout.
fn with_watchdog<T: Send + 'static>(
    secs: u64,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: did not finish within {secs}s — hang"))
}

// ---------------------------------------------------------------------------
// End-to-end round trip
// ---------------------------------------------------------------------------

#[test]
fn submit_poll_result_round_trip_with_cache_hit() {
    let _no_faults = exclude_faults();
    let server = start(tiny_serve_config(2), 200);
    let addr = server.addr();

    let accepted = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"Examine titles from India\"}",
    );
    let id = job_id(&accepted);

    let settled = poll_until_settled(addr, id, 60);
    assert!(
        settled.body.contains("\"status\":\"done\""),
        "{}",
        settled.body
    );
    assert!(settled.body.contains("\"served_from_cache\":false"));

    let result = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
    assert_eq!(result.status, 200, "{}", result.body);
    for fragment in [
        "\"ldx\":\"",
        "\"best_score\":",
        "\"notebook\":{\"title\":\"",
        "\"narrative\":{\"headline\":\"",
        "\"served_from_cache\":false",
    ] {
        assert!(
            result.body.contains(fragment),
            "missing {fragment} in {}",
            result.body
        );
    }

    // The identical goal now resolves synchronously from the result cache: the
    // 202 arrives already in the `done` state and the status confirms the hit.
    let again = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"Examine titles from India\"}",
    );
    let id2 = job_id(&again);
    assert!(again.body.contains("\"status\":\"done\""), "{}", again.body);
    let status2 = poll_until_settled(addr, id2, 10);
    assert!(
        status2.body.contains("\"served_from_cache\":true"),
        "{}",
        status2.body
    );

    // Fetching a result for a job that never existed is a typed 404.
    let missing = http(addr, "GET", "/v1/jobs/999999", None);
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"code\":\"unknown_job\""));

    let report = server.join();
    assert_eq!(report.completed, 1, "one fresh job, one cache hit");
}

#[test]
fn long_poll_waits_for_completion_in_one_request() {
    let _no_faults = exclude_faults();
    let server = start(tiny_serve_config(1), 200);
    let addr = server.addr();

    let accepted = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"long poll goal\"}",
    );
    let id = job_id(&accepted);

    // One request rides out the whole exploration server-side.
    let resp = http(addr, "GET", &format!("/v1/jobs/{id}?wait_ms=30000"), None);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"status\":\"done\""), "{}", resp.body);

    // Malformed or unknown query parameters are strict 400s.
    let resp = http(addr, "GET", &format!("/v1/jobs/{id}?wait_ms=soon"), None);
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("wait_ms must be"), "{}", resp.body);
    let resp = http(addr, "GET", &format!("/v1/jobs/{id}?verbose=1"), None);
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("unknown query parameter 'verbose'"),
        "{}",
        resp.body
    );

    // An unknown job answers 404 immediately — the wait never starts.
    let t0 = Instant::now();
    let resp = http(addr, "GET", "/v1/jobs/424242?wait_ms=30000", None);
    assert_eq!(resp.status, 404);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "404 must not long-poll"
    );

    server.join();
}

// ---------------------------------------------------------------------------
// Conformance goldens: the exact wire contract
// ---------------------------------------------------------------------------

#[test]
fn conformance_goldens_pin_status_headers_and_error_bodies() {
    let _no_faults = exclude_faults();
    // Quota 0 + shed-threshold 0 make every admission outcome deterministic:
    // deadline_ms=0 expires at the admit checkpoint (checked first), Low
    // priority is shed (checked before quota), Normal priority hits the
    // exhausted quota.
    let mut config = tiny_serve_config(2);
    config.router.engine.default_quota = TenantQuota::limited(0);
    config.router.engine.shed_queue_depth = Some(0);
    let server = start(config, 200);
    let addr = server.addr();

    // DeadlineExceeded → 504.
    let resp = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"goal a\",\"deadline_ms\":0}",
    );
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"deadline_exceeded\",\"message\":\"deadline exceeded (at stage admit)\"}}"
    );

    // Overloaded → 503 + Retry-After.
    let resp = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"goal b\",\"priority\":\"low\"}",
    );
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("Retry-After"), Some("1"));
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"overloaded\",\"message\":\"engine overloaded; low-priority request shed\"}}"
    );

    // QuotaExceeded → 429 + Retry-After.
    let resp = submit(addr, "{\"dataset\":\"netflix\",\"goal\":\"goal c\"}");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.header("Retry-After"), Some("1"));
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"quota_exceeded\",\"message\":\"tenant 'default' exceeded its admission quota\"}}"
    );

    // Unknown route → 404.
    let resp = http(addr, "GET", "/v1/nope", None);
    assert_eq!(resp.status, 404);
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"unknown_route\",\"message\":\"no route for '/v1/nope'; try POST /v1/explore, GET /v1/jobs/{id}[/result], /healthz, /metrics\"}}"
    );

    // Bad method → 405 + Allow.
    let resp = http(addr, "DELETE", "/v1/explore", None);
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("Allow"), Some("POST"));
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"method_not_allowed\",\"message\":\"method not allowed; use POST\"}}"
    );

    // Malformed JSON body → 400; unknown field → 400; unknown dataset → 404.
    let resp = submit(addr, "{not json");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("\"code\":\"bad_request\""),
        "{}",
        resp.body
    );
    let resp = submit(
        addr,
        "{\"dataset\":\"netflix\",\"goal\":\"g\",\"surprise\":1}",
    );
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("unknown field 'surprise'"),
        "{}",
        resp.body
    );
    let resp = submit(addr, "{\"dataset\":\"mystery\",\"goal\":\"g\"}");
    assert_eq!(resp.status, 404);
    assert_eq!(
        resp.body,
        "{\"error\":{\"code\":\"unknown_dataset\",\"message\":\"dataset 'mystery' is not registered (registered: netflix)\"}}"
    );

    let report = server.join();
    // Nothing above ever reached the worker pool.
    assert_eq!(report.completed, 0);
    assert_eq!(report.shed, 1);
    assert_eq!(report.throttled, 1);
    assert_eq!(report.deadline_expired, 1);
}

// ---------------------------------------------------------------------------
// Parser properties (no socket: the parser is pure)
// ---------------------------------------------------------------------------

/// A pool of valid requests the mutation strategies start from.
fn valid_requests() -> Vec<Vec<u8>> {
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: linx\r\n\r\n".to_vec(),
        b"GET /v1/jobs/12/result HTTP/1.1\r\nAccept: application/json\r\n\r\n".to_vec(),
        b"POST /v1/explore HTTP/1.1\r\nContent-Length: 33\r\nHost: linx\r\n\r\n{\"dataset\":\"netflix\",\"goal\":\"g\"}x".to_vec(),
        b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n".to_vec(),
    ]
}

proptest! {
    /// Mutating any bytes of a valid request never panics the parser: the
    /// outcome is always a parse, "need more", or a typed 400/431.
    #[test]
    fn parser_is_total_under_byte_mutations(
        base in proptest::sample::select(valid_requests()),
        mutations in proptest::collection::vec((0usize..256, 0u8..=255), 1..8),
    ) {
        let mut bytes = base;
        for (pos, byte) in mutations {
            let idx = pos % bytes.len();
            bytes[idx] = byte;
        }
        match parse_request(&bytes, ServeConfig::default().max_body_bytes) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.status() == 400 || e.status() == 431, "status {}", e.status()),
        }
    }

    /// Random byte soup — including truncations of valid requests — is equally
    /// harmless.
    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..320)) {
        match parse_request(&bytes, ServeConfig::default().max_body_bytes) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.status() == 400 || e.status() == 431, "status {}", e.status()),
        }
    }

    /// Every prefix of a valid request either asks for more bytes or parses;
    /// prefixes never produce an error (incremental reads are lossless).
    #[test]
    fn prefixes_of_valid_requests_never_error(
        base in proptest::sample::select(valid_requests()),
        cut in 0usize..64,
    ) {
        let cut = cut % (base.len() + 1);
        let result = parse_request(&base[..cut], ServeConfig::default().max_body_bytes);
        prop_assert!(result.is_ok(), "prefix of len {cut} errored: {result:?}");
    }
}

#[test]
fn chunked_and_oversized_bodies_are_rejected_at_documented_caps() {
    let max_body_bytes = ServeConfig::default().max_body_bytes;
    // Any Transfer-Encoding (chunked included) is a 400 — bodies must use
    // Content-Length under the cap.
    let err = parse_request(
        b"POST /v1/explore HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        max_body_bytes,
    )
    .unwrap_err();
    assert_eq!(err.status(), 400);
    assert!(err.message().contains("Content-Length"), "{}", err);

    // A declared body over `max_body_bytes` is rejected from the header alone,
    // before any body bytes are buffered.
    let head = format!(
        "POST /v1/explore HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        max_body_bytes + 1
    );
    let err = parse_request(head.as_bytes(), max_body_bytes).unwrap_err();
    assert_eq!(err.status(), 400);
    assert!(
        err.message().contains(&max_body_bytes.to_string()),
        "cap must be named: {err}"
    );

    // An unterminated request line over `MAX_REQUEST_LINE_BYTES` is a 431.
    let err = parse_request(&vec![b'a'; MAX_REQUEST_LINE_BYTES + 1], max_body_bytes).unwrap_err();
    assert_eq!(err.status(), 431);
}

// ---------------------------------------------------------------------------
// Socket-level robustness: split writes, pipelining, truncation
// ---------------------------------------------------------------------------

#[test]
fn split_header_writes_and_pipelined_requests_are_served() {
    let _no_faults = exclude_faults();
    let server = start(tiny_serve_config(2), 120);
    let addr = server.addr();

    // One request dribbled in three writes across packet boundaries.
    let mut stream = connect(addr);
    for part in [
        "GET /heal".as_bytes(),
        "thz HTTP/1.1\r\nHo".as_bytes(),
        "st: linx\r\n\r\n".as_bytes(),
    ] {
        stream.write_all(part).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut buf = Vec::new();
    let resp = read_response(&mut stream, &mut buf);
    assert_eq!(resp.status, 200);

    // Three pipelined requests in a single write, answered in order on the
    // same keep-alive connection.
    let mut stream = connect(addr);
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\nGET /v1/jobs/7 HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let mut buf = Vec::new();
    let first = read_response(&mut stream, &mut buf);
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""));
    let second = read_response(&mut stream, &mut buf);
    assert_eq!(second.status, 200);
    assert!(second
        .body
        .contains("# TYPE linx_requests_submitted_total counter"));
    let third = read_response(&mut stream, &mut buf);
    assert_eq!(third.status, 404, "job 7 was never submitted");

    server.join();
}

#[test]
fn oversized_lines_get_431_and_truncated_bodies_get_400() {
    let _no_faults = exclude_faults();
    let server = start(tiny_serve_config(2), 120);
    let addr = server.addr();

    // An endless request line breaches the 8 KiB cap mid-stream: 431, close.
    let mut stream = connect(addr);
    stream.write_all(&vec![b'a'; 10 * 1024]).unwrap();
    let resp = read_response(&mut stream, &mut Vec::new());
    assert_eq!(resp.status, 431);
    assert!(
        resp.body.contains("\"code\":\"headers_too_large\""),
        "{}",
        resp.body
    );
    assert_eq!(resp.header("Connection"), Some("close"));

    // A body cut off mid-flight (client closes its write half) is a typed 400.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /v1/explore HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"data")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = read_response(&mut stream, &mut Vec::new());
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("closed before the request was complete"),
        "{}",
        resp.body
    );

    server.join();
}

// ---------------------------------------------------------------------------
// Slow and hostile clients: the connection cap and the request read deadline
// ---------------------------------------------------------------------------

/// Exact-name sample lookup in a Prometheus exposition body.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample named {name} in exposition"))
}

#[test]
fn connection_cap_rejects_overflow_with_503_and_recovers_on_close() {
    let _no_faults = exclude_faults();
    let mut config = tiny_serve_config(1);
    config.max_connections = 2;
    let server = start(config, 120);
    let addr = server.addr();

    // Two keep-alive connections occupy the whole cap...
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = connect(addr);
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: linx\r\n\r\n")
                .unwrap();
            let resp = read_response(&mut stream, &mut Vec::new());
            assert_eq!(resp.status, 200);
            stream
        })
        .collect();

    // ...so a third is refused the moment it connects — a typed 503 with
    // Retry-After arrives before the client has sent a single byte.
    let mut stream = connect(addr);
    let resp = read_response(&mut stream, &mut Vec::new());
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("Retry-After"), Some("1"));
    assert!(
        resp.body.contains("\"code\":\"overloaded\""),
        "{}",
        resp.body
    );
    assert_eq!(resp.header("Connection"), Some("close"));
    drop(stream);

    // Closing the held connections frees the cap: a scraper gets back in,
    // the rejection was counted, and the gauge is back down to the scraper
    // itself. (Early scrapes may still catch the cap or the draining gauge,
    // so poll.)
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = http(addr, "GET", "/metrics", None);
        if resp.status == 200 && sample(&resp.body, "linx_http_connections_now") <= 1.0 {
            assert!(
                sample(&resp.body, "linx_http_conn_rejected_total") >= 1.0,
                "the refused connection must be counted"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cap never released after the held connections closed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.join();
}

#[test]
fn slowloris_dribble_is_closed_with_408_at_the_read_deadline() {
    let _no_faults = exclude_faults();
    let mut config = tiny_serve_config(1);
    config.request_read_timeout_millis = 600;
    let server = start(config, 120);
    let addr = server.addr();

    // Dribble a request header one byte at a time, far slower than any honest
    // client — the cumulative deadline must cut the connection off with a 408
    // even though every individual read keeps "making progress".
    let mut stream = connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let partial = b"GET /healthz HTTP/1.1\r\nHost: li";
    let t0 = Instant::now();
    let mut sent = 0;
    let mut buf = Vec::new();
    loop {
        if sent < partial.len() {
            // EPIPE after the server closes is the expected end of the dribble.
            if stream.write_all(&partial[sent..sent + 1]).is_err() {
                break;
            }
            sent += 1;
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {}
        }
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slowloris connection was never cut off"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let resp = read_response(&mut stream, &mut buf);
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"request_timeout\""),
        "{}",
        resp.body
    );
    assert_eq!(resp.header("Connection"), Some("close"));
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(500),
        "408 before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "408 took far longer than deadline + one poll tick: {elapsed:?}"
    );

    // The defense is observable: the close was counted for operators.
    let metrics = http(addr, "GET", "/metrics", None);
    assert!(
        sample(&metrics.body, "linx_http_slow_client_closes_total") >= 1.0,
        "slow-client close must be counted"
    );
    server.join();
}

// ---------------------------------------------------------------------------
// Soak: concurrent clients against a fault-armed server
// ---------------------------------------------------------------------------

#[test]
fn soak_fault_armed_server_stays_typed_and_leaks_nothing() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 8;

    let server = start(tiny_serve_config(2), 150);
    let addr = server.addr();

    // Delay-only faults: deterministic (seeded), disruptive to timing, but
    // every response stays well-typed. Error/panic kinds are pinned separately
    // below so this soak can assert exact status sets. The guard stays alive
    // through the final metrics fetch so no other test can arm an error plan
    // mid-soak.
    let scoped = arm_scoped(
        FaultPlan::parse("seed=901;http.accept=delay:20000@40;pool.execute=delay:15000@30")
            .unwrap(),
    );

    let observed = with_watchdog(120, "soak", move || {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut statuses = Vec::new();
                    for i in 0..REQUESTS {
                        let resp = match (t + i) % 4 {
                            0 => submit(
                                addr,
                                &format!(
                                    "{{\"dataset\":\"netflix\",\"goal\":\"soak goal {t}-{i}\",\"max_episodes\":5}}"
                                ),
                            ),
                            1 => submit(
                                addr,
                                "{\"dataset\":\"netflix\",\"goal\":\"soak shared goal\",\"max_episodes\":5}",
                            ),
                            2 => http(addr, "GET", "/healthz", None),
                            _ => http(addr, "GET", "/v1/jobs/1", None),
                        };
                        assert!(
                            matches!(resp.status, 200 | 202 | 404 | 429 | 503 | 504),
                            "untyped response {} body {}",
                            resp.status,
                            resp.body
                        );
                        statuses.push(resp.status);
                    }
                    statuses
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<u16>>()
    });
    assert_eq!(observed.len(), CLIENTS * REQUESTS, "every request answered");
    let fired = scoped.plan().fired("http.accept") + scoped.plan().fired("pool.execute");
    assert!(
        fired > 0,
        "the fault plan never fired — soak exercised nothing"
    );

    // No connection leaks: every one-shot client closed, so only the /metrics
    // connection itself can still be open when the gauge is rendered.
    let metrics = http(addr, "GET", "/metrics", None);
    let connections_now: u64 = metrics
        .body
        .lines()
        .find(|l| l.starts_with("linx_http_connections_now "))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .expect("connections_now sample");
    assert!(
        connections_now <= 1,
        "leaked connections: {connections_now}"
    );
    let connections_total: u64 = metrics
        .body
        .lines()
        .find(|l| l.starts_with("linx_http_connections_total "))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .expect("connections_total sample");
    assert!(connections_total >= (CLIENTS * REQUESTS) as u64);

    let report = server.join();
    assert!(report.completed >= 1, "some fresh soak jobs completed");
    drop(scoped);
}

#[test]
fn http_accept_error_fault_answers_a_typed_503() {
    // Hold the scope lock for the whole test (so no other plan can slip in
    // between the armed and disarmed halves), arming/disarming the real plan
    // manually inside it.
    let _serialize = exclude_faults();
    let server = start(tiny_serve_config(1), 120);
    let addr = server.addr();

    faults::arm(Arc::new(
        FaultPlan::new(7).always("http.accept", FaultKind::Error),
    ));
    let resp = http(addr, "GET", "/healthz", None);
    faults::disarm();
    assert_eq!(resp.status, 503);
    assert!(
        resp.body.contains("\"code\":\"overloaded\""),
        "{}",
        resp.body
    );
    assert_eq!(resp.header("Retry-After"), Some("1"));

    // Disarmed: the same request serves normally again.
    let resp = http(addr, "GET", "/healthz", None);
    assert_eq!(resp.status, 200);
    server.join();
}

// ---------------------------------------------------------------------------
// Drain under load
// ---------------------------------------------------------------------------

#[test]
fn drain_completes_in_flight_jobs_while_rejecting_new_ones() {
    let _no_faults = exclude_faults();
    const IN_FLIGHT: usize = 3;

    // One worker serializes the jobs so some are still queued when the drain
    // begins.
    let server = start(tiny_serve_config(1), 250);
    let addr = server.addr();

    let ids: Vec<u64> = (0..IN_FLIGHT)
        .map(|i| {
            let resp = submit(
                addr,
                &format!("{{\"dataset\":\"netflix\",\"goal\":\"drain goal {i}\"}}"),
            );
            job_id(&resp)
        })
        .collect();

    server.shutdown();

    // New submissions are refused with the typed shutdown error...
    let refused = submit(addr, "{\"dataset\":\"netflix\",\"goal\":\"too late\"}");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(
        refused.body,
        "{\"error\":{\"code\":\"shutting_down\",\"message\":\"server is draining; new submissions are not accepted\"}}"
    );
    assert_eq!(refused.header("Retry-After"), Some("1"));

    // ...health reports the drain...
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 503);
    assert_eq!(health.body, "{\"status\":\"draining\"}");

    // ...while the in-flight jobs stay pollable and all complete.
    let mut ok_results = 0;
    for id in &ids {
        let settled = poll_until_settled(addr, *id, 120);
        assert!(
            settled.body.contains("\"status\":\"done\""),
            "{}",
            settled.body
        );
        let result = http(addr, "GET", &format!("/v1/jobs/{id}/result"), None);
        assert_eq!(result.status, 200, "{}", result.body);
        ok_results += 1;
    }

    // The drain report reconciles with what the clients observed: every
    // accepted job completed, nothing was shed or throttled, and the refused
    // submission never reached the router.
    let report = with_watchdog(60, "drain join", move || server.join());
    assert_eq!(report.completed, IN_FLIGHT as u64);
    assert_eq!(ok_results, IN_FLIGHT);
    assert_eq!(report.shed, 0);
    assert_eq!(report.throttled, 0);
    assert_eq!(report.deadline_expired, 0);
}

// ---------------------------------------------------------------------------
// Metrics over the wire
// ---------------------------------------------------------------------------

/// The engine's 38-family golden set (pinned independently in
/// `tests/telemetry.rs`) plus the seven HTTP families the daemon appends. If
/// either side drifts, this wire-level check and the in-process golden test
/// disagree and point straight at the exposition seam.
const WIRE_FAMILIES: [&str; 45] = [
    "linx_requests_submitted_total counter",
    "linx_requests_coalesced_total counter",
    "linx_routed_total counter",
    "linx_cache_hits_total counter",
    "linx_cache_misses_total counter",
    "linx_cache_evictions_total counter",
    "linx_cache_entries gauge",
    "linx_tier_load_errors_total counter",
    "linx_tier_stores_total counter",
    "linx_tier_bytes gauge",
    "linx_pool_workers gauge",
    "linx_pool_completed_total counter",
    "linx_pool_panicked_total counter",
    "linx_pool_queued_now gauge",
    "linx_pool_in_flight_now gauge",
    "linx_quota_admitted_total counter",
    "linx_quota_throttled_total counter",
    "linx_quota_queued gauge",
    "linx_quota_running gauge",
    "linx_quota_tenants gauge",
    "linx_deadline_expired_total counter",
    "linx_shed_total counter",
    "linx_disk_unlink_errors_total counter",
    "linx_disk_retries_total counter",
    "linx_breaker_state gauge",
    "linx_breaker_trips_total counter",
    "linx_scrub_scanned_total counter",
    "linx_scrub_quarantined_total counter",
    "linx_route_micros histogram",
    "linx_admit_micros histogram",
    "linx_cache_lookup_micros histogram",
    "linx_queue_wait_micros histogram",
    "linx_execute_micros histogram",
    "linx_disk_read_micros histogram",
    "linx_disk_write_micros histogram",
    "linx_disk_sync_micros histogram",
    "linx_disk_evict_micros histogram",
    "linx_request_total_micros histogram",
    "linx_http_connections_total counter",
    "linx_http_connections_now gauge",
    "linx_http_responses_total counter",
    "linx_http_parse_errors_total counter",
    "linx_http_conn_rejected_total counter",
    "linx_http_slow_client_closes_total counter",
    "linx_http_request_micros histogram",
];

#[test]
fn metrics_over_the_wire_match_the_golden_family_set() {
    let _no_faults = exclude_faults();
    let server = start(tiny_serve_config(1), 120);
    let addr = server.addr();

    let resp = http(addr, "GET", "/metrics", None);
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("Content-Type")
        .is_some_and(|ct| ct.starts_with("text/plain")));

    let families: Vec<String> = resp
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|s| s.to_string())
        .collect();
    let golden: Vec<String> = WIRE_FAMILIES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        families, golden,
        "exposition drift between render_metrics() and the HTTP path"
    );

    // The server is idle: every engine family is zero-valued over the wire,
    // and the only nonzero HTTP samples are this very connection.
    for line in resp.body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample: {line}"));
        if name.starts_with("linx_http_connections") {
            assert_eq!(value, 1.0, "this connection itself: {line}");
        } else if name.starts_with("linx_pool_workers")
            || name.starts_with("linx_breaker_state")
            || name.starts_with("linx_route_micros")
        {
            // Worker gauges and the closed-breaker state are legitimately
            // nonzero on an idle server, and startup routes each registered
            // dataset once to pin its shard, so route_micros holds one sample.
        } else {
            assert_eq!(value, 0.0, "idle server must expose zeros: {line}");
        }
    }

    server.join();
}
