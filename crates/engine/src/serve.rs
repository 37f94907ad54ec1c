//! `linx serve` — a long-running HTTP/1.1 daemon over the [`Router`].
//!
//! This module owns the listener, the accept loop, per-connection threads, the
//! job table, and the dispatch from parsed [`HttpRequest`]s (see
//! [`crate::http`]) onto the router seam. It is deliberately std-only: a
//! nonblocking [`TcpListener`] plus one thread per connection, with short read
//! timeouts so every thread observes the shutdown flags promptly.
//!
//! ## Endpoints
//!
//! | method | path                  | purpose                                      |
//! |--------|-----------------------|----------------------------------------------|
//! | POST   | `/v1/explore`         | submit a goal; returns a job id (202)        |
//! | GET    | `/v1/jobs/{id}`       | poll job status; `?wait_ms=N` long-polls (capped at 30 000) |
//! | GET    | `/v1/jobs/{id}/result`| fetch the finished result (409 while pending)|
//! | GET    | `/healthz`            | liveness + drain state                       |
//! | GET    | `/metrics`            | [`crate::router::RouterStats::render_metrics`] + HTTP families |
//!
//! ## Error mapping (the wire contract)
//!
//! | condition                     | status | JSON `error.code`   | extra header    |
//! |-------------------------------|--------|---------------------|-----------------|
//! | [`JobError::QuotaExceeded`]   | 429    | `quota_exceeded`    | `Retry-After`   |
//! | [`JobError::Overloaded`]      | 503    | `overloaded`        | `Retry-After`   |
//! | submit while draining         | 503    | `shutting_down`     | `Retry-After`   |
//! | [`JobError::DeadlineExceeded`]| 504    | `deadline_exceeded` |                 |
//! | [`JobError::Panicked`]        | 500    | `job_panicked`      |                 |
//! | [`JobError::WorkerLost`]      | 500    | `worker_lost`       |                 |
//! | malformed HTTP or JSON        | 400    | `bad_request`       |                 |
//! | request read deadline exceeded| 408    | `request_timeout`   |                 |
//! | connection cap exceeded       | 503    | `overloaded`        | `Retry-After`   |
//! | oversized request line/headers| 431    | `headers_too_large` |                 |
//! | unknown path                  | 404    | `unknown_route`     |                 |
//! | known path, wrong method      | 405    | `method_not_allowed`| `Allow`         |
//! | unknown dataset               | 404    | `unknown_dataset`   |                 |
//! | unknown job id                | 404    | `unknown_job`       |                 |
//! | result fetched while running  | 409    | `pending`           |                 |
//!
//! ## Drain sequence
//!
//! [`Server::shutdown`] flips the draining flag: new `POST /v1/explore`
//! requests get 503 `shutting_down`, while polls, result fetches, `/metrics`,
//! and already-admitted jobs keep working. [`Server::join`] then waits for the
//! worker pools to go idle, stops the accept loop, joins every connection
//! thread, and finally calls [`Router::drain`], returning the [`DrainReport`]
//! so the caller can print the final accounting line.
//!
//! The `http.accept` failpoint (see [`crate::faults`]) runs at the top of each
//! connection: `err` answers 503 and closes (responses stay typed), `delay`
//! stalls the handler, `panic` kills only that connection's thread.
//!
//! ## Slow and hostile clients
//!
//! Three defenses keep a broken or adversarial peer from pinning resources:
//!
//! * **connection cap** ([`ServeConfig::max_connections`]) — a connection over
//!   the cap is answered 503 + `Retry-After` and closed immediately, counted in
//!   `linx_http_conn_rejected_total`;
//! * **cumulative request deadline** ([`ServeConfig::request_read_timeout_millis`])
//!   — the clock starts at the first byte of a request and is *not* reset by
//!   further bytes, so a slowloris dribbling one byte per tick is closed with
//!   408 once the deadline passes (the per-tick idle counter only covers
//!   connections with no request in progress);
//! * **write timeout** (10 s) — a peer that stops reading its response blocks
//!   the thread only until the socket write times out, then the connection is
//!   dropped.
//!
//! The latter two closes are counted in `linx_http_slow_client_closes_total`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use linx_dataframe::DataFrame;
use linx_metrics::{Counter, Gauge, LatencyHistogram};

use crate::api::{Budget, ExploreRequest, ExploreResponse, JobError, Priority};
use crate::engine::JobHandle;
use crate::faults::{self, FaultKind};
use crate::http::{json_escape, parse_request, HttpParseError, HttpRequest, HttpResponse};
use crate::router::{DrainReport, RoutedContext, Router, RouterConfig, RouterStats};
use crate::telemetry::{render_text, Family};

/// Socket read timeout. This is the tick at which idle connection threads
/// re-check the shutdown flags, so it bounds drain latency.
const READ_TICK_MILLIS: u64 = 100;
/// Close a keep-alive connection after this many idle ticks (30 s) with no
/// request in progress.
const MAX_IDLE_TICKS: u32 = 300;
/// Upper bound on how long [`Server::join`] waits for the worker pools to go
/// idle before forcing the stop (drained jobs still complete inside
/// [`Router::drain`]).
const DRAIN_WAIT_CAP_MILLIS: u64 = 60_000;
/// Completed/failed jobs retained for polling before the oldest are evicted
/// from the job table.
const MAX_JOBS_RETAINED: usize = 4096;
/// Socket write timeout: a peer that stops reading its response can pin the
/// connection thread at most this long per write.
const WRITE_TIMEOUT_MILLIS: u64 = 10_000;

/// How the daemon binds, parses, and admits connections.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 picks an ephemeral port
    /// (the bound address is reported by [`Server::addr`]).
    pub addr: String,
    /// The router under the HTTP front-end.
    pub router: RouterConfig,
    /// Body cap in bytes: a request declaring a larger `Content-Length` is
    /// answered 400 and closed. The head's caps are fixed; see [`crate::http`].
    pub max_body_bytes: usize,
    /// Open-connection cap; a connection accepted over the cap is answered
    /// 503 + `Retry-After` and closed immediately. `0` disables the cap.
    pub max_connections: usize,
    /// Cumulative deadline for reading one request (headers + body), in
    /// milliseconds. Unlike the idle-tick counter, trickling bytes does *not*
    /// reset it: a slowloris connection is closed with 408 once it expires.
    /// `0` disables the deadline.
    pub request_read_timeout_millis: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            router: RouterConfig::fast(),
            max_body_bytes: 1024 * 1024,
            max_connections: 1024,
            request_read_timeout_millis: 10_000,
        }
    }
}

/// HTTP-layer instruments. Their families follow the router's in the
/// `/metrics` body, rendered by the same exposition code.
struct HttpMetrics {
    connections_total: Counter,
    connections_now: Gauge,
    responses_2xx: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    parse_errors_total: Counter,
    conn_rejected_total: Counter,
    slow_client_closes_total: Counter,
    request_micros: LatencyHistogram,
}

impl HttpMetrics {
    fn new() -> Self {
        HttpMetrics {
            connections_total: Counter::new(),
            connections_now: Gauge::new(),
            responses_2xx: Counter::new(),
            responses_4xx: Counter::new(),
            responses_5xx: Counter::new(),
            parse_errors_total: Counter::new(),
            conn_rejected_total: Counter::new(),
            slow_client_closes_total: Counter::new(),
            request_micros: LatencyHistogram::new(),
        }
    }

    fn record_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    /// The seven `linx_http_*` families, always present (zero-valued when idle).
    fn families(&self) -> Vec<Family> {
        vec![
            Family::counter(
                "linx_http_connections_total",
                "TCP connections accepted by linx serve.",
            )
            .one(self.connections_total.get()),
            Family::gauge(
                "linx_http_connections_now",
                "TCP connections currently open.",
            )
            .one(self.connections_now.get()),
            Family::counter(
                "linx_http_responses_total",
                "HTTP responses written, by status class.",
            )
            .by(
                "class",
                [
                    ("2xx", self.responses_2xx.get()),
                    ("4xx", self.responses_4xx.get()),
                    ("5xx", self.responses_5xx.get()),
                ],
            ),
            Family::counter(
                "linx_http_parse_errors_total",
                "Requests rejected by the HTTP parser (400/431).",
            )
            .one(self.parse_errors_total.get()),
            Family::counter(
                "linx_http_conn_rejected_total",
                "Connections refused with 503 by the --max-connections cap.",
            )
            .one(self.conn_rejected_total.get()),
            Family::counter(
                "linx_http_slow_client_closes_total",
                "Connections closed for exceeding the request read deadline (408) or a write timeout.",
            )
            .one(self.slow_client_closes_total.get()),
            Family::histogram(
                "linx_http_request_micros",
                "Wall-clock time from request parse to response write.",
            )
            .one(self.request_micros.snapshot()),
        ]
    }
}

/// One submitted job, tracked for polling.
enum JobState {
    Running(JobHandle),
    Done(ExploreResponse),
}

struct JobEntry {
    dataset_id: String,
    goal: String,
    state: JobState,
}

#[derive(Default)]
struct JobTable {
    entries: HashMap<u64, JobEntry>,
    order: Vec<u64>,
}

struct Inner {
    router: Router,
    contexts: HashMap<String, RoutedContext>,
    jobs: Mutex<JobTable>,
    next_job: AtomicU64,
    draining: AtomicBool,
    stopping: AtomicBool,
    max_body_bytes: usize,
    max_connections: usize,
    request_read_timeout_millis: u64,
    http: HttpMetrics,
    started: Instant,
}

/// A running `linx serve` daemon: listener bound, accept loop live.
///
/// ```no_run
/// use linx_engine::serve::{ServeConfig, Server};
/// use linx_data::{generate, DatasetKind, ScaleConfig};
///
/// let dataset = generate(DatasetKind::Netflix, ScaleConfig { rows: Some(300), seed: 7 });
/// let mut config = ServeConfig::default();
/// config.addr = "127.0.0.1:0".to_string();
/// let server = Server::start(config, vec![("netflix".to_string(), dataset)]).unwrap();
/// println!("listening on {}", server.addr());
/// server.shutdown();
/// let report = server.join();
/// println!("completed {}", report.completed);
/// ```
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr`, build the router, register `datasets`, and start
    /// the accept loop. Each dataset is routed once up front; requests then
    /// reference it by id.
    pub fn start(
        config: ServeConfig,
        datasets: Vec<(String, DataFrame)>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let router = Router::new(config.router.clone());
        let mut contexts = HashMap::new();
        for (id, frame) in &datasets {
            contexts.insert(id.clone(), router.dataset_context(frame, id));
        }
        let inner = Arc::new(Inner {
            router,
            contexts,
            jobs: Mutex::new(JobTable::default()),
            next_job: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            max_body_bytes: config.max_body_bytes,
            max_connections: config.max_connections,
            request_read_timeout_millis: config.request_read_timeout_millis,
            http: HttpMetrics::new(),
            started: Instant::now(),
        });

        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("linx-serve-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))
            .expect("spawn accept thread");

        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound socket address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin draining: new submissions answer 503 `shutting_down`; polls,
    /// results, health, and metrics keep working; admitted jobs keep running.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Complete the drain: wait (bounded by a minute) for the
    /// worker pools to go idle, stop accepting, join every connection thread,
    /// and drain the router. Implies [`Server::shutdown`].
    pub fn join(mut self) -> DrainReport {
        self.shutdown();

        // With `draining` set no new work can reach the pools, so "pools idle"
        // is a stable condition, not a race.
        let cap = Duration::from_millis(DRAIN_WAIT_CAP_MILLIS);
        let start = Instant::now();
        loop {
            let stats = self.inner.router.stats().aggregate();
            let busy: u64 = stats.pool.queued_now.iter().sum::<u64>()
                + stats.pool.in_flight_now.iter().sum::<u64>();
            if busy == 0 || start.elapsed() > cap {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }

        self.inner.stopping.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }

        // The accept loop has joined every connection thread, so ours should
        // be the last strong reference; spin briefly in case a thread is
        // still dropping its clone.
        let mut arc = self.inner;
        let inner = loop {
            match Arc::try_unwrap(arc) {
                Ok(inner) => break inner,
                Err(shared) => {
                    arc = shared;
                    thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let Inner { router, jobs, .. } = inner;
        // Job-table receivers must drop before drain joins the workers only if
        // workers blocked on send — they never do (sends are fire-and-forget) —
        // but dropping first keeps the shutdown order obvious.
        drop(jobs);
        router.drain()
    }

    /// Render the `drained:` accounting line for a [`DrainReport`], shared by
    /// the CLI and the smoke scripts that grep for it.
    pub fn drain_line(report: &DrainReport) -> String {
        format!(
            "drained: {} completed, {} shed, {} expired, {} throttled, {} tenant entries swept",
            report.completed,
            report.shed,
            report.deadline_expired,
            report.throttled,
            report.quota_swept
        )
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        if inner.stopping.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(&inner);
                let handle = thread::Builder::new()
                    .name("linx-serve-conn".to_string())
                    .spawn(move || handle_connection(conn_inner, stream))
                    .expect("spawn connection thread");
                conns.push(handle);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
        if conns.len() > 32 {
            conns.retain(|h| !h.is_finished());
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Decrements the open-connection gauge even when the handler panics
/// (the `http.accept` `panic` fault unwinds through here).
struct ConnGuard<'a>(&'a Gauge);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

fn handle_connection(inner: Arc<Inner>, mut stream: TcpStream) {
    inner.http.connections_total.inc();
    inner.http.connections_now.inc();
    let _guard = ConnGuard(&inner.http.connections_now);

    // Over the connection cap: answer a typed 503 and close immediately, so a
    // connection flood degrades to fast rejections instead of thread pileup.
    // (The gauge already counts this connection, hence the strict `>`.)
    if inner.max_connections > 0 && inner.http.connections_now.get() > inner.max_connections as u64
    {
        inner.http.conn_rejected_total.inc();
        let resp = HttpResponse::error(
            503,
            "overloaded",
            &format!(
                "connection limit reached ({} open); retry shortly",
                inner.max_connections
            ),
        )
        .with_header("Retry-After", "1");
        write_response(&stream, &inner, &resp, true);
        return;
    }

    match faults::check("http.accept") {
        Some(FaultKind::Delay(us)) => thread::sleep(Duration::from_micros(us)),
        Some(FaultKind::Error) => {
            let resp = HttpResponse::error(
                503,
                "overloaded",
                "connection refused by fault injection (http.accept)",
            )
            .with_header("Retry-After", "1");
            write_response(&stream, &inner, &resp, true);
            return;
        }
        Some(FaultKind::Panic) => {
            panic!("fault injected at http.accept: panic");
        }
        None => {}
    }

    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TICK_MILLIS)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(WRITE_TIMEOUT_MILLIS)));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let mut idle_ticks: u32 = 0;
    // Cumulative deadline for the request currently being read. Armed when
    // bytes of an incomplete request are buffered, cleared when a request
    // completes — and deliberately *not* reset by further reads, so trickled
    // bytes cannot keep a connection alive forever (the slowloris hole the
    // per-byte `idle_ticks` reset would otherwise leave open).
    let mut request_deadline: Option<Instant> = None;
    loop {
        // Serve every complete (possibly pipelined) request already buffered.
        loop {
            match parse_request(&buf, inner.max_body_bytes) {
                Ok(Some((request, consumed))) => {
                    buf.drain(..consumed);
                    idle_ticks = 0;
                    request_deadline = None;
                    let started = Instant::now();
                    let response = dispatch(&inner, &request);
                    let close = request.wants_close() || inner.stopping.load(Ordering::SeqCst);
                    inner
                        .http
                        .request_micros
                        .record(started.elapsed().as_micros() as u64);
                    if !write_response(&stream, &inner, &response, close) || close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    inner.http.parse_errors_total.inc();
                    let resp = parse_error_response(&err);
                    write_response(&stream, &inner, &resp, true);
                    return;
                }
            }
        }
        if buf.is_empty() {
            request_deadline = None;
        } else if request_deadline.is_none() && inner.request_read_timeout_millis > 0 {
            request_deadline =
                Some(Instant::now() + Duration::from_millis(inner.request_read_timeout_millis));
        }
        if request_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            inner.http.slow_client_closes_total.inc();
            let resp = HttpResponse::error(
                408,
                "request_timeout",
                "request was not received in full within the read deadline",
            );
            write_response(&stream, &inner, &resp, true);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Peer closed its write half. Bytes left over are a request
                // that can never complete: answer 400 best-effort.
                if !buf.is_empty() {
                    inner.http.parse_errors_total.inc();
                    let resp = HttpResponse::error(
                        400,
                        "bad_request",
                        "connection closed before the request was complete",
                    );
                    write_response(&stream, &inner, &resp, true);
                }
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle_ticks = 0;
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
                idle_ticks += 1;
                if idle_ticks >= MAX_IDLE_TICKS {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Write `response`, recording its status class. Returns false on I/O failure
/// (peer gone, or a stalled reader tripping the write timeout) so the caller
/// closes the connection.
fn write_response(
    mut stream: &TcpStream,
    inner: &Inner,
    response: &HttpResponse,
    close: bool,
) -> bool {
    inner.http.record_status(response.status);
    match stream
        .write_all(&response.encode(close))
        .and_then(|()| stream.flush())
    {
        Ok(()) => true,
        Err(e) => {
            // A timed-out write means the peer stopped reading: a slow client,
            // not a vanished one.
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                inner.http.slow_client_closes_total.inc();
            }
            false
        }
    }
}

fn parse_error_response(err: &HttpParseError) -> HttpResponse {
    HttpResponse::error(err.status(), err.code(), err.message())
}

// --- dispatch ---------------------------------------------------------------------

fn dispatch(inner: &Inner, request: &HttpRequest) -> HttpResponse {
    let path = request.path();
    match path {
        "/v1/explore" => match request.method.as_str() {
            "POST" => post_explore(inner, request),
            _ => method_not_allowed("POST"),
        },
        "/healthz" => match request.method.as_str() {
            "GET" => healthz(inner),
            _ => method_not_allowed("GET"),
        },
        "/metrics" => match request.method.as_str() {
            "GET" => metrics(inner),
            _ => method_not_allowed("GET"),
        },
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if request.method != "GET" {
                    return method_not_allowed("GET");
                }
                let (id_str, tail) = match rest.split_once('/') {
                    Some((id, tail)) => (id, Some(tail)),
                    None => (rest, None),
                };
                let id: u64 = match id_str.parse() {
                    Ok(id) => id,
                    Err(_) => {
                        return HttpResponse::error(
                            400,
                            "bad_request",
                            "job id must be a decimal integer",
                        )
                    }
                };
                return match tail {
                    None => match parse_wait_ms(request.query()) {
                        Ok(wait_millis) => job_status(inner, id, wait_millis),
                        Err(msg) => HttpResponse::error(400, "bad_request", &msg),
                    },
                    Some("result") => job_result(inner, id),
                    Some(_) => unknown_route(path),
                };
            }
            unknown_route(path)
        }
    }
}

fn unknown_route(path: &str) -> HttpResponse {
    HttpResponse::error(
        404,
        "unknown_route",
        &format!(
            "no route for '{}'; try POST /v1/explore, GET /v1/jobs/{{id}}[/result], /healthz, /metrics",
            path
        ),
    )
}

fn method_not_allowed(allow: &str) -> HttpResponse {
    HttpResponse::error(
        405,
        "method_not_allowed",
        &format!("method not allowed; use {}", allow),
    )
    .with_header("Allow", allow)
}

/// Map a [`JobError`] onto the wire contract: status, code, `Retry-After`.
fn job_error_response(error: &JobError) -> HttpResponse {
    let (status, code) = match error {
        JobError::QuotaExceeded(_) => (429, "quota_exceeded"),
        JobError::Overloaded => (503, "overloaded"),
        JobError::DeadlineExceeded(_) => (504, "deadline_exceeded"),
        JobError::Panicked(_) => (500, "job_panicked"),
        JobError::WorkerLost => (500, "worker_lost"),
    };
    let resp = HttpResponse::error(status, code, &error.to_string());
    if status == 429 || status == 503 {
        resp.with_header("Retry-After", "1")
    } else {
        resp
    }
}

fn post_explore(inner: &Inner, request: &HttpRequest) -> HttpResponse {
    if inner.draining.load(Ordering::SeqCst) {
        return HttpResponse::error(
            503,
            "shutting_down",
            "server is draining; new submissions are not accepted",
        )
        .with_header("Retry-After", "1");
    }

    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            return HttpResponse::error(400, "bad_request", "request body is not valid UTF-8")
        }
    };
    let parsed = match parse_explore_body(body) {
        Ok(p) => p,
        Err(msg) => return HttpResponse::error(400, "bad_request", &msg),
    };

    let routed = match inner.contexts.get(&parsed.dataset) {
        Some(ctx) => ctx,
        None => {
            let mut known: Vec<&str> = inner.contexts.keys().map(|k| k.as_str()).collect();
            known.sort_unstable();
            return HttpResponse::error(
                404,
                "unknown_dataset",
                &format!(
                    "dataset '{}' is not registered (registered: {})",
                    parsed.dataset,
                    known.join(", ")
                ),
            );
        }
    };

    let mut explore = ExploreRequest::new(parsed.dataset.clone(), parsed.goal.clone());
    if let Some(priority) = parsed.priority {
        explore = explore.with_priority(priority);
    }
    if let Some(tenant) = &parsed.tenant {
        explore = explore.with_tenant(tenant.as_str());
    }
    if parsed.max_episodes.is_some() || parsed.max_sample_rows.is_some() {
        explore = explore.with_budget(Budget {
            max_episodes: parsed.max_episodes,
            max_sample_rows: parsed.max_sample_rows,
        });
    }
    if let Some(deadline_ms) = parsed.deadline_ms {
        let now = inner
            .router
            .engine(routed.shard)
            .config()
            .clock
            .now_micros();
        explore = explore.with_deadline_micros(now.saturating_add(deadline_ms * 1000));
    }

    let handle = inner.router.submit(routed, explore);

    // Outcomes that resolve inside submit (cache hits, quota refusals, shed,
    // admission-deadline expiry, placement faults) are visible immediately:
    // map errors straight onto a status instead of making the client poll
    // into a failure.
    if let Some(response) = handle.try_wait() {
        if let Err(error) = &response.outcome {
            return job_error_response(error);
        }
        let id = store_job(inner, &parsed, JobState::Done(response));
        return accepted(id, "done");
    }
    let id = store_job(inner, &parsed, JobState::Running(handle));
    accepted(id, "pending")
}

fn accepted(id: u64, status: &str) -> HttpResponse {
    HttpResponse::json(
        202,
        format!(
            "{{\"job_id\":{id},\"status\":\"{status}\",\"poll\":\"/v1/jobs/{id}\",\"result\":\"/v1/jobs/{id}/result\"}}"
        ),
    )
}

fn store_job(inner: &Inner, parsed: &ExploreBody, state: JobState) -> u64 {
    let id = inner.next_job.fetch_add(1, Ordering::SeqCst);
    let mut jobs = inner.jobs.lock().expect("job table poisoned");
    jobs.entries.insert(
        id,
        JobEntry {
            dataset_id: parsed.dataset.clone(),
            goal: parsed.goal.clone(),
            state,
        },
    );
    jobs.order.push(id);
    while jobs.order.len() > MAX_JOBS_RETAINED {
        let evict = jobs.order.remove(0);
        jobs.entries.remove(&evict);
    }
    id
}

/// Fields accepted by `POST /v1/explore`. Unknown fields are rejected so typos
/// fail loudly instead of silently running with defaults.
struct ExploreBody {
    dataset: String,
    goal: String,
    tenant: Option<String>,
    priority: Option<Priority>,
    deadline_ms: Option<u64>,
    max_episodes: Option<usize>,
    max_sample_rows: Option<usize>,
}

fn parse_explore_body(body: &str) -> Result<ExploreBody, String> {
    let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let obj = value
        .as_object()
        .ok_or_else(|| "request body must be a JSON object".to_string())?;

    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "dataset"
                | "goal"
                | "tenant"
                | "priority"
                | "deadline_ms"
                | "max_episodes"
                | "max_sample_rows"
        ) {
            return Err(format!(
                "unknown field '{key}' (accepted: dataset, goal, tenant, priority, deadline_ms, max_episodes, max_sample_rows)"
            ));
        }
    }

    let dataset = obj
        .get("dataset")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| "field 'dataset' (non-empty string) is required".to_string())?
        .to_string();
    let goal = obj
        .get("goal")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| "field 'goal' (non-empty string) is required".to_string())?
        .to_string();
    let tenant = match obj.get("tenant") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| "field 'tenant' must be a non-empty string".to_string())?
                .to_string(),
        ),
    };
    let priority = match obj.get("priority") {
        None => None,
        Some(v) => match v.as_str() {
            Some("low") => Some(Priority::Low),
            Some("normal") => Some(Priority::Normal),
            Some("high") => Some(Priority::High),
            _ => return Err("field 'priority' must be one of: low, normal, high".to_string()),
        },
    };
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "field 'deadline_ms' must be a non-negative integer".to_string())?,
        ),
    };
    let max_episodes = match obj.get("max_episodes") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "field 'max_episodes' must be a non-negative integer".to_string())?
                as usize,
        ),
    };
    let max_sample_rows =
        match obj.get("max_sample_rows") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                "field 'max_sample_rows' must be a non-negative integer".to_string()
            })? as usize),
        };

    Ok(ExploreBody {
        dataset,
        goal,
        tenant,
        priority,
        deadline_ms,
        max_episodes,
        max_sample_rows,
    })
}

/// Long-poll cap: `wait_ms` above this is clamped, so a client can never park
/// a connection thread for longer than 30 s per request.
const MAX_WAIT_MILLIS: u64 = 30_000;

/// In-process re-check period while a long-poll waits for a job to settle.
/// Short enough that shutdown (which flips `stopping`) stays prompt.
const LONG_POLL_TICK: Duration = Duration::from_millis(2);

/// Parse the optional `?wait_ms=N` long-poll query on the status endpoint.
/// No query ⇒ 0: answer immediately.
fn parse_wait_ms(query: Option<&str>) -> Result<u64, String> {
    let Some(query) = query else { return Ok(0) };
    let mut wait = 0u64;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "wait_ms" {
            return Err(format!(
                "unknown query parameter '{key}' (accepted: wait_ms)"
            ));
        }
        wait = value
            .parse()
            .map_err(|_| format!("wait_ms must be a non-negative integer, got '{value}'"))?;
    }
    Ok(wait.min(MAX_WAIT_MILLIS))
}

/// Advance a `Running` entry whose response has arrived, then render status.
/// A nonzero `wait_millis` long-polls: the connection thread re-checks the job
/// in-process every [`LONG_POLL_TICK`] until it settles, the wait expires, or
/// the server starts stopping — far cheaper than the client re-polling over
/// TCP, and the job table lock is released between ticks.
fn job_status(inner: &Inner, id: u64, wait_millis: u64) -> HttpResponse {
    let deadline = Instant::now() + Duration::from_millis(wait_millis);
    loop {
        {
            let mut jobs = inner.jobs.lock().expect("job table poisoned");
            let entry = match jobs.entries.get_mut(&id) {
                Some(e) => e,
                None => return unknown_job(id),
            };
            promote(entry);
            if matches!(entry.state, JobState::Done(_))
                || Instant::now() >= deadline
                || inner.stopping.load(Ordering::SeqCst)
            {
                return render_status(id, entry);
            }
        }
        thread::sleep(LONG_POLL_TICK);
    }
}

fn render_status(id: u64, entry: &JobEntry) -> HttpResponse {
    let head = format!(
        "{{\"id\":{},\"dataset\":\"{}\",\"goal\":\"{}\"",
        id,
        json_escape(&entry.dataset_id),
        json_escape(&entry.goal)
    );
    let body = match &entry.state {
        JobState::Running(_) => format!("{head},\"status\":\"pending\"}}"),
        JobState::Done(response) => match &response.outcome {
            Ok(_) => format!(
                "{head},\"status\":\"done\",\"served_from_cache\":{},\"total_micros\":{}}}",
                response.served_from_cache, response.total_micros
            ),
            Err(error) => {
                let mapped = job_error_response(error);
                format!(
                    "{head},\"status\":\"failed\",\"error\":{}}}",
                    String::from_utf8_lossy(&mapped.body)
                )
            }
        },
    };
    HttpResponse::json(200, body)
}

fn job_result(inner: &Inner, id: u64) -> HttpResponse {
    let mut jobs = inner.jobs.lock().expect("job table poisoned");
    let entry = match jobs.entries.get_mut(&id) {
        Some(e) => e,
        None => return unknown_job(id),
    };
    promote(entry);
    match &entry.state {
        JobState::Running(_) => HttpResponse::error(
            409,
            "pending",
            &format!("job {id} is still running; poll /v1/jobs/{id}"),
        ),
        JobState::Done(response) => match &response.outcome {
            Err(error) => job_error_response(error),
            Ok(result) => {
                let cells: Vec<String> = result
                    .notebook
                    .cells
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"code\":\"{}\",\"caption\":\"{}\",\"rows\":{}}}",
                            json_escape(&c.code),
                            json_escape(&c.caption),
                            c.result_rows
                        )
                    })
                    .collect();
                let bullets: Vec<String> = result
                    .narrative
                    .bullets
                    .iter()
                    .map(|b| format!("\"{}\"", json_escape(b)))
                    .collect();
                let body = format!(
                    "{{\"job_id\":{},\"dataset\":\"{}\",\"goal\":\"{}\",\"served_from_cache\":{},\"total_micros\":{},\"result\":{{\"ldx\":\"{}\",\"best_score\":{:.4},\"best_structural\":{},\"notebook\":{{\"title\":\"{}\",\"cells\":[{}]}},\"narrative\":{{\"headline\":\"{}\",\"bullets\":[{}]}}}}}}",
                    id,
                    json_escape(&entry.dataset_id),
                    json_escape(&entry.goal),
                    response.served_from_cache,
                    response.total_micros,
                    json_escape(&result.ldx_canonical),
                    result.best_score,
                    result.best_structural,
                    json_escape(&result.notebook.title),
                    cells.join(","),
                    json_escape(&result.narrative.headline),
                    bullets.join(",")
                );
                HttpResponse::json(200, body)
            }
        },
    }
}

fn promote(entry: &mut JobEntry) {
    if let JobState::Running(handle) = &entry.state {
        if let Some(response) = handle.try_wait() {
            entry.state = JobState::Done(response);
        }
    }
}

fn unknown_job(id: u64) -> HttpResponse {
    HttpResponse::error(
        404,
        "unknown_job",
        &format!("no job with id {id} (it may have been evicted)"),
    )
}

fn healthz(inner: &Inner) -> HttpResponse {
    if inner.draining.load(Ordering::SeqCst) {
        return HttpResponse::json(503, "{\"status\":\"draining\"}".to_string())
            .with_header("Retry-After", "1");
    }
    let jobs_tracked = inner.jobs.lock().expect("job table poisoned").entries.len();
    HttpResponse::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"uptime_micros\":{},\"datasets\":{},\"shards\":{},\"jobs_tracked\":{}}}",
            inner.started.elapsed().as_micros(),
            inner.contexts.len(),
            inner.router.shards(),
            jobs_tracked
        ),
    )
}

fn metrics(inner: &Inner) -> HttpResponse {
    HttpResponse::text(200, metrics_body(&inner.router.stats(), &inner.http))
}

/// The `/metrics` body: the router's families, then the HTTP layer's.
fn metrics_body(stats: &RouterStats, http: &HttpMetrics) -> String {
    let mut families = stats.families();
    families.extend(http.families());
    render_text(&families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::tests::two_shard_stats;

    fn busy_http() -> HttpMetrics {
        let http = HttpMetrics::new();
        http.connections_total.add(501);
        http.connections_now.set(502);
        http.responses_2xx.add(503);
        http.responses_4xx.add(504);
        http.responses_5xx.add(505);
        http.parse_errors_total.add(506);
        http.conn_rejected_total.add(507);
        http.slow_client_closes_total.add(508);
        for micros in [250, 4_000, 65_000] {
            http.request_micros.record(micros);
        }
        http
    }

    /// The `/metrics` body, byte for byte. The golden was recorded from the
    /// hand-written renderers this exposition replaced; scrapers and dashboards
    /// read these exact lines, so any change to it must be deliberate.
    #[test]
    fn metrics_body_matches_the_golden() {
        let body = metrics_body(&two_shard_stats(), &busy_http());
        let golden = include_str!("../tests/golden/metrics.prom");
        assert_eq!(body, golden, "the /metrics body drifted from its golden");
    }
}
