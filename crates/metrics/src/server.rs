//! A std-only HTTP endpoint: the scrape/debug surface for
//! [`crate::registry`], generalized enough for the `supmr serve` job
//! daemon to mount its API on the same machinery.
//!
//! [`MetricsServer::serve`] binds a [`std::net::TcpListener`] and
//! answers `GET /metrics` with the live OpenMetrics exposition of a
//! [`Registry`] — enough HTTP for `curl` and a Prometheus scraper, with
//! no framework dependency. [`MetricsServer::serve_debug`] extends the
//! routing with the live debug surface:
//!
//! * `GET /metrics` (or `/`) — OpenMetrics exposition.
//! * `GET /healthz` — liveness probe, `200 ok`.
//! * `GET /debug/diag` — live bottleneck classification: a
//!   [`BottleneckReport`] built from a
//!   fresh registry snapshot, as `supmr.diag.v2` JSON.
//! * `GET /debug/trace?tail=N` — the newest `N` trace events as JSONL
//!   from the job's bounded [`TraceRing`] (empty without a ring).
//! * `GET /debug/governor?tail=N[&job=ID]` — the newest `N`
//!   `GovernorAction` decisions from the same ring, as JSONL. With a
//!   `job=` filter, answered only when it names this surface's job.
//!
//! On those surfaces `HEAD` is answered for every route (headers only)
//! and any other method gets `405 Method Not Allowed` with an `Allow`
//! header. [`MetricsServer::serve_with`] is the general form: it parses
//! any all-uppercase method plus an optional `Content-Length` body
//! (capped at [`MAX_BODY`]) and hands the [`HttpRequest`] to a caller
//! handler — how the job daemon serves `POST /jobs` and
//! `DELETE /jobs/{id}` without its own HTTP stack. The request line is
//! capped at 8 KiB — longer lines are rejected with `400` before any
//! further buffering. The accept loop runs on one background thread;
//! each request is answered from a fresh [`Registry::snapshot`], so
//! scrapes observe the job mid-flight. Dropping the server (or calling
//! [`MetricsServer::shutdown`]) stops the thread by poking the listener
//! with a loopback connection.

use crate::diag::{BottleneckReport, DiagInputs};
use crate::events::TraceRing;
use crate::registry::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The exposition content type OpenMetrics scrapers negotiate.
pub const CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Plain text responses (errors, health probes).
pub const TEXT_PLAIN: &str = "text/plain; charset=utf-8";

/// JSON responses (reports, job status).
pub const APPLICATION_JSON: &str = "application/json; charset=utf-8";

/// Line-delimited JSON responses (trace tails).
pub const NDJSON: &str = "application/x-ndjson; charset=utf-8";

/// Hard cap on the request line: reject before buffering anything more.
const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Hard cap on the header block while searching for its terminator.
const MAX_HEADERS: usize = 16 * 1024;

/// Hard cap on a request body (`Content-Length` past this is 413).
pub const MAX_BODY: usize = 1024 * 1024;

/// Default `tail` for `/debug/trace` when the query omits it.
const DEFAULT_TRACE_TAIL: usize = 256;

/// What the debug surface serves: the registry plus the optional live
/// pieces the richer endpoints need.
#[derive(Clone)]
pub struct DebugState {
    registry: Registry,
    ring: Option<Arc<TraceRing>>,
    job_id: Option<String>,
    started: Instant,
    map_workers: u64,
}

impl DebugState {
    /// Debug state over `registry`, with the job epoch starting now.
    pub fn new(registry: Registry) -> DebugState {
        DebugState { registry, ring: None, job_id: None, started: Instant::now(), map_workers: 1 }
    }

    /// Attach the bounded event ring backing `/debug/trace`.
    pub fn with_ring(mut self, ring: Arc<TraceRing>) -> DebugState {
        self.ring = Some(ring);
        self
    }

    /// Name the job this surface belongs to, so a
    /// `/debug/governor?job=ID` filter can be answered (or refused).
    pub fn with_job(mut self, job_id: impl Into<String>) -> DebugState {
        self.job_id = Some(job_id.into());
        self
    }

    /// The job's map width, which divides the summed shuffle busy time
    /// (one worker until set).
    pub fn with_map_workers(mut self, map_workers: u64) -> DebugState {
        self.map_workers = map_workers;
        self
    }

    /// Use `epoch` as the job start for live wall-clock attribution.
    pub fn with_epoch(mut self, epoch: Instant) -> DebugState {
        self.started = epoch;
        self
    }

    fn live_diag_json(&self) -> String {
        let wall_us = self.started.elapsed().as_micros() as u64;
        let inputs =
            DiagInputs::from_snapshot(&self.registry.snapshot(), wall_us, self.map_workers);
        BottleneckReport::from_inputs(inputs).to_json().render()
    }
}

/// One parsed HTTP request, as handed to a [`HttpHandler`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// The request method, uppercase (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The request target, query string included (`/jobs/3?x=y`).
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The path without its query string.
    pub fn route(&self) -> &str {
        self.path.split_once('?').map_or(self.path.as_str(), |(r, _)| r)
    }

    /// The first value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        let (_, q) = self.path.split_once('?')?;
        q.split('&').find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
    }
}

/// What a handler answers with. Construct via [`HttpResponse::ok`] /
/// [`HttpResponse::error`] or literally for full control.
pub struct HttpResponse {
    /// Status line tail, e.g. `"200 OK"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (dropped for `HEAD`, length still advertised).
    pub body: String,
    /// When set, emitted as an `Allow:` header (405 responses).
    pub allow: Option<&'static str>,
}

impl HttpResponse {
    /// A `200 OK` with the given body.
    pub fn ok(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse { status: "200 OK", content_type, body, allow: None }
    }

    /// A plain-text error response.
    pub fn error(status: &'static str, body: &str) -> HttpResponse {
        HttpResponse { status, content_type: TEXT_PLAIN, body: body.to_string(), allow: None }
    }

    /// A `405 Method Not Allowed` advertising `allow`.
    pub fn method_not_allowed(allow: &'static str) -> HttpResponse {
        HttpResponse {
            status: "405 Method Not Allowed",
            content_type: TEXT_PLAIN,
            body: "method not allowed\n".to_string(),
            allow: Some(allow),
        }
    }
}

/// The routing callback behind [`MetricsServer::serve_with`]. Called
/// inline on the accept thread for every parsed request.
pub type HttpHandler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A running HTTP endpoint. Stops when dropped.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9400`; port 0 picks a free port) and
    /// serve `registry` until shutdown.
    pub fn serve(addr: &str, registry: Registry) -> std::io::Result<MetricsServer> {
        MetricsServer::serve_debug(addr, DebugState::new(registry))
    }

    /// Bind `addr` and serve the full debug surface (`/metrics`,
    /// `/healthz`, `/debug/diag`, `/debug/trace`, `/debug/governor`)
    /// until shutdown. GET/HEAD only; anything else is 405.
    pub fn serve_debug(addr: &str, state: DebugState) -> std::io::Result<MetricsServer> {
        let handler: HttpHandler = Arc::new(move |req| match req.method.as_str() {
            "GET" | "HEAD" => route(&req.path, &state),
            _ => HttpResponse::method_not_allowed("GET, HEAD"),
        });
        MetricsServer::serve_with(addr, handler)
    }

    /// Bind `addr` and route every request through `handler` — the
    /// general form the job-service daemon mounts its API on. `HEAD`
    /// is delivered to the handler like `GET` (same routing) but the
    /// response body is suppressed on the wire.
    pub fn serve_with(addr: &str, handler: HttpHandler) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("metrics-server".into())
            .spawn(move || accept_loop(listener, handler, flag))?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address — useful when serving on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, handler: HttpHandler, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Serve inline: scrapes are tiny and rare relative to the work
        // the job is doing, so a per-connection thread buys nothing.
        let _ = handle_connection(stream, &handler);
    }
}

fn route(path: &str, state: &DebugState) -> HttpResponse {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, Some(q)),
        None => (path, None),
    };
    let param = |key: &str| {
        query
            .into_iter()
            .flat_map(|q| q.split('&'))
            .find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
    };
    let tail = || param("tail").and_then(|v| v.parse::<usize>().ok()).unwrap_or(DEFAULT_TRACE_TAIL);
    match route {
        "/metrics" | "/" => HttpResponse::ok(CONTENT_TYPE, state.registry.render_openmetrics()),
        "/healthz" => HttpResponse::ok(TEXT_PLAIN, "ok\n".to_string()),
        "/debug/diag" => HttpResponse::ok(APPLICATION_JSON, state.live_diag_json()),
        "/debug/trace" => {
            let body = state.ring.as_ref().map_or_else(String::new, |r| r.tail_jsonl(tail()));
            HttpResponse::ok(NDJSON, body)
        }
        "/debug/governor" => {
            // A job filter on a single-job surface is answered only
            // for that job; naming any other is a 404, not silence.
            if let Some(asked) = param("job") {
                if state.job_id.as_deref() != Some(asked) {
                    return HttpResponse::error("404 Not Found", "unknown job\n");
                }
            }
            let body =
                state.ring.as_ref().map_or_else(String::new, |r| r.tail_governor_jsonl(tail()));
            HttpResponse::ok(NDJSON, body)
        }
        _ => HttpResponse::error("404 Not Found", "not found\n"),
    }
}

fn handle_connection(mut stream: TcpStream, handler: &HttpHandler) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let (response, head_only) = match read_request(&mut stream)? {
        Request::Full(req) => {
            let head_only = req.method == "HEAD";
            (handler(&req), head_only)
        }
        Request::TooLong => {
            (HttpResponse::error("400 Bad Request", "request line too long\n"), false)
        }
        Request::BodyTooLarge => {
            (HttpResponse::error("413 Payload Too Large", "request body too large\n"), false)
        }
        Request::Malformed => (HttpResponse::error("400 Bad Request", "bad request\n"), false),
    };
    let mut header = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    if let Some(allow) = response.allow {
        header.push_str(&format!("Allow: {allow}\r\n"));
    }
    header.push_str("\r\n");
    stream.write_all(header.as_bytes())?;
    if !head_only {
        stream.write_all(response.body.as_bytes())?;
    }
    stream.flush()?;
    // Drain whatever request bytes we never read (bounded) before
    // closing, so the client reads the response instead of an RST.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

enum Request {
    /// A parsed request: method, target, and (possibly empty) body.
    Full(HttpRequest),
    /// The request line exceeded [`MAX_REQUEST_LINE`] with no newline.
    TooLong,
    /// `Content-Length` exceeded [`MAX_BODY`].
    BodyTooLarge,
    /// Not parseable as an HTTP request.
    Malformed,
}

/// Find the end of the header block (`\r\n\r\n` or `\n\n`), returning
/// the index just past it.
fn headers_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Read one request: line, headers, and — when `Content-Length` says so
/// — the body. Refuses to buffer more than [`MAX_REQUEST_LINE`] bytes
/// while looking for the first newline, [`MAX_HEADERS`] for the header
/// terminator, and [`MAX_BODY`] of body.
fn read_request(stream: &mut impl Read) -> std::io::Result<Request> {
    let mut buf = [0u8; 1024];
    let mut data = Vec::new();
    let header_len = loop {
        if let Some(end) = headers_end(&data) {
            break end;
        }
        if !data.iter().take(MAX_REQUEST_LINE).any(|b| *b == b'\n')
            && data.len() >= MAX_REQUEST_LINE
        {
            return Ok(Request::TooLong);
        }
        if data.len() >= MAX_HEADERS {
            return Ok(Request::Malformed);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            // Header block never terminated; parse what arrived (a bare
            // request line from a minimal client still routes).
            break data.len();
        }
        data.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&data[..header_len]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) if !m.is_empty() && m.chars().all(|c| c.is_ascii_uppercase()) => {
            (m.to_string(), p.to_string())
        }
        _ => return Ok(Request::Malformed),
    };
    let content_length = head
        .lines()
        .skip(1)
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim())
        })
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok(Request::BodyTooLarge);
    }
    let mut body = data[header_len..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break; // truncated body: hand over what arrived
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(Request::Full(HttpRequest { method, path, body }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, TraceLevel, Tracer};
    use crate::json::Json;
    use crate::unpoisoned;
    use std::sync::Mutex;
    use supmr_workloads::check::check;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
    }

    #[test]
    fn serves_openmetrics_and_404s_elsewhere() {
        let registry = Registry::new();
        registry.counter("supmr.test.hits", "Scrape test counter.", &[]).add(3);
        registry.histogram("supmr.test.lat_us", "", &[]).record(50);
        let server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind");
        let addr = server.addr();

        let ok = get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("application/openmetrics-text"), "{ok}");
        assert!(ok.contains("supmr_test_hits_total 3"), "{ok}");
        assert!(ok.contains("supmr_test_lat_us_bucket"), "{ok}");
        assert!(ok.contains("# EOF"), "{ok}");

        // A second scrape observes updated values from the same cells.
        registry.counter("supmr.test.hits", "", &[]).add(2);
        assert!(get(addr, "/metrics").contains("supmr_test_hits_total 5"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
    }

    #[test]
    fn healthz_answers_ok() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).expect("bind");
        let body = get(server.addr(), "/healthz");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.ends_with("ok\n"), "{body}");
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_405_with_allow_header() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).expect("bind");
        let addr = server.addr();
        for method in ["POST", "PUT", "DELETE", "OPTIONS"] {
            let resp = request(addr, &format!("{method} /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
            assert!(resp.starts_with("HTTP/1.1 405"), "{method}: {resp}");
            assert!(resp.contains("Allow: GET, HEAD"), "{method}: {resp}");
        }
        server.shutdown();
    }

    #[test]
    fn head_sends_headers_without_body() {
        let registry = Registry::new();
        registry.counter("supmr.test.hits", "", &[]).add(1);
        let server = MetricsServer::serve("127.0.0.1:0", registry).expect("bind");
        let resp = request(server.addr(), "HEAD /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        let (head, body) = resp.split_once("\r\n\r\n").expect("header terminator");
        assert!(head.contains("Content-Length:"), "{resp}");
        assert!(!head.contains("Content-Length: 0"), "length reflects the real body");
        assert!(body.is_empty(), "HEAD must not carry a body: {body:?}");
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).expect("bind");
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 100));
        let resp = request(server.addr(), &long);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("request line too long"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn debug_diag_serves_live_classification() {
        let registry = Registry::new();
        registry.counter("supmr.stall.map_us", "", &[("runtime", "pipeline")]).add(60_000_000);
        let state = DebugState::new(registry);
        let server = MetricsServer::serve_debug("127.0.0.1:0", state).expect("bind");
        let resp = get(server.addr(), "/debug/diag");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("application/json"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let json = Json::parse(body).expect("valid diag JSON");
        assert_eq!(json.get("schema").unwrap().as_str(), Some("supmr.diag.v2"));
        // 60s of map stalls against a wall-clock of milliseconds: the
        // share clamps to 1.0 and the verdict must be ingest-bound.
        assert_eq!(json.get("verdict").unwrap().as_str(), Some("ingest-bound"));
        server.shutdown();
    }

    #[test]
    fn debug_diag_divides_the_shuffle_share_by_the_jobs_map_width() {
        let registry = Registry::new();
        let ledger = crate::FlowLedger::new();
        ledger.attach_registry(&registry);
        // 6 s of absorbing, summed over the workers, 10 s into the job.
        ledger.record(crate::FlowPhase::Shuffle, 1 << 20, Duration::from_secs(6));
        let epoch = Instant::now() - Duration::from_secs(10);
        let state = DebugState::new(registry).with_epoch(epoch).with_map_workers(4);
        let server = MetricsServer::serve_debug("127.0.0.1:0", state).expect("bind");
        let resp = get(server.addr(), "/debug/diag");
        let json = Json::parse(resp.split("\r\n\r\n").nth(1).expect("body")).expect("JSON");
        let shuffle = json.get("shares").and_then(|s| s.get("shuffle")).and_then(Json::as_f64);
        let shuffle = shuffle.expect("a shuffle share");
        // 6 ÷ (10 × 4), less the few milliseconds the wall grew by.
        assert!((0.14..=0.15).contains(&shuffle), "{shuffle} of 4 workers' time");
        server.shutdown();
    }

    #[test]
    fn debug_trace_tails_the_ring() {
        let ring = TraceRing::new(64);
        let tracer = Tracer::new(TraceLevel::Wave, Some(ring.callback()));
        for chunk in 0..10u32 {
            tracer.emit(EventKind::ChunkIngestStart { chunk });
        }
        let state = DebugState::new(Registry::new()).with_ring(Arc::clone(&ring));
        let server = MetricsServer::serve_debug("127.0.0.1:0", state).expect("bind");
        let addr = server.addr();

        let resp = get(addr, "/debug/trace?tail=3");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("application/x-ndjson"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "{body}");
        for line in &lines {
            Json::parse(line).expect("each line is valid JSON");
        }
        assert!(lines[2].contains(r#""chunk":9"#), "newest event last: {body}");

        // Default tail without a query, and graceful empty-ring behaviour.
        let resp = get(addr, "/debug/trace");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        server.shutdown();

        let bare = MetricsServer::serve("127.0.0.1:0", Registry::new()).expect("bind");
        let resp = get(bare.addr(), "/debug/trace?tail=5");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "no ring still answers: {resp}");
        bare.shutdown();
    }

    #[test]
    fn debug_governor_filters_actions_and_jobs() {
        let ring = TraceRing::new(64);
        let tracer = Tracer::new(TraceLevel::Wave, Some(ring.callback()));
        // Interleave governor decisions with other events; only the
        // decisions may come back.
        for chunk in 0..4u32 {
            tracer.emit(EventKind::ChunkIngestStart { chunk });
            tracer.emit(EventKind::GovernorAction {
                verdict: "ingest-bound",
                knob: "map_width",
                value: chunk as u64 + 1,
            });
        }
        let state = DebugState::new(Registry::new()).with_ring(Arc::clone(&ring)).with_job("job-7");
        let server = MetricsServer::serve_debug("127.0.0.1:0", state).expect("bind");
        let addr = server.addr();

        let resp = get(addr, "/debug/governor?tail=3");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "only governor actions counted: {body}");
        for line in &lines {
            assert!(line.contains("GovernorAction"), "{line}");
            Json::parse(line).expect("each line is valid JSON");
        }
        assert!(lines[2].contains(r#""value":4"#), "newest decision last: {body}");

        // The job filter answers for this job and 404s for others.
        assert!(get(addr, "/debug/governor?job=job-7").starts_with("HTTP/1.1 200"));
        assert!(get(addr, "/debug/governor?job=nope").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }

    #[test]
    fn serve_with_routes_posts_with_bodies() {
        type SeenRequest = (String, String, Vec<u8>);
        let seen: Arc<Mutex<Vec<SeenRequest>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let handler: HttpHandler = Arc::new(move |req| {
            unpoisoned(log.lock()).push((req.method.clone(), req.path.clone(), req.body.clone()));
            match (req.method.as_str(), req.route()) {
                ("POST", "/jobs") => {
                    HttpResponse::ok(APPLICATION_JSON, format!("{{\"echo\":{}}}\n", req.body.len()))
                }
                ("DELETE", _) => HttpResponse::ok(TEXT_PLAIN, "gone\n".to_string()),
                _ => HttpResponse::error("404 Not Found", "not found\n"),
            }
        });
        let server = MetricsServer::serve_with("127.0.0.1:0", handler).expect("bind");
        let addr = server.addr();

        let body = r#"{"app":"wordcount"}"#;
        let resp = request(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains(&format!("\"echo\":{}", body.len())), "{resp}");

        let resp = request(addr, "DELETE /jobs/3 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");

        {
            let seen = unpoisoned(seen.lock());
            assert_eq!(seen[0].0, "POST");
            assert_eq!(seen[0].2, body.as_bytes());
            assert_eq!(seen[1].0, "DELETE");
            assert_eq!(seen[1].1, "/jobs/3");
        }

        // An oversized Content-Length is refused before buffering.
        let resp = request(
            addr,
            &format!("POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1),
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    /// Hands out `bytes` at most `step` at a time.
    struct Trickle<'a> {
        rest: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// What `read_request` made of a request, by outcome.
    fn outcome(request: &Request) -> &'static str {
        match request {
            Request::Full(_) => "full",
            Request::TooLong => "too long",
            Request::BodyTooLarge => "too large",
            Request::Malformed => "malformed",
        }
    }

    /// A request with an unterminated header block, a missing, garbage,
    /// huge or overstated `Content-Length`, non-UTF-8 bytes, an
    /// oversize request line or header block — as written, edited or
    /// replaced by noise — gets one of the four outcomes, never a panic
    /// or an I/O error. Whole reads (the reader fills the parser's 1 KiB
    /// buffer) never take more than `MAX_HEADERS + MAX_BODY + 1 KiB`
    /// from the peer; short reads can overshoot each of the two caps by
    /// one read less a byte.
    #[test]
    fn hostile_requests_get_an_outcome_never_a_panic() {
        let sample = b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n{\"n\":\"\xff\"}";
        check("hostile_requests_get_an_outcome_never_a_panic", 64, |g| {
            let long_line = g.range(0..6) == 0;
            let line = if long_line {
                format!("GET /{}", "a".repeat(MAX_REQUEST_LINE + 1024 + g.range(0..2048)))
            } else {
                "POST /jobs HTTP/1.1".to_string()
            };
            let long_head = g.range(0..6) == 0;
            let pad =
                "X-Pad: y\r\n".repeat(if long_head { (MAX_HEADERS + 1024) / 10 + 1 } else { 0 });
            let mut body: Vec<u8> = g.vec(0..64, |g| g.range(..));
            if g.range(0..8) == 0 {
                body.resize(MAX_BODY + g.range(0..4096), b'x');
            }
            let length = match g.range(0..5) {
                0 => None,
                1 => Some(g.pick(&["x1", "-1", "1e3", " ", "0x10"]).to_string()),
                2 => Some(g.pick(&[
                    u64::MAX.to_string(),
                    "9".repeat(40),
                    (MAX_BODY + 1).to_string(),
                ])),
                3 => Some((body.len() + g.range(1..4096)).to_string()),
                _ => Some(body.len().min(MAX_BODY).to_string()),
            };
            let header =
                length.as_ref().map_or(String::new(), |l| format!("Content-Length: {l}\r\n"));
            let ended = g.range(0..4) != 0;
            let end = if ended { "\r\n" } else { "" };
            let request =
                [format!("{line}\r\nHost: t\r\n{pad}{header}{end}").as_bytes(), &body].concat();
            // As written, the request's outcome is known unless its
            // header block never ends (then body bytes may end it).
            let declared: usize = length.and_then(|l| l.trim().parse().ok()).unwrap_or(0);
            let expected = if long_line {
                Some("too long")
            } else if long_head {
                Some("malformed")
            } else if !ended {
                None
            } else if declared > MAX_BODY {
                Some("too large")
            } else {
                Some("full")
            };
            let noise = g.vec(0..2048, |g| g.range(..));
            let edited = g.edited(&request);
            for bytes in [&request, &edited, &noise, &g.edited(sample)] {
                let whole = g.bool();
                let step = if whole { usize::MAX } else { g.range(1..=1024) };
                let mut reader = Trickle { rest: bytes, step };
                let got = read_request(&mut reader).expect("a slice never fails to read");
                let taken = bytes.len() - reader.rest.len();
                let cap = MAX_HEADERS + MAX_BODY + if whole { 1024 } else { 2048 };
                assert!(taken <= cap, "read {taken} of {} bytes", bytes.len());
                if std::ptr::eq(bytes, &request) && expected.is_some() {
                    assert_eq!(Some(outcome(&got)), expected);
                }
                if let Request::Full(req) = got {
                    assert!(req.body.len() <= MAX_BODY);
                    assert!(req.method.bytes().all(|b| b.is_ascii_uppercase()));
                    if std::ptr::eq(bytes, &request) && ended {
                        assert_eq!(req.body, body[..declared.min(body.len())]);
                    }
                }
            }
        });
    }
}
