//! A hand-rolled, readiness-driven HTTP/1.1 front end over
//! `std::net::TcpListener`, and the one HTTP client the workspace uses.
//!
//! The build environment carries no network crates, and the service's
//! needs are narrow: small JSON bodies, `Content-Length` framing,
//! keep-alive, a handful of routes. Both front ends — `si_serve` over a
//! [`SiService`] and `si-router` over a [`crate::router::Router`] — run
//! the same **event loop**, generic over a small `Handler` trait:
//!
//! - every connection is a slot in a `poll(2)` set (hand-declared FFI on
//!   unix — std links the platform C library; elsewhere a short-tick
//!   scan loop stands in) driving a per-connection state machine:
//!   **Reading** (accumulate request bytes) → **Waiting** (a handler
//!   thread runs a blocking route) → **Writing** (drain the response)
//!   → back to Reading on keep-alive,
//! - `Handler::inline` answers cheap routes on the loop thread;
//!   whatever it declines runs through `Handler::blocking` on a
//!   handler thread, so only in-flight blocking requests occupy a thread.
//!   `inline` hands `blocking` its `Handler::Deferred`: the service's
//!   decoded `POST /v1/jobs` spec and deadline (decoded once, on the
//!   loop) or `POST /v1/warm` body; the router's request, unchanged,
//! - a wake pipe lets handler threads hand finished responses back to
//!   the loop without waiting out a poll tick.
//!
//! The loop enforces every limit for both front ends:
//!
//! - a global connection cap ([`HttpConfig::max_connections`]); excess
//!   connections are shed immediately with `503` + `Retry-After`,
//! - a per-request read deadline **fixed when the request cycle starts**
//!   — a client trickling bytes (slowloris) cannot reset the timer with
//!   each byte; expiry on a partial request yields a typed `408`, while
//!   an idle keep-alive connection is closed silently (a `408` there
//!   would be read by a pooled client as the answer to its next request),
//! - a write deadline per response; a peer that stops draining its
//!   socket is disconnected,
//! - a body-size cap enforced from the `Content-Length` header, before
//!   the body arrives (typed `413`),
//! - malformed framing (missing or garbage `Content-Length` on a POST,
//!   a non-UTF-8 body, a garbled request line, an oversized header
//!   section) gets a typed `400` instead of a silent hang-up,
//! - every `503` carries `Retry-After`,
//! - a connection the server closes (a `Connection: close` answer, a
//!   typed error, a shed `503`) lingers briefly, draining the peer's
//!   unread bytes, so the close never turns into a reset that destroys
//!   the answer before the client reads it.
//!
//! The service's routes (memory-tier job hits and every `GET` answer
//! inline; job misses and warm pulls block):
//!
//! | Method | Path             | Behavior                                  |
//! |--------|------------------|-------------------------------------------|
//! | POST   | `/v1/jobs`       | Run (or fetch) a job; blocks until done   |
//! | GET    | `/v1/jobs/:id`   | Non-blocking lookup of a finished job     |
//! | GET    | `/v1/cache/:key` | Raw checksummed `.sic` entry (warming)    |
//! | POST   | `/v1/warm`       | Pull listed keys from a peer's cache      |
//! | GET    | `/metrics`       | Service / cache / pool / engine / http    |
//! | GET    | `/healthz`       | Liveness probe (is the process up)        |
//! | GET    | `/readyz`        | Readiness probe (should a router send here)|
//!
//! `POST /v1/jobs` accepts an optional `"timeout_ms"` field beside the
//! spec; admission-control rejections surface as `503` with `Retry-After`
//! and a JSON error body, deadline misses as `504`.
//!
//! `/healthz` and `/readyz` split liveness from readiness: the former
//! answers `200` for as long as the event loop runs, the latter consults
//! [`SiService::readiness`] — a drained pool or a degraded cache
//! directory turns it into a `503` so the `si-router` ring (and CI) can
//! tell "up" from "serving". `GET /v1/cache/:key` serves the disk tier's
//! validated `.sic` bytes as `application/octet-stream` — the transfer
//! format of replica cache warming — and `POST /v1/warm`
//! (`{"peer":"host:port","keys":["16-hex",…]}`) makes this replica pull
//! those entries from a peer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::ServiceError;
use crate::jobspec::{JobOutput, JobSpec};
use crate::json::{self, Json};
use crate::lock_recover;
use crate::service::{job_response_string, SiService};

const MAX_HEADER_LINES: usize = 100;
/// Cap on the buffered request-line + header section; past this the
/// framing is hostile, not slow.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on one poll wait; deadline sweeps happen at least this
/// often even with no I/O (shutdown is faster: the wake pipe interrupts).
const MAX_POLL_WAIT_MS: i32 = 1000;
/// How long a closing connection drains the peer's unread bytes before
/// the socket is dropped (see [`ConnState::Closing`]).
const LINGER: Duration = Duration::from_millis(500);
/// How long the listener stays out of the poll set after `accept` fails
/// (out of descriptors: `EMFILE`/`ENFILE`), unless a connection closes
/// first. The pending connection keeps the listener readable, so polling
/// it meanwhile would spin the loop thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Listener hardening knobs. The defaults suit tests and small
/// deployments; `si_serve` exposes each as a flag, `si-router` runs on
/// the defaults.
#[derive(Debug, Clone, Copy)]
pub struct HttpConfig {
    /// Per-request read deadline (request line, headers, and body),
    /// fixed when the request cycle starts; expiry yields a typed `408`.
    pub read_timeout: Duration,
    /// Per-response write deadline; a peer that stops draining its
    /// socket gets disconnected instead of pinning a poll slot forever.
    pub write_timeout: Duration,
    /// Largest accepted request body; a bigger `Content-Length` is
    /// rejected with `413` before any body byte is read.
    pub max_body_bytes: usize,
    /// Concurrent-connection cap; excess connections are shed with `503`
    /// + `Retry-After` without occupying a poll slot.
    pub max_connections: usize,
    /// The `Retry-After` value (seconds) sent with every `503`.
    pub retry_after_secs: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_body_bytes: 1 << 20,
            max_connections: 256,
            retry_after_secs: 1,
        }
    }
}

/// Listener-level counters and gauges, surfaced as the `"http"` section
/// of `/metrics`.
#[derive(Debug, Default)]
pub struct HttpStats {
    /// Connections accepted and served.
    pub accepted: AtomicU64,
    /// Connections shed at the cap with `503`.
    pub shed_connections: AtomicU64,
    /// Requests rejected with `400` (malformed framing or body).
    pub bad_requests: AtomicU64,
    /// Requests rejected with `413` (body over the cap).
    pub too_large: AtomicU64,
    /// Requests that hit the read deadline (`408`).
    pub timeouts: AtomicU64,
    /// Connections the peer dropped mid-request (truncated body, reset,
    /// or vanished before the response was written).
    pub dropped_mid_request: AtomicU64,
    /// Responses successfully written.
    pub responses: AtomicU64,
    /// Gauge: connections currently open (poll slots in use).
    pub open_connections: AtomicU64,
    /// Gauge: open connections idle between keep-alive requests — the
    /// population that used to cost a thread each and now costs none.
    pub idle_keepalive: AtomicU64,
    /// Gauge: answered connections draining the peer's unread bytes
    /// before the socket is dropped; never above `max_connections`.
    pub closing_connections: AtomicU64,
}

impl HttpStats {
    fn to_json(&self) -> Json {
        let num = |v: &AtomicU64| Json::Number(v.load(Ordering::Relaxed) as f64);
        Json::Object(vec![
            ("accepted".to_string(), num(&self.accepted)),
            ("shed_connections".to_string(), num(&self.shed_connections)),
            ("bad_requests".to_string(), num(&self.bad_requests)),
            ("too_large".to_string(), num(&self.too_large)),
            ("timeouts".to_string(), num(&self.timeouts)),
            (
                "dropped_mid_request".to_string(),
                num(&self.dropped_mid_request),
            ),
            ("responses".to_string(), num(&self.responses)),
            ("open_connections".to_string(), num(&self.open_connections)),
            ("idle_keepalive".to_string(), num(&self.idle_keepalive)),
            (
                "closing_connections".to_string(),
                num(&self.closing_connections),
            ),
        ])
    }
}

/// A `/metrics` document with the listener's `"http"` section appended —
/// what both front ends serve.
pub(crate) fn metrics_with_http(mut doc: Json, http: &HttpStats) -> String {
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("http".to_string(), http.to_json()));
    }
    doc.to_string_compact()
}

/// One parsed request, as a [`Handler`] sees it.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// Whether the client keeps the connection open after the response.
    pub(crate) keep_alive: bool,
}

/// One answer. The loop adds the framing, the `Connection` header, and
/// `Retry-After` on a `503`.
#[derive(Debug)]
pub(crate) struct Response {
    status: u16,
    body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// An `application/json` response.
    pub(crate) fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A typed error response: `{"error": code, "message": …}` with the
    /// error's own status.
    fn error(err: &ServiceError) -> Response {
        Response::json(err.http_status(), error_body(err))
    }
}

/// The routes behind an event loop. `inline` runs on the loop thread
/// and must not block; it answers, or returns `Err` with what it decoded
/// to hand the request to `blocking`, which runs on a handler thread of
/// its own. `http` is the loop's own counters, for the `"http"` section
/// of `/metrics`.
pub(crate) trait Handler: Send + Sync + 'static {
    /// What `inline` hands `blocking` for a request it declines.
    type Deferred: Send + 'static;
    /// Answers `request` on the event-loop thread, or declines.
    fn inline(&self, request: Request, http: &HttpStats) -> Result<Response, Self::Deferred>;
    /// Answers a request `inline` declined; may block.
    fn blocking(&self, deferred: Self::Deferred, http: &HttpStats) -> Response;
}

/// Hand-declared `poll(2)`. The environment vendors no libc crate, but
/// std always links the platform C library, so the one syscall wrapper
/// the loop needs is declared here.
#[cfg(unix)]
mod poll_sys {
    use std::os::raw::{c_int, c_short};

    #[repr(C)]
    pub(crate) struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub(crate) const POLLIN: c_short = 0x001;
    pub(crate) const POLLOUT: c_short = 0x004;

    #[cfg(target_os = "linux")]
    pub(crate) type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(crate) type NFds = std::os::raw::c_uint;

    extern "C" {
        pub(crate) fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
}

/// Wakes the event loop from another thread. On unix this is a
/// socketpair the loop polls alongside its connections; elsewhere the
/// loop ticks every couple of milliseconds and the waker is a no-op.
#[derive(Debug)]
struct Waker {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { tx, rx })
        }
        #[cfg(not(unix))]
        {
            Ok(Waker {})
        }
    }

    /// Best-effort: a full pipe already guarantees a pending wake.
    fn wake(&self) {
        #[cfg(unix)]
        {
            let _ = (&self.tx).write(&[1]);
        }
    }

    fn drain(&self) {
        #[cfg(unix)]
        {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// A finished blocking request handed back from a handler thread.
#[derive(Debug)]
struct Completion {
    token: usize,
    response: Response,
    keep_alive: bool,
}

/// The handler-thread → event-loop channel: a mutexed queue plus the
/// wake pipe that interrupts the loop's poll wait.
#[derive(Debug)]
struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, completion: Completion) {
        lock_recover(&self.queue).push(completion);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *lock_recover(&self.queue))
    }
}

/// Per-connection state machine position.
enum ConnState {
    /// Accumulating request bytes; `deadline` is the fixed per-request
    /// read deadline (the slowloris clock).
    Reading,
    /// A handler thread owns the request; the loop neither polls nor
    /// times out this connection — the handler's own deadlines govern.
    Waiting,
    /// Draining a response; `deadline` is the write deadline.
    Writing {
        out: Vec<u8>,
        pos: usize,
        keep_alive: bool,
    },
    /// Answered, write side shut: discarding whatever the peer still
    /// sends until it closes or `deadline` ([`LINGER`]) passes. Closing
    /// a socket with unread bytes would send a reset, and the peer's
    /// kernel would discard our answer unread. Closing connections do not
    /// count against the connection cap; they have a bound of their own,
    /// also `max_connections`, past which a socket is dropped at once.
    Closing,
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (may hold pipelined follow-up requests).
    buf: Vec<u8>,
    state: ConnState,
    deadline: Instant,
    /// Responses completed on this connection (drives the
    /// `idle_keepalive` gauge and the idle-close rule).
    served: u64,
}

enum FlushResult {
    Done { keep_alive: bool },
    Pending,
    Failed,
}

impl Conn {
    /// Between requests on a kept-alive connection: nothing buffered,
    /// at least one response already served.
    fn is_idle(&self) -> bool {
        matches!(self.state, ConnState::Reading) && self.buf.is_empty() && self.served > 0
    }

    /// Shuts the write side (the answer is fully written) and starts the
    /// linger.
    fn start_close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        self.buf = Vec::new();
        self.state = ConnState::Closing;
        self.deadline = Instant::now() + LINGER;
    }

    fn start_write(&mut self, response: &Response, keep_alive: bool, config: &HttpConfig) {
        self.state = ConnState::Writing {
            out: response_bytes(response, keep_alive, config.retry_after_secs),
            pos: 0,
            keep_alive,
        };
        self.deadline = Instant::now() + config.write_timeout;
    }

    /// Writes as much of the pending response as the socket accepts.
    fn flush_some(&mut self) -> FlushResult {
        let ConnState::Writing {
            out,
            pos,
            keep_alive,
        } = &mut self.state
        else {
            return FlushResult::Pending;
        };
        let keep_alive = *keep_alive;
        loop {
            if *pos >= out.len() {
                return FlushResult::Done { keep_alive };
            }
            match (&self.stream).write(&out[*pos..]) {
                Ok(0) => return FlushResult::Failed,
                Ok(n) => *pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return FlushResult::Pending
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushResult::Failed,
            }
        }
    }
}

/// What the loop should do with a connection after driving it.
enum Disposition {
    Keep,
    /// Answered with `Connection: close`: linger if the bound allows.
    Linger,
    Close {
        dropped: bool,
    },
}

/// Everything the event loop and its handler threads share.
struct LoopCtx<H> {
    handler: Arc<H>,
    stats: Arc<HttpStats>,
    config: HttpConfig,
    completions: Arc<Completions>,
}

/// A running event loop: the bound listener, its thread, and its
/// counters. Both front ends ([`HttpServer`] and
/// [`crate::router::RouterServer`]) own one.
pub(crate) struct EventLoop {
    pub(crate) addr: SocketAddr,
    pub(crate) stats: Arc<HttpStats>,
    stop: Arc<AtomicBool>,
    loop_thread: Option<thread::JoinHandle<()>>,
    completions: Arc<Completions>,
}

impl EventLoop {
    /// Binds `addr` (port 0 for an ephemeral port) and starts serving
    /// `handler`.
    pub(crate) fn start<H: Handler>(
        addr: &str,
        handler: Arc<H>,
        config: HttpConfig,
    ) -> std::io::Result<EventLoop> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(HttpStats::default());
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        });
        let ctx = LoopCtx {
            handler,
            stats: Arc::clone(&stats),
            config,
            completions: Arc::clone(&completions),
        };
        let loop_stop = Arc::clone(&stop);
        let loop_thread = thread::Builder::new()
            .name("si-http-loop".to_string())
            .spawn(move || event_loop(&listener, &loop_stop, &ctx))?;
        Ok(EventLoop {
            addr: local,
            stop,
            loop_thread: Some(loop_thread),
            stats,
            completions,
        })
    }

    /// Stops and joins the loop thread; idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.completions.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The job service's HTTP front end: the shared event loop over a
/// [`SiService`].
pub struct HttpServer {
    front: EventLoop,
    service: Arc<SiService>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) with the default
    /// [`HttpConfig`] and starts the event loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, service: Arc<SiService>) -> std::io::Result<HttpServer> {
        HttpServer::bind_with(addr, service, HttpConfig::default())
    }

    /// [`HttpServer::bind`] with explicit listener hardening knobs.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with(
        addr: &str,
        service: Arc<SiService>,
        config: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let front = EventLoop::start(addr, Arc::clone(&service), config)?;
        Ok(HttpServer { front, service })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.addr
    }

    /// Listener counter snapshot (shared with the event loop).
    #[must_use]
    pub fn http_stats(&self) -> &HttpStats {
        &self.front.stats
    }

    /// Stops the event loop and drains the service workers. In-flight
    /// solves finish; new submissions are rejected.
    pub fn shutdown(&mut self) {
        self.front.stop();
        self.service.shutdown();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which sources `poll` reported ready.
#[derive(Default)]
struct ReadySet {
    listener: bool,
    conns: Vec<usize>,
}

/// One poll wait on unix: the wake pipe, the listener, and every
/// connection whose state wants I/O.
#[cfg(unix)]
fn poll_wait(
    waker: &Waker,
    listener: Option<&TcpListener>,
    conns: &[Option<Conn>],
    timeout_ms: i32,
) -> ReadySet {
    use poll_sys::{poll, NFds, PollFd, POLLIN, POLLOUT};
    use std::os::unix::io::AsRawFd;

    let mut fds = vec![
        PollFd {
            fd: waker.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
        // A negative descriptor is skipped by poll(2): the paused listener.
        PollFd {
            fd: listener.map_or(-1, AsRawFd::as_raw_fd),
            events: POLLIN,
            revents: 0,
        },
    ];
    let mut tokens = Vec::new();
    for (token, slot) in conns.iter().enumerate() {
        let Some(conn) = slot else { continue };
        let events = match conn.state {
            ConnState::Reading | ConnState::Closing => POLLIN,
            ConnState::Writing { .. } => POLLOUT,
            ConnState::Waiting => continue,
        };
        fds.push(PollFd {
            fd: conn.stream.as_raw_fd(),
            events,
            revents: 0,
        });
        tokens.push(token);
    }
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
    if rc <= 0 {
        // Timeout or EINTR: the caller sweeps deadlines either way.
        return ReadySet::default();
    }
    ReadySet {
        listener: fds[1].revents != 0,
        conns: tokens
            .iter()
            .zip(&fds[2..])
            .filter(|(_, f)| f.revents != 0)
            .map(|(t, _)| *t)
            .collect(),
    }
}

/// Portable fallback: tick every 2 ms and optimistically try everything
/// (nonblocking sockets make spurious attempts cheap).
#[cfg(not(unix))]
fn poll_wait(
    _waker: &Waker,
    listener: Option<&TcpListener>,
    conns: &[Option<Conn>],
    timeout_ms: i32,
) -> ReadySet {
    thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 2) as u64));
    ReadySet {
        listener: listener.is_some(),
        conns: conns
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                slot.as_ref()
                    .is_some_and(|c| !matches!(c.state, ConnState::Waiting))
            })
            .map(|(t, _)| t)
            .collect(),
    }
}

fn event_loop<H: Handler>(listener: &TcpListener, stop: &AtomicBool, ctx: &LoopCtx<H>) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    // While `accept` is failing: until when, and how many slots were
    // occupied then (one fewer means a descriptor came free).
    let mut accept_paused: Option<(Instant, usize)> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut timeout_ms = next_timeout_ms(&conns);
        if let Some((until, _)) = accept_paused {
            let remaining = until.saturating_duration_since(Instant::now()).as_millis() as i32;
            timeout_ms = timeout_ms.min(remaining.saturating_add(1));
        }
        let polled = accept_paused.is_none().then_some(listener);
        let ready = poll_wait(&ctx.completions.waker, polled, &conns, timeout_ms);
        ctx.completions.waker.drain();
        if stop.load(Ordering::SeqCst) {
            return;
        }

        // Finished handler threads first: their connections move from
        // Waiting to Writing and start draining this same iteration.
        for completion in ctx.completions.drain() {
            let Some(conn) = conns.get_mut(completion.token).and_then(Option::as_mut) else {
                continue;
            };
            if !matches!(conn.state, ConnState::Waiting) {
                continue;
            }
            conn.start_write(&completion.response, completion.keep_alive, &ctx.config);
            let disposition = drive(conn, completion.token, ctx);
            settle(&mut conns, completion.token, disposition, ctx);
        }

        if ready.listener && !accept_ready(listener, &mut conns, ctx) {
            accept_paused = Some((Instant::now() + ACCEPT_BACKOFF, occupied(&conns)));
        }

        for token in ready.conns {
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let disposition = match conn.state {
                ConnState::Reading | ConnState::Closing => handle_readable(conn, token, ctx),
                ConnState::Writing { .. } => drive(conn, token, ctx),
                ConnState::Waiting => continue,
            };
            settle(&mut conns, token, disposition, ctx);
        }

        sweep_deadlines(&mut conns, ctx);
        update_gauges(&conns, &ctx.stats);
        if accept_paused
            .is_some_and(|(until, held)| Instant::now() >= until || occupied(&conns) < held)
        {
            accept_paused = None;
        }
    }
}

/// Milliseconds until the nearest read/write deadline, capped at
/// [`MAX_POLL_WAIT_MS`].
fn next_timeout_ms(conns: &[Option<Conn>]) -> i32 {
    let now = Instant::now();
    let mut timeout = MAX_POLL_WAIT_MS;
    for conn in conns.iter().flatten() {
        if matches!(conn.state, ConnState::Waiting) {
            continue;
        }
        let remaining = conn.deadline.saturating_duration_since(now).as_millis() as i32;
        // +1 so the wake lands just past the deadline, not just before.
        timeout = timeout.min(remaining.saturating_add(1));
    }
    timeout.max(0)
}

/// Accepts the whole backlog. Returns `false` when `accept` failed with
/// anything but `WouldBlock` (typically out of descriptors), so the
/// caller backs off instead of polling a listener it cannot drain.
fn accept_ready<H>(
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    ctx: &LoopCtx<H>,
) -> bool {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => return e.kind() == std::io::ErrorKind::WouldBlock,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            state: ConnState::Reading,
            deadline: Instant::now() + ctx.config.read_timeout,
            served: 0,
        };
        if open_count(conns) >= ctx.config.max_connections {
            // Shed without reading a byte. One best-effort write: a
            // fresh socket's send buffer always has room for ~200 bytes.
            ctx.stats.shed_connections.fetch_add(1, Ordering::Relaxed);
            let err = ServiceError::Overloaded {
                queue_capacity: ctx.config.max_connections,
            };
            let bytes = response_bytes(&Response::error(&err), false, ctx.config.retry_after_secs);
            let _ = (&conn.stream).write(&bytes);
            if closing_count(conns) >= ctx.config.max_connections {
                continue; // lingering is full: drop the socket now
            }
            conn.start_close();
        } else {
            ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
        }
        match conns.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(conn),
            None => conns.push(Some(conn)),
        }
    }
}

/// Reads whatever the socket holds, then advances the state machine (a
/// closing connection's bytes are read only to be discarded).
fn handle_readable<H: Handler>(conn: &mut Conn, token: usize, ctx: &LoopCtx<H>) -> Disposition {
    let mut chunk = [0u8; 8192];
    let reading = matches!(conn.state, ConnState::Reading);
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF. Between requests it's a clean close; mid-request
                // the peer vanished with bytes outstanding.
                return Disposition::Close {
                    dropped: reading && !conn.buf.is_empty(),
                };
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break; // level-triggered poll reports any remainder
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Disposition::Close { dropped: reading },
        }
    }
    drive(conn, token, ctx)
}

/// Advances a connection's state machine as far as it will go without
/// blocking: parse → dispatch → write → (keep-alive) parse again.
fn drive<H: Handler>(conn: &mut Conn, token: usize, ctx: &LoopCtx<H>) -> Disposition {
    loop {
        match conn.state {
            ConnState::Waiting => return Disposition::Keep,
            ConnState::Closing => {
                conn.buf.clear();
                return Disposition::Keep;
            }
            ConnState::Reading => match try_parse(&conn.buf, ctx.config.max_body_bytes) {
                Parse::NeedMore => return Disposition::Keep,
                Parse::Bad(msg) => {
                    ctx.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    // Framing is unreliable after a parse failure:
                    // answer and close.
                    let err = ServiceError::InvalidSpec(msg);
                    conn.start_write(&Response::error(&err), false, &ctx.config);
                }
                Parse::TooLarge(content_length) => {
                    ctx.stats.too_large.fetch_add(1, Ordering::Relaxed);
                    let err = ServiceError::BudgetExceeded {
                        resource: "body_bytes",
                        actual: content_length as u64,
                        limit: ctx.config.max_body_bytes as u64,
                    };
                    // The unread body is still in the pipe: close.
                    conn.start_write(&Response::error(&err), false, &ctx.config);
                }
                Parse::Request { request, consumed } => {
                    conn.buf.drain(..consumed);
                    let keep_alive = request.keep_alive;
                    match ctx.handler.inline(request, &ctx.stats) {
                        Ok(response) => conn.start_write(&response, keep_alive, &ctx.config),
                        Err(deferred) => {
                            // The blocking route: park the connection and
                            // let a handler thread answer.
                            conn.state = ConnState::Waiting;
                            spawn_blocking(token, deferred, keep_alive, ctx);
                            return Disposition::Keep;
                        }
                    }
                }
            },
            ConnState::Writing { .. } => match conn.flush_some() {
                FlushResult::Pending => return Disposition::Keep,
                FlushResult::Failed => return Disposition::Close { dropped: true },
                FlushResult::Done { keep_alive } => {
                    ctx.stats.responses.fetch_add(1, Ordering::Relaxed);
                    conn.served += 1;
                    if !keep_alive {
                        return Disposition::Linger;
                    }
                    // Next request cycle: a fresh fixed read deadline,
                    // and any pipelined bytes parse immediately.
                    conn.state = ConnState::Reading;
                    conn.deadline = Instant::now() + ctx.config.read_timeout;
                }
            },
        }
    }
}

/// Applies a [`Disposition`], freeing the slot and counting drops. At
/// most `max_connections` connections linger; past that a closing socket
/// is dropped at once, so a client that never closes cannot pin
/// descriptors beyond twice the cap.
fn settle<H>(conns: &mut [Option<Conn>], token: usize, disposition: Disposition, ctx: &LoopCtx<H>) {
    match disposition {
        Disposition::Keep => {}
        Disposition::Linger => {
            if closing_count(conns) >= ctx.config.max_connections {
                conns[token] = None;
            } else if let Some(conn) = conns[token].as_mut() {
                conn.start_close();
            }
        }
        Disposition::Close { dropped } => {
            if dropped {
                ctx.stats
                    .dropped_mid_request
                    .fetch_add(1, Ordering::Relaxed);
            }
            conns[token] = None;
        }
    }
}

/// Enforces the fixed read deadline and the write deadline (disconnect).
/// A partial request, or a connection that never sent one, gets a `408`;
/// an idle keep-alive connection is closed silently, so a pooled client
/// never reads an unsolicited `408` as the answer to its next request.
/// Waiting connections are exempt: the handler's own deadlines govern.
fn sweep_deadlines<H: Handler>(conns: &mut [Option<Conn>], ctx: &LoopCtx<H>) {
    let now = Instant::now();
    for token in 0..conns.len() {
        let Some(conn) = conns[token].as_mut() else {
            continue;
        };
        if matches!(conn.state, ConnState::Waiting) || now < conn.deadline {
            continue;
        }
        if conn.is_idle() || matches!(conn.state, ConnState::Closing) {
            settle(conns, token, Disposition::Close { dropped: false }, ctx);
            continue;
        }
        match conn.state {
            ConnState::Reading => {
                ctx.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                let response = Response::error(&ServiceError::RequestTimeout);
                conn.start_write(&response, false, &ctx.config);
                let disposition = drive(conn, token, ctx);
                settle(conns, token, disposition, ctx);
            }
            ConnState::Writing { .. } => {
                settle(conns, token, Disposition::Close { dropped: true }, ctx);
            }
            ConnState::Waiting | ConnState::Closing => {}
        }
    }
}

/// Connections counted against the cap: every slot but the closing ones.
fn open_count(conns: &[Option<Conn>]) -> usize {
    occupied(conns) - closing_count(conns)
}

/// Every socket the loop holds, closing ones included.
fn occupied(conns: &[Option<Conn>]) -> usize {
    conns.iter().flatten().count()
}

fn closing_count(conns: &[Option<Conn>]) -> usize {
    conns
        .iter()
        .flatten()
        .filter(|c| matches!(c.state, ConnState::Closing))
        .count()
}

fn update_gauges(conns: &[Option<Conn>], stats: &HttpStats) {
    let open = open_count(conns) as u64;
    let idle = conns.iter().flatten().filter(|c| c.is_idle()).count() as u64;
    stats.open_connections.store(open, Ordering::Relaxed);
    stats.idle_keepalive.store(idle, Ordering::Relaxed);
    stats
        .closing_connections
        .store(closing_count(conns) as u64, Ordering::Relaxed);
}

/// What one attempt to parse the buffered bytes produced.
enum Parse {
    /// The buffer holds a prefix of a valid request; read more.
    NeedMore,
    /// A complete request; `consumed` bytes belong to it.
    Request { request: Request, consumed: usize },
    /// Broken framing or body → `400` with this message.
    Bad(String),
    /// A `Content-Length` (this one) over the cap → `413`.
    TooLarge(usize),
}

fn try_parse(buf: &[u8], max_body_bytes: usize) -> Parse {
    // Locate the blank line ending the header section without assuming
    // the bytes are UTF-8 yet.
    let mut line_start = 0;
    let mut lines: Vec<(usize, usize)> = Vec::new();
    let mut header_end = None;
    for (i, byte) in buf.iter().enumerate() {
        if *byte != b'\n' {
            continue;
        }
        let mut end = i;
        if end > line_start && buf[end - 1] == b'\r' {
            end -= 1;
        }
        if !lines.is_empty() && end == line_start {
            header_end = Some(i + 1);
            break;
        }
        lines.push((line_start, end));
        line_start = i + 1;
        if lines.len() > MAX_HEADER_LINES + 1 {
            return Parse::Bad(format!("more than {MAX_HEADER_LINES} header lines"));
        }
    }
    let Some(header_end) = header_end else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Bad(format!("header section exceeds {MAX_HEADER_BYTES} bytes"));
        }
        return Parse::NeedMore;
    };

    let Ok(request_line) = std::str::from_utf8(&buf[lines[0].0..lines[0].1]) else {
        return Parse::Bad("request line is not valid UTF-8".to_string());
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Parse::Bad("malformed request line".to_string());
    };
    let method = method.to_string();
    let path = path.to_string();

    let mut content_length: Option<Result<usize, ()>> = None;
    let mut keep_alive = true; // HTTP/1.1 default
    for &(start, end) in &lines[1..] {
        let Ok(header) = std::str::from_utf8(&buf[start..end]) else {
            return Parse::Bad("header is not valid UTF-8".to_string());
        };
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| ()));
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = match content_length {
        // Methods that carry a body must declare its length; without it
        // the framing of everything after is guesswork.
        None if method == "POST" || method == "PUT" => {
            return Parse::Bad("POST requires a Content-Length header".to_string())
        }
        None => 0,
        Some(Err(())) => {
            return Parse::Bad("Content-Length is not a non-negative integer".to_string())
        }
        Some(Ok(n)) => n,
    };
    if content_length > max_body_bytes {
        return Parse::TooLarge(content_length);
    }
    let body_end = header_end + content_length;
    if buf.len() < body_end {
        return Parse::NeedMore;
    }
    let Ok(body) = std::str::from_utf8(&buf[header_end..body_end]) else {
        return Parse::Bad("request body is not valid UTF-8".to_string());
    };
    Parse::Request {
        request: Request {
            method,
            path,
            body: body.to_string(),
            keep_alive,
        },
        consumed: body_end,
    }
}

/// Runs [`Handler::blocking`] on its own thread and hands the response
/// back through the completion queue. A panicking handler answers `500`
/// instead of leaving the connection parked forever.
fn spawn_blocking<H: Handler>(token: usize, work: H::Deferred, keep_alive: bool, ctx: &LoopCtx<H>) {
    let handler = Arc::clone(&ctx.handler);
    let stats = Arc::clone(&ctx.stats);
    let completions = Arc::clone(&ctx.completions);
    let spawned = thread::Builder::new()
        .name("si-http-handler".to_string())
        .spawn(move || {
            let response =
                std::panic::catch_unwind(AssertUnwindSafe(|| handler.blocking(work, &stats)))
                    .unwrap_or_else(|_| {
                        let err = ServiceError::Internal("request handler panicked".to_string());
                        Response::error(&err)
                    });
            completions.push(Completion {
                token,
                response,
                keep_alive,
            });
        });
    if spawned.is_err() {
        let err = ServiceError::Internal("could not spawn a request handler".to_string());
        ctx.completions.push(Completion {
            token,
            response: Response::error(&err),
            keep_alive: false,
        });
    }
}

/// The bytes [`response_bytes`] reserves for a head beyond its content
/// type.
const HEAD_RESERVE: usize = 160;

/// Frames `response`; every `503` carries `Retry-After`.
fn response_bytes(response: &Response, keep_alive: bool, retry_after_secs: u64) -> Vec<u8> {
    let status = response.status;
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One allocation: beside the content type, the head's fixed text,
    // status, reason and two integers take at most 151 bytes.
    let mut out =
        Vec::with_capacity(HEAD_RESERVE + response.content_type.len() + response.body.len());
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.content_type,
        response.body.len()
    );
    if status == 503 {
        let _ = write!(out, "Retry-After: {retry_after_secs}\r\n");
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.extend_from_slice(&response.body);
    out
}

pub(crate) fn error_body(err: &ServiceError) -> String {
    Json::Object(vec![
        ("error".to_string(), Json::String(err.code().to_string())),
        ("message".to_string(), Json::String(err.to_string())),
    ])
    .to_string_compact()
}

/// The answer both front ends give a route they do not serve.
pub(crate) fn unknown_route(method: &str) -> (u16, String) {
    match method {
        "GET" | "POST" => (
            404,
            r#"{"error":"not_found","message":"unknown route"}"#.to_string(),
        ),
        _ => (
            405,
            r#"{"error":"method_not_allowed","message":"use GET or POST"}"#.to_string(),
        ),
    }
}

/// What the service's loop hands a handler thread.
pub(crate) enum Deferred {
    /// A decoded job the memory tier could not answer.
    Job {
        spec: JobSpec,
        deadline: Option<Duration>,
    },
    /// The body of a `POST /v1/warm`.
    Warm(String),
}

/// The service's routes: memory-tier hits, lookups, the cache endpoint,
/// and the probes answer on the loop; job misses and warm pulls block.
impl Handler for SiService {
    type Deferred = Deferred;

    fn inline(&self, request: Request, http: &HttpStats) -> Result<Response, Deferred> {
        let path = request.path.as_str();
        let (status, body) = match (request.method.as_str(), path) {
            ("POST", "/v1/jobs") => return post_job(&request.body, self),
            ("POST", "/v1/warm") => return Err(Deferred::Warm(request.body)),
            ("GET", _) if path.starts_with("/v1/cache/") => {
                return Ok(cache_entry(&path["/v1/cache/".len()..], self))
            }
            ("GET", "/metrics") => (200, metrics_with_http(self.metrics(), http)),
            ("GET", "/healthz") => (200, r#"{"status":"ok"}"#.to_string()),
            ("GET", "/readyz") => {
                // Liveness ≠ readiness: the loop answering at all proves
                // the process is up; this verdict says whether a router
                // should *send jobs* here. 503 lets probes distinguish the
                // two with the status code alone.
                let status = if self.is_ready() { 200 } else { 503 };
                (status, self.readiness().to_string_compact())
            }
            ("GET", _) if path.starts_with("/v1/jobs/") => {
                get_job(&path["/v1/jobs/".len()..], self)
            }
            (method, _) => unknown_route(method),
        };
        Ok(Response::json(status, body))
    }

    fn blocking(&self, deferred: Deferred, _http: &HttpStats) -> Response {
        match deferred {
            Deferred::Job { spec, deadline } => match self.submit(&spec, deadline) {
                Ok((key, out, cached)) => job_answer(key, &spec, cached, &out),
                Err(err) => Response::error(&err),
            },
            Deferred::Warm(body) => warm_job(&body, self),
        }
    }
}

/// `POST /v1/jobs` on the loop: decode once, then answer a body that
/// does not decode, or a job the memory tier holds (by lookup only, see
/// [`SiService::serve_cached`]); any other job goes to a handler thread
/// with its decoded spec and deadline.
fn post_job(body: &str, service: &SiService) -> Result<Response, Deferred> {
    let (spec, deadline) = match decode_job(body) {
        Ok(decoded) => decoded,
        Err(err) => return Ok(Response::error(&err)),
    };
    match service.serve_hit(&spec) {
        Some((key, out)) => Ok(job_answer(key, &spec, true, &out)),
        None => Err(Deferred::Job { spec, deadline }),
    }
}

/// Decodes a `POST /v1/jobs` body into its job spec and its optional
/// `"timeout_ms"` deadline (absent or not positive: none). A deadline no
/// `Duration` or `Instant` can hold is an invalid spec.
pub(crate) fn decode_job(body: &str) -> Result<(JobSpec, Option<Duration>), ServiceError> {
    let parsed = json::parse(body)
        .map_err(|msg| ServiceError::InvalidSpec(format!("body is not JSON: {msg}")))?;
    let spec = JobSpec::from_json(&parsed)?;
    let out_of_range = || ServiceError::InvalidSpec("\"timeout_ms\" is out of range".to_string());
    let deadline = match parsed.get("timeout_ms").and_then(Json::as_f64) {
        Some(ms) if ms > 0.0 => {
            let d = Duration::try_from_secs_f64(ms / 1000.0).map_err(|_| out_of_range())?;
            Instant::now().checked_add(d).ok_or_else(out_of_range)?;
            Some(d)
        }
        _ => None,
    };
    Ok((spec, deadline))
}

/// The `200` body of a job whose key the service already derived.
fn job_answer(key: u64, spec: &JobSpec, cached: bool, out: &JobOutput) -> Response {
    let id = SiService::id_of(key);
    Response::json(200, job_response_string(&id, spec.kind(), cached, out))
}

/// `GET /v1/cache/:key`: the sending half of the warming protocol. Only
/// checksummed-valid entries leave the process — `read_validated`
/// quarantines anything torn or corrupt (counted in `corrupt_evicted`)
/// and the response degrades to a 404, so a peer can trust every byte it
/// ingests. The one binary route.
fn cache_entry(id: &str, service: &SiService) -> Response {
    let Some(key) = SiService::parse_job_id(id) else {
        let err = ServiceError::InvalidSpec("cache keys are 16 hex digits".to_string());
        return Response::error(&err);
    };
    match service.disk_cache().and_then(|d| d.read_validated(key)) {
        Some(bytes) => Response {
            status: 200,
            body: bytes,
            content_type: "application/octet-stream",
        },
        None => Response::json(
            404,
            r#"{"error":"not_found","message":"no valid cache entry for key"}"#,
        ),
    }
}

/// `POST /v1/warm`: `{"peer":"host:port","keys":["16-hex",…]}` makes
/// this replica pull the listed entries from `peer`'s cache endpoint
/// into its own disk tier. Warming is best-effort — the response reports
/// `pulled`/`failed` and a failed key just re-solves locally later.
fn warm_job(body: &str, service: &SiService) -> Response {
    let invalid = |msg: &str| Response::error(&ServiceError::InvalidSpec(msg.to_string()));
    let Ok(parsed) = json::parse(body) else {
        return invalid("body is not JSON");
    };
    let Some(peer) = parsed.get("peer").and_then(Json::as_str) else {
        return invalid("missing \"peer\" (host:port)");
    };
    let Some(Json::Array(items)) = parsed.get("keys") else {
        return invalid("missing \"keys\" array");
    };
    let mut keys = Vec::with_capacity(items.len());
    for item in items {
        let Some(key) = item.as_str().and_then(SiService::parse_job_id) else {
            return invalid("keys must be 16-hex-digit job keys");
        };
        keys.push(key);
    }
    let (pulled, failed) = service.warm_from_peer(peer, &keys);
    let body = Json::Object(vec![
        ("pulled".to_string(), Json::Number(pulled as f64)),
        ("failed".to_string(), Json::Number(failed as f64)),
    ])
    .to_string_compact();
    Response::json(200, body)
}

fn get_job(id: &str, service: &SiService) -> (u16, String) {
    let Some(key) = SiService::parse_job_id(id) else {
        let err = ServiceError::InvalidSpec("job ids are 16 hex digits".to_string());
        return (err.http_status(), error_body(&err));
    };
    match service.lookup(key) {
        Some((kind, Some(out))) => (200, job_response_string(id, kind, true, &out)),
        // A key with a live single-flight leader is *running*, not
        // missing: answer 202 with a typed pending body so pollers can
        // tell "come back later" from "you never submitted this".
        // Streaming jobs enrich the body with per-chunk progress.
        Some((kind, None)) if service.in_flight(key) => {
            let mut pairs = vec![
                ("id".to_string(), Json::String(id.to_string())),
                ("kind".to_string(), Json::String(kind.to_string())),
                ("status".to_string(), Json::String("running".to_string())),
            ];
            if let Some((done, total)) = service.progress(key) {
                pairs.push(("chunks_done".to_string(), Json::Number(done as f64)));
                pairs.push(("chunks_total".to_string(), Json::Number(total as f64)));
            }
            (202, Json::Object(pairs).to_string_compact())
        }
        Some((kind, None)) => (
            404,
            Json::Object(vec![
                ("error".to_string(), Json::String("not_ready".to_string())),
                ("kind".to_string(), Json::String(kind.to_string())),
            ])
            .to_string_compact(),
        ),
        None => (
            404,
            r#"{"error":"not_found","message":"unknown job id"}"#.to_string(),
        ),
    }
}

/// The workspace's HTTP/1.1 client: router forwarding, probes, metrics
/// scrapes, replica warm pulls, the load and chaos harnesses, and the
/// tests all use it.
///
/// Every request runs under one **hard deadline** — connect, write, and
/// read together, fixed when the request starts — so a dead or dripping
/// peer can never hold a caller past it. A client built with
/// [`HttpClient::keep_alive`] keeps a stack of idle connections (at most
/// `max_idle`) and reuses them; a reused connection that fails before
/// the first response byte (the peer closed it while idle) is retried
/// once on a fresh connection. Without it, every request opens a fresh
/// `Connection: close` connection.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    max_idle: usize,
    idle: Mutex<Vec<TcpStream>>,
}

impl HttpClient {
    /// A one-shot client for `addr` with a 60 s deadline per request.
    #[must_use]
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            timeout: Duration::from_secs(60),
            max_idle: 0,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Sets the per-request deadline.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> HttpClient {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Reuses connections, keeping at most `max_idle` idle ones.
    #[must_use]
    pub fn keep_alive(mut self, max_idle: usize) -> HttpClient {
        self.max_idle = max_idle;
        self
    }

    /// Sends one request and returns the status and the raw body.
    ///
    /// # Errors
    ///
    /// Socket errors, `TimedOut` past the deadline, and `InvalidData`
    /// for a malformed response.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let deadline = Instant::now() + self.timeout;
        let body = body.unwrap_or("");
        let connection = if self.max_idle > 0 {
            "keep-alive"
        } else {
            "close"
        };
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: si-service\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reused = lock_recover(&self.idle).pop();
        if let Some(stream) = reused {
            let mut response = Vec::new();
            match self.exchange(stream, message.as_bytes(), deadline, &mut response) {
                // Closed while idle: one retry on a fresh connection.
                Err(_) if response.is_empty() => {}
                result => return result,
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, remaining(deadline)?)?;
        stream.set_nodelay(true)?;
        self.exchange(stream, message.as_bytes(), deadline, &mut Vec::new())
    }

    /// [`HttpClient::request`] for a text body.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`]; a non-UTF-8 body is `InvalidData`.
    pub fn request_text(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let (status, bytes) = self.request(method, path, body)?;
        let text = String::from_utf8(bytes).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response body")
        })?;
        Ok((status, text))
    }

    /// Writes `message` and reads one `Content-Length`-framed response
    /// into `buf` (which shows the caller whether any byte arrived), then
    /// returns the stream to the idle stack if the peer keeps it open.
    fn exchange(
        &self,
        mut stream: TcpStream,
        message: &[u8],
        deadline: Instant,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut sent = 0;
        while sent < message.len() {
            stream.set_write_timeout(Some(remaining(deadline)?))?;
            match stream.write(&message[sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        // Each read scans only the bytes it added (plus three, for a
        // terminator split across reads), and the head is capped like a
        // request's, so a peer that never ends its headers costs linear
        // work and bounded memory, not a rescan per read until the
        // deadline.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + pos + 4;
            }
            if buf.len() > MAX_HEADER_BYTES {
                return Err(bad());
            }
            scanned = buf.len().saturating_sub(3);
            read_some(&mut stream, buf, deadline)?;
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad())?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let (mut length, mut close) = (None, false);
        for (name, value) in head.lines().filter_map(|line| line.split_once(':')) {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let body_end = head_end + length.ok_or_else(bad)?;
        while buf.len() < body_end {
            read_some(&mut stream, buf, deadline)?;
        }
        // Bytes past the body mean broken framing: never reuse those.
        if !close && buf.len() == body_end {
            let mut idle = lock_recover(&self.idle);
            if idle.len() < self.max_idle {
                idle.push(stream);
            }
        }
        Ok((status, buf[head_end..body_end].to_vec()))
    }
}

/// One read into `buf` under the deadline; EOF is `UnexpectedEof`.
fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>, deadline: Instant) -> std::io::Result<()> {
    let mut chunk = [0u8; 8192];
    loop {
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Time left before `deadline`, or `TimedOut` once it has passed.
fn remaining(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err(std::io::ErrorKind::TimedOut.into())
    } else {
        Ok(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use crate::service::ServiceConfig;
    use std::io::{BufRead, BufReader};

    fn serve() -> HttpServer {
        serve_with(HttpConfig::default())
    }

    fn serve_with(config: HttpConfig) -> HttpServer {
        let service = Arc::new(SiService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        HttpServer::bind_with("127.0.0.1:0", service, config).expect("bind loopback")
    }

    /// One request on a fresh connection; the text answer.
    fn call(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        HttpClient::new(addr)
            .request_text(method, path, body)
            .expect("request")
    }

    /// A response is framed in the one buffer it reserves, with the
    /// head the `format!`-then-append framing wrote, for the longest
    /// status line and retry value.
    #[test]
    fn response_bytes_frames_in_one_allocation() {
        for (status, keep_alive, retry) in [(200, true, 1), (499, false, 7), (503, true, u64::MAX)]
        {
            let response = Response::json(status, "{\"a\":1}".repeat(300));
            let framed = response_bytes(&response, keep_alive, retry);
            let head = String::from_utf8_lossy(&framed[..framed.len() - response.body.len()]);
            let retry_line = if status == 503 {
                format!("Retry-After: {retry}\r\n")
            } else {
                String::new()
            };
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let reason = if status == 499 {
                "Client Closed Request"
            } else if status == 503 {
                "Service Unavailable"
            } else {
                "OK"
            };
            assert_eq!(
                head,
                format!(
                    "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: 2100\r\n{retry_line}Connection: {connection}\r\n\r\n"
                )
            );
            assert!(framed.ends_with(&response.body));
            assert_eq!(
                framed.capacity(),
                HEAD_RESERVE + response.content_type.len() + response.body.len(),
                "the buffer grew"
            );
        }
    }

    /// A peer that never ends its response head costs the client one
    /// linear scan: `InvalidData` once the head passes
    /// `MAX_HEADER_BYTES`, not a rescan per read until the deadline.
    #[test]
    fn client_refuses_an_endless_response_head() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut head = b"HTTP/1.1 200 OK\r\n".to_vec();
            while head.len() < 4 * MAX_HEADER_BYTES {
                head.extend_from_slice(b"X-Pad: xxxxxxxxxxxxxxxxxxxxxxxx\r\n");
            }
            let _ = stream.write_all(&head);
            // Hold the connection open until the client gives up.
            let mut sink = [0u8; 4096];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        });
        let start = Instant::now();
        let err = HttpClient::new(addr)
            .timeout(Duration::from_secs(10))
            .request("GET", "/healthz", None)
            .expect_err("a head without an end is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        peer.join().expect("peer thread");
    }

    /// A front end under test: the service itself, or a router over one
    /// default-configured replica. Both run the same event loop, so the
    /// listener hardening tests run against each.
    enum Front {
        Service(HttpServer),
        Router {
            router: EventLoop,
            _replica: HttpServer,
        },
    }

    impl Front {
        fn addr(&self) -> SocketAddr {
            match self {
                Front::Service(server) => server.local_addr(),
                Front::Router { router, .. } => router.addr,
            }
        }

        fn stats(&self) -> &HttpStats {
            match self {
                Front::Service(server) => server.http_stats(),
                Front::Router { router, .. } => &router.stats,
            }
        }

        fn name(&self) -> &'static str {
            match self {
                Front::Service(_) => "service",
                Front::Router { .. } => "router",
            }
        }
    }

    /// Both front ends, each listening with `config`.
    fn fronts(config: HttpConfig) -> [Front; 2] {
        let replica = serve();
        let router = Router::new(RouterConfig {
            replicas: vec![replica.local_addr().to_string()],
            ..RouterConfig::default()
        })
        .expect("router over the replica");
        let router =
            EventLoop::start("127.0.0.1:0", Arc::new(router), config).expect("bind router");
        [
            Front::Service(serve_with(config)),
            Front::Router {
                router,
                _replica: replica,
            },
        ]
    }

    #[test]
    fn health_and_404() {
        let mut server = serve();
        let addr = server.local_addr();
        let (status, body) = call(addr, "GET", "/healthz", None);
        assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
        let (status, _) = call(addr, "GET", "/nope", None);
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn post_then_get_round_trip() {
        let mut server = serve();
        let addr = server.local_addr();
        let spec = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let (status, body) = call(addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("cached"), Some(&Json::Bool(false)));
        let id = parsed.get("id").unwrap().as_str().unwrap().to_string();

        // Second POST of the same spec: served from cache.
        let (_, body2) = call(addr, "POST", "/v1/jobs", Some(spec));
        let parsed2 = json::parse(&body2).unwrap();
        assert_eq!(parsed2.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(parsed2.get("values"), parsed.get("values"));

        // GET by id finds the cached job.
        let (status, got) = call(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "{got}");
        // Metrics reflect one miss and one hit, and carry the listener
        // section.
        let (_, metrics) = call(addr, "GET", "/metrics", None);
        let m = json::parse(&metrics).unwrap();
        assert_eq!(
            m.get("cache").unwrap().get("hits").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(m.get("http").is_some(), "metrics missing http section");
        server.shutdown();
    }

    /// ISSUE 6: a batch spec rides the same `POST /v1/jobs` wire — one
    /// submission, one id, per-scenario values concatenated in the body,
    /// and the batch counters visible in `/metrics`.
    #[test]
    fn batch_job_posts_as_one_submission() {
        let mut server = serve();
        let addr = server.local_addr();
        let spec =
            r#"{"kind":"delay_line_dc_batch","stages":3,"bias_ua":20,"inputs_ua":[0.5,1,2]}"#;
        let (status, body) = call(addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("kind").unwrap().as_str(),
            Some("delay_line_dc_batch")
        );
        // 3 scenarios × 3 stage nodes, scenario-major.
        assert_eq!(parsed.get("n_values").unwrap().as_f64(), Some(9.0));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.get("scenarios").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            metrics.get("values_per_scenario").unwrap().as_f64(),
            Some(3.0)
        );
        let (_, m) = call(addr, "GET", "/metrics", None);
        let m = json::parse(&m).unwrap();
        let service = m.get("service").unwrap();
        assert_eq!(service.get("batch_submitted").unwrap().as_f64(), Some(1.0));
        assert_eq!(service.get("batch_scenarios").unwrap().as_f64(), Some(3.0));
        server.shutdown();
    }

    /// A follower's `timeout_ms` holds while it waits on another
    /// request's flight: the leader's only execution stalls 400 ms, and a
    /// follower asking for 30 ms gets its `504` well before that, while
    /// the leader still gets its `200`.
    #[test]
    fn follower_past_its_timeout_is_504() {
        let service = Arc::new(SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        service.install_fault_injector(Arc::new(crate::fault::FaultInjector::new(
            crate::fault::FaultPlan {
                seed: 0,
                panic_pm: 0,
                stall_pm: 1000,
                transient_pm: 0,
                drop_pm: 0,
                panic_mid_chunk_pm: 0,
                stall: Duration::from_millis(400),
                max_faults: 1,
            },
        )));
        let mut server =
            HttpServer::bind_with("127.0.0.1:0", Arc::clone(&service), HttpConfig::default())
                .expect("bind loopback");
        let addr = server.local_addr();
        let spec = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1.75}"#;
        let key = JobSpec::from_json(&json::parse(spec).unwrap())
            .unwrap()
            .job_key();
        let leader = thread::spawn(move || call(addr, "POST", "/v1/jobs", Some(spec)));
        while !service.in_flight(key) {
            thread::sleep(Duration::from_millis(1));
        }
        let follower =
            r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1.75,"timeout_ms":30}"#;
        let started = Instant::now();
        let (status, body) = call(addr, "POST", "/v1/jobs", Some(follower));
        let waited = started.elapsed();
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline_exceeded"), "{body}");
        assert!(
            waited < Duration::from_millis(200),
            "follower waited {waited:?}"
        );
        let (status, body) = leader.join().unwrap();
        assert_eq!(status, 200, "{body}");
        let m = service.metrics();
        let counter =
            |section: &str, name: &str| m.get(section).unwrap().get(name).unwrap().as_f64();
        assert_eq!(counter("cache", "coalesced"), Some(1.0));
        assert_eq!(counter("service", "deadline_exceeded"), Some(1.0));
        server.shutdown();
    }

    /// ISSUE 10 satellite: polling a job whose single-flight leader is
    /// still computing answers `202 Accepted` with a typed pending body
    /// (with per-chunk progress for streams), not the `404` it used to
    /// share with never-submitted ids. Unknown ids still get `404`.
    #[test]
    fn polling_in_flight_job_gets_202_with_progress() {
        let service = Arc::new(SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        // Stall every per-chunk fault draw 20 ms so the job is observably
        // in flight while we poll.
        service.install_fault_injector(Arc::new(crate::fault::FaultInjector::new(
            crate::fault::FaultPlan {
                seed: 0,
                panic_pm: 0,
                stall_pm: 1000,
                transient_pm: 0,
                drop_pm: 0,
                panic_mid_chunk_pm: 0,
                stall: Duration::from_millis(20),
                max_faults: u64::MAX,
            },
        )));
        let mut server =
            HttpServer::bind_with("127.0.0.1:0", Arc::clone(&service), HttpConfig::default())
                .expect("bind loopback");
        let addr = server.local_addr();
        let spec = JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps: 900,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps: 128,
            seg_len: 256,
        };
        let id = SiService::job_id(&spec);
        let body = spec.to_json().to_string_compact();

        // Truly unknown key: 404 with the not_found body.
        let (status, missing) = call(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 404);
        assert!(missing.contains("not_found"), "{missing}");

        let poster = std::thread::spawn(move || call(addr, "POST", "/v1/jobs", Some(&body)));
        let mut pending_with_progress = None;
        for _ in 0..2000 {
            let (status, got) = call(addr, "GET", &format!("/v1/jobs/{id}"), None);
            if status == 202 {
                let parsed = json::parse(&got).unwrap();
                assert_eq!(parsed.get("status").unwrap().as_str(), Some("running"));
                assert_eq!(parsed.get("kind").unwrap().as_str(), Some("tran_stream"));
                if parsed.get("chunks_total").is_some() {
                    pending_with_progress = Some(parsed);
                    break;
                }
            } else if status == 200 {
                break; // raced past completion without seeing progress
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let pending = pending_with_progress.expect("never observed a 202 with chunk progress");
        assert_eq!(pending.get("chunks_total").unwrap().as_f64(), Some(8.0));
        assert!(pending.get("chunks_done").unwrap().as_f64().unwrap() < 8.0);

        let (status, _) = poster.join().unwrap();
        assert_eq!(status, 200);
        // Done: polling now serves the finished job.
        let (status, done) = call(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "{done}");
        server.shutdown();
    }

    #[test]
    fn invalid_bodies_get_400() {
        let mut server = serve();
        let addr = server.local_addr();
        let (status, _) = call(addr, "POST", "/v1/jobs", Some("not json"));
        assert_eq!(status, 400);
        let (status, _) = call(addr, "POST", "/v1/jobs", Some(r#"{"kind":"mystery"}"#));
        assert_eq!(status, 400);
        let bad_range = r#"{"kind":"delay_line_dc","stages":0,"bias_ua":20,"input_ua":1}"#;
        let (status, _) = call(addr, "POST", "/v1/jobs", Some(bad_range));
        assert_eq!(status, 400);
        let overflow = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":1e999,"input_ua":1}"#;
        let (status, _) = call(addr, "POST", "/v1/jobs", Some(overflow));
        assert_eq!(status, 400);
        server.shutdown();
    }

    /// Writes `raw` verbatim and returns the status line's code, if any
    /// response arrives at all.
    fn raw_request(addr: SocketAddr, raw: &[u8]) -> Option<u16> {
        raw_response(addr, raw)?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }

    /// Writes `raw` verbatim and returns the whole response, if any.
    fn raw_response(addr: SocketAddr, raw: &[u8]) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        stream.write_all(raw).ok()?;
        stream.flush().ok()?;
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response).ok()?;
        Some(response)
    }

    /// Regression (ISSUE 5): a POST with no `Content-Length` used to be
    /// parsed as a zero-length body; now it is a typed `400`.
    #[test]
    fn post_without_content_length_is_400() {
        for front in fronts(HttpConfig::default()) {
            let status = raw_request(
                front.addr(),
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            );
            assert_eq!(status, Some(400), "{}", front.name());
            assert_eq!(
                front.stats().bad_requests.load(Ordering::Relaxed),
                1,
                "{}",
                front.name()
            );
        }
    }

    /// Regression (ISSUE 5): garbage `Content-Length` used to be treated
    /// as zero; now it is a typed `400`.
    #[test]
    fn garbage_content_length_is_400() {
        for front in fronts(HttpConfig::default()) {
            let status = raw_request(
                front.addr(),
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: banana\r\nConnection: close\r\n\r\n",
            );
            assert_eq!(status, Some(400), "{}", front.name());
            let status = raw_request(
                front.addr(),
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -3\r\nConnection: close\r\n\r\n",
            );
            assert_eq!(status, Some(400), "{}", front.name());
        }
    }

    /// A `POST /v1/jobs` body of 20,000 `[` (20 KB, far under the body
    /// cap) used to overflow the stack of the thread decoding it, which
    /// aborts the whole process; a `timeout_ms` past what a `Duration`
    /// (`1e300`) or an `Instant` (`1e22`) holds panicked its handler.
    /// Both front ends now answer a typed `400` and keep serving, and
    /// every document they emit still parses under the nesting cap.
    #[test]
    fn deeply_nested_body_is_400() {
        let nested = "[".repeat(20_000);
        let spec = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let timeout = |ms: &str| {
            format!(
                r#"{{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1,"timeout_ms":{ms}}}"#
            )
        };
        let cases = [
            (nested, "nesting deeper than"),
            (timeout("1e300"), "timeout_ms"),
            (timeout("1e22"), "timeout_ms"),
        ];
        for front in fronts(HttpConfig::default()) {
            for (bad, message) in &cases {
                let (status, body) = call(front.addr(), "POST", "/v1/jobs", Some(bad));
                assert_eq!(status, 400, "{}: {body}", front.name());
                assert!(
                    body.contains("invalid_spec") && body.contains(message),
                    "{}: {body}",
                    front.name()
                );
            }
            for (method, path, body) in [
                ("GET", "/healthz", None),
                ("GET", "/readyz", None),
                ("POST", "/v1/jobs", Some(spec)),
                ("GET", "/metrics", None),
            ] {
                let (status, answer) = call(front.addr(), method, path, body);
                assert_eq!(status, 200, "{} {path}: {answer}", front.name());
                assert!(
                    json::parse(&answer).is_ok(),
                    "{} {path}: {answer}",
                    front.name()
                );
            }
        }
    }

    /// Regression (ISSUE 5): an oversized `Content-Length` used to close
    /// the socket silently; now it is a typed `413` sent before any body
    /// byte is read. Its code is `budget_exceeded` on `body_bytes`, not
    /// `invalid_spec`, whose own status is 400.
    #[test]
    fn oversized_body_is_413() {
        for front in fronts(HttpConfig {
            max_body_bytes: 64,
            ..HttpConfig::default()
        }) {
            let response = raw_response(
                front.addr(),
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1048576\r\nConnection: close\r\n\r\n",
            )
            .unwrap_or_default();
            let (head, body) = response.split_once("\r\n\r\n").unwrap_or_default();
            assert!(
                head.starts_with("HTTP/1.1 413 "),
                "{}: {head}",
                front.name()
            );
            assert_eq!(
                ServiceError::from_wire(413, body),
                ServiceError::BudgetExceeded {
                    resource: "body_bytes",
                    actual: 0,
                    limit: 0,
                },
                "{}",
                front.name()
            );
            assert!(body.contains("body_bytes 1048576 over limit 64"), "{body}");
            assert_eq!(
                front.stats().too_large.load(Ordering::Relaxed),
                1,
                "{}",
                front.name()
            );
        }
    }

    /// Regression (ISSUE 5): a slow client that never finishes its body
    /// gets a typed `408` when the read deadline expires.
    #[test]
    fn truncated_body_past_timeout_is_408() {
        for front in fronts(HttpConfig {
            read_timeout: Duration::from_millis(100),
            ..HttpConfig::default()
        }) {
            // Promise 100 bytes, send 5, keep the socket open.
            let response = raw_response(
                front.addr(),
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\nConnection: close\r\n\r\nhello",
            )
            .unwrap_or_default();
            let (head, body) = response.split_once("\r\n\r\n").unwrap_or_default();
            assert!(
                head.starts_with("HTTP/1.1 408 "),
                "{}: {head}",
                front.name()
            );
            // A timeout reads back as itself, which a client may retry.
            assert_eq!(
                ServiceError::from_wire(408, body),
                ServiceError::RequestTimeout,
                "{}: {body}",
                front.name()
            );
            assert_eq!(
                front.stats().timeouts.load(Ordering::Relaxed),
                1,
                "{}",
                front.name()
            );
        }
    }

    /// ISSUE 8 satellite (slowloris): the read deadline is fixed when the
    /// request cycle starts. A client trickling header bytes — each gap
    /// well under the old per-read timeout — used to reset the timer
    /// every byte and hold its slot indefinitely; now it gets `408` when
    /// the fixed deadline lapses, while the drip is still in progress.
    #[test]
    fn slowloris_drip_hits_fixed_deadline() {
        for front in fronts(HttpConfig {
            read_timeout: Duration::from_millis(300),
            ..HttpConfig::default()
        }) {
            let started = Instant::now();
            let stream = TcpStream::connect(front.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // Drip one byte every 25 ms from a second thread — far faster
            // than the 300 ms timeout, so a per-read timer would never fire.
            let drip = {
                let stream = stream.try_clone().unwrap();
                thread::spawn(move || {
                    let raw = b"POST /v1/jobs HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
                    for byte in raw {
                        if (&stream).write_all(&[*byte]).is_err() {
                            return; // server closed on us: exactly the point
                        }
                        thread::sleep(Duration::from_millis(25));
                    }
                })
            };
            let mut response = String::new();
            BufReader::new(&stream).read_to_string(&mut response).ok();
            let elapsed = started.elapsed();
            drip.join().unwrap();
            assert!(
                response.starts_with("HTTP/1.1 408"),
                "{}: expected 408, got: {response:?}",
                front.name()
            );
            assert!(
                elapsed < Duration::from_millis(1600),
                "{}: 408 must arrive near the fixed deadline, took {elapsed:?}",
                front.name()
            );
            assert_eq!(
                front.stats().timeouts.load(Ordering::Relaxed),
                1,
                "{}",
                front.name()
            );
        }
    }

    /// ISSUE 8: one connection serves several requests back-to-back
    /// (keep-alive) and even pipelined ones, with no thread parked on it
    /// in between.
    #[test]
    fn keep_alive_and_pipelined_requests_share_one_connection() {
        let read_one = |reader: &mut BufReader<TcpStream>| -> (u16, String) {
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            (status, String::from_utf8(body).unwrap())
        };
        for front in fronts(HttpConfig::default()) {
            let mut stream = TcpStream::connect(front.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            // Two sequential keep-alive requests.
            write!(stream, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
            assert_eq!(read_one(&mut reader).0, 200, "{}", front.name());
            write!(stream, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
            assert_eq!(read_one(&mut reader).0, 200, "{}", front.name());
            // Two pipelined in a single write.
            write!(
                stream,
                "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            )
            .unwrap();
            assert_eq!(read_one(&mut reader).0, 200, "{}", front.name());
            let (status, metrics) = read_one(&mut reader);
            assert_eq!(status, 200, "{}", front.name());
            // All four responses rode one accepted connection.
            let m = json::parse(&metrics).unwrap();
            assert_eq!(
                m.get("http").unwrap().get("accepted").unwrap().as_f64(),
                Some(1.0),
                "{}",
                front.name()
            );
        }
    }

    /// ISSUE 8: idle keep-alive connections are visible as gauges — a
    /// poll-set slot each, not a thread each.
    #[test]
    fn idle_keepalive_connections_are_gauged() {
        let mut server = serve_with(HttpConfig {
            read_timeout: Duration::from_secs(60),
            ..HttpConfig::default()
        });
        let addr = server.local_addr();
        // Three clients each complete one request and then sit idle.
        let mut idlers = Vec::new();
        for _ in 0..3 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            write!(stream, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
            let mut first = [0u8; 12];
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            reader.read_exact(&mut first).unwrap(); // "HTTP/1.1 200"
            idlers.push((stream, reader));
        }
        // Poll metrics until the gauges settle.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut open, mut idle) = (0.0, 0.0);
        while Instant::now() < deadline {
            let (_, metrics) = call(addr, "GET", "/metrics", None);
            let m = json::parse(&metrics).unwrap();
            let http = m.get("http").unwrap();
            open = http.get("open_connections").unwrap().as_f64().unwrap();
            idle = http.get("idle_keepalive").unwrap().as_f64().unwrap();
            if idle >= 3.0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(idle >= 3.0, "idle_keepalive gauge stuck at {idle}");
        assert!(open >= 3.0, "open_connections gauge stuck at {open}");
        drop(idlers);
        server.shutdown();
    }

    /// Regression (ISSUE 5): a client dropping its connection mid-body is
    /// counted and cleaned up, never wedging a worker.
    #[test]
    fn dropped_mid_body_is_counted() {
        let mut server = serve();
        let addr = server.local_addr();
        let body = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        // Promise the whole body, send half, hang up.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            &body[..body.len() / 2]
        )
        .unwrap();
        drop(stream);
        // The drop is asynchronous; poll the counter briefly.
        let mut dropped = 0;
        for _ in 0..200 {
            dropped = server
                .http_stats()
                .dropped_mid_request
                .load(Ordering::Relaxed);
            if dropped > 0 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dropped, 1);
        // The server still answers.
        let (status, _) = call(addr, "GET", "/healthz", None);
        assert_eq!(status, 200);
        server.shutdown();
    }

    /// Regression (ISSUE 5): connections beyond the cap are shed with
    /// `503` + `Retry-After` instead of occupying poll slots unboundedly.
    #[test]
    fn connection_cap_sheds_with_503() {
        for front in fronts(HttpConfig {
            max_connections: 1,
            retry_after_secs: 7,
            // Keep the held connection parked (and its slot occupied)
            // for the whole probing window.
            read_timeout: Duration::from_secs(120),
            ..HttpConfig::default()
        }) {
            let addr = front.addr();
            // Hold one connection open (no request yet) to occupy the
            // cap, and wait until the loop has registered it.
            let held = TcpStream::connect(addr).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while front.stats().accepted.load(Ordering::Relaxed) == 0 {
                assert!(Instant::now() < deadline, "held connection never accepted");
                thread::sleep(Duration::from_millis(5));
            }
            // Generous fresh deadline: under a fully loaded test machine
            // the loop can be starved for seconds at a time.
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut shed = None;
            while Instant::now() < deadline {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                    .unwrap();
                let mut response = String::new();
                if BufReader::new(stream).read_to_string(&mut response).is_ok() {
                    if let Some(code) = response.split_whitespace().nth(1) {
                        if code == "503" {
                            assert!(
                                response.contains("Retry-After: 7"),
                                "{}: 503 without Retry-After: {response}",
                                front.name()
                            );
                            shed = Some(());
                            break;
                        }
                    }
                }
                thread::sleep(Duration::from_millis(10));
            }
            assert!(
                shed.is_some(),
                "{}: cap of 1 never shed a connection",
                front.name()
            );
            assert!(front.stats().shed_connections.load(Ordering::Relaxed) >= 1);
            drop(held);
        }
    }

    /// Lingering after an answer is bounded: clients that never close,
    /// whether shed at the cap or answered with `Connection: close`, pin
    /// at most `max_connections` closing sockets; the rest are dropped at
    /// once.
    #[test]
    fn lingering_connections_stay_bounded() {
        const FLOOD: u64 = 32;
        for front in fronts(HttpConfig {
            max_connections: 1,
            read_timeout: Duration::from_secs(120),
            ..HttpConfig::default()
        }) {
            let stats = front.stats();
            // Polls `done`, checking both bounds at every sample.
            let wait_for = |what: &str, done: &dyn Fn() -> bool| {
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    let closing = stats.closing_connections.load(Ordering::Relaxed);
                    assert!(
                        closing <= 1,
                        "{}: {closing} closing connections under a cap of 1",
                        front.name()
                    );
                    assert!(stats.open_connections.load(Ordering::Relaxed) <= 1);
                    if done() {
                        return;
                    }
                    assert!(Instant::now() < deadline, "{}: {what}", front.name());
                    thread::sleep(Duration::from_millis(2));
                }
            };
            // Shed path: one held connection fills the cap, the flood is
            // shed with 503s and never closed from this side.
            let held = TcpStream::connect(front.addr()).unwrap();
            wait_for("held connection never accepted", &|| {
                stats.accepted.load(Ordering::Relaxed) >= 1
            });
            let mut clients: Vec<TcpStream> = (0..FLOOD)
                .map(|_| TcpStream::connect(front.addr()).unwrap())
                .collect();
            wait_for("flood never shed", &|| {
                stats.shed_connections.load(Ordering::Relaxed) >= FLOOD
            });
            // Close path: each request asks for `Connection: close`, and
            // the client keeps its end open after the answer.
            drop(held);
            wait_for("held connection never closed", &|| {
                stats.open_connections.load(Ordering::Relaxed) == 0
            });
            for answered in 1..=8 {
                let mut stream = TcpStream::connect(front.addr()).unwrap();
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                    .unwrap();
                clients.push(stream);
                wait_for("close answer never written", &|| {
                    stats.responses.load(Ordering::Relaxed) >= answered
                });
            }
            let settled = Instant::now() + Duration::from_millis(20);
            wait_for("gauges never settled", &|| Instant::now() >= settled);
            drop(clients);
        }
    }

    /// ISSUE 9 satellite: `/healthz` is liveness, `/readyz` is readiness.
    /// Draining the pool flips `/readyz` to 503 while `/healthz` (and the
    /// event loop) stay up — exactly the split the router probes on.
    #[test]
    fn readyz_splits_from_healthz() {
        let service = Arc::new(SiService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        let mut server =
            HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        let addr = server.local_addr();
        let (status, body) = call(addr, "GET", "/readyz", None);
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("ready"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("pool_admitting"), Some(&Json::Bool(true)));

        // Drain the pool only: the process (and loop) are still alive.
        service.shutdown();
        let (status, _) = call(addr, "GET", "/healthz", None);
        assert_eq!(status, 200, "liveness must survive a drained pool");
        let (status, body) = call(addr, "GET", "/readyz", None);
        assert_eq!(status, 503, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("ready"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("pool_admitting"), Some(&Json::Bool(false)));
        server.shutdown();
    }

    fn serve_with_disk(tag: &str) -> (HttpServer, Arc<SiService>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "si-http-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(SiService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        }));
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        (server, service, dir)
    }

    /// Waits until the write-through to the disk tier has landed (workers
    /// persist after replying, so a probe can race the write).
    fn wait_disk_writes(service: &SiService, want: f64) {
        for _ in 0..400 {
            let m = service.metrics();
            let writes = m
                .get("cache")
                .unwrap()
                .get("disk_writes")
                .unwrap()
                .as_f64()
                .unwrap();
            if writes >= want {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("disk write never landed");
    }

    /// A job id or cache key has one spelling. A `+` sign or uppercase
    /// digits used to alias the key they spell: the job was served and
    /// the alias echoed as its id.
    #[test]
    fn aliased_ids_and_keys_are_400() {
        let (mut server, service, dir) = serve_with_disk("alias");
        let addr = server.local_addr();
        let spec = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let (status, body) = call(addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        wait_disk_writes(&service, 1.0);
        assert_eq!(call(addr, "GET", &format!("/v1/jobs/{id}"), None).0, 200);
        let cached = HttpClient::new(addr).request("GET", &format!("/v1/cache/{id}"), None);
        assert_eq!(cached.unwrap().0, 200);
        for alias in [format!("+{}", &id[1..]), id.to_uppercase()] {
            for route in ["/v1/jobs/", "/v1/cache/"] {
                let (status, body) = call(addr, "GET", &format!("{route}{alias}"), None);
                assert_eq!(status, 400, "{route}{alias}: {body}");
            }
            let warm = format!(r#"{{"peer":"127.0.0.1:1","keys":["{alias}"]}}"#);
            assert_eq!(
                call(addr, "POST", "/v1/warm", Some(&warm)).0,
                400,
                "{alias}"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 9 satellite: `GET /v1/cache/:key` serves only
    /// checksummed-valid entries. Valid → 200 octet-stream with the raw
    /// `.sic` bytes; corrupt → 404 with `corrupt_evicted` counted and the
    /// file quarantined; bogus key → 400; absent → 404.
    #[test]
    fn cache_endpoint_serves_only_checksummed_valid_entries() {
        let (mut server, service, dir) = serve_with_disk("valid");
        let addr = server.local_addr();
        let spec = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let (status, body) = call(addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        wait_disk_writes(&service, 1.0);

        // Valid entry: raw bytes, identical to the on-disk file.
        let (status, bytes) = HttpClient::new(addr)
            .request("GET", &format!("/v1/cache/{id}"), None)
            .unwrap();
        assert_eq!(status, 200);
        let on_disk = std::fs::read(dir.join(format!("{id}.sic"))).unwrap();
        assert_eq!(bytes, on_disk, "endpoint must ship the exact .sic bytes");

        // Bogus key shape → 400; absent key → 404.
        let (status, _) = call(addr, "GET", "/v1/cache/nope", None);
        assert_eq!(status, 400);
        let (status, _) = call(addr, "GET", "/v1/cache/00000000000000ff", None);
        assert_eq!(status, 404);

        // Corrupt the entry: the endpoint must refuse and quarantine.
        let path = dir.join(format!("{id}.sic"));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        let (status, _) = call(addr, "GET", &format!("/v1/cache/{id}"), None);
        assert_eq!(status, 404, "corrupt entries must never be served");
        assert!(!path.exists(), "corrupt entry must be quarantined");
        let m = service.metrics();
        assert_eq!(
            m.get("cache")
                .unwrap()
                .get("corrupt_evicted")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 9: `POST /v1/warm` pulls entries from a peer replica's cache
    /// endpoint into this replica's disk tier, after which the warmed
    /// replica serves them as cache hits bit-identical to the peer's.
    #[test]
    fn warm_endpoint_pulls_entries_from_peer() {
        let (mut peer_srv, peer_svc, peer_dir) = serve_with_disk("warm-peer");
        let (mut repl_srv, repl_svc, repl_dir) = serve_with_disk("warm-repl");
        let peer_addr = peer_srv.local_addr();
        let repl_addr = repl_srv.local_addr();

        let spec = r#"{"kind":"delay_line_dc","stages":4,"bias_ua":20,"input_ua":1.5}"#;
        let (status, body) = call(peer_addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let peer_resp = json::parse(&body).unwrap();
        let id = peer_resp.get("id").unwrap().as_str().unwrap().to_string();
        wait_disk_writes(&peer_svc, 1.0);

        // Warm the replica: one real key plus one the peer doesn't have.
        let warm = format!(r#"{{"peer":"{peer_addr}","keys":["{id}","00000000000000aa"]}}"#);
        let (status, body) = call(repl_addr, "POST", "/v1/warm", Some(&warm));
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("pulled").unwrap().as_f64(), Some(1.0));
        assert_eq!(parsed.get("failed").unwrap().as_f64(), Some(1.0));

        // The replica now answers the job from its own disk tier — no
        // solve, values bit-identical to the peer's response.
        let (status, body) = call(repl_addr, "POST", "/v1/jobs", Some(spec));
        assert_eq!(status, 200, "{body}");
        let repl_resp = json::parse(&body).unwrap();
        assert_eq!(repl_resp.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(repl_resp.get("values"), peer_resp.get("values"));
        let m = repl_svc.metrics();
        assert_eq!(
            m.get("service")
                .unwrap()
                .get("warm_pulled")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.get("cache").unwrap().get("disk_hits").unwrap().as_f64(),
            Some(1.0)
        );
        repl_srv.shutdown();
        peer_srv.shutdown();
        let _ = std::fs::remove_dir_all(&peer_dir);
        let _ = std::fs::remove_dir_all(&repl_dir);
    }

    /// Regression (ISSUE 5): `shutdown()` returns promptly — the wake
    /// pipe interrupts the poll wait instead of waiting out a tick.
    #[test]
    fn shutdown_is_prompt() {
        let mut server = serve();
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            started.elapsed()
        );
        // Idempotent.
        server.shutdown();
    }
}
