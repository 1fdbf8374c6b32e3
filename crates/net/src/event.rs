//! The readiness-driven event loop behind [`NetServer`](crate::NetServer).
//!
//! One thread owns every socket. The listener and all accepted
//! connections are nonblocking; each connection is a small state
//! machine
//!
//! ```text
//! Idle → ReadingHead → ReadingBody → Handling → Writing → Idle
//!                  └──── parse error ────→ Writing(4xx) → close
//! ```
//!
//! driven by whatever bytes happen to be readable when the loop visits
//! it. An idle keep-alive peer therefore costs one slot and one read
//! buffer — not a parked thread — which is what lets the front-end
//! hold 10k open connections on a fixed worker pool.
//!
//! Pure `std` has no readiness syscall (no epoll/kqueue, and the
//! no-new-dependencies rule forbids mio), so readiness is *polled*:
//! every loop iteration sweeps the **hot** set — connections with
//! activity in the last `HOT_WINDOW` (~100ms) plus anything mid-write — with
//! one nonblocking read/write each, while the **cold** remainder is
//! visited by a budgeted round-robin cursor (`COLD_BUDGET_BUSY` slots
//! per iteration under load, `COLD_BUDGET_IDLE` when nothing is hot).
//! The sweep cost thus tracks the *active* connection count; 10k idle
//! peers add cursor visits, not per-request latency. When an iteration
//! makes no progress the loop sleeps on the workers' completion
//! channel with a backoff-bounded tick, so a finished search wakes it
//! immediately and shutdown is never more than one tick away (which is
//! why `Drop` needs no self-connect wake-up).
//!
//! Route handling never runs on the loop thread: completed requests
//! are dispatched to a worker pool over a bounded queue (a full queue
//! answers `503` immediately — load sheds at the door instead of
//! stalling the accept path, and so does the connection cap, with its
//! own counter). The one exception is a pre-serialized response held by
//! the backing server's rendered cache
//! ([`DashServer::cached_rendered`](dash_serve::DashServer::cached_rendered)):
//! a hit is already rendered bytes, so the loop writes them in place —
//! a lookup plus one `write(2)`. A worker answering a miss renders
//! through [`DashServer::search_rendered`](dash_serve::DashServer::search_rendered),
//! which caches the bytes for the next repeat.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_obs::{render_merged, Counter, Gauge, Registry, SlowEntry, TraceId};

use crate::http::{self, ParseError, Request, Response};
use crate::json;
use crate::obs::NetObs;
use crate::server::{parse_search, route, Backend, NetConfig};

/// How long after its last byte of I/O a connection stays in the
/// per-iteration hot sweep before demotion to the cold cursor.
const HOT_WINDOW: Duration = Duration::from_millis(100);
/// Read budget for a request once its first byte has arrived — a peer
/// stalled mid-request is answered `408` and closed instead of holding
/// its slot forever. Doubles as the write-stall budget.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Cold-cursor visits per iteration while hot connections need the
/// loop's attention.
const COLD_BUDGET_BUSY: usize = 64;
/// Cold-cursor visits per iteration when the loop is otherwise idle —
/// nothing competes for it, so discovery latency wins over sweep cost.
const COLD_BUDGET_IDLE: usize = 2048;
/// Accepts drained per iteration — bounds time away from live
/// connections when a connect storm arrives.
const ACCEPT_BURST: usize = 256;
/// Read chunk per nonblocking `read(2)`.
const READ_CHUNK: usize = 16 * 1024;
/// Idle sleep tick bounds (exponential backoff between them). The cap
/// is also the worst-case shutdown-notice latency.
const IDLE_TICK_US: u64 = 500;
const IDLE_TICK_CAP_US: u64 = 5_000;

/// Front-end counters, registry-backed: the same handles serve
/// [`NetCounters`] snapshots and the `dash_net_*` series of
/// `GET /metrics` — the two views cannot drift.
#[derive(Debug)]
pub(crate) struct Counters {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) open: Arc<Gauge>,
    pub(crate) overflows: Arc<Counter>,
    pub(crate) shed_jobs: Arc<Counter>,
    pub(crate) bad_requests: Arc<Counter>,
    pub(crate) timeouts: Arc<Counter>,
}

impl Counters {
    pub(crate) fn new(registry: &Registry) -> Counters {
        Counters {
            accepted: registry.counter("dash_net_accepted_total"),
            open: registry.gauge("dash_net_open_connections"),
            overflows: registry.counter("dash_net_overflows_total"),
            shed_jobs: registry.counter("dash_net_shed_jobs_total"),
            bad_requests: registry.counter("dash_net_bad_requests_total"),
            timeouts: registry.counter("dash_net_timeouts_total"),
        }
    }

    pub(crate) fn snapshot(&self) -> NetCounters {
        NetCounters {
            accepted: self.accepted.get(),
            open: self.open.get(),
            overflows: self.overflows.get(),
            shed_jobs: self.shed_jobs.get(),
            bad_requests: self.bad_requests.get(),
            timeouts: self.timeouts.get(),
        }
    }
}

/// A snapshot of the front-end's connection-handling counters (see
/// [`NetServer::counters`](crate::NetServer::counters)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Connections accepted (including ones shed by the cap).
    pub accepted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Connections answered `503` and closed because the connection
    /// cap was reached.
    pub overflows: u64,
    /// Requests answered `503` because the worker queue was full.
    pub shed_jobs: u64,
    /// Requests answered `400`/`413` for malformed or oversized input.
    pub bad_requests: u64,
    /// Requests answered `408` after stalling mid-request.
    pub timeouts: u64,
}

/// Bytes queued for a connection: owned (rendered for this request) or
/// shared out of the response cache (a hit never copies the body).
#[derive(Debug)]
pub(crate) enum Outgoing {
    Own(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Outgoing {
    fn as_slice(&self) -> &[u8] {
        match self {
            Outgoing::Own(bytes) => bytes,
            Outgoing::Shared(bytes) => bytes,
        }
    }
}

/// A request dispatched to the worker pool, tagged with its
/// connection's slot and generation (the generation guards against a
/// slot being closed and re-used while the worker runs).
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) request: Request,
    /// When the loop queued the job — workers record the queue wait.
    pub(crate) enqueued: Instant,
}

/// A worker's finished response, routed back to the loop.
#[derive(Debug)]
pub(crate) struct Done {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) out: Outgoing,
    pub(crate) close_after: bool,
}

/// Connection states (see the module diagram). `Idle` is "between
/// requests, buffer empty"; reads are paused in `Handling` and
/// `Writing` — built-in backpressure, a peer cannot pipeline faster
/// than it is answered.
#[derive(Debug)]
enum ConnState {
    Idle,
    ReadingHead,
    ReadingBody {
        head: http::ParsedHead,
    },
    Handling,
    Writing {
        out: Outgoing,
        pos: usize,
        close_after: bool,
    },
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (pipelined requests queue here).
    buf: Vec<u8>,
    state: ConnState,
    /// Generation guard for `Done` routing.
    gen: u64,
    /// Last byte of I/O — the hot/cold demotion clock.
    last_activity: Instant,
    /// When the in-flight request's first byte arrived (408 clock).
    request_started: Option<Instant>,
    /// In the per-iteration hot sweep (vs the budgeted cold cursor).
    hot: bool,
    /// Peer sent EOF; serve what is buffered, then close.
    read_closed: bool,
    /// Stage marks of the in-flight request (`None` with tracing
    /// disabled — the zero-overhead path).
    trace: Option<ReqTrace>,
}

/// Stage timestamps of one in-flight request, taken from the event
/// loop's per-iteration `Instant` — tracing adds no clock reads. The
/// marks turn into the `dash_net_{head,body,handle,write}_ns`
/// histograms and a [`SlowEntry`] when the response finishes flushing.
#[derive(Debug)]
struct ReqTrace {
    id: TraceId,
    /// `METHOD /path` once the request line parsed; empty for requests
    /// rejected before that.
    route: String,
    started: Instant,
    head_done: Option<Instant>,
    body_done: Option<Instant>,
    handle_done: Option<Instant>,
}

struct EventLoop {
    backend: Backend,
    counters: Arc<Counters>,
    obs: Arc<NetObs>,
    jobs: SyncSender<Job>,
    max_connections: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    cursor: usize,
    next_gen: u64,
    /// Rendered once: the `503` the cap answers overflow connects with.
    overflow_bytes: Vec<u8>,
}

/// What the state machine decided during a short borrow of the
/// connection — executed after the borrow ends.
enum Step {
    /// Nothing further until more bytes arrive.
    Wait,
    /// Keep running the state machine.
    Again,
    /// Close the connection (clean or torn — nothing to answer).
    Close,
    /// Answer a parse failure and close.
    Reject(ParseError),
    /// A complete request: hand it off.
    Request(http::ParsedHead, Vec<u8>),
}

/// Runs the loop until `stop` is set. Takes ownership of the listener
/// and the worker channels; dropping `jobs` on return is what winds
/// the worker pool down.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    listener: TcpListener,
    backend: Backend,
    config: &NetConfig,
    stop: &AtomicBool,
    counters: Arc<Counters>,
    obs: Arc<NetObs>,
    jobs: SyncSender<Job>,
    done: Receiver<Done>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut lp = EventLoop {
        backend,
        counters,
        obs,
        jobs,
        max_connections: config.max_connections.max(1),
        conns: Vec::new(),
        free: Vec::new(),
        open: 0,
        cursor: 0,
        next_gen: 0,
        overflow_bytes: http::render_response(
            &Response::error(503, "connection limit reached"),
            false,
        ),
    };
    let mut idle_streak: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let mut progress = false;
        while let Ok(msg) = done.try_recv() {
            lp.complete(msg, now);
            progress = true;
        }
        progress |= lp.accept_burst(&listener, now);
        let (hot_progress, hot_active) = lp.sweep_hot(now);
        progress |= hot_progress;
        progress |= lp.sweep_cold(now, hot_active > 0);
        if progress {
            idle_streak = 0;
            continue;
        }
        idle_streak = idle_streak.saturating_add(1);
        if hot_active > 0 {
            // A recently-active peer's next request is expected any
            // moment: stay on the CPU (ceding it — on a loaded box the
            // scheduler hands the slice to a worker) instead of paying
            // a timer wakeup on the critical path.
            std::thread::yield_now();
            continue;
        }
        let tick =
            Duration::from_micros((IDLE_TICK_US << idle_streak.min(4)).min(IDLE_TICK_CAP_US));
        match done.recv_timeout(tick) {
            Ok(msg) => {
                lp.complete(msg, Instant::now());
                idle_streak = 0;
            }
            Err(RecvTimeoutError::Timeout) => {}
            // All workers gone (only possible mid-teardown): keep
            // ticking so the stop flag is still honored.
            Err(RecvTimeoutError::Disconnected) => std::thread::sleep(tick),
        }
    }
}

impl EventLoop {
    /// Drains the accept queue (bounded per iteration). Connections
    /// past the cap get a best-effort `503` and are closed — never a
    /// silent stall.
    fn accept_burst(&mut self, listener: &TcpListener, now: Instant) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPT_BURST {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            progress = true;
            self.counters.accepted.inc();
            if self.open >= self.max_connections {
                self.counters.overflows.inc();
                let mut stream = stream;
                let _ = stream.write(&self.overflow_bytes);
                continue; // dropped: closed
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            self.next_gen += 1;
            let conn = Conn {
                stream,
                buf: Vec::new(),
                state: ConnState::Idle,
                gen: self.next_gen,
                last_activity: now,
                request_started: None,
                hot: true,
                read_closed: false,
                trace: None,
            };
            match self.free.pop() {
                Some(slot) => self.conns[slot] = Some(conn),
                None => self.conns.push(Some(conn)),
            }
            self.open += 1;
            self.counters.open.add(1);
        }
        progress
    }

    /// Sweeps every hot connection (demoting quiet ones) and returns
    /// `(progress, still-hot-and-pollable count)` — `Handling` slots
    /// stay hot for a prompt write once their worker finishes, but
    /// they need no polling, so they don't keep the loop spinning.
    fn sweep_hot(&mut self, now: Instant) -> (bool, usize) {
        let mut progress = false;
        let mut active = 0usize;
        for slot in 0..self.conns.len() {
            let pollable = match self.conns[slot].as_mut() {
                None => continue,
                Some(conn) => {
                    if !conn.hot {
                        continue;
                    }
                    let pollable = !matches!(conn.state, ConnState::Handling);
                    if pollable && now.duration_since(conn.last_activity) > HOT_WINDOW {
                        conn.hot = false;
                        continue;
                    }
                    pollable
                }
            };
            if pollable {
                active += 1;
                progress |= self.pump(slot, now);
            }
        }
        if active > 0 {
            self.obs.hot_visits.add(active as u64);
        }
        (progress, active)
    }

    /// Visits a budgeted batch of cold connections round-robin. Any
    /// that shows activity is promoted back to hot by `pump`.
    fn sweep_cold(&mut self, now: Instant, busy: bool) -> bool {
        let len = self.conns.len();
        if len == 0 {
            return false;
        }
        let budget = if busy {
            COLD_BUDGET_BUSY
        } else {
            COLD_BUDGET_IDLE
        };
        let mut progress = false;
        let mut seen = 0usize;
        let mut visited = 0usize;
        while seen < len && visited < budget {
            self.cursor = (self.cursor + 1) % len;
            seen += 1;
            let slot = self.cursor;
            if self.conns[slot].as_ref().is_some_and(|c| !c.hot) {
                visited += 1;
                progress |= self.pump(slot, now);
            }
        }
        if visited > 0 {
            self.obs.cold_visits.add(visited as u64);
        }
        progress
    }

    /// One readiness visit: nonblocking read + state-machine advance +
    /// write flush + stall check. Returns whether any I/O happened.
    fn pump(&mut self, slot: usize, now: Instant) -> bool {
        let mut progress = false;
        let readable = matches!(
            self.conns[slot].as_ref().map(|c| &c.state),
            Some(ConnState::Idle | ConnState::ReadingHead | ConnState::ReadingBody { .. })
        );
        if readable {
            match self.read_some(slot, now) {
                Ok(got) => progress |= got,
                Err(()) => {
                    self.close(slot);
                    return true;
                }
            }
            self.advance(slot, now);
        }
        if matches!(
            self.conns[slot].as_ref().map(|c| &c.state),
            Some(ConnState::Writing { .. })
        ) {
            progress |= self.flush(slot, now);
        }
        // Stall check: `None` = healthy, `Some(mid_write)` = stalled.
        let stalled = self.conns[slot].as_ref().and_then(|conn| match conn.state {
            ConnState::ReadingHead | ConnState::ReadingBody { .. } => conn
                .request_started
                .is_some_and(|t| now.duration_since(t) > REQUEST_TIMEOUT)
                .then_some(false),
            ConnState::Writing { .. } => {
                (now.duration_since(conn.last_activity) > REQUEST_TIMEOUT).then_some(true)
            }
            _ => None,
        });
        match stalled {
            Some(true) => {
                // The peer stopped draining its response: nothing left
                // to tell it.
                self.close(slot);
                true
            }
            Some(false) => {
                self.counters.timeouts.inc();
                let bytes =
                    http::render_response(&Response::error(408, "request timed out"), false);
                self.start_writing(slot, Outgoing::Own(bytes), true, now);
                true
            }
            None => progress,
        }
    }

    /// Drains readable bytes into the connection buffer. `Err(())`
    /// means the connection is dead (reset); EOF just marks
    /// `read_closed` so buffered requests still get served.
    fn read_some(&mut self, slot: usize, now: Instant) -> Result<bool, ()> {
        let conn = self.conns[slot].as_mut().expect("pumped slot is live");
        let mut tmp = [0u8; READ_CHUNK];
        let mut any = false;
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&tmp[..n]);
                    conn.last_activity = now;
                    conn.hot = true;
                    any = true;
                    if n < tmp.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(any)
    }

    /// Runs the parsing state machine as far as the buffered bytes
    /// allow: Idle → ReadingHead → ReadingBody → dispatch.
    fn advance(&mut self, slot: usize, now: Instant) {
        loop {
            let step = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                match &conn.state {
                    ConnState::Idle => {
                        if conn.buf.is_empty() {
                            if conn.read_closed {
                                Step::Close // clean close between requests
                            } else {
                                Step::Wait
                            }
                        } else {
                            conn.state = ConnState::ReadingHead;
                            conn.request_started = Some(now);
                            // Stage marks reuse the sweep's `now` — a
                            // disabled registry costs one bool load.
                            conn.trace = self.obs.registry.is_enabled().then(|| ReqTrace {
                                id: TraceId::next(),
                                route: String::new(),
                                started: now,
                                head_done: None,
                                body_done: None,
                                handle_done: None,
                            });
                            Step::Again
                        }
                    }
                    ConnState::ReadingHead => match http::parse_head(&conn.buf) {
                        Ok(Some(head)) => {
                            conn.state = ConnState::ReadingBody { head };
                            if let Some(trace) = conn.trace.as_mut() {
                                trace.head_done = Some(now);
                            }
                            Step::Again
                        }
                        // Connection closed mid-headers stays silent,
                        // per HTTP convention — there is no request to
                        // answer.
                        Ok(None) if conn.read_closed => Step::Close,
                        Ok(None) => Step::Wait,
                        Err(e) => Step::Reject(e),
                    },
                    ConnState::ReadingBody { head } => {
                        let total = head.head_len + head.content_length;
                        if conn.buf.len() < total {
                            if conn.read_closed {
                                Step::Close // torn mid-body: nothing to answer
                            } else {
                                Step::Wait
                            }
                        } else {
                            let head = head.clone();
                            let body = conn.buf[head.head_len..total].to_vec();
                            conn.buf.drain(..total);
                            conn.request_started = None;
                            Step::Request(head, body)
                        }
                    }
                    // Backpressured states: nothing to advance.
                    ConnState::Handling | ConnState::Writing { .. } => Step::Wait,
                }
            };
            match step {
                Step::Wait => return,
                Step::Again => {}
                Step::Close => {
                    self.close(slot);
                    return;
                }
                Step::Reject(e) => {
                    self.reject(slot, &e, now);
                    return;
                }
                Step::Request(head, body) => {
                    self.dispatch(slot, &head, body, now);
                    return;
                }
            }
        }
    }

    /// Answers a malformed or oversized request with its parse error
    /// (the connection closes after — framing is unrecoverable).
    fn reject(&mut self, slot: usize, error: &ParseError, now: Instant) {
        self.counters.bad_requests.inc();
        let response = Response::error(error.status(), error.message());
        let bytes = http::render_response(&response, false);
        self.start_writing(slot, Outgoing::Own(bytes), true, now);
    }

    /// Hands a complete request off: the response-cache fast path in
    /// place (a hit is one buffer, one write), everything else to the
    /// worker pool — with an immediate `503` if the queue is full.
    fn dispatch(&mut self, slot: usize, head: &http::ParsedHead, body: Vec<u8>, now: Instant) {
        let request = match http::build_request(head, body) {
            Ok(request) => request,
            Err(e) => {
                self.reject(slot, &e, now);
                return;
            }
        };
        let (gen, read_closed) = {
            let conn = self.conns[slot].as_mut().expect("dispatching live slot");
            if let Some(trace) = conn.trace.as_mut() {
                trace.body_done = Some(now);
                trace.route = format!("{} {}", request.method, request.path);
            }
            (conn.gen, conn.read_closed)
        };
        let close_after = !request.keep_alive || read_closed;
        if !close_after {
            if let Some(bytes) = cached_search_response(&request, &self.backend) {
                self.start_writing(slot, Outgoing::Shared(bytes), false, now);
                return;
            }
        }
        match self.jobs.try_send(Job {
            slot,
            gen,
            request,
            enqueued: now,
        }) {
            Ok(()) => {
                self.obs.queue_depth.add(1);
                let conn = self.conns[slot].as_mut().expect("slot still live");
                conn.state = ConnState::Handling;
            }
            Err(TrySendError::Full(_)) => {
                self.counters.shed_jobs.inc();
                let response = Response::error(503, "server overloaded");
                let bytes = http::render_response(&response, !close_after);
                self.start_writing(slot, Outgoing::Own(bytes), close_after, now);
            }
            Err(TrySendError::Disconnected(_)) => self.close(slot),
        }
    }

    /// Routes a worker's finished response to its connection — dropped
    /// if the slot was closed or re-used meanwhile (generation guard).
    fn complete(&mut self, done: Done, now: Instant) {
        let live = self
            .conns
            .get(done.slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.gen == done.gen && matches!(c.state, ConnState::Handling));
        if live {
            self.start_writing(done.slot, done.out, done.close_after, now);
        }
    }

    fn start_writing(&mut self, slot: usize, out: Outgoing, close_after: bool, now: Instant) {
        {
            let conn = self.conns[slot].as_mut().expect("writing to live slot");
            conn.state = ConnState::Writing {
                out,
                pos: 0,
                close_after,
            };
            conn.hot = true;
            conn.last_activity = now;
            if let Some(trace) = conn.trace.as_mut() {
                // First response byte queued: handling is over. Cache
                // hits and rejects reach here without a dispatch, so
                // their handle stage is the (near-zero) gap since the
                // last mark.
                trace.handle_done.get_or_insert(now);
            }
        }
        self.flush(slot, now);
    }

    /// Closes out the in-flight request's trace: records the stage
    /// histograms and offers the request to the slow log.
    fn finish_trace(&mut self, slot: usize, now: Instant) {
        let Some(trace) = self.conns[slot].as_mut().and_then(|c| c.trace.take()) else {
            return;
        };
        // A stage that never ran (e.g. reject before the body) borrows
        // the previous mark: its duration is zero, nothing is skipped.
        let head = trace.head_done.unwrap_or(trace.started);
        let body = trace.body_done.unwrap_or(head);
        let handle = trace.handle_done.unwrap_or(body);
        let stage =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos() as u64;
        let head_ns = stage(trace.started, head);
        let body_ns = stage(head, body);
        let handle_ns = stage(body, handle);
        let write_ns = stage(handle, now);
        let total_ns = stage(trace.started, now);
        self.obs.head_ns.record(head_ns);
        self.obs.body_ns.record(body_ns);
        self.obs.handle_ns.record(handle_ns);
        self.obs.write_ns.record(write_ns);
        self.obs.request_ns.record(total_ns);
        self.obs.slow.record(SlowEntry {
            trace: trace.id,
            route: trace.route,
            total_ns,
            stages: vec![
                ("head", head_ns),
                ("body", body_ns),
                ("handle", handle_ns),
                ("write", write_ns),
            ],
        });
    }

    /// Pushes queued response bytes out. On completion the connection
    /// returns to `Idle` (or closes), then immediately re-enters the
    /// parser — pipelined requests already buffered get served without
    /// waiting for another readiness visit.
    fn flush(&mut self, slot: usize, now: Instant) -> bool {
        enum Flushed {
            Dead,
            Blocked(bool),
            Complete(bool),
        }
        let outcome = {
            let conn = self.conns[slot].as_mut().expect("flushing live slot");
            let ConnState::Writing {
                out,
                pos,
                close_after,
            } = &mut conn.state
            else {
                return false;
            };
            let close_after = *close_after;
            let mut wrote = false;
            loop {
                let bytes = out.as_slice();
                if *pos >= bytes.len() {
                    conn.last_activity = now;
                    break Flushed::Complete(close_after);
                }
                match conn.stream.write(&bytes[*pos..]) {
                    Ok(0) => break Flushed::Dead,
                    Ok(n) => {
                        *pos += n;
                        wrote = true;
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        break Flushed::Blocked(wrote)
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Flushed::Dead,
                }
            }
        };
        match outcome {
            Flushed::Dead => {
                self.close(slot);
                true
            }
            Flushed::Blocked(wrote) => wrote,
            Flushed::Complete(close_after) => {
                self.finish_trace(slot, now);
                if close_after {
                    self.close(slot);
                } else {
                    let conn = self.conns[slot].as_mut().expect("slot still live");
                    conn.state = ConnState::Idle;
                    self.advance(slot, now);
                }
                true
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.free.push(slot);
            self.open -= 1;
            self.counters.open.sub(1);
        }
    }
}

/// The response-cache fast path is limited to keep-alive `GET /search`
/// requests — the cached rendering carries keep-alive framing.
fn cacheable(request: &Request) -> bool {
    request.keep_alive && request.method == "GET" && request.path == "/search"
}

/// A cache hit for this request, if it is cacheable and present (the
/// server counts the hit, so `/stats` reports every served search).
pub(crate) fn cached_search_response(request: &Request, backend: &Backend) -> Option<Arc<Vec<u8>>> {
    if !cacheable(request) {
        return None;
    }
    backend
        .server()?
        .cached_rendered(&parse_search(request).ok()?)
}

/// Renders the merged `GET /metrics` exposition: this front-end's
/// `dash_net_*` registry (with the backing server's rendered-cache
/// counters mirrored in as `dash_net_response_cache_*` gauges at scrape
/// time), the backing server's `dash_serve_*` registry when one is
/// live, and the process-global registry (`dash_shard_*` /
/// `dash_repl_*` / `dash_router_*` / `dash_ingest_*`) — one scrape
/// covers every layer.
fn metrics_text(obs: &NetObs, backend: &Backend) -> String {
    let registry = &obs.registry;
    let server = backend.server();
    let (rendered, cached) = server.as_ref().map_or((Default::default(), 0), |server| {
        (server.stats().rendered, server.cached_responses())
    });
    rendered.mirror(registry, "dash_net_response_cache");
    registry
        .gauge("dash_net_cached_responses")
        .set(cached as u64);
    match server {
        Some(server) => {
            server.refresh_scrape_gauges();
            render_merged(&[registry, server.registry(), Registry::global()])
        }
        None => render_merged(&[registry, Registry::global()]),
    }
}

/// A worker's whole job: answer one request. A cacheable search goes
/// through [`DashServer::search_rendered`](dash_serve::DashServer::search_rendered),
/// which renders the hits into keep-alive response bytes and caches
/// them epoch-checked for the next repeat.
pub(crate) fn respond(request: &Request, backend: &Backend, obs: &NetObs) -> (Outgoing, bool) {
    // Diagnostic stall injection (tests of the slow log / stage
    // attribution) — inert unless the front-end opted in.
    if obs.allow_debug_sleep {
        if let Some(us) = request
            .param("debug_sleep_us")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_micros(us.min(1_000_000)));
        }
    }
    if request.method == "GET" && request.path == "/metrics" {
        let response = Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: metrics_text(obs, backend).into_bytes(),
        };
        return (
            Outgoing::Own(http::render_response(&response, request.keep_alive)),
            !request.keep_alive,
        );
    }
    if request.method == "GET" && request.path == "/debug/slow" {
        let response = Response::json(obs.slow.render_json());
        return (
            Outgoing::Own(http::render_response(&response, request.keep_alive)),
            !request.keep_alive,
        );
    }
    if cacheable(request) {
        if let (Some(server), Ok(search)) = (backend.server(), parse_search(request)) {
            let bytes = server.search_rendered(&search, |hits| {
                http::render_response(&Response::json(json::hits_to_json(hits)), true)
            });
            return (Outgoing::Shared(bytes), false);
        }
    }
    let response = route(request, backend);
    (
        Outgoing::Own(http::render_response(&response, request.keep_alive)),
        !request.keep_alive,
    )
}
