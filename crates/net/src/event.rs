//! The leader/followers loop behind [`NetServer`](crate::NetServer)
//! (Schmidt, O'Ryan, Kircher, Pyarali & Buschmann, PLoP 2000).
//!
//! One pool of threads serves every socket, and the thread that reads a
//! request also writes its answer. At any moment one thread **leads**:
//! it alone waits on the `epoll` instance (the crate's `sys` module)
//! for the listener, the connections and a wake-up socket. The others
//! are **followers** parked on a condition variable, or are busy
//! handling a request. The leader takes one event at a time:
//!
//! * the listener: accept a burst and register each connection;
//! * a connection: read what arrived and run its state machine
//!
//!   ```text
//!   Idle → ReadingHead → ReadingBody → request → Writing → Idle
//!                    └──── parse error ──→ Writing(4xx) → close
//!   ```
//!
//!   A byte-cache hit ([`DashServer::cached_rendered`](dash_serve::DashServer::cached_rendered))
//!   is already rendered bytes, so the leader writes it in place, as it
//!   does a `400`/`413`, and keeps leading. Any other request
//!   (a miss, `POST /update`, `/stats`, `/metrics`, …) first
//!   **promotes** a parked follower to leader, then is answered start
//!   to finish on the thread that read it; a search that missed goes
//!   through [`DashServer::search_rendered`](dash_serve::DashServer::search_rendered),
//!   which searches without a second lookup and caches the bytes for
//!   the next repeat ([`search_response`]: the engine emits each hit
//!   into a JSON sink writing the thread's body buffer, and head and
//!   body are then framed into one buffer of exact size, which the
//!   socket writes and the cache keeps — no `SearchHit`, no body
//!   `String` per request, no second copy). Pipelined requests
//!   already buffered are answered before the connection goes back to
//!   `epoll`. The thread then rejoins the followers.
//!
//! **Ownership.** Parked connections live in one table under a mutex,
//! and an event's token is a table slot: the thread that takes a
//! connection out of the table owns it until it puts it back or closes
//! it, and a token that finds its slot empty is ignored. Only the
//! leader waits on `epoll`, so while it serves a connection in place
//! nobody else can see that connection's next event, and the
//! registration (`EPOLLIN | EPOLLRDHUP`, or `EPOLLOUT` while a write
//! would block) is left as it is — a byte-cache hit costs no `epoll_ctl`.
//! Before a connection is handed to another thread, or to the queue, it
//! is disarmed to `EPOLLONESHOT` with no interest, so the next leader
//! cannot see it; its handler re-arms it when it parks it.
//!
//! **Admission.** The pool has `workers + 1` threads, so that one thread
//! still leads while `workers` handle requests. A leader that finds no
//! parked follower to promote keeps leading and queues the request for
//! the next thread that finishes; with `queue_depth` requests already
//! queued it answers `503` in place instead (`dash_net_shed_jobs_total`).
//! The connection cap answers a connect past it with `503` too.
//!
//! **Waiting.** While the server saw an event within the last
//! `HOT_WINDOW` the leader polls `epoll_wait(…, 0)` and yields the CPU
//! between polls: waking a halted CPU costs more than a cached hit
//! takes to serve. Past the window it blocks in `epoll_wait`, so an idle
//! server burns no core and an idle connection costs a table slot and
//! its buffer, not a visit. The timeout of that wait is the earliest
//! deadline: a request begun but not finished within `REQUEST_TIMEOUT`
//! is answered `408`, a write its peer stopped draining for as long is
//! closed, and a listener that failed to accept (`EMFILE`, …) is
//! re-armed after `ACCEPT_BACKOFF` instead of reporting the same
//! backlog in a hot loop. Dropping the server writes to the wake-up
//! socket, which stays readable, so every thread sees the stop.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dash_core::{HitSink, HitView, SearchRequest};
use dash_obs::{render_merged, Counter, Gauge, Registry, SlowEntry, TraceId};
use dash_serve::DashServer;

use crate::http::{self, ParseError, Request, Response};
use crate::json;
use crate::obs::NetObs;
use crate::server::{parse_search, route, Backend, NetConfig};
use crate::sys::{self, Epoll, Event};

/// How long after the last event the leader keeps polling instead of
/// blocking.
const HOT_WINDOW: Duration = Duration::from_millis(100);
/// Read budget for a request once its first byte has arrived — a peer
/// stalled mid-request is answered `408` and closed instead of holding
/// its slot forever. Doubles as the write-stall budget.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the listener stays disarmed after `accept` failed for a
/// reason other than an empty backlog (out of descriptors or memory).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// Accepts per listener event — bounds time away from live
/// connections when a connect storm arrives.
const ACCEPT_BURST: usize = 256;
/// Each pool thread's read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Tokens past any table slot.
const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;
/// The timer slot of a listener resting after a failed accept.
const RESTING_LISTENER: usize = usize::MAX;
/// A parked connection waiting for its next request bytes.
const READABLE: u32 = sys::IN | sys::RDHUP;
/// A parked connection waiting to write the rest of its response (a
/// peer that half-closes but still reads is no reason to wake).
const WRITABLE: u32 = sys::OUT;
/// A connection handed to a handler: no interest, and a hang-up it
/// still reports comes once.
const DISARMED: u32 = sys::ONESHOT;

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
    /// Requests answered `503` because no thread was free and
    /// `queue_depth` requests were already waiting for one.
    pub shed_jobs: u64,
    /// Requests answered `400`/`413` for malformed or oversized input.
    pub bad_requests: u64,
    /// Requests answered `408` after stalling mid-request.
    pub timeouts: u64,
}

/// Connection states (see the module diagram). `Idle` is "between
/// requests"; reads pause while `Writing` — built-in backpressure, a
/// peer cannot pipeline faster than it is answered.
#[derive(Debug)]
enum ConnState {
    Idle,
    ReadingHead,
    ReadingBody {
        head: http::ParsedHead,
    },
    /// Response bytes: rendered for this request, or shared out of the
    /// response cache (a hit never copies the body).
    Writing {
        out: Arc<Vec<u8>>,
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
    /// When the in-flight request's first byte arrived (408 clock).
    request_started: Option<Instant>,
    /// Peer sent EOF; serve what is buffered, then close.
    read_closed: bool,
    /// While parked: when it stalls out (its key in the timer set).
    deadline: Option<Instant>,
    /// The interest it is registered with right now.
    armed: u32,
    /// Stage marks of the in-flight request (`None` with tracing
    /// disabled — the zero-overhead path).
    trace: Option<ReqTrace>,
}

/// Stage timestamps of one in-flight request. The marks turn into the
/// `dash_net_{head,body,handle,write}_ns` histograms and a
/// [`SlowEntry`] when the response finishes flushing.
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

/// What the parser made of the buffered bytes.
enum Step {
    /// Nothing further until more bytes arrive.
    Wait,
    /// Close the connection (clean or torn — nothing to answer).
    Close,
    /// Answer a parse failure and close.
    Reject(ParseError),
    /// A complete request.
    Request(http::ParsedHead, Vec<u8>),
}

/// How a flush ended.
enum Flushed {
    Dead,
    Blocked,
    Complete { close_after: bool },
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            state: ConnState::Idle,
            request_started: None,
            read_closed: false,
            deadline: None,
            armed: READABLE,
            trace: None,
        }
    }

    /// Drains readable bytes through the thread's buffer. `Err(())`
    /// means the connection is dead (reset); EOF just marks
    /// `read_closed` so buffered requests still get served.
    fn read_some(&mut self, chunk: &mut [u8]) -> Result<(), ()> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }

    /// Runs the parser as far as the buffered bytes allow: Idle →
    /// ReadingHead → ReadingBody → a complete request.
    fn advance(&mut self, now: Instant, tracing: bool) -> Step {
        loop {
            match &self.state {
                ConnState::Idle => {
                    if self.buf.is_empty() {
                        // A clean close between requests.
                        return if self.read_closed {
                            Step::Close
                        } else {
                            Step::Wait
                        };
                    }
                    self.state = ConnState::ReadingHead;
                    self.request_started = Some(now);
                    self.trace = tracing.then(|| ReqTrace {
                        id: TraceId::next(),
                        route: String::new(),
                        started: now,
                        head_done: None,
                        body_done: None,
                        handle_done: None,
                    });
                }
                ConnState::ReadingHead => match http::parse_head(&self.buf) {
                    Ok(Some(head)) => {
                        self.state = ConnState::ReadingBody { head };
                        if let Some(trace) = self.trace.as_mut() {
                            trace.head_done = Some(now);
                        }
                    }
                    // Connection closed mid-headers stays silent, per
                    // HTTP convention — there is no request to answer.
                    Ok(None) if self.read_closed => return Step::Close,
                    Ok(None) => return Step::Wait,
                    Err(e) => return Step::Reject(e),
                },
                ConnState::ReadingBody { head } => {
                    let total = head.head_len + head.content_length;
                    if self.buf.len() < total {
                        // Torn mid-body: nothing to answer.
                        return if self.read_closed {
                            Step::Close
                        } else {
                            Step::Wait
                        };
                    }
                    let ConnState::ReadingBody { head } =
                        std::mem::replace(&mut self.state, ConnState::Idle)
                    else {
                        unreachable!("matched ReadingBody above");
                    };
                    let body = self.buf[head.head_len..total].to_vec();
                    self.buf.drain(..total);
                    self.request_started = None;
                    return Step::Request(head, body);
                }
                ConnState::Writing { .. } => return Step::Wait,
            }
        }
    }

    fn start_writing(&mut self, out: Arc<Vec<u8>>, close_after: bool, now: Instant) {
        self.state = ConnState::Writing {
            out,
            pos: 0,
            close_after,
        };
        if let Some(trace) = self.trace.as_mut() {
            // First response byte queued: handling is over. Cache hits
            // and rejects reach here without a hand-off, so their
            // handle stage is the (near-zero) gap since the last mark.
            trace.handle_done.get_or_insert(now);
        }
    }

    /// Pushes queued response bytes out.
    fn flush(&mut self) -> Flushed {
        let ConnState::Writing {
            out,
            pos,
            close_after,
        } = &mut self.state
        else {
            unreachable!("flush is only called while writing");
        };
        loop {
            if *pos >= out.len() {
                return Flushed::Complete {
                    close_after: *close_after,
                };
            }
            match self.stream.write(&out[*pos..]) {
                Ok(0) => return Flushed::Dead,
                Ok(n) => *pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flushed::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Flushed::Dead,
            }
        }
    }

    /// Closes out the in-flight request's trace: records the stage
    /// histograms and offers the request to the slow log.
    fn finish_trace(&mut self, obs: &NetObs, now: Instant) {
        let Some(trace) = self.trace.take() else {
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
        obs.head_ns.record(head_ns);
        obs.body_ns.record(body_ns);
        obs.handle_ns.record(handle_ns);
        obs.write_ns.record(write_ns);
        obs.request_ns.record(total_ns);
        obs.slow.record(SlowEntry {
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
}

/// A complete request that needs a thread: the connection it came on
/// (owned), and its search parsed once, if it is a cacheable search
/// (which then has already missed the rendered cache).
#[derive(Debug)]
struct Handoff {
    slot: usize,
    conn: Conn,
    request: Request,
    search: Option<SearchRequest>,
    /// When the request was complete (the queue-wait clock).
    ready: Instant,
}

/// Parked connections: everything no thread owns right now.
#[derive(Debug, Default)]
struct Table {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    /// `(deadline, slot)` of every parked connection that has one, and
    /// of a resting listener (`RESTING_LISTENER`).
    timers: BTreeSet<(Instant, usize)>,
}

impl Table {
    /// The earliest moment the leader must wake for.
    fn next_due(&self) -> Option<Instant> {
        self.timers.first().map(|&(at, _)| at)
    }
}

/// Who leads, who is parked, and requests waiting for a thread.
#[derive(Debug, Default)]
struct Turns {
    leading: bool,
    /// Followers parked on the condition variable.
    parked: usize,
    waiting: VecDeque<Handoff>,
}

/// What a thread does next after its turn ends.
enum Turn {
    Lead,
    Handle(Box<Handoff>),
    Stop,
}

/// What became of a request the leader cannot answer in place.
enum Promotion {
    /// A follower leads now; this thread answers the request.
    Promoted(Handoff),
    /// No follower was parked: queued for the next free thread.
    Queued,
    /// No follower was parked and the queue was full.
    Shed(Handoff),
}

#[derive(Debug)]
struct Shared {
    backend: Backend,
    counters: Arc<Counters>,
    obs: Arc<NetObs>,
    poll: Epoll,
    listener: TcpListener,
    /// Read end of the wake-up pair: registered level-triggered.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    stop: AtomicBool,
    table: Mutex<Table>,
    turns: Mutex<Turns>,
    followers: Condvar,
    max_connections: usize,
    queue_depth: usize,
    /// Rendered once: the `503` the cap answers overflow connects with.
    overflow_bytes: Vec<u8>,
}

/// The thread pool serving one listener; dropping it stops and joins
/// every thread.
#[derive(Debug)]
pub(crate) struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Registers the listener and starts `workers + 1` threads.
    pub(crate) fn start(
        listener: TcpListener,
        backend: Backend,
        config: &NetConfig,
        counters: Arc<Counters>,
        obs: Arc<NetObs>,
    ) -> io::Result<Pool> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let poll = Epoll::new()?;
        poll.add(&listener, sys::IN | sys::ONESHOT, LISTENER)?;
        poll.add(&wake_rx, sys::IN, WAKE)?;
        let shared = Arc::new(Shared {
            backend,
            counters,
            obs,
            poll,
            listener,
            wake_rx,
            wake_tx,
            stop: AtomicBool::new(false),
            table: Mutex::default(),
            turns: Mutex::default(),
            followers: Condvar::new(),
            max_connections: config.max_connections.max(1),
            queue_depth: config.queue_depth.max(1),
            overflow_bytes: http::render_response(
                &Response::error(503, "connection limit reached"),
                false,
            ),
        });
        let mut pool = Pool {
            shared,
            threads: Vec::new(),
        };
        for at in 0..=config.workers.max(1) {
            let shared = Arc::clone(&pool.shared);
            // On failure, dropping `pool` stops what already started.
            pool.threads.push(
                std::thread::Builder::new()
                    .name(format!("dash-net-{at}"))
                    .spawn(move || shared.run())?,
            );
        }
        Ok(pool)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Shared {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("no thread panics holding the connection table")
    }

    fn turns(&self) -> MutexGuard<'_, Turns> {
        self.turns
            .lock()
            .expect("no thread panics holding the turn state")
    }

    /// Makes the leader's wait return (best effort: a full socket
    /// already has a wake-up pending).
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// One pool thread: take turns leading, answer what the turn hands
    /// over, repeat until stopped.
    fn run(&self) {
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let mut job = match self.take_turn() {
                Turn::Stop => return,
                Turn::Lead => match self.lead(&mut chunk) {
                    Some(job) => job,
                    None => continue,
                },
                Turn::Handle(job) => *job,
            };
            self.obs.busy.add(1);
            loop {
                if self.obs.queue_wait_ns.is_enabled() {
                    self.obs
                        .queue_wait_ns
                        .record(job.ready.elapsed().as_nanos() as u64);
                }
                match self.handle(job, &mut chunk) {
                    Some(next) => job = next,
                    None => break,
                }
            }
            self.obs.busy.sub(1);
        }
    }

    /// Waits for this thread's next turn: a queued request first, the
    /// lead if nobody holds it, else parked as a follower.
    fn take_turn(&self) -> Turn {
        let mut turns = self.turns();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.followers.notify_all();
                return Turn::Stop;
            }
            if let Some(job) = turns.waiting.pop_front() {
                return Turn::Handle(Box::new(job));
            }
            if !turns.leading {
                turns.leading = true;
                return Turn::Lead;
            }
            turns.parked += 1;
            turns = self
                .followers
                .wait(turns)
                .expect("no thread panics holding the turn state");
            turns.parked -= 1;
        }
    }

    /// Leads until a request needs this thread (returned, with a
    /// follower promoted) or the server stops (`None`).
    fn lead(&self, chunk: &mut [u8]) -> Option<Handoff> {
        let mut events = [Event::EMPTY];
        let mut hot_until = Instant::now() + HOT_WINDOW;
        let mut next_due = self.table().next_due();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let now = Instant::now();
            if next_due.is_some_and(|due| due <= now) {
                next_due = self.expire(now, chunk);
            }
            let timeout = if now < hot_until {
                Some(Duration::ZERO)
            } else {
                next_due.map(|due| due.saturating_duration_since(now))
            };
            let got = self
                .poll
                .wait(&mut events, timeout)
                .expect("epoll_wait on the pool's own epoll handle");
            if got == 0 {
                if now < hot_until {
                    std::thread::yield_now();
                }
                continue;
            }
            let now = Instant::now();
            match events[0].token() {
                WAKE => {
                    // Drain it (a stop leaves it readable for every
                    // thread: the flag is checked first) and pick up
                    // whatever deadline the waker parked.
                    while matches!((&self.wake_rx).read(chunk), Ok(n) if n > 0) {}
                    next_due = self.table().next_due();
                }
                LISTENER => {
                    if self.accept_burst(now) {
                        hot_until = now + HOT_WINDOW;
                    }
                    next_due = self.table().next_due();
                }
                token => {
                    hot_until = now + HOT_WINDOW;
                    let slot = token as usize;
                    let Some(conn) = self.take(slot) else {
                        continue;
                    };
                    let mut next = self.drive(slot, conn, chunk, true, now);
                    while let Some(mut job) = next {
                        // The next leader must not see its events.
                        if !self.arm(&mut job.conn, DISARMED, slot) {
                            self.close(slot, job.conn);
                            break;
                        }
                        next = match self.promote(job) {
                            Promotion::Promoted(job) => return Some(job),
                            Promotion::Queued => None,
                            Promotion::Shed(job) => self.shed(job, chunk, now),
                        };
                    }
                }
            }
        }
    }

    /// Hands the lead to a parked follower, or queues or sheds the
    /// request when none is parked.
    fn promote(&self, job: Handoff) -> Promotion {
        let mut turns = self.turns();
        if turns.parked > 0 {
            turns.leading = false;
            drop(turns);
            self.followers.notify_one();
            Promotion::Promoted(job)
        } else if turns.waiting.len() < self.queue_depth {
            turns.waiting.push_back(job);
            Promotion::Queued
        } else {
            Promotion::Shed(job)
        }
    }

    /// Answers `503` in place; returns a pipelined request behind it.
    fn shed(&self, job: Handoff, chunk: &mut [u8], now: Instant) -> Option<Handoff> {
        self.counters.shed_jobs.inc();
        let Handoff {
            slot,
            mut conn,
            request,
            ..
        } = job;
        let close_after = !request.keep_alive || conn.read_closed;
        let bytes = http::render_response(&Response::error(503, "server overloaded"), !close_after);
        conn.start_writing(Arc::new(bytes), close_after, now);
        self.drive(slot, conn, chunk, false, now)
    }

    /// Answers a request on this thread; returns a pipelined request
    /// that was buffered behind it and needs handling too.
    fn handle(&self, job: Handoff, chunk: &mut [u8]) -> Option<Handoff> {
        let Handoff {
            slot,
            mut conn,
            request,
            search,
            ..
        } = job;
        let (out, close_after) = respond(&request, search, &self.backend, &self.obs);
        let now = Instant::now();
        conn.start_writing(out, close_after, now);
        self.drive(slot, conn, chunk, false, now)
    }

    /// Runs an owned connection as far as it goes without blocking:
    /// finish a pending write, read if `readable`, answer byte-cache
    /// hits and parse errors in place, and stop at the first request
    /// that needs handling (returned) or park the connection.
    fn drive(
        &self,
        slot: usize,
        mut conn: Conn,
        chunk: &mut [u8],
        mut readable: bool,
        now: Instant,
    ) -> Option<Handoff> {
        loop {
            if matches!(conn.state, ConnState::Writing { .. }) {
                match conn.flush() {
                    Flushed::Dead => return self.close(slot, conn),
                    Flushed::Blocked => return self.park(slot, conn, WRITABLE, now),
                    Flushed::Complete { close_after } => {
                        conn.finish_trace(&self.obs, now);
                        if close_after {
                            return self.close(slot, conn);
                        }
                        conn.state = ConnState::Idle;
                    }
                }
            }
            if std::mem::take(&mut readable) && conn.read_some(chunk).is_err() {
                return self.close(slot, conn);
            }
            let (head, body) = match conn.advance(now, self.obs.registry.is_enabled()) {
                Step::Wait => return self.park(slot, conn, READABLE, now),
                Step::Close => return self.close(slot, conn),
                Step::Reject(e) => {
                    self.reject(&mut conn, &e, now);
                    continue;
                }
                Step::Request(head, body) => (head, body),
            };
            let request = match http::build_request(&head, body) {
                Ok(request) => request,
                Err(e) => {
                    self.reject(&mut conn, &e, now);
                    continue;
                }
            };
            if let Some(trace) = conn.trace.as_mut() {
                trace.body_done = Some(now);
                trace.route = format!("{} {}", request.method, request.path);
            }
            let search = cacheable(&request)
                .then(|| parse_search(&request).ok())
                .flatten();
            // Every cacheable search is looked up here, once: a miss is
            // handed on and answered without a second lookup. A hit is
            // the keep-alive rendering `respond` would write, so it is
            // written in place, and a peer that already sent EOF is
            // closed once it has been answered, as after any response.
            let hit = search
                .as_ref()
                .and_then(|search| self.backend.server()?.cached_rendered(search));
            if let Some(bytes) = hit {
                conn.start_writing(bytes, false, now);
                continue;
            }
            return Some(Handoff {
                slot,
                conn,
                request,
                search,
                ready: now,
            });
        }
    }

    /// Answers a malformed or oversized request with its parse error
    /// (the connection closes after — framing is unrecoverable).
    fn reject(&self, conn: &mut Conn, error: &ParseError, now: Instant) {
        self.counters.bad_requests.inc();
        let response = Response::error(error.status(), error.message());
        let bytes = http::render_response(&response, false);
        conn.start_writing(Arc::new(bytes), true, now);
    }

    /// Takes a parked connection out of the table: the caller owns it.
    fn take(&self, slot: usize) -> Option<Conn> {
        let mut table = self.table();
        let mut conn = table.slots.get_mut(slot)?.take()?;
        if let Some(deadline) = conn.deadline.take() {
            table.timers.remove(&(deadline, slot));
        }
        Some(conn)
    }

    /// Puts a connection back in the table, armed for `interest`. The
    /// table stays locked until it is armed, so the deadline check
    /// cannot close it in between.
    fn park(&self, slot: usize, mut conn: Conn, interest: u32, now: Instant) -> Option<Handoff> {
        conn.deadline = match conn.state {
            ConnState::Idle => None,
            ConnState::ReadingHead | ConnState::ReadingBody { .. } => {
                conn.request_started.map(|t| t + REQUEST_TIMEOUT)
            }
            ConnState::Writing { .. } => Some(now + REQUEST_TIMEOUT),
        };
        let mut table = self.table();
        if !self.arm(&mut conn, interest, slot) {
            drop(table);
            return self.close(slot, conn);
        }
        let mut earliest = false;
        if let Some(deadline) = conn.deadline {
            table.timers.insert((deadline, slot));
            earliest = table.timers.first() == Some(&(deadline, slot));
        }
        table.slots[slot] = Some(conn);
        drop(table);
        if earliest {
            // A blocked leader learns of the new deadline.
            self.wake();
        }
        None
    }

    /// Registers `interest` for an owned connection unless it holds it
    /// already; `false` if the kernel refused.
    fn arm(&self, conn: &mut Conn, interest: u32, slot: usize) -> bool {
        if conn.armed != interest {
            if self
                .poll
                .modify(&conn.stream, interest, slot as u64)
                .is_err()
            {
                return false;
            }
            conn.armed = interest;
        }
        true
    }

    /// Closes an owned connection and frees its slot.
    fn close(&self, slot: usize, conn: Conn) -> Option<Handoff> {
        drop(conn);
        let mut table = self.table();
        table.free.push(slot);
        table.open -= 1;
        self.counters.open.sub(1);
        None
    }

    /// Accepts up to a burst of connections; returns whether any was
    /// accepted. The listener is re-armed unless `accept` failed for
    /// want of descriptors or memory: then it rests for
    /// `ACCEPT_BACKOFF`, because the backlog it reports cannot drain.
    fn accept_burst(&self, now: Instant) -> bool {
        let mut accepted = false;
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    let resume = now + ACCEPT_BACKOFF;
                    self.table().timers.insert((resume, RESTING_LISTENER));
                    return accepted;
                }
            }
        }
        self.arm_listener();
        accepted
    }

    fn arm_listener(&self) {
        self.poll
            .modify(&self.listener, sys::IN | sys::ONESHOT, LISTENER)
            .expect("the listener stays registered for the pool's life");
    }

    /// Registers an accepted connection, or answers `503` past the cap.
    fn admit(&self, stream: TcpStream) {
        self.counters.accepted.inc();
        let mut table = self.table();
        if table.open >= self.max_connections {
            drop(table);
            self.counters.overflows.inc();
            let _ = (&stream).write(&self.overflow_bytes);
            return; // dropped: closed
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let slot = table.free.pop().unwrap_or_else(|| {
            table.slots.push(None);
            table.slots.len() - 1
        });
        if self.poll.add(&stream, READABLE, slot as u64).is_err() {
            table.free.push(slot);
            return;
        }
        table.slots[slot] = Some(Conn::new(stream));
        table.open += 1;
        self.counters.open.add(1);
    }

    /// Deals with everything due by `now`: a request stalled mid-way
    /// is answered `408`, a write stalled on its peer is closed, and a
    /// resting listener is re-armed. Returns the next due moment.
    fn expire(&self, now: Instant, chunk: &mut [u8]) -> Option<Instant> {
        loop {
            let (slot, conn) = {
                let mut table = self.table();
                match table.timers.first() {
                    Some(&(deadline, slot)) if deadline <= now => {
                        table.timers.pop_first();
                        let conn = table.slots.get_mut(slot).and_then(Option::take);
                        (slot, conn)
                    }
                    _ => return table.next_due(),
                }
            };
            let Some(mut conn) = conn else {
                if slot == RESTING_LISTENER {
                    self.arm_listener();
                }
                continue;
            };
            conn.deadline = None;
            if matches!(conn.state, ConnState::Writing { .. }) {
                // The peer stopped draining its response: nothing left
                // to tell it.
                self.close(slot, conn);
                continue;
            }
            self.counters.timeouts.inc();
            let bytes = http::render_response(&Response::error(408, "request timed out"), false);
            conn.start_writing(Arc::new(bytes), true, now);
            // Closes after the write; nothing is left to hand off.
            let _ = self.drive(slot, conn, chunk, false, now);
        }
    }
}

/// The response-cache fast path is limited to keep-alive `GET /search`
/// requests — the cached rendering carries keep-alive framing.
fn cacheable(request: &Request) -> bool {
    request.keep_alive && request.method == "GET" && request.path == "/search"
}

/// Renders the merged `GET /metrics` exposition: this front-end's
/// `dash_net_*` registry (with the backing server's rendered-cache
/// counters mirrored in as `dash_net_response_cache_*` gauges at scrape
/// time), the backing server's `dash_serve_*` registry when one is
/// live, and the process-global registry (`dash_shard_*` /
/// `dash_repl_*` / `dash_router_*`) — one scrape covers every layer.
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

/// Answers one request on the calling thread. A cacheable search (its
/// `search` parsed once, and looked up in the rendered cache, by the
/// thread that read it) goes through
/// [`DashServer::search_rendered`](dash_serve::DashServer::search_rendered),
/// which searches without looking up again, renders the hits into
/// keep-alive response bytes and caches them epoch-checked for the
/// next repeat.
fn respond(
    request: &Request,
    search: Option<SearchRequest>,
    backend: &Backend,
    obs: &NetObs,
) -> (Arc<Vec<u8>>, bool) {
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
    if let (Some(server), Some(search)) = (backend.server(), search) {
        return (search_response(&server, &search), false);
    }
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: metrics_text(obs, backend).into_bytes(),
        },
        ("GET", "/debug/slow") => Response::json(obs.slow.render_json()),
        _ => route(request, backend),
    };
    (
        Arc::new(http::render_response(&response, request.keep_alive)),
        !request.keep_alive,
    )
}

thread_local! {
    /// Each pool thread's JSON body buffer: a miss renders into it, and
    /// only the framed response leaves it, so after a thread's first
    /// misses a body costs no allocation.
    static BODY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Answers a search the byte cache missed, as the socket bytes of its
/// `200` response: [`DashServer::search_rendered`] runs the engine
/// straight into a JSON sink ([`json::JsonHits`]), which writes each hit's JSON into
/// the thread's body buffer as the engine emits it, then frames head
/// and body into one buffer of exactly their size — the buffer the
/// socket writes and the byte cache keeps. Its bytes are
/// `render_response(&Response::json(hits_to_json(&hits)), true)`.
pub fn search_response(server: &DashServer, search: &SearchRequest) -> Arc<Vec<u8>> {
    BODY.with_borrow_mut(|body| {
        body.clear();
        server.search_rendered(search, JsonResponse(json::JsonHits::new(body)))
    })
}

/// The [`HitSink`] of a search response: the JSON hit array, and on
/// conversion the framed response.
struct JsonResponse<'a>(json::JsonHits<'a>);

impl HitSink for JsonResponse<'_> {
    fn emit(&mut self, hit: &HitView<'_>) {
        self.0.emit(hit);
    }
}

impl From<JsonResponse<'_>> for Vec<u8> {
    fn from(response: JsonResponse<'_>) -> Vec<u8> {
        let body = response.0.finish();
        http::render_parts(200, "application/json", body.as_bytes(), true)
    }
}
