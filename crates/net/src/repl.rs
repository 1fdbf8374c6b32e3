//! Primary→replica delta replication over TCP.
//!
//! The unit a distributed DASH deployment ships between nodes is
//! exactly the unit the write path is built around: one [`IndexDelta`]
//! per publication, stamped with a monotonic epoch. The protocol is
//! four frame kinds on one length-prefixed binary stream (the
//! `dash-core` wire codec):
//!
//! * `HELLO` — sent by the replica, first thing after connecting: a
//!   `has_state` flag plus the primary epoch of the state it already
//!   holds. A fresh replica says `has_state = false`; a reconnecting
//!   one reports where its mirror stopped.
//! * `SNAPSHOT` — full bootstrap: the primary's live epoch plus its
//!   [`ShardedEngine::write_image`] bytes — the v2 *arena image* (see
//!   `dash_core::persist`): every shard's catalog, posting arenas and
//!   graph columns as checksummed fixed-width arrays. The replica
//!   reconstructs through [`IngestSource::Image`], bulk-reading
//!   columns instead of re-running `build`, so bootstrap cost is
//!   O(bytes), not O(rebuild) — and the exact partition ships with the
//!   image, so the replica's shard layout, and therefore its search
//!   byte-stream, is the primary's.
//! * `RESUME` — the cheap alternative: when the replica's reported
//!   epoch still sits inside the primary's delta log (the last
//!   [`DELTA_LOG`] publications, [`DashServer::events_after`]), the
//!   primary confirms the base epoch and replays only the missed
//!   deltas. A briefly disconnected replica catches up in a handful of
//!   delta frames instead of re-shipping the whole index.
//! * `DELTA` — one per publication after the bootstrap or resume:
//!   epoch, then delta. The streamer is a cursor on the same delta
//!   log: it asks for the publications after the last epoch it sent,
//!   so every delta is contiguous with the snapshot epoch or resume
//!   base by epoch numbering alone — no publication is lost or
//!   duplicated however the join interleaves with concurrent writers.
//!   A stream that falls [`DELTA_LOG`] publications behind (its next
//!   epoch has left the log) is cut; the replica reconnects and
//!   resumes or re-snapshots as after any disconnect.
//!
//! The replica applies each delta through its *own* [`DashServer`]
//! publish path (shadow apply → atomic snapshot swap → precise cache
//! invalidation), so a replica search can never observe a
//! half-applied delta: a torn TCP stream dies in the framing layer
//! before anything touches the engine. The local server is opened
//! **at the primary's epoch** ([`DashServer::from_engine_at_epoch`]),
//! so epoch numbering is cluster-wide: the replica's own publish path
//! stamps replicated deltas with primary epochs, its own delta log
//! fills with primary-numbered events, and on promotion the new
//! primary's epochs continue the old sequence seamlessly.
//!
//! Delta epochs are gap-checked on apply: each must be exactly
//! `current + 1`. A dropped frame (injected or real) kills the
//! connection instead of silently diverging the mirror; the reconnect
//! HELLO then repairs the gap via `RESUME` — or a full snapshot if the
//! replica fell off the log's tail.
//!
//! On disconnect the replica keeps serving its last published snapshot
//! (stale-but-consistent) and re-syncs when the primary comes back.
//! [`Replica::retarget`] points the sync loop at a different hub (the
//! failover path after a promotion); [`Replica::promote`] stops
//! mirroring and hands out the local server to *be* the next primary.
//!
//! [`ShardedEngine::write_image`]: dash_core::ShardedEngine::write_image
//! [`IngestSource::Image`]: dash_core::IngestSource::Image
//! [`IndexDelta`]: dash_core::IndexDelta
//! [`DELTA_LOG`]: dash_serve::DELTA_LOG

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dash_core::{wire, IngestSource, SearchHit, SearchRequest, ShardedEngine};
use dash_serve::{DashServer, PublishEvent, ServeConfig};
use dash_webapp::WebApplication;
use parking_lot::{Mutex, RwLock};

use crate::http::invalid;

/// Frame tags of the replication stream.
const FRAME_SNAPSHOT: u8 = 1;
const FRAME_DELTA: u8 = 2;
const FRAME_HELLO: u8 = 3;
const FRAME_RESUME: u8 = 4;

/// Frames larger than this are protocol errors (a fooddb-scale dump is
/// kilobytes; even a million-fragment dump stays far below).
const MAX_FRAME_BYTES: u64 = 1 << 32;

/// A HELLO's payload: the `has_state` flag and an epoch.
const HELLO_BYTES: u64 = 9;

/// Payload bytes a frame reader allocates ahead of their arrival.
const READ_STEP: usize = 64 << 10;

/// How long a streamer waits for the next publication between
/// stop-flag checks.
const STREAM_POLL: Duration = Duration::from_millis(50);

/// How long the hub waits for a connecting replica's HELLO before
/// dropping the connection (a replica that never speaks must not pin a
/// streamer thread forever).
const HELLO_DEADLINE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Writes one `tag + u64 length + payload` frame.
fn write_frame<W: Write>(writer: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    writer.write_all(&[tag])?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame, tolerating read timeouts (the poll loop re-enters)
/// but never tearing: a timeout mid-frame resumes exactly where the
/// partial read stopped. Returns `None` when `stop` was raised.
fn read_frame(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<(u8, Vec<u8>)>> {
    read_frame_until(stream, stop, None, MAX_FRAME_BYTES)
}

/// [`read_frame`] with an optional absolute deadline — timeouts past it
/// become errors instead of re-entering the poll loop — and a payload
/// bound: a longer declared length is refused before any payload byte
/// is read. The payload buffer grows as its bytes arrive, never from
/// the declared length, so a header alone cannot make the reader
/// allocate.
fn read_frame_until(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    until: Option<Instant>,
    max_len: u64,
) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; 9];
    if !read_full(stream, &mut header, stop, until)? {
        return Ok(None);
    }
    let tag = header[0];
    let len = u64::from_le_bytes(header[1..9].try_into().expect("8 bytes"));
    if len > max_len {
        return Err(invalid("replication frame too large"));
    }
    let len = usize::try_from(len).map_err(|_| invalid("replication frame too large"))?;
    let mut payload = Vec::new();
    while payload.len() < len {
        let at = payload.len();
        payload.resize(at + (len - at).min(READ_STEP), 0);
        if !read_full(stream, &mut payload[at..], stop, until)? {
            return Ok(None);
        }
    }
    Ok(Some((tag, payload)))
}

/// `read_exact` that survives read timeouts without losing the bytes
/// already read. `Ok(false)` means `stop` was raised mid-read; a
/// timeout past `until` is an error.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    until: Option<Instant>,
) -> io::Result<bool> {
    let mut at = 0;
    while at < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Ok(false);
        }
        match stream.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "replication peer closed",
                ))
            }
            Ok(n) => at += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if until.is_some_and(|deadline| Instant::now() >= deadline) {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "replication frame deadline exceeded",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn snapshot_payload(epoch: u64, engine: &ShardedEngine) -> Vec<u8> {
    let mut payload = epoch.to_le_bytes().to_vec();
    engine
        .write_image(&mut payload)
        .expect("Vec<u8> writes are infallible");
    payload
}

fn delta_payload(event: &PublishEvent) -> Vec<u8> {
    let mut payload = event.epoch.to_le_bytes().to_vec();
    wire::write_delta(&mut payload, &event.delta).expect("Vec<u8> writes are infallible");
    payload
}

fn hello_payload(has_state: bool, epoch: u64) -> Vec<u8> {
    let mut payload = vec![u8::from(has_state)];
    payload.extend(epoch.to_le_bytes());
    payload
}

/// Reads the HELLO a connecting replica opens with. Any peer that
/// connects to the hub gets this far, so the frame is bounded to a
/// HELLO's 9 bytes and must arrive before [`HELLO_DEADLINE`].
fn read_hello(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<(bool, u64)>> {
    let deadline = Some(Instant::now() + HELLO_DEADLINE);
    let Some((tag, payload)) = read_frame_until(stream, stop, deadline, HELLO_BYTES)? else {
        return Ok(None);
    };
    if tag != FRAME_HELLO {
        return Err(invalid("replication stream must start with a hello"));
    }
    read_hello_payload(&payload).map(Some)
}

fn read_hello_payload(payload: &[u8]) -> io::Result<(bool, u64)> {
    if payload.len() as u64 != HELLO_BYTES {
        return Err(invalid("malformed hello payload"));
    }
    let epoch = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    Ok((payload[0] != 0, epoch))
}

fn read_epoch(payload: &[u8]) -> io::Result<(u64, &[u8])> {
    if payload.len() < 8 {
        return Err(invalid("frame payload missing epoch"));
    }
    let epoch = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok((epoch, &payload[8..]))
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Chaos hooks on the hub's streamers, armed by tests (and usable as
/// an operational "break it on purpose" drill). All default to off;
/// each one-shot hook disarms itself when it fires.
#[derive(Debug, Default)]
pub struct ReplFaults {
    /// Silently drop the next N delta frames. The replica sees an
    /// epoch gap, kills the connection, and repairs it on reconnect —
    /// the gap-detection path.
    pub drop_deltas: AtomicU32,
    /// One-shot: kill the connection halfway through the next snapshot
    /// frame (a torn bootstrap).
    pub kill_mid_snapshot: AtomicBool,
    /// One-shot: kill the connection halfway through the next delta
    /// frame (a torn publication).
    pub kill_mid_delta: AtomicBool,
    /// Delay before each delta frame write, in milliseconds (a slow
    /// link). A stream slowed [`DELTA_LOG`] publications behind the
    /// primary is cut, and its replica resumes or re-snapshots.
    ///
    /// [`DELTA_LOG`]: dash_serve::DELTA_LOG
    pub delay_ms: AtomicU64,
}

impl ReplFaults {
    /// Consumes one unit of `drop_deltas`; true when the next delta
    /// frame should be dropped.
    fn take_drop(&self) -> bool {
        self.drop_deltas
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Writes the first half of a frame, then kills the socket — the torn
/// transfer the one-shot kill hooks inject. Always errors.
fn kill_mid_frame(stream: &mut TcpStream, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut partial = vec![tag];
    partial.extend((payload.len() as u64).to_le_bytes());
    partial.extend(&payload[..payload.len() / 2]);
    stream.write_all(&partial)?;
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Err(invalid("fault injection: connection killed mid-frame"))
}

/// Writes one delta frame per event, in order, and returns the epoch
/// of the last (`sent`, the epoch already sent, when there are none).
fn send_deltas(
    stream: &mut TcpStream,
    sent: u64,
    events: &[Arc<PublishEvent>],
    faults: &ReplFaults,
) -> io::Result<u64> {
    for event in events {
        send_delta(stream, event, faults)?;
    }
    Ok(events.last().map_or(sent, |event| event.epoch))
}

/// Writes one delta frame through the fault hooks.
fn send_delta(stream: &mut TcpStream, event: &PublishEvent, faults: &ReplFaults) -> io::Result<()> {
    let delay = faults.delay_ms.load(Ordering::Relaxed);
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    if faults.take_drop() {
        return Ok(());
    }
    let payload = delta_payload(event);
    if faults.kill_mid_delta.swap(false, Ordering::SeqCst) {
        return kill_mid_frame(stream, FRAME_DELTA, &payload);
    }
    write_frame(stream, FRAME_DELTA, &payload)
}

// ---------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------

/// The primary's replication listener: accepts replica connections,
/// answers each HELLO with a snapshot or a delta-log resume, then
/// streams every later publication. One streamer thread per replica,
/// each a cursor on the server's delta log
/// ([`DashServer::events_after`]), so a slow or dead replica never
/// delays the publish path and costs the primary no buffer of its own.
/// A stream whose next epoch has left the log is cut — counted as
/// `dash_repl_lagging_streams_cut_total` in the server's registry —
/// and its replica resumes or re-snapshots on reconnect.
#[derive(Debug)]
pub struct ReplicationHub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Write halves of the live replica sockets, for failure
    /// injection and shutdown.
    peers: Arc<Mutex<Vec<TcpStream>>>,
    faults: Arc<ReplFaults>,
    accept: Option<JoinHandle<()>>,
}

impl ReplicationHub {
    /// Starts streaming on an already-bound listener (bind to port 0
    /// for an ephemeral port; [`ReplicationHub::addr`] reports it).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn start(server: Arc<DashServer>, listener: TcpListener) -> io::Result<ReplicationHub> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let peers: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let faults = Arc::new(ReplFaults::default());
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let peers = Arc::clone(&peers);
            let faults = Arc::clone(&faults);
            std::thread::Builder::new()
                .name("dash-repl-accept".to_string())
                .spawn(move || {
                    while let Ok((stream, _)) = listener.accept() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let server = Arc::clone(&server);
                        let stop = Arc::clone(&stop);
                        let peers_for_thread = Arc::clone(&peers);
                        let faults = Arc::clone(&faults);
                        if let Ok(handle) = stream.try_clone() {
                            peers.lock().push(handle);
                        }
                        let _ = std::thread::Builder::new()
                            .name("dash-repl-stream".to_string())
                            .spawn(move || {
                                let _ = stream_to_replica(
                                    &server,
                                    stream,
                                    &stop,
                                    &peers_for_thread,
                                    &faults,
                                );
                            });
                    }
                })
                .expect("spawn replication accept thread")
        };
        Ok(ReplicationHub {
            addr,
            stop,
            peers,
            faults,
            accept: Some(accept),
        })
    }

    /// The address replicas connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The chaos hooks of this hub's streamers (see [`ReplFaults`]).
    pub fn faults(&self) -> &ReplFaults {
        &self.faults
    }

    /// Severs every live replica connection (they see EOF immediately)
    /// without stopping the listener — replicas reconnect and re-sync
    /// (via the delta log when their epoch is still on it). This is
    /// the failure-injection hook the replica failure tests use;
    /// operationally it is a rolling "resync everyone".
    pub fn disconnect_all(&self) {
        for peer in self.peers.lock().drain(..) {
            let _ = peer.shutdown(Shutdown::Both);
        }
    }

    /// Live replica connection count.
    pub fn replica_count(&self) -> usize {
        self.peers.lock().len()
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.disconnect_all();
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// The address a shutdown wake-up should connect to: the bound address
/// itself, unless the listener was bound to the wildcard — `0.0.0.0`
/// (or `[::]`) is not a connectable destination on every platform, so
/// the wake-up targets loopback on the bound port instead.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        SocketAddr::new(loopback, addr.port())
    } else {
        addr
    }
}

/// One replica's streamer: read the HELLO, answer with a snapshot or a
/// resume + backlog, then stream every publication.
fn stream_to_replica(
    server: &DashServer,
    mut stream: TcpStream,
    stop: &AtomicBool,
    peers: &Mutex<Vec<TcpStream>>,
    faults: &ReplFaults,
) -> io::Result<()> {
    // Captured before streaming: the peer (replica-side) address is
    // the connection's unique identity — every accepted socket shares
    // the listener's *local* address — and it becomes unreadable once
    // the socket dies.
    let peer = stream.peer_addr().ok();
    let result = (|| {
        stream.set_read_timeout(Some(STREAM_POLL))?;
        let Some((has_state, epoch)) = read_hello(&mut stream, stop)? else {
            return Ok(());
        };
        let backlog = if has_state {
            server.events_after(epoch, Duration::ZERO)
        } else {
            None
        };
        let mut sent = match backlog {
            Some(backlog) => {
                write_frame(&mut stream, FRAME_RESUME, &epoch.to_le_bytes())?;
                send_deltas(&mut stream, epoch, &backlog, faults)?
            }
            None => {
                let snapshot = server.snapshot();
                let payload = snapshot_payload(snapshot.epoch, &snapshot.engine);
                if faults.kill_mid_snapshot.swap(false, Ordering::SeqCst) {
                    return kill_mid_frame(&mut stream, FRAME_SNAPSHOT, &payload);
                }
                write_frame(&mut stream, FRAME_SNAPSHOT, &payload)?;
                snapshot.epoch
            }
        };
        loop {
            let events = server.events_after(sent, STREAM_POLL);
            // Checked after the wait: a stopped hub cuts no stream.
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            // An idle wait is when a gone replica is found: a ready
            // delta is sent without the probe.
            if events.as_ref().is_some_and(Vec::is_empty) && !replica_alive(&stream)? {
                return Ok(());
            }
            let Some(events) = events else {
                // The next epoch has left the log: closing the socket
                // sends the replica through its reconnect, which
                // resumes or re-snapshots.
                server
                    .registry()
                    .counter("dash_repl_lagging_streams_cut_total")
                    .inc();
                let _ = stream.shutdown(Shutdown::Both);
                return Ok(());
            };
            sent = send_deltas(&mut stream, sent, &events, faults)?;
        }
    })();
    // Deregister exactly this connection's handle, whatever ended the
    // stream (handles whose peer address is unreadable are dead too —
    // drop them along the way).
    if peer.is_some() {
        peers
            .lock()
            .retain(|p| p.peer_addr().ok().is_some_and(|a| Some(a) != peer));
    }
    result
}

/// Whether a replica's socket is still open, by a non-blocking peek.
/// A replica sends nothing after its HELLO, so end of stream, a reset
/// or any readable byte (a protocol error) all mean the stream is
/// over; only "nothing to read yet" means it is alive. Without this a
/// streamer whose replica has gone would hold its thread and its
/// `peers` entry until the next publication's write failed.
fn replica_alive(stream: &TcpStream) -> io::Result<bool> {
    stream.set_nonblocking(true)?;
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false)?;
    match peeked {
        Err(e) => Ok(matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
        )),
        Ok(_) => Ok(false),
    }
}

// ---------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------

/// Tunables of a replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Serving configuration of the replica's local [`DashServer`]
    /// (its cache; the shard count is dictated by the primary's image
    /// and ignored here).
    pub serve: ServeConfig,
    /// Delay between reconnect attempts after a lost primary.
    pub retry: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            serve: ServeConfig::default(),
            retry: Duration::from_millis(200),
        }
    }
}

/// Replica-side counters and state.
#[derive(Debug)]
struct ReplicaInner {
    app: WebApplication,
    config: ReplicaConfig,
    /// Where the sync loop connects; retargetable for failover.
    target: Mutex<SocketAddr>,
    /// The local serving stack over the mirrored engine. `None` until
    /// the first bootstrap completes; *replaced* (never mutated in
    /// place) on re-bootstrap, so readers always hold a fully
    /// consistent server.
    server: RwLock<Option<Arc<DashServer>>>,
    /// A clone of the live replication socket, so retarget/promote can
    /// sever the stream from outside the sync thread.
    live: Mutex<Option<TcpStream>>,
    /// Primary epoch of the last applied snapshot or delta.
    epoch: AtomicU64,
    connected: AtomicBool,
    bootstraps: AtomicU64,
    catchups: AtomicU64,
    deltas_applied: AtomicU64,
    promoted: AtomicBool,
    stop: AtomicBool,
    sync_done: AtomicBool,
}

impl ReplicaInner {
    /// Severs the live replication stream (if any); the sync thread
    /// sees EOF and re-enters its connect loop — or exits, if `stop`
    /// was raised first.
    fn sever(&self) {
        if let Some(live) = self.live.lock().as_ref() {
            let _ = live.shutdown(Shutdown::Both);
        }
    }
}

/// A read replica: connects to a [`ReplicationHub`], bootstraps from
/// the snapshot frame (or resumes from the delta log when
/// reconnecting), tails the delta stream, and serves reads from its
/// own [`DashServer`] — identical bytes to the primary at every epoch.
/// Reconnects forever (with [`ReplicaConfig::retry`] backoff) until
/// dropped; while disconnected it keeps serving the last published
/// snapshot.
///
/// Failover hooks: [`Replica::retarget`] repoints the sync loop at a
/// new hub (after someone else was promoted); [`Replica::promote`]
/// stops mirroring and returns the local server so *this* node can
/// become the primary — its epochs continue the cluster sequence, and
/// its own delta log (filled by the mirrored publishes) lets the other
/// replicas resume from it without re-snapshotting.
#[derive(Debug)]
pub struct Replica {
    inner: Arc<ReplicaInner>,
    sync: Option<JoinHandle<()>>,
}

impl Replica {
    /// Connects to a primary's replication address and starts the sync
    /// loop. `app` is the web application the fragments came from
    /// (application analysis artifacts ship out of band — they are
    /// static per deployment, unlike the index).
    pub fn connect(addr: SocketAddr, app: WebApplication, config: ReplicaConfig) -> Replica {
        let inner = Arc::new(ReplicaInner {
            app,
            config,
            target: Mutex::new(addr),
            server: RwLock::new(None),
            live: Mutex::new(None),
            epoch: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            bootstraps: AtomicU64::new(0),
            catchups: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            sync_done: AtomicBool::new(false),
        });
        let sync = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("dash-replica-sync".to_string())
                .spawn(move || sync_loop(&inner))
                .expect("spawn replica sync thread")
        };
        Replica {
            inner,
            sync: Some(sync),
        }
    }

    /// The local serving stack, once bootstrapped. The returned server
    /// stays valid (and serves its last state) even if the replica
    /// re-bootstraps behind it.
    pub fn server(&self) -> Option<Arc<DashServer>> {
        self.inner.server.read().clone()
    }

    /// Serves a search from the replica's current state. Empty before
    /// the first bootstrap completes (use [`Replica::wait_ready`]).
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        match self.server() {
            Some(server) => server.search(request),
            None => Vec::new(),
        }
    }

    /// Primary epoch of the replica's current state.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Whether the replication stream is currently up.
    pub fn is_connected(&self) -> bool {
        self.inner.connected.load(Ordering::SeqCst)
    }

    /// How many times the replica bootstrapped from a full snapshot
    /// (1 = initial sync only; a reconnect re-bootstraps only when the
    /// delta log could not cover the gap).
    pub fn bootstraps(&self) -> u64 {
        self.inner.bootstraps.load(Ordering::SeqCst)
    }

    /// How many reconnects were answered with a delta-log `RESUME`
    /// instead of a snapshot.
    pub fn catchups(&self) -> u64 {
        self.inner.catchups.load(Ordering::SeqCst)
    }

    /// Deltas applied through the replication stream (across all
    /// connections).
    pub fn deltas_applied(&self) -> u64 {
        self.inner.deltas_applied.load(Ordering::SeqCst)
    }

    /// Whether [`Replica::promote`] has been called.
    pub fn is_promoted(&self) -> bool {
        self.inner.promoted.load(Ordering::SeqCst)
    }

    /// Repoints the sync loop at a different hub — the failover path
    /// after a promotion elsewhere. The current stream (if any) is
    /// severed; the next connect HELLOs the new hub with the replica's
    /// current epoch, so a hub whose delta log covers it answers with
    /// a cheap `RESUME` (a promoted ex-replica's log does, for every
    /// peer that was at or behind its promotion epoch).
    pub fn retarget(&self, addr: SocketAddr) {
        *self.inner.target.lock() = addr;
        self.inner.sever();
    }

    /// Stops mirroring and returns the local server so this node can
    /// serve as the next primary. The sync loop is terminated (waited
    /// for, bounded), so no replicated publish can race the new
    /// primary's own. Returns `None` if the replica never bootstrapped
    /// — a stateless node cannot be promoted.
    ///
    /// The returned server's epoch continues the cluster-wide
    /// sequence, and its delta log holds the mirrored publications, so
    /// surviving replicas [`Replica::retarget`]ed at a hub over this
    /// server resume via the delta log instead of re-snapshotting.
    pub fn promote(&self) -> Option<Arc<DashServer>> {
        let server = self.server()?;
        self.inner.promoted.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.sever();
        // Bounded wait for the sync thread to park: once it has, no
        // further replicated delta can be published behind our back.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.inner.sync_done.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.inner.connected.store(false, Ordering::SeqCst);
        Some(server)
    }

    /// Blocks until the first bootstrap completes (true) or the
    /// timeout elapses (false).
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.server().is_none() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Blocks until the replica has reached at least `epoch` (true) or
    /// the timeout elapses (false).
    pub fn wait_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.epoch() < epoch || self.server().is_none() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Blocks until the connected flag reads `want` (true) or the
    /// timeout elapses (false).
    pub fn wait_connected(&self, want: bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.is_connected() != want {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.sever();
        if let Some(sync) = self.sync.take() {
            let _ = sync.join();
        }
    }
}

/// The replica's connect → hello → bootstrap/resume → tail → retry
/// loop.
fn sync_loop(inner: &ReplicaInner) {
    while !inner.stop.load(Ordering::Relaxed) {
        let addr = *inner.target.lock();
        if let Ok(stream) = TcpStream::connect(addr) {
            // Short read timeout: the tail loop polls the stop flag
            // between timeouts, and read_full resumes partial frames.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            *inner.live.lock() = stream.try_clone().ok();
            let _ = sync_once(stream, inner);
            *inner.live.lock() = None;
        }
        inner.connected.store(false, Ordering::SeqCst);
        // Interruptible retry sleep.
        let deadline = Instant::now() + inner.config.retry;
        while Instant::now() < deadline && !inner.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    inner.sync_done.store(true, Ordering::SeqCst);
}

/// One connection's worth of replication: hello, bootstrap or resume,
/// then tail deltas until the stream dies or the replica stops.
fn sync_once(mut stream: TcpStream, inner: &ReplicaInner) -> io::Result<()> {
    // Hello: tell the hub what state we already hold, so a brief
    // disconnect is repaired from the delta log instead of a full
    // re-snapshot.
    let has_state = inner.server.read().is_some();
    let epoch = inner.epoch.load(Ordering::SeqCst);
    write_frame(&mut stream, FRAME_HELLO, &hello_payload(has_state, epoch))?;
    let Some((tag, payload)) = read_frame(&mut stream, &inner.stop)? else {
        return Ok(());
    };
    match tag {
        FRAME_SNAPSHOT => {
            let (epoch, rest) = read_epoch(&payload)?;
            // Arena-image load: columns bulk-read into the arenas, no
            // index rebuild. A torn or corrupted image errors here
            // (every section is checksummed) and the reconnect retries.
            let engine = ShardedEngine::builder(inner.app.clone())
                .source(IngestSource::Image(rest))
                .build()
                .map_err(|e| invalid(&format!("snapshot load failed: {e}")))?;
            // Opened *at the primary's epoch*: local publications of
            // replicated deltas keep cluster-wide epoch numbering (see
            // the module docs).
            let server = Arc::new(DashServer::from_engine_at_epoch(
                engine,
                inner.config.serve.clone(),
                epoch,
            ));
            *inner.server.write() = Some(server);
            inner.epoch.store(epoch, Ordering::SeqCst);
            inner.bootstraps.fetch_add(1, Ordering::SeqCst);
            crate::obs::global_counter!("dash_repl_bootstraps_total").inc();
            dash_obs::Registry::global()
                .gauge("dash_repl_epoch")
                .set(epoch);
        }
        FRAME_RESUME => {
            let (base, _) = read_epoch(&payload)?;
            if !has_state || base != epoch {
                return Err(invalid("resume base does not match replica state"));
            }
            inner.catchups.fetch_add(1, Ordering::SeqCst);
            crate::obs::global_counter!("dash_repl_catchups_total").inc();
        }
        other => return Err(invalid(&format!("unexpected bootstrap frame tag {other}"))),
    }
    inner.connected.store(true, Ordering::SeqCst);
    // Tail: apply every delta through the local publish path,
    // gap-checking epochs — a missed frame must kill the connection
    // (the reconnect repairs it), never silently diverge the mirror.
    loop {
        let Some((tag, payload)) = read_frame(&mut stream, &inner.stop)? else {
            return Ok(());
        };
        if tag != FRAME_DELTA {
            return Err(invalid(&format!("unexpected frame tag {tag}")));
        }
        let (epoch, mut rest) = read_epoch(&payload)?;
        let delta = wire::read_delta(&mut rest)?;
        if !rest.is_empty() {
            return Err(invalid("trailing bytes after the delta frame's delta"));
        }
        // Gap between this frame and the next epoch the replica
        // expects: 0 on an in-order stream (replayed frames saturate
        // to 0). A nonzero value is about to kill the connection.
        dash_obs::Registry::global()
            .gauge("dash_repl_epoch_lag")
            .set(epoch.saturating_sub(inner.epoch.load(Ordering::SeqCst) + 1));
        let current = inner.epoch.load(Ordering::SeqCst);
        if epoch <= current {
            continue; // replayed frame from a reconnect race
        }
        if epoch != current + 1 {
            return Err(invalid(&format!(
                "delta epoch gap: have {current}, received {epoch}"
            )));
        }
        let server = inner
            .server
            .read()
            .clone()
            .expect("server present after bootstrap");
        // A delta that does not fit the application is refused before
        // the mirror changes; the connection drops with the error.
        server
            .try_publish_with_epoch(delta)
            .map_err(|e| invalid(&format!("refused delta frame at epoch {epoch}: {e}")))?;
        inner.epoch.store(epoch, Ordering::SeqCst);
        inner.deltas_applied.fetch_add(1, Ordering::SeqCst);
        crate::obs::global_counter!("dash_repl_deltas_applied_total").inc();
        dash_obs::Registry::global()
            .gauge("dash_repl_epoch")
            .set(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::IndexDelta;

    #[test]
    fn frame_codec_roundtrips_and_resumes_across_timeouts() {
        // Loopback socket pair; 10ms read timeout on the read half.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let stop = AtomicBool::new(false);

        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        // Write the frame in two chunks with a pause: the reader must
        // time out mid-frame and resume without tearing.
        let mut framed = vec![FRAME_DELTA];
        framed.extend((payload.len() as u64).to_le_bytes());
        framed.extend(&payload);
        let half = framed.len() / 2;
        let (first, second) = framed.split_at(half);
        let first = first.to_vec();
        let second = second.to_vec();
        let writer = std::thread::spawn(move || {
            tx.write_all(&first).unwrap();
            tx.flush().unwrap();
            std::thread::sleep(Duration::from_millis(40));
            tx.write_all(&second).unwrap();
            tx.flush().unwrap();
        });
        let (tag, got) = read_frame(&mut rx, &stop).unwrap().unwrap();
        writer.join().unwrap();
        assert_eq!(tag, FRAME_DELTA);
        assert_eq!(got, payload);
    }

    #[test]
    fn torn_stream_is_an_error_not_a_partial_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let stop = AtomicBool::new(false);
        let mut framed = vec![FRAME_SNAPSHOT];
        framed.extend(100u64.to_le_bytes());
        framed.extend(vec![7u8; 30]); // 30 of the promised 100 bytes
        tx.write_all(&framed).unwrap();
        drop(tx); // mid-frame kill
        assert!(read_frame(&mut rx, &stop).is_err());
    }

    #[test]
    fn a_declared_length_allocates_nothing_before_its_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let huge = (1u64 << 32).to_le_bytes();
        // Any peer can send the hub a HELLO header declaring 4 GiB: it
        // is refused on the header alone.
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        tx.write_all(&[FRAME_HELLO]).unwrap();
        tx.write_all(&huge).unwrap();
        let refused = read_hello(&mut rx, &stop).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
        // A frame declaring as much is admitted, and still errors
        // when the peer dies 30 bytes in.
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.write_all(&[FRAME_SNAPSHOT]).unwrap();
        tx.write_all(&huge).unwrap();
        tx.write_all(&[7u8; 30]).unwrap();
        drop(tx);
        let torn = read_frame(&mut rx, &stop).unwrap_err();
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof, "{torn}");
    }

    #[test]
    fn delta_payload_roundtrips_through_epoch_framing() {
        let event = PublishEvent {
            epoch: 42,
            delta: IndexDelta::default(),
        };
        let payload = delta_payload(&event);
        let (epoch, mut rest) = read_epoch(&payload).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(wire::read_delta(&mut rest).unwrap(), event.delta);
        assert!(rest.is_empty());
    }

    #[test]
    fn a_delta_frame_of_another_arity_is_refused_and_the_mirror_left_intact() {
        use dash_core::{Fragment, FragmentId};
        use dash_relation::Value;
        let app = dash_webapp::fooddb::search_application().unwrap();
        let engine = ShardedEngine::builder(app.clone()).build().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let replica = Replica::connect(
            listener.local_addr().unwrap(),
            app,
            ReplicaConfig {
                retry: Duration::from_millis(20),
                ..ReplicaConfig::default()
            },
        );
        let stop = AtomicBool::new(false);
        let deadline = || Some(Instant::now() + Duration::from_secs(10));
        let larb = |values: Vec<Value>| {
            Fragment::new(
                FragmentId::new(values),
                [("larb".to_string(), 2u64)].into_iter().collect(),
                1,
            )
        };
        let delta_frame = |epoch: u64, fragment: Fragment| {
            delta_payload(&PublishEvent {
                epoch,
                delta: IndexDelta::adding(vec![fragment]),
            })
        };

        // First connection: bootstrap at epoch 0, then a delta whose
        // identifier has no range value. The replica must drop the
        // connection without applying it.
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(read_hello(&mut stream, &stop).unwrap(), Some((false, 0)));
        write_frame(&mut stream, FRAME_SNAPSHOT, &snapshot_payload(0, &engine)).unwrap();
        let short = delta_frame(1, larb(vec![Value::str("Lao")]));
        write_frame(&mut stream, FRAME_DELTA, &short).unwrap();
        assert!(read_frame_until(&mut stream, &stop, deadline(), MAX_FRAME_BYTES).is_err());
        assert_eq!(replica.epoch(), 0);
        assert_eq!(replica.deltas_applied(), 0);

        // The reconnect resumes at epoch 0, and a delta that fits
        // applies on the untouched mirror.
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(read_hello(&mut stream, &stop).unwrap(), Some((true, 0)));
        write_frame(&mut stream, FRAME_RESUME, &0u64.to_le_bytes()).unwrap();
        let fits = delta_frame(1, larb(vec![Value::str("Lao"), Value::Int(3)]));
        write_frame(&mut stream, FRAME_DELTA, &fits).unwrap();
        assert!(replica.wait_epoch(1, Duration::from_secs(10)));
        assert_eq!(replica.deltas_applied(), 1);
        let hits = replica.search(&SearchRequest::new(&["larb"]).k(5).min_size(1));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn a_gone_replica_is_deregistered_without_a_publication() {
        let app = dash_webapp::fooddb::search_application().unwrap();
        let engine = ShardedEngine::builder(app).build().unwrap();
        let server = Arc::new(DashServer::from_engine(engine, ServeConfig::default()));
        let hub = ReplicationHub::start(server, TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let mut replica = TcpStream::connect(hub.addr()).unwrap();
        write_frame(&mut replica, FRAME_HELLO, &hello_payload(false, 0)).unwrap();
        let stop = AtomicBool::new(false);
        let (tag, _) = read_frame(&mut replica, &stop).unwrap().unwrap();
        assert_eq!(tag, FRAME_SNAPSHOT);
        assert_eq!(hub.replica_count(), 1);
        // The replica goes; nothing is published after it.
        drop(replica);
        let gone = Instant::now();
        while hub.replica_count() > 0 {
            assert!(
                gone.elapsed() < Duration::from_secs(1),
                "a streamer outlived its replica by a second"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn hello_payload_roundtrips() {
        assert_eq!(
            read_hello_payload(&hello_payload(true, 7)).unwrap(),
            (true, 7)
        );
        assert_eq!(
            read_hello_payload(&hello_payload(false, 0)).unwrap(),
            (false, 0)
        );
        assert!(read_hello_payload(&[1, 2, 3]).is_err());
    }

    #[test]
    fn hello_deadline_expires_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _tx = TcpStream::connect(addr).unwrap(); // connects, never speaks
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let stop = AtomicBool::new(false);
        let begin = Instant::now();
        let result = read_frame_until(
            &mut rx,
            &stop,
            Some(Instant::now() + Duration::from_millis(30)),
            HELLO_BYTES,
        );
        assert!(matches!(result, Err(e) if e.kind() == io::ErrorKind::TimedOut));
        assert!(begin.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn drop_counter_consumes_exactly_n_frames() {
        let faults = ReplFaults::default();
        faults.drop_deltas.store(2, Ordering::SeqCst);
        assert!(faults.take_drop());
        assert!(faults.take_drop());
        assert!(!faults.take_drop(), "only the armed count is dropped");
    }
}
