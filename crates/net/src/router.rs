//! The routing front tier: one [`Router`] in front of N Dash nodes,
//! spreading reads, steering writes at the primary, and surviving the
//! death of any node — the piece that turns a primary + replicas into
//! a *cluster*.
//!
//! The router is deliberately address-only: it holds no index state,
//! never inspects response bodies beyond `/stats`, and makes no
//! equivalence claims of its own — every node it fronts already
//! serves byte-identical hit lists (the net-equivalence tier), so
//! spreading reads across them is free of result skew by
//! construction.
//!
//! * **Reads** round-robin over the healthy nodes (primary included —
//!   it serves reads too). A node that fails mid-read is marked down
//!   and the read retries on the next healthy node; the caller sees
//!   one successful response or one error after every node refused.
//! * **Health** comes from a background probe thread hitting each
//!   node's `GET /stats` on a short interval: a node is healthy when
//!   it answers with serving state (an `epoch` field), and its `role`
//!   field says who believes itself primary. Probing is also run
//!   inline whenever the router runs out of healthy candidates, so a
//!   cold start or a mass failure never waits a full probe period.
//! * **Writes** go to the node reporting `role == "primary"`. When
//!   the primary dies, connect-phase failures trigger re-discovery
//!   under the shared backoff discipline ([`crate::backoff`]) — the
//!   probe sweep finds the **promoted** replica (it reports
//!   `"primary"` once [`Replica::promote`] ran) and the write lands
//!   there. Exchange-phase failures surface to the caller instead of
//!   being resent: the old primary may have applied the write before
//!   dying, and a blind replay could double-apply (the caller knows
//!   whether its write is idempotent; the router must not guess).
//!
//! [`Replica::promote`]: crate::repl::Replica::promote

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dash_core::{IndexDelta, SearchHit, SearchRequest};
use parking_lot::Mutex;

use crate::backoff::{Backoff, BackoffConfig};
use crate::client::NetClient;
use crate::json;
use crate::server::{UpdateAck, UpdateBody};

/// Tunables of the front tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Background health-probe period.
    pub probe_interval: Duration,
    /// Retry budget of a write that must wait out a failover (reads
    /// never wait — they move to the next healthy node immediately).
    pub backoff: BackoffConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            probe_interval: Duration::from_millis(50),
            backoff: BackoffConfig::default(),
        }
    }
}

/// Single-attempt connects: pacing lives in the router (reads hop to
/// the next node, writes run their own backoff loop), so the per-node
/// client must fail fast, not retry internally.
fn one_shot() -> BackoffConfig {
    BackoffConfig::default().deadline(Duration::ZERO)
}

/// One fronted node: its address, last probed health/role, and a
/// cached persistent connection.
#[derive(Debug)]
struct Node {
    addr: SocketAddr,
    healthy: AtomicBool,
    primary: AtomicBool,
    client: Mutex<Option<NetClient>>,
}

impl Node {
    fn new(addr: SocketAddr) -> Node {
        Node {
            addr,
            healthy: AtomicBool::new(false),
            primary: AtomicBool::new(false),
            client: Mutex::new(None),
        }
    }

    /// Runs one request over the cached connection (dialing if
    /// needed); any failure drops the connection so the next call
    /// starts fresh.
    fn with_client<T>(&self, run: impl FnOnce(&mut NetClient) -> io::Result<T>) -> io::Result<T> {
        let mut client = self.client.lock();
        if client.is_none() {
            *client = Some(NetClient::connect_with(self.addr, one_shot())?);
        }
        match run(client.as_mut().expect("connected above")) {
            Ok(value) => Ok(value),
            Err(e) => {
                *client = None;
                Err(e)
            }
        }
    }

    /// One `GET /stats` probe: refreshes the health flag (has serving
    /// state) and the role flag (believes itself primary).
    fn probe(&self) -> bool {
        let doc = self
            .with_client(|c| c.stats_json())
            .ok()
            .and_then(|text| json::parse(&text).ok());
        match doc {
            Some(doc) => {
                let has_state = doc.get("epoch").is_some();
                let primary = doc.get("role").and_then(|r| r.as_str()) == Some("primary");
                self.primary.store(primary && has_state, Ordering::SeqCst);
                self.healthy.store(has_state, Ordering::SeqCst);
                has_state
            }
            None => {
                self.mark_down();
                false
            }
        }
    }

    fn mark_down(&self) {
        self.healthy.store(false, Ordering::SeqCst);
        self.primary.store(false, Ordering::SeqCst);
    }
}

#[derive(Debug)]
struct RouterInner {
    nodes: Vec<Node>,
    cursor: AtomicUsize,
    reads: AtomicU64,
    read_retries: AtomicU64,
    writes: AtomicU64,
    write_failovers: AtomicU64,
    /// Index of the node that acked the most recent successful write
    /// (`usize::MAX` before any write lands) — a later ack from a
    /// *different* node is a failover the writer lived through.
    last_write: AtomicUsize,
    stop: AtomicBool,
}

impl RouterInner {
    fn probe_all(&self) {
        for node in &self.nodes {
            node.probe();
        }
    }

    fn current_primary_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.healthy.load(Ordering::SeqCst) && n.primary.load(Ordering::SeqCst))
    }

    fn current_primary(&self) -> Option<&Node> {
        self.current_primary_index().map(|at| &self.nodes[at])
    }
}

/// The front tier: spreads reads over healthy nodes, routes writes to
/// whichever node currently reports itself primary. See the module
/// docs for the failover semantics.
#[derive(Debug)]
pub struct Router {
    inner: Arc<RouterInner>,
    config: RouterConfig,
    probe: Option<JoinHandle<()>>,
}

impl Router {
    /// Fronts the given nodes (each a `NetServer` HTTP address —
    /// primary and replicas alike; roles are discovered, not
    /// declared). Runs one synchronous probe sweep, then keeps health
    /// fresh from a background thread.
    pub fn new(nodes: Vec<SocketAddr>, config: RouterConfig) -> Router {
        let inner = Arc::new(RouterInner {
            nodes: nodes.into_iter().map(Node::new).collect(),
            cursor: AtomicUsize::new(0),
            reads: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_failovers: AtomicU64::new(0),
            last_write: AtomicUsize::new(usize::MAX),
            stop: AtomicBool::new(false),
        });
        inner.probe_all();
        let probe = {
            let inner = Arc::clone(&inner);
            let interval = config.probe_interval;
            std::thread::Builder::new()
                .name("dash-router-probe".to_string())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Relaxed) {
                        inner.probe_all();
                        let deadline = Instant::now() + interval;
                        while Instant::now() < deadline && !inner.stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                })
                .expect("spawn router probe thread")
        };
        Router {
            inner,
            config,
            probe: Some(probe),
        }
    }

    /// `GET /search` through the front tier, decoded to the engine's
    /// own structs. Retries a failed node transparently; see
    /// [`Router::search_json`].
    ///
    /// # Errors
    ///
    /// Only after every node failed.
    pub fn search(&self, request: &SearchRequest) -> io::Result<Vec<SearchHit>> {
        let body = self.search_json(request)?;
        json::hits_from_json(&body)
    }

    /// `GET /search` through the front tier: round-robins over the
    /// healthy nodes, marking a failing node down and retrying on the
    /// next. When no healthy candidate remains it re-probes every
    /// node inline (a dead cluster must fail fast, a recovering one
    /// must be found without waiting a probe period).
    ///
    /// # Errors
    ///
    /// Only after every node failed.
    pub fn search_json(&self, request: &SearchRequest) -> io::Result<String> {
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        crate::obs::global_counter!("dash_router_reads_total").inc();
        let nodes = &self.inner.nodes;
        let start = self.inner.cursor.fetch_add(1, Ordering::Relaxed);
        let mut last_err = None;
        // Pass 0 trusts the probed health flags; pass 1 is the
        // desperate sweep — re-probe and retry every node.
        for desperate in [false, true] {
            for at in 0..nodes.len() {
                let node = &nodes[(start + at) % nodes.len()];
                if desperate {
                    if !node.probe() {
                        continue;
                    }
                } else if !node.healthy.load(Ordering::SeqCst) {
                    continue;
                }
                match node.with_client(|c| c.search_json(request)) {
                    Ok(body) => return Ok(body),
                    Err(e) => {
                        node.mark_down();
                        self.inner.read_retries.fetch_add(1, Ordering::Relaxed);
                        crate::obs::global_counter!("dash_router_read_retries_total").inc();
                        last_err = Some(e);
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no healthy node to read from")))
    }

    /// `POST /update` routed to the current primary. A missing or
    /// unreachable primary (connect phase — nothing sent) triggers
    /// re-discovery under the write backoff budget: the probe sweep
    /// finds a freshly promoted replica and the write fails over to
    /// it. An exchange-phase failure surfaces immediately — the write
    /// may have been applied, and only the caller knows whether a
    /// resend is safe (see the module docs).
    ///
    /// # Errors
    ///
    /// No primary within the backoff deadline; exchange-phase
    /// failures.
    pub fn update(&self, body: &UpdateBody) -> io::Result<UpdateAck> {
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
        crate::obs::global_counter!("dash_router_writes_total").inc();
        let mut backoff = Backoff::start(&self.config.backoff);
        // Whether this call ever observed the primary missing. The
        // probe thread may be the one that discovers the replacement
        // while we sit in `backoff.wait()` — or even between two calls,
        // so fast that no call ever sees the gap. Both are failovers to
        // the *writer*: count when the acked node differs from the one
        // that acked the previous write, or when this call had to wait
        // out a rediscovery.
        let mut lost_primary = false;
        loop {
            let Some(at) = self.inner.current_primary_index() else {
                lost_primary = true;
                self.inner.probe_all();
                if self.inner.current_primary_index().is_some() {
                    continue;
                }
                if backoff.wait() {
                    continue;
                }
                return Err(io::Error::other("no primary discovered before deadline"));
            };
            let node = &self.inner.nodes[at];
            let mut client = node.client.lock();
            if client.is_none() {
                // Connect phase: nothing sent — a failure here is safe
                // to retry, possibly against a different primary after
                // the next probe sweep.
                match NetClient::connect_with(node.addr, one_shot()) {
                    Ok(fresh) => *client = Some(fresh),
                    Err(e) => {
                        drop(client);
                        node.mark_down();
                        if backoff.wait() {
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
            let result = client.as_mut().expect("connected above").update(body);
            return match result {
                Ok(ack) => {
                    let prev = self.inner.last_write.swap(at, Ordering::SeqCst);
                    if lost_primary || (prev != usize::MAX && prev != at) {
                        self.inner.write_failovers.fetch_add(1, Ordering::Relaxed);
                        crate::obs::global_counter!("dash_router_write_failovers_total").inc();
                    }
                    Ok(ack)
                }
                Err(e) => {
                    // Exchange phase: may have been applied — drop the
                    // connection, mark the node for re-probing, and
                    // let the caller decide about resending.
                    *client = None;
                    drop(client);
                    node.mark_down();
                    Err(e)
                }
            };
        }
    }

    /// [`Router::update`] with a prebuilt delta.
    ///
    /// # Errors
    ///
    /// Same as [`Router::update`].
    pub fn publish(&self, delta: &IndexDelta) -> io::Result<UpdateAck> {
        self.update(&UpdateBody::Publish(delta.clone()))
    }

    /// The node currently believed primary, if any.
    pub fn primary(&self) -> Option<SocketAddr> {
        self.inner.current_primary().map(|n| n.addr)
    }

    /// How many nodes currently probe healthy.
    pub fn healthy_count(&self) -> usize {
        self.inner
            .nodes
            .iter()
            .filter(|n| n.healthy.load(Ordering::SeqCst))
            .count()
    }

    /// Reads served (attempted) through the front tier.
    pub fn reads(&self) -> u64 {
        self.inner.reads.load(Ordering::Relaxed)
    }

    /// Read attempts that failed over to another node.
    pub fn read_retries(&self) -> u64 {
        self.inner.read_retries.load(Ordering::Relaxed)
    }

    /// Writes routed (attempted) through the front tier.
    pub fn writes(&self) -> u64 {
        self.inner.writes.load(Ordering::Relaxed)
    }

    /// Writes that lived through a primary failover: acked by a
    /// different node than the previous write, or acked only after
    /// this call waited out a primary re-discovery.
    pub fn write_failovers(&self) -> u64 {
        self.inner.write_failovers.load(Ordering::Relaxed)
    }

    /// Blocks until some node reports itself primary (returning its
    /// address) or the timeout elapses.
    pub fn wait_primary(&self, timeout: Duration) -> Option<SocketAddr> {
        let deadline = Instant::now() + timeout;
        loop {
            self.inner.probe_all();
            if let Some(primary) = self.primary() {
                return Some(primary);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Blocks until at least `n` nodes probe healthy (true) or the
    /// timeout elapses (false).
    pub fn wait_healthy(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.inner.probe_all();
            if self.healthy_count() >= n {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_or_dead_node_set_reads_fail_fast() {
        // Bind-then-drop: nothing listens on this address.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let router = Router::new(
            vec![addr],
            RouterConfig {
                probe_interval: Duration::from_secs(60),
                backoff: BackoffConfig::default().deadline(Duration::from_millis(20)),
            },
        );
        assert_eq!(router.healthy_count(), 0);
        assert!(router.search(&SearchRequest::new(&["x"])).is_err());
        assert!(router.publish(&IndexDelta::default()).is_err());
        assert!(router.primary().is_none());
    }
}
