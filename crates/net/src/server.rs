//! The HTTP front-end: a leader/followers thread pool over `epoll`
//! (`event.rs`), in which the thread that reads a request answers it,
//! serving three routes over a [`DashServer`] (or a [`Replica`]
//! mirroring one):
//!
//! * `GET /search?kw=…&kw=…&k=…&s=…` — top-k db-page search through
//!   the full serving path (rendered cache → snapshot, a miss
//!   searched on the thread that read it); the
//!   response is the byte-stable JSON hit list of [`json::hits_to_json`].
//! * `POST /update` — a binary [`UpdateBody`]: either a
//!   [`RecordChange`] batch applied to the primary's database and
//!   routed through [`DashServer::apply_changes`], or a raw
//!   [`IndexDelta`] routed through [`DashServer::publish`]. A replica
//!   with an [`Upstream`] transparently *forwards* the body to the
//!   primary and answers with the primary's ack — any node accepts
//!   writes; one without answers `503`. A **promoted** replica serves
//!   `Publish` bodies itself (it *is* the primary now).
//! * `GET /stats` — serving counters: qps over uptime, cache hit
//!   rate, snapshot epoch, engine calls — plus the node's `role`
//!   (`"primary"` / `"replica"`; a promoted replica reports
//!   `"primary"`, which is how the routing front tier discovers the
//!   new primary after a failover).
//!
//! Connections are persistent (HTTP/1.1 keep-alive) and cost a buffer
//! each, not a thread: they wait in `epoll` until readable, so
//! open-connection count is bounded by [`NetConfig::max_connections`]
//! (overflow gets a fast `503`), not by the thread pool. Repeat
//! `GET /search` requests are answered from pre-serialized response
//! bytes — the backing [`DashServer`]'s rendered cache instance
//! ([`DashServer::search_rendered`]), swept by each publication like its
//! result cache — making a hot cache hit a single `write(2)` by the
//! leader, in place.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use dash_core::{wire, IndexDelta, RecordChange, SearchRequest};
use dash_relation::Database;
use dash_serve::{CacheStats, DashServer};
use parking_lot::Mutex;

use crate::event::{self, NetCounters, Pool};
use crate::forward::Upstream;
use crate::http::{invalid, Request, Response};
use crate::json;
use crate::obs::NetObs;
use crate::repl::Replica;

/// Update-body kind tags (first byte of a `POST /update` body).
const UPDATE_CHANGES: u8 = 0;
const UPDATE_PUBLISH: u8 = 1;
/// Change-op tags inside a changes body.
const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Tunables of the socket front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Requests handled at once. The pool runs one thread more, so
    /// that while `workers` threads answer requests one still leads:
    /// it waits on `epoll`, accepts, writes byte-cache hits and sheds.
    /// This bounds the concurrency of *handling*, not of connections —
    /// idle keep-alive peers cost no thread.
    pub workers: usize,
    /// Open-connection cap; a connect past it is answered `503` and
    /// closed immediately (never silently stalled).
    pub max_connections: usize,
    /// Requests that may wait for a thread. A request the leader cannot
    /// answer in place, arriving with no follower parked to take over
    /// the lead and this many requests already waiting, is answered
    /// `503` at once (load shedding).
    pub queue_depth: usize,
    /// Honor a `debug_sleep_us` query parameter by stalling the thread
    /// that answers the request that long (capped at 1s) first —
    /// diagnostic fault injection for the slow-request log. Off by
    /// default; never enable on a production front-end.
    pub allow_debug_sleep: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 8,
            max_connections: 10_240,
            queue_depth: 1024,
            allow_debug_sleep: false,
        }
    }
}

/// One base-table change shipped to `POST /update`: the operation
/// plus the record (`RecordChange` carries relation + record; the op
/// tells the server whether to insert it into or delete it from its
/// database before re-crawling the affected fragments).
#[derive(Debug, Clone, PartialEq)]
pub enum NetChange {
    /// Insert the record.
    Insert(RecordChange),
    /// Delete the (exact) record.
    Delete(RecordChange),
}

/// A decoded `POST /update` body.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateBody {
    /// Base-table record changes: applied to the primary's database,
    /// then routed through the bulk delta path
    /// ([`DashServer::apply_changes`]).
    Changes(Vec<NetChange>),
    /// A prebuilt delta published as-is ([`DashServer::publish`]) —
    /// the path [`NetClient::publish`](crate::NetClient::publish) takes.
    Publish(IndexDelta),
}

/// Encodes an update body (the client half).
pub fn encode_update(body: &UpdateBody) -> Vec<u8> {
    let mut out = Vec::new();
    match body {
        UpdateBody::Changes(changes) => {
            out.push(UPDATE_CHANGES);
            out.extend((changes.len() as u64).to_le_bytes());
            for change in changes {
                let (op, change) = match change {
                    NetChange::Insert(c) => (OP_INSERT, c),
                    NetChange::Delete(c) => (OP_DELETE, c),
                };
                out.push(op);
                wire::write_change(&mut out, change).expect("Vec<u8> writes are infallible");
            }
        }
        UpdateBody::Publish(delta) => {
            out.push(UPDATE_PUBLISH);
            wire::write_delta(&mut out, delta).expect("Vec<u8> writes are infallible");
        }
    }
    out
}

/// Decodes an update body (the server half).
///
/// # Errors
///
/// `InvalidData` on unknown tags, torn payloads, or trailing bytes
/// after a valid body — a clean prefix followed by garbage means a
/// concatenated or corrupted request, and silently accepting it would
/// apply a different update than the client believes it sent.
pub fn decode_update(bytes: &[u8]) -> io::Result<UpdateBody> {
    let mut reader = bytes;
    let body = decode_update_body(&mut reader)?;
    if !reader.is_empty() {
        return Err(invalid(&format!(
            "{} trailing bytes after update body",
            reader.len()
        )));
    }
    Ok(body)
}

fn decode_update_body(reader: &mut &[u8]) -> io::Result<UpdateBody> {
    let mut tag = [0u8; 1];
    reader.read_exact(&mut tag)?;
    match tag[0] {
        UPDATE_CHANGES => {
            let mut count = [0u8; 8];
            reader.read_exact(&mut count)?;
            let count = u64::from_le_bytes(count);
            if count > (1 << 24) {
                return Err(invalid("change count out of bounds"));
            }
            let mut changes = Vec::with_capacity(count.min(1 << 16) as usize);
            for _ in 0..count {
                let mut op = [0u8; 1];
                reader.read_exact(&mut op)?;
                let change = wire::read_change(&mut *reader)?;
                changes.push(match op[0] {
                    OP_INSERT => NetChange::Insert(change),
                    OP_DELETE => NetChange::Delete(change),
                    other => return Err(invalid(&format!("unknown change op {other}"))),
                });
            }
            Ok(UpdateBody::Changes(changes))
        }
        UPDATE_PUBLISH => Ok(UpdateBody::Publish(wire::read_delta(&mut *reader)?)),
        other => Err(invalid(&format!("unknown update tag {other}"))),
    }
}

/// What the server answers an update with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateAck {
    /// Fragments removed by the resulting delta.
    pub removed: usize,
    /// Fragments (re)inserted.
    pub added: usize,
    /// The publication epoch after the update.
    pub epoch: u64,
}

pub(crate) fn ack_to_json(ack: &UpdateAck) -> String {
    format!(
        "{{\"removed\":{},\"added\":{},\"epoch\":{}}}",
        ack.removed, ack.added, ack.epoch
    )
}

pub(crate) fn ack_from_json(text: &str) -> io::Result<UpdateAck> {
    let doc = json::parse(text)?;
    let get = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| invalid(&format!("missing {key}")))
    };
    Ok(UpdateAck {
        removed: get("removed")? as usize,
        added: get("added")? as usize,
        epoch: get("epoch")?,
    })
}

/// How long a forwarding replica waits for its own mirror to reach the
/// forwarded write's epoch before answering — the read-your-writes
/// window: a client that wrote through this replica and immediately
/// searches it sees its write, as long as replication keeps up.
const FORWARD_WAIT: Duration = Duration::from_secs(2);

/// What the front-end serves: a writable primary (server + the
/// database the record changes mutate) or a read replica (optionally
/// forwarding writes upstream).
#[derive(Debug, Clone)]
pub enum Backend {
    /// The writable primary.
    Primary {
        /// The serving stack.
        server: Arc<DashServer>,
        /// The authoritative database record changes apply to, kept in
        /// lockstep with the engine under one lock.
        db: Arc<Mutex<Database>>,
    },
    /// A read replica. With an upstream, writes are transparently
    /// forwarded to the primary; without one they answer `503`. After
    /// [`Replica::promote`] the node serves `Publish` writes itself.
    Replica {
        /// The mirroring replica.
        replica: Arc<Replica>,
        /// Where to forward writes (the primary's HTTP address),
        /// retargetable on failover.
        upstream: Option<Arc<Upstream>>,
    },
}

impl Backend {
    /// The serving stack behind this front-end, when one is live: the
    /// primary's server, or a replica's current mirror (a re-bootstrap
    /// replaces it, and its caches go with it).
    pub(crate) fn server(&self) -> Option<Arc<DashServer>> {
        match self {
            Backend::Primary { server, .. } => Some(Arc::clone(server)),
            Backend::Replica { replica, .. } => replica.server(),
        }
    }

    fn search(&self, request: &SearchRequest) -> Result<Vec<dash_core::SearchHit>, Response> {
        self.server()
            .map(|server| server.search(request))
            .ok_or_else(|| Response::error(503, "replica not bootstrapped yet"))
    }

    fn update(&self, body: UpdateBody) -> Result<UpdateAck, Response> {
        match self {
            Backend::Primary { server, db } => match body {
                UpdateBody::Publish(delta) => publish_to(server, delta),
                UpdateBody::Changes(changes) => apply_changes_to(server, db, changes),
            },
            Backend::Replica { replica, upstream } => {
                if replica.is_promoted() {
                    // This node *is* the primary now. Prebuilt deltas
                    // publish directly (epoch numbering continues the
                    // cluster sequence). Record-change batches need the
                    // authoritative base tables, which never replicate —
                    // only the index does — so they stay unavailable
                    // until an operator restores a database alongside.
                    let Some(server) = replica.server() else {
                        return Err(Response::error(503, "promoted node has no state"));
                    };
                    return match body {
                        UpdateBody::Publish(delta) => publish_to(&server, delta),
                        UpdateBody::Changes(_) => Err(Response::error(
                            503,
                            "promoted from a replica: base-table changes need the \
                             authoritative database",
                        )),
                    };
                }
                let Some(upstream) = upstream else {
                    return Err(Response::error(
                        503,
                        "read replica: updates go to the primary",
                    ));
                };
                match upstream.forward(&body) {
                    Ok(ack) => {
                        // Read-your-writes: wait (bounded) for the
                        // mirror to catch up to the acked epoch before
                        // answering. A lagging mirror still acks — the
                        // write is durable on the primary; the client
                        // can compare the ack epoch against /stats.
                        replica.wait_epoch(ack.epoch, FORWARD_WAIT);
                        Ok(ack)
                    }
                    Err(e) => Err(Response::error(
                        502,
                        &format!("forwarding to primary failed: {e}"),
                    )),
                }
            }
        }
    }

    fn stats_json(&self) -> String {
        let (role, server) = match self {
            Backend::Primary { server, .. } => ("primary", Some(Arc::clone(server))),
            // A promoted replica *is* the primary: reporting the role
            // here is what lets the routing front tier re-discover the
            // write target after a failover.
            Backend::Replica { replica, .. } => (
                if replica.is_promoted() {
                    "primary"
                } else {
                    "replica"
                },
                replica.server(),
            ),
        };
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"role\":\"{role}\""));
        if let Some(server) = server {
            let stats = server.stats();
            let uptime = server.uptime().as_secs_f64();
            let lookups = stats.cache.hits + stats.cache.misses;
            out.push_str(&format!(
                ",\"epoch\":{},\"searches\":{},\"qps\":{:.2},\"cache_hits\":{},\
                 \"cache_misses\":{},\"cache_hit_rate\":{:.4},\"batches\":{},\
                 \"batched_requests\":{},\"published\":{},\"cached_results\":{},\
                 \"uptime_ms\":{}",
                server.epoch(),
                stats.searches,
                stats.searches as f64 / uptime.max(1e-9),
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.hits as f64 / (lookups.max(1)) as f64,
                stats.batches,
                stats.batched_requests,
                stats.published,
                server.cached_results(),
                server.uptime().as_millis(),
            ));
        }
        if let Backend::Replica { replica, upstream } = self {
            out.push_str(&format!(
                ",\"connected\":{},\"replica_epoch\":{},\"bootstraps\":{},\"catchups\":{},\
                 \"deltas_applied\":{},\"promoted\":{}",
                replica.is_connected(),
                replica.epoch(),
                replica.bootstraps(),
                replica.catchups(),
                replica.deltas_applied(),
                replica.is_promoted(),
            ));
            if let Some(upstream) = upstream {
                out.push_str(&format!(
                    ",\"forwarded\":{},\"forward_retries\":{}",
                    upstream.forwarded(),
                    upstream.retries(),
                ));
            }
        }
        out.push('}');
        out
    }
}

/// Publishes a prebuilt delta. A delta that does not fit the
/// application — an identifier of another arity, a count a posting
/// cannot hold — is answered `400` before either engine changes.
fn publish_to(server: &DashServer, delta: IndexDelta) -> Result<UpdateAck, Response> {
    match server.try_publish_with_epoch(delta) {
        Ok((stats, epoch)) => Ok(UpdateAck {
            removed: stats.removed,
            added: stats.added,
            epoch,
        }),
        Err(e) => Err(Response::error(400, &format!("publish refused: {e}"))),
    }
}

/// Applies a record-change batch to the primary's database and engine
/// in lockstep — the shared write path behind `POST /update` changes
/// bodies, whether they arrived directly or were forwarded from a
/// replica.
///
/// One lock span across db mutation + delta publication keeps database
/// and engine in lockstep for concurrent updaters. The batch is
/// applied to a staged copy first: a mid-batch failure (unknown
/// relation, schema mismatch) must leave the authoritative database
/// untouched — a half-applied batch would diverge db and engine
/// forever, since nothing gets published.
fn apply_changes_to(
    server: &DashServer,
    db: &Mutex<Database>,
    changes: Vec<NetChange>,
) -> Result<UpdateAck, Response> {
    let mut db = db.lock();
    let mut staged = db.clone();
    let mut batch = Vec::with_capacity(changes.len());
    for change in changes {
        match change {
            NetChange::Insert(change) => {
                let applied = staged
                    .table_mut(&change.relation)
                    .and_then(|t| t.insert(change.record.clone()));
                if let Err(e) = applied {
                    return Err(Response::error(400, &format!("insert failed: {e}")));
                }
                batch.push(change);
            }
            NetChange::Delete(change) => {
                match staged.table_mut(&change.relation) {
                    Ok(table) => {
                        table.delete_where(|r| *r == change.record);
                    }
                    Err(e) => return Err(Response::error(400, &format!("delete failed: {e}"))),
                }
                batch.push(change);
            }
        }
    }
    match server.apply_changes_with_epoch(&staged, &batch) {
        Ok((stats, epoch)) => {
            *db = staged;
            Ok(UpdateAck {
                removed: stats.removed,
                added: stats.added,
                epoch,
            })
        }
        Err(e) => Err(Response::error(400, &format!("apply failed: {e}"))),
    }
}

/// The socket front-end: a leader/followers thread pool over a
/// [`Backend`]. Dropping it stops and joins every thread.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    counters: Arc<event::Counters>,
    backend: Backend,
    /// Held for its `Drop`, which stops and joins the threads.
    _pool: Pool,
}

impl NetServer {
    /// Serves a primary on an already-bound listener (bind `:0` for an
    /// ephemeral port). `db` is the database the engine was built from;
    /// `POST /update` record changes mutate it.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn serve_primary(
        server: Arc<DashServer>,
        db: Database,
        listener: TcpListener,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        Self::serve(
            Backend::Primary {
                server,
                db: Arc::new(Mutex::new(db)),
            },
            listener,
            config,
        )
    }

    /// Serves a replica on an already-bound listener. Writes answer
    /// `503` — use [`NetServer::serve_replica_forwarding`] for a
    /// replica that relays them to the primary.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn serve_replica(
        replica: Arc<Replica>,
        listener: TcpListener,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        Self::serve(
            Backend::Replica {
                replica,
                upstream: None,
            },
            listener,
            config,
        )
    }

    /// Serves a replica that transparently forwards `POST /update` to
    /// the primary through `upstream` (share one [`Upstream`] across
    /// servers to share its persistent connection and failover
    /// retargeting).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn serve_replica_forwarding(
        replica: Arc<Replica>,
        upstream: Arc<Upstream>,
        listener: TcpListener,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        Self::serve(
            Backend::Replica {
                replica,
                upstream: Some(upstream),
            },
            listener,
            config,
        )
    }

    /// Serves any backend.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn serve(
        backend: Backend,
        listener: TcpListener,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let obs = Arc::new(NetObs::new(config.allow_debug_sleep));
        let counters = Arc::new(event::Counters::new(&obs.registry));
        let pool = Pool::start(
            listener,
            backend.clone(),
            &config,
            Arc::clone(&counters),
            obs,
        )?;
        Ok(NetServer {
            addr,
            counters,
            backend,
            _pool: pool,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the connection-handling counters (accepts, open
    /// connections, overflow/shed `503`s, bad requests, timeouts).
    pub fn counters(&self) -> NetCounters {
        self.counters.snapshot()
    }

    /// A snapshot of the pre-serialized response cache's counters: the
    /// backing server's rendered instance (zeros while a replica has no
    /// server yet).
    pub fn response_cache_stats(&self) -> CacheStats {
        self.backend
            .server()
            .map(|server| server.stats().rendered)
            .unwrap_or_default()
    }

    /// Live entries in the pre-serialized response cache.
    pub fn cached_responses(&self) -> usize {
        self.backend
            .server()
            .map_or(0, |server| server.cached_responses())
    }
}

/// Routes one request.
pub(crate) fn route(request: &Request, backend: &Backend) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/search") => match parse_search(request) {
            Ok(search) => match backend.search(&search) {
                Ok(hits) => Response::json(json::hits_to_json(&hits)),
                Err(error) => error,
            },
            Err(e) => Response::error(400, &e.to_string()),
        },
        ("POST", "/update") => match decode_update(&request.body) {
            Ok(body) => match backend.update(body) {
                Ok(ack) => Response::json(ack_to_json(&ack)),
                Err(error) => error,
            },
            Err(e) => Response::error(400, &e.to_string()),
        },
        ("GET", "/stats") => Response::json(backend.stats_json()),
        ("GET", _) | ("POST", _) => Response::error(404, "unknown route"),
        _ => Response::error(405, "unsupported method"),
    }
}

/// Decodes `GET /search` query parameters into a [`SearchRequest`].
pub(crate) fn parse_search(request: &Request) -> io::Result<SearchRequest> {
    let keywords = request.params("kw");
    if keywords.is_empty() {
        return Err(invalid("at least one kw parameter required"));
    }
    let mut search = SearchRequest::new(&keywords);
    if let Some(k) = request.param("k") {
        search = search.k(k.parse().map_err(|_| invalid("bad k"))?);
    }
    if let Some(s) = request.param("s") {
        search = search.min_size(s.parse().map_err(|_| invalid("bad s"))?);
    }
    Ok(search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::{Fragment, FragmentId};
    use dash_relation::{Record, Value};

    #[test]
    fn update_bodies_roundtrip() {
        let changes = UpdateBody::Changes(vec![
            NetChange::Insert(RecordChange::new(
                "restaurant",
                Record::new(vec![Value::Int(1), Value::str("A")]),
            )),
            NetChange::Delete(RecordChange::new("comment", Record::new(vec![Value::Null]))),
        ]);
        assert_eq!(decode_update(&encode_update(&changes)).unwrap(), changes);
        let publish = UpdateBody::Publish(IndexDelta::new(
            vec![FragmentId::new(vec![Value::str("Thai"), Value::Int(10)])],
            vec![Fragment::new(
                FragmentId::new(vec![Value::str("Lao"), Value::Int(3)]),
                [("larb".to_string(), 2u64)].into_iter().collect(),
                1,
            )],
        ));
        assert_eq!(decode_update(&encode_update(&publish)).unwrap(), publish);
        assert!(decode_update(&[9, 9, 9]).is_err());
        assert!(decode_update(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_after_a_valid_update_body_are_rejected() {
        let publish = UpdateBody::Publish(IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("Lao"), Value::Int(3)]),
            [("larb".to_string(), 2u64)].into_iter().collect(),
            1,
        )]));
        let mut bytes = encode_update(&publish);
        assert!(decode_update(&bytes).is_ok(), "clean body decodes");
        // A concatenated/corrupted body must not decode as if clean.
        bytes.push(0);
        let err = decode_update(&bytes).expect_err("trailing byte rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut changes = encode_update(&UpdateBody::Changes(vec![NetChange::Insert(
            RecordChange::new("restaurant", Record::new(vec![Value::Int(1)])),
        )]));
        changes.extend_from_slice(b"junk");
        assert!(decode_update(&changes).is_err());
    }

    #[test]
    fn net_counters_snapshot_is_the_registry_view() {
        // `NetServer::counters` and the `dash_net_*` series must be
        // the same handles — bumping one view moves the other.
        let registry = dash_obs::Registry::new();
        let counters = event::Counters::new(&registry);
        counters.accepted.inc();
        counters.accepted.inc();
        counters.open.add(2);
        counters.open.sub(1);
        counters.shed_jobs.inc();
        let snap = counters.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.open, 1);
        assert_eq!(snap.shed_jobs, 1);
        assert_eq!(snap.overflows, 0);
        let text = registry.render();
        assert!(text.contains("dash_net_accepted_total 2"), "{text}");
        assert!(text.contains("dash_net_open_connections 1"), "{text}");
        assert!(text.contains("dash_net_shed_jobs_total 1"), "{text}");
    }

    #[test]
    fn acks_roundtrip_through_json() {
        let ack = UpdateAck {
            removed: 3,
            added: 7,
            epoch: 12,
        };
        assert_eq!(ack_from_json(&ack_to_json(&ack)).unwrap(), ack);
    }
}
