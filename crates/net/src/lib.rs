//! # dash-net
//!
//! DASH on real sockets — the distributed-systems half the ICDCS
//! source paper's deployment story implies. Everything below this
//! crate is a single process: `dash-core` proved the engine
//! (sharded, incrementally maintained, byte-exact), `dash-serve`
//! proved the serving semantics (snapshot swaps, precise cache
//! invalidation). This crate puts both on the network
//! with `std::net` alone — the build environment has no registry
//! access, so HTTP, JSON and the replication protocol are small
//! hand-rolled implementations, each tested in isolation.
//!
//! ## Cluster topology
//!
//! A Dash cluster is one primary, any number of replicas, and a
//! routing front tier — every box below is a type in this crate:
//!
//! ```text
//!                         ┌────────┐
//!        clients ───────▶ │ Router │  GET /search → any healthy node
//!                         └───┬────┘  POST /update → the primary
//!              ┌──────────────┼──────────────┐
//!              ▼              ▼              ▼
//!        ┌───────────┐  ┌───────────┐  ┌───────────┐
//!        │ NetServer │  │ NetServer │  │ NetServer │   HTTP front-ends
//!        │ (primary) │  │ (replica) │  │ (replica) │
//!        └─────┬─────┘  └─────┬─────┘  └─────┬─────┘
//!              │              │ Upstream ────┘        write forwarding
//!              ▼              ▼
//!      ReplicationHub ──▶ Replica, Replica, …         delta streaming
//! ```
//!
//! * **HTTP front-end** ([`server`], [`event`]) — a leader/followers
//!   thread pool over `epoll` and nonblocking sockets; `GET /search` (byte-stable
//!   JSON hit lists), `POST /update` (binary [`RecordChange`] batches
//!   through the bulk delta path, or prebuilt [`IndexDelta`]s through
//!   publish), `GET /stats` (qps, cache hit rate, snapshot epoch,
//!   replication role — the router's health/primary probe).
//!   See *Front-end architecture* below.
//! * **Primary→replica replication** ([`repl`]) — the primary's
//!   [`ReplicationHub`] streams every published delta (epoch +
//!   [`IndexDelta`]) to connected replicas over a length-prefixed
//!   binary TCP stream, each stream a cursor on the primary's delta
//!   log of the last 64 publications. A joining [`Replica`] opens
//!   with a HELLO carrying its last applied epoch: if that epoch is
//!   still on the log it catches up from a RESUME + backlog tail (no
//!   snapshot transfer); only a fresh or hopelessly stale replica
//!   bootstraps from the arena image a SNAPSHOT frame carries (no
//!   re-partitioning, no re-build), and a stream that lags off the
//!   log is cut and goes the same way. Epochs are cluster-wide: a replica
//!   publishes each replicated delta at the *primary's* epoch number,
//!   so [`Replica::promote`] turns it into a primary that continues
//!   the same sequence — retargeted peers resume via the promoted
//!   node's own delta log. Gap detection (a delta that is not exactly
//!   `epoch + 1`) kills the connection and repairs on reconnect, and
//!   [`ReplFaults`] injects torn frames, dropped deltas and slow links
//!   for the failover tier.
//! * **Write forwarding** ([`forward`]) — a replica's [`Upstream`] is
//!   a persistent connection to the primary with jittered-backoff
//!   reconnect ([`backoff`]); `POST /update` on a forwarding replica
//!   is relayed, acked with the **primary's** publication epoch, and
//!   the replica waits (bounded) for its own mirror of that epoch —
//!   read-your-writes through any node.
//! * **Routing front tier** ([`router`]) — a [`Router`] spreads reads
//!   round-robin across nodes it probes healthy, retries a failed read
//!   on the next healthy node within the same call, and sends writes
//!   to whichever node reports the primary role — re-discovering the
//!   primary under backoff when it dies. Connect-phase failures are
//!   retried for every request; exchange-phase failures only for
//!   idempotent reads (a write that may have been applied is never
//!   silently resent).
//! * **Socket client** ([`client`]) — a persistent-connection
//!   [`NetClient`] decoding responses back into the engine's own
//!   structs bit-exactly.
//!
//! ## Front-end architecture
//!
//! One pool of threads serves every socket by the **leader/followers**
//! pattern over `epoll` ([`event`]): one thread leads and waits for
//! readiness, the others are parked or answering a request, and the
//! thread that reads a request writes its answer:
//!
//! ```text
//!                 ┌──────────────── leader ────────────────┐
//!   epoll_wait ──▶│ accept │ read → parse → byte-cache hit? │── yes ─▶ write in place,
//!        ▲        └────────────────────┬───────────────────┘         keep leading
//!        │                             │ no: promote a parked follower
//!        │                             ▼
//!        │          same thread: search / update / stats → render → write
//!        └──────────── rejoin the followers ◀──────────────┘
//! ```
//!
//! An idle keep-alive peer costs a table slot and its buffer, not a
//! thread and not a visit, so 10k open connections ride on a handful of
//! threads, and a server with nothing to do blocks in `epoll_wait`. A
//! request that arrives while every thread is busy waits in a bounded
//! queue (full queue ⇒ immediate `503`, as does the connection cap).
//! Repeat `GET /search`
//! requests short-circuit through a **pre-serialized response cache**:
//! the exact rendered bytes, held by the backing `DashServer` as the
//! second instance of its one cache ([`DashServer::cached_rendered`],
//! [`DashServer::search_rendered`]) and swept by each publication's
//! [`DeltaSignature`] inside `publish`, making a hot hit one lookup plus
//! one `write(2)` on the leader. The `net/concurrency` bench axis records
//! cache-hit latency against 100/1k/10k open connections; `dashbench`'s
//! `hot-fit` workload prices the cached round-trip end to end
//! (`net.http_hit_us_p50`) and `miss-light` a miss (`net.http_miss_us_p50`).
//!
//! The acceptance bar is the same as every layer below:
//! `tests/net_equivalence.rs` proves that hit lists served over HTTP —
//! from the primary and from a replica that joined mid-stream, across
//! concurrent publications — are **byte-identical** to the seed's
//! Algorithm 1 (`tests/common/oracle.rs`) over the same fragments, and
//! `tests/net_failover.rs` holds that bar while the cluster is
//! actively failing: torn transfers, epoch gaps, a killed primary
//! under load, promotion and re-routing.
//!
//! ## Observability (`GET /metrics`, `GET /debug/slow`)
//!
//! Every front-end serves a Prometheus text exposition merging three
//! `dash-obs` registries: its own `dash_net_*` series, the backing
//! `DashServer`'s `dash_serve_*` series, and the process-global
//! registry the shard/replication/routing layers record into.
//! Histograms render as summaries (`quantile="0.5|0.9|0.99|0.999"` +
//! `_sum`/`_count`); `GET /debug/slow` returns the worst-N requests
//! with per-stage breakdowns as JSON. The series:
//!
//! | Series | Kind | Meaning |
//! |---|---|---|
//! | `dash_net_accepted_total` | counter | connections accepted (incl. cap-shed) |
//! | `dash_net_open_connections` | gauge | connections currently open |
//! | `dash_net_overflows_total` | counter | connects answered `503` by the cap |
//! | `dash_net_shed_jobs_total` | counter | requests answered `503`: no thread free, queue full |
//! | `dash_net_bad_requests_total` | counter | `400`/`413` malformed requests |
//! | `dash_net_timeouts_total` | counter | `408` mid-request stalls |
//! | `dash_net_{head,body,handle,write,request}_ns` | histogram | per-stage and end-to-end request latency |
//! | `dash_net_queue_wait_ns` | histogram | request complete → a thread starts it: the promotion of a follower, or the wait while none was free (inside `handle`) |
//! | `dash_net_busy_followers` | gauge | pool threads answering a request (neither leading nor parked) |
//! | `dash_net_response_cache_*`, `dash_net_cached_responses` | gauge | the backing server's rendered-cache counters (`hits`, `misses`, `insertions`, `rejected_stale`, `rejected_oversize`, `invalidated`, `evicted`), mirrored at scrape |
//! | `dash_serve_searches_total`, `dash_serve_batches_total`, … | counter | serving stack (see `dash-serve`) |
//! | `dash_serve_{search,swap,drain}_ns` | histogram | serving stage latencies |
//! | `dash_serve_publish_signature_ns` | histogram | inside `swap`: the delta's preparation against the shadow, the one walk of the touched shards' lists that yields the signature (touched groups' vocabulary) and the stale postings |
//! | `dash_serve_publish_apply_ns` | histogram | inside `swap`: the shadow engine's apply of the prepared delta |
//! | `dash_serve_publish_replay_ns` | histogram | inside `drain`: the retired side's apply of the same prepared delta (no sample when the drain forks instead) |
//! | `dash_serve_publish_invalidate_ns` | histogram | inside `swap`: the signature sweep of both cache instances (results and rendered responses) |
//! | `dash_serve_signature_keywords` | gauge | keywords in the last published signature |
//! | `dash_index_heap_{catalog_ids,handle_order,columns,graph,interner,tf_arena,probe_arena,lists}_bytes` | gauge | the live engine's heap bytes per structure, summed over its shards and refreshed at scrape (`ShardedEngine::heap_bytes`: capacities, 8 bytes a posting in each arena, 4 a handle in the handle-order column); the shadow engine holds as much again |
//! | `dash_index_heap_vocab_bytes` | gauge | the live engine's per-group vocabularies (one boxed run of 4-byte keyword handles per equality group, read by every publish instead of walking the inverted lists), summed over its shards and refreshed at scrape; the shadow engine holds as much again |
//! | `dash_shard_{search,search_many}_ns`, `dash_shard_candidates_total` | histogram/counter | sharded search: one heap loop per request, one call per batch, candidates popped |
//! | `dash_shard_{seeds,probes,expansions}_total` | counter | sharded search work: fragments seeded into the heap, binary-search probes of the fragment-sorted arena, candidate expansions |
//! | `dash_repl_{bootstraps,catchups,deltas_applied,forwarded,forward_retries}_total` | counter | replication + write forwarding |
//! | `dash_repl_lagging_streams_cut_total` | counter | replica streams the primary's hub cut because their next epoch had left the delta log (in the primary `DashServer`'s registry) |
//! | `dash_repl_epoch`, `dash_repl_epoch_lag` | gauge | replica epoch; gap seen at the last delta frame |
//! | `dash_router_{reads,read_retries,writes,write_failovers}_total` | counter | routing front tier |
//!
//! ## Quickstart
//!
//! ```
//! use std::net::TcpListener;
//! use std::sync::Arc;
//! use dash_net::{NetClient, NetConfig, NetServer};
//! use dash_serve::{DashServer, ServeConfig};
//! use dash_core::{DashConfig, SearchRequest};
//! use dash_webapp::fooddb;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = fooddb::database();
//! let app = fooddb::search_application()?;
//! let server = Arc::new(DashServer::build(
//!     &app, &db, &DashConfig::default(), ServeConfig::default())?);
//! let net = NetServer::serve_primary(
//!     Arc::clone(&server), db, TcpListener::bind("127.0.0.1:0")?, NetConfig::default())?;
//! let mut client = NetClient::connect(net.addr())?;
//! let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
//! // Socket-served results are the in-process results, bit for bit.
//! assert_eq!(client.search(&request)?, server.search(&request));
//! # Ok(())
//! # }
//! ```
//!
//! [`RecordChange`]: dash_core::RecordChange
//! [`IndexDelta`]: dash_core::IndexDelta
//! [`DeltaSignature`]: dash_core::DeltaSignature
//! [`DashServer::cached_rendered`]: dash_serve::DashServer::cached_rendered
//! [`DashServer::search_rendered`]: dash_serve::DashServer::search_rendered

pub mod backoff;
pub mod client;
pub mod event;
pub mod forward;
pub mod http;
pub mod json;
mod obs;
pub mod repl;
pub mod router;
pub mod server;
mod sys;

pub use backoff::{Backoff, BackoffConfig};
pub use client::NetClient;
pub use event::NetCounters;
pub use forward::Upstream;
pub use repl::{ReplFaults, Replica, ReplicaConfig, ReplicationHub};
pub use router::{Router, RouterConfig};
pub use server::{Backend, NetChange, NetConfig, NetServer, UpdateAck, UpdateBody};
