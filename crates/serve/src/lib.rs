//! # dash-serve
//!
//! The query-serving front-end the paper actually promises: keyword
//! searches from concurrent web users answered with db-page URLs,
//! while the index keeps absorbing database changes underneath. This
//! is the first crate *above* both `dash-core` and `dash-webapp` in
//! the dependency graph — the servlet-side serving layer the core
//! engines were built for.
//!
//! [`DashServer`] composes two mechanisms, each in its own module:
//!
//! * **Epoch snapshots** ([`snapshot`]) — the engine lives behind an
//!   `Arc` snapshot handle; readers grab the current snapshot and
//!   search it lock-free, writers apply each [`IndexDelta`] to a
//!   shadow copy ([`ShardedEngine::fork`]) and publish with one atomic
//!   pointer swap, then replay it on the retired side. The delta is
//!   prepared once ([`ShardedEngine::prepare`]) and that one preparation
//!   is applied to both sides. Searches never block on maintenance and
//!   can never observe a half-applied delta.
//! * **Precise caching** ([`cache`]) — one keyed LRU, generic over its
//!   payload, with two instances, each filled and read only by the
//!   path that produces its payload: hit lists by [`DashServer::search`],
//!   and the rendered response bytes a front-end hands back for a
//!   repeat request by
//!   [`DashServer::cached_rendered`] and [`DashServer::search_rendered`],
//!   which never touch the hit-list instance. A rendered miss runs the
//!   engine straight into the front-end's [`HitSink`], so its bytes
//!   are written from the engine's borrowed hits without a `SearchHit`
//!   in between. Each publication sweeps
//!   both under the writer lock, entry-by-entry, using the published
//!   delta's [`DeltaSignature`] (the keywords it adds plus the
//!   pre-delta vocabulary of the equality groups it touches)
//!   intersected with each entry's request keywords — never a
//!   wholesale flush, and no per-entry bookkeeping on the read path.
//!
//! Between the two there is nothing: a cache miss is answered on the
//! caller's own thread by one [`ShardedEngine::search`] on the current
//! snapshot's engine, so concurrent misses run side by side on the
//! engine's pooled scratch, and a search that panics fails only its
//! own caller.
//!
//! Each publication also enters the **delta log**, the last
//! [`DELTA_LOG`] [`PublishEvent`]s: [`DashServer::events_after`] hands
//! a consumer the publications after its epoch, or tells it to
//! bootstrap from [`DashServer::snapshot`] instead. A replica stream is
//! a cursor on it.
//!
//! The whole stack is **exact**: `tests/serve_equivalence.rs` proves
//! that served hit lists — cached, concurrent, and across any
//! interleaving of snapshot publications — are
//! byte-identical to the seed's Algorithm 1 (`tests/common/oracle.rs`)
//! over the same fragments, at shard counts 1 and 4.
//!
//! ## Quickstart
//!
//! ```
//! use dash_serve::{DashServer, ServeConfig};
//! use dash_core::{DashConfig, SearchRequest};
//! use dash_webapp::fooddb;
//!
//! # fn main() -> Result<(), dash_core::CoreError> {
//! let db = fooddb::database();
//! let app = fooddb::search_application()?;
//! let server = DashServer::build(&app, &db, &DashConfig::default(), ServeConfig::default())?;
//! let hits = server.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
//! assert_eq!(hits.len(), 2);
//! // The same request again is answered from the result cache.
//! assert_eq!(server.search(&SearchRequest::new(&["burger"]).k(2).min_size(20)), hits);
//! # Ok(())
//! # }
//! ```
//!
//! [`ShardedEngine::fork`]: dash_core::ShardedEngine::fork
//! [`ShardedEngine::prepare`]: dash_core::ShardedEngine::prepare
//! [`ShardedEngine::search`]: dash_core::ShardedEngine::search
//! [`HitSink`]: dash_core::HitSink
//! [`IndexDelta`]: dash_core::IndexDelta
//! [`DeltaSignature`]: dash_core::DeltaSignature

pub mod cache;
pub mod snapshot;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dash_core::update::bulk_delta;
use dash_core::{
    env_shards, DashConfig, Fragment, HitSink, IndexDelta, IngestSource, RecordChange,
    RefreshStats, Result, SearchHit, SearchRequest, ShardedEngine,
};
use dash_obs::{render_merged, Counter, Gauge, Histogram, Registry, SpanGuard};
use dash_relation::Database;
use dash_webapp::WebApplication;
use parking_lot::Mutex;

pub use cache::CacheStats;
pub use snapshot::EngineSnapshot;

use cache::Cache;
use snapshot::{try_drain, SnapshotHandle};

/// Entry cap of the rendered-response cache instance.
const RENDERED_ENTRIES: usize = 512;
/// Byte budget of the rendered-response cache instance.
const RENDERED_BYTES: usize = 4 << 20;
/// Admission budget of the hit-list cache instance on the *total*
/// number of cached [`SearchHit`]s across all entries (a proxy for
/// cached bytes): an oversize result set is refused admission outright,
/// and an admissible one evicts LRU entries until it fits, so one huge
/// result can never blow the memory bound the entry-count cap
/// ([`ServeConfig::cache_capacity`]) alone leaves open.
const CACHE_HIT_BUDGET: usize = 1 << 16;

/// How many scheduler yields a publication waits for the retired
/// snapshot's readers before falling back to forking the new live
/// engine. In-flight searches hold snapshots for microseconds, so
/// real drains finish in a handful of yields; the bound only matters
/// when a caller retains a [`DashServer::snapshot`] long-term.
const DRAIN_ATTEMPTS: usize = 4096;

/// Publications the delta log keeps. It bounds both how far behind a
/// reconnecting replica may be and still resume, and how far a live
/// replica stream may lag before it is cut and must catch up the same
/// way ([`DashServer::events_after`]).
pub const DELTA_LOG: usize = 64;

/// A request with no answer to compute (`k = 0` or no keywords): it is
/// answered empty without touching a cache or a counter.
fn degenerate(request: &SearchRequest) -> bool {
    request.k == 0 || request.keywords.is_empty()
}

/// Tunables of the serving layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count of the underlying engines. The default reads
    /// `DASH_SHARDS` (like the CI matrix) and falls back to 1.
    pub shards: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: env_shards().unwrap_or(1),
            cache_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Overrides the shard count (builder style).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the cache capacity (builder style; 0 disables).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }
}

/// Serving-layer counters (monotonic since server construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Result-cache counters. `hits` also counts the searches answered
    /// from the rendered instance, so it covers every cache-answered
    /// search.
    pub cache: CacheStats,
    /// Rendered-response cache counters (see
    /// [`DashServer::search_rendered`]).
    pub rendered: CacheStats,
    /// Engine calls made to answer cache misses: one per
    /// [`DashServer::search`] that misses and per
    /// [`DashServer::search_rendered`].
    pub batches: u64,
    /// Requests those engine calls answered. Every engine call answers
    /// one request, so this is `batches` again, read from the same
    /// counter; `/stats` still reports both.
    pub batched_requests: u64,
    /// Deltas published.
    pub published: u64,
    /// Searches answered (cache hits and misses alike; degenerate
    /// requests short-circuited client-side are not counted).
    pub searches: u64,
}

/// One publication: the epoch the swap produced and the delta that was
/// applied — everything a replica needs to mirror the publish locally
/// (its own publish path derives the same invalidation signature from
/// its mirrored pre-delta state).
#[derive(Debug, PartialEq)]
pub struct PublishEvent {
    /// The live snapshot's epoch after this publication.
    pub epoch: u64,
    /// The delta the publication applied.
    pub delta: IndexDelta,
}

/// The delta log: the last [`DELTA_LOG`] publications, epochs
/// contiguous from front to back, plus the live epoch, so that a
/// consumer at any epoch learns what it is missing, or that it must
/// bootstrap from a snapshot instead.
#[derive(Debug)]
struct DeltaLog {
    /// The epoch of the last publication, or the one the server
    /// opened at. Never behind the live snapshot's epoch: a
    /// publication is logged before its snapshot is swapped in.
    epoch: u64,
    events: VecDeque<Arc<PublishEvent>>,
}

impl DeltaLog {
    fn push(&mut self, event: Arc<PublishEvent>) {
        if self.events.len() == DELTA_LOG {
            self.events.pop_front();
        }
        self.epoch = event.epoch;
        self.events.push_back(event);
    }

    /// The logged publications after `epoch`, oldest first — `None`
    /// when `epoch` is ahead of the log or `epoch + 1` is no longer in
    /// it.
    fn after(&self, epoch: u64) -> Option<Vec<Arc<PublishEvent>>> {
        if epoch >= self.epoch {
            return (epoch == self.epoch).then(Vec::new);
        }
        let first = self.events.front()?.epoch;
        let skip = usize::try_from((epoch + 1).checked_sub(first)?).ok()?;
        Some(self.events.iter().skip(skip).cloned().collect())
    }
}

/// A serving front-end over a [`ShardedEngine`]: cached top-k search
/// that never blocks on index maintenance, plus the writer-side
/// publish path. See the [crate docs](crate) for the architecture.
#[derive(Debug)]
pub struct DashServer {
    handle: SnapshotHandle,
    /// Hit lists, budgeted in hits ([`ServeConfig::cache_capacity`],
    /// `CACHE_HIT_BUDGET`).
    cache: Cache<Vec<SearchHit>>,
    /// Rendered responses, budgeted in bytes (`RENDERED_ENTRIES`,
    /// `RENDERED_BYTES`).
    rendered: Cache<Arc<Vec<u8>>>,
    writer: Mutex<WriterSide>,
    /// Per-server metrics registry — the single source the `/stats`
    /// counters and the `/metrics` exposition both read, so the two
    /// endpoints can never disagree. Per-instance on purpose: tests
    /// run many servers per process and each keeps its own tallies.
    registry: Arc<Registry>,
    /// Engine calls, one per request they answer (see
    /// [`ServeStats::batches`]).
    batches: Arc<Counter>,
    published: Arc<Counter>,
    searches: Arc<Counter>,
    /// End-to-end `DashServer::search` latency (cache lookup + engine
    /// time); for `DashServer::search_rendered`, the engine time with
    /// the sink's rendering of each hit inside it.
    search_ns: Arc<Histogram>,
    /// Publish critical path: prepare + shadow apply + cache
    /// invalidation + delta-log append + atomic snapshot swap. The
    /// three spans below attribute it; the remainder is the append and
    /// the swap itself.
    swap_ns: Arc<Histogram>,
    /// [`ShardedEngine::prepare`] against the pre-delta shadow: the
    /// one walk of the touched shards' lists that yields both the
    /// signature (the touched groups' vocabulary) and the stale
    /// postings both sides' applies splice out.
    publish_signature_ns: Arc<Histogram>,
    /// The shadow's [`ShardedEngine::apply_prepared`].
    publish_apply_ns: Arc<Histogram>,
    /// The signature sweep of both cache instances.
    publish_invalidate_ns: Arc<Histogram>,
    /// Keywords in the last published signature — the touched groups'
    /// vocabulary every cache entry is tested against; a corpus whose
    /// groups hold most of the vocabulary shows up here.
    signature_keywords: Arc<Gauge>,
    /// Publish→drain grace: waiting out the retired snapshot's readers
    /// (or forking on bailout) plus the lockstep replay.
    drain_ns: Arc<Histogram>,
    /// The lockstep replay alone, inside `drain_ns`: the retired side's
    /// [`ShardedEngine::apply_prepared`] of the delta prepared on the
    /// shadow (no sample when the drain gave up and forked).
    publish_replay_ns: Arc<Histogram>,
    /// The delta log, written under the writer lock. A std mutex, for
    /// the condvar beside it.
    log: std::sync::Mutex<DeltaLog>,
    /// Wakes [`DashServer::events_after`] waiters on each publication.
    logged: Condvar,
    /// Construction time, the zero point of [`DashServer::uptime`].
    started: Instant,
}

/// The writer's exclusive half of the double buffer.
#[derive(Debug)]
struct WriterSide {
    /// The retired engine being kept in lockstep with the live one.
    /// `None` only transiently inside a publication.
    shadow: Option<ShardedEngine>,
    /// Publication count (the live snapshot's epoch).
    epoch: u64,
}

impl DashServer {
    /// Crawls `db` and opens a server — the serving counterpart of the
    /// [`IngestSource::Crawl`] build.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::builder`] with a crawl source.
    pub fn build(
        app: &WebApplication,
        db: &Database,
        config: &DashConfig,
        serve: ServeConfig,
    ) -> Result<Self> {
        let engine = ShardedEngine::builder(app.clone())
            .shards(serve.shards)
            .source(IngestSource::Crawl { db, config })
            .build()?;
        Ok(Self::from_engine(engine, serve))
    }

    /// Opens a server over already-derived fragments.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::builder`] with a
    /// [`IngestSource::Fragments`] source.
    pub fn from_fragments(
        app: WebApplication,
        fragments: &[Fragment],
        serve: ServeConfig,
    ) -> Result<Self> {
        let engine = ShardedEngine::builder(app)
            .shards(serve.shards)
            .source(IngestSource::Fragments(fragments))
            .build()?;
        Ok(Self::from_engine(engine, serve))
    }

    /// Wraps a built engine: forks the shadow side, wires the snapshot
    /// handle and both cache instances.
    pub fn from_engine(engine: ShardedEngine, serve: ServeConfig) -> Self {
        Self::from_engine_at_epoch(engine, serve, 0)
    }

    /// [`DashServer::from_engine`], opening at a carried epoch instead
    /// of 0. This is how a replica (or a promoted ex-replica) keeps
    /// epoch numbering **cluster-wide**: its local server opens at the
    /// primary epoch its bootstrap state corresponds to, so every
    /// local publication lands on exactly the primary epoch of the
    /// delta that caused it — and the node's own delta log speaks the
    /// same epochs as the primary's.
    pub fn from_engine_at_epoch(engine: ShardedEngine, serve: ServeConfig, epoch: u64) -> Self {
        let shadow = engine.fork();
        let registry = Arc::new(Registry::new());
        DashServer {
            handle: SnapshotHandle::new(engine, epoch),
            cache: Cache::new(serve.cache_capacity, CACHE_HIT_BUDGET, Vec::len, epoch),
            rendered: Cache::new(RENDERED_ENTRIES, RENDERED_BYTES, |bytes| bytes.len(), epoch),
            writer: Mutex::new(WriterSide {
                shadow: Some(shadow),
                epoch,
            }),
            batches: registry.counter("dash_serve_batches_total"),
            published: registry.counter("dash_serve_published_total"),
            searches: registry.counter("dash_serve_searches_total"),
            search_ns: registry.histogram("dash_serve_search_ns"),
            swap_ns: registry.histogram("dash_serve_swap_ns"),
            publish_signature_ns: registry.histogram("dash_serve_publish_signature_ns"),
            publish_apply_ns: registry.histogram("dash_serve_publish_apply_ns"),
            publish_invalidate_ns: registry.histogram("dash_serve_publish_invalidate_ns"),
            signature_keywords: registry.gauge("dash_serve_signature_keywords"),
            drain_ns: registry.histogram("dash_serve_drain_ns"),
            publish_replay_ns: registry.histogram("dash_serve_publish_replay_ns"),
            registry,
            log: std::sync::Mutex::new(DeltaLog {
                epoch,
                events: VecDeque::with_capacity(DELTA_LOG),
            }),
            logged: Condvar::new(),
            started: Instant::now(),
        }
    }

    /// Answers `request` into `sink` with one search on the live
    /// snapshot's engine, counted as one engine call in
    /// [`ServeStats`]. Returns the epoch of the snapshot that answered:
    /// a cache insert checked against it is rejected once a publication
    /// has landed since.
    fn search_live(&self, request: &SearchRequest, sink: &mut dyn HitSink) -> u64 {
        let snapshot = self.handle.snapshot();
        self.batches.inc();
        snapshot.engine.search_into(request, sink);
        snapshot.epoch
    }

    /// Top-k db-page search through the full serving path: the result
    /// cache, then one search on the current snapshot's engine, on
    /// the caller's thread. Byte-identical to
    /// [`ShardedEngine::search`] over the engine's current fragments —
    /// cached or not, before or after any published delta.
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        if degenerate(request) {
            return Vec::new();
        }
        let _span = SpanGuard::start(&self.search_ns);
        self.searches.inc();
        if let Some(hits) = self.cache.get(request) {
            return hits;
        }
        let mut hits = Vec::new();
        let epoch = self.search_live(request, &mut hits);
        if self.cache.enabled() {
            self.cache.insert(request, hits.clone(), epoch);
        }
        hits
    }

    /// The rendered response cached for `request`, if any — a front
    /// end's fast path (no search, no rendering). A hit counts as a
    /// served search and as a cache hit, so `/stats` reports every
    /// search wherever its bytes came from; a miss counts as a cache
    /// miss, and the caller answers it with
    /// [`DashServer::search_rendered`], which does not look again.
    pub fn cached_rendered(&self, request: &SearchRequest) -> Option<Arc<Vec<u8>>> {
        if degenerate(request) {
            return None;
        }
        let bytes = self.rendered.get(request)?;
        self.searches.inc();
        Some(bytes)
    }

    /// Answers a request that [`DashServer::cached_rendered`] just
    /// missed: one search on the current snapshot's engine straight
    /// into `sink` ([`ShardedEngine::search_into`]: the engine hands it
    /// each hit as a borrowed view and builds no `SearchHit`), whose
    /// conversion into bytes is the answer, cached so a repeat of `request` is
    /// answered by [`DashServer::cached_rendered`] until a
    /// publication's signature meets its keywords. It neither looks
    /// the rendered instance up again nor reads or fills the hit-list
    /// instance: the repeats are answered from the bytes. The insert
    /// is checked against the epoch of the snapshot that was searched:
    /// if a publication lands before the insert, the insert is
    /// rejected as stale — the race resolves to "don't cache", never
    /// to "cache stale bytes". It is the snapshot's epoch, not the
    /// cache's: a publication advances the cache before it swaps the
    /// snapshot, so the cache's epoch can run ahead of the state a
    /// search reads, and the snapshot's cannot.
    pub fn search_rendered<S: HitSink + Into<Vec<u8>>>(
        &self,
        request: &SearchRequest,
        mut sink: S,
    ) -> Arc<Vec<u8>> {
        if degenerate(request) {
            return Arc::new(sink.into());
        }
        self.searches.inc();
        let epoch = {
            let _span = SpanGuard::start(&self.search_ns);
            self.search_live(request, &mut sink)
        };
        let bytes = Arc::new(sink.into());
        self.rendered.insert(request, Arc::clone(&bytes), epoch);
        bytes
    }

    /// Publishes a prebuilt delta: applies it to the shadow engine,
    /// atomically swaps the shadow in as the new live snapshot,
    /// invalidates exactly the cache entries the delta's signature can
    /// touch, then catches the retired side up with the same delta.
    /// Concurrent searches keep running against whichever snapshot
    /// they grabbed; once `publish` returns, every *new* search
    /// observes the delta.
    pub fn publish(&self, delta: IndexDelta) -> RefreshStats {
        self.publish_with_epoch(delta).0
    }

    /// [`DashServer::publish`], additionally returning the epoch this
    /// publication produced (the current epoch if the delta was
    /// empty). Under concurrent publishers this is the only reliable
    /// way to learn "my" epoch — a separate [`DashServer::epoch`] read
    /// can already observe a later publication.
    ///
    /// # Panics
    ///
    /// If the delta does not fit the application ([`IndexDelta::check`]);
    /// nothing is applied. [`DashServer::try_publish_with_epoch`]
    /// returns the error instead.
    pub fn publish_with_epoch(&self, delta: IndexDelta) -> (RefreshStats, u64) {
        self.try_publish_with_epoch(delta)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DashServer::publish_with_epoch`] for a delta from outside the
    /// process (an update request, a replication frame): it is checked
    /// against the application before either engine changes.
    ///
    /// # Errors
    ///
    /// [`IndexDelta::check`]'s: an identifier of another arity, or a
    /// count a posting cannot hold. Nothing is published.
    pub fn try_publish_with_epoch(&self, delta: IndexDelta) -> Result<(RefreshStats, u64)> {
        let mut writer = self.writer.lock();
        self.publish_locked(&mut writer, delta)
    }

    /// Builds one delta for a batch of record changes — inserts and
    /// deletes alike, one record or many — through [`bulk_delta`]
    /// (shadow joins batched per relation, one scoped re-crawl) and
    /// publishes it as a single atomic snapshot swap. `db` must already
    /// reflect every change.
    ///
    /// # Errors
    ///
    /// Propagates relational errors.
    pub fn apply_changes(&self, db: &Database, changes: &[RecordChange]) -> Result<RefreshStats> {
        Ok(self.apply_changes_with_epoch(db, changes)?.0)
    }

    /// [`DashServer::apply_changes`], additionally returning the epoch
    /// the publication produced (see
    /// [`DashServer::publish_with_epoch`]).
    ///
    /// # Errors
    ///
    /// Propagates relational errors, and [`IndexDelta::check`]'s for
    /// the delta the changes produce. Nothing is published.
    pub fn apply_changes_with_epoch(
        &self,
        db: &Database,
        changes: &[RecordChange],
    ) -> Result<(RefreshStats, u64)> {
        let mut writer = self.writer.lock();
        let delta = {
            let shadow = writer
                .shadow
                .as_ref()
                .expect("shadow present outside publish");
            bulk_delta(shadow.app(), db, changes)?
        };
        self.publish_locked(&mut writer, delta)
    }

    /// The publish protocol, under the writer lock. Returns the stats
    /// and the epoch this publication produced (the current epoch for
    /// an empty delta) — callers answering concurrent updaters must
    /// report *this* epoch, not a later re-read that may already be
    /// someone else's publication.
    ///
    /// The delta is prepared once, on the pre-delta shadow, and the
    /// one [`PreparedDelta`](dash_core::PreparedDelta) is applied to
    /// both sides: to the shadow before the swap and to the retired
    /// side after the drain, which is the shadow's lockstep twin.
    ///
    /// # Errors
    ///
    /// [`IndexDelta::check`]'s, before either side changes.
    fn publish_locked(
        &self,
        writer: &mut WriterSide,
        delta: IndexDelta,
    ) -> Result<(RefreshStats, u64)> {
        if delta.is_empty() {
            return Ok((RefreshStats::default(), writer.epoch));
        }
        let swap_span = SpanGuard::start(&self.swap_ns);
        // The publication as the delta log will hold it, built first so
        // that the delta is prepared from it, not copied into it.
        let event = Arc::new(PublishEvent {
            epoch: writer.epoch + 1,
            delta,
        });
        // Prepared against the *pre-delta* shadow: the signature's
        // vocabulary includes the terms the delta removes, which are
        // gone after application.
        let signature_span = SpanGuard::start(&self.publish_signature_ns);
        let prepared = match writer
            .shadow
            .as_ref()
            .expect("shadow present outside publish")
            .prepare(&event.delta)
        {
            Ok(prepared) => prepared,
            Err(e) => {
                // A refused delta is no publication.
                signature_span.cancel();
                swap_span.cancel();
                return Err(e);
            }
        };
        drop(signature_span);
        self.signature_keywords
            .set(prepared.signature.keywords.len() as u64);
        let mut shadow = writer
            .shadow
            .take()
            .expect("shadow present outside publish");
        let stats = {
            let _span = SpanGuard::start(&self.publish_apply_ns);
            shadow.apply_prepared(&prepared)
        };
        writer.epoch += 1;
        // Invalidate both instances before the swap: from this instant
        // each rejects insertions computed against older snapshots, so
        // no stale entry can slip in behind the sweep.
        {
            let _span = SpanGuard::start(&self.publish_invalidate_ns);
            self.cache.invalidate(&prepared.signature, writer.epoch);
            self.rendered.invalidate(&prepared.signature, writer.epoch);
        }
        // Logged before the swap, so the log is never behind the live
        // snapshot: a consumer that bootstraps from `snapshot()` always
        // finds its epoch covered by `events_after`.
        self.lock_log().push(Arc::clone(&event));
        self.logged.notify_all();
        let next = Arc::new(EngineSnapshot {
            engine: shadow,
            epoch: writer.epoch,
        });
        let retired = self.handle.swap(Arc::clone(&next));
        drop(swap_span);
        // Grace period: wait out the retired snapshot's readers and
        // replay the prepared delta so the next publication starts in
        // lockstep. The wait is bounded: a caller may legitimately hold
        // a `DashServer::snapshot` forever, and the writer must not
        // livelock on it — if the retired side does not drain, abandon
        // it to its holders and fork the freshly published engine as
        // the next shadow instead (an O(index) memcpy, the same cost
        // as server startup).
        let drain_span = SpanGuard::start(&self.drain_ns);
        match try_drain(retired, DRAIN_ATTEMPTS) {
            Some(mut retired) => {
                let _span = SpanGuard::start(&self.publish_replay_ns);
                retired.engine.apply_prepared(&prepared);
                writer.shadow = Some(retired.engine);
            }
            None => writer.shadow = Some(next.engine.fork()),
        }
        drop(drain_span);
        self.published.inc();
        Ok((stats, writer.epoch))
    }

    /// The logged publications after `epoch`, oldest first: what a
    /// consumer holding the state of `epoch` applies, in order, to
    /// reach the live epoch. While there are none it waits up to `wait`
    /// for the next publication, and returns an empty list if none
    /// lands. A consumer at the live epoch — a server opened at a
    /// carried epoch included — gets an empty list.
    ///
    /// `None` when `epoch + 1` has fallen off the log (more than
    /// [`DELTA_LOG`] publications landed since) or `epoch` is ahead of
    /// the live epoch: the consumer must bootstrap from
    /// [`DashServer::snapshot`] instead. The log is never behind the
    /// live snapshot, so `events_after(snapshot().epoch, _)` answers
    /// `Some` until [`DELTA_LOG`] more publications have landed.
    pub fn events_after(&self, epoch: u64, wait: Duration) -> Option<Vec<Arc<PublishEvent>>> {
        let (log, _) = self
            .logged
            .wait_timeout_while(self.lock_log(), wait, |log| log.epoch == epoch)
            .unwrap_or_else(PoisonError::into_inner);
        log.after(epoch)
    }

    /// The delta log. Every update of it (one push) leaves it valid, so
    /// a panic elsewhere while it was held does not make it unusable.
    fn lock_log(&self) -> MutexGuard<'_, DeltaLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Time since the server was constructed (the denominator of the
    /// qps figure `/stats` reports).
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The current live snapshot (engine + epoch). Useful for
    /// inspection and for bypassing the caches in tests; the
    /// snapshot stays valid however long the caller keeps it.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.handle.snapshot()
    }

    /// The current publication epoch (0 = freshly built).
    pub fn epoch(&self) -> u64 {
        self.handle.snapshot().epoch
    }

    /// Number of indexed fragments in the live snapshot.
    pub fn fragment_count(&self) -> usize {
        self.handle.snapshot().engine.fragment_count()
    }

    /// A copy of the serving counters, read from the same registry
    /// handles `/metrics` renders — the two views cannot drift.
    pub fn stats(&self) -> ServeStats {
        let rendered = self.rendered.stats();
        let mut cache = self.cache.stats();
        cache.hits += rendered.hits;
        cache.misses += rendered.misses;
        let batches = self.batches.get();
        ServeStats {
            cache,
            rendered,
            batches,
            batched_requests: batches,
            published: self.published.get(),
            searches: self.searches.get(),
        }
    }

    /// Live result-cache entry count.
    pub fn cached_results(&self) -> usize {
        self.cache.len()
    }

    /// Live rendered-response cache entry count.
    pub fn cached_responses(&self) -> usize {
        self.rendered.len()
    }

    /// This server's metrics registry. Per-instance, so two servers
    /// in one process (a replica mirroring a primary, tests) never
    /// mix their numbers; disable recording for the span fast path
    /// via `registry().set_enabled(false)`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Mirrors the result cache's counters into this server's registry
    /// as `dash_serve_cache_*` gauges, and the live engine's heap bytes
    /// per structure ([`ShardedEngine::heap_bytes`]) as
    /// `dash_index_heap_<part>_bytes` gauges (the shadow engine holds
    /// as much again). Called at scrape time by
    /// [`DashServer::metrics_text`] (and by the socket front-end's
    /// `/metrics`, which merges this registry into its own exposition).
    pub fn refresh_scrape_gauges(&self) {
        let registry = &self.registry;
        self.stats().cache.mirror(registry, "dash_serve_cache");
        registry
            .gauge("dash_serve_cached_results")
            .set(self.cache.len() as u64);
        let heap = self.handle.snapshot().engine.heap_bytes();
        for (part, bytes) in heap.parts() {
            registry
                .gauge(&format!("dash_index_heap_{part}_bytes"))
                .set(bytes as u64);
        }
    }

    /// Renders the Prometheus text exposition behind `GET /metrics`:
    /// this server's registry merged with [`Registry::global`] (the
    /// shard/replication layers record there), with the result
    /// cache's counters mirrored in at scrape time.
    pub fn metrics_text(&self) -> String {
        self.refresh_scrape_gauges();
        render_merged(&[&self.registry, Registry::global()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::FragmentId;
    use dash_relation::Value;
    use dash_webapp::fooddb;

    fn server(shards: usize) -> DashServer {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        DashServer::build(
            &app,
            &db,
            &DashConfig::default(),
            ServeConfig::default().shards(shards),
        )
        .unwrap()
    }

    #[test]
    fn serves_the_running_example() {
        let server = server(2);
        let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
        let hits = server.search(&request);
        assert_eq!(hits.len(), 2);
        // Second time around: same bytes, answered from the cache.
        assert_eq!(server.search(&request), hits);
        let stats = server.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn stats_and_the_metrics_registry_agree() {
        // `/stats` and `/metrics` must be two views of the same
        // handles: every counter `stats()` reports equals the series
        // of the same name in the registry, and both appear in the
        // rendered exposition.
        let server = server(2);
        let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
        server.search(&request);
        server.search(&request);
        server.publish(IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
            [("herring".to_string(), 3u64)].into_iter().collect(),
            1,
        )]));
        let stats = server.stats();
        let registry = server.registry();
        for (name, got) in [
            ("dash_serve_searches_total", stats.searches),
            ("dash_serve_batches_total", stats.batches),
            ("dash_serve_published_total", stats.published),
        ] {
            assert_eq!(registry.counter(name).get(), got, "{name}");
        }
        assert_eq!(stats.searches, 2);
        assert_eq!(stats.published, 1);
        let text = server.metrics_text();
        assert!(text.contains("dash_serve_searches_total 2"), "{text}");
        assert!(text.contains("dash_serve_cache_hits 1"), "{text}");
        assert!(
            text.contains("dash_serve_search_ns{quantile=\"0.99\"}"),
            "{text}"
        );
        // The publish replayed on the retired side, inside its drain.
        let replay = registry.histogram("dash_serve_publish_replay_ns");
        let drain = registry.histogram("dash_serve_drain_ns");
        assert_eq!((replay.count(), drain.count()), (1, 1));
        assert!(replay.sum() <= drain.sum());
        assert!(
            text.contains("dash_serve_publish_replay_ns_count 1"),
            "{text}"
        );
        let heap = server.snapshot().engine.heap_bytes();
        assert!(heap.tf_arena > 0);
        assert!(
            text.contains(&format!("dash_index_heap_tf_arena_bytes {}", heap.tf_arena)),
            "{text}"
        );
    }

    #[test]
    fn degenerate_requests_short_circuit() {
        let server = server(1);
        assert!(server.search(&SearchRequest::new(&[]).k(5)).is_empty());
        assert!(server
            .search(&SearchRequest::new(&["burger"]).k(0))
            .is_empty());
        assert_eq!(server.stats().batches, 0);
    }

    #[test]
    fn publish_bumps_epoch_and_new_pages_become_findable() {
        let server = server(2);
        assert_eq!(server.epoch(), 0);
        let before = server.fragment_count();
        let fragment = Fragment::new(
            FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
            [("herring".to_string(), 3u64)].into_iter().collect(),
            1,
        );
        let stats = server.publish(IndexDelta::adding(vec![fragment]));
        assert_eq!((stats.removed, stats.added), (0, 1));
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.fragment_count(), before + 1);
        let hits = server.search(&SearchRequest::new(&["herring"]).k(3).min_size(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].url.contains("c=Nordic"), "got {}", hits[0].url);
        // Empty deltas publish nothing.
        assert_eq!(
            server.publish(IndexDelta::default()),
            RefreshStats::default()
        );
        assert_eq!(server.epoch(), 1);
    }

    #[test]
    fn publish_survives_a_long_held_snapshot() {
        // A caller may keep a snapshot indefinitely; the writer must
        // not livelock waiting for it — it forks the new live engine
        // instead and keeps publishing.
        let server = server(2);
        let held = server.snapshot();
        let fragment = |cuisine: &str, word: &str| {
            Fragment::new(
                FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
                [(word.to_string(), 2u64)].into_iter().collect(),
                1,
            )
        };
        let stats = server.publish(IndexDelta::adding(vec![fragment("Nordic", "herring")]));
        assert_eq!(stats.added, 1);
        // The held snapshot still serves its own epoch, untouched.
        assert_eq!(held.epoch, 0);
        assert!(held
            .engine
            .search(&SearchRequest::new(&["herring"]).k(1).min_size(1))
            .is_empty());
        // And the server keeps accepting publications (the shadow was
        // rebuilt by fork, not reclaimed from the held snapshot).
        let stats = server.publish(IndexDelta::adding(vec![fragment("Basque", "txakoli")]));
        assert_eq!(stats.added, 1);
        assert_eq!(server.epoch(), 2);
        for word in ["herring", "txakoli"] {
            assert_eq!(
                server
                    .search(&SearchRequest::new(&[word]).k(1).min_size(1))
                    .len(),
                1,
                "{word} must be served post-publish"
            );
        }
        drop(held);
    }

    #[test]
    fn cached_results_never_go_stale_across_publications() {
        let server = server(2);
        let request = SearchRequest::new(&["burger"]).k(5).min_size(1);
        let first = server.search(&request);
        assert_eq!(server.search(&request), first); // cached now
                                                    // A new burger-bearing fragment changes IDF and the result set;
                                                    // the publication must invalidate the cached entry.
        let fragment = Fragment::new(
            FragmentId::new(vec![Value::str("Zulu"), Value::Int(30)]),
            [("burger".to_string(), 9u64)].into_iter().collect(),
            1,
        );
        server.publish(IndexDelta::adding(vec![fragment.clone()]));
        let app = fooddb::search_application().unwrap();
        let db = fooddb::database();
        let mut fragments = dash_core::crawl::reference::fragments(&app, &db).unwrap();
        fragments.push(fragment);
        let fresh = ShardedEngine::builder(app)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        let expected = fresh.search(&request);
        assert_ne!(expected, first, "the delta must actually change the result");
        assert_eq!(server.search(&request), expected);
    }

    fn cuisine_fragment(cuisine: &str, word: &str) -> Fragment {
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
            [(word.to_string(), 2u64)].into_iter().collect(),
            1,
        )
    }

    /// Publishes `count` one-fragment deltas, each into its own group.
    fn publish_many(server: &DashServer, count: usize) {
        for at in 0..count {
            server.publish(IndexDelta::adding(vec![cuisine_fragment(
                &format!("C{at}"),
                "herring",
            )]));
        }
    }

    /// The epochs [`DashServer::events_after`] answers with, without
    /// waiting.
    fn epochs_after(server: &DashServer, epoch: u64) -> Option<Vec<u64>> {
        server
            .events_after(epoch, Duration::ZERO)
            .map(|events| events.iter().map(|e| e.epoch).collect())
    }

    #[test]
    fn events_after_sees_every_later_publication_and_none_before() {
        let server = server(2);
        // A publication before the snapshot is bootstrap state, not an
        // event: a consumer at the snapshot's epoch has nothing to
        // apply.
        server.publish(IndexDelta::adding(vec![cuisine_fragment(
            "Nordic", "herring",
        )]));
        let snapshot = server.snapshot();
        assert_eq!(snapshot.epoch, 1);
        assert_eq!(epochs_after(&server, snapshot.epoch), Some(vec![]));
        server.publish(IndexDelta::adding(vec![cuisine_fragment(
            "Basque", "txakoli",
        )]));
        server.publish(IndexDelta::removing(vec![FragmentId::new(vec![
            Value::str("Nordic"),
            Value::Int(7),
        ])]));
        // Contiguous with the snapshot: exactly the two publications
        // after it, in order, as they were published.
        let events = server
            .events_after(snapshot.epoch, Duration::ZERO)
            .expect("epoch 2 is logged");
        assert_eq!(events.iter().map(|e| e.epoch).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(events[0].delta.adds[0].id.values()[0], Value::str("Basque"));
        assert!(events[1].delta.adds.is_empty());
        // The live epoch has nothing pending; a future one is a
        // confused consumer that must re-snapshot.
        assert_eq!(epochs_after(&server, 3), Some(vec![]));
        assert_eq!(epochs_after(&server, 4), None);
    }

    #[test]
    fn lagging_feed_is_evicted_instead_of_buffering_without_bound() {
        let server = server(1);
        // A consumer at epoch 0 that reads nothing while one more than
        // the log holds is published: publishing never waits for it,
        // the log keeps only the last DELTA_LOG, and the consumer is
        // told to re-snapshot.
        publish_many(&server, DELTA_LOG + 1);
        assert_eq!(server.epoch(), DELTA_LOG as u64 + 1);
        assert_eq!(epochs_after(&server, 0), None);
        let logged = epochs_after(&server, 1).expect("epoch 2 is logged");
        assert_eq!(logged, (2..=DELTA_LOG as u64 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn delta_tail_resumes_from_a_logged_epoch() {
        let server = server(2);
        publish_many(&server, 3);
        // A consumer at epoch 1 resumes from the log: exactly epochs 2
        // and 3.
        assert_eq!(epochs_after(&server, 1), Some(vec![2, 3]));
        // A consumer at the live epoch waits for the next publication
        // and is woken by it, well before its wait runs out.
        let wait = Duration::from_secs(60);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let begin = Instant::now();
                let events = server.events_after(3, wait).expect("epoch 3 is live");
                (
                    events.iter().map(|e| e.epoch).collect::<Vec<_>>(),
                    begin.elapsed(),
                )
            });
            server.publish(IndexDelta::adding(vec![cuisine_fragment("C9", "mole")]));
            let (epochs, waited) = waiter.join().unwrap();
            assert_eq!(epochs, [4]);
            assert!(waited < wait, "woken by the publication, not the timeout");
        });
        // With no publication, the wait runs out empty.
        let events = server.events_after(4, Duration::from_millis(20));
        assert_eq!(events.map(|e| e.len()), Some(0));
    }

    #[test]
    fn fallen_off_the_log_tail_means_snapshot() {
        let server = server(1);
        publish_many(&server, DELTA_LOG + 1);
        // The log holds epochs 2..=65: epoch 1 can still resume (its
        // successor is logged), epoch 0 has fallen off.
        assert_eq!(
            epochs_after(&server, 1).map(|epochs| epochs.len()),
            Some(DELTA_LOG)
        );
        assert_eq!(epochs_after(&server, 0), None);
    }

    #[test]
    fn a_server_can_open_at_a_carried_epoch() {
        // A replica's local server opens at the primary epoch its
        // bootstrap state corresponds to; publications continue the
        // cluster-wide numbering.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = ShardedEngine::builder(app.clone())
            .shards(2)
            .source(IngestSource::Crawl {
                db: &db,
                config: &DashConfig::default(),
            })
            .build()
            .unwrap();
        let server = DashServer::from_engine_at_epoch(engine, ServeConfig::default(), 7);
        assert_eq!(server.epoch(), 7);
        // Its log is empty but speaks the carried epoch: a consumer at
        // 7 is current, one behind it must re-snapshot.
        assert_eq!(epochs_after(&server, 7), Some(vec![]));
        assert_eq!(epochs_after(&server, 6), None);
        // Both cache instances open at the carried epoch: a result
        // computed against the epoch-7 snapshot is cached, not
        // rejected as stale.
        let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
        server.search(&request);
        server.search(&request);
        let stats = server.stats().cache;
        assert_eq!((stats.hits, stats.rejected_stale), (1, 0));
        let first = server.search_rendered(&request, lines());
        let again = server.cached_rendered(&request).expect("cached");
        assert!(Arc::ptr_eq(&first, &again), "the repeat is a rendered hit");
        let stats = server.stats().rendered;
        assert_eq!((stats.hits, stats.rejected_stale), (1, 0));
        let (_, epoch) =
            server.publish_with_epoch(IndexDelta::adding(vec![cuisine_fragment("C0", "herring")]));
        assert_eq!(epoch, 8);
        assert_eq!(server.snapshot().epoch, 8);
        assert_eq!(epochs_after(&server, 7), Some(vec![8]));
    }

    /// A stand-in front-end rendering: one `url score` line per hit.
    fn render(hits: &[SearchHit]) -> Vec<u8> {
        hits.iter()
            .map(|hit| format!("{} {}\n", hit.url, hit.score))
            .collect::<String>()
            .into_bytes()
    }

    /// [`render`] as a sink, written from the engine's borrowed hits;
    /// `finish` runs when the sink is turned into bytes, after the
    /// search.
    struct Lines<F: FnOnce() = fn()> {
        text: String,
        finish: F,
    }

    fn lines() -> Lines {
        lines_then(|| {})
    }

    fn lines_then<F: FnOnce()>(finish: F) -> Lines<F> {
        Lines {
            text: String::new(),
            finish,
        }
    }

    impl<F: FnOnce()> HitSink for Lines<F> {
        fn emit(&mut self, hit: &dash_core::HitView<'_>) {
            use std::fmt::Write as _;
            let mut query_string = String::new();
            hit.write_query_string(&mut query_string).unwrap();
            hit.write_url(&mut self.text, &query_string).unwrap();
            writeln!(self.text, " {}", hit.score).unwrap();
        }
    }

    impl<F: FnOnce()> From<Lines<F>> for Vec<u8> {
        fn from(lines: Lines<F>) -> Vec<u8> {
            (lines.finish)();
            lines.text.into_bytes()
        }
    }

    #[test]
    fn a_publish_kills_only_the_rendered_entries_it_touches() {
        let server = server(2);
        let touched = SearchRequest::new(&["burger"]).k(5).min_size(1);
        let untouched = SearchRequest::new(&["thai"]).k(5).min_size(1);
        server.search_rendered(&touched, lines());
        server.search_rendered(&untouched, lines());
        assert_eq!(server.cached_responses(), 2);
        // The delta adds a "burger" posting: its signature carries the
        // keyword, so only the overlapping entry dies — inside
        // `publish`, before any further lookup.
        server.publish(IndexDelta::adding(vec![cuisine_fragment("Zulu", "burger")]));
        assert_eq!(server.stats().rendered.invalidated, 1);
        assert!(
            server.cached_rendered(&touched).is_none(),
            "keyword overlap"
        );
        assert!(
            server.cached_rendered(&untouched).is_some(),
            "disjoint survives"
        );
        // The re-rendered answer is the new state's, byte for byte.
        let fresh = server.search_rendered(&touched, lines());
        assert_eq!(*fresh, render(&server.snapshot().engine.search(&touched)));
    }

    #[test]
    fn a_publish_between_epoch_read_and_insert_makes_the_rendered_insert_stale() {
        let server = server(1);
        let request = SearchRequest::new(&["late"]).k(3).min_size(1);
        // The publication lands after the search, while rendering —
        // between reading the epoch and inserting the bytes.
        server.search_rendered(
            &request,
            lines_then(|| {
                server.publish(IndexDelta::adding(vec![cuisine_fragment(
                    "C0",
                    "elsewhere",
                )]));
            }),
        );
        let stats = server.stats().rendered;
        assert_eq!((stats.rejected_stale, stats.insertions), (1, 0));
        assert!(server.cached_rendered(&request).is_none());
        // The next render, wholly after the publication, is cached.
        server.search_rendered(&request, lines());
        assert!(server.cached_rendered(&request).is_some());
    }

    #[test]
    fn stats_count_searches_and_uptime_advances() {
        let server = server(1);
        let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
        server.search(&request);
        server.search(&request); // cache hit — still a served search
        server.search(&SearchRequest::new(&[]).k(5)); // degenerate: uncounted
        let stats = server.stats();
        assert_eq!(stats.searches, 2);
        assert!(server.uptime() > Duration::ZERO);
    }

    #[test]
    fn concurrent_clients_get_identical_answers() {
        let server = server(4);
        let requests: Vec<SearchRequest> = [
            ("burger", 2usize, 20u64),
            ("fries", 3, 1),
            ("thai", 2, 5),
            ("american", 10, 1),
        ]
        .iter()
        .map(|&(w, k, s)| SearchRequest::new(&[w]).k(k).min_size(s))
        .collect();
        let expected: Vec<_> = requests.iter().map(|r| server.search(r)).collect();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let requests = &requests;
                let expected = &expected;
                let server = &server;
                scope.spawn(move || {
                    for (request, expected) in requests.iter().zip(expected) {
                        assert_eq!(&server.search(request), expected);
                    }
                });
            }
        });
        let stats = server.stats();
        assert!(stats.cache.hits >= 1, "repeat traffic must hit the cache");
    }
}
