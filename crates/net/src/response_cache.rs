//! The pre-serialized HTTP response cache — the wire-tax attack.
//!
//! BENCH_net.json priced a cache-hit search at ~112µs over the socket
//! vs ~4µs in-process: the serve-tier result cache removes the
//! *search*, but the front-end still re-serializes the hit list to
//! JSON and re-frames the HTTP response on every request. This cache
//! stores the **final socket bytes** of a `GET /search` response
//! (status line, headers, body — rendered once by
//! [`render_response`](crate::http::render_response)), so a repeat of
//! a hot request is a lookup and a single `write(2)`.
//!
//! Correctness rides on the same machinery that keeps the serve-tier
//! cache byte-exact (`crates/serve/src/cache.rs`, whose module docs
//! carry the exactness argument): an entry's only dependencies are the
//! request keywords in its key, and it is dropped exactly when one of
//! them is in a published [`DeltaSignature`]'s keyword set — the
//! delta's added keywords plus the pre-delta vocabulary of the groups
//! it touches. Nothing is computed per entry on the miss path.
//! Publications reach this cache through a replication tap
//! ([`DashServer::replication_feed`]) drained synchronously on every
//! lookup and insert — the same ordered, gap-free event stream
//! replicas consume — and insertions are epoch-checked against the
//! tap position, so a response rendered against a snapshot the tap has
//! already moved past is dropped rather than cached. If the tap is
//! evicted for lagging (or the backing server is swapped out, e.g. a
//! replica re-bootstrap), the cache flushes wholesale and re-registers
//! — always conservative, never stale.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

use dash_core::{DeltaSignature, SearchRequest};
use dash_serve::{DashServer, PublishEvent, ReplicationFeed};
use parking_lot::Mutex;

/// Cache identity of a search — the full request, field by field, same
/// discipline as the serve-tier cache: two requests share an entry
/// only when byte-identical responses are guaranteed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    keywords: Vec<String>,
    k: usize,
    min_size: u64,
}

impl From<&SearchRequest> for CacheKey {
    fn from(request: &SearchRequest) -> Self {
        CacheKey {
            keywords: request.keywords.clone(),
            k: request.k,
            min_size: request.min_size,
        }
    }
}

/// One cached response. Its invalidation dependencies are the request
/// keywords in its [`CacheKey`].
#[derive(Debug)]
struct Entry {
    /// The exact socket bytes of the keep-alive rendering. `Arc`d so a
    /// hit hands the event loop a reference, not a copy.
    bytes: Arc<Vec<u8>>,
    /// Recency stamp (lazy LRU, as in the serve-tier cache).
    tick: u64,
}

/// Counters the front-end exposes (see
/// [`NetServer::response_cache_stats`](crate::NetServer::response_cache_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Lookups answered with pre-serialized bytes.
    pub hits: u64,
    /// Lookups that fell through to the serving path.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Insertions dropped because their snapshot epoch was stale.
    pub rejected_stale: u64,
    /// Insertions refused because one response alone would exceed the
    /// byte budget.
    pub rejected_oversize: u64,
    /// Entries removed by delta-signature invalidation.
    pub invalidated: u64,
    /// Entries evicted by the LRU capacity or byte budget.
    pub evicted: u64,
    /// Wholesale flush-and-re-register cycles (first registration,
    /// backing-server swap, or tap eviction after lagging too far).
    pub resyncs: u64,
}

/// The live replication tap: which server Arc it watches (pointer
/// identity — a swapped backing server forces a resync) and the event
/// stream.
#[derive(Debug)]
struct Feed {
    server: usize,
    events: Receiver<PublishEvent>,
}

#[derive(Debug, Default)]
struct Inner {
    feed: Option<Feed>,
    /// The epoch the tap has been drained to; insertions tagged with
    /// any other epoch are rejected.
    epoch: u64,
    tick: u64,
    /// Total bytes across live entries — what the byte budget bounds.
    total_bytes: usize,
    map: HashMap<CacheKey, Entry>,
    /// Lazy LRU order, compacted when stale records outnumber live
    /// entries 2:1 (same scheme as the serve-tier cache).
    order: VecDeque<(u64, CacheKey)>,
    stats: ResponseCacheStats,
}

impl Inner {
    fn compact(&mut self) {
        if self.order.len() <= 2 * self.map.len() + 16 {
            return;
        }
        let mut live: Vec<(u64, CacheKey)> = self
            .map
            .iter()
            .map(|(key, entry)| (entry.tick, key.clone()))
            .collect();
        live.sort_unstable_by_key(|(tick, _)| *tick);
        self.order = live.into();
    }

    fn flush(&mut self) {
        self.map.clear();
        self.order.clear();
        self.total_bytes = 0;
    }

    /// Brings the cache up to date with the backing server: registers
    /// a tap on first contact or server swap (flushing everything —
    /// conservative), then drains every published event, applying its
    /// signature. A disconnected tap (evicted for lagging, or the
    /// server died and another took its address) flushes and
    /// re-registers in the same call.
    fn sync(&mut self, server: &Arc<DashServer>) {
        let ptr = Arc::as_ptr(server) as usize;
        loop {
            if self.feed.as_ref().is_none_or(|f| f.server != ptr) {
                self.flush();
                self.stats.resyncs += 1;
                let ReplicationFeed { snapshot, events } = server.replication_feed();
                self.epoch = snapshot.epoch;
                // Holding the snapshot would pin the retired engine
                // side and force every future publish into a fork;
                // only its epoch matters here.
                drop(snapshot);
                self.feed = Some(Feed {
                    server: ptr,
                    events,
                });
            }
            let mut disconnected = false;
            let mut drained = Vec::new();
            if let Some(feed) = &self.feed {
                loop {
                    match feed.events.try_recv() {
                        Ok(event) => drained.push(event),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
            }
            for event in &drained {
                self.apply(event);
            }
            if !disconnected {
                return;
            }
            self.feed = None;
        }
    }

    /// Applies one publication: drops every entry whose request
    /// keywords meet the signature, advances the epoch.
    fn apply(&mut self, event: &PublishEvent) {
        self.epoch = event.epoch;
        let before = self.map.len();
        let mut dropped = 0usize;
        let signature: &DeltaSignature = &event.signature;
        self.map.retain(|key, entry| {
            let keep = !signature.hits(&key.keywords);
            if !keep {
                dropped += entry.bytes.len();
            }
            keep
        });
        self.total_bytes -= dropped;
        self.stats.invalidated += (before - self.map.len()) as u64;
    }
}

/// The signature-keyed pre-serialized response cache fronting the
/// serving path.
#[derive(Debug)]
pub(crate) struct ResponseCache {
    capacity: usize,
    /// Budget on total cached bytes (0 = unlimited).
    byte_budget: usize,
    inner: Mutex<Inner>,
}

impl ResponseCache {
    /// A cache of at most `capacity` responses totalling at most
    /// `byte_budget` bytes; capacity 0 disables caching entirely (no
    /// tap is ever registered).
    pub(crate) fn new(capacity: usize, byte_budget: usize) -> Self {
        ResponseCache {
            capacity,
            byte_budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether lookups can ever hit.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up the pre-serialized response for a request against the
    /// given backing server, after draining every pending publication
    /// (a hit is guaranteed byte-identical to rendering a fresh
    /// search).
    pub(crate) fn get(
        &self,
        server: &Arc<DashServer>,
        request: &SearchRequest,
    ) -> Option<Arc<Vec<u8>>> {
        if self.capacity == 0 {
            return None;
        }
        let key = CacheKey::from(request);
        let mut inner = self.inner.lock();
        inner.sync(server);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let bytes = Arc::clone(&entry.bytes);
                inner.order.push_back((tick, key));
                inner.stats.hits += 1;
                inner.compact();
                Some(bytes)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// The epoch to tag an insert with: the tap's current position.
    /// Call *before* computing the response; if a publication lands in
    /// between, the insert's tag goes stale and is rejected — the race
    /// resolves to "don't cache", never to "cache stale bytes".
    pub(crate) fn insert_epoch(&self, server: &Arc<DashServer>) -> u64 {
        let mut inner = self.inner.lock();
        inner.sync(server);
        inner.epoch
    }

    /// Stores a rendered response computed against tap position
    /// `epoch`.
    pub(crate) fn insert(
        &self,
        server: &Arc<DashServer>,
        request: &SearchRequest,
        bytes: Arc<Vec<u8>>,
        epoch: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.sync(server);
        if epoch != inner.epoch {
            inner.stats.rejected_stale += 1;
            return;
        }
        if self.byte_budget > 0 && bytes.len() > self.byte_budget {
            inner.stats.rejected_oversize += 1;
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let key = CacheKey::from(request);
        let entry = Entry { bytes, tick };
        inner.order.push_back((tick, key.clone()));
        inner.total_bytes += entry.bytes.len();
        if let Some(replaced) = inner.map.insert(key, entry) {
            inner.total_bytes -= replaced.bytes.len();
        }
        inner.stats.insertions += 1;
        while inner.map.len() > self.capacity
            || (self.byte_budget > 0 && inner.total_bytes > self.byte_budget)
        {
            let Some((tick, key)) = inner.order.pop_front() else {
                break;
            };
            if inner.map.get(&key).is_some_and(|e| e.tick == tick) {
                let evicted = inner.map.remove(&key).expect("entry checked present");
                inner.total_bytes -= evicted.bytes.len();
                inner.stats.evicted += 1;
            }
        }
        inner.compact();
    }

    /// A copy of the counters.
    pub(crate) fn stats(&self) -> ResponseCacheStats {
        self.inner.lock().stats
    }

    /// Live entry count.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::{DashConfig, Fragment, FragmentId, IndexDelta};
    use dash_relation::Value;
    use dash_serve::ServeConfig;
    use dash_webapp::fooddb;

    fn tiny_server() -> Arc<DashServer> {
        let db = fooddb::database();
        let app = fooddb::search_application().expect("app analyzes");
        Arc::new(
            DashServer::build(&app, &db, &DashConfig::default(), ServeConfig::default())
                .expect("server builds"),
        )
    }

    fn request(words: &[&str]) -> SearchRequest {
        SearchRequest::new(words).k(3).min_size(1)
    }

    fn delta_touching(keyword: &str) -> IndexDelta {
        IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("churn"), Value::Int(9)]),
            [(keyword.to_string(), 1u64)].into_iter().collect(),
            1,
        )])
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let server = tiny_server();
        let cache = ResponseCache::new(8, 0);
        let r = request(&["alpha"]);
        let epoch = cache.insert_epoch(&server);
        let bytes = Arc::new(b"HTTP/1.1 200 OK\r\n\r\n".to_vec());
        cache.insert(&server, &r, Arc::clone(&bytes), epoch);
        let hit = cache.get(&server, &r).expect("cached");
        assert!(
            Arc::ptr_eq(&hit, &bytes),
            "a hit is a reference, not a copy"
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn publication_invalidates_by_signature_via_the_tap() {
        let server = tiny_server();
        let cache = ResponseCache::new(8, 0);
        let by_keyword = request(&["shared"]);
        let untouched = request(&["quiet"]);
        let epoch = cache.insert_epoch(&server);
        let bytes = || Arc::new(vec![1u8, 2, 3]);
        cache.insert(&server, &by_keyword, bytes(), epoch);
        cache.insert(&server, &untouched, bytes(), epoch);
        // The published delta adds a "shared" posting: its signature
        // carries the keyword, so only the intersecting entry dies.
        server.publish(delta_touching("shared"));
        assert!(cache.get(&server, &by_keyword).is_none(), "keyword overlap");
        assert!(
            cache.get(&server, &untouched).is_some(),
            "disjoint survives"
        );
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn stale_epoch_insertions_are_rejected() {
        let server = tiny_server();
        let cache = ResponseCache::new(8, 0);
        let r = request(&["late"]);
        let epoch = cache.insert_epoch(&server);
        // A publication lands between reading the epoch and inserting.
        server.publish(delta_touching("elsewhere"));
        cache.insert(&server, &r, Arc::new(vec![0u8]), epoch);
        assert!(cache.get(&server, &r).is_none());
        assert_eq!(cache.stats().rejected_stale, 1);
    }

    #[test]
    fn server_swap_flushes_and_resyncs() {
        let first = tiny_server();
        let second = tiny_server();
        let cache = ResponseCache::new(8, 0);
        let r = request(&["alpha"]);
        let epoch = cache.insert_epoch(&first);
        cache.insert(&first, &r, Arc::new(vec![7u8]), epoch);
        assert!(cache.get(&first, &r).is_some());
        // A different backing server (replica re-bootstrap, promotion)
        // must not serve the old server's bytes.
        assert!(cache.get(&second, &r).is_none());
        assert_eq!(cache.len(), 0, "swap flushes everything");
        assert!(cache.stats().resyncs >= 2);
    }

    #[test]
    fn byte_budget_bounds_total_cached_bytes() {
        let server = tiny_server();
        let cache = ResponseCache::new(64, 10);
        let epoch = cache.insert_epoch(&server);
        cache.insert(&server, &request(&["a"]), Arc::new(vec![0; 4]), epoch);
        cache.insert(&server, &request(&["b"]), Arc::new(vec![0; 4]), epoch);
        // Admitting 4 more bytes would hit 12 > 10: LRU (a) goes.
        cache.insert(&server, &request(&["c"]), Arc::new(vec![0; 4]), epoch);
        assert!(cache.get(&server, &request(&["a"])).is_none());
        assert!(cache.get(&server, &request(&["b"])).is_some());
        assert_eq!(cache.stats().evicted, 1);
        // One response bigger than the whole budget is refused.
        cache.insert(&server, &request(&["huge"]), Arc::new(vec![0; 11]), epoch);
        assert!(cache.get(&server, &request(&["huge"])).is_none());
        assert_eq!(cache.stats().rejected_oversize, 1);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let server = tiny_server();
        let cache = ResponseCache::new(0, 0);
        let r = request(&["a"]);
        cache.insert(&server, &r, Arc::new(vec![1u8]), 0);
        assert!(cache.get(&server, &r).is_none());
        assert!(!cache.enabled());
    }
}
