//! The keyed LRU cache, invalidated *precisely* by published delta
//! signatures instead of flushed wholesale. One implementation, generic
//! over its payload; [`DashServer`](crate::DashServer) runs two
//! instances of it:
//!
//! * the **result cache** — hit lists (`Vec<SearchHit>`), budgeted in
//!   hits, read and filled only by the path that returns hit lists
//!   ([`DashServer::search`](crate::DashServer::search));
//! * the **rendered cache** — the wire-tax attack. A cache-hit search
//!   once cost ~112µs over the socket against ~4µs in-process: the
//!   result cache removes the *search*, but the front-end still
//!   re-serialized the hit list to JSON and re-framed the HTTP response
//!   on every request. This instance stores the **final socket bytes**
//!   of a `GET /search` response (`Arc<Vec<u8>>`, budgeted in bytes), so
//!   a repeat of a hot request is a lookup and a single `write(2)`.
//!   Serve never learns HTTP: the caller looks the bytes up
//!   ([`DashServer::cached_rendered`](crate::DashServer::cached_rendered))
//!   and has a miss searched and rendered
//!   ([`DashServer::search_rendered`](crate::DashServer::search_rendered));
//!   a rendered miss neither reads nor fills the result cache — its
//!   repeats are answered from the bytes, so a hit list cached beside
//!   them would only be swept.
//!
//! Both instances are swept by the same publication, under the writer
//! lock, before the snapshot swap — so everything below holds for each.
//!
//! An entry remembers one thing a future delta could perturb:
//!
//! * its **request keywords** K (they are its key) — a delta changes
//!   the answer only by adding a posting of some k ∈ K (document
//!   frequency, hence IDF, hence every score shifts, or a new
//!   candidate arises) or by touching an equality group that holds
//!   some k ∈ K (every page Algorithm 1 can emit or even consider
//!   lives in such a group, and absorption/expansion never leaves it).
//!
//! A published [`DeltaSignature`] carries, as one keyword set, the
//! keywords W its adds bring and the *pre-delta vocabulary* V(G) of
//! the groups G it touches — every keyword any fragment of any g ∈ G
//! held; an entry survives iff K misses that set — in which case the
//! cached payload is provably still byte-identical to a fresh search
//! (`tests/serve_equivalence.rs` proves it over random interleavings).
//!
//! ## Why keywords alone are exact
//!
//! The entry could instead record, at insert time, the groups holding
//! a posting of K and die when they meet G. That is the same rule, at
//! the price of walking every posting of K on every miss:
//!
//! * *Invariance.* While an entry for K survives, no delta has added
//!   or removed a posting of any k ∈ K: an added posting puts k in W,
//!   and a removed or replaced one sits in a touched group that held
//!   k, so k ∈ V(G). Hence the groups holding K at insert time are the
//!   groups holding K now, and "insert-time groups ∩ G ≠ ∅" ⇔ "some
//!   g ∈ G holds some k ∈ K now" ⇔ "K ∩ V(G) ≠ ∅".
//! * *Equality of the kill sets.* The recorded-groups form kills on
//!   (K ∩ W) ∨ (K ∩ removed fragments' terms) ∨ (groups(K) ∩ G). The
//!   removed fragments live in touched groups, so their terms ⊆ V(G),
//!   and both forms kill exactly on (K ∩ W) ∨ (K ∩ V(G)): the same
//!   entries at the same epochs, not a superset.
//!
//! Insertions are epoch-checked: a payload computed against a snapshot
//! that is no longer the latest published state is dropped rather than
//! cached, closing the race between a long-running search and a
//! concurrent publication.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dash_core::{DeltaSignature, SearchRequest};
use dash_obs::Registry;
use parking_lot::Mutex;

/// Cache identity of a search: the full request, field by field — two
/// requests hit the same entry only when byte-identical answers are
/// guaranteed. One key is built per insert and shared by the map and
/// the recency order; a lookup borrows the caller's request
/// (`Arc<SearchRequest>: Borrow<SearchRequest>`) and builds none.
type CacheKey = Arc<SearchRequest>;

/// One cached payload. Its invalidation dependencies are the request
/// keywords in its [`CacheKey`] (see module docs).
#[derive(Debug)]
struct Entry<V> {
    /// The map's own key, so a hit can stamp the recency order with it.
    key: CacheKey,
    value: V,
    /// Recency stamp; an entry is LRU-evictable when its stamp is the
    /// oldest live one.
    tick: u64,
}

/// Counters of one cache instance (see
/// [`DashServer::stats`](crate::DashServer::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Insertions dropped because their snapshot epoch was stale.
    pub rejected_stale: u64,
    /// Entries removed by delta-signature invalidation.
    pub invalidated: u64,
    /// Entries evicted by the LRU capacity bound or the weight budget.
    pub evicted: u64,
    /// Insertions refused because one payload alone would exceed the
    /// total weight budget.
    pub rejected_oversize: u64,
}

impl CacheStats {
    /// Mirrors the counters into `registry` as `{prefix}_{counter}`
    /// gauges (scrape-time export for `/metrics`).
    pub fn mirror(&self, registry: &Registry, prefix: &str) {
        for (name, value) in [
            ("hits", self.hits),
            ("misses", self.misses),
            ("insertions", self.insertions),
            ("rejected_stale", self.rejected_stale),
            ("invalidated", self.invalidated),
            ("evicted", self.evicted),
            ("rejected_oversize", self.rejected_oversize),
        ] {
            registry.gauge(&format!("{prefix}_{name}")).set(value);
        }
    }
}

#[derive(Debug)]
struct Inner<V> {
    /// The latest published epoch the cache has been synchronized to.
    epoch: u64,
    tick: u64,
    /// Total weight across all live entries — the quantity the
    /// admission budget bounds (entry count alone says nothing about
    /// memory when one entry can hold a thousand-hit result set).
    total_weight: usize,
    map: HashMap<CacheKey, Entry<V>>,
    /// Lazy LRU order: `(tick, key)` pairs, stale ones skipped at
    /// eviction time (an entry's authoritative stamp lives in the map).
    order: VecDeque<(u64, CacheKey)>,
    stats: CacheStats,
}

impl<V> Inner<V> {
    /// Drops stale recency records once they outnumber live entries
    /// 2:1 — hits append to `order` but eviction only pops it while
    /// *over* capacity, so a hit-heavy steady state would otherwise
    /// grow the queue without bound. Keeping only the records that
    /// carry their entry's authoritative stamp leaves one per entry,
    /// still in stamp order, in place: O(n), amortized over the ≥ n
    /// touches it took to trigger, and no allocation.
    fn compact(&mut self) {
        if self.order.len() <= 2 * self.map.len() + 16 {
            return;
        }
        let map = &self.map;
        self.order
            .retain(|(tick, key)| map.get(key).is_some_and(|e| e.tick == *tick));
    }
}

/// The keyed LRU cache of one payload type.
#[derive(Debug)]
pub(crate) struct Cache<V> {
    capacity: usize,
    /// Admission budget on total entry weight: an insert whose payload
    /// alone exceeds it is refused; an admissible insert evicts LRU
    /// entries until the total fits.
    budget: usize,
    /// A payload's weight against `budget` (hits, bytes).
    weight: fn(&V) -> usize,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> Cache<V> {
    /// A cache holding at most `capacity` payloads totalling at most
    /// `budget` weight, synchronized to published epoch `epoch`;
    /// capacity 0 disables caching entirely (every lookup misses,
    /// every insert is dropped).
    pub(crate) fn new(capacity: usize, budget: usize, weight: fn(&V) -> usize, epoch: u64) -> Self {
        Cache {
            capacity,
            budget,
            weight,
            inner: Mutex::new(Inner {
                epoch,
                tick: 0,
                total_weight: 0,
                map: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Whether inserts can ever be stored.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up a request, refreshing its recency on a hit; a miss
    /// counts as a lookup that falls through to the engine.
    pub(crate) fn get(&self, request: &SearchRequest) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(request) {
            Some(entry) => {
                entry.tick = tick;
                let value = entry.value.clone();
                let key = Arc::clone(&entry.key);
                inner.order.push_back((tick, key));
                inner.stats.hits += 1;
                inner.compact();
                Some(value)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a payload computed against snapshot `epoch`. Dropped when
    /// the cache has already synchronized past that epoch (the payload
    /// may predate a delta whose signature would have invalidated it).
    pub(crate) fn insert(&self, request: &SearchRequest, value: V, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        let weight = (self.weight)(&value);
        let mut inner = self.inner.lock();
        if epoch != inner.epoch {
            inner.stats.rejected_stale += 1;
            return;
        }
        // Admission control: a payload that alone blows the budget must
        // not be admitted — storing it would evict the whole rest of
        // the cache for one entry that still violates the bound.
        if weight > self.budget {
            inner.stats.rejected_oversize += 1;
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let key = CacheKey::new(request.clone());
        inner.order.push_back((tick, Arc::clone(&key)));
        inner.total_weight += weight;
        let entry = Entry {
            key: Arc::clone(&key),
            value,
            tick,
        };
        if let Some(replaced) = inner.map.insert(key, entry) {
            inner.total_weight -= (self.weight)(&replaced.value);
        }
        inner.stats.insertions += 1;
        // Evict-on-admit: shed LRU entries while either bound — entry
        // count or total weight — is violated. The fresh entry is the
        // newest in recency order and fits the budget alone, so the
        // loop always terminates before reaching it.
        while inner.map.len() > self.capacity || inner.total_weight > self.budget {
            let Some((tick, key)) = inner.order.pop_front() else {
                break;
            };
            // Only the entry's *current* stamp is authoritative; older
            // queue records for a re-touched key are skipped.
            if inner.map.get(&key).is_some_and(|e| e.tick == tick) {
                let evicted = inner.map.remove(&key).expect("entry checked present");
                inner.total_weight -= (self.weight)(&evicted.value);
                inner.stats.evicted += 1;
            }
        }
        inner.compact();
    }

    /// Applies a published delta's signature: removes every entry whose
    /// request keywords meet it and advances the cache to the new
    /// epoch (stale in-flight insertions are rejected from then on).
    pub(crate) fn invalidate(&self, signature: &DeltaSignature, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.epoch = epoch;
        if self.capacity == 0 {
            return;
        }
        let before = inner.map.len();
        let mut dropped = 0usize;
        inner.map.retain(|key, entry| {
            let keep = !signature.hits(&key.keywords);
            if !keep {
                dropped += (self.weight)(&entry.value);
            }
            keep
        });
        inner.total_weight -= dropped;
        inner.stats.invalidated += (before - inner.map.len()) as u64;
    }

    /// A copy of the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Live entry count.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Total weight across live entries (what the budget bounds).
    #[cfg(test)]
    pub(crate) fn total_weight(&self) -> usize {
        self.inner.lock().total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::SearchHit;

    fn request(words: &[&str]) -> SearchRequest {
        SearchRequest::new(words).k(3).min_size(10)
    }

    /// A weight budget far above any payload these tests insert, for
    /// the tests that exercise something else.
    const ROOMY: usize = 1 << 16;

    /// A result cache (weight = hit count) at epoch 0.
    fn results(capacity: usize, budget: usize) -> Cache<Vec<SearchHit>> {
        Cache::new(capacity, budget, Vec::len, 0)
    }

    /// A rendered cache (weight = byte count) at epoch 0.
    fn rendered(capacity: usize, budget: usize) -> Cache<Arc<Vec<u8>>> {
        Cache::new(capacity, budget, |bytes| bytes.len(), 0)
    }

    /// A signature whose keyword set (adds' keywords ∪ touched
    /// groups' vocabulary) is `words`.
    fn signature(words: &[&str]) -> DeltaSignature {
        DeltaSignature {
            keywords: words.iter().map(|w| w.to_string()).collect(),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = results(2, ROOMY);
        let (a, b, c) = (request(&["a"]), request(&["b"]), request(&["c"]));
        cache.insert(&a, Vec::new(), 0);
        cache.insert(&b, Vec::new(), 0);
        assert!(cache.get(&a).is_some()); // touch a: b is now LRU
        cache.insert(&c, Vec::new(), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn signature_invalidation_is_precise() {
        let cache = results(8, ROOMY);
        let by_one = request(&["shared"]);
        let by_any = request(&["y", "held"]);
        let untouched = request(&["y"]);
        cache.insert(&by_one, Vec::new(), 0);
        cache.insert(&by_any, Vec::new(), 0);
        cache.insert(&untouched, Vec::new(), 0);
        cache.invalidate(&signature(&["held", "shared", "unasked"]), 1);
        assert!(cache.get(&by_one).is_none(), "keyword overlap must die");
        assert!(cache.get(&by_any).is_none(), "one of two is enough");
        assert!(cache.get(&untouched).is_some(), "disjoint entry survives");
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn stale_epoch_insertions_are_rejected() {
        let cache = results(8, ROOMY);
        cache.invalidate(&DeltaSignature::default(), 3);
        let r = request(&["late"]);
        cache.insert(&r, Vec::new(), 2);
        assert!(cache.get(&r).is_none());
        assert_eq!(cache.stats().rejected_stale, 1);
        cache.insert(&r, Vec::new(), 3);
        assert!(cache.get(&r).is_some());
        // A cache opened at a carried epoch accepts that epoch at once.
        let carried: Cache<Vec<SearchHit>> = Cache::new(8, ROOMY, Vec::len, 7);
        carried.insert(&r, Vec::new(), 7);
        assert!(carried.get(&r).is_some());
        assert_eq!(carried.stats().rejected_stale, 0);
    }

    #[test]
    fn hit_heavy_traffic_does_not_grow_the_order_queue_unboundedly() {
        // Both payloads share the one recency queue implementation.
        let hits = results(4, ROOMY);
        let bytes = rendered(4, ROOMY);
        let r = request(&["hot"]);
        hits.insert(&r, Vec::new(), 0);
        bytes.insert(&r, Arc::new(vec![1u8]), 0);
        for _ in 0..10_000 {
            assert!(hits.get(&r).is_some());
            assert!(bytes.get(&r).is_some());
        }
        // One live entry: compact() keeps the queue at ≤ 2·len + 16
        // (+1 for the record pushed right after a compaction).
        for order_len in [
            hits.inner.lock().order.len(),
            bytes.inner.lock().order.len(),
        ] {
            assert!(
                order_len <= 19,
                "recency queue must stay bounded, got {order_len}"
            );
        }
        // LRU semantics survive compaction.
        for word in ["b", "c", "d", "e"] {
            hits.insert(&request(&[word]), Vec::new(), 0);
        }
        assert_eq!(hits.len(), 4);
        assert!(hits.get(&r).is_none(), "oldest-by-recency evicted first");
    }

    #[test]
    fn hit_budget_bounds_total_cached_hits() {
        let hit = |n: usize| -> Vec<SearchHit> {
            (0..n)
                .map(|i| SearchHit {
                    url: format!("u{i}"),
                    query_string: String::new(),
                    score: 1.0,
                    size: 1,
                    fragment_ids: Vec::new(),
                })
                .collect()
        };
        // Plenty of entry capacity; the 10-hit budget is the binding
        // constraint.
        let cache = results(64, 10);
        cache.insert(&request(&["a"]), hit(4), 0);
        cache.insert(&request(&["b"]), hit(4), 0);
        assert_eq!(cache.total_weight(), 8);
        // Admitting 4 more would hit 12 > 10: the LRU entry (a) goes.
        cache.insert(&request(&["c"]), hit(4), 0);
        assert_eq!(cache.total_weight(), 8);
        assert!(cache.get(&request(&["a"])).is_none(), "LRU evicted");
        assert!(cache.get(&request(&["b"])).is_some());
        assert!(cache.get(&request(&["c"])).is_some());
        assert_eq!(cache.stats().evicted, 1);
        // A result set bigger than the whole budget is refused, and
        // the resident entries survive it.
        cache.insert(&request(&["huge"]), hit(11), 0);
        assert!(cache.get(&request(&["huge"])).is_none());
        assert_eq!(cache.stats().rejected_oversize, 1);
        assert_eq!(cache.len(), 2);
        // Replacing an entry accounts for the hits it frees.
        cache.insert(&request(&["b"]), hit(1), 0);
        assert_eq!(cache.total_weight(), 5);
        // Invalidation releases budget too.
        cache.invalidate(&signature(&["b", "c"]), 1);
        assert_eq!((cache.len(), cache.total_weight()), (0, 0));
    }

    #[test]
    fn byte_budget_bounds_total_cached_bytes() {
        let cache = rendered(64, 10);
        cache.insert(&request(&["a"]), Arc::new(vec![0; 4]), 0);
        cache.insert(&request(&["b"]), Arc::new(vec![0; 4]), 0);
        // Admitting 4 more bytes would hit 12 > 10: LRU (a) goes.
        cache.insert(&request(&["c"]), Arc::new(vec![0; 4]), 0);
        assert_eq!(cache.total_weight(), 8);
        assert!(cache.get(&request(&["a"])).is_none());
        assert!(cache.get(&request(&["b"])).is_some());
        assert_eq!(cache.stats().evicted, 1);
        // One response bigger than the whole budget is refused.
        cache.insert(&request(&["huge"]), Arc::new(vec![0; 11]), 0);
        assert!(cache.get(&request(&["huge"])).is_none());
        assert_eq!(cache.stats().rejected_oversize, 1);
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let cache = rendered(8, ROOMY);
        let r = request(&["alpha"]);
        let bytes = Arc::new(b"HTTP/1.1 200 OK\r\n\r\n".to_vec());
        cache.insert(&r, Arc::clone(&bytes), 0);
        let hit = cache.get(&r).expect("cached");
        assert!(
            Arc::ptr_eq(&hit, &bytes),
            "a hit is a reference, not a copy"
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = results(0, ROOMY);
        let r = request(&["a"]);
        cache.insert(&r, Vec::new(), 0);
        assert!(cache.get(&r).is_none());
        assert!(!cache.enabled());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn zero_capacity_disables_the_rendered_cache() {
        let cache = rendered(0, ROOMY);
        let r = request(&["a"]);
        cache.insert(&r, Arc::new(vec![1u8]), 0);
        assert!(cache.get(&r).is_none());
        assert!(!cache.enabled());
        assert_eq!((cache.len(), cache.total_weight()), (0, 0));
    }
}
