//! The allocation ledger tier: how many heap allocations each request
//! path makes, pinned at its measured count.
//!
//! A counting `#[global_allocator]` (std only) tallies every `alloc`,
//! `alloc_zeroed` and `realloc` on the calling thread, so the tests of
//! this file run side by side without counting each other. Every path
//! below runs on its caller's thread (one shard, so a publication's
//! maintenance runs inline). Each path is warmed first: a pooled buffer
//! is grown once and then reused, and the count is what a steady
//! server pays per request.
//!
//! A path that gains an allocation fails here with its count; a change
//! that removes one lowers its pin. What the pins hold:
//!
//! * a byte-cache hit allocates nothing (its answer is an `Arc` clone);
//! * a socket miss allocates a constant number of times, whatever its
//!   hit count or the fragment ids its hits hold;
//! * a render allocates its output buffer and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use dash::core::{Fragment, FragmentId, IndexDelta, SearchHit, SearchRequest, ShardedEngine};
use dash::net::event::search_response;
use dash::net::json::hits_to_json;
use dash::relation::Value;
use dash::serve::{DashServer, ServeConfig};
use dash::webapp::fooddb;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

impl Counting {
    fn count() {
        // A thread being torn down has no counter left; its
        // allocations go uncounted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Groups of the corpus, and fragments per group.
const GROUPS: usize = 40;
const PER_GROUP: i64 = 12;

/// A fooddb-shaped corpus (`(cuisine, budget)`): every fragment holds
/// `common` (the word of a many-hit request), one fragment per group
/// holds `rare`, and only group 0's first fragment holds `lone`.
fn corpus() -> Vec<Fragment> {
    let mut fragments = Vec::new();
    for group in 0..GROUPS {
        for budget in 0..PER_GROUP {
            let mut words = BTreeMap::from([("common".to_string(), 1 + budget as u64 % 3)]);
            words.insert("filler".to_string(), 4);
            if budget == 5 {
                words.insert("rare".to_string(), 2);
            }
            if group == 0 && budget == 0 {
                words.insert("lone".to_string(), 1);
            }
            fragments.push(Fragment::new(
                FragmentId::new(vec![
                    Value::str(format!("cuisine {group}")),
                    Value::Int(budget),
                ]),
                words,
                1,
            ));
        }
    }
    fragments
}

fn server() -> DashServer {
    DashServer::from_fragments(
        fooddb::search_application().unwrap(),
        &corpus(),
        ServeConfig::default().shards(1),
    )
    .unwrap()
}

/// One hit of one fragment id.
fn one_hit() -> SearchRequest {
    SearchRequest::new(&["lone", "filler"]).k(1).min_size(1)
}

/// Ten hits of several fragment ids each.
fn many_hits() -> SearchRequest {
    SearchRequest::new(&["common", "rare"]).k(10).min_size(40)
}

/// The fragment ids a hit list holds.
fn fragment_ids(hits: &[SearchHit]) -> usize {
    hits.iter().map(|hit| hit.fragment_ids.len()).sum()
}

#[test]
fn the_two_shapes_differ_in_hits_and_fragment_ids() {
    let server = server();
    let (one, many) = (server.search(&one_hit()), server.search(&many_hits()));
    assert_eq!((one.len(), fragment_ids(&one)), (1, 1));
    assert_eq!(many.len(), 10);
    assert!(fragment_ids(&many) >= 30, "{}", fragment_ids(&many));
}

#[test]
fn a_socket_miss_allocates_a_constant_number_of_times() {
    let server = server();
    let mut counts = Vec::new();
    for request in [one_hit(), many_hits()] {
        // `search_rendered` searches whether or not the bytes are
        // cached, so a repeat is a miss with warm buffers.
        for _ in 0..3 {
            search_response(&server, &request);
        }
        let (count, bytes) = allocations(|| search_response(&server, &request));
        let hits = server.snapshot().engine.search(&request);
        assert!(bytes.ends_with(hits_to_json(&hits).as_bytes()));
        counts.push(count);
    }
    // The response buffer and its `Arc`; the engine's shard views and
    // IDF row; the cache key (an `Arc`, its keyword vector and two
    // keywords).
    assert_eq!(counts, [8, 8], "one hit / ten hits");
}

#[test]
fn a_byte_cache_hit_allocates_nothing() {
    let server = server();
    let request = many_hits();
    search_response(&server, &request);
    server.cached_rendered(&request).expect("cached");
    let (count, bytes) = allocations(|| server.cached_rendered(&request));
    assert!(bytes.is_some());
    assert_eq!(count, 0);
}

#[test]
fn a_hit_list_cache_hit_allocates_the_copy_it_returns() {
    let server = server();
    let request = many_hits();
    let hits = server.search(&request);
    server.search(&request);
    let (count, cached) = allocations(|| server.search(&request));
    assert_eq!(cached, hits);
    // The list; per hit its URL, query string and id list; per id its
    // values and its one string value.
    assert_eq!(count, 1 + 3 * 10 + 2 * fragment_ids(&hits) as u64);
}

#[test]
fn an_engine_search_into_hits_allocates_per_hit_and_fragment_id() {
    let server = server();
    let snapshot = server.snapshot();
    let engine: &ShardedEngine = &snapshot.engine;
    for request in [one_hit(), many_hits()] {
        engine.search(&request);
        let (count, hits) = allocations(|| engine.search(&request));
        // The shard views and the IDF row; the hit list's growth (4, 8,
        // 16 slots); per hit its query string, URL and id list; per id
        // its values and its one string value.
        let growth = hits.len().next_power_of_two().max(4).trailing_zeros() as u64 - 1;
        let owned = 3 * hits.len() + 2 * fragment_ids(&hits);
        assert_eq!(count, 2 + growth + owned as u64, "{request:?}");
    }
}

#[test]
fn a_render_allocates_only_its_output() {
    let server = server();
    for request in [one_hit(), many_hits()] {
        let hits = server.search(&request);
        let (count, json) = allocations(|| hits_to_json(&hits));
        assert!(json.starts_with('['));
        assert_eq!(count, 1, "{request:?}");
    }
}

#[test]
fn a_publish_allocates_its_pinned_count() {
    let server = server();
    let add = |word: &str| {
        IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("cuisine 3"), Value::Int(100)]),
            BTreeMap::from([(word.to_string(), 2)]),
            1,
        )])
    };
    server.publish(add("warm"));
    let delta = add("fresh");
    let (count, _) = allocations(|| server.publish(delta));
    assert_eq!(count, 57);
}
