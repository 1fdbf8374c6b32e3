//! The build-peak tier: how much live heap an `IngestSource::Batches`
//! build holds at its worst moment.
//!
//! A serving process's peak RSS is set by its engine build, not by the
//! engines it serves: each shard's batch of fragments (`BTreeMap`
//! occurrence maps, `String` keywords, `Vec<Value>` identifiers) is
//! several times the index built from it. The bulk build therefore
//! runs in two stages, and the batch is freed between them
//! (`FragmentIndex::place`, then `PlacedIndex::finish`): while the
//! batch is alive only stage one's columns sit beside it — the
//! catalog, the keyword interner and the probe arena — and stage two's
//! TF arena, sort buffers and graph are allocated after it is gone.
//!
//! This tier counts every allocation with a `#[global_allocator]` (std
//! only) and asserts, batch by batch, that the live heap the build adds
//! while one batch is built stays under that batch plus
//! [`SHARD_SHARE`] of the shard index's `heap_bytes`. Building stage
//! two while the batch is still alive adds the TF arena and the graph
//! (about a third of the index) on top of the batch and fails the
//! bound. The file holds one test, so no other test's allocations run
//! beside it. CI runs it at `DASH_SHARDS` 1 and 4 (the number of
//! batches).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use dash::core::{env_shards, IngestSource, ShardedEngine};
use dash_bench::scale::ScaleCorpus;
use dash_tpch::{generate, Scale, TpchConfig};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                Self::shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// The bound's shard term: while one batch is built, the build may
/// hold the batch plus this share of the shard index built from it.
/// Stage one (what sits beside a live batch) is about two thirds of a
/// shard's index; stage one and stage two beside the batch are the
/// whole index plus the sort buffers.
const SHARD_SHARE: f64 = 0.85;

/// Fragments in the corpus: large enough that batches and indexes
/// dwarf the allocator noise, small enough for a debug build.
const FRAGMENTS: usize = 40_000;

/// One batch's build, as the allocator saw it: the live bytes when it
/// began, the batch's own bytes and the highest live bytes before the
/// next batch was asked for.
struct Window {
    start: usize,
    batch: usize,
    peak: usize,
}

#[test]
fn a_batches_build_frees_each_batch_before_its_second_stage() {
    // The TPC-H Q2 shape the corpus mimics (group = custkey, range =
    // quantity); analysis needs the schema, not the rows.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let app = dash_tpch::q2_application(&generate(&config)).expect("Q2 analyzes");
    let corpus = ScaleCorpus::sized(FRAGMENTS);
    let shards = env_shards().unwrap_or(1);

    // The build pulls the next batch only once the previous one is
    // built, so each pull closes the previous window and opens one.
    let windows: RefCell<Vec<Window>> = RefCell::new(Vec::new());
    let mut generated = corpus.shard_batches(shards);
    let batches = std::iter::from_fn(|| {
        let mut windows = windows.borrow_mut();
        if let Some(window) = windows.last_mut() {
            window.peak = PEAK.load(Ordering::Relaxed) - window.start;
        }
        let start = live();
        reset_peak();
        let batch = generated.next()?;
        windows.push(Window {
            start,
            batch: live() - start,
            peak: 0,
        });
        Some(batch)
    });
    let engine = ShardedEngine::builder(app)
        .source(IngestSource::Batches(Box::new(batches)))
        .build()
        .expect("builds");
    assert_eq!(engine.shard_count(), shards);
    assert_eq!(engine.fragment_count(), FRAGMENTS);

    let windows = windows.into_inner();
    assert_eq!(windows.len(), shards);
    for (s, (window, index)) in windows.iter().zip(engine.shard_indexes()).enumerate() {
        let shard = index.heap_bytes().total();
        let bound = window.batch + (SHARD_SHARE * shard as f64) as usize;
        println!(
            "shard {s}/{shards}: peak {} B = batch {} B + {:.2} × index {shard} B (bound {SHARD_SHARE})",
            window.peak,
            window.batch,
            (window.peak as f64 - window.batch as f64) / shard as f64
        );
        assert!(
            window.peak <= bound,
            "shard {s}: the build's live peak {} B exceeds its batch {} B plus {SHARD_SHARE} × \
             its index's {shard} B: is stage two running beside a live batch?",
            window.peak,
            window.batch
        );
    }
}
