//! The `scale` suite: the million-fragment numbers ROADMAP item 3
//! asked for, measured over the synthetic Zipf corpus
//! (`dash_bench::scale`). Every row is a `record_measurement` — a
//! million-fragment build is seconds, not something an `iter()` loop
//! can sample. `scale/search` records one sample per request (1 000,
//! or 200 in fast mode) and carries its `p99_ns`; the three
//! maintenance rows are the median of five rounds of the same churn,
//! each with counts of its own (`samples: 5`), so their ratio gates
//! divide a median by a median; the build and load rows are
//! single-shot wall times (`samples: 1`). `peak_rss_bytes` is the
//! process high-water mark when the row landed:
//!
//! | Row | Measures |
//! |---|---|
//! | `scale/build` | streamed generate + 4-shard index build, end to end |
//! | `scale/search` | top-k latency over Zipf-skewed keyword traffic, p50 and p99 |
//! | `scale/arena-load` | the builder's `IngestSource::Image` — the zero-parse bulk-read path |
//! | `scale/full-rebuild` | partition + 4-shard index build from in-memory fragments (`IngestSource::Fragments`) — what a bootstrap costs without the image |
//! | `scale/delta-signature` | a ten-fragment group-local delta's invalidation signature (`delta_signature`: the whole preparation — the touched group's stored vocabulary, the walk of its lists and the located edits), taken before it is applied; the median of five |
//! | `scale/delta-apply` | that delta through `apply_delta`; the median of five |
//! | `scale/publish` | what a serving publish does to its two engines: the next such delta prepared once (`prepare`), then spliced into the engine and into its fork (`apply_prepared` twice); the median of five |
//!
//! The arena-load vs full-rebuild gap is the replica-bootstrap win
//! (the SNAPSHOT frame ships the image; CI gates `arena-load <
//! full-rebuild` at its 100k smoke); delta-apply vs full-rebuild
//! is the paper's O(affected-group) maintenance claim priced at scale:
//! the delta is spliced into the shard's arenas in place, so its cost
//! follows the ten fragments it carries, not the million it joins
//! (CI's `scale` job gates `delta-apply × 20 < full-rebuild` at its
//! 100k smoke). Every publish prepares the delta against the
//! pre-delta index first — the touched group's stored vocabulary, one
//! walk of exactly those lists and the located edits — so that
//! preparation must stay the same order as the apply it precedes as
//! the shard grows (gated `delta-signature < delta-apply × 4`). A
//! publish prepares once and splices twice, so it must cost less than
//! two delta-applies, each of which prepares once and splices once
//! (gated `publish < delta-apply × 2`; a walk or a locate per side
//! reads nearer 3×).
//! Corpus size defaults to 1M fragments (20k in
//! `DASH_BENCH_FAST` smoke runs) and is capped by
//! `DASH_SCALE_FRAGMENTS` — CI's `scale` job runs ~100k.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::scale::{env_fragments, ScaleCorpus};
use dash_core::{IndexDelta, IngestSource, SearchRequest, ShardedEngine};
use dash_tpch::{generate, Scale, TpchConfig};
use rand::distr::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 4;

fn bench_scale(c: &mut Criterion) {
    let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
    let count = env_fragments(if fast { 20_000 } else { 1_000_000 });
    let corpus = ScaleCorpus::sized(count);
    println!(
        "scale corpus: {} fragments, {} groups, {} vocab words, {} shards",
        corpus.fragments, corpus.groups, corpus.vocab, SHARDS
    );

    // The application shape the corpus mimics: TPC-H Q2 (group =
    // custkey, range = quantity), analyzed against a micro database —
    // analysis wants the schema, not the rows; the fragments are
    // synthetic.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    drop(db);

    // Build: streamed generation + per-shard index build, one batch in
    // memory at a time. This is the cold-start cost the arena image
    // exists to avoid paying twice.
    let begin = Instant::now();
    let mut engine = ShardedEngine::builder(app.clone())
        .source(IngestSource::Batches(Box::new(
            corpus.shard_batches(SHARDS),
        )))
        .build()
        .expect("scale corpus builds");
    let build_ns = begin.elapsed().as_nanos() as f64;
    assert_eq!(engine.fragment_count(), corpus.fragments);
    c.record_measurement("scale/build", &[build_ns], corpus.fragments as f64);

    // Search latency over traffic drawn from the SAME Zipf the corpus
    // was built with (hot terms dominate queries like they dominate
    // postings).
    let requests = skewed_requests(&corpus, if fast { 200 } else { 1_000 });
    let latencies: Vec<f64> = requests
        .iter()
        .map(|request| {
            let begin = Instant::now();
            let hits = criterion::black_box(engine.search(request));
            let spent = begin.elapsed().as_nanos() as f64;
            assert!(hits.len() <= request.k);
            spent
        })
        .collect();
    c.record_measurement("scale/search", &latencies, 1.0);

    // Arena-image load vs rebuild from fragments: the replica-bootstrap
    // comparison. Same engine, everything already in memory — the only
    // variable is the load path. Each path runs twice and the SECOND
    // run is the row: the first warms the allocator pool, so the
    // number prices the load algorithm rather than the kernel's
    // first-touch page zeroing (which otherwise dominates both paths
    // on a cold heap and varies wildly across virtualization setups —
    // a long-lived replica re-bootstrapping matches the warm run).
    let mut image = Vec::new();
    engine.write_image(&mut image).expect("image dumps");
    let mut arena_ns = 0.0;
    for _ in 0..2 {
        let begin = Instant::now();
        let loaded = ShardedEngine::builder(app.clone())
            .source(IngestSource::Image(&image))
            .build()
            .expect("arena image loads");
        arena_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(loaded.fragment_count(), engine.fragment_count());
        drop(loaded);
    }
    println!("arena image: {} bytes", image.len());
    drop(image);
    c.record_measurement("scale/arena-load", &[arena_ns], corpus.fragments as f64);

    let fragments: Vec<_> = engine.dump_shards().into_iter().flatten().collect();
    let mut rebuild_ns = 0.0;
    for _ in 0..2 {
        let begin = Instant::now();
        let rebuilt = ShardedEngine::builder(app.clone())
            .shards(SHARDS)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .expect("rebuilds");
        rebuild_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(rebuilt.fragment_count(), engine.fragment_count());
        drop(rebuilt);
    }
    drop(fragments);
    c.record_measurement("scale/full-rebuild", &[rebuild_ns], corpus.fragments as f64);
    println!(
        "load paths: arena {:.1}ms vs full-rebuild {:.1}ms ({:.1}x)",
        arena_ns / 1e6,
        rebuild_ns / 1e6,
        rebuild_ns / arena_ns.max(1.0)
    );

    // Delta apply: churn ten fragments of one equality group — the
    // O(affected-group) write path — against `scale/full-rebuild`, the
    // price of the same logical change without incremental
    // maintenance. Each maintenance row is the median of five rounds,
    // each round with counts of its own, so no round re-applies what is
    // already there and the gates divide medians by medians.
    let churn = 10.min(corpus.fragments / corpus.groups).max(1);
    let upserts = |bump: u64| -> Vec<_> {
        (1..=churn as i64)
            .map(|quantity| {
                let mut fragment = corpus.fragment(0, quantity);
                if let Some(count) = fragment.keyword_occurrences.values_mut().next() {
                    *count += bump;
                    fragment.total_keywords += bump;
                }
                fragment
            })
            .collect()
    };
    // What a publish does first: the signature against the pre-delta
    // index (the touched group's vocabulary walk), then the apply.
    let mut signature_ns = Vec::new();
    let mut delta_ns = Vec::new();
    let mut signature_keywords = 0;
    for bump in 1..=5 {
        let upserts = upserts(bump);
        let removes = upserts.iter().map(|f| f.id.clone()).collect();
        let delta = IndexDelta::new(removes, upserts);
        let begin = Instant::now();
        let signature = criterion::black_box(engine.delta_signature(&delta));
        signature_ns.push(begin.elapsed().as_nanos() as f64);
        let range_position = engine.app().query.range_selection_index();
        assert_eq!(delta.touched_groups(range_position).len(), 1);
        signature_keywords = signature.keywords.len();
        let begin = Instant::now();
        let stats = engine.apply_delta(delta);
        delta_ns.push(begin.elapsed().as_nanos() as f64);
        assert_eq!(stats.added, churn);
    }
    c.record_measurement(
        "scale/delta-signature",
        &signature_ns,
        signature_keywords as f64,
    );
    c.record_measurement("scale/delta-apply", &delta_ns, churn as f64);

    // Publish: the serving tier keeps a fork in lockstep and applies
    // every delta to both sides, preparing it once.
    let mut twin = engine.fork();
    let publish_ns: Vec<f64> = (6..=10)
        .map(|bump| {
            let delta = IndexDelta::adding(upserts(bump));
            let begin = Instant::now();
            let prepared = engine.prepare(&delta).expect("the churn fits");
            let stats = engine.apply_prepared(&prepared);
            assert_eq!(twin.apply_prepared(&prepared), stats);
            begin.elapsed().as_nanos() as f64
        })
        .collect();
    drop(twin);
    c.record_measurement("scale/publish", &publish_ns, churn as f64);
}

/// `n` single/double-keyword requests whose vocabulary ranks are drawn
/// from the corpus's own Zipf exponent.
fn skewed_requests(corpus: &ScaleCorpus, n: usize) -> Vec<SearchRequest> {
    let zipf = Zipf::new(corpus.vocab, corpus.keyword_skew);
    let vocab = corpus.vocab();
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    (0..n)
        .map(|i| {
            let words = 1 + i % 2;
            let keywords: Vec<&str> = (0..words)
                .map(|_| vocab[zipf.sample(&mut rng)].as_str())
                .collect();
            SearchRequest::new(&keywords)
                .k(10)
                .min_size(rng.random_range(1u64..=8))
        })
        .collect()
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
