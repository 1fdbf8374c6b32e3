//! The tie-plateau suite: corpora whose inverted lists carry large
//! runs of *identical* TF·IDF seed scores.
//!
//! The top-k seeding loop draws through score ties (`<=` bound) — the
//! property that makes the pop order schedule-independent, and so lets
//! one heap run over a sharded partition exactly. The price is that a
//! keyword whose list is one giant equal-score plateau seeds the
//! *whole* plateau before the first pop, where a strict bound would
//! stop after one entry. The paper's workloads (fooddb, TPC-H Q2) have
//! almost no ties, so the other suites never price that cost; this one
//! does, on corpora built to be worst-case
//! ([`dash_bench::plateau_corpus`]):
//!
//! * `flat/…` — every fragment has the plateau keyword at the same
//!   occurrence count and the same total, so ALL seed scores are one
//!   bit-identical value;
//! * `half/…` — half the corpus ties, half varies (the realistic
//!   "many reposts of the same boilerplate" shape).
//!
//! The engine runs at 1, 2 and 4 shards: sharding cuts every plateau at
//! the shard boundaries, and the one heap seeds from all shards' list
//! heads, so an `sN` row must stay within noise of `s1` (CI gates
//! `half2048/s4/k10-s1` under 2× `s1`).

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::plateau_corpus;
use dash_core::{Fragment, IngestSource, SearchRequest, ShardedEngine};
use dash_webapp::fooddb;

fn bench_corpus(c: &mut Criterion, label: &str, fragments: &[Fragment]) {
    let app = fooddb::search_application().expect("analyzes");
    // k small against a huge plateau: seeding cost dominates emission.
    let narrow = SearchRequest::new(&["plateau"]).k(10).min_size(1);
    // Expansion across each group's chain, still under full ties.
    let expanding = SearchRequest::new(&["plateau"]).k(10).min_size(50);

    let mut group = c.benchmark_group(&format!("plateau/{label}"));
    for shards in [1usize, 2, 4] {
        let engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(fragments))
            .build()
            .expect("sharded builds");
        group.bench_function(format!("s{shards}/k10-s1"), |b| {
            b.iter(|| engine.search(&narrow))
        });
        group.bench_function(format!("s{shards}/k10-s50"), |b| {
            b.iter(|| engine.search(&expanding))
        });
    }
    group.finish();
}

fn bench_plateau(c: &mut Criterion) {
    // 64 groups × 32 fragments = 2048 postings, all one score.
    let flat = plateau_corpus(64, 32, usize::MAX);
    bench_corpus(c, "flat2048", &flat);
    // Same shape, half tied / half varying.
    let half = plateau_corpus(64, 32, 1024);
    bench_corpus(c, "half2048", &half);
}

criterion_group!(benches, bench_plateau);
criterion_main!(benches);
