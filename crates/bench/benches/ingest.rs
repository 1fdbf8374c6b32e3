//! The `ingest` suite: what the distributed (mapreduce-backed) build
//! costs relative to the direct single-process build, and what its
//! fault tolerance and restartability are worth — the numbers ROADMAP
//! item 4 asked for. Every row is a single-shot `record_measurement`
//! over the same synthetic Zipf corpus (`dash_bench::scale`, TPC-H Q2
//! shape), second-of-two-runs warm like the `scale` suite:
//!
//! | Row | Measures |
//! |---|---|
//! | `ingest/direct-build` | in-process partition + per-shard build (`IngestSource::Fragments`) |
//! | `ingest/mapreduce-build` | the two-job workflow end to end, fault-free |
//! | `ingest/mapreduce-faulty` | same workflow with map+reduce retries injected — the fault-retry overhead |
//! | `ingest/resume-restart` | warm restart from the spilled per-shard input indices — the kill-and-resume path |
//!
//! All four paths produce byte-identical engines (asserted here via
//! shard sizes and fragment counts; `tests/ingest_equivalence.rs`
//! proves image-level identity), so the rows price pure orchestration:
//! simulated-time metering, shuffle bookkeeping, retried attempts, and
//! spill encode/decode. Corpus size defaults to 100k fragments (10k in
//! `DASH_BENCH_FAST` smoke runs), capped by `DASH_SCALE_FRAGMENTS` —
//! CI's `ingest` job gates `mapreduce-build` against `direct-build`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::scale::{env_fragments, ScaleCorpus};
use dash_core::{distributed_build, Fragment, IngestConfig, IngestSource, ShardedEngine};
use dash_mapreduce::FaultPlan;
use dash_tpch::{generate, Scale, TpchConfig};

const SHARDS: usize = 4;

fn bench_ingest(c: &mut Criterion) {
    let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
    let count = env_fragments(if fast { 10_000 } else { 100_000 });
    let corpus = ScaleCorpus::sized(count);
    println!(
        "ingest corpus: {} fragments, {} groups, {} shards",
        corpus.fragments, corpus.groups, SHARDS
    );

    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    drop(db);

    let fragments: Vec<Fragment> = corpus.shard_batches(1).flatten().collect();

    // Direct build: the in-process partition + per-shard index build
    // the workflow must reproduce byte for byte. Two runs, second is
    // the row (allocator-warm, like the scale suite).
    let mut direct_ns = 0.0;
    let mut want_sizes = Vec::new();
    for _ in 0..2 {
        let begin = Instant::now();
        let engine = ShardedEngine::builder(app.clone())
            .shards(SHARDS)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .expect("direct build");
        direct_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(engine.fragment_count(), corpus.fragments);
        want_sizes = engine.shard_sizes();
    }
    c.record_measurement("ingest/direct-build", &[direct_ns], corpus.fragments as f64);

    // The two-job mapreduce workflow, fault-free: partition plan +
    // shard build + driver assembly, no spilling.
    let mr_config = IngestConfig {
        shards: SHARDS,
        ..IngestConfig::default()
    };
    let mut mr_ns = 0.0;
    for _ in 0..2 {
        let begin = Instant::now();
        let output = distributed_build(&app, &fragments, &mr_config).expect("workflow build");
        let engine = ShardedEngine::builder(app.clone())
            .source(IngestSource::Distributed(output))
            .build()
            .expect("workflow engine");
        mr_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(engine.shard_sizes(), want_sizes);
    }
    c.record_measurement("ingest/mapreduce-build", &[mr_ns], corpus.fragments as f64);

    // The same workflow under injected faults: one map attempt and one
    // reduce attempt fail in every job and are retried — the row
    // prices what a lost worker costs a real build.
    let faulty_config = IngestConfig {
        shards: SHARDS,
        faults: FaultPlan::new()
            .fail_map(0, 0)
            .fail_map(1, 0)
            .fail_reduce(0, 0),
        ..IngestConfig::default()
    };
    let mut faulty_ns = 0.0;
    let mut retries = 0u64;
    for _ in 0..2 {
        let begin = Instant::now();
        let output = distributed_build(&app, &fragments, &faulty_config).expect("survives faults");
        retries = output.report.map_attempts + output.report.reduce_attempts;
        let engine = ShardedEngine::builder(app.clone())
            .source(IngestSource::Distributed(output))
            .build()
            .expect("faulted engine");
        faulty_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(engine.shard_sizes(), want_sizes);
    }
    c.record_measurement(
        "ingest/mapreduce-faulty",
        &[faulty_ns],
        corpus.fragments as f64,
    );
    println!(
        "fault-retry overhead: {:.1}ms faulty vs {:.1}ms clean ({:.2}x, {} task attempts)",
        faulty_ns / 1e6,
        mr_ns / 1e6,
        faulty_ns / mr_ns.max(1.0),
        retries
    );

    // Restart from spill: one priming run persists each shard's input
    // indices, then the timed run resumes from them — the
    // kill-and-restart recovery path (fingerprint the corpus, read the
    // indices, assemble; no mapreduce jobs at all).
    let spill = scratch_dir();
    let spill_config = IngestConfig {
        shards: SHARDS,
        spill_dir: Some(spill.clone()),
        ..IngestConfig::default()
    };
    distributed_build(&app, &fragments, &spill_config).expect("priming run spills");
    let mut resume_ns = 0.0;
    for _ in 0..2 {
        let begin = Instant::now();
        let output = distributed_build(&app, &fragments, &spill_config).expect("resumes");
        assert!(
            output.report.resumed_dumps,
            "resume must hit the index spill"
        );
        let engine = ShardedEngine::builder(app.clone())
            .source(IngestSource::Distributed(output))
            .build()
            .expect("resumed engine");
        resume_ns = begin.elapsed().as_nanos() as f64;
        assert_eq!(engine.shard_sizes(), want_sizes);
    }
    let _ = std::fs::remove_dir_all(&spill);
    c.record_measurement(
        "ingest/resume-restart",
        &[resume_ns],
        corpus.fragments as f64,
    );
    println!(
        "build paths: direct {:.1}ms, mapreduce {:.1}ms ({:.2}x), resume {:.1}ms",
        direct_ns / 1e6,
        mr_ns / 1e6,
        mr_ns / direct_ns.max(1.0),
        resume_ns / 1e6
    );
}

/// A per-process scratch directory for the spill files.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dash-ingest-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
