//! The `serve` suite: closed-loop serving performance of
//! `dash-serve::DashServer` — p50/p99 end-to-end search latency and
//! sustained qps under mixed search/update traffic, at 1 and 4 shards,
//! plus the micro-costs of the serving path (cache hit, batched miss).
//!
//! Unlike the other suites, the headline rows are *not* `iter()`
//! loops: the closed-loop load generator measures every request
//! end-to-end (cache → caller-led micro-batch → snapshot search)
//! and reports its own percentiles, recorded into `BENCH_serve.json`
//! via `record_measurement` — `p50_ns` carries the stated latency
//! percentile (for `*-qps` rows, the implied per-request time) and
//! `ops_per_sec` the implied/sustained rate. CI's load smoke
//! regenerates this file every run and fails if qps reads zero, or if
//! a lone uncached miss costs 2× a direct engine search or more (the
//! serving path around a miss must stay a fraction of the search).

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::{select_keywords, KeywordTemperature};
use dash_core::crawl::reference;
use dash_core::{DashEngine, SearchRequest};
use dash_mapreduce::WorkflowStats;
use dash_serve::loadgen::{self, LoadProfile};
use dash_serve::{DashServer, ServeConfig};
use dash_tpch::{generate, Scale, TpchConfig};

fn bench_serve(c: &mut Criterion) {
    // TPC-H Q2 at micro scale — the Figure 11 workload, big enough
    // that per-search work dominates the serving overhead.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let single =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).expect("builds");

    // Traffic mix: hot/warm/cold keywords, fragments churned by the
    // update stream drawn from the crawl itself.
    let mut vocab: Vec<String> = Vec::new();
    for temperature in KeywordTemperature::all() {
        vocab.extend(select_keywords(&single, temperature, 8, 11));
    }
    let update_pool: Vec<_> = fragments.iter().take(32).cloned().collect();
    let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
    let profile = LoadProfile {
        clients: 4,
        ops_per_client: if fast { 200 } else { 800 },
        update_every: 20,
        seed: 11,
        ..LoadProfile::default()
    };

    for shards in [1usize, 4] {
        let server = DashServer::from_fragments(
            app.clone(),
            &fragments,
            ServeConfig::default().shards(shards),
        )
        .expect("server builds");
        let report = loadgen::run(&server, &vocab, &update_pool, &profile);
        println!(
            "serve/s{shards} closed-loop run: {}\n{}",
            report.summary(),
            report.stage_table
        );
        c.record_measurement(
            &format!("serve/s{shards}/mixed-p50"),
            report.p50_ns as f64,
            1e9 / (report.p50_ns as f64).max(1.0),
        );
        c.record_measurement(
            &format!("serve/s{shards}/mixed-p99"),
            report.p99_ns as f64,
            1e9 / (report.p99_ns as f64).max(1.0),
        );
        c.record_measurement(
            &format!("serve/s{shards}/mixed-qps"),
            1e9 / report.qps.max(1e-9),
            report.qps,
        );
    }

    // Micro-costs of the serving path itself, on the 1-shard server.
    let server = DashServer::from_fragments(app.clone(), &fragments, ServeConfig::default())
        .expect("server builds");
    let hot = select_keywords(&single, KeywordTemperature::Hot, 1, 7)
        .pop()
        .expect("a hot keyword");
    let request = SearchRequest::new(&[hot.as_str()]).k(10).min_size(1000);
    let mut group = c.benchmark_group("serve/path");
    server.search(&request); // warm the cache
    group.bench_function("cache-hit", |b| b.iter(|| server.search(&request)));
    let uncached =
        DashServer::from_fragments(app, &fragments, ServeConfig::default().cache_capacity(0))
            .expect("server builds");
    group.bench_function("uncached-batched-miss", |b| {
        b.iter(|| uncached.search(&request))
    });
    group.bench_function("engine-direct", |b| {
        b.iter(|| uncached.snapshot().engine.search(&request))
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
