//! The `serve` suite: the micro-costs of `dash-serve::DashServer`'s
//! search path on a 1-shard server, each an `iter()` row:
//!
//! | Row | Measures |
//! |---|---|
//! | `serve/path/cache-hit` | a repeat request answered from the result cache |
//! | `serve/path/uncached-miss` | a lone request through a cacheless server: one engine search on the caller's thread, counted and timed |
//! | `serve/path/engine-direct` | the same search straight on the snapshot's engine |
//!
//! End-to-end serving under mixed search/update traffic is
//! `dashbench`'s job (`benchmark/`). CI's `serve` job regenerates this
//! file and gates two ratios, which survive slow runners: a cache hit
//! must cost under a quarter of a direct engine search, and a lone
//! uncached miss under two (the serving path around a miss must stay a
//! fraction of the search).

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::{select_keywords, KeywordTemperature};
use dash_core::crawl::reference;
use dash_core::{FragmentIndex, SearchRequest};
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
    // The corpus's DF ranking, which picks the hot keyword.
    let index =
        FragmentIndex::build(&fragments, app.query.range_selection_index()).expect("builds");

    let server = DashServer::from_fragments(app.clone(), &fragments, ServeConfig::default())
        .expect("server builds");
    let hot = select_keywords(
        &index.inverted.keywords_by_df(),
        KeywordTemperature::Hot,
        1,
        7,
    )
    .pop()
    .expect("a hot keyword");
    let request = SearchRequest::new(&[hot.as_str()]).k(10).min_size(1000);
    let mut group = c.benchmark_group("serve/path");
    server.search(&request); // warm the cache
    group.bench_function("cache-hit", |b| b.iter(|| server.search(&request)));
    let uncached =
        DashServer::from_fragments(app, &fragments, ServeConfig::default().cache_capacity(0))
            .expect("server builds");
    group.bench_function("uncached-miss", |b| b.iter(|| uncached.search(&request)));
    group.bench_function("engine-direct", |b| {
        b.iter(|| uncached.snapshot().engine.search(&request))
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
