//! Criterion micro-benchmarks for the top-k search algorithm (the
//! Figure 11 measurement, in real wall-clock time) on a one-shard
//! engine.

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::{select_keywords, KeywordTemperature};
use dash_core::{DashConfig, IngestSource, SearchRequest, ShardedEngine};
use dash_relation::Database;
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::{fooddb, WebApplication};

fn engine(app: WebApplication, db: &Database) -> ShardedEngine {
    let config = DashConfig::default();
    ShardedEngine::builder(app)
        .source(IngestSource::Crawl {
            db,
            config: &config,
        })
        .build()
        .expect("engine builds")
}

fn engine_tpch_q2() -> ShardedEngine {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    engine(app, &db)
}

fn bench_topk(c: &mut Criterion) {
    // Running example, Example 7's exact request.
    let db = fooddb::database();
    let engine = engine(fooddb::search_application().expect("analyzes"), &db);
    c.bench_function("topk/fooddb/burger-k2-s20", |b| {
        let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
        b.iter(|| engine.search(&request))
    });

    // TPC-H Q2 at micro scale: the paper's keyword temperature classes.
    let engine = engine_tpch_q2();
    let index = engine.shard_indexes().next().expect("one shard");
    let ranked = index.inverted.keywords_by_df();
    let mut group = c.benchmark_group("topk/tpch-q2");
    for temperature in KeywordTemperature::all() {
        let keywords = select_keywords(&ranked, temperature, 10, 7);
        if keywords.is_empty() {
            continue;
        }
        for (label, s) in [("s100", 100u64), ("s1000", 1000u64)] {
            group.bench_function(format!("{}-{label}", temperature.name()), |b| {
                let requests: Vec<SearchRequest> = keywords
                    .iter()
                    .map(|w| SearchRequest::new(&[w.as_str()]).k(10).min_size(s))
                    .collect();
                let mut i = 0usize;
                b.iter(|| {
                    let hits = engine.search(&requests[i % requests.len()]);
                    i += 1;
                    hits
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
