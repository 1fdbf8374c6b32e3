//! Criterion micro-benchmarks for index construction: the columnar
//! inverted fragment index (and the full catalog + inverted + graph
//! build) vs the naive all-pages inverted file (the design choice
//! Section IV motivates).

use criterion::{criterion_group, criterion_main, Criterion};
use dash_core::baseline::NaiveEngine;
use dash_core::crawl::reference;
use dash_core::index::InvertedFragmentIndex;
use dash_core::{Fragment, FragmentCatalog, FragmentIndex};
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::WebApplication;

fn q1_parts() -> (WebApplication, Vec<Fragment>) {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q1_application(&db).expect("Q1 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    (app, fragments)
}

fn bench_index(c: &mut Criterion) {
    let (app, fragments) = q1_parts();
    let catalog = FragmentCatalog::from_fragments(&fragments, app.query.range_selection_index())
        .expect("interns");

    c.bench_function("index/inverted-fragment-index", |b| {
        b.iter(|| InvertedFragmentIndex::build(&catalog, &fragments).expect("builds"))
    });

    c.bench_function("index/full-build", |b| {
        b.iter(|| {
            FragmentIndex::build(&fragments, app.query.range_selection_index()).expect("builds")
        })
    });

    let mut group = c.benchmark_group("index/naive-baseline");
    group.sample_size(10);
    group.bench_function("all-pages", |b| {
        b.iter(|| NaiveEngine::from_fragments(app.clone(), &fragments, 100_000).expect("builds"))
    });
    group.finish();

    c.bench_function("index/idf-lookup", |b| {
        let index = InvertedFragmentIndex::build(&catalog, &fragments).expect("builds");
        let keywords: Vec<String> = index
            .keywords_by_df()
            .iter()
            .take(64)
            .map(|(w, _)| w.to_string())
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let w = &keywords[i % keywords.len()];
            i += 1;
            index.idf(w)
        })
    });

    c.bench_function("index/occurrence-probe", |b| {
        let index = InvertedFragmentIndex::build(&catalog, &fragments).expect("builds");
        let hot = index.keywords_by_df()[0].0.to_string();
        let kw = index.kw(&hot).expect("hot keyword interned");
        let frags: Vec<_> = fragments
            .iter()
            .map(|f| catalog.frag(&f.id).expect("interned"))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let frag = frags[i % frags.len()];
            i += 1;
            index.occurrences(kw, frag)
        })
    });
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
