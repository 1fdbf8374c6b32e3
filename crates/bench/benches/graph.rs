//! Criterion micro-benchmarks for fragment-graph construction (the
//! Table IV measurement) — bulk build vs the paper's incremental
//! insertion, plus the O(1) handle-native locate on the top-k hot path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dash_core::crawl::reference;
use dash_core::{Frag, Fragment, FragmentCatalog, FragmentGraph};
use dash_tpch::{generate, Scale, TpchConfig};

fn q2_fragments() -> (Vec<Fragment>, Option<usize>) {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    (fragments, app.query.range_selection_index())
}

fn bench_graph(c: &mut Criterion) {
    let (fragments, range_pos) = q2_fragments();
    let catalog = FragmentCatalog::from_fragments(&fragments, range_pos).expect("interns");
    let frags: Vec<Frag> = fragments
        .iter()
        .map(|f| catalog.frag(&f.id).expect("interned"))
        .collect();

    c.bench_function("graph/bulk-build", |b| {
        b.iter(|| FragmentGraph::build(&catalog, &[]))
    });

    c.bench_function("graph/catalog-intern", |b| {
        b.iter(|| FragmentCatalog::from_fragments(&fragments, range_pos).expect("interns"))
    });

    c.bench_function("graph/incremental-insert", |b| {
        b.iter_batched(
            || FragmentGraph::new(range_pos),
            |mut graph| {
                for &frag in &frags {
                    graph.insert(&catalog, frag);
                }
                graph
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("graph/locate+neighbors", |b| {
        let graph = FragmentGraph::build(&catalog, &[]);
        let mut i = 0usize;
        b.iter(|| {
            let frag = frags[i % frags.len()];
            i += 1;
            let node = graph.locate(frag).expect("present");
            graph.neighbors(node)
        })
    });
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
