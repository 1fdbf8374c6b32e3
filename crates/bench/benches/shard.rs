//! Criterion micro-benchmarks for the engine: top-k latency, batched
//! throughput and incremental-maintenance cost as a function of the
//! shard count, with one shard (`s1`) as the baseline, on the TPC-H Q2
//! micro workload and the paper's running example. A sharded search is
//! one heap loop over the whole partition, so the `shards` axis
//! measures what partitioning costs a read: it must stay within noise
//! of one shard (CI gates `tpch-q2/s4/search-hot` under GATE× `s1`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dash_bench::{select_keywords, KeywordTemperature};
use dash_core::crawl::reference;
use dash_core::{Fragment, IngestSource, RecordChange, SearchRequest, ShardedEngine};
use dash_relation::{Record, Value};
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::{fooddb, WebApplication};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sharded(app: &WebApplication, fragments: &[Fragment], shards: usize) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .shards(shards)
        .source(IngestSource::Fragments(fragments))
        .build()
        .expect("sharded builds")
}

fn bench_shard(c: &mut Criterion) {
    // TPC-H Q2 at micro scale, the Figure 11 workload.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let engines: Vec<ShardedEngine> = SHARD_COUNTS
        .iter()
        .map(|&shards| sharded(&app, &fragments, shards))
        .collect();
    // The one-shard engine's index ranks the corpus's keywords.
    let index = engines[0].shard_indexes().next().expect("one shard");
    let ranked = index.inverted.keywords_by_df();

    // A mixed 16-request batch across keyword temperatures, the
    // `search_many` workload.
    let mut batch: Vec<SearchRequest> = Vec::new();
    for temperature in KeywordTemperature::all() {
        for (i, word) in select_keywords(&ranked, temperature, 6, 7)
            .iter()
            .enumerate()
        {
            batch.push(
                SearchRequest::new(&[word.as_str()])
                    .k(10)
                    .min_size([100u64, 1000][i % 2]),
            );
        }
    }
    batch.truncate(16);
    let hot = select_keywords(&ranked, KeywordTemperature::Hot, 1, 7)
        .pop()
        .expect("a hot keyword");
    let hot_request = SearchRequest::new(&[hot.as_str()]).k(10).min_size(1000);

    let mut group = c.benchmark_group("shard/tpch-q2");
    for (shards, engine) in SHARD_COUNTS.into_iter().zip(&engines) {
        group.bench_function(format!("s{shards}/search-hot"), |b| {
            b.iter(|| engine.search(&hot_request))
        });
        group.bench_function(format!("s{shards}/batch16"), |b| {
            b.iter(|| engine.search_many(&batch))
        });
    }
    group.finish();

    // The paper's running example: tiny index, merge overhead dominates.
    let db = fooddb::database();
    let app = fooddb::search_application().expect("analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
    let mut group = c.benchmark_group("shard/fooddb");
    for shards in [1usize, 2] {
        let engine = sharded(&app, &fragments, shards);
        group.bench_function(format!("s{shards}/burger-k2-s20"), |b| {
            b.iter(|| engine.search(&request))
        });
    }
    group.finish();

    // The maintenance axis: one record insert + delete cycle through
    // the unified delta write path at 1, 2 and 4 shards — shard-local
    // application means the sharded engines pay per-shard work plus an
    // O(shards) offset refresh, never a rebuild (`s4/full-rebuild`
    // prices what PR 2's build-once engine had to do instead).
    let db = fooddb::database();
    let app = fooddb::search_application().expect("analyzes");
    let record = Record::new(vec![
        Value::Int(990),
        Value::str("Churn Diner"),
        Value::str("Mexican"),
        Value::Int(11),
        Value::str("4.1"),
    ]);
    let mut db_with = db.clone();
    db_with
        .table_mut("restaurant")
        .expect("restaurant table")
        .insert(record.clone())
        .expect("insert");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let change = [RecordChange::new("restaurant", record)];

    let mut group = c.benchmark_group("shard/maintenance");
    for shards in [1usize, 2, 4] {
        let mut engine = sharded(&app, &fragments, shards);
        group.bench_function(format!("s{shards}/insert-delete"), |b| {
            b.iter(|| {
                engine.apply_changes(&db_with, &change).unwrap();
                engine.apply_changes(&db, &change).unwrap();
            })
        });
    }
    // What an update cost before shard-local maintenance existed.
    group.bench_function("s4/full-rebuild", |b| {
        b.iter(|| sharded(&app, &fragments, 4))
    });
    group.finish();

    // The bulk write path: an 8-record batch applied as ONE bulk delta
    // (shadow joins batched per relation + one scoped re-crawl) versus
    // the same batch applied as eight one-change batches (a shadow join
    // AND a full-corpus recompute join per record). The gap is the
    // ROADMAP's "batch the shadow joins" win, and it widens linearly
    // with batch size.
    let batch_records: Vec<Record> = (0..8)
        .map(|i| {
            Record::new(vec![
                Value::Int(900 + i),
                Value::str("Bulk Cantina"),
                Value::str(["Mexican", "Korean"][i as usize % 2]),
                Value::Int(6 + i),
                Value::str("4.0"),
            ])
        })
        .collect();
    let mut db_bulk = db.clone();
    for record in &batch_records {
        db_bulk
            .table_mut("restaurant")
            .expect("restaurant table")
            .insert(record.clone())
            .expect("insert");
    }
    let changes: Vec<RecordChange> = batch_records
        .iter()
        .map(|r| RecordChange::new("restaurant", r.clone()))
        .collect();
    let base = sharded(&app, &fragments, 4);
    let mut group = c.benchmark_group("shard/maintenance-bulk");
    group.bench_function("s4/bulk-8-inserts", |b| {
        b.iter_batched(
            || base.fork(),
            |mut engine| engine.apply_changes(&db_bulk, &changes).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("s4/per-record-8-inserts", |b| {
        b.iter_batched(
            || base.fork(),
            |mut engine| {
                for change in &changes {
                    engine
                        .apply_changes(&db_bulk, std::slice::from_ref(change))
                        .unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
