//! Concurrency stress: many threads issuing mixed `search` /
//! `search_many` traffic against one shared `ShardedEngine`. The engine
//! must stay consistent under contention on its `parking_lot` scratch
//! pool — every thread must observe exactly the seed reference's
//! results (`tests/common/oracle.rs`) on every call, with no panics.

use std::sync::Arc;
use std::thread;

use dash::core::crawl::reference;
use dash::core::{IngestSource, SearchRequest, ShardedEngine};
use dash_tpch::{generate, Scale, TpchConfig};

mod common {
    pub mod fooddb;
    pub mod oracle;
    pub mod ranking;
    pub mod twins;
}
use common::fooddb::{app, crawled_fragments};
use common::oracle::Oracle;
use common::ranking::keywords_by_df;
use common::twins::twins;

fn q2_engine_pair(shards: usize) -> (Oracle, ShardedEngine, Vec<String>) {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 60;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    let oracle = Oracle::new(&app, &fragments);
    let sharded = ShardedEngine::builder(app)
        .shards(shards)
        .source(IngestSource::Fragments(&fragments))
        .build()
        .unwrap();
    let keywords: Vec<String> = keywords_by_df(&fragments)
        .into_iter()
        .step_by(7)
        .take(8)
        .map(|(w, _)| w)
        .collect();
    (oracle, sharded, keywords)
}

#[test]
fn mixed_concurrent_traffic_stays_consistent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;

    let (oracle, sharded, keywords) = q2_engine_pair(4);
    let mut requests: Vec<SearchRequest> = keywords
        .iter()
        .enumerate()
        .map(|(i, w)| {
            SearchRequest::new(&[w.as_str()])
                .k(1 + i % 7)
                .min_size([1u64, 50, 500][i % 3])
        })
        .collect();
    requests.push(SearchRequest::new(&["zzzmissing"]).k(3).min_size(1));
    // Ground truth computed once, single-threaded, and checked against
    // the reference before the threads start.
    let expected = sharded.search_many(&requests);
    oracle.assert_answers(&requests, &expected, "single-threaded");
    let expected_batch = expected.clone();

    let sharded = Arc::new(sharded);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let sharded = Arc::clone(&sharded);
            let requests = requests.clone();
            let expected = expected.clone();
            let expected_batch = expected_batch.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    if (t + round) % 2 == 0 {
                        // Single-request traffic, rotating through the mix.
                        let i = (t * 31 + round * 7) % requests.len();
                        let hits = sharded.search(&requests[i]);
                        assert_eq!(
                            hits, expected[i],
                            "thread {t} round {round} request {i} diverged"
                        );
                    } else {
                        // Batched traffic over the whole mix.
                        let batch = sharded.search_many(&requests);
                        assert_eq!(batch.len(), requests.len());
                        for (i, hits) in batch.iter().enumerate() {
                            assert_eq!(
                                hits, &expected_batch[i],
                                "thread {t} round {round} batched request {i} diverged"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stress thread panicked");
    }
}

#[test]
fn concurrent_searches_share_scratch_pools() {
    // Hammer two request shapes from many threads — one that expands,
    // one whose order a score tie across groups decides: the per-shard
    // pools hand scratches back and forth; results must never vary.
    let mut fragments = crawled_fragments();
    fragments.extend(twins());
    let sharded = Arc::new(
        ShardedEngine::builder(app())
            .shards(2)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap(),
    );
    let requests = [
        SearchRequest::new(&["burger"]).k(2).min_size(20),
        SearchRequest::new(&["twin"]).k(2).min_size(1),
    ];
    let oracle = Oracle::new(&app(), &fragments);
    let expected: Vec<_> = requests.iter().map(|r| oracle.search(r)).collect();

    let handles: Vec<_> = (0..12)
        .map(|_| {
            let sharded = Arc::clone(&sharded);
            let requests = requests.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                for _ in 0..50 {
                    for (request, expected) in requests.iter().zip(&expected) {
                        assert_eq!(&sharded.search(request), expected);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
}
