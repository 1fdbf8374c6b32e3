//! The sharded-equivalence test tier: `ShardedEngine` must return
//! **byte-identical** `SearchHit` lists to the seed's Algorithm 1
//! (`tests/common/oracle.rs`) over the same fragments, for every shard
//! count — the correctness contract the whole shard layer rests on
//! (exact tie-breaking, score-equal hits and per-shard lazy seeding
//! are all places a sharded ranker can silently diverge).
//!
//! Three layers of evidence:
//!
//! * golden datasets — the paper's running example (fooddb), the
//!   TPC-H Q2 micro workload and two whole-corpus tie plateaus, shard
//!   counts 1–8, hot/cold keywords;
//! * property tests — random fragment sets, random keyword mixes,
//!   random `k`/`s`, shard counts {1, 2, 3, 8};
//! * environment axis — when `DASH_SHARDS` is set (the CI matrix runs
//!   the suite under `DASH_SHARDS=1` and `DASH_SHARDS=4`), that count
//!   joins every comparison.

use proptest::prelude::*;

use dash::core::crawl::reference;
use dash::core::{env_shards, DashConfig, Fragment, IngestSource, SearchRequest, ShardedEngine};
use dash::webapp::{fooddb, WebApplication};
use dash_tpch::{generate, Scale, TpchConfig};

mod common {
    pub mod gen;
    pub mod oracle;
    pub mod ranking;
}
use common::gen::{fragment_strategy, materialize, VOCAB};
use common::oracle::Oracle;
use common::ranking::keywords_by_df;

/// The shard counts every comparison runs: 1–8 plus the environment's
/// `DASH_SHARDS`, if any.
fn shard_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = (1..=8).collect();
    if let Some(n) = env_shards() {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn assert_equivalent(
    app: &WebApplication,
    fragments: &[Fragment],
    requests: &[SearchRequest],
    context: &str,
) {
    let oracle = Oracle::new(app, fragments);
    let mut expected = Vec::new();
    for shards in shard_counts() {
        let sharded = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(fragments))
            .build()
            .expect("sharded engine builds");
        let served: Vec<_> = requests.iter().map(|r| sharded.search(r)).collect();
        // The reference checks the first shard count; every other
        // count must answer what it answered.
        if expected.is_empty() {
            oracle.assert_answers(requests, &served, &format!("{context}: shards={shards}"));
            expected = served.clone();
        }
        assert_eq!(served, expected, "{context}: shards={shards}");
        // The batched path must agree too, request for request.
        assert_eq!(
            sharded.search_many(requests),
            served,
            "{context} (batched): shards={shards}"
        );
    }
}

#[test]
fn golden_fooddb_all_shard_counts() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();
    let requests = vec![
        SearchRequest::new(&["burger"]).k(2).min_size(20),
        SearchRequest::new(&["burger"]).k(3).min_size(1),
        SearchRequest::new(&["burger"]).k(1).min_size(10_000),
        SearchRequest::new(&["burger", "fries"]).k(2).min_size(1),
        SearchRequest::new(&["american"]).k(10).min_size(1),
        SearchRequest::new(&["thai", "burger"]).k(5).min_size(5),
        SearchRequest::new(&["zzzqqq"]).k(5).min_size(1),
    ];
    assert_equivalent(&app, &fragments, &requests, "fooddb");
}

#[test]
fn golden_tpch_q2_all_shard_counts() {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 60;
    config.base_parts = 80;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");

    // Keyword temperatures straight from the data: hottest, middling,
    // rarest — plus a multi-keyword mix and a miss.
    let ranked = keywords_by_df(&fragments);
    assert!(ranked.len() >= 3, "Q2 corpus has keywords");
    let hot = ranked[0].0.clone();
    let warm = ranked[ranked.len() / 2].0.clone();
    let cold = ranked[ranked.len() - 1].0.clone();
    let requests = vec![
        SearchRequest::new(&[&hot]).k(10).min_size(100),
        SearchRequest::new(&[&hot]).k(10).min_size(1000),
        SearchRequest::new(&[&warm]).k(5).min_size(100),
        SearchRequest::new(&[&cold]).k(3).min_size(1),
        SearchRequest::new(&[&hot, &warm]).k(10).min_size(200),
        SearchRequest::new(&[&hot, &cold, &warm]).k(7).min_size(50),
        SearchRequest::new(&["nosuchkeyword"]).k(4).min_size(10),
    ];
    assert_equivalent(&app, &fragments, &requests, "tpch-q2");
}

#[test]
fn golden_tie_plateaus_across_shard_boundaries() {
    // The plateau bench's two corpus shapes at 16 groups × 16
    // fragments: `flat` ties every seed score bit for bit, `half` ties
    // the first half of the corpus. At every shard count 2–8 the
    // plateau spans shard boundaries, so the cross-shard tie-break on
    // global group ranks decides every emission.
    let app = fooddb::search_application().unwrap();
    let mut requests: Vec<SearchRequest> = [1, 10, 40]
        .into_iter()
        .flat_map(|k| {
            [1, 50]
                .into_iter()
                .map(move |s| SearchRequest::new(&["plateau"]).k(k).min_size(s))
        })
        .collect();
    requests.push(SearchRequest::new(&["zzzmissing"]).k(1).min_size(1));
    for (label, tied) in [("flat", usize::MAX), ("half", 128)] {
        let fragments = dash_bench::plateau_corpus(16, 16, tied);
        assert_equivalent(&app, &fragments, &requests, label);
    }
}

#[test]
fn sharded_engine_crawl_build_matches_single() {
    // End-to-end parity: the engine crawls the database itself.
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();
    let sharded = ShardedEngine::builder(app.clone())
        .shards(3)
        .source(IngestSource::Crawl {
            db: &db,
            config: &DashConfig::default(),
        })
        .build()
        .unwrap();
    assert_eq!(sharded.fragment_count(), fragments.len());
    assert!(sharded.crawl_stats().sim_total_secs() > 0.0);
    let req = SearchRequest::new(&["burger"]).k(2).min_size(20);
    assert_eq!(
        sharded.search(&req),
        Oracle::new(&app, &fragments).search(&req)
    );
}

// ---------------------------------------------------------------------
// Property tests: random datasets, keywords and shard counts.
// ---------------------------------------------------------------------

/// Query-only words: no row holds them, covering the unknown-keyword
/// path. A query draws `VOCAB` and these by one index.
const UNKNOWN: [&str; 2] = ["ghost", "phantom"];

fn query_word(w: usize) -> &'static str {
    VOCAB
        .get(w)
        .copied()
        .unwrap_or_else(|| UNKNOWN[w - VOCAB.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core contract: for random datasets, random keyword queries
    /// and shard counts {1, 2, 3, 8} (plus `DASH_SHARDS`), the sharded
    /// hit lists are byte-identical to the reference's.
    #[test]
    fn sharded_matches_single_on_random_data(
        rows in prop::collection::vec(fragment_strategy(0..15, 0..4), 1..45),
        query in prop::collection::vec(0usize..VOCAB.len() + UNKNOWN.len(), 1..4),
        k in 1usize..12,
        s in prop::sample::select(vec![1u64, 3, 10, 50]),
        shards in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let app = fooddb::search_application().unwrap();
        let fragments = materialize(&rows);
        let keywords: Vec<&str> = query.iter().map(|&w| query_word(w)).collect();
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let expected = Oracle::new(&app, &fragments).search(&request);
        let mut counts = vec![shards];
        if let Some(n) = env_shards() {
            counts.push(n);
        }
        for shards in counts {
            let sharded =
                ShardedEngine::builder(app.clone()).shards(shards).source(IngestSource::Fragments(&fragments)).build()
                    .unwrap();
            prop_assert_eq!(
                sharded.search(&request),
                expected.clone(),
                "shards={} fragments={} keywords={:?} k={} s={}",
                shards,
                fragments.len(),
                keywords,
                k,
                s
            );
        }
    }

    /// Batched search over random request mixes agrees with sequential
    /// single-request search and with the reference.
    #[test]
    fn search_many_matches_search_on_random_batches(
        rows in prop::collection::vec(fragment_strategy(0..15, 0..4), 5..40),
        queries in prop::collection::vec(
            (prop::collection::vec(0usize..VOCAB.len() + UNKNOWN.len(), 1..3), 1usize..8),
            1..5
        ),
        shards in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let app = fooddb::search_application().unwrap();
        let fragments = materialize(&rows);
        let requests: Vec<SearchRequest> = queries
            .iter()
            .map(|(words, k)| {
                let keywords: Vec<&str> = words.iter().map(|&w| query_word(w)).collect();
                SearchRequest::new(&keywords).k(*k).min_size(10)
            })
            .collect();
        let oracle = Oracle::new(&app, &fragments);
        let sharded =
            ShardedEngine::builder(app).shards(shards).source(IngestSource::Fragments(&fragments)).build().unwrap();
        let batch = sharded.search_many(&requests);
        prop_assert_eq!(batch.len(), requests.len());
        for (request, hits) in requests.iter().zip(&batch) {
            prop_assert_eq!(hits, &sharded.search(request));
            prop_assert_eq!(hits, &oracle.search(request));
        }
    }
}
