//! Golden-equivalence tests for the handle-native search path.
//!
//! The columnar index (interned `Frag` handles, arena posting lists,
//! group-id candidates) must return **byte-identical** `SearchHit` lists
//! to the seed implementation, which keyed everything on
//! `FragmentId = Vec<Value>`. The seed's Algorithm 1 is the shared
//! reference in `tests/common/oracle.rs`, built straight from raw
//! fragments with the original `HashMap`/`BTreeMap` structures — any
//! behavioral drift in the optimized path shows up as a diff against it.
//! This file also pins the reference itself: to the paper's Example 7,
//! and over random requests at every shard count.

use std::sync::OnceLock;

use dash::core::crawl::reference;
use dash::core::{
    DashConfig, Fragment, FragmentId, IngestSource, SearchHit, SearchRequest, ShardedEngine,
};
use dash::relation::{Database, Value};
use dash::webapp::{fooddb, WebApplication};
use dash_tpch::{generate, Scale, TpchConfig};
use proptest::prelude::*;

mod common {
    pub mod oracle;
    pub mod ranking;
}
use common::oracle::Oracle;
use common::ranking::keywords_by_df;

/// An engine that crawls `db` itself, at one shard.
fn crawl_engine(app: &WebApplication, db: &Database) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .source(IngestSource::Crawl {
            db,
            config: &DashConfig::default(),
        })
        .build()
        .unwrap()
}

fn assert_golden(app: &WebApplication, db: &Database, keywords: &[String]) {
    let oracle = Oracle::new(app, &reference::fragments(app, db).unwrap());
    let engine = crawl_engine(app, db);
    let mut requests = Vec::new();
    for word in keywords {
        for s in [1u64, 10, 100, 1000] {
            for k in [1usize, 2, 5, 10] {
                requests.push(SearchRequest::new(&[word.as_str()]).k(k).min_size(s));
            }
        }
    }
    // Multi-keyword requests exercise the occurrence pool rows.
    if keywords.len() >= 2 {
        let pair = [keywords[0].as_str(), keywords[1].as_str()];
        for s in [1u64, 100] {
            requests.push(SearchRequest::new(&pair).k(10).min_size(s));
        }
    }
    let served: Vec<_> = requests.iter().map(|r| engine.search(r)).collect();
    oracle.assert_answers(&requests, &served, "golden");
}

/// Keyword picks per temperature class: hottest, middle and coldest of
/// the df ranking, plus an unknown keyword.
fn temperature_keywords(app: &WebApplication, db: &Database) -> Vec<String> {
    let ranked = keywords_by_df(&reference::fragments(app, db).unwrap());
    let n = ranked.len();
    let mut picks: Vec<String> = Vec::new();
    for idx in [0, 1, n / 2, n / 2 + 1, n - 2, n - 1] {
        if idx < n {
            picks.push(ranked[idx].0.clone());
        }
    }
    picks.push("zzz-unknown-keyword".to_string());
    picks.dedup();
    picks
}

#[test]
fn fooddb_matches_seed_search_exactly() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let keywords: Vec<String> = [
        "burger",
        "fries",
        "coffee",
        "thai",
        "american",
        "nice",
        "zzz-unknown-keyword",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_golden(&app, &db, &keywords);
}

#[test]
fn fooddb_example_7_exact_hits() {
    // The paper's Example 7, pinned: the engine and the reference must
    // both produce these two URLs for burger, k=2, s=20.
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
    let oracle = Oracle::new(&app, &reference::fragments(&app, &db).unwrap());
    for hits in [
        crawl_engine(&app, &db).search(&request),
        oracle.search(&request),
    ] {
        let urls: Vec<&str> = hits.iter().map(|h| h.url.as_str()).collect();
        assert!(urls.contains(&"www.example.com/Search?c=American&l=10&u=12"));
        assert!(urls.contains(&"www.example.com/Search?c=Thai&l=10&u=10"));
    }
}

#[test]
fn a_tie_at_the_seeding_frontier_pops_the_narrower_page_first() {
    // Three fragments, each holding `sweet` at TF 1/2: two neighbours in
    // the American group and one alone in the Thai group. At s=3 the
    // first American fragment expands into a two-fragment page of the
    // same score. Algorithm 1 holds every relevant fragment in Q from
    // the start, so the Thai singleton, narrower, pops before that page.
    // A reference that seeds lazily and stops at a score tie with the
    // frontier (as the seed did) has not seeded the Thai fragment yet
    // and emits the American page first.
    let app = fooddb::search_application().unwrap();
    let fragment = |cuisine: &str, budget: i64| {
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]),
            [("sweet".to_string(), 1), ("filler".to_string(), 1)]
                .into_iter()
                .collect(),
            1,
        )
    };
    let fragments = [
        fragment("American", 10),
        fragment("American", 11),
        fragment("Thai", 11),
    ];
    let request = SearchRequest::new(&["sweet"]).k(2).min_size(3);
    let expected = [
        "www.example.com/Search?c=Thai&l=11&u=11",
        "www.example.com/Search?c=American&l=10&u=11",
    ];
    let oracle = Oracle::new(&app, &fragments);
    let urls = |hits: Vec<SearchHit>| hits.into_iter().map(|h| h.url).collect::<Vec<_>>();
    assert_eq!(urls(oracle.search(&request)), expected);
    for shards in SHARD_COUNTS {
        let engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        assert_eq!(urls(engine.search(&request)), expected, "shards={shards}");
    }
}

fn small_tpch() -> Database {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 60;
    config.base_parts = 80;
    generate(&config)
}

#[test]
fn tpch_q2_matches_seed_search_across_temperatures() {
    let db = small_tpch();
    let app = dash_tpch::q2_application(&db).unwrap();
    let keywords = temperature_keywords(&app, &db);
    assert_golden(&app, &db, &keywords);
}

#[test]
fn catalog_roundtrips_every_fragment() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();
    let engine = crawl_engine(&app, &db);
    let catalog = &engine.shard_indexes().next().unwrap().catalog;
    assert_eq!(catalog.len(), fragments.len());
    for f in &fragments {
        let frag = catalog.frag(&f.id).expect("interned");
        assert_eq!(catalog.id(frag), f.id, "id → handle → id roundtrip");
        assert_eq!(catalog.total_keywords(frag), f.total_keywords);
        assert_eq!(catalog.record_count(frag), f.record_count);
    }
}

/// One corpus of the random-request tier: the application, the
/// reference, sharded engines at 1, 2 and 4 shards, and the keyword
/// pool requests draw from.
struct Corpus {
    oracle: Oracle,
    sharded: Vec<ShardedEngine>,
    pool: Vec<String>,
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn corpus(app: WebApplication, db: &Database) -> Corpus {
    let fragments = reference::fragments(&app, db).unwrap();
    // Hot, middle and cold keywords: a cold one (df 1) lives in one
    // shard and is absent from every other, and an unknown one from all.
    let ranked = keywords_by_df(&fragments);
    let n = ranked.len();
    let mut pool: Vec<String> = [0, 1, 2, n / 3, n / 2, n / 2 + 1, n - 2, n - 1]
        .iter()
        .map(|&at| ranked[at.min(n - 1)].0.clone())
        .collect();
    assert_eq!(
        ranked[n - 1].1,
        1,
        "the coldest keyword sits in one fragment"
    );
    pool.push("zzz-unknown-keyword".to_string());
    Corpus {
        oracle: Oracle::new(&app, &fragments),
        sharded: SHARD_COUNTS
            .iter()
            .map(|&shards| {
                ShardedEngine::builder(app.clone())
                    .shards(shards)
                    .source(IngestSource::Fragments(&fragments))
                    .build()
                    .unwrap()
            })
            .collect(),
        pool,
    }
}

fn corpora() -> &'static [Corpus; 2] {
    static CORPORA: OnceLock<[Corpus; 2]> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let tpch = small_tpch();
        [
            corpus(fooddb::search_application().unwrap(), &fooddb::database()),
            corpus(dash_tpch::q2_application(&tpch).unwrap(), &tpch),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random 1–4-keyword requests — repeats, shard-local and unknown
    /// keywords included — at every `k`, `s` and shard count: the
    /// sharded engines return the seed reference's hits byte for byte.
    #[test]
    fn random_requests_match_seed_search_at_every_shard_count(
        which in 0usize..2,
        picks in prop::collection::vec(0usize..9, 1..5),
        repeat in any::<bool>(),
        k in prop::sample::select(vec![1usize, 10, 40]),
        s in prop::sample::select(vec![1u64, 20, 100]),
        shards in 0usize..SHARD_COUNTS.len(),
    ) {
        let corpus = &corpora()[which];
        let mut keywords: Vec<&str> = picks.iter().map(|&at| corpus.pool[at].as_str()).collect();
        if repeat && keywords.len() < 4 {
            keywords.push(keywords[0]);
        }
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let case = format!("corpus={which} {keywords:?} k={k} s={s} shards={}", SHARD_COUNTS[shards]);
        prop_assert_eq!(
            corpus.sharded[shards].search(&request),
            corpus.oracle.search(&request),
            "{}",
            case
        );
    }
}
