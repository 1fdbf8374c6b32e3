//! End-to-end integration: servlet source → analysis → crawl → index →
//! top-k search → URL → re-executed db-page, across crates.

use dash::core::{CrawlAlgorithm, DashConfig, SearchRequest};
use dash::relation::Value;
use dash::tpch::{generate, Scale, TpchConfig};
use dash::webapp::{fooddb, QueryString};

mod common {
    pub mod crawl;
}
use common::crawl::crawl_engine;

/// Example 1 + Example 7 as one pipeline: the URLs Dash suggests
/// regenerate pages that really contain the queried keyword.
#[test]
fn suggested_urls_materialize_relevant_pages() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());

    for keyword in ["burger", "fries", "coffee", "thai", "experts"] {
        let hits = engine.search(&SearchRequest::new(&[keyword]).k(3).min_size(10));
        assert!(!hits.is_empty(), "no hits for {keyword}");
        for hit in hits {
            let qs = QueryString::parse(&hit.query_string).unwrap();
            let page = app.execute(&db, &qs).unwrap();
            assert!(
                page.keywords().iter().any(|w| w == keyword),
                "page {} does not contain {keyword}",
                hit.url
            );
            assert!(!page.is_empty(), "Dash never suggests valueless pages");
        }
    }
}

/// The assembled page size equals the real page's keyword count: the
/// fragment statistics are faithful to what the application generates.
#[test]
fn assembled_sizes_match_real_pages() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());
    for hit in engine.search(&SearchRequest::new(&["burger"]).k(5).min_size(20)) {
        let qs = QueryString::parse(&hit.query_string).unwrap();
        let page = app.execute(&db, &qs).unwrap();
        assert_eq!(
            page.keywords().len() as u64,
            hit.size,
            "size mismatch at {}",
            hit.url
        );
    }
}

/// The full pipeline on TPC-H Q1 with both crawl algorithms.
#[test]
fn tpch_q1_pipeline_both_algorithms() {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash::tpch::q1_application(&db).unwrap();

    for algorithm in [CrawlAlgorithm::Stepwise, CrawlAlgorithm::Integrated] {
        let config = DashConfig {
            algorithm,
            ..DashConfig::default()
        };
        let engine = crawl_engine(&app, &db, &config);
        assert!(engine.fragment_count() > 50);
        // Region names are hot keywords: every customer row carries one.
        let hits = engine.search(&SearchRequest::new(&["asia"]).k(5).min_size(100));
        assert!(!hits.is_empty());
        for hit in &hits {
            let qs = QueryString::parse(&hit.query_string).unwrap();
            let page = app.execute(&db, &qs).unwrap();
            assert!(page.keywords().iter().any(|w| w == "asia"));
        }
    }
}

/// Db-pages from different equality groups never merge (Figure 9: the
/// Thai node is disconnected from the American chain).
#[test]
fn pages_never_cross_equality_groups() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());
    let hits = engine.search(&SearchRequest::new(&["burger"]).k(10).min_size(10_000));
    for hit in hits {
        let cuisines: std::collections::HashSet<&Value> =
            hit.fragment_ids.iter().map(|id| &id.values()[0]).collect();
        assert_eq!(cuisines.len(), 1, "page {} mixes cuisines", hit.url);
    }
}

/// Keywords that exist in the database but in no fragment of this
/// application (e.g. a customer name of a customer who never commented)
/// return no results rather than fabricated URLs.
#[test]
fn unreachable_keywords_return_nothing() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());
    // "Ben" (uid 120) never wrote a comment, so he appears in no db-page.
    assert!(engine
        .search(&SearchRequest::new(&["ben"]).k(5).min_size(1))
        .is_empty());
}
