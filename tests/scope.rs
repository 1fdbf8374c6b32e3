//! Selective-crawling integration tests: the tradeoff between fragment
//! coverage and crawl/index cost (Section VIII, third future-work item).

use dash::core::crawl::{self, reference, CrawlAlgorithm};
use dash::core::scope::CrawlScope;
use dash::core::{DashConfig, SearchRequest};
use dash::mapreduce::ClusterConfig;
use dash::relation::Value;
use dash::tpch::{generate, Scale, TpchConfig};
use dash::webapp::fooddb;

mod common {
    pub mod crawl;
}
use common::crawl::crawl_engine;

#[test]
fn scoped_engine_answers_in_scope_only() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    // Only American pages with budgets 9..=12.
    let scope = CrawlScope::all()
        .restrict_values(0, vec![Value::str("American")])
        .restrict_range(1, Some(Value::Int(9)), Some(Value::Int(12)));
    let config = DashConfig {
        scope,
        ..DashConfig::default()
    };
    let engine = crawl_engine(&app, &db, &config);
    // (American,9), (American,10), (American,12) survive; (American,18)
    // and (Thai,10) do not.
    assert_eq!(engine.fragment_count(), 3);
    assert!(!engine
        .search(&SearchRequest::new(&["burger"]).k(5).min_size(1))
        .is_empty());
    // Thai burger and McRonald's comment are out of scope.
    assert!(engine
        .search(&SearchRequest::new(&["thai"]).k(5).min_size(1))
        .is_empty());
    assert!(engine
        .search(&SearchRequest::new(&["regret"]).k(5).min_size(1))
        .is_empty());
}

#[test]
fn scoped_crawls_agree_across_algorithms() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let scope = CrawlScope::all().restrict_range(1, Some(Value::Int(10)), Some(Value::Int(12)));
    let cluster = ClusterConfig::default();
    let expected = reference::fragments_scoped(&app, &db, &scope).unwrap();
    assert_eq!(expected.len(), 3); // (Am,10), (Am,12), (Thai,10)
    let sw = crawl::run_scoped(&app, &db, &cluster, CrawlAlgorithm::Stepwise, &scope).unwrap();
    let int = crawl::run_scoped(&app, &db, &cluster, CrawlAlgorithm::Integrated, &scope).unwrap();
    assert_eq!(sw.fragments, expected);
    assert_eq!(int.fragments, expected);
}

/// The tradeoff itself: narrowing the scope shrinks both the fragment
/// count and the crawl's data volume (the paper's "crawling and index
/// efficiency").
#[test]
fn narrower_scope_costs_less() {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash::tpch::q2_application(&db).unwrap();
    let cluster = ClusterConfig::default();

    let full = crawl::run(&app, &db, &cluster, CrawlAlgorithm::Integrated).unwrap();
    // Quantity 1..=10 only — a fifth of the range domain.
    let scope = CrawlScope::all().restrict_range(1, Some(Value::Int(1)), Some(Value::Int(10)));
    let scoped =
        crawl::run_scoped(&app, &db, &cluster, CrawlAlgorithm::Integrated, &scope).unwrap();

    assert!(scoped.fragments.len() < full.fragments.len() / 2);
    assert!(scoped.stats.sim_total_secs() < full.stats.sim_total_secs());
    // Scoped fragments are exactly the in-scope subset of the full set.
    let filtered: Vec<_> = full
        .fragments
        .iter()
        .filter(|f| scope.admits(&f.id))
        .cloned()
        .collect();
    assert_eq!(scoped.fragments, filtered);
}

#[test]
fn unrestricted_scope_equals_plain_crawl() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let cluster = ClusterConfig::default();
    let plain = crawl::run(&app, &db, &cluster, CrawlAlgorithm::Integrated).unwrap();
    let scoped = crawl::run_scoped(
        &app,
        &db,
        &cluster,
        CrawlAlgorithm::Integrated,
        &CrawlScope::all(),
    )
    .unwrap();
    assert_eq!(plain.fragments, scoped.fragments);
}
