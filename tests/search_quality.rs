//! Search-quality comparison: Dash's fragment-based search vs the naive
//! all-pages baseline — the redundancy argument of Section I/IV,
//! quantified on the running example and TPC-H.

use dash::core::baseline::NaiveEngine;
use dash::core::{DashConfig, SearchRequest};
use dash::tpch::{generate, Scale, TpchConfig};
use dash::webapp::fooddb;

mod common {
    pub mod crawl;
}
use common::crawl::crawl_engine;

/// Example 1's complaint, reproduced: for "burger" the naive engine
/// returns P1-style and P2-style pages together even though the larger
/// page adds no new "burger" content; Dash returns disjoint pages only.
#[test]
fn naive_returns_redundant_pages_dash_does_not() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let dash = crawl_engine(&app, &db, &DashConfig::default());
    let naive = NaiveEngine::build(&app, &db, 100_000).unwrap();

    let request = SearchRequest::new(&["burger"]).k(10).min_size(1);
    let naive_hits = naive.search(&request);
    let dash_hits = dash.search(&request);

    // The naive engine floods the result list with overlapping American
    // pages (every interval covering budget 10 or 12 qualifies).
    let naive_american = naive_hits
        .iter()
        .filter(|h| h.url.contains("c=American"))
        .count();
    assert!(
        naive_american > 3,
        "expected redundant overlapping pages, got {naive_american}"
    );

    // Dash returns at most one page per disjoint fragment region: the
    // American hits never share a fragment.
    let mut seen = std::collections::HashSet::new();
    for h in &dash_hits {
        for id in &h.fragment_ids {
            assert!(seen.insert(id.clone()));
        }
    }
}

/// Both engines agree on *what* is relevant (same top page content for a
/// specific keyword) even though the naive one is unusable at scale.
#[test]
fn engines_agree_on_top_content() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let dash = crawl_engine(&app, &db, &DashConfig::default());
    let naive = NaiveEngine::build(&app, &db, 100_000).unwrap();

    // "coffee" exists only in (American, 9).
    let request = SearchRequest::new(&["coffee"]).k(1).min_size(1);
    let d = &dash.search(&request)[0];
    let n = &naive.search(&request)[0];
    assert_eq!(d.url, n.url);
    // Scores agree on TF but not IDF: Dash approximates IDF over
    // *fragments* (1 here) where the baseline counts covering *pages*
    // (several) — exactly the approximation Section VI describes.
    assert!(d.score > 0.0 && n.score > 0.0);
    assert!(d.score >= n.score);
}

/// The naive page space explodes quadratically while fragments stay
/// linear — measured on TPC-H Q1.
#[test]
fn naive_page_space_explodes() {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 120;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash::tpch::q1_application(&db).unwrap();
    let fragments = dash::core::crawl::reference::fragments(&app, &db).unwrap();
    let naive = NaiveEngine::from_fragments(app.clone(), &fragments, 5_000_000).unwrap();
    let stats = naive.stats();
    assert!(
        stats.pages > 4 * fragments.len(),
        "pages {} should dwarf fragments {}",
        stats.pages,
        fragments.len()
    );
}

/// Dash's size threshold semantics (Section VI-B): every returned page
/// either meets the threshold `s` or has exhausted its equality group
/// (no fragment left to absorb).
#[test]
fn size_threshold_contract() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());
    let index = engine.shard_indexes().next().unwrap(); // the one shard
    let range_pos = index.graph.range_position().unwrap();
    for s in [1u64, 10, 25, 40, 1000] {
        for hit in engine.search(&SearchRequest::new(&["burger"]).k(5).min_size(s)) {
            if hit.size < s {
                let group_key = hit.fragment_ids[0].without(range_pos);
                let group = index.catalog.group_by_key(&group_key).unwrap();
                let group_len = index.graph.group_nodes(group).len();
                assert_eq!(
                    hit.fragment_ids.len(),
                    group_len,
                    "s={s}: undersized page {} did not exhaust its group",
                    hit.url
                );
            }
        }
    }
}

/// IDF favors rare keywords: a fragment matching a rare keyword outranks
/// an equally dense fragment matching a common one.
#[test]
fn idf_prefers_rare_keywords() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = crawl_engine(&app, &db, &DashConfig::default());
    // "fries" appears in 1 fragment, "burger" in 3.
    let inverted = &engine.shard_indexes().next().unwrap().inverted; // the one shard
    assert!(inverted.idf("fries") > inverted.idf("burger"));
    let fries = engine.search(&SearchRequest::new(&["fries"]).k(1).min_size(1));
    assert_eq!(fries.len(), 1);
    assert!(fries[0].url.contains("l=12&u=12"));
}
