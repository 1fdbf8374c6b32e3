//! A richer tour of the running example: multi-keyword search, size
//! thresholds, HTML rendering, and live index maintenance as the
//! database changes (the paper's first future-work item).
//!
//! ```text
//! cargo run --example restaurant_search
//! ```

use dash::prelude::*;
use dash::relation::{Record, Value};

fn show(hits: &[dash::core::SearchHit], title: &str) {
    println!("{title}");
    if hits.is_empty() {
        println!("  (no results)");
    }
    for hit in hits {
        println!("  {}  score={:.4} size={}", hit.url, hit.score, hit.size);
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = dash::webapp::fooddb::database();
    let app = dash::webapp::fooddb::search_application()?;
    let config = DashConfig::default();
    let mut engine = ShardedEngine::builder(app.clone())
        .source(IngestSource::Crawl {
            db: &db,
            config: &config,
        })
        .build()?;

    // Different size thresholds steer page assembly (Section VI-B): tiny
    // s returns keyword-dense single fragments; larger s merges
    // neighboring budget ranges into more substantial pages.
    show(
        &engine.search(&SearchRequest::new(&["burger"]).k(3).min_size(1)),
        "\"burger\", s=1 (dense slivers):",
    );
    show(
        &engine.search(&SearchRequest::new(&["burger"]).k(3).min_size(40)),
        "\"burger\", s=40 (coarser pages):",
    );
    show(
        &engine.search(&SearchRequest::new(&["burger", "fries"]).k(3).min_size(20)),
        "\"burger fries\" (multi-keyword):",
    );

    // Render a suggested page as the HTML the servlet would emit.
    let hits = engine.search(&SearchRequest::new(&["coffee"]).k(1).min_size(1));
    let qs = QueryString::parse(&hits[0].query_string)?;
    let page = app.execute(&db, &qs)?;
    println!("HTML for {}:\n{}", hits[0].url, page.render_html());

    // The database changes: a new Korean restaurant opens and gets a
    // rave comment. Dash refreshes only the affected fragments.
    let restaurant = Record::new(vec![
        Value::Int(8),
        Value::str("Seoul Kitchen"),
        Value::str("Korean"),
        Value::Int(14),
        Value::str("4.7"),
    ]);
    db.table_mut("restaurant")?.insert(restaurant.clone())?;
    let stats = engine.apply_changes(&db, &[RecordChange::new("restaurant", restaurant)])?;
    println!(
        "inserted restaurant: {} fragment(s) refreshed ({} added)",
        stats.removed + stats.added,
        stats.added
    );

    let comment = Record::new(vec![
        Value::Int(207),
        Value::Int(8),
        Value::Int(120),
        Value::str("Amazing bulgogi"),
        Value::str("05/12"),
    ]);
    db.table_mut("comment")?.insert(comment.clone())?;
    engine.apply_changes(&db, &[RecordChange::new("comment", comment)])?;

    show(
        &engine.search(&SearchRequest::new(&["bulgogi"]).k(1).min_size(1)),
        "\"bulgogi\" after incremental update:",
    );
    Ok(())
}
