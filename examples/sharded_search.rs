//! Sharded serving: partition the fragment handle space, answer
//! concurrent keyword traffic, and prove the answers identical to the
//! one-shard engine.
//!
//! ```text
//! cargo run --release --example sharded_search
//! DASH_SHARDS=4 cargo run --release --example sharded_search
//! ```
//!
//! The demo builds both partitions over the paper's running example
//! (fooddb + the `Search` servlet), serves a batch of requests through
//! `search_many`, verifies byte-identical results shard count by shard
//! count, applies a live database update through the unified delta
//! write path (shard-local, no rebuild), and feeds a suggested URL
//! back through the web application — the full circle Dash promises:
//! the URLs it suggests regenerate real db-pages containing the
//! keywords.

use dash::core::env_shards;
use dash::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = dash::webapp::fooddb::database();
    let app = dash::webapp::fooddb::search_application()?;

    let shards = env_shards().unwrap_or(2);
    let config = DashConfig::default();
    let build = |db: &Database, shards: usize| {
        ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Crawl {
                db,
                config: &config,
            })
            .build()
    };
    let single = build(&db, 1)?;
    let sharded = build(&db, shards)?;
    println!(
        "engine: {} fragments in {} shards (sizes {:?})",
        sharded.fragment_count(),
        sharded.shard_count(),
        sharded.shard_sizes(),
    );

    // A burst of concurrent-style traffic, answered in one batch.
    let requests = vec![
        SearchRequest::new(&["burger"]).k(2).min_size(20),
        SearchRequest::new(&["burger", "fries"]).k(3).min_size(1),
        SearchRequest::new(&["thai"]).k(2).min_size(5),
    ];
    let batch = sharded.search_many(&requests);
    for (request, hits) in requests.iter().zip(&batch) {
        println!("\nquery {:?} (k={}):", request.keywords, request.k);
        for hit in hits {
            println!("  {:.4}  {}", hit.score, hit.url);
        }
        // The shard layer's contract: byte-identical to one shard.
        assert_eq!(hits, &single.search(request));
    }

    // Close the loop through the web application: the top suggestion's
    // query string regenerates a real db-page holding the keyword.
    let Some(top) = batch[0].first() else {
        println!("\nno hits for the first query — nothing to regenerate");
        return Ok(());
    };
    let qs = QueryString::parse(&top.query_string)?;
    let page = app.execute(&db, &qs)?;
    println!(
        "\nregenerated {} -> {} keywords, contains \"burger\": {}",
        top.url,
        page.keywords().len(),
        page.keywords().iter().any(|w| w == "burger"),
    );
    println!("sharded results verified identical to the one-shard engine");

    // Live maintenance through the unified delta write path: a new
    // restaurant arrives, the delta routes to the one shard owning its
    // equality group (no rebuild, no O(total) work), and the sharded
    // engine keeps matching a from-scratch one-shard rebuild.
    let mut sharded = sharded;
    let mut db = db;
    let record = Record::new(vec![
        Value::Int(42),
        Value::str("Searing Wok"),
        Value::str("Sichuan"),
        Value::Int(13),
        Value::str("4.8"),
    ]);
    db.table_mut("restaurant")?.insert(record.clone())?;
    let stats = sharded.apply_changes(&db, &[RecordChange::new("restaurant", record)])?;
    println!(
        "\nlive update: +{} fragment(s), -{} stale; shard sizes now {:?}",
        stats.added,
        stats.removed,
        sharded.shard_sizes(),
    );
    let request = SearchRequest::new(&["wok"]).k(1).min_size(1);
    let rebuilt = build(&db, 1)?;
    let hits = sharded.search(&request);
    assert_eq!(hits, rebuilt.search(&request));
    println!(
        "updated engine finds {} — identical to a full rebuild, without one",
        hits.first().map(|h| h.url.as_str()).unwrap_or("nothing"),
    );
    Ok(())
}
