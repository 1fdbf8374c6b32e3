//! Quickstart: the paper's running example, end to end.
//!
//! Builds the `fooddb` database (Figure 2), analyzes the `Search` servlet
//! (Figure 3), crawls the database into db-page fragments (Figure 5),
//! and answers Example 7's query: the top-2 db-pages for "burger".
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dash::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The target: a web application and its backend database.
    let db = dash::webapp::fooddb::database();
    let app = dash::webapp::fooddb::search_application()?;
    println!("analyzed servlet `{}` at {}", app.name, app.base_uri);
    println!("recovered query: {}\n", app.sql);

    // 2. Build Dash: database crawling + fragment indexing (MapReduce).
    let config = DashConfig::default();
    let engine = ShardedEngine::builder(app.clone())
        .source(IngestSource::Crawl {
            db: &db,
            config: &config,
        })
        .build()?;
    println!(
        "crawled {} fragments in {} MapReduce jobs ({:.1} simulated s)\n",
        engine.fragment_count(),
        engine.crawl_stats().jobs.len(),
        engine.crawl_stats().sim_total_secs(),
    );

    // 3. Example 7: top-2 db-pages for "burger" with size threshold 20.
    let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
    println!("top-{} db-pages for \"burger\" (s = 20):", hits.len());
    for hit in &hits {
        println!(
            "  {}  score={:.4}  size={} keywords  ({} fragment{})",
            hit.url,
            hit.score,
            hit.size,
            hit.fragment_ids.len(),
            if hit.fragment_ids.len() == 1 { "" } else { "s" },
        );
    }

    // 4. Proof: feeding a suggested URL back to the application yields a
    //    real db-page containing the keyword.
    let first = &hits[0];
    let qs = QueryString::parse(&first.query_string)?;
    let page = app.execute(&db, &qs)?;
    println!("\nmaterialized {}:", first.url);
    print!("{}", page.render_text());
    Ok(())
}
