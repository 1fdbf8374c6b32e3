//! Deep-web search over a database-driven storefront: the paper's
//! evaluation workload (TPC-H + query Q2) at example scale.
//!
//! Builds the Q2 application (customers ⋈ orders ⋈ lineitems), crawls it
//! with the integrated algorithm, and searches hot and cold keywords —
//! pages that no hyperlink-following crawler could ever reach, since every
//! db-page exists only behind the form's query string.
//!
//! ```text
//! cargo run --release --example deep_web_tpch
//! ```

use dash::core::{CrawlAlgorithm, DashConfig, IngestSource, SearchRequest, ShardedEngine};
use dash::tpch::{generate, Scale, TpchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 200;
    let db = generate(&config);
    println!(
        "generated TPC-H-style store: {} customers, {} orders, {} lineitems",
        db.table("customer")?.len(),
        db.table("orders")?.len(),
        db.table("lineitem")?.len(),
    );

    let app = dash::tpch::q2_application(&db)?;
    println!("analyzed application: {}\n", app.sql);

    let crawl = DashConfig {
        algorithm: CrawlAlgorithm::Integrated,
        ..DashConfig::default()
    };
    let engine = ShardedEngine::builder(app)
        .source(IngestSource::Crawl {
            db: &db,
            config: &crawl,
        })
        .build()?;
    // The builder's default partition is one shard: one fragment index.
    let index = engine.shard_indexes().next().expect("one shard");
    println!(
        "fragment index: {} fragments, {} keywords, {} graph edges",
        engine.fragment_count(),
        index.inverted.keyword_count(),
        index.graph.edge_count(),
    );
    println!(
        "crawl: {} MR jobs, {:.1} simulated s, {:.2} real s\n",
        engine.crawl_stats().jobs.len(),
        engine.crawl_stats().sim_total_secs(),
        engine.crawl_stats().wall_total_secs(),
    );

    // A hot keyword (appears in many fragments) and a cold one.
    let ranked = index.inverted.keywords_by_df();
    let hot = ranked
        .first()
        .map(|(w, _)| w.to_string())
        .unwrap_or_default();
    let cold = ranked
        .last()
        .map(|(w, _)| w.to_string())
        .unwrap_or_default();

    for (label, kw) in [("hot", &hot), ("cold", &cold)] {
        let start = std::time::Instant::now();
        let hits = engine.search(&SearchRequest::new(&[kw.as_str()]).k(5).min_size(200));
        let elapsed = start.elapsed();
        println!(
            "{label} keyword {kw:?} (df={}): {} hits in {:.3} ms",
            index.inverted.df(kw),
            hits.len(),
            elapsed.as_secs_f64() * 1000.0
        );
        for hit in hits.iter().take(3) {
            println!("    {}  score={:.5} size={}", hit.url, hit.score, hit.size);
        }
    }
    Ok(())
}
