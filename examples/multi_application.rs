//! Two web applications over one database — the paper's second
//! future-work extension: shared fragment contents are detected and
//! duplicate db-pages are eliminated from federated search results.
//!
//! ```text
//! cargo run --example multi_application
//! ```

use dash::core::multi::MultiDash;
use dash::core::{CrawlAlgorithm, SearchRequest};
use dash::mapreduce::ClusterConfig;
use dash::webapp::{fooddb, WebApplication};

/// A second storefront exposing the same restaurant data under different
/// URLs and form fields.
const MIRROR: &str = r#"
servlet DinerFinder at "www.diners.example/find" {
    String kind = q.getParameter("cuisine");
    String lo = q.getParameter("from");
    String hi = q.getParameter("to");
    Query = "SELECT name, budget, rate, comment, uname, date "
          + "FROM (restaurant LEFT JOIN comment) JOIN customer "
          + "WHERE (cuisine = \"" + kind + "\") "
          + "AND (budget BETWEEN " + lo + " AND " + hi + ")";
    output(execute(Query));
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = fooddb::database();
    let search = fooddb::search_application()?;
    let diner_finder = WebApplication::from_servlet_source(MIRROR, &db)?;

    let multi = MultiDash::build(
        &[search, diner_finder],
        &db,
        &ClusterConfig::default(),
        CrawlAlgorithm::Integrated,
        1,
    )?;

    let stats = multi.stats();
    println!(
        "fragments: {} total, {} distinct contents, {} shared across applications\n",
        stats.total_fragments, stats.distinct_contents, stats.shared_fragments,
    );

    println!("federated top-4 for \"burger\" (duplicates eliminated):");
    for hit in multi.search(&SearchRequest::new(&["burger"]).k(4).min_size(20)) {
        println!(
            "  [{}] {}  score={:.4}",
            hit.app_name, hit.hit.url, hit.hit.score
        );
    }

    println!("\nper-application results for the same query:");
    for engine in multi.engines() {
        for hit in engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20)) {
            println!("  [{}] {}", engine.app().name, hit.url);
        }
    }
    Ok(())
}
