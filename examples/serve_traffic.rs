//! Serving traffic: a [`DashServer`] answers searches from its result
//! cache, or with one search of the live engine snapshot, while a
//! delta publication swaps that snapshot underneath — searches never
//! wait for maintenance.
//!
//! ```text
//! cargo run --release --example serve_traffic
//! DASH_SHARDS=4 cargo run --release --example serve_traffic
//! cargo run --release --example serve_traffic -- --net   # also over a socket
//! ```
//!
//! The demo opens a server over the paper's running example, runs a
//! few searches (a repeat is answered from the cache), publishes one
//! delta (a crawled fragment re-added with a bumped keyword count),
//! prints the serving counters, and closes the loop the paper
//! promises: a suggested URL, fed back through the web application,
//! regenerates a real db-page holding the keyword.
//!
//! With `--net` the server also goes behind a `NetServer` on an
//! ephemeral port, and one `NetClient` request is asserted
//! byte-identical to the same request served in-process.

use std::net::TcpListener;
use std::sync::Arc;

use dash::core::crawl::reference;
use dash::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let over_sockets = std::env::args().any(|arg| arg == "--net");
    let db = dash::webapp::fooddb::database();
    let app = dash::webapp::fooddb::search_application()?;
    let server = DashServer::build(&app, &db, &DashConfig::default(), ServeConfig::default())?;
    println!(
        "server: {} fragments, {} shard(s), epoch {}",
        server.fragment_count(),
        server.snapshot().engine.shard_count(),
        server.epoch(),
    );

    // A few searches; the repeated `burger` request is a cache hit.
    for words in [&["burger"][..], &["coffee"], &["burger"], &["thai", "nice"]] {
        let hits = server.search(&SearchRequest::new(words).k(3).min_size(20));
        println!("search {words:?}: {} hit(s)", hits.len());
    }

    // One publication: a crawled fragment re-added with a bumped
    // keyword count. The snapshot swap invalidates exactly the cache
    // entries whose keywords the delta touches.
    let mut fragment = reference::fragments(&app, &db)?.swap_remove(0);
    if let Some(count) = fragment.keyword_occurrences.values_mut().next() {
        *count += 1;
        fragment.total_keywords += 1;
    }
    server.publish(IndexDelta::new(vec![fragment.id.clone()], vec![fragment]));
    let stats = server.stats();
    println!(
        "\nserve: epoch {}, {} searches, cache {}/{} hit, {} engine calls, {} delta(s) published, \
         {} cache entries invalidated",
        server.epoch(),
        stats.searches,
        stats.cache.hits,
        stats.cache.hits + stats.cache.misses,
        stats.batches,
        stats.published,
        stats.cache.invalidated,
    );

    // --net: the same server behind an HTTP front-end, and a parity
    // probe between the socket and in-process paths.
    let probe = SearchRequest::new(&["burger"]).k(2).min_size(20);
    let hits = if over_sockets {
        let server = Arc::new(server);
        let net = NetServer::serve_primary(
            Arc::clone(&server),
            db.clone(),
            TcpListener::bind("127.0.0.1:0")?,
            NetConfig::default(),
        )?;
        println!("\nnet: serving http://{}", net.addr());
        let socket_hits = NetClient::connect(net.addr())?.search(&probe)?;
        let direct_hits = server.search(&probe);
        println!(
            "parity probe: socket and in-process hit lists identical: {}",
            socket_hits == direct_hits,
        );
        assert_eq!(socket_hits, direct_hits, "socket serving must be invisible");
        socket_hits
    } else {
        server.search(&probe)
    };

    // Close the loop through the web application: a served URL must
    // regenerate a page containing the keyword.
    let Some(top) = hits.first() else {
        println!("\nno burger page served — nothing to regenerate");
        return Ok(());
    };
    let qs = QueryString::parse(&top.query_string)?;
    let page = app.execute(&db, &qs)?;
    println!(
        "\nsuggested {} regenerates a {}-keyword db-page (contains \"burger\": {})",
        top.url,
        page.keywords().len(),
        page.keywords().iter().any(|w| w == "burger"),
    );
    Ok(())
}
