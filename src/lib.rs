//! # Dash — a search engine for database-generated dynamic web pages
//!
//! This crate is the facade of the Dash workspace, a from-scratch Rust
//! reproduction of *"Dash: A Novel Search Engine for Database-Generated
//! Dynamic Web Pages"* (Lee, Bankar, Zheng, Chow, Wang — ICDCS 2012).
//!
//! Dash makes *db-pages* — dynamic pages a web application generates from a
//! backend database for each query string — searchable without ever invoking
//! the application. It reverse-engineers the application into a
//! parameterized project-select-join query, crawls the **database** for
//! disjoint *db-page fragments*, indexes them (inverted fragment index +
//! fragment graph), and answers keyword queries by assembling the top-k
//! most relevant db-pages and suggesting their URLs.
//!
//! ## Workspace map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`relation`] | `dash-relation` | typed values, schemas, tables, PSJ operators |
//! | [`mapreduce`] | `dash-mapreduce` | simulated MapReduce cluster with a byte-metered cost model |
//! | [`sql`] | `dash-sql` | lexer/parser for the parameterized PSJ SQL dialect |
//! | [`webapp`] | `dash-webapp` | servlet mini-language, app analyzer, query strings, db-page rendering |
//! | [`text`] | `dash-text` | tokenizer, TF/IDF, conventional inverted file |
//! | [`tpch`] | `dash-tpch` | TPC-H-style dataset generator + the paper's Q1/Q2/Q3 |
//! | [`obs`] | `dash-obs` | pure-std observability: lock-free latency histograms, counters/gauges, spans, the slow-query log, the Prometheus text exposition |
//! | [`core`] | `dash-core` | fragments, crawling (stepwise & integrated), fragment index, top-k search, the engine-ingest layer (one builder front door) |
//! | [`serve`] | `dash-serve` | snapshot-swapping serving front-end: result cache, rendered-response cache |
//! | [`net`] | `dash-net` | socket serving: HTTP/1.1 front-end, primary→replica delta replication over TCP, socket client |
//!
//! ## Quickstart
//!
//! ```
//! use dash::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example: fooddb + the `Search` servlet.
//! let db = dash::webapp::fooddb::database();
//! let app = dash::webapp::fooddb::search_application()?;
//!
//! // Build the Dash engine (crawl the database, index fragments).
//! let config = DashConfig::default();
//! let engine = ShardedEngine::builder(app.clone())
//!     .source(IngestSource::Crawl { db: &db, config: &config })
//!     .build()?;
//!
//! // Keyword search: top-2 db-pages containing "burger".
//! let results = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
//! assert!(!results.is_empty());
//! for hit in &results {
//!     println!("{} (score {:.4})", hit.url, hit.score);
//! }
//! # Ok(())
//! # }
//! ```

pub use dash_core as core;
pub use dash_mapreduce as mapreduce;
pub use dash_net as net;
pub use dash_obs as obs;
pub use dash_relation as relation;
pub use dash_serve as serve;
pub use dash_sql as sql;
pub use dash_text as text;
pub use dash_tpch as tpch;
pub use dash_webapp as webapp;

/// The most commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use dash_core::{
        DashConfig, DeltaSignature, EngineBuilder, Fragment, FragmentId, FragmentIndex, IndexDelta,
        IngestSource, MultiDash, RecordChange, SearchHit, SearchRequest, ShardedEngine,
    };
    pub use dash_net::{
        BackoffConfig, NetClient, NetConfig, NetServer, Replica, ReplicaConfig, ReplicationHub,
        Router, RouterConfig, Upstream,
    };
    pub use dash_relation::{Database, Record, Schema, Table, Value};
    pub use dash_serve::{DashServer, ServeConfig};
    pub use dash_webapp::{DbPage, QueryString, WebApplication};
}
