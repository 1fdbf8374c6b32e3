//! # dash-core
//!
//! The Dash search engine itself (ICDCS 2012): everything between "here is
//! a web application and its database" and "here are the URLs of the k
//! db-pages most relevant to your keywords".
//!
//! ## The pipeline (Figure 4 of the paper)
//!
//! 1. **Web application analysis** ([`dash_webapp`]) yields a
//!    parameterized PSJ query and the reverse query-string parsing logic.
//! 2. **Database crawling** ([`crawl`]) derives *db-page fragments* — the
//!    disjoint building blocks of all db-pages (Definition 2) — with
//!    MapReduce workflows: the straightforward [`crawl::stepwise`]
//!    algorithm and the shuffle-minimizing [`crawl::integrated`] algorithm.
//! 3. **Fragment indexing** ([`index`]) builds the *fragment index*: a
//!    [fragment catalog](index::FragmentCatalog) interning every fragment
//!    identifier into a dense [`index::Frag`] handle, an
//!    [inverted fragment index](index::InvertedFragmentIndex) (keyword →
//!    TF-sorted fragment postings) and a
//!    [fragment graph](index::FragmentGraph) recording which fragments can
//!    merge into a db-page.
//! 4. **Top-k search** ([`search`]) assembles fragments into db-pages with
//!    Algorithm 1 and suggests their URLs.
//!
//! ## Handle-native, columnar index layout
//!
//! Everything past the crawl is keyed on interned handles, not
//! `Vec<Value>` identifiers:
//!
//! * The **catalog** assigns each fragment a `u32` [`index::Frag`]
//!   handle (and each keyword a [`index::Kw`]) once, at build or
//!   maintenance time. Handles index columnar arrays directly, and the
//!   identifiers are columns too: a group handle per fragment (each
//!   key interned once, ranked in key order) and one range-value
//!   column. The catalog owns every fragment fact: identifiers, group
//!   keys, key order and the node weights.
//! * The **inverted index** stores all posting lists in two contiguous
//!   arenas — TF-sorted for the seeding cursor, fragment-sorted for the
//!   O(log L) occurrence probe — instead of nested
//!   `HashMap<String, HashMap<FragmentId, u64>>` maps.
//! * The **graph** stores only liveness and range order: each
//!   equality group's live handles as one contiguous range-sorted run,
//!   indexed by the catalog's group handle — locating a posting's node
//!   is an O(1) lookup, and incremental maintenance splices one
//!   group's run, never a global one.
//! * **Top-k candidates** are six plain integers/floats (`Copy`), with
//!   per-candidate keyword occurrences in a pooled scratch — the heap
//!   loop performs zero `Vec<Value>` clones. Identifiers are resolved
//!   back only when a [`SearchHit`] is emitted.
//!
//! Index construction parallelizes across equality groups and inverted
//! lists (scoped threads).
//!
//! ## The engine: one heap over the partition
//!
//! [`ShardedEngine`] is the engine. It partitions the equality groups
//! into `N` contiguous runs of key-rank order (one by default;
//! zero-copy: shard parts borrow the crawl output), builds each shard a
//! self-contained [`FragmentIndex`], and serves search by running the
//! heap loop once over the whole partition: one priority queue seeded
//! from every shard's list cursors, ties broken on global group ranks.
//! A group never spans two shards, so this is the one-shard loop over a
//! partitioned index, pop for pop. Results are **byte-identical** to
//! the seed's Algorithm 1 (`tests/common/oracle.rs`) for any shard
//! count — proven by the `sharded_equivalence` test tier — and a
//! batched `search_many` reuses scratch across requests. `DASH_SHARDS`
//! selects the partition width in deployments (see
//! [`sharded::env_shards`]).
//!
//! ## One front door for construction: the ingest layer
//!
//! Every way a `ShardedEngine` comes to exist goes through
//! [`ingest::EngineBuilder`] — `ShardedEngine::builder(app)` plus an
//! [`ingest::IngestSource`] (crawl-and-build, in-memory fragments,
//! `DASHIMG4` arena images, or streamed batches). Unpartitioned
//! sources are split by one partitioner into contiguous key-rank runs,
//! each indexed by [`FragmentIndex::build_refs`].
//!
//! ## The unified delta write path
//!
//! The engine mutates through one abstraction: an
//! [`update::IndexDelta`] (stale identifiers out, fresh
//! fragments in), built from a base-table change by [`update`] and
//! applied atomically by [`FragmentIndex::apply`] — posting splices
//! batched into one arena rewrite, graph splices confined to the
//! affected groups' columns. [`ShardedEngine`] routes each entry
//! to the shard owning its equality group (a static key-range table)
//! and applies the sub-deltas shard by shard, refreshing global group
//! ranks and IDF incrementally — per-shard work only, no rebuild, with
//! post-update searches byte-identical to a freshly built engine (the
//! `sharded_maintenance` test tier). The arena image
//! ([`persist`]) round-trips a maintained partition without
//! re-partitioning.
//!
//! [`multi::MultiDash`] federates one [`sharded::ShardedEngine`] per
//! application (so multi-application scoping composes with sharding);
//! [`baseline`]
//! provides the naive materialize-every-db-page engine the fragment
//! design is motivated against; [`update`] and [`multi`] implement the
//! paper's two future-work extensions (incremental index maintenance and
//! multi-application fragment sharing).
//!
//! ## Quickstart
//!
//! ```
//! use dash_core::{DashConfig, IngestSource, SearchRequest, ShardedEngine};
//! use dash_webapp::fooddb;
//!
//! # fn main() -> Result<(), dash_core::CoreError> {
//! let db = fooddb::database();
//! let app = fooddb::search_application()?;
//! let config = DashConfig::default();
//! let engine = ShardedEngine::builder(app)
//!     .source(IngestSource::Crawl { db: &db, config: &config })
//!     .build()?;
//! // Example 7 of the paper: top-2 pages for "burger" with s = 20.
//! let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
//! assert_eq!(hits.len(), 2);
//! assert!(hits.iter().any(|h| h.url.contains("c=Thai")));
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod crawl;
pub mod engine;
pub mod error;
pub mod fragment;
pub mod index;
pub mod ingest;
pub mod multi;
mod par;
pub mod persist;
pub mod scope;
pub mod search;
pub mod sharded;
pub mod update;
pub mod wire;

pub use crawl::{CrawlAlgorithm, CrawlOutput};
pub use engine::{DashConfig, DashEngine};
pub use error::CoreError;
pub use fragment::{Fragment, FragmentId};
pub use index::{
    Frag, FragmentCatalog, FragmentGraph, FragmentIndex, GroupId, HeapBytes, InvertedFragmentIndex,
    Kw,
};
pub use ingest::{EngineBuilder, IngestSource};
pub use multi::MultiDash;
pub use scope::CrawlScope;
pub use search::{HitSink, HitView, SearchHit, SearchRequest};
pub use sharded::{env_shards, PreparedDelta, ShardedEngine};
pub use update::{DeltaSignature, IndexDelta, RecordChange, RefreshStats};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
