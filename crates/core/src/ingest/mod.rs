//! The engine-ingest layer: one front door for every way a
//! [`ShardedEngine`] comes to exist.
//!
//! Every construction path — crawl-and-build, in-memory fragments,
//! arena images, streamed batches — goes through one API,
//! [`EngineBuilder`]: pick an [`IngestSource`], optionally set the
//! shard count and a stats accumulator, and `build()`:
//!
//! ```text
//! ShardedEngine::builder(app)
//!     .shards(4)
//!     .source(IngestSource::Fragments(&fragments))
//!     .build()?
//! ```
//!
//! Sources that carry their own partition (images, batches) ignore
//! `shards` — the partition is taken exactly as given, never
//! re-derived, so maintained engines round-trip with their drifted
//! balance intact.

use dash_mapreduce::WorkflowStats;
use dash_relation::Database;
use dash_webapp::WebApplication;

use crate::engine::DashConfig;
use crate::fragment::Fragment;
use crate::sharded::ShardedEngine;
use crate::Result;

/// Where an [`EngineBuilder`] gets its fragments from.
///
/// Two families: *unpartitioned* sources ([`IngestSource::Fragments`],
/// [`IngestSource::Crawl`]) hand the builder raw fragments and let it
/// derive the contiguous key-rank partition at the configured shard
/// count; *pre-partitioned* sources carry their partition with them
/// and ignore the builder's `shards` setting.
pub enum IngestSource<'a> {
    /// Already-derived fragments; the builder partitions them into the
    /// configured number of shards.
    Fragments(&'a [Fragment]),
    /// A `DASHIMG4` arena image ([`ShardedEngine::write_image`] is
    /// the dump half) — the zero-parse bulk-read load path.
    Image(&'a [u8]),
    /// Per-shard fragment batches consumed one at a time — the
    /// bounded-memory path for generated corpora (each batch is
    /// indexed and dropped before the next is pulled).
    Batches(Box<dyn Iterator<Item = Vec<Fragment>> + 'a>),
    /// Crawl the database first (the paper's pipeline front half),
    /// then partition into the configured number of shards. The crawl
    /// workflow's job stats are pushed onto the builder's accumulator.
    Crawl {
        /// The database to crawl.
        db: &'a Database,
        /// Crawl algorithm/scope/cluster configuration.
        config: &'a DashConfig,
    },
}

impl std::fmt::Debug for IngestSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestSource::Fragments(frags) => {
                f.debug_tuple("Fragments").field(&frags.len()).finish()
            }
            IngestSource::Image(bytes) => f.debug_tuple("Image").field(&bytes.len()).finish(),
            IngestSource::Batches(_) => f.write_str("Batches(..)"),
            IngestSource::Crawl { .. } => f.write_str("Crawl { .. }"),
        }
    }
}

/// Builds a [`ShardedEngine`] from any [`IngestSource`] — the single
/// construction API. Created by [`ShardedEngine::builder`].
///
/// Defaults: one shard, an empty fragment source, a fresh (empty)
/// stats accumulator.
#[derive(Debug)]
pub struct EngineBuilder<'a> {
    app: WebApplication,
    shards: usize,
    stats: WorkflowStats,
    source: IngestSource<'a>,
}

impl<'a> EngineBuilder<'a> {
    pub(crate) fn new(app: WebApplication) -> Self {
        EngineBuilder {
            app,
            shards: 1,
            stats: WorkflowStats::new(),
            source: IngestSource::Fragments(&[]),
        }
    }

    /// Sets the shard count for unpartitioned sources
    /// ([`IngestSource::Fragments`], [`IngestSource::Crawl`]); clamped
    /// to at least 1. Pre-partitioned sources (images, batches) carry
    /// their own partition and ignore this.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Seeds the stats accumulator the engine will report from
    /// [`ShardedEngine::crawl_stats`]; [`IngestSource::Crawl`] pushes
    /// its crawl workflow's job stats on top.
    pub fn stats(mut self, stats: WorkflowStats) -> Self {
        self.stats = stats;
        self
    }

    /// Sets the ingest source (default: an empty fragment list).
    pub fn source(mut self, source: IngestSource<'a>) -> Self {
        self.source = source;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates query validation and index-construction errors; for
    /// pre-partitioned sources, returns
    /// [`CoreError::Internal`](crate::CoreError::Internal) when the
    /// shards are not contiguous, disjoint runs of group-key order,
    /// and for [`IngestSource::Image`] when the image is torn,
    /// corrupted, or from a mismatched application.
    pub fn build(self) -> Result<ShardedEngine> {
        let EngineBuilder {
            app,
            shards,
            stats,
            source,
        } = self;
        match source {
            IngestSource::Fragments(fragments) => {
                ShardedEngine::from_fragments_impl(app, fragments, shards, stats)
            }
            IngestSource::Image(bytes) => ShardedEngine::from_image_impl(app, bytes, stats),
            IngestSource::Batches(batches) => ShardedEngine::from_batches_impl(app, batches, stats),
            IngestSource::Crawl { db, config } => {
                ShardedEngine::crawl_build_impl(&app, db, config, shards, stats)
            }
        }
    }
}

impl ShardedEngine {
    /// Starts an [`EngineBuilder`] — the single front door for every
    /// construction path (see [`crate::ingest`] for the source
    /// catalog).
    pub fn builder<'a>(app: WebApplication) -> EngineBuilder<'a> {
        EngineBuilder::new(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchRequest;
    use dash_webapp::fooddb;

    fn fooddb_parts() -> (WebApplication, Database) {
        (fooddb::search_application().unwrap(), fooddb::database())
    }

    #[test]
    fn every_source_builds_the_same_engine() {
        let (app, db) = fooddb_parts();
        let config = DashConfig::default();
        let crawled = ShardedEngine::builder(app.clone())
            .shards(2)
            .source(IngestSource::Crawl {
                db: &db,
                config: &config,
            })
            .build()
            .unwrap();
        assert!(crawled.fragment_count() > 0);
        // Crawl stats rode along on the accumulator.
        assert!(!crawled.crawl_stats().jobs.is_empty());

        let shards = crawled.dump_shards();
        let flat: Vec<Fragment> = shards.iter().flatten().cloned().collect();
        let req = SearchRequest::new(&["burger", "fries"]).k(10).min_size(1);
        let want = crawled.search(&req);

        let from_fragments = ShardedEngine::builder(app.clone())
            .shards(2)
            .source(IngestSource::Fragments(&flat))
            .build()
            .unwrap();
        assert_eq!(from_fragments.search(&req), want);

        let from_batches = ShardedEngine::builder(app.clone())
            .source(IngestSource::Batches(Box::new(shards.into_iter())))
            .build()
            .unwrap();
        assert_eq!(from_batches.shard_sizes(), crawled.shard_sizes());
        assert_eq!(from_batches.search(&req), want);

        let mut image = Vec::new();
        crawled.write_image(&mut image).unwrap();
        let from_image = ShardedEngine::builder(app)
            .source(IngestSource::Image(&image))
            .build()
            .unwrap();
        assert_eq!(from_image.shard_sizes(), crawled.shard_sizes());
        assert_eq!(from_image.search(&req), want);
        for engine in [&from_fragments, &from_batches, &from_image] {
            assert!(
                image_of(engine) == image,
                "every source writes the same image"
            );
        }
    }

    fn image_of(engine: &ShardedEngine) -> Vec<u8> {
        let mut image = Vec::new();
        engine.write_image(&mut image).unwrap();
        image
    }

    /// The three bulk sources share one build: `Fragments` (both build
    /// stages back to back per shard), `Batches` (each batch dropped
    /// between the stages) and `Image` (decoded into the same columns)
    /// write byte-identical images of one corpus, at the environment's
    /// shard width.
    #[test]
    fn every_bulk_source_writes_the_same_image_bytes() {
        let (app, _) = fooddb_parts();
        let fragments = crate::sharded::tests::plateau_fragments(24, 16, 100);
        let shards = crate::sharded::env_shards().unwrap_or(1).max(2);
        let from_fragments = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        let image = image_of(&from_fragments);
        let from_batches = ShardedEngine::builder(app.clone())
            .source(IngestSource::Batches(Box::new(
                from_fragments.dump_shards().into_iter(),
            )))
            .build()
            .unwrap();
        assert_eq!(from_batches.shard_count(), shards);
        assert!(image_of(&from_batches) == image, "Batches");
        let from_image = ShardedEngine::builder(app)
            .source(IngestSource::Image(&image))
            .build()
            .unwrap();
        assert!(image_of(&from_image) == image, "Image");
    }

    #[test]
    fn default_source_is_an_empty_engine() {
        let (app, _) = fooddb_parts();
        let engine = ShardedEngine::builder(app.clone()).build().unwrap();
        assert_eq!(engine.fragment_count(), 0);
        assert_eq!(engine.shard_count(), 1);

        // An empty corpus still yields the requested shards, all empty,
        // and its image round-trips to identical bytes.
        let empty = ShardedEngine::builder(app.clone())
            .shards(3)
            .source(IngestSource::Fragments(&[]))
            .build()
            .unwrap();
        assert_eq!(empty.shard_sizes(), vec![0; 3]);
        let mut image = Vec::new();
        empty.write_image(&mut image).unwrap();
        let reloaded = ShardedEngine::builder(app)
            .source(IngestSource::Image(&image))
            .build()
            .unwrap();
        assert_eq!(reloaded.shard_sizes(), vec![0; 3]);
        let mut again = Vec::new();
        reloaded.write_image(&mut again).unwrap();
        assert_eq!(again, image);
        let req = SearchRequest::new(&["burger"]).k(3).min_size(1);
        assert!(empty.search(&req).is_empty());
        assert!(reloaded.search(&req).is_empty());
    }
}
