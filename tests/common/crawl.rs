//! The engine an application builds: crawl the database under the given
//! options and index the fragments, at the builder's default of one
//! shard.

use dash::core::{DashConfig, IngestSource, ShardedEngine};
use dash::relation::Database;
use dash::webapp::WebApplication;

pub fn crawl_engine(app: &WebApplication, db: &Database, config: &DashConfig) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .source(IngestSource::Crawl { db, config })
        .build()
        .unwrap()
}
