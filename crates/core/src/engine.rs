//! Engine construction options ([`DashConfig`]), query validation, and
//! [`DashEngine`], the one-index oracle kept for the frozen end-to-end
//! benchmark. Every engine the workspace builds is a
//! [`ShardedEngine`](crate::ShardedEngine) (one shard by default).

use dash_mapreduce::{ClusterConfig, WorkflowStats};
use dash_webapp::WebApplication;

use crate::crawl::CrawlAlgorithm;
use crate::error::CoreError;
use crate::fragment::Fragment;
use crate::index::FragmentIndex;
use crate::search::{request_idf, top_k, top_k_in, SearchHit, SearchRequest, SearchScratch};
use crate::update::{IndexDelta, RefreshStats};
use crate::Result;

/// Engine construction options.
#[derive(Debug, Clone, Default)]
pub struct DashConfig {
    /// The (simulated) cluster crawling and indexing run on.
    pub cluster: ClusterConfig,
    /// Which crawling algorithm to use (default: integrated).
    pub algorithm: CrawlAlgorithm,
    /// Selective-crawling scope (default: everything).
    pub scope: crate::scope::CrawlScope,
}

/// One [`FragmentIndex`] searched by Algorithm 1 directly, with no
/// shard, serving or socket code on its path.
///
/// It exists only for the frozen end-to-end benchmark (`benchmark/`),
/// whose oracle calls exactly these four methods. Nothing in the
/// workspace may use it — build a [`ShardedEngine`](crate::ShardedEngine)
/// instead; CI fails on any other mention. ROADMAP item 12(e) deletes
/// it.
#[derive(Debug, Clone)]
pub struct DashEngine {
    app: WebApplication,
    index: FragmentIndex,
}

impl DashEngine {
    /// Builds an engine from already-derived fragments.
    ///
    /// # Errors
    ///
    /// Propagates index-construction errors and query validation.
    pub fn from_fragments(
        app: WebApplication,
        fragments: &[Fragment],
        _crawl_stats: WorkflowStats,
    ) -> Result<Self> {
        validate_query(&app)?;
        let index = FragmentIndex::build(fragments, app.query.range_selection_index())?;
        Ok(DashEngine { app, index })
    }

    /// Top-k db-page search (Algorithm 1). Returns at most `request.k`
    /// URL suggestions, most relevant first.
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        top_k(&self.app, &self.index, request)
    }

    /// Batched top-k: answers every request with one reused scratch
    /// (occurrence pool, seed bitset), skipping per-query allocation.
    /// Results are position-aligned with `requests`; each equals the
    /// corresponding [`DashEngine::search`] call.
    pub fn search_many(&self, requests: &[SearchRequest]) -> Vec<Vec<SearchHit>> {
        let shards = [(&self.index, 0)];
        let mut scratch = SearchScratch::new();
        requests
            .iter()
            .map(|request| {
                let idf = request_idf(&shards, request);
                let mut hits = Vec::new();
                top_k_in(&self.app, &shards, request, &idf, &mut scratch, &mut hits);
                hits
            })
            .collect()
    }

    /// Applies a prebuilt delta to the index: [`IndexDelta::check`],
    /// then [`FragmentIndex::apply`].
    ///
    /// # Panics
    ///
    /// If an identifier does not have the application's arity or an
    /// added fragment holds a keyword more than `u32::MAX` times; the
    /// delta is checked before the index changes.
    pub fn apply_delta(&mut self, delta: &IndexDelta) -> RefreshStats {
        self.apply_checked(delta).unwrap_or_else(|e| panic!("{e}"))
    }

    fn apply_checked(&mut self, delta: &IndexDelta) -> Result<RefreshStats> {
        delta.check(&self.app)?;
        self.index.apply(delta)
    }
}

pub(crate) fn validate_query(app: &WebApplication) -> Result<()> {
    let ranges = app
        .query
        .selections
        .iter()
        .filter(|s| s.binding.is_range())
        .count();
    if ranges > 1 {
        return Err(CoreError::UnsupportedQuery {
            detail: format!(
                "{ranges} range-bound selection attributes; db-page assembly supports at most one"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestSource;
    use crate::sharded::ShardedEngine;
    use dash_relation::Database;
    use dash_webapp::fooddb;

    fn build(app: &WebApplication, db: &Database, config: &DashConfig) -> ShardedEngine {
        ShardedEngine::builder(app.clone())
            .source(IngestSource::Crawl { db, config })
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_search_running_example() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = build(&app, &db, &DashConfig::default());
        assert_eq!(engine.fragment_count(), 5);
        assert!(engine.crawl_stats().sim_total_secs() > 0.0);
        let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn stepwise_and_integrated_build_identical_indexes() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let stepwise = DashConfig {
            algorithm: CrawlAlgorithm::Stepwise,
            ..DashConfig::default()
        };
        let sw = build(&app, &db, &stepwise);
        let int = build(&app, &db, &DashConfig::default());
        let req = SearchRequest::new(&["burger"]).k(5).min_size(20);
        assert_eq!(sw.search(&req), int.search(&req));
    }

    #[test]
    fn suggested_urls_regenerate_real_pages() {
        // The whole point of Dash: the URLs it suggests, when fed back to
        // the web application, produce pages containing the keywords.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = build(&app, &db, &DashConfig::default());
        for hit in engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20)) {
            let qs = dash_webapp::QueryString::parse(&hit.query_string).unwrap();
            let page = app.execute(&db, &qs).unwrap();
            assert!(
                page.keywords().iter().any(|w| w == "burger"),
                "page at {} lacks the keyword",
                hit.url
            );
        }
    }
}
