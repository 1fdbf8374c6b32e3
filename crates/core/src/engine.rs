//! The [`DashEngine`] facade: build once (crawl + index), search many
//! times — Figure 4 of the paper as one type.

use dash_mapreduce::{ClusterConfig, WorkflowStats};
use dash_relation::Database;
use dash_webapp::WebApplication;

use crate::crawl::{self, CrawlAlgorithm};
use crate::error::CoreError;
use crate::fragment::Fragment;
use crate::index::FragmentIndex;
use crate::search::{request_idf, top_k, top_k_in, SearchHit, SearchRequest, SearchScratch};
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

/// A built Dash search engine for one web application over one database.
#[derive(Debug, Clone)]
pub struct DashEngine {
    app: WebApplication,
    index: FragmentIndex,
    crawl_stats: WorkflowStats,
}

impl DashEngine {
    /// Analyzes nothing (the application is already analyzed), crawls the
    /// database for fragments and builds the fragment index.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnsupportedQuery`] — the query has more than one
    ///   range-bound selection attribute (outside the paper's page model).
    /// * Crawl/index errors otherwise.
    pub fn build(app: &WebApplication, db: &Database, config: &DashConfig) -> Result<Self> {
        validate_query(app)?;
        let crawl = crawl::run_scoped(app, db, &config.cluster, config.algorithm, &config.scope)?;
        Self::from_fragments(app.clone(), &crawl.fragments, crawl.stats)
    }

    /// Builds an engine from already-derived fragments (used by the
    /// multi-application layer and by tests that bypass MapReduce).
    ///
    /// # Errors
    ///
    /// Propagates index-construction errors and query validation.
    pub fn from_fragments(
        app: WebApplication,
        fragments: &[Fragment],
        crawl_stats: WorkflowStats,
    ) -> Result<Self> {
        validate_query(&app)?;
        let index = FragmentIndex::build(fragments, app.query.range_selection_index())?;
        Ok(DashEngine {
            app,
            index,
            crawl_stats,
        })
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
                top_k_in(&self.app, &shards, request, &idf, &mut scratch)
            })
            .collect()
    }

    /// The analyzed application this engine serves.
    pub fn app(&self) -> &WebApplication {
        &self.app
    }

    /// The fragment index (inverted fragment index + fragment graph).
    pub fn index(&self) -> &FragmentIndex {
        &self.index
    }

    /// Mutable index access (incremental maintenance).
    pub fn index_mut(&mut self) -> &mut FragmentIndex {
        &mut self.index
    }

    /// Statistics of the crawl/index workflow that built this engine.
    pub fn crawl_stats(&self) -> &WorkflowStats {
        &self.crawl_stats
    }

    /// Number of indexed fragments.
    pub fn fragment_count(&self) -> usize {
        self.index.fragment_count()
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
    use dash_webapp::fooddb;

    #[test]
    fn build_and_search_running_example() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
        assert_eq!(engine.fragment_count(), 5);
        assert!(engine.crawl_stats().sim_total_secs() > 0.0);
        let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn stepwise_and_integrated_build_identical_indexes() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let sw = DashEngine::build(
            &app,
            &db,
            &DashConfig {
                algorithm: CrawlAlgorithm::Stepwise,
                ..DashConfig::default()
            },
        )
        .unwrap();
        let int = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
        let req = SearchRequest::new(&["burger"]).k(5).min_size(20);
        assert_eq!(sw.search(&req), int.search(&req));
    }

    #[test]
    fn suggested_urls_regenerate_real_pages() {
        // The whole point of Dash: the URLs it suggests, when fed back to
        // the web application, produce pages containing the keywords.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
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
