//! The experiment implementations behind the report binaries.

use std::time::Instant;

use dash_core::baseline::{page_count, NaiveEngine};
use dash_core::{
    CrawlAlgorithm, DashConfig, Fragment, FragmentGraph, IngestSource, SearchRequest, ShardedEngine,
};
use dash_mapreduce::ClusterConfig;
use dash_tpch::Scale;
use dash_webapp::WebApplication;

use crate::datasets::{application_for, dataset, QueryId};
use crate::keywords::{select_keywords, KeywordTemperature};
use crate::params::{KEYWORDS_PER_CLASS, K_VALUES, S_VALUES};

/// One bar of Figure 10: a (scale, query, algorithm) cell with its
/// stacked per-phase simulated elapsed time.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Dataset scale name.
    pub scale: &'static str,
    /// Query name.
    pub query: &'static str,
    /// `"SW"` or `"INT"`.
    pub algorithm: &'static str,
    /// Per-phase simulated seconds, in workflow order (the stacked bar).
    pub breakdown: Vec<(String, f64)>,
    /// Total simulated elapsed seconds (the bar height).
    pub total_secs: f64,
    /// Total bytes shuffled (the quantity INT minimizes).
    pub shuffle_bytes: u64,
    /// Real wall-clock seconds of the in-process execution.
    pub wall_secs: f64,
    /// Number of fragments derived.
    pub fragments: usize,
}

/// Runs the Figure 10 grid: both algorithms × the given queries × scales.
pub fn fig10(scales: &[Scale], queries: &[QueryId], cluster: &ClusterConfig) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for &scale in scales {
        let db = dataset(scale);
        for &query in queries {
            let app = application_for(query, &db);
            for (algorithm, name) in [
                (CrawlAlgorithm::Stepwise, "SW"),
                (CrawlAlgorithm::Integrated, "INT"),
            ] {
                let out = dash_core::crawl::run(&app, &db, cluster, algorithm)
                    .expect("crawl succeeds on generated data");
                rows.push(Fig10Row {
                    scale: scale.name(),
                    query: query.name(),
                    algorithm: name,
                    breakdown: out.stats.label_breakdown(),
                    total_secs: out.stats.sim_total_secs(),
                    shuffle_bytes: out.stats.shuffle_bytes(),
                    wall_secs: out.stats.wall_total_secs(),
                    fragments: out.fragments.len(),
                });
            }
        }
    }
    rows
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Query name.
    pub query: &'static str,
    /// Fragment-graph build time, seconds (single machine, as in the
    /// paper).
    pub build_secs: f64,
    /// Number of db-page fragments.
    pub fragments: usize,
    /// Average keywords per fragment.
    pub avg_keywords: f64,
    /// Graph edges (extra diagnostic; not in the paper's table).
    pub edges: usize,
}

/// Runs Table IV for the given scale (the paper uses medium).
pub fn table4(scale: Scale, cluster: &ClusterConfig) -> Vec<Table4Row> {
    let db = dataset(scale);
    QueryId::all()
        .into_iter()
        .map(|query| {
            let app = application_for(query, &db);
            let out = dash_core::crawl::run(&app, &db, cluster, CrawlAlgorithm::Integrated)
                .expect("crawl succeeds on generated data");
            let catalog = dash_core::FragmentCatalog::from_fragments(
                &out.fragments,
                app.query.range_selection_index(),
            )
            .expect("crawl output interns");
            let graph = FragmentGraph::build(&catalog, &[]);
            Table4Row {
                query: query.name(),
                build_secs: graph.build_secs(),
                fragments: graph.node_count(),
                avg_keywords: graph.avg_keywords(&catalog),
                edges: graph.edge_count(),
            }
        })
        .collect()
}

/// One cell of Figure 11: average search latency for a
/// (temperature, s, k) setting.
#[derive(Debug, Clone)]
pub struct Fig11Cell {
    /// Keyword temperature class.
    pub temperature: &'static str,
    /// Size threshold `s`.
    pub s: u64,
    /// Result count `k`.
    pub k: usize,
    /// Average elapsed milliseconds per search.
    pub avg_ms: f64,
    /// Average number of hits actually returned.
    pub avg_hits: f64,
}

/// Builds the one-shard engine Figure 11 measures (Q2 on the given
/// scale — the paper's configuration with `medium`).
pub fn fig11_engine(scale: Scale, cluster: &ClusterConfig) -> ShardedEngine {
    let db = dataset(scale);
    let app = application_for(QueryId::Q2, &db);
    let config = DashConfig {
        cluster: cluster.clone(),
        algorithm: CrawlAlgorithm::Integrated,
        ..DashConfig::default()
    };
    ShardedEngine::builder(app)
        .source(IngestSource::Crawl {
            db: &db,
            config: &config,
        })
        .build()
        .expect("engine builds on generated data")
}

/// Runs the Figure 11 grid against a prebuilt one-shard engine (its
/// one index ranks the keywords).
pub fn fig11(engine: &ShardedEngine) -> Vec<Fig11Cell> {
    let index = engine.shard_indexes().next().expect("one shard");
    let ranked = index.inverted.keywords_by_df();
    let mut cells = Vec::new();
    for temperature in KeywordTemperature::all() {
        let keywords = select_keywords(&ranked, temperature, KEYWORDS_PER_CLASS, 0xF16);
        for &s in &S_VALUES {
            for &k in &K_VALUES {
                let mut total = std::time::Duration::ZERO;
                let mut hits_total = 0usize;
                for kw in &keywords {
                    let request = SearchRequest::new(&[kw.as_str()]).k(k).min_size(s);
                    let start = Instant::now();
                    let hits = engine.search(&request);
                    total += start.elapsed();
                    hits_total += hits.len();
                }
                let n = keywords.len().max(1) as f64;
                cells.push(Fig11Cell {
                    temperature: temperature.name(),
                    s,
                    k,
                    avg_ms: total.as_secs_f64() * 1000.0 / n,
                    avg_hits: hits_total as f64 / n,
                });
            }
        }
    }
    cells
}

/// One row of the fragments-vs-naive ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What is being counted.
    pub metric: &'static str,
    /// Value for Dash's fragment index.
    pub fragment_index: String,
    /// Value for the naive all-pages index.
    pub naive_index: String,
}

/// Compares Dash's fragment index against the naive all-pages baseline on
/// one query (Section IV's motivating argument, quantified).
pub fn ablation(scale: Scale, query: QueryId, max_pages: usize) -> Vec<AblationRow> {
    let db = dataset(scale);
    let app = application_for(query, &db);
    let fragments =
        dash_core::crawl::reference::fragments(&app, &db).expect("reference crawl succeeds");
    let engine = one_shard(&app, &fragments);
    let naive =
        NaiveEngine::from_fragments(app.clone(), &fragments, max_pages).expect("baseline builds");
    let naive_stats = naive.stats();

    let fragment_postings: usize = engine
        .shard_indexes()
        .flat_map(|index| index.inverted.keywords_by_df())
        .map(|(_, df)| df)
        .sum();
    let truncated = if naive_stats.truncated {
        " (capped)"
    } else {
        ""
    };

    vec![
        AblationRow {
            metric: "indexed documents",
            fragment_index: engine.fragment_count().to_string(),
            // Exact whether or not the materialization was capped.
            naive_index: page_count(&app, &fragments).to_string(),
        },
        AblationRow {
            metric: "total postings",
            fragment_index: fragment_postings.to_string(),
            naive_index: format!("{}{truncated}", naive_stats.total_postings),
        },
        AblationRow {
            metric: "indexed keyword occurrences",
            fragment_index: fragments
                .iter()
                .map(|f| f.total_keywords)
                .sum::<u64>()
                .to_string(),
            naive_index: format!("{}{truncated}", naive_stats.total_keywords),
        },
    ]
}

/// A one-shard engine over already-derived fragments.
fn one_shard(app: &WebApplication, fragments: &[Fragment]) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .source(IngestSource::Fragments(fragments))
        .build()
        .expect("engine builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cluster() -> ClusterConfig {
        ClusterConfig::default()
    }

    #[test]
    fn fig10_small_q1_shapes() {
        let rows = fig10(&[Scale::Small], &[QueryId::Q1], &fast_cluster());
        assert_eq!(rows.len(), 2);
        let sw = &rows[0];
        let int = &rows[1];
        assert_eq!(sw.algorithm, "SW");
        assert_eq!(int.algorithm, "INT");
        // Both derive the same fragments.
        assert_eq!(sw.fragments, int.fragments);
        // INT shuffles fewer bytes even when job startup makes it slower
        // on tiny operands.
        assert!(int.shuffle_bytes < sw.shuffle_bytes);
        assert_eq!(sw.breakdown.len(), 3); // SW-Jn, SW-Grp, SW-Idx
        assert_eq!(int.breakdown.len(), 3); // INT-Jn, INT-Ext, INT-Cnsd
    }

    #[test]
    fn table4_reports_all_queries() {
        let rows = table4(Scale::Small, &fast_cluster());
        assert_eq!(rows.len(), 3);
        // Q2 and Q3 share selection attributes → identical fragment
        // counts (the paper's Table IV shows 7,481,097 for both).
        assert_eq!(rows[1].fragments, rows[2].fragments);
        // Q3 joins `part` in, so its fragments carry more keywords.
        assert!(rows[2].avg_keywords > rows[1].avg_keywords);
    }

    #[test]
    fn fig11_latency_grid() {
        let engine = fig11_engine(Scale::Small, &fast_cluster());
        let cells = fig11(&engine);
        assert_eq!(cells.len(), 3 * S_VALUES.len() * K_VALUES.len());
        assert!(cells.iter().all(|c| c.avg_ms >= 0.0));
        // Hot keywords return hits.
        let hot_hits: f64 = cells
            .iter()
            .filter(|c| c.temperature == "hot")
            .map(|c| c.avg_hits)
            .sum();
        assert!(hot_hits > 0.0);
    }

    #[test]
    fn ablation_shows_redundancy() {
        // The naive page space at `Scale::Small`, counted exactly in
        // closed form (`page_count` equals the materialized count below
        // any cap: `baseline::tests`), against the fragment count.
        let db = dataset(Scale::Small);
        let app = application_for(QueryId::Q1, &db);
        let fragments =
            dash_core::crawl::reference::fragments(&app, &db).expect("reference crawl succeeds");
        let docs_frag = one_shard(&app, &fragments).fragment_count();
        let docs_naive = page_count(&app, &fragments);
        assert!(
            docs_naive > docs_frag,
            "{docs_naive} pages, {docs_frag} fragments"
        );
    }
}
