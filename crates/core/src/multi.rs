//! Multiple web applications over one database — the paper's second
//! future-work item (Section VIII): "multiple web applications would
//! derive db-pages based on some common contents from a database … a new
//! approach is demanded to eliminate duplicate contents of db-pages from
//! different web applications".
//!
//! [`MultiDash`] builds one fragment index per application but (a)
//! reports how much fragment *content* the applications share, and (b)
//! searches all applications at once, suppressing result pages whose
//! content signature duplicates a higher-ranked page from another
//! application.
//!
//! Each application is served by a [`ShardedEngine`] partitioned into
//! the same number of shards — multi-application scoping composes with
//! sharding without the merge layer knowing: each engine answers
//! exactly as it would at one shard.

use std::collections::{BTreeMap, HashMap};

use dash_mapreduce::ClusterConfig;
use dash_relation::Database;
use dash_webapp::WebApplication;

use crate::crawl::{self, CrawlAlgorithm};
use crate::fragment::{Fragment, FragmentId};
use crate::ingest::IngestSource;
use crate::search::{SearchHit, SearchRequest};
use crate::sharded::ShardedEngine;
use crate::Result;

/// Cross-application content-sharing statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharingStats {
    /// Total fragments across all applications.
    pub total_fragments: usize,
    /// Distinct fragment *contents* (keyword multiset signatures).
    pub distinct_contents: usize,
    /// Fragments whose content also appears under another application.
    pub shared_fragments: usize,
}

/// A search hit attributed to the application that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHit {
    /// Index into the application list.
    pub app_index: usize,
    /// Application name.
    pub app_name: String,
    /// The underlying hit.
    pub hit: SearchHit,
}

/// A federation of Dash engines over one database, one
/// [`ShardedEngine`] per application.
#[derive(Debug)]
pub struct MultiDash {
    engines: Vec<ShardedEngine>,
    /// Per application: fragment id → content signature.
    signatures: Vec<HashMap<FragmentId, u64>>,
    stats: SharingStats,
}

impl MultiDash {
    /// Crawls every application (all with the same algorithm and
    /// cluster), computes content-sharing statistics, and indexes each
    /// application's fragments into a [`ShardedEngine`] of `shards`
    /// shards. Per-application results are byte-identical to a
    /// single-index build for any shard count, so the federated
    /// results are too.
    ///
    /// # Errors
    ///
    /// Propagates per-application crawl and build errors.
    pub fn build(
        apps: &[WebApplication],
        db: &Database,
        cluster: &ClusterConfig,
        algorithm: CrawlAlgorithm,
        shards: usize,
    ) -> Result<Self> {
        let mut engines = Vec::with_capacity(apps.len());
        let mut signatures = Vec::with_capacity(apps.len());
        let mut content_owners: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut total_fragments = 0usize;

        for (i, app) in apps.iter().enumerate() {
            let crawl = crawl::run(app, db, cluster, algorithm)?;
            let mut sig_map = HashMap::with_capacity(crawl.fragments.len());
            for f in &crawl.fragments {
                let sig = content_signature(f);
                sig_map.insert(f.id.clone(), sig);
                content_owners.entry(sig).or_default().push(i);
            }
            total_fragments += crawl.fragments.len();
            engines.push(
                ShardedEngine::builder(app.clone())
                    .shards(shards)
                    .stats(crawl.stats)
                    .source(IngestSource::Fragments(&crawl.fragments))
                    .build()?,
            );
            signatures.push(sig_map);
        }

        let distinct_contents = content_owners.len();
        let shared_fragments = content_owners
            .values()
            .filter(|owners| owners.iter().any(|&o| o != owners[0]))
            .map(Vec::len)
            .sum();

        Ok(MultiDash {
            engines,
            signatures,
            stats: SharingStats {
                total_fragments,
                distinct_contents,
                shared_fragments,
            },
        })
    }

    /// The per-application engines.
    pub fn engines(&self) -> &[ShardedEngine] {
        &self.engines
    }

    /// Content-sharing statistics.
    pub fn stats(&self) -> SharingStats {
        self.stats
    }

    /// Federated top-k: searches every application, merges by score, and
    /// drops pages whose fragment-content signature multiset duplicates a
    /// higher-ranked page (the cross-application duplicate elimination
    /// the paper calls for).
    pub fn search(&self, request: &SearchRequest) -> Vec<MultiHit> {
        let per_app: Vec<Vec<SearchHit>> = self.engines.iter().map(|e| e.search(request)).collect();
        self.merge(request, per_app)
    }

    /// Batched federated top-k: answers every request, using each
    /// engine's scratch-pooled [`ShardedEngine::search_many`] underneath.
    /// Results are position-aligned with `requests`; each equals the
    /// corresponding [`MultiDash::search`] call.
    pub fn search_many(&self, requests: &[SearchRequest]) -> Vec<Vec<MultiHit>> {
        // The per-application batches are independent — run them on
        // worker threads.
        let mut per_engine: Vec<Vec<Vec<SearchHit>>> =
            crate::par::map(self.engines.iter().collect(), |engine: &ShardedEngine| {
                engine.search_many(requests)
            });
        requests
            .iter()
            .enumerate()
            .map(|(r, request)| {
                let per_app: Vec<Vec<SearchHit>> = per_engine
                    .iter_mut()
                    .map(|engine_hits| std::mem::take(&mut engine_hits[r]))
                    .collect();
                self.merge(request, per_app)
            })
            .collect()
    }

    /// Merges per-application hit lists: sort by score, attribute to
    /// applications, and drop content-signature duplicates.
    fn merge(&self, request: &SearchRequest, per_app: Vec<Vec<SearchHit>>) -> Vec<MultiHit> {
        let mut all: Vec<MultiHit> = Vec::new();
        for (i, (engine, hits)) in self.engines.iter().zip(per_app).enumerate() {
            for hit in hits {
                all.push(MultiHit {
                    app_index: i,
                    app_name: engine.app().name.clone(),
                    hit,
                });
            }
        }
        all.sort_by(|a, b| {
            b.hit
                .score
                .partial_cmp(&a.hit.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.app_index.cmp(&b.app_index))
        });

        let mut seen_contents: Vec<Vec<u64>> = Vec::new();
        let mut out = Vec::new();
        for mh in all {
            let mut sig: Vec<u64> = mh
                .hit
                .fragment_ids
                .iter()
                .filter_map(|id| self.signatures[mh.app_index].get(id).copied())
                .collect();
            sig.sort_unstable();
            if seen_contents.contains(&sig) {
                continue; // duplicate content from another application
            }
            seen_contents.push(sig);
            out.push(mh);
            if out.len() >= request.k {
                break;
            }
        }
        out
    }
}

/// A deterministic signature of a fragment's *content* (keyword multiset),
/// independent of its identifier — two applications exposing the same
/// records produce the same signature.
fn content_signature(f: &Fragment) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (w, n) in &f.keyword_occurrences {
        w.hash(&mut h);
        n.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DashConfig;
    use dash_webapp::fooddb;

    /// A second application over fooddb with the same query shape but a
    /// different URI/field naming — its db-pages duplicate Search's.
    const MIRROR_SERVLET: &str = r#"
servlet Mirror at "www.mirror.example/Find" {
    String kind = q.getParameter("kind");
    String lo = q.getParameter("lo");
    String hi = q.getParameter("hi");
    Query = "SELECT name, budget, rate, comment, uname, date "
          + "FROM (restaurant LEFT JOIN comment) JOIN customer "
          + "WHERE (cuisine = \"" + kind + "\") "
          + "AND (budget BETWEEN " + lo + " AND " + hi + ")";
    output(execute(Query));
}
"#;

    fn federation(shards: usize) -> MultiDash {
        let db = fooddb::database();
        let search = fooddb::search_application().unwrap();
        let mirror = WebApplication::from_servlet_source(MIRROR_SERVLET, &db).unwrap();
        MultiDash::build(
            &[search, mirror],
            &db,
            &ClusterConfig::default(),
            CrawlAlgorithm::Integrated,
            shards,
        )
        .unwrap()
    }

    #[test]
    fn sharing_stats_detect_full_overlap() {
        let multi = federation(1);
        let stats = multi.stats();
        assert_eq!(stats.total_fragments, 10); // 5 per application
        assert_eq!(stats.distinct_contents, 5); // fully shared
        assert_eq!(stats.shared_fragments, 10);
    }

    #[test]
    fn federated_search_deduplicates_content() {
        let multi = federation(1);
        let hits = multi.search(&SearchRequest::new(&["burger"]).k(4).min_size(20));
        // Without dedup both apps would return the same two pages (four
        // hits); dedup keeps one copy of each content.
        assert_eq!(hits.len(), 2);
        // Both surviving hits come from the first (higher-priority) app.
        assert!(hits.iter().all(|h| h.app_index == 0));
    }

    #[test]
    fn search_many_matches_search() {
        let multi = federation(1);
        let requests = vec![
            SearchRequest::new(&["burger"]).k(4).min_size(20),
            SearchRequest::new(&["thai"]).k(2).min_size(1),
        ];
        let batch = multi.search_many(&requests);
        assert_eq!(batch.len(), 2);
        for (request, hits) in requests.iter().zip(&batch) {
            assert_eq!(hits, &multi.search(request));
        }
    }

    #[test]
    fn sharded_federation_matches_single_index_federation() {
        // Multi-application scoping composes with sharding: the
        // federated results at 2 and 4 shards are byte-identical to the
        // one-shard federation, whose engines each answer exactly as a
        // standalone one-shard engine built from its own crawl.
        let single = federation(1);
        let requests = vec![
            SearchRequest::new(&["burger"]).k(4).min_size(20),
            SearchRequest::new(&["thai"]).k(2).min_size(1),
            SearchRequest::new(&["fries", "burger"]).k(3).min_size(5),
        ];
        let db = fooddb::database();
        for engine in single.engines() {
            let config = DashConfig {
                algorithm: CrawlAlgorithm::Integrated,
                ..DashConfig::default()
            };
            let oracle = ShardedEngine::builder(engine.app().clone())
                .source(IngestSource::Crawl {
                    db: &db,
                    config: &config,
                })
                .build()
                .unwrap();
            assert_eq!(engine.fragment_count(), oracle.fragment_count());
            for request in &requests {
                assert_eq!(
                    engine.search(request),
                    oracle.search(request),
                    "app={} keywords={:?}",
                    engine.app().name,
                    request.keywords
                );
            }
            assert_eq!(engine.search_many(&requests), oracle.search_many(&requests));
        }
        for shards in [2usize, 4] {
            let sharded = federation(shards);
            assert_eq!(sharded.stats(), single.stats());
            assert_eq!(
                sharded.engines().iter().map(|e| e.shard_count()).max(),
                Some(shards)
            );
            for request in &requests {
                assert_eq!(
                    sharded.search(request),
                    single.search(request),
                    "shards={shards} keywords={:?}",
                    request.keywords
                );
            }
            assert_eq!(
                sharded.search_many(&requests),
                single.search_many(&requests)
            );
        }
    }

    #[test]
    fn engines_are_independently_searchable() {
        let multi = federation(1);
        for engine in multi.engines() {
            let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
            assert_eq!(hits.len(), 2);
        }
        // Mirror's URLs use its own base URI and field names.
        let mirror_hits =
            multi.engines()[1].search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
        assert!(mirror_hits[0]
            .url
            .starts_with("www.mirror.example/Find?kind="));
    }
}
