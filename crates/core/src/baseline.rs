//! The naive baseline Dash argues against (Section IV): materialize
//! *every* db-page, index each as an independent document in a
//! conventional inverted file, and search that.
//!
//! For an application with equality groups of `t` range values each, the
//! page space is `Σ_groups t·(t+1)/2` — quadratic where fragments are
//! linear — and the pages overlap massively, so the same record text is
//! indexed over and over. [`NaiveEngine::stats`] quantifies exactly that
//! blow-up; the `ablation` bench plots it against the fragment index.

use std::collections::HashMap;

use dash_relation::Value;
use dash_text::{tf_idf_score, DocStats, InvertedFile};
use dash_webapp::{ParamValues, SelectionBinding, WebApplication};

use crate::crawl::reference;
use crate::fragment::Fragment;
use crate::index::catalog::key_parts;
use crate::search::{SearchHit, SearchRequest};
use crate::Result;

/// Size/redundancy statistics of the naive index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveStats {
    /// Number of materialized db-pages (capped at the configured limit).
    pub pages: usize,
    /// Whether enumeration hit the page cap.
    pub truncated: bool,
    /// Total postings across all inverted lists (the redundancy meter:
    /// each fragment's text is re-indexed once per covering page).
    pub total_postings: usize,
    /// Total keyword occurrences summed over pages.
    pub total_keywords: u64,
}

/// The all-pages baseline engine.
#[derive(Debug)]
pub struct NaiveEngine {
    app: WebApplication,
    pages: Vec<NaivePage>,
    index: InvertedFile<usize>,
    truncated: bool,
}

#[derive(Debug, Clone)]
struct NaivePage {
    params: ParamValues,
    stats: DocStats,
}

impl NaiveEngine {
    /// Materializes every db-page (every equality combination × every
    /// range interval), up to `max_pages`, and indexes them.
    ///
    /// # Errors
    ///
    /// Propagates crawl errors from the reference fragment derivation.
    pub fn build(
        app: &WebApplication,
        db: &dash_relation::Database,
        max_pages: usize,
    ) -> Result<Self> {
        let fragments = reference::fragments(app, db)?;
        Self::from_fragments(app.clone(), &fragments, max_pages)
    }

    /// Builds the baseline from fragments (page = contiguous fragment
    /// run, same as Dash's assembly — so both engines see identical page
    /// contents and results are comparable).
    ///
    /// # Errors
    ///
    /// Never fails today; kept fallible for parity with engine builds.
    pub fn from_fragments(
        app: WebApplication,
        fragments: &[Fragment],
        max_pages: usize,
    ) -> Result<Self> {
        let range_pos = app.query.range_selection_index();
        // Group fragments by equality prefix.
        let mut groups: HashMap<Vec<Value>, Vec<&Fragment>> = HashMap::new();
        for f in fragments {
            let (head, tail) = key_parts(f.id.values(), range_pos);
            groups.entry([head, tail].concat()).or_default().push(f);
        }
        let mut group_list: Vec<(Vec<Value>, Vec<&Fragment>)> = groups.into_iter().collect();
        group_list.sort_by(|a, b| a.0.cmp(&b.0));

        let mut pages = Vec::new();
        let mut truncated = false;
        'outer: for (_key, mut members) in group_list {
            if let Some(pos) = range_pos {
                members.sort_by(|a, b| a.id.values()[pos].cmp(&b.id.values()[pos]));
            }
            let t = members.len();
            for lo in 0..t {
                // All-equality queries have exactly one page per group.
                let his = match range_pos {
                    Some(_) => (lo..t).collect::<Vec<_>>(),
                    None => vec![lo],
                };
                for hi in his {
                    if pages.len() >= max_pages {
                        truncated = true;
                        break 'outer;
                    }
                    let mut stats = DocStats::default();
                    for f in &members[lo..=hi] {
                        for (w, &n) in &f.keyword_occurrences {
                            *stats.occurrences.entry(w.clone()).or_insert(0) += n;
                        }
                        stats.total_keywords += f.total_keywords;
                    }
                    let params = page_params(&app, members[lo], members[hi], range_pos);
                    pages.push(NaivePage { params, stats });
                }
            }
        }

        let mut index: InvertedFile<usize> = InvertedFile::new();
        for (i, page) in pages.iter().enumerate() {
            // Re-expand the occurrence map into a token stream equivalent.
            let mut tokens: Vec<String> = Vec::new();
            for (w, &n) in &page.stats.occurrences {
                for _ in 0..n {
                    tokens.push(w.clone());
                }
            }
            index.add_document(i, &tokens);
        }
        index.finalize();

        Ok(NaiveEngine {
            app,
            pages,
            index,
            truncated,
        })
    }

    /// Conventional TF/IDF top-k over whole pages.
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        let mut idf: HashMap<String, f64> = HashMap::new();
        for w in &request.keywords {
            idf.insert(w.clone(), self.index.idf(w));
        }
        let mut scored: Vec<(usize, f64)> = self
            .pages
            .iter()
            .enumerate()
            .map(|(i, p)| (i, tf_idf_score(&p.stats, &request.keywords, &idf)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(request.k)
            .filter_map(|(i, score)| {
                let page = &self.pages[i];
                let qs = self.app.reverse_query_string(&page.params).ok()?;
                Some(SearchHit {
                    url: self.app.render_suggestion(&qs.to_string()),
                    query_string: qs.to_string(),
                    score,
                    size: page.stats.total_keywords,
                    fragment_ids: Vec::new(),
                })
            })
            .collect()
    }

    /// Redundancy statistics (the motivation for fragments).
    pub fn stats(&self) -> NaiveStats {
        NaiveStats {
            pages: self.pages.len(),
            truncated: self.truncated,
            total_postings: self.index.iter().map(|(_, list)| list.len()).sum(),
            total_keywords: self.pages.iter().map(|p| p.stats.total_keywords).sum(),
        }
    }
}

/// How many db-pages the naive baseline would materialize for
/// `fragments`, uncapped, in closed form: an equality group of `t`
/// fragments has `t·(t+1)/2` range intervals, or `t` single-fragment
/// pages when the query has no range attribute. Equal to
/// [`NaiveEngine::stats`]' `pages` whenever the build was not capped
/// (tested), without materializing one page.
pub fn page_count(app: &WebApplication, fragments: &[Fragment]) -> usize {
    let range_pos = app.query.range_selection_index();
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    for f in fragments {
        let (head, tail) = key_parts(f.id.values(), range_pos);
        *groups.entry([head, tail].concat()).or_default() += 1;
    }
    groups
        .values()
        .map(|&t| match range_pos {
            Some(_) => t * (t + 1) / 2,
            None => t,
        })
        .sum()
}

fn page_params(
    app: &WebApplication,
    lo: &Fragment,
    hi: &Fragment,
    range_pos: Option<usize>,
) -> ParamValues {
    let mut params = ParamValues::new();
    for (i, sel) in app.query.selections.iter().enumerate() {
        match &sel.binding {
            SelectionBinding::EqParam(p) => {
                params.insert(p.clone(), lo.id.values()[i].clone());
            }
            SelectionBinding::EqConst(_) => {}
            SelectionBinding::RangeParams { low, high } => {
                let pos = range_pos.expect("range binding implies range position");
                params.insert(low.clone(), lo.id.values()[pos].clone());
                params.insert(high.clone(), hi.id.values()[pos].clone());
            }
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_webapp::fooddb;

    fn engine() -> NaiveEngine {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        NaiveEngine::build(&app, &db, 10_000).unwrap()
    }

    #[test]
    fn enumerates_quadratically_many_pages() {
        let e = engine();
        // American group: 4 fragments → 10 intervals; Thai: 1 → 1.
        assert_eq!(e.stats().pages, 11);
        assert!(!e.stats().truncated);
    }

    #[test]
    fn closed_form_page_count_matches_the_materialized_pages() {
        // fooddb, and micro TPC-H Q1 (the ablation's query).
        let mut corpora = vec![(
            "fooddb",
            fooddb::search_application().unwrap(),
            fooddb::database(),
        )];
        let mut config = dash_tpch::TpchConfig::new(dash_tpch::Scale::Custom(1));
        config.base_customers = 50;
        config.base_parts = 50;
        let db = dash_tpch::generate(&config);
        corpora.push(("tpch Q1", dash_tpch::q1_application(&db).unwrap(), db));
        for (label, app, db) in corpora {
            let fragments = reference::fragments(&app, &db).unwrap();
            let naive = NaiveEngine::from_fragments(app.clone(), &fragments, 200_000).unwrap();
            let stats = naive.stats();
            assert!(!stats.truncated, "{label}: below the cap");
            assert_eq!(page_count(&app, &fragments), stats.pages, "{label}");
            assert!(stats.pages > fragments.len(), "{label}: redundancy");
        }
    }

    #[test]
    fn page_cap_truncates() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let e = NaiveEngine::build(&app, &db, 3).unwrap();
        assert_eq!(e.stats().pages, 3);
        assert!(e.stats().truncated);
    }

    #[test]
    fn redundancy_exceeds_fragment_postings() {
        // The same "burger" text is indexed in every covering page: the
        // naive index has strictly more postings than fragments exist.
        let e = engine();
        let stats = e.stats();
        assert!(
            stats.total_postings > 5,
            "postings: {}",
            stats.total_postings
        );
        // df("burger") counts covering pages, not fragments (3 fragments
        // but many more pages contain the word).
        assert!(e.index.df("burger") > 3);
    }

    #[test]
    fn search_returns_overlapping_pages() {
        // The P1/P2 redundancy problem from Example 1: multiple pages
        // containing the same "burger" rows all rank.
        let e = engine();
        let hits = e.search(&SearchRequest::new(&["burger"]).k(10));
        assert!(
            hits.len() > 2,
            "expected redundant hits, got {}",
            hits.len()
        );
        // Dash with the same request returns at most one page per
        // disjoint region — see search::topk tests.
    }

    #[test]
    fn urls_are_well_formed() {
        let e = engine();
        let hits = e.search(&SearchRequest::new(&["coffee"]).k(1));
        assert!(!hits.is_empty());
        assert!(hits[0].url.starts_with("www.example.com/Search?c="));
    }
}
