//! Golden-equivalence tests for the handle-native search path.
//!
//! The columnar index (interned `Frag` handles, arena posting lists,
//! group-id candidates) must return **byte-identical** `SearchHit` lists
//! to the seed implementation, which keyed everything on
//! `FragmentId = Vec<Value>`. The seed's Algorithm 1 is preserved below
//! as a test-local reference (`seed_reference`), built straight from raw
//! fragments with the original `HashMap`/`BTreeMap` structures — any
//! behavioral drift in the optimized path shows up as a diff against it.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

use dash::core::crawl::reference;
use dash::core::{
    DashConfig, DashEngine, Fragment, FragmentId, IngestSource, SearchHit, SearchRequest,
    ShardedEngine,
};
use dash::mapreduce::WorkflowStats;
use dash::relation::Database;
use dash::webapp::{fooddb, WebApplication};
use dash_tpch::{generate, Scale, TpchConfig};
use proptest::prelude::*;

/// The seed's top-k search, verbatim semantics: value-vector group keys,
/// per-keyword occurrence hash maps, allocating candidates.
mod seed_reference {
    use super::*;
    use dash::relation::Value;
    use dash::webapp::{ParamValues, SelectionBinding};
    use std::collections::{BTreeMap, BinaryHeap, HashSet};

    struct Node {
        id: FragmentId,
        total_keywords: u64,
    }

    pub struct SeedIndex {
        groups: BTreeMap<Vec<Value>, Vec<Node>>,
        maps: HashMap<String, HashMap<FragmentId, u64>>,
        postings: HashMap<String, Vec<(FragmentId, u64, u64)>>, // (id, occ, doc_len), TF-sorted
        range_position: Option<usize>,
    }

    pub fn build(fragments: &[Fragment], range_position: Option<usize>) -> SeedIndex {
        let mut groups: BTreeMap<Vec<Value>, Vec<Node>> = BTreeMap::new();
        let mut maps: HashMap<String, HashMap<FragmentId, u64>> = HashMap::new();
        let mut postings: HashMap<String, Vec<(FragmentId, u64, u64)>> = HashMap::new();
        for f in fragments {
            let key = match range_position {
                Some(pos) => f.id.without(pos),
                None => f.id.values().to_vec(),
            };
            groups.entry(key).or_default().push(Node {
                id: f.id.clone(),
                total_keywords: f.total_keywords,
            });
            for (word, &occ) in &f.keyword_occurrences {
                maps.entry(word.clone())
                    .or_default()
                    .insert(f.id.clone(), occ);
                postings.entry(word.clone()).or_default().push((
                    f.id.clone(),
                    occ,
                    f.total_keywords,
                ));
            }
        }
        if let Some(pos) = range_position {
            for nodes in groups.values_mut() {
                nodes.sort_by(|a, b| a.id.values()[pos].cmp(&b.id.values()[pos]));
            }
        }
        let tf = |occ: u64, len: u64| {
            if len == 0 {
                0.0
            } else {
                occ as f64 / len as f64
            }
        };
        for list in postings.values_mut() {
            list.sort_by(|a, b| {
                tf(b.1, b.2)
                    .partial_cmp(&tf(a.1, a.2))
                    .expect("finite TF")
                    .then_with(|| a.0.cmp(&b.0))
            });
        }
        SeedIndex {
            groups,
            maps,
            postings,
            range_position,
        }
    }

    #[derive(Debug, Clone)]
    struct Candidate {
        group: Vec<Value>,
        lo: usize,
        hi: usize,
        occurrences: Vec<u64>,
        total_keywords: u64,
        score: f64,
    }

    impl PartialEq for Candidate {
        fn eq(&self, other: &Self) -> bool {
            self.score == other.score
        }
    }
    impl Eq for Candidate {}
    impl PartialOrd for Candidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Candidate {
        fn cmp(&self, other: &Self) -> Ordering {
            self.score
                .partial_cmp(&other.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| (other.hi - other.lo).cmp(&(self.hi - self.lo)))
                .then_with(|| other.group.cmp(&self.group))
                .then_with(|| other.lo.cmp(&self.lo))
        }
    }

    fn score_of(occurrences: &[u64], total_keywords: u64, idf: &[f64]) -> f64 {
        if total_keywords == 0 {
            return 0.0;
        }
        occurrences
            .iter()
            .zip(idf)
            .map(|(&occ, &idf_w)| (occ as f64 / total_keywords as f64) * idf_w)
            .sum()
    }

    pub fn top_k(
        app: &WebApplication,
        index: &SeedIndex,
        request: &SearchRequest,
    ) -> Vec<SearchHit> {
        if request.k == 0 || request.keywords.is_empty() {
            return Vec::new();
        }
        let idf: Vec<f64> = request
            .keywords
            .iter()
            .map(|w| match index.postings.get(w).map_or(0, Vec::len) {
                0 => 0.0,
                n => 1.0 / n as f64,
            })
            .collect();
        let empty_map: HashMap<FragmentId, u64> = HashMap::new();
        let occurrence_maps: Vec<&HashMap<FragmentId, u64>> = request
            .keywords
            .iter()
            .map(|w| index.maps.get(w).unwrap_or(&empty_map))
            .collect();
        let empty_list: Vec<(FragmentId, u64, u64)> = Vec::new();
        let postings: Vec<&[(FragmentId, u64, u64)]> = request
            .keywords
            .iter()
            .map(|w| index.postings.get(w).unwrap_or(&empty_list).as_slice())
            .collect();
        let tf = |p: &(FragmentId, u64, u64)| {
            if p.2 == 0 {
                0.0
            } else {
                p.1 as f64 / p.2 as f64
            }
        };
        let locate = |id: &FragmentId| -> Option<(Vec<Value>, usize)> {
            let key = match index.range_position {
                Some(pos) => id.without(pos),
                None => id.values().to_vec(),
            };
            let nodes = index.groups.get(&key)?;
            let position = nodes.iter().position(|n| n.id == *id)?;
            Some((key, position))
        };

        let mut cursors: Vec<usize> = vec![0; postings.len()];
        let mut seeded: HashSet<FragmentId> = HashSet::new();
        let mut queue: BinaryHeap<Candidate> = BinaryHeap::new();

        let frontier_bound = |cursors: &[usize]| -> f64 {
            postings
                .iter()
                .zip(cursors)
                .zip(&idf)
                .map(|((list, &cur), &idf_w)| list.get(cur).map_or(0.0, |p| tf(p) * idf_w))
                .sum()
        };
        let seed_one = |cursors: &mut Vec<usize>,
                        seeded: &mut HashSet<FragmentId>,
                        queue: &mut BinaryHeap<Candidate>|
         -> bool {
            loop {
                let mut best: Option<(usize, f64)> = None;
                for (w, ((list, &cur), &idf_w)) in
                    postings.iter().zip(cursors.iter()).zip(&idf).enumerate()
                {
                    if let Some(p) = list.get(cur) {
                        let bound = tf(p) * idf_w;
                        if best.is_none_or(|(_, b)| bound > b) {
                            best = Some((w, bound));
                        }
                    }
                }
                let Some((w, _)) = best else {
                    return false;
                };
                let posting = &postings[w][cursors[w]];
                cursors[w] += 1;
                if !seeded.insert(posting.0.clone()) {
                    continue;
                }
                let Some((group, position)) = locate(&posting.0) else {
                    continue;
                };
                let occurrences: Vec<u64> = occurrence_maps
                    .iter()
                    .map(|m| m.get(&posting.0).copied().unwrap_or(0))
                    .collect();
                let total_keywords = posting.2;
                let score = score_of(&occurrences, total_keywords, &idf);
                queue.push(Candidate {
                    group,
                    lo: position,
                    hi: position,
                    occurrences,
                    total_keywords,
                    score,
                });
                return true;
            }
        };

        let mut absorbed: HashSet<(Vec<Value>, usize)> = HashSet::new();
        let mut output_intervals: HashMap<Vec<Value>, Vec<(usize, usize)>> = HashMap::new();
        let mut output: Vec<SearchHit> = Vec::new();

        loop {
            while queue
                .peek()
                .is_none_or(|head| head.score < frontier_bound(&cursors))
            {
                if !seed_one(&mut cursors, &mut seeded, &mut queue) {
                    break;
                }
            }
            let Some(candidate) = queue.pop() else {
                break;
            };
            if output.len() >= request.k {
                break;
            }
            if candidate.lo == candidate.hi
                && absorbed.contains(&(candidate.group.clone(), candidate.lo))
            {
                continue;
            }
            if let Some(intervals) = output_intervals.get(&candidate.group) {
                if intervals
                    .iter()
                    .any(|&(lo, hi)| candidate.lo <= hi && lo <= candidate.hi)
                {
                    continue;
                }
            }

            let group_nodes = &index.groups[&candidate.group];
            let can_grow_left = candidate.lo > 0;
            let can_grow_right = candidate.hi + 1 < group_nodes.len();
            let expandable =
                candidate.total_keywords < request.min_size && (can_grow_left || can_grow_right);

            if !expandable {
                if let Some(hit) = to_hit(app, index, &candidate, group_nodes) {
                    output_intervals
                        .entry(candidate.group.clone())
                        .or_default()
                        .push((candidate.lo, candidate.hi));
                    output.push(hit);
                }
                continue;
            }

            let neighbor_relevance = |pos: usize| -> u64 {
                let id = &group_nodes[pos].id;
                occurrence_maps
                    .iter()
                    .map(|m| m.get(id).copied().unwrap_or(0))
                    .sum()
            };
            let go_left = match (can_grow_left, can_grow_right) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => {
                    neighbor_relevance(candidate.lo - 1) > neighbor_relevance(candidate.hi + 1)
                }
                (false, false) => unreachable!("expandable implies a neighbor"),
            };
            let new_pos = if go_left {
                candidate.lo - 1
            } else {
                candidate.hi + 1
            };
            let neighbor = &group_nodes[new_pos];
            let mut expanded = candidate.clone();
            if go_left {
                expanded.lo = new_pos;
            } else {
                expanded.hi = new_pos;
            }
            for (i, m) in occurrence_maps.iter().enumerate() {
                expanded.occurrences[i] += m.get(&neighbor.id).copied().unwrap_or(0);
            }
            expanded.total_keywords += neighbor.total_keywords;
            expanded.score = score_of(&expanded.occurrences, expanded.total_keywords, &idf);
            absorbed.insert((candidate.group.clone(), new_pos));
            queue.push(expanded);
        }

        output
    }

    fn to_hit(
        app: &WebApplication,
        index: &SeedIndex,
        candidate: &Candidate,
        group_nodes: &[Node],
    ) -> Option<SearchHit> {
        let range_pos = index.range_position;
        let mut params = ParamValues::new();
        let mut group_iter = candidate.group.iter();
        for (i, sel) in app.query.selections.iter().enumerate() {
            match (&sel.binding, range_pos) {
                (SelectionBinding::RangeParams { low, high }, Some(pos)) if pos == i => {
                    let lo_val = group_nodes[candidate.lo].id.values()[pos].clone();
                    let hi_val = group_nodes[candidate.hi].id.values()[pos].clone();
                    params.insert(low.clone(), lo_val);
                    params.insert(high.clone(), hi_val);
                }
                (SelectionBinding::EqParam(p), _) => {
                    let value = group_iter.next()?.clone();
                    params.insert(p.clone(), value);
                }
                (SelectionBinding::EqConst(_), _) => {
                    let _ = group_iter.next()?;
                }
                (SelectionBinding::RangeParams { .. }, _) => return None,
            }
        }
        let query_string = app.reverse_query_string(&params).ok()?;
        let url = app.render_suggestion(&query_string.to_string());
        Some(SearchHit {
            url,
            query_string: query_string.to_string(),
            score: candidate.score,
            size: candidate.total_keywords,
            fragment_ids: group_nodes[candidate.lo..=candidate.hi]
                .iter()
                .map(|n| n.id.clone())
                .collect(),
        })
    }
}

fn assert_golden(app: &WebApplication, db: &Database, keywords: &[String]) {
    let fragments = reference::fragments(app, db).unwrap();
    let seed_index = seed_reference::build(&fragments, app.query.range_selection_index());
    let engine = DashEngine::build(app, db, &DashConfig::default()).unwrap();
    for word in keywords {
        for s in [1u64, 10, 100, 1000] {
            for k in [1usize, 2, 5, 10] {
                let request = SearchRequest::new(&[word.as_str()]).k(k).min_size(s);
                let handle_hits = engine.search(&request);
                let seed_hits = seed_reference::top_k(app, &seed_index, &request);
                assert_eq!(
                    handle_hits, seed_hits,
                    "divergence for keyword={word} s={s} k={k}"
                );
            }
        }
    }
    // Multi-keyword requests exercise the occurrence pool rows.
    if keywords.len() >= 2 {
        let pair = [keywords[0].as_str(), keywords[1].as_str()];
        for s in [1u64, 100] {
            let request = SearchRequest::new(&pair).k(10).min_size(s);
            assert_eq!(
                engine.search(&request),
                seed_reference::top_k(app, &seed_index, &request),
                "divergence for pair {pair:?} s={s}"
            );
        }
    }
}

/// Keyword picks per temperature class: hottest, middle and coldest of
/// the df ranking, plus an unknown keyword.
fn temperature_keywords(engine: &DashEngine) -> Vec<String> {
    let ranked = engine.index().inverted.keywords_by_df();
    let n = ranked.len();
    let mut picks: Vec<String> = Vec::new();
    for idx in [0, 1, n / 2, n / 2 + 1, n - 2, n - 1] {
        if idx < n {
            picks.push(ranked[idx].0.to_string());
        }
    }
    picks.push("zzz-unknown-keyword".to_string());
    picks.dedup();
    picks
}

#[test]
fn fooddb_matches_seed_search_exactly() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let keywords: Vec<String> = ["burger", "fries", "coffee", "thai", "american", "nice"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_golden(&app, &db, &keywords);
}

#[test]
fn fooddb_example_7_exact_hits() {
    // The paper's Example 7, pinned: both engines must produce these two
    // URLs for burger, k=2, s=20.
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
    let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
    let urls: Vec<&str> = hits.iter().map(|h| h.url.as_str()).collect();
    assert!(urls.contains(&"www.example.com/Search?c=American&l=10&u=12"));
    assert!(urls.contains(&"www.example.com/Search?c=Thai&l=10&u=10"));
}

fn small_tpch() -> Database {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 60;
    config.base_parts = 80;
    generate(&config)
}

#[test]
fn tpch_q2_matches_seed_search_across_temperatures() {
    let db = small_tpch();
    let app = dash_tpch::q2_application(&db).unwrap();
    let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
    let keywords = temperature_keywords(&engine);
    assert_golden(&app, &db, &keywords);
}

#[test]
fn catalog_roundtrips_every_fragment() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, &db).unwrap();
    let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
    let catalog = &engine.index().catalog;
    assert_eq!(catalog.len(), fragments.len());
    for f in &fragments {
        let frag = catalog.frag(&f.id).expect("interned");
        assert_eq!(catalog.id(frag), f.id, "id → handle → id roundtrip");
        assert_eq!(catalog.total_keywords(frag), f.total_keywords);
        assert_eq!(catalog.record_count(frag), f.record_count);
    }
}

/// One corpus of the random-request tier: the application, the seed
/// oracle's index, the single engine and sharded engines at 1, 2 and 4
/// shards, and the keyword pool requests draw from.
struct Corpus {
    app: WebApplication,
    oracle: seed_reference::SeedIndex,
    single: DashEngine,
    sharded: Vec<ShardedEngine>,
    pool: Vec<String>,
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn corpus(app: WebApplication, db: &Database) -> Corpus {
    let fragments = reference::fragments(&app, db).unwrap();
    let single = DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).unwrap();
    // Hot, middle and cold keywords: a cold one (df 1) lives in one
    // shard and is absent from every other, and an unknown one from all.
    let ranked = single.index().inverted.keywords_by_df();
    let n = ranked.len();
    let mut pool: Vec<String> = [0, 1, 2, n / 3, n / 2, n / 2 + 1, n - 2, n - 1]
        .iter()
        .map(|&at| ranked[at.min(n - 1)].0.to_string())
        .collect();
    assert_eq!(
        ranked[n - 1].1,
        1,
        "the coldest keyword sits in one fragment"
    );
    pool.push("zzz-unknown-keyword".to_string());
    Corpus {
        oracle: seed_reference::build(&fragments, app.query.range_selection_index()),
        sharded: SHARD_COUNTS
            .iter()
            .map(|&shards| {
                ShardedEngine::builder(app.clone())
                    .shards(shards)
                    .source(IngestSource::Fragments(&fragments))
                    .build()
                    .unwrap()
            })
            .collect(),
        single,
        pool,
        app,
    }
}

fn corpora() -> &'static [Corpus; 2] {
    static CORPORA: OnceLock<[Corpus; 2]> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let tpch = small_tpch();
        [
            corpus(fooddb::search_application().unwrap(), &fooddb::database()),
            corpus(dash_tpch::q2_application(&tpch).unwrap(), &tpch),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random 1–4-keyword requests — repeats, shard-local and unknown
    /// keywords included — at every `k`, `s` and shard count: the
    /// single and sharded engines return the seed oracle's hits byte
    /// for byte.
    #[test]
    fn random_requests_match_seed_search_at_every_shard_count(
        which in 0usize..2,
        picks in prop::collection::vec(0usize..9, 1..5),
        repeat in any::<bool>(),
        k in prop::sample::select(vec![1usize, 10, 40]),
        s in prop::sample::select(vec![1u64, 20, 100]),
        shards in 0usize..SHARD_COUNTS.len(),
    ) {
        let corpus = &corpora()[which];
        let mut keywords: Vec<&str> = picks.iter().map(|&at| corpus.pool[at].as_str()).collect();
        if repeat && keywords.len() < 4 {
            keywords.push(keywords[0]);
        }
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let expected = seed_reference::top_k(&corpus.app, &corpus.oracle, &request);
        let case = format!("corpus={which} {keywords:?} k={k} s={s} shards={}", SHARD_COUNTS[shards]);
        prop_assert_eq!(corpus.single.search(&request), expected.clone(), "{}", case);
        prop_assert_eq!(corpus.sharded[shards].search(&request), expected, "{}", case);
    }
}
