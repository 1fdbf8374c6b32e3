//! The one search reference of every tier: the seed's Algorithm 1,
//! built straight from raw fragments with the seed's own structures —
//! value-vector group keys, per-keyword occurrence hash maps, postings
//! keyed on `FragmentId`, allocating candidates — and seeding every
//! relevant fragment up front, as the paper states it. It shares no
//! code with `dash_core::search::topk::top_k_in`, the heap loop
//! `ShardedEngine` and everything above it run, so a
//! fault seeded into that loop shows up as a diff against it in every
//! tier, where an engine built on the same loop would agree with it by
//! construction (McKeeman, "Differential Testing for Software", 1998).

use dash::core::{Fragment, SearchHit, SearchRequest};
use dash::webapp::WebApplication;

/// The reference over one fragment set: what every tier compares the
/// layer under test against, byte for byte.
pub struct Oracle {
    app: WebApplication,
    index: seed_reference::SeedIndex,
}

impl Oracle {
    /// The reference over `fragments`, as `app` groups them.
    pub fn new(app: &WebApplication, fragments: &[Fragment]) -> Oracle {
        Oracle {
            index: seed_reference::build(fragments, app.query.range_selection_index()),
            app: app.clone(),
        }
    }

    /// Algorithm 1's top-k for one request.
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        seed_reference::top_k(&self.app, &self.index, request)
    }

    /// Requires `served[i]` to be the reference's answer to
    /// `requests[i]`, byte for byte, and the battery to discriminate:
    /// at least one request must find something and at least one must
    /// find nothing, or a corpus or battery edit could make the
    /// comparison pass vacuously.
    pub fn assert_answers(
        &self,
        requests: &[SearchRequest],
        served: &[Vec<SearchHit>],
        context: &str,
    ) {
        assert_eq!(
            served.len(),
            requests.len(),
            "{context}: one answer a request"
        );
        let (mut found, mut missed) = (false, false);
        for (request, served) in requests.iter().zip(served) {
            let expected = self.search(request);
            assert_eq!(
                served, &expected,
                "{context}: keywords={:?} k={} s={}",
                request.keywords, request.k, request.min_size
            );
            found |= !expected.is_empty();
            missed |= expected.is_empty();
        }
        assert!(found, "{context}: no request of the battery finds anything");
        assert!(
            missed,
            "{context}: every request of the battery finds something"
        );
    }
}

/// The seed's top-k search: value-vector group keys, per-keyword
/// occurrence hash maps, allocating candidates. It seeds eagerly, as
/// Algorithm 1's lines 1–2 state (`Q ← F`, every relevant fragment);
/// the seed drew seeds lazily and stopped at a score tie with the
/// frontier, which pops a wider or later candidate before an unseeded
/// one of equal score that the tie-break ranks first.
mod seed_reference {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

    use dash::core::{Fragment, FragmentId, SearchHit, SearchRequest};
    use dash::relation::Value;
    use dash::webapp::{ParamValues, SelectionBinding, WebApplication};

    struct Node {
        id: FragmentId,
        total_keywords: u64,
    }

    pub struct SeedIndex {
        groups: BTreeMap<Vec<Value>, Vec<Node>>,
        maps: HashMap<String, HashMap<FragmentId, u64>>,
        postings: HashMap<String, Vec<FragmentId>>, // in fragment order
        range_position: Option<usize>,
    }

    pub fn build(fragments: &[Fragment], range_position: Option<usize>) -> SeedIndex {
        let mut groups: BTreeMap<Vec<Value>, Vec<Node>> = BTreeMap::new();
        let mut maps: HashMap<String, HashMap<FragmentId, u64>> = HashMap::new();
        let mut postings: HashMap<String, Vec<FragmentId>> = HashMap::new();
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
                postings.entry(word.clone()).or_default().push(f.id.clone());
            }
        }
        if let Some(pos) = range_position {
            for nodes in groups.values_mut() {
                nodes.sort_by(|a, b| a.id.values()[pos].cmp(&b.id.values()[pos]));
            }
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
        let locate = |id: &FragmentId| -> Option<(Vec<Value>, usize)> {
            let key = match index.range_position {
                Some(pos) => id.without(pos),
                None => id.values().to_vec(),
            };
            let nodes = index.groups.get(&key)?;
            let position = nodes.iter().position(|n| n.id == *id)?;
            Some((key, position))
        };

        // Lines 1–2: every relevant fragment, once, into the queue.
        let mut seeded: HashSet<FragmentId> = HashSet::new();
        let mut queue: BinaryHeap<Candidate> = BinaryHeap::new();
        for w in &request.keywords {
            for id in index.postings.get(w).into_iter().flatten() {
                if !seeded.insert(id.clone()) {
                    continue;
                }
                let Some((group, position)) = locate(id) else {
                    continue;
                };
                let occurrences: Vec<u64> = occurrence_maps
                    .iter()
                    .map(|m| m.get(id).copied().unwrap_or(0))
                    .collect();
                let total_keywords = index.groups[&group][position].total_keywords;
                let score = score_of(&occurrences, total_keywords, &idf);
                queue.push(Candidate {
                    group,
                    lo: position,
                    hi: position,
                    occurrences,
                    total_keywords,
                    score,
                });
            }
        }

        let mut absorbed: HashSet<(Vec<Value>, usize)> = HashSet::new();
        let mut output_intervals: HashMap<Vec<Value>, Vec<(usize, usize)>> = HashMap::new();
        let mut output: Vec<SearchHit> = Vec::new();

        while let Some(candidate) = queue.pop() {
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
