//! Algorithm 1: top-k db-page search.
//!
//! Seeds a priority queue with the fragments relevant to the queried
//! keywords (from the inverted fragment index), repeatedly pops the
//! highest-scoring pending db-page and either *outputs* it (when its size
//! reached the threshold `s` or it cannot expand) or *expands* it along a
//! fragment-graph edge and re-queues it. Relevant neighbors are favored
//! during expansion; a queued fragment consumed by an expansion is removed
//! from the queue; db-pages overlapping an already-output page are
//! suppressed (they share fragments, hence share content — the redundancy
//! the paper's Example 1 complains about).
//!
//! The whole heap loop is handle-native: a `Candidate` is six plain
//! integers/floats (`Copy` — pushing, popping and cloning it never
//! allocates), per-candidate keyword occurrences live in one scratch
//! pool indexed by offset, and fragment identifiers are resolved back
//! to values/URLs only when a result is emitted.
//!
//! ## Each piece of work once
//!
//! The loop does no work whose answer it already holds:
//!
//! * a seed takes its own keyword's count from the posting it was drawn
//!   from, and probes the fragment-sorted arena only for the request's
//!   *other* keywords — a single-keyword request probes nothing at
//!   seeding;
//! * an expansion probes each neighbour it compares once, and the
//!   winner's counts become the expanded page's row;
//! * the seeded and absorbed sets are bitsets over partition handles,
//!   and emitted intervals a flat list of at most `k` entries — nothing
//!   in the loop hashes;
//! * every buffer lives in a `SearchScratch`, so a pooled scratch
//!   allocates nothing after its first search, and the handle sets
//!   reset only the words the last search set;
//! * an emitted hit goes to the caller's [`HitSink`] as a borrowed
//!   [`HitView`]: `(parameter, value)` pairs borrowed from the group
//!   key and the catalog, the score, the size and the fragment run as
//!   handles. The engine builds no URL, query string or identifier;
//!   the sink writes what it needs from the view (a `Vec<SearchHit>`
//!   builds owned hits, a front-end writes its response bytes).
//!
//! The scratch counts the work per search (pops, seeds, probes,
//! expansions, compared neighbours, dead pops); the sharded engine
//! exports the first four as `dash_shard_*_total` counters.
//!
//! ## Schedule independence and sharding
//!
//! Seeding is lazy, but it seeds through score ties, so the pop
//! sequence does not depend on the seeding schedule (the lemma is
//! stated on `top_k_in`). That is what lets one heap run over a
//! *partitioned* index. The sharded engine ([`crate::sharded`]) splits
//! the equality groups into contiguous runs of key-rank order, each
//! with its own [`FragmentIndex`]; the heap loop takes the whole
//! partition as a slice of `(index, group offset)` views and seeds one
//! heap from every shard's list cursors. A group never spans two
//! shards, and expansion, absorption and overlap suppression never
//! leave a group, so each candidate reads only its own shard.
//! Candidates order by their *global* group rank (`offset + local
//! rank`), so the tie-break is the one-shard engine's, and the pop
//! sequence — hence every hit, byte for byte — is the one-shard
//! engine's for any shard count.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dash_relation::Value;
use dash_webapp::{SelectionBinding, WebApplication};

use crate::index::catalog::{Frag, GroupId, Kw};
use crate::index::inverted::Posting;
use crate::index::FragmentIndex;
use crate::search::{HitSink, HitView, SearchHit, SearchRequest};

/// One shard of a searched partition: an index over a contiguous run of
/// equality groups, and the global rank of its first group. A
/// single-index search is the one view `(index, 0)`.
pub(crate) type ShardView<'a> = (&'a FragmentIndex, u32);

/// Reusable per-search allocations. One search clears and refills them,
/// so a scratch pooled across requests (as the sharded engine's
/// `search_many` does) allocates nothing after its first search: the
/// keyword columns, cursors, head TFs, heap buffer, occurrence pool, neighbour
/// buffer and emitted intervals keep their capacity, and the two handle
/// sets reset only the words the last search set.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// Request keywords as interned handles, shard-major: column
    /// `s * width + w` is keyword `w` in shard `s`.
    kws: Vec<Option<Kw>>,
    /// Each shard's first bit in the handle sets.
    bases: Vec<usize>,
    /// Each column's TF-sorted list. Stored empty between searches and
    /// re-bound to the searched partition's lifetime by [`recycle`].
    postings: Vec<&'static [Posting]>,
    /// Each column's cursor into its list.
    cursors: Vec<usize>,
    /// Each column's head TF: the TF of the posting at its cursor (0
    /// once the list is exhausted), derived when the cursor moves, so
    /// the seeding scan and the frontier bound read a small `f64`
    /// array instead of dereferencing postings and the catalog.
    heads: Vec<f64>,
    /// The priority queue's buffer.
    heap: Vec<Candidate>,
    /// Per-candidate keyword-occurrence rows, addressed by offset.
    occ_pool: Vec<u64>,
    /// Per-keyword counts of the neighbours one expansion compares: the
    /// left one at `0..width`, the right one at `width..2 * width`.
    neighbors: Vec<u64>,
    /// Fragments seeded so far (seed dedup).
    seeded: HandleSet,
    /// Fragments absorbed into an expansion: their queued singleton is
    /// dead (paper: "it is removed from Q").
    absorbed: HandleSet,
    /// `(global group rank, lo, hi)` of every emitted page, for overlap
    /// suppression (at most `k` entries).
    emitted: Vec<(u32, u32, u32)>,
    /// Candidates the last run popped off the heap, emitted or not.
    pub(crate) pops: u64,
    /// Fragments the last run seeded into the heap.
    pub(crate) seeds: u64,
    /// Binary-search probes of the fragment-sorted arena the last run did.
    pub(crate) probes: u64,
    /// Expansions the last run did.
    pub(crate) expansions: u64,
    /// Neighbours the last run's expansions compared (one or two each).
    pub(crate) compared: u64,
    /// Pops the last run discarded: absorbed singletons and pages
    /// overlapping an emitted one.
    pub(crate) dead_pops: u64,
}

impl SearchScratch {
    /// A fresh, empty scratch.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Re-binds the lifetime of an emptied vector of borrows. An in-place
/// collect over a source of the same layout reuses the allocation, so a
/// pooled vector of borrows survives from one search to the next.
fn recycle<'b, T: ?Sized>(mut borrows: Vec<&'_ T>) -> Vec<&'b T> {
    borrows.clear();
    borrows.into_iter().map(|_| unreachable!()).collect()
}

/// A pending db-page: a contiguous run `[lo..=hi]` of fragments within
/// one equality group. Per-keyword occurrences of the assembled page
/// live in the search's scratch pool at `occ_offset`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    /// The group's global rank: the tie-break, the key of the absorption
    /// and overlap sets, and (with the shard offsets) its shard.
    rank: u32,
    lo: u32,
    hi: u32,
    occ_offset: u32,
    total_keywords: u64,
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
    /// Max-heap on score; ties broken by narrower interval, then lower
    /// global group rank (group ranks order equality keys, so this
    /// orders by key), then lower interval start.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (other.hi - other.lo).cmp(&(self.hi - self.lo)))
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.lo.cmp(&self.lo))
    }
}

/// Runs Algorithm 1. Always returns at most `request.k` hits, sorted in
/// output order (descending relevance, up to the paper's monotonicity
/// argument).
pub fn top_k(
    app: &WebApplication,
    index: &FragmentIndex,
    request: &SearchRequest,
) -> Vec<SearchHit> {
    let shards = [(index, 0)];
    let idf = request_idf(&shards, request);
    let mut hits = Vec::new();
    top_k_in(
        app,
        &shards,
        request,
        &idf,
        &mut SearchScratch::new(),
        &mut hits,
    );
    hits
}

/// Per-request-keyword `IDF_w = 1 / |L_w|` over a whole partition:
/// every fragment lives in exactly one shard, so the global fragment
/// frequency is the sum of the shards' local ones.
pub(crate) fn request_idf(shards: &[ShardView<'_>], request: &SearchRequest) -> Vec<f64> {
    request
        .keywords
        .iter()
        .map(|w| {
            let df: usize = shards.iter().map(|(index, _)| index.inverted.df(w)).sum();
            if df == 0 {
                0.0
            } else {
                1.0 / df as f64
            }
        })
        .collect()
}

/// The heap loop over a partition: `shards` is every shard's view, in
/// group-rank order, and `idf` is [`request_idf`] over the same views.
/// With the one view `(index, 0)` this is exactly [`top_k`]. Each hit
/// goes to `sink`, in output order; the pop count lands in
/// `scratch.pops`.
///
/// **Schedule independence.** Seeding is lazy (threshold-algorithm
/// style), but it seeds *through* score ties: it keeps drawing while
/// `head.score <= bound`, where `bound` is any valid upper bound on the
/// score of an unseeded fragment. Every popped candidate therefore
/// *strictly* dominates every unseeded fragment, so each pop is the
/// maximum of the queue an eager run (everything seeded up front) would
/// hold at that point, and the pop sequence is the eager run's — for
/// any seeding order and any valid bound.
///
/// That makes the loop the one-shard engine's for any partition. Every
/// list cursor walks one shard's TF-descending list, and `seed_one`
/// draws the first strict maximum over all shards' list heads. The
/// bound is the maximum over shards of each shard's per-keyword head
/// sum — an unseeded fragment sits in one shard, at or behind each of
/// that shard's cursors — which is never looser than the sum of
/// per-keyword maxima a single index would read.
pub(crate) fn top_k_in(
    app: &WebApplication,
    shards: &[ShardView<'_>],
    request: &SearchRequest,
    idf: &[f64],
    scratch: &mut SearchScratch,
    sink: &mut dyn HitSink,
) {
    scratch.pops = 0;
    scratch.seeds = 0;
    scratch.probes = 0;
    scratch.expansions = 0;
    scratch.compared = 0;
    scratch.dead_pops = 0;
    if request.k == 0 || request.keywords.is_empty() {
        return;
    }
    let width = request.keywords.len();
    let SearchScratch {
        kws,
        bases,
        postings: pooled_postings,
        cursors,
        heads,
        heap,
        occ_pool,
        neighbors,
        seeded,
        absorbed,
        emitted,
        ..
    } = scratch;

    // Resolve request keywords to interned handles once per shard. The
    // per-keyword columns below are shard-major: entry `s * width + w`
    // is keyword `w` in shard `s`. Each shard's fragment handles own a
    // run of the handle sets starting at its base.
    kws.clear();
    bases.clear();
    let mut handles = 0usize;
    for (index, _) in shards {
        kws.extend(request.keywords.iter().map(|w| index.inverted.kw(w)));
        bases.push(handles);
        handles += index.catalog.len();
    }
    let kws: &[Option<Kw>] = kws;
    let bases: &[usize] = bases;

    // Lines 1–2: the relevant fragments F, seeded into the priority
    // queue *lazily*. The inverted lists are TF-sorted exactly so that
    // "web pages with higher TF values on w can be retrieved from an
    // initial part of L_w" (Section II): instead of materializing every
    // relevant fragment up front, a cursor walks each list and a seed is
    // drawn only while an unseen posting could still outscore the queue
    // head (threshold-algorithm style). Hot keywords with huge inverted
    // lists then touch only a prefix, which is what keeps Figure 11's
    // hot-term searches sub-millisecond.
    let mut postings: Vec<&[Posting]> = recycle(std::mem::take(pooled_postings));
    postings.extend(
        kws.iter()
            .enumerate()
            .map(|(i, kw)| kw.map_or(&[][..], |kw| shards[i / width].0.inverted.postings_kw(kw))),
    );
    cursors.clear();
    cursors.resize(postings.len(), 0);
    // TF of column `i`'s posting at `cursor`, against its shard's
    // catalog (0 past the end).
    let head_tf = |i: usize, cursor: usize| -> f64 {
        postings[i].get(cursor).map_or(0.0, |p| {
            p.tf(shards[i / width].0.catalog.total_keywords(p.frag))
        })
    };
    heads.clear();
    heads.extend((0..postings.len()).map(|i| head_tf(i, 0)));
    seeded.reset(handles);
    absorbed.reset(handles);
    let mut queue: BinaryHeap<Candidate> = BinaryHeap::from(std::mem::take(heap));
    // Per-candidate keyword-occurrence rows, appended as candidates are
    // created and addressed by offset — candidates stay `Copy` and
    // expansion never clones a vector.
    occ_pool.clear();
    neighbors.clear();
    neighbors.resize(2 * width, 0);
    emitted.clear();

    // Occurrences of one queried keyword in an arbitrary fragment of
    // shard `s`: a binary-search probe of the shard's fragment-sorted
    // arena. Only a seed's *other* keywords and expansion neighbours
    // need one; every call is counted.
    let probes = Cell::new(0u64);
    let probe = |s: usize, w: usize, frag: Frag| -> u64 {
        probes.set(probes.get() + 1);
        kws[s * width + w].map_or(0, |kw| shards[s].0.inverted.occurrences(kw, frag))
    };

    // Upper bound on the initial score of any not-yet-seeded fragment:
    // per keyword, its TF is at most the head TF at its shard's list
    // cursor (an exhausted list's head reads 0).
    let frontier_bound = |heads: &[f64]| -> f64 {
        let mut bound = 0.0f64;
        for s in 0..shards.len() {
            let mut sum = 0.0;
            for (w, &idf_w) in idf.iter().enumerate() {
                sum += heads[s * width + w] * idf_w;
            }
            bound = bound.max(sum);
        }
        bound
    };
    // Draws the next seed from the list whose head posting scores
    // highest, over every shard. Returns false when every list is
    // exhausted.
    let seed_one = |cursors: &mut [usize],
                    heads: &mut [f64],
                    seeded: &mut HandleSet,
                    queue: &mut BinaryHeap<Candidate>,
                    occ_pool: &mut Vec<u64>|
     -> bool {
        loop {
            // First strict maximum: deterministic under score ties.
            let mut best: Option<(usize, usize, f64)> = None;
            for s in 0..shards.len() {
                for (w, &idf_w) in idf.iter().enumerate() {
                    let i = s * width + w;
                    if cursors[i] < postings[i].len() {
                        let bound = heads[i] * idf_w;
                        if best.is_none_or(|(_, _, b)| bound > b) {
                            best = Some((s, i, bound));
                        }
                    }
                }
            }
            let Some((s, i, _)) = best else {
                return false;
            };
            let posting = postings[i][cursors[i]];
            cursors[i] += 1;
            heads[i] = head_tf(i, cursors[i]);
            if !seeded.insert(bases[s] + posting.frag.index()) {
                continue; // already seeded via another keyword's list
            }
            let (index, group_offset) = shards[s];
            let Some(node) = index.graph.locate(posting.frag) else {
                continue;
            };
            // The drawn keyword's count is the posting's own (both
            // arenas hold the same count for every posting); only the
            // request's other keywords are probed.
            let drawn = i % width;
            debug_assert_eq!(
                u64::from(posting.occurrences),
                kws[i].map_or(0, |kw| index.inverted.occurrences(kw, posting.frag)),
                "TF and probe arenas disagree"
            );
            let occ_offset = (occ_pool.len() / width) as u32;
            for w in 0..width {
                let occ = if w == drawn {
                    u64::from(posting.occurrences)
                } else {
                    probe(s, w, posting.frag)
                };
                occ_pool.push(occ);
            }
            let total_keywords = index.catalog.total_keywords(posting.frag);
            let row = &occ_pool[occ_offset as usize * width..];
            let score = score_of(&row[..width], total_keywords, idf);
            queue.push(Candidate {
                score,
                rank: group_offset + index.catalog.group_rank(node.group),
                lo: node.position,
                hi: node.position,
                occ_offset,
                total_keywords,
            });
            return true;
        }
    };

    let (mut pops, mut seeds, mut expansions, mut compared, mut dead_pops) = (0, 0, 0, 0, 0);
    let mut bound = frontier_bound(heads);

    // Lines 4–9.
    // `emitted` holds one entry per hit the sink took.
    while emitted.len() < request.k {
        // Top up the queue until its head *strictly* dominates every
        // unseeded fragment. Seeding through score ties (`<=`, not `<`)
        // is what makes the pop sequence independent of the seeding
        // schedule. The bound moves only when a cursor does.
        while queue.peek().is_none_or(|head| head.score <= bound) {
            if !seed_one(cursors, heads, seeded, &mut queue, occ_pool) {
                break;
            }
            seeds += 1;
            bound = frontier_bound(heads);
        }
        let Some(candidate) = queue.pop() else {
            break;
        };
        pops += 1;

        // The group's shard is the last whose offset does not exceed its
        // rank (a shard holding no group key shares its successor's
        // offset).
        let s = shards.partition_point(|&(_, offset)| offset <= candidate.rank) - 1;
        let (index, group_offset) = shards[s];
        let group = index.catalog.group_at_rank(candidate.rank - group_offset);
        let group_nodes = index.graph.group_nodes(group);
        // Dead singleton (absorbed by an earlier expansion), or content
        // overlap with an already-returned page?
        let dead = candidate.lo == candidate.hi
            && absorbed.contains(bases[s] + group_nodes[candidate.lo as usize].index());
        if dead
            || emitted.iter().any(|&(rank, lo, hi)| {
                rank == candidate.rank && candidate.lo <= hi && lo <= candidate.hi
            })
        {
            dead_pops += 1;
            continue;
        }

        let can_grow_left = candidate.lo > 0;
        let can_grow_right = ((candidate.hi + 1) as usize) < group_nodes.len();
        let expandable =
            candidate.total_keywords < request.min_size && (can_grow_left || can_grow_right);

        if !expandable {
            // Line 6–7: emit.
            if emit(app, index, group, &candidate, group_nodes, sink) {
                emitted.push((candidate.rank, candidate.lo, candidate.hi));
            }
            continue;
        }

        // Line 8: expand toward the more relevant neighbor. Each
        // neighbour is probed once: its per-keyword counts land in the
        // neighbour buffer, are summed for the comparison and are reused
        // for the expanded page's row.
        let (left, right) = neighbors.split_at_mut(width);
        let count = |pos: u32, row: &mut [u64]| -> u64 {
            let frag = group_nodes[pos as usize];
            for (w, occ) in row.iter_mut().enumerate() {
                *occ = probe(s, w, frag);
            }
            row.iter().sum()
        };
        let go_left = match (can_grow_left, can_grow_right) {
            (true, false) => {
                count(candidate.lo - 1, left);
                true
            }
            (false, true) => {
                count(candidate.hi + 1, right);
                false
            }
            (true, true) => count(candidate.lo - 1, left) > count(candidate.hi + 1, right),
            (false, false) => unreachable!("expandable implies a neighbor"),
        };
        expansions += 1;
        compared += 1 + u64::from(can_grow_left && can_grow_right);
        let (new_pos, counts) = if go_left {
            (candidate.lo - 1, &*left)
        } else {
            (candidate.hi + 1, &*right)
        };
        let neighbor = group_nodes[new_pos as usize];
        let mut expanded = candidate;
        if go_left {
            expanded.lo = new_pos;
        } else {
            expanded.hi = new_pos;
        }
        // New occurrence row = parent row + the neighbor's counts,
        // appended to the pool (the parent row stays valid for its own
        // still-queued copy).
        let parent = candidate.occ_offset as usize * width;
        expanded.occ_offset = (occ_pool.len() / width) as u32;
        for (w, &occ) in counts.iter().enumerate() {
            occ_pool.push(occ_pool[parent + w] + occ);
        }
        expanded.total_keywords += index.catalog.total_keywords(neighbor);
        let row = expanded.occ_offset as usize * width;
        expanded.score = score_of(&occ_pool[row..row + width], expanded.total_keywords, idf);
        absorbed.insert(bases[s] + neighbor.index());
        queue.push(expanded);
    }

    let mut buffer = queue.into_vec();
    buffer.clear();
    *heap = buffer;
    *pooled_postings = recycle(postings);
    scratch.pops = pops;
    scratch.seeds = seeds;
    scratch.probes = probes.get();
    scratch.expansions = expansions;
    scratch.compared = compared;
    scratch.dead_pops = dead_pops;
}

/// A set of partition fragment handles (each shard's handles offset by
/// its base): one bit per handle, no hashing. It is all zeros between
/// searches — [`HandleSet::reset`] clears only the words the last
/// search set, and a word is zeroed into existence only when first
/// touched — so neither a pooled nor a fresh set pays to zero the whole
/// partition.
#[derive(Debug, Default)]
struct HandleSet {
    words: Vec<u64>,
    /// Indexes of the nonzero words.
    dirty: Vec<usize>,
}

impl HandleSet {
    /// Empties the set and reserves room for `handles` bits.
    fn reset(&mut self, handles: usize) {
        for &word in &self.dirty {
            self.words[word] = 0;
        }
        self.dirty.clear();
        self.words
            .reserve(handles.div_ceil(64).saturating_sub(self.words.len()));
    }

    /// Marks handle bit `bit`; returns whether it was newly marked.
    fn insert(&mut self, bit: usize) -> bool {
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let slot = &mut self.words[word];
        if *slot & mask != 0 {
            return false;
        }
        if *slot == 0 {
            self.dirty.push(word);
        }
        *slot |= mask;
        true
    }

    /// Whether handle bit `bit` is marked.
    fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|word| word & (1u64 << (bit % 64)) != 0)
    }
}

/// TF·IDF score of an assembled page: per queried keyword,
/// `(occurrences / page size) × IDF_w`, summed.
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

/// Parameter pairs a hit collects on the stack; an application binding
/// more parameters spills them to the heap.
const INLINE_PARAMS: usize = 8;

/// Filler for the unused slots of the stack pair buffer.
static NO_VALUE: Value = Value::Null;

/// Reverse-engineers a candidate of `group` (its id inside `index`)
/// into its parameter values and hands them to `sink` as a
/// [`HitView`], from which the sink writes the query string and the URL
/// (Line 10 of Algorithm 1 / Example 7). This is the output boundary:
/// the only place handles resolve back to identifiers, and only as far
/// as the sink reads them. The `(parameter, value)` pairs borrow from
/// the group key and the catalog. A candidate whose values do not bind
/// every query-string field has no URL: it reaches no sink, and the
/// result is false.
fn emit(
    app: &WebApplication,
    index: &FragmentIndex,
    group: GroupId,
    candidate: &Candidate,
    group_nodes: &[Frag],
    sink: &mut dyn HitSink,
) -> bool {
    let range_pos = index.graph.range_position();
    let selections = &app.query.selections;
    // A range selection binds two parameters, every other at most one.
    let capacity = selections.len() + 1;
    let mut inline = [("", &NO_VALUE); INLINE_PARAMS];
    let mut spilled = Vec::new();
    let pairs: &mut [(&str, &Value)] = if capacity <= INLINE_PARAMS {
        &mut inline
    } else {
        spilled.resize(capacity, ("", &NO_VALUE));
        &mut spilled
    };
    let mut len = 0;
    // Equality selections read from the group key (which is the fragment
    // identifier minus the range position); the range selection reads its
    // bounds from the interval's end fragments.
    let mut group_iter = index.catalog.group_key(group).iter();
    for (i, sel) in selections.iter().enumerate() {
        match (&sel.binding, range_pos) {
            (SelectionBinding::RangeParams { low, high }, Some(pos)) if pos == i => {
                let lo = group_nodes[candidate.lo as usize];
                let hi = group_nodes[candidate.hi as usize];
                pairs[len] = (low, index.catalog.value_at(lo, pos));
                pairs[len + 1] = (high, index.catalog.value_at(hi, pos));
                len += 2;
            }
            (SelectionBinding::EqParam(p), _) => {
                let Some(value) = group_iter.next() else {
                    return false;
                };
                pairs[len] = (p, value);
                len += 1;
            }
            (SelectionBinding::EqConst(_), _) => {
                // Baked-in constant: part of the group key but not of the
                // query string.
                if group_iter.next().is_none() {
                    return false;
                }
            }
            (SelectionBinding::RangeParams { .. }, _) => return false,
        }
    }
    let params = &pairs[..len];
    if !app.binds_every_field(params) {
        return false;
    }
    sink.emit(&HitView {
        app,
        params,
        catalog: &index.catalog,
        frags: &group_nodes[candidate.lo as usize..=candidate.hi as usize],
        score: candidate.score,
        size: candidate.total_keywords,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::reference;
    use crate::fragment::FragmentId;
    use crate::index::FragmentIndex;
    use dash_webapp::fooddb;

    fn engine_parts() -> (WebApplication, FragmentIndex) {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = reference::fragments(&app, &db).unwrap();
        let index = FragmentIndex::build(&fragments, app.query.range_selection_index()).unwrap();
        (app, index)
    }

    #[test]
    fn example_7_top_2_for_burger() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger"]).k(2).min_size(20),
        );
        assert_eq!(hits.len(), 2);
        let urls: Vec<&str> = hits.iter().map(|h| h.url.as_str()).collect();
        // The paper's Example 7 returns exactly these two URLs.
        assert!(urls.contains(&"www.example.com/Search?c=American&l=10&u=12"));
        assert!(urls.contains(&"www.example.com/Search?c=Thai&l=10&u=10"));
    }

    #[test]
    fn expansion_absorbs_the_relevant_neighbor() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger"]).k(2).min_size(20),
        );
        let american = hits
            .iter()
            .find(|h| h.url.contains("American"))
            .expect("American page");
        // (American,10) merged with (American,12): 8 + 17 = 25 keywords.
        assert_eq!(american.size, 25);
        assert_eq!(american.fragment_ids.len(), 2);
        // Score = TF × IDF = (3/25) × (1/3).
        assert!((american.score - 3.0 / 25.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn small_threshold_returns_single_fragments() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger"]).k(3).min_size(1),
        );
        // With s = 1 nothing expands; three relevant fragments, three hits.
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.fragment_ids.len() == 1));
        // Sorted by score: (American,10) TF 2/8 first.
        assert!(hits[0].url.contains("l=10&u=10"));
        assert!(hits[0].url.contains("American"));
    }

    #[test]
    fn huge_threshold_expands_to_whole_group() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger"]).k(1).min_size(10_000),
        );
        assert_eq!(hits.len(), 1);
        // The American chain exhausts at 4 fragments (9,10,12,18).
        let h = &hits[0];
        if h.url.contains("American") {
            assert_eq!(h.fragment_ids.len(), 4);
            assert!(h.url.contains("l=9&u=18"));
        }
    }

    #[test]
    fn no_overlapping_outputs() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["american"]).k(10).min_size(1),
        );
        // Pages must be pairwise fragment-disjoint.
        let mut seen: std::collections::HashSet<FragmentId> = std::collections::HashSet::new();
        for h in &hits {
            for id in &h.fragment_ids {
                assert!(seen.insert(id.clone()), "fragment {id} appears twice");
            }
        }
    }

    #[test]
    fn unknown_keyword_returns_empty() {
        let (app, index) = engine_parts();
        assert!(top_k(&app, &index, &SearchRequest::new(&["zzzqqq"]).k(5)).is_empty());
        assert!(top_k(&app, &index, &SearchRequest::new(&[]).k(5)).is_empty());
        assert!(top_k(&app, &index, &SearchRequest::new(&["burger"]).k(0)).is_empty());
    }

    #[test]
    fn k_caps_results() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger"]).k(1).min_size(20),
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn each_posting_is_probed_once() {
        // The probe budget, pinned: a seed probes only the request's
        // *other* keywords (so a single-keyword request probes nothing
        // at seeding), and an expansion probes each neighbour it
        // compares once — both when both sides exist, the one side
        // otherwise. A pooled scratch answers like a fresh one.
        let (app, fooddb) = engine_parts();
        let plateau = |tied| {
            let fragments = crate::sharded::tests::plateau_fragments(16, 16, tied);
            FragmentIndex::build(&fragments, app.query.range_selection_index()).unwrap()
        };
        let corpora = [
            ("fooddb", fooddb, ["burger", "fries"]),
            ("flat", plateau(usize::MAX), ["plateau", "filler"]),
            ("half", plateau(128), ["plateau", "filler"]),
        ];
        let mut pooled = SearchScratch::new();
        for (label, index, [a, b]) in &corpora {
            let shards = [(index, 0)];
            for keywords in [&[*a][..], &[*b], &[*a, *b], &[*a, *a]] {
                for (k, s) in [(1, 1), (10, 1), (10, 50), (40, 50)] {
                    let request = SearchRequest::new(keywords).k(k).min_size(s);
                    let idf = request_idf(&shards, &request);
                    let mut hits = Vec::new();
                    top_k_in(&app, &shards, &request, &idf, &mut pooled, &mut hits);
                    let case = format!("{label} {keywords:?} k={k} s={s}");
                    assert_eq!(hits, top_k(&app, index, &request), "{case}");
                    let width = keywords.len() as u64;
                    let c = &pooled;
                    assert!(c.seeds > 0 && c.pops > 0, "{case}");
                    assert_eq!(
                        c.probes,
                        c.seeds * (width - 1) + c.compared * width,
                        "{case}"
                    );
                    assert!(
                        c.expansions <= c.compared && c.compared <= 2 * c.expansions,
                        "{case}"
                    );
                    assert!(c.dead_pops + c.expansions < c.pops, "{case}");
                }
            }
        }
    }

    #[test]
    fn multi_keyword_scores_sum() {
        let (app, index) = engine_parts();
        let hits = top_k(
            &app,
            &index,
            &SearchRequest::new(&["burger", "fries"]).k(2).min_size(1),
        );
        assert_eq!(hits.len(), 2);
        // With s = 1 fragments stand alone. (American,10) scores
        // (2/8)(1/3) ≈ 0.0833 on "burger" alone; (American,12) scores
        // (1/17)(1/3) + (1/17)(1/1) ≈ 0.0784 holding both keywords.
        assert!(hits[0].url.contains("l=10&u=10"), "got {}", hits[0].url);
        assert!((hits[0].score - (2.0 / 8.0) * (1.0 / 3.0)).abs() < 1e-9);
        assert!(hits[1].url.contains("l=12&u=12"), "got {}", hits[1].url);
        let expected = (1.0 / 17.0) * (1.0 / 3.0) + (1.0 / 17.0) * 1.0;
        assert!((hits[1].score - expected).abs() < 1e-9);
    }
}
