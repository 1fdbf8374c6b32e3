//! Sharded top-k search over the fragment handle space, with
//! shard-local incremental maintenance.
//!
//! The dense `Frag`/`GroupId` handle space exists to be partitioned:
//! [`ShardedEngine`] splits the equality groups into `N` contiguous
//! runs of global key-rank order and builds each shard its own
//! [`FragmentIndex`] (catalog, posting arenas, graph slice). A search
//! runs Algorithm 1 **once** over the whole partition: one heap, seeded
//! from every shard's list cursors, scoring with global IDF and
//! breaking ties on global group ranks
//! (the heap loop in [`crate::search::topk`] takes the shards as
//! `(index, group offset)` views). Results are **byte-identical** to
//! Algorithm 1 over one unpartitioned index (the seed's loop, kept as
//! the test oracle in `tests/common/oracle.rs`) for any shard count.
//!
//! ## Why one heap is exact
//!
//! A group never spans two shards, and every state transition of
//! Algorithm 1 — expansion, absorption, overlap suppression — is
//! confined to one group, so a candidate only ever reads its own
//! shard's index. What remains global is exactly what the loop reads
//! globally:
//!
//! * **Global IDF** — `1 / |L_w|` over *all* fragments, the sum of the
//!   shards' local fragment frequencies, computed per request;
//! * **Global group ranks** — shards hold contiguous runs of key-rank
//!   order, so `local rank + shard offset = global rank`, the heap's
//!   deterministic tie-break;
//! * **The seeding frontier** — the loop draws from the best head over
//!   every shard's TF-descending lists, and because it seeds through
//!   score ties its pop sequence does not depend on the seeding
//!   schedule (the lemma on [`crate::search::topk`]).
//!
//! So the pop sequence is the one-shard engine's, pop for pop; a group's
//! candidates evolve through the same operation sequence, so every
//! score is the same `f64` bit pattern. `tests/sharded_equivalence.rs`
//! enforces this (golden datasets, whole-corpus tie plateaus, property
//! tests over random datasets, keywords and shard counts),
//! `tests/sharded_stress.rs` exercises it concurrently, and
//! `tests/sharded_maintenance.rs` extends it across mutation histories.
//!
//! ## The delta write path (shard-local maintenance)
//!
//! Mutations arrive as [`IndexDelta`]s (see [`crate::update`]): stale
//! identifiers out, fresh fragments in. [`ShardedEngine::apply_delta`]
//! routes every entry to the shard owning its equality group — routing
//! is a static key-range table fixed at construction
//! (`ShardedEngine::route_bounds` stores each shard's lowest group
//! key), so a shard's key range never changes and the partition stays
//! contiguous in key order forever. A delta is applied in two halves.
//! [`ShardedEngine::prepare`] does every read against the pre-delta
//! engine: each touched group's stored vocabulary joins the
//! invalidation signature, and one walk of exactly those inverted
//! lists finds the stale postings; then every posting splice is
//! located. [`ShardedEngine::apply_prepared`] then only writes: each
//! affected shard splices its located sub-delta into its own arenas in
//! place, moving postings plus one O(lists) offset-table pass,
//! and the engine refreshes the *global* coordinates incrementally:
//! group-rank offsets are re-prefix-summed over per-shard key counts
//! (O(shards)), and global IDF is always computed per request.
//! Post-update searches are therefore byte-identical to an engine
//! freshly built over the mutated fragment set —
//! proven by `tests/sharded_maintenance.rs` (golden + property tests,
//! shard counts {1, 2, 4, 8}).
//!
//! A serving front-end keeps two engines in lockstep (the live one and
//! its [`ShardedEngine::fork`]) and applies every delta to both. It
//! prepares the delta once and applies the [`PreparedDelta`] to each
//! side, so each publication walks and locates once, not once per
//! side: the second side costs one splice.
//! An engine's *generation* counts its applies and a fork inherits it;
//! a prepared delta records the generation it was read at and applies
//! only there, so it cannot land on a state it was not read from.

use dash_mapreduce::WorkflowStats;
use dash_relation::{Database, Value};
use dash_webapp::WebApplication;
use parking_lot::Mutex;

use crate::crawl;
use crate::engine::{validate_query, DashConfig};
use crate::error::CoreError;
use crate::fragment::{Fragment, FragmentId};
use crate::index::catalog::key_parts;
use crate::index::{FragmentIndex, GroupId, HeapBytes, PreparedIndexDelta};
use crate::par;
use crate::persist;
use crate::search::{
    request_idf, top_k_in, HitSink, SearchHit, SearchRequest, SearchScratch, ShardView,
};
use crate::update::{bulk_delta, DeltaSignature, IndexDelta, RecordChange, RefreshStats};
use crate::Result;

/// The shard count configured in the environment (`DASH_SHARDS`), if
/// set to a positive integer. Deployments and the CI matrix use this to
/// pick the partition width without code changes.
pub fn env_shards() -> Option<usize> {
    parse_shards(&std::env::var("DASH_SHARDS").ok()?)
}

/// Parses a shard-count setting: a positive integer, or nothing.
fn parse_shards(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// One shard: a self-contained fragment index over a contiguous run of
/// equality groups, plus the rank offset translating its local group
/// ranks to global ranks.
#[derive(Debug, Clone)]
struct Shard {
    index: FragmentIndex,
    group_offset: u32,
}

/// The Dash engine: its handle space is partitioned into `N` shards
/// (one by default) and searched by one heap loop over the whole
/// partition. Search results are byte-identical to the one-shard
/// engine's over the same fragments, for any shard count ≥ 1 —
/// including after any sequence of incremental updates
/// ([`ShardedEngine::apply_changes`] / [`ShardedEngine::apply_delta`]).
#[derive(Debug)]
pub struct ShardedEngine {
    app: WebApplication,
    shards: Vec<Shard>,
    /// Static routing table fixed at construction: `(lowest group key,
    /// shard index)` for every shard non-empty at build, in key order.
    /// A delta entry routes to the last shard whose bound does not
    /// exceed its group key (the first shard catches smaller keys), so
    /// shards keep disjoint, contiguous, key-ordered ranges across any
    /// mutation history — the invariant global group ranks rest on.
    route_bounds: Vec<(Vec<Value>, usize)>,
    /// Reusable search scratch, one per concurrent `search_many` call.
    scratch: Mutex<Vec<SearchScratch>>,
    crawl_stats: WorkflowStats,
    /// Applies since construction, carried over by
    /// [`ShardedEngine::fork`]: the state a [`PreparedDelta`] fits.
    generation: u64,
}

/// A delta read against one engine state by [`ShardedEngine::prepare`]:
/// each touched shard's share, and the delta's invalidation signature.
/// It borrows the delta's fragments and applies
/// ([`ShardedEngine::apply_prepared`]) to the engine it was prepared
/// on, or to that engine's lockstep fork, exactly once each.
#[derive(Debug)]
pub struct PreparedDelta<'d> {
    /// The generation of the engine it was prepared on.
    generation: u64,
    /// Each touched shard's index and share, by shard.
    shards: Vec<(usize, PreparedIndexDelta<'d>)>,
    /// The delta's invalidation signature against the pre-delta engine
    /// (see [`ShardedEngine::delta_signature`]). Applying does not read
    /// it.
    pub signature: DeltaSignature,
}

impl PreparedDelta<'_> {
    /// How many inverted lists preparing the delta visited: one per
    /// keyword of the touched groups' vocabulary, in each touched
    /// shard — what a publish costs to read, whatever the shard's size.
    pub fn lists_walked(&self) -> usize {
        self.shards.iter().map(|(_, share)| share.held.len()).sum()
    }
}

impl ShardedEngine {
    /// Crawls the database and builds a sharded engine — the crawl
    /// half of [`IngestSource::Crawl`](crate::ingest::IngestSource).
    /// `shards` is clamped to at least 1.
    pub(crate) fn crawl_build_impl(
        app: &WebApplication,
        db: &Database,
        config: &DashConfig,
        shards: usize,
        mut stats: WorkflowStats,
    ) -> Result<Self> {
        validate_query(app)?;
        let crawl = crawl::run_scoped(app, db, &config.cluster, config.algorithm, &config.scope)?;
        for job in crawl.stats.jobs {
            stats.push(job);
        }
        Self::from_fragments_impl(app.clone(), &crawl.fragments, shards, stats)
    }

    /// Builds a sharded engine from already-derived fragments — the
    /// engine half of
    /// [`IngestSource::Fragments`](crate::ingest::IngestSource).
    pub(crate) fn from_fragments_impl(
        app: WebApplication,
        fragments: &[Fragment],
        shards: usize,
        crawl_stats: WorkflowStats,
    ) -> Result<Self> {
        validate_query(&app)?;
        let range_position = app.query.range_selection_index();
        let shards = shards.max(1);

        // Partition equality groups into contiguous runs of key-rank
        // order, balanced by fragment count; each shard's local group
        // ranks then map to global ranks by a constant offset. Parts are
        // reference runs — no fragment is cloned; interning copies the
        // data exactly once, into each shard's own catalog.
        let parts = partition(fragments, range_position, shards);
        let built: Vec<Result<FragmentIndex>> = par::map(parts, |part| {
            FragmentIndex::build_refs(&part.fragments, range_position)
        });
        let mut indexes = Vec::with_capacity(built.len());
        for index in built {
            indexes.push(index?);
        }
        Self::assemble(app, indexes, range_position, crawl_stats)
    }

    /// Wires built per-shard indexes into an engine: global group-rank
    /// offsets and the static routing table, both read off the shard
    /// catalogs' key order (a loaded image's catalogs keep the keys of
    /// groups maintenance emptied, so the table is the one the dumped
    /// engine was built with). An empty index list (e.g. an empty batch
    /// iterator) is clamped to one empty shard, mirroring
    /// `shards.max(1)` on the build path — a zero-shard engine could
    /// answer nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Internal`] when the shards' group-key
    /// ranges are not disjoint and ascending.
    fn assemble(
        app: WebApplication,
        mut indexes: Vec<FragmentIndex>,
        range_position: Option<usize>,
        crawl_stats: WorkflowStats,
    ) -> Result<Self> {
        if indexes.is_empty() {
            indexes.push(FragmentIndex::build(&[], range_position)?);
        }
        let mut shards = Vec::with_capacity(indexes.len());
        let mut route_bounds = Vec::new();
        let mut group_offset = 0u32;
        let mut prev_max: Option<Vec<Value>> = None;
        for (s, index) in indexes.into_iter().enumerate() {
            let catalog = &index.catalog;
            let keys = catalog.key_count() as u32;
            if keys > 0 {
                let lowest = catalog.group_key(catalog.group_at_rank(0)).to_vec();
                let highest = catalog.group_key(catalog.group_at_rank(keys - 1)).to_vec();
                if prev_max.as_ref().is_some_and(|p| *p >= lowest) {
                    return Err(CoreError::Internal {
                        detail: format!(
                            "shard {s} group-key range is not disjoint/ascending with its predecessor"
                        ),
                    });
                }
                prev_max = Some(highest);
                route_bounds.push((lowest, s));
            }
            shards.push(Shard {
                index,
                group_offset,
            });
            group_offset += keys;
        }
        Ok(ShardedEngine {
            app,
            shards,
            route_bounds,
            scratch: Mutex::new(Vec::new()),
            crawl_stats,
            generation: 0,
        })
    }

    /// Top-k db-page search (Algorithm 1). Returns at most `request.k`
    /// URL suggestions, most relevant first — the same for any shard
    /// count.
    pub fn search(&self, request: &SearchRequest) -> Vec<SearchHit> {
        let mut hits = Vec::new();
        self.search_into(request, &mut hits);
        hits
    }

    /// [`ShardedEngine::search`] into any [`HitSink`]: each hit goes to
    /// `sink` as a borrowed view, in output order, and the engine builds
    /// no owned hit. A `Vec<SearchHit>` sink collects exactly what
    /// [`ShardedEngine::search`] returns.
    pub fn search_into(&self, request: &SearchRequest, sink: &mut dyn HitSink) {
        self.search_each(
            std::slice::from_ref(request),
            std::slice::from_mut(&mut &mut *sink),
        );
    }

    /// Batched top-k: answers every request with one heap loop over the
    /// whole partition each, reusing one pooled scratch across the
    /// batch. Results are position-aligned with `requests` and each is
    /// byte-identical to the corresponding [`ShardedEngine::search`]
    /// call.
    pub fn search_many(&self, requests: &[SearchRequest]) -> Vec<Vec<SearchHit>> {
        let mut results = vec![Vec::new(); requests.len()];
        self.search_each(requests, &mut results);
        results
    }

    /// Answers `requests[i]` into `sinks[i]`, one heap loop each over
    /// one pooled scratch.
    fn search_each<S: HitSink>(&self, requests: &[SearchRequest], sinks: &mut [S]) {
        if requests.is_empty() {
            return;
        }
        let _span = dash_obs::span!("dash_shard_search_many_ns");
        let shards = self.views();
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        // Per batch: candidates popped, fragments seeded, arena probes,
        // expansions.
        let mut work = [0u64; 4];
        for (request, sink) in requests.iter().zip(sinks) {
            let idf = request_idf(&shards, request);
            let _span = dash_obs::span!("dash_shard_search_ns");
            top_k_in(&self.app, &shards, request, &idf, &mut scratch, sink);
            let counts = [
                scratch.pops,
                scratch.seeds,
                scratch.probes,
                scratch.expansions,
            ];
            for (total, count) in work.iter_mut().zip(counts) {
                *total += count;
            }
        }
        self.scratch.lock().push(scratch);
        // Each pop is one candidate db-page the heap loop examined.
        if work[0] > 0 {
            static COUNTERS: std::sync::OnceLock<[std::sync::Arc<dash_obs::Counter>; 4]> =
                std::sync::OnceLock::new();
            let counters = COUNTERS.get_or_init(|| {
                [
                    "dash_shard_candidates_total",
                    "dash_shard_seeds_total",
                    "dash_shard_probes_total",
                    "dash_shard_expansions_total",
                ]
                .map(|name| dash_obs::Registry::global().counter(name))
            });
            for (counter, total) in counters.iter().zip(work) {
                counter.add(total);
            }
        }
    }

    /// Every shard as an `(index, group offset)` view, in rank order —
    /// the partition one heap loop searches.
    fn views(&self) -> Vec<ShardView<'_>> {
        self.shards
            .iter()
            .map(|shard| (&shard.index, shard.group_offset))
            .collect()
    }

    /// Applies a prebuilt delta: [`ShardedEngine::prepare`], then
    /// [`ShardedEngine::apply_prepared`]. Post-update searches are
    /// byte-identical to an engine freshly built over the mutated
    /// fragment set.
    ///
    /// # Panics
    ///
    /// If an identifier does not have the application's arity
    /// ([`CoreError::IdentifierArity`]) or an added fragment holds a
    /// keyword more than `u32::MAX` times
    /// ([`CoreError::OccurrenceOverflow`]): [`IndexDelta::check`] runs
    /// before any shard changes. [`ShardedEngine::apply_changes`] and
    /// [`ShardedEngine::prepare`] return the error instead.
    pub fn apply_delta(&mut self, delta: IndexDelta) -> RefreshStats {
        self.apply_checked(&delta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedEngine::apply_delta`], with a delta that does not fit
    /// the application ([`IndexDelta::check`]) returned as an error
    /// before any shard changes.
    fn apply_checked(&mut self, delta: &IndexDelta) -> Result<RefreshStats> {
        let prepared = self.prepare(delta)?;
        Ok(self.apply_prepared(&prepared))
    }

    /// The read half of a delta, against the engine as it stands:
    /// [`IndexDelta::check`], the routing of every entry to the shard
    /// owning its equality group, and per touched shard
    /// (`FragmentIndex::prepare`) the touched groups' stored
    /// vocabulary, which completes the delta's
    /// [`PreparedDelta::signature`], the stale postings from one walk
    /// of exactly those inverted lists, and the located posting splice.
    /// Nothing changes; [`ShardedEngine::apply_prepared`] does the
    /// writes.
    ///
    /// # Errors
    ///
    /// [`IndexDelta::check`]'s: an identifier of another arity, or a
    /// count a posting cannot hold.
    pub fn prepare<'d>(&self, delta: &'d IndexDelta) -> Result<PreparedDelta<'d>> {
        delta.check(&self.app)?;
        let range_position = self.app.query.range_selection_index();
        let mut routed: Vec<(Vec<&FragmentId>, Vec<&Fragment>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for id in &delta.removes {
            routed[self.route(key_parts(id.values(), range_position))]
                .0
                .push(id);
        }
        for fragment in &delta.adds {
            routed[self.route(key_parts(fragment.id.values(), range_position))]
                .1
                .push(fragment);
        }
        let mut shards = Vec::new();
        for (s, (removes, adds)) in routed.iter().enumerate() {
            if removes.is_empty() && adds.is_empty() {
                continue;
            }
            shards.push((s, self.shards[s].index.prepare(removes, adds)));
        }
        // One bulk collect (a sort, then a sorted build) of the adds'
        // keywords and every touched group's pre-delta vocabulary.
        let held = shards.iter().flat_map(|(s, share)| {
            let inverted = &self.shards[*s].index.inverted;
            share.held.iter().map(|&kw| inverted.word(kw).to_string())
        });
        let signature = DeltaSignature {
            keywords: delta
                .adds
                .iter()
                .flat_map(|f| f.keyword_occurrences.keys().cloned())
                .chain(held)
                .collect(),
        };
        Ok(PreparedDelta {
            generation: self.generation,
            shards,
            signature,
        })
    }

    /// The write half of a delta: each touched shard splices its share
    /// in place (`FragmentIndex::apply_prepared`: graph, catalog,
    /// already-located posting splices and the touched groups'
    /// vocabularies, plus one O(lists) offset-table pass), then the
    /// global group-rank offsets are re-derived, O(shards). Nothing is
    /// read or located here, so applying one prepared delta to an
    /// engine and to its lockstep fork walks and locates once in all.
    ///
    /// # Panics
    ///
    /// Before anything changes, when the engine is not at the
    /// generation `prepared` was read at: it was prepared on another
    /// engine state, or was already applied here.
    pub fn apply_prepared(&mut self, prepared: &PreparedDelta<'_>) -> RefreshStats {
        assert_eq!(
            self.generation, prepared.generation,
            "a prepared delta applies only to the engine state it was prepared on"
        );
        let mut stats = RefreshStats::default();
        for (s, share) in &prepared.shards {
            stats.merge(self.shards[*s].index.apply_prepared(share));
        }
        self.refresh_offsets();
        self.generation += 1;
        stats
    }

    /// Applies a batch of record changes — inserts and deletes alike,
    /// one record or many — through one [`bulk_delta`] (shadow joins
    /// batched per relation, one scoped re-crawl), routed to the owning
    /// shards only. `db` must already reflect every change.
    ///
    /// # Errors
    ///
    /// Propagates relational errors, and
    /// [`CoreError::OccurrenceOverflow`]
    /// (engine untouched) for a count a posting cannot hold.
    pub fn apply_changes(
        &mut self,
        db: &Database,
        changes: &[RecordChange],
    ) -> Result<RefreshStats> {
        let delta = bulk_delta(&self.app, db, changes)?;
        self.apply_checked(&delta)
    }

    /// A deep, independent copy of this engine: every shard's index is
    /// cloned (contiguous arenas — a memcpy, no re-derivation, no
    /// re-partitioning), the static routing table and group-rank
    /// offsets are carried over verbatim, and the copy gets its own
    /// scratch pool. This is the serving layer's shadow: a
    /// snapshot-swapping front-end forks once at startup and thereafter
    /// keeps two sides in lockstep by applying every delta to each, so
    /// publication is an `Arc` pointer swap and searches never wait on
    /// maintenance. The fork keeps the engine's generation, so a delta
    /// prepared on either side applies to both.
    pub fn fork(&self) -> ShardedEngine {
        ShardedEngine {
            app: self.app.clone(),
            shards: self.shards.clone(),
            route_bounds: self.route_bounds.clone(),
            scratch: Mutex::new(Vec::new()),
            crawl_stats: self.crawl_stats.clone(),
            generation: self.generation,
        }
    }

    /// The equality-group keys currently holding at least one posting
    /// of any of `keywords` — the groups where a candidate page for
    /// those keywords can arise; a delta whose touched groups miss it
    /// (and whose keywords miss the request's) provably cannot change
    /// the result. It walks every posting of every keyword, so **no
    /// serving path calls it**: the caches test the inverse relation,
    /// request keywords against the touched groups' vocabulary that
    /// [`ShardedEngine::delta_signature`] computes once per publish.
    /// It stays public as the definitional oracle of that rule
    /// (`tests/serve_equivalence.rs` holds the two forms side by side)
    /// and for the end-to-end benchmark's trace, which prices it.
    pub fn keyword_groups(&self, keywords: &[String]) -> std::collections::BTreeSet<Vec<Value>> {
        let mut groups = std::collections::BTreeSet::new();
        for shard in &self.shards {
            let index = &shard.index;
            let mut seen: std::collections::HashSet<GroupId> = std::collections::HashSet::new();
            for word in keywords {
                let Some(kw) = index.inverted.kw(word) else {
                    continue;
                };
                for posting in index.inverted.postings_kw(kw) {
                    let Some(node) = index.graph.locate(posting.frag) else {
                        continue;
                    };
                    if seen.insert(node.group) {
                        groups.insert(index.catalog.group_key(node.group).to_vec());
                    }
                }
            }
        }
        groups
    }

    /// The invalidation signature of `delta` against the engine's
    /// *current* state: every keyword the delta's adds carry, and the
    /// touched equality groups' **pre-delta vocabulary** — every keyword any fragment of a touched group
    /// holds right now (the removed fragments' live terms are a subset:
    /// they live in a touched group). It is
    /// [`ShardedEngine::prepare`]'s [`PreparedDelta::signature`]: each
    /// touched group's vocabulary is kept by its shard's index, so the
    /// keyword half is read, not searched for — no inverted list is
    /// visited for it. A group that does not exist yet contributes
    /// nothing — its adds' keywords are already in.
    /// Compute this *before* the delta applies; afterwards the removed
    /// terms are gone.
    ///
    /// # Panics
    ///
    /// Where [`ShardedEngine::apply_delta`] does: on a delta that does
    /// not fit the application.
    pub fn delta_signature(&self, delta: &IndexDelta) -> DeltaSignature {
        self.prepare(delta)
            .unwrap_or_else(|e| panic!("{e}"))
            .signature
    }

    /// The shard owning an equality-group key, given as
    /// [`key_parts`] splits it, under the static routing table: the
    /// last shard whose lower bound does not exceed the key (the first
    /// routed shard also catches keys below every bound).
    fn route(&self, (head, tail): (&[Value], &[Value])) -> usize {
        if self.route_bounds.is_empty() {
            return 0;
        }
        let at = self
            .route_bounds
            .partition_point(|(bound, _)| bound.iter().cmp(head.iter().chain(tail)).is_le());
        self.route_bounds[at.max(1) - 1].1
    }

    /// Re-derives every shard's global group-rank offset after
    /// maintenance — a prefix sum over per-shard key counts (a group
    /// keeps its rank when maintenance empties it), O(shards).
    fn refresh_offsets(&mut self) {
        let mut group_offset = 0u32;
        for shard in &mut self.shards {
            shard.group_offset = group_offset;
            group_offset += shard.index.catalog.key_count() as u32;
        }
    }

    /// Dumps every shard's live fragments, per shard, in group-rank +
    /// range order — the exact partition, materialized: what a test
    /// oracle rebuilds from, or
    /// [`IngestSource::Batches`](crate::ingest::IngestSource) re-indexes
    /// shard for shard. Persisting an engine is
    /// [`ShardedEngine::write_image`]'s job, not this one's.
    pub fn dump_shards(&self) -> Vec<Vec<Fragment>> {
        self.shards
            .iter()
            .map(|shard| {
                let index = &shard.index;
                // One arena pass recovers every fragment's terms at
                // once — O(postings), not O(fragments × keywords).
                let mut terms = index.inverted.all_fragment_terms();
                let mut fragments = Vec::with_capacity(index.graph.node_count());
                for (_, frags) in index.graph.iter_groups(&index.catalog) {
                    for &frag in frags {
                        fragments.push(Fragment::new(
                            index.catalog.id(frag),
                            terms.remove(&frag).unwrap_or_default(),
                            index.catalog.record_count(frag),
                        ));
                    }
                }
                fragments
            })
            .collect()
    }

    /// Serializes the engine as an **arena image** (see
    /// [`crate::persist`] for the layout): every shard's catalog,
    /// posting arenas, list refs and graph columns as fixed-width
    /// little-endian arrays with per-section checksums. The image
    /// preserves the exact partition, so
    /// [`IngestSource::Image`](crate::IngestSource::Image) loads this engine back — drifted
    /// shard balance and all — by bulk-reading columns instead of
    /// re-running `build`.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_image<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let indexes: Vec<&FragmentIndex> = self.shards.iter().map(|s| &s.index).collect();
        persist::write_image(writer, self.app.query.range_selection_index(), &indexes)
    }

    /// Reconstructs an engine from an arena image
    /// ([`ShardedEngine::write_image`] is the dump half) **without
    /// re-running an index build**: columns are bulk-read straight into
    /// the arenas and only the derived lookup maps are re-computed, one
    /// O(n) pass each. Searches on the loaded engine are byte-identical
    /// to the dumped one (`tests/scale_persist.rs` proves it
    /// property-style); the replication SNAPSHOT path bootstraps
    /// replicas through exactly this loader. Returns
    /// [`CoreError::Internal`] when the image is torn, corrupted (every
    /// section is checksummed — any single-bit flip is detected), from
    /// a different format/version, or was dumped for an application
    /// with a different range-selection position.
    pub(crate) fn from_image_impl(
        app: WebApplication,
        bytes: &[u8],
        crawl_stats: WorkflowStats,
    ) -> Result<Self> {
        validate_query(&app)?;
        let (range_position, indexes) =
            persist::read_image(bytes).map_err(|e| CoreError::Internal {
                detail: format!("arena image: {e}"),
            })?;
        let expected = app.query.range_selection_index();
        if range_position != expected {
            return Err(CoreError::Internal {
                detail: format!(
                    "arena image was dumped with range position {range_position:?}, \
                     but the application expects {expected:?}"
                ),
            });
        }
        Self::assemble(app, indexes, expected, crawl_stats)
    }

    /// Builds a sharded engine from per-shard fragment batches consumed
    /// **one at a time** — the bounded-memory engine half of
    /// [`IngestSource::Batches`](crate::ingest::IngestSource) for
    /// generated corpora: each batch is dropped halfway through its
    /// build, after `FragmentIndex::place` and before
    /// `PlacedIndex::finish`, and before the next is pulled from the
    /// iterator, so peak memory
    /// holds one shard's fragments plus the stage-one columns and the
    /// indexes already built, never the whole corpus. The partition is taken exactly as given (batches must be
    /// contiguous, disjoint runs of group-key order) — the path that
    /// rebuilds an engine from its own [`ShardedEngine::dump_shards`]
    /// without re-partitioning.
    pub(crate) fn from_batches_impl<I>(
        app: WebApplication,
        batches: I,
        crawl_stats: WorkflowStats,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<Fragment>>,
    {
        validate_query(&app)?;
        let range_position = app.query.range_selection_index();
        let mut indexes = Vec::new();
        for batch in batches {
            let placed = {
                let refs: Vec<&Fragment> = batch.iter().collect();
                FragmentIndex::place(&refs, range_position)?
            };
            // The batch is dead once stage one has read it: freed here,
            // its memory holds stage two's TF arena and graph.
            drop(batch);
            indexes.push(placed.finish()?);
        }
        Self::assemble(app, indexes, range_position, crawl_stats)
    }

    /// The analyzed application this engine serves.
    pub fn app(&self) -> &WebApplication {
        &self.app
    }

    /// Every shard's index, in group-rank order.
    pub fn shard_indexes(&self) -> impl ExactSizeIterator<Item = &FragmentIndex> {
        self.shards.iter().map(|shard| &shard.index)
    }

    /// Heap bytes the engine's indexes hold, per structure, summed
    /// over the shards ([`FragmentIndex::heap_bytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        let mut total = HeapBytes::default();
        for index in self.shard_indexes() {
            total.merge(index.heap_bytes());
        }
        total
    }

    /// Number of shards the handle space is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of indexed fragments across all shards.
    pub fn fragment_count(&self) -> usize {
        self.shard_indexes()
            .map(FragmentIndex::fragment_count)
            .sum()
    }

    /// Per-shard fragment counts (the partition balance).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.index.fragment_count())
            .collect()
    }

    /// Statistics of the crawl workflow that fed this engine.
    pub fn crawl_stats(&self) -> &WorkflowStats {
        &self.crawl_stats
    }
}

/// One shard's slice of the input: its fragments, borrowed (input order
/// preserved within groups — nothing is cloned until interning).
struct Part<'a> {
    fragments: Vec<&'a Fragment>,
}

/// Splits fragments into `shards` contiguous runs of group-key rank,
/// balancing by fragment count (a group is never split — group-local
/// candidate evolution is the unit of equivalence). Zero-copy: parts
/// borrow the input fragments.
fn partition(
    fragments: &[Fragment],
    range_position: Option<usize>,
    shards: usize,
) -> Vec<Part<'_>> {
    // Group key → member fragment indices, in key order (BTreeMap) with
    // input order preserved within each group.
    let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, f) in fragments.iter().enumerate() {
        // The catalog's own key derivation — partition order must stay
        // in lockstep with the shard catalogs' grouping.
        let (head, tail) = key_parts(f.id.values(), range_position);
        groups.entry([head, tail].concat()).or_default().push(i);
    }
    let total = fragments.len().max(1);
    let mut parts: Vec<Part<'_>> = (0..shards)
        .map(|_| Part {
            fragments: Vec::new(),
        })
        .collect();
    let mut assigned = 0usize;
    for members in groups.values() {
        // Contiguous, monotone assignment: the group's shard is chosen
        // by how much of the fragment mass precedes it.
        let shard = (assigned * shards / total).min(shards - 1);
        for &i in members {
            parts[shard].fragments.push(&fragments[i]);
        }
        assigned += members.len();
    }
    parts
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dash_webapp::fooddb;

    fn fooddb_parts() -> (WebApplication, Database) {
        (fooddb::search_application().unwrap(), fooddb::database())
    }

    /// Crawl-and-build through the builder front door.
    fn built(app: &WebApplication, db: &Database, shards: usize) -> Result<ShardedEngine> {
        let config = DashConfig::default();
        ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(crate::ingest::IngestSource::Crawl {
                db,
                config: &config,
            })
            .build()
    }

    #[test]
    fn matches_single_engine_on_running_example() {
        let (app, db) = fooddb_parts();
        let single = built(&app, &db, 1).unwrap();
        assert_eq!(single.shard_count(), 1);
        for shards in 2..=4 {
            let sharded = built(&app, &db, shards).unwrap();
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.fragment_count(), single.fragment_count());
            for (keywords, k, s) in [
                (vec!["burger"], 2, 20),
                (vec!["burger"], 10, 1),
                (vec!["burger", "fries"], 5, 1),
                (vec!["american"], 10, 1),
                (vec!["zzz"], 3, 10),
            ] {
                let req = SearchRequest::new(&keywords).k(k).min_size(s);
                assert_eq!(
                    sharded.search(&req),
                    single.search(&req),
                    "shards={shards} keywords={keywords:?} k={k} s={s}"
                );
            }
        }
    }

    #[test]
    fn partition_is_contiguous_and_complete() {
        let (app, db) = fooddb_parts();
        let crawl = crawl::run(&app, &db, &Default::default(), Default::default()).unwrap();
        let parts = partition(&crawl.fragments, app.query.range_selection_index(), 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.fragments.len()).sum();
        assert_eq!(total, crawl.fragments.len());
        // A group is never split across parts: counting distinct group
        // keys part by part equals counting them globally.
        let rp = app.query.range_selection_index();
        let groups: usize = parts
            .iter()
            .map(|p| {
                p.fragments
                    .iter()
                    .map(|f| {
                        let (head, tail) = key_parts(f.id.values(), rp);
                        [head, tail].concat()
                    })
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            })
            .sum();
        assert_eq!(groups, 2); // American + Thai
    }

    #[test]
    fn search_many_matches_search() {
        let (app, db) = fooddb_parts();
        let sharded = built(&app, &db, 2).unwrap();
        let requests = vec![
            SearchRequest::new(&["burger"]).k(2).min_size(20),
            SearchRequest::new(&["fries"]).k(3).min_size(1),
            SearchRequest::new(&["burger", "thai"]).k(4).min_size(5),
        ];
        let batch = sharded.search_many(&requests);
        assert_eq!(batch.len(), requests.len());
        for (request, batch_hits) in requests.iter().zip(&batch) {
            assert_eq!(batch_hits, &sharded.search(request));
        }
        assert!(sharded.search_many(&[]).is_empty());
    }

    #[test]
    fn more_shards_than_groups_still_works() {
        let (app, db) = fooddb_parts();
        let single = built(&app, &db, 1).unwrap();
        // fooddb has 2 equality groups; ask for 8 shards (most empty).
        let sharded = built(&app, &db, 8).unwrap();
        let req = SearchRequest::new(&["burger"]).k(10).min_size(1);
        assert_eq!(sharded.search(&req), single.search(&req));
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 5);
    }

    #[test]
    fn shard_setting_parses() {
        // The parser alone — mutating the process environment races
        // other test threads' getenv calls.
        assert_eq!(parse_shards("4"), Some(4));
        assert_eq!(parse_shards(" 2 "), Some(2));
        assert_eq!(parse_shards("0"), None);
        assert_eq!(parse_shards("nope"), None);
        assert_eq!(parse_shards(""), None);
    }

    #[test]
    fn routing_is_static_and_contiguous() {
        let (app, db) = fooddb_parts();
        // 2 groups (American, Thai) over 2 shards: American → 0, Thai → 1.
        let engine = built(&app, &db, 2).unwrap();
        let route = |cuisine: &str| engine.route((&[Value::str(cuisine)], &[]));
        assert_eq!(route("American"), 0);
        assert_eq!(route("Thai"), 1);
        // Keys outside the built ranges route to the nearest run:
        // below-all to the first routed shard, between/above to the
        // last bound not exceeding them.
        assert_eq!(route("Aaa"), 0);
        assert_eq!(route("Mexican"), 0);
        assert_eq!(route("Zulu"), 1);
    }

    #[test]
    fn incremental_insert_touches_one_shard_only() {
        let (app, db) = fooddb_parts();
        let mut engine = built(&app, &db, 2).unwrap();
        let sizes = engine.shard_sizes();
        // A new (Zulu, 30) fragment routes past every bound → last shard.
        let fragment = Fragment::new(
            crate::fragment::FragmentId::new(vec![Value::str("Zulu"), Value::Int(30)]),
            [("zebra".to_string(), 2u64)].into_iter().collect(),
            1,
        );
        let stats = engine.apply_delta(IndexDelta::adding(vec![fragment]));
        assert_eq!((stats.removed, stats.added), (0, 1));
        let after = engine.shard_sizes();
        assert_eq!(after[0], sizes[0]);
        assert_eq!(after[1], sizes[1] + 1);
        assert_eq!(engine.fragment_count(), sizes.iter().sum::<usize>() + 1);
        let hits = engine.search(&SearchRequest::new(&["zebra"]).k(1).min_size(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].url.contains("c=Zulu"), "got {}", hits[0].url);
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let (app, db) = fooddb_parts();
        let mut engine = built(&app, &db, 3).unwrap();
        let before = engine.shard_sizes();
        let stats = engine.apply_delta(IndexDelta::default());
        assert_eq!(stats, RefreshStats::default());
        assert_eq!(engine.shard_sizes(), before);
    }

    #[test]
    fn empty_dump_loads_as_one_empty_shard() {
        // An empty batch iterator must not produce a zero-shard engine
        // (which could answer nothing); it clamps to one empty shard
        // that searches cleanly and accepts deltas.
        let (app, _) = fooddb_parts();
        let mut engine = ShardedEngine::builder(app)
            .source(crate::ingest::IngestSource::Batches(Box::new(
                std::iter::empty(),
            )))
            .build()
            .unwrap();
        assert_eq!(engine.shard_count(), 1);
        assert!(engine
            .search(&SearchRequest::new(&["anything"]).k(3).min_size(1))
            .is_empty());
        let fragment = Fragment::new(
            crate::fragment::FragmentId::new(vec![Value::str("Nordic"), Value::Int(5)]),
            [("herring".to_string(), 1u64)].into_iter().collect(),
            1,
        );
        engine.apply_delta(IndexDelta::adding(vec![fragment]));
        assert_eq!(
            engine
                .search(&SearchRequest::new(&["herring"]).k(1).min_size(1))
                .len(),
            1
        );
    }

    #[test]
    fn empty_engine_accepts_deltas() {
        // No fragments at build: the routing table is empty, so every
        // delta lands in shard 0 and the other shards stay empty.
        let (app, _) = fooddb_parts();
        let mut engine = ShardedEngine::builder(app.clone())
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(engine.fragment_count(), 0);
        let fragments: Vec<Fragment> = [("American", 9i64), ("Thai", 10), ("Cajun", 7)]
            .iter()
            .map(|&(cuisine, budget)| {
                Fragment::new(
                    crate::fragment::FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]),
                    [("gumbo".to_string(), 1u64)].into_iter().collect(),
                    1,
                )
            })
            .collect();
        engine.apply_delta(IndexDelta::adding(fragments.clone()));
        assert_eq!(engine.shard_sizes(), vec![3, 0, 0]);
        let single = ShardedEngine::builder(app)
            .source(crate::ingest::IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        let req = SearchRequest::new(&["gumbo"]).k(5).min_size(1);
        assert_eq!(engine.search(&req), single.search(&req));
    }

    #[test]
    fn a_delta_of_another_arity_fails_before_any_shard_changes() {
        use crate::fragment::FragmentId;
        let (app, db) = fooddb_parts();
        let mut engine = built(&app, &db, 2).unwrap();
        let image = |engine: &ShardedEngine| {
            let mut bytes = Vec::new();
            engine.write_image(&mut bytes).unwrap();
            bytes
        };
        let before = image(&engine);
        let larb = |values: Vec<Value>| {
            Fragment::new(
                FragmentId::new(values),
                [("larb".to_string(), 2u64)].into_iter().collect(),
                1,
            )
        };
        let fits = larb(vec![Value::str("Lao"), Value::Int(3)]);
        let thai = FragmentId::new(vec![Value::str("Thai"), Value::Int(10)]);
        // A removal and an add that fit, then an add with no range value
        // (it used to panic in the graph after the catalog had interned).
        let short = IndexDelta::new(
            vec![thai.clone()],
            vec![fits.clone(), larb(vec![Value::str("Lao")])],
        );
        let expected = CoreError::IdentifierArity {
            id: "(Lao)".to_string(),
            arity: 1,
            expected: 2,
        };
        assert_eq!(short.check(engine.app()).unwrap_err(), expected);
        assert_eq!(engine.apply_checked(&short).unwrap_err(), expected);
        assert!(image(&engine) == before, "no shard changed");
        // One value too many, in a removal, is refused the same way.
        let mut long = thai.values().to_vec();
        long.push(Value::Int(1));
        let err = engine
            .apply_checked(&IndexDelta::removing(vec![FragmentId::new(long)]))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::IdentifierArity {
                arity: 3,
                expected: 2,
                ..
            }
        ));
        assert!(image(&engine) == before, "no shard changed");
        // Occurrences summing past the fragment's total are refused
        // by the same check, before any shard changes.
        let mut past = larb(vec![Value::str("Lao"), Value::Int(4)]);
        past.total_keywords = 1;
        let past = IndexDelta::new(vec![thai.clone()], vec![fits.clone(), past]);
        let expected = CoreError::OccurrencesPastTotal {
            id: "(Lao,4)".to_string(),
            occurrences: 2,
            total_keywords: 1,
        };
        assert_eq!(past.check(engine.app()).unwrap_err(), expected);
        assert_eq!(engine.apply_checked(&past).unwrap_err(), expected);
        assert!(image(&engine) == before, "no shard changed");
        // The engine still applies a delta that fits.
        engine.apply_delta(IndexDelta::adding(vec![fits]));
        let req = SearchRequest::new(&["larb"]).k(3).min_size(1);
        assert_eq!(engine.search(&req).len(), 1);
    }

    #[test]
    fn arena_image_roundtrips_engine() {
        let (app, db) = fooddb_parts();
        let mut engine = built(&app, &db, 2).unwrap();
        // Drift the balance so the roundtrip must preserve the exact
        // (non-rebalanced) partition.
        let fragment = Fragment::new(
            crate::fragment::FragmentId::new(vec![Value::str("Zulu"), Value::Int(30)]),
            [("zebra".to_string(), 2u64)].into_iter().collect(),
            1,
        );
        engine.apply_delta(IndexDelta::adding(vec![fragment]));
        let mut image = Vec::new();
        engine.write_image(&mut image).unwrap();
        let loaded = ShardedEngine::builder(app.clone())
            .source(crate::ingest::IngestSource::Image(&image))
            .build()
            .unwrap();
        assert_eq!(loaded.shard_sizes(), engine.shard_sizes());
        for keywords in [vec!["burger"], vec!["zebra"], vec!["burger", "fries"]] {
            let req = SearchRequest::new(&keywords).k(10).min_size(1);
            assert_eq!(loaded.search(&req), engine.search(&req), "{keywords:?}");
        }
        // A flipped byte anywhere must be rejected, not loaded.
        let mut torn = image.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x10;
        assert!(ShardedEngine::builder(app)
            .source(crate::ingest::IngestSource::Image(&torn))
            .build()
            .is_err());
    }

    #[test]
    fn delta_signature_carries_the_touched_groups_vocabulary() {
        let (app, db) = fooddb_parts();
        let id = |cuisine: &str, budget: i64| {
            crate::fragment::FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)])
        };
        for shards in [1, 3] {
            let engine = built(&app, &db, shards).unwrap();
            // One Thai fragment out, one fragment into a group that
            // does not exist yet: the signature names every keyword
            // any Thai fragment holds, plus the add's own.
            let delta = IndexDelta::new(
                vec![id("Thai", 10)],
                vec![Fragment::new(
                    id("Nordic", 7),
                    [("herring".to_string(), 2u64)].into_iter().collect(),
                    1,
                )],
            );
            let signature = engine.delta_signature(&delta);
            let expected: std::collections::BTreeSet<String> = engine
                .dump_shards()
                .into_iter()
                .flatten()
                .filter(|f| f.id.values()[0] == Value::str("Thai"))
                .flat_map(|f| f.keyword_occurrences.into_keys())
                .chain(["herring".to_string()])
                .collect();
            assert!(expected.len() > 2, "the Thai group holds a vocabulary");
            assert_eq!(signature.keywords, expected, "shards={shards}");
            assert_eq!(
                delta.touched_groups(Some(1)),
                [vec![Value::str("Nordic")], vec![Value::str("Thai")]]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
            );
            // A key that routes to a shard not holding it contributes
            // nothing.
            let unknown = IndexDelta::removing(vec![id("Nordic", 7)]);
            assert!(engine.delta_signature(&unknown).keywords.is_empty());
        }
    }

    #[test]
    fn a_prepared_delta_applies_once_and_only_to_the_state_it_was_read_from() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (app, db) = fooddb_parts();
        let image = |engine: &ShardedEngine| {
            let mut bytes = Vec::new();
            engine.write_image(&mut bytes).unwrap();
            bytes
        };
        let zebra = |budget: i64, count: u64| {
            Fragment::new(
                crate::fragment::FragmentId::new(vec![Value::str("Zulu"), Value::Int(budget)]),
                [("zebra".to_string(), count)].into_iter().collect(),
                1,
            )
        };
        let mut engine = built(&app, &db, 2).unwrap();
        let mut twin = engine.fork();
        let mut behind = engine.fork();
        let first = IndexDelta::adding(vec![zebra(30, 2)]);
        let prepared = engine.prepare(&first).unwrap();
        let stats = engine.apply_prepared(&prepared);
        // The lockstep fork takes the same preparation, to the same bytes.
        assert_eq!(twin.apply_prepared(&prepared), stats);
        assert!(image(&twin) == image(&engine));
        let refused = |target: &mut ShardedEngine, prepared: &PreparedDelta<'_>| {
            let before = image(target);
            let outcome = catch_unwind(AssertUnwindSafe(|| target.apply_prepared(prepared)));
            assert!(outcome.is_err(), "a misapplied preparation panics");
            assert!(image(target) == before, "and leaves the engine untouched");
        };
        // Applied twice: the engine has moved past the state it read.
        refused(&mut engine, &prepared);
        // Prepared one apply ahead of a fork left behind, and on a
        // fresh build of the same fragments, at another generation.
        let second = IndexDelta::new(vec![zebra(30, 2).id], vec![zebra(31, 5)]);
        let ahead = engine.prepare(&second).unwrap();
        refused(&mut behind, &ahead);
        refused(&mut built(&app, &db, 2).unwrap(), &ahead);
        // Where it was prepared, it still applies.
        assert_eq!(engine.apply_prepared(&ahead).removed, 1);
        assert_eq!(twin.apply_prepared(&ahead).added, 1);
        assert!(image(&twin) == image(&engine));
    }

    #[test]
    fn global_idf_survives_maintenance() {
        let (app, db) = fooddb_parts();
        let mut engine = built(&app, &db, 2).unwrap();
        let burger = SearchRequest::new(&["burger"]);
        let before = request_idf(&engine.views(), &burger)[0];
        assert!(before > 0.0);
        let fragment = Fragment::new(
            crate::fragment::FragmentId::new(vec![Value::str("Zulu"), Value::Int(30)]),
            [("burger".to_string(), 1u64)].into_iter().collect(),
            1,
        );
        engine.apply_delta(IndexDelta::adding(vec![fragment]));
        let after = request_idf(&engine.views(), &burger)[0];
        assert!(after < before, "df grew, idf must shrink");
    }

    /// The plateau corpus shape: `groups × per_group` fragments, each
    /// holding `"plateau"`; the first `tied` share one (occurrences,
    /// total) pair — one bit-identical seed score — and the rest vary.
    pub(crate) fn plateau_fragments(groups: usize, per_group: usize, tied: usize) -> Vec<Fragment> {
        (0..groups * per_group)
            .map(|n| {
                let (plateau, filler) = if n < tied {
                    (2, 8)
                } else {
                    (1 + (n % 7) as u64, 5 + (n % 11) as u64)
                };
                Fragment::new(
                    crate::fragment::FragmentId::new(vec![
                        Value::str(format!("G{:03}", n / per_group)),
                        Value::Int((n % per_group) as i64),
                    ]),
                    [
                        ("plateau".to_string(), plateau),
                        ("filler".to_string(), filler),
                    ]
                    .into_iter()
                    .collect(),
                    1,
                )
            })
            .collect()
    }

    /// Candidates one heap loop over `engine`'s whole partition pops
    /// for `request`.
    fn pops(engine: &ShardedEngine, request: &SearchRequest) -> u64 {
        let shards = engine.views();
        let idf = request_idf(&shards, request);
        let mut scratch = SearchScratch::new();
        top_k_in(
            &engine.app,
            &shards,
            request,
            &idf,
            &mut scratch,
            &mut Vec::new(),
        );
        scratch.pops
    }

    #[test]
    fn sharding_pops_exactly_the_single_shard_candidates() {
        // Sharding costs no reads: by the schedule-independence lemma
        // the one heap pops the same candidates at every shard count,
        // including through whole-corpus tie plateaus that every shard
        // boundary cuts.
        let (app, db) = fooddb_parts();
        let fooddb = crawl::run(&app, &db, &Default::default(), Default::default())
            .unwrap()
            .fragments;
        let corpora = [
            (
                "fooddb",
                fooddb,
                [&["burger"][..], &["fries"], &["burger", "fries"]],
            ),
            (
                "flat",
                plateau_fragments(16, 16, usize::MAX),
                [&["plateau"][..], &["filler"], &["plateau", "filler"]],
            ),
            (
                "half",
                plateau_fragments(16, 16, 128),
                [&["plateau"][..], &["filler"], &["plateau", "filler"]],
            ),
        ];
        for (label, fragments, keyword_sets) in &corpora {
            let engine = |shards: usize| {
                ShardedEngine::builder(app.clone())
                    .shards(shards)
                    .source(crate::ingest::IngestSource::Fragments(fragments))
                    .build()
                    .unwrap()
            };
            let one = engine(1);
            for shards in [2, 4, 8] {
                let many = engine(shards);
                for keywords in keyword_sets {
                    for (k, s) in [(1, 1), (10, 1), (10, 50), (40, 1), (40, 50)] {
                        let request = SearchRequest::new(keywords).k(k).min_size(s);
                        let expected = pops(&one, &request);
                        assert!(expected > 0, "{label} {keywords:?}: the search pops");
                        assert_eq!(
                            pops(&many, &request),
                            expected,
                            "{label} shards={shards} {keywords:?} k={k} s={s}"
                        );
                    }
                }
            }
        }
    }

    /// The compact layout, pinned in bytes at the environment's shard
    /// width (`DASH_SHARDS`, else 1): 8 bytes a posting in each arena,
    /// 4 bytes a handle for the catalog's handle-order column, for the
    /// identifiers a 4-byte group handle plus one range `Value` a
    /// handle, with every group key held once, and for the graph 4
    /// bytes a node in its runs plus 8 bytes a handle of `node_pos`
    /// and one run header a group — no value and no weight. Capacities,
    /// so slack would show, after a bulk build, after an image load
    /// (where the order column is derived only on first use) and after
    /// a delta.
    #[test]
    fn heap_bytes_pin_the_compact_layout() {
        use crate::index::Posting;
        use crate::ingest::IngestSource;
        assert_eq!(size_of::<Posting>(), 8);
        let app = fooddb::search_application().unwrap();
        let fragments = plateau_fragments(24, 16, 100);
        let shards = env_shards().unwrap_or(1);
        let engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        assert_eq!(engine.shard_count(), shards);
        let pinned = |engine: &ShardedEngine, order_per_handle: usize, context: &str| {
            for (s, index) in engine.shard_indexes().enumerate() {
                let postings = index.inverted.posting_count();
                let heap = index.heap_bytes();
                assert!(postings > 0, "{context}: shard {s} empty");
                assert_eq!(heap.tf_arena, 8 * postings, "{context}: shard {s}");
                assert_eq!(heap.probe_arena, 8 * postings, "{context}: shard {s}");
                assert_eq!(
                    heap.handle_order,
                    order_per_handle * index.catalog.len(),
                    "{context}: shard {s}"
                );
                // Each group key is one `Str` value ("G000", 4 bytes):
                // a key vector, its value, its string, a key-order and a
                // key-rank entry, within the key columns' doubling slack.
                let groups = index.catalog.key_count();
                let keys = heap.catalog_ids - (4 + size_of::<Value>()) * index.catalog.len();
                let per_group = size_of::<Vec<Value>>() + size_of::<Value>() + 4 + 4 + 4;
                assert!(
                    (groups * per_group..=2 * groups * per_group).contains(&keys),
                    "{context}: shard {s}: {keys} key bytes for {groups} groups"
                );
                assert_eq!(
                    heap.graph,
                    4 * index.graph.node_count()
                        + 8 * index.catalog.len()
                        + size_of::<Vec<crate::index::Frag>>() * groups,
                    "{context}: shard {s}"
                );
                // The vocabulary: a boxed run per group, 4 bytes a
                // keyword it holds.
                let held: usize = (0..groups as u32)
                    .map(|g| index.group_vocabulary(GroupId(g)).len())
                    .sum();
                assert_eq!(
                    heap.vocab,
                    size_of::<Box<[crate::index::Kw]>>() * groups + 4 * held,
                    "{context}: shard {s}"
                );
            }
        };
        pinned(&engine, 4, "built");
        let total = engine.heap_bytes();
        assert_eq!(
            total.tf_arena + total.probe_arena,
            16 * 24 * 16 * 2,
            "two postings a fragment, 8 bytes each, in each arena"
        );
        assert!(total.total() > total.tf_arena + total.probe_arena);

        let mut image = Vec::new();
        engine.write_image(&mut image).unwrap();
        let mut loaded = ShardedEngine::builder(app)
            .source(IngestSource::Image(&image))
            .build()
            .unwrap();
        pinned(&loaded, 0, "loaded");
        // An upsert of every fragment derives every shard's column and
        // moves postings, growing no arena.
        loaded.apply_delta(IndexDelta::adding(fragments.clone()));
        pinned(&loaded, 4, "upserted");
    }

    #[test]
    fn an_image_of_a_maintained_engine_reloads_exactly() {
        // Deltas that empty a group, create a group between two others
        // (its key interned out of order) and re-add a removed
        // fragment: the reloaded engine answers the same, locates every
        // handle the same and re-dumps the same bytes, at 1 and 4
        // shards.
        use crate::fragment::FragmentId;
        use crate::ingest::IngestSource;
        let app = fooddb::search_application().unwrap();
        let fragments = plateau_fragments(12, 6, 20);
        let id =
            |group: &str, budget: i64| FragmentId::new(vec![Value::str(group), Value::Int(budget)]);
        let fragment = |group: &str, budget: i64, plateau: u64| {
            Fragment::new(
                id(group, budget),
                [("plateau".to_string(), plateau), ("late".to_string(), 1)]
                    .into_iter()
                    .collect(),
                1,
            )
        };
        let readded = fragments[7 * 6 + 2].clone();
        let deltas = [
            IndexDelta::removing((0..6).map(|b| id("G003", b)).collect()),
            IndexDelta::new(
                vec![readded.id.clone()],
                vec![fragment("G005a", 4, 3), fragment("G005a", 1, 2)],
            ),
            IndexDelta::adding(vec![readded, fragment("G010", 9, 5)]),
        ];
        let requests = [
            SearchRequest::new(&["plateau"]).k(40).min_size(1),
            SearchRequest::new(&["plateau", "filler"])
                .k(10)
                .min_size(50),
            SearchRequest::new(&["late"]).k(5).min_size(10),
        ];
        for shards in [1, 4] {
            let mut engine = ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&fragments))
                .build()
                .unwrap();
            for delta in &deltas {
                engine.apply_delta(delta.clone());
            }
            assert_eq!(engine.fragment_count(), fragments.len() - 6 + 3);
            let mut image = Vec::new();
            engine.write_image(&mut image).unwrap();
            let loaded = ShardedEngine::builder(app.clone())
                .source(IngestSource::Image(&image))
                .build()
                .unwrap();
            assert_eq!(loaded.fragment_count(), engine.fragment_count());
            assert_eq!(loaded.route_bounds, engine.route_bounds);
            for request in &requests {
                let hits = engine.search(request);
                assert!(!hits.is_empty(), "shards={shards}");
                assert_eq!(loaded.search(request), hits, "shards={shards}");
            }
            for (a, b) in engine.shard_indexes().zip(loaded.shard_indexes()) {
                assert_eq!(a.catalog.len(), b.catalog.len());
                for frag in (0..a.catalog.len() as u32).map(crate::index::Frag) {
                    assert_eq!(
                        a.graph.locate(frag),
                        b.graph.locate(frag),
                        "shards={shards}"
                    );
                }
            }
            let mut again = Vec::new();
            loaded.write_image(&mut again).unwrap();
            assert!(again == image, "shards={shards}: re-dump differs");
        }
    }
}
