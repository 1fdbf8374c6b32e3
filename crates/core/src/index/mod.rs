//! The fragment index = fragment catalog + inverted fragment index +
//! fragment graph (Sections V–VI of the paper).
//!
//! The [`FragmentCatalog`] interns every crawled fragment identifier
//! into a dense [`catalog::Frag`] handle and owns every fragment fact
//! (identifier, group key, key order, weight); the
//! [`InvertedFragmentIndex`] and [`FragmentGraph`] are handle-native
//! and columnar, so search never touches a `Vec<Value>` identifier
//! until it emits results. Each equality group's vocabulary — the
//! keywords its live fragments hold — is kept beside them, so a delta
//! reads only the inverted lists of the groups it touches.

pub mod catalog;
#[cfg(test)]
mod catalog_tests;
pub mod graph;
pub mod inverted;
#[cfg(test)]
mod splice_tests;
#[cfg(test)]
mod walk_tests;

pub use catalog::{Frag, FragmentCatalog, GroupId, Kw};
pub use graph::{FragmentGraph, NodeRef};
pub use inverted::{InvertedFragmentIndex, KeywordInterner, Posting};

use std::collections::{BTreeMap, HashSet};

use crate::fragment::{Fragment, FragmentId};
use crate::index::inverted::{check_total, intersect, Splice};
use crate::par;
use crate::update::{IndexDelta, RefreshStats};
use crate::Result;

/// The complete fragment index Dash searches over.
#[derive(Debug, Clone, Default)]
pub struct FragmentIndex {
    /// Identifier ⇄ handle interning plus shared per-fragment columns.
    pub catalog: FragmentCatalog,
    /// Keyword → TF-sorted fragment postings (arena-backed).
    pub inverted: InvertedFragmentIndex,
    /// Which fragments combine into db-pages (columnar groups).
    pub graph: FragmentGraph,
    /// Per [`GroupId`]: the keywords any live fragment of the group
    /// holds, ascending — derived from the probe arena at build and at
    /// image load, rewritten for the touched groups by every delta.
    vocabulary: Vec<Box<[Kw]>>,
}

impl FragmentIndex {
    /// Builds all parts from materialized fragments: interns handles,
    /// places the probe postings, then derives the TF arena and the
    /// graph in parallel (they share nothing but the read-only catalog).
    ///
    /// `range_position` is the index of the range-bound selection
    /// attribute within fragment identifiers (`None` when the application
    /// query has only equality parameters). Identifiers must be unique.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::IdentifierArity`] when an identifier
    /// holds no value at `range_position`,
    /// [`crate::CoreError::OccurrenceOverflow`] when a keyword occurs
    /// more than `u32::MAX` times in one fragment, and
    /// [`crate::CoreError::OccurrencesPastTotal`] when a fragment's
    /// occurrences sum past its `total_keywords`.
    pub fn build(fragments: &[Fragment], range_position: Option<usize>) -> Result<Self> {
        let refs: Vec<&Fragment> = fragments.iter().collect();
        Self::build_refs(&refs, range_position)
    }

    /// [`FragmentIndex::build`] over borrowed fragments — the zero-copy
    /// path the sharded partition uses (shard parts are reference runs
    /// into one crawl output; nothing is cloned until interning). It is
    /// the bulk build's two stages back to back: `FragmentIndex::place`
    /// (the catalog, the interner and the probe arena, read off the
    /// fragments) and then `PlacedIndex::finish` (the TF arena and the
    /// graph, from those alone).
    ///
    /// # Errors
    ///
    /// Same as [`FragmentIndex::build`].
    pub fn build_refs(fragments: &[&Fragment], range_position: Option<usize>) -> Result<Self> {
        Self::place(fragments, range_position)?.finish()
    }

    /// Stage one of a bulk build, the only stage that reads the
    /// fragments: the catalog's columns, the keyword interner and the
    /// placed probe arena. Stage two ([`PlacedIndex::finish`]) needs
    /// none of the fragments, so a caller holding them in a batch of
    /// its own frees the batch in between, and stage two's allocations
    /// reuse the batch's memory instead of adding to it.
    ///
    /// # Errors
    ///
    /// Same as [`FragmentIndex::build`].
    pub(crate) fn place(
        fragments: &[&Fragment],
        range_position: Option<usize>,
    ) -> Result<PlacedIndex> {
        let catalog = FragmentCatalog::from_refs(fragments, range_position)?;
        let inverted = InvertedFragmentIndex::place(&catalog, fragments)?;
        Ok(PlacedIndex { catalog, inverted })
    }

    /// Heap bytes this index holds, per structure.
    pub fn heap_bytes(&self) -> HeapBytes {
        let (catalog_ids, handle_order, columns) = self.catalog.heap_bytes();
        let (interner, lists, tf_arena, probe_arena) = self.inverted.heap_bytes();
        HeapBytes {
            catalog_ids,
            handle_order,
            columns,
            graph: self.graph.heap_bytes(),
            interner,
            lists,
            tf_arena,
            probe_arena,
            vocab: self.vocabulary.capacity() * size_of::<Box<[Kw]>>()
                + self
                    .vocabulary
                    .iter()
                    .map(|run| size_of_val(&**run))
                    .sum::<usize>(),
        }
    }

    /// Wires the three parts into an index and derives every group's
    /// vocabulary from the probe arena — one pass over the postings,
    /// the bulk build's last step and the image loader's. The same pass
    /// sums each fragment's occurrences, which may not pass its
    /// catalog `total_keywords`.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::OccurrencesPastTotal`] for the first fragment
    /// (by handle) whose occurrences sum past its total.
    pub(crate) fn assemble(
        catalog: FragmentCatalog,
        inverted: InvertedFragmentIndex,
        graph: FragmentGraph,
    ) -> Result<Self> {
        let mut runs: Vec<Vec<Kw>> = vec![Vec::new(); catalog.key_count()];
        // Per group, the last keyword pushed: a dense column, so only a
        // keyword new to its group touches the group's run.
        let mut last = vec![Kw(u32::MAX); catalog.key_count()];
        let mut sums = vec![0u64; catalog.len()];
        for kw in (0..inverted.list_count() as u32).map(Kw) {
            for posting in inverted.probe_postings(kw) {
                let group = catalog.group(posting.frag).index();
                if last[group] != kw {
                    last[group] = kw;
                    runs[group].push(kw);
                }
                let sum = &mut sums[posting.frag.index()];
                *sum = sum.saturating_add(u64::from(posting.occurrences));
            }
        }
        let totals = catalog.image_columns().0;
        if let Some(at) = sums.iter().zip(totals).position(|(sum, total)| sum > total) {
            let frag = Frag(at as u32);
            check_total(&catalog.id(frag), sums[at], totals[at])?;
        }
        // Collected in place, the column would keep the wider runs'
        // capacity.
        let mut vocabulary: Vec<Box<[Kw]>> = runs.into_iter().map(Vec::into_boxed_slice).collect();
        vocabulary.shrink_to_fit();
        Ok(FragmentIndex {
            catalog,
            inverted,
            graph,
            vocabulary,
        })
    }

    /// The keywords any live fragment of `group` holds, ascending.
    pub fn group_vocabulary(&self, group: GroupId) -> &[Kw] {
        &self.vocabulary[group.index()]
    }

    /// Number of indexed fragments: the graph's live nodes (the graph
    /// owns liveness; the inverted lists cannot tell a keyword-less
    /// live fragment from a removed one).
    pub fn fragment_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Applies one [`IndexDelta`] atomically: every structure sees the
    /// whole batch — removals first, then (re)insertions — before any
    /// search can observe the index again (`&mut self` guarantees
    /// exclusivity). A delta may carry several recomputations of the
    /// same identifier (e.g. two record deltas concatenated); the
    /// **last** add for an identifier wins, so applying a concatenation
    /// equals applying the parts in order. It is the checks, then
    /// `FragmentIndex::prepare` and `FragmentIndex::apply_prepared`,
    /// the two halves every engine's write path runs.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::OccurrenceOverflow`] when an added fragment
    /// holds a keyword more than `u32::MAX` times,
    /// [`crate::CoreError::OccurrencesPastTotal`] when its occurrences
    /// sum past its `total_keywords`, and
    /// [`crate::CoreError::IdentifierArity`] when an added identifier
    /// holds no value at the range position. The checks run before
    /// anything changes, so the index is left exactly as it was.
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<RefreshStats> {
        if delta.is_empty() {
            return Ok(RefreshStats::default());
        }
        inverted::check_counts(&delta.adds)?;
        self.catalog.check_arity(delta.adds.iter().map(|f| &f.id))?;
        let removes: Vec<&FragmentId> = delta.removes.iter().collect();
        let adds: Vec<&Fragment> = delta.adds.iter().collect();
        let prepared = self.prepare(&removes, &adds);
        Ok(self.apply_prepared(&prepared))
    }

    /// The read half of a delta, against the index as it stands before
    /// it: the last-wins dedup of `adds`, each add's handle (its
    /// identifier's, or the one `FragmentCatalog::intern` will give a
    /// new identifier), the live handles `removes` takes out, the
    /// touched groups' vocabulary and — from **one** walk of exactly
    /// the inverted lists that vocabulary names — the stale postings and
    /// the keywords each touched group keeps. Then the posting splice is
    /// located ([`InvertedFragmentIndex::locate`]). The walk visits
    /// |V(touched groups)| lists and the postings of the touched groups
    /// in them; nothing here grows with the shard beyond that. `adds`
    /// must have passed the checks of [`FragmentIndex::apply`].
    pub(crate) fn prepare<'d>(
        &self,
        removes: &[&FragmentId],
        adds: &[&'d Fragment],
    ) -> PreparedIndexDelta<'d> {
        // Last-wins dedup: a duplicated add must splice exactly one
        // posting per keyword, or df/IDF would drift from a rebuild.
        let mut seen: HashSet<&FragmentId> = HashSet::with_capacity(adds.len());
        let mut last: Vec<&Fragment> = Vec::with_capacity(adds.len());
        for &fragment in adds.iter().rev() {
            if seen.insert(&fragment.id) {
                last.push(fragment);
            }
        }
        // New identifiers take the handles `intern` appends, in delta
        // order.
        let mut next = self.catalog.len() as u32;
        let adds: Vec<Add<'d>> = last
            .into_iter()
            .rev()
            .map(|fragment| match self.catalog.frag(&fragment.id) {
                Some(frag) => Add {
                    frag,
                    new: false,
                    fragment,
                },
                None => {
                    next += 1;
                    Add {
                        frag: Frag(next - 1),
                        new: true,
                        fragment,
                    }
                }
            })
            .collect();
        // Only handles with a live node hold postings (the graph owns
        // liveness), so a tombstone is neither removed nor stale.
        let live = |frag: &Frag| self.graph.locate(*frag).is_some();
        let known: Vec<Option<Frag>> = removes.iter().map(|id| self.catalog.frag(id)).collect();
        let mut removed: Vec<Frag> = known.iter().flatten().copied().filter(live).collect();
        removed.sort_unstable();
        removed.dedup();
        // A re-add's current postings are stale too.
        let mut stale: Vec<Frag> = adds
            .iter()
            .filter(|add| !add.new)
            .map(|add| add.frag)
            .filter(live)
            .collect();
        stale.extend_from_slice(&removed);
        stale.sort_unstable();
        stale.dedup();
        // A known handle names its group; only a new identifier's key
        // is looked up.
        let group = |id: &FragmentId, frag: Option<Frag>| match frag {
            Some(frag) => Some(self.catalog.group(frag)),
            None => self.catalog.group_of_id(id),
        };
        let mut groups: Vec<GroupId> = removes
            .iter()
            .zip(known)
            .filter_map(|(id, frag)| group(id, frag))
            .chain(
                adds.iter()
                    .filter_map(|add| group(&add.fragment.id, (!add.new).then_some(add.frag))),
            )
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let mut held: Vec<Kw> = groups
            .iter()
            .flat_map(|&group| self.group_vocabulary(group))
            .copied()
            .collect();
        held.sort_unstable();
        held.dedup();
        let mut frags: Vec<Frag> = groups
            .iter()
            .flat_map(|&group| self.graph.group_nodes(group))
            .copied()
            .collect();
        // Group runs are range-sorted; the intersections want handles.
        frags.sort_unstable();

        // The walk: each held list's probe slice, intersected with the
        // touched handles. A match is a stale posting, or keeps its
        // keyword in its group's vocabulary.
        let mut stale_postings: Vec<(Kw, Posting)> = Vec::new();
        let mut kept: Vec<Vec<Kw>> = vec![Vec::new(); groups.len()];
        for &kw in &held {
            let entries = self.inverted.probe_postings(kw);
            for at in intersect(entries, &frags) {
                let posting = entries[at];
                if stale.binary_search(&posting.frag).is_ok() {
                    stale_postings.push((kw, posting));
                    continue;
                }
                let at = groups
                    .binary_search(&self.catalog.group(posting.frag))
                    .expect("a touched handle's group is touched");
                if kept[at].last() != Some(&kw) {
                    kept[at].push(kw);
                }
            }
        }
        let splice = self.inverted.locate(&self.catalog, &stale_postings, &adds);
        PreparedIndexDelta {
            removed,
            adds,
            splice,
            kept: groups.into_iter().zip(kept).collect(),
            held,
        }
    }

    /// The write half of a delta: the graph splices (each touches only
    /// its own group's run), the catalog refreshes and interns, the
    /// located posting splice is written
    /// ([`InvertedFragmentIndex::splice`]) and the touched groups'
    /// vocabularies are rewritten: what each kept, plus the keywords
    /// its adds bring. No list is read that is not edited, and nothing
    /// is located twice. `prepared` must come from
    /// [`FragmentIndex::prepare`] on this index in its current state,
    /// or on an identical one.
    pub(crate) fn apply_prepared(&mut self, prepared: &PreparedIndexDelta<'_>) -> RefreshStats {
        for &frag in &prepared.removed {
            self.graph.remove(frag);
        }
        for add in &prepared.adds {
            if add.new {
                let frag = self.catalog.intern(add.fragment);
                debug_assert_eq!(frag, add.frag, "a new identifier takes its prepared handle");
            } else {
                self.catalog.refresh(add.frag, add.fragment);
            }
            self.graph.insert(&self.catalog, add.frag);
        }
        self.inverted.splice(&prepared.splice);
        let mut runs: BTreeMap<GroupId, Vec<Kw>> = prepared.kept.iter().cloned().collect();
        for (kw, frag) in prepared.splice.arrivals() {
            runs.entry(self.catalog.group(frag)).or_default().push(kw);
        }
        self.vocabulary
            .resize_with(self.catalog.key_count(), Box::default);
        for (group, mut run) in runs {
            run.sort_unstable();
            run.dedup();
            self.vocabulary[group.index()] = run.into_boxed_slice();
        }
        RefreshStats {
            removed: prepared.removed.len(),
            added: prepared.adds.len(),
        }
    }
}

/// One add of a delta after the last-wins dedup: the fragment and its
/// handle — its identifier's, or, when `new`, the one the catalog's
/// append-only `intern` will give it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Add<'d> {
    pub(crate) frag: Frag,
    pub(crate) new: bool,
    pub(crate) fragment: &'d Fragment,
}

/// One index's share of a delta, read off the index before the delta
/// ([`FragmentIndex::prepare`]) and written by
/// [`FragmentIndex::apply_prepared`] — into that index, or into an
/// identical twin.
#[derive(Debug)]
pub(crate) struct PreparedIndexDelta<'d> {
    /// The live handles the delta removes, ascending.
    removed: Vec<Frag>,
    /// The adds after last-wins dedup, in delta order.
    adds: Vec<Add<'d>>,
    /// The posting splice, located against the pre-delta index.
    splice: Splice<'d>,
    /// Each touched pre-delta group with the keywords its fragments
    /// other than the stale ones hold, both ascending.
    kept: Vec<(GroupId, Vec<Kw>)>,
    /// The touched groups' pre-delta vocabulary, ascending: the
    /// inverted lists the walk visited, one each.
    pub(crate) held: Vec<Kw>,
}

/// A bulk build after its first stage ([`FragmentIndex::place`]): the
/// catalog and the probe-placed inverted index, holding no borrow of
/// the fragments they were built from.
#[derive(Debug)]
pub(crate) struct PlacedIndex {
    catalog: FragmentCatalog,
    inverted: InvertedFragmentIndex,
}

impl PlacedIndex {
    /// Stage two of a bulk build: the TF arena (the probe arena's
    /// postings, each list sorted by descending TF) and the graph, in
    /// parallel, from the catalog and the probe arena alone; then the
    /// groups' vocabulary ([`FragmentIndex::assemble`]).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::OccurrencesPastTotal`] for a fragment whose
    /// occurrences sum past its `total_keywords`.
    pub(crate) fn finish(self) -> Result<FragmentIndex> {
        let PlacedIndex {
            catalog,
            mut inverted,
        } = self;
        let ((), graph) = par::join(
            || inverted.rebuild_tf_arena(&catalog),
            || FragmentGraph::build(&catalog, &[]),
        );
        FragmentIndex::assemble(catalog, inverted, graph)
    }
}

/// Heap bytes one [`FragmentIndex`] holds, per structure: vector
/// capacities (slack included) plus what their elements own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// The catalog's identifiers: the group keys (interned once per
    /// group) with their key order and its inverse, the per-handle
    /// group and range value columns, and their string payloads.
    pub catalog_ids: usize,
    /// The catalog's handle-order column, 4 bytes a handle (0 until an
    /// image-loaded catalog first derives it).
    pub handle_order: usize,
    /// The catalog's `total_keywords` and `record_counts` columns.
    pub columns: usize,
    /// The fragment graph: the run table, the node runs (4 bytes a
    /// node) and the node-position column (8 bytes a handle).
    pub graph: usize,
    /// The keyword interner: words and the word → handle slot table.
    pub interner: usize,
    /// The TF-sorted posting arena, 8 bytes a posting.
    pub tf_arena: usize,
    /// The fragment-sorted probe arena, 8 bytes a posting.
    pub probe_arena: usize,
    /// The per-keyword list table shared by both arenas.
    pub lists: usize,
    /// Every equality group's vocabulary: a boxed run per group, 4
    /// bytes a keyword.
    pub vocab: usize,
}

impl HeapBytes {
    /// Every structure by its gauge suffix, in declaration order.
    pub fn parts(&self) -> [(&'static str, usize); 9] {
        [
            ("catalog_ids", self.catalog_ids),
            ("handle_order", self.handle_order),
            ("columns", self.columns),
            ("graph", self.graph),
            ("interner", self.interner),
            ("tf_arena", self.tf_arena),
            ("probe_arena", self.probe_arena),
            ("lists", self.lists),
            ("vocab", self.vocab),
        ]
    }

    /// The sum over every structure.
    pub fn total(&self) -> usize {
        self.parts().iter().map(|(_, bytes)| bytes).sum()
    }

    /// Adds `other` part by part (summing shards).
    pub fn merge(&mut self, other: HeapBytes) {
        self.catalog_ids += other.catalog_ids;
        self.handle_order += other.handle_order;
        self.columns += other.columns;
        self.graph += other.graph;
        self.interner += other.interner;
        self.tf_arena += other.tf_arena;
        self.probe_arena += other.probe_arena;
        self.lists += other.lists;
        self.vocab += other.vocab;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_relation::Value;
    use std::collections::BTreeMap;

    fn fragment(cuisine: &str, budget: i64, words: &[(&str, u64)]) -> Fragment {
        let occ: BTreeMap<String, u64> = words.iter().map(|(w, n)| (w.to_string(), *n)).collect();
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]),
            occ,
            1,
        )
    }

    fn sample() -> Vec<Fragment> {
        vec![
            fragment("American", 9, &[("coffee", 1), ("nice", 1)]),
            fragment("American", 10, &[("burger", 2), ("queen", 1)]),
            fragment("American", 12, &[("burger", 1), ("fries", 1)]),
            fragment("Thai", 10, &[("burger", 1), ("thai", 1)]),
        ]
    }

    #[test]
    fn build_wires_all_parts_to_one_catalog() {
        let fragments = sample();
        let index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        assert_eq!(index.fragment_count(), 4);
        assert_eq!(index.catalog.len(), 4);
        // A posting's handle locates in the graph and resolves to an id.
        let burger = index.inverted.postings("burger").unwrap();
        for p in burger {
            let node = index.graph.locate(p.frag).expect("posting node");
            assert_eq!(index.graph.frag_at(node), Some(p.frag));
            assert!(index.catalog.frag(&index.catalog.id(p.frag)) == Some(p.frag));
        }
    }

    #[test]
    fn double_add_replaces_instead_of_duplicating() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        // Re-adding a live fragment (no remove first) must replace its
        // node and postings, not splice duplicates.
        let updated = fragment("American", 10, &[("burger", 5), ("queen", 1)]);
        index
            .apply(&IndexDelta::adding(vec![updated.clone()]))
            .unwrap();
        assert_eq!(index.fragment_count(), 4);
        let frag = index.catalog.frag(&updated.id).unwrap();
        let node = index.graph.locate(frag).unwrap();
        assert_eq!(index.graph.frag_at(node), Some(frag));
        assert_eq!(
            index
                .graph
                .group_nodes(node.group)
                .iter()
                .filter(|&&f| f == frag)
                .count(),
            1
        );
        let kw = index.inverted.kw("burger").unwrap();
        assert_eq!(index.inverted.occurrences(kw, frag), 5);
        // And it can still be removed cleanly afterwards.
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![updated.id.clone()]))
                .unwrap()
                .removed,
            1
        );
        assert_eq!(index.fragment_count(), 3);
    }

    #[test]
    fn duplicate_adds_dedupe_last_wins() {
        // A delta carrying two recomputations of one identifier must
        // splice exactly one posting set — the later one — or df/IDF
        // would drift from a rebuild.
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let stale = fragment("American", 10, &[("burger", 3), ("queen", 1)]);
        let fresh = fragment("American", 10, &[("burger", 7), ("queen", 2)]);
        let stats = index
            .apply(&IndexDelta::new(
                vec![stale.id.clone()],
                vec![stale.clone(), fresh.clone()],
            ))
            .unwrap();
        assert_eq!((stats.removed, stats.added), (1, 1));
        assert_eq!(index.fragment_count(), 4);
        // df sees ONE posting for the id; occurrences are the latest.
        assert_eq!(index.inverted.df("burger"), 3);
        let frag = index.catalog.frag(&fresh.id).unwrap();
        let kw = index.inverted.kw("burger").unwrap();
        assert_eq!(index.inverted.occurrences(kw, frag), 7);
        assert_eq!(index.catalog.total_keywords(frag), 9);
    }

    #[test]
    fn an_overflowing_count_fails_the_delta_and_leaves_the_index_untouched() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let image = |index: &FragmentIndex| {
            let mut bytes = Vec::new();
            crate::persist::write_image(&mut bytes, Some(1), &[index]).unwrap();
            bytes
        };
        let before = image(&index);
        let wide = u64::from(u32::MAX) + 1;
        // A removal, an upsert and a new fragment, the last one holding
        // a count no posting can: nothing of the batch may land.
        let delta = IndexDelta::new(
            vec![fragments[0].id.clone()],
            vec![
                fragment("American", 10, &[("burger", 5)]),
                fragment("Thai", 11, &[("curry", wide)]),
            ],
        );
        let err = index.apply(&delta).unwrap_err();
        assert_eq!(
            err,
            crate::CoreError::OccurrenceOverflow {
                keyword: "curry".to_string(),
                occurrences: wide,
            }
        );
        assert_eq!(image(&index), before);
        assert_eq!(index.fragment_count(), 4);
        assert_eq!(index.catalog.len(), 4);
        // The same build fails as a typed error too.
        let mut overflowing = fragments.clone();
        overflowing.push(fragment("Thai", 11, &[("curry", wide)]));
        assert!(matches!(
            FragmentIndex::build(&overflowing, Some(1)),
            Err(crate::CoreError::OccurrenceOverflow { .. })
        ));
    }

    #[test]
    fn occurrences_past_the_total_fail_the_delta_untouched() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let image = |index: &FragmentIndex| {
            let mut bytes = Vec::new();
            crate::persist::write_image(&mut bytes, Some(1), &[index]).unwrap();
            bytes
        };
        let before = image(&index);
        let mut lowered = fragment("Thai", 11, &[("curry", 2), ("thai", 1)]);
        lowered.total_keywords = 2;
        let delta = IndexDelta::new(
            vec![fragments[0].id.clone()],
            vec![fragment("American", 10, &[("burger", 5)]), lowered],
        );
        assert_eq!(
            index.apply(&delta).unwrap_err(),
            crate::CoreError::OccurrencesPastTotal {
                id: "(Thai,11)".to_string(),
                occurrences: 3,
                total_keywords: 2,
            }
        );
        assert_eq!(image(&index), before);
        // A total above the sum (a fragment with uncounted words) fits.
        let mut padded = fragment("Thai", 11, &[("curry", 2)]);
        padded.total_keywords = 5;
        index.apply(&IndexDelta::adding(vec![padded])).unwrap();
    }

    /// Whether two indexes hold the same arenas, list table and image.
    fn assert_same_layout(a: &FragmentIndex, b: &FragmentIndex, context: &str) {
        let image = |index: &FragmentIndex| {
            let mut bytes = Vec::new();
            crate::persist::write_image(&mut bytes, Some(1), &[index]).unwrap();
            bytes
        };
        assert_eq!(
            a.inverted.image_tf_arena(),
            b.inverted.image_tf_arena(),
            "{context}"
        );
        assert_eq!(
            a.inverted.image_probe_arena(),
            b.inverted.image_probe_arena(),
            "{context}"
        );
        assert!(
            a.inverted.image_lists().eq(b.inverted.image_lists()),
            "{context}"
        );
        assert!(image(a) == image(b), "{context}: image bytes");
    }

    #[test]
    fn a_twin_splicing_the_located_edits_equals_an_index_that_applied_alone() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let deltas = [
            // TFs move, a new word, a new identifier in a known group
            // (with a tie against a known one) and a new group.
            IndexDelta::new(
                vec![fragments[0].id.clone()],
                vec![
                    fragment("American", 10, &[("burger", 1), ("queen", 3), ("shake", 2)]),
                    fragment("American", 11, &[("burger", 1), ("fries", 1)]),
                    fragment("Korean", 4, &[("bibimbap", 2), ("burger", 2)]),
                ],
            ),
            // A removal that empties a group.
            IndexDelta::removing(vec![fragments[3].id.clone()]),
            // A tombstone re-added twice (the last wins), beside a new
            // identifier that sorts before every known one.
            IndexDelta::adding(vec![
                fragment("Thai", 10, &[("thai", 2)]),
                fragment("Thai", 10, &[("curry", 1), ("thai", 1)]),
                fragment("Abkhaz", 1, &[("curry", 1), ("burger", 1)]),
            ]),
        ];
        for (step, delta) in deltas.iter().enumerate() {
            let mut twin = index.clone();
            let mut alone = index.clone();
            let removes: Vec<&FragmentId> = delta.removes.iter().collect();
            let adds: Vec<&Fragment> = delta.adds.iter().collect();
            let prepared = index.prepare(&removes, &adds);
            let stats = index.apply_prepared(&prepared);
            assert_eq!(twin.apply_prepared(&prepared), stats);
            assert_eq!(alone.apply(delta).unwrap(), stats);
            assert_same_layout(&twin, &index, &format!("step {step}: twin"));
            assert_same_layout(&alone, &index, &format!("step {step}: alone"));
        }
    }

    #[test]
    fn an_identifier_without_a_range_value_fails_the_delta_untouched() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let image = |index: &FragmentIndex| {
            let mut bytes = Vec::new();
            crate::persist::write_image(&mut bytes, Some(1), &[index]).unwrap();
            bytes
        };
        let before = image(&index);
        let short = Fragment::new(
            FragmentId::new(vec![Value::str("Lao")]),
            [("larb".to_string(), 1)].into_iter().collect(),
            1,
        );
        let delta = IndexDelta::new(
            vec![fragments[0].id.clone()],
            vec![fragment("Lao", 3, &[("larb", 1)]), short],
        );
        assert!(matches!(
            index.apply(&delta),
            Err(crate::CoreError::IdentifierArity {
                arity: 1,
                expected: 2,
                ..
            })
        ));
        assert!(image(&index) == before);
        assert_eq!(index.catalog.len(), 4);
    }

    #[test]
    fn removing_tombstoned_id_is_cheap_noop() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let id = fragments[0].id.clone();
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![id.clone()]))
                .unwrap()
                .removed,
            1
        );
        let postings_before = index.inverted.posting_count();
        // Second removal: the id still resolves (tombstoned handle) but
        // nothing matches — arenas must be untouched.
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![id.clone()]))
                .unwrap()
                .removed,
            0
        );
        assert_eq!(index.inverted.posting_count(), postings_before);
        assert_eq!(index.fragment_count(), 3);
    }

    #[test]
    fn maintenance_round_trip_matches_rebuild() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let id = fragments[1].id.clone();
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![id.clone()]))
                .unwrap()
                .removed,
            1
        );
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![id.clone()]))
                .unwrap()
                .removed,
            0
        );
        assert_eq!(index.fragment_count(), 3);
        index
            .apply(&IndexDelta::adding(vec![fragments[1].clone()]))
            .unwrap();
        assert_eq!(index.fragment_count(), 4);
        let rebuilt = FragmentIndex::build(&fragments, Some(1)).unwrap();
        for word in ["burger", "coffee", "queen", "thai"] {
            assert_eq!(
                index.inverted.postings(word).map(|p| p
                    .iter()
                    .map(|x| (index.catalog.id(x.frag), x.occurrences))
                    .collect::<Vec<_>>()),
                rebuilt.inverted.postings(word).map(|p| p
                    .iter()
                    .map(|x| (rebuilt.catalog.id(x.frag), x.occurrences))
                    .collect::<Vec<_>>()),
                "{word}"
            );
        }
        assert_eq!(index.graph.edge_count(), rebuilt.graph.edge_count());
    }
}
