//! The fragment index = fragment catalog + inverted fragment index +
//! fragment graph (Sections V–VI of the paper).
//!
//! The [`FragmentCatalog`] interns every crawled fragment identifier
//! into a dense [`catalog::Frag`] handle and owns every fragment fact
//! (identifier, group key, key order, weight); the
//! [`InvertedFragmentIndex`] and [`FragmentGraph`] are handle-native
//! and columnar, so search never touches a `Vec<Value>` identifier
//! until it emits results.

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

use std::collections::HashSet;

use crate::fragment::{Fragment, FragmentId};
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
    /// holds no value at `range_position`, and
    /// [`crate::CoreError::OccurrenceOverflow`] when a keyword occurs
    /// more than `u32::MAX` times in one fragment.
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
        Ok(Self::place(fragments, range_position)?.finish())
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
        }
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
    /// holds a keyword more than `u32::MAX` times, and
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
    /// it: the last-wins dedup of `adds`, each add's handle if its
    /// identifier is known, the live handles `removes` takes out, the
    /// pre-delta totals of every handle whose postings go stale and
    /// — from **one** [`InvertedFragmentIndex::walk`] — their postings
    /// and the touched groups' vocabulary. The walk costs
    /// O(lists · log L) plus the postings inside the touched groups'
    /// handle spans; everything else follows the delta. `adds` must
    /// have passed the checks of [`FragmentIndex::apply`].
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
        let adds: Vec<(Option<Frag>, &Fragment)> = last
            .into_iter()
            .rev()
            .map(|fragment| (self.catalog.frag(&fragment.id), fragment))
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
            .filter_map(|&(frag, _)| frag)
            .filter(live)
            .collect();
        stale.extend_from_slice(&removed);
        stale.sort_unstable();
        stale.dedup();
        // Snapshotted before the apply refreshes them: the TF slices
        // are sorted by the TFs these totals give.
        let old_totals = stale
            .iter()
            .map(|&frag| (frag, self.catalog.total_keywords(frag)))
            .collect();
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
            .chain(adds.iter().filter_map(|&(frag, f)| group(&f.id, frag)))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let mut frags: Vec<Frag> = groups
            .into_iter()
            .flat_map(|group| self.graph.group_nodes(group))
            .copied()
            .collect();
        // Group runs are range-sorted; the walk wants handles.
        frags.sort_unstable();
        let walk = self.inverted.walk(&frags, &stale);
        PreparedIndexDelta {
            removed,
            adds,
            old_totals,
            stale: walk.stale,
            held: walk.held,
        }
    }

    /// The write half of a delta: the graph splices (each touches only
    /// its own group's run), the catalog refreshes and interns, and one
    /// in-place posting splice
    /// ([`InvertedFragmentIndex::apply_delta`]) — no list is read that
    /// is not edited. `prepared` must come from
    /// [`FragmentIndex::prepare`] on this index in its current state,
    /// or on an identical one.
    pub(crate) fn apply_prepared(&mut self, prepared: &PreparedIndexDelta<'_>) -> RefreshStats {
        for &frag in &prepared.removed {
            self.graph.remove(frag);
        }
        let mut added = Vec::with_capacity(prepared.adds.len());
        for &(known, fragment) in &prepared.adds {
            let frag = match known {
                Some(frag) => {
                    self.catalog.refresh(frag, fragment);
                    frag
                }
                None => self.catalog.intern(fragment),
            };
            self.graph.insert(&self.catalog, frag);
            added.push((frag, fragment));
        }
        self.inverted
            .apply_delta(&self.catalog, &prepared.old_totals, &prepared.stale, &added);
        RefreshStats {
            removed: prepared.removed.len(),
            added: added.len(),
        }
    }
}

/// One index's share of a delta, read off the index before the delta
/// ([`FragmentIndex::prepare`]) and spliced in by
/// [`FragmentIndex::apply_prepared`] — into that index, or into an
/// identical twin.
#[derive(Debug)]
pub(crate) struct PreparedIndexDelta<'d> {
    /// The live handles the delta removes, ascending.
    removed: Vec<Frag>,
    /// The adds after last-wins dedup, in delta order, each with the
    /// handle its identifier already has.
    adds: Vec<(Option<Frag>, &'d Fragment)>,
    /// Every stale handle's pre-delta `total_keywords`, by handle.
    old_totals: Vec<(Frag, u64)>,
    /// The stale handles' live postings, by keyword.
    stale: Vec<(Kw, Posting)>,
    /// The touched groups' pre-delta vocabulary, ascending.
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
    /// parallel, from the catalog and the probe arena alone.
    pub(crate) fn finish(self) -> FragmentIndex {
        let PlacedIndex {
            catalog,
            mut inverted,
        } = self;
        let ((), graph) = par::join(
            || inverted.rebuild_tf_arena(&catalog),
            || FragmentGraph::build(&catalog, &[]),
        );
        FragmentIndex {
            catalog,
            inverted,
            graph,
        }
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
}

impl HeapBytes {
    /// Every structure by its gauge suffix, in declaration order.
    pub fn parts(&self) -> [(&'static str, usize); 8] {
        [
            ("catalog_ids", self.catalog_ids),
            ("handle_order", self.handle_order),
            ("columns", self.columns),
            ("graph", self.graph),
            ("interner", self.interner),
            ("tf_arena", self.tf_arena),
            ("probe_arena", self.probe_arena),
            ("lists", self.lists),
        ]
    }

    /// The inverted fragment index's share: the interner, the list
    /// table and both arenas.
    pub fn inverted(&self) -> usize {
        self.interner + self.lists + self.tf_arena + self.probe_arena
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
