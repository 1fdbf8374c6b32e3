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
    /// exclusivity). The work is proportional to the delta, not to the
    /// index: the graph splices touch only the affected groups' columns
    /// and the inverted arenas are spliced in place, editing only the
    /// lists that lose or gain a posting
    /// (`InvertedFragmentIndex::apply_delta`). A delta may carry
    /// several recomputations of the same identifier (e.g. two record
    /// deltas concatenated); the **last** add for an identifier wins,
    /// so applying a concatenation equals applying the parts in order.
    /// This is the single mutation path both engines use;
    /// [`FragmentIndex::remove_fragment`] and
    /// [`FragmentIndex::add_fragment`] are one-element deltas.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::OccurrenceOverflow`] when an added fragment
    /// holds a keyword more than `u32::MAX` times, and
    /// [`crate::CoreError::IdentifierArity`] when an added identifier
    /// holds no value at the range position. The checks run before
    /// anything changes, so the index is left exactly as it was.
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<RefreshStats> {
        let mut stats = RefreshStats::default();
        if delta.removes.is_empty() && delta.adds.is_empty() {
            return Ok(stats);
        }
        inverted::check_counts(&delta.adds)?;
        self.catalog.check_arity(delta.adds.iter().map(|f| &f.id))?;
        // Last-wins dedup: a duplicated add must splice exactly one
        // posting per keyword, or df/IDF would drift from a rebuild.
        let mut adds: Vec<&Fragment> = Vec::with_capacity(delta.adds.len());
        let mut seen: HashSet<&FragmentId> = HashSet::with_capacity(delta.adds.len());
        for fragment in delta.adds.iter().rev() {
            if seen.insert(&fragment.id) {
                adds.push(fragment);
            }
        }
        adds.reverse();
        // Graph first (it owns liveness): splice out removed nodes —
        // each touches only its own group column. Only frags with a
        // live node can hold postings, so a removal of tombstones never
        // reaches the inverted lists.
        let mut stale_frags = Vec::with_capacity(delta.removes.len() + adds.len());
        for id in &delta.removes {
            if let Some(frag) = self.catalog.frag(id) {
                if self.graph.remove(frag) {
                    stale_frags.push(frag);
                    stats.removed += 1;
                }
            }
        }
        // One lookup per add: a known identifier is a re-add, whose
        // current postings are stale too. Their totals are snapshotted
        // BEFORE the refresh: it overwrites the `total_keywords` the TF
        // slices — sorted by the TFs derived from them — were laid out
        // with.
        let known: Vec<Option<Frag>> = adds.iter().map(|f| self.catalog.frag(&f.id)).collect();
        stale_frags.extend(known.iter().flatten());
        stale_frags.sort_unstable();
        stale_frags.dedup();
        let old_totals: Vec<(Frag, u64)> = stale_frags
            .iter()
            .map(|&frag| (frag, self.catalog.total_keywords(frag)))
            .collect();
        let stale = self.inverted.stale_postings(&stale_frags);
        let mut added = Vec::with_capacity(adds.len());
        for (fragment, known) in adds.into_iter().zip(known) {
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
        stats.added = added.len();
        // One in-place posting splice for the whole delta.
        self.inverted
            .apply_delta(&self.catalog, &old_totals, &stale, &added);
        Ok(stats)
    }

    /// Removes one fragment from every structure (incremental
    /// maintenance). Returns whether anything was removed. The handle
    /// stays interned (a tombstone), so re-adding the same identifier
    /// later re-uses it.
    pub fn remove_fragment(&mut self, id: &FragmentId) -> bool {
        let stats = self
            .apply(&IndexDelta::removing(vec![id.clone()]))
            .expect("a removal adds no counts");
        stats.removed > 0
    }

    /// Splices one freshly derived fragment into every structure
    /// (incremental maintenance).
    ///
    /// # Errors
    ///
    /// Same as [`FragmentIndex::apply`].
    pub fn add_fragment(&mut self, fragment: &Fragment) -> Result<()> {
        self.apply(&IndexDelta::adding(vec![fragment.clone()]))
            .map(|_| ())
    }
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
        index.add_fragment(&updated).unwrap();
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
        assert!(index.remove_fragment(&updated.id));
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
        assert!(index.remove_fragment(&id));
        let postings_before = index.inverted.posting_count();
        // Second removal: the id still resolves (tombstoned handle) but
        // nothing matches — arenas must be untouched.
        assert!(!index.remove_fragment(&id));
        assert_eq!(index.inverted.posting_count(), postings_before);
        assert_eq!(index.fragment_count(), 3);
    }

    #[test]
    fn maintenance_round_trip_matches_rebuild() {
        let fragments = sample();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let id = fragments[1].id.clone();
        assert!(index.remove_fragment(&id));
        assert!(!index.remove_fragment(&id));
        assert_eq!(index.fragment_count(), 3);
        index.add_fragment(&fragments[1]).unwrap();
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
