//! The fragment graph (Section VI-A of the paper), columnar.
//!
//! Every node is one fragment, weighted by its total keyword count
//! (Example 6: node `(American, 9)` has weight 8). An edge connects two
//! fragments when they can combine into a db-page containing no other
//! fragment — i.e. they agree on every equality-bound selection
//! attribute and are **adjacent** in the sorted domain of the
//! range-bound attribute. Fragments with different equality values
//! (e.g. `(Thai, 10)` among American fragments) stay disconnected,
//! exactly as in Figure 9.
//!
//! Storage is handle-native and **group-major**: each equality group
//! owns one contiguous node column of [`Frag`] handles (plus a parallel
//! weight column the top-k expansion reads), range-sorted. Group ids
//! ([`GroupId`]) are dense ranks in group-key order — maintained across
//! incremental inserts — so a candidate db-page is just
//! `(group, lo, hi)`, three integers, and the rank order doubles as the
//! deterministic tie-break order of the top-k heap. A `node_pos` column
//! indexed by fragment handle makes [`FragmentGraph::locate`] O(1)
//! (this sits on the hot path of every top-k seed). Adjacency stays
//! implicit in the order, which makes both bulk construction ("a lot of
//! comparisons can be saved if db-fragments are pre-sorted", §VI-A) and
//! the paper's incremental insertion cheap: an insert splices one
//! *group's* column (the seed semantics), never a flat global column —
//! the flat layout of PR 1 made every insert shift the entire node
//! space, which is what regressed `graph/incremental-insert`.
//!
//! Group-major columns are also the unit the sharded engine partitions:
//! a shard is a contiguous run of group ranks, so a shard-local rank
//! plus the shard's offset reproduces the global rank exactly (see
//! `crate::sharded`).

use std::time::Instant;

use dash_relation::Value;

use crate::fragment::FragmentId;
use crate::index::catalog::{values_heap_bytes, Frag, FragmentCatalog};
use crate::par;

/// A dense equality-group handle: the group's rank in key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The handle as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node's address: its equality group and offset within the group's
/// range-sorted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef {
    /// The equality group.
    pub group: GroupId,
    /// Index within the group's sorted node run.
    pub position: u32,
}

/// Sentinel in `node_pos` for handles without a live node.
const ABSENT: (u32, u32) = (u32::MAX, u32::MAX);

/// One equality group's columns: its key and its range-sorted node and
/// weight runs (parallel, contiguous).
#[derive(Debug, Clone, Default)]
struct GroupColumn {
    /// The equality prefix (identifier minus the range position),
    /// resolved only at the output boundary.
    key: Vec<Value>,
    /// Node run: fragment handles, range-sorted.
    frags: Vec<Frag>,
    /// Parallel weight run (total keywords per node).
    weights: Vec<u64>,
}

/// The fragment graph.
///
/// Group columns live in stable *slots* (allocation order); a rank ⇄
/// slot permutation maintains the key-sorted [`GroupId`] rank order.
/// Creating or dropping a group therefore only splices the (tiny)
/// permutation — `node_pos`, which is `(slot, position)`, never needs a
/// global renumber, keeping incremental maintenance O(|group|).
#[derive(Debug, Clone, Default)]
pub struct FragmentGraph {
    /// Position of the range attribute within fragment identifiers;
    /// `None` for all-equality queries (no edges at all).
    range_position: Option<usize>,
    /// Group columns, indexed by slot (free-listed tombstones allowed).
    groups: Vec<GroupColumn>,
    /// Key rank → slot, sorted by group key — the rank is the
    /// [`GroupId`].
    slot_of_rank: Vec<u32>,
    /// Slot → key rank (`u32::MAX` for dead slots).
    rank_of_slot: Vec<u32>,
    /// Dead slots available for reuse.
    free_slots: Vec<u32>,
    /// Fragment handle → `(slot, position)`; `ABSENT` when the handle
    /// has no live node.
    node_pos: Vec<(u32, u32)>,
    /// Total live nodes across all groups.
    nodes: usize,
    /// Wall-clock seconds the last bulk build took (Table IV reports
    /// this).
    build_secs: f64,
}

impl FragmentGraph {
    /// An empty graph, for identifiers whose range value sits at
    /// `range_position` — the start of an incremental build.
    pub fn new(range_position: Option<usize>) -> Self {
        FragmentGraph {
            range_position,
            ..Self::default()
        }
    }

    /// Bulk-builds the graph over **every** handle of `catalog` (a bulk
    /// build's catalog holds no tombstones): groups handles by the
    /// catalog's group-key index, ranks groups in key order and
    /// range-sorts each group independently (in parallel); pre-sorted
    /// input is detected and skips the per-group sorts (the paper's
    /// comparison-saving strategy). It reads the catalog's columns
    /// only, never a fragment, so one build serves every source.
    pub fn build(catalog: &FragmentCatalog) -> Self {
        let start = Instant::now();
        let range_position = catalog.range_position();
        // Members per group-key index, in handle order.
        let mut members: Vec<Vec<Frag>> = vec![Vec::new(); catalog.key_order().len()];
        for frag in (0..catalog.len() as u32).map(Frag) {
            members[catalog.key_index(frag) as usize].push(frag);
        }
        // Range-sort each group's members (skipped when already sorted).
        if let Some(pos) = range_position {
            let range_value = |frag: Frag| -> &Value { catalog.value_at(frag, pos) };
            par::for_each(
                members.iter_mut().filter(|m| m.len() > 1).collect(),
                |group: &mut Vec<Frag>| {
                    if group
                        .windows(2)
                        .any(|w| range_value(w[0]) > range_value(w[1]))
                    {
                        group.sort_by(|&a, &b| range_value(a).cmp(range_value(b)));
                    }
                },
            );
        }
        // Assemble group columns in key order — the group rank (slot ==
        // rank for a bulk build; the permutation starts as the
        // identity).
        let groups = members.iter().filter(|m| !m.is_empty()).count();
        let mut graph = FragmentGraph {
            range_position,
            groups: Vec::with_capacity(groups),
            slot_of_rank: (0..groups as u32).collect(),
            rank_of_slot: (0..groups as u32).collect(),
            free_slots: Vec::new(),
            node_pos: vec![ABSENT; catalog.len()],
            nodes: catalog.len(),
            build_secs: 0.0,
        };
        for &key in catalog.key_order() {
            let frags = std::mem::take(&mut members[key as usize]);
            let Some(&first) = frags.first() else {
                continue;
            };
            let slot = graph.groups.len() as u32;
            let mut weights = Vec::with_capacity(frags.len());
            for (pos, &frag) in frags.iter().enumerate() {
                graph.node_pos[frag.index()] = (slot, pos as u32);
                weights.push(catalog.total_keywords(frag));
            }
            graph.groups.push(GroupColumn {
                key: catalog.key(first).to_vec(),
                frags,
                weights,
            });
        }
        graph.build_secs = start.elapsed().as_secs_f64();
        graph
    }

    /// The slot backing a group rank.
    #[inline]
    fn slot(&self, group: GroupId) -> usize {
        self.slot_of_rank[group.index()] as usize
    }

    /// Re-derives `rank_of_slot` for every rank at or after `rank`
    /// (called after the permutation splices; O(groups), never O(nodes)).
    fn rerank_from(&mut self, rank: usize) {
        for (r, &slot) in self.slot_of_rank.iter().enumerate().skip(rank) {
            self.rank_of_slot[slot as usize] = r as u32;
        }
    }

    /// The paper's incremental insertion: place the fragment behind
    /// `frag` into its group at the right position; the implicit chain
    /// edges re-splice automatically (the edge between its new
    /// neighbors is replaced by two edges through the new node). The
    /// fragment must already be interned in `catalog`, whose columns
    /// give its group key, range value and weight. Re-inserting a live
    /// fragment replaces its node (weights may have changed).
    ///
    /// Cost is O(|group|) — only the receiving group's columns splice;
    /// other groups are untouched (their ids shift only when a *new*
    /// group is created).
    pub fn insert(&mut self, catalog: &FragmentCatalog, frag: Frag) {
        // A second insert of the same fragment must not splice a
        // duplicate node column entry.
        self.remove(frag);
        let key = catalog.key(frag);
        let slot = match self
            .slot_of_rank
            .binary_search_by(|&s| self.groups[s as usize].key.as_slice().cmp(key))
        {
            Ok(rank) => self.slot_of_rank[rank] as usize,
            Err(rank) => {
                // New group at its key rank: later ranks shift in the
                // permutation only — node addresses stay untouched.
                let column = GroupColumn {
                    key: key.to_vec(),
                    frags: Vec::new(),
                    weights: Vec::new(),
                };
                let slot = match self.free_slots.pop() {
                    Some(slot) => {
                        self.groups[slot as usize] = column;
                        slot as usize
                    }
                    None => {
                        self.groups.push(column);
                        self.rank_of_slot.push(u32::MAX);
                        self.groups.len() - 1
                    }
                };
                self.slot_of_rank.insert(rank, slot as u32);
                self.rerank_from(rank);
                slot
            }
        };
        let group = &mut self.groups[slot];
        let position = match self.range_position {
            Some(pos) => {
                let range_value = catalog.value_at(frag, pos);
                group
                    .frags
                    .binary_search_by(|&n| catalog.value_at(n, pos).cmp(range_value))
                    .unwrap_or_else(|i| i)
            }
            None => group.frags.len(),
        };
        group.frags.insert(position, frag);
        group.weights.insert(position, catalog.total_keywords(frag));
        self.nodes += 1;
        if frag.index() >= self.node_pos.len() {
            self.node_pos.resize(catalog.len(), ABSENT);
        }
        self.reindex_group(slot, position);
    }

    /// Removes a fragment's node, if present. Neighboring nodes become
    /// adjacent (the two edges collapse back into one).
    pub fn remove(&mut self, frag: Frag) -> bool {
        let Some((slot, position)) = self.locate_slot(frag) else {
            return false;
        };
        let group = &mut self.groups[slot];
        group.frags.remove(position);
        group.weights.remove(position);
        self.node_pos[frag.index()] = ABSENT;
        self.nodes -= 1;
        if group.frags.is_empty() {
            // Last node of the group: the group disappears; later key
            // ranks shift down in the permutation, node addresses stay
            // untouched.
            let rank = self.rank_of_slot[slot] as usize;
            self.slot_of_rank.remove(rank);
            self.rerank_from(rank);
            self.rank_of_slot[slot] = u32::MAX;
            self.groups[slot] = GroupColumn::default();
            self.free_slots.push(slot as u32);
        } else {
            self.reindex_group(slot, position);
        }
        true
    }

    /// Rewrites `node_pos` for the nodes of `slot` at or after
    /// `position` (in-group positions shift after a column splice;
    /// other groups' `(slot, position)` pairs are unaffected).
    fn reindex_group(&mut self, slot: usize, position: usize) {
        for (p, frag) in self.groups[slot].frags.iter().enumerate().skip(position) {
            self.node_pos[frag.index()] = (slot as u32, p as u32);
        }
    }

    /// A fragment's `(slot, position)` address, if live.
    #[inline]
    fn locate_slot(&self, frag: Frag) -> Option<(usize, usize)> {
        let &(slot, p) = self.node_pos.get(frag.index())?;
        if slot == u32::MAX {
            return None;
        }
        Some((slot as usize, p as usize))
    }

    /// Locates a fragment's node — O(1), two column lookups.
    #[inline]
    pub fn locate(&self, frag: Frag) -> Option<NodeRef> {
        let (slot, p) = self.locate_slot(frag)?;
        Some(NodeRef {
            group: GroupId(self.rank_of_slot[slot]),
            position: p as u32,
        })
    }

    /// The fragment at a node address.
    pub fn frag_at(&self, node: NodeRef) -> Option<Frag> {
        let &slot = self.slot_of_rank.get(node.group.index())?;
        self.groups[slot as usize]
            .frags
            .get(node.position as usize)
            .copied()
    }

    /// The node run of one group, sorted by range value.
    #[inline]
    pub fn group_nodes(&self, group: GroupId) -> &[Frag] {
        &self.groups[self.slot(group)].frags
    }

    /// The weight run of one group (total keywords per node), parallel
    /// to [`FragmentGraph::group_nodes`].
    #[inline]
    pub fn group_weights(&self, group: GroupId) -> &[u64] {
        &self.groups[self.slot(group)].weights
    }

    /// The equality prefix identifying a group.
    #[inline]
    pub fn group_key(&self, group: GroupId) -> &[Value] {
        &self.groups[self.slot(group)].key
    }

    /// The group holding a given equality prefix, if any.
    pub fn group_by_key(&self, key: &[Value]) -> Option<GroupId> {
        self.slot_of_rank
            .binary_search_by(|&s| self.groups[s as usize].key.as_slice().cmp(key))
            .ok()
            .map(|g| GroupId(g as u32))
    }

    /// The neighbors of a node: its predecessor and successor in range
    /// order (none for all-equality queries, where every node is
    /// isolated).
    pub fn neighbors(&self, node: NodeRef) -> Vec<NodeRef> {
        if self.range_position.is_none() {
            return Vec::new();
        }
        let Some(&slot) = self.slot_of_rank.get(node.group.index()) else {
            return Vec::new();
        };
        let len = self.groups[slot as usize].frags.len() as u32;
        let mut out = Vec::with_capacity(2);
        if node.position > 0 {
            out.push(NodeRef {
                group: node.group,
                position: node.position - 1,
            });
        }
        if node.position + 1 < len {
            out.push(NodeRef {
                group: node.group,
                position: node.position + 1,
            });
        }
        out
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Total edge count: each group of `n` nodes chains `n-1` edges.
    pub fn edge_count(&self) -> usize {
        if self.range_position.is_none() {
            return 0;
        }
        self.slot_of_rank
            .iter()
            .map(|&s| self.groups[s as usize].frags.len().saturating_sub(1))
            .sum()
    }

    /// Number of equality groups (connected components, when every
    /// group is non-empty).
    pub fn group_count(&self) -> usize {
        self.slot_of_rank.len()
    }

    /// Average keywords per fragment — Table IV's third column.
    pub fn avg_keywords(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        let total: u64 = self
            .slot_of_rank
            .iter()
            .flat_map(|&s| &self.groups[s as usize].weights)
            .sum();
        total as f64 / self.nodes as f64
    }

    /// Heap bytes of the graph: every group's key, node and weight
    /// runs, the rank permutation, the free list and the node-position
    /// column — capacities, not lengths.
    pub(crate) fn heap_bytes(&self) -> usize {
        let groups: usize = self
            .groups
            .iter()
            .map(|g| {
                values_heap_bytes(&g.key)
                    + g.frags.capacity() * size_of::<Frag>()
                    + g.weights.capacity() * size_of::<u64>()
            })
            .sum();
        groups
            + self.groups.capacity() * size_of::<GroupColumn>()
            + (self.slot_of_rank.capacity()
                + self.rank_of_slot.capacity()
                + self.free_slots.capacity())
                * size_of::<u32>()
            + self.node_pos.capacity() * size_of::<(u32, u32)>()
    }

    /// Seconds the bulk build took (Table IV's first column).
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// The range attribute's position within identifiers.
    pub fn range_position(&self) -> Option<usize> {
        self.range_position
    }

    /// Iterates over `(equality prefix, range-sorted node run)` groups
    /// in key order.
    pub fn iter_groups(&self) -> impl Iterator<Item = (&[Value], &[Frag])> {
        self.slot_of_rank.iter().map(|&s| {
            let g = &self.groups[s as usize];
            (g.key.as_slice(), g.frags.as_slice())
        })
    }

    /// The full group columns — `(key, frags, weights)` — in key-rank
    /// order: the arena-image dump view (`persist`). Rank order is
    /// canonical, so two graphs holding the same live nodes dump the
    /// same image regardless of their maintenance history (slot
    /// permutation and free list are derived state and never dumped).
    pub(crate) fn image_groups(
        &self,
    ) -> impl ExactSizeIterator<Item = (&[Value], &[Frag], &[u64])> {
        self.slot_of_rank.iter().map(|&s| {
            let g = &self.groups[s as usize];
            (g.key.as_slice(), g.frags.as_slice(), g.weights.as_slice())
        })
    }

    /// Reassembles a graph from dumped group columns (key-rank order) —
    /// the arena-image load path. Slots come back in rank order, so the
    /// rank ⇄ slot permutation is the identity and the free list is
    /// empty (exactly a bulk build's state); `node_pos` is re-derived
    /// in one linear pass. `catalog_len` sizes the `node_pos` column —
    /// handles without a live node stay `ABSENT`.
    pub(crate) fn from_image_groups(
        range_position: Option<usize>,
        groups: Vec<(Vec<Value>, Vec<Frag>, Vec<u64>)>,
        catalog_len: usize,
    ) -> Self {
        let mut graph = FragmentGraph {
            range_position,
            groups: Vec::with_capacity(groups.len()),
            slot_of_rank: (0..groups.len() as u32).collect(),
            rank_of_slot: (0..groups.len() as u32).collect(),
            free_slots: Vec::new(),
            node_pos: vec![ABSENT; catalog_len],
            nodes: 0,
            build_secs: 0.0,
        };
        for (key, frags, weights) in groups {
            let slot = graph.groups.len() as u32;
            for (pos, &frag) in frags.iter().enumerate() {
                graph.node_pos[frag.index()] = (slot, pos as u32);
            }
            graph.nodes += frags.len();
            graph.groups.push(GroupColumn {
                key,
                frags,
                weights,
            });
        }
        graph
    }
}

/// The equality-group key of a fragment identifier: the identifier with
/// the range position removed. This single derivation defines group
/// membership everywhere — the graph's grouping, the sharded engine's
/// partition AND the serving layer's cache-invalidation signatures must
/// agree on it bit for bit, or shard rank offsets stop matching global
/// group ranks (and stale cached pages could survive a delta).
pub fn group_key(id: &FragmentId, range_position: Option<usize>) -> Vec<Value> {
    match range_position {
        Some(pos) => id.without(pos),
        None => id.values().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::fragment::Fragment;
    use std::collections::BTreeMap as Map;

    fn fragment(cuisine: &str, budget: i64, total: u64) -> Fragment {
        let mut occ = Map::new();
        occ.insert("w".to_string(), total);
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]),
            occ,
            1,
        )
    }

    /// The five fragments of Figure 5/9.
    fn figure_9() -> Vec<Fragment> {
        vec![
            fragment("American", 9, 8),
            fragment("American", 10, 8),
            fragment("American", 12, 17),
            fragment("American", 18, 8),
            fragment("Thai", 10, 10),
        ]
    }

    fn build(fragments: &[Fragment]) -> (FragmentCatalog, FragmentGraph) {
        let catalog = FragmentCatalog::from_fragments(fragments, Some(1)).unwrap();
        let graph = FragmentGraph::build(&catalog);
        (catalog, graph)
    }

    fn frag_of(catalog: &FragmentCatalog, cuisine: &str, budget: i64) -> Frag {
        catalog
            .frag(&FragmentId::new(vec![
                Value::str(cuisine),
                Value::Int(budget),
            ]))
            .unwrap()
    }

    #[test]
    fn figure_9_shape() {
        let (catalog, g) = build(&figure_9());
        assert_eq!(g.node_count(), 5);
        // American chain has 3 edges; Thai is isolated.
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.group_count(), 2);
        let american = g.group_by_key(&[Value::str("American")]).unwrap();
        let budgets: Vec<&Value> = g
            .group_nodes(american)
            .iter()
            .map(|&n| catalog.value_at(n, 1))
            .collect();
        assert_eq!(
            budgets,
            vec![
                &Value::Int(9),
                &Value::Int(10),
                &Value::Int(12),
                &Value::Int(18)
            ]
        );
        // Group ids rank keys: American < Thai.
        assert_eq!(american, GroupId(0));
        assert_eq!(g.group_by_key(&[Value::str("Thai")]), Some(GroupId(1)));
    }

    #[test]
    fn neighbors_follow_sorted_order() {
        let (catalog, g) = build(&figure_9());
        let ten = g.locate(frag_of(&catalog, "American", 10)).unwrap();
        let neighbors = g.neighbors(ten);
        assert_eq!(neighbors.len(), 2);
        let budgets: Vec<&Value> = neighbors
            .iter()
            .map(|&r| catalog.value_at(g.frag_at(r).unwrap(), 1))
            .collect();
        assert!(budgets.contains(&&Value::Int(9)));
        assert!(budgets.contains(&&Value::Int(12)));
        // Thai node is isolated.
        let thai = g.locate(frag_of(&catalog, "Thai", 10)).unwrap();
        assert_eq!(g.neighbors(thai).len(), 0);
    }

    #[test]
    fn incremental_insert_splices() {
        let fragments = figure_9();
        let (mut catalog, g0) = build(&fragments);
        let mut g = FragmentGraph::new(Some(1));
        for f in &fragments {
            g.insert(&catalog, catalog.frag(&f.id).unwrap());
        }
        // Same structure as bulk build.
        assert_eq!(g.node_count(), g0.node_count());
        assert_eq!(g.edge_count(), g0.edge_count());
        // Insert (American, 11): edge (10,12) splits into (10,11),(11,12).
        let eleven = catalog.intern(&fragment("American", 11, 5));
        g.insert(&catalog, eleven);
        assert_eq!(g.edge_count(), 4);
        let eleven = g.locate(eleven).unwrap();
        assert_eq!(eleven.position, 2);
    }

    #[test]
    fn insert_new_group_keeps_key_order() {
        let fragments = figure_9();
        let (mut catalog, mut g) = build(&fragments);
        let cajun = catalog.intern(&fragment("Cajun", 7, 4));
        g.insert(&catalog, cajun);
        // Cajun ranks between American and Thai.
        assert_eq!(g.group_by_key(&[Value::str("American")]), Some(GroupId(0)));
        assert_eq!(g.group_by_key(&[Value::str("Cajun")]), Some(GroupId(1)));
        assert_eq!(g.group_by_key(&[Value::str("Thai")]), Some(GroupId(2)));
        // Every node still locates correctly after the shift.
        for frag in (0..catalog.len() as u32).map(Frag) {
            let node = g.locate(frag).unwrap();
            assert_eq!(g.frag_at(node), Some(frag));
        }
    }

    #[test]
    fn remove_collapses_edges() {
        let (catalog, mut g) = build(&figure_9());
        assert!(g.remove(frag_of(&catalog, "American", 10)));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.remove(frag_of(&catalog, "American", 10)));
        // Removing the last of a group drops the group.
        assert!(g.remove(frag_of(&catalog, "Thai", 10)));
        assert_eq!(g.group_count(), 1);
        // Remaining nodes still locate.
        let nine = g.locate(frag_of(&catalog, "American", 9)).unwrap();
        assert_eq!(g.frag_at(nine), Some(frag_of(&catalog, "American", 9)));
    }

    #[test]
    fn all_equality_query_has_no_edges() {
        let fragments = vec![fragment("American", 1, 3), fragment("American", 2, 4)];
        let catalog = FragmentCatalog::from_fragments(&fragments, None).unwrap();
        let g = FragmentGraph::build(&catalog);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        let r = g.locate(catalog.frag(&fragments[0].id).unwrap()).unwrap();
        assert!(g.neighbors(r).is_empty());
    }

    #[test]
    fn avg_keywords_matches_table_4_definition() {
        let (_, g) = build(&figure_9());
        // (8+8+17+8+10)/5 = 10.2
        assert!((g.avg_keywords() - 10.2).abs() < 1e-9);
        assert!(g.build_secs() >= 0.0);
    }

    #[test]
    fn out_of_bounds_range_position_rejected() {
        let err = FragmentCatalog::from_fragments(&figure_9(), Some(7)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::IdentifierArity {
                arity: 2,
                expected: 8,
                ..
            }
        ));
    }

    #[test]
    fn unsorted_input_sorts_groups() {
        let mut fragments = figure_9();
        fragments.swap(0, 3); // break range order within American
        let (catalog, g) = build(&fragments);
        let american = g.group_by_key(&[Value::str("American")]).unwrap();
        let budgets: Vec<&Value> = g
            .group_nodes(american)
            .iter()
            .map(|&n| catalog.value_at(n, 1))
            .collect();
        assert_eq!(
            budgets,
            vec![
                &Value::Int(9),
                &Value::Int(10),
                &Value::Int(12),
                &Value::Int(18)
            ]
        );
    }

    #[test]
    fn incremental_converges_to_bulk_for_many_groups() {
        // Dozens of groups with interleaved inserts: group ids must stay
        // ranks and every node must stay locatable.
        let mut fragments = Vec::new();
        for c in 0..17 {
            for b in 0..5 {
                fragments.push(fragment(&format!("C{c:02}"), b * 3, (b + 1) as u64));
            }
        }
        let (catalog, bulk) = build(&fragments);
        let mut inc = FragmentGraph::new(Some(1));
        // Insert in an order that interleaves group creation.
        let mut shuffled = fragments.clone();
        shuffled.sort_by(|a, b| a.id.values()[1].cmp(&b.id.values()[1]));
        for f in &shuffled {
            inc.insert(&catalog, catalog.frag(&f.id).unwrap());
        }
        assert_eq!(inc.node_count(), bulk.node_count());
        assert_eq!(inc.edge_count(), bulk.edge_count());
        assert_eq!(inc.group_count(), bulk.group_count());
        for f in &fragments {
            let frag = catalog.frag(&f.id).unwrap();
            assert_eq!(inc.locate(frag), bulk.locate(frag), "{}", f.id);
        }
        for ((ka, na), (kb, nb)) in inc.iter_groups().zip(bulk.iter_groups()) {
            assert_eq!(ka, kb);
            assert_eq!(na, nb);
        }
    }
}
