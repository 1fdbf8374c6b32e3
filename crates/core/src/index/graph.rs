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
//! The graph is a function of the catalog's identifiers and of which
//! fragments are live, and it stores only what the catalog does not:
//! liveness and range order. Every other fact is the
//! [`FragmentCatalog`]'s — the group keys, their order and the node
//! weights (`total_keywords`) — so the graph holds no `Value` and no
//! weight, and nothing it holds can disagree with the catalog.
//!
//! Storage is handle-native and **group-major**: each equality group
//! owns one contiguous run of [`Frag`] handles, range-sorted, indexed
//! by its [`GroupId`] (the catalog's key index), so a candidate db-page
//! is just `(group, lo, hi)`, three integers. A group emptied by
//! maintenance keeps its (empty) run, its key and its rank. A
//! `node_pos` column indexed by fragment handle makes
//! [`FragmentGraph::locate`] O(1) (this sits on the hot path of every
//! top-k seed). Adjacency stays implicit in the order, which makes both
//! bulk construction ("a lot of comparisons can be saved if
//! db-fragments are pre-sorted", §VI-A) and the paper's incremental
//! insertion cheap: an insert splices one *group's* run, never a flat
//! global column, and never renumbers another group.
//!
//! Groups are also the unit the sharded engine partitions: a shard is a
//! contiguous run of group ranks, so a shard-local rank plus the
//! shard's offset reproduces the global rank exactly (see
//! `crate::sharded`).

use std::time::Instant;

use dash_relation::Value;

use crate::index::catalog::{Frag, FragmentCatalog, GroupId};
use crate::par;

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

/// The fragment graph: one range-sorted node run per catalog group.
#[derive(Debug, Clone, Default)]
pub struct FragmentGraph {
    /// Position of the range attribute within fragment identifiers;
    /// `None` for all-equality queries (no edges at all).
    range_position: Option<usize>,
    /// Node runs, indexed by [`GroupId`]: live fragment handles,
    /// range-sorted (empty for a group with no live fragment).
    runs: Vec<Vec<Frag>>,
    /// Fragment handle → `(group, position)`; `ABSENT` when the handle
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

    /// Bulk-builds the graph over every handle of `catalog` but the
    /// `dead` ones (handles with no live fragment: none for a fresh
    /// build, the removed fragments for an arena-image load). Groups
    /// handles by the catalog's group column and range-sorts each group
    /// independently (in parallel); pre-sorted input is detected and
    /// skips the per-group sorts (the paper's comparison-saving
    /// strategy). It reads the catalog's columns only, never a
    /// fragment, so one build serves every source.
    ///
    /// # Panics
    ///
    /// When a `dead` handle is not interned in `catalog`.
    pub fn build(catalog: &FragmentCatalog, dead: &[Frag]) -> Self {
        let start = Instant::now();
        let range_position = catalog.range_position();
        let mut node_pos = vec![(0, 0); catalog.len()];
        for &frag in dead {
            node_pos[frag.index()] = ABSENT;
        }
        let live = || {
            (0..catalog.len() as u32)
                .map(Frag)
                .filter(|frag| node_pos[frag.index()] != ABSENT)
        };
        // Members per group, in handle order, each run allocated once.
        let mut sizes = vec![0usize; catalog.key_count()];
        for frag in live() {
            sizes[catalog.group(frag).index()] += 1;
        }
        let mut runs: Vec<Vec<Frag>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for frag in live() {
            runs[catalog.group(frag).index()].push(frag);
        }
        // Range-sort each group's members (skipped when already sorted).
        if let Some(pos) = range_position {
            let range_value = |frag: Frag| -> &Value { catalog.value_at(frag, pos) };
            par::for_each(
                runs.iter_mut().filter(|run| run.len() > 1).collect(),
                |run: &mut Vec<Frag>| {
                    if run
                        .windows(2)
                        .any(|w| range_value(w[0]) > range_value(w[1]))
                    {
                        run.sort_by(|&a, &b| range_value(a).cmp(range_value(b)));
                    }
                },
            );
        }
        let mut nodes = 0;
        for (group, run) in runs.iter().enumerate() {
            for (position, &frag) in run.iter().enumerate() {
                node_pos[frag.index()] = (group as u32, position as u32);
            }
            nodes += run.len();
        }
        FragmentGraph {
            range_position,
            runs,
            node_pos,
            nodes,
            build_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// The paper's incremental insertion: place the fragment behind
    /// `frag` into its group at the right position; the implicit chain
    /// edges re-splice automatically (the edge between its new
    /// neighbors is replaced by two edges through the new node). The
    /// fragment must already be interned in `catalog`, whose columns
    /// give its group and range value. Re-inserting a live fragment
    /// replaces its node.
    ///
    /// Cost is O(|group|) — only the receiving group's run splices;
    /// other groups are untouched, a new group included.
    pub fn insert(&mut self, catalog: &FragmentCatalog, frag: Frag) {
        // A second insert of the same fragment must not splice a
        // duplicate node.
        self.remove(frag);
        let group = catalog.group(frag);
        if group.index() >= self.runs.len() {
            self.runs.resize_with(catalog.key_count(), Vec::new);
        }
        let run = &mut self.runs[group.index()];
        let position = match self.range_position {
            Some(pos) => {
                let range_value = catalog.value_at(frag, pos);
                run.binary_search_by(|&n| catalog.value_at(n, pos).cmp(range_value))
                    .unwrap_or_else(|i| i)
            }
            None => run.len(),
        };
        run.insert(position, frag);
        self.nodes += 1;
        if frag.index() >= self.node_pos.len() {
            self.node_pos.resize(catalog.len(), ABSENT);
        }
        self.reindex_group(group, position);
    }

    /// Removes a fragment's node, if present. Neighboring nodes become
    /// adjacent (the two edges collapse back into one); the group keeps
    /// its run even when this empties it.
    pub fn remove(&mut self, frag: Frag) -> bool {
        let Some(node) = self.locate(frag) else {
            return false;
        };
        self.runs[node.group.index()].remove(node.position as usize);
        self.node_pos[frag.index()] = ABSENT;
        self.nodes -= 1;
        self.reindex_group(node.group, node.position as usize);
        true
    }

    /// Rewrites `node_pos` for the nodes of `group` at or after
    /// `position` (in-group positions shift after a run splice; other
    /// groups' addresses are unaffected).
    fn reindex_group(&mut self, group: GroupId, position: usize) {
        for (p, frag) in self.runs[group.index()].iter().enumerate().skip(position) {
            self.node_pos[frag.index()] = (group.0, p as u32);
        }
    }

    /// Locates a fragment's node — O(1), one column lookup.
    #[inline]
    pub fn locate(&self, frag: Frag) -> Option<NodeRef> {
        let &(group, position) = self.node_pos.get(frag.index())?;
        if group == u32::MAX {
            return None;
        }
        Some(NodeRef {
            group: GroupId(group),
            position,
        })
    }

    /// The fragment at a node address.
    pub fn frag_at(&self, node: NodeRef) -> Option<Frag> {
        self.group_nodes(node.group)
            .get(node.position as usize)
            .copied()
    }

    /// The node run of one group, sorted by range value (empty for a
    /// group with no live fragment).
    #[inline]
    pub fn group_nodes(&self, group: GroupId) -> &[Frag] {
        self.runs.get(group.index()).map_or(&[], Vec::as_slice)
    }

    /// The neighbors of a node: its predecessor and successor in range
    /// order (none for all-equality queries, where every node is
    /// isolated).
    pub fn neighbors(&self, node: NodeRef) -> Vec<NodeRef> {
        if self.range_position.is_none() {
            return Vec::new();
        }
        let len = self.group_nodes(node.group).len() as u32;
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
        self.runs
            .iter()
            .map(|run| run.len().saturating_sub(1))
            .sum()
    }

    /// Average keywords per fragment — Table IV's third column, from
    /// the catalog's weights.
    pub fn avg_keywords(&self, catalog: &FragmentCatalog) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        let total: u64 = self
            .runs
            .iter()
            .flatten()
            .map(|&frag| catalog.total_keywords(frag))
            .sum();
        total as f64 / self.nodes as f64
    }

    /// Heap bytes of the graph: the run table, every run and the
    /// node-position column — capacities, not lengths.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.runs.capacity() * size_of::<Vec<Frag>>()
            + self
                .runs
                .iter()
                .map(|run| run.capacity() * size_of::<Frag>())
                .sum::<usize>()
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

    /// Iterates over `(equality prefix, range-sorted node run)` for
    /// every group holding a live node, in key order.
    pub fn iter_groups<'a>(
        &'a self,
        catalog: &'a FragmentCatalog,
    ) -> impl Iterator<Item = (&'a [Value], &'a [Frag])> {
        (0..catalog.key_count() as u32)
            .map(|rank| catalog.group_at_rank(rank))
            .map(|group| (catalog.group_key(group), self.group_nodes(group)))
            .filter(|(_, run)| !run.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::fragment::Fragment;
    use crate::fragment::FragmentId;
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
        let graph = FragmentGraph::build(&catalog, &[]);
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
        assert_eq!(catalog.key_count(), 2);
        let american = catalog.group_by_key(&[Value::str("American")]).unwrap();
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
        // Sorted input numbers groups in key order: American < Thai.
        assert_eq!(american, GroupId(0));
        assert_eq!(
            catalog.group_by_key(&[Value::str("Thai")]),
            Some(GroupId(1))
        );
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
        // Cajun takes the next group handle and ranks between American
        // and Thai; Thai moves up one rank, its run stays where it is.
        let rank = |key: &str| {
            let group = catalog.group_by_key(&[Value::str(key)]).unwrap();
            (group, catalog.group_rank(group))
        };
        assert_eq!(rank("American"), (GroupId(0), 0));
        assert_eq!(rank("Cajun"), (GroupId(2), 1));
        assert_eq!(rank("Thai"), (GroupId(1), 2));
        assert_eq!(g.group_nodes(GroupId(2)), &[cajun]);
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
        // Removing the last of a group empties its run; the group keeps
        // its key and rank but no longer counts.
        assert!(g.remove(frag_of(&catalog, "Thai", 10)));
        let american = catalog.group_by_key(&[Value::str("American")]).unwrap();
        assert_eq!(g.group_nodes(american).len(), 3);
        let thai = catalog.group_by_key(&[Value::str("Thai")]).unwrap();
        assert!(g.group_nodes(thai).is_empty());
        assert_eq!(catalog.group_rank(thai), 1);
        // Remaining nodes still locate.
        let nine = g.locate(frag_of(&catalog, "American", 9)).unwrap();
        assert_eq!(g.frag_at(nine), Some(frag_of(&catalog, "American", 9)));
    }

    #[test]
    fn all_equality_query_has_no_edges() {
        let fragments = vec![fragment("American", 1, 3), fragment("American", 2, 4)];
        let catalog = FragmentCatalog::from_fragments(&fragments, None).unwrap();
        let g = FragmentGraph::build(&catalog, &[]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        let r = g.locate(catalog.frag(&fragments[0].id).unwrap()).unwrap();
        assert!(g.neighbors(r).is_empty());
    }

    #[test]
    fn avg_keywords_matches_table_4_definition() {
        let (catalog, g) = build(&figure_9());
        // (8+8+17+8+10)/5 = 10.2
        assert!((g.avg_keywords(&catalog) - 10.2).abs() < 1e-9);
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
        let american = catalog.group_by_key(&[Value::str("American")]).unwrap();
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
        for group in (0..catalog.key_count() as u32).map(|rank| catalog.group_at_rank(rank)) {
            assert_eq!(inc.group_nodes(group), bulk.group_nodes(group));
        }
        for f in &fragments {
            let frag = catalog.frag(&f.id).unwrap();
            assert_eq!(inc.locate(frag), bulk.locate(frag), "{}", f.id);
        }
        for ((ka, na), (kb, nb)) in inc.iter_groups(&catalog).zip(bulk.iter_groups(&catalog)) {
            assert_eq!(ka, kb);
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn a_build_without_the_dead_handles_is_the_maintained_graph() {
        // Removals that empty a group and thin another, then an
        // out-of-order group and a re-insert: building from the catalog
        // minus the dead handles gives the same runs and addresses.
        let (mut catalog, mut g) = build(&figure_9());
        let thai = frag_of(&catalog, "Thai", 10);
        let ten = frag_of(&catalog, "American", 10);
        let twelve = frag_of(&catalog, "American", 12);
        for frag in [thai, ten, twelve] {
            assert!(g.remove(frag));
        }
        let cajun = catalog.intern(&fragment("Cajun", 7, 4));
        g.insert(&catalog, cajun);
        g.insert(&catalog, ten);
        let rebuilt = FragmentGraph::build(&catalog, &[thai, twelve]);
        assert_eq!(rebuilt.node_count(), g.node_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        // Thai's key stays in the catalog with an empty run.
        assert_eq!(catalog.key_count(), 3);
        let thai_group = catalog.group_by_key(&[Value::str("Thai")]).unwrap();
        assert!(rebuilt.group_nodes(thai_group).is_empty());
        for frag in (0..catalog.len() as u32).map(Frag) {
            assert_eq!(rebuilt.locate(frag), g.locate(frag), "{frag:?}");
        }
        assert!(rebuilt.locate(thai).is_none());
        assert!(rebuilt.iter_groups(&catalog).eq(g.iter_groups(&catalog)));
    }
}
