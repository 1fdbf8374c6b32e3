//! Engine introspection: aggregate statistics of a built fragment index.

use std::fmt;

use crate::engine::DashEngine;
use crate::index::FragmentIndex;

/// A summary of a fragment index — the numbers Table IV reports, plus
/// size estimates useful for capacity planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of db-page fragments.
    pub fragments: usize,
    /// Number of distinct keywords.
    pub keywords: usize,
    /// Total postings across all inverted lists.
    pub postings: usize,
    /// Fragment-graph edges.
    pub edges: usize,
    /// Equality groups (connected components of the fragment graph).
    pub groups: usize,
    /// Average keywords per fragment (Table IV's third column).
    pub avg_keywords: f64,
    /// Longest inverted list (the hottest keyword's fragment frequency).
    pub max_df: usize,
    /// Heap bytes of the inverted fragment index: the keyword
    /// interner, the list table and both posting arenas
    /// ([`HeapBytes::inverted`](crate::index::HeapBytes::inverted)).
    pub inverted_bytes: usize,
}

impl IndexStats {
    /// Computes the summary for one index.
    pub fn of(index: &FragmentIndex) -> Self {
        let ranked = index.inverted.keywords_by_df();
        let postings: usize = ranked.iter().map(|(_, df)| df).sum();
        let max_df = ranked.first().map(|(_, df)| *df).unwrap_or(0);
        IndexStats {
            fragments: index.graph.node_count(),
            keywords: ranked.len(),
            postings,
            edges: index.graph.edge_count(),
            groups: index.graph.group_count(),
            avg_keywords: index.graph.avg_keywords(&index.catalog),
            max_df,
            inverted_bytes: index.heap_bytes().inverted(),
        }
    }
}

impl fmt::Display for IndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fragments ({} groups, {} edges), {} keywords, {} postings \
             (max df {}), avg {:.1} keywords/fragment, {} B inverted index",
            self.fragments,
            self.groups,
            self.edges,
            self.keywords,
            self.postings,
            self.max_df,
            self.avg_keywords,
            self.inverted_bytes,
        )
    }
}

impl DashEngine {
    /// Aggregate statistics of this engine's fragment index.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats::of(self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DashConfig;
    use dash_webapp::fooddb;

    #[test]
    fn fooddb_stats_match_known_structure() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let engine = DashEngine::build(&app, &db, &DashConfig::default()).unwrap();
        let stats = engine.index_stats();
        assert_eq!(stats.fragments, 5);
        assert_eq!(stats.groups, 2); // American + Thai
        assert_eq!(stats.edges, 3); // the American chain
                                    // (8+8+17+8+10)/5 = 10.2 keywords on average (Example 6 weights).
        assert!((stats.avg_keywords - 10.2).abs() < 1e-9);
        // "burger" is the hottest keyword (3 fragments).
        assert_eq!(stats.max_df, 3);
        assert!(stats.keywords > 20);
        assert!(stats.postings >= stats.keywords);
        // The inverted index's heap bytes, as `FragmentIndex::heap_bytes`
        // walks them: 8 bytes a posting in each arena, plus the
        // interner and the list table.
        let heap = engine.index().heap_bytes();
        assert_eq!(
            stats.inverted_bytes,
            heap.interner + heap.lists + heap.tf_arena + heap.probe_arena
        );
        assert!(stats.inverted_bytes >= 16 * stats.postings);
        let text = stats.to_string();
        assert!(text.contains("5 fragments"));
    }

    #[test]
    fn empty_index_stats() {
        let index = FragmentIndex::build(&[], Some(0)).unwrap();
        let stats = IndexStats::of(&index);
        assert_eq!(stats.fragments, 0);
        assert_eq!(stats.max_df, 0);
        assert_eq!(stats.avg_keywords, 0.0);
    }
}
