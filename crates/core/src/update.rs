//! Incremental fragment-index maintenance — the paper's first
//! future-work item (Section VIII): "some efficient update mechanisms
//! that can efficiently update (affected portions of) a fragment index
//! are desirable".
//!
//! ## The delta write path
//!
//! Every mutation — at any shard count — flows through one
//! abstraction, the [`IndexDelta`]: the set of fragment identifiers
//! whose index entries are stale (`removes`) plus the freshly derived
//! fragments to splice in (`adds`). A batch of base-table record
//! changes ([`RecordChange`]s, one record or many) becomes a delta
//! through one function, [`bulk_delta`], and the pipeline is
//!
//! 1. **find** — a changed record (inserted or deleted) touches
//!    exactly the fragments whose identifiers appear in the join rows
//!    it participates in; [`bulk_affected_ids`] finds them by joining a
//!    shadow of each touched relation, holding only the batch's records
//!    of it, against the rest of the database;
//! 2. **build** — [`bulk_delta`] recomputes the affected fragments
//!    from the current database in one scoped re-crawl and packages
//!    them as an [`IndexDelta`];
//! 3. **prepare** — one walk of the inverted lists against the
//!    pre-delta index, O(lists · log L), finds the stale postings of
//!    every removed or replaced fragment (and, for the serving tier,
//!    the touched groups' vocabulary);
//! 4. **apply** — the write half splices the delta into every
//!    structure atomically ([`FragmentIndex::apply`] runs both
//!    halves), in time proportional to the delta
//!    plus one O(lists) pass over the offset table: the per-group
//!    graph splices touch only the affected groups' runs, and the
//!    posting arenas are spliced **in place** — only the inverted
//!    lists that lose or gain a posting are edited (stale postings
//!    located by binary search, fresh ones inserted at their rank in
//!    the bulk sort's total order), the postings in between slide to
//!    their new offsets with `memmove`, and no list is ever re-sorted
//!    (see `InvertedFragmentIndex::apply_delta`). The result is the
//!    exact layout a from-scratch build produces.
//!
//! The engine has one record-change method,
//! [`ShardedEngine::apply_changes`](crate::sharded::ShardedEngine::apply_changes),
//! plus `apply_delta` for a prebuilt delta: it routes each delta entry
//! to the shard owning its equality group and applies each sub-delta to
//! its shard — per-shard work only, with search results staying
//! byte-identical to a freshly built engine (see `crate::sharded`).
//!
//! [`FragmentIndex::apply`]: crate::index::FragmentIndex::apply

use std::collections::{BTreeMap, BTreeSet};

use dash_relation::{Database, Record, Schema, Table, Value};
use dash_webapp::WebApplication;

use crate::crawl::reference;
use crate::error::CoreError;
use crate::fragment::{Fragment, FragmentId};
use crate::index::catalog::key_parts;
use crate::index::inverted::check_counts;
use crate::Result;

/// A batched, atomic mutation of a fragment index: which identifiers'
/// entries are stale, and the fresh fragments replacing them. The unit
/// of the unified write path — built once per batch of database
/// changes ([`bulk_delta`]), applied per index
/// ([`FragmentIndex::apply`](crate::index::FragmentIndex::apply)) or
/// routed per shard
/// ([`ShardedEngine::apply_delta`](crate::sharded::ShardedEngine::apply_delta)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexDelta {
    /// Identifiers whose current index entries must go (stale versions
    /// and emptied identifiers). An identifier that is also re-added
    /// below is replaced, not dropped.
    pub removes: Vec<FragmentId>,
    /// Freshly derived fragments to (re)insert. Duplicated identifiers
    /// are allowed (concatenated deltas produce them); the last entry
    /// for an identifier wins.
    pub adds: Vec<Fragment>,
}

impl IndexDelta {
    /// A delta that removes and (re)inserts the given sets.
    pub fn new(removes: Vec<FragmentId>, adds: Vec<Fragment>) -> Self {
        IndexDelta { removes, adds }
    }

    /// A pure-removal delta.
    pub fn removing(removes: Vec<FragmentId>) -> Self {
        IndexDelta {
            removes,
            adds: Vec::new(),
        }
    }

    /// A pure-insertion delta.
    pub fn adding(adds: Vec<Fragment>) -> Self {
        IndexDelta {
            removes: Vec::new(),
            adds,
        }
    }

    /// Whether the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.adds.is_empty()
    }

    /// Checks that the delta fits `app`, the check both engines run
    /// before any index changes: every identifier, removed or added,
    /// holds one value per selection attribute (paper Definition 2),
    /// every occurrence count fits a posting, and each added
    /// fragment's counts sum to at most its `total_keywords`.
    ///
    /// # Errors
    ///
    /// [`CoreError::IdentifierArity`] for the first identifier of
    /// another arity, then [`CoreError::OccurrenceOverflow`] for the
    /// first count above `u32::MAX` or
    /// [`CoreError::OccurrencesPastTotal`] for the first fragment whose
    /// counts sum past its total.
    pub fn check(&self, app: &WebApplication) -> Result<()> {
        let expected = app.query.selections.len();
        let ids = self.removes.iter().chain(self.adds.iter().map(|f| &f.id));
        if let Some(id) = ids.into_iter().find(|id| id.values().len() != expected) {
            return Err(CoreError::IdentifierArity {
                id: id.to_string(),
                arity: id.values().len(),
                expected,
            });
        }
        check_counts(&self.adds)
    }

    /// The equality-group keys this delta touches — every remove's and
    /// every add's identifier reduced by [`key_parts`]: the groups whose
    /// pre-delta vocabulary a [`DeltaSignature`] holds.
    pub fn touched_groups(&self, range_position: Option<usize>) -> BTreeSet<Vec<Value>> {
        self.removes
            .iter()
            .chain(self.adds.iter().map(|f| &f.id))
            .map(|id| {
                let (head, tail) = key_parts(id.values(), range_position);
                [head, tail].concat()
            })
            .collect()
    }
}

/// What a published delta can possibly perturb, reduced to one
/// question a cache can ask with nothing but a request's keywords.
/// Dash assembles every result page from the fragments of one equality
/// group, so a cached answer for keywords K changes only under a delta
/// that adds a posting of some k ∈ K (its document frequency, hence
/// IDF and every score, shifts, or a new candidate arises) or that
/// touches a group holding some k ∈ K (a candidate page's fragments
/// change). Both are keyword tests: the first against the adds'
/// keywords, the second against the touched groups' *pre-delta
/// vocabulary* — every keyword any of their fragments held, which
/// covers every posting the delta removes or replaces. An entry whose
/// keywords miss [`DeltaSignature::keywords`] is provably still
/// byte-identical after the delta, which is what lets the serving
/// caches invalidate precisely instead of flushing wholesale, and
/// without remembering anything per entry but the request itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSignature {
    /// Every keyword the delta's adds carry, plus every keyword held
    /// before the delta by any fragment of a touched group
    /// ([`IndexDelta::touched_groups`]). A cached result depends on the
    /// delta iff one of its request keywords is in here.
    pub keywords: BTreeSet<String>,
}

impl DeltaSignature {
    /// Whether the signature could affect a cached answer for request
    /// `keywords`: any of them is in the signature's set. The request
    /// side is a handful of words and the signature side a few hundred,
    /// so the request is the one iterated.
    pub fn hits(&self, keywords: &[String]) -> bool {
        keywords.iter().any(|k| self.keywords.contains(k))
    }
}

/// One base-table record change — the unit of the maintenance path
/// ([`bulk_delta`], [`ShardedEngine::apply_changes`]). The database
/// handed alongside must already reflect the change (record inserted /
/// removed); a deleted record's foreign-key parents must still be in
/// it.
///
/// [`ShardedEngine::apply_changes`]: crate::sharded::ShardedEngine::apply_changes
#[derive(Debug, Clone, PartialEq)]
pub struct RecordChange {
    /// The relation the record was inserted into or deleted from.
    pub relation: String,
    /// The inserted record, or the deleted row captured beforehand.
    pub record: Record,
}

impl RecordChange {
    /// A change of `record` in `relation` (insert or delete — the
    /// delta pipeline recomputes affected fragments either way).
    pub fn new(relation: impl Into<String>, record: Record) -> Self {
        RecordChange {
            relation: relation.into(),
            record,
        }
    }
}

/// What applying a delta did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Fragments removed from the index (stale versions + emptied ids).
    pub removed: usize,
    /// Fragments (re)inserted.
    pub added: usize,
}

impl RefreshStats {
    /// Accumulates another application's counts (per-shard sub-deltas
    /// sum into the engine-level stats).
    pub fn merge(&mut self, other: RefreshStats) {
        self.removed += other.removed;
        self.added += other.added;
    }
}

/// The fragment identifiers affected by a batch of record changes.
/// The shadow joins are batched per relation: all of a relation's delta
/// records join the rest of the database **once**, instead of once per
/// record, so N changes pay one shadow join per touched relation
/// rather than N.
///
/// # Errors
///
/// Propagates relational errors (unknown relation, schema mismatch).
pub fn bulk_affected_ids(
    app: &WebApplication,
    db: &Database,
    changes: &[RecordChange],
) -> Result<BTreeSet<FragmentId>> {
    let mut by_relation: BTreeMap<&str, Vec<Record>> = BTreeMap::new();
    for change in changes {
        by_relation
            .entry(change.relation.as_str())
            .or_default()
            .push(change.record.clone());
    }
    let mut ids = BTreeSet::new();
    for (relation, records) in by_relation {
        // Shadow database: `relation` holds only this batch's delta
        // records; their FK parents are still in `db`. Distinct delta
        // records of ONE relation never join each other (a PSJ query
        // joins a relation against the others, not itself), so one
        // shadow join covers the whole batch exactly. The shadow
        // declares no primary key: a delete and a re-insert of one row
        // (a budget move) are two delta records under one key.
        let mut shadow = db.clone();
        let schema = db
            .table(relation)?
            .schema()
            .columns()
            .iter()
            .fold(Schema::builder(relation), |b, c| b.column(c.clone()))
            .build()?;
        let table = Table::with_records(schema, records)?;
        shadow.add_table(table);
        // With `relation` shrunk to the delta, outer-join padding can
        // also yield fragments of left rows the delta does not touch
        // (they all pad). Re-deriving those is conservative and exact,
        // so every identifier the shadow join produces is refreshed.
        for fragment in reference::fragments(app, &shadow)? {
            ids.insert(fragment.id);
        }
    }
    Ok(ids)
}

/// Builds one [`IndexDelta`] bringing a whole batch of record changes
/// up to date: batched shadow joins find the affected identifiers
/// ([`bulk_affected_ids`]), then **one** scoped re-crawl
/// ([`reference::fragments_for_ids`]) recomputes them — N changes cost
/// one join per touched relation plus one recompute join, where N
/// one-change batches pay N of each. This is the only record→delta
/// function; an empty batch yields an empty delta.
///
/// # Errors
///
/// Propagates relational errors.
pub fn bulk_delta(
    app: &WebApplication,
    db: &Database,
    changes: &[RecordChange],
) -> Result<IndexDelta> {
    if changes.is_empty() {
        return Ok(IndexDelta::default());
    }
    let ids = bulk_affected_ids(app, db, changes)?;
    let adds = reference::fragments_for_ids(app, db, &ids)?;
    Ok(IndexDelta::new(ids.into_iter().collect(), adds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DashConfig;
    use crate::ingest::IngestSource;
    use crate::search::SearchRequest;
    use crate::sharded::ShardedEngine;
    use dash_relation::Value;
    use dash_webapp::fooddb;

    fn rebuild(db: &Database) -> ShardedEngine {
        let app = fooddb::search_application().unwrap();
        let config = DashConfig::default();
        ShardedEngine::builder(app)
            .source(IngestSource::Crawl {
                db,
                config: &config,
            })
            .build()
            .unwrap()
    }

    /// Graph node and edge counts summed over the engine's shards.
    fn graph_counts(engine: &ShardedEngine) -> (usize, usize) {
        engine
            .shard_indexes()
            .fold((0, 0), |(nodes, edges), index| {
                (
                    nodes + index.graph.node_count(),
                    edges + index.graph.edge_count(),
                )
            })
    }

    fn assert_same_index(a: &ShardedEngine, b: &ShardedEngine) {
        assert_eq!(graph_counts(a), graph_counts(b), "graph counts differ");
        // Same search behavior on a battery of requests.
        for kw in ["burger", "fries", "coffee", "sushi", "thai"] {
            for s in [1, 20, 100] {
                let req = SearchRequest::new(&[kw]).k(5).min_size(s);
                assert_eq!(a.search(&req), b.search(&req), "kw={kw} s={s}");
            }
        }
    }

    #[test]
    fn insert_new_restaurant_updates_index() {
        let mut db = fooddb::database();
        let mut engine = rebuild(&db);
        // New sushi place at a brand-new (Japanese, 25) fragment.
        let record = Record::new(vec![
            Value::Int(8),
            Value::str("Sushi Go"),
            Value::str("Japanese"),
            Value::Int(25),
            Value::str("4.9"),
        ]);
        db.table_mut("restaurant")
            .unwrap()
            .insert(record.clone())
            .unwrap();
        let stats = engine
            .apply_changes(&db, &[RecordChange::new("restaurant", record)])
            .unwrap();
        assert!(stats.added >= 1);
        // The new page is findable.
        let hits = engine.search(&SearchRequest::new(&["sushi"]).k(1).min_size(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].url.contains("c=Japanese"));
        // And the incremental index equals a from-scratch rebuild.
        assert_same_index(&engine, &rebuild(&db));
    }

    #[test]
    fn insert_comment_grows_existing_fragment() {
        let mut db = fooddb::database();
        let mut engine = rebuild(&db);
        let total_occurrences = |engine: &ShardedEngine| {
            engine
                .shard_indexes()
                .filter_map(|index| index.inverted.postings("burger"))
                .flat_map(|list| list.iter().map(|p| u64::from(p.occurrences)))
                .sum::<u64>()
        };
        let before = total_occurrences(&engine);
        // Another burger comment for Burger Queen (rid=1, American,10).
        let record = Record::new(vec![
            Value::Int(207),
            Value::Int(1),
            Value::Int(120),
            Value::str("Best burger ever"),
            Value::str("07/10"),
        ]);
        db.table_mut("comment")
            .unwrap()
            .insert(record.clone())
            .unwrap();
        engine
            .apply_changes(&db, &[RecordChange::new("comment", record)])
            .unwrap();
        let after = total_occurrences(&engine);
        assert!(after > before);
        assert_same_index(&engine, &rebuild(&db));
    }

    #[test]
    fn delete_restaurant_removes_fragment() {
        let mut db = fooddb::database();
        let mut engine = rebuild(&db);
        // Delete Bond's Cafe (rid=7) and its comment (FK hygiene).
        let deleted_comment = db
            .table("comment")
            .unwrap()
            .iter()
            .find(|r| r.get(1) == Some(&Value::Int(7)))
            .cloned()
            .unwrap();
        db.table_mut("comment")
            .unwrap()
            .delete_where(|r| r.get(1) == Some(&Value::Int(7)));
        let deleted_restaurant = db
            .table("restaurant")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(7)))
            .cloned()
            .unwrap();
        db.table_mut("restaurant")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::Int(7)));

        engine
            .apply_changes(&db, &[RecordChange::new("comment", deleted_comment)])
            .unwrap();
        engine
            .apply_changes(&db, &[RecordChange::new("restaurant", deleted_restaurant)])
            .unwrap();
        // (American, 9) is gone; "coffee" finds nothing.
        assert!(engine
            .search(&SearchRequest::new(&["coffee"]).k(1).min_size(1))
            .is_empty());
        assert_eq!(engine.fragment_count(), 4);
        assert_same_index(&engine, &rebuild(&db));
    }

    #[test]
    fn bulk_changes_match_per_record_application() {
        // One 3-change batch (batched shadow joins + one scoped
        // re-crawl) must land on the same index as three one-change
        // batches and as a rebuild — across relations.
        let mut db = fooddb::database();
        let mut per_record = rebuild(&db);
        let mut changes = Vec::new();
        for (rid, name, cuisine, budget) in [
            (60i64, "Bulk Bistro", "American", 13i64),
            (61, "Batch Bar", "Korean", 9),
        ] {
            let record = Record::new(vec![
                Value::Int(rid),
                Value::str(name),
                Value::str(cuisine),
                Value::Int(budget),
                Value::str("4.2"),
            ]);
            db.table_mut("restaurant")
                .unwrap()
                .insert(record.clone())
                .unwrap();
            changes.push(RecordChange::new("restaurant", record));
        }
        let comment = Record::new(vec![
            Value::Int(400),
            Value::Int(60),
            Value::Int(120),
            Value::str("Bulk burger bonanza"),
            Value::str("03/12"),
        ]);
        db.table_mut("comment")
            .unwrap()
            .insert(comment.clone())
            .unwrap();
        changes.push(RecordChange::new("comment", comment));

        let mut bulk = rebuild(&fooddb::database());
        let stats = bulk.apply_changes(&db, &changes).unwrap();
        assert!(stats.added >= 2);
        for change in &changes {
            per_record
                .apply_changes(&db, std::slice::from_ref(change))
                .unwrap();
        }
        assert_same_index(&bulk, &per_record);
        assert_same_index(&bulk, &rebuild(&db));
        // An empty batch is a no-op.
        assert_eq!(
            bulk.apply_changes(&db, &[]).unwrap(),
            RefreshStats::default()
        );
    }

    #[test]
    fn delta_signature_covers_groups_and_keywords() {
        let delta = IndexDelta::new(
            vec![FragmentId::new(vec![Value::str("Thai"), Value::Int(10)])],
            vec![Fragment::new(
                FragmentId::new(vec![Value::str("American"), Value::Int(7)]),
                [("waffle".to_string(), 2u64)].into_iter().collect(),
                1,
            )],
        );
        let groups = delta.touched_groups(Some(1));
        assert!(groups.contains(&vec![Value::str("Thai")]));
        assert!(groups.contains(&vec![Value::str("American")]));
        // The adds' half of a signature: what the delta names by itself.
        let sig = DeltaSignature {
            keywords: delta
                .adds
                .iter()
                .flat_map(|f| f.keyword_occurrences.keys().cloned())
                .collect(),
        };
        assert!(sig.keywords.contains("waffle"));
        // hits(): request keywords against the signature's, nothing
        // else.
        let kws = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        assert!(sig.hits(&kws(&["zzz", "waffle"])));
        assert!(!sig.hits(&kws(&["zzz"])));
        assert!(!sig.hits(&[]));
    }

    #[test]
    fn delta_batches_match_one_by_one_application() {
        // One big delta applied atomically equals the same mutations
        // applied as one-element deltas — and both equal a rebuild.
        let mut db = fooddb::database();
        let batched = {
            let mut engine = rebuild(&db);
            let mut removes = Vec::new();
            let mut adds = Vec::new();
            for (rid, name, cuisine, budget) in [
                (40i64, "Pad Thai Hut", "Thai", 12i64),
                (41, "Fry Shack", "American", 11),
            ] {
                let record = Record::new(vec![
                    Value::Int(rid),
                    Value::str(name),
                    Value::str(cuisine),
                    Value::Int(budget),
                    Value::str("3.5"),
                ]);
                db.table_mut("restaurant")
                    .unwrap()
                    .insert(record.clone())
                    .unwrap();
                let change = RecordChange::new("restaurant", record);
                let delta = bulk_delta(engine.app(), &db, &[change]).unwrap();
                removes.extend(delta.removes);
                adds.extend(delta.adds);
            }
            // Concatenating deltas duplicates recomputed ids; `apply`
            // deduplicates last-wins, so no caller-side hygiene needed.
            let delta = IndexDelta::new(removes, adds);
            assert!(!delta.is_empty());
            engine.apply_delta(delta);
            engine
        };
        assert_same_index(&batched, &rebuild(&db));
    }
}
