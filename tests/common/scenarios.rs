//! The fooddb mutation scenarios the maintenance tier
//! (`sharded_maintenance.rs`) replays on a `ShardedEngine` at every
//! shard count, and the rebuild comparison each step is checked with.
//! Each step edits the database first and then hands the engine the
//! changed record, one change at a time.

use dash::core::crawl::reference;
use dash::core::{IngestSource, RecordChange, SearchHit, SearchRequest, ShardedEngine};
use dash::relation::{Database, Record, Value};
use dash::webapp::fooddb;

use super::battery::battery;
use super::oracle::Oracle;
use super::records::{comment, restaurant};

/// What a maintained engine is compared with: the reference over a
/// fresh crawl of the database, that crawl's fragment count, and the
/// fragment-graph edge count of an engine built from it.
pub struct Rebuilt {
    oracle: Oracle,
    fragments: usize,
    edges: usize,
}

/// Crawls `db` afresh and builds the comparison.
pub fn rebuild(db: &Database) -> Rebuilt {
    let app = fooddb::search_application().unwrap();
    let fragments = reference::fragments(&app, db).unwrap();
    let fresh = ShardedEngine::builder(app.clone())
        .source(IngestSource::Fragments(&fragments))
        .build()
        .unwrap();
    Rebuilt {
        oracle: Oracle::new(&app, &fragments),
        fragments: fragments.len(),
        edges: edge_count(&fresh),
    }
}

/// Fragment-graph edges summed over the engine's shards (an edge never
/// crosses a shard: it joins two fragments of one equality group).
fn edge_count(engine: &ShardedEngine) -> usize {
    engine
        .shard_indexes()
        .map(|index| index.graph.edge_count())
        .sum()
}

/// Sequential + batched + concurrent search comparison: the engine
/// must hold the rebuild's fragment and edge counts and agree with the
/// reference request for request, including while several client
/// threads search one shared engine at once.
pub fn assert_equivalent(engine: &ShardedEngine, rebuilt: &Rebuilt, context: &str) {
    assert_eq!(
        engine.fragment_count(),
        rebuilt.fragments,
        "{context}: fragment counts"
    );
    assert_eq!(edge_count(engine), rebuilt.edges, "{context}: edge counts");
    let requests = battery();
    let served: Vec<_> = requests.iter().map(|r| engine.search(r)).collect();
    rebuilt.oracle.assert_answers(&requests, &served, context);
    assert_eq!(engine.search_many(&requests), served, "{context}: batched");
    // Concurrent traffic on one shared engine: four client threads
    // issue the whole battery at once.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (requests, served) = (&requests, &served);
            scope.spawn(move || {
                for (request, served) in requests.iter().zip(served) {
                    assert_eq!(
                        &engine.search(request),
                        served,
                        "{context}: concurrent client {t} keywords={:?}",
                        request.keywords
                    );
                }
            });
        }
    });
}

/// Applies one inserted or deleted record; `db` already reflects it.
pub fn apply_record(engine: &mut ShardedEngine, db: &Database, relation: &str, record: &Record) {
    engine
        .apply_changes(db, &[RecordChange::new(relation, record.clone())])
        .unwrap();
}

/// Compares the engine with a rebuild of `db` after `step`.
fn check(engine: &ShardedEngine, db: &Database, step: &str) {
    let context = format!("shards={}: {step}", engine.shard_count());
    assert_equivalent(engine, &rebuild(db), &context);
}

fn insert(engine: &mut ShardedEngine, db: &mut Database, relation: &str, record: Record) {
    db.table_mut(relation)
        .unwrap()
        .insert(record.clone())
        .unwrap();
    apply_record(engine, db, relation, &record);
}

/// Deletes, one at a time, every record of `relation` whose `column`
/// holds `key`.
fn delete(engine: &mut ShardedEngine, db: &mut Database, relation: &str, column: usize, key: i64) {
    let doomed: Vec<Record> = db
        .table(relation)
        .unwrap()
        .iter()
        .filter(|r| r.get(column) == Some(&Value::Int(key)))
        .cloned()
        .collect();
    for record in doomed {
        db.table_mut(relation)
            .unwrap()
            .delete_where(|r| r.get(0) == record.get(0));
        apply_record(engine, db, relation, &record);
    }
}

fn hits(engine: &ShardedEngine, keyword: &str, k: usize, s: u64) -> Vec<SearchHit> {
    engine.search(&SearchRequest::new(&[keyword]).k(k).min_size(s))
}

/// A new group grows, one fragment's content changes, the group loses
/// its middle, a whole cuisine goes, and two groups tie.
pub fn interleaved_inserts_and_deletes(engine: &mut ShardedEngine, db: &mut Database) {
    // 1. A chain of Mexican restaurants spanning budgets 5..9 grows a
    //    brand-new equality group, with a search after every insert:
    //    under a big threshold the whole chain is one page.
    for (i, budget) in (5..10).enumerate() {
        let r = restaurant(100 + i as i64, "Taco Tower", "Mexican", budget);
        insert(engine, db, "restaurant", r);
        let taco = hits(engine, "taco", 1, 100);
        assert_eq!(taco.len(), 1, "taco findable");
        assert_eq!(taco[0].fragment_ids.len(), i + 1);
    }
    check(engine, db, "after mexican chain");

    // 2. A comment grows one fragment's content.
    let c = comment(301, 102, 132, "Great taco pho fusion");
    insert(engine, db, "comment", c);
    check(engine, db, "after comment insert");

    // 3. The middle of the chain goes: the edge re-splices.
    delete(engine, db, "comment", 1, 102);
    delete(engine, db, "restaurant", 0, 102);
    check(engine, db, "after middle delete");

    // 4. A whole cuisine (Thai) goes: its groups disappear, and the
    //    groups after them move down in rank.
    for rid in [5, 6] {
        delete(engine, db, "comment", 1, rid);
        delete(engine, db, "restaurant", 0, rid);
    }
    check(engine, db, "after thai removal");
    assert!(hits(engine, "thai", 3, 1).is_empty());

    // 5. Two restaurants alike but for their cuisine: their pages tie
    //    on score, and only the group order puts Greek before Korean.
    for (rid, cuisine) in [(400, "Greek"), (401, "Korean")] {
        insert(
            engine,
            db,
            "restaurant",
            restaurant(rid, "Twin Grill", cuisine, 7),
        );
    }
    check(engine, db, "after the twins");
}

/// Burger Queen's budget rises from 10 to 11: a delete and an insert
/// move it to another fragment of the same group.
pub fn budget_move(engine: &mut ShardedEngine, db: &mut Database) {
    delete(engine, db, "restaurant", 0, 1);
    insert(
        engine,
        db,
        "restaurant",
        restaurant(1, "Burger Queen", "American", 11),
    );
    check(engine, db, "after budget move");
    // The burger page now reports the new budget interval.
    let experts = hits(engine, "experts", 1, 1);
    assert_eq!(experts.len(), 1);
    assert!(
        experts[0].url.contains("l=11&u=11"),
        "got {}",
        experts[0].url
    );
}

/// One fragment inserted and deleted three times over.
pub fn repeated_reinsertion(engine: &mut ShardedEngine, db: &mut Database) {
    for round in 0..3 {
        insert(
            engine,
            db,
            "restaurant",
            restaurant(200, "Pho Palace", "Vietnamese", 9),
        );
        assert_eq!(hits(engine, "pho", 5, 1).len(), 1, "round {round}");
        delete(engine, db, "restaurant", 0, 200);
        assert!(hits(engine, "pho", 5, 1).is_empty(), "round {round}");
    }
    check(engine, db, "after churn");
}
