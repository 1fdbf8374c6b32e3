//! The fooddb mutation scenarios both maintenance tiers replay: on an
//! incremental `DashEngine` (`maintenance.rs`) and on a `ShardedEngine`
//! at every shard count (`sharded_maintenance.rs`). Each step edits the
//! database first and then hands the engine the changed record, one
//! change at a time.

use dash::core::{SearchHit, SearchRequest};
use dash::relation::{Database, Record, Value};

use super::records::{comment, restaurant};

/// An engine kept up to date record by record.
pub trait Maintained {
    /// Applies one inserted or deleted record; `db` already reflects it.
    fn apply_record(&mut self, db: &Database, relation: &str, record: &Record);
    fn top_k(&self, request: &SearchRequest) -> Vec<SearchHit>;
    /// Compares the engine with a rebuild of `db` after `step`.
    fn check(&self, db: &Database, step: &str);
}

fn insert(engine: &mut impl Maintained, db: &mut Database, relation: &str, record: Record) {
    db.table_mut(relation)
        .unwrap()
        .insert(record.clone())
        .unwrap();
    engine.apply_record(db, relation, &record);
}

/// Deletes, one at a time, every record of `relation` whose `column`
/// holds `key`.
fn delete(
    engine: &mut impl Maintained,
    db: &mut Database,
    relation: &str,
    column: usize,
    key: i64,
) {
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
        engine.apply_record(db, relation, &record);
    }
}

fn hits(engine: &impl Maintained, keyword: &str, k: usize, s: u64) -> Vec<SearchHit> {
    engine.top_k(&SearchRequest::new(&[keyword]).k(k).min_size(s))
}

/// A new group grows, one fragment's content changes, the group loses
/// its middle, a whole cuisine goes, and two groups tie.
pub fn interleaved_inserts_and_deletes(engine: &mut impl Maintained, db: &mut Database) {
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
    engine.check(db, "after mexican chain");

    // 2. A comment grows one fragment's content.
    let c = comment(301, 102, 132, "Great taco pho fusion");
    insert(engine, db, "comment", c);
    engine.check(db, "after comment insert");

    // 3. The middle of the chain goes: the edge re-splices.
    delete(engine, db, "comment", 1, 102);
    delete(engine, db, "restaurant", 0, 102);
    engine.check(db, "after middle delete");

    // 4. A whole cuisine (Thai) goes: its groups disappear, and the
    //    groups after them move down in rank.
    for rid in [5, 6] {
        delete(engine, db, "comment", 1, rid);
        delete(engine, db, "restaurant", 0, rid);
    }
    engine.check(db, "after thai removal");
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
    engine.check(db, "after the twins");
}

/// Burger Queen's budget rises from 10 to 11: a delete and an insert
/// move it to another fragment of the same group.
pub fn budget_move(engine: &mut impl Maintained, db: &mut Database) {
    delete(engine, db, "restaurant", 0, 1);
    insert(
        engine,
        db,
        "restaurant",
        restaurant(1, "Burger Queen", "American", 11),
    );
    engine.check(db, "after budget move");
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
pub fn repeated_reinsertion(engine: &mut impl Maintained, db: &mut Database) {
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
    engine.check(db, "after churn");
}
