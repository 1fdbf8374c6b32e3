//! Long-running incremental-maintenance scenarios: interleaved inserts
//! and deletes must keep the engine equal to a from-scratch rebuild (the
//! paper's first future-work item, exercised hard).

use dash::core::{DashConfig, DashEngine, RecordChange, SearchRequest};
use dash::relation::{Database, Record, Value};
use dash::webapp::fooddb;

fn rebuild(db: &Database) -> DashEngine {
    let app = fooddb::search_application().unwrap();
    DashEngine::build(&app, db, &DashConfig::default()).unwrap()
}

fn assert_equivalent(incremental: &DashEngine, rebuilt: &DashEngine, context: &str) {
    assert_eq!(
        incremental.fragment_count(),
        rebuilt.fragment_count(),
        "{context}: fragment counts"
    );
    assert_eq!(
        incremental.index().graph.edge_count(),
        rebuilt.index().graph.edge_count(),
        "{context}: edge counts"
    );
    for kw in ["burger", "fries", "coffee", "thai", "taco", "pho", "nice"] {
        for s in [1u64, 20, 60] {
            let req = SearchRequest::new(&[kw]).k(6).min_size(s);
            assert_eq!(
                incremental.search(&req),
                rebuilt.search(&req),
                "{context}: search {kw}/{s}"
            );
        }
    }
}

/// Applies one record change (insert or delete; `db` already reflects
/// it) as a one-change batch.
fn apply_change(engine: &mut DashEngine, db: &Database, relation: &str, record: &Record) {
    engine
        .apply_changes(db, &[RecordChange::new(relation, record.clone())])
        .unwrap();
}

fn restaurant(rid: i64, name: &str, cuisine: &str, budget: i64) -> Record {
    Record::new(vec![
        Value::Int(rid),
        Value::str(name),
        Value::str(cuisine),
        Value::Int(budget),
        Value::str("4.0"),
    ])
}

fn comment(cid: i64, rid: i64, uid: i64, text: &str) -> Record {
    Record::new(vec![
        Value::Int(cid),
        Value::Int(rid),
        Value::Int(uid),
        Value::str(text),
        Value::str("02/12"),
    ])
}

#[test]
fn interleaved_insert_delete_sequence() {
    let mut db = fooddb::database();
    let mut engine = rebuild(&db);

    // 1. Insert a chain of Mexican restaurants spanning budgets 5..9 —
    //    grows a brand-new equality group with edges.
    for (i, budget) in (5..10).enumerate() {
        let r = restaurant(100 + i as i64, "Taco Tower", "Mexican", budget);
        db.table_mut("restaurant")
            .unwrap()
            .insert(r.clone())
            .unwrap();
        apply_change(&mut engine, &db, "restaurant", &r);
    }
    assert_equivalent(&engine, &rebuild(&db), "after mexican chain");
    let hits = engine.search(&SearchRequest::new(&["taco"]).k(1).min_size(100));
    assert_eq!(hits.len(), 1);
    // All five fragments merge under a big threshold.
    assert_eq!(hits[0].fragment_ids.len(), 5);

    // 2. Insert comments on one of them (fragment content change).
    let c = comment(301, 102, 132, "Great taco pho fusion");
    db.table_mut("comment").unwrap().insert(c.clone()).unwrap();
    apply_change(&mut engine, &db, "comment", &c);
    assert_equivalent(&engine, &rebuild(&db), "after comment insert");

    // 3. Delete the middle of the Mexican chain — the edge must re-splice.
    let victim = db
        .table("restaurant")
        .unwrap()
        .iter()
        .find(|r| r.get(0) == Some(&Value::Int(102)))
        .cloned()
        .unwrap();
    db.table_mut("comment")
        .unwrap()
        .delete_where(|r| r.get(1) == Some(&Value::Int(102)));
    apply_change(&mut engine, &db, "comment", &c);
    db.table_mut("restaurant")
        .unwrap()
        .delete_where(|r| r.get(0) == Some(&Value::Int(102)));
    apply_change(&mut engine, &db, "restaurant", &victim);
    assert_equivalent(&engine, &rebuild(&db), "after middle delete");

    // 4. Delete an entire cuisine (Thai) — groups disappear.
    for rid in [5i64, 6] {
        let comments: Vec<Record> = db
            .table("comment")
            .unwrap()
            .iter()
            .filter(|r| r.get(1) == Some(&Value::Int(rid)))
            .cloned()
            .collect();
        for c in comments {
            db.table_mut("comment")
                .unwrap()
                .delete_where(|r| r.get(0) == c.get(0));
            apply_change(&mut engine, &db, "comment", &c);
        }
        let r = db
            .table("restaurant")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(rid)))
            .cloned()
            .unwrap();
        db.table_mut("restaurant")
            .unwrap()
            .delete_where(|rec| rec.get(0) == Some(&Value::Int(rid)));
        apply_change(&mut engine, &db, "restaurant", &r);
    }
    assert_equivalent(&engine, &rebuild(&db), "after thai removal");
    assert!(engine
        .search(&SearchRequest::new(&["thai"]).k(3).min_size(1))
        .is_empty());
}

#[test]
fn update_via_delete_then_insert() {
    // A budget change moves a restaurant between fragments.
    let mut db = fooddb::database();
    let mut engine = rebuild(&db);
    let old = db
        .table("restaurant")
        .unwrap()
        .iter()
        .find(|r| r.get(0) == Some(&Value::Int(1)))
        .cloned()
        .unwrap();
    // Burger Queen's budget rises from 10 to 11.
    db.table_mut("restaurant")
        .unwrap()
        .delete_where(|r| r.get(0) == Some(&Value::Int(1)));
    apply_change(&mut engine, &db, "restaurant", &old);
    let new = restaurant(1, "Burger Queen", "American", 11);
    db.table_mut("restaurant")
        .unwrap()
        .insert(new.clone())
        .unwrap();
    apply_change(&mut engine, &db, "restaurant", &new);

    assert_equivalent(&engine, &rebuild(&db), "after budget move");
    // The burger page now reports the new budget interval.
    let hits = engine.search(&SearchRequest::new(&["experts"]).k(1).min_size(1));
    assert_eq!(hits.len(), 1);
    assert!(hits[0].url.contains("l=11&u=11"), "got {}", hits[0].url);
}

#[test]
fn repeated_reinsertion_is_stable() {
    let mut db = fooddb::database();
    let mut engine = rebuild(&db);
    let r = restaurant(200, "Pho Palace", "Vietnamese", 9);
    for round in 0..3 {
        db.table_mut("restaurant")
            .unwrap()
            .insert(r.clone())
            .unwrap();
        apply_change(&mut engine, &db, "restaurant", &r);
        assert_eq!(
            engine
                .search(&SearchRequest::new(&["pho"]).k(5).min_size(1))
                .len(),
            1,
            "round {round}"
        );
        db.table_mut("restaurant")
            .unwrap()
            .delete_where(|rec| rec.get(0) == Some(&Value::Int(200)));
        apply_change(&mut engine, &db, "restaurant", &r);
        assert!(engine
            .search(&SearchRequest::new(&["pho"]).k(5).min_size(1))
            .is_empty());
    }
    assert_equivalent(&engine, &rebuild(&db), "after churn");
}
