//! Long-running incremental-maintenance scenarios: interleaved inserts
//! and deletes must keep the engine equal to a from-scratch rebuild (the
//! paper's first future-work item, exercised hard). The incremental
//! `DashEngine` is the engine under test; its searches are checked
//! against the seed's Algorithm 1 (`tests/common/oracle.rs`) over a
//! fresh crawl, and its fragment and edge counts against a rebuilt
//! engine's.

use dash::core::crawl::reference;
use dash::core::{DashConfig, DashEngine, RecordChange, SearchHit, SearchRequest};
use dash::relation::{Database, Record};
use dash::webapp::fooddb;

mod common {
    pub mod battery;
    pub mod oracle;
    pub mod records;
    pub mod scenarios;
}
use common::battery::battery;
use common::oracle::Oracle;
use common::scenarios::{
    budget_move, interleaved_inserts_and_deletes, repeated_reinsertion, Maintained,
};

fn rebuild(db: &Database) -> DashEngine {
    let app = fooddb::search_application().unwrap();
    DashEngine::build(&app, db, &DashConfig::default()).unwrap()
}

/// The incremental engine against a rebuild of `db`: the same fragment
/// and edge counts, and the reference's answer to every request of the
/// battery.
fn assert_equivalent(incremental: &DashEngine, db: &Database, context: &str) {
    let rebuilt = rebuild(db);
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
    let app = fooddb::search_application().unwrap();
    let oracle = Oracle::new(&app, &reference::fragments(&app, db).unwrap());
    let requests = battery();
    let served: Vec<_> = requests.iter().map(|r| incremental.search(r)).collect();
    oracle.assert_answers(&requests, &served, context);
}

impl Maintained for DashEngine {
    fn apply_record(&mut self, db: &Database, relation: &str, record: &Record) {
        self.apply_changes(db, &[RecordChange::new(relation, record.clone())])
            .unwrap();
    }

    fn top_k(&self, request: &SearchRequest) -> Vec<SearchHit> {
        self.search(request)
    }

    fn check(&self, db: &Database, step: &str) {
        assert_equivalent(self, db, step);
    }
}

#[test]
fn interleaved_insert_delete_sequence() {
    let mut db = fooddb::database();
    interleaved_inserts_and_deletes(&mut rebuild(&db), &mut db);
}

#[test]
fn update_via_delete_then_insert() {
    let mut db = fooddb::database();
    budget_move(&mut rebuild(&db), &mut db);
}

#[test]
fn repeated_reinsertion_is_stable() {
    let mut db = fooddb::database();
    repeated_reinsertion(&mut rebuild(&db), &mut db);
}
