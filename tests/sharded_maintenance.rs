//! The sharded-maintenance test tier: after ANY sequence of
//! incremental updates, `ShardedEngine` search results must be
//! **byte-identical** to a `DashEngine` freshly rebuilt over the
//! mutated fragment set — for every shard count. This is the contract
//! of the unified delta write path: deltas route to their owning shard
//! (per-shard work only, no rebuild), global group ranks and IDF
//! refresh incrementally, and the one heap over the partition stays
//! exact even as the shard balance drifts away from what a fresh
//! partition would choose.
//!
//! Three layers of evidence:
//!
//! * golden sequences — the fooddb mutation scenarios of
//!   `tests/maintenance.rs` replayed against sharded engines at shard
//!   counts {1, 2, 4, 8}, with searches interleaved between mutations
//!   and run concurrently from several threads;
//! * property tests — random initial datasets and random
//!   insert/replace/remove delta sequences, applied identically to all
//!   shard counts and compared against a from-scratch rebuild;
//! * round-trip composition — maintenance after an arena-image
//!   dump/load (see `tests/scale_persist.rs` for the image itself).

use std::collections::BTreeMap;

use proptest::prelude::*;

use dash::core::{
    DashConfig, DashEngine, Fragment, FragmentId, IndexDelta, IngestSource, RecordChange,
    SearchRequest, ShardedEngine,
};
use dash::mapreduce::WorkflowStats;
use dash::relation::{Database, Record, Value};
use dash::webapp::fooddb;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn rebuild_single(db: &Database) -> DashEngine {
    let app = fooddb::search_application().unwrap();
    DashEngine::build(&app, db, &DashConfig::default()).unwrap()
}

/// The request battery every comparison runs: hot/cold keywords, size
/// thresholds spanning no-expansion to whole-group, multi-keyword.
fn battery() -> Vec<SearchRequest> {
    let mut requests = Vec::new();
    for kw in ["burger", "fries", "coffee", "thai", "taco", "pho", "nice"] {
        for s in [1u64, 20, 60] {
            requests.push(SearchRequest::new(&[kw]).k(6).min_size(s));
        }
    }
    requests.push(SearchRequest::new(&["burger", "taco"]).k(8).min_size(10));
    requests.push(SearchRequest::new(&["zzzmissing"]).k(3).min_size(1));
    requests
}

/// Sequential + batched + concurrent search comparison: the sharded
/// engine must agree with the rebuilt single engine request for
/// request, including while several client threads search one shared
/// engine at once.
fn assert_equivalent(sharded: &ShardedEngine, rebuilt: &DashEngine, context: &str) {
    assert_eq!(
        sharded.fragment_count(),
        rebuilt.fragment_count(),
        "{context}: fragment counts"
    );
    let requests = battery();
    let expected: Vec<_> = requests.iter().map(|r| rebuilt.search(r)).collect();
    for (request, expected) in requests.iter().zip(&expected) {
        assert_eq!(
            &sharded.search(request),
            expected,
            "{context}: keywords={:?} k={} s={}",
            request.keywords,
            request.k,
            request.min_size
        );
    }
    assert_eq!(
        sharded.search_many(&requests),
        expected,
        "{context}: batched"
    );
    // Concurrent traffic on one shared engine: four client threads
    // issue the whole battery at once.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                for (request, expected) in requests.iter().zip(expected) {
                    assert_eq!(
                        &sharded.search(request),
                        expected,
                        "{context}: concurrent client {t} keywords={:?}",
                        request.keywords
                    );
                }
            });
        }
    });
}

/// Applies one record change (insert or delete; `db` already reflects
/// it) as a one-change batch.
fn apply_change(engine: &mut ShardedEngine, db: &Database, relation: &str, record: &Record) {
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
fn golden_interleaved_mutations_match_rebuild_for_all_shard_counts() {
    for shards in SHARD_COUNTS {
        let mut db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let mut engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Crawl {
                db: &db,
                config: &DashConfig::default(),
            })
            .build()
            .unwrap();
        let context = |step: &str| format!("shards={shards}: {step}");

        // 1. Insert a chain of Mexican restaurants spanning budgets
        //    5..9 — a brand-new equality group grows inside one shard's
        //    key range, with searches after every single insert.
        for (i, budget) in (5..10).enumerate() {
            let r = restaurant(100 + i as i64, "Taco Tower", "Mexican", budget);
            db.table_mut("restaurant")
                .unwrap()
                .insert(r.clone())
                .unwrap();
            apply_change(&mut engine, &db, "restaurant", &r);
            let hits = engine.search(&SearchRequest::new(&["taco"]).k(1).min_size(100));
            assert_eq!(hits.len(), 1, "{}", context("taco findable"));
            assert_eq!(hits[0].fragment_ids.len(), i + 1);
        }
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &context("after mexican chain"),
        );

        // 2. Grow one fragment's content (comment insert).
        let c = comment(301, 102, 132, "Great taco pho fusion");
        db.table_mut("comment").unwrap().insert(c.clone()).unwrap();
        apply_change(&mut engine, &db, "comment", &c);
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &context("after comment insert"),
        );

        // 3. Delete the middle of the Mexican chain — the edge
        //    re-splices inside the owning shard only.
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
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &context("after middle delete"),
        );

        // 4. Delete an entire cuisine (Thai) — whole groups disappear
        //    from their shard; later shards' global ranks must slide.
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
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &context("after thai removal"),
        );
        assert!(engine
            .search(&SearchRequest::new(&["thai"]).k(3).min_size(1))
            .is_empty());
    }
}

#[test]
fn golden_budget_move_and_churn_match_rebuild() {
    for shards in SHARD_COUNTS {
        let mut db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let mut engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Crawl {
                db: &db,
                config: &DashConfig::default(),
            })
            .build()
            .unwrap();

        // A budget change moves a restaurant between fragments of the
        // same group (delete + insert).
        let old = db
            .table("restaurant")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(1)))
            .cloned()
            .unwrap();
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
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &format!("shards={shards}: after budget move"),
        );
        let hits = engine.search(&SearchRequest::new(&["experts"]).k(1).min_size(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].url.contains("l=11&u=11"), "got {}", hits[0].url);

        // Repeated insert/delete churn of one fragment is stable.
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
                "shards={shards} round={round}"
            );
            db.table_mut("restaurant")
                .unwrap()
                .delete_where(|rec| rec.get(0) == Some(&Value::Int(200)));
            apply_change(&mut engine, &db, "restaurant", &r);
            assert!(engine
                .search(&SearchRequest::new(&["pho"]).k(5).min_size(1))
                .is_empty());
        }
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &format!("shards={shards}: after churn"),
        );
    }
}

#[test]
fn golden_mixed_batch_through_apply_changes_matches_rebuild() {
    // One mixed batch through `ShardedEngine::apply_changes` at every
    // shard count 1–8: restaurant and comment inserts, a comment
    // delete, and a budget move (delete + re-insert of one restaurant
    // inside its equality group). `db` reflects the whole batch first.
    for shards in 1..=8 {
        let mut db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let mut engine = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Crawl {
                db: &db,
                config: &DashConfig::default(),
            })
            .build()
            .unwrap();
        let mut changes = Vec::new();

        let taco = restaurant(160, "Taco Temple", "Mexican", 8);
        db.table_mut("restaurant")
            .unwrap()
            .insert(taco.clone())
            .unwrap();
        changes.push(RecordChange::new("restaurant", taco));
        let praise = comment(310, 160, 120, "Crispy taco heaven");
        db.table_mut("comment")
            .unwrap()
            .insert(praise.clone())
            .unwrap();
        changes.push(RecordChange::new("comment", praise));

        // "Bad fries" (cid 203) is withdrawn.
        let withdrawn = db
            .table("comment")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(203)))
            .cloned()
            .unwrap();
        db.table_mut("comment")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::Int(203)));
        changes.push(RecordChange::new("comment", withdrawn));

        // Burger Queen's budget rises from 10 to 11: same rid, same
        // (American) group, another fragment.
        let old = db
            .table("restaurant")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(1)))
            .cloned()
            .unwrap();
        db.table_mut("restaurant")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::Int(1)));
        changes.push(RecordChange::new("restaurant", old));
        let moved = restaurant(1, "Burger Queen", "American", 11);
        db.table_mut("restaurant")
            .unwrap()
            .insert(moved.clone())
            .unwrap();
        changes.push(RecordChange::new("restaurant", moved));

        let stats = engine.apply_changes(&db, &changes).unwrap();
        assert!(stats.added >= 2, "shards={shards}: {stats:?}");
        assert_equivalent(
            &engine,
            &rebuild_single(&db),
            &format!("shards={shards}: after mixed batch"),
        );
        let hits = engine.search(&SearchRequest::new(&["experts"]).k(1).min_size(1));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].url.contains("l=11&u=11"), "got {}", hits[0].url);
        assert_eq!(
            engine
                .search(&SearchRequest::new(&["taco"]).k(1).min_size(1))
                .len(),
            1
        );
    }
}

#[test]
fn maintenance_composes_with_per_shard_roundtrip() {
    // Mutate → dump the arena image → reload (no re-partitioning) →
    // mutate again: the reloaded engine keeps accepting deltas and
    // stays byte-identical to a rebuild.
    let mut db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let mut engine = ShardedEngine::builder(app.clone())
        .shards(4)
        .source(IngestSource::Crawl {
            db: &db,
            config: &DashConfig::default(),
        })
        .build()
        .unwrap();

    let r = restaurant(150, "Quesadilla Queen", "Mexican", 14);
    db.table_mut("restaurant")
        .unwrap()
        .insert(r.clone())
        .unwrap();
    apply_change(&mut engine, &db, "restaurant", &r);

    let mut image = Vec::new();
    engine.write_image(&mut image).unwrap();
    let mut reloaded = ShardedEngine::builder(app.clone())
        .source(IngestSource::Image(&image))
        .build()
        .unwrap();
    assert_eq!(reloaded.shard_sizes(), engine.shard_sizes());

    let r2 = restaurant(151, "Churro Chapel", "Mexican", 16);
    db.table_mut("restaurant")
        .unwrap()
        .insert(r2.clone())
        .unwrap();
    apply_change(&mut engine, &db, "restaurant", &r2);
    apply_change(&mut reloaded, &db, "restaurant", &r2);

    let rebuilt = rebuild_single(&db);
    assert_equivalent(&engine, &rebuilt, "original after roundtrip-era mutations");
    assert_equivalent(&reloaded, &rebuilt, "reloaded after mutations");
}

// ---------------------------------------------------------------------
// Property tests: random datasets, random delta sequences.
// ---------------------------------------------------------------------

const EQ_KEYS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
const VOCAB: [&str; 8] = [
    "burger", "fries", "noodle", "spicy", "fresh", "crispy", "sweet", "salty",
];

/// One generated fragment row.
#[derive(Debug, Clone)]
struct GenFragment {
    eq: usize,
    range: i64,
    words: Vec<(usize, u64)>,
}

impl GenFragment {
    fn id(&self) -> FragmentId {
        FragmentId::new(vec![Value::str(EQ_KEYS[self.eq]), Value::Int(self.range)])
    }

    fn materialize(&self) -> Fragment {
        let mut occ: BTreeMap<String, u64> = BTreeMap::new();
        for &(w, n) in &self.words {
            *occ.entry(VOCAB[w].to_string()).or_insert(0) += n;
        }
        Fragment::new(self.id(), occ, 1)
    }
}

/// One maintenance operation against the engines and the ground truth.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace) a fragment.
    Upsert(GenFragment),
    /// Remove the fragment with this (eq, range) coordinate, if live.
    Remove(usize, i64),
}

fn fragment_strategy() -> impl Strategy<Value = GenFragment> {
    (
        0..EQ_KEYS.len(),
        0i64..12,
        prop::collection::vec((0usize..VOCAB.len(), 1u64..5), 1..4),
    )
        .prop_map(|(eq, range, words)| GenFragment { eq, range, words })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The stand-in's `prop_oneof!` is uniform; repeating the upsert arm
    // biases the mix toward insert/replace ops.
    prop_oneof![
        fragment_strategy().prop_map(Op::Upsert),
        fragment_strategy().prop_map(Op::Upsert),
        fragment_strategy().prop_map(Op::Upsert),
        (0..EQ_KEYS.len(), 0i64..12).prop_map(|(eq, range)| Op::Remove(eq, range)),
    ]
}

/// First occurrence of an identifier wins, like a crawl's distinct
/// output.
fn materialize(rows: &[GenFragment]) -> Vec<Fragment> {
    let mut seen = std::collections::HashSet::new();
    let mut fragments = Vec::new();
    for row in rows {
        if seen.insert(row.id()) {
            fragments.push(row.materialize());
        }
    }
    fragments
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// The tier's core contract: random initial data, a random delta
    /// sequence applied incrementally at every shard count, searches
    /// byte-identical to a from-scratch rebuild over the final set.
    #[test]
    fn update_then_search_matches_rebuild_then_search(
        rows in prop::collection::vec(fragment_strategy(), 1..30),
        ops in prop::collection::vec(op_strategy(), 1..12),
        query in prop::collection::vec(0usize..VOCAB.len(), 1..4),
        k in 1usize..10,
        s in prop::sample::select(vec![1u64, 3, 10, 50]),
    ) {
        let app = fooddb::search_application().unwrap();
        let initial = materialize(&rows);
        let mut truth: Vec<Fragment> = initial.clone();
        let mut engines: Vec<ShardedEngine> = SHARD_COUNTS
            .iter()
            .map(|&n| {
                ShardedEngine::builder(app.clone()).shards(n).source(IngestSource::Fragments(&initial)).build()
                    .unwrap()
            })
            .collect();
        for op in &ops {
            let delta = match op {
                Op::Upsert(row) => {
                    let fragment = row.materialize();
                    truth.retain(|f| f.id != fragment.id);
                    truth.push(fragment.clone());
                    IndexDelta::new(vec![row.id()], vec![fragment])
                }
                Op::Remove(eq, range) => {
                    let id =
                        FragmentId::new(vec![Value::str(EQ_KEYS[*eq]), Value::Int(*range)]);
                    truth.retain(|f| f.id != id);
                    IndexDelta::removing(vec![id])
                }
            };
            for engine in &mut engines {
                engine.apply_delta(delta.clone());
            }
        }
        let rebuilt =
            DashEngine::from_fragments(app.clone(), &truth, WorkflowStats::new()).unwrap();
        let keywords: Vec<&str> = query.iter().map(|&w| VOCAB[w]).collect();
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let expected = rebuilt.search(&request);
        for (engine, &shards) in engines.iter().zip(&SHARD_COUNTS) {
            prop_assert_eq!(engine.fragment_count(), truth.len(), "shards={}", shards);
            prop_assert_eq!(
                engine.search(&request),
                expected.clone(),
                "shards={} truth={} ops={} keywords={:?} k={} s={}",
                shards,
                truth.len(),
                ops.len(),
                &keywords,
                k,
                s
            );
        }
    }

    /// The seed path reads a posting's own keyword count from the
    /// TF-sorted arena and probes the fragment-sorted arena for the
    /// rest, so the two must agree: after random deltas, at every shard
    /// count, every TF-arena posting's `occurrences` equals the probe
    /// arena's `occurrences(kw, frag)` — and again once the spliced
    /// engine has gone through an arena image.
    #[test]
    fn tf_and_probe_arenas_agree_after_random_deltas(
        rows in prop::collection::vec(fragment_strategy(), 1..30),
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let app = fooddb::search_application().unwrap();
        let initial = materialize(&rows);
        for &shards in &SHARD_COUNTS {
            let mut engine = ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&initial))
                .build()
                .unwrap();
            for op in &ops {
                engine.apply_delta(match op {
                    Op::Upsert(row) => IndexDelta::new(vec![row.id()], vec![row.materialize()]),
                    Op::Remove(eq, range) => IndexDelta::removing(vec![FragmentId::new(vec![
                        Value::str(EQ_KEYS[*eq]),
                        Value::Int(*range),
                    ])]),
                });
            }
            let mut image = Vec::new();
            engine.write_image(&mut image).unwrap();
            let loaded = ShardedEngine::builder(app.clone())
                .source(IngestSource::Image(&image))
                .build()
                .unwrap();
            for (label, engine) in [("spliced", &engine), ("loaded", &loaded)] {
                for (s, index) in engine.shard_indexes().enumerate() {
                    let inverted = &index.inverted;
                    for (word, _) in inverted.keywords_by_df() {
                        let kw = inverted.kw(word).unwrap();
                        for posting in inverted.postings_kw(kw) {
                            prop_assert_eq!(
                                u64::from(posting.occurrences),
                                inverted.occurrences(kw, posting.frag),
                                "{} shards={} shard {} keyword {}",
                                label,
                                shards,
                                s,
                                word
                            );
                        }
                    }
                }
            }
        }
    }

    /// Interleaving searches *between* delta applications never
    /// perturbs later results (scratch pools, worker state and offsets
    /// carry no stale cross-request state).
    #[test]
    fn interleaved_search_and_update_is_stateless(
        rows in prop::collection::vec(fragment_strategy(), 5..25),
        ops in prop::collection::vec(op_strategy(), 1..6),
        shards in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let app = fooddb::search_application().unwrap();
        let initial = materialize(&rows);
        let mut truth = initial.clone();
        let mut engine =
            ShardedEngine::builder(app.clone()).shards(shards).source(IngestSource::Fragments(&initial)).build()
                .unwrap();
        let request = SearchRequest::new(&["burger", "spicy"]).k(5).min_size(3);
        for op in &ops {
            let delta = match op {
                Op::Upsert(row) => {
                    let fragment = row.materialize();
                    truth.retain(|f| f.id != fragment.id);
                    truth.push(fragment.clone());
                    IndexDelta::new(vec![row.id()], vec![fragment])
                }
                Op::Remove(eq, range) => {
                    let id =
                        FragmentId::new(vec![Value::str(EQ_KEYS[*eq]), Value::Int(*range)]);
                    truth.retain(|f| f.id != id);
                    IndexDelta::removing(vec![id])
                }
            };
            engine.apply_delta(delta);
            // Search immediately after every delta, against a rebuild.
            let rebuilt =
                DashEngine::from_fragments(app.clone(), &truth, WorkflowStats::new()).unwrap();
            prop_assert_eq!(
                engine.search(&request),
                rebuilt.search(&request),
                "shards={} after {} fragments",
                shards,
                truth.len()
            );
        }
    }
}
