//! The sharded-maintenance test tier: after ANY sequence of
//! incremental updates, `ShardedEngine` search results must be
//! **byte-identical** to the seed's Algorithm 1 (`tests/common/oracle.rs`)
//! over the mutated fragment set — for every shard count. This is the contract
//! of the unified delta write path: deltas route to their owning shard
//! (per-shard work only, no rebuild), global group ranks and IDF
//! refresh incrementally, and the one heap over the partition stays
//! exact even as the shard balance drifts away from what a fresh
//! partition would choose.
//!
//! Three layers of evidence:
//!
//! * golden sequences — the fooddb mutation scenarios
//!   (`tests/common/scenarios.rs`) replayed against engines at shard
//!   counts {1, 2, 4, 8}, with searches interleaved between mutations
//!   and run concurrently from several threads, each step checked for
//!   the rebuild's fragment and graph-edge counts as well;
//! * property tests — random initial datasets and random
//!   insert/replace/remove delta sequences, applied identically to all
//!   shard counts and compared against the reference over the final
//!   fragment set;
//! * round-trip composition — maintenance after an arena-image
//!   dump/load (see `tests/scale_persist.rs` for the image itself);
//! * the kept vocabulary — after every delta of a random sequence, at
//!   every width, after a fork and after an image round trip, each
//!   equality group's stored keywords equal those its live fragments
//!   hold, derived from scratch.

use proptest::prelude::*;

use dash::core::index::{GroupId, Kw};
use dash::core::{
    DashConfig, Fragment, FragmentId, IndexDelta, IngestSource, RecordChange, SearchRequest,
    ShardedEngine,
};
use dash::relation::{Database, Value};
use dash::webapp::fooddb;

mod common {
    pub mod battery;
    pub mod gen;
    pub mod oracle;
    pub mod records;
    pub mod scenarios;
}
use common::gen::{fragment_strategy, materialize, GenFragment, EQ_KEYS, VOCAB};
use common::oracle::Oracle;
use common::records::{comment, restaurant};
use common::scenarios::{
    apply_record, assert_equivalent, budget_move, interleaved_inserts_and_deletes, rebuild,
    repeated_reinsertion,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn crawl_engine(db: &Database, shards: usize) -> ShardedEngine {
    ShardedEngine::builder(fooddb::search_application().unwrap())
        .shards(shards)
        .source(IngestSource::Crawl {
            db,
            config: &DashConfig::default(),
        })
        .build()
        .unwrap()
}

#[test]
fn golden_interleaved_mutations_match_rebuild_for_all_shard_counts() {
    for shards in SHARD_COUNTS {
        let mut db = fooddb::database();
        interleaved_inserts_and_deletes(&mut crawl_engine(&db, shards), &mut db);
    }
}

#[test]
fn golden_budget_move_and_churn_match_rebuild() {
    for shards in SHARD_COUNTS {
        let mut db = fooddb::database();
        let mut engine = crawl_engine(&db, shards);
        budget_move(&mut engine, &mut db);
        repeated_reinsertion(&mut engine, &mut db);
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
        let mut engine = crawl_engine(&db, shards);
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
            &rebuild(&db),
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
    let mut engine = crawl_engine(&db, 4);

    let r = restaurant(150, "Quesadilla Queen", "Mexican", 14);
    db.table_mut("restaurant")
        .unwrap()
        .insert(r.clone())
        .unwrap();
    apply_record(&mut engine, &db, "restaurant", &r);

    let mut image = Vec::new();
    engine.write_image(&mut image).unwrap();
    let mut reloaded = ShardedEngine::builder(fooddb::search_application().unwrap())
        .source(IngestSource::Image(&image))
        .build()
        .unwrap();
    assert_eq!(reloaded.shard_sizes(), engine.shard_sizes());

    let r2 = restaurant(151, "Churro Chapel", "Mexican", 16);
    db.table_mut("restaurant")
        .unwrap()
        .insert(r2.clone())
        .unwrap();
    apply_record(&mut engine, &db, "restaurant", &r2);
    apply_record(&mut reloaded, &db, "restaurant", &r2);

    let rebuilt = rebuild(&db);
    assert_equivalent(&engine, &rebuilt, "original after roundtrip-era mutations");
    assert_equivalent(&reloaded, &rebuilt, "reloaded after mutations");
}

// ---------------------------------------------------------------------
// Property tests: random datasets, random delta sequences.
// ---------------------------------------------------------------------

/// One maintenance operation against the engines and the ground truth.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace) a fragment.
    Upsert(GenFragment),
    /// Remove the fragment with this (eq, range) coordinate, if live.
    Remove(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The stand-in's `prop_oneof!` is uniform; repeating the upsert arm
    // biases the mix toward insert/replace ops.
    prop_oneof![
        fragment_strategy(0..12, 1..4).prop_map(Op::Upsert),
        fragment_strategy(0..12, 1..4).prop_map(Op::Upsert),
        fragment_strategy(0..12, 1..4).prop_map(Op::Upsert),
        (0..EQ_KEYS.len(), 0i64..12).prop_map(|(eq, range)| Op::Remove(eq, range)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// The tier's core contract: random initial data, a random delta
    /// sequence applied incrementally at every shard count, searches
    /// byte-identical to the reference built over the final set.
    #[test]
    fn update_then_search_matches_rebuild_then_search(
        rows in prop::collection::vec(fragment_strategy(0..12, 1..4), 1..30),
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
        let keywords: Vec<&str> = query.iter().map(|&w| VOCAB[w]).collect();
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let expected = Oracle::new(&app, &truth).search(&request);
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
        rows in prop::collection::vec(fragment_strategy(0..12, 1..4), 1..30),
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
        rows in prop::collection::vec(fragment_strategy(0..12, 1..4), 5..25),
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
            // Search immediately after every delta, against the
            // reference over the current truth.
            prop_assert_eq!(
                engine.search(&request),
                Oracle::new(&app, &truth).search(&request),
                "shards={} after {} fragments",
                shards,
                truth.len()
            );
        }
    }

    /// Every equality group's stored vocabulary is exactly the set of
    /// keywords its live fragments hold, after each delta of a random
    /// sequence — deltas that create and empty groups, bring words the
    /// engine has never seen, repeat an add (last wins) and remove and
    /// re-insert one key in one delta — at widths {1, 2, 4}, and again
    /// in a fork and in an image-loaded engine, each taking one more
    /// delta.
    #[test]
    fn group_vocabularies_equal_their_rederivation_after_every_delta(
        rows in prop::collection::vec(fragment_strategy(0..12, 0..4), 0..24),
        deltas in prop::collection::vec(vocabulary_delta_strategy(), 1..10),
    ) {
        let app = fooddb::search_application().unwrap();
        // The last two keys start empty, so deltas create groups.
        let initial: Vec<Fragment> = materialize(&rows)
            .into_iter()
            .filter(|f| EQ_KEYS[..4].iter().any(|&key| f.id.values()[0] == Value::str(key)))
            .collect();
        for shards in [1, 2, 4] {
            let mut engine = ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&initial))
                .build()
                .unwrap();
            assert_vocabularies_rederive(&engine, &format!("shards={shards} built"));
            for (step, delta) in deltas.iter().enumerate() {
                engine.apply_delta(delta.clone());
                assert_vocabularies_rederive(&engine, &format!("shards={shards} step {step}"));
            }
            let mut fork = engine.fork();
            let mut image = Vec::new();
            engine.write_image(&mut image).unwrap();
            let mut loaded = ShardedEngine::builder(app.clone())
                .source(IngestSource::Image(&image))
                .build()
                .unwrap();
            assert_vocabularies_rederive(&loaded, &format!("shards={shards} loaded"));
            for (label, other) in [("fork", &mut fork), ("loaded", &mut loaded)] {
                other.apply_delta(deltas[0].clone());
                assert_vocabularies_rederive(other, &format!("shards={shards} {label}"));
            }
        }
    }
}

/// One delta of the vocabulary property: removes of arbitrary keys,
/// adds that may carry a word outside [`VOCAB`] (so new to the engine),
/// and a shape — plain, the first add repeated with other counts (last
/// wins), or the first add's key also removed (delete + re-insert).
fn vocabulary_delta_strategy() -> impl Strategy<Value = IndexDelta> {
    (
        prop::collection::vec((0..EQ_KEYS.len(), 0i64..12), 0..3),
        prop::collection::vec(
            (fragment_strategy(0..12, 0..4), prop::option::of(0u32..3)),
            0..4,
        ),
        0usize..3,
    )
        .prop_map(|(removes, adds, shape)| {
            let mut removes: Vec<FragmentId> = removes
                .into_iter()
                .map(|(eq, range)| {
                    FragmentId::new(vec![Value::str(EQ_KEYS[eq]), Value::Int(range)])
                })
                .collect();
            let mut adds: Vec<Fragment> = adds
                .into_iter()
                .map(|(row, novel)| {
                    let mut occurrences = row.materialize().keyword_occurrences;
                    if let Some(n) = novel {
                        occurrences.insert(format!("novel{n}"), 1);
                    }
                    Fragment::new(row.id(), occurrences, 1)
                })
                .collect();
            if let Some(first) = adds.first().cloned() {
                match shape {
                    1 => adds.push(Fragment::new(
                        first.id.clone(),
                        first
                            .keyword_occurrences
                            .keys()
                            .map(|w| (w.clone(), 2))
                            .collect(),
                        1,
                    )),
                    2 => removes.push(first.id),
                    _ => {}
                }
            }
            IndexDelta::new(removes, adds)
        })
}

/// Asserts that every group of every shard stores exactly the keywords
/// its live fragments hold, read back one fragment at a time.
fn assert_vocabularies_rederive(engine: &ShardedEngine, context: &str) {
    for (s, index) in engine.shard_indexes().enumerate() {
        for group in (0..index.catalog.key_count() as u32).map(GroupId) {
            let mut derived: Vec<Kw> = index
                .graph
                .group_nodes(group)
                .iter()
                .flat_map(|&frag| index.inverted.fragment_terms(frag))
                .map(|(word, _)| index.inverted.kw(word).expect("a held word has a list"))
                .collect();
            derived.sort_unstable();
            derived.dedup();
            assert_eq!(
                index.group_vocabulary(group),
                &derived[..],
                "{context}: shard {s}, {group:?}"
            );
        }
    }
}
