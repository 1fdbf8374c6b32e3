//! The serve test tier: everything `dash-serve` adds on top of the
//! engines — snapshot swapping and result caching — must be
//! **invisible** in the results. A served hit list, whether it came
//! from the cache, from a search racing others, or from either side of
//! a snapshot swap, is byte-identical to the seed's Algorithm 1
//! (`tests/common/oracle.rs`) over the server's current fragment set,
//! at shard counts {1, 4}.
//!
//! The evidence:
//!
//! * golden serving — the fooddb running example behind a server:
//!   sequential, repeated (cache-hitting) and concurrent traffic
//!   against the reference;
//! * golden publications — fooddb mutation sequences published through
//!   the server (one-change and multi-change batches), with every
//!   request battery re-verified after every publication (a stale
//!   cached page would fail the comparison bit for bit);
//! * concurrent misses — eight threads on a cache-less server, so
//!   every request is its own engine search running beside others,
//!   with deltas published between rounds;
//! * property tests — random interleavings of search / delta-publish /
//!   search over random fragment sets (the `sharded_maintenance`
//!   delta-history generator), asserting a request cached before a
//!   publication is never served stale after it;
//! * both invalidation rules side by side — the caches kill an entry
//!   when one of its request keywords is in the published signature
//!   (the delta's added keywords plus the touched groups' pre-delta
//!   vocabulary). The rule that defines precision is the other way
//!   round: record the groups holding the request's keywords when the
//!   entry is inserted (`ShardedEngine::keyword_groups`) and kill on
//!   touched-group or added/removed-keyword overlap. Over random
//!   publish histories a model of the recorded-groups rule, the
//!   signature's own verdict and what the server actually dropped must
//!   name the same entries after every publication.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use dash::core::crawl::reference;
use dash::prelude::*;

mod common {
    pub mod battery;
    pub mod fooddb;
    pub mod gen;
    pub mod oracle;
    pub mod records;
}
use common::battery::battery;
use common::fooddb::{app, crawled_fragments};
use common::gen::{fragment_strategy, materialize, GenFragment, EQ_KEYS, VOCAB};
use common::oracle::Oracle;
use common::records::{comment, restaurant};

const SHARD_COUNTS: [usize; 2] = [1, 4];

fn server_over(fragments: &[Fragment], shards: usize) -> DashServer {
    DashServer::from_fragments(app(), fragments, ServeConfig::default().shards(shards)).unwrap()
}

/// Serves the battery every way the front-end can — one by one (twice:
/// the repeat answers from the cache) and from concurrent threads — and
/// requires byte-identity with the reference each time.
fn assert_served_equivalent(server: &DashServer, oracle: &Oracle, context: &str) {
    let requests = battery();
    for pass in ["miss", "cached"] {
        let served: Vec<_> = requests.iter().map(|r| server.search(r)).collect();
        oracle.assert_answers(&requests, &served, &format!("{context}: pass={pass}"));
    }
    std::thread::scope(|scope| {
        for t in 0..4 {
            let requests = &requests;
            scope.spawn(move || {
                let served: Vec<_> = requests.iter().map(|r| server.search(r)).collect();
                oracle.assert_answers(
                    requests,
                    &served,
                    &format!("{context}: concurrent client {t}"),
                );
            });
        }
    });
}

#[test]
fn served_results_match_fresh_engine_for_all_shard_counts() {
    let fragments = crawled_fragments();
    let oracle = Oracle::new(&app(), &fragments);
    for shards in SHARD_COUNTS {
        let server = server_over(&fragments, shards);
        assert_served_equivalent(&server, &oracle, &format!("shards={shards}"));
        let stats = server.stats();
        assert!(stats.cache.hits > 0, "repeat passes must hit the cache");
        assert!(stats.batches > 0, "misses reach the engine");
    }
}

#[test]
fn served_results_match_fresh_engine_at_env_shards() {
    // `ServeConfig::default()` reads DASH_SHARDS — this is the test
    // that makes the CI matrix legs (shards = 1 and 4) exercise the
    // serving stack at genuinely different widths, on top of the
    // explicit SHARD_COUNTS coverage above.
    let fragments = crawled_fragments();
    let server = DashServer::from_fragments(app(), &fragments, ServeConfig::default()).unwrap();
    let width = server.snapshot().engine.shard_count();
    assert_eq!(width, dash::core::env_shards().unwrap_or(1));
    let oracle = Oracle::new(&app(), &fragments);
    assert_served_equivalent(&server, &oracle, &format!("env shards={width}"));
}

#[test]
fn serving_stays_exact_across_delta_publications() {
    // The golden mutation scenario, published through the server: grow
    // a new cuisine record by record, grow one fragment's content,
    // then delete the chain's middle — with the full battery
    // (cache-warming double pass included) re-verified after every
    // single publication, at every shard count.
    for shards in SHARD_COUNTS {
        let mut db = dash::webapp::fooddb::database();
        let app = app();
        let server = DashServer::build(
            &app,
            &db,
            &DashConfig::default(),
            ServeConfig::default().shards(shards),
        )
        .unwrap();
        let context = |step: &str| format!("shards={shards}: {step}");

        let mut epoch = 0;
        for (i, budget) in (5..8).enumerate() {
            let r = restaurant(100 + i as i64, "Taco Tower", "Mexican", budget);
            db.table_mut("restaurant")
                .unwrap()
                .insert(r.clone())
                .unwrap();
            server
                .apply_changes(&db, &[RecordChange::new("restaurant", r)])
                .unwrap();
            epoch += 1;
            assert_eq!(server.epoch(), epoch);
            let oracle = Oracle::new(&app, &reference::fragments(&app, &db).unwrap());
            assert_served_equivalent(&server, &oracle, &context("after taco insert"));
        }

        let comment = comment(301, 101, 132, "Great taco pho fusion");
        db.table_mut("comment")
            .unwrap()
            .insert(comment.clone())
            .unwrap();
        server
            .apply_changes(&db, &[RecordChange::new("comment", comment.clone())])
            .unwrap();
        let oracle = Oracle::new(&app, &reference::fragments(&app, &db).unwrap());
        assert_served_equivalent(&server, &oracle, &context("after comment insert"));

        db.table_mut("comment")
            .unwrap()
            .delete_where(|r| r.get(1) == Some(&Value::Int(101)));
        let victim = db
            .table("restaurant")
            .unwrap()
            .iter()
            .find(|r| r.get(0) == Some(&Value::Int(101)))
            .cloned()
            .unwrap();
        db.table_mut("restaurant")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::Int(101)));
        server
            .apply_changes(
                &db,
                &[
                    RecordChange::new("comment", comment),
                    RecordChange::new("restaurant", victim),
                ],
            )
            .unwrap();
        let oracle = Oracle::new(&app, &reference::fragments(&app, &db).unwrap());
        assert_served_equivalent(&server, &oracle, &context("after bulk delete"));
    }
}

#[test]
fn concurrent_misses_stay_exact_across_publications() {
    // `assert_served_equivalent`'s concurrent pass runs on a warm
    // cache, so its threads rarely search the engine at once. With the
    // cache off, every request is a miss: eight threads, each walking
    // the battery from a different starting point, search the live
    // snapshot side by side — each miss its own engine call on its
    // caller's thread — and a delta is published between rounds.
    let fragments = crawled_fragments();
    let requests = battery();
    let nordic = |range: i64| {
        Fragment::new(
            FragmentId::new(vec![Value::str("Nordic"), Value::Int(range)]),
            [("burger".to_string(), 2 + range as u64)]
                .into_iter()
                .collect(),
            1,
        )
    };
    let deltas = [
        IndexDelta::adding(vec![nordic(1), nordic(2)]),
        IndexDelta::removing(vec![FragmentId::new(vec![
            Value::str("Thai"),
            Value::Int(10),
        ])]),
    ];
    for shards in SHARD_COUNTS {
        let server = DashServer::from_fragments(
            app(),
            &fragments,
            ServeConfig::default().shards(shards).cache_capacity(0),
        )
        .unwrap();
        let mut truth = fragments.clone();
        let mut issued = 0u64;
        for round in 0..=deltas.len() {
            let oracle = Oracle::new(&app(), &truth);
            std::thread::scope(|scope| {
                for t in 0..8 {
                    let (server, requests, oracle) = (&server, &requests, &oracle);
                    scope.spawn(move || {
                        let mut served = vec![Vec::new(); requests.len()];
                        for i in 0..requests.len() {
                            let at = (i + t * 3) % requests.len();
                            served[at] = server.search(&requests[at]);
                        }
                        oracle.assert_answers(
                            requests,
                            &served,
                            &format!("shards={shards} round={round} thread={t}"),
                        );
                    });
                }
            });
            issued += 8 * requests.len() as u64;
            if let Some(delta) = deltas.get(round) {
                truth.retain(|f| !delta.removes.contains(&f.id));
                truth.extend(delta.adds.iter().cloned());
                server.publish(delta.clone());
            }
        }
        let stats = server.stats();
        assert_eq!(stats.cache.hits, 0, "shards={shards}");
        assert_eq!(stats.batches, issued, "shards={shards}");
        assert_eq!(stats.batched_requests, issued, "shards={shards}");
    }
}

#[test]
fn precise_invalidation_spares_unrelated_entries() {
    // The caching contract has two halves: correctness (no stale
    // pages — everywhere else in this tier) and precision (a delta
    // must NOT wipe entries it provably cannot affect).
    let fragments = crawled_fragments();
    let server = server_over(&fragments, 2);
    let thai = SearchRequest::new(&["thai"]).k(3).min_size(5);
    let coffee = SearchRequest::new(&["coffee"]).k(3).min_size(1);
    server.search(&thai);
    server.search(&coffee);
    let cached = server.cached_results();
    assert_eq!(cached, 2);
    // A brand-new group with brand-new keywords: disjoint from both
    // entries on both signature axes.
    server.publish(IndexDelta::adding(vec![Fragment::new(
        FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
        [("herring".to_string(), 2u64)].into_iter().collect(),
        1,
    )]));
    assert_eq!(
        server.cached_results(),
        cached,
        "a disjoint delta must not invalidate unrelated entries"
    );
    assert_eq!(server.stats().cache.invalidated, 0);
    // Touching the Thai group invalidates the thai entry, not coffee.
    server.publish(IndexDelta::removing(vec![FragmentId::new(vec![
        Value::str("Thai"),
        Value::Int(10),
    ])]));
    assert_eq!(server.stats().cache.invalidated, 1);
    // And the served results are still exact on both.
    let mut truth: Vec<Fragment> = fragments
        .iter()
        .filter(|f| f.id.to_string() != "(Thai,10)")
        .cloned()
        .collect();
    truth.push(Fragment::new(
        FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
        [("herring".to_string(), 2u64)].into_iter().collect(),
        1,
    ));
    let oracle = Oracle::new(&app(), &truth);
    for request in [&thai, &coffee] {
        assert_eq!(server.search(request), oracle.search(request));
    }
}

#[test]
fn both_sides_stay_in_lockstep_with_an_independently_maintained_engine() {
    // A publish prepares its delta once, on the shadow, and applies that
    // one preparation to the shadow and, after the drain, to the
    // retired side. The live side alternates between the two engines,
    // so comparing the live image after every publish with an engine
    // maintained on its own by `apply_delta` checks the prepared
    // replay on each side in turn.
    let fragments = crawled_fragments();
    let app = app();
    let id =
        |cuisine: &str, budget: i64| FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]);
    let recount = |fragment: &Fragment, extra: &[(&str, u64)]| {
        let mut occurrences = fragment.keyword_occurrences.clone();
        for count in occurrences.values_mut() {
            *count += 1;
        }
        occurrences.extend(extra.iter().map(|&(word, n)| (word.to_string(), n)));
        Fragment::new(fragment.id.clone(), occurrences, fragment.record_count)
    };
    let (first, second, third) = (
        &fragments[0],
        &fragments[1],
        &fragments[fragments.len() - 1],
    );
    let publishes = [
        (
            "upserts",
            IndexDelta::adding(vec![recount(first, &[]), recount(third, &[])]),
        ),
        ("removal", IndexDelta::removing(vec![second.id.clone()])),
        (
            "new group",
            IndexDelta::adding(vec![Fragment::new(
                id("Nordic", 7),
                [("herring".to_string(), 2u64)].into_iter().collect(),
                1,
            )]),
        ),
        (
            "new keyword",
            IndexDelta::adding(vec![recount(third, &[("zanzibar", 3)])]),
        ),
        (
            "removal before re-add",
            IndexDelta::removing(vec![first.id.clone()]),
        ),
        ("re-add", IndexDelta::adding(vec![first.clone()])),
        (
            "remove and re-add in one",
            IndexDelta::new(vec![third.id.clone()], vec![recount(third, &[])]),
        ),
    ];
    let image = |engine: &ShardedEngine| {
        let mut bytes = Vec::new();
        engine.write_image(&mut bytes).unwrap();
        bytes
    };
    for shards in [1, 4, dash::core::env_shards().unwrap_or(1)] {
        let server = server_over(&fragments, shards);
        let mut independent = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        assert!(image(&server.snapshot().engine) == image(&independent));
        for (n, (step, delta)) in publishes.iter().enumerate() {
            let served = server.publish(delta.clone());
            assert_eq!(
                served,
                independent.apply_delta(delta.clone()),
                "shards={shards}: {step}"
            );
            assert!(
                image(&server.snapshot().engine) == image(&independent),
                "shards={shards}: {step}: the live side differs"
            );
            // Every publish replayed on the retired side: none fell back
            // to forking the live one.
            let replays = server.registry().histogram("dash_serve_publish_replay_ns");
            assert_eq!(replays.count(), n as u64 + 1, "shards={shards}: {step}");
        }
        let hits = server.search(&SearchRequest::new(&["herring"]).k(3).min_size(1));
        assert_eq!(hits.len(), 1, "shards={shards}");
    }
}

// ---------------------------------------------------------------------
// Property tests: random interleavings of search / publish / search.
// ---------------------------------------------------------------------

/// One step of an interleaving: a search (cache-warming, repeated) or
/// a delta publication.
#[derive(Debug, Clone)]
enum Step {
    /// Search these VOCAB indices with (k, s) — issued twice, so the
    /// second answer exercises the cache and a later publication has a
    /// warm entry to invalidate (or precisely spare).
    Search(Vec<usize>, usize, u64),
    /// Publish an upsert of this fragment.
    Upsert(GenFragment),
    /// Publish a removal of this (eq, range) coordinate.
    Remove(usize, i64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            prop::collection::vec(0usize..VOCAB.len(), 1..3),
            1usize..8,
            prop::sample::select(vec![1u64, 3, 10, 50]),
        )
            .prop_map(|(q, k, s)| Step::Search(q, k, s)),
        (
            prop::collection::vec(0usize..VOCAB.len(), 1..3),
            1usize..8,
            prop::sample::select(vec![1u64, 3, 10, 50]),
        )
            .prop_map(|(q, k, s)| Step::Search(q, k, s)),
        fragment_strategy(0..12, 1..4).prop_map(Step::Upsert),
        (0..EQ_KEYS.len(), 0i64..12).prop_map(|(eq, range)| Step::Remove(eq, range)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tier's core contract, interleaved: searches before and
    /// after every publication are byte-identical to the reference
    /// over the then-current truth — so a page cached before a delta
    /// is never served stale after it, and precise invalidation never
    /// over-trusts a surviving entry.
    #[test]
    fn interleaved_search_publish_search_never_serves_stale(
        rows in prop::collection::vec(fragment_strategy(0..12, 1..4), 1..25),
        steps in prop::collection::vec(step_strategy(), 1..15),
        shards in prop::sample::select(vec![1usize, 4]),
    ) {
        let initial = materialize(&rows);
        let mut truth: Vec<Fragment> = initial.clone();
        let server = DashServer::from_fragments(
            app(),
            &initial,
            ServeConfig::default().shards(shards),
        )
        .unwrap();
        for step in &steps {
            match step {
                Step::Search(query, k, s) => {
                    let keywords: Vec<&str> = query.iter().map(|&w| VOCAB[w]).collect();
                    let request = SearchRequest::new(&keywords).k(*k).min_size(*s);
                    let expected = Oracle::new(&app(), &truth).search(&request);
                    // Twice: miss (or earlier-cached) and guaranteed-cached.
                    prop_assert_eq!(
                        server.search(&request),
                        expected.clone(),
                        "shards={} truth={} first pass {:?}",
                        shards, truth.len(), &keywords
                    );
                    prop_assert_eq!(
                        server.search(&request),
                        expected,
                        "shards={} truth={} cached pass {:?}",
                        shards, truth.len(), &keywords
                    );
                }
                Step::Upsert(row) => {
                    let fragment = row.materialize();
                    truth.retain(|f| f.id != fragment.id);
                    truth.push(fragment.clone());
                    server.publish(IndexDelta::new(vec![row.id()], vec![fragment]));
                }
                Step::Remove(eq, range) => {
                    let id = FragmentId::new(vec![Value::str(EQ_KEYS[*eq]), Value::Int(*range)]);
                    truth.retain(|f| f.id != id);
                    server.publish(IndexDelta::removing(vec![id]));
                }
            }
        }
        // Final sweep: every vocabulary word, against the final truth.
        let oracle = Oracle::new(&app(), &truth);
        for word in VOCAB {
            let request = SearchRequest::new(&[word]).k(5).min_size(3);
            prop_assert_eq!(
                server.search(&request),
                oracle.search(&request),
                "final sweep shards={} word={}",
                shards, word
            );
        }
    }
}

/// A multi-fragment delta: removes of arbitrary coordinates (live or
/// not) and adds that upsert live fragments with a different keyword
/// set, grow a group, or open a brand-new one.
fn delta_strategy() -> impl Strategy<Value = (Vec<(usize, i64)>, Vec<GenFragment>)> {
    (
        prop::collection::vec((0..EQ_KEYS.len(), 0i64..12), 0..3),
        prop::collection::vec(fragment_strategy(0..12, 1..4), 0..4),
    )
}

/// The recorded-groups rule's verdict on one entry: the delta touches
/// a group that held a request keyword when the entry was inserted, or
/// adds or removes a posting of a request keyword.
fn recorded_groups_rule_kills(
    touched: &BTreeSet<Vec<Value>>,
    shifted: &BTreeSet<String>,
    request: &SearchRequest,
    groups_at_insert: &BTreeSet<Vec<Value>>,
) -> bool {
    touched.iter().any(|g| groups_at_insert.contains(g))
        || request.keywords.iter().any(|k| shifted.contains(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn keyword_signature_kills_exactly_what_recorded_groups_would(
        rows in prop::collection::vec(fragment_strategy(0..12, 1..4), 1..25),
        queries in prop::collection::vec(
            (prop::collection::vec(0usize..VOCAB.len(), 1..3), 1usize..6),
            1..8,
        ),
        deltas in prop::collection::vec(delta_strategy(), 1..10),
        shards in prop::sample::select(vec![1usize, 4]),
    ) {
        // The initial corpus leaves the last two equality keys out, so
        // some deltas add into groups that do not exist yet.
        let rows: Vec<GenFragment> = rows
            .into_iter()
            .map(|row| GenFragment { eq: row.eq % (EQ_KEYS.len() - 2), ..row })
            .collect();
        let mut truth: BTreeMap<FragmentId, Fragment> = materialize(&rows)
            .into_iter()
            .map(|f| (f.id.clone(), f))
            .collect();
        let initial: Vec<Fragment> = truth.values().cloned().collect();
        let server = DashServer::from_fragments(
            app(),
            &initial,
            ServeConfig::default().shards(shards),
        )
        .unwrap();
        let mut requests: Vec<SearchRequest> = Vec::new();
        for (query, k) in &queries {
            let keywords: Vec<&str> = query.iter().map(|&w| VOCAB[w]).collect();
            let request = SearchRequest::new(&keywords).k(*k).min_size(3);
            if !requests.contains(&request) {
                requests.push(request);
            }
        }
        // Cache every request; the model records, per entry, the groups
        // holding its keywords at insert time.
        let mut recorded: Vec<BTreeSet<Vec<Value>>> = Vec::new();
        for request in &requests {
            server.search(request);
            recorded.push(server.snapshot().engine.keyword_groups(&request.keywords));
        }
        prop_assert_eq!(server.cached_results(), requests.len());

        for (removes, adds) in &deltas {
            let delta = IndexDelta::new(
                removes
                    .iter()
                    .map(|&(eq, range)| {
                        FragmentId::new(vec![Value::str(EQ_KEYS[eq]), Value::Int(range)])
                    })
                    .collect(),
                adds.iter().map(GenFragment::materialize).collect(),
            );
            if delta.is_empty() {
                continue;
            }
            // The recorded-groups rule's signature: touched groups,
            // added keywords, and the removed fragments' live terms.
            let touched = delta.touched_groups(Some(1));
            let mut shifted: BTreeSet<String> = delta
                .adds
                .iter()
                .flat_map(|f| f.keyword_occurrences.keys().cloned())
                .collect();
            for id in &delta.removes {
                if let Some(fragment) = truth.get(id) {
                    shifted.extend(fragment.keyword_occurrences.keys().cloned());
                }
            }
            // The keyword rule's signature, against the pre-delta
            // engine (the snapshot is let go before publishing).
            let signature = server.snapshot().engine.delta_signature(&delta);
            let killed: Vec<bool> = requests
                .iter()
                .zip(&recorded)
                .map(|(request, groups)| {
                    recorded_groups_rule_kills(&touched, &shifted, request, groups)
                })
                .collect();
            for (request, &dies) in requests.iter().zip(&killed) {
                prop_assert_eq!(
                    signature.hits(&request.keywords),
                    dies,
                    "shards={} {:?} under {:?}",
                    shards, &request.keywords, &delta
                );
            }

            let before = server.stats().cache;
            server.publish(delta.clone());
            for id in &delta.removes {
                truth.remove(id);
            }
            for fragment in &delta.adds {
                truth.insert(fragment.id.clone(), fragment.clone());
            }
            // The server dropped that many entries...
            let dropped = killed.iter().filter(|&&dies| dies).count();
            prop_assert_eq!(
                server.stats().cache.invalidated - before.invalidated,
                dropped as u64
            );
            prop_assert_eq!(server.cached_results(), requests.len() - dropped);
            // ...and exactly those: a survivor answers from the cache
            // (keeping its insert-time record), a killed one misses
            // and is cached — and recorded — afresh.
            for ((request, record), dies) in requests.iter().zip(&mut recorded).zip(killed) {
                let hits = server.stats().cache.hits;
                server.search(request);
                prop_assert_eq!(server.stats().cache.hits > hits, !dies);
                if dies {
                    *record = server.snapshot().engine.keyword_groups(&request.keywords);
                }
            }
        }
        // What survived all of it is still exact.
        let live: Vec<Fragment> = truth.values().cloned().collect();
        let oracle = Oracle::new(&app(), &live);
        for request in &requests {
            prop_assert_eq!(server.search(request), oracle.search(request));
        }
    }
}
