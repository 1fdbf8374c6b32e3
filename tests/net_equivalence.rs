//! The net test tier: the socket layer must be **invisible** in the
//! results. A hit list served over HTTP — parsed from the JSON body a
//! real TCP connection carried — is byte-identical to the seed's
//! Algorithm 1 (`tests/common/oracle.rs`) over the server's current
//! fragments, whether
//! it came from the primary or from a replica that joined the
//! replication stream mid-history, across cache hits, concurrent
//! clients and concurrent delta publications, at shard counts {1, 4}.
//!
//! Failure coverage: killing the primary-side replication sockets
//! leaves the replica serving its last published snapshot
//! (stale-but-consistent — the battery still matches the pre-kill
//! state bit for bit, never a half-applied delta), and the replica
//! catches up through the primary's delta log when it reconnects —
//! without a second snapshot, since its epoch is still on the log.
//! The deeper fault matrix (torn frames, dropped frames, promotion,
//! routing) lives in `tests/net_failover.rs`.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use dash::core::crawl::reference;
use dash::net::json::hits_from_json;
use dash::net::NetChange;
use dash::prelude::*;
use dash::webapp::fooddb;

mod common {
    pub mod battery;
    pub mod cluster;
    pub mod fooddb;
    pub mod json_oracle;
    pub mod oracle;
    pub mod twins;
}
use common::battery::battery;
use common::cluster::{dump, primary};
use common::fooddb::{app, crawled_fragments};
use common::json_oracle::oracle_hits_to_json;
use common::oracle::Oracle;
use common::twins::twins;

const SHARD_COUNTS: [usize; 2] = [1, 4];
const SYNC_TIMEOUT: Duration = Duration::from_secs(20);

/// Serves the battery through a socket twice (the repeat hits the
/// result cache) and requires byte-identity with the reference: each
/// response body is the frozen renderer's JSON of the oracle's hits,
/// and decodes to those hits.
fn assert_socket_equivalent(client: &mut NetClient, oracle: &Oracle, context: &str) {
    let requests = battery();
    for pass in ["miss", "cached"] {
        let bodies: Vec<_> = requests
            .iter()
            .map(|r| client.search_json(r).unwrap())
            .collect();
        for (request, body) in requests.iter().zip(&bodies) {
            assert_eq!(
                *body,
                oracle_hits_to_json(&oracle.search(request)),
                "{context}: pass={pass}: {request:?}"
            );
        }
        let served: Vec<_> = bodies
            .iter()
            .map(|body| hits_from_json(body).unwrap())
            .collect();
        oracle.assert_answers(&requests, &served, &format!("{context}: pass={pass}"));
    }
}

#[test]
fn http_served_results_match_fresh_engine_for_all_shard_counts() {
    let mut fragments = crawled_fragments();
    fragments.extend(twins());
    let oracle = Oracle::new(&app(), &fragments);
    for shards in SHARD_COUNTS {
        let (_server, net, _hub) = primary(&fragments, ServeConfig::default().shards(shards));
        let mut client = NetClient::connect(net.addr()).unwrap();
        assert_socket_equivalent(&mut client, &oracle, &format!("shards={shards}"));
    }
}

#[test]
fn concurrent_socket_clients_get_identical_answers() {
    let fragments = crawled_fragments();
    let oracle = Oracle::new(&app(), &fragments);
    let (_server, net, _hub) = primary(&fragments, ServeConfig::default().shards(4));
    let requests = battery();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (requests, oracle) = (&requests, &oracle);
            let addr = net.addr();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let served: Vec<_> = requests.iter().map(|r| client.search(r).unwrap()).collect();
                oracle.assert_answers(requests, &served, &format!("concurrent socket client {t}"));
            });
        }
    });
}

#[test]
fn http_updates_route_through_the_bulk_delta_path() {
    for shards in SHARD_COUNTS {
        let fragments = crawled_fragments();
        let (server, net, _hub) = primary(&fragments, ServeConfig::default().shards(shards));
        let mut client = NetClient::connect(net.addr()).unwrap();

        // Insert a new restaurant over the wire.
        let record = Record::new(vec![
            Value::Int(8),
            Value::str("Sushi Go"),
            Value::str("Japanese"),
            Value::Int(25),
            Value::str("4.9"),
        ]);
        let ack = client.insert("restaurant", record.clone()).unwrap();
        assert!(ack.added >= 1, "shards={shards}");
        assert_eq!(ack.epoch, 1);

        // The mutated database is the new ground truth.
        let mut db = fooddb::database();
        db.table_mut("restaurant")
            .unwrap()
            .insert(record.clone())
            .unwrap();
        let truth = Oracle::new(&app(), &reference::fragments(&app(), &db).unwrap());
        let sushi = SearchRequest::new(&["sushi"]).k(3).min_size(1);
        assert_eq!(client.search(&sushi).unwrap(), truth.search(&sushi));
        assert_socket_equivalent(&mut client, &truth, &format!("shards={shards} post-insert"));

        // Delete it again over the wire: back to the original truth.
        let ack = client.delete("restaurant", record).unwrap();
        assert!(ack.removed >= 1);
        assert_eq!(ack.epoch, 2);
        let truth = Oracle::new(&app(), &fragments);
        assert!(client.search(&sushi).unwrap().is_empty());
        assert_socket_equivalent(&mut client, &truth, &format!("shards={shards} post-delete"));
        assert_eq!(server.epoch(), 2);

        // A batch of changes is one publication (one bulk delta).
        let changes = vec![
            NetChange::Insert(RecordChange::new(
                "restaurant",
                Record::new(vec![
                    Value::Int(60),
                    Value::str("Bulk Bistro"),
                    Value::str("American"),
                    Value::Int(13),
                    Value::str("4.2"),
                ]),
            )),
            NetChange::Insert(RecordChange::new(
                "restaurant",
                Record::new(vec![
                    Value::Int(61),
                    Value::str("Batch Bar"),
                    Value::str("Korean"),
                    Value::Int(9),
                    Value::str("4.0"),
                ]),
            )),
        ];
        let ack = client.apply(changes).unwrap();
        assert_eq!(ack.epoch, 3, "a batch publishes once");
        assert!(ack.added >= 2);
    }
}

#[test]
fn failed_update_batches_leave_the_database_untouched() {
    // A batch that dies mid-way (unknown relation) must not leak its
    // earlier changes into the primary's database: nothing published
    // means the engine never saw them, and a half-applied db would
    // diverge from the engine forever.
    let fragments = crawled_fragments();
    let (server, net, _hub) = primary(&fragments, ServeConfig::default().shards(2));
    let mut client = NetClient::connect(net.addr()).unwrap();
    let good = Record::new(vec![
        Value::Int(90),
        Value::str("Ghost Grill"),
        Value::str("American"),
        Value::Int(12),
        Value::str("4.0"),
    ]);
    let result = client.apply(vec![
        NetChange::Insert(RecordChange::new("restaurant", good.clone())),
        NetChange::Insert(RecordChange::new("no_such_relation", good.clone())),
    ]);
    assert!(result.is_err(), "the batch must be rejected");
    assert_eq!(server.epoch(), 0, "nothing published");
    // The rejected batch's first record must not have leaked: a
    // subsequent valid insert of the same record still works and the
    // result matches a truth database holding it exactly once.
    let ack = client.insert("restaurant", good.clone()).unwrap();
    assert!(ack.added >= 1);
    let mut db = fooddb::database();
    db.table_mut("restaurant").unwrap().insert(good).unwrap();
    let truth = Oracle::new(&app(), &reference::fragments(&app(), &db).unwrap());
    let ghost = SearchRequest::new(&["ghost"]).k(3).min_size(1);
    assert_eq!(client.search(&ghost).unwrap(), truth.search(&ghost));
}

#[test]
fn dropping_one_replica_leaves_the_others_registered() {
    // Streamer cleanup must deregister exactly the dead connection
    // (accepted sockets all share the hub's local address; identity is
    // the peer address).
    let fragments = crawled_fragments();
    let (server, _net, hub) = primary(&fragments, ServeConfig::default().shards(1));
    let a = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    let b = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(a.wait_ready(SYNC_TIMEOUT) && b.wait_ready(SYNC_TIMEOUT));
    assert_eq!(hub.replica_count(), 2);
    drop(b);
    // The dead socket is noticed at the next streamed delta.
    server.publish(IndexDelta::adding(vec![Fragment::new(
        FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
        [("herring".to_string(), 2u64)].into_iter().collect(),
        1,
    )]));
    let deadline = std::time::Instant::now() + SYNC_TIMEOUT;
    while hub.replica_count() != 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(hub.replica_count(), 1, "only the dead peer deregisters");
    // The survivor still receives the stream.
    assert!(a.wait_epoch(1, SYNC_TIMEOUT));
}

#[test]
fn replica_bootstrapped_from_arena_image_alone_serves_identical_bytes() {
    // The SNAPSHOT frame ships an arena image
    // (`ShardedEngine::write_image`); the replica reconstructs its
    // engine with `IngestSource::Image`, no parse-and-rebuild. This test keeps
    // the delta stream silent after the join, so every served byte is
    // evidence about the image path alone: one bootstrap, zero applied
    // deltas, and the battery byte-identical to the reference over
    // the primary's current fragments.
    let base = crawled_fragments();
    for shards in SHARD_COUNTS {
        let (server, _net, hub) = primary(&base, ServeConfig::default().shards(shards));
        // Drift the primary BEFORE the replica exists, so the image
        // carries post-delta state a stale crawl could not fake.
        server.publish(IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
            [("herring".to_string(), 3u64)].into_iter().collect(),
            1,
        )]));

        let replica = Arc::new(Replica::connect(
            hub.addr(),
            app(),
            ReplicaConfig::default(),
        ));
        assert!(replica.wait_epoch(1, SYNC_TIMEOUT), "bootstrap reaches e1");
        assert_eq!(replica.bootstraps(), 1, "exactly one snapshot");
        assert_eq!(replica.deltas_applied(), 0, "image alone, no deltas");

        let replica_net = NetServer::serve_replica(
            Arc::clone(&replica),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            NetConfig::default(),
        )
        .unwrap();
        let mut replica_client = NetClient::connect(replica_net.addr()).unwrap();
        let truth = Oracle::new(&app(), &dump(&server));
        assert_socket_equivalent(
            &mut replica_client,
            &truth,
            &format!("arena-image bootstrap shards={shards}"),
        );
        let herring = SearchRequest::new(&["herring"]).k(2).min_size(1);
        assert_eq!(
            replica_client.search(&herring).unwrap(),
            truth.search(&herring),
            "shards={shards} post-delta state came through the image"
        );
    }
}

#[test]
fn replica_joining_mid_stream_serves_identical_bytes() {
    let base = crawled_fragments();
    for shards in SHARD_COUNTS {
        let (server, net, hub) = primary(&base, ServeConfig::default().shards(shards));
        let mut client = NetClient::connect(net.addr()).unwrap();

        let fragment = |cuisine: &str, word: &str, n: u64| {
            Fragment::new(
                FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
                [(word.to_string(), n)].into_iter().collect(),
                1,
            )
        };
        // Epoch 1 happens BEFORE the replica exists: it must arrive
        // via the bootstrap snapshot, not the delta stream.
        client
            .publish(&IndexDelta::adding(vec![fragment("Nordic", "herring", 3)]))
            .unwrap();

        let replica = Arc::new(Replica::connect(
            hub.addr(),
            app(),
            ReplicaConfig::default(),
        ));
        assert!(replica.wait_epoch(1, SYNC_TIMEOUT), "bootstrap reaches e1");
        let replica_net = NetServer::serve_replica(
            Arc::clone(&replica),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            NetConfig::default(),
        )
        .unwrap();
        let mut replica_client = NetClient::connect(replica_net.addr()).unwrap();

        // Epochs 2 and 3 arrive over the delta stream (one through
        // the socket update path, one published in-process).
        client
            .publish(&IndexDelta::adding(vec![fragment("Basque", "txakoli", 2)]))
            .unwrap();
        server.publish(IndexDelta::new(
            vec![FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)])],
            vec![fragment("Nordic", "herring", 9)],
        ));
        assert!(replica.wait_epoch(3, SYNC_TIMEOUT), "tail reaches e3");
        assert_eq!(replica.bootstraps(), 1, "joined once, no re-sync needed");
        assert_eq!(replica.deltas_applied(), 2);

        // Ground truth: the reference over the primary's current
        // fragments.
        let truth = Oracle::new(&app(), &dump(&server));
        let mut requests = battery();
        requests.push(SearchRequest::new(&["herring"]).k(2).min_size(1));
        requests.push(SearchRequest::new(&["txakoli"]).k(2).min_size(1));
        let from_primary: Vec<_> = requests.iter().map(|r| client.search(r).unwrap()).collect();
        let from_replica: Vec<_> = requests
            .iter()
            .map(|r| replica_client.search(r).unwrap())
            .collect();
        truth.assert_answers(
            &requests,
            &from_primary,
            &format!("shards={shards} primary"),
        );
        truth.assert_answers(
            &requests,
            &from_replica,
            &format!("shards={shards} replica"),
        );
        // Byte-identical on the wire, not just value-equal after
        // parsing: primary and replica emit the same JSON bytes.
        for request in &requests {
            assert_eq!(
                client.search_json(request).unwrap(),
                replica_client.search_json(request).unwrap(),
                "shards={shards} wire bytes {:?}",
                request.keywords
            );
        }
    }
}

#[test]
fn replica_survives_primary_socket_kill_and_resyncs_on_reconnect() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    let fragment = |cuisine: &str, word: &str| {
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
            [(word.to_string(), 2u64)].into_iter().collect(),
            1,
        )
    };
    server.publish(IndexDelta::adding(vec![fragment("Nordic", "herring")]));

    // Generous retry: after the kill there is a comfortable window in
    // which the replica is provably disconnected and must keep serving.
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig {
            retry: Duration::from_millis(1500),
            ..ReplicaConfig::default()
        },
    ));
    assert!(replica.wait_epoch(1, SYNC_TIMEOUT));
    let herring = SearchRequest::new(&["herring"]).k(2).min_size(1);
    let larb = SearchRequest::new(&["larb"]).k(2).min_size(1);
    let stale_expected = replica.search(&herring);
    assert_eq!(stale_expected.len(), 1);

    // Kill the primary-side sockets mid-stream.
    hub.disconnect_all();
    assert!(
        replica.wait_connected(false, SYNC_TIMEOUT),
        "replica must notice the dead stream"
    );
    // The primary publishes while the replica is cut off.
    server.publish(IndexDelta::adding(vec![fragment("Lao", "larb")]));
    assert_eq!(server.epoch(), 2);

    // Stale-but-consistent: the replica still serves its last
    // published snapshot — the pre-kill bytes, not a torn state, and
    // nothing of the missed publication.
    assert_eq!(replica.epoch(), 1);
    assert_eq!(replica.search(&herring), stale_expected);
    assert!(replica.search(&larb).is_empty(), "missed delta not applied");

    // Reconnect: the accept loop is still up, and the replica's epoch
    // (1) is still inside the primary's delta log, so the reconnect
    // HELLO is answered with a RESUME — the missed delta replays
    // without re-shipping a snapshot.
    assert!(replica.wait_epoch(2, SYNC_TIMEOUT), "re-sync reaches e2");
    assert_eq!(replica.bootstraps(), 1, "no second snapshot needed");
    assert!(replica.catchups() >= 1, "reconnect resumed from the log");
    let truth = Oracle::new(&app(), &dump(&server));
    for request in [&herring, &larb] {
        assert_eq!(replica.search(request), truth.search(request));
    }
}

#[test]
fn socket_searches_stay_exact_across_concurrent_publications() {
    // Searches hammer the socket while the primary publishes a delta
    // history; after the churn quiesces, the served state must be
    // byte-identical to the reference over the final fragments —
    // cached entries included (a stale survivor would differ).
    let base = crawled_fragments();
    let (server, net, _hub) = primary(&base, ServeConfig::default().shards(4));
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let stop = &stop;
        scope.spawn(move || {
            for round in 0..30u64 {
                let fragment = Fragment::new(
                    FragmentId::new(vec![Value::str("Churn"), Value::Int(7)]),
                    [("burger".to_string(), 1 + round % 5)]
                        .into_iter()
                        .collect(),
                    1,
                );
                server.publish(IndexDelta::new(vec![fragment.id.clone()], vec![fragment]));
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        for _ in 0..2 {
            let addr = net.addr();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let requests = battery();
                loop {
                    for request in &requests {
                        // Values are unverifiable mid-churn (the epoch
                        // races the assertion); decode success + the
                        // post-quiesce check below are the contract.
                        client.search(request).unwrap();
                    }
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
    });
    let truth = Oracle::new(&app(), &dump(&server));
    let mut client = NetClient::connect(net.addr()).unwrap();
    assert_socket_equivalent(&mut client, &truth, "post-churn");
}

#[test]
fn stats_report_the_serving_counters() {
    let fragments = crawled_fragments();
    let (_server, net, _hub) = primary(&fragments, ServeConfig::default().shards(1));
    let mut client = NetClient::connect(net.addr()).unwrap();
    let request = SearchRequest::new(&["burger"]).k(2).min_size(20);
    client.search(&request).unwrap();
    client.search(&request).unwrap(); // cache hit
    let stats = dash::net::json::parse(&client.stats_json().unwrap()).unwrap();
    assert_eq!(stats.get("role").and_then(|v| v.as_str()), Some("primary"));
    assert_eq!(stats.get("searches").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(stats.get("cache_hits").and_then(|v| v.as_u64()), Some(1));
    // One lookup missed: the rendered one. The miss is served without
    // a second, hit-list lookup.
    assert_eq!(stats.get("cache_misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("epoch").and_then(|v| v.as_u64()), Some(0));
    assert!(stats.get("qps").and_then(|v| v.as_f64()).unwrap() > 0.0);
}
