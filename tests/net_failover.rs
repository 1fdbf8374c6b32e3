//! The failover tier: cluster-grade fault coverage above the net
//! equivalence bar. Every scenario here breaks something on purpose —
//! torn frames, dropped frames, a killed primary — and requires the
//! cluster to (a) never expose a half-applied state, (b) repair
//! itself through the cheapest path available (delta-log catch-up
//! before re-snapshot), and (c) keep every served hit list
//! **byte-identical** to the seed's Algorithm 1
//! (`tests/common/oracle.rs`) over the same fragments once the dust
//! settles.
//!
//! The fault injection hooks live on the primary's replication hub
//! ([`ReplicationHub::faults`]): one-shot mid-frame kills (torn
//! SNAPSHOT / torn DELTA), silent delta drops (epoch gaps the replica
//! must detect), and per-frame delays (a stream slowed off the delta
//! log is cut). The control-plane operations —
//! [`Replica::promote`], [`Replica::retarget`],
//! [`Upstream::retarget`] — are what an operator (or the routing
//! tier's supervisor) runs on a real failover; the chaos test at the
//! bottom drives the whole sequence under concurrent load.
//!
//! [`ReplicationHub::faults`]: dash::net::ReplicationHub::faults
//! [`Replica::promote`]: dash::net::Replica::promote
//! [`Replica::retarget`]: dash::net::Replica::retarget
//! [`Upstream::retarget`]: dash::net::Upstream::retarget

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash::net::json::hits_to_json;
use dash::net::{Router, RouterConfig, UpdateBody};
use dash::prelude::*;
use dash::serve::DELTA_LOG;

mod common {
    pub mod battery;
    pub mod cluster;
    pub mod fooddb;
    pub mod oracle;
}
use common::battery::battery;
use common::cluster::{dump, primary};
use common::fooddb::{app, crawled_fragments};
use common::oracle::Oracle;

const SYNC_TIMEOUT: Duration = Duration::from_secs(20);

fn fragment(cuisine: &str, word: &str, n: u64) -> Fragment {
    Fragment::new(
        FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
        [(word.to_string(), n)].into_iter().collect(),
        1,
    )
}

/// Every served node must answer the battery, and the failover
/// scenarios' own `herring` and `larb` fragments, byte-identically to
/// the reference over `truth_fragments`.
fn assert_exact(
    truth_fragments: &[Fragment],
    serve: impl Fn(&SearchRequest) -> Vec<SearchHit>,
    context: &str,
) {
    let mut requests = battery();
    for kw in ["herring", "larb"] {
        requests.push(SearchRequest::new(&[kw]).k(6).min_size(1));
    }
    let served: Vec<_> = requests.iter().map(&serve).collect();
    Oracle::new(&app(), truth_fragments).assert_answers(&requests, &served, context);
}

// ---------------------------------------------------------------------
// Delta-log catch-up
// ---------------------------------------------------------------------

#[test]
fn reconnect_within_the_delta_log_window_tails_instead_of_resnapshotting() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));
    assert_eq!(replica.bootstraps(), 1);

    // Cut the stream, then publish a burst the replica misses.
    hub.disconnect_all();
    assert!(replica.wait_connected(false, SYNC_TIMEOUT));
    assert_eq!(publish_waves(&server, 1, 5), 5);

    // The reconnect HELLO reports epoch 0, which is still inside the
    // delta log — all five missed deltas replay as a tail; no second
    // SNAPSHOT frame is ever shipped.
    assert!(replica.wait_epoch(5, SYNC_TIMEOUT));
    assert_eq!(replica.bootstraps(), 1, "no snapshot frame on reconnect");
    assert!(replica.catchups() >= 1, "the hub answered with RESUME");
    assert_eq!(replica.deltas_applied(), 5);
    assert_eq!(lagging_cuts(&server), 0, "a disconnect is not a cut");
    assert_exact(&dump(&server), |r| replica.search(r), "after tail catch-up");
}

/// Publishes `count` one-fragment deltas into `Wave*` groups, the
/// first numbered `from`; returns the last epoch.
fn publish_waves(server: &DashServer, from: u64, count: u64) -> u64 {
    let mut epoch = server.epoch();
    for round in from..from + count {
        let delta = IndexDelta::adding(vec![fragment(&format!("Wave{round}"), "herring", round)]);
        epoch = server.publish_with_epoch(delta).1;
    }
    epoch
}

/// The primary's count of replica streams it cut for lagging off the
/// delta log.
fn lagging_cuts(server: &DashServer) -> u64 {
    server
        .registry()
        .counter("dash_repl_lagging_streams_cut_total")
        .get()
}

#[test]
fn falling_off_the_log_tail_forces_a_full_rebootstrap() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));

    // Park the replica on a listener no hub answers yet: its reconnect
    // HELLO (epoch 0) waits there through an outage one publication
    // longer than the log.
    let parked = TcpListener::bind("127.0.0.1:0").unwrap();
    replica.retarget(parked.local_addr().unwrap());
    assert!(replica.wait_connected(false, SYNC_TIMEOUT));
    let last = publish_waves(&server, 1, DELTA_LOG as u64 + 1);
    let _hub = ReplicationHub::start(Arc::clone(&server), parked).unwrap();

    // Epoch 0 fell off the log (it holds 2..=65 now): the hub must
    // answer with a fresh snapshot, never a gapped tail.
    assert!(replica.wait_epoch(last, SYNC_TIMEOUT));
    assert_eq!(replica.bootstraps(), 2, "off the log tail → re-snapshot");
    assert_eq!(replica.catchups(), 0);
    assert_exact(&dump(&server), |r| replica.search(r), "after re-bootstrap");
}

#[test]
fn a_stream_lagging_off_the_delta_log_is_cut_and_the_replica_resnapshots() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));

    // A second hub over the same primary on a slow link: each delta
    // frame waits `delay` before it is written. The first hub goes, and
    // its streamers with it, so the one stream that can lag is the
    // slow hub's.
    let slow = ReplicationHub::start(
        Arc::clone(&server),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let delay = Duration::from_secs(2);
    slow.faults()
        .delay_ms
        .store(delay.as_millis() as u64, Ordering::SeqCst);
    drop(hub);
    assert!(replica.wait_connected(false, SYNC_TIMEOUT));

    // One publication the replica missed: it resumes from epoch 0, and
    // the streamer takes the backlog — epoch 1 alone — and sleeps
    // before writing it. The replica has counted the RESUME by then,
    // so every later publication lands behind the sleeping streamer.
    publish_waves(&server, 1, 1);
    replica.retarget(slow.addr());
    let deadline = Instant::now() + SYNC_TIMEOUT;
    while replica.catchups() == 0 {
        assert!(Instant::now() < deadline, "the replica never resumed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let begin = Instant::now();
    let last = publish_waves(&server, 2, DELTA_LOG as u64 + 1);
    assert!(
        begin.elapsed() < delay,
        "the burst must land while the streamer sleeps"
    );
    slow.faults().delay_ms.store(0, Ordering::SeqCst);

    // The streamer wakes holding epoch 1 while the log starts at 3: it
    // cuts the stream, and the reconnect re-snapshots at the live
    // epoch.
    assert!(replica.wait_epoch(last, SYNC_TIMEOUT));
    assert_eq!(lagging_cuts(&server), 1);
    assert_eq!(replica.bootstraps(), 2, "cut off the log → re-snapshot");
    assert_eq!(replica.catchups(), 1);
    assert_exact(&dump(&server), |r| replica.search(r), "after the cut");
}

// ---------------------------------------------------------------------
// Torn transfers and dropped frames
// ---------------------------------------------------------------------

#[test]
fn torn_snapshot_frame_never_exposes_half_state() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    server.publish(IndexDelta::adding(vec![fragment("Nordic", "herring", 3)]));

    // The first bootstrap attempt dies halfway through the SNAPSHOT
    // frame; the framing layer rejects the torn payload before any
    // engine state is built, so the replica simply retries.
    hub.faults().kill_mid_snapshot.store(true, Ordering::SeqCst);
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_epoch(1, SYNC_TIMEOUT), "second attempt lands");
    assert_eq!(
        replica.bootstraps(),
        1,
        "the torn attempt never counted as a bootstrap"
    );
    assert_exact(&dump(&server), |r| replica.search(r), "after torn snapshot");
}

#[test]
fn torn_delta_frame_is_invisible_until_the_retry_replays_it() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    // Generous retry so the torn window is observable.
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig {
            retry: Duration::from_millis(1500),
            ..ReplicaConfig::default()
        },
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));
    let before = dump(&server);

    // The next delta tears mid-frame and kills the connection.
    hub.faults().kill_mid_delta.store(true, Ordering::SeqCst);
    server.publish(IndexDelta::adding(vec![fragment("Lao", "larb", 2)]));
    assert!(replica.wait_connected(false, SYNC_TIMEOUT));

    // Nothing of the torn publication is visible: the replica still
    // serves its epoch-0 bytes, not a half-applied delta.
    assert_eq!(replica.epoch(), 0);
    assert_exact(&before, |r| replica.search(r), "during the torn window");

    // The reconnect resumes from the delta log and replays epoch 1.
    assert!(replica.wait_epoch(1, SYNC_TIMEOUT));
    assert!(replica.catchups() >= 1);
    assert_eq!(replica.bootstraps(), 1);
    assert_exact(&dump(&server), |r| replica.search(r), "after the replay");
}

#[test]
fn dropped_delta_frames_are_detected_as_gaps_and_repaired() {
    let base = crawled_fragments();
    let (server, _net, hub) = primary(&base, ServeConfig::default().shards(2));
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));

    // The streamer silently swallows the next delta; the one after
    // arrives with an epoch gap (have 0, received 2). The replica must
    // kill the stream — applying epoch 2 without epoch 1 would diverge
    // the mirror — and repair through the reconnect.
    hub.faults().drop_deltas.store(1, Ordering::SeqCst);
    server.publish(IndexDelta::adding(vec![fragment("Lao", "larb", 2)]));
    server.publish(IndexDelta::adding(vec![fragment("Nordic", "herring", 3)]));

    assert!(replica.wait_epoch(2, SYNC_TIMEOUT));
    assert!(replica.catchups() >= 1, "gap repaired via the delta log");
    assert_eq!(replica.bootstraps(), 1);
    assert_exact(&dump(&server), |r| replica.search(r), "after gap repair");
}

// ---------------------------------------------------------------------
// Write forwarding
// ---------------------------------------------------------------------

#[test]
fn a_forwarding_replica_accepts_writes_and_reads_them_back() {
    let base = crawled_fragments();
    let (server, net, hub) = primary(&base, ServeConfig::default().shards(2));
    let replica = Arc::new(Replica::connect(
        hub.addr(),
        app(),
        ReplicaConfig::default(),
    ));
    assert!(replica.wait_ready(SYNC_TIMEOUT));
    let upstream = Arc::new(Upstream::new(net.addr(), BackoffConfig::default()));
    let replica_net = NetServer::serve_replica_forwarding(
        Arc::clone(&replica),
        upstream,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();

    // The write goes to the REPLICA's HTTP port; the ack carries the
    // PRIMARY's publication epoch.
    let mut client = NetClient::connect(replica_net.addr()).unwrap();
    let ack = client
        .publish(&IndexDelta::adding(vec![fragment("Lao", "larb", 2)]))
        .unwrap();
    assert_eq!(ack.epoch, 1, "the primary's epoch, not a local one");
    assert_eq!(server.epoch(), 1, "the primary applied it");

    // Read-your-writes on the same replica connection: the forwarding
    // path waited for the mirror to reach the acked epoch.
    assert!(replica.epoch() >= ack.epoch);
    let larb = SearchRequest::new(&["larb"]).k(3).min_size(1);
    assert_eq!(client.search(&larb).unwrap().len(), 1);
    assert_exact(
        &dump(&server),
        |r| {
            let mut c = NetClient::connect(replica_net.addr()).unwrap();
            c.search(r).unwrap()
        },
        "forwarded write visible on the replica",
    );

    // Record-change bodies forward identically (the primary owns the
    // database; the replica never needs one).
    let record = Record::new(vec![
        Value::Int(8),
        Value::str("Sushi Go"),
        Value::str("Japanese"),
        Value::Int(25),
        Value::str("4.9"),
    ]);
    let ack = client.insert("restaurant", record).unwrap();
    assert_eq!(ack.epoch, 2);
    assert!(replica.wait_epoch(2, SYNC_TIMEOUT));
    let sushi = SearchRequest::new(&["sushi"]).k(3).min_size(1);
    assert_eq!(client.search(&sushi).unwrap().len(), 1);
}

// ---------------------------------------------------------------------
// Routing front tier
// ---------------------------------------------------------------------

#[test]
fn router_spreads_reads_and_retries_past_a_dead_node() {
    let base = crawled_fragments();
    let (server, net, hub) = primary(&base, ServeConfig::default().shards(2));
    let mut replica_nets = Vec::new();
    let mut replicas = Vec::new();
    for _ in 0..2 {
        let replica = Arc::new(Replica::connect(
            hub.addr(),
            app(),
            ReplicaConfig::default(),
        ));
        assert!(replica.wait_ready(SYNC_TIMEOUT));
        replica_nets.push(
            NetServer::serve_replica(
                Arc::clone(&replica),
                TcpListener::bind("127.0.0.1:0").unwrap(),
                NetConfig::default(),
            )
            .unwrap(),
        );
        replicas.push(replica);
    }
    let addrs = vec![net.addr(), replica_nets[0].addr(), replica_nets[1].addr()];
    let router = Router::new(addrs, RouterConfig::default());
    assert!(router.wait_healthy(3, SYNC_TIMEOUT));
    assert_eq!(router.primary(), Some(net.addr()));

    // Reads round-robin over all three nodes — and every answer is the
    // same bytes (the equivalence tier's guarantee makes spreading
    // safe). Compare the raw wire JSON against the reference encoder.
    let truth = Oracle::new(&app(), &dump(&server));
    let burger = SearchRequest::new(&["burger"]).k(6).min_size(1);
    for _ in 0..6 {
        assert_eq!(
            router.search_json(&burger).unwrap(),
            hits_to_json(&truth.search(&burger))
        );
    }
    assert_eq!(router.reads(), 6);

    // Kill one replica's front-end: reads keep succeeding (the router
    // fails over to the next healthy node within the same call).
    drop(replica_nets.pop());
    for _ in 0..8 {
        assert_eq!(
            router.search_json(&burger).unwrap(),
            hits_to_json(&truth.search(&burger))
        );
    }
    assert!(router.wait_healthy(2, SYNC_TIMEOUT));
}

// ---------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------

#[test]
fn promotion_continues_the_epoch_sequence_and_reseeds_the_cluster() {
    let base = crawled_fragments();
    let (server, net, hub) = primary(&base, ServeConfig::default().shards(2));
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
    let a_net = NetServer::serve_replica(
        Arc::clone(&a),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    server.publish(IndexDelta::adding(vec![fragment("Nordic", "herring", 3)]));
    server.publish(IndexDelta::adding(vec![fragment("Lao", "larb", 2)]));
    assert!(a.wait_epoch(2, SYNC_TIMEOUT) && b.wait_epoch(2, SYNC_TIMEOUT));

    // Kill the primary outright: HTTP front-end, hub, serving stack.
    drop(net);
    drop(hub);
    drop(server);

    // Promote A. Its server continues the cluster epoch sequence — the
    // next publication is epoch 3, not 1 — and its own delta log
    // (filled by the mirrored publishes) can reseed the others.
    let promoted = a.promote().expect("a synced replica promotes");
    assert!(a.is_promoted());
    assert_eq!(promoted.epoch(), 2);
    let hub2 = ReplicationHub::start(
        Arc::clone(&promoted),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    b.retarget(hub2.addr());
    assert!(b.wait_connected(true, SYNC_TIMEOUT));
    assert!(b.catchups() >= 1, "B resumed from A's delta log");
    assert_eq!(
        b.bootstraps(),
        1,
        "no re-snapshot to follow the new primary"
    );

    // A's existing HTTP front-end now serves writes (role flipped).
    let mut client = NetClient::connect(a_net.addr()).unwrap();
    let stats = dash::net::json::parse(&client.stats_json().unwrap()).unwrap();
    assert_eq!(stats.get("role").and_then(|v| v.as_str()), Some("primary"));
    let ack = client
        .publish(&IndexDelta::adding(vec![fragment("Basque", "txakoli", 2)]))
        .unwrap();
    assert_eq!(ack.epoch, 3, "epoch numbering survives the failover");
    assert!(b.wait_epoch(3, SYNC_TIMEOUT), "B follows the new primary");

    // Exactness held across the promotion: both nodes serve the bytes
    // the reference over the promoted state produces.
    let truth_fragments = dump(&promoted);
    assert_exact(&truth_fragments, |r| promoted.search(r), "promoted node");
    assert_exact(
        &truth_fragments,
        |r| b.search(r),
        "replica following the promoted node",
    );
}

// ---------------------------------------------------------------------
// Chaos: kill the primary under mixed load
// ---------------------------------------------------------------------

#[test]
fn chaos_primary_kill_under_load_fails_over_without_losing_exactness() {
    let base = crawled_fragments();
    let (server, net, hub) = primary(&base, ServeConfig::default().shards(2));
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
    let a_net = NetServer::serve_replica(
        Arc::clone(&a),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    let b_net = NetServer::serve_replica(
        Arc::clone(&b),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    let router = Router::new(
        vec![net.addr(), a_net.addr(), b_net.addr()],
        RouterConfig {
            probe_interval: Duration::from_millis(25),
            backoff: BackoffConfig::default().deadline(Duration::from_secs(10)),
        },
    );
    assert!(router.wait_healthy(3, SYNC_TIMEOUT));

    let acked = AtomicU64::new(0);
    let read_errors = AtomicU64::new(0);
    let stop_readers = AtomicBool::new(false);
    const WRITE_ROUNDS: u64 = 24;

    // The scope returns hub2 so the promoted node keeps streaming to B
    // through the quiesce and exactness checks below.
    let _hub2 = std::thread::scope(|scope| {
        // Writer: publishes a delta history through the router,
        // retrying errored sends. A `Publish` of the same delta is
        // idempotent on the engine state, so retrying a maybe-applied
        // write is safe here — the caller knows, the router does not.
        let router_ref = &router;
        let acked_ref = &acked;
        scope.spawn(move || {
            for round in 1..=WRITE_ROUNDS {
                let delta = IndexDelta::adding(vec![fragment("Churn", "burger", 1 + round % 5)]);
                let deadline = Instant::now() + SYNC_TIMEOUT;
                loop {
                    match router_ref.update(&UpdateBody::Publish(delta.clone())) {
                        Ok(_) => {
                            acked_ref.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                        Err(e) => {
                            assert!(Instant::now() < deadline, "write {round} never landed: {e}");
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // Readers: hammer the router throughout the failover. Every
        // read must succeed — a dead node is retried on the next
        // healthy one within the same call.
        for _ in 0..2 {
            let router_ref = &router;
            let stop = &stop_readers;
            let read_errors = &read_errors;
            scope.spawn(move || {
                let request = SearchRequest::new(&["burger"]).k(6).min_size(1);
                while !stop.load(Ordering::Relaxed) {
                    if router_ref.search(&request).is_err() {
                        read_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // Control plane: once some writes have landed, kill the
        // primary and run the failover sequence.
        while acked.load(Ordering::SeqCst) < 5 {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(net);
        drop(hub);
        drop(server);
        let promoted = a.promote().expect("A has state to promote");
        let hub2 = ReplicationHub::start(
            Arc::clone(&promoted),
            TcpListener::bind("127.0.0.1:0").unwrap(),
        )
        .unwrap();
        b.retarget(hub2.addr());

        // Wait for the writer to finish, then stop the readers.
        while acked.load(Ordering::SeqCst) < WRITE_ROUNDS {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop_readers.store(true, Ordering::Relaxed);
        hub2
    });

    assert_eq!(acked.load(Ordering::SeqCst), WRITE_ROUNDS);
    assert_eq!(
        read_errors.load(Ordering::Relaxed),
        0,
        "reads survived the failover via retry-on-next-healthy"
    );
    assert!(
        router.write_failovers() >= 1,
        "the writer had to re-discover the primary"
    );
    assert_eq!(
        router.wait_primary(SYNC_TIMEOUT),
        Some(a_net.addr()),
        "the promoted replica is the new write target"
    );

    // Quiesce: B follows the promoted primary to its final epoch.
    let promoted = a.server().expect("promoted server");
    assert!(b.wait_epoch(promoted.epoch(), SYNC_TIMEOUT));
    assert!(b.catchups() >= 1, "B resumed via the promoted node's log");

    // The exactness bar survived the chaos: router-served bytes are the
    // reference's bytes over the promoted node's final fragments.
    let truth_fragments = dump(&promoted);
    let truth = Oracle::new(&app(), &truth_fragments);
    for kw in ["burger", "coffee", "herring", "zzzmissing"] {
        let request = SearchRequest::new(&[kw]).k(6).min_size(1);
        assert_eq!(
            router.search_json(&request).unwrap(),
            hits_to_json(&truth.search(&request)),
            "post-chaos router bytes for {kw:?}"
        );
    }
    assert_exact(&truth_fragments, |r| b.search(r), "post-chaos replica B");
}
