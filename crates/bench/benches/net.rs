//! The `net` suite: what the HTTP front-end and the replication tier
//! cost at their edges, over real sockets on loopback:
//!
//! | Row | Measures |
//! |---|---|
//! | `net/concurrency/conns-{100,1k,10k}` | one cache-hit `GET /search` round-trip while that many idle keep-alive connections are parked on the front-end (one row per herd, every request a sample) |
//! | `net/failover/snapshot-bootstrap` | a fresh replica joining from the SNAPSHOT frame |
//! | `net/failover/delta-catchup` | a briefly partitioned replica repairing from the delta log |
//! | `net/failover/promotion-gap` | primary killed → a promoted replica acks the next publication |
//!
//! The failover rows are single-shot timings. End-to-end latency and
//! throughput over HTTP under mixed search/update traffic are
//! `dashbench`'s job (`benchmark/`). CI's `net` job regenerates this
//! file and gates `conns-10k < 2 × conns-100`: what a request costs
//! must track active connections, not open ones.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dash_bench::{select_keywords, KeywordTemperature};
use dash_core::crawl::reference;
use dash_core::{Fragment, FragmentId, FragmentIndex, IndexDelta, SearchRequest};
use dash_net::{NetClient, NetConfig, NetServer};
use dash_net::{Replica, ReplicaConfig, ReplicationHub};
use dash_relation::Value;
use dash_serve::{DashServer, ServeConfig};
use dash_tpch::{generate, Scale, TpchConfig};

/// Re-entry point for the concurrency axis: a bench process spawned
/// with `DASH_CONN_HOLD="<addr> <count>"` is not a benchmark — it
/// parks `count` idle keep-alive connections against `addr` (its own
/// fd budget, separate from the parent's), reports how many it
/// opened, and holds them until the parent closes its stdin.
fn hold_connections(spec: &str) -> ! {
    use std::io::{BufRead, Write};
    let mut parts = spec.split_whitespace();
    let addr: std::net::SocketAddr = parts
        .next()
        .and_then(|a| a.parse().ok())
        .expect("DASH_CONN_HOLD is '<addr> <count>'");
    let count: usize = parts
        .next()
        .and_then(|n| n.parse().ok())
        .expect("DASH_CONN_HOLD is '<addr> <count>'");
    let mut held = Vec::with_capacity(count);
    for _ in 0..count {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => held.push(stream),
            Err(_) => break,
        }
    }
    println!("ready {}", held.len());
    std::io::stdout().flush().expect("report to parent");
    let mut line = String::new();
    while std::io::stdin().lock().read_line(&mut line).unwrap_or(0) > 0 {}
    std::process::exit(0)
}

fn bench_net(c: &mut Criterion) {
    if let Some(spec) = std::env::var_os("DASH_CONN_HOLD") {
        hold_connections(spec.to_string_lossy().as_ref());
    }

    // The serve suite's workload, behind sockets: TPC-H Q2 at micro
    // scale.
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 100;
    config.base_parts = 130;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    let fragments = reference::fragments(&app, &db).expect("crawl");
    // The corpus's DF ranking, which picks the hot keyword.
    let index =
        FragmentIndex::build(&fragments, app.query.range_selection_index()).expect("builds");

    // One hot cache-hit search, repeated over one persistent
    // connection while idle herds are parked next to it.
    let server = Arc::new(
        DashServer::from_fragments(app.clone(), &fragments, ServeConfig::default())
            .expect("server builds"),
    );
    let net = NetServer::serve_primary(
        server,
        db,
        TcpListener::bind("127.0.0.1:0").expect("ephemeral port"),
        NetConfig::default(),
    )
    .expect("net server starts");
    let hot = select_keywords(
        &index.inverted.keywords_by_df(),
        KeywordTemperature::Hot,
        1,
        7,
    )
    .pop()
    .expect("a hot keyword");
    let request = SearchRequest::new(&[hot.as_str()]).k(10).min_size(1000);
    let mut client = NetClient::connect(net.addr()).expect("client connects");
    client.search(&request).expect("warm both caches");

    // Concurrency axis: the cache-hit search, measured while an idle
    // herd of keep-alive connections is parked on the front-end —
    // a request's cost must track *active* connections, not open
    // ones. 100 and 1k park in-process; 10k would need ~20k fds
    // in one process (client + server side), past the container's
    // limit, so two `DASH_CONN_HOLD` child processes park 5k each and
    // only the server-side fds land here.
    let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
    let iters = if fast { 120 } else { 400 };
    for (label, herd) in [
        ("conns-100", 100usize),
        ("conns-1k", 1_000),
        ("conns-10k", 10_000),
    ] {
        let mut local: Vec<std::net::TcpStream> = Vec::new();
        let mut children: Vec<std::process::Child> = Vec::new();
        let mut parked = 0usize;
        if herd <= 1_000 {
            for _ in 0..herd {
                local.push(std::net::TcpStream::connect(net.addr()).expect("herd connects"));
            }
            parked = local.len();
        } else {
            use std::io::BufRead;
            let exe = std::env::current_exe().expect("bench exe");
            for _ in 0..2 {
                children.push(
                    std::process::Command::new(&exe)
                        .env("DASH_CONN_HOLD", format!("{} {}", net.addr(), herd / 2))
                        .stdin(std::process::Stdio::piped())
                        .stdout(std::process::Stdio::piped())
                        .spawn()
                        .expect("holder spawns"),
                );
            }
            for child in &mut children {
                let mut line = String::new();
                std::io::BufReader::new(child.stdout.take().expect("holder stdout"))
                    .read_line(&mut line)
                    .expect("holder reports");
                parked += line
                    .trim()
                    .strip_prefix("ready ")
                    .and_then(|n| n.parse::<usize>().ok())
                    .expect("holder readiness line");
            }
        }
        assert!(
            parked * 10 >= herd * 9,
            "{label}: only parked {parked} of {herd} connections"
        );
        // The herd counts as open only once the loop accepted it (the
        // +1 is the measuring client's own connection).
        let deadline = Instant::now() + Duration::from_secs(60);
        while (net.counters().open as usize) < parked + 1 {
            assert!(
                Instant::now() < deadline,
                "{label}: open={} never reached {}",
                net.counters().open,
                parked + 1
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let begin = Instant::now();
            client.search(&request).expect("search under herd");
            samples.push(begin.elapsed().as_nanos() as f64);
        }
        c.record_measurement(&format!("net/concurrency/{label}"), &samples, 1.0);
        drop(local);
        for mut child in children {
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }

    // Failover axis: what recovery costs on the replication tier — the
    // snapshot bootstrap a fresh replica pays to join, the delta-log
    // catch-up a briefly partitioned replica pays instead, and the
    // write-availability gap from killing the primary to a promoted
    // replica acking its next publication. CI's `cluster` job gates on
    // these rows being present and nonzero.
    let serve = ServeConfig::default().shards(2);
    let server = Arc::new(
        DashServer::from_fragments(app.clone(), &fragments, serve.clone()).expect("server builds"),
    );
    let hub = ReplicationHub::start(
        Arc::clone(&server),
        TcpListener::bind("127.0.0.1:0").expect("ephemeral port"),
    )
    .expect("hub starts");
    let timeout = Duration::from_secs(30);
    let fresh_delta = |n: u64| {
        IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("failover-churn"), Value::Int(7)]),
            [("failover".to_string(), 1 + n % 5)].into_iter().collect(),
            1,
        )])
    };

    let begin = Instant::now();
    let replica = Replica::connect(
        hub.addr(),
        app,
        ReplicaConfig {
            serve,
            retry: Duration::from_millis(5),
        },
    );
    assert!(replica.wait_ready(timeout), "replica bootstraps");
    let bootstrap_ns = begin.elapsed().as_nanos() as f64;
    c.record_measurement("net/failover/snapshot-bootstrap", &[bootstrap_ns], 1.0);

    // Partition the replica, publish past it, reconnect: the repair
    // must run through the delta log (no second snapshot transfer).
    let parked = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let dead = parked.local_addr().expect("parked addr");
    drop(parked); // nothing listens here now
    replica.retarget(dead);
    assert!(replica.wait_connected(false, timeout), "partitioned");
    let mut epoch = server.epoch();
    for n in 0..8 {
        epoch = server.publish_with_epoch(fresh_delta(n)).1;
    }
    let begin = Instant::now();
    replica.retarget(hub.addr());
    assert!(replica.wait_epoch(epoch, timeout), "replica caught up");
    let catchup_ns = begin.elapsed().as_nanos() as f64;
    assert_eq!(replica.bootstraps(), 1, "repair used the delta log");
    c.record_measurement("net/failover/delta-catchup", &[catchup_ns], 1.0);

    // Kill the primary; the write gap closes when the promoted replica
    // acks the next publication in the same epoch sequence.
    let begin = Instant::now();
    drop(hub);
    let promoted = replica.promote().expect("replica has state");
    let (_, acked) = promoted.publish_with_epoch(fresh_delta(99));
    let promotion_ns = begin.elapsed().as_nanos() as f64;
    assert_eq!(acked, epoch + 1, "promotion continues the epoch sequence");
    c.record_measurement("net/failover/promotion-gap", &[promotion_ns], 1.0);
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
