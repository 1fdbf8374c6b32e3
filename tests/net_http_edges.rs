//! The HTTP edge tier: what the socket front-end does when peers
//! misbehave. The equivalence tier proves well-formed requests are
//! answered byte-exactly; this tier pins down everything else — the
//! protocol edges where a server either fails loudly, fails silently,
//! or falls over:
//!
//! * malformed request lines and headers are answered with a `400`
//!   carrying the parse error *before* the connection closes — but a
//!   peer that disconnects mid-headers gets silence, not a response
//!   written into a dead socket;
//! * oversized bodies are refused up front (`413`) without buffering;
//! * a binary update body with trailing garbage is rejected without
//!   applying anything (the epoch does not move);
//! * idle keep-alive connections survive concurrent publications, and
//!   the pre-serialized response cache invalidates precisely — only
//!   entries whose keywords a delta touched;
//! * hit lists past the chunk threshold stream back with
//!   `Transfer-Encoding: chunked` and reassemble bit-exactly;
//! * pipelined requests are answered in order on one connection;
//! * a thousand idle connections cost buffers, not threads, and the
//!   connection cap sheds the overflow with a fast `503`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash::net::http::CHUNK_THRESHOLD;
use dash::net::server::{encode_update, UpdateBody};
use dash::prelude::*;
use dash::webapp::fooddb;

const SYNC_TIMEOUT: Duration = Duration::from_secs(20);

fn app() -> WebApplication {
    fooddb::search_application().unwrap()
}

fn fragment(cuisine: &str, word: &str, n: u64) -> Fragment {
    Fragment::new(
        FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
        [(word.to_string(), n)].into_iter().collect(),
        1,
    )
}

/// A primary HTTP front-end over the fooddb crawl on an ephemeral
/// port, with the given net config.
fn serve(config: NetConfig) -> (Arc<DashServer>, NetServer) {
    let db = fooddb::database();
    let server = Arc::new(
        DashServer::build(&app(), &db, &DashConfig::default(), ServeConfig::default()).unwrap(),
    );
    let net = NetServer::serve_primary(
        Arc::clone(&server),
        db,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        config,
    )
    .unwrap();
    (server, net)
}

/// Writes raw bytes to a fresh connection and reads until EOF.
fn raw_exchange(net: &NetServer, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

/// Waits for an open-connection count; accepts lag behind `connect`.
fn wait_open(net: &NetServer, want: u64) {
    let deadline = Instant::now() + SYNC_TIMEOUT;
    while net.counters().open < want {
        assert!(
            Instant::now() < deadline,
            "open={} never reached {want}",
            net.counters().open
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Malformed input is answered, torn input is not
// ---------------------------------------------------------------------

#[test]
fn malformed_request_line_gets_a_400_with_the_parse_error() {
    let (_server, net) = serve(NetConfig::default());
    let reply = raw_exchange(&net, b"TOTAL NONSENSE\r\n\r\n");
    assert!(
        reply.starts_with("HTTP/1.1 400 "),
        "wanted a 400, got: {reply:?}"
    );
    assert!(
        reply.contains("request line"),
        "the body names what failed to parse: {reply:?}"
    );
    assert!(net.counters().bad_requests >= 1);
}

#[test]
fn header_without_a_colon_gets_a_400() {
    let (_server, net) = serve(NetConfig::default());
    let reply = raw_exchange(&net, b"GET /stats HTTP/1.1\r\nNoColonHere\r\n\r\n");
    assert!(
        reply.starts_with("HTTP/1.1 400 "),
        "wanted a 400, got: {reply:?}"
    );
}

#[test]
fn oversized_content_length_is_refused_up_front_with_413() {
    let (_server, net) = serve(NetConfig::default());
    let reply = raw_exchange(
        &net,
        b"POST /update HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n",
    );
    assert!(
        reply.starts_with("HTTP/1.1 413 "),
        "wanted a 413, got: {reply:?}"
    );
}

#[test]
fn disconnect_mid_headers_is_closed_silently() {
    let (_server, net) = serve(NetConfig::default());
    // Half a request line, then the client goes away: there is no
    // peer left to read an error, so none is written.
    let reply = raw_exchange(&net, b"GET /sea");
    assert_eq!(reply, "", "no response into a dead socket: {reply:?}");
    assert_eq!(net.counters().bad_requests, 0);
}

#[test]
fn trailing_garbage_after_an_update_body_is_rejected_without_applying() {
    let (server, net) = serve(NetConfig::default());
    let epoch_before = server.snapshot().epoch;
    let delta = IndexDelta::adding(vec![fragment("Garbage", "junkword", 3)]);
    let mut body = encode_update(&UpdateBody::Publish(delta));
    body.extend_from_slice(b"trailing-garbage");
    let head = format!(
        "POST /update HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(&body);
    let reply = raw_exchange(&net, &request);
    assert!(
        reply.starts_with("HTTP/1.1 400 "),
        "wanted a 400, got: {reply:?}"
    );
    assert!(
        reply.contains("trailing"),
        "the error names the trailing bytes: {reply:?}"
    );
    assert_eq!(
        server.snapshot().epoch,
        epoch_before,
        "a rejected update must not publish"
    );
    assert!(
        server
            .search(&SearchRequest::new(&["junkword"]).k(3).min_size(1))
            .is_empty(),
        "a rejected update must not index anything"
    );
}

// ---------------------------------------------------------------------
// Keep-alive under publication, cache precision
// ---------------------------------------------------------------------

#[test]
fn idle_keepalive_connections_survive_a_publish() {
    let (server, net) = serve(NetConfig::default());
    let shared = SearchRequest::new(&["burger"]).k(4).min_size(1);
    let disjoint = SearchRequest::new(&["coffee"]).k(4).min_size(1);

    // A handful of keep-alive clients, each warmed with one request.
    let mut clients: Vec<NetClient> = (0..16)
        .map(|_| NetClient::connect(net.addr()).unwrap())
        .collect();
    for client in &mut clients {
        client.search(&shared).unwrap();
    }
    clients[0].search(&disjoint).unwrap();
    let cached = net.response_cache_stats();
    assert!(
        cached.insertions >= 2,
        "both searches were cached: {cached:?}"
    );

    // Publish a delta that touches only the shared keyword while the
    // connections sit idle.
    server.publish(IndexDelta::adding(vec![fragment("Churn", "burger", 2)]));
    // The sweep is part of the publication: the touched entry is gone
    // before any further request arrives.
    let swept = net.response_cache_stats();
    assert!(
        swept.invalidated >= 1,
        "publish itself invalidated the touched entry: {swept:?}"
    );

    // Every idle connection is still usable, and the answers track
    // the new state exactly.
    for (at, client) in clients.iter_mut().enumerate() {
        let served = client.search(&shared).unwrap();
        assert_eq!(served, server.search(&shared), "client {at} diverged");
    }
    let stats = net.response_cache_stats();
    assert!(
        stats.invalidated >= 1,
        "the touched entry was invalidated: {stats:?}"
    );

    // The disjoint entry survived the publish: the next lookup is a
    // byte-cache hit, not a recompute.
    let hits_before = stats.hits;
    let served = clients[0].search(&disjoint).unwrap();
    assert_eq!(served, server.search(&disjoint));
    assert!(
        net.response_cache_stats().hits > hits_before,
        "the untouched entry still serves from cache"
    );
}

#[test]
fn repeated_searches_hit_the_byte_cache() {
    let (_server, net) = serve(NetConfig::default());
    let request = SearchRequest::new(&["fries"]).k(4).min_size(1);
    let mut client = NetClient::connect(net.addr()).unwrap();
    let first = client.search(&request).unwrap();
    let second = client.search(&request).unwrap();
    assert_eq!(first, second);
    let stats = net.response_cache_stats();
    assert!(stats.hits >= 1, "repeat was a byte-cache hit: {stats:?}");
    assert!(net.cached_responses() >= 1);
}

// ---------------------------------------------------------------------
// Chunked streaming
// ---------------------------------------------------------------------

#[test]
fn large_hit_lists_stream_back_chunked_and_reassemble_exactly() {
    let long_tail = "x".repeat(90);
    let fragments: Vec<Fragment> = (0..900)
        .map(|at| {
            Fragment::new(
                FragmentId::new(vec![
                    Value::str(format!("bulk-cuisine-{at:04}-{long_tail}")),
                    Value::Int(7),
                ]),
                BTreeMap::from([("bulkword".to_string(), 1 + at % 7)]),
                1,
            )
        })
        .collect();
    let server =
        Arc::new(DashServer::from_fragments(app(), &fragments, ServeConfig::default()).unwrap());
    let net = NetServer::serve_primary(
        Arc::clone(&server),
        fooddb::database(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    let request = SearchRequest::new(&["bulkword"]).k(900).min_size(1);
    let expected = server.search(&request);
    let body = dash::net::json::hits_to_json(&expected);
    assert!(
        body.len() > CHUNK_THRESHOLD,
        "the probe response must exceed the chunk threshold ({} <= {CHUNK_THRESHOLD})",
        body.len()
    );

    // Raw socket: the framing really is chunked on the wire.
    let reply = raw_exchange(
        &net,
        b"GET /search?kw=bulkword&k=900&s=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 "), "got: {:.120}", reply);
    let head_end = reply.find("\r\n\r\n").unwrap();
    assert!(
        reply[..head_end]
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "large responses advertise chunked framing: {:.300}",
        reply
    );

    // Client path: the chunked body reassembles to the exact hits.
    let mut client = NetClient::connect(net.addr()).unwrap();
    assert_eq!(client.search(&request).unwrap(), expected);
}

// ---------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_server, net) = serve(NetConfig::default());
    let reply = raw_exchange(
        &net,
        b"GET /stats HTTP/1.1\r\n\r\nGET /search?kw=burger&k=2&s=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let responses: Vec<_> = reply.match_indices("HTTP/1.1 200 ").collect();
    assert_eq!(
        responses.len(),
        2,
        "two pipelined requests, two responses: {reply:?}"
    );
    let second = &reply[responses[1].0..];
    assert!(
        second.contains("\"url\""),
        "the second response is the search: {second:?}"
    );
    assert!(
        reply[..responses[1].0].contains("\"role\""),
        "the first response is the stats body"
    );
}

// ---------------------------------------------------------------------
// Scale: idle connections and the cap
// ---------------------------------------------------------------------

#[test]
fn a_thousand_idle_connections_cost_buffers_not_threads() {
    let (_server, net) = serve(NetConfig::default());
    let threads_before = process_threads();

    let idle: Vec<TcpStream> = (0..1000)
        .map(|_| TcpStream::connect(net.addr()).unwrap())
        .collect();
    wait_open(&net, 1000);

    // The thread count did not scale with connections (the delta
    // allows unrelated test-harness threads, not one-per-connection).
    let threads_after = process_threads();
    assert!(
        threads_after <= threads_before + 8,
        "threads went {threads_before} -> {threads_after} under 1000 idle connections"
    );

    // Requests still answer promptly past the idle herd.
    let mut client = NetClient::connect(net.addr()).unwrap();
    let request = SearchRequest::new(&["burger"]).k(4).min_size(1);
    let started = Instant::now();
    let hits = client.search(&request).unwrap();
    assert!(!hits.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a request under 1000 idle connections answered in {:?}",
        started.elapsed()
    );
    drop(idle);
}

#[test]
fn the_connection_cap_sheds_overflow_with_a_fast_503() {
    let config = NetConfig {
        max_connections: 8,
        ..NetConfig::default()
    };
    let (_server, net) = serve(config);
    let held: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(net.addr()).unwrap())
        .collect();
    wait_open(&net, 8);

    // The ninth connection is answered 503 and closed, never stalled.
    let mut overflow = TcpStream::connect(net.addr()).unwrap();
    overflow
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    overflow.read_to_end(&mut reply).unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 503 "),
        "overflow is told, not stalled: {reply:?}"
    );
    assert!(net.counters().overflows >= 1);

    // Freeing a slot restores service on fresh connections.
    drop(held);
    let deadline = Instant::now() + SYNC_TIMEOUT;
    loop {
        let mut probe = TcpStream::connect(net.addr()).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        probe
            .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        // A probe shed while the herd's slots drain may be reset
        // mid-read (its request bytes were never consumed) — that is
        // "still full", not a failure.
        if probe.read_to_end(&mut out).is_ok()
            && String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200 ")
        {
            break;
        }
        assert!(Instant::now() < deadline, "service never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Thread count of this process (Linux), used to show connections do
/// not spawn threads.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}
