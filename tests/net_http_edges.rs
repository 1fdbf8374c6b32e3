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
//! * hit lists of hundreds of kilobytes come back framed by
//!   `Content-Length` and reassemble bit-exactly;
//! * pipelined requests are answered in order on one connection, and
//!   cached repeats pipelined ahead of an EOF are answered from the
//!   byte cache before it closes;
//! * a thousand idle connections cost buffers, not threads, and the
//!   connection cap sheds the overflow with a fast `503`;
//! * the clock-driven edges: a head stalled mid-way is answered `408`,
//!   a peer that stops draining its response is closed, and an
//!   `accept` failing `EMFILE` rests the listener instead of spinning
//!   (two of these take the 10 s request budget each);
//! * ownership and admission: a slow request on one connection does
//!   not delay another, requests past a busy pool and a full queue get
//!   a fast `503`, an idle server burns no CPU, and dropping the server
//!   wakes a blocked leader.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[test]
fn a_publish_of_another_arity_is_answered_400_without_applying() {
    let (server, net) = serve(NetConfig::default());
    let epoch_before = server.snapshot().epoch;
    let mut image_before = Vec::new();
    server
        .snapshot()
        .engine
        .write_image(&mut image_before)
        .unwrap();
    // A removal that fits, then an add whose identifier stops before
    // the range value: nothing of the batch may land.
    let short = Fragment::new(
        FragmentId::new(vec![Value::str("Lao")]),
        [("larbword".to_string(), 2u64)].into_iter().collect(),
        1,
    );
    let delta = IndexDelta::new(
        vec![FragmentId::new(vec![Value::str("Thai"), Value::Int(10)])],
        vec![fragment("Lao", "larbword", 2), short],
    );
    let body = encode_update(&UpdateBody::Publish(delta));
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
        reply.contains("(Lao)"),
        "the error names the identifier: {reply:?}"
    );
    assert_eq!(server.snapshot().epoch, epoch_before);
    let mut image_after = Vec::new();
    server
        .snapshot()
        .engine
        .write_image(&mut image_after)
        .unwrap();
    assert!(
        image_after == image_before,
        "a refused publish changes no byte"
    );
    // The server still publishes a delta that fits, through both sides.
    let mut client = NetClient::connect(net.addr()).unwrap();
    let ack = client
        .publish(&IndexDelta::adding(vec![fragment("Lao", "larbword", 2)]))
        .unwrap();
    assert_eq!((ack.added, ack.epoch), (1, epoch_before + 1));
    assert_eq!(
        server
            .search(&SearchRequest::new(&["larbword"]).k(3).min_size(1))
            .len(),
        1
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

#[test]
fn pipelined_hits_ahead_of_eof_are_answered_from_the_byte_cache() {
    // A peer pipelines repeats of a cached search, exactly one 16 KiB
    // read chunk of them, then sends EOF: the read that fills the
    // chunk goes on to find the EOF, so the repeats are parsed on a
    // connection already closed for reading. Each is still answered
    // with the cached bytes, in order, before the connection closes.
    let (_server, net) = serve(NetConfig::default());
    let search = "GET /search?kw=fries&k=4&s=1 HTTP/1.1\r\nHost: x\r\n\r\n";
    let one = raw_exchange(&net, search.as_bytes());
    assert!(one.starts_with("HTTP/1.1 200 ") && one.contains("\"url\""));
    let chunk = 16 * 1024;
    let mut repeats = chunk / search.len();
    let mut pad = chunk - repeats * search.len();
    if pad > 0 && pad < 10 {
        repeats -= 1;
        pad += search.len();
    }
    let padded = if pad == 0 {
        search.to_string()
    } else {
        search.replace(
            "Host: x\r\n",
            &format!("Host: x\r\nX-Pad: {}\r\n", "p".repeat(pad - 9)),
        )
    };
    let pipeline = padded.clone() + &search.repeat(repeats - 1);
    assert_eq!(pipeline.len(), chunk);
    let hits_before = net.response_cache_stats().hits;
    let reply = raw_exchange(&net, pipeline.as_bytes());
    assert!(reply == one.repeat(repeats), "{} bytes back", reply.len());
    let stats = net.response_cache_stats();
    assert_eq!(stats.hits - hits_before, repeats as u64, "{stats:?}");
    assert_eq!((stats.misses, stats.insertions), (1, 1), "{stats:?}");
}

// ---------------------------------------------------------------------
// Large responses
// ---------------------------------------------------------------------

/// A primary over 900 fragments sharing `bulkword` with long ids, so
/// `kw=bulkword&k=900` answers with a body of over 64 KiB.
fn bulk_server() -> (Arc<DashServer>, NetServer) {
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
    (server, net)
}

#[test]
fn large_hit_lists_come_back_length_framed_and_reassemble_exactly() {
    let (server, net) = bulk_server();
    let request = SearchRequest::new(&["bulkword"]).k(900).min_size(1);
    let expected = server.search(&request);
    let body = dash::net::json::hits_to_json(&expected);
    assert!(
        body.len() > 64 << 10,
        "the probe response must be large ({} bytes)",
        body.len()
    );

    // Raw socket: one `Content-Length` head carries the whole body.
    let reply = raw_exchange(
        &net,
        b"GET /search?kw=bulkword&k=900&s=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 "), "got: {:.120}", reply);
    let (head, sent) = reply.split_once("\r\n\r\n").unwrap();
    let head = head.to_ascii_lowercase();
    assert!(
        head.contains(&format!("content-length: {}\r\n", body.len())),
        "large responses are length-framed: {head}"
    );
    assert!(!head.contains("transfer-encoding"), "{head}");
    assert_eq!(sent, body);

    // Client path: the body reassembles to the exact hits.
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

// ---------------------------------------------------------------------
// Timer-driven edges: the only paths that need a clock
// ---------------------------------------------------------------------

#[test]
fn a_peer_stalled_mid_head_is_answered_408() {
    // Takes the whole request budget (10 s).
    let (_server, net) = serve(NetConfig::default());
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    stream.set_read_timeout(Some(SYNC_TIMEOUT)).unwrap();
    stream.write_all(b"GET /search?kw=bur").unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 408 "),
        "a stalled head is told, then closed: {reply:?}"
    );
    assert_eq!(net.counters().timeouts, 1);
}

#[test]
fn a_peer_that_stops_draining_a_large_response_is_closed() {
    // Takes the whole write-stall budget (10 s).
    let (server, net) = bulk_server();
    let request = SearchRequest::new(&["bulkword"]).k(900).min_size(1);
    let body = dash::net::json::hits_to_json(&server.search(&request));
    // Pipeline more answer bytes than loopback can buffer, then read
    // none of them: the server's write must block.
    let pipelined = (64 << 20) / body.len() + 1;
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    let one = b"GET /search?kw=bulkword&k=900&s=1 HTTP/1.1\r\n\r\n";
    stream.write_all(&one.repeat(pipelined)).unwrap();
    wait_open(&net, 1);
    let deadline = Instant::now() + SYNC_TIMEOUT;
    while net.counters().open > 0 {
        assert!(
            Instant::now() < deadline,
            "a peer that reads nothing still holds its connection"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(net.counters().timeouts, 0, "a write stall is not a 408");
    drop(stream);
}

/// Set in a child process this file spawns: the test named by
/// `--exact` serves instead of testing (see [`ChildServer::spawn`]).
const CHILD: &str = "DASH_NET_EDGES_CHILD";

/// The child half of the out-of-process tests: serve the fooddb primary,
/// print its address, and stop when stdin closes. Returns `false` in
/// the ordinary test process.
fn serve_if_child() -> bool {
    if std::env::var_os(CHILD).is_none() {
        return false;
    }
    let (_server, net) = serve(NetConfig::default());
    println!("{}", net.addr());
    std::io::stdout().flush().unwrap();
    std::io::stdin().read_to_end(&mut Vec::new()).unwrap();
    true
}

/// A server running in a child process (see [`ChildServer::spawn`]).
struct ChildServer {
    process: std::process::Child,
    addr: std::net::SocketAddr,
    /// Kept open: the child prints its test result when it exits.
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ChildServer {
    /// Re-runs this test binary as a child serving for test `name`,
    /// under `ulimit -n <fds>` when given. Out of process, the
    /// `dash-net-*` threads counted are that server's alone, and a
    /// lowered descriptor limit binds no other test.
    fn spawn(name: &str, fds: Option<u32>) -> ChildServer {
        use std::io::BufRead;
        use std::process::{Command, Stdio};
        let limit = fds.map_or(String::new(), |fds| format!("ulimit -n {fds} && "));
        let mut process = Command::new("sh")
            .arg("-c")
            .arg(format!("{limit}exec \"$0\" \"$@\""))
            .arg(std::env::current_exe().unwrap())
            .args(["--exact", name, "--nocapture", "--test-threads", "1"])
            .env(CHILD, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = std::io::BufReader::new(process.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(
                stdout.read_line(&mut line).unwrap() > 0,
                "the child exited before printing its address"
            );
            // libtest prints the test's name on the same line.
            if let Some(addr) = line.split_whitespace().last().and_then(|w| w.parse().ok()) {
                break addr;
            }
        };
        ChildServer {
            process,
            addr,
            stdout,
        }
    }

    /// CPU ticks its server threads burn over one quiet second.
    fn ticks_over_a_quiet_second(&self) -> u64 {
        let before = net_thread_ticks(self.process.id());
        std::thread::sleep(Duration::from_secs(1));
        net_thread_ticks(self.process.id()) - before
    }

    /// Closes the child's stdin and checks it shut down cleanly.
    fn finish(mut self) {
        drop(self.process.stdin.take());
        self.stdout.read_to_end(&mut Vec::new()).unwrap();
        assert!(self.process.wait().unwrap().success());
    }
}

impl Drop for ChildServer {
    /// A failed test leaves no server behind (after `finish` the child
    /// has exited already and this does nothing).
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// CPU time (in 10 ms ticks) the `dash-net-*` threads of process `pid`
/// have used so far, from `/proc/<pid>/task/*/stat`.
fn net_thread_ticks(pid: u32) -> u64 {
    let mut ticks = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap() {
        let task = task.unwrap().path();
        let (Ok(name), Ok(stat)) = (
            std::fs::read_to_string(task.join("comm")),
            std::fs::read_to_string(task.join("stat")),
        ) else {
            continue; // the thread exited meanwhile
        };
        if !name.starts_with("dash-net-") {
            continue;
        }
        // Fields after the parenthesised name: state is the first,
        // utime the 12th and stime the 13th.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
        ticks += fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    }
    ticks
}

/// Sends `GET /stats` on a fresh connection and returns the status.
fn stats_status(addr: std::net::SocketAddr) -> std::io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    (&stream).write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let (status, _) = dash::net::http::read_response(&mut std::io::BufReader::new(stream))?;
    Ok(status)
}

#[test]
fn a_failing_accept_backs_off_instead_of_spinning() {
    if serve_if_child() {
        return;
    }
    // 64 descriptors: the child's server can accept ~55 of the 100
    // connections below; the rest wait in the backlog, which keeps the
    // level-triggered listener readable while `accept` fails `EMFILE`.
    let child = ChildServer::spawn("a_failing_accept_backs_off_instead_of_spinning", Some(64));
    let addr = child.addr;
    let herd: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    // A listener re-polled in a hot loop would burn ~100 ticks a
    // second; resting between attempts burns next to nothing.
    let ticks = child.ticks_over_a_quiet_second();
    assert!(
        ticks < 20,
        "the server burned {ticks} ticks (10 ms each) in a second of failing accepts"
    );
    // Freeing descriptors lets the rested listener take connections
    // again.
    drop(herd);
    let deadline = Instant::now() + SYNC_TIMEOUT;
    while !matches!(stats_status(addr), Ok(200)) {
        assert!(Instant::now() < deadline, "the listener never came back");
        std::thread::sleep(Duration::from_millis(50));
    }
    child.finish();
}

// ---------------------------------------------------------------------
// Ownership and admission
// ---------------------------------------------------------------------

#[test]
fn a_slow_request_does_not_delay_other_connections() {
    let (_server, net) = serve(NetConfig {
        workers: 2,
        allow_debug_sleep: true,
        ..NetConfig::default()
    });
    let mut b = NetClient::connect(net.addr()).unwrap();
    let cached = SearchRequest::new(&["burger"]).k(4).min_size(1);
    let expected = b.search(&cached).unwrap();

    // The slow request stalls its thread for a second (the cap).
    let slow = TcpStream::connect(net.addr()).unwrap();
    (&slow)
        .write_all(b"GET /stats?debug_sleep_us=1000000 HTTP/1.1\r\n\r\n")
        .unwrap();
    let started = Instant::now();
    // Until a thread is inside the slow request, a scrape (handled on
    // a second thread) reads one busy follower: itself.
    while !b
        .metrics_text()
        .unwrap()
        .contains("dash_net_busy_followers 2")
    {
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "no scrape on another connection saw the slow request in progress"
        );
    }

    let hit = Instant::now();
    assert_eq!(b.search(&cached).unwrap(), expected);
    let hit = hit.elapsed();
    let stats = Instant::now();
    assert!(b.stats_json().unwrap().contains("\"role\""));
    let stats = stats.elapsed();
    assert!(
        hit < Duration::from_millis(100) && stats < Duration::from_millis(100),
        "a hit ({hit:?}) and a /stats ({stats:?}) waited behind another connection's request"
    );
    // And all of it while the slow request was still being answered.
    slow.set_nonblocking(true).unwrap();
    let pending = slow.peek(&mut [0u8; 1]).map_err(|e| e.kind());
    assert_eq!(pending, Err(std::io::ErrorKind::WouldBlock));
    slow.set_nonblocking(false).unwrap();
    let (status, _) = dash::net::http::read_response(&mut std::io::BufReader::new(slow)).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn with_every_thread_busy_requests_are_shed_with_a_fast_503() {
    let (_server, net) = serve(NetConfig {
        workers: 1,
        queue_depth: 1,
        allow_debug_sleep: true,
        ..NetConfig::default()
    });
    // Each request stalls its thread for a second (the cap). One is
    // handled, one waits in the queue, and the rest find no thread and
    // no room: whichever arrives first.
    let start = Arc::new(std::sync::Barrier::new(4));
    let answers: Vec<(u16, Duration)> = (0..4)
        .map(|_| {
            let start = Arc::clone(&start);
            let addr = net.addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_read_timeout(Some(SYNC_TIMEOUT)).unwrap();
                start.wait();
                let sent = Instant::now();
                (&stream)
                    .write_all(b"GET /stats?debug_sleep_us=1000000 HTTP/1.1\r\n\r\n")
                    .unwrap();
                let mut reader = std::io::BufReader::new(stream);
                let (status, _) = dash::net::http::read_response(&mut reader).unwrap();
                (status, sent.elapsed())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|thread| thread.join().unwrap())
        .collect();
    let shed: Vec<_> = answers
        .iter()
        .filter(|(status, _)| *status == 503)
        .collect();
    assert!(!shed.is_empty(), "nothing was shed: {answers:?}");
    assert!(
        shed.iter()
            .all(|(_, took)| *took < Duration::from_millis(500)),
        "a 503 waited for the busy thread: {answers:?}"
    );
    assert!(
        answers.iter().filter(|(status, _)| *status == 200).count() >= 2,
        "the handled and the queued request are answered: {answers:?}"
    );
    assert!(net.counters().shed_jobs >= 1);
}

#[test]
fn an_idle_server_burns_no_core() {
    if serve_if_child() {
        return;
    }
    let child = ChildServer::spawn("an_idle_server_burns_no_core", None);
    let addr = child.addr;
    let mut client = NetClient::connect(addr).unwrap();
    for k in 1..=20 {
        let request = SearchRequest::new(&["burger"]).k(k % 5 + 1).min_size(1);
        client.search(&request).unwrap();
    }
    // Past the leader's 100 ms polling window, with the keep-alive
    // connection still open: a blocked leader uses no CPU, a polling
    // one ~100 ticks a second.
    std::thread::sleep(Duration::from_millis(300));
    let ticks = child.ticks_over_a_quiet_second();
    assert!(
        ticks < 5,
        "an idle server burned {ticks} ticks (10 ms each) in one second"
    );
    drop(client);
    child.finish();
}

#[test]
fn dropping_the_server_returns_promptly_while_the_leader_blocks() {
    let (_server, net) = serve(NetConfig::default());
    assert_eq!(stats_status(net.addr()).unwrap(), 200);
    // Past the polling window: the leader is blocked in `epoll_wait`.
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    drop(net);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "drop took {:?}",
        started.elapsed()
    );
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
