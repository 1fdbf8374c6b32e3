//! The observability tier: the `dash-obs` contracts the serving
//! layers now depend on.
//!
//! * histogram percentiles are *exact* in the nearest-rank sense —
//!   against a sorted-vector oracle, `quantile(q)` is always the
//!   lower bound of the bucket holding the true ranked sample, and
//!   merging split snapshots loses nothing;
//! * counters are lock-free and monotone under 8-thread contention;
//! * the `GET /metrics` exposition a real socket front-end serves is
//!   valid (parseable, no duplicate series) and covers every layer —
//!   net, serve and shard series in one scrape;
//! * the slow-query log captures an injected slow request and blames
//!   the right stage (`handle`, where the injected sleep ran);
//! * instrumentation never changes a result byte: searches through a
//!   recording server equal the seed reference's
//!   (`tests/common/oracle.rs`), in-process and over HTTP, with the
//!   registry enabled and disabled.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dash::core::crawl::reference;
use dash::obs::hist::{bucket_index, bucket_lower_bound};
use dash::obs::{expo, Histogram};
use dash::prelude::*;
use dash::webapp::fooddb;
use proptest::prelude::*;

mod common {
    pub mod battery;
    pub mod oracle;
    pub mod twins;
}
use common::battery::battery;
use common::oracle::Oracle;
use common::twins::twins;

fn serve(config: NetConfig) -> (Arc<DashServer>, NetServer) {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let server = Arc::new(
        DashServer::build(
            &app,
            &db,
            &DashConfig::default(),
            ServeConfig::default().shards(2),
        )
        .unwrap(),
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

/// Nearest-rank oracle over the raw samples (the definition
/// `HistogramSnapshot::quantile` implements over buckets).
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Histogram percentiles equal the sorted-vector oracle up to the
    /// bucket representative: `quantile(q)` is exactly the lower
    /// bound of the bucket the true ranked sample lands in, at every
    /// exposed quantile, over the full `u64` domain. Splitting the
    /// samples across two histograms and merging their snapshots
    /// changes nothing.
    #[test]
    fn percentiles_match_the_sorted_oracle(
        samples in prop::collection::vec(any::<u64>(), 1..300)
    ) {
        let whole = Histogram::new();
        let left = Histogram::new();
        let right = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { left.record(v) } else { right.record(v) }
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = whole.snapshot();
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(merged.count(), samples.len() as u64);
        prop_assert_eq!(merged.sum(), snap.sum());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = bucket_lower_bound(bucket_index(oracle(&sorted, q)));
            prop_assert_eq!(snap.quantile(q), want, "q={}", q);
            prop_assert_eq!(merged.quantile(q), want, "merged q={}", q);
        }
    }
}

#[test]
fn counters_are_monotone_under_contention() {
    const THREADS: usize = 8;
    const INCS: u64 = 10_000;
    let registry = dash::obs::Registry::new();
    let counter = registry.counter("dash_test_contended_total");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                for _ in 0..INCS {
                    counter.inc();
                }
            });
        }
        let counter = Arc::clone(&counter);
        let done = &done;
        scope.spawn(move || {
            // A concurrent reader must only ever see the count grow.
            let mut last = 0u64;
            while !done.load(Ordering::Relaxed) {
                let now = counter.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
            }
        });
        // scope joins the writers after this block; flag the reader
        // down once the writers are spawned and this thread has
        // nothing left to do but wait for them — the reader rechecks
        // until every writer finished.
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(counter.get(), THREADS as u64 * INCS);
}

#[test]
fn the_metrics_exposition_is_valid_and_covers_every_layer() {
    let (server, net) = serve(NetConfig::default());
    let mut client = NetClient::connect(net.addr()).unwrap();
    // Three *distinct* searches — identical ones would be answered
    // from the response cache after the first and never reach the
    // serve layer's histograms.
    for k in 1..=3 {
        client
            .search(&SearchRequest::new(&["burger"]).k(k).min_size(20))
            .unwrap();
    }
    client
        .publish(&IndexDelta::adding(vec![Fragment::new(
            FragmentId::new(vec![Value::str("Nordic"), Value::Int(7)]),
            [("herring".to_string(), 3u64)].into_iter().collect(),
            1,
        )]))
        .unwrap();
    let text = client.metrics_text().unwrap();

    // Every layer shows up in one scrape.
    for series in [
        "dash_net_accepted_total",
        "dash_net_open_connections",
        "dash_net_request_ns",
        "dash_net_handle_ns",
        "dash_serve_searches_total",
        "dash_serve_published_total",
        "dash_serve_search_ns",
        "dash_serve_publish_signature_ns",
        "dash_serve_publish_apply_ns",
        "dash_serve_publish_invalidate_ns",
        "dash_serve_publish_replay_ns",
        "dash_serve_signature_keywords",
        "dash_shard_search_ns",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }

    // Exposition validity: every sample line parses, TYPE lines name
    // a known kind, and no series key repeats.
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let kind = rest.split(' ').nth(1).unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown TYPE: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        value.parse::<u64>().expect("sample values are integers");
        assert!(seen.insert(key.to_string()), "duplicate series: {key}");
    }

    // The parsed summaries agree with what the run did: requests
    // flowed end to end and the serving stack recorded them.
    let summaries = expo::parse_summaries(&text);
    let series = |name: &str| {
        summaries
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no summary {name}"))
            .clone()
    };
    // The heap loop's work counters: the expanding `burger` searches
    // seeded, probed neighbours and expanded.
    for name in [
        "dash_shard_candidates_total",
        "dash_shard_seeds_total",
        "dash_shard_probes_total",
        "dash_shard_expansions_total",
    ] {
        let value = text
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"));
        assert!(value.parse::<u64>().unwrap() > 0, "{name} is zero");
    }
    assert!(series("dash_net_request_ns").count >= 4, "{text}");
    assert!(series("dash_serve_search_ns").count >= 3, "{text}");
    let served = series("dash_net_request_ns");
    assert!(served.p999 >= served.p99 && served.p99 >= served.p50);
    // Registry-backed /stats and /metrics agree on the search count.
    assert_eq!(
        server.stats().searches,
        server.registry().counter("dash_serve_searches_total").get()
    );
}

#[test]
fn the_slow_log_captures_an_injected_stall_and_blames_handle() {
    let (_server, net) = serve(NetConfig {
        allow_debug_sleep: true,
        ..NetConfig::default()
    });
    // One deliberately slow request: the worker sleeps 25ms inside
    // the handle stage.
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /stats?debug_sleep_us=25000 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    assert!(response.starts_with(b"HTTP/1.1 200"));

    let mut client = NetClient::connect(net.addr()).unwrap();
    let slow = client.slow_json().unwrap();
    let at = slow
        .find("\"route\":\"GET /stats\"")
        .unwrap_or_else(|| panic!("slow log missed the stalled request: {slow}"));
    // Extract that entry's handle-stage nanoseconds.
    let handle = &slow[at..];
    let handle = &handle[handle.find("\"handle\":").expect("stage breakdown") + 9..];
    let handle_ns: u64 = handle
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(
        handle_ns >= 20_000_000,
        "injected 25ms stall attributed {handle_ns}ns to handle: {slow}"
    );
}

#[test]
fn instrumentation_never_changes_a_result_byte() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    let mut fragments = reference::fragments(&app, &db).unwrap();
    fragments.extend(twins());
    let oracle = Oracle::new(&app, &fragments);
    let (server, net) = serve(NetConfig::default());
    server.publish(IndexDelta::adding(twins()));
    let mut client = NetClient::connect(net.addr()).unwrap();
    let requests = battery();
    assert!(server.registry().is_enabled());
    let in_process: Vec<_> = requests.iter().map(|r| server.search(r)).collect();
    oracle.assert_answers(&requests, &in_process, "in-process, recording");
    let over_http: Vec<_> = requests.iter().map(|r| client.search(r).unwrap()).collect();
    oracle.assert_answers(&requests, &over_http, "over HTTP, recording");
    // Spans recorded something, and the disabled fast path answers
    // identically.
    assert!(server.registry().counter("dash_serve_searches_total").get() >= 3);
    server.registry().set_enabled(false);
    let disabled: Vec<_> = requests.iter().map(|r| server.search(r)).collect();
    oracle.assert_answers(&requests, &disabled, "disabled registry");
    server.registry().set_enabled(true);
}
