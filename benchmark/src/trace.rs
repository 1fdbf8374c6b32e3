//! The traced run (`--trace 1`): where a request's time goes, layer by
//! layer.
//!
//! The stack is assembled four times in this process — a single-index
//! engine, a bare 2-shard engine (and a twin, because the serving
//! layer maintains two), a `DashServer`, and a `DashServer` behind a
//! `NetServer` on loopback — and the first N operations of the
//! workload's script are pushed, on one thread, through each layer's
//! public entry point in turn. Every call is a span. A span's children
//! are the same request's spans one layer down, measured by their own
//! calls (the spans are recorded here, around calls into each layer,
//! not inside the program), so a layer's self time is its span minus
//! its children's.
//!
//! The layers check each other: every engine must return the oracle's
//! hits and the socket must carry the oracle's rendered bytes.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use dash_core::{wire, DashEngine, IngestSource, SearchRequest, ShardedEngine};
use dash_mapreduce::WorkflowStats;
use dash_net::http::{self, Response};
use dash_net::json::hits_to_json;
use dash_net::server::{decode_update, encode_update, UpdateBody};
use dash_net::{NetConfig, NetServer};
use dash_serve::{DashServer, ServeConfig};

use crate::affinity;
use crate::client::Conn;
use crate::corpus::{self, Corpus};
use crate::script::{
    expected_ack, post_update, Script, Workload, CYCLE_READS, TAIL_PUBLISHES, UPSERTS,
};
use crate::spec::RunResult;
use crate::stats::percentile;
use crate::Failure;

/// Reads after the last publish of a trace.
const FINAL_READS: u64 = 8;

/// One call into one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation the call served: `r<i>` the i-th read's first
    /// pass, `r<i>+` its repeat, `p<j>` the j-th publish, `setup`.
    pub request: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The layer whose span of the same request this one is part of.
    pub parent: Option<&'static str>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    clock: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            clock: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `call` as a span.
    pub fn span<T>(
        &mut self,
        request: &str,
        layer: &'static str,
        parent: Option<&'static str>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.clock.elapsed().as_nanos() as u64;
        let out = call();
        let end_ns = self.clock.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request: request.to_string(),
            layer,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// The last recorded span becomes a span of `layer` instead (a
    /// search is known to be a hit or a miss only once it is over).
    fn relabel(&mut self, layer: &'static str, parent: Option<&'static str>) {
        let span = self.spans.last_mut().expect("a span was just recorded");
        span.layer = layer;
        span.parent = parent;
    }

    /// Ascending durations of every span of `layer`.
    pub fn durations_ns(&self, layer: &str) -> Vec<u64> {
        let mut durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration_ns)
            .collect();
        durations.sort_unstable();
        durations
    }

    /// Ascending self times of every span of `layer`: its duration
    /// minus its children's — the spans of the same request that name
    /// `layer` as parent.
    pub fn self_times_ns(&self, layer: &str) -> Vec<u64> {
        let mut children: BTreeMap<&str, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent == Some(layer)) {
            *children.entry(&span.request).or_insert(0) += span.duration_ns();
        }
        let mut selves: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| {
                s.duration_ns()
                    .saturating_sub(children.get(s.request.as_str()).copied().unwrap_or(0))
            })
            .collect();
        selves.sort_unstable();
        selves
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"request\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.request, span.layer, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// The four assemblies of the stack, kept in the same state.
struct Stacks {
    single: DashEngine,
    sharded: ShardedEngine,
    /// The serving layer maintains a live and a shadow engine; the
    /// twin lets a publish's second `apply_delta` be a span too.
    twin: ShardedEngine,
    serve: DashServer,
    net: NetServer,
    conn: Conn,
}

/// What the layers' own counters said around one call.
fn serve_hits(server: &DashServer) -> u64 {
    server.stats().cache.hits
}

struct Run<'a> {
    script: &'a Script,
    corpus: &'a Corpus,
    /// Client and server CPU, as in the end-to-end run: this thread
    /// sits on the server's CPU while it calls a layer directly (it
    /// stands in for the server's worker) and on the client's while it
    /// talks to the socket. It moves between spans, never inside one.
    placement: Option<(usize, usize)>,
    stacks: Stacks,
    tracer: Tracer,
    published: u64,
    body_bytes: u64,
    bodies: u64,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn as_client(&self) {
        if let Some((client, _)) = self.placement {
            affinity::pin(client);
        }
    }

    fn as_server(&self) {
        if let Some((_, server)) = self.placement {
            affinity::pin(server);
        }
    }

    fn check(&mut self, ok: bool, what: &str, request: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED {request}: {what} differs from the single-index oracle");
        }
    }

    /// One read through every layer, twice through the caching ones.
    fn read(&mut self, index: u64) -> Result<(), Failure> {
        let read = self.script.read(index);
        let request: SearchRequest = read.request();
        let wire_request = read.http();
        let first = format!("r{index}");
        let repeat = format!("r{index}+");
        let Run { stacks, tracer, .. } = self;

        let expected = tracer.span(&first, "core.topk.search", None, || {
            stacks.single.search(&request)
        });
        let hits = tracer.span(
            &first,
            "core.sharded.search",
            Some("serve.search_miss"),
            || stacks.sharded.search(&request),
        );
        let sharded_ok = hits == expected;
        tracer.span(&first, "core.sharded.keyword_groups", None, || {
            stacks.sharded.keyword_groups(&request.keywords)
        });

        let mut serve_ok = true;
        for pass in [&first, &repeat] {
            let before = serve_hits(&stacks.serve);
            let served = tracer.span(pass, "serve.search_miss", Some("net.http_miss"), || {
                stacks.serve.search(&request)
            });
            if serve_hits(&stacks.serve) > before {
                tracer.relabel("serve.search_hit", None);
            }
            serve_ok &= served == expected;
        }

        let body = tracer.span(&first, "net.json.render", Some("net.http_miss"), || {
            hits_to_json(&expected)
        });
        let rendered = tracer.span(&first, "net.http.render", None, || {
            http::render_response(&Response::json(body.clone()), true)
        });
        std::hint::black_box(rendered);

        self.as_client();
        let Run { stacks, tracer, .. } = self;
        let mut net_ok = true;
        for pass in [&first, &repeat] {
            let before = stacks.net.response_cache_stats().hits;
            let answer = tracer.span(pass, "net.http_miss", None, || {
                stacks
                    .conn
                    .exchange(&wire_request)
                    .map(|(status, bytes)| status == 200 && bytes == body.as_bytes())
            });
            let hit = stacks.net.response_cache_stats().hits > before;
            if hit {
                tracer.relabel("net.http_hit", None);
            }
            net_ok &= answer.map_err(|e| format!("loopback search: {e}"))?;
            // What the front-end does with the request's bytes before
            // either path, priced by its own call.
            let parent = if hit { "net.http_hit" } else { "net.http_miss" };
            let parsed = tracer.span(pass, "net.http.parse", Some(parent), || {
                http::parse_head(&wire_request)
                    .ok()
                    .flatten()
                    .and_then(|head| http::build_request(&head, Vec::new()).ok())
            });
            net_ok &= parsed.is_some_and(|r| r.path == "/search");
        }
        self.as_server();
        self.body_bytes += body.len() as u64;
        self.bodies += 1;
        self.check(sharded_ok, "the sharded engine's hit list", &first);
        self.check(serve_ok, "the serving layer's hit list", &first);
        self.check(net_ok, "the socket's body", &first);
        Ok(())
    }

    /// The script's next publish through every layer of the write path.
    fn publish(&mut self) -> Result<(), Failure> {
        let id = format!("p{}", self.published);
        let delta = self.script.publish(self.published, self.corpus).delta();
        self.published += 1;
        let Run { stacks, tracer, .. } = self;

        let encoded = tracer.span(&id, "core.wire.delta_encode", None, || {
            wire::encode_delta(&delta)
        });
        let decoded = tracer.span(&id, "core.wire.delta_decode", None, || {
            wire::read_delta(encoded.as_slice())
        });
        let body = encode_update(&UpdateBody::Publish(delta.clone()));
        let update = tracer.span(&id, "net.update.decode", Some("net.update"), || {
            decode_update(&body)
        });
        let codec_ok = decoded.is_ok_and(|d| d == delta)
            && update.is_ok_and(|u| u == UpdateBody::Publish(delta.clone()));

        stacks.single.apply_delta(&delta);
        tracer.span(
            &id,
            "core.update.delta_signature",
            Some("serve.publish"),
            || stacks.sharded.delta_signature(&delta),
        );
        let mut applied = Vec::new();
        for engine in [&mut stacks.sharded, &mut stacks.twin] {
            let to_apply = delta.clone();
            applied.push(tracer.span(
                &id,
                "core.update.apply_delta",
                Some("serve.publish"),
                || engine.apply_delta(to_apply),
            ));
        }
        let to_publish = delta.clone();
        let (stats, epoch) = tracer.span(&id, "serve.publish", Some("net.update"), || {
            stacks.serve.publish_with_epoch(to_publish)
        });
        applied.push(stats);

        let request = post_update(&body);
        let expected = expected_ack(self.published);
        self.as_client();
        let Run { stacks, tracer, .. } = self;
        let acked = tracer
            .span(&id, "net.update", None, || {
                stacks
                    .conn
                    .exchange(&request)
                    .map(|(status, bytes)| status == 200 && bytes == expected.as_bytes())
            })
            .map_err(|e| format!("loopback update: {e}"))?;
        self.as_server();
        let counts_ok = applied
            .iter()
            .all(|s| s.removed == UPSERTS && s.added == UPSERTS)
            && epoch == self.published;
        self.check(codec_ok, "the delta after the wire codecs", &id);
        self.check(counts_ok && acked, "a publish's counts, epoch or ack", &id);
        Ok(())
    }
}

/// Which statistic of a layer's spans a timing metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stat {
    P50,
    P99,
    /// p50 of the spans' self times.
    OwnP50,
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Every timing metric: its name in `BENCHMARK.json`, the layer whose
/// spans it summarises, the statistic, and nanoseconds per unit (a
/// batched search of sixteen is reported per request).
const TIMINGS: &[(&str, &str, Stat, f64)] = &[
    ("core.topk.search_us_p50", "core.topk.search", Stat::P50, US),
    ("core.topk.search_us_p99", "core.topk.search", Stat::P99, US),
    (
        "core.sharded.search_us_p50",
        "core.sharded.search",
        Stat::P50,
        US,
    ),
    (
        "core.sharded.search_us_p99",
        "core.sharded.search",
        Stat::P99,
        US,
    ),
    (
        "core.sharded.search_many16_us_per_req",
        "core.sharded.search_many16",
        Stat::P50,
        16.0 * US,
    ),
    (
        "core.sharded.keyword_groups_us_p50",
        "core.sharded.keyword_groups",
        Stat::P50,
        US,
    ),
    ("serve.search_hit_us_p50", "serve.search_hit", Stat::P50, US),
    (
        "serve.search_miss_us_p50",
        "serve.search_miss",
        Stat::P50,
        US,
    ),
    (
        "serve.search_miss_us_p99",
        "serve.search_miss",
        Stat::P99,
        US,
    ),
    (
        "serve.miss_self_us_p50",
        "serve.search_miss",
        Stat::OwnP50,
        US,
    ),
    ("net.json.render_us_p50", "net.json.render", Stat::P50, US),
    ("net.http.parse_us_p50", "net.http.parse", Stat::P50, US),
    ("net.http.render_us_p50", "net.http.render", Stat::P50, US),
    ("net.http_hit_us_p50", "net.http_hit", Stat::P50, US),
    ("net.http_hit_us_p99", "net.http_hit", Stat::P99, US),
    ("net.hit_self_us_p50", "net.http_hit", Stat::OwnP50, US),
    ("net.http_miss_us_p50", "net.http_miss", Stat::P50, US),
    ("net.http_miss_us_p99", "net.http_miss", Stat::P99, US),
    ("net.miss_self_us_p50", "net.http_miss", Stat::OwnP50, US),
    (
        "core.update.apply_delta_ms_p50",
        "core.update.apply_delta",
        Stat::P50,
        MS,
    ),
    (
        "core.update.delta_signature_us_p50",
        "core.update.delta_signature",
        Stat::P50,
        US,
    ),
    (
        "core.wire.delta_encode_us_p50",
        "core.wire.delta_encode",
        Stat::P50,
        US,
    ),
    (
        "core.wire.delta_decode_us_p50",
        "core.wire.delta_decode",
        Stat::P50,
        US,
    ),
    (
        "net.update.decode_us_p50",
        "net.update.decode",
        Stat::P50,
        US,
    ),
    ("serve.publish_ms_p50", "serve.publish", Stat::P50, MS),
    (
        "serve.publish_self_ms_p50",
        "serve.publish",
        Stat::OwnP50,
        MS,
    ),
    ("net.update_ms_p50", "net.update", Stat::P50, MS),
    ("net.update_self_ms_p50", "net.update", Stat::OwnP50, MS),
    ("core.ingest.build_ms", "core.ingest.build", Stat::P50, MS),
    (
        "core.persist.image_write_ms",
        "core.persist.image_write",
        Stat::P50,
        MS,
    ),
    (
        "core.persist.image_load_ms",
        "core.persist.image_load",
        Stat::P50,
        MS,
    ),
];

/// Runs the trace and returns the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<RunResult, Failure> {
    let corpus = Corpus::new(seed);
    let script = Script::new(workload, seed);
    let (app, db) = corpus::application();
    let core_failure = |e: dash_core::CoreError| format!("engine build: {e}");
    let mut tracer = Tracer::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    // Every thread the stacks start inherits the server's CPU, and the
    // engines probe the machine's parallelism from it, as the serving
    // child's do.
    let placement = affinity::placement();
    match placement {
        Some((client, server)) if affinity::pin(server) => {
            println!("note: layers called on CPU {server}, the socket's client on CPU {client}")
        }
        _ => println!("note: fewer than two CPUs to place client and server on; not pinned"),
    }

    // Build and image, once.
    let batches: Vec<_> = corpus.shard_batches().collect();
    let fragments: Vec<_> = batches.iter().flatten().cloned().collect();
    println!(
        "{} seed {seed} traced: corpus {:016x}, script {:016x}",
        workload.name(),
        corpus::sharded_fingerprint(&fragments),
        script.fingerprint(&corpus)
    );
    let sharded = tracer
        .span("setup", "core.ingest.build", None, || {
            ShardedEngine::builder(app.clone())
                .source(IngestSource::Batches(Box::new(batches.into_iter())))
                .build()
        })
        .map_err(core_failure)?;
    let mut image = Vec::new();
    tracer
        .span("setup", "core.persist.image_write", None, || {
            sharded.write_image(&mut image)
        })
        .map_err(|e| format!("image write: {e}"))?;
    let reloaded = tracer
        .span("setup", "core.persist.image_load", None, || {
            ShardedEngine::builder(app.clone())
                .source(IngestSource::Image(&image))
                .build()
        })
        .map_err(core_failure)?;
    let single = DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new())
        .map_err(core_failure)?;
    drop(fragments);
    let image_mb = image.len() as f64 / (1 << 20) as f64;
    drop(image);

    let served = Arc::new(DashServer::from_engine(
        sharded.fork(),
        ServeConfig::default(),
    ));
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| e.to_string())?;
    let net = NetServer::serve_primary(served, db, listener, NetConfig::default())
        .map_err(|e| e.to_string())?;
    let conn = Conn::connect(net.addr()).map_err(|e| e.to_string())?;
    let reads = workload.trace_reads(seconds);

    // Batched search on the bare engine, sixteen script reads a call,
    // before anything is published.
    let mut batched_ok = true;
    for chunk in 0..reads / 16 {
        let requests: Vec<SearchRequest> = (chunk * 16..(chunk + 1) * 16)
            .map(|i| script.read(i).request())
            .collect();
        let id = format!("b{chunk}");
        let answers = tracer.span(&id, "core.sharded.search_many16", None, || {
            sharded.search_many(&requests)
        });
        batched_ok &= answers == single.search_many(&requests);
    }

    let mut run = Run {
        script: &script,
        corpus: &corpus,
        placement,
        stacks: Stacks {
            single,
            twin: reloaded,
            serve: DashServer::from_engine(sharded.fork(), ServeConfig::default()),
            sharded,
            net,
            conn,
        },
        tracer,
        published: 0,
        body_bytes: 0,
        bodies: 0,
        attempted: 0,
        failed: 0,
    };
    run.check(batched_ok, "a batched search", "search_many16");
    for index in 0..reads {
        run.read(index)?;
        if workload == Workload::RwHeavy && (index + 1) % CYCLE_READS == 0 {
            run.publish()?;
        }
    }
    for _ in 0..TAIL_PUBLISHES {
        run.publish()?;
    }
    // A few more reads: they check the state the publishes left in
    // every layer, and the caches count their invalidations when next
    // touched.
    for index in reads..reads + FINAL_READS {
        run.read(index)?;
    }

    let tracer = &run.tracer;
    for &(name, layer, stat, ns_per_unit) in TIMINGS {
        let sorted = match stat {
            Stat::P50 | Stat::P99 => tracer.durations_ns(layer),
            Stat::OwnP50 => tracer.self_times_ns(layer),
        };
        if sorted.is_empty() {
            return Err(format!("no span of {layer}"));
        }
        let q = if stat == Stat::P99 { 0.99 } else { 0.5 };
        metrics.insert(
            name.to_string(),
            percentile(&sorted, q) as f64 / ns_per_unit,
        );
    }
    let ratio = metrics["core.sharded.search_us_p50"] / metrics["core.topk.search_us_p50"];
    let build_s = metrics["core.ingest.build_ms"] / 1e3;
    let mut put = |name: &str, value: f64| metrics.insert(name.to_string(), value);
    put("core.sharded.vs_single_ratio", ratio);
    put(
        "core.ingest.fragments_per_s",
        corpus::FRAGMENTS as f64 / build_s,
    );
    put("core.persist.image_mb", image_mb);

    // Counts, from the layers' own counters.
    let serve = run.stacks.serve.stats();
    let cache = run.stacks.net.response_cache_stats();
    let share = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let publishes = run.published.max(1) as f64;
    put(
        "serve.batch.mean_size",
        serve.batched_requests as f64 / serve.batches.max(1) as f64,
    );
    put(
        "serve.cache.hit_share",
        share(serve.cache.hits, serve.cache.misses),
    );
    put(
        "net.response_cache.hit_share",
        share(cache.hits, cache.misses),
    );
    put(
        "serve.cache.invalidated_per_publish",
        serve.cache.invalidated as f64 / publishes,
    );
    put(
        "net.response_cache.invalidated_per_publish",
        cache.invalidated as f64 / publishes,
    );
    put(
        "net.json.bytes_per_resp",
        run.body_bytes as f64 / run.bodies.max(1) as f64,
    );

    // The waterfall: do the layers' shares add up to the request?
    let parts = [
        "core.sharded.search_us_p50",
        "serve.miss_self_us_p50",
        "net.json.render_us_p50",
        "net.http.parse_us_p50",
        "net.miss_self_us_p50",
    ];
    let sum: f64 = parts.iter().map(|name| metrics[*name]).sum();
    let whole = metrics["net.http_miss_us_p50"];
    println!(
        "note: waterfall {} = {sum:.1} us against net.http_miss_us_p50 {whole:.1} us ({:+.1} %)",
        parts.join(" + "),
        (sum / whole - 1.0) * 100.0
    );
    println!(
        "note: {} spans ({} reads twice, {} publishes), serve cache {}/{} hits/misses, \
         response cache {}/{}",
        tracer.spans.len(),
        reads,
        run.published,
        serve.cache.hits,
        serve.cache.misses,
        cache.hits,
        cache.misses,
    );
    let path = std::path::PathBuf::from(format!(
        "benchmark/out/trace-{seed}-{}.jsonl",
        workload.name()
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("note: spans written to {}", path.display());
    Ok(RunResult {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request: &str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<&'static str>,
    ) -> Span {
        Span {
            request: request.to_string(),
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn every_per_layer_metric_has_exactly_one_source() {
        let counted = [
            "core.sharded.vs_single_ratio",
            "core.ingest.fragments_per_s",
            "core.persist.image_mb",
            "serve.batch.mean_size",
            "serve.cache.hit_share",
            "net.response_cache.hit_share",
            "serve.cache.invalidated_per_publish",
            "net.response_cache.invalidated_per_publish",
            "net.json.bytes_per_resp",
        ];
        let mut ours: Vec<&str> = TIMINGS.iter().map(|t| t.0).chain(counted).collect();
        ours.sort_unstable();
        let mut listed: Vec<&str> = crate::spec::spec()
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        listed.sort_unstable();
        assert_eq!(ours, listed);
    }

    #[test]
    fn self_time_is_the_span_minus_its_own_requests_children() {
        let tracer = Tracer {
            clock: Instant::now(),
            spans: vec![
                span("r0", "core", 0, 30, Some("serve")),
                span("r0", "serve", 40, 140, Some("net")),
                span("r0", "json", 150, 160, Some("net")),
                span("r0", "net", 200, 400, None),
                // Another request's children are not r0's.
                span("r1", "core", 500, 570, Some("serve")),
                span("r1", "serve", 600, 680, Some("net")),
                // A child longer than its parent clamps at zero.
                span("r2", "core", 700, 900, Some("serve")),
                span("r2", "serve", 900, 950, None),
            ],
        };
        assert_eq!(tracer.durations_ns("serve"), vec![50, 80, 100]);
        assert_eq!(tracer.self_times_ns("serve"), vec![0, 10, 70]);
        assert_eq!(tracer.self_times_ns("net"), vec![200 - 100 - 10]);
        assert_eq!(tracer.self_times_ns("core"), vec![30, 70, 200]);
        assert!(tracer.self_times_ns("absent").is_empty());
    }

    #[test]
    fn spans_record_in_call_order_and_can_be_relabelled() {
        let mut tracer = Tracer::new();
        let out = tracer.span("r0", "serve.search_miss", Some("net.http_miss"), || 7);
        assert_eq!(out, 7);
        tracer.relabel("serve.search_hit", None);
        tracer.span("r0", "net.http_miss", None, || ());
        assert_eq!(tracer.spans[0].layer, "serve.search_hit");
        assert_eq!(tracer.spans[0].parent, None);
        assert!(tracer.spans[0].end_ns <= tracer.spans[1].start_ns);
        assert!(tracer.spans[1].start_ns <= tracer.spans[1].end_ns);
    }
}
