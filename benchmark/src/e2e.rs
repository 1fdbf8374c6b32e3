//! The end-to-end run (`--trace 0`): three rounds, each against a
//! fresh serving child over real loopback HTTP, one client thread, the
//! answers checked against the parent's own single-index oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dash_core::{DashEngine, Fragment};
use dash_mapreduce::WorkflowStats;
use dash_net::json::hits_to_json;
use dash_net::server::{encode_update, UpdateBody};
use dash_webapp::WebApplication;

use crate::affinity;
use crate::child::Server;
use crate::client::Conn;
use crate::corpus::{self, Corpus};
use crate::rng::fnv64;
use crate::script::{
    expected_ack, post_update, Publish, Read, Script, Workload, CYCLE_READS, TAIL_PUBLISHES,
    UPSERTS,
};
use crate::spec::RunResult;
use crate::stats::{self, Sample, Slice};
use crate::Failure;

pub const ROUNDS: u64 = 3;
const WARM_UP: Duration = Duration::from_millis(500);
/// `miss-light` checks every 16th read against the oracle.
const CHECK_EVERY: u64 = 16;

fn ns_since(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

fn io_failure(what: &str) -> impl Fn(std::io::Error) -> Failure + '_ {
    move |e| format!("{what}: {e}")
}

/// The parent's reference: the corpus as fragments and a single-index
/// engine over them — no shard, serving or socket code in common with
/// the child's stack.
struct Oracle {
    app: WebApplication,
    fragments: Vec<Fragment>,
    engine: DashEngine,
}

fn build(app: &WebApplication, fragments: &[Fragment]) -> Result<DashEngine, Failure> {
    DashEngine::from_fragments(app.clone(), fragments, WorkflowStats::new())
        .map_err(|e| format!("oracle build: {e}"))
}

fn digest_of(engine: &DashEngine, read: &Read) -> u64 {
    fnv64(hits_to_json(&engine.search(&read.request())).as_bytes())
}

impl Oracle {
    fn new(corpus: &Corpus) -> Result<Oracle, Failure> {
        let (app, _) = corpus::application();
        let fragments = corpus.groups(0, corpus::GROUPS);
        let engine = build(&app, &fragments)?;
        Ok(Oracle {
            app,
            fragments,
            engine,
        })
    }

    /// A from-scratch engine over the corpus with the first
    /// `published` publishes replayed at fragment level — the final
    /// state a round must have reached, derived without `apply_delta`.
    fn after(
        &mut self,
        script: &Script,
        corpus: &Corpus,
        published: u64,
    ) -> Result<DashEngine, Failure> {
        let slot = |publish: &Publish, at: usize| publish.group * corpus::GROUP_SIZE + at;
        let publishes: Vec<Publish> = (0..published).map(|j| script.publish(j, corpus)).collect();
        for publish in &publishes {
            for (at, add) in publish.adds.iter().enumerate() {
                self.fragments[slot(publish, at)] = add.clone();
            }
        }
        let engine = build(&self.app, &self.fragments);
        for publish in &publishes {
            for at in 0..UPSERTS {
                self.fragments[slot(publish, at)] = corpus.fragment(publish.group, at + 1);
            }
        }
        engine
    }
}

/// One client thread's traffic against one child, over one keep-alive
/// connection, one request at a time.
struct Traffic<'a> {
    script: &'a Script,
    corpus: &'a Corpus,
    conn: Conn,
    clock: Instant,
    /// `hot-fit`: the pool's request bytes and expected body digests.
    pool_http: Vec<Vec<u8>>,
    pool_digest: &'a [u64],
    next_read: u64,
    published: u64,
    reads: Vec<Sample>,
    updates: Vec<Sample>,
    /// Reads to compare with the oracle once the window is over:
    /// script index and body digest.
    unchecked: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Traffic<'_> {
    /// Issues the script's reads until `deadline`; on `rw-heavy` every
    /// 32nd read is followed by a publish.
    fn reads_until(&mut self, deadline: Instant) -> Result<(), Failure> {
        while Instant::now() < deadline {
            self.read()?;
            if self.script.workload == Workload::RwHeavy
                && self.next_read.is_multiple_of(CYCLE_READS)
            {
                self.publish()?;
            }
        }
        Ok(())
    }

    /// The script's next read, timed from its bytes handed to the
    /// socket to its answer's last byte.
    fn read(&mut self) -> Result<(), Failure> {
        let index = self.next_read;
        self.next_read += 1;
        // Request bytes are ready before the clock starts.
        let built;
        let request = if self.pool_http.is_empty() {
            built = self.script.read(index).http();
            &built
        } else {
            &self.pool_http[self.script.pool_index(index)]
        };
        let start_ns = ns_since(self.clock);
        let (status, body) = self.conn.exchange(request).map_err(io_failure("search"))?;
        let end_ns = ns_since(self.clock);
        let digest = fnv64(body);
        let mut ok = status == 200;
        match self.script.workload {
            Workload::HotFit => ok &= digest == self.pool_digest[self.script.pool_index(index)],
            Workload::MissLight if index.is_multiple_of(CHECK_EVERY) => {
                self.unchecked.push((index, digest))
            }
            // Reads before the round's first publish still see the
            // corpus the oracle holds.
            Workload::RwHeavy if self.published == 0 => self.unchecked.push((index, digest)),
            _ => {}
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.reads.push(Sample {
            start_ns,
            end_ns,
            ok,
        });
        Ok(())
    }

    /// The script's next `POST /update`, timed send to ack; the ack
    /// must be 200 with the expected counts and epoch.
    fn publish(&mut self) -> Result<(), Failure> {
        let delta = self.script.publish(self.published, self.corpus).delta();
        let request = post_update(&encode_update(&UpdateBody::Publish(delta)));
        self.published += 1;
        let expected = expected_ack(self.published);
        let start_ns = ns_since(self.clock);
        let (status, body) = self.conn.exchange(&request).map_err(io_failure("update"))?;
        let end_ns = ns_since(self.clock);
        let ok = status == 200 && body == expected.as_bytes();
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.updates.push(Sample {
            start_ns,
            end_ns,
            ok,
        });
        Ok(())
    }

    /// One untimed read; returns whether the answer was 200 with the
    /// expected body.
    fn fetch(&mut self, request: &[u8], expected: u64) -> Result<bool, Failure> {
        let (status, body) = self
            .conn
            .exchange(request)
            .map_err(io_failure("check read"))?;
        let ok = status == 200 && fnv64(body) == expected;
        self.attempted += 1;
        self.failed += u64::from(!ok);
        Ok(ok)
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    slices: Vec<Slice>,
    update_p50_ms: f64,
    updates: usize,
    cpu_us_per_request: f64,
    /// The child's peak resident set when set-up ended, when the
    /// window opened and when it closed.
    rss_mb: [f64; 3],
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn in_window(sample: &Sample, open_ns: u64, close_ns: u64) -> bool {
    sample.ok && sample.start_ns >= open_ns && sample.end_ns < close_ns
}

/// What the rounds of one run share.
struct Run<'a> {
    seed: u64,
    /// The CPU the serving children are pinned to, if the box has two.
    server_cpu: Option<usize>,
    window: Duration,
    script: &'a Script,
    corpus: &'a Corpus,
    oracle: Oracle,
    /// `hot-fit`: the oracle's body digest of every pool request.
    pool_digest: Vec<u64>,
    expected_fingerprint: u64,
    /// The rebuilt oracle of the last final-state check and the number
    /// of publishes it holds; read-only rounds all end on the same.
    final_state: Option<(u64, DashEngine)>,
}

impl Run<'_> {
    fn round(&mut self, number: u64) -> Result<Round, Failure> {
        let Run {
            script,
            corpus,
            oracle,
            pool_digest,
            final_state,
            ..
        } = self;
        let (script, corpus, window) = (*script, *corpus, self.window);
        let pool_digest: &[u64] = pool_digest;
        let expected_fingerprint = self.expected_fingerprint;
        let workload = script.workload;
        let clock = Instant::now();
        let mut server =
            Server::spawn(self.seed, self.server_cpu).map_err(io_failure("serving child"))?;
        let mut correct = true;
        if server.fingerprint != expected_fingerprint || server.fragments != corpus::FRAGMENTS {
            println!(
                "FAILED corpus: the child serves {:016x} ({} fragments), the oracle holds {:016x}",
                server.fingerprint, server.fragments, expected_fingerprint
            );
            correct = false;
        }
        let conn = Conn::connect(server.addr).map_err(io_failure("connect"))?;
        let mut traffic = Traffic {
            script,
            corpus,
            conn,
            clock,
            pool_http: script.pool().iter().map(Read::http).collect(),
            pool_digest,
            next_read: 0,
            published: 0,
            reads: Vec::with_capacity(1 << 21),
            updates: Vec::new(),
            unchecked: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        // Prefill (`hot-fit` only; the pool is empty elsewhere): every
        // pool request once, so the window finds the byte cache filled.
        // It is part of set-up time: a change that makes misses dearer
        // shows here.
        for (request, digest) in traffic.pool_http.clone().iter().zip(pool_digest) {
            correct &= traffic.fetch(request, *digest)?;
        }
        let setup_s = clock.elapsed().as_secs_f64();
        let rss_setup_mb = server.peak_rss_mb().map_err(io_failure("/proc"))?;

        traffic.reads_until(Instant::now() + WARM_UP)?;
        let rss_open_mb = server.peak_rss_mb().map_err(io_failure("/proc"))?;
        let cpu_open = server.cpu_seconds().map_err(io_failure("/proc"))?;
        let done_open = traffic.reads.len() + traffic.updates.len();
        let open_ns = ns_since(clock);
        traffic.reads_until(Instant::now() + window)?;
        let close_ns = open_ns + window.as_nanos() as u64;
        let cpu_close = server.cpu_seconds().map_err(io_failure("/proc"))?;
        let done_close = traffic.reads.len() + traffic.updates.len();
        let rss_close_mb = server.peak_rss_mb().map_err(io_failure("/proc"))?;

        if workload != Workload::RwHeavy {
            // No write rode beside the reads; price the write path on the
            // caches the window filled.
            for _ in 0..TAIL_PUBLISHES {
                traffic.publish()?;
            }
        }
        let mut update_ms: Vec<f64> = traffic
            .updates
            .iter()
            .filter(|u| workload != Workload::RwHeavy || in_window(u, open_ns, close_ns))
            .filter(|u| u.ok)
            .map(|u| u.latency_ns() as f64 / 1e6)
            .collect();
        update_ms.sort_by(f64::total_cmp);
        if update_ms.is_empty() {
            return Err("no publish completed in the window".to_string());
        }

        // Correctness, outside every timing. First the reads the window
        // set aside, against the corpus as built.
        let mismatched = traffic
            .unchecked
            .iter()
            .filter(|(index, digest)| digest_of(&oracle.engine, &script.read(*index)) != *digest)
            .count() as u64;
        if mismatched > 0 {
            println!("FAILED reads: {mismatched} window answers differ from the oracle's");
            traffic.failed += mismatched;
            correct = false;
        }
        // Then the state the publishes left, against a rebuilt oracle.
        let published = traffic.published;
        if final_state.as_ref().map(|(at, _)| *at) != Some(published) {
            *final_state = Some((published, oracle.after(script, corpus, published)?));
        }
        let (_, rebuilt) = final_state.as_ref().expect("set above");
        for read in script.check_set(published, corpus) {
            if !traffic.fetch(&read.http(), digest_of(rebuilt, &read))? {
                println!(
                "FAILED final state: {:?} differs from the rebuilt oracle after {published} publishes",
                read.ranks
            );
                correct = false;
            }
        }
        if !server.alive() {
            return Err("the serving child died".to_string());
        }
        drop(server);

        // Slices: even stretches of the window — except on `rw-heavy`,
        // where a slice is the whole read-and-publish cycles that fit
        // one, from publish ack to publish ack, so that no slice wins
        // by catching fewer writes than its reads paid for.
        let edges = if workload == Workload::RwHeavy {
            let acks: Vec<u64> = traffic
                .updates
                .iter()
                .filter(|u| in_window(u, open_ns, close_ns))
                .map(|u| u.end_ns)
                .collect();
            let slices = (close_ns - open_ns) / workload.slice_ns();
            let cycles = (acks.len().saturating_sub(1) as u64 / slices.max(1)).max(1);
            acks.into_iter().step_by(cycles as usize).collect()
        } else {
            stats::even_edges(open_ns, close_ns, workload.slice_ns())
        };
        let slices = stats::cut(&traffic.reads, &edges);
        println!(
        "round {number}: setup {setup_s:.3} s, {} reads in the window, {} publishes, slices p50 {:?} us, per second {:?}",
        slices.iter().map(|s| s.latencies_ns.len()).sum::<usize>(),
        update_ms.len(),
        slices
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| stats::percentile(&s.latencies_ns, 0.5) / 1_000)
            .collect::<Vec<_>>(),
        slices.iter().map(|s| s.per_second() as u64).collect::<Vec<_>>(),
    );
        Ok(Round {
            setup_s,
            slices,
            update_p50_ms: update_ms[(update_ms.len() - 1) / 2],
            updates: update_ms.len(),
            cpu_us_per_request: (cpu_close - cpu_open) * 1e6
                / (done_close - done_open).max(1) as f64,
            rss_mb: [rss_setup_mb, rss_open_mb, rss_close_mb],
            attempted: traffic.attempted,
            failed: traffic.failed,
            correct,
        })
    }
}

/// Runs `workload` end to end and returns the result; notes go to
/// standard output as the run proceeds.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<RunResult, Failure> {
    let corpus = Corpus::new(seed);
    let script = Script::new(workload, seed);
    let oracle = Oracle::new(&corpus)?;
    let expected_fingerprint = corpus::sharded_fingerprint(&oracle.fragments);
    println!(
        "{} seed {seed}: corpus {expected_fingerprint:016x}, script {:016x}",
        workload.name(),
        script.fingerprint(&corpus)
    );
    // One CPU for the load generator, another for the server.
    let placement = affinity::placement();
    match placement {
        Some((client, server)) if affinity::pin(client) => {
            println!("note: client pinned to CPU {client}, serving children to CPU {server}")
        }
        _ => println!("note: fewer than two CPUs to place client and server on; not pinned"),
    }
    let mut run = Run {
        seed,
        server_cpu: placement.map(|(_, server)| server),
        window: Duration::from_secs_f64(seconds as f64 / ROUNDS as f64),
        script: &script,
        corpus: &corpus,
        pool_digest: script
            .pool()
            .iter()
            .map(|read| digest_of(&oracle.engine, read))
            .collect(),
        oracle,
        expected_fingerprint,
        final_state: None,
    };
    let rounds = (1..=ROUNDS)
        .map(|number| run.round(number))
        .collect::<Result<Vec<Round>, Failure>>()?;

    let slices: Vec<&Slice> = rounds.iter().flat_map(|r| &r.slices).collect();
    let best = stats::best(&slices).ok_or("no read completed in any window")?;
    let mut pooled: Vec<u64> = slices
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    println!(
        "note: whole windows pooled, {} reads: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; \
         the best slices hold at least {} reads; {} publishes timed a round",
        pooled.len(),
        stats::percentile(&pooled, 0.5) as f64 / 1e3,
        stats::percentile(&pooled, 0.9) as f64 / 1e3,
        stats::percentile(&pooled, 0.99) as f64 / 1e3,
        best.least_samples,
        rounds.iter().map(|r| r.updates).min().unwrap_or(0),
    );
    println!(
        "note: peak RSS a round, MiB, at the end of set-up / window open / window close: {:?}",
        rounds
            .iter()
            .map(|r| r.rss_mb.map(|mb| mb as u64))
            .collect::<Vec<_>>()
    );
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let lowest = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
    let metrics = BTreeMap::from([
        ("search_p50_us".to_string(), best.p50_ns as f64 / 1e3),
        ("search_p90_us".to_string(), best.p90_ns as f64 / 1e3),
        ("search_qps".to_string(), best.per_second),
        (
            "update_p50_ms".to_string(),
            lowest(per_round(|r| r.update_p50_ms)),
        ),
        (
            "setup_s".to_string(),
            stats::median_f64(&per_round(|r| r.setup_s)),
        ),
        (
            "server_cpu_us_per_req".to_string(),
            lowest(per_round(|r| r.cpu_us_per_request)),
        ),
        (
            "server_peak_rss_mb".to_string(),
            stats::median_f64(&per_round(|r| r.rss_mb[0])),
        ),
    ]);
    Ok(RunResult {
        correct: rounds.iter().all(|r| r.correct),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpListener};

    /// A front-end that answers every request with `200` and the body
    /// `[]`, and counts the requests it saw.
    fn canned() -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = 0u64;
            let mut pending = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return seen,
                    Ok(n) => pending.extend_from_slice(&chunk[..n]),
                }
                while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    pending.drain(..end + 4);
                    seen += 1;
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]")
                        .unwrap();
                }
            }
        });
        (addr, server)
    }

    fn traffic<'a>(
        script: &'a Script,
        corpus: &'a Corpus,
        pool_digest: &'a [u64],
        addr: SocketAddr,
    ) -> Traffic<'a> {
        Traffic {
            script,
            corpus,
            conn: Conn::connect(addr).unwrap(),
            clock: Instant::now(),
            pool_http: script.pool().iter().map(Read::http).collect(),
            pool_digest,
            next_read: 0,
            published: 0,
            reads: Vec::new(),
            updates: Vec::new(),
            unchecked: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    #[test]
    fn pool_reads_are_checked_as_they_arrive_and_a_second_leg_carries_on() {
        let corpus = Corpus::new(1);
        let script = Script::new(Workload::HotFit, 1);
        let mut digests = vec![fnv64(b"[]"); script.pool().len()];
        // One pool entry "expects" another body: its reads must fail.
        let poisoned = script.pool_index(3);
        digests[poisoned] = 0;
        let (addr, server) = canned();
        let mut traffic = traffic(&script, &corpus, &digests, addr);
        traffic
            .reads_until(Instant::now() + Duration::from_millis(50))
            .unwrap();
        let first_leg = traffic.reads.len() as u64;
        assert!(first_leg >= 4, "50 ms fit only {first_leg} reads");
        assert_eq!(traffic.next_read, first_leg);
        traffic
            .reads_until(Instant::now() + Duration::from_millis(20))
            .unwrap();
        let reads = traffic.reads.len() as u64;
        assert!(reads > first_leg);
        assert_eq!(traffic.next_read, reads);
        assert_eq!(traffic.attempted, reads);
        let expected_failures = (0..reads)
            .filter(|&i| script.pool_index(i) == poisoned)
            .count() as u64;
        assert!(expected_failures >= 1);
        assert_eq!(traffic.failed, expected_failures);
        assert_eq!(
            traffic.reads.iter().filter(|s| !s.ok).count() as u64,
            expected_failures
        );
        drop(traffic);
        assert_eq!(server.join().unwrap(), reads);
    }

    #[test]
    fn reads_are_request_response_and_every_16th_is_set_aside_for_the_oracle() {
        let corpus = Corpus::new(1);
        let script = Script::new(Workload::MissLight, 1);
        let (addr, server) = canned();
        let mut traffic = traffic(&script, &corpus, &[], addr);
        traffic
            .reads_until(Instant::now() + Duration::from_millis(50))
            .unwrap();
        let reads = traffic.reads.len() as u64;
        assert!(reads >= 17, "50 ms fit only {reads} reads");
        for pair in traffic.reads.windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns);
        }
        let set_aside: Vec<u64> = traffic.unchecked.iter().map(|(i, _)| *i).collect();
        let every_16th: Vec<u64> = (0..reads).filter(|i| i % CHECK_EVERY == 0).collect();
        assert_eq!(set_aside, every_16th);
        assert!(traffic.unchecked.iter().all(|(_, d)| *d == fnv64(b"[]")));
        assert_eq!(traffic.failed, 0);
        drop(traffic);
        assert_eq!(server.join().unwrap(), reads);
    }
}
