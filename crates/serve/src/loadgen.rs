//! A deterministic closed-loop load generator for [`DashServer`]:
//! concurrent clients issuing mixed search/update traffic, reporting
//! p50/p99 latency and sustained qps.
//!
//! **Closed loop**: every client issues its next operation only after
//! the previous one completed, so offered load adapts to serving
//! capacity (each client blocks until answered, so the batcher's
//! queue never holds more than one request per client) and latency
//! percentiles describe real end-to-end request times.
//!
//! **Deterministic**: the operation scripts are a pure function of the
//! [`LoadProfile`] (seeded xoshiro streams, one per client) — two runs
//! with the same profile, vocabulary and update pool issue exactly the
//! same requests and publish exactly the same deltas, in the same
//! per-client order. Updates are issued by client 0 only, so the final
//! index state is deterministic too, which is what lets CI assert
//! "after the smoke run, served results still equal a fresh engine".
//! Wall-clock measurements (latency, qps) naturally vary run to run.

use std::time::{Duration, Instant};

use dash_core::{Fragment, IndexDelta, SearchRequest};
use rand::distr::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{DashServer, ServeStats};

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Operations each client issues (searches, plus client 0's
    /// updates, which replace a search slot).
    pub ops_per_client: usize,
    /// Client 0 publishes a delta every `update_every`-th operation;
    /// 0 disables updates (search-only traffic).
    pub update_every: usize,
    /// Keywords per search, drawn uniformly from `1..=max_keywords`.
    pub max_keywords: usize,
    /// `k` of every search request.
    pub k: usize,
    /// Size thresholds sampled per request.
    pub min_sizes: Vec<u64>,
    /// Zipf exponent of the keyword draw: `0.0` (the default) picks
    /// keywords uniformly from the vocabulary; a positive exponent
    /// draws vocabulary *ranks* from [`rand::distr::Zipf`], so
    /// `vocab[0]` is the hottest term. Scale benches set this to the
    /// exponent their corpus was generated with, making query traffic
    /// hit the index the way the corpus was built (realistic cache-hit
    /// rates).
    pub keyword_skew: f64,
    /// Root seed; client `i` derives its stream from `seed + i`.
    pub seed: u64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            clients: 4,
            ops_per_client: 200,
            update_every: 16,
            max_keywords: 2,
            k: 10,
            min_sizes: vec![1, 20, 100],
            keyword_skew: 0.0,
            seed: 7,
        }
    }
}

/// One scripted client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOp {
    /// A keyword search through the full serving path
    /// (cache → caller-led micro-batch → snapshot).
    Search(SearchRequest),
    /// A delta publication (client 0 only): an upsert or removal drawn
    /// from the update pool.
    Update(IndexDelta),
}

/// The deterministic per-client scripts for a profile: `vocab` is the
/// search keyword pool, `update_pool` the fragments update traffic
/// churns (upserts re-add a pool fragment with a bumped occurrence
/// count; removals delete it). Pure — no clock, no global RNG.
pub fn scripts(
    profile: &LoadProfile,
    vocab: &[String],
    update_pool: &[Fragment],
) -> Vec<Vec<LoadOp>> {
    assert!(!vocab.is_empty(), "load generation needs a vocabulary");
    assert!(
        !profile.min_sizes.is_empty(),
        "load generation needs at least one min_size"
    );
    // Built once per call: the cumulative table is O(vocab), not
    // something to redo per keyword. `None` keeps the exact uniform
    // draw (and RNG stream) profiles without skew always had.
    let zipf = (profile.keyword_skew > 0.0).then(|| Zipf::new(vocab.len(), profile.keyword_skew));
    (0..profile.clients)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(profile.seed.wrapping_add(client as u64));
            (0..profile.ops_per_client)
                .map(|op| {
                    let updating = client == 0
                        && profile.update_every > 0
                        && !update_pool.is_empty()
                        && op % profile.update_every == profile.update_every - 1;
                    if updating {
                        let target = &update_pool[rng.random_range(0..update_pool.len())];
                        if rng.random_range(0u32..4) == 0 {
                            LoadOp::Update(IndexDelta::removing(vec![target.id.clone()]))
                        } else {
                            let mut occurrences = target.keyword_occurrences.clone();
                            let bump = rng.random_range(1u64..4);
                            if let Some(count) = occurrences.values_mut().next() {
                                *count += bump;
                            }
                            LoadOp::Update(IndexDelta::new(
                                vec![target.id.clone()],
                                vec![Fragment::new(
                                    target.id.clone(),
                                    occurrences,
                                    target.record_count,
                                )],
                            ))
                        }
                    } else {
                        let words = rng.random_range(1..=profile.max_keywords.max(1));
                        let keywords: Vec<&str> = (0..words)
                            .map(|_| {
                                let rank = match &zipf {
                                    Some(zipf) => zipf.sample(&mut rng),
                                    None => rng.random_range(0..vocab.len()),
                                };
                                vocab[rank].as_str()
                            })
                            .collect();
                        let min_size =
                            profile.min_sizes[rng.random_range(0..profile.min_sizes.len())];
                        LoadOp::Search(
                            SearchRequest::new(&keywords)
                                .k(profile.k)
                                .min_size(min_size),
                        )
                    }
                })
                .collect()
        })
        .collect()
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Searches completed (across all clients).
    pub searches: u64,
    /// Deltas published.
    pub updates: u64,
    /// Total hits returned (a cheap checksum that the run did work).
    pub total_hits: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Median end-to-end search latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile search latency, nanoseconds.
    pub p99_ns: u64,
    /// Sustained search throughput (searches / elapsed).
    pub qps: f64,
    /// Serving-layer counters after the run.
    pub stats: ServeStats,
    /// Per-stage latency table rendered from the server's `/metrics`
    /// registry after the run (`dash_obs::expo::stage_table`) — where
    /// the p99 lives, not just that it exists.
    pub stage_table: String,
}

impl LoadReport {
    /// Renders the report as one human-readable line.
    pub fn summary(&self) -> String {
        format!(
            "{} searches + {} updates in {:.2?}: {:.0} qps, p50 {:.1}µs, p99 {:.1}µs, \
             cache {}/{} hit",
            self.searches,
            self.updates,
            self.elapsed,
            self.qps,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.stats.cache.hits,
            self.stats.cache.hits + self.stats.cache.misses,
        )
    }
}

/// Runs the profile's scripts against a server, concurrently, and
/// aggregates latency/throughput. The server keeps running afterwards
/// (callers can verify post-run state — see
/// `tests/serve_equivalence.rs`).
pub fn run(
    server: &DashServer,
    vocab: &[String],
    update_pool: &[Fragment],
    profile: &LoadProfile,
) -> LoadReport {
    let scripts = scripts(profile, vocab, update_pool);
    let started = Instant::now();
    let per_client: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|script| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(script.len());
                    let mut updates = 0u64;
                    let mut total_hits = 0u64;
                    for op in script {
                        match op {
                            LoadOp::Search(request) => {
                                let begin = Instant::now();
                                let hits = server.search(&request);
                                latencies.push(begin.elapsed().as_nanos() as u64);
                                total_hits += hits.len() as u64;
                            }
                            LoadOp::Update(delta) => {
                                server.publish(delta);
                                updates += 1;
                            }
                        }
                    }
                    (latencies, updates, total_hits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut latencies: Vec<u64> = Vec::new();
    let mut updates = 0u64;
    let mut total_hits = 0u64;
    for (lat, up, hits) in per_client {
        latencies.extend(lat);
        updates += up;
        total_hits += hits;
    }
    latencies.sort_unstable();
    let searches = latencies.len() as u64;
    LoadReport {
        searches,
        updates,
        total_hits,
        elapsed,
        p50_ns: percentile(&latencies, 50),
        p99_ns: percentile(&latencies, 99),
        qps: searches as f64 / elapsed.as_secs_f64().max(1e-9),
        stats: server.stats(),
        stage_table: dash_obs::expo::stage_table(&dash_obs::expo::parse_summaries(
            &server.metrics_text(),
        )),
    }
}

/// The `q`-th percentile of an ascending-sorted sample (nearest-rank).
/// Public because the socket-level load generator (`dash-net`)
/// aggregates its latencies with the same definition.
pub fn percentile(sorted: &[u64], q: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() - 1) * q as usize / 100;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::FragmentId;
    use dash_relation::Value;

    fn pool() -> Vec<Fragment> {
        vec![Fragment::new(
            FragmentId::new(vec![Value::str("Synthetic"), Value::Int(5)]),
            [("widget".to_string(), 1u64)].into_iter().collect(),
            1,
        )]
    }

    #[test]
    fn scripts_are_deterministic_and_route_updates_to_client_zero() {
        let profile = LoadProfile {
            clients: 3,
            ops_per_client: 40,
            update_every: 8,
            ..LoadProfile::default()
        };
        let vocab = vec!["burger".to_string(), "fries".to_string()];
        let a = scripts(&profile, &vocab, &pool());
        let b = scripts(&profile, &vocab, &pool());
        assert_eq!(a, b, "same profile must script identical traffic");
        assert_eq!(a.len(), 3);
        assert!(a[0].iter().any(|op| matches!(op, LoadOp::Update(_))));
        for client in &a[1..] {
            assert!(
                client.iter().all(|op| matches!(op, LoadOp::Search(_))),
                "only client 0 publishes updates"
            );
        }
    }

    #[test]
    fn keyword_skew_concentrates_on_hot_terms() {
        let vocab: Vec<String> = (0..50).map(|i| format!("word{i}")).collect();
        let uniform = LoadProfile {
            clients: 1,
            ops_per_client: 500,
            update_every: 0,
            max_keywords: 1,
            ..LoadProfile::default()
        };
        let skewed = LoadProfile {
            keyword_skew: 1.2,
            ..uniform.clone()
        };
        let hot_share = |profile: &LoadProfile| {
            let script = &scripts(profile, &vocab, &[])[0];
            script
                .iter()
                .filter(|op| match op {
                    LoadOp::Search(r) => r.keywords.contains(&"word0".to_string()),
                    LoadOp::Update(_) => false,
                })
                .count()
        };
        let uniform_hits = hot_share(&uniform);
        let skewed_hits = hot_share(&skewed);
        assert!(
            skewed_hits > 4 * uniform_hits.max(1),
            "skewed {skewed_hits} vs uniform {uniform_hits}"
        );
        // Skewed scripts stay deterministic too.
        assert_eq!(scripts(&skewed, &vocab, &[]), scripts(&skewed, &vocab, &[]));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50), 50);
        assert_eq!(percentile(&sample, 99), 99);
        assert_eq!(percentile(&sample, 0), 1);
        assert_eq!(percentile(&[], 50), 0);
    }
}
