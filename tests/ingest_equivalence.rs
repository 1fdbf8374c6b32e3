//! The ingest-equivalence test tier: engines built by the distributed
//! mapreduce workflow ([`distributed_build`]) must be **byte-identical**
//! to direct builds over the same fragments — same arena image, same
//! `SearchHit` lists as a fresh [`DashEngine`] — at shard counts
//! {1, 4}, and the guarantee must survive the two things a cluster
//! build actually faces:
//!
//! * **worker faults** — task attempts failing mid-job under a
//!   [`FaultPlan`] (retried by the runner, charged by the cost model)
//!   must not change a single output byte;
//! * **driver death** — a workflow killed between jobs must resume
//!   from its spilled intermediates (partition plan, per-shard indices)
//!   and finish with the same bytes a never-killed run produces, while
//!   stale spill artifacts (different corpus or shard count) are
//!   ignored rather than trusted.
//!
//! Three layers of evidence: golden datasets (fooddb, TPC-H Q2-shaped
//! synthetic corpora), property tests over random corpora and
//! requests, and explicit kill-and-restart / fault-chaos scenarios.
//! When `DASH_SHARDS` is set (the CI matrix), that count joins every
//! golden comparison.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dash::core::{
    distributed_build, env_shards, DashEngine, Fragment, IngestConfig, IngestSource, SearchRequest,
    ShardedEngine,
};
use dash::mapreduce::{FaultPlan, WorkflowStats};
use dash::webapp::{fooddb, WebApplication};
use dash_bench::scale::ScaleCorpus;
use dash_tpch::{generate, Scale, TpchConfig};

/// A self-deleting scratch directory (std only — no tempfile crate):
/// unique per (process, instantiation), removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dash-ingest-{tag}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path).expect("scratch dir creates");
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The application shape `ScaleCorpus` fragments mimic: TPC-H Q2.
fn q2_app() -> WebApplication {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let db = generate(&config);
    dash_tpch::q2_application(&db).expect("Q2 analyzes")
}

fn corpus(fragments: usize, groups: usize, seed: u64) -> Vec<Fragment> {
    let corpus = ScaleCorpus {
        fragments,
        groups,
        vocab: 300,
        seed,
        ..ScaleCorpus::default()
    };
    corpus.shard_batches(1).flatten().collect()
}

/// Shard counts every golden scenario runs at: 1, 4, plus the CI
/// matrix's `DASH_SHARDS` when set.
fn shard_axis() -> Vec<usize> {
    let mut counts = vec![1usize, 4];
    if let Some(n) = env_shards() {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn direct(app: &WebApplication, fragments: &[Fragment], shards: usize) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .shards(shards)
        .source(IngestSource::Fragments(fragments))
        .build()
        .expect("direct build")
}

fn via_workflow(
    app: &WebApplication,
    fragments: &[Fragment],
    config: &IngestConfig,
) -> ShardedEngine {
    let output = distributed_build(app, fragments, config).expect("workflow build");
    ShardedEngine::builder(app.clone())
        .source(IngestSource::Distributed(output))
        .build()
        .expect("workflow engine assembles")
}

fn image_of(engine: &ShardedEngine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.write_image(&mut bytes).expect("image dumps");
    bytes
}

/// Hot/warm/cold terms, pairs and a guaranteed miss over several
/// `k`/`s` settings.
fn battery() -> Vec<SearchRequest> {
    let mut requests = Vec::new();
    for kw in ["kw000000", "kw000003", "kw000042", "kw000299"] {
        for s in [1u64, 10, 50] {
            requests.push(SearchRequest::new(&[kw]).k(6).min_size(s));
        }
    }
    requests.push(
        SearchRequest::new(&["kw000000", "kw000007"])
            .k(10)
            .min_size(1),
    );
    requests.push(SearchRequest::new(&["zzzmissing"]).k(4).min_size(1));
    requests
}

/// A fault plan that kills one task on every allowed attempt — the
/// workflow must abort, never loop.
fn lethal_reduce(task: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for attempt in 0..plan.max_attempts {
        plan = plan.fail_reduce(task, attempt);
    }
    plan
}

// ---------------------------------------------------------------------
// Golden: byte-identity of workflow and direct builds
// ---------------------------------------------------------------------

#[test]
fn golden_workflow_image_is_byte_identical_to_direct_build() {
    let app = q2_app();
    let fragments = corpus(600, 12, 0x1D9E);
    let fresh =
        DashEngine::from_fragments(app.clone(), &fragments, WorkflowStats::new()).expect("fresh");
    let requests = battery();
    let mut any_hits = false;
    for shards in shard_axis() {
        let reference = direct(&app, &fragments, shards);
        let config = IngestConfig {
            shards,
            ..IngestConfig::default()
        };
        let built = via_workflow(&app, &fragments, &config);
        assert_eq!(built.shard_sizes(), reference.shard_sizes());
        assert_eq!(
            image_of(&built),
            image_of(&reference),
            "shards={shards}: workflow image must match direct image bit for bit"
        );
        for request in &requests {
            let expected = fresh.search(request);
            any_hits |= !expected.is_empty();
            assert_eq!(
                built.search(request),
                expected,
                "shards={shards} {:?}",
                request.keywords
            );
        }
    }
    assert!(any_hits, "battery must exercise non-empty results");
}

#[test]
fn golden_fooddb_workflow_matches_direct_build() {
    let app = fooddb::search_application().unwrap();
    let db = fooddb::database();
    let crawl = dash::core::crawl::run(&app, &db, &Default::default(), Default::default()).unwrap();
    for shards in shard_axis() {
        let reference = direct(&app, &crawl.fragments, shards);
        let config = IngestConfig {
            shards,
            ..IngestConfig::default()
        };
        let built = via_workflow(&app, &crawl.fragments, &config);
        assert_eq!(image_of(&built), image_of(&reference), "shards={shards}");
    }
}

// ---------------------------------------------------------------------
// Faults: injected task failures never change output bytes
// ---------------------------------------------------------------------

#[test]
fn fault_chaos_is_byte_invisible() {
    let app = q2_app();
    let fragments = corpus(400, 8, 0xC0DE);
    for shards in shard_axis() {
        let reference = image_of(&direct(&app, &fragments, shards));
        // Escalating chaos: single map fault, single reduce fault,
        // multi-task multi-attempt storms across both jobs.
        let plans = [
            FaultPlan::new().fail_map(0, 0),
            FaultPlan::new().fail_reduce(0, 0),
            FaultPlan::new()
                .fail_map(0, 0)
                .fail_map(1, 0)
                .fail_map(0, 1)
                .fail_reduce(0, 0),
            FaultPlan::new()
                .fail_map(2, 0)
                .fail_reduce(0, 0)
                .fail_reduce(1, 0)
                .fail_reduce(0, 1)
                .fail_reduce(1, 1),
        ];
        for (i, faults) in plans.into_iter().enumerate() {
            let config = IngestConfig {
                shards,
                faults,
                ..IngestConfig::default()
            };
            let output = distributed_build(&app, &fragments, &config).expect("survives faults");
            let attempts = output.report.map_attempts + output.report.reduce_attempts;
            let built = ShardedEngine::builder(app.clone())
                .source(IngestSource::Distributed(output))
                .build()
                .unwrap();
            assert_eq!(
                image_of(&built),
                reference,
                "shards={shards} fault plan #{i} changed output bytes"
            );
            assert!(attempts > 0, "attempts are metered");
        }
    }
}

// ---------------------------------------------------------------------
// Kill-and-restart: spilled intermediates resume, stale ones don't
// ---------------------------------------------------------------------

#[test]
fn killed_workflow_resumes_from_spilled_plan_byte_identically() {
    let app = q2_app();
    let fragments = corpus(300, 6, 0xDEAD);
    let reference = image_of(&direct(&app, &fragments, 4));
    let dir = TempDir::new("restart");

    // Run 1: job 1 succeeds (plan spilled), job 2 dies on every
    // attempt — the driver aborts, simulating a mid-workflow kill.
    // On a single-node cluster job 1 runs 2 reduce tasks while job 2
    // runs `shards` (4), so a lethal fault on reduce task 3 is only
    // ever scheduled by job 2: the kill lands *between* the stages.
    let cluster = dash::mapreduce::ClusterConfig::single_node();
    let killed = IngestConfig {
        cluster: cluster.clone(),
        shards: 4,
        faults: lethal_reduce(3),
        spill_dir: Some(dir.path().to_path_buf()),
    };
    let err = distributed_build(&app, &fragments, &killed).expect_err("job 2 must die");
    assert!(err.to_string().contains("ingest shard-build"), "got: {err}");

    // Run 2 (the restart): the spilled plan skips job 1; only the
    // build job runs, and the bytes match a never-killed build.
    let resume = IngestConfig {
        cluster,
        shards: 4,
        faults: FaultPlan::new(),
        spill_dir: Some(dir.path().to_path_buf()),
    };
    let output = distributed_build(&app, &fragments, &resume).expect("restart finishes");
    assert!(output.report.resumed_plan, "plan spill must be picked up");
    assert!(!output.report.resumed_dumps);
    assert_eq!(output.report.jobs_run, 1, "only job 2 re-runs");
    let built = ShardedEngine::builder(app.clone())
        .source(IngestSource::Distributed(output))
        .build()
        .unwrap();
    assert_eq!(image_of(&built), reference);

    // Run 3: the spilled shard indices skip both jobs outright.
    let output = distributed_build(&app, &fragments, &resume).expect("warm resume");
    assert!(output.report.resumed_dumps);
    assert_eq!(output.report.jobs_run, 0);
    assert!(output.stats.jobs.is_empty(), "nothing ran, nothing metered");
    let built = ShardedEngine::builder(app.clone())
        .source(IngestSource::Distributed(output))
        .build()
        .unwrap();
    assert_eq!(image_of(&built), reference);
}

#[test]
fn stale_spill_artifacts_are_ignored_not_trusted() {
    let app = q2_app();
    let dir = TempDir::new("stale");
    let old = corpus(200, 5, 0xAAAA);
    let spilled = IngestConfig {
        shards: 2,
        spill_dir: Some(dir.path().to_path_buf()),
        ..IngestConfig::default()
    };
    distributed_build(&app, &old, &spilled).expect("first build spills");

    // Same directory, different corpus: the fingerprint mismatch must
    // force a full re-run, and the result must match the new corpus.
    let new = corpus(200, 5, 0xBBBB);
    let output = distributed_build(&app, &new, &spilled).expect("re-runs from scratch");
    assert!(!output.report.resumed_plan && !output.report.resumed_dumps);
    assert_eq!(output.report.jobs_run, 2);
    let built = ShardedEngine::builder(app.clone())
        .source(IngestSource::Distributed(output))
        .build()
        .unwrap();
    assert_eq!(image_of(&built), image_of(&direct(&app, &new, 2)));

    // Same corpus, different shard count: also a different build.
    let output = distributed_build(
        &app,
        &new,
        &IngestConfig {
            shards: 4,
            spill_dir: Some(dir.path().to_path_buf()),
            ..IngestConfig::default()
        },
    )
    .expect("shard-count change re-runs");
    assert_eq!(output.report.jobs_run, 2);
    let built = ShardedEngine::builder(app.clone())
        .source(IngestSource::Distributed(output))
        .build()
        .unwrap();
    assert_eq!(image_of(&built), image_of(&direct(&app, &new, 4)));
}

#[test]
fn empty_corpus_round_trips_through_the_workflow() {
    let app = q2_app();
    let dir = TempDir::new("empty");
    let config = IngestConfig {
        shards: 3,
        spill_dir: Some(dir.path().to_path_buf()),
        ..IngestConfig::default()
    };
    let built = via_workflow(&app, &[], &config);
    let reference = direct(&app, &[], 3);
    assert_eq!(image_of(&built), image_of(&reference));
    assert!(built
        .search(&SearchRequest::new(&["anything"]).k(3).min_size(1))
        .is_empty());
    // And the spilled (empty) shard indices resume cleanly.
    let output = distributed_build(&app, &[], &config).expect("empty resume");
    assert!(output.report.resumed_dumps);
}

// ---------------------------------------------------------------------
// Property tests: random corpora, faults and requests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random corpus shapes and requests, the workflow-built
    /// engine answers byte-identically to a fresh single-heap build,
    /// at shards {1, 4}, with and without injected faults.
    #[test]
    fn workflow_matches_fresh_engine_on_random_corpora(
        fragments in 30usize..200,
        groups in 1usize..10,
        seed in any::<u64>(),
        ranks in prop::collection::vec(0usize..300, 1..4),
        k in 1usize..10,
        s in prop::sample::select(vec![1u64, 5, 25]),
        fault_map in any::<bool>(),
        fault_reduce in any::<bool>(),
    ) {
        let app = q2_app();
        let corpus = corpus(fragments, groups, seed);
        let words: Vec<String> = ranks.iter().map(|r| format!("kw{r:06}")).collect();
        let keywords: Vec<&str> = words.iter().map(String::as_str).collect();
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let fresh =
            DashEngine::from_fragments(app.clone(), &corpus, WorkflowStats::new()).unwrap();
        let expected = fresh.search(&request);
        for shards in [1usize, 4] {
            let mut faults = FaultPlan::new();
            if fault_map {
                faults = faults.fail_map(0, 0);
            }
            if fault_reduce {
                faults = faults.fail_reduce(0, 0);
            }
            let config = IngestConfig { shards, faults, ..IngestConfig::default() };
            let built = via_workflow(&app, &corpus, &config);
            prop_assert_eq!(
                image_of(&built),
                image_of(&direct(&app, &corpus, shards)),
                "shards={} images diverge", shards
            );
            prop_assert_eq!(built.search(&request), expected.clone());
        }
    }
}
