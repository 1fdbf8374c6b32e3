//! The distributed index build: crawl output → contiguous key-rank
//! partition → per-shard index build, expressed as a restartable
//! two-job `dash-mapreduce` workflow (the paper ran exactly this
//! pipeline on a 4-node Hadoop cluster, §VII).
//!
//! ```text
//!                      ┌─────────────── job 1: ING-Plan ────────────────┐
//!  fragments ──map──▶  (group key, 1)  ──combine/reduce──▶  (key, count)│
//!                      └────────────────────┬────────────────────────────┘
//!                         driver: sort keys, prefix-sum counts
//!                                  ▼
//!                          PartitionPlan { key → (rank, shard) }
//!                      ┌─────────────── job 2: ING-Build ───────────────┐
//!  (idx, &frag) ─map─▶ (shard, FragRef{idx, rank}) ──reduce──▶ shard    │
//!                      │            sort refs by rank          indices  │
//!                      └────────────────────┬────────────────────────────┘
//!                         driver: resolve refs → per-shard runs
//!                                  ▼
//!                   ShardedEngine::from_shard_refs_impl (bulk load)
//! ```
//!
//! **Byte-identity.** The driver re-derives exactly the partition
//! [`ShardedEngine`]'s own builder computes: job 1's reduce output is
//! globally re-sorted by group key (the `BTreeMap` order the direct
//! path iterates in) and shard assignment uses the same
//! `(assigned * shards / total).min(shards - 1)` prefix-sum rule, so
//! `route_bounds` come out identical. Within a shard, fragments are
//! ordered by group rank with input order preserved inside each group:
//! the runner's shuffle sort is *stable* and concatenates split
//! outputs in split-index order, so one key's values arrive in global
//! input order, and the reducer's stable sort by rank reproduces the
//! direct partition's exact fragment sequence — interning order, and
//! therefore every handle, arena and image byte, matches. Engines
//! built through this workflow are byte-identical to direct builds
//! (`tests/ingest_equivalence.rs` proves it golden + property-style,
//! under injected faults and across kill-and-restart).
//!
//! **Zero-clone.** Job 2's inputs are `(index, &Fragment)` pairs and
//! its values are `FragRef`s carrying the fragment's *modeled* byte
//! size — the cost model meters realistic shuffle volume while the
//! wall clock moves ~24 bytes per record, and the driver resolves
//! indices back to borrowed fragments so nothing is cloned until
//! interning.
//!
//! **Restartability.** With [`IngestConfig::spill_dir`] set, the
//! driver persists each stage's output (the partition plan after job
//! 1, each shard's input indices after job 2) keyed by a corpus
//! fingerprint. A re-run after a crash resumes from the newest valid
//! artifact instead of recrawling: valid indices skip both jobs, a
//! valid plan skips job 1. The corpus itself is never spilled — the
//! caller passes it in again, and the fingerprint proves it is the
//! same one in the same order — so a resumed build resolves the
//! indices to the same borrowed runs a fresh one does. A fingerprint
//! mismatch (different corpus, shard count or range position) ignores
//! stale artifacts and re-runs from scratch. Both files are
//! checksummed end to end and written atomically (tmp + rename), so a
//! torn spill is indistinguishable from a missing one.
//!
//! **Fault tolerance.** Both jobs run under the configured
//! [`FaultPlan`]: scheduled task attempts fail and are retried (every
//! attempt charged by the cost model), and the output — being a pure
//! function of the inputs — is byte-identical to a fault-free run. A
//! task exhausting its attempts aborts the workflow with
//! [`CoreError::Internal`]; anything already spilled is picked up by
//! the next run.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dash_mapreduce::{ByteSized, ClusterConfig, FaultPlan, JobSpec, Workflow, WorkflowStats};
use dash_relation::{Database, Value};
use dash_webapp::WebApplication;

use crate::crawl;
use crate::engine::{validate_query, DashConfig};
use crate::error::CoreError;
use crate::fragment::{Fragment, FragmentId};
use crate::index::graph::group_key;
use crate::ingest::IngestSource;
use crate::persist;
use crate::sharded::ShardedEngine;
use crate::Result;

/// Spill-file magic for a persisted partition plan.
const PLAN_MAGIC: &[u8; 8] = b"DASHPLN1";
/// Spill-file magic for persisted per-shard input indices.
const DUMPS_MAGIC: &[u8; 8] = b"DASHIDM2";
/// Plan spill file name under [`IngestConfig::spill_dir`].
const PLAN_FILE: &str = "ingest-plan.dash";
/// Index spill file name under [`IngestConfig::spill_dir`].
const DUMPS_FILE: &str = "ingest-dumps.dash";

/// Configuration of one distributed build.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The (simulated) cluster the workflow runs on.
    pub cluster: ClusterConfig,
    /// Target shard count; clamped to at least 1.
    pub shards: usize,
    /// Injected task failures (retried up to `faults.max_attempts`).
    pub faults: FaultPlan,
    /// Directory for restartable intermediate outputs. `None` disables
    /// spilling (the workflow still runs, but a crash re-runs it in
    /// full).
    pub spill_dir: Option<PathBuf>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            cluster: ClusterConfig::default(),
            shards: 1,
            faults: FaultPlan::new(),
            spill_dir: None,
        }
    }
}

/// What a [`distributed_build`] actually did: which stages ran, which
/// were resumed from spill, and how many task attempts the fault plan
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Job 1 was skipped because a valid persisted plan was found.
    pub resumed_plan: bool,
    /// Both jobs were skipped because valid persisted shard indices
    /// were found.
    pub resumed_dumps: bool,
    /// MapReduce jobs actually executed (0, 1 or 2).
    pub jobs_run: usize,
    /// Total map-task attempts across executed jobs (> task count when
    /// the fault plan forced retries).
    pub map_attempts: u64,
    /// Total reduce-task attempts across executed jobs.
    pub reduce_attempts: u64,
}

/// Everything a finished workflow hands the engine builder: the
/// partitioned fragments, the accumulated job statistics, and the
/// execution report. Feed it to
/// [`IngestSource::Distributed`](crate::ingest::IngestSource).
#[derive(Debug)]
pub struct IngestOutput<'a> {
    /// Per-shard reference runs into the input corpus, position-aligned
    /// with shard indices (empty shards preserved — the image header
    /// records the count).
    pub data: Vec<Vec<&'a Fragment>>,
    /// Stats of every executed job (empty when resumed from spill).
    pub stats: WorkflowStats,
    /// What ran, what resumed, what the faults cost.
    pub report: IngestReport,
}

/// The map value of job 2: a fragment's input index and global group
/// rank, metered at the fragment's real encoded size so the shuffle
/// cost model sees the true data volume while only ~24 bytes move.
#[derive(Debug, Clone, Copy)]
struct FragRef {
    idx: u64,
    rank: u64,
    bytes: usize,
}

impl ByteSized for FragRef {
    fn byte_size(&self) -> usize {
        self.bytes
    }
}

/// The reduce output of job 2: one shard's fragment references in
/// final (rank, input) order.
#[derive(Debug)]
struct BuiltShard {
    shard: u32,
    refs: Vec<FragRef>,
}

impl ByteSized for BuiltShard {
    fn byte_size(&self) -> usize {
        8 + self.refs.iter().map(|r| r.bytes).sum::<usize>()
    }
}

/// Job 1's driver-side product: every group key in global key order
/// with its assigned shard; a group's rank is its position.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PartitionPlan {
    shards: usize,
    /// `(group key, shard)`, sorted ascending by key.
    groups: Vec<(Vec<Value>, usize)>,
}

impl PartitionPlan {
    /// The global rank of a group key (its index in key order).
    fn rank_of(&self, key: &[Value]) -> Option<usize> {
        self.groups
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
    }
}

/// Runs the two-job distributed build over `fragments` and returns the
/// partitioned output, resuming from spilled intermediates when
/// [`IngestConfig::spill_dir`] holds valid ones. The returned
/// [`IngestOutput`] feeds
/// [`IngestSource::Distributed`](crate::ingest::IngestSource); the
/// resulting engine is byte-identical to
/// `ShardedEngine::builder(app).shards(n).source(IngestSource::Fragments(..))`.
///
/// # Errors
///
/// Propagates query-validation errors; returns
/// [`CoreError::Internal`] when a task exhausts its fault-plan
/// attempts or a spill file cannot be written.
pub fn distributed_build<'a>(
    app: &WebApplication,
    fragments: &'a [Fragment],
    config: &IngestConfig,
) -> Result<IngestOutput<'a>> {
    validate_query(app)?;
    let range_position = app.query.range_selection_index();
    let shards = config.shards.max(1);
    let fingerprint = corpus_fingerprint(fragments, shards, range_position);
    let paths = config
        .spill_dir
        .as_deref()
        .map(|dir| (dir.join(PLAN_FILE), dir.join(DUMPS_FILE)));

    // Newest valid artifact wins: shard indices skip both jobs outright.
    if let Some((_, dumps_path)) = &paths {
        if let Some(shard_indices) = load_dumps(dumps_path, fingerprint, shards, fragments.len()) {
            global_counter("dash_ingest_resumed_dumps_total").inc();
            return Ok(IngestOutput {
                data: resolve(fragments, &shard_indices),
                stats: WorkflowStats::new(),
                report: IngestReport {
                    resumed_dumps: true,
                    ..IngestReport::default()
                },
            });
        }
    }

    let mut wf = Workflow::new("ingest", config.cluster.clone());
    let mut jobs_run = 0usize;

    // ---- job 1: ING-Plan — count fragments per equality group ----
    let (plan, resumed_plan) = match paths
        .as_ref()
        .and_then(|(plan_path, _)| load_plan(plan_path, fingerprint))
    {
        Some(plan) => (plan, true),
        None => {
            let spec = JobSpec::new("ingest partition-plan")
                .label("ING-Plan")
                .combiner(|_k: &FragmentId, vs: Vec<u64>| vec![vs.iter().sum::<u64>()]);
            let counts: Vec<(FragmentId, u64)> = wf
                .run_with_faults(
                    spec,
                    fragments,
                    |f: &Fragment, emit| {
                        emit(FragmentId::new(group_key(&f.id, range_position)), 1u64)
                    },
                    |k: &FragmentId, vs: Vec<u64>, emit| emit((k.clone(), vs.iter().sum::<u64>())),
                    &config.faults,
                )
                .map_err(|e| aborted("partition-plan", &e))?;
            jobs_run += 1;
            let plan = assign_shards(counts, shards);
            if let Some((plan_path, _)) = &paths {
                persist_plan(plan_path, fingerprint, &plan)
                    .map_err(|e| spill_failed("plan", &e))?;
            }
            (plan, false)
        }
    };

    // ---- job 2: ING-Build — route fragments, order each shard ----
    let inputs: Vec<(u64, &Fragment)> = fragments
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u64, f))
        .collect();
    let spec = JobSpec::new("ingest shard-build")
        .label("ING-Build")
        .reduce_tasks(shards);
    let plan_ref = &plan;
    let built: Vec<BuiltShard> = wf
        .run_with_faults(
            spec,
            &inputs,
            |&(idx, f): &(u64, &Fragment), emit| {
                let key = group_key(&f.id, range_position);
                let rank = plan_ref
                    .rank_of(&key)
                    .expect("every input group is in the plan");
                emit(
                    plan_ref.groups[rank].1 as u32,
                    FragRef {
                        idx,
                        rank: rank as u64,
                        bytes: f.byte_size(),
                    },
                );
            },
            |&shard: &u32, mut refs: Vec<FragRef>, emit| {
                // The shuffle sort is stable and split outputs
                // concatenate in split order, so values arrive in
                // global input order; a stable sort by rank reproduces
                // the direct partition's exact fragment sequence.
                refs.sort_by_key(|r| r.rank);
                emit(BuiltShard { shard, refs });
            },
            &config.faults,
        )
        .map_err(|e| aborted("shard-build", &e))?;
    jobs_run += 1;

    let mut shard_indices: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for shard in built {
        shard_indices[shard.shard as usize] = shard.refs.iter().map(|r| r.idx).collect();
    }
    if let Some((_, dumps_path)) = &paths {
        persist_dumps(dumps_path, fingerprint, &shard_indices)
            .map_err(|e| spill_failed("shard indices", &e))?;
    }

    let stats = wf.into_stats();
    let report = IngestReport {
        resumed_plan,
        resumed_dumps: false,
        jobs_run,
        map_attempts: stats.jobs.iter().map(|j| j.map_task_attempts).sum(),
        reduce_attempts: stats.jobs.iter().map(|j| j.reduce_task_attempts).sum(),
    };
    if resumed_plan {
        global_counter("dash_ingest_resumed_plan_total").inc();
    }
    global_counter("dash_ingest_jobs_total").add(jobs_run as u64);
    global_counter("dash_ingest_map_attempts_total").add(report.map_attempts);
    global_counter("dash_ingest_reduce_attempts_total").add(report.reduce_attempts);
    Ok(IngestOutput {
        data: resolve(fragments, &shard_indices),
        stats,
        report,
    })
}

/// Crawl, then [`distributed_build`], then assemble — the full
/// paper pipeline (crawl → partition → index) behind one call. The
/// crawl workflow's stats and both mapreduce jobs' stats land on the
/// engine's accumulator ([`ShardedEngine::crawl_stats`]).
///
/// # Errors
///
/// Propagates crawl, workflow and assembly errors (see
/// [`distributed_build`]).
pub fn distributed_crawl_build(
    app: &WebApplication,
    db: &Database,
    config: &DashConfig,
    ingest: &IngestConfig,
) -> Result<ShardedEngine> {
    validate_query(app)?;
    let crawl = crawl::run_scoped(app, db, &config.cluster, config.algorithm, &config.scope)?;
    let output = distributed_build(app, &crawl.fragments, ingest)?;
    ShardedEngine::builder(app.clone())
        .stats(crawl.stats)
        .source(IngestSource::Distributed(output))
        .build()
}

/// Job 1's driver step: sort group counts into global key order and
/// assign each group a shard by fragment-mass prefix sum — the exact
/// rule the direct partition uses, so `route_bounds` match.
fn assign_shards(mut counts: Vec<(FragmentId, u64)>, shards: usize) -> PartitionPlan {
    counts.sort_by(|a, b| a.0.cmp(&b.0));
    let total: usize = counts.iter().map(|(_, n)| *n as usize).sum();
    let total = total.max(1);
    let mut groups = Vec::with_capacity(counts.len());
    let mut assigned = 0usize;
    for (key, n) in counts {
        let shard = (assigned * shards / total).min(shards - 1);
        groups.push((key.0, shard));
        assigned += n as usize;
    }
    PartitionPlan { shards, groups }
}

/// Resolves per-shard input indices to reference runs into the corpus.
/// Fresh and resumed builds both come through here, so both take the
/// same zero-clone path.
fn resolve<'a>(fragments: &'a [Fragment], shard_indices: &[Vec<u64>]) -> Vec<Vec<&'a Fragment>> {
    shard_indices
        .iter()
        .map(|indices| indices.iter().map(|&i| &fragments[i as usize]).collect())
        .collect()
}

fn aborted(job: &str, e: &dash_mapreduce::JobAborted) -> CoreError {
    CoreError::Internal {
        detail: format!("ingest {job}: {e}"),
    }
}

fn spill_failed(what: &str, e: &std::io::Error) -> CoreError {
    CoreError::Internal {
        detail: format!("ingest spill ({what}): {e}"),
    }
}

// ---------------------------------------------------------------------
// Corpus fingerprint + spill files
// ---------------------------------------------------------------------

/// An order-sensitive fingerprint of (corpus, shard count, range
/// position): each fragment is canonically encoded (v1 record codec)
/// and checksummed, and the rolling mix rotates between fragments so
/// reorderings change the value. Spilled artifacts carry this; a
/// mismatch on load means the artifact belongs to a different build
/// and is ignored.
fn corpus_fingerprint(fragments: &[Fragment], shards: usize, range_position: Option<usize>) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (fragments.len() as u64)
        .wrapping_mul(K)
        .wrapping_add(shards as u64)
        .wrapping_mul(K)
        .wrapping_add(range_position.map_or(u64::MAX, |p| p as u64));
    let mut buf = Vec::new();
    for f in fragments {
        buf.clear();
        persist::write_one_fragment(&mut buf, f).expect("vec write cannot fail");
        h = h.rotate_left(17) ^ persist::checksum64(&buf);
    }
    h
}

/// Writes `magic + payload + checksum64(payload)` atomically: to a tmp
/// file first, then renamed into place, so a crash mid-write leaves no
/// half-valid artifact.
fn write_spill(path: &Path, magic: &[u8; 8], payload: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(magic)?;
        file.write_all(payload)?;
        file.write_all(&persist::checksum64(payload).to_le_bytes())?;
        file.sync_all()?;
    }
    global_counter("dash_ingest_spill_write_bytes_total").add(16 + payload.len() as u64);
    fs::rename(&tmp, path)
}

/// Reads a spill file back, verifying magic and trailing checksum.
/// Any failure (missing, foreign, torn, bit-flipped) returns `None` —
/// a bad artifact is never an error, just a cache miss that re-runs
/// the stage.
fn read_spill(path: &Path, magic: &[u8; 8]) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    global_counter("dash_ingest_spill_read_bytes_total").add(bytes.len() as u64);
    if bytes.len() < 16 || &bytes[..8] != magic {
        return None;
    }
    let payload = &bytes[8..bytes.len() - 8];
    let want = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
    if persist::checksum64(payload) != want {
        return None;
    }
    Some(payload.to_vec())
}

/// A counter of [`dash_obs::Registry::global`] — ingest has no
/// instance boundary, so its tallies are process-wide.
fn global_counter(name: &str) -> std::sync::Arc<dash_obs::Counter> {
    dash_obs::Registry::global().counter(name)
}

fn persist_plan(path: &Path, fingerprint: u64, plan: &PartitionPlan) -> std::io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload.extend_from_slice(&(plan.shards as u64).to_le_bytes());
    payload.extend_from_slice(&(plan.groups.len() as u64).to_le_bytes());
    for (key, shard) in &plan.groups {
        payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
        for v in key {
            persist::write_value(&mut payload, v)?;
        }
        payload.extend_from_slice(&(*shard as u64).to_le_bytes());
    }
    write_spill(path, PLAN_MAGIC, &payload)
}

fn load_plan(path: &Path, fingerprint: u64) -> Option<PartitionPlan> {
    let payload = read_spill(path, PLAN_MAGIC)?;
    let mut reader = payload.as_slice();
    if persist::read_u64(&mut reader).ok()? != fingerprint {
        return None;
    }
    let shards = persist::read_u64(&mut reader).ok()? as usize;
    let count = persist::read_u64(&mut reader).ok()?;
    let mut groups = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let arity = persist::read_u64(&mut reader).ok()?;
        if arity > 64 {
            return None;
        }
        let mut key = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            key.push(persist::read_value(&mut reader).ok()?);
        }
        let shard = persist::read_u64(&mut reader).ok()? as usize;
        if shard >= shards {
            return None;
        }
        groups.push((key, shard));
    }
    Some(PartitionPlan { shards, groups })
}

fn persist_dumps(path: &Path, fingerprint: u64, shards: &[Vec<u64>]) -> std::io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for indices in shards {
        payload.extend_from_slice(&(indices.len() as u64).to_le_bytes());
        for i in indices {
            payload.extend_from_slice(&i.to_le_bytes());
        }
    }
    write_spill(path, DUMPS_MAGIC, &payload)
}

/// Loads spilled shard indices for a `corpus_len`-fragment corpus split
/// `shards` ways. A checksum and fingerprint prove who wrote the file,
/// not that it is well formed, so the indices must also partition the
/// corpus — every index in range and listed exactly once — or the file
/// is a cache miss like any other bad artifact.
fn load_dumps(
    path: &Path,
    fingerprint: u64,
    shards: usize,
    corpus_len: usize,
) -> Option<Vec<Vec<u64>>> {
    let payload = read_spill(path, DUMPS_MAGIC)?;
    let mut reader = payload.as_slice();
    if persist::read_u64(&mut reader).ok()? != fingerprint
        || persist::read_u64(&mut reader).ok()? != shards as u64
    {
        return None;
    }
    let mut seen = vec![false; corpus_len];
    let mut shard_indices = Vec::with_capacity(shards);
    for _ in 0..shards {
        let count = persist::read_u64(&mut reader).ok()?;
        let mut indices = Vec::with_capacity(count.min(corpus_len as u64) as usize);
        for _ in 0..count {
            let i = persist::read_u64(&mut reader).ok()?;
            let slot = seen.get_mut(usize::try_from(i).ok()?)?;
            if std::mem::replace(slot, true) {
                return None;
            }
            indices.push(i);
        }
        shard_indices.push(indices);
    }
    (reader.is_empty() && seen.iter().all(|&s| s)).then_some(shard_indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchRequest;
    use dash_webapp::fooddb;

    fn fooddb_fragments() -> (WebApplication, Vec<Fragment>) {
        let app = fooddb::search_application().unwrap();
        let db = fooddb::database();
        let crawl = crawl::run(&app, &db, &Default::default(), Default::default()).unwrap();
        (app, crawl.fragments)
    }

    #[test]
    fn workflow_build_matches_direct_build_exactly() {
        let (app, fragments) = fooddb_fragments();
        for shards in [1usize, 2, 4] {
            let direct = ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&fragments))
                .build()
                .unwrap();
            let config = IngestConfig {
                shards,
                ..IngestConfig::default()
            };
            let output = distributed_build(&app, &fragments, &config).unwrap();
            assert_eq!(output.report.jobs_run, 2);
            assert!(!output.report.resumed_plan && !output.report.resumed_dumps);
            let distributed = ShardedEngine::builder(app.clone())
                .source(IngestSource::Distributed(output))
                .build()
                .unwrap();
            assert_eq!(distributed.shard_sizes(), direct.shard_sizes());
            // Byte-identity: same arena image, bit for bit.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            direct.write_image(&mut a).unwrap();
            distributed.write_image(&mut b).unwrap();
            assert_eq!(a, b, "shards={shards}");
            let req = SearchRequest::new(&["burger", "fries"]).k(10).min_size(1);
            assert_eq!(distributed.search(&req), direct.search(&req));
        }
    }

    #[test]
    fn faults_do_not_change_the_output() {
        let (app, fragments) = fooddb_fragments();
        let clean = distributed_build(
            &app,
            &fragments,
            &IngestConfig {
                shards: 2,
                ..IngestConfig::default()
            },
        )
        .unwrap();
        let faulted = distributed_build(
            &app,
            &fragments,
            &IngestConfig {
                shards: 2,
                faults: FaultPlan::new().fail_map(0, 0).fail_reduce(0, 0),
                ..IngestConfig::default()
            },
        )
        .unwrap();
        assert!(faulted.report.map_attempts > clean.report.map_attempts);
        let engine_of = |output| {
            ShardedEngine::builder(app.clone())
                .source(IngestSource::Distributed(output))
                .build()
                .unwrap()
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        engine_of(clean).write_image(&mut a).unwrap();
        engine_of(faulted).write_image(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corpus_builds_empty_shards() {
        let (app, _) = fooddb_fragments();
        let config = IngestConfig {
            shards: 3,
            ..IngestConfig::default()
        };
        let output = distributed_build(&app, &[], &config).unwrap();
        let distributed = ShardedEngine::builder(app.clone())
            .source(IngestSource::Distributed(output))
            .build()
            .unwrap();
        let direct = ShardedEngine::builder(app)
            .shards(3)
            .source(IngestSource::Fragments(&[]))
            .build()
            .unwrap();
        assert_eq!(distributed.shard_count(), 3);
        assert_eq!(distributed.shard_sizes(), direct.shard_sizes());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct.write_image(&mut a).unwrap();
        distributed.write_image(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_faults_abort_with_internal_error() {
        let (app, fragments) = fooddb_fragments();
        let mut faults = FaultPlan::new();
        for a in 0..faults.max_attempts {
            faults = faults.fail_map(0, a);
        }
        let err = distributed_build(
            &app,
            &fragments,
            &IngestConfig {
                shards: 2,
                faults,
                ..IngestConfig::default()
            },
        )
        .expect_err("map task 0 exhausts its attempts");
        assert!(err.to_string().contains("ingest partition-plan"));
    }

    #[test]
    fn crawl_build_convenience_matches_builder_crawl() {
        let app = fooddb::search_application().unwrap();
        let db = fooddb::database();
        let dash_config = DashConfig::default();
        let direct = ShardedEngine::builder(app.clone())
            .shards(2)
            .source(IngestSource::Crawl {
                db: &db,
                config: &dash_config,
            })
            .build()
            .unwrap();
        let ingest = IngestConfig {
            shards: 2,
            ..IngestConfig::default()
        };
        let distributed = distributed_crawl_build(&app, &db, &dash_config, &ingest).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct.write_image(&mut a).unwrap();
        distributed.write_image(&mut b).unwrap();
        assert_eq!(a, b);
        // The mapreduce jobs' stats rode along with the crawl's.
        assert!(distributed.crawl_stats().jobs.len() > direct.crawl_stats().jobs.len());
    }

    #[test]
    fn hostile_index_spill_is_a_cache_miss() {
        // A spill whose checksum and fingerprint are valid but whose
        // indices do not partition the corpus (a buggy or hostile
        // writer, not a torn file): both jobs re-run, and the result is
        // the direct build's — never a panic, never a wrong engine.
        let (app, fragments) = fooddb_fragments();
        let shards = 2;
        let image_of = |engine: ShardedEngine| {
            let mut bytes = Vec::new();
            engine.write_image(&mut bytes).unwrap();
            bytes
        };
        let want = image_of(
            ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&fragments))
                .build()
                .unwrap(),
        );
        let built = |output| {
            image_of(
                ShardedEngine::builder(app.clone())
                    .source(IngestSource::Distributed(output))
                    .build()
                    .unwrap(),
            )
        };
        let dir = std::env::temp_dir().join(format!("dash-ingest-hostile-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let config = IngestConfig {
            shards,
            spill_dir: Some(dir.clone()),
            ..IngestConfig::default()
        };
        let fingerprint = corpus_fingerprint(&fragments, shards, app.query.range_selection_index());
        let n = fragments.len() as u64;
        // Each case breaks one rule; otherwise every index is listed once.
        let all: Vec<u64> = (0..n).collect();
        let cases = [
            ("index at the corpus length", vec![all.clone(), vec![n]]),
            (
                "index far beyond the corpus",
                vec![all.clone(), vec![u64::MAX]],
            ),
            ("index listed twice", vec![all.clone(), vec![0]]),
            ("index missing", vec![all[1..].to_vec(), Vec::new()]),
        ];
        for (what, indices) in cases {
            let _ = fs::remove_file(dir.join(PLAN_FILE));
            persist_dumps(&dir.join(DUMPS_FILE), fingerprint, &indices).unwrap();
            let output = distributed_build(&app, &fragments, &config).expect(what);
            assert!(!output.report.resumed_dumps, "{what}");
            assert_eq!(output.report.jobs_run, 2, "{what}");
            assert_eq!(built(output), want, "{what}");
        }
        // The spill the last re-run wrote is well formed and resumes.
        let output = distributed_build(&app, &fragments, &config).unwrap();
        assert!(output.report.resumed_dumps);
        assert_eq!(built(output), want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let (_, fragments) = fooddb_fragments();
        let base = corpus_fingerprint(&fragments, 2, None);
        assert_eq!(base, corpus_fingerprint(&fragments, 2, None));
        assert_ne!(base, corpus_fingerprint(&fragments, 3, None));
        assert_ne!(base, corpus_fingerprint(&fragments, 2, Some(1)));
        let mut reversed = fragments.clone();
        reversed.reverse();
        assert_ne!(base, corpus_fingerprint(&reversed, 2, None));
        assert_ne!(base, corpus_fingerprint(&fragments[1..], 2, None));
    }
}
