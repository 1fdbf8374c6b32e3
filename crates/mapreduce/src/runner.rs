//! Job execution: real multi-threaded map/shuffle/reduce plus the
//! simulated-time cost model.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::bytes::ByteSized;
use crate::config::ClusterConfig;
use crate::stats::{JobStats, PhaseStats};

/// Declarative description of one job: its name, an optional phase label
/// (used in Figure-10-style breakdowns), the reducer parallelism, and an
/// optional combiner.
pub struct JobSpec<K, V> {
    name: String,
    label: String,
    reduce_tasks: Option<usize>,
    #[allow(clippy::type_complexity)]
    combiner: Option<Box<dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync>>,
}

impl<K, V> std::fmt::Debug for JobSpec<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("label", &self.label)
            .field("reduce_tasks", &self.reduce_tasks)
            .field("has_combiner", &self.combiner.is_some())
            .finish()
    }
}

impl<K, V> JobSpec<K, V> {
    /// Creates a spec with defaults (cluster-wide reduce slots, no
    /// combiner, empty label).
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            label: String::new(),
            reduce_tasks: None,
            combiner: None,
        }
    }

    /// Sets the phase label (`"SW-Jn"`, `"INT-Ext"`, ...).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the number of reduce partitions. `0` declares a
    /// map-only job: the shuffle and reduce phases are skipped entirely,
    /// map output is discarded (this in-process runtime has no typed
    /// map-only output channel), and the returned [`JobResult`] carries
    /// an empty output with map-phase meters only.
    pub fn reduce_tasks(mut self, n: usize) -> Self {
        self.reduce_tasks = Some(n);
        self
    }

    /// Installs a map-side combiner, applied per split before the shuffle —
    /// exactly where Hadoop applies it. Shuffle bytes are metered *after*
    /// combining, so jobs with additive values (word counts, θ sums) see
    /// the same traffic reduction they would on a real cluster.
    pub fn combiner(
        mut self,
        combiner: impl Fn(&K, Vec<V>) -> Vec<V> + Send + Sync + 'static,
    ) -> Self {
        self.combiner = Some(Box::new(combiner));
        self
    }
}

/// The materialized output of a job together with its statistics.
#[derive(Debug, Clone)]
pub struct JobResult<O> {
    /// Reduce outputs, ordered by partition then key.
    pub output: Vec<O>,
    /// Byte meters and simulated time.
    pub stats: JobStats,
}

struct SplitOutput<K, V> {
    pairs: Vec<(K, V)>,
    in_records: u64,
    in_bytes: u64,
    raw_out_bytes: u64,
    out_records: u64,
    out_bytes: u64,
}

/// Runs one MapReduce job on `cluster`.
///
/// `mapper` is invoked once per input record with an `emit(key, value)`
/// sink; `reducer` once per distinct key with all its values (grouped and
/// key-sorted within a partition, as Hadoop guarantees) and an
/// `emit(output)` sink. Map tasks and reduce tasks execute on real worker
/// threads; the returned [`JobStats`] carries both real wall-clock and
/// model-simulated elapsed time.
///
/// Determinism: outputs are ordered by (partition, key), and the hash
/// partitioner uses fixed-seed hashing, so repeated runs produce identical
/// outputs and identical simulated times.
pub fn run_job<I, K, V, O, M, R>(
    cluster: &ClusterConfig,
    spec: JobSpec<K, V>,
    inputs: &[I],
    mapper: M,
    reducer: R,
) -> JobResult<O>
where
    I: Sync + ByteSized,
    K: Ord + Hash + Clone + Send + ByteSized,
    V: Send + ByteSized,
    O: Send + ByteSized,
    M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    let wall_start = Instant::now();

    // ---- plan splits (one per HDFS-style block) ----
    let splits = plan_splits(cluster, inputs);
    let map_tasks = splits.len();
    let reduce_tasks = spec
        .reduce_tasks
        .unwrap_or_else(|| cluster.total_reduce_slots());

    // ---- map phase (real threads) ----
    let split_outputs: Vec<SplitOutput<K, V>> = {
        let results: Mutex<Vec<Option<SplitOutput<K, V>>>> =
            Mutex::new((0..map_tasks).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let threads = cluster.real_threads.clamp(1, map_tasks.max(1));
        let spec_ref = &spec;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= map_tasks {
                        break;
                    }
                    let (lo, hi) = splits[idx];
                    let chunk = &inputs[lo..hi];
                    let mut pairs: Vec<(K, V)> = Vec::new();
                    let mut in_bytes = 0u64;
                    for rec in chunk {
                        in_bytes += rec.byte_size() as u64;
                        mapper(rec, &mut |k, v| pairs.push((k, v)));
                    }
                    let raw_out_bytes: u64 = pairs.iter().map(|p| p.byte_size() as u64).sum();
                    let pairs = match &spec_ref.combiner {
                        Some(c) => combine(pairs, c.as_ref()),
                        None => pairs,
                    };
                    let out_bytes: u64 = pairs.iter().map(|p| p.byte_size() as u64).sum();
                    let out = SplitOutput {
                        out_records: pairs.len() as u64,
                        in_records: chunk.len() as u64,
                        in_bytes,
                        raw_out_bytes,
                        out_bytes,
                        pairs,
                    };
                    results.lock()[idx] = Some(out);
                });
            }
        });
        results
            .into_inner()
            .into_iter()
            .map(|o| o.expect("split executed"))
            .collect()
    };

    // ---- meters: map phase ----
    let split_meters: Vec<(u64, u64, u64)> = split_outputs
        .iter()
        .map(|s| (s.in_records, s.in_bytes, s.out_bytes))
        .collect();
    let mut map_phase = PhaseStats::default();
    for s in &split_outputs {
        map_phase.input_records += s.in_records;
        map_phase.input_bytes += s.in_bytes;
        map_phase.output_records += s.out_records;
        map_phase.output_bytes += s.out_bytes;
    }
    let combiner_saved_bytes: u64 = split_outputs
        .iter()
        .map(|s| s.raw_out_bytes.saturating_sub(s.out_bytes))
        .sum();

    // ---- shuffle: hash partition + sort ----
    // `reduce_tasks == 0` is a map-only job: nothing is shuffled (the
    // partition loop below would index into an empty vector), map output
    // is dropped, and the shuffle/reduce meters stay zeroed.
    let mut partitions: Vec<Vec<(K, V)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
    if reduce_tasks > 0 {
        for split in split_outputs {
            for (k, v) in split.pairs {
                let p = partition_of(&k, reduce_tasks);
                partitions[p].push((k, v));
            }
        }
    }
    for part in &mut partitions {
        part.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let shuffle_bytes = if reduce_tasks > 0 {
        map_phase.output_bytes
    } else {
        0
    };
    let shuffle_records = if reduce_tasks > 0 {
        map_phase.output_records
    } else {
        0
    };
    let partition_meters: Vec<(u64, u64)> = partitions
        .iter()
        .map(|p| {
            (
                p.len() as u64,
                p.iter().map(|kv| kv.byte_size() as u64).sum(),
            )
        })
        .collect();

    // ---- reduce phase (real threads, partitions moved to workers) ----
    let reduce_outputs: Vec<(Vec<O>, u64)> = {
        #[allow(clippy::type_complexity)]
        let slots: Vec<Mutex<Option<Vec<(K, V)>>>> = partitions
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect();
        #[allow(clippy::type_complexity)]
        let results: Mutex<Vec<Option<(Vec<O>, u64)>>> =
            Mutex::new((0..reduce_tasks).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let threads = cluster.real_threads.clamp(1, reduce_tasks.max(1));
        let reducer = &reducer;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= reduce_tasks {
                        break;
                    }
                    let part = slots[idx].lock().take().expect("partition present");
                    let mut out: Vec<O> = Vec::new();
                    let mut out_bytes = 0u64;
                    for (key, values) in group_sorted(part) {
                        reducer(&key, values, &mut |o| {
                            out_bytes += o.byte_size() as u64;
                            out.push(o);
                        });
                    }
                    results.lock()[idx] = Some((out, out_bytes));
                });
            }
        });
        results
            .into_inner()
            .into_iter()
            .map(|o| o.expect("partition executed"))
            .collect()
    };

    let mut reduce_phase = PhaseStats {
        input_records: shuffle_records,
        input_bytes: shuffle_bytes,
        ..Default::default()
    };
    let mut output = Vec::new();
    for (part_out, bytes) in reduce_outputs {
        reduce_phase.output_records += part_out.len() as u64;
        reduce_phase.output_bytes += bytes;
        output.extend(part_out);
    }

    // ---- cost model ----
    map_phase.sim_secs = simulate_map(cluster, &split_meters);
    let shuffle_phase = PhaseStats {
        input_records: shuffle_records,
        input_bytes: shuffle_bytes,
        output_records: shuffle_records,
        output_bytes: shuffle_bytes,
        sim_secs: simulate_shuffle(cluster, shuffle_bytes),
    };
    reduce_phase.sim_secs = simulate_reduce(cluster, &partition_meters, reduce_phase.output_bytes);

    JobResult {
        output,
        stats: JobStats {
            name: spec.name,
            label: spec.label,
            map_tasks,
            reduce_tasks,
            map: map_phase,
            shuffle: shuffle_phase,
            reduce: reduce_phase,
            startup_secs: cluster.job_startup_secs,
            combiner_saved_bytes,
            wall_secs: wall_start.elapsed().as_secs_f64(),
        },
    }
}

/// Packs inputs into contiguous splits of roughly `split_bytes` each
/// (in *scaled* bytes, so split counts match the modeled data volume —
/// "Hadoop assigns nodes for map tasks according to the number of file
/// blocks", §VII-A).
fn plan_splits<I: ByteSized>(cluster: &ClusterConfig, inputs: &[I]) -> Vec<(usize, usize)> {
    if inputs.is_empty() {
        // No blocks, no map tasks: an empty job schedules no phantom
        // split.
        return Vec::new();
    }
    let effective_split =
        ((cluster.split_bytes as f64 / cluster.byte_scale.max(1.0)) as usize).max(1);
    let mut splits = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, rec) in inputs.iter().enumerate() {
        acc += rec.byte_size();
        if acc >= effective_split {
            splits.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < inputs.len() {
        splits.push((start, inputs.len()));
    }
    splits
}

fn partition_of<K: Hash>(key: &K, reduce_tasks: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % reduce_tasks.max(1)
}

/// Groups a key-sorted pair vector into `(key, values)` runs, consuming it.
fn group_sorted<K: PartialEq, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match groups.last_mut() {
            Some((gk, vs)) if *gk == k => vs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

fn combine<K, V>(
    mut pairs: Vec<(K, V)>,
    combiner: &(dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync),
) -> Vec<(K, V)>
where
    K: Ord + Clone,
{
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::with_capacity(pairs.len());
    for (key, values) in group_sorted(pairs) {
        for v in combiner(&key, values) {
            out.push((key.clone(), v));
        }
    }
    out
}

fn simulate_map(cluster: &ClusterConfig, splits: &[(u64, u64, u64)]) -> f64 {
    // Each split: read input + CPU per record/byte + spill map output.
    // All data terms are charged `byte_scale` times (volume
    // extrapolation); see `ClusterConfig::byte_scale`.
    let scale = cluster.byte_scale;
    let costs: Vec<f64> = splits
        .iter()
        .map(|&(records, in_bytes, out_bytes)| {
            scale
                * (in_bytes as f64 / cluster.disk_bytes_per_sec
                    + records as f64 * cluster.cpu_secs_per_record
                    + in_bytes as f64 * cluster.cpu_secs_per_byte
                    + out_bytes as f64 / cluster.disk_bytes_per_sec)
        })
        .collect();
    makespan(&costs, cluster.total_map_slots())
}

fn simulate_shuffle(cluster: &ClusterConfig, shuffle_bytes: u64) -> f64 {
    let aggregate_net = cluster.network_bytes_per_sec * cluster.nodes as f64;
    let aggregate_disk = cluster.disk_bytes_per_sec * cluster.nodes as f64;
    let scaled = shuffle_bytes as f64 * cluster.byte_scale;
    let passes = cluster.sort_passes(scaled);
    scaled / aggregate_net + scaled * passes / aggregate_disk
}

fn simulate_reduce(
    cluster: &ClusterConfig,
    partitions: &[(u64, u64)],
    total_out_bytes: u64,
) -> f64 {
    let n = partitions.len().max(1) as f64;
    let scale = cluster.byte_scale;
    let costs: Vec<f64> = partitions
        .iter()
        .map(|&(records, in_bytes)| {
            // Reduce outputs land in HDFS with replication.
            let out_share = total_out_bytes as f64 / n * cluster.hdfs_replication;
            scale
                * (in_bytes as f64 / cluster.disk_bytes_per_sec
                    + records as f64 * cluster.cpu_secs_per_record
                    + in_bytes as f64 * cluster.cpu_secs_per_byte
                    + out_share / cluster.disk_bytes_per_sec)
        })
        .collect();
    makespan(&costs, cluster.total_reduce_slots())
}

/// Greedy longest-processing-time makespan: the simulated duration of a
/// phase whose tasks run on `slots` parallel executors.
fn makespan(costs: &[f64], slots: usize) -> f64 {
    let mut sorted: Vec<f64> = costs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite costs"));
    let mut loads = vec![0.0f64; slots.max(1)];
    for c in sorted {
        let min = loads
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite loads"))
            .expect("at least one slot");
        *min += c;
    }
    loads.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_balances() {
        assert!((makespan(&[3.0, 3.0, 3.0, 3.0], 2) - 6.0).abs() < 1e-9);
        assert!((makespan(&[5.0, 1.0, 1.0, 1.0], 2) - 5.0).abs() < 1e-9);
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn group_sorted_runs() {
        let groups = group_sorted(vec![(1, 'a'), (1, 'b'), (2, 'c')]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec!['a', 'b']);
    }

    #[test]
    fn word_count_end_to_end() {
        let docs: Vec<String> = vec![
            "the quick brown fox".into(),
            "the lazy dog".into(),
            "the end".into(),
        ];
        let cluster = ClusterConfig::default();
        let result = run_job(
            &cluster,
            JobSpec::new("wc"),
            &docs,
            |d: &String, emit| {
                for w in d.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |w: &String, counts: Vec<u64>, emit| emit((w.clone(), counts.iter().sum::<u64>())),
        );
        let the = result.output.iter().find(|(w, _)| w == "the").unwrap();
        assert_eq!(the.1, 3);
        assert_eq!(result.output.iter().map(|(_, c)| *c).sum::<u64>(), 9);
        assert!(result.stats.sim_total_secs() >= cluster.job_startup_secs);
        assert!(result.stats.wall_secs > 0.0);
    }

    #[test]
    fn combiner_reduces_shuffle_bytes() {
        let docs: Vec<String> = (0..50).map(|_| "a a a a a a a a".to_string()).collect();
        let cluster = ClusterConfig::default();
        let mapper = |d: &String, emit: &mut dyn FnMut(String, u64)| {
            for w in d.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        };
        let reducer = |w: &String, counts: Vec<u64>, emit: &mut dyn FnMut((String, u64))| {
            emit((w.clone(), counts.iter().sum::<u64>()))
        };
        let plain = run_job(&cluster, JobSpec::new("wc"), &docs, mapper, reducer);
        let combined = run_job(
            &cluster,
            JobSpec::new("wc").combiner(|_k: &String, vs: Vec<u64>| vec![vs.iter().sum::<u64>()]),
            &docs,
            mapper,
            reducer,
        );
        assert_eq!(plain.output, combined.output);
        assert!(combined.stats.shuffle.input_bytes < plain.stats.shuffle.input_bytes);
        assert!(combined.stats.combiner_saved_bytes > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        // Small blocks give the job several splits, so the worker threads
        // really interleave; the stable shuffle must still hand every
        // reducer its values in input order.
        let docs: Vec<(u64, String)> = (0..100)
            .map(|i| (i, format!("w{} w{} shared", i, i % 7)))
            .collect();
        let run = |real_threads| {
            let cluster = ClusterConfig {
                split_bytes: 256,
                real_threads,
                ..ClusterConfig::default()
            };
            run_job(
                &cluster,
                JobSpec::new("det").reduce_tasks(4),
                &docs,
                |(i, d): &(u64, String), emit| {
                    for w in d.split_whitespace() {
                        emit(w.to_string(), *i);
                    }
                },
                |w: &String, ids: Vec<u64>, emit| emit((w.clone(), ids)),
            )
        };
        let a = run(1);
        let b = run(4);
        assert!(a.stats.map_tasks > 1);
        assert!(a.output.iter().all(|(_, ids)| ids.is_sorted()));
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats.map.output_bytes, b.stats.map.output_bytes);
        assert_eq!(
            a.stats.sim_total_secs().to_bits(),
            b.stats.sim_total_secs().to_bits()
        );
    }

    #[test]
    fn empty_input_still_runs() {
        let docs: Vec<String> = Vec::new();
        let result = run_job(
            &ClusterConfig::default(),
            JobSpec::new("empty"),
            &docs,
            |_d: &String, _emit: &mut dyn FnMut(String, u64)| {},
            |w: &String, _c: Vec<u64>, emit: &mut dyn FnMut(String)| emit(w.clone()),
        );
        assert!(result.output.is_empty());
        assert_eq!(result.stats.map.input_records, 0);
    }

    #[test]
    fn empty_input_plans_zero_map_tasks() {
        let docs: Vec<String> = Vec::new();
        let result = run_job(
            &ClusterConfig::default(),
            JobSpec::new("empty"),
            &docs,
            |_d: &String, _emit: &mut dyn FnMut(String, u64)| {},
            |w: &String, _c: Vec<u64>, emit: &mut dyn FnMut(String)| emit(w.clone()),
        );
        assert_eq!(result.stats.map_tasks, 0);
        assert!(result.output.is_empty());
    }

    #[test]
    fn zero_reduce_tasks_yield_empty_output() {
        let docs: Vec<String> = vec!["a b c".into(), "d e".into()];
        let result = run_job(
            &ClusterConfig::default(),
            JobSpec::new("map-only").reduce_tasks(0),
            &docs,
            |d: &String, emit| {
                for w in d.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |w: &String, _c: Vec<u64>, emit: &mut dyn FnMut(String)| emit(w.clone()),
        );
        // Map ran and was metered; shuffle/reduce never happened.
        assert!(result.output.is_empty());
        assert_eq!(result.stats.reduce_tasks, 0);
        assert_eq!(result.stats.map.input_records, 2);
        assert_eq!(result.stats.map.output_records, 5);
        assert_eq!(result.stats.shuffle.input_bytes, 0);
        assert_eq!(result.stats.shuffle.sim_secs, 0.0);
        assert_eq!(result.stats.reduce.input_records, 0);
        assert_eq!(result.stats.reduce.output_records, 0);
    }

    #[test]
    fn splits_respect_block_size() {
        let cluster = ClusterConfig {
            split_bytes: 32,
            ..ClusterConfig::default()
        };
        let inputs: Vec<String> = (0..10).map(|_| "x".repeat(12).to_string()).collect();
        // Each record is 16 bytes; two fill a 32-byte block.
        let splits = plan_splits(&cluster, &inputs);
        assert_eq!(splits.len(), 5);
        assert_eq!(splits[0], (0, 2));
    }

    #[test]
    fn output_sorted_within_partition() {
        let docs: Vec<String> = vec!["b a d c".into()];
        let result = run_job(
            &ClusterConfig::default(),
            JobSpec::new("sorted").reduce_tasks(1),
            &docs,
            |d: &String, emit| {
                for w in d.split_whitespace() {
                    emit(w.to_string(), ());
                }
            },
            |w: &String, _vs: Vec<()>, emit| emit(w.clone()),
        );
        assert_eq!(result.output, vec!["a", "b", "c", "d"]);
    }
}
