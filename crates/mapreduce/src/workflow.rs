//! Multi-job workflows.
//!
//! The paper's crawling/indexing pipelines are DAG-shaped sequences of MR
//! jobs ("the design of MR applications as a workflow of MR jobs is
//! critical to performance", §II). [`Workflow`] is a thin accumulator that
//! runs jobs on one cluster and aggregates their [`JobStats`] so the bench
//! harness can print Figure-10-style stacked breakdowns.

use std::hash::Hash;

use crate::bytes::ByteSized;
use crate::config::ClusterConfig;
use crate::runner::{run_job, JobResult, JobSpec};
use crate::stats::{JobStats, WorkflowStats};

/// A sequence of MapReduce jobs sharing one cluster, with accumulated
/// statistics.
///
/// ```
/// use dash_mapreduce::{ClusterConfig, JobSpec, Workflow};
///
/// let mut wf = Workflow::new("demo", ClusterConfig::default());
/// let docs = vec!["a b".to_string(), "b c".to_string()];
/// let counts: Vec<(String, u64)> = wf.run(
///     JobSpec::new("count").label("Cnt"),
///     &docs,
///     |d, emit| {
///         for w in d.split_whitespace() {
///             emit(w.to_string(), 1u64);
///         }
///     },
///     |w, vs, emit| emit((w.clone(), vs.iter().sum())),
/// );
/// assert_eq!(counts.iter().filter(|(w, _)| w == "b").count(), 1);
/// assert_eq!(wf.stats().jobs.len(), 1);
/// ```
#[derive(Debug)]
pub struct Workflow {
    name: String,
    cluster: ClusterConfig,
    stats: WorkflowStats,
}

impl Workflow {
    /// Creates an empty workflow bound to `cluster`.
    pub fn new(name: impl Into<String>, cluster: ClusterConfig) -> Self {
        Workflow {
            name: name.into(),
            cluster,
            stats: WorkflowStats::new(),
        }
    }

    /// The workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cluster configuration jobs run on.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Runs a job, records its stats, and returns its output.
    pub fn run<I, K, V, O, M, R>(
        &mut self,
        spec: JobSpec<K, V>,
        inputs: &[I],
        mapper: M,
        reducer: R,
    ) -> Vec<O>
    where
        I: Sync + ByteSized,
        K: Ord + Hash + Clone + Send + ByteSized,
        V: Send + ByteSized,
        O: Send + ByteSized,
        M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
    {
        let JobResult { output, stats } = run_job(&self.cluster, spec, inputs, mapper, reducer);
        self.stats.push(stats);
        output
    }

    /// Records stats for work done outside `run` (e.g. a job executed via
    /// [`run_job`] directly).
    pub fn record(&mut self, stats: JobStats) {
        self.stats.push(stats);
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> &WorkflowStats {
        &self.stats
    }

    /// Consumes the workflow, returning its statistics.
    pub fn into_stats(self) -> WorkflowStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_jobs_accumulate_stats() {
        let mut wf = Workflow::new("two-step", ClusterConfig::default());
        let docs = vec!["a b c".to_string(), "a a".to_string()];
        let counts: Vec<(String, u64)> = wf.run(
            JobSpec::new("count").label("P1"),
            &docs,
            |d: &String, emit| {
                for w in d.split_whitespace() {
                    emit(w.to_string(), 1u64);
                }
            },
            |w: &String, vs: Vec<u64>, emit| emit((w.clone(), vs.iter().sum())),
        );
        // Second job consumes the first job's output: total occurrences.
        let totals: Vec<(String, u64)> = wf.run(
            JobSpec::new("total").label("P2"),
            &counts,
            |(_, n): &(String, u64), emit| emit("total".to_string(), *n),
            |k: &String, vs: Vec<u64>, emit| emit((k.clone(), vs.iter().sum())),
        );
        assert_eq!(totals[0].1, 5);
        assert_eq!(wf.stats().jobs.len(), 2);
        assert_eq!(wf.stats().label_breakdown().len(), 2);
        let total = wf.into_stats();
        assert!(total.sim_total_secs() > 0.0);
    }
}
