//! Execution statistics: per-phase byte/record meters plus simulated time.

use std::collections::BTreeMap;
use std::fmt;

/// Meters and simulated elapsed time for one phase (map, shuffle+sort or
/// reduce) of one job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Records entering the phase.
    pub input_records: u64,
    /// Bytes entering the phase.
    pub input_bytes: u64,
    /// Records leaving the phase.
    pub output_records: u64,
    /// Bytes leaving the phase.
    pub output_bytes: u64,
    /// Simulated elapsed seconds charged by the cost model.
    pub sim_secs: f64,
}

/// Statistics for one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Job name (e.g. `"join restaurant⋈comment"`).
    pub name: String,
    /// Workflow phase label used for Figure-10-style stacked breakdowns
    /// (e.g. `"SW-Jn"`, `"INT-Ext"`). Empty when the job is standalone.
    pub label: String,
    /// Number of map splits (≅ map tasks).
    pub map_tasks: usize,
    /// Number of reduce partitions (≅ reduce tasks).
    pub reduce_tasks: usize,
    /// Map phase meters.
    pub map: PhaseStats,
    /// Shuffle + merge-sort meters (input = map output after combining).
    pub shuffle: PhaseStats,
    /// Reduce phase meters.
    pub reduce: PhaseStats,
    /// Fixed job startup charge, seconds.
    pub startup_secs: f64,
    /// Bytes saved by the combiner (0 when none installed).
    pub combiner_saved_bytes: u64,
    /// Real wall-clock seconds the in-process execution took.
    pub wall_secs: f64,
}

impl JobStats {
    /// Total simulated elapsed time for the job.
    pub fn sim_total_secs(&self) -> f64 {
        self.startup_secs + self.map.sim_secs + self.shuffle.sim_secs + self.reduce.sim_secs
    }
}

impl fmt::Display for JobStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} maps={:<3} reds={:<2} in={:>10}B shuffle={:>10}B out={:>10}B sim={:>8.2}s",
            self.name,
            self.map_tasks,
            self.reduce_tasks,
            self.map.input_bytes,
            self.shuffle.input_bytes,
            self.reduce.output_bytes,
            self.sim_total_secs(),
        )
    }
}

/// Aggregated statistics over a multi-job workflow (e.g. the whole
/// stepwise crawl+index pipeline for one query on one dataset).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkflowStats {
    /// Per-job statistics in execution order.
    pub jobs: Vec<JobStats>,
}

impl WorkflowStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WorkflowStats::default()
    }

    /// Appends one job's stats.
    pub fn push(&mut self, stats: JobStats) {
        self.jobs.push(stats);
    }

    /// Total simulated elapsed time across jobs (jobs run sequentially in a
    /// workflow, as in the paper's pipelines).
    pub fn sim_total_secs(&self) -> f64 {
        self.jobs.iter().map(JobStats::sim_total_secs).sum()
    }

    /// Total real wall-clock seconds.
    pub fn wall_total_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_secs).sum()
    }

    /// Total bytes shuffled across all jobs — the quantity the integrated
    /// algorithm is designed to minimize.
    pub fn shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle.input_bytes).sum()
    }

    /// Simulated seconds grouped by job label, in first-appearance order —
    /// the stacked bars of Figure 10.
    pub fn label_breakdown(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for j in &self.jobs {
            let label = if j.label.is_empty() {
                j.name.clone()
            } else {
                j.label.clone()
            };
            if !totals.contains_key(&label) {
                order.push(label.clone());
            }
            *totals.entry(label).or_insert(0.0) += j.sim_total_secs();
        }
        order
            .into_iter()
            .map(|l| {
                let v = totals[&l];
                (l, v)
            })
            .collect()
    }
}

impl fmt::Display for WorkflowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for j in &self.jobs {
            writeln!(f, "{j}")?;
        }
        write!(f, "total sim elapsed: {:.2}s", self.sim_total_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, map_secs: f64) -> JobStats {
        JobStats {
            name: format!("job-{label}"),
            label: label.to_string(),
            map_tasks: 1,
            reduce_tasks: 1,
            map: PhaseStats {
                sim_secs: map_secs,
                ..Default::default()
            },
            shuffle: PhaseStats::default(),
            reduce: PhaseStats::default(),
            startup_secs: 1.0,
            combiner_saved_bytes: 0,
            wall_secs: 0.01,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut w = WorkflowStats::new();
        w.push(job("A", 2.0));
        w.push(job("B", 3.0));
        assert!((w.sim_total_secs() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn label_breakdown_groups_and_orders() {
        let mut w = WorkflowStats::new();
        w.push(job("Jn", 1.0));
        w.push(job("Jn", 2.0));
        w.push(job("Idx", 4.0));
        let breakdown = w.label_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].0, "Jn");
        assert!((breakdown[0].1 - 5.0).abs() < 1e-9);
        assert_eq!(breakdown[1].0, "Idx");
    }

    #[test]
    fn display_mentions_total() {
        let mut w = WorkflowStats::new();
        w.push(job("A", 2.0));
        assert!(w.to_string().contains("total sim elapsed"));
    }
}
