//! # dash-mapreduce
//!
//! A self-contained MapReduce runtime standing in for the 4-node Hadoop
//! cluster the Dash paper (ICDCS 2012) ran its database-crawling and
//! fragment-indexing workflows on.
//!
//! Jobs **really execute** — maps and reduces run in parallel worker
//! threads — and every byte that crosses a phase boundary is metered:
//! input read, map spill, shuffle transfer, merge-sort passes, reduce
//! read/write. From those meters a calibrated [`ClusterConfig`] cost model
//! derives a *simulated elapsed time* per phase, which is what Figure 10 of
//! the paper plots. The paper's conclusions (the integrated algorithm beats
//! the stepwise one except on tiny operands; most jobs are map/I-O bound)
//! fall out of shuffle volume, which this runtime measures exactly.
//!
//! Two ordering guarantees are load-bearing for the byte-exact
//! consumer downstream, the crawl workflows in `dash_core::crawl`: the
//! shuffle sort is **stable**, and split outputs concatenate in
//! **split-index order** — so one key's values always arrive at their
//! reducer in global input order, and a job's output is a pure,
//! deterministic function of its input regardless of thread scheduling.
//!
//! Edge cases are pinned by the runner's own tests: empty inputs plan
//! zero map tasks, and [`JobSpec::reduce_tasks`]`(0)` declares a
//! map-only job — shuffle and reduce are skipped and the map phase alone
//! is metered.
//!
//! ## Word count in six lines
//!
//! ```
//! use dash_mapreduce::{run_job, ClusterConfig, JobSpec};
//!
//! let docs = vec!["burger experts".to_string(), "unique burger".to_string()];
//! let cluster = ClusterConfig::default();
//! let result = run_job(
//!     &cluster,
//!     JobSpec::new("wordcount"),
//!     &docs,
//!     |doc, emit| {
//!         for w in doc.split_whitespace() {
//!             emit(w.to_string(), 1u64);
//!         }
//!     },
//!     |word, counts, emit| emit((word.clone(), counts.iter().sum::<u64>())),
//! );
//! let burgers = result
//!     .output
//!     .iter()
//!     .find(|(w, _)| w == "burger")
//!     .map(|(_, n)| *n);
//! assert_eq!(burgers, Some(2));
//! assert!(result.stats.sim_total_secs() > 0.0);
//! ```

pub mod bytes;
pub mod config;
pub mod runner;
pub mod stats;
pub mod workflow;

pub use bytes::ByteSized;
pub use config::ClusterConfig;
pub use runner::{run_job, JobResult, JobSpec};
pub use stats::{JobStats, PhaseStats, WorkflowStats};
pub use workflow::Workflow;
