//! # dash-bench
//!
//! The experiment harness regenerating every table and figure of the Dash
//! paper's evaluation (Section VII). Each binary prints the same rows or
//! series the paper reports:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I — experiment parameter grid |
//! | `table2` | Table II — dataset sizes per relation |
//! | `table3` | Table III — application queries Q1/Q2/Q3 |
//! | `fig10`  | Figure 10 — crawl+index elapsed time, SW vs INT, stacked phase breakdown |
//! | `table4` | Table IV — fragment-graph build time, #fragments, avg keywords |
//! | `fig11`  | Figure 11 — top-k search latency vs `s`, `k`, keyword temperature |
//! | `ablation` | fragments vs the naive all-pages baseline (motivating comparison) |
//!
//! Run `cargo run -p dash-bench --release --bin <name>`; `fig10`, `table4`
//! and `fig11` accept an optional scale argument (`small`, `medium`,
//! `large`) to trim runtime. Criterion micro-benchmarks live under
//! `benches/`.
//!
//! Every `cargo bench` run also writes a machine-readable
//! `BENCH_<suite>.json` (per-benchmark p50 ns/iter, ops/s, the sample
//! count behind the p50 and, for per-request samples, the p99) into
//! `DASH_BENCH_DIR` (default: the working directory), so successive PRs
//! can track the build/search perf trajectory; set `DASH_BENCH_FAST=1`
//! for a quick smoke pass.

pub mod datasets;
pub mod experiments;
pub mod keywords;
pub mod params;
pub mod report;
pub mod scale;

pub use datasets::{application_for, dataset, plateau_corpus, QueryId};
pub use keywords::{select_keywords, KeywordTemperature};
