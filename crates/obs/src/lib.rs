//! `dash-obs` — observability for the Dash stack, hand-rolled in pure
//! `std` like every other workspace dependency (the build environment
//! has no registry access).
//!
//! Four pieces, each usable alone:
//!
//! * **Histograms** ([`Histogram`]): lock-free log-linear bucket
//!   arrays (`AtomicU64`, 32 sub-buckets per octave → ≤3.1% relative
//!   quantization error over the whole `u64` range), with mergeable
//!   [`HistogramSnapshot`]s and exact nearest-rank
//!   p50/p90/p99/p999 extraction. See [`hist`] for the bucket math.
//! * **Counters and gauges** ([`Counter`], [`Gauge`]): `Relaxed`
//!   atomics behind a named [`Registry`] — per-server instances for
//!   the serving layers (tests run many servers per process and
//!   `/stats` must stay per-instance), [`Registry::global`] for
//!   layers with no instance boundary (sharded search, replication
//!   plumbing).
//! * **Spans** ([`SpanGuard`], [`span!`], [`TraceId`]): RAII stage
//!   timers recording elapsed ns into a histogram on drop, with a
//!   disabled-registry fast path of one bool load (priced <1µs by the
//!   `obs` bench suite; measured tens of ns).
//! * **Exposition** ([`render_merged`], [`expo`]): byte-stable
//!   Prometheus text rendering (histograms as summaries), plus a
//!   parser that reads it back.
//!
//! Naming convention across the stack: `dash_<layer>_<name>` with
//! `_total` (counters), `_ns` (duration histograms; the wire carries
//! `<name>_ns{quantile}` / `_ns_sum` / `_ns_count`), bare names for
//! gauges. The slow-query log ([`SlowLog`]) backs `GET /debug/slow`
//! on the HTTP front-end; the registry backs `GET /metrics`.

pub mod expo;
pub mod hist;
mod registry;
mod slow;
mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{render_merged, Counter, Gauge, Metric, Registry};
pub use slow::{SlowEntry, SlowLog};
pub use span::{SpanGuard, TraceId};
