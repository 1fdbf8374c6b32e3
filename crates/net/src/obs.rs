//! The front-end's observability bundle: one [`Registry`] per
//! [`NetServer`](crate::NetServer) (tests run several fronts per
//! process; their counters must not bleed into each other), the
//! stage-latency histograms the pool threads record into, and the
//! worst-N slow-request log behind `GET /debug/slow`.
//!
//! ## Metric names (`GET /metrics`)
//!
//! Everything the front-end records is `dash_net_*`; the exposition
//! additionally merges the backing `DashServer`'s `dash_serve_*`
//! registry and the process-global registry (`dash_shard_*`,
//! `dash_repl_*`, `dash_router_*`) — one scrape covers every layer. See the metrics reference table in the crate
//! docs ([`crate`]).
//!
//! Stage attribution: a request's life is `head → body → handle →
//! write`, marked with the `Instant` the pool thread takes when its
//! event arrives and when its answer is ready. `handle` includes
//! handing the request over (promoting a follower, or waiting for a
//! free thread); `dash_net_queue_wait_ns` isolates that component.

use std::sync::Arc;

use dash_obs::{Gauge, Histogram, Registry, SlowLog};

/// Worst-request entries retained by the slow log.
const SLOW_CAPACITY: usize = 32;

/// Per-front-end observability state, shared by every pool thread.
#[derive(Debug)]
pub(crate) struct NetObs {
    /// This front-end's registry (`dash_net_*` series live here).
    pub(crate) registry: Arc<Registry>,
    /// Worst-N requests with per-stage breakdowns (`GET /debug/slow`).
    pub(crate) slow: SlowLog,
    /// Honor `debug_sleep_us` query parameters (test/diagnostic
    /// injection; off by default — see
    /// `NetConfig::allow_debug_sleep`).
    pub(crate) allow_debug_sleep: bool,
    /// Request-line + header read/parse time.
    pub(crate) head_ns: Arc<Histogram>,
    /// Body read time (zero-length bodies record ~0).
    pub(crate) body_ns: Arc<Histogram>,
    /// Request complete → response ready (hand-over + route handling).
    pub(crate) handle_ns: Arc<Histogram>,
    /// Response flush time (first byte queued → last byte written).
    pub(crate) write_ns: Arc<Histogram>,
    /// End-to-end: first request byte → response fully written.
    pub(crate) request_ns: Arc<Histogram>,
    /// Request complete → a thread starts handling it: the promotion
    /// of a follower, or the time it waited while none was free.
    pub(crate) queue_wait_ns: Arc<Histogram>,
    /// Pool threads handling a request (neither leading nor parked).
    pub(crate) busy: Arc<Gauge>,
}

impl NetObs {
    pub(crate) fn new(allow_debug_sleep: bool) -> NetObs {
        let registry = Arc::new(Registry::new());
        NetObs {
            slow: SlowLog::new(SLOW_CAPACITY),
            allow_debug_sleep,
            head_ns: registry.histogram("dash_net_head_ns"),
            body_ns: registry.histogram("dash_net_body_ns"),
            handle_ns: registry.histogram("dash_net_handle_ns"),
            write_ns: registry.histogram("dash_net_write_ns"),
            request_ns: registry.histogram("dash_net_request_ns"),
            queue_wait_ns: registry.histogram("dash_net_queue_wait_ns"),
            busy: registry.gauge("dash_net_busy_followers"),
            registry,
        }
    }
}

/// A process-global counter resolved once per call site — the bump
/// pattern the replication/routing layers use for metrics that have no
/// per-front-end home (a replica's sync thread outlives front-ends).
macro_rules! global_counter {
    ($name:literal) => {{
        static CELL: std::sync::OnceLock<std::sync::Arc<dash_obs::Counter>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| dash_obs::Registry::global().counter($name))
    }};
}
pub(crate) use global_counter;
