//! Span guards and trace ids — the request-scoped half of the
//! observability layer.
//!
//! A [`SpanGuard`] measures one stage: start it entering the stage,
//! drop it leaving, and the elapsed nanoseconds land in the stage's
//! histogram. The whole cost when the owning registry is disabled is
//! one `Relaxed` bool load — no clock read, no recording — which is
//! what makes leaving instrumentation compiled-in everywhere
//! affordable (the `obs/span-disabled` bench row prices it).
//!
//! A [`TraceId`] names one request across stages: the net front-end
//! mints one per parsed request and threads it through dispatch, so a
//! slow request reconstructed from the slow log
//! ([`SlowLog`](crate::SlowLog)) is identifiable end to end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::Histogram;

/// A per-request identifier, unique within the process. Minted from a
/// counter, not a clock or RNG — uniqueness is the contract,
/// unpredictability isn't needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The next process-unique trace id (starts at 1; 0 reads as
    /// "untraced").
    pub fn next() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An RAII stage timer: records elapsed nanoseconds into a histogram
/// on drop. Construct via [`SpanGuard::start`] or the
/// [`span!`](crate::span!) macro.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    live: Option<(&'a Histogram, Instant)>,
}

impl<'a> SpanGuard<'a> {
    /// Starts timing into `histogram` — unless its registry is
    /// disabled, in which case the guard is inert and costs one bool
    /// load total.
    pub fn start(histogram: &'a Histogram) -> SpanGuard<'a> {
        SpanGuard {
            live: histogram.is_enabled().then(|| (histogram, Instant::now())),
        }
    }

    /// Drops the guard without recording (a request that aborted
    /// mid-stage shouldn't pollute the stage's latency distribution).
    pub fn cancel(mut self) {
        self.live = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((histogram, started)) = self.live.take() {
            histogram.record(started.elapsed().as_nanos() as u64);
        }
    }
}

/// Times the enclosing scope into a named histogram of the global
/// registry: `let _span = span!("dash_shard_search_ns");`. The
/// histogram handle is resolved once per call site (a `OnceLock`
/// static), so steady-state cost is the [`SpanGuard`] itself, not a
/// registry lookup.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HISTOGRAM: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        $crate::SpanGuard::start(
            HISTOGRAM.get_or_init(|| $crate::Registry::global().histogram($name)),
        )
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn trace_ids_are_unique_and_display_as_hex() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_eq!(format!("{}", TraceId(255)), "00000000000000ff");
    }

    #[test]
    fn spans_record_on_drop_and_cancel_suppresses() {
        let r = Registry::new();
        let h = r.histogram("dash_test_span_ns");
        {
            let _span = SpanGuard::start(&h);
        }
        assert_eq!(h.count(), 1);
        SpanGuard::start(&h).cancel();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn disabled_registry_spans_are_inert() {
        let r = Registry::new();
        let h = r.histogram("dash_test_off_ns");
        r.set_enabled(false);
        {
            let _span = SpanGuard::start(&h);
        }
        assert_eq!(h.count(), 0);
        r.set_enabled(true);
        {
            let _span = SpanGuard::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_macro_resolves_against_the_global_registry() {
        {
            let _span = span!("dash_test_macro_ns");
        }
        let text = Registry::global().render();
        assert!(text.contains("dash_test_macro_ns_count"));
    }
}
