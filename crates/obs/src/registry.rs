//! Counters, gauges, and the [`Registry`] that names them and renders
//! Prometheus text exposition.
//!
//! ## Naming conventions
//!
//! Series are named `dash_<layer>_<name>` with the conventional
//! suffixes: `_total` for monotonic counters, `_ns` for duration
//! histograms (rendered as summaries, so the wire carries
//! `<name>_ns{quantile="…"}`, `<name>_ns_sum` and `<name>_ns_count`),
//! and no suffix for gauges. Layers in use: `net`, `serve`, `shard`,
//! `repl`, `router`.
//!
//! ## Per-instance vs process-global
//!
//! A [`Registry`] is a first-class value: serving stacks that run
//! several servers in one process (every integration test does) give
//! each server its own, so `/stats` and `/metrics` stay per-instance.
//! [`Registry::global`] is the process-wide default used by layers
//! with no natural instance boundary (sharded search internals,
//! replication plumbing) and by the [`span!`](crate::span!) macro. An
//! HTTP endpoint renders its own registry merged with the global one
//! via [`render_merged`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter (`Relaxed` atomics — safe and
/// lock-free from any thread).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed standalone counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depths, lags).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed standalone gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (concurrent decrements past
    /// zero clamp rather than wrap).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// An instantaneous value.
    Gauge(Arc<Gauge>),
    /// A latency histogram (rendered as a Prometheus summary).
    Histogram(Arc<Histogram>),
}

/// Names metrics, hands out shared handles, and renders the whole set
/// as Prometheus text exposition. See the module docs for the
/// per-instance vs process-global split.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Registry {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry (created enabled on first use).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether recording is live. Only span guards consult this (the
    /// disabled fast path skips the clock reads, which dominate span
    /// cost); counter bumps are cheaper than the check would be.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips recording for every histogram this registry handed out.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The named counter, created on first use. Panics if the name is
    /// already registered as a different kind (a naming bug, not a
    /// runtime condition).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The named gauge, created on first use (same collision rule as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The named histogram, created on first use (same collision rule
    /// as [`Registry::counter`]). Created histograms share this
    /// registry's enabled flag.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        let enabled = Arc::clone(&self.enabled);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_enabled(enabled))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// The current metric set, sorted by name (a copy of the handles,
    /// not the values).
    pub fn collect(&self) -> BTreeMap<String, Metric> {
        self.metrics.lock().expect("obs registry poisoned").clone()
    }

    /// Renders this registry alone as Prometheus text exposition
    /// (see [`render_merged`] for the format contract).
    pub fn render(&self) -> String {
        render_merged(&[self])
    }
}

/// Renders one or more registries as one Prometheus text exposition
/// document. Series are emitted in lexicographic name order with
/// integer values, so two renders of equal state are byte-identical
/// (the same serialization discipline the JSON layer keeps). When the
/// same name appears in several registries, counters and gauges sum
/// and histograms merge bucket-wise — the semantics of "this process
/// saw the union of that work".
///
/// Counters and gauges render as single series; histograms render as
/// summaries: `name{quantile="0.5|0.9|0.99|0.999"}`, `name_sum`,
/// `name_count` — not 1920 per-bucket series, which would bloat every
/// scrape for no extra operational signal.
pub fn render_merged(registries: &[&Registry]) -> String {
    enum Merged {
        Counter(u64),
        Gauge(u64),
        Histogram(HistogramSnapshot),
    }
    let mut merged: BTreeMap<String, Merged> = BTreeMap::new();
    for registry in registries {
        for (name, metric) in registry.collect() {
            match (metric, merged.get_mut(&name)) {
                (Metric::Counter(c), Some(Merged::Counter(v))) => *v += c.get(),
                (Metric::Counter(c), _) => {
                    merged.insert(name, Merged::Counter(c.get()));
                }
                (Metric::Gauge(g), Some(Merged::Gauge(v))) => *v += g.get(),
                (Metric::Gauge(g), _) => {
                    merged.insert(name, Merged::Gauge(g.get()));
                }
                (Metric::Histogram(h), Some(Merged::Histogram(s))) => s.merge(&h.snapshot()),
                (Metric::Histogram(h), _) => {
                    merged.insert(name, Merged::Histogram(h.snapshot()));
                }
            }
        }
    }
    let mut out = String::with_capacity(64 * merged.len());
    for (name, metric) in &merged {
        match metric {
            Merged::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            Merged::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            Merged::Histogram(s) => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                    out.push_str(&format!(
                        "{name}{{quantile=\"{label}\"}} {}\n",
                        s.quantile(q)
                    ));
                }
                out.push_str(&format!("{name}_sum {}\n", s.sum()));
                out.push_str(&format!("{name}_count {}\n", s.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_or_get_returns_the_same_instance() {
        let r = Registry::new();
        let a = r.counter("dash_test_total");
        let b = r.counter("dash_test_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.set(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
        g.add(7);
        g.sub(3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn rendering_is_sorted_and_byte_stable() {
        let r = Registry::new();
        r.counter("dash_b_total").add(2);
        r.gauge("dash_a_depth").set(5);
        r.histogram("dash_c_ns").record(100);
        let one = r.render();
        let two = r.render();
        assert_eq!(one, two);
        let a = one.find("dash_a_depth").unwrap();
        let b = one.find("dash_b_total").unwrap();
        let c = one.find("dash_c_ns").unwrap();
        assert!(a < b && b < c, "series sorted by name");
        assert!(one.contains("# TYPE dash_c_ns summary"));
        assert!(one.contains("dash_c_ns_count 1"));
        assert!(one.contains("dash_c_ns_sum 100"));
    }

    #[test]
    fn merged_render_sums_counters_and_merges_histograms() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("dash_x_total").add(2);
        b.counter("dash_x_total").add(3);
        a.histogram("dash_y_ns").record(10);
        b.histogram("dash_y_ns").record(20);
        let text = render_merged(&[&a, &b]);
        assert!(text.contains("dash_x_total 5\n"));
        assert!(text.contains("dash_y_ns_count 2\n"));
        assert!(text.contains("dash_y_ns_sum 30\n"));
    }

    #[test]
    fn disabling_a_registry_disables_its_histograms() {
        let r = Registry::new();
        let h = r.histogram("dash_z_ns");
        assert!(h.is_enabled());
        r.set_enabled(false);
        assert!(!h.is_enabled());
    }
}
