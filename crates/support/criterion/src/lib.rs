//! Offline stand-in for `criterion`.
//!
//! Implements the benchmark-harness subset the workspace's benches use
//! (`bench_function`, `benchmark_group`, `iter`, `iter_batched`,
//! `criterion_group!` / `criterion_main!`) with a lean wall-clock
//! protocol: warm up briefly, then time fixed-size batches and report the
//! median. On top of the human-readable output every run writes a
//! machine-readable `BENCH_<suite>.json` (p50 ns/iter + ops/s per
//! benchmark) so successive PRs can track the perf trajectory — set
//! `DASH_BENCH_DIR` to choose where, defaulting to the working directory.
//!
//! Every row says what it measured: `samples` is the number of samples
//! behind its `p50_ns` — batch means for `iter()` rows, one per
//! operation for rows recorded from per-operation latencies, 1 for a
//! single-shot timing — and a row recorded from more than one
//! per-operation sample also carries its `p99_ns`.

use std::hint::black_box as hint_black_box;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint_black_box(x)
}

/// How `iter_batched` amortizes setup cost. The stand-in runs every
/// variant one setup per measured batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small routine inputs.
    SmallInput,
    /// Large routine inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark path (`group/name` or bare name).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub p50_ns: f64,
    /// Nearest-rank 99th percentile, on rows recorded from more than
    /// one per-operation sample ([`Criterion::record_measurement`]).
    /// `None` for single-shot rows and for `iter()` rows, whose samples
    /// are batch means rather than operations.
    pub p99_ns: Option<f64>,
    /// Iterations per second implied by the median.
    pub ops_per_sec: f64,
    /// Samples behind `p50_ns`.
    pub samples: usize,
    /// The process's peak resident set size when the measurement was
    /// recorded, in bytes (`VmHWM` from `/proc/self/status` on Linux,
    /// 0 where unavailable). Scale suites track memory alongside
    /// latency with this — note it is a process high-water mark, so it
    /// only ever grows across a suite's rows.
    pub peak_rss_bytes: u64,
}

/// The process's peak resident set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, 0 on other platforms (the stand-in
/// has no libc to ask). A high-water mark — monotone over the process
/// lifetime.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kib: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kib * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// The benchmark driver.
pub struct Criterion {
    measurements: Vec<Measurement>,
    sample_size: usize,
    measure_time: Duration,
    warmup_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
        Criterion {
            measurements: Vec::new(),
            sample_size: if fast { 10 } else { 30 },
            measure_time: Duration::from_millis(if fast { 60 } else { 400 }),
            warmup_time: Duration::from_millis(if fast { 20 } else { 120 }),
        }
    }
}

/// The per-benchmark timing callback target.
pub struct Bencher<'a> {
    runner: &'a BenchRunner,
    result: Option<Measurement>,
    name: String,
}

struct BenchRunner {
    sample_size: usize,
    measure_time: Duration,
    warmup_time: Duration,
}

impl BenchRunner {
    /// Times `routine` (already closed over its input production) and
    /// returns the median ns/iter over `sample_size` samples.
    fn run<F: FnMut(u64) -> Duration>(&self, mut batch: F) -> (f64, usize) {
        // Warm up and estimate per-iteration cost.
        let warm_start = Instant::now();
        let mut iters_done: u64 = 0;
        let mut per_iter = Duration::from_nanos(100);
        while warm_start.elapsed() < self.warmup_time {
            let spent = batch(1);
            iters_done += 1;
            if spent > Duration::ZERO {
                per_iter = spent;
            }
        }
        let _ = iters_done;
        // Pick a batch size so one sample lasts roughly
        // measure_time / sample_size.
        let target = self.measure_time.as_nanos() / self.sample_size.max(1) as u128;
        let batch_iters = (target / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64;
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let spent = batch(batch_iters);
            samples.push(spent.as_nanos() as f64 / batch_iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        (samples[samples.len() / 2], samples.len())
    }
}

impl Bencher<'_> {
    /// Times `routine` run back-to-back.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let (p50_ns, samples) = self.runner.run(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                hint_black_box(routine());
            }
            start.elapsed()
        });
        self.record(p50_ns, samples);
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let (p50_ns, samples) = self.runner.run(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                hint_black_box(routine(input));
                spent += start.elapsed();
            }
            spent
        });
        self.record(p50_ns, samples);
    }

    fn record(&mut self, p50_ns: f64, samples: usize) {
        self.result = Some(Measurement {
            name: self.name.clone(),
            p50_ns,
            p99_ns: None,
            ops_per_sec: rate(1.0, p50_ns),
            samples,
            peak_rss_bytes: peak_rss_bytes(),
        });
    }
}

impl Criterion {
    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let runner = BenchRunner {
            sample_size: self.sample_size,
            measure_time: self.measure_time,
            warmup_time: self.warmup_time,
        };
        let mut bencher = Bencher {
            runner: &runner,
            result: None,
            name: name.to_string(),
        };
        f(&mut bencher);
        if let Some(m) = bencher.result {
            self.push(m);
        }
        self
    }

    /// Opens a named group; benchmark names gain a `group/` prefix.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
            sample_size: None,
        }
    }

    /// All measurements taken so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Records externally timed samples under the standard report
    /// schema (printed and written to the JSON like any benchmark), for
    /// what no `iter()` loop can express: a seconds-long build timed
    /// once, or per-request latencies taken around some other state.
    ///
    /// `samples_ns` holds one wall time per sample, in any order; the
    /// row's `p50_ns` is their nearest-rank median, `samples` their
    /// count, and with more than one sample the row also carries
    /// `p99_ns`. `ops_per_sample` is the work one sample covers (1 for
    /// a request, the fragment count for a build), so `ops_per_sec`
    /// reads as the rate at the median.
    ///
    /// # Panics
    ///
    /// Panics if `samples_ns` is empty.
    pub fn record_measurement(
        &mut self,
        name: &str,
        samples_ns: &[f64],
        ops_per_sample: f64,
    ) -> &mut Self {
        assert!(!samples_ns.is_empty(), "{name}: no samples to record");
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50_ns = percentile(&sorted, 50);
        self.push(Measurement {
            name: name.to_string(),
            p50_ns,
            p99_ns: (sorted.len() > 1).then(|| percentile(&sorted, 99)),
            ops_per_sec: rate(ops_per_sample, p50_ns),
            samples: sorted.len(),
            peak_rss_bytes: peak_rss_bytes(),
        });
        self
    }

    fn push(&mut self, m: Measurement) {
        let p99 = m
            .p99_ns
            .map(|ns| format!("  p99 [{}]", format_ns(ns)))
            .unwrap_or_default();
        println!(
            "{:<48} time: [{}]{p99}  ({:.0} ops/s, {} samples)",
            m.name,
            format_ns(m.p50_ns),
            m.ops_per_sec,
            m.samples
        );
        self.measurements.push(m);
    }

    /// Writes `BENCH_<suite>.json` into `DASH_BENCH_DIR` (default: cwd).
    pub fn write_report(&self, suite: &str) {
        if self.measurements.is_empty() {
            return;
        }
        let dir = std::env::var("DASH_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_{suite}.json");
        let mut json = String::from("[\n");
        for (i, m) in self.measurements.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let p99 = m
                .p99_ns
                .map(|ns| format!(", \"p99_ns\": {ns:.1}"))
                .unwrap_or_default();
            json.push_str(&format!(
                "  {{\"name\": \"{}\", \"p50_ns\": {:.1}{p99}, \"ops_per_sec\": {:.1}, \
                 \"samples\": {}, \"peak_rss_bytes\": {}}}",
                m.name.replace('"', "'"),
                m.p50_ns,
                m.ops_per_sec,
                m.samples,
                m.peak_rss_bytes
            ));
        }
        json.push_str("\n]\n");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}

/// A group of related benchmarks (`criterion.benchmark_group(..)`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    prefix: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<N: AsRef<str>, F>(&mut self, name: N, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.prefix, name.as_ref());
        let saved = self.criterion.sample_size;
        if let Some(n) = self.sample_size {
            self.criterion.sample_size = n;
        }
        self.criterion.bench_function(&full, f);
        self.criterion.sample_size = saved;
        self
    }

    /// Ends the group (bookkeeping only).
    pub fn finish(self) {}
}

/// The `q`-th percentile of an ascending-sorted sample (nearest-rank).
fn percentile<T: Copy + Default>(sorted: &[T], q: u32) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() - 1) * q as usize / 100;
    sorted[rank]
}

/// Operations per second when one sample of `ops` operations takes
/// `ns` nanoseconds (0 for a zero-length sample).
fn rate(ops: f64, ns: f64) -> f64 {
    if ns > 0.0 {
        ops * 1e9 / ns
    } else {
        0.0
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Mirrors `criterion_group!`: defines a runner function executing the
/// listed benchmark functions against one [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Mirrors `criterion_main!`: defines `main`, runs every group and writes
/// the JSON report (suite name = benchmark binary stem).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.write_report(&$crate::suite_name());
        }
    };
}

/// The suite name for reports: the benchmark executable's stem, minus
/// cargo's `-<hash>` suffix.
pub fn suite_name() -> String {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match exe.rsplit_once('-') {
        Some((stem, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            stem.to_string()
        }
        _ => exe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        std::env::set_var("DASH_BENCH_FAST", "1");
        let mut c = Criterion::default();
        c.bench_function("noop-ish", |b| b.iter(|| black_box(1u64 + 1)));
        assert_eq!(c.measurements().len(), 1);
        assert!(c.measurements()[0].p50_ns >= 0.0);
        assert!(c.measurements()[0].ops_per_sec > 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "a running process has a resident set");
        }
        std::env::set_var("DASH_BENCH_FAST", "1");
        let mut c = Criterion::default();
        c.record_measurement("row", &[100.0], 1.0);
        // The mark is monotone; concurrent tests may grow it between
        // the two reads, so assert ordering, not equality.
        assert!(c.measurements()[0].peak_rss_bytes <= peak_rss_bytes());
    }

    #[test]
    fn groups_prefix_names() {
        std::env::set_var("DASH_BENCH_FAST", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("grp");
        g.sample_size(5);
        g.bench_function("x", |b| b.iter(|| black_box(2u64 * 2)));
        g.finish();
        assert_eq!(c.measurements()[0].name, "grp/x");
    }

    #[test]
    fn recorded_rows_report_their_sample_count_and_p99() {
        let dir = std::env::temp_dir().join(format!("criterion-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::env::set_var("DASH_BENCH_DIR", &dir);
        let mut c = Criterion::default();
        let latencies: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        c.record_measurement("suite/sampled", &latencies, 1.0);
        c.record_measurement("suite/single-shot", &[4e6], 1000.0);
        c.write_report("schema_test");
        let json = std::fs::read_to_string(dir.join("BENCH_schema_test.json")).expect("report");
        std::fs::remove_dir_all(&dir).expect("clean up");
        let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"name\"")).collect();
        assert_eq!(rows.len(), 2, "{json}");
        assert!(rows[0].contains("\"samples\": 200,"), "{}", rows[0]);
        assert!(rows[0].contains("\"p50_ns\": 100.0,"), "{}", rows[0]);
        assert!(rows[0].contains("\"p99_ns\": 198.0,"), "{}", rows[0]);
        assert!(rows[1].contains("\"samples\": 1,"), "{}", rows[1]);
        assert!(!rows[1].contains("p99_ns"), "{}", rows[1]);
        assert!(
            rows[1].contains("\"ops_per_sec\": 250000.0,"),
            "{}",
            rows[1]
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50), 50);
        assert_eq!(percentile(&sample, 99), 99);
        assert_eq!(percentile(&sample, 0), 1);
        assert_eq!(percentile::<u64>(&[], 50), 0);
    }
}
