//! The `obs` suite: the price of observing — what one span, one
//! counter bump, one histogram record and one full registry render
//! cost, enabled and disabled. Instrumentation only stays on in
//! production if it is effectively free, so CI gates the enabled
//! span's amortized cost under 1µs (it measures tens of ns; the
//! budget is deliberately loose to absorb noisy shared runners) and
//! the disabled path under the enabled one.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dash_obs::{Registry, SpanGuard};

/// Amortized nanoseconds per call over `iters` iterations, after a
/// 10% warmup pass.
fn per_op_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        op();
    }
    let begin = Instant::now();
    for _ in 0..iters {
        op();
    }
    begin.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_obs(c: &mut Criterion) {
    let fast = std::env::var_os("DASH_BENCH_FAST").is_some();
    let iters: u64 = if fast { 200_000 } else { 2_000_000 };

    let registry = Registry::new();
    let hist = registry.histogram("dash_bench_span_ns");
    let counter = registry.counter("dash_bench_ops_total");

    // One full span: start (enabled check + clock read) and drop
    // (clock read + bucket index + two relaxed fetch_adds).
    let span_enabled = per_op_ns(iters, || drop(black_box(SpanGuard::start(&hist))));
    registry.set_enabled(false);
    let span_disabled = per_op_ns(iters, || drop(black_box(SpanGuard::start(&hist))));
    registry.set_enabled(true);

    let counter_inc = per_op_ns(iters, || counter.inc());
    let mut lcg = 0u64;
    let record = per_op_ns(iters, || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(lcg >> 32);
    });

    // A populated registry render — the per-scrape cost of /metrics
    // at a realistic series count (24 counters, 8 histograms).
    let scrape = Registry::new();
    for i in 0..24u64 {
        scrape.counter(&format!("dash_bench_c{i}_total")).add(i);
    }
    for i in 0..8u64 {
        let h = scrape.histogram(&format!("dash_bench_h{i}_ns"));
        for s in 0..1_000u64 {
            h.record(s * s);
        }
    }
    let render = per_op_ns(if fast { 2_000 } else { 20_000 }, || {
        black_box(scrape.render());
    });

    // The headline gate, enforced here so a local `cargo bench` fails
    // exactly like CI's jq gate on the JSON row.
    assert!(
        span_enabled < 1_000.0,
        "enabled span costs {span_enabled:.0}ns — over the 1µs budget"
    );

    println!(
        "obs micro-costs: span-enabled {span_enabled:.1}ns, span-disabled {span_disabled:.1}ns, \
         counter-inc {counter_inc:.1}ns, histogram-record {record:.1}ns, render {render:.0}ns"
    );
    for (name, ns) in [
        ("span-enabled", span_enabled),
        ("span-disabled", span_disabled),
        ("counter-inc", counter_inc),
        ("histogram-record", record),
        ("render-scrape", render),
    ] {
        c.record_measurement(&format!("obs/{name}"), &[ns], 1.0);
    }
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
