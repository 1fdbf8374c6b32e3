//! Estimators: nearest-rank percentiles, the window cut into slices
//! with the best slice reported, and the driver's own spread check.
//!
//! Why the best slice: this host slows in one-sided bursts and in
//! phases, so a statistic over a whole window moves with however much
//! of the window was disturbed, while the calmest second of three
//! rounds repeats (see the README's noise section for the numbers).

/// One timed operation, in nanoseconds since the run's clock origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One slice of a window: its successful samples' latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub seconds: f64,
    /// Ascending latencies of the samples that finished in the slice.
    pub latencies_ns: Vec<u64>,
}

impl Slice {
    pub fn per_second(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.seconds
    }
}

/// Edges of as many slices of about `slice_ns` as fit `[open_ns,
/// close_ns)` (at least one), all the same length.
pub fn even_edges(open_ns: u64, close_ns: u64, slice_ns: u64) -> Vec<u64> {
    let window = close_ns - open_ns;
    let count = (window / slice_ns).max(1);
    (0..=count)
        .map(|at| open_ns + (window as u128 * at as u128 / count as u128) as u64)
        .collect()
}

/// Cuts the span between the first and the last of the ascending
/// `edges` into the slices they bound and assigns every sample to the
/// slice it finished in. A sample that began before the first edge,
/// finished at or after the last, or failed is in no slice.
pub fn cut(samples: &[Sample], edges: &[u64]) -> Vec<Slice> {
    let mut slices: Vec<Slice> = edges
        .windows(2)
        .map(|pair| Slice {
            seconds: (pair[1] - pair[0]) as f64 / 1e9,
            latencies_ns: Vec::new(),
        })
        .collect();
    let (Some(&open_ns), Some(&close_ns)) = (edges.first(), edges.last()) else {
        return slices;
    };
    for sample in samples {
        if !sample.ok || sample.start_ns < open_ns || sample.end_ns >= close_ns {
            continue;
        }
        let at = edges.partition_point(|&edge| edge <= sample.end_ns) - 1;
        slices[at].latencies_ns.push(sample.latency_ns());
    }
    for slice in &mut slices {
        slice.latencies_ns.sort_unstable();
    }
    slices
}

/// The best slice's reading of each search metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Best {
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub per_second: f64,
    /// Fewest samples among the slices considered.
    pub least_samples: usize,
}

/// Best reading per metric over `slices` (of every round): lowest
/// p50, lowest p90, highest completion rate. A slice holding fewer
/// than half the fullest slice's samples is left out: a stall leaves
/// a handful of fast samples whose percentiles mean nothing.
pub fn best(slices: &[&Slice]) -> Option<Best> {
    let fullest = slices.iter().map(|s| s.latencies_ns.len()).max()?;
    let eligible: Vec<&Slice> = slices
        .iter()
        .copied()
        .filter(|s| !s.latencies_ns.is_empty() && s.latencies_ns.len() * 2 >= fullest)
        .collect();
    let lowest = |q: f64| {
        eligible
            .iter()
            .map(|s| percentile(&s.latencies_ns, q))
            .min()
    };
    Some(Best {
        p50_ns: lowest(0.5)?,
        p90_ns: lowest(0.9)?,
        per_second: eligible.iter().map(|s| s.per_second()).fold(0.0, f64::max),
        least_samples: eligible.iter().map(|s| s.latencies_ns.len()).min()?,
    })
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    std::array::from_fn(|at| {
        let i = at + 1;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Middle-half spread as a share of the median — the driver's
/// steadiness check.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ns: u64, end_ns: u64) -> Sample {
        Sample {
            start_ns,
            end_ns,
            ok: true,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&values, 0.5), 5);
        assert_eq!(percentile(&values, 0.9), 9);
        assert_eq!(percentile(&values, 0.99), 10);
        assert_eq!(percentile(&values, 0.0), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.9), 90);
        assert_eq!(percentile(&hundred, 0.99), 99);
    }

    #[test]
    fn cutting_leaves_out_early_late_and_failed_samples() {
        let samples = [
            sample(90, 110),  // began before the window
            sample(100, 150), // slice 0
            sample(190, 210), // begins in slice 0, finishes in slice 1
            sample(250, 299), // slice 1
            sample(280, 300), // finishes at the close
            sample(290, 350), // finishes after the close
            Sample {
                start_ns: 120,
                end_ns: 130,
                ok: false,
            },
        ];
        let slices = cut(&samples, &even_edges(100, 300, 100));
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].latencies_ns, vec![50]);
        assert_eq!(slices[1].latencies_ns, vec![20, 49]);
        assert_eq!(slices[0].seconds, 100e-9);
        // Uneven edges (whole write cycles) bound uneven slices.
        let slices = cut(&samples, &[100, 250, 300]);
        assert_eq!(slices[0].latencies_ns, vec![20, 50]);
        assert_eq!(slices[1].latencies_ns, vec![49]);
        assert_eq!(slices[0].seconds, 150e-9);
        assert!(cut(&samples, &[100]).is_empty());
    }

    #[test]
    fn even_edges_fit_whole_slices_into_the_window() {
        assert_eq!(even_edges(100, 300, 100), vec![100, 200, 300]);
        // A window shorter than a slice is one slice.
        assert_eq!(even_edges(100, 300, 1_000), vec![100, 300]);
        // A window of 2.5 slices is two slices of 1.25.
        assert_eq!(even_edges(0, 250, 100), vec![0, 125, 250]);
    }

    #[test]
    fn best_takes_each_metric_from_its_own_best_slice() {
        let slice = |latencies: &[u64]| Slice {
            seconds: 1.0,
            latencies_ns: latencies.to_vec(),
        };
        let slices = [
            slice(&[10, 10, 10, 10, 10, 10, 10, 10, 10, 90]),
            slice(&[20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20]),
            // A stalled slice: two fast samples that must not win.
            slice(&[1, 1]),
            slice(&[]),
        ];
        let best = best(&slices.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(best.p50_ns, 10);
        assert_eq!(best.p90_ns, 10);
        assert_eq!(best.per_second, 12.0);
        assert_eq!(best.least_samples, 10);
        assert_eq!(super::best(&[]), None);
        assert_eq!(super::best(&[&slice(&[])]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
