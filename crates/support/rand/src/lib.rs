//! Offline stand-in for `rand`.
//!
//! Implements the subset the workspace uses — `rngs::StdRng`,
//! `SeedableRng::seed_from_u64` and `RngExt::random_range` over integer
//! and float ranges — on top of xoshiro256++ seeded via splitmix64.
//! Deterministic for a given seed (the dataset generators and keyword
//! samplers rely on that), with no claim of crates-io `StdRng` stream
//! compatibility.

use std::ops::{Range, RangeInclusive};

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The core sampling interface.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Range sampling helpers, available on every [`RngCore`].
pub trait RngExt: RngCore {
    /// Samples uniformly from `range`. Panics on an empty range, like the
    /// real `rand`.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }
}

impl<T: RngCore + ?Sized> RngExt for T {}

/// A range a value can be drawn from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Rejection-free bounded sampling via 128-bit multiply (Lemire); the
/// slight modulo bias is irrelevant at the workspace's sample counts.
fn bounded(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.abs_diff(self.start) as u64;
                self.start.wrapping_add(bounded(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = hi.abs_diff(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded(rng, span + 1) as $t)
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Distributions beyond the uniform ranges, mirroring `rand_distr`.
pub mod distr {
    use super::{RngCore, RngExt};

    /// A Zipf distribution over ranks `0..n`: rank `i` is drawn with
    /// probability proportional to `1 / (i + 1)^s`. This is the
    /// workspace's one model of skewed popularity — the scale-corpus
    /// generator draws keyword and term-frequency ranks from it, and
    /// the `scale` bench draws query keywords from the *same*
    /// distribution so its traffic hits the corpus the way it was
    /// built (hot terms dominate both).
    ///
    /// Sampling is inverse-CDF over a precomputed cumulative table:
    /// O(n) memory once, O(log n) per draw, exact for any `s ≥ 0`
    /// (`s = 0` degenerates to uniform). Deterministic for a given
    /// generator stream.
    #[derive(Debug, Clone)]
    pub struct Zipf {
        /// `cdf[i]` = P(rank ≤ i); the last entry is 1.0.
        cdf: Vec<f64>,
    }

    impl Zipf {
        /// A Zipf distribution over `n` ranks with exponent `s`.
        ///
        /// # Panics
        ///
        /// Panics when `n == 0` or `s` is negative/non-finite.
        pub fn new(n: usize, s: f64) -> Zipf {
            assert!(n > 0, "cannot build a Zipf distribution over 0 ranks");
            assert!(
                s >= 0.0 && s.is_finite(),
                "Zipf exponent must be finite and non-negative"
            );
            let mut cdf = Vec::with_capacity(n);
            let mut total = 0.0f64;
            for i in 0..n {
                total += 1.0 / ((i + 1) as f64).powf(s);
                cdf.push(total);
            }
            for p in &mut cdf {
                *p /= total;
            }
            // Guard against summation round-off leaving the tail short.
            *cdf.last_mut().expect("n > 0") = 1.0;
            Zipf { cdf }
        }

        /// Draws one rank in `0..len()`.
        pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            let u: f64 = rng.random_range(0.0..1.0);
            self.cdf
                .partition_point(|&p| p <= u)
                .min(self.cdf.len() - 1)
        }

        /// Number of ranks the distribution draws from.
        pub fn len(&self) -> usize {
            self.cdf.len()
        }

        /// Whether the distribution has no ranks (never true — `new`
        /// rejects `n == 0` — but the conventional pair of `len`).
        pub fn is_empty(&self) -> bool {
            self.cdf.is_empty()
        }
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0usize..1000), b.random_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.random_range(3u64..10);
            assert!((3..10).contains(&x));
            let y = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.random_range(0.0..2.5);
            assert!((0.0..2.5).contains(&f));
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = super::distr::Zipf::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 100);
            counts[rank] += 1;
        }
        // Rank 0 must dwarf the tail; the head must carry most mass.
        assert!(
            counts[0] > 10 * counts[50].max(1),
            "head {:?}",
            &counts[..3]
        );
        let head: usize = counts[..10].iter().sum();
        assert!(head > 5_000, "head mass {head}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let zipf = super::distr::Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let zipf = super::distr::Zipf::new(1000, 1.0);
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.random_range(0u64..1 << 60)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random_range(0u64..1 << 60)).collect();
        assert_ne!(xs, ys);
    }
}
