//! The benchmark's own random numbers: splitmix64 to spread a seed,
//! xoshiro256** to draw, and a cumulative-table Zipf sampler.
//!
//! Nothing here comes from the repository's `rand` stand-in, so no
//! change to the program under test can move a workload.

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stream seed derived from a root seed and a label, so the corpus,
/// the scripts and the deltas of one `--seed` never share a stream.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut state = seed ^ fnv64(label.as_bytes());
    splitmix64(&mut state)
}

/// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut state = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// every `n` the benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` (rank 0 most likely), `P(r) ∝ 1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut total = 0.0;
        let mut cumulative: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-exponent);
                total
            })
            .collect();
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64 bit, folding eight bytes per multiply (little endian,
/// the tail zero-padded and the length mixed in last). Response bodies
/// are digested inside the client loop, so a byte-at-a-time FNV would
/// cost the client more than the socket does on `hot-fit`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of eight"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    hash = (hash ^ u64::from_le_bytes(tail)).wrapping_mul(FNV_PRIME);
    (hash ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

/// Folds one more word into a running fingerprint.
pub fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_and_xoshiro_match_their_reference_outputs() {
        // splitmix64 from state 0: the published first outputs.
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        // Pinned: a drifted generator changes every workload.
        let mut rng = Rng::new(1);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xb3f2_af6d_0fc7_10c5,
                0x853b_5596_4736_4cea,
                0x92f8_9756_082a_4514
            ]
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(13) < 13);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_is_skewed_hot_first_and_covers_every_rank() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(3);
        let mut counts = [0u32; 100];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 2 * counts[2]);
        assert!(counts[2] > 2 * counts[20]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn fnv64_sees_length_tail_and_order() {
        assert_ne!(fnv64(b""), fnv64(b"\0"));
        assert_ne!(fnv64(b"abcdefgh"), fnv64(b"abcdefgh\0"));
        assert_ne!(fnv64(b"abcdefghi"), fnv64(b"abcdefghj"));
        assert_ne!(fnv64(b"12345678abcdefgh"), fnv64(b"abcdefgh12345678"));
        assert_eq!(fnv64(b"dashbench"), fnv64(b"dashbench"));
    }
}
