//! Synthetic million-fragment corpus generation (ROADMAP item 3).
//!
//! Every corpus the repo benched before this module existed was tiny
//! (fooddb ≈5 fragments, TPC-H Q2 micro), so the columnar/delta
//! design's O(affected-group) claims were never *measured*. This
//! generator emits deterministic, seeded fragment corpora in the TPC-H
//! Q2 shape — identifier `[Int(custkey), Int(quantity)]`, equality
//! group = custkey, range attribute = quantity — at configurable scale:
//! fragment counts into the millions, configurable equality-group
//! count (and thereby size), Zipf-distributed keyword popularity and
//! term frequencies (natural-language-shaped skew, the same
//! [`rand::distr::Zipf`] sampler the `scale` bench draws query
//! keywords from).
//!
//! **Streaming**: fragments are produced group by group —
//! [`ScaleCorpus::shard_batches`] yields one shard's worth at a time,
//! so building a sharded engine over a million fragments never holds
//! the whole corpus and the indexes in memory together
//! (the builder's [`IngestSource::Batches`] consumes and drops each
//! batch before the next is generated).
//!
//! **Deterministic**: every fragment is a pure function of
//! `(seed, group, quantity)` — its RNG stream is derived from those
//! three alone, so any slice of the corpus (one batch, one group, one
//! re-generated fragment for delta traffic) reproduces bit-identically
//! regardless of iteration order.
//!
//! [`IngestSource::Batches`]: dash_core::IngestSource::Batches

use std::collections::BTreeMap;

use dash_core::{Fragment, FragmentId};
use dash_relation::Value;
use rand::distr::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape of one synthetic corpus. The default is the scale tier's
/// reference shape: 1M fragments over 10k equality groups (100
/// fragments each), a 20k-word vocabulary at Zipf 1.1, ~6 distinct
/// keywords per fragment.
#[derive(Debug, Clone)]
pub struct ScaleCorpus {
    /// Total fragments to emit.
    pub fragments: usize,
    /// Equality-group (custkey) count; group size is
    /// `fragments / groups` (the last group takes the remainder).
    pub groups: usize,
    /// Keyword vocabulary size. Words are ranked hot-first: rank 0 is
    /// the most popular term ([`ScaleCorpus::vocab`] returns them in
    /// that order, ready for skewed query traffic).
    pub vocab: usize,
    /// Zipf exponent of keyword popularity (which terms a fragment
    /// mentions).
    pub keyword_skew: f64,
    /// Zipf exponent of term frequency (how often a mentioned term
    /// repeats inside the fragment).
    pub tf_skew: f64,
    /// Distinct keyword draws per fragment (duplicates merge, so the
    /// realized distinct count is slightly lower under heavy skew).
    pub keywords_per_fragment: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for ScaleCorpus {
    fn default() -> Self {
        ScaleCorpus {
            fragments: 1_000_000,
            groups: 10_000,
            vocab: 20_000,
            keyword_skew: 1.1,
            tf_skew: 1.3,
            keywords_per_fragment: 6,
            seed: 0x5CA1E,
        }
    }
}

/// The scale cap from the environment (`DASH_SCALE_FRAGMENTS`), or
/// `default` when unset/unparsable. CI's `scale` job caps the smoke
/// run to ~100k fragments with this; the full tier runs at 1M.
pub fn env_fragments(default: usize) -> usize {
    std::env::var("DASH_SCALE_FRAGMENTS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl ScaleCorpus {
    /// A corpus of `fragments` total fragments keeping the default
    /// shape's ratios (1 group per 100 fragments, 1 vocab word per 50),
    /// with floors so tiny smoke corpora stay well-formed.
    pub fn sized(fragments: usize) -> Self {
        let fragments = fragments.max(1);
        ScaleCorpus {
            fragments,
            groups: (fragments / 100).max(1),
            vocab: (fragments / 50).max(100),
            ..ScaleCorpus::default()
        }
    }

    /// The vocabulary, hot-first: `word(0)` is the most popular term.
    /// Draw query keywords from it by a [`rand::distr::Zipf`] with the
    /// matching `keyword_skew` and traffic follows the same skewed
    /// distribution the corpus was built with.
    pub fn vocab(&self) -> Vec<String> {
        (0..self.vocab).map(word).collect()
    }

    /// One specific fragment, regenerated from scratch — delta traffic
    /// uses this to rebuild (and then perturb) fragments it wants to
    /// upsert, without holding the corpus.
    pub fn fragment(&self, group: usize, quantity: i64) -> Fragment {
        let kw = Zipf::new(self.vocab, self.keyword_skew);
        self.fragment_with(&kw, group, quantity)
    }

    /// The corpus as `shards` contiguous batches of whole equality
    /// groups, balanced by fragment count — exactly the partition
    /// contract the `IngestSource::Batches` build expects
    /// (contiguous, disjoint, ascending group-key runs). Each batch is
    /// generated lazily; drop it before pulling the next and peak
    /// memory stays one shard's worth.
    pub fn shard_batches(&self, shards: usize) -> impl Iterator<Item = Vec<Fragment>> + '_ {
        let shards = shards.max(1);
        let kw = Zipf::new(self.vocab, self.keyword_skew);
        let bounds: Vec<(usize, usize)> = (0..shards)
            .map(|s| (s * self.groups / shards, (s + 1) * self.groups / shards))
            .collect();
        bounds.into_iter().map(move |(lo, hi)| {
            let mut batch = Vec::new();
            for group in lo..hi {
                batch.extend(self.group_with(&kw, group));
            }
            batch
        })
    }

    /// Fragments of group `group` against a prebuilt keyword sampler
    /// (the cumulative table is O(vocab) — build it once per sweep,
    /// not once per group).
    fn group_with(&self, kw: &Zipf, group: usize) -> Vec<Fragment> {
        (1..=self.group_size(group) as i64)
            .map(|quantity| self.fragment_with(kw, group, quantity))
            .collect()
    }

    /// Fragment count of group `group`: the even share, plus the
    /// remainder on the last group.
    fn group_size(&self, group: usize) -> usize {
        let base = self.fragments / self.groups.max(1);
        if group + 1 == self.groups {
            base + self.fragments % self.groups.max(1)
        } else {
            base
        }
    }

    fn fragment_with(&self, kw: &Zipf, group: usize, quantity: i64) -> Fragment {
        // Stream derived from (seed, group, quantity) alone: splitmix64
        // seeding decorrelates even adjacent coordinates.
        let coords = ((group as u64) << 24) ^ quantity as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ coords.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let tf = Zipf::new(64, self.tf_skew);
        let mut occurrences: BTreeMap<String, u64> = BTreeMap::new();
        for _ in 0..self.keywords_per_fragment.max(1) {
            let count = tf.sample(&mut rng) as u64 + 1;
            *occurrences.entry(word(kw.sample(&mut rng))).or_insert(0) += count;
        }
        let record_count = rng.random_range(1u64..=4);
        Fragment::new(
            FragmentId::new(vec![Value::Int(group as i64 + 1), Value::Int(quantity)]),
            occurrences,
            record_count,
        )
    }
}

/// The vocabulary word at `rank` (0 = hottest). Fixed-width so lexical
/// order equals rank order.
fn word(rank: usize) -> String {
    format!("kw{rank:06}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleCorpus {
        ScaleCorpus {
            fragments: 250,
            groups: 10,
            vocab: 200,
            ..ScaleCorpus::default()
        }
    }

    #[test]
    fn emits_exactly_the_configured_count_with_unique_ids() {
        let corpus = tiny();
        let all: Vec<Fragment> = corpus.shard_batches(4).flatten().collect();
        assert_eq!(all.len(), 250);
        let ids: std::collections::BTreeSet<_> = all.iter().map(|f| f.id.clone()).collect();
        assert_eq!(ids.len(), 250, "identifiers must be unique");
    }

    #[test]
    fn batches_are_contiguous_ascending_group_runs() {
        let corpus = tiny();
        let batches: Vec<Vec<Fragment>> = corpus.shard_batches(3).collect();
        assert_eq!(batches.len(), 3);
        let mut prev_max: Option<Value> = None;
        for batch in &batches {
            assert!(!batch.is_empty());
            let keys: Vec<&Value> = batch.iter().map(|f| &f.id.0[0]).collect();
            let lo = keys.iter().min().unwrap();
            if let Some(p) = &prev_max {
                assert!(*lo > p, "shard key ranges must ascend");
            }
            prev_max = Some((*keys.iter().max().unwrap()).clone());
        }
    }

    #[test]
    fn generation_is_deterministic_and_order_independent() {
        let corpus = tiny();
        let one: Vec<Fragment> = corpus.shard_batches(1).flatten().collect();
        let four: Vec<Fragment> = corpus.shard_batches(4).flatten().collect();
        assert_eq!(one, four, "partitioning must not change the corpus");
        // A single regenerated fragment matches its in-corpus twin.
        let probe = &one[42];
        let (group, quantity) = match (&probe.id.0[0], &probe.id.0[1]) {
            (Value::Int(g), Value::Int(q)) => ((*g - 1) as usize, *q),
            other => panic!("unexpected id shape {other:?}"),
        };
        assert_eq!(&corpus.fragment(group, quantity), probe);
    }

    #[test]
    fn keyword_popularity_is_skewed_hot_first() {
        let corpus = tiny();
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        for fragment in corpus.shard_batches(1).flatten() {
            for term in fragment.keyword_occurrences.keys() {
                *df.entry(term.clone()).or_insert(0) += 1;
            }
        }
        let hot = df.get(&word(0)).copied().unwrap_or(0);
        let cold = df.get(&word(150)).copied().unwrap_or(0);
        assert!(hot > 4 * cold.max(1), "hot {hot} vs cold {cold}");
    }

    #[test]
    fn env_cap_parses_and_falls_back() {
        // Parser behavior only (mutating the environment races other
        // test threads): unset/garbage falls back to the default.
        assert_eq!(env_fragments(123), 123);
    }

    #[test]
    fn sized_keeps_ratio_floors() {
        let small = ScaleCorpus::sized(30);
        assert_eq!(small.groups, 1);
        assert_eq!(small.vocab, 100);
        let big = ScaleCorpus::sized(1_000_000);
        assert_eq!(big.groups, 10_000);
        assert_eq!(big.vocab, 20_000);
    }
}
