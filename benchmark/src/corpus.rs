//! Corpus `zipf200k`: 200 000 fragments in the TPC-H Q2 shape
//! (identifier `[Int(custkey), Int(quantity)]`, equality group =
//! custkey, range attribute = quantity), 2 000 groups of 100, a
//! 4 000-word vocabulary with Zipf popularity — the shape of
//! `dash_bench::scale::ScaleCorpus`, on the benchmark's own generator.
//!
//! Every fragment is a pure function of `(seed, group, quantity)`, so
//! the child that serves, the parent's oracle and the delta scripts
//! regenerate any slice of it independently.

use std::collections::BTreeMap;

use dash_core::{Fragment, FragmentId};
use dash_relation::Value;
use dash_webapp::WebApplication;

use crate::rng::{derive, fnv64, fold, Rng, Zipf};

pub const GROUPS: usize = 2_000;
pub const GROUP_SIZE: usize = 100;
pub const FRAGMENTS: usize = GROUPS * GROUP_SIZE;
pub const VOCAB: usize = 4_000;
const KEYWORD_SKEW: f64 = 1.1;
const TF_SKEW: f64 = 1.3;
const TF_MAX: usize = 64;
const KEYWORD_DRAWS: usize = 6;
/// Shards of the engine under test (the one library default the
/// deployment overrides).
pub const SHARDS: usize = 2;

/// The vocabulary word at `rank` (0 = hottest); fixed width, so lexical
/// order is rank order.
pub fn word(rank: usize) -> String {
    format!("kw{rank:06}")
}

#[derive(Debug, Clone)]
pub struct Corpus {
    seed: u64,
    keywords: Zipf,
    term_frequency: Zipf,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        Corpus {
            seed: derive(seed, "corpus"),
            keywords: Zipf::new(VOCAB, KEYWORD_SKEW),
            term_frequency: Zipf::new(TF_MAX, TF_SKEW),
        }
    }

    /// Fragment `quantity` (1-based) of equality group `group`
    /// (0-based; custkey `group + 1`).
    pub fn fragment(&self, group: usize, quantity: usize) -> Fragment {
        let coords = ((group as u64) << 24) ^ quantity as u64;
        let mut rng = Rng::new(self.seed ^ coords.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut occurrences: BTreeMap<String, u64> = BTreeMap::new();
        for _ in 0..KEYWORD_DRAWS {
            let count = self.term_frequency.sample(&mut rng) as u64 + 1;
            *occurrences
                .entry(word(self.keywords.sample(&mut rng)))
                .or_insert(0) += count;
        }
        let record_count = 1 + rng.below(4);
        Fragment::new(fragment_id(group, quantity), occurrences, record_count)
    }

    /// The groups `lo..hi`, in identifier order.
    pub fn groups(&self, lo: usize, hi: usize) -> Vec<Fragment> {
        (lo..hi)
            .flat_map(|group| (1..=GROUP_SIZE).map(move |quantity| (group, quantity)))
            .map(|(group, quantity)| self.fragment(group, quantity))
            .collect()
    }

    /// The corpus as `SHARDS` contiguous runs of whole groups — the
    /// partition `IngestSource::Batches` takes as given.
    pub fn shard_batches(&self) -> impl Iterator<Item = Vec<Fragment>> + '_ {
        (0..SHARDS).map(|s| self.groups(s * GROUPS / SHARDS, (s + 1) * GROUPS / SHARDS))
    }
}

pub fn fragment_id(group: usize, quantity: usize) -> FragmentId {
    FragmentId::new(vec![
        Value::Int(group as i64 + 1),
        Value::Int(quantity as i64),
    ])
}

/// Order-sensitive 64-bit fingerprint of a fragment sequence.
pub fn fingerprint<'a>(fragments: impl IntoIterator<Item = &'a Fragment>) -> u64 {
    let mut hash = fnv64(b"zipf200k");
    for fragment in fragments {
        for value in fragment.id.values() {
            match value {
                Value::Int(i) => hash = fold(hash, *i as u64),
                other => hash = fold(hash, fnv64(other.to_string().as_bytes())),
            }
        }
        for (term, count) in &fragment.keyword_occurrences {
            hash = fold(fold(hash, fnv64(term.as_bytes())), *count);
        }
        hash = fold(hash, fragment.record_count);
    }
    hash
}

/// The fingerprint of a whole corpus as the serving child reports it:
/// the shard batches' fingerprints folded in order (the child never
/// holds more than one batch).
pub fn sharded_fingerprint(fragments: &[Fragment]) -> u64 {
    fragments
        .chunks(FRAGMENTS / SHARDS)
        .map(fingerprint)
        .reduce(fold)
        .unwrap_or(0)
}

/// The application the corpus mimics: TPC-H Q2, analysed against a
/// micro database (analysis wants the schema, not the rows). The
/// database is returned too: `NetServer::serve_primary` takes one.
pub fn application() -> (WebApplication, dash_relation::Database) {
    let mut config = dash_tpch::TpchConfig::new(dash_tpch::Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let db = dash_tpch::generate(&config);
    let app = dash_tpch::q2_application(&db).expect("the bundled Q2 servlet analyses");
    (app, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_regenerate_independently_of_iteration_order() {
        let corpus = Corpus::new(1);
        let run = corpus.groups(3, 5);
        assert_eq!(run.len(), 2 * GROUP_SIZE);
        assert_eq!(run[GROUP_SIZE + 6], corpus.fragment(4, 7));
        assert_eq!(run[0].id, fragment_id(3, 1));
    }

    #[test]
    fn batches_partition_the_corpus_in_group_order() {
        let corpus = Corpus::new(2);
        let sizes: Vec<usize> = corpus.shard_batches().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![FRAGMENTS / SHARDS; SHARDS]);
    }

    #[test]
    fn seed_one_is_pinned() {
        // A drifted generator (rng, Zipf table, word format, draw
        // order) moves every workload: fail loudly instead.
        let corpus = Corpus::new(1);
        let head = corpus.groups(0, 20);
        assert_eq!(fingerprint(&head), 0xd162_3b92_7c49_50d5);
        let probe = corpus.fragment(1234, 56);
        let terms: Vec<(&str, u64)> = probe
            .keyword_occurrences
            .iter()
            .map(|(w, c)| (w.as_str(), *c))
            .collect();
        assert_eq!(
            terms,
            vec![
                ("kw000009", 3),
                ("kw000019", 7),
                ("kw000105", 7),
                ("kw001956", 3),
                ("kw002424", 27)
            ]
        );
    }
}
