//! The random fragment rows the property tiers draw: an equality key,
//! a range value and a bag of keyword counts, in the fooddb
//! application's identifier shape `(cuisine, budget)`.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

use proptest::prelude::*;

use dash::core::{Fragment, FragmentId};
use dash::relation::Value;

/// The equality keys rows draw from.
pub const EQ_KEYS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// The words rows hold.
pub const VOCAB: [&str; 8] = [
    "burger", "fries", "noodle", "spicy", "fresh", "crispy", "sweet", "salty",
];

/// One generated fragment row.
#[derive(Debug, Clone)]
pub struct GenFragment {
    pub eq: usize,
    pub range: i64,
    pub words: Vec<(usize, u64)>,
}

impl GenFragment {
    pub fn id(&self) -> FragmentId {
        FragmentId::new(vec![Value::str(EQ_KEYS[self.eq]), Value::Int(self.range)])
    }

    pub fn materialize(&self) -> Fragment {
        let mut occ: BTreeMap<String, u64> = BTreeMap::new();
        for &(w, n) in &self.words {
            *occ.entry(VOCAB[w].to_string()).or_insert(0) += n;
        }
        Fragment::new(self.id(), occ, 1)
    }
}

/// Rows with a range value in `ranges` and a number of `(word, count)`
/// draws in `words`.
pub fn fragment_strategy(
    ranges: Range<i64>,
    words: Range<usize>,
) -> impl Strategy<Value = GenFragment> {
    (
        0..EQ_KEYS.len(),
        ranges,
        prop::collection::vec((0usize..VOCAB.len(), 1u64..5), words),
    )
        .prop_map(|(eq, range, words)| GenFragment { eq, range, words })
}

/// Materializes rows into unique fragments: the first occurrence of an
/// identifier wins, like a crawl's distinct output.
#[allow(
    dead_code,
    reason = "wire_roundtrip ships rows as drawn, duplicate identifiers included"
)]
pub fn materialize(rows: &[GenFragment]) -> Vec<Fragment> {
    let mut seen = HashSet::new();
    let mut fragments = Vec::new();
    for row in rows {
        if seen.insert(row.id()) {
            fragments.push(row.materialize());
        }
    }
    fragments
}
