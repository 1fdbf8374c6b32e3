//! Keyword temperatures read off a fragment set rather than off the
//! engine under test, so a tier's keyword pool does not depend on the
//! code it checks.

use std::collections::BTreeMap;

use dash::core::Fragment;

/// Every keyword of `fragments` with its document frequency (the
/// number of fragments holding it), hottest first, ties in word order
/// — the ranking `InvertedFragmentIndex::keywords_by_df` reports.
pub fn keywords_by_df(fragments: &[Fragment]) -> Vec<(String, usize)> {
    let mut df: BTreeMap<&str, usize> = BTreeMap::new();
    for fragment in fragments {
        for word in fragment.keyword_occurrences.keys() {
            *df.entry(word).or_default() += 1;
        }
    }
    let mut ranked: Vec<(String, usize)> = df
        .into_iter()
        .map(|(word, n)| (word.to_string(), n))
        .collect();
    // Stable: equal frequencies keep the map's word order.
    ranked.sort_by_key(|(_, df)| std::cmp::Reverse(*df));
    ranked
}
