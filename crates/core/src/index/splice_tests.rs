//! Property test of the in-place posting splice
//! (`InvertedFragmentIndex::locate`, then
//! `InvertedFragmentIndex::splice`): after **every** delta of a
//! random history the maintained arenas must equal, list for list and
//! bit for bit, what a from-scratch build over the same fragments lays
//! out — the exactness the splice claims by construction, checked
//! below the engines (whose search-level equivalence
//! `tests/maintenance.rs` and `tests/sharded_maintenance.rs` cover).
//! The corpus and delta generators are shared with `walk_tests`.

use std::collections::BTreeMap;

use dash_relation::Value;
use proptest::prelude::*;

use crate::fragment::{Fragment, FragmentId};
use crate::index::{FragmentIndex, InvertedFragmentIndex, Posting};
use crate::update::IndexDelta;

pub(super) const GROUPS: [&str; 3] = ["American", "Thai", "Udon"];
/// Twelve ranges × three groups = 36 identifiers over 14 words: small
/// enough that lists empty out and come back, and that one delta grows
/// some lists while shrinking others.
const RANGES: i64 = 12;
const VOCAB: [&str; 14] = [
    "burger", "fries", "coffee", "thai", "spicy", "noodle", "queen", "cafe", "nice", "bad", "udon",
    "broth", "crisp", "tea",
];
/// Initial corpora draw from the first words only, so later deltas
/// bring keywords the interner has never seen.
pub(super) const INITIAL_VOCAB: usize = 8;

pub(super) fn id((group, range): (usize, i64)) -> FragmentId {
    FragmentId::new(vec![Value::str(GROUPS[group]), Value::Int(range)])
}

fn fragment((coord, words): ((usize, i64), Vec<(usize, u64)>)) -> Fragment {
    let occurrences: BTreeMap<String, u64> = words
        .into_iter()
        .map(|(w, n)| (VOCAB[w].to_string(), n))
        .collect();
    Fragment::new(id(coord), occurrences, 1)
}

fn coord_strategy() -> impl Strategy<Value = (usize, i64)> {
    (0..GROUPS.len(), 0..RANGES)
}

/// A fragment over `VOCAB[..vocab]`; zero keywords is legal (a live
/// fragment with no postings).
pub(super) fn fragment_strategy(vocab: usize) -> impl Strategy<Value = Fragment> {
    (
        coord_strategy(),
        prop::collection::vec((0..vocab, 1u64..4), 0..6),
    )
        .prop_map(fragment)
}

/// One delta: removes of arbitrary coordinates (live, tombstoned or
/// never seen) and adds that may repeat an identifier (last wins) or
/// re-add a removed one. Either side may be empty: pure removes, pure
/// adds, upserts.
pub(super) fn delta_strategy() -> impl Strategy<Value = IndexDelta> {
    (
        prop::collection::vec(coord_strategy(), 0..4),
        prop::collection::vec(fragment_strategy(VOCAB.len()), 0..5),
    )
        .prop_map(|(removes, adds)| IndexDelta::new(removes.into_iter().map(id).collect(), adds))
}

/// `index`'s probe slice for `word` (empty when never interned).
fn probe_slice<'a>(index: &'a InvertedFragmentIndex, word: &str) -> &'a [Posting] {
    let Some(kw) = index.image_interner().kw(word) else {
        return &[];
    };
    let (start, len) = index.image_lists().nth(kw.index()).expect("list per kw");
    &index.image_probe_arena()[start as usize..(start + len) as usize]
}

fn assert_matches_rebuild(index: &FragmentIndex, truth: &BTreeMap<FragmentId, Fragment>) {
    let inverted = &index.inverted;
    // Contiguous layout: every list starts where the previous ended.
    let mut at = 0u32;
    for (start, len) in inverted.image_lists() {
        assert_eq!(start, at, "list refs contiguous in handle order");
        at += len;
    }
    assert_eq!(at as usize, inverted.posting_count());
    assert_eq!(at as usize, inverted.image_probe_arena().len());

    // A from-scratch build over the maintained catalog: same handles,
    // so slices compare directly.
    let live: Vec<Fragment> = truth.values().cloned().collect();
    let rebuilt = InvertedFragmentIndex::build(&index.catalog, &live).unwrap();
    assert_eq!(index.fragment_count(), live.len());
    assert_eq!(inverted.keyword_count(), rebuilt.keyword_count());
    for word in VOCAB {
        assert_eq!(inverted.postings(word), rebuilt.postings(word), "{word}");
        assert_eq!(
            probe_slice(inverted, word),
            probe_slice(&rebuilt, word),
            "{word}"
        );
        assert_eq!(inverted.df(word), rebuilt.df(word), "{word}");
        assert_eq!(inverted.idf(word), rebuilt.idf(word), "{word}");
        assert_eq!(inverted.kw(word).is_some(), rebuilt.kw(word).is_some());
    }
}

proptest! {
    #[test]
    fn splice_equals_rebuild_after_every_delta(
        initial in prop::collection::vec(fragment_strategy(INITIAL_VOCAB), 0..20),
        deltas in prop::collection::vec(delta_strategy(), 1..12),
    ) {
        // First occurrence of an identifier wins, like a crawl's
        // distinct output.
        let mut truth: BTreeMap<FragmentId, Fragment> = BTreeMap::new();
        for fragment in initial {
            truth.entry(fragment.id.clone()).or_insert(fragment);
        }
        let live: Vec<Fragment> = truth.values().cloned().collect();
        let mut index = FragmentIndex::build(&live, Some(1)).unwrap();
        assert_matches_rebuild(&index, &truth);
        for delta in &deltas {
            for id in &delta.removes {
                truth.remove(id);
            }
            for fragment in &delta.adds {
                truth.insert(fragment.id.clone(), fragment.clone());
            }
            index.apply(delta).unwrap();
            assert_matches_rebuild(&index, &truth);
        }
    }
}
