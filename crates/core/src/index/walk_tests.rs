//! Property test of the whole-index walk
//! (`InvertedFragmentIndex::walk_every_list`) and of the per-group
//! vocabulary it is the oracle of: for any set of fragment handles and
//! any stale subset of it, the held keywords must be exactly the union
//! of `InvertedFragmentIndex::fragment_terms` over the set, and the
//! stale postings exactly the stale handles' terms, by keyword then
//! handle; and every group's stored vocabulary must be the walk's held
//! keywords over the group's live handles — on a fresh bulk build
//! (where a group's handles are contiguous) and after **every** delta
//! of a random history (where fragments interned after the build
//! scatter a group's handles, re-adds reuse handles and tombstones
//! leave holes).

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use super::splice_tests::{delta_strategy, fragment_strategy, id, GROUPS, INITIAL_VOCAB};
use crate::fragment::{Fragment, FragmentId};
use crate::index::{Frag, FragmentIndex, Kw, Posting};
use crate::update::IndexDelta;

/// What a walk finds: the keywords any walked handle holds, ascending,
/// and the stale handles' live postings, by keyword, then by handle.
#[derive(Debug, Default, PartialEq)]
struct Walk {
    held: Vec<Kw>,
    stale: Vec<(Kw, Posting)>,
}

/// The whole-index walk over `frags` with `stale` among them.
fn walk(index: &FragmentIndex, frags: &[Frag], stale: &[Frag]) -> Walk {
    let (held, stale) = index.inverted.walk_every_list(frags, stale);
    Walk { held, stale }
}

/// The definition the walk must meet: every keyword `fragment_terms`
/// reports for any of `frags`, as handles, ascending; and every term of
/// every `stale` handle as a posting, by keyword, then by handle.
fn oracle(index: &FragmentIndex, frags: &[Frag], stale: &[Frag]) -> Walk {
    let terms = |frag: Frag| {
        index
            .inverted
            .fragment_terms(frag)
            .into_iter()
            .map(move |(word, n)| {
                let kw = index.inverted.kw(word).expect("a held keyword is live");
                let occurrences = u32::try_from(n).expect("counts fit a posting");
                (kw, Posting { frag, occurrences })
            })
    };
    let held: BTreeSet<Kw> = frags
        .iter()
        .flat_map(|&frag| terms(frag))
        .map(|(kw, _)| kw)
        .collect();
    let mut postings: Vec<(Kw, Posting)> = stale.iter().flat_map(|&frag| terms(frag)).collect();
    postings.sort_by_key(|&(kw, posting)| (kw, posting.frag));
    Walk {
        held: held.into_iter().collect(),
        stale: postings,
    }
}

/// Checks the walk on the empty set, every single handle (tombstones
/// included), every whole group, every pair of neighbouring groups,
/// the whole catalog and the random `picks` (handle numbers, reduced
/// modulo the catalog's size) — each against the stale subsets none,
/// all, every other handle, and the set's members among the picks.
fn assert_walk_matches(
    index: &FragmentIndex,
    truth: &BTreeMap<FragmentId, Fragment>,
    picks: &[Vec<u32>],
) {
    // The oracle itself: `fragment_terms` is the fragment's own map.
    for (id, fragment) in truth {
        let frag = index.catalog.frag(id).expect("live fragments are interned");
        let terms: BTreeMap<String, u64> = index
            .inverted
            .fragment_terms(frag)
            .into_iter()
            .map(|(word, n)| (word.to_string(), n))
            .collect();
        assert_eq!(terms, fragment.keyword_occurrences, "{id}");
    }
    let handles = index.catalog.len() as u32;
    // Every group's stored vocabulary, emptied groups included, is
    // what its live handles hold.
    for group in (0..index.catalog.key_count() as u32).map(crate::index::GroupId) {
        let mut frags = index.graph.group_nodes(group).to_vec();
        frags.sort_unstable();
        assert_eq!(
            index.group_vocabulary(group),
            oracle(index, &frags, &[]).held,
            "{group:?}"
        );
    }
    let groups: Vec<Vec<Frag>> = index
        .graph
        .iter_groups(&index.catalog)
        .map(|(_, frags)| frags.to_vec())
        .collect();
    let mut sets: Vec<Vec<Frag>> = vec![Vec::new(), (0..handles).map(Frag).collect()];
    sets.extend((0..handles).map(|h| vec![Frag(h)]));
    sets.extend(groups.windows(2).map(|pair| pair.concat()));
    sets.extend(groups);
    let picked: Vec<Vec<Frag>> = match handles {
        0 => Vec::new(),
        _ => picks
            .iter()
            .map(|pick| pick.iter().map(|&h| Frag(h % handles)).collect())
            .collect(),
    };
    let any_picked: BTreeSet<Frag> = picked.iter().flatten().copied().collect();
    sets.extend(picked);
    for mut frags in sets {
        frags.sort_unstable();
        frags.dedup();
        let stales = [
            Vec::new(),
            frags.clone(),
            frags.iter().copied().step_by(2).collect(),
            frags
                .iter()
                .copied()
                .filter(|f| any_picked.contains(f))
                .collect(),
        ];
        for stale in stales {
            assert_eq!(
                walk(index, &frags, &stale),
                oracle(index, &frags, &stale),
                "{frags:?} stale {stale:?}"
            );
        }
    }
}

proptest! {
    #[test]
    fn walk_equals_union_of_fragment_terms_after_every_delta(
        initial in prop::collection::vec(fragment_strategy(INITIAL_VOCAB), 0..20),
        deltas in prop::collection::vec(delta_strategy(), 1..10),
        picks in prop::collection::vec(prop::collection::vec(0u32..64, 0..8), 0..6),
    ) {
        let mut truth: BTreeMap<FragmentId, Fragment> = BTreeMap::new();
        for fragment in initial {
            truth.entry(fragment.id.clone()).or_insert(fragment);
        }
        let live: Vec<Fragment> = truth.values().cloned().collect();
        let mut index = FragmentIndex::build(&live, Some(1)).unwrap();
        assert_walk_matches(&index, &truth, &picks);
        for delta in &deltas {
            for id in &delta.removes {
                truth.remove(id);
            }
            for fragment in &delta.adds {
                truth.insert(fragment.id.clone(), fragment.clone());
            }
            index.apply(delta).unwrap();
            assert_walk_matches(&index, &truth, &picks);
        }
    }
}

fn fragment(coord: (usize, i64), words: &[&str]) -> Fragment {
    let occurrences = words.iter().map(|w| (w.to_string(), 1u64)).collect();
    Fragment::new(id(coord), occurrences, 1)
}

#[test]
fn a_tombstoned_fragment_contributes_nothing() {
    let fragments = [
        fragment((0, 1), &["burger", "queen"]),
        fragment((0, 2), &["burger", "fries"]),
        fragment((1, 1), &["thai"]),
    ];
    let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
    let american = index
        .catalog
        .group_by_key(&[dash_relation::Value::str(GROUPS[0])])
        .expect("group exists");
    let before = index.graph.group_nodes(american).to_vec();
    let words = |index: &FragmentIndex, frags: &[Frag]| -> Vec<String> {
        let kws = walk(index, frags, &[]).held;
        kws.iter()
            .map(|&kw| index.inverted.word(kw).to_string())
            .collect()
    };
    assert_eq!(words(&index, &before), ["burger", "queen", "fries"]);
    // Tombstone (American, 1): its handle stays interned, but the walk
    // over the same handles no longer sees "queen" — and the handle
    // alone holds nothing, stale or not.
    index
        .apply(&IndexDelta::removing(vec![id((0, 1))]))
        .unwrap();
    let tombstone = index.catalog.frag(&id((0, 1))).expect("handle kept");
    assert_eq!(walk(&index, &[tombstone], &[tombstone]), Walk::default());
    assert_eq!(words(&index, &before), ["burger", "fries"]);
    assert_eq!(walk(&index, &[], &[]), Walk::default());
    // A new fragment in the group takes the next handle, past Thai's:
    // the group's run is no longer contiguous. Re-adding the tombstone
    // reuses its handle; walking the whole group with the two
    // re-added handles stale finds exactly their postings.
    index
        .apply(&IndexDelta::adding(vec![
            fragment((0, 3), &["burger", "shake"]),
            fragment((0, 1), &["queen"]),
        ]))
        .unwrap();
    let mut group = index.graph.group_nodes(american).to_vec();
    group.sort_unstable();
    let thai = index.catalog.frag(&id((1, 1))).unwrap();
    assert!(
        group[0] < thai && thai < group[2],
        "{group:?} around {thai:?}"
    );
    let mut stale = vec![tombstone, index.catalog.frag(&id((0, 3))).unwrap()];
    stale.sort_unstable();
    let found = walk(&index, &group, &stale);
    assert_eq!(found, oracle(&index, &group, &stale));
    assert_eq!(found.held.len(), 4, "burger, queen, fries, shake");
    assert_eq!(found.stale.len(), 3, "queen; burger and shake");
    assert_eq!(index.group_vocabulary(american), &found.held[..]);
}
