//! Property test of the columnar catalog ([`FragmentCatalog`]): with
//! identifiers held as a group-key index plus a range column, every
//! view the catalog gives must agree with the plain `Vec<Value>`
//! identifier it stands for —
//!
//! * `id(frag)` round-trips through `frag(id)`, and `value_at` and
//!   `values` read the same values;
//! * `cmp_ids` equals [`FragmentId`]'s `Ord` on every pair of handles;
//! * `frag(id)` is exact: it finds every interned identifier, live or
//!   tombstoned, and nothing else — identifiers of other arities
//!   included, shorter or longer;
//! * group ranks order the group keys, `group_at_rank` inverts
//!   `group_rank`, and `group_by_key` finds every group's key.
//!
//! Identifiers mix `Str`, `Null`, `Int`, `Decimal` and `Date` values
//! from small domains (so keys repeat and ranges collide across
//! groups), with the range position absent, first or last. Fragments
//! are interned out of identifier order by a bulk build over a shuffled
//! corpus and by deltas that remove (tombstone) and add, and the arena
//! image must carry the same identifiers back.

use std::collections::{BTreeMap, BTreeSet};

use dash_relation::{Date, Value};
use proptest::prelude::*;

use crate::fragment::{Fragment, FragmentId};
use crate::index::{Frag, FragmentIndex, GroupId};
use crate::persist;
use crate::update::IndexDelta;

/// The values identifiers draw from: every kind, a few of each.
fn value_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(-4),
        Value::Int(7),
        Value::decimal(150),
        Value::decimal(-3),
        Value::str(""),
        Value::str("Thai"),
        Value::str("American"),
        Value::Date(Date::new(2020, 1, 2)),
        Value::Date(Date::new(1999, 12, 31)),
    ]
}

/// An identifier of `arity` values (a range of arities for lookups).
fn id_strategy(arity: std::ops::Range<usize>) -> impl Strategy<Value = FragmentId> {
    prop::collection::vec(prop::sample::select(value_pool()), arity).prop_map(FragmentId::new)
}

fn fragment(id: FragmentId, weight: u64) -> Fragment {
    Fragment::new(id, [("w".to_string(), weight)].into_iter().collect(), 1)
}

/// Checks every catalog view of `index` against the identifiers it
/// interned, and that `absent` identifiers resolve to no handle.
fn assert_columns_match(
    index: &FragmentIndex,
    interned: &BTreeSet<FragmentId>,
    absent: &[FragmentId],
) {
    let catalog = &index.catalog;
    assert_eq!(catalog.len(), interned.len());
    let ids: Vec<FragmentId> = (0..catalog.len() as u32)
        .map(|h| catalog.id(Frag(h)))
        .collect();
    assert_eq!(ids.iter().cloned().collect::<BTreeSet<_>>(), *interned);
    for (h, id) in ids.iter().enumerate() {
        let frag = Frag(h as u32);
        assert_eq!(catalog.frag(id), Some(frag), "{id}");
        assert_eq!(catalog.arity(frag), id.values().len());
        assert!(catalog.values(frag).eq(id.values()));
        for (pos, value) in id.values().iter().enumerate() {
            assert_eq!(catalog.value_at(frag, pos), value, "{id} at {pos}");
        }
        for (g, other) in ids.iter().enumerate() {
            assert_eq!(
                catalog.cmp_ids(frag, Frag(g as u32)),
                id.cmp(other),
                "{id} vs {other}"
            );
        }
    }
    for id in absent.iter().filter(|id| !interned.contains(*id)) {
        assert_eq!(catalog.frag(id), None, "{id}");
    }
    let groups: Vec<GroupId> = (0..catalog.key_count() as u32)
        .map(|rank| catalog.group_at_rank(rank))
        .collect();
    for (rank, &group) in groups.iter().enumerate() {
        assert_eq!(catalog.group_rank(group) as usize, rank);
        assert_eq!(catalog.group_by_key(catalog.group_key(group)), Some(group));
    }
    assert!(groups
        .windows(2)
        .all(|w| catalog.group_key(w[0]) < catalog.group_key(w[1])));
    // The image decodes straight back into the same columns.
    let range = catalog.range_position();
    let mut image = Vec::new();
    persist::write_image(&mut image, range, &[index]).unwrap();
    let (_, loaded) = persist::read_image(&image).unwrap();
    let loaded = &loaded[0].catalog;
    for (h, id) in ids.iter().enumerate() {
        assert_eq!(&loaded.id(Frag(h as u32)), id);
    }
    for id in interned {
        assert_eq!(loaded.frag(id), catalog.frag(id));
    }
}

proptest! {
    #[test]
    fn catalog_columns_agree_with_the_identifiers(
        corpus in prop::collection::vec(id_strategy(3..4), 0..24),
        removes in prop::collection::vec(id_strategy(3..4), 0..8),
        adds in prop::collection::vec(id_strategy(3..4), 0..12),
        absent in prop::collection::vec(id_strategy(1..5), 0..8),
        position in 0usize..3,
    ) {
        let range = [None, Some(0), Some(2)][position];
        // Distinct identifiers, in generated (not sorted) order.
        let mut seen = BTreeSet::new();
        let corpus: Vec<Fragment> = corpus
            .into_iter()
            .filter(|id| seen.insert(id.clone()))
            .enumerate()
            .map(|(i, id)| fragment(id, i as u64 + 1))
            .collect();
        let mut index = FragmentIndex::build(&corpus, range).unwrap();
        let mut interned: BTreeSet<FragmentId> = seen.clone();
        assert_columns_match(&index, &interned, &absent);

        // Removals tombstone handles; adds intern new identifiers out of
        // order and refresh known ones.
        let adds: Vec<Fragment> = adds.into_iter().map(|id| fragment(id, 3)).collect();
        index.apply(&IndexDelta::new(removes.clone(), adds.clone())).unwrap();
        interned.extend(adds.iter().map(|f| f.id.clone()));
        assert_columns_match(&index, &interned, &absent);

        // Liveness follows the delta: removed-only identifiers keep
        // their handle but have no node.
        let mut live: BTreeMap<FragmentId, bool> = seen.into_iter().map(|id| (id, true)).collect();
        for id in &removes {
            live.insert(id.clone(), false);
        }
        for f in &adds {
            live.insert(f.id.clone(), true);
        }
        for (id, alive) in &live {
            if let Some(frag) = index.catalog.frag(id) {
                prop_assert_eq!(index.graph.locate(frag).is_some(), *alive, "{}", id);
            }
        }
    }
}
