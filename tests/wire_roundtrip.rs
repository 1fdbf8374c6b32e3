//! The wire-codec test tier: arbitrary maintenance values —
//! [`IndexDelta`]s and [`RecordChange`] batches —
//! survive encode→decode identically, and the encoding is canonical
//! (encode∘decode∘encode is byte-stable). Fragments are drawn from the
//! shared (eq-key, range, word-bag) generator (`tests/common/gen.rs`)
//! the maintenance and serve tiers draw from, so the values exercised
//! here are exactly the values the delta write path ships there.

use proptest::prelude::*;

use dash::core::wire;
use dash::prelude::*;
use dash::relation::{Date, Decimal};

mod common {
    pub mod gen;
}
use common::gen::{fragment_strategy, GenFragment, EQ_KEYS};

fn delta_strategy() -> impl Strategy<Value = IndexDelta> {
    (
        prop::collection::vec(fragment_strategy(0..12, 1..4), 0..5),
        prop::collection::vec(fragment_strategy(0..12, 1..4), 0..5),
    )
        .prop_map(|(removes, adds)| {
            IndexDelta::new(
                removes.iter().map(GenFragment::id).collect(),
                adds.iter().map(GenFragment::materialize).collect(),
            )
        })
}

fn changes_strategy() -> impl Strategy<Value = Vec<RecordChange>> {
    prop::collection::vec((0..EQ_KEYS.len(), 0i64..100, 0u8..5), 0..6).prop_map(|rows| {
        rows.into_iter()
            .map(|(rel, key, flavor)| {
                // Mix every Value variant through the record codec.
                let record = Record::new(vec![
                    Value::Int(key),
                    match flavor {
                        0 => Value::Null,
                        1 => Value::str(EQ_KEYS[rel]),
                        2 => Value::Decimal(Decimal::from_cents(key * 7 - 350)),
                        3 => Value::Date(Date::new(2012, 1 + (key % 12) as u8, 18)),
                        _ => Value::Int(-key),
                    },
                ]);
                RecordChange::new(EQ_KEYS[rel], record)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deltas_roundtrip_identically(delta in delta_strategy()) {
        let bytes = wire::encode_delta(&delta);
        let back = wire::read_delta(bytes.as_slice()).unwrap();
        prop_assert_eq!(&back, &delta);
        // Canonical: re-encoding is byte-identical.
        prop_assert_eq!(wire::encode_delta(&back), bytes);
    }

    #[test]
    fn change_batches_roundtrip_identically(changes in changes_strategy()) {
        let mut bytes = Vec::new();
        wire::write_changes(&mut bytes, &changes).unwrap();
        let back = wire::read_changes(bytes.as_slice()).unwrap();
        prop_assert_eq!(back, changes);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(delta in delta_strategy(), cut in 0usize..64) {
        let bytes = wire::encode_delta(&delta);
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(wire::read_delta(&bytes[..cut]).is_err());
    }
}
