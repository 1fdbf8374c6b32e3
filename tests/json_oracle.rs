//! The JSON renderer's byte oracle: the serving stack writes search
//! responses with an allocation-free writer (`dash_net::json`), and
//! every byte it writes must equal what the frozen renderer it replaced
//! (`tests/common/json_oracle.rs`) writes for the same hits.
//!
//! Both of the writer's front doors are held to it:
//!
//! * `hits_to_json` over random hit lists — every `Value` variant
//!   (`i64::MIN`/`MAX`, negative cents, dates), strings that need
//!   escaping (quotes, backslashes, control characters, non-ASCII),
//!   `f64` edge values and empty lists;
//! * the `JsonHits` sink the engine renders a socket miss into, over
//!   engines built from random fragments whose identifiers hold such
//!   strings and integers, at shard counts 1 and 3: its bytes equal the
//!   oracle's rendering of `ShardedEngine::search` for the same request.

use proptest::prelude::*;

use dash::core::{Fragment, FragmentId, IngestSource, SearchHit, SearchRequest, ShardedEngine};
use dash::net::json::{hits_to_json, JsonHits};
use dash::relation::{Date, Decimal, Value};
use dash::webapp::fooddb;

mod common {
    pub mod json_oracle;
}
use common::json_oracle::oracle_hits_to_json;

/// Characters strings are drawn from: plain text, everything JSON
/// escapes, DEL (which it does not), a space (which a query string
/// writes as `+`) and multi-byte UTF-8.
const CHARS: [char; 17] = [
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '字',
    '😀', '&',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(CHARS.to_vec()), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        prop::sample::select(vec![i64::MIN, i64::MAX, -1, 0, 1, 9, 10, -10]),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        int().prop_map(Value::Int),
        int().prop_map(|cents| Value::Decimal(Decimal::from_cents(cents))),
        text().prop_map(Value::Str),
        (any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d))),
    ]
}

fn score() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        prop::sample::select(vec![
            0.0,
            -0.0,
            1.0,
            1.0 / 3.0,
            0.1 + 0.2,
            1e21,
            1e-7,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]),
    ]
}

fn hit() -> impl Strategy<Value = SearchHit> {
    (
        text(),
        text(),
        score(),
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(value(), 0..4), 0..4),
    )
        .prop_map(|(url, query_string, score, size, ids)| SearchHit {
            url,
            query_string,
            score,
            size,
            fragment_ids: ids.into_iter().map(FragmentId::new).collect(),
        })
}

/// A fooddb-shaped fragment (`(cuisine, budget)`) holding `word`.
fn fragment(cuisine: String, budget: i64, word: usize, count: u64) -> Fragment {
    let words = ["burger", "fries", "noodle"];
    Fragment::new(
        FragmentId::new(vec![Value::Str(cuisine), Value::Int(budget)]),
        [(words[word].to_string(), count)].into_iter().collect(),
        1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hits_to_json_writes_the_oracle_bytes(hits in prop::collection::vec(hit(), 0..4)) {
        prop_assert_eq!(hits_to_json(&hits), oracle_hits_to_json(&hits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_sink_writes_the_oracle_bytes_of_the_engine_hits(
        rows in prop::collection::vec((text(), int(), 0usize..3, 1u64..4), 1..24),
        k in 1usize..8,
        min_size in 1u64..6,
    ) {
        let mut seen = std::collections::HashSet::new();
        let fragments: Vec<Fragment> = rows
            .into_iter()
            .filter(|(cuisine, budget, _, _)| seen.insert((cuisine.clone(), *budget)))
            .map(|(cuisine, budget, word, count)| fragment(cuisine, budget, word, count))
            .collect();
        let app = fooddb::search_application().unwrap();
        for shards in [1, 3] {
            let engine = ShardedEngine::builder(app.clone())
                .shards(shards)
                .source(IngestSource::Fragments(&fragments))
                .build()
                .unwrap();
            for keywords in [&["burger"][..], &["fries", "noodle"], &[], &["absent"]] {
                let request = SearchRequest::new(keywords).k(k).min_size(min_size);
                let mut body = String::new();
                let mut sink = JsonHits::new(&mut body);
                engine.search_into(&request, &mut sink);
                sink.finish();
                let hits = engine.search(&request);
                prop_assert_eq!(&body, &oracle_hits_to_json(&hits), "shards={} {:?}", shards, request);
                prop_assert_eq!(&body, &hits_to_json(&hits));
            }
        }
    }
}
