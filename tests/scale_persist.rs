//! The scale-persistence test tier: arena images
//! ([`ShardedEngine::write_image`] / the builder's `IngestSource::Image`)
//! must be **lossless** and **tamper-evident**.
//!
//! Lossless means byte-identical `SearchHit` lists — an engine loaded
//! from an image answers every request exactly like the engine that
//! dumped it *and* like the seed's Algorithm 1
//! (`tests/common/oracle.rs`) over the same fragments, at shard counts
//! {1, 4}; re-dumping the loaded engine
//! reproduces the image byte for byte. Tamper-evident means any
//! single-bit flip and any truncation of the image is rejected with an
//! error — never loaded, never a panic.
//!
//! Corpora come from the synthetic generator the scale benchmarks use
//! (`dash_bench::scale::ScaleCorpus`, TPC-H Q2 shape), so this tier
//! exercises the exact dump/load path `benches/scale.rs` times and the
//! replication SNAPSHOT frame ships; the golden test adds a real crawl
//! of the micro TPC-H Q2 database, so real identifiers and keyword
//! distributions round-trip too.

use proptest::prelude::*;

use dash::core::crawl::reference;
use dash::core::{IndexDelta, IngestSource, SearchRequest, ShardedEngine};
use dash::relation::Database;
use dash::webapp::WebApplication;
use dash_bench::scale::ScaleCorpus;
use dash_tpch::{generate, Scale, TpchConfig};

mod common {
    pub mod battery;
    pub mod oracle;
    pub mod ranking;
}
use common::battery::battery;
use common::oracle::Oracle;
use common::ranking::keywords_by_df;

/// The application shape `ScaleCorpus` fragments mimic: TPC-H Q2
/// (equality group = custkey, range = quantity), with the micro
/// database it was analyzed against — analysis wants the schema, the
/// golden test also crawls the rows.
fn q2_parts() -> (WebApplication, Database) {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 50;
    config.base_parts = 65;
    let db = generate(&config);
    let app = dash_tpch::q2_application(&db).expect("Q2 analyzes");
    (app, db)
}

fn q2_app() -> WebApplication {
    q2_parts().0
}

fn corpus(fragments: usize, groups: usize, seed: u64) -> ScaleCorpus {
    ScaleCorpus {
        fragments,
        groups,
        vocab: 300,
        seed,
        ..ScaleCorpus::default()
    }
}

fn sharded_from_batches(
    app: &WebApplication,
    corpus: &ScaleCorpus,
    shards: usize,
) -> ShardedEngine {
    ShardedEngine::builder(app.clone())
        .source(IngestSource::Batches(Box::new(
            corpus.shard_batches(shards),
        )))
        .build()
        .expect("corpus builds")
}

/// Dumps `original` as an image and loads it back: both engines must
/// answer every request exactly like `oracle`, and the loaded engine
/// must re-dump to the same bytes.
fn assert_lossless(
    app: &WebApplication,
    original: &ShardedEngine,
    oracle: &Oracle,
    requests: &[SearchRequest],
    context: &str,
) {
    let mut image = Vec::new();
    original.write_image(&mut image).expect("image dumps");
    let loaded = ShardedEngine::builder(app.clone())
        .source(IngestSource::Image(&image))
        .build()
        .expect("image loads");
    assert_eq!(loaded.fragment_count(), original.fragment_count());
    assert_eq!(loaded.shard_sizes(), original.shard_sizes());
    for (label, engine) in [("dumped", original), ("loaded", &loaded)] {
        let served: Vec<_> = requests.iter().map(|r| engine.search(r)).collect();
        oracle.assert_answers(requests, &served, &format!("{context} {label} engine"));
    }
    // The image is a fixed point: re-dumping the loaded engine
    // reproduces it byte for byte.
    let mut redump = Vec::new();
    loaded.write_image(&mut redump).expect("re-dump");
    assert_eq!(redump, image, "{context} image must be byte-stable");
}

#[test]
fn golden_roundtrip_is_byte_identical_and_restable() {
    let (app, db) = q2_parts();
    let corpus = corpus(400, 8, 0xD1CE);
    let fragments: Vec<_> = corpus.shard_batches(1).flatten().collect();
    let oracle = Oracle::new(&app, &fragments);
    let requests = battery();
    for shards in [1usize, 4] {
        let original = sharded_from_batches(&app, &corpus, shards);
        assert_eq!(original.fragment_count(), corpus.fragments);
        assert_lossless(
            &app,
            &original,
            &oracle,
            &requests,
            &format!("synthetic shards={shards}"),
        );
    }

    // The real crawl, probed at its hottest, median and coldest words
    // across size thresholds, plus its two hottest words together and
    // a miss.
    let crawl = reference::fragments(&app, &db).expect("crawl");
    assert!(!crawl.is_empty());
    let oracle = Oracle::new(&app, &crawl);
    let ranked = keywords_by_df(&crawl);
    let mut requests = Vec::new();
    for idx in [0, ranked.len() / 2, ranked.len() - 1] {
        for s in [1u64, 100, 1000] {
            requests.push(SearchRequest::new(&[&ranked[idx].0]).k(10).min_size(s));
        }
    }
    requests.push(
        SearchRequest::new(&[&ranked[0].0, &ranked[1].0])
            .k(10)
            .min_size(1),
    );
    requests.push(SearchRequest::new(&["zzzmissing"]).k(10).min_size(1));
    for shards in [1usize, 4] {
        let original = ShardedEngine::builder(app.clone())
            .shards(shards)
            .source(IngestSource::Fragments(&crawl))
            .build()
            .expect("crawl builds");
        assert_lossless(
            &app,
            &original,
            &oracle,
            &requests,
            &format!("crawl shards={shards}"),
        );
    }
}

#[test]
fn every_sampled_bit_flip_is_rejected() {
    let app = q2_app();
    let original = sharded_from_batches(&app, &corpus(120, 5, 0xFACE), 4);
    let mut image = Vec::new();
    original.write_image(&mut image).expect("image dumps");

    // Step a prime stride so every section (header, catalog, words,
    // lists, arenas, graph) sees flips at varied offsets, plus the
    // edges of the file.
    let mut positions: Vec<usize> = (0..image.len()).step_by(97).collect();
    positions.extend((0..16.min(image.len())).chain(image.len() - 16..image.len()));
    for at in positions {
        for bit in [0u8, 3, 7] {
            let mut torn = image.clone();
            torn[at] ^= 1 << bit;
            assert!(
                ShardedEngine::builder(app.clone())
                    .source(IngestSource::Image(&torn))
                    .build()
                    .is_err(),
                "bit {bit} at byte {at}/{} must not load",
                image.len()
            );
        }
    }
}

/// A publish reads what it touches: preparing a one-group upsert on a
/// Zipf corpus visits exactly the group's vocabulary lists — under a
/// tenth of the shard's.
#[test]
fn a_one_group_upsert_walks_only_its_groups_vocabulary() {
    let app = q2_app();
    // `dashbench`'s shape: groups of 100 fragments over a 4 000-word
    // vocabulary.
    let corpus = ScaleCorpus {
        vocab: 4_000,
        ..ScaleCorpus::sized(20_000)
    };
    let engine = sharded_from_batches(&app, &corpus, 1);
    let index = engine.shard_indexes().next().expect("one shard");
    let group = corpus.groups / 2;
    let adds: Vec<_> = (1..=4)
        .map(|quantity| {
            let mut fragment = corpus.fragment(group, quantity);
            for count in fragment.keyword_occurrences.values_mut() {
                *count += 1;
            }
            fragment.total_keywords = fragment.keyword_occurrences.values().sum();
            fragment
        })
        .collect();
    let frag = index.catalog.frag(&adds[0].id).expect("the group is built");
    let vocabulary = index.group_vocabulary(index.catalog.group(frag)).len();
    let delta = IndexDelta::adding(adds);
    let walked = engine
        .prepare(&delta)
        .expect("the delta fits")
        .lists_walked();
    let lists = index.inverted.keyword_count();
    println!("walked {walked} of {lists} lists");
    assert_eq!(walked, vocabulary);
    assert!(
        10 * walked < lists,
        "{walked} lists walked of the shard's {lists}"
    );
}

#[test]
fn every_sampled_truncation_is_rejected() {
    let app = q2_app();
    let original = sharded_from_batches(&app, &corpus(120, 5, 0xFACE), 2);
    let mut image = Vec::new();
    original.write_image(&mut image).expect("image dumps");
    let mut lengths: Vec<usize> = (0..image.len()).step_by(89).collect();
    lengths.extend([0, 1, 7, 8, image.len() - 1]);
    for len in lengths {
        assert!(
            ShardedEngine::builder(app.clone())
                .source(IngestSource::Image(&image[..len]))
                .build()
                .is_err(),
            "truncation to {len}/{} bytes must not load",
            image.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random corpus shapes, seeds and queries, an engine loaded
    /// from an arena image returns byte-identical hit lists to the
    /// reference over the same fragments, at shards {1, 4}.
    #[test]
    fn arena_roundtrip_matches_fresh_build_on_random_corpora(
        fragments in 30usize..220,
        groups in 1usize..12,
        seed in any::<u64>(),
        ranks in prop::collection::vec(0usize..300, 1..4),
        k in 1usize..12,
        s in prop::sample::select(vec![1u64, 5, 25, 100]),
    ) {
        let app = q2_app();
        let corpus = corpus(fragments, groups, seed);
        let words: Vec<String> = ranks.iter().map(|r| format!("kw{r:06}")).collect();
        let keywords: Vec<&str> = words.iter().map(String::as_str).collect();
        let request = SearchRequest::new(&keywords).k(k).min_size(s);
        let flat: Vec<_> = corpus.shard_batches(1).flatten().collect();
        let expected = Oracle::new(&app, &flat).search(&request);
        for shards in [1usize, 4] {
            let original = sharded_from_batches(&app, &corpus, shards);
            let mut image = Vec::new();
            original.write_image(&mut image).unwrap();
            let loaded =
                ShardedEngine::builder(app.clone()).source(IngestSource::Image(&image)).build().unwrap();
            prop_assert_eq!(loaded.fragment_count(), corpus.fragments);
            prop_assert_eq!(
                &loaded.search(&request),
                &expected,
                "shards={} fragments={} groups={} keywords={:?} k={} s={}",
                shards, fragments, groups, keywords, k, s
            );
        }
    }
}
