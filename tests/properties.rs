//! Property-based tests over randomized databases: the fragment
//! invariants, the equivalence of all derivation paths, Algorithm 1's
//! output contracts, and incremental-maintenance consistency.

use proptest::prelude::*;

use dash::core::crawl::{integrated, reference, stepwise};
use dash::core::{DashConfig, IngestSource, RecordChange, SearchRequest, ShardedEngine};
use dash::mapreduce::ClusterConfig;
use dash::relation::{Column, ColumnType, Database, ForeignKey, Record, Schema, Table, Value};
use dash::webapp::{fooddb, QueryString, WebApplication};

mod common {
    pub mod crawl;
    pub mod oracle;
}
use common::crawl::crawl_engine;
use common::oracle::Oracle;

const CUISINES: [&str; 3] = ["American", "Thai", "Sushi"];
const WORDS: [&str; 8] = [
    "burger", "fries", "noodle", "spicy", "fresh", "crispy", "sweet", "salty",
];
const USERS: [(i64, &str); 4] = [(1, "Ann"), (2, "Bob"), (3, "Cam"), (4, "Dee")];

#[derive(Debug, Clone)]
struct RestaurantRow {
    cuisine: usize,
    budget: i64,
    word: usize,
    comments: Vec<(usize, usize, usize)>, // (user, word1, word2)
}

fn restaurant_strategy() -> impl Strategy<Value = RestaurantRow> {
    (
        0..CUISINES.len(),
        5i64..12,
        0..WORDS.len(),
        prop::collection::vec((0..USERS.len(), 0..WORDS.len(), 0..WORDS.len()), 0..3),
    )
        .prop_map(|(cuisine, budget, word, comments)| RestaurantRow {
            cuisine,
            budget,
            word,
            comments,
        })
}

/// Builds a fooddb-schema database from generated rows.
fn build_db(rows: &[RestaurantRow]) -> Database {
    let mut db = Database::new("propdb");
    let restaurant_schema = Schema::builder("restaurant")
        .column(Column::new("rid", ColumnType::Int))
        .column(Column::new("name", ColumnType::Str))
        .column(Column::new("cuisine", ColumnType::Str))
        .column(Column::new("budget", ColumnType::Int))
        .column(Column::new("rate", ColumnType::Str))
        .primary_key(&["rid"])
        .build()
        .unwrap();
    let comment_schema = Schema::builder("comment")
        .column(Column::new("cid", ColumnType::Int))
        .column(Column::new("rid", ColumnType::Int))
        .column(Column::new("uid", ColumnType::Int))
        .column(Column::new("comment", ColumnType::Str))
        .column(Column::new("date", ColumnType::Str))
        .primary_key(&["cid"])
        .build()
        .unwrap();
    let customer_schema = Schema::builder("customer")
        .column(Column::new("uid", ColumnType::Int))
        .column(Column::new("uname", ColumnType::Str))
        .primary_key(&["uid"])
        .build()
        .unwrap();

    let mut restaurant = Table::new(restaurant_schema);
    let mut comment = Table::new(comment_schema);
    let mut cid = 100i64;
    for (i, row) in rows.iter().enumerate() {
        restaurant
            .insert(Record::new(vec![
                Value::Int(i as i64),
                Value::str(format!("{} house", WORDS[row.word])),
                Value::str(CUISINES[row.cuisine]),
                Value::Int(row.budget),
                Value::str("4.0"),
            ]))
            .unwrap();
        for (user, w1, w2) in &row.comments {
            comment
                .insert(Record::new(vec![
                    Value::Int(cid),
                    Value::Int(i as i64),
                    Value::Int(USERS[*user].0),
                    Value::str(format!("{} {}", WORDS[*w1], WORDS[*w2])),
                    Value::str("01/12"),
                ]))
                .unwrap();
            cid += 1;
        }
    }
    let mut customer = Table::new(customer_schema);
    for (uid, name) in USERS {
        customer
            .insert(Record::new(vec![Value::Int(uid), Value::str(name)]))
            .unwrap();
    }
    db.add_table(restaurant);
    db.add_table(comment);
    db.add_table(customer);
    db.add_foreign_key(ForeignKey::new("comment", "rid", "restaurant", "rid"));
    db.add_foreign_key(ForeignKey::new("comment", "uid", "customer", "uid"));
    db
}

fn app_for(db: &Database) -> WebApplication {
    WebApplication::from_servlet_source(fooddb::SEARCH_SERVLET, db).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fragments partition the join disjointly: record counts sum to the
    /// join cardinality, identifiers are unique, and keyword totals are
    /// internally consistent.
    #[test]
    fn fragments_partition_join(rows in prop::collection::vec(restaurant_strategy(), 1..20)) {
        let db = build_db(&rows);
        let app = app_for(&db);
        let joined = app.query.join_all(&db).unwrap();
        let fragments = reference::fragments(&app, &db).unwrap();

        let total: u64 = fragments.iter().map(|f| f.record_count).sum();
        prop_assert_eq!(total, joined.len() as u64);

        let mut ids: Vec<_> = fragments.iter().map(|f| f.id.clone()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicate fragment identifiers");

        for f in &fragments {
            let sum: u64 = f.keyword_occurrences.values().sum();
            prop_assert_eq!(sum, f.total_keywords);
        }
    }

    /// All three derivation paths agree on arbitrary databases.
    #[test]
    fn derivation_paths_agree(rows in prop::collection::vec(restaurant_strategy(), 1..14)) {
        let db = build_db(&rows);
        let app = app_for(&db);
        let cluster = ClusterConfig::default();
        let expected = reference::fragments(&app, &db).unwrap();
        let sw = stepwise::run(&app, &db, &cluster).unwrap();
        prop_assert_eq!(&sw.fragments, &expected);
        let int = integrated::run(&app, &db, &cluster).unwrap();
        prop_assert_eq!(&int.fragments, &expected);
    }

    /// Algorithm 1's output contract: at most k hits, pairwise
    /// fragment-disjoint, every hit's page really contains a queried
    /// keyword, and its reported size matches the materialized page.
    #[test]
    fn topk_output_contract(
        rows in prop::collection::vec(restaurant_strategy(), 1..16),
        keyword in 0..WORDS.len(),
        k in 1usize..5,
        s in prop::sample::select(vec![1u64, 10, 40, 200]),
    ) {
        let db = build_db(&rows);
        let app = app_for(&db);
        let fragments = reference::fragments(&app, &db).unwrap();
        let engine = ShardedEngine::builder(app.clone())
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        let word = WORDS[keyword];
        let hits = engine.search(&SearchRequest::new(&[word]).k(k).min_size(s));
        prop_assert!(hits.len() <= k);

        let mut seen = std::collections::HashSet::new();
        for hit in &hits {
            for id in &hit.fragment_ids {
                prop_assert!(seen.insert(id.clone()), "fragment shared between hits");
            }
            prop_assert!(hit.score > 0.0);
            let qs = QueryString::parse(&hit.query_string).unwrap();
            let page = app.execute(&db, &qs).unwrap();
            prop_assert!(page.keywords().iter().any(|w| w == word));
            prop_assert_eq!(page.keywords().len() as u64, hit.size);
        }
    }

    /// Incremental insert maintenance converges to the same index as a
    /// from-scratch rebuild: the same fragment and edge counts, and the
    /// reference's answers over a fresh crawl.
    #[test]
    fn incremental_insert_equals_rebuild(
        rows in prop::collection::vec(restaurant_strategy(), 1..10),
        new_row in restaurant_strategy(),
    ) {
        let mut db = build_db(&rows);
        let app = app_for(&db);
        let mut engine = crawl_engine(&app, &db, &DashConfig::default());

        let record = Record::new(vec![
            Value::Int(500),
            Value::str(format!("{} palace", WORDS[new_row.word])),
            Value::str(CUISINES[new_row.cuisine]),
            Value::Int(new_row.budget),
            Value::str("3.5"),
        ]);
        db.table_mut("restaurant").unwrap().insert(record.clone()).unwrap();
        engine.apply_changes(&db, &[RecordChange::new("restaurant", record)]).unwrap();

        let rebuilt = crawl_engine(&app, &db, &DashConfig::default());
        let edges = |engine: &ShardedEngine| {
            engine.shard_indexes().map(|index| index.graph.edge_count()).sum::<usize>()
        };
        prop_assert_eq!(engine.fragment_count(), rebuilt.fragment_count());
        prop_assert_eq!(edges(&engine), edges(&rebuilt));
        let requests: Vec<SearchRequest> = WORDS
            .iter()
            .chain(&["zzzmissing"])
            .map(|word| SearchRequest::new(&[*word]).k(4).min_size(10))
            .collect();
        let served: Vec<_> = requests.iter().map(|r| engine.search(r)).collect();
        Oracle::new(&app, &reference::fragments(&app, &db).unwrap())
            .assert_answers(&requests, &served, "after the insert");
    }

    /// The fragment graph is insertion-order independent.
    #[test]
    fn graph_insertion_order_independent(
        rows in prop::collection::vec(restaurant_strategy(), 1..12),
        seed in 0u64..1000,
    ) {
        use dash::core::{FragmentCatalog, FragmentGraph};
        let db = build_db(&rows);
        let app = app_for(&db);
        let fragments = reference::fragments(&app, &db).unwrap();
        let range = app.query.range_selection_index();

        let catalog = FragmentCatalog::from_fragments(&fragments, range).unwrap();
        let bulk = FragmentGraph::build(&catalog, &[]);
        // Shuffle deterministically by seed and insert incrementally.
        let mut shuffled = fragments.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        let mut incremental = FragmentGraph::new(range);
        for f in &shuffled {
            incremental.insert(&catalog, catalog.frag(&f.id).unwrap());
        }
        prop_assert_eq!(bulk.node_count(), incremental.node_count());
        prop_assert_eq!(bulk.edge_count(), incremental.edge_count());
        for f in &fragments {
            let frag = catalog.frag(&f.id).unwrap();
            let a = bulk.locate(frag).unwrap();
            let b = incremental.locate(frag).unwrap();
            prop_assert_eq!(a.position, b.position);
            prop_assert_eq!(a.group, b.group);
        }
    }
}
