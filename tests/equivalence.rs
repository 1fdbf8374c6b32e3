//! The three fragment-derivation paths — reference (in-memory), stepwise
//! (MapReduce) and integrated (MapReduce) — must produce byte-identical
//! fragments on every workload.

use dash::core::crawl::{integrated, reference, stepwise};
use dash::mapreduce::ClusterConfig;
use dash::relation::Database;
use dash::tpch::{generate, Scale, TpchConfig};
use dash::webapp::{fooddb, WebApplication};

fn tiny_tpch() -> Database {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 60;
    config.base_parts = 80;
    config.orders_per_customer = 5;
    config.lineitems_per_order = 3;
    generate(&config)
}

fn assert_equivalent(app: &WebApplication, db: &Database) {
    let cluster = ClusterConfig::default();
    let expected = reference::fragments(app, db).unwrap();
    assert!(!expected.is_empty(), "workload produced no fragments");
    let sw = stepwise::run(app, db, &cluster).unwrap();
    let int = integrated::run(app, db, &cluster).unwrap();
    assert_eq!(sw.fragments, expected, "stepwise deviates from reference");
    assert_eq!(
        int.fragments, expected,
        "integrated deviates from reference"
    );
}

#[test]
fn fooddb_search() {
    let db = fooddb::database();
    let app = fooddb::search_application().unwrap();
    assert_equivalent(&app, &db);
}

#[test]
fn tpch_q1() {
    let db = tiny_tpch();
    let app = dash::tpch::q1_application(&db).unwrap();
    assert_equivalent(&app, &db);
}

#[test]
fn tpch_q2() {
    let db = tiny_tpch();
    let app = dash::tpch::q2_application(&db).unwrap();
    assert_equivalent(&app, &db);
}

#[test]
fn tpch_q3_four_relations() {
    let db = tiny_tpch();
    let app = dash::tpch::q3_application(&db).unwrap();
    assert_equivalent(&app, &db);
}

/// Q2 and Q3 share selection attributes, so they derive the same
/// fragment identifiers (the paper's Table IV shows identical counts);
/// Q3's fragments carry strictly more keywords (part attributes).
#[test]
fn q2_q3_fragment_relationship() {
    let db = tiny_tpch();
    let q2 = dash::tpch::q2_application(&db).unwrap();
    let q3 = dash::tpch::q3_application(&db).unwrap();
    let f2 = reference::fragments(&q2, &db).unwrap();
    let f3 = reference::fragments(&q3, &db).unwrap();
    assert_eq!(f2.len(), f3.len());
    let ids2: Vec<_> = f2.iter().map(|f| &f.id).collect();
    let ids3: Vec<_> = f3.iter().map(|f| &f.id).collect();
    assert_eq!(ids2, ids3);
    let total2: u64 = f2.iter().map(|f| f.total_keywords).sum();
    let total3: u64 = f3.iter().map(|f| f.total_keywords).sum();
    assert!(total3 > total2);
}

/// Fragment record counts always partition the join: Σ record_count =
/// |R1 ⋈ … ⋈ Rn| — on every workload and derivation path.
#[test]
fn fragments_partition_the_join() {
    let db = tiny_tpch();
    for app in [
        dash::tpch::q1_application(&db).unwrap(),
        dash::tpch::q2_application(&db).unwrap(),
        dash::tpch::q3_application(&db).unwrap(),
    ] {
        let joined = app.query.join_all(&db).unwrap();
        let fragments = reference::fragments(&app, &db).unwrap();
        let total: u64 = fragments.iter().map(|f| f.record_count).sum();
        assert_eq!(total, joined.len() as u64, "{} partition broken", app.name);
    }
}

/// One job's simulated figures: label, map tasks, reduce tasks, shuffle
/// bytes and the bits of its simulated seconds.
type JobFigures<'a> = (&'a str, usize, usize, u64, u64);

/// Figure 10's simulated figures on the small workloads, pinned to the
/// bit under the paper-scale cluster (where the larger jobs plan several
/// splits). A change to the runner, its cost model or the crawls'
/// metering must leave every row as it is. The shuffle partitions keys
/// with `DefaultHasher`, so a toolchain whose hasher differs moves the
/// reduce-side bits.
#[test]
fn simulated_crawl_figures_are_pinned() {
    #[rustfmt::skip]
    const FIGURES: &[(&str, &str, &[JobFigures<'static>])] = &[
        ("fooddb", "stepwise", &[
            ("SW-Jn", 1, 8, 844, 0x401813b73dd2062c),
            ("SW-Jn", 1, 8, 967, 0x401815dd54652a3a),
            ("SW-Grp", 1, 8, 646, 0x40180f6bb24dd90c),
            ("SW-Idx", 1, 8, 1709, 0x4018193d2911e665),
        ]),
        ("fooddb", "integrated", &[
            ("INT-Jn", 1, 8, 616, 0x4018113811bf4525),
            ("INT-Jn", 1, 8, 702, 0x40181186adf104e1),
            ("INT-Ext", 1, 8, 1367, 0x40181827d18809eb),
            ("INT-Ext", 1, 8, 991, 0x401817eed2bad540),
            ("INT-Ext", 1, 8, 667, 0x401811b725092fa2),
            ("INT-Cnsd", 1, 8, 1709, 0x40182267df9ed5cc),
        ]),
        ("q1", "stepwise", &[
            ("SW-Jn", 1, 8, 4410, 0x40185d1d2a3e0f42),
            ("SW-Jn", 1, 8, 29340, 0x4019c89b069e6c2d),
            ("SW-Grp", 1, 8, 37517, 0x401a1b8ef2bafebc),
            ("SW-Idx", 1, 8, 111733, 0x401d0eb99f2d3045),
        ]),
        ("q1", "integrated", &[
            ("INT-Jn", 1, 8, 1310, 0x40183b3707726cf2),
            ("INT-Jn", 1, 8, 4225, 0x4018d77de074d227),
            ("INT-Ext", 1, 8, 5740, 0x4018968f2d1b876c),
            ("INT-Ext", 1, 8, 9670, 0x4018b81ee1e1b9b1),
            ("INT-Ext", 1, 8, 29175, 0x4019cca354b62734),
            ("INT-Cnsd", 1, 8, 111733, 0x401df28bc5d6117a),
        ]),
        ("q2", "stepwise", &[
            ("SW-Jn", 1, 8, 109005, 0x401f04319b52b031),
            ("SW-Jn", 2, 8, 402609, 0x4025b3ea5d2c7918),
            ("SW-Grp", 4, 8, 785955, 0x40280b18eefcb603),
            ("SW-Idx", 4, 8, 2252938, 0x4037b3cac43d3cf0),
        ]),
        ("q2", "integrated", &[
            ("INT-Jn", 1, 8, 15720, 0x401b9fe6d4543274),
            ("INT-Jn", 1, 8, 58305, 0x4020873072714a29),
            ("INT-Ext", 1, 8, 98680, 0x4020a8f52e1004cf),
            ("INT-Ext", 1, 8, 172407, 0x402252fdf35e6b9e),
            ("INT-Ext", 2, 8, 299913, 0x4024417cbdecad51),
            ("INT-Cnsd", 7, 8, 2253971, 0x4036c49b0870862d),
        ]),
        ("q3", "stepwise", &[
            ("SW-Jn", 1, 8, 109005, 0x401f04319b52b031),
            ("SW-Jn", 2, 8, 402609, 0x4025b3ea5d2c7918),
            ("SW-Jn", 4, 8, 813831, 0x402a0dc5fed44c45),
            ("SW-Grp", 6, 8, 1152962, 0x402b7275567fddb8),
            ("SW-Idx", 6, 8, 3167586, 0x403d11d527b93456),
        ]),
        ("q3", "integrated", &[
            ("INT-Jn", 1, 8, 15720, 0x401b9fe6d4543274),
            ("INT-Jn", 1, 8, 65947, 0x4020a5cb27bae1d5),
            ("INT-Jn", 1, 8, 86567, 0x401f4c0aec3a63e3),
            ("INT-Ext", 1, 8, 121106, 0x4021358464a058f8),
            ("INT-Ext", 1, 8, 194913, 0x4022dc453f4d577a),
            ("INT-Ext", 2, 8, 336811, 0x40250d20baffcd98),
            ("INT-Ext", 1, 8, 132487, 0x4022017d85e0e0ce),
            ("INT-Cnsd", 10, 8, 3171067, 0x403edbfad30013c0),
        ]),
    ];
    let cluster = ClusterConfig::paper_scale();
    let db = tiny_tpch();
    let workloads = [
        (
            "fooddb",
            fooddb::search_application().unwrap(),
            fooddb::database(),
        ),
        ("q1", dash::tpch::q1_application(&db).unwrap(), db.clone()),
        ("q2", dash::tpch::q2_application(&db).unwrap(), db.clone()),
        ("q3", dash::tpch::q3_application(&db).unwrap(), db.clone()),
    ];
    let mut runs = Vec::new();
    for (name, app, db) in &workloads {
        runs.push((*name, "stepwise", stepwise::run(app, db, &cluster).unwrap()));
        runs.push((
            *name,
            "integrated",
            integrated::run(app, db, &cluster).unwrap(),
        ));
    }
    assert_eq!(runs.len(), FIGURES.len());
    for ((name, algorithm, out), &(want_name, want_algorithm, want)) in runs.iter().zip(FIGURES) {
        assert_eq!((*name, *algorithm), (want_name, want_algorithm));
        let got: Vec<JobFigures> = out
            .stats
            .jobs
            .iter()
            .map(|j| {
                (
                    j.label.as_str(),
                    j.map_tasks,
                    j.reduce_tasks,
                    j.shuffle.input_bytes,
                    j.sim_total_secs().to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "{name} {algorithm}");
    }
}
