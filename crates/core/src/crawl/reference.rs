//! The reference (single-machine, non-MapReduce) fragment derivation.
//!
//! Semantically this is Definition 2 executed literally: materialize the
//! full join, group records by selection-attribute values, count keywords
//! per group. It defines *what the MapReduce algorithms must produce* —
//! both are tested for output equality against it — and powers the
//! incremental-maintenance path, which recomputes a handful of fragments
//! and has no use for a cluster.

use std::collections::BTreeMap;

use dash_relation::{Database, Table, Value};
use dash_webapp::WebApplication;

use crate::crawl::keywords_of;
use crate::fragment::{Fragment, FragmentId};
use crate::Result;

/// Derives all fragments of `app` over `db`, sorted by identifier.
///
/// # Errors
///
/// Propagates relational errors from the join/column lookups.
pub fn fragments(app: &WebApplication, db: &Database) -> Result<Vec<Fragment>> {
    let joined = app.query.join_all(db).map_err(crate::CoreError::from)?;
    fragments_of_joined(app, &joined)
}

/// [`fragments`] restricted to a [`crate::scope::CrawlScope`]: the full
/// reference crawl, filtered afterwards. No production path calls it;
/// it is the oracle `tests/scope.rs` compares both scoped MapReduce
/// crawls ([`crate::crawl::run_scoped`]) against, and it stays for that.
///
/// # Errors
///
/// Same as [`fragments`].
pub fn fragments_scoped(
    app: &WebApplication,
    db: &Database,
    scope: &crate::scope::CrawlScope,
) -> Result<Vec<Fragment>> {
    Ok(fragments(app, db)?
        .into_iter()
        .filter(|f| scope.admits(&f.id))
        .collect())
}

/// Derives only the fragments whose identifiers appear in `targets` —
/// the bulk re-crawl behind delta building. One `join_all` feeds every
/// target (instead of one reference crawl per record change), and rows
/// outside the target groups are discarded *before* keyword counting,
/// so the expensive tokenization runs only over the affected equality
/// groups' rows.
///
/// # Errors
///
/// Same as [`fragments`].
pub fn fragments_for_ids(
    app: &WebApplication,
    db: &Database,
    targets: &std::collections::BTreeSet<FragmentId>,
) -> Result<Vec<Fragment>> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    let joined = app.query.join_all(db).map_err(crate::CoreError::from)?;
    fragments_of_joined_filtered(app, &joined, |id| targets.contains(id))
}

/// Derives the fragments present in an already-joined table (used by the
/// incremental refresher, which filters the join first).
///
/// # Errors
///
/// Propagates column-lookup errors.
pub fn fragments_of_joined(app: &WebApplication, joined: &Table) -> Result<Vec<Fragment>> {
    fragments_of_joined_filtered(app, joined, |_| true)
}

/// The Definition-2 grouping core both entry points share: rows whose
/// identifier fails `admit` are skipped *before* keyword counting, so
/// scoped derivations never pay tokenization for rows they discard.
fn fragments_of_joined_filtered(
    app: &WebApplication,
    joined: &Table,
    admit: impl Fn(&FragmentId) -> bool,
) -> Result<Vec<Fragment>> {
    let schema = joined.schema();
    let sel_idx: Vec<usize> = app
        .query
        .selection_joined_names()
        .iter()
        .map(|name| schema.index_of(name))
        .collect::<std::result::Result<_, _>>()
        .map_err(crate::CoreError::from)?;
    let proj_idx: Vec<usize> = app
        .query
        .projection_joined_names()
        .iter()
        .map(|name| schema.index_of(name))
        .collect::<std::result::Result<_, _>>()
        .map_err(crate::CoreError::from)?;

    let mut groups: BTreeMap<FragmentId, (BTreeMap<String, u64>, u64)> = BTreeMap::new();
    for record in joined.iter() {
        let id = FragmentId::new(
            sel_idx
                .iter()
                .map(|&i| record.values()[i].clone())
                .collect(),
        );
        if !admit(&id) {
            continue;
        }
        let projected: Vec<Value> = proj_idx
            .iter()
            .map(|&i| record.values()[i].clone())
            .collect();
        let entry = groups.entry(id).or_default();
        for kw in keywords_of(&projected) {
            *entry.0.entry(kw).or_insert(0) += 1;
        }
        entry.1 += 1;
    }

    Ok(groups
        .into_iter()
        .map(|(id, (occ, records))| Fragment::new(id, occ, records))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_webapp::fooddb;

    #[test]
    fn fooddb_fragments_match_figure_5() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = fragments(&app, &db).unwrap();
        // Figure 5: (American,9), (American,10), (American,12),
        // (American,18), (Thai,10).
        assert_eq!(fragments.len(), 5);
        let ids: Vec<String> = fragments.iter().map(|f| f.id.to_string()).collect();
        assert_eq!(
            ids,
            vec![
                "(American,9)",
                "(American,10)",
                "(American,12)",
                "(American,18)",
                "(Thai,10)"
            ]
        );
    }

    #[test]
    fn keyword_totals_match_example_6() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = fragments(&app, &db).unwrap();
        let by_id = |s: &str| {
            fragments
                .iter()
                .find(|f| f.id.to_string() == s)
                .unwrap_or_else(|| panic!("fragment {s}"))
        };
        // Example 6: (American,9) holds eight keywords — Bond's, Cafe, 9,
        // 4.3, Nice, Coffee, James, 01/11.
        assert_eq!(by_id("(American,9)").total_keywords, 8);
        // Example 7: (American,10) has TF("burger") = 2/8.
        let f10 = by_id("(American,10)");
        assert_eq!(f10.total_keywords, 8);
        assert_eq!(f10.occurrences("burger"), 2);
        // (American,12) has 17 keywords, 1 "burger" (TF 1/17 per Example 7
        // merged arithmetic: (2+1)/(8+17) = 3/25).
        let f12 = by_id("(American,12)");
        assert_eq!(f12.total_keywords, 17);
        assert_eq!(f12.occurrences("burger"), 1);
        assert_eq!(f12.record_count, 3);
        // (Thai,10) has 10 keywords with 1 "burger" (TF 1/10).
        let thai = by_id("(Thai,10)");
        assert_eq!(thai.total_keywords, 10);
        assert_eq!(thai.occurrences("burger"), 1);
    }

    #[test]
    fn fragments_for_ids_match_the_full_derivation() {
        // The bulk re-crawl must produce byte-identical fragments to
        // deriving everything and filtering — it only skips work.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let all = fragments(&app, &db).unwrap();
        let targets: std::collections::BTreeSet<FragmentId> = all
            .iter()
            .filter(|f| f.id.to_string().contains("American"))
            .map(|f| f.id.clone())
            .collect();
        let expected: Vec<Fragment> = all
            .into_iter()
            .filter(|f| targets.contains(&f.id))
            .collect();
        assert_eq!(expected.len(), 4);
        assert_eq!(fragments_for_ids(&app, &db, &targets).unwrap(), expected);
        assert!(fragments_for_ids(&app, &db, &Default::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fragments_partition_disjointly() {
        // Sum of record counts equals the joined row count: no overlap, no
        // loss — the core fragment invariant.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let joined = app.query.join_all(&db).unwrap();
        let fragments = fragments(&app, &db).unwrap();
        let total: u64 = fragments.iter().map(|f| f.record_count).sum();
        assert_eq!(total, joined.len() as u64);
    }
}
