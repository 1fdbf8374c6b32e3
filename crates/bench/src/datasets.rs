//! Dataset and application construction shared by the experiment
//! binaries and benches.

use std::collections::BTreeMap;

use dash_core::{Fragment, FragmentId};
use dash_relation::{Database, Value};
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::WebApplication;

/// The paper's three application queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// (R ⋈ N) ⋈ C — tiny operands R, N.
    Q1,
    /// (C ⋈ O) ⋈ L — the three large common operands.
    Q2,
    /// (C ⋈ O) ⋈ (L ⋈ P) — Q2 plus `part`.
    Q3,
}

impl QueryId {
    /// All three, in paper order.
    pub fn all() -> [QueryId; 3] {
        [QueryId::Q1, QueryId::Q2, QueryId::Q3]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q1 => "Q1",
            QueryId::Q2 => "Q2",
            QueryId::Q3 => "Q3",
        }
    }
}

/// Generates (deterministically) the TPC-H dataset at `scale`.
pub fn dataset(scale: Scale) -> Database {
    generate(&TpchConfig::new(scale))
}

/// Analyzes the query's servlet against `db`.
///
/// # Panics
///
/// Panics if the bundled servlets fail analysis against a generated
/// TPC-H database — that would be a bug, not an input error.
pub fn application_for(query: QueryId, db: &Database) -> WebApplication {
    let result = match query {
        QueryId::Q1 => dash_tpch::q1_application(db),
        QueryId::Q2 => dash_tpch::q2_application(db),
        QueryId::Q3 => dash_tpch::q3_application(db),
    };
    result.expect("bundled servlet analyzes cleanly")
}

/// A tie-plateau corpus: `groups × per_group` fragments keyed
/// `(G<group>, member)` (the fooddb application's page shape), each
/// carrying the `"plateau"` keyword. The first `tied` fragments use
/// one (occurrences, total) pair — one bit-identical seed score across
/// groups — while the rest scale their occurrence counts, giving
/// distinct TFs. `tied = usize::MAX` ties the whole corpus.
pub fn plateau_corpus(groups: usize, per_group: usize, tied: usize) -> Vec<Fragment> {
    let mut fragments = Vec::with_capacity(groups * per_group);
    let mut n = 0usize;
    for g in 0..groups {
        for m in 0..per_group {
            let mut occ: BTreeMap<String, u64> = BTreeMap::new();
            if n < tied {
                occ.insert("plateau".to_string(), 2);
                occ.insert("filler".to_string(), 8);
            } else {
                // Varying TF: distinct occurrence/total ratios.
                occ.insert("plateau".to_string(), 1 + (n % 7) as u64);
                occ.insert("filler".to_string(), 5 + (n % 11) as u64);
            }
            fragments.push(Fragment::new(
                FragmentId::new(vec![Value::str(format!("G{g:03}")), Value::Int(m as i64)]),
                occ,
                1,
            ));
            n += 1;
        }
    }
    fragments
}

/// Parses a scale name from a CLI argument.
pub fn parse_scale(text: &str) -> Option<Scale> {
    match text.to_ascii_lowercase().as_str() {
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "large" => Some(Scale::Large),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applications_resolve() {
        let db = dataset(Scale::Small);
        for q in QueryId::all() {
            let app = application_for(q, &db);
            assert_eq!(app.name, q.name());
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("Medium"), Some(Scale::Medium));
        assert_eq!(parse_scale("x"), None);
    }
}
