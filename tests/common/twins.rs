//! A score tie across equality groups. The fooddb crawl holds none that
//! the battery reaches: with the group-rank tie-break reversed, each of
//! its 36 words at k ∈ {3, 6, 10} and each pair of them at k ∈ {6, 10},
//! all at s ∈ {1, 20, 60}, answers as before. So a tier over fooddb adds
//! these two fragments, alike but for their cuisine, and the battery's
//! `twin` request returns the Greek page before the Korean one only
//! because `Greek` < `Korean`.

use dash::core::{Fragment, FragmentId};
use dash::relation::Value;

pub fn twins() -> Vec<Fragment> {
    ["Greek", "Korean"]
        .into_iter()
        .map(|cuisine| {
            Fragment::new(
                FragmentId::new(vec![Value::str(cuisine), Value::Int(7)]),
                [("twin".to_string(), 1), ("grill".to_string(), 1)]
                    .into_iter()
                    .collect(),
                1,
            )
        })
        .collect()
}
