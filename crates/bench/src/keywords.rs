//! Hot/warm/cold keyword selection (Section VII-B).
//!
//! "We order all keywords according to their DFs. Among all those, 30 hot
//! keywords, 30 warm keywords and 30 cold keywords are extracted from top
//! 10%, middle 10% and bottom 10% of the keywords."

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Keyword frequency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeywordTemperature {
    /// Sampled from the top 10% by fragment frequency.
    Hot,
    /// Sampled from the middle 10%.
    Warm,
    /// Sampled from the bottom 10%.
    Cold,
}

impl KeywordTemperature {
    /// All three, hottest first.
    pub fn all() -> [KeywordTemperature; 3] {
        [
            KeywordTemperature::Hot,
            KeywordTemperature::Warm,
            KeywordTemperature::Cold,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            KeywordTemperature::Hot => "hot",
            KeywordTemperature::Warm => "warm",
            KeywordTemperature::Cold => "cold",
        }
    }
}

/// Samples `count` keywords of the requested temperature from a
/// fragment-frequency ranking (hottest first, as
/// `InvertedFragmentIndex::keywords_by_df` reports it over the whole
/// corpus), deterministically for a given seed.
pub fn select_keywords(
    ranked: &[(&str, usize)],
    temperature: KeywordTemperature,
    count: usize,
    seed: u64,
) -> Vec<String> {
    if ranked.is_empty() {
        return Vec::new();
    }
    let n = ranked.len();
    let decile = (n / 10).max(1);
    let slice: Vec<&(&str, usize)> = match temperature {
        KeywordTemperature::Hot => ranked.iter().take(decile).collect(),
        KeywordTemperature::Warm => {
            let mid = n / 2;
            let lo = mid.saturating_sub(decile / 2);
            ranked.iter().skip(lo).take(decile).collect()
        }
        KeywordTemperature::Cold => ranked.iter().skip(n - decile).collect(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let pick = slice[rng.random_range(0..slice.len())];
        out.push(pick.0.to_string());
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::FragmentIndex;
    use dash_webapp::fooddb;

    fn fooddb_index() -> FragmentIndex {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = dash_core::crawl::reference::fragments(&app, &db).unwrap();
        FragmentIndex::build(&fragments, app.query.range_selection_index()).unwrap()
    }

    #[test]
    fn temperatures_order_by_df() {
        let index = fooddb_index();
        let ranked = index.inverted.keywords_by_df();
        let hot = select_keywords(&ranked, KeywordTemperature::Hot, 5, 1);
        let cold = select_keywords(&ranked, KeywordTemperature::Cold, 5, 1);
        assert!(!hot.is_empty());
        assert!(!cold.is_empty());
        let df = |w: &str| index.inverted.df(w);
        let max_cold = cold.iter().map(|w| df(w)).max().unwrap();
        let max_hot = hot.iter().map(|w| df(w)).max().unwrap();
        assert!(max_hot >= max_cold);
    }

    #[test]
    fn deterministic_for_seed() {
        let index = fooddb_index();
        let ranked = index.inverted.keywords_by_df();
        let a = select_keywords(&ranked, KeywordTemperature::Warm, 10, 7);
        let b = select_keywords(&ranked, KeywordTemperature::Warm, 10, 7);
        assert_eq!(a, b);
    }
}
