//! Top-k db-page search (Section VI-B of the paper).

pub mod topk;

pub use topk::top_k;
pub(crate) use topk::{request_idf, top_k_in, SearchScratch, ShardView};

use crate::fragment::FragmentId;

/// A keyword search request: the queried keywords `W`, the number of
/// result URLs `k`, and the db-page size threshold `s` (in keywords).
///
/// `s` steers assembly: pages smaller than `s` keep absorbing neighboring
/// fragments while any are available, so results are substantial pages
/// rather than keyword-dense slivers; pages never grow past the first
/// size ≥ `s`, avoiding hugely diluted pages (Section VI-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// Queried keywords (normalized to lowercase at construction).
    pub keywords: Vec<String>,
    /// Number of db-page URLs requested.
    pub k: usize,
    /// Minimum page size threshold `s`, in keywords.
    pub min_size: u64,
}

impl SearchRequest {
    /// Creates a request with the paper's default-ish settings
    /// (`k = 10`, `s = 100`).
    pub fn new(keywords: &[&str]) -> Self {
        SearchRequest {
            keywords: keywords.iter().map(|w| w.to_lowercase()).collect(),
            k: 10,
            min_size: 100,
        }
    }

    /// Sets `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the size threshold `s`.
    pub fn min_size(mut self, s: u64) -> Self {
        self.min_size = s;
        self
    }
}

/// One search result: a reconstructed db-page, addressed by the URL Dash
/// suggests (the web application + the reverse-parsed query string).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Suggested URL (`base_uri?field=value&…`).
    pub url: String,
    /// The query string alone.
    pub query_string: String,
    /// TF/IDF relevance score of the assembled page.
    pub score: f64,
    /// Total keywords in the page (its size).
    pub size: u64,
    /// The fragments assembled into the page, in range order.
    pub fragment_ids: Vec<FragmentId>,
}
