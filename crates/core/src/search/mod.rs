//! Top-k db-page search (Section VI-B of the paper).

pub mod topk;

pub use topk::top_k;
pub(crate) use topk::{request_idf, top_k_in, SearchScratch, ShardView};

use std::fmt;

use dash_relation::Value;
use dash_webapp::WebApplication;

use crate::fragment::FragmentId;
use crate::index::{Frag, FragmentCatalog};

/// A keyword search request: the queried keywords `W`, the number of
/// result URLs `k`, and the db-page size threshold `s` (in keywords).
///
/// `s` steers assembly: pages smaller than `s` keep absorbing neighboring
/// fragments while any are available, so results are substantial pages
/// rather than keyword-dense slivers; pages never grow past the first
/// size ≥ `s`, avoiding hugely diluted pages (Section VI-B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// Where a search puts its hits: the engine hands each emitted db-page
/// to [`HitSink::emit`] as a borrowed [`HitView`], in output order, and
/// builds nothing the sink does not ask for. A `Vec<SearchHit>` is the
/// sink that owns its hits; a front-end can write its response bytes
/// straight from the views instead.
pub trait HitSink {
    /// Takes one emitted hit.
    fn emit(&mut self, hit: &HitView<'_>);
}

impl HitSink for Vec<SearchHit> {
    fn emit(&mut self, hit: &HitView<'_>) {
        self.push(hit.to_hit());
    }
}

impl<S: HitSink + ?Sized> HitSink for &mut S {
    fn emit(&mut self, hit: &HitView<'_>) {
        (**self).emit(hit);
    }
}

/// One emitted hit, borrowed from the engine: the `(parameter, value)`
/// pairs its URL is rendered from, its score and size, and its
/// fragment run as handles into the catalog. It is what a
/// [`SearchHit`] holds, written on demand (the `Vec<SearchHit>` sink
/// builds the owned hit).
#[derive(Debug, Clone, Copy)]
pub struct HitView<'a> {
    pub(crate) app: &'a WebApplication,
    /// Every query-string field's parameter is bound here
    /// ([`WebApplication::binds_every_field`]).
    pub(crate) params: &'a [(&'a str, &'a Value)],
    pub(crate) catalog: &'a FragmentCatalog,
    pub(crate) frags: &'a [Frag],
    /// TF/IDF relevance score of the assembled page.
    pub score: f64,
    /// Total keywords in the page (its size).
    pub size: u64,
}

impl<'a> HitView<'a> {
    /// Writes the suggested URL ([`SearchHit::url`]) around
    /// `query_string`, which is this hit's
    /// ([`HitView::write_query_string`]): a caller that writes both
    /// renders the query string once.
    ///
    /// # Errors
    ///
    /// Only what `out` returns.
    pub fn write_url<W: fmt::Write>(&self, out: &mut W, query_string: &str) -> fmt::Result {
        self.app
            .write_suggestion(out, |out| out.write_str(query_string))
    }

    /// Writes the query string alone ([`SearchHit::query_string`]).
    ///
    /// # Errors
    ///
    /// Only what `out` returns.
    pub fn write_query_string<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.app
            .write_query_string(out, self.params)
            .expect("an emitted hit binds every field")
    }

    /// The fragments assembled into the page, in range order, each as
    /// its identifier's values ([`SearchHit::fragment_ids`]).
    pub fn fragment_ids(
        &self,
    ) -> impl ExactSizeIterator<Item = impl Iterator<Item = &'a Value>> + 'a {
        let catalog = self.catalog;
        self.frags.iter().map(move |&frag| catalog.values(frag))
    }

    /// The owned hit.
    pub(crate) fn to_hit(&self) -> SearchHit {
        let mut query_string = String::with_capacity(64);
        self.write_query_string(&mut query_string)
            .expect("writing to a String cannot fail");
        SearchHit {
            url: self.app.render_suggestion(&query_string),
            query_string,
            score: self.score,
            size: self.size,
            fragment_ids: self
                .frags
                .iter()
                .map(|&frag| self.catalog.id(frag))
                .collect(),
        }
    }
}
