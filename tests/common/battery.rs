//! The request battery the equivalence tiers serve: the union of what
//! the maintenance, serve, net and scale tiers each used to run. On
//! fooddb its single words are hot (`burger`) to cold (`nice`), `taco`,
//! `pho` and `twin` (`tests/common/twins.rs`) exist only once a test
//! inserts them, the thresholds span
//! no expansion to whole groups, and the `kw…` words of the synthetic
//! scale corpus are misses; on that corpus it is the other way round.

use dash::core::SearchRequest;

pub fn battery() -> Vec<SearchRequest> {
    let mut requests = Vec::new();
    for kw in ["burger", "fries", "coffee", "thai", "taco", "pho", "nice"] {
        for s in [1u64, 20, 60] {
            requests.push(SearchRequest::new(&[kw]).k(6).min_size(s));
        }
    }
    requests.push(SearchRequest::new(&["twin"]).k(6).min_size(1));
    requests.push(SearchRequest::new(&["burger", "taco"]).k(8).min_size(10));
    requests.push(SearchRequest::new(&["zzzmissing"]).k(3).min_size(1));
    for kw in ["kw000000", "kw000001", "kw000017", "kw000123", "kw000299"] {
        for s in [1u64, 8, 40] {
            requests.push(SearchRequest::new(&[kw]).k(7).min_size(s));
        }
    }
    requests.push(
        SearchRequest::new(&["kw000000", "kw000004"])
            .k(12)
            .min_size(1),
    );
    requests.push(
        SearchRequest::new(&["kw000002", "kw000099"])
            .k(3)
            .min_size(5),
    );
    requests.push(SearchRequest::new(&["zzzmissing"]).k(5).min_size(1));
    requests
}
