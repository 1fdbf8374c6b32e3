//! The paper's running example: the fooddb search application and the
//! fragments a crawl of its database derives.

use dash::core::crawl::reference;
use dash::core::Fragment;
use dash::webapp::{fooddb, WebApplication};

pub fn app() -> WebApplication {
    fooddb::search_application().unwrap()
}

pub fn crawled_fragments() -> Vec<Fragment> {
    reference::fragments(&app(), &fooddb::database()).unwrap()
}
