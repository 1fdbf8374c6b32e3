//! Error type for the Dash core.

use std::fmt;

use dash_relation::RelationError;
use dash_webapp::WebAppError;

/// Errors from crawling, indexing and search.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A relational failure in a crawl or refresh.
    Relation(RelationError),
    /// A web-application failure (analysis, query strings, execution).
    WebApp(WebAppError),
    /// The application query's shape is outside what the engine supports
    /// (e.g. more than one range-bound selection attribute).
    UnsupportedQuery {
        /// What is unsupported.
        detail: String,
    },
    /// A keyword occurs in one fragment more often than a posting can
    /// count (`u32::MAX`). Refused at build and at delta apply, never
    /// truncated.
    OccurrenceOverflow {
        /// The keyword.
        keyword: String,
        /// Its occurrence count in the fragment.
        occurrences: u64,
    },
    /// A fragment's keyword occurrences sum past its `total_keywords`,
    /// which would give it a TF above 1. Refused at build, at image
    /// load and before a delta changes anything.
    OccurrencesPastTotal {
        /// The fragment's identifier, as displayed.
        id: String,
        /// The sum of its occurrence counts.
        occurrences: u64,
        /// Its `total_keywords`.
        total_keywords: u64,
    },
    /// A fragment identifier does not have the application's arity:
    /// one value per selection attribute (paper Definition 2). Refused
    /// at build and before a delta changes anything.
    IdentifierArity {
        /// The identifier, as displayed.
        id: String,
        /// Its number of values.
        arity: usize,
        /// The application's arity where an engine checks it; a bare
        /// fragment index, which knows only the range position, reports
        /// the least arity that holds a range value.
        expected: usize,
    },
    /// An internal invariant was violated (always a bug; surfaced as an
    /// error instead of a panic so long crawls fail soft).
    Internal {
        /// Description of the broken invariant.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relation(e) => write!(f, "relational error: {e}"),
            CoreError::WebApp(e) => write!(f, "web application error: {e}"),
            CoreError::UnsupportedQuery { detail } => {
                write!(f, "unsupported application query: {detail}")
            }
            CoreError::OccurrenceOverflow {
                keyword,
                occurrences,
            } => write!(
                f,
                "keyword '{keyword}' occurs {occurrences} times in one fragment; \
                 a posting counts at most {}",
                u32::MAX
            ),
            CoreError::OccurrencesPastTotal {
                id,
                occurrences,
                total_keywords,
            } => write!(
                f,
                "fragment {id} holds {occurrences} keyword occurrences, \
                 past its total of {total_keywords}"
            ),
            CoreError::IdentifierArity {
                id,
                arity,
                expected,
            } => write!(
                f,
                "fragment identifier {id} holds {arity} values; \
                 the application's identifiers hold {expected}"
            ),
            CoreError::Internal { detail } => write!(f, "internal invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            CoreError::WebApp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

impl From<WebAppError> for CoreError {
    fn from(e: WebAppError) -> Self {
        CoreError::WebApp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_chains() {
        let e: CoreError = RelationError::UnknownRelation {
            relation: "r".into(),
        }
        .into();
        assert!(e.to_string().contains("unknown relation"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::UnsupportedQuery {
            detail: "two ranges".into(),
        };
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<CoreError>();
    }
}
