//! # dash-relation
//!
//! The relational substrate underneath the [Dash] search engine
//! (ICDCS 2012). Dash crawls *databases* rather than the web, so it needs a
//! complete, embeddable relational engine: typed values, schemas, tables
//! with primary/foreign keys, and the project–select–join (PSJ) operator
//! family that the paper's parameterized application queries are built from
//! (Definition 1 of the paper).
//!
//! The crate is deliberately self-contained (no external database): Dash's
//! database crawler ([`dash-core`]) consumes these tables directly, and the
//! MapReduce substrate serializes [`Record`]s for byte-metered shuffles.
//!
//! ## Quick example
//!
//! ```
//! use dash_relation::{Column, ColumnType, Database, Schema, Table, Value, Record};
//!
//! # fn main() -> Result<(), dash_relation::RelationError> {
//! let schema = Schema::builder("restaurant")
//!     .column(Column::new("rid", ColumnType::Int))
//!     .column(Column::new("name", ColumnType::Str))
//!     .column(Column::new("budget", ColumnType::Int))
//!     .primary_key(&["rid"])
//!     .build()?;
//! let mut table = Table::new(schema);
//! table.insert(Record::new(vec![
//!     Value::Int(1),
//!     Value::str("Burger Queen"),
//!     Value::Int(10),
//! ]))?;
//! assert_eq!(table.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! [Dash]: https://doi.org/10.1109/ICDCS.2012.53
//! [`dash-core`]: ../dash_core/index.html

pub mod catalog;
pub mod csv;
pub mod error;
pub mod expr;
pub mod ops;
pub mod record;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Database, ForeignKey};
pub use csv::{from_csv, to_csv};
pub use error::RelationError;
pub use expr::{CompareOp, Predicate};
pub use ops::aggregate::{AggFunc, Aggregation, GroupBy};
pub use ops::join::{join, JoinKind, JoinSpec};
pub use ops::project::project;
pub use ops::select::select;
pub use ops::sort::{sort_by, SortKey, SortOrder};
pub use record::Record;
pub use schema::{Column, ColumnType, Schema, SchemaBuilder};
pub use table::Table;
pub use value::{write_i64, write_u64, Date, Decimal, Value};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationError>;
