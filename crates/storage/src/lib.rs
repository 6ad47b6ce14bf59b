//! In-memory columnar storage for the GRACEFUL reproduction.
//!
//! The paper evaluates on 20 databases loaded into DuckDB. This crate is the
//! storage substrate of our stand-in engine:
//!
//! * [`types`] — the `DataType`/`Value` system shared by the engine and the
//!   UDF interpreter,
//! * [`mod@column`]/[`table`]/[`database`] — null-aware typed columns, tables
//!   with key metadata, and the database catalog,
//! * [`stats`] — per-column statistics (row count, NDV, null fraction,
//!   min/max, most-common values, average text length) read by the
//!   estimators of `graceful-card`, the featurizer and the UDF and query
//!   generators,
//! * [`datagen`] — seeded generators for the paper's 20 benchmark databases
//!   (accidents … walmart), including correlated columns and skewed
//!   foreign-key fan-outs so that naive cardinality estimation measurably
//!   degrades, as required to reproduce Table III.

#![forbid(unsafe_code)]

pub mod column;
pub mod database;
pub mod datagen;
pub mod stats;
pub mod table;
pub mod types;

pub use column::{Column, ColumnData, Nulls, MAX_DICT};
pub use database::Database;
pub use stats::{ColumnStats, TableStats};
pub use table::{ForeignKey, Table};
pub use types::{DataType, Value};
