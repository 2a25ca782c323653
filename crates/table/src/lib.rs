//! # em-table — tabular data substrate for entity matching
//!
//! Schemas, typed cell values, in-memory tables, CSV I/O, Magellan-style
//! attribute type inference (paper §III-B), record pairs, baseline
//! blocking, and the one overlap-postings engine ([`IncrementalIndex`])
//! that both the batch [`OverlapBlocker`] and `em-serve` probe. This crate
//! replaces the pandas/Magellan data layer the paper's Python
//! implementation sits on.
//!
//! ```
//! use em_table::{parse_csv, infer_pair_types, AttrType};
//!
//! let a = parse_csv("name,city\nfenix,west hollywood\n").unwrap();
//! let b = parse_csv("name,city\nfenix at the argyle,w. hollywood\n").unwrap();
//! let types = infer_pair_types(&a, &b);
//! assert_eq!(types[0], AttrType::ShortString);
//! ```

#![forbid(unsafe_code)]

mod blocking;
pub mod compact;
mod csv;
pub mod index;
mod pairs;
mod schema;
mod table;
mod types;
mod value;

pub use blocking::{
    self_join_candidates, AttrEquivalenceBlocker, Blocker, BlockingStats, OverlapBlocker,
};
pub use compact::DeltaList;
pub use csv::{parse_csv, read_csv_file, write_csv};
pub use index::{IncrementalIndex, IndexOptions, ProbeStats, DEFAULT_SHARD_SPAN};
pub use pairs::{LabeledPair, PairStats, RecordPair};
pub use schema::{Attribute, Schema};
pub use table::{Record, Table};
pub use types::{infer_column_type, infer_pair_types, AttrType, CoarseType};
pub use value::Value;

/// Errors produced by the table substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row's arity did not match the schema.
    ArityMismatch {
        /// Number of attributes the schema defines.
        expected: usize,
        /// Number of fields the row supplied.
        got: usize,
    },
    /// CSV input was empty.
    EmptyCsv,
    /// Malformed CSV content.
    Csv(String),
    /// Underlying I/O failure (stringified to keep the error `Clone + Eq`).
    Io(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} fields but the schema has {expected}")
            }
            TableError::EmptyCsv => write!(f, "CSV input is empty"),
            TableError::Csv(msg) => write!(f, "malformed CSV: {msg}"),
            TableError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TableError {}
