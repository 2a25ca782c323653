//! # em-data — synthetic EM benchmark generators
//!
//! The paper evaluates on eight real benchmark datasets (Table III) that are
//! not redistributable here, so this crate synthesizes datasets with the
//! same *shape*: identical schema arity, pair counts, positive rates,
//! string-length profiles (so Magellan type inference assigns the same
//! buckets), family-structured hard negatives, and difficulty-calibrated
//! noise (typos, abbreviations, token drops/reorders, missing values,
//! numeric jitter). Every generator is fully seeded and deterministic.
//!
//! ```
//! use em_data::Benchmark;
//!
//! let ds = Benchmark::FodorsZagats.generate_scaled(42, 0.25);
//! let stats = ds.stats();
//! assert!(stats.positives > 0 && stats.positives < stats.total);
//! ```

#![forbid(unsafe_code)]

mod benchmark;
pub mod catalog;
pub mod domains;
mod entity;
mod noise;
pub mod vocab;

pub use benchmark::{Benchmark, DatasetProfile, Difficulty, EmDataset};
pub use catalog::{CatalogSpec, ScaleCatalog};
pub use entity::{family_of, EntityDomain, FAMILY_SIZE};
pub use noise::{NoiseModel, ABBREVIATIONS};
