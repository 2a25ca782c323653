//! # automl-em — Automating Entity Matching Model Development
//!
//! A from-scratch Rust reproduction of the ICDE 2021 paper "Automating
//! Entity Matching Model Development" (Wang, Zheng, Wang, Pei): automated
//! development of the *matching-phase* model of an entity-matching system.
//!
//! The crate contributes three layers on top of the `em-text` / `em-table` /
//! `em-ml` / `em-automl` substrates:
//!
//! 1. **Feature generation** ([`featuregen`]) — Magellan's type-dependent
//!    rules (paper Table I) and AutoML-EM's exhaustive rules (Table II)
//!    turning record pairs into numeric similarity vectors.
//! 2. **AutoML-EM** ([`AutoMlEm`]) — pipeline search over balancing →
//!    imputation → rescaling → feature preprocessing → classifier +
//!    hyperparameters (Figures 4/5/11), driven by SMAC/TPE/random search.
//! 3. **AutoML-EM-Active** ([`AutoMlEmActive`]) — Algorithm 1: hybrid
//!    active learning (low tree-agreement pairs → human) and self-training
//!    (high-agreement pairs → free machine labels, class-ratio preserved).
//!
//! ## Quickstart
//!
//! ```
//! use automl_em::{AutoMlEmOptions, FeatureScheme, PreparedDataset};
//! use em_automl::Budget;
//! use em_data::Benchmark;
//!
//! // A scaled-down synthetic stand-in for the Fodors-Zagats benchmark.
//! let dataset = Benchmark::FodorsZagats.generate_scaled(7, 0.25);
//! let prepared = PreparedDataset::prepare(&dataset, FeatureScheme::AutoMlEm, 7);
//! let options = AutoMlEmOptions { budget: Budget::Evaluations(4), ..Default::default() };
//! let (valid_f1, test_f1, result) = prepared.run_automl(options);
//! assert!(valid_f1 > 0.0 && test_f1 > 0.0);
//! println!("{}", result.best_configuration); // Figure-11 style dump
//! ```

#![forbid(unsafe_code)]

pub mod active;
pub mod automl_em;
pub mod explain;
pub mod featcache;
pub mod featuregen;
pub mod oracle;
pub mod pipeline;
pub mod space;

pub use active::{
    ActiveConfig, ActiveRunResult, AutoMlEmActive, IterationStats, LabeledSet, QueryStrategy,
};
pub use automl_em::{AutoMlEm, AutoMlEmOptions, AutoMlEmResult, PreparedDataset, SearchChoice};
pub use explain::FeatureImportanceReport;
pub use featcache::FeatureCache;
pub use featuregen::{
    all_string_similarities, magellan_string_similarities, numeric_similarities, FeatureGenerator,
    FeatureKind, FeatureScheme, FeatureSpec,
};
pub use oracle::{GroundTruthOracle, NoisyOracle, Oracle};
pub use pipeline::{
    decode_configuration, ClassifierChoice, EmPipelineConfig, FittedEmPipeline, FittedTransform,
    PreprocessorChoice,
};
pub use space::{build_space, default_configuration, ModelSpace, SpaceOptions};
