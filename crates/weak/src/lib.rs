//! # em-weak — weak supervision for entity matching
//!
//! Panda-style weak supervision as a new labeling scenario for AutoML-EM:
//! instead of hand labels (the paper's active-learning oracle), supervision
//! comes from cheap declarative **labeling functions** denoised by a
//! **generative label model**.
//!
//! * [`LfSet`] / [`LfRule`] — a small DSL of threshold, equality, and
//!   blocking-overlap rules over the Table-II similarities, with JSON
//!   round-tripping. Compiled sets evaluate through the interned
//!   [`automl_em::FeatureCache`], so LF application reuses the memoized
//!   similarity kernels and is bit-identical at any `EM_THREADS`.
//! * [`LabelModel`] — per-LF accuracy + propensity estimated by EM on the
//!   vote matrix (abstain-aware, clamped, seeded init, parallel E-step into
//!   disjoint slots, serial M-step), with [`majority_vote`] as the
//!   closed-form fallback.
//! * [`WeakSupervision`] / [`weak_automl`] — the zero-hand-labels
//!   workload end to end: votes → posteriors → confidence-weighted hard
//!   labels → a full AutoML-EM pipeline search via
//!   [`automl_em::AutoMlEm::fit_weighted`].
//!
//! ```
//! use em_weak::{Comparison, LfRule, LfSet, Vote};
//! use em_text::{StringSimilarity, Tokenizer};
//!
//! let lfs = LfSet::new([(
//!     "name_jaccard_high",
//!     LfRule::SimThreshold {
//!         attr: "name".to_owned(),
//!         sim: StringSimilarity::Jaccard(Tokenizer::Whitespace),
//!         cmp: Comparison::AtLeast,
//!         threshold: 0.8,
//!         vote: Vote::Match,
//!     },
//! )]);
//! let json = lfs.to_json().render();
//! assert_eq!(LfSet::from_json(&em_rt::Json::parse(&json).unwrap()), Ok(lfs));
//! ```

#![forbid(unsafe_code)]

mod lf;
mod model;
mod supervise;

pub use lf::{
    similarity_from_name, tokenizer_from_name, Comparison, CompiledLfSet, LabelingFunction, LfRule,
    LfSet, Vote, VoteMatrix, VoteStats,
};
pub use model::{majority_vote, LabelModel, LabelModelOptions};
pub use supervise::{weak_automl, WeakAutoMlResult, WeakSupervision, WeakTrainingSet};

use em_table::{AttrType, Table};
use em_text::{StringSimilarity, Tokenizer};

impl LfSet {
    /// A generic schema-driven battery: for every text attribute of the
    /// pair, a high-similarity match rule, a low-similarity non-match rule,
    /// and an exact-equality match rule. `high`/`low` are the q-gram
    /// Jaccard thresholds. Domain-specific LF sets will beat this battery;
    /// it exists so every benchmark has a zero-configuration starting
    /// point (the label model learns which attributes to trust).
    pub fn similarity_battery(a: &Table, b: &Table, high: f64, low: f64) -> LfSet {
        let types = em_table::infer_pair_types(a, b);
        let mut lfs = Vec::new();
        for (attr, ty) in a.schema().iter().zip(&types) {
            if matches!(ty, AttrType::Boolean | AttrType::Numeric) {
                continue;
            }
            let name = attr.name.as_str();
            lfs.push((
                format!("{name}_sim_high"),
                LfRule::SimThreshold {
                    attr: name.to_owned(),
                    sim: StringSimilarity::Jaccard(Tokenizer::QGram(3)),
                    cmp: Comparison::AtLeast,
                    threshold: high,
                    vote: Vote::Match,
                },
            ));
            lfs.push((
                format!("{name}_sim_low"),
                LfRule::SimThreshold {
                    attr: name.to_owned(),
                    sim: StringSimilarity::Jaccard(Tokenizer::QGram(3)),
                    cmp: Comparison::AtMost,
                    threshold: low,
                    vote: Vote::NonMatch,
                },
            ));
            lfs.push((
                format!("{name}_equal"),
                LfRule::AttrEquality {
                    attr: name.to_owned(),
                    vote_equal: Vote::Match,
                    vote_differ: Vote::Abstain,
                },
            ));
        }
        LfSet::new(lfs)
    }
}
