//! # em-text — string similarity substrate for entity matching
//!
//! From-scratch implementations of every similarity function referenced by
//! the paper's feature-generation tables (Tables I and II): edit-based
//! (Levenshtein distance/similarity, exact match), alignment-based
//! (Needleman-Wunsch, Smith-Waterman), Jaro family (Jaro, Jaro-Winkler),
//! hybrid (Monge-Elkan with Jaro-Winkler secondary), token-set based
//! (Jaccard, Dice, cosine, overlap coefficient over whitespace or q-gram
//! tokens), plus numeric (absolute norm, exact match, numeric Levenshtein)
//! and boolean (exact match) measures.
//!
//! The [`StringSimilarity`], [`NumericSimilarity`], and [`BooleanSimilarity`]
//! enums give each measure a stable identity and feature-name string, which
//! the `automl-em` core crate uses to build feature vectors.
//!
//! The `&str` functions are the textbook definitions. Feature generation
//! runs [`eval_families`] on precomputed [`TokenProfile`]s instead: one
//! call per attribute pair evaluates each measure family once on an exact
//! kernel (bit-parallel Levenshtein and Jaro, one bit-parallel pass for
//! Needleman-Wunsch and Smith-Waterman, one Jaro-Winkler per distinct token
//! pair for Monge-Elkan), with the same `f64` bits as the `&str` functions.
//!
//! ```
//! use em_text::{StringSimilarity, Tokenizer};
//!
//! let f = StringSimilarity::Jaccard(Tokenizer::Whitespace);
//! assert!((f.apply("new york", "new york city") - 2.0 / 3.0).abs() < 1e-12);
//! assert_eq!(f.name(), "jaccard_space");
//! ```

mod align;
mod edit;
mod family;
mod hybrid;
mod jaro;
mod numeric;
mod profile;
mod setsim;
mod tokenize;

pub use align::{
    needleman_wunsch, needleman_wunsch_normalized, smith_waterman, smith_waterman_normalized,
};
pub use edit::{exact_match, levenshtein_distance, levenshtein_similarity};
pub use family::eval_families;
pub use hybrid::{monge_elkan, monge_elkan_with};
pub use jaro::{jaro, jaro_winkler};
pub use numeric::{
    absolute_norm, bool_exact_match, numeric_exact_match, numeric_levenshtein_distance,
    numeric_levenshtein_similarity,
};
pub use profile::{
    intersection_size_sorted, ProfileDraft, TokenInterner, TokenProfile, PROFILE_QGRAM,
};
pub use setsim::{cosine, dice, jaccard, overlap_coefficient, overlap_size};
pub use tokenize::{qgrams, Tokenizer};

/// A string-to-string similarity measure (Table I/II "String" rows).
///
/// `apply` returns the raw value the paper's feature generator would emit:
/// most measures are similarities in `[0, 1]`, but `LevenshteinDistance`,
/// `NeedlemanWunsch`, and `SmithWaterman` are raw scores with wider ranges,
/// exactly as Magellan feeds them to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringSimilarity {
    /// Raw Levenshtein edit distance (a distance: 0 = identical).
    LevenshteinDistance,
    /// Normalized Levenshtein similarity in `[0, 1]`.
    LevenshteinSimilarity,
    /// Jaro similarity in `[0, 1]`.
    Jaro,
    /// 0/1 exact string equality.
    ExactMatch,
    /// Jaro-Winkler similarity in `[0, 1]`.
    JaroWinkler,
    /// Raw Needleman-Wunsch global alignment score (can be negative).
    NeedlemanWunsch,
    /// Raw Smith-Waterman local alignment score (non-negative).
    SmithWaterman,
    /// Monge-Elkan with Jaro-Winkler secondary, in `[0, 1]`.
    MongeElkan,
    /// Overlap coefficient over token sets.
    OverlapCoefficient(Tokenizer),
    /// Dice similarity over token sets.
    Dice(Tokenizer),
    /// Cosine (Ochiai) similarity over token sets.
    Cosine(Tokenizer),
    /// Jaccard similarity over token sets.
    Jaccard(Tokenizer),
    /// Raw shared-token count `|A ∩ B|` (unnormalized; used by blocking-
    /// overlap labeling functions, not part of the Table II battery).
    OverlapSize(Tokenizer),
}

impl StringSimilarity {
    /// Evaluate the measure on two strings.
    pub fn apply(&self, a: &str, b: &str) -> f64 {
        match *self {
            StringSimilarity::LevenshteinDistance => levenshtein_distance(a, b) as f64,
            StringSimilarity::LevenshteinSimilarity => levenshtein_similarity(a, b),
            StringSimilarity::Jaro => jaro(a, b),
            StringSimilarity::ExactMatch => exact_match(a, b),
            StringSimilarity::JaroWinkler => jaro_winkler(a, b),
            StringSimilarity::NeedlemanWunsch => needleman_wunsch(a, b),
            StringSimilarity::SmithWaterman => smith_waterman(a, b),
            StringSimilarity::MongeElkan => monge_elkan(a, b),
            StringSimilarity::OverlapCoefficient(t) => overlap_coefficient(a, b, t),
            StringSimilarity::Dice(t) => dice(a, b, t),
            StringSimilarity::Cosine(t) => cosine(a, b, t),
            StringSimilarity::Jaccard(t) => jaccard(a, b, t),
            StringSimilarity::OverlapSize(t) => overlap_size(a, b, t),
        }
    }

    /// Stable snake-case name used as a feature-name suffix.
    pub fn name(&self) -> String {
        match *self {
            StringSimilarity::LevenshteinDistance => "lev_dist".to_owned(),
            StringSimilarity::LevenshteinSimilarity => "lev_sim".to_owned(),
            StringSimilarity::Jaro => "jaro".to_owned(),
            StringSimilarity::ExactMatch => "exact_match".to_owned(),
            StringSimilarity::JaroWinkler => "jaro_winkler".to_owned(),
            StringSimilarity::NeedlemanWunsch => "needleman_wunsch".to_owned(),
            StringSimilarity::SmithWaterman => "smith_waterman".to_owned(),
            StringSimilarity::MongeElkan => "monge_elkan".to_owned(),
            StringSimilarity::OverlapCoefficient(t) => format!("overlap_{}", t.name()),
            StringSimilarity::Dice(t) => format!("dice_{}", t.name()),
            StringSimilarity::Cosine(t) => format!("cosine_{}", t.name()),
            StringSimilarity::Jaccard(t) => format!("jaccard_{}", t.name()),
            StringSimilarity::OverlapSize(t) => format!("overlap_size_{}", t.name()),
        }
    }

    /// Whether larger values mean *more different* (only true for the raw
    /// Levenshtein distance). Useful for sanity checks and diagnostics.
    pub fn is_distance(&self) -> bool {
        matches!(self, StringSimilarity::LevenshteinDistance)
    }
}

/// A number-to-number similarity measure (Table I/II "Numeric" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericSimilarity {
    /// Levenshtein distance between decimal representations.
    LevenshteinDistance,
    /// Normalized Levenshtein similarity between decimal representations.
    LevenshteinSimilarity,
    /// 0/1 exact equality.
    ExactMatch,
    /// `1 - |a-b| / max(|a|,|b|)` clamped to `[0, 1]`.
    AbsoluteNorm,
}

impl NumericSimilarity {
    /// Evaluate the measure on two numbers. NaN inputs propagate NaN.
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        match self {
            NumericSimilarity::LevenshteinDistance => numeric_levenshtein_distance(a, b),
            NumericSimilarity::LevenshteinSimilarity => numeric_levenshtein_similarity(a, b),
            NumericSimilarity::ExactMatch => numeric_exact_match(a, b),
            NumericSimilarity::AbsoluteNorm => absolute_norm(a, b),
        }
    }

    /// Stable snake-case name used as a feature-name suffix.
    pub fn name(&self) -> &'static str {
        match self {
            NumericSimilarity::LevenshteinDistance => "lev_dist",
            NumericSimilarity::LevenshteinSimilarity => "lev_sim",
            NumericSimilarity::ExactMatch => "exact_match",
            NumericSimilarity::AbsoluteNorm => "abs_norm",
        }
    }
}

/// A boolean-to-boolean similarity measure (Table I/II "Bool" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BooleanSimilarity {
    /// 0/1 exact equality.
    ExactMatch,
}

impl BooleanSimilarity {
    /// Evaluate the measure on two booleans.
    pub fn apply(&self, a: bool, b: bool) -> f64 {
        match self {
            BooleanSimilarity::ExactMatch => bool_exact_match(a, b),
        }
    }

    /// Stable snake-case name used as a feature-name suffix.
    pub fn name(&self) -> &'static str {
        "exact_match"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_apply_matches_free_functions() {
        let a = "arnie mortons of chicago";
        let b = "arnie mortons chicago";
        assert_eq!(
            StringSimilarity::LevenshteinDistance.apply(a, b),
            levenshtein_distance(a, b) as f64
        );
        assert_eq!(
            StringSimilarity::Jaccard(Tokenizer::Whitespace).apply(a, b),
            jaccard(a, b, Tokenizer::Whitespace)
        );
        assert_eq!(StringSimilarity::MongeElkan.apply(a, b), monge_elkan(a, b));
    }

    #[test]
    fn names_are_unique_across_table_ii_string_rows() {
        use StringSimilarity::*;
        let all = [
            LevenshteinDistance,
            LevenshteinSimilarity,
            Jaro,
            ExactMatch,
            JaroWinkler,
            NeedlemanWunsch,
            SmithWaterman,
            MongeElkan,
            OverlapCoefficient(Tokenizer::Whitespace),
            Dice(Tokenizer::Whitespace),
            Cosine(Tokenizer::Whitespace),
            Jaccard(Tokenizer::Whitespace),
            OverlapCoefficient(Tokenizer::QGram(3)),
            Dice(Tokenizer::QGram(3)),
            Cosine(Tokenizer::QGram(3)),
            Jaccard(Tokenizer::QGram(3)),
        ];
        let names: std::collections::BTreeSet<String> = all.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn numeric_enum_applies() {
        assert_eq!(NumericSimilarity::ExactMatch.apply(2.0, 2.0), 1.0);
        assert!((NumericSimilarity::AbsoluteNorm.apply(8.0, 10.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn bool_enum_applies() {
        assert_eq!(BooleanSimilarity::ExactMatch.apply(true, true), 1.0);
        assert_eq!(BooleanSimilarity::ExactMatch.apply(false, true), 0.0);
    }
}
