//! Feature-vector generation from record pairs — the paper's §III-B.
//!
//! Two schemes are implemented exactly as the paper tabulates them:
//!
//! * [`FeatureScheme::Magellan`] (Table I): similarity functions chosen by
//!   the attribute's fine-grained type (single-word / 1-to-5-word /
//!   5-to-10-word / long string / numeric / boolean), Magellan's pre-defined
//!   heuristic rules.
//! * [`FeatureScheme::AutoMlEm`] (Table II): *every* string similarity
//!   function for every string attribute regardless of length — "generate as
//!   many features as possible and delegate feature processing to AutoML".
//!
//! For the paper's running example (attributes typed single-word,
//! single-word, long, long) Magellan yields 6+6+2+2 = 14 features while
//! AutoML-EM yields 16×4 = 64, matching §III-B.

use em_ml::Matrix;
use em_table::{AttrType, RecordPair, Schema, Table, Value};
use em_text::{BooleanSimilarity, NumericSimilarity, StringSimilarity, Tokenizer};

/// Which feature-generation rules to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureScheme {
    /// Magellan's type-dependent rules (paper Table I).
    Magellan,
    /// AutoML-EM's exhaustive rules (paper Table II).
    AutoMlEm,
}

/// How one feature is computed: which attribute, which measure.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureKind {
    /// A string-to-string similarity.
    String(StringSimilarity),
    /// A number-to-number similarity.
    Numeric(NumericSimilarity),
    /// A boolean similarity.
    Bool(BooleanSimilarity),
}

/// One planned feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Attribute position in the shared schema.
    pub attr_index: usize,
    /// Attribute name (for display; `Name_jaccard_space` style).
    pub attr_name: String,
    /// Similarity measure applied.
    pub kind: FeatureKind,
}

impl FeatureSpec {
    /// Feature name in the `attr_measure` convention the paper's Figure 2
    /// shows (`Name_Space_Jaccard` ≈ `name_jaccard_space`).
    pub fn name(&self) -> String {
        let suffix = match &self.kind {
            FeatureKind::String(s) => s.name(),
            FeatureKind::Numeric(n) => n.name().to_owned(),
            FeatureKind::Bool(b) => b.name().to_owned(),
        };
        format!("{}_{}", self.attr_name, suffix)
    }
}

/// The full set of string similarity functions of Table II (16 rows).
pub fn all_string_similarities() -> Vec<StringSimilarity> {
    use StringSimilarity::*;
    vec![
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
    ]
}

/// Magellan's similarity functions for a fine-grained type (Table I).
pub fn magellan_string_similarities(t: AttrType) -> Vec<StringSimilarity> {
    use StringSimilarity::*;
    match t {
        AttrType::SingleWordString => vec![
            LevenshteinDistance,
            LevenshteinSimilarity,
            Jaro,
            ExactMatch,
            JaroWinkler,
            Jaccard(Tokenizer::QGram(3)),
        ],
        AttrType::ShortString => vec![
            LevenshteinDistance,
            LevenshteinSimilarity,
            NeedlemanWunsch,
            SmithWaterman,
            MongeElkan,
            Cosine(Tokenizer::Whitespace),
            Jaccard(Tokenizer::Whitespace),
            Jaccard(Tokenizer::QGram(3)),
        ],
        AttrType::MediumString => vec![
            LevenshteinDistance,
            LevenshteinSimilarity,
            MongeElkan,
            Cosine(Tokenizer::Whitespace),
            Jaccard(Tokenizer::QGram(3)),
        ],
        AttrType::LongString => vec![Cosine(Tokenizer::Whitespace), Jaccard(Tokenizer::QGram(3))],
        AttrType::Numeric | AttrType::Boolean => Vec::new(),
    }
}

/// The numeric similarity functions (identical in both tables).
pub fn numeric_similarities() -> Vec<NumericSimilarity> {
    vec![
        NumericSimilarity::LevenshteinDistance,
        NumericSimilarity::LevenshteinSimilarity,
        NumericSimilarity::ExactMatch,
        NumericSimilarity::AbsoluteNorm,
    ]
}

/// A planned feature generator for a specific schema + inferred types.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureGenerator {
    scheme: FeatureScheme,
    specs: Vec<FeatureSpec>,
}

impl FeatureGenerator {
    /// Plan the features for the given attribute types under `scheme`.
    pub fn plan(scheme: FeatureScheme, schema: &Schema, types: &[AttrType]) -> Self {
        assert_eq!(schema.len(), types.len(), "types must cover the schema");
        let mut specs = Vec::new();
        for (i, (attr, &t)) in schema.iter().zip(types).enumerate() {
            let push_strings = |specs: &mut Vec<FeatureSpec>, sims: Vec<StringSimilarity>| {
                for s in sims {
                    specs.push(FeatureSpec {
                        attr_index: i,
                        attr_name: attr.name.clone(),
                        kind: FeatureKind::String(s),
                    });
                }
            };
            match t {
                AttrType::Boolean => specs.push(FeatureSpec {
                    attr_index: i,
                    attr_name: attr.name.clone(),
                    kind: FeatureKind::Bool(BooleanSimilarity::ExactMatch),
                }),
                AttrType::Numeric => {
                    for n in numeric_similarities() {
                        specs.push(FeatureSpec {
                            attr_index: i,
                            attr_name: attr.name.clone(),
                            kind: FeatureKind::Numeric(n),
                        });
                    }
                }
                string_type => match scheme {
                    FeatureScheme::Magellan => {
                        push_strings(&mut specs, magellan_string_similarities(string_type));
                    }
                    FeatureScheme::AutoMlEm => {
                        push_strings(&mut specs, all_string_similarities());
                    }
                },
            }
        }
        FeatureGenerator { scheme, specs }
    }

    /// Infer types from the table pair and plan (the usual entry point).
    pub fn plan_for_tables(scheme: FeatureScheme, a: &Table, b: &Table) -> Self {
        let types = em_table::infer_pair_types(a, b);
        Self::plan(scheme, a.schema(), &types)
    }

    /// Build a generator over an explicit spec list instead of a planned
    /// scheme battery. Used by `em-weak` to evaluate exactly the similarity
    /// columns its labeling functions reference (deduplicated by the caller)
    /// through the same cached kernels as regular feature generation.
    pub fn from_specs(scheme: FeatureScheme, specs: Vec<FeatureSpec>) -> Self {
        FeatureGenerator { scheme, specs }
    }

    /// The scheme this generator was planned with.
    pub fn scheme(&self) -> FeatureScheme {
        self.scheme
    }

    /// Number of features per pair.
    pub fn n_features(&self) -> usize {
        self.specs.len()
    }

    /// The planned features.
    pub fn specs(&self) -> &[FeatureSpec] {
        &self.specs
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> Vec<String> {
        self.specs.iter().map(FeatureSpec::name).collect()
    }

    /// Compute the feature vector of a single record pair. Missing values
    /// on either side produce NaN (imputed later in the pipeline).
    pub fn generate_row(&self, a: &Table, b: &Table, pair: RecordPair) -> Vec<f64> {
        let ra = a.record(pair.left);
        let rb = b.record(pair.right);
        self.specs
            .iter()
            .map(|spec| {
                let va = ra.get(spec.attr_index);
                let vb = rb.get(spec.attr_index);
                compute_feature(&spec.kind, va, vb)
            })
            .collect()
    }

    /// Compute the feature matrix for a batch of pairs, in parallel on the
    /// shared `em-rt` worker pool. Workers claim 64 pairs at a time and
    /// write each row straight into its own row of the output matrix; a
    /// batch of at most 64 pairs runs inline. Row `r` depends only on
    /// `pairs[r]`, so the result is bit-identical at any pool width.
    pub fn generate(&self, a: &Table, b: &Table, pairs: &[RecordPair]) -> Matrix {
        let _span = em_obs::span!("featuregen.generate");
        let n = pairs.len();
        let d = self.specs.len();
        let mut out = Matrix::zeros(n, d);
        if n == 0 || d == 0 {
            return out;
        }
        em_rt::parallel_rows(out.as_mut_slice(), d, 64, |r, row| {
            let ra = a.record(pairs[r].left);
            let rb = b.record(pairs[r].right);
            for (value, spec) in row.iter_mut().zip(&self.specs) {
                *value =
                    compute_feature(&spec.kind, ra.get(spec.attr_index), rb.get(spec.attr_index));
            }
        });
        out
    }

    /// Bind this generator to a table pair as a [`crate::FeatureCache`]:
    /// value profiles are precomputed once and attribute-level similarity
    /// vectors are memoized across [`crate::FeatureCache::generate`] calls.
    /// Output is bit-identical to [`Self::generate`]; this `&str`-based
    /// generator remains the thin uncached path.
    pub fn cached(&self, a: &Table, b: &Table) -> crate::FeatureCache {
        crate::FeatureCache::new(self.clone(), a, b)
    }
}

/// Evaluate one feature, propagating missing values as NaN. Shared with
/// the cached path (`featcache`), which uses it for the non-string kinds.
pub(crate) fn compute_feature(kind: &FeatureKind, va: &Value, vb: &Value) -> f64 {
    match kind {
        FeatureKind::String(sim) => match (va.to_display_string(), vb.to_display_string()) {
            (Some(a), Some(b)) => sim.apply(&a, &b),
            _ => f64::NAN,
        },
        FeatureKind::Numeric(sim) => match (va.as_number(), vb.as_number()) {
            (Some(a), Some(b)) => sim.apply(a, b),
            _ => f64::NAN,
        },
        FeatureKind::Bool(sim) => match (va.as_bool(), vb.as_bool()) {
            (Some(a), Some(b)) => sim.apply(a, b),
            _ => f64::NAN,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_table::parse_csv;

    fn paper_example_types() -> Vec<AttrType> {
        vec![
            AttrType::SingleWordString,
            AttrType::SingleWordString,
            AttrType::LongString,
            AttrType::LongString,
        ]
    }

    #[test]
    fn paper_feature_counts_match_section_iii_b() {
        let schema = em_table::Schema::new(["a", "b", "c", "d"]);
        let magellan =
            FeatureGenerator::plan(FeatureScheme::Magellan, &schema, &paper_example_types());
        assert_eq!(magellan.n_features(), 6 + 6 + 2 + 2);
        let autoem =
            FeatureGenerator::plan(FeatureScheme::AutoMlEm, &schema, &paper_example_types());
        assert_eq!(autoem.n_features(), 16 * 4);
    }

    #[test]
    fn table_i_counts_per_type() {
        assert_eq!(
            magellan_string_similarities(AttrType::SingleWordString).len(),
            6
        );
        assert_eq!(magellan_string_similarities(AttrType::ShortString).len(), 8);
        assert_eq!(
            magellan_string_similarities(AttrType::MediumString).len(),
            5
        );
        assert_eq!(magellan_string_similarities(AttrType::LongString).len(), 2);
        assert_eq!(all_string_similarities().len(), 16);
        assert_eq!(numeric_similarities().len(), 4);
    }

    #[test]
    fn numeric_and_bool_features() {
        let schema = em_table::Schema::new(["price", "in_stock"]);
        let types = vec![AttrType::Numeric, AttrType::Boolean];
        for scheme in [FeatureScheme::Magellan, FeatureScheme::AutoMlEm] {
            let g = FeatureGenerator::plan(scheme, &schema, &types);
            assert_eq!(g.n_features(), 4 + 1);
        }
    }

    #[test]
    fn feature_names_are_descriptive_and_unique() {
        let schema = em_table::Schema::new(["name", "city"]);
        let types = vec![AttrType::ShortString, AttrType::SingleWordString];
        let g = FeatureGenerator::plan(FeatureScheme::AutoMlEm, &schema, &types);
        let names = g.feature_names();
        assert!(names.contains(&"name_jaccard_space".to_string()));
        assert!(names.contains(&"city_jaro_winkler".to_string()));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn generate_produces_expected_values() {
        let a = parse_csv("name\nnew york\n").unwrap();
        let b = parse_csv("name\nnew york city\n").unwrap();
        let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &a, &b);
        let x = g.generate(&a, &b, &[RecordPair::new(0, 0)]);
        let names = g.feature_names();
        let jix = names
            .iter()
            .position(|n| n == "name_jaccard_space")
            .unwrap();
        assert!((x.get(0, jix) - 2.0 / 3.0).abs() < 1e-12);
        let eix = names.iter().position(|n| n == "name_exact_match").unwrap();
        assert_eq!(x.get(0, eix), 0.0);
    }

    #[test]
    fn missing_values_become_nan() {
        let a = parse_csv("name,price\nwidget,10\n").unwrap();
        let b = parse_csv("name,price\n,12\n").unwrap();
        let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &a, &b);
        let x = g.generate(&a, &b, &[RecordPair::new(0, 0)]);
        // All name features NaN, price features present.
        for (j, name) in g.feature_names().iter().enumerate() {
            if name.starts_with("name_") {
                assert!(x.get(0, j).is_nan(), "{name}");
            } else {
                assert!(!x.get(0, j).is_nan(), "{name}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_generation_agree() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(0, 0.3);
        let g =
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
        let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
        let batch = g.generate(&ds.table_a, &ds.table_b, &pairs);
        for (r, &p) in pairs.iter().enumerate().step_by(17) {
            let row = g.generate_row(&ds.table_a, &ds.table_b, p);
            for (j, v) in row.iter().enumerate() {
                let got = batch.get(r, j);
                assert!((got == *v) || (got.is_nan() && v.is_nan()));
            }
        }
    }

    #[test]
    fn autoem_generates_strict_superset_of_magellan_for_strings() {
        let schema = em_table::Schema::new(["x"]);
        for t in [
            AttrType::SingleWordString,
            AttrType::ShortString,
            AttrType::MediumString,
            AttrType::LongString,
        ] {
            let m = FeatureGenerator::plan(FeatureScheme::Magellan, &schema, &[t]);
            let a = FeatureGenerator::plan(FeatureScheme::AutoMlEm, &schema, &[t]);
            assert!(a.n_features() >= m.n_features());
            for spec in m.specs() {
                assert!(
                    a.specs().contains(spec),
                    "AutoML-EM missing {spec:?} for {t:?}"
                );
            }
        }
    }
}
