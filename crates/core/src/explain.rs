//! Model explanation for EM pipelines — the paper's §VII future-work
//! direction ("leverage recent ML explanation tools to help data scientists
//! understand a complex EM model").
//!
//! Two complementary views are provided:
//!
//! * **Impurity importances** — the forest's native mean-decrease-in-impurity
//!   scores, mapped back through the pipeline's feature-selection stage to
//!   the named similarity features (`name_jaccard_space`, …). Fast, but only
//!   defined for tree models and index-preserving transforms.
//! * **Permutation importances** — model-agnostic (LIME/SHAP-spirit): the
//!   drop in F1 when one raw feature column is shuffled. Works for every
//!   classifier and every transform, at the cost of re-scoring.

use crate::pipeline::{FittedEmPipeline, FittedTransform};
use em_ml::{f1_score, Matrix};
use em_rt::SliceRandom;
use em_rt::StdRng;
use std::fmt;

/// Named, sorted feature-importance scores.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureImportanceReport {
    /// `(feature name, importance)`, sorted descending by importance.
    pub entries: Vec<(String, f64)>,
}

impl FeatureImportanceReport {
    fn from_scores(names: &[String], scores: Vec<f64>) -> Self {
        assert_eq!(names.len(), scores.len(), "name/score length mismatch");
        let mut entries: Vec<(String, f64)> = names.iter().cloned().zip(scores).collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        FeatureImportanceReport { entries }
    }

    /// The `k` most important features.
    pub fn top(&self, k: usize) -> &[(String, f64)] {
        &self.entries[..k.min(self.entries.len())]
    }
}

impl fmt::Display for FeatureImportanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, score) in &self.entries {
            writeln!(f, "{score:>8.4}  {name}")?;
        }
        Ok(())
    }
}

impl FittedEmPipeline {
    /// Native impurity importances mapped to the original feature names.
    ///
    /// Returns `None` when the classifier has no native importances (linear
    /// models, k-NN, NB) or when the feature-preprocessing stage does not
    /// preserve feature identity (PCA, feature agglomeration) — use
    /// [`FittedEmPipeline::permutation_importances`] there instead.
    pub fn impurity_importances(
        &self,
        feature_names: &[String],
    ) -> Option<FeatureImportanceReport> {
        let model_scores = self.model_feature_importances()?;
        match self.fitted_transform() {
            FittedTransform::None => Some(FeatureImportanceReport::from_scores(
                feature_names,
                model_scores,
            )),
            FittedTransform::Select(sel) => {
                let mut scores = vec![0.0; feature_names.len()];
                for (model_ix, &orig_ix) in sel.selected().iter().enumerate() {
                    scores[orig_ix] = model_scores[model_ix];
                }
                Some(FeatureImportanceReport::from_scores(feature_names, scores))
            }
            FittedTransform::Pca(_) | FittedTransform::Agglomeration(_) => None,
        }
    }

    /// Permutation importances on raw (pre-pipeline) features: for each
    /// column, shuffle it `repeats` times and average the F1 drop against
    /// the unshuffled baseline. Negative drops clamp to zero.
    ///
    /// Columns are independent pool tasks. Each column shuffles with its own
    /// `derive_seed(seed, col)` RNG stream, so the permutations — and the
    /// report — depend only on `(seed, col)`, never on pool width or
    /// scheduling order.
    pub fn permutation_importances(
        &self,
        x: &Matrix,
        y: &[usize],
        feature_names: &[String],
        repeats: usize,
        seed: u64,
    ) -> FeatureImportanceReport {
        assert_eq!(x.ncols(), feature_names.len(), "name/column mismatch");
        assert!(repeats > 0, "repeats must be positive");
        let baseline = f1_score(y, &self.predict(x));
        let n = x.nrows();
        let scores = em_rt::parallel_map(x.ncols(), 1, |col| {
            let mut rng = StdRng::seed_from_u64(em_rt::derive_seed(seed, col as u64));
            let mut drop_sum = 0.0;
            for _ in 0..repeats {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                let mut shuffled = x.clone();
                for (r, &src) in perm.iter().enumerate() {
                    shuffled.set(r, col, x.get(src, col));
                }
                let f1 = f1_score(y, &self.predict(&shuffled));
                drop_sum += baseline - f1;
            }
            (drop_sum / repeats as f64).max(0.0)
        });
        FeatureImportanceReport::from_scores(feature_names, scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featuregen::{FeatureGenerator, FeatureScheme};
    use crate::pipeline::EmPipelineConfig;
    use crate::PreparedDataset;
    use em_data::Benchmark;

    fn fitted_on_restaurants() -> (FittedEmPipeline, PreparedDataset) {
        let ds = Benchmark::FodorsZagats.generate_scaled(0, 0.4);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 0);
        let (xt, yt) = prep.train();
        let fitted = EmPipelineConfig::default_random_forest(0).fit(&xt, &yt);
        (fitted, prep)
    }

    #[test]
    fn impurity_report_covers_all_features_and_sums_to_one() {
        let (fitted, prep) = fitted_on_restaurants();
        let names = prep.generator.feature_names();
        let report = fitted
            .impurity_importances(&names)
            .expect("RF has importances");
        assert_eq!(report.entries.len(), names.len());
        let total: f64 = report.entries.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sorted descending.
        for w in report.entries.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn name_similarities_matter_for_restaurant_matching() {
        let (fitted, prep) = fitted_on_restaurants();
        let names = prep.generator.feature_names();
        let report = fitted.impurity_importances(&names).unwrap();
        // Some name- or address-based similarity should rank in the top 5.
        let top: Vec<&str> = report.top(5).iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            top.iter()
                .any(|n| n.starts_with("name_") || n.starts_with("address_")),
            "top-5 was {top:?}"
        );
    }

    #[test]
    fn selector_mapping_zeroes_dropped_features() {
        use crate::pipeline::PreprocessorChoice;
        use em_ml::featsel::ScoreFunc;
        let ds = Benchmark::FodorsZagats.generate_scaled(1, 0.4);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 1);
        let (xt, yt) = prep.train();
        let config = EmPipelineConfig {
            preprocessor: PreprocessorChoice::SelectPercentile {
                score: ScoreFunc::FClassif,
                percentile: 30.0,
            },
            ..EmPipelineConfig::default_random_forest(1)
        };
        let fitted = config.fit(&xt, &yt);
        let names = prep.generator.feature_names();
        let report = fitted.impurity_importances(&names).unwrap();
        let zeros = report.entries.iter().filter(|(_, s)| *s == 0.0).count();
        // ~70% of features were dropped, so most entries are exactly zero.
        assert!(zeros >= names.len() / 2, "{zeros} zero entries");
    }

    #[test]
    fn pca_pipeline_returns_none_for_impurity_importances() {
        use crate::pipeline::PreprocessorChoice;
        let ds = Benchmark::FodorsZagats.generate_scaled(2, 0.3);
        let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 2);
        let (xt, yt) = prep.train();
        let config = EmPipelineConfig {
            preprocessor: PreprocessorChoice::Pca {
                components_fraction: 0.8,
            },
            ..EmPipelineConfig::default_random_forest(2)
        };
        let fitted = config.fit(&xt, &yt);
        assert!(fitted
            .impurity_importances(&prep.generator.feature_names())
            .is_none());
    }

    #[test]
    fn permutation_importance_flags_the_only_signal_feature() {
        // Column 0 carries the class; column 1 is noise. With a single
        // informative feature, shuffling it must crater F1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let c = i % 2;
            let noise = ((i * 7) % 13) as f64 / 13.0;
            rows.push(vec![c as f64 + 0.1 * noise, noise]);
            y.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let fitted = EmPipelineConfig::default_random_forest(0).fit(&x, &y);
        let names = vec!["signal".to_string(), "noise".to_string()];
        let report = fitted.permutation_importances(&x, &y, &names, 3, 0);
        assert_eq!(report.entries[0].0, "signal");
        assert!(report.entries[0].1 > 0.2, "{:?}", report.entries);
        assert!(report.entries.iter().all(|(_, s)| *s >= 0.0));
    }

    #[test]
    fn permutation_importance_runs_on_real_pipelines() {
        // On a redundant 84-feature space the drops may all be ~0 (the
        // forest routes around any single shuffled column); the report must
        // still be complete and non-negative.
        let (fitted, prep) = fitted_on_restaurants();
        let names = prep.generator.feature_names();
        let (xv, yv) = prep.valid();
        let report = fitted.permutation_importances(&xv, &yv, &names, 1, 0);
        assert_eq!(report.entries.len(), names.len());
        assert!(report.entries.iter().all(|(_, s)| *s >= 0.0));
    }

    #[test]
    fn report_display_is_readable() {
        let report = FeatureImportanceReport::from_scores(
            &["b".to_string(), "a".to_string()],
            vec![0.25, 0.75],
        );
        let text = report.to_string();
        let first_line = text.lines().next().unwrap();
        assert!(first_line.contains('a') && first_line.contains("0.75"));
    }

    #[test]
    fn works_for_magellan_scheme_names_too() {
        let ds = Benchmark::AbtBuy.generate_scaled(3, 0.05);
        let gen =
            FeatureGenerator::plan_for_tables(FeatureScheme::Magellan, &ds.table_a, &ds.table_b);
        assert!(gen.feature_names().iter().all(|n| n.contains('_')));
    }
}
