//! The EM model pipeline (paper Figures 5 and 11): balancing → imputation →
//! rescaling → feature preprocessing → classifier, represented as plain data
//! so incumbents can be printed, ablated (Figure 12), and replayed.

use em_automl::Configuration;
use em_ml::decomp::{FeatureAgglomeration, Pca};
use em_ml::featsel::{
    select_percentile, select_rates, variance_threshold, FittedSelector, RateMode, ScoreFunc,
};
use em_ml::jsonio;
use em_ml::preprocess::{
    sample_weights, BalancingStrategy, FittedScaler, ImputeStrategy, ScalerKind, SimpleImputer,
};
use em_ml::{
    AdaBoostClassifier, AdaBoostParams, Classifier, Criterion, DecisionTree, ExtraTreesClassifier,
    ForestParams, GaussianNb, GaussianNbParams, GradientBoostingClassifier, GradientBoostingParams,
    KNeighborsClassifier, KnnParams, KnnWeights, LinearSvm, LinearSvmParams, LogisticRegression,
    LogisticRegressionParams, Matrix, MaxFeatures, RandomForestClassifier, TreeParams,
};
use em_rt::Json;

/// Feature-preprocessing component choice (paper Fig. 4 middle column).
#[derive(Debug, Clone, PartialEq)]
pub enum PreprocessorChoice {
    /// `no_preprocessing`.
    None,
    /// `SelectPercentile(score_func, percentile)` — Figure 3b's knob.
    SelectPercentile {
        /// Scoring function.
        score: ScoreFunc,
        /// Percentage of features kept (0-100).
        percentile: f64,
    },
    /// `SelectRates(score_func, mode, alpha)` — the Figure 5 pipeline.
    SelectRates {
        /// Scoring function.
        score: ScoreFunc,
        /// Error-rate control mode.
        mode: RateMode,
        /// Significance level.
        alpha: f64,
    },
    /// Drop near-constant features.
    VarianceThreshold {
        /// Variance cutoff.
        threshold: f64,
    },
    /// Project onto principal components.
    Pca {
        /// Fraction of input dimensions kept (0-1].
        components_fraction: f64,
    },
    /// Pool correlated features.
    FeatureAgglomeration {
        /// Fraction of input dimensions kept as clusters (0-1].
        clusters_fraction: f64,
    },
}

/// Classifier choice plus hyperparameters (paper Fig. 4 right column).
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierChoice {
    /// Random forest (the AutoML-EM default model space, §III-C).
    RandomForest {
        /// Trees in the forest.
        n_estimators: usize,
        /// Split criterion.
        criterion: Criterion,
        /// Fraction of features per split (Figure 3a's knob).
        max_features: f64,
        /// Minimum samples to split.
        min_samples_split: usize,
        /// Minimum samples per leaf.
        min_samples_leaf: usize,
        /// Bootstrap resampling.
        bootstrap: bool,
    },
    /// Extra-trees.
    ExtraTrees {
        /// Trees in the ensemble.
        n_estimators: usize,
        /// Split criterion.
        criterion: Criterion,
        /// Fraction of features per split.
        max_features: f64,
        /// Minimum samples per leaf.
        min_samples_leaf: usize,
    },
    /// Single CART decision tree.
    DecisionTree {
        /// Split criterion.
        criterion: Criterion,
        /// Depth cap.
        max_depth: usize,
        /// Minimum samples to split.
        min_samples_split: usize,
        /// Minimum samples per leaf.
        min_samples_leaf: usize,
    },
    /// AdaBoost-SAMME.
    AdaBoost {
        /// Boosting rounds.
        n_estimators: usize,
        /// Stage shrinkage.
        learning_rate: f64,
        /// Weak-learner depth.
        max_depth: usize,
    },
    /// Gradient-boosted trees.
    GradientBoosting {
        /// Boosting rounds.
        n_estimators: usize,
        /// Shrinkage.
        learning_rate: f64,
        /// Tree depth.
        max_depth: usize,
        /// Minimum samples per leaf.
        min_samples_leaf: usize,
        /// Row subsampling per round.
        subsample: f64,
    },
    /// Logistic regression.
    LogisticRegression {
        /// L2 strength.
        alpha: f64,
    },
    /// Linear SVM (Pegasos).
    LinearSvm {
        /// Regularization λ.
        lambda: f64,
    },
    /// k-nearest neighbors.
    Knn {
        /// Neighbor count.
        k: usize,
        /// Vote weighting.
        weights: KnnWeights,
    },
    /// Gaussian naive Bayes.
    GaussianNb {
        /// Variance smoothing.
        var_smoothing: f64,
    },
}

/// A complete, declarative pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EmPipelineConfig {
    /// Class balancing (data preprocessing).
    pub balancing: BalancingStrategy,
    /// Missing-value imputation (data preprocessing; always on because EM
    /// feature vectors contain NaN by construction).
    pub imputation: ImputeStrategy,
    /// Rescaling (data preprocessing).
    pub rescaling: ScalerKind,
    /// Feature preprocessing.
    pub preprocessor: PreprocessorChoice,
    /// The model.
    pub classifier: ClassifierChoice,
    /// Seed forwarded to stochastic components.
    pub seed: u64,
}

impl EmPipelineConfig {
    /// The paper's "Magellan default" baseline: no balancing, mean
    /// imputation, no rescaling, no feature preprocessing, default random
    /// forest — what a user gets from Magellan without manual tuning.
    pub fn default_random_forest(seed: u64) -> Self {
        EmPipelineConfig {
            balancing: BalancingStrategy::None,
            imputation: ImputeStrategy::Mean,
            rescaling: ScalerKind::None,
            preprocessor: PreprocessorChoice::None,
            classifier: ClassifierChoice::RandomForest {
                n_estimators: 100,
                criterion: Criterion::Gini,
                max_features: 0.0, // 0 encodes sklearn's "sqrt" default
                min_samples_split: 2,
                min_samples_leaf: 1,
                bootstrap: true,
            },
            seed,
        }
    }

    /// Figure 12 ablation: disable the data-preprocessing module
    /// (balancing and rescaling off; imputation must stay or NaN would
    /// crash every model, mirroring auto-sklearn which always imputes).
    pub fn without_data_preprocessing(&self) -> Self {
        EmPipelineConfig {
            balancing: BalancingStrategy::None,
            rescaling: ScalerKind::None,
            ..self.clone()
        }
    }

    /// Figure 12 ablation: disable the feature-preprocessing module.
    pub fn without_feature_preprocessing(&self) -> Self {
        EmPipelineConfig {
            preprocessor: PreprocessorChoice::None,
            ..self.clone()
        }
    }

    /// Mean F1 over a stratified k-fold cross-validation — a more stable
    /// alternative to the paper's single hold-out for comparing pipelines on
    /// small datasets.
    ///
    /// Folds are independent pool tasks, claimed one at a time; their
    /// scores come back in fold order and are summed in it, so the result
    /// is bit-identical to the serial loop at any pool width.
    pub fn cross_val_f1(&self, x: &Matrix, y: &[usize], k: usize, seed: u64) -> f64 {
        let _span = em_obs::span!("pipeline.cross_val");
        let folds = em_ml::stratified_k_fold(y, k, seed);
        let scores = em_rt::parallel_map(folds.len(), 1, |f| {
            let (train_idx, test_idx) = &folds[f];
            let xt = x.select_rows(train_idx);
            let yt: Vec<usize> = train_idx.iter().map(|&i| y[i]).collect();
            let xs = x.select_rows(test_idx);
            let ys: Vec<usize> = test_idx.iter().map(|&i| y[i]).collect();
            let f1 = self.fit(&xt, &yt).f1(&xs, &ys);
            em_obs::event("cv.fold", || {
                vec![
                    ("fold", em_rt::Json::from(f)),
                    ("f1", em_rt::Json::from(f1)),
                ]
            });
            f1
        });
        scores.iter().sum::<f64>() / folds.len() as f64
    }

    /// Fit the pipeline on training data: impute → scale → select/project →
    /// balance → train. Returns the fitted pipeline.
    pub fn fit(&self, x: &Matrix, y: &[usize]) -> FittedEmPipeline {
        self.fit_weighted(x, y, None)
    }

    /// Fit with optional external per-sample weights (e.g. probabilistic
    /// label confidences from `em-weak`'s label model). External weights are
    /// multiplied into the balancing-derived weights, so class balancing and
    /// label confidence compose; `None` is exactly [`Self::fit`].
    pub fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[usize],
        sample_weight: Option<&[f64]>,
    ) -> FittedEmPipeline {
        let _span = em_obs::span!("pipeline.fit");
        let n_classes = 2;
        let (imputer, x1) = {
            let _s = em_obs::span!("pipeline.impute");
            SimpleImputer::fit_transform(self.imputation, x)
        };
        let (scaler, x2) = {
            let _s = em_obs::span!("pipeline.scale");
            FittedScaler::fit_transform(self.rescaling, &x1)
        };
        let (transform, x3) = {
            let _s = em_obs::span!("pipeline.preprocess");
            fit_preprocessor(&self.preprocessor, &x2, y, n_classes)
        };
        let mut weights = sample_weights(self.balancing, y, n_classes);
        if let Some(w) = sample_weight {
            assert_eq!(w.len(), y.len(), "sample_weight must cover every row");
            for (wi, &ext) in weights.iter_mut().zip(w) {
                *wi *= ext;
            }
        }
        let mut model = build_classifier(&self.classifier, self.seed);
        {
            let _s = em_obs::span!("pipeline.classifier_fit");
            model.fit(&x3, y, n_classes, Some(&weights));
        }
        FittedEmPipeline {
            config: self.clone(),
            imputer,
            scaler,
            transform,
            model,
        }
    }
}

/// A fitted feature-preprocessing stage.
#[derive(Debug, Clone)]
pub enum FittedTransform {
    /// Identity.
    None,
    /// Column-subset selector.
    Select(FittedSelector),
    /// PCA projection.
    Pca(Pca),
    /// Feature pooling.
    Agglomeration(FeatureAgglomeration),
}

impl FittedTransform {
    fn apply(&self, x: &Matrix) -> Matrix {
        match self {
            FittedTransform::None => x.clone(),
            FittedTransform::Select(s) => s.transform(x),
            FittedTransform::Pca(p) => p.transform(x),
            FittedTransform::Agglomeration(a) => a.transform(x),
        }
    }

    /// Output dimensionality given `d` input features (diagnostics).
    pub fn output_width(&self, d: usize) -> usize {
        match self {
            FittedTransform::None => d,
            FittedTransform::Select(s) => s.selected().len(),
            FittedTransform::Pca(p) => p.n_components(),
            FittedTransform::Agglomeration(a) => a.n_clusters(),
        }
    }
}

fn fit_preprocessor(
    choice: &PreprocessorChoice,
    x: &Matrix,
    y: &[usize],
    n_classes: usize,
) -> (FittedTransform, Matrix) {
    match choice {
        PreprocessorChoice::None => (FittedTransform::None, x.clone()),
        PreprocessorChoice::SelectPercentile { score, percentile } => {
            let sel = select_percentile(x, y, n_classes, *score, *percentile);
            let out = sel.transform(x);
            (FittedTransform::Select(sel), out)
        }
        PreprocessorChoice::SelectRates { score, mode, alpha } => {
            let sel = select_rates(x, y, n_classes, *score, *mode, *alpha);
            let out = sel.transform(x);
            (FittedTransform::Select(sel), out)
        }
        PreprocessorChoice::VarianceThreshold { threshold } => {
            let sel = variance_threshold(x, *threshold);
            let out = sel.transform(x);
            (FittedTransform::Select(sel), out)
        }
        PreprocessorChoice::Pca {
            components_fraction,
        } => {
            let k = ((x.ncols() as f64 * components_fraction).round() as usize).clamp(1, x.ncols());
            let pca = Pca::fit(x, k);
            let out = pca.transform(x);
            (FittedTransform::Pca(pca), out)
        }
        PreprocessorChoice::FeatureAgglomeration { clusters_fraction } => {
            let k = ((x.ncols() as f64 * clusters_fraction).round() as usize).clamp(1, x.ncols());
            let fa = FeatureAgglomeration::fit(x, k);
            let out = fa.transform(x);
            (FittedTransform::Agglomeration(fa), out)
        }
    }
}

fn build_classifier(choice: &ClassifierChoice, seed: u64) -> Box<dyn Classifier> {
    match choice {
        ClassifierChoice::RandomForest {
            n_estimators,
            criterion,
            max_features,
            min_samples_split,
            min_samples_leaf,
            bootstrap,
        } => Box::new(RandomForestClassifier::new(ForestParams {
            n_estimators: *n_estimators,
            criterion: *criterion,
            max_features: fraction_or_sqrt(*max_features),
            min_samples_split: *min_samples_split,
            min_samples_leaf: *min_samples_leaf,
            bootstrap: *bootstrap,
            seed,
            ..ForestParams::default()
        })),
        ClassifierChoice::ExtraTrees {
            n_estimators,
            criterion,
            max_features,
            min_samples_leaf,
        } => Box::new(ExtraTreesClassifier::new(ForestParams {
            n_estimators: *n_estimators,
            criterion: *criterion,
            max_features: fraction_or_sqrt(*max_features),
            min_samples_leaf: *min_samples_leaf,
            seed,
            ..ForestParams::default()
        })),
        ClassifierChoice::DecisionTree {
            criterion,
            max_depth,
            min_samples_split,
            min_samples_leaf,
        } => Box::new(SingleTreeClassifier::new(TreeParams {
            criterion: *criterion,
            max_depth: Some(*max_depth),
            min_samples_split: *min_samples_split,
            min_samples_leaf: *min_samples_leaf,
            seed,
            ..TreeParams::default()
        })),
        ClassifierChoice::AdaBoost {
            n_estimators,
            learning_rate,
            max_depth,
        } => Box::new(AdaBoostClassifier::new(AdaBoostParams {
            n_estimators: *n_estimators,
            learning_rate: *learning_rate,
            max_depth: *max_depth,
            seed,
        })),
        ClassifierChoice::GradientBoosting {
            n_estimators,
            learning_rate,
            max_depth,
            min_samples_leaf,
            subsample,
        } => Box::new(GradientBoostingClassifier::new(GradientBoostingParams {
            n_estimators: *n_estimators,
            learning_rate: *learning_rate,
            max_depth: *max_depth,
            min_samples_leaf: *min_samples_leaf,
            subsample: *subsample,
            seed,
        })),
        ClassifierChoice::LogisticRegression { alpha } => {
            Box::new(LogisticRegression::new(LogisticRegressionParams {
                alpha: *alpha,
                ..LogisticRegressionParams::default()
            }))
        }
        ClassifierChoice::LinearSvm { lambda } => Box::new(LinearSvm::new(LinearSvmParams {
            lambda: *lambda,
            seed,
            ..LinearSvmParams::default()
        })),
        ClassifierChoice::Knn { k, weights } => Box::new(KNeighborsClassifier::new(KnnParams {
            k: *k,
            weights: *weights,
        })),
        ClassifierChoice::GaussianNb { var_smoothing } => {
            Box::new(GaussianNb::new(GaussianNbParams {
                var_smoothing: *var_smoothing,
            }))
        }
    }
}

/// A `max_features` of 0 encodes the sklearn "sqrt" default.
fn fraction_or_sqrt(f: f64) -> MaxFeatures {
    if f <= 0.0 {
        MaxFeatures::Sqrt
    } else {
        MaxFeatures::Fraction(f)
    }
}

/// Adapter making a single [`DecisionTree`] implement [`Classifier`].
#[derive(Debug, Clone)]
pub struct SingleTreeClassifier {
    params: TreeParams,
    tree: Option<DecisionTree>,
    n_classes: usize,
}

impl SingleTreeClassifier {
    /// Create an unfitted tree classifier.
    pub fn new(params: TreeParams) -> Self {
        SingleTreeClassifier {
            params,
            tree: None,
            n_classes: 0,
        }
    }
}

impl Classifier for SingleTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        self.n_classes = n_classes;
        self.tree = Some(DecisionTree::fit_classifier(
            x,
            y,
            n_classes,
            sample_weight,
            self.params.clone(),
        ));
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        self.tree
            .as_ref()
            .expect("fit before predicting")
            .predict_proba(x)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        self.tree.as_ref().map(DecisionTree::feature_importances)
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl SingleTreeClassifier {
    /// Serialize the fitted tree classifier for the model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("params", self.params.to_json()),
            (
                "tree",
                match &self.tree {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
            ("n_classes", Json::from(self.n_classes)),
        ])
    }

    /// Inverse of [`SingleTreeClassifier::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let tree = match jsonio::field(j, "tree")? {
            Json::Null => None,
            t => Some(DecisionTree::from_json(t)?),
        };
        Ok(SingleTreeClassifier {
            params: TreeParams::from_json(jsonio::field(j, "params")?)?,
            tree,
            n_classes: jsonio::as_usize(jsonio::field(j, "n_classes")?)?,
        })
    }
}

/// A fully fitted pipeline: transforms plus trained model.
pub struct FittedEmPipeline {
    /// The configuration that produced this pipeline.
    pub config: EmPipelineConfig,
    imputer: SimpleImputer,
    scaler: FittedScaler,
    transform: FittedTransform,
    model: Box<dyn Classifier>,
}

impl FittedEmPipeline {
    /// Transform raw features through the fitted preprocessing stages.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let x1 = self.imputer.transform(x);
        let x2 = self.scaler.transform(&x1);
        self.transform.apply(&x2)
    }

    /// Hard 0/1 predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.model.predict(&self.transform(x))
    }

    /// Matching-probability per pair (class-1 probability).
    pub fn predict_match_proba(&self, x: &Matrix) -> Vec<f64> {
        let p = self.model.predict_proba(&self.transform(x));
        (0..p.nrows()).map(|r| p.get(r, 1)).collect()
    }

    /// Matching probability plus hard decision per pair, transforming `x`
    /// once. Decisions come from the model's own `predict` (not from
    /// thresholding the probability), so they are exactly
    /// [`Self::predict`]'s output — the serving path relies on that
    /// equality.
    pub fn predict_with_scores(&self, x: &Matrix) -> Vec<(f64, bool)> {
        let xt = self.transform(x);
        let proba = self.model.predict_proba(&xt);
        self.model
            .predict(&xt)
            .into_iter()
            .enumerate()
            .map(|(r, c)| (proba.get(r, 1), c == 1))
            .collect()
    }

    /// F1 on the positive class against gold labels.
    pub fn f1(&self, x: &Matrix, y: &[usize]) -> f64 {
        em_ml::f1_score(y, &self.predict(x))
    }

    /// Hard predictions at a custom decision threshold on the matching
    /// probability (the default `predict` uses 0.5 via argmax).
    pub fn predict_with_threshold(&self, x: &Matrix, threshold: f64) -> Vec<usize> {
        self.predict_match_proba(x)
            .into_iter()
            .map(|p| usize::from(p >= threshold))
            .collect()
    }

    /// Sweep candidate decision thresholds on a validation set and return
    /// `(best_threshold, best_f1)`. On EM's imbalanced data the F1-optimal
    /// threshold often sits below 0.5; this is a standard post-hoc
    /// calibration (opt-in — the paper's protocol, and this crate's
    /// defaults, use plain argmax).
    pub fn tune_threshold(&self, x_valid: &Matrix, y_valid: &[usize]) -> (f64, f64) {
        let probs = self.predict_match_proba(x_valid);
        // Candidate thresholds: midpoints between distinct sorted scores.
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        let mut best = (0.5, f64::NEG_INFINITY);
        let mut candidates = vec![0.5];
        candidates.extend(sorted.windows(2).map(|w| (w[0] + w[1]) / 2.0));
        for t in candidates {
            let pred: Vec<usize> = probs.iter().map(|&p| usize::from(p >= t)).collect();
            let f1 = em_ml::f1_score(y_valid, &pred);
            if f1 > best.1 {
                best = (t, f1);
            }
        }
        best
    }

    /// The fitted feature-preprocessing stage (diagnostics).
    pub fn fitted_transform(&self) -> &FittedTransform {
        &self.transform
    }

    /// The fitted model's native feature importances over its *input*
    /// features (post-transform), if it has any.
    pub fn model_feature_importances(&self) -> Option<Vec<f64>> {
        self.model.feature_importances()
    }
}

fn score_to_json(score: ScoreFunc) -> Json {
    Json::from(match score {
        ScoreFunc::FClassif => "f_classif",
        ScoreFunc::Chi2 => "chi2",
    })
}

fn score_from_json(j: &Json) -> Result<ScoreFunc, String> {
    match jsonio::as_str(j)? {
        "f_classif" => Ok(ScoreFunc::FClassif),
        "chi2" => Ok(ScoreFunc::Chi2),
        other => Err(format!("unknown score func {other:?}")),
    }
}

impl PreprocessorChoice {
    /// Serialize to the artifact encoding (a tagged object).
    pub fn to_json(&self) -> Json {
        match self {
            PreprocessorChoice::None => Json::obj([("choice", Json::from("none"))]),
            PreprocessorChoice::SelectPercentile { score, percentile } => Json::obj([
                ("choice", Json::from("select_percentile")),
                ("score", score_to_json(*score)),
                ("percentile", jsonio::num(*percentile)),
            ]),
            PreprocessorChoice::SelectRates { score, mode, alpha } => Json::obj([
                ("choice", Json::from("select_rates")),
                ("score", score_to_json(*score)),
                (
                    "mode",
                    Json::from(match mode {
                        RateMode::Fpr => "fpr",
                        RateMode::Fdr => "fdr",
                        RateMode::Fwe => "fwe",
                    }),
                ),
                ("alpha", jsonio::num(*alpha)),
            ]),
            PreprocessorChoice::VarianceThreshold { threshold } => Json::obj([
                ("choice", Json::from("variance_threshold")),
                ("threshold", jsonio::num(*threshold)),
            ]),
            PreprocessorChoice::Pca {
                components_fraction,
            } => Json::obj([
                ("choice", Json::from("pca")),
                ("components_fraction", jsonio::num(*components_fraction)),
            ]),
            PreprocessorChoice::FeatureAgglomeration { clusters_fraction } => Json::obj([
                ("choice", Json::from("feature_agglomeration")),
                ("clusters_fraction", jsonio::num(*clusters_fraction)),
            ]),
        }
    }

    /// Inverse of [`PreprocessorChoice::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        match jsonio::as_str(jsonio::field(j, "choice")?)? {
            "none" => Ok(PreprocessorChoice::None),
            "select_percentile" => Ok(PreprocessorChoice::SelectPercentile {
                score: score_from_json(jsonio::field(j, "score")?)?,
                percentile: jsonio::as_f64(jsonio::field(j, "percentile")?)?,
            }),
            "select_rates" => Ok(PreprocessorChoice::SelectRates {
                score: score_from_json(jsonio::field(j, "score")?)?,
                mode: match jsonio::as_str(jsonio::field(j, "mode")?)? {
                    "fpr" => RateMode::Fpr,
                    "fdr" => RateMode::Fdr,
                    "fwe" => RateMode::Fwe,
                    other => return Err(format!("unknown rate mode {other:?}")),
                },
                alpha: jsonio::as_f64(jsonio::field(j, "alpha")?)?,
            }),
            "variance_threshold" => Ok(PreprocessorChoice::VarianceThreshold {
                threshold: jsonio::as_f64(jsonio::field(j, "threshold")?)?,
            }),
            "pca" => Ok(PreprocessorChoice::Pca {
                components_fraction: jsonio::as_f64(jsonio::field(j, "components_fraction")?)?,
            }),
            "feature_agglomeration" => Ok(PreprocessorChoice::FeatureAgglomeration {
                clusters_fraction: jsonio::as_f64(jsonio::field(j, "clusters_fraction")?)?,
            }),
            other => Err(format!("unknown preprocessor choice {other:?}")),
        }
    }
}

impl ClassifierChoice {
    /// Serialize to the artifact encoding (a tagged object). The tag also
    /// selects which concrete model type `FittedEmPipeline::from_json`
    /// deserializes the stored weights into.
    pub fn to_json(&self) -> Json {
        match self {
            ClassifierChoice::RandomForest {
                n_estimators,
                criterion,
                max_features,
                min_samples_split,
                min_samples_leaf,
                bootstrap,
            } => Json::obj([
                ("choice", Json::from("random_forest")),
                ("n_estimators", Json::from(*n_estimators)),
                ("criterion", Json::from(criterion.as_str())),
                ("max_features", jsonio::num(*max_features)),
                ("min_samples_split", Json::from(*min_samples_split)),
                ("min_samples_leaf", Json::from(*min_samples_leaf)),
                ("bootstrap", Json::from(*bootstrap)),
            ]),
            ClassifierChoice::ExtraTrees {
                n_estimators,
                criterion,
                max_features,
                min_samples_leaf,
            } => Json::obj([
                ("choice", Json::from("extra_trees")),
                ("n_estimators", Json::from(*n_estimators)),
                ("criterion", Json::from(criterion.as_str())),
                ("max_features", jsonio::num(*max_features)),
                ("min_samples_leaf", Json::from(*min_samples_leaf)),
            ]),
            ClassifierChoice::DecisionTree {
                criterion,
                max_depth,
                min_samples_split,
                min_samples_leaf,
            } => Json::obj([
                ("choice", Json::from("decision_tree")),
                ("criterion", Json::from(criterion.as_str())),
                ("max_depth", Json::from(*max_depth)),
                ("min_samples_split", Json::from(*min_samples_split)),
                ("min_samples_leaf", Json::from(*min_samples_leaf)),
            ]),
            ClassifierChoice::AdaBoost {
                n_estimators,
                learning_rate,
                max_depth,
            } => Json::obj([
                ("choice", Json::from("adaboost")),
                ("n_estimators", Json::from(*n_estimators)),
                ("learning_rate", jsonio::num(*learning_rate)),
                ("max_depth", Json::from(*max_depth)),
            ]),
            ClassifierChoice::GradientBoosting {
                n_estimators,
                learning_rate,
                max_depth,
                min_samples_leaf,
                subsample,
            } => Json::obj([
                ("choice", Json::from("gradient_boosting")),
                ("n_estimators", Json::from(*n_estimators)),
                ("learning_rate", jsonio::num(*learning_rate)),
                ("max_depth", Json::from(*max_depth)),
                ("min_samples_leaf", Json::from(*min_samples_leaf)),
                ("subsample", jsonio::num(*subsample)),
            ]),
            ClassifierChoice::LogisticRegression { alpha } => Json::obj([
                ("choice", Json::from("logistic_regression")),
                ("alpha", jsonio::num(*alpha)),
            ]),
            ClassifierChoice::LinearSvm { lambda } => Json::obj([
                ("choice", Json::from("linear_svm")),
                ("lambda", jsonio::num(*lambda)),
            ]),
            ClassifierChoice::Knn { k, weights } => Json::obj([
                ("choice", Json::from("knn")),
                ("k", Json::from(*k)),
                (
                    "weights",
                    Json::from(match weights {
                        KnnWeights::Uniform => "uniform",
                        KnnWeights::Distance => "distance",
                    }),
                ),
            ]),
            ClassifierChoice::GaussianNb { var_smoothing } => Json::obj([
                ("choice", Json::from("gaussian_nb")),
                ("var_smoothing", jsonio::num(*var_smoothing)),
            ]),
        }
    }

    /// Inverse of [`ClassifierChoice::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let crit = |key: &str| -> Result<Criterion, String> {
            Criterion::parse(jsonio::as_str(jsonio::field(j, key)?)?)
        };
        match jsonio::as_str(jsonio::field(j, "choice")?)? {
            "random_forest" => Ok(ClassifierChoice::RandomForest {
                n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
                criterion: crit("criterion")?,
                max_features: jsonio::as_f64(jsonio::field(j, "max_features")?)?,
                min_samples_split: jsonio::as_usize(jsonio::field(j, "min_samples_split")?)?,
                min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
                bootstrap: jsonio::as_bool(jsonio::field(j, "bootstrap")?)?,
            }),
            "extra_trees" => Ok(ClassifierChoice::ExtraTrees {
                n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
                criterion: crit("criterion")?,
                max_features: jsonio::as_f64(jsonio::field(j, "max_features")?)?,
                min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            }),
            "decision_tree" => Ok(ClassifierChoice::DecisionTree {
                criterion: crit("criterion")?,
                max_depth: jsonio::as_usize(jsonio::field(j, "max_depth")?)?,
                min_samples_split: jsonio::as_usize(jsonio::field(j, "min_samples_split")?)?,
                min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            }),
            "adaboost" => Ok(ClassifierChoice::AdaBoost {
                n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
                learning_rate: jsonio::as_f64(jsonio::field(j, "learning_rate")?)?,
                max_depth: jsonio::as_usize(jsonio::field(j, "max_depth")?)?,
            }),
            "gradient_boosting" => Ok(ClassifierChoice::GradientBoosting {
                n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
                learning_rate: jsonio::as_f64(jsonio::field(j, "learning_rate")?)?,
                max_depth: jsonio::as_usize(jsonio::field(j, "max_depth")?)?,
                min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
                subsample: jsonio::as_f64(jsonio::field(j, "subsample")?)?,
            }),
            "logistic_regression" => Ok(ClassifierChoice::LogisticRegression {
                alpha: jsonio::as_f64(jsonio::field(j, "alpha")?)?,
            }),
            "linear_svm" => Ok(ClassifierChoice::LinearSvm {
                lambda: jsonio::as_f64(jsonio::field(j, "lambda")?)?,
            }),
            "knn" => Ok(ClassifierChoice::Knn {
                k: jsonio::as_usize(jsonio::field(j, "k")?)?,
                weights: match jsonio::as_str(jsonio::field(j, "weights")?)? {
                    "uniform" => KnnWeights::Uniform,
                    "distance" => KnnWeights::Distance,
                    other => return Err(format!("unknown knn weights {other:?}")),
                },
            }),
            "gaussian_nb" => Ok(ClassifierChoice::GaussianNb {
                var_smoothing: jsonio::as_f64(jsonio::field(j, "var_smoothing")?)?,
            }),
            other => Err(format!("unknown classifier choice {other:?}")),
        }
    }
}

impl EmPipelineConfig {
    /// Serialize the declarative configuration to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "balancing",
                Json::from(match self.balancing {
                    BalancingStrategy::None => "none",
                    BalancingStrategy::Weighting => "weighting",
                }),
            ),
            ("imputation", self.imputation.to_json()),
            ("rescaling", self.rescaling.to_json()),
            ("preprocessor", self.preprocessor.to_json()),
            ("classifier", self.classifier.to_json()),
            ("seed", jsonio::u64_str(self.seed)),
        ])
    }

    /// Inverse of [`EmPipelineConfig::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(EmPipelineConfig {
            balancing: match jsonio::as_str(jsonio::field(j, "balancing")?)? {
                "none" => BalancingStrategy::None,
                "weighting" => BalancingStrategy::Weighting,
                other => return Err(format!("unknown balancing {other:?}")),
            },
            imputation: ImputeStrategy::from_json(jsonio::field(j, "imputation")?)?,
            rescaling: ScalerKind::from_json(jsonio::field(j, "rescaling")?)?,
            preprocessor: PreprocessorChoice::from_json(jsonio::field(j, "preprocessor")?)?,
            classifier: ClassifierChoice::from_json(jsonio::field(j, "classifier")?)?,
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
        })
    }
}

impl FittedTransform {
    /// Serialize the fitted stage to the artifact encoding.
    pub fn to_json(&self) -> Json {
        match self {
            FittedTransform::None => Json::obj([("kind", Json::from("none"))]),
            FittedTransform::Select(s) => {
                Json::obj([("kind", Json::from("select")), ("selector", s.to_json())])
            }
            FittedTransform::Pca(p) => {
                Json::obj([("kind", Json::from("pca")), ("pca", p.to_json())])
            }
            FittedTransform::Agglomeration(a) => Json::obj([
                ("kind", Json::from("agglomeration")),
                ("agglom", a.to_json()),
            ]),
        }
    }

    /// Inverse of [`FittedTransform::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        match jsonio::as_str(jsonio::field(j, "kind")?)? {
            "none" => Ok(FittedTransform::None),
            "select" => Ok(FittedTransform::Select(FittedSelector::from_json(
                jsonio::field(j, "selector")?,
            )?)),
            "pca" => Ok(FittedTransform::Pca(Pca::from_json(jsonio::field(
                j, "pca",
            )?)?)),
            "agglomeration" => Ok(FittedTransform::Agglomeration(
                FeatureAgglomeration::from_json(jsonio::field(j, "agglom")?)?,
            )),
            other => Err(format!("unknown transform kind {other:?}")),
        }
    }
}

/// Deserialize a fitted classifier, dispatching on the configuration's
/// classifier choice (the same 1:1 mapping [`build_classifier`] uses).
fn load_classifier(choice: &ClassifierChoice, j: &Json) -> Result<Box<dyn Classifier>, String> {
    Ok(match choice {
        ClassifierChoice::RandomForest { .. } => Box::new(RandomForestClassifier::from_json(j)?),
        ClassifierChoice::ExtraTrees { .. } => Box::new(ExtraTreesClassifier::from_json(j)?),
        ClassifierChoice::DecisionTree { .. } => Box::new(SingleTreeClassifier::from_json(j)?),
        ClassifierChoice::AdaBoost { .. } => Box::new(AdaBoostClassifier::from_json(j)?),
        ClassifierChoice::GradientBoosting { .. } => {
            Box::new(GradientBoostingClassifier::from_json(j)?)
        }
        ClassifierChoice::LogisticRegression { .. } => Box::new(LogisticRegression::from_json(j)?),
        ClassifierChoice::LinearSvm { .. } => Box::new(LinearSvm::from_json(j)?),
        ClassifierChoice::Knn { .. } => Box::new(KNeighborsClassifier::from_json(j)?),
        ClassifierChoice::GaussianNb { .. } => Box::new(GaussianNb::from_json(j)?),
    })
}

impl FittedEmPipeline {
    /// Serialize the complete fitted pipeline — configuration, fitted
    /// preprocessing stages, and model weights — for the `em-serve` model
    /// artifact. `from_json` reconstructs a pipeline whose `predict` is
    /// bit-identical to this one's.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("imputer", self.imputer.to_json()),
            ("scaler", self.scaler.to_json()),
            ("transform", self.transform.to_json()),
            ("model", self.model.save_json()),
        ])
    }

    /// Inverse of [`FittedEmPipeline::to_json`]. The model weights are
    /// loaded into the concrete type named by the configuration's
    /// classifier choice.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let config = EmPipelineConfig::from_json(jsonio::field(j, "config")?)?;
        let model = load_classifier(&config.classifier, jsonio::field(j, "model")?)?;
        Ok(FittedEmPipeline {
            imputer: SimpleImputer::from_json(jsonio::field(j, "imputer")?)?,
            scaler: FittedScaler::from_json(jsonio::field(j, "scaler")?)?,
            transform: FittedTransform::from_json(jsonio::field(j, "transform")?)?,
            model,
            config,
        })
    }
}

/// Decode an `em-automl` [`Configuration`] (produced by the search space in
/// [`crate::space`]) into a pipeline configuration.
///
/// # Panics
/// On configurations that don't come from the AutoML-EM space — this is a
/// programming error, not user input.
pub fn decode_configuration(config: &Configuration, seed: u64) -> EmPipelineConfig {
    let balancing = match config.get_str("balancing:strategy").unwrap_or("none") {
        "weighting" => BalancingStrategy::Weighting,
        _ => BalancingStrategy::None,
    };
    let imputation = match config.get_str("imputation:strategy").unwrap_or("mean") {
        "median" => ImputeStrategy::Median,
        "most_frequent" => ImputeStrategy::MostFrequent,
        _ => ImputeStrategy::Mean,
    };
    let rescaling = match config.get_str("rescaling:__choice__").unwrap_or("none") {
        "standardize" => ScalerKind::Standard,
        "minmax" => ScalerKind::MinMax,
        "robust_scaler" => ScalerKind::Robust {
            q_min: config
                .get_float("rescaling:robust_scaler:q_min")
                .unwrap_or(0.25)
                * 100.0,
            q_max: config
                .get_float("rescaling:robust_scaler:q_max")
                .unwrap_or(0.75)
                * 100.0,
        },
        _ => ScalerKind::None,
    };
    let score_of = |s: Option<&str>| match s {
        Some("chi2") => ScoreFunc::Chi2,
        _ => ScoreFunc::FClassif,
    };
    let preprocessor = match config
        .get_str("preprocessor:__choice__")
        .unwrap_or("no_preprocessing")
    {
        "select_percentile_classification" => PreprocessorChoice::SelectPercentile {
            score: score_of(config.get_str("preprocessor:select_percentile:score_func")),
            percentile: config
                .get_float("preprocessor:select_percentile:percentile")
                .unwrap_or(50.0),
        },
        "select_rates" => PreprocessorChoice::SelectRates {
            score: score_of(config.get_str("preprocessor:select_rates:score_func")),
            mode: match config.get_str("preprocessor:select_rates:mode") {
                Some("fdr") => RateMode::Fdr,
                Some("fwe") => RateMode::Fwe,
                _ => RateMode::Fpr,
            },
            alpha: config
                .get_float("preprocessor:select_rates:alpha")
                .unwrap_or(0.1),
        },
        "variance_threshold" => PreprocessorChoice::VarianceThreshold {
            threshold: config
                .get_float("preprocessor:variance_threshold:threshold")
                .unwrap_or(0.0),
        },
        "pca" => PreprocessorChoice::Pca {
            components_fraction: config
                .get_float("preprocessor:pca:keep_fraction")
                .unwrap_or(0.9),
        },
        "feature_agglomeration" => PreprocessorChoice::FeatureAgglomeration {
            clusters_fraction: config
                .get_float("preprocessor:feature_agglomeration:cluster_fraction")
                .unwrap_or(0.5),
        },
        _ => PreprocessorChoice::None,
    };
    let criterion_of = |s: Option<&str>| match s {
        Some("entropy") => Criterion::Entropy,
        _ => Criterion::Gini,
    };
    let classifier = match config
        .get_str("classifier:__choice__")
        .expect("classifier choice missing")
    {
        "random_forest" => ClassifierChoice::RandomForest {
            n_estimators: 100,
            criterion: criterion_of(config.get_str("classifier:random_forest:criterion")),
            max_features: config
                .get_float("classifier:random_forest:max_features")
                .unwrap_or(0.5),
            min_samples_split: config
                .get_int("classifier:random_forest:min_samples_split")
                .unwrap_or(2) as usize,
            min_samples_leaf: config
                .get_int("classifier:random_forest:min_samples_leaf")
                .unwrap_or(1) as usize,
            bootstrap: config
                .get_str("classifier:random_forest:bootstrap")
                .unwrap_or("True")
                == "True",
        },
        "extra_trees" => ClassifierChoice::ExtraTrees {
            n_estimators: 100,
            criterion: criterion_of(config.get_str("classifier:extra_trees:criterion")),
            max_features: config
                .get_float("classifier:extra_trees:max_features")
                .unwrap_or(0.5),
            min_samples_leaf: config
                .get_int("classifier:extra_trees:min_samples_leaf")
                .unwrap_or(1) as usize,
        },
        "decision_tree" => ClassifierChoice::DecisionTree {
            criterion: criterion_of(config.get_str("classifier:decision_tree:criterion")),
            max_depth: config
                .get_int("classifier:decision_tree:max_depth")
                .unwrap_or(10) as usize,
            min_samples_split: config
                .get_int("classifier:decision_tree:min_samples_split")
                .unwrap_or(2) as usize,
            min_samples_leaf: config
                .get_int("classifier:decision_tree:min_samples_leaf")
                .unwrap_or(1) as usize,
        },
        "adaboost" => ClassifierChoice::AdaBoost {
            n_estimators: config
                .get_int("classifier:adaboost:n_estimators")
                .unwrap_or(50) as usize,
            learning_rate: config
                .get_float("classifier:adaboost:learning_rate")
                .unwrap_or(1.0),
            max_depth: config.get_int("classifier:adaboost:max_depth").unwrap_or(1) as usize,
        },
        "gradient_boosting" => ClassifierChoice::GradientBoosting {
            n_estimators: config
                .get_int("classifier:gradient_boosting:n_estimators")
                .unwrap_or(100) as usize,
            learning_rate: config
                .get_float("classifier:gradient_boosting:learning_rate")
                .unwrap_or(0.1),
            max_depth: config
                .get_int("classifier:gradient_boosting:max_depth")
                .unwrap_or(3) as usize,
            min_samples_leaf: config
                .get_int("classifier:gradient_boosting:min_samples_leaf")
                .unwrap_or(1) as usize,
            subsample: config
                .get_float("classifier:gradient_boosting:subsample")
                .unwrap_or(1.0),
        },
        "logistic_regression" => ClassifierChoice::LogisticRegression {
            alpha: config
                .get_float("classifier:logistic_regression:alpha")
                .unwrap_or(1e-4),
        },
        "linear_svm" => ClassifierChoice::LinearSvm {
            lambda: config
                .get_float("classifier:linear_svm:lambda")
                .unwrap_or(1e-3),
        },
        "k_nearest_neighbors" => ClassifierChoice::Knn {
            k: config
                .get_int("classifier:k_nearest_neighbors:k")
                .unwrap_or(5) as usize,
            weights: match config.get_str("classifier:k_nearest_neighbors:weights") {
                Some("distance") => KnnWeights::Distance,
                _ => KnnWeights::Uniform,
            },
        },
        "gaussian_nb" => ClassifierChoice::GaussianNb {
            var_smoothing: config
                .get_float("classifier:gaussian_nb:var_smoothing")
                .unwrap_or(1e-9),
        },
        other => panic!("unknown classifier choice {other}"),
    };
    EmPipelineConfig {
        balancing,
        imputation,
        rescaling,
        preprocessor,
        classifier,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let c = i % 2;
            let noise = ((i * 7) % 13) as f64 / 13.0;
            // informative, noisy, missing-prone, constant
            let missing = if i % 9 == 0 { f64::NAN } else { noise };
            rows.push(vec![c as f64 + 0.1 * noise, noise, missing, 1.0]);
            y.push(c);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn default_pipeline_fits_and_predicts() {
        let (x, y) = toy_data();
        let p = EmPipelineConfig::default_random_forest(0).fit(&x, &y);
        assert!(p.f1(&x, &y) > 0.95);
        let probs = p.predict_match_proba(&x);
        assert!(probs.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn full_pipeline_with_every_stage() {
        let (x, y) = toy_data();
        let config = EmPipelineConfig {
            balancing: BalancingStrategy::Weighting,
            imputation: ImputeStrategy::Median,
            rescaling: ScalerKind::Robust {
                q_min: 25.0,
                q_max: 75.0,
            },
            preprocessor: PreprocessorChoice::SelectPercentile {
                score: ScoreFunc::FClassif,
                percentile: 60.0,
            },
            classifier: ClassifierChoice::RandomForest {
                n_estimators: 30,
                criterion: Criterion::Gini,
                max_features: 0.9,
                min_samples_split: 2,
                min_samples_leaf: 1,
                bootstrap: true,
            },
            seed: 1,
        };
        let p = config.fit(&x, &y);
        assert!(p.f1(&x, &y) > 0.9);
        // Feature preprocessing reduced the width.
        assert!(p.fitted_transform().output_width(4) < 4);
    }

    #[test]
    fn every_classifier_choice_trains() {
        let (x, y) = toy_data();
        let choices = vec![
            ClassifierChoice::RandomForest {
                n_estimators: 10,
                criterion: Criterion::Gini,
                max_features: 0.5,
                min_samples_split: 2,
                min_samples_leaf: 1,
                bootstrap: true,
            },
            ClassifierChoice::ExtraTrees {
                n_estimators: 10,
                criterion: Criterion::Entropy,
                max_features: 0.5,
                min_samples_leaf: 1,
            },
            ClassifierChoice::DecisionTree {
                criterion: Criterion::Gini,
                max_depth: 6,
                min_samples_split: 2,
                min_samples_leaf: 1,
            },
            ClassifierChoice::AdaBoost {
                n_estimators: 15,
                learning_rate: 1.0,
                max_depth: 1,
            },
            ClassifierChoice::GradientBoosting {
                n_estimators: 20,
                learning_rate: 0.2,
                max_depth: 3,
                min_samples_leaf: 1,
                subsample: 1.0,
            },
            ClassifierChoice::LogisticRegression { alpha: 1e-4 },
            ClassifierChoice::LinearSvm { lambda: 1e-3 },
            ClassifierChoice::Knn {
                k: 5,
                weights: KnnWeights::Uniform,
            },
            ClassifierChoice::GaussianNb {
                var_smoothing: 1e-9,
            },
        ];
        for c in choices {
            let config = EmPipelineConfig {
                classifier: c.clone(),
                ..EmPipelineConfig::default_random_forest(0)
            };
            let p = config.fit(&x, &y);
            let f1 = p.f1(&x, &y);
            assert!(f1 > 0.6, "{c:?} scored {f1}");
        }
    }

    #[test]
    fn cross_validation_scores_are_sane() {
        let (x, y) = toy_data();
        let config = EmPipelineConfig::default_random_forest(0);
        let cv = config.cross_val_f1(&x, &y, 5, 0);
        assert!((0.5..=1.0).contains(&cv), "cv F1 {cv}");
        // Deterministic.
        assert_eq!(cv, config.cross_val_f1(&x, &y, 5, 0));
    }

    #[test]
    fn ablations_strip_the_right_modules() {
        let config = EmPipelineConfig {
            balancing: BalancingStrategy::Weighting,
            rescaling: ScalerKind::Standard,
            preprocessor: PreprocessorChoice::VarianceThreshold { threshold: 0.0 },
            ..EmPipelineConfig::default_random_forest(0)
        };
        let no_dp = config.without_data_preprocessing();
        assert_eq!(no_dp.balancing, BalancingStrategy::None);
        assert_eq!(no_dp.rescaling, ScalerKind::None);
        assert_eq!(no_dp.preprocessor, config.preprocessor);
        let no_fp = config.without_feature_preprocessing();
        assert_eq!(no_fp.preprocessor, PreprocessorChoice::None);
        assert_eq!(no_fp.balancing, config.balancing);
    }

    #[test]
    fn threshold_tuning_never_hurts_on_the_tuning_set() {
        let (x, y) = toy_data();
        let p = EmPipelineConfig::default_random_forest(0).fit(&x, &y);
        let default_f1 = p.f1(&x, &y);
        let (threshold, tuned_f1) = p.tune_threshold(&x, &y);
        assert!(tuned_f1 >= default_f1 - 1e-12);
        assert!((0.0..=1.0).contains(&threshold));
        // predict_with_threshold at the tuned threshold reproduces tuned_f1.
        let again = em_ml::f1_score(&y, &p.predict_with_threshold(&x, threshold));
        assert_eq!(again, tuned_f1);
    }

    #[test]
    fn low_threshold_predicts_more_positives() {
        let (x, y) = toy_data();
        let p = EmPipelineConfig::default_random_forest(0).fit(&x, &y);
        let lo: usize = p.predict_with_threshold(&x, 0.1).iter().sum();
        let hi: usize = p.predict_with_threshold(&x, 0.9).iter().sum();
        assert!(lo >= hi);
    }

    #[test]
    fn pipeline_handles_nan_test_data() {
        let (x, y) = toy_data();
        let p = EmPipelineConfig::default_random_forest(0).fit(&x, &y);
        let test = Matrix::from_rows(&[vec![f64::NAN, 0.5, f64::NAN, 1.0]]);
        let pred = p.predict(&test);
        assert_eq!(pred.len(), 1);
    }

    #[test]
    fn decode_round_trip_from_figure5_style_config() {
        use em_automl::ParamValue;
        let config = Configuration::from_map([
            (
                "balancing:strategy".to_string(),
                ParamValue::Cat("weighting".into()),
            ),
            (
                "imputation:strategy".to_string(),
                ParamValue::Cat("mean".into()),
            ),
            (
                "rescaling:__choice__".to_string(),
                ParamValue::Cat("robust_scaler".into()),
            ),
            (
                "rescaling:robust_scaler:q_min".to_string(),
                ParamValue::Float(0.19454891546620004),
            ),
            (
                "rescaling:robust_scaler:q_max".to_string(),
                ParamValue::Float(0.9194022794180152),
            ),
            (
                "preprocessor:__choice__".to_string(),
                ParamValue::Cat("select_percentile_classification".into()),
            ),
            (
                "preprocessor:select_percentile:percentile".to_string(),
                ParamValue::Float(55.84285592896699),
            ),
            (
                "preprocessor:select_percentile:score_func".to_string(),
                ParamValue::Cat("f_classif".into()),
            ),
            (
                "classifier:__choice__".to_string(),
                ParamValue::Cat("random_forest".into()),
            ),
            (
                "classifier:random_forest:bootstrap".to_string(),
                ParamValue::Cat("True".into()),
            ),
            (
                "classifier:random_forest:criterion".to_string(),
                ParamValue::Cat("gini".into()),
            ),
            (
                "classifier:random_forest:max_features".to_string(),
                ParamValue::Float(0.9008519355763185),
            ),
            (
                "classifier:random_forest:min_samples_leaf".to_string(),
                ParamValue::Int(2),
            ),
            (
                "classifier:random_forest:min_samples_split".to_string(),
                ParamValue::Int(6),
            ),
        ]);
        let pc = decode_configuration(&config, 7);
        assert_eq!(pc.balancing, BalancingStrategy::Weighting);
        assert!(
            matches!(pc.rescaling, ScalerKind::Robust { q_min, .. } if (q_min - 19.45).abs() < 0.1)
        );
        assert!(matches!(
            pc.preprocessor,
            PreprocessorChoice::SelectPercentile { percentile, .. } if (percentile - 55.84).abs() < 0.1
        ));
        assert!(matches!(
            pc.classifier,
            ClassifierChoice::RandomForest {
                min_samples_split: 6,
                min_samples_leaf: 2,
                ..
            }
        ));
        assert_eq!(pc.seed, 7);
    }
}
