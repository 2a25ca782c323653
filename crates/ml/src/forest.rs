//! Random forests and extra-trees — the workhorse models of AutoML-EM
//! (the paper restricts the model space to random forest, §III-C).
//!
//! `RandomForestClassifier::vote_fraction` exposes the tree-agreement
//! confidence the paper's Figure 7 uses to separate active-learning picks
//! (low agreement) from self-training picks (high agreement).

use crate::jsonio;
use crate::matrix::Matrix;
use crate::tree::{
    check_members, Criterion, DecisionTree, MaxFeatures, SplitPrep, Splitter, TreeParams, TreePrep,
};
use crate::Classifier;
use em_rt::Json;
use em_rt::StdRng;

/// Hyperparameters shared by the forest models. Field names and defaults
/// mirror scikit-learn's `RandomForestClassifier` (paper Fig. 5/11).
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Split criterion (gini or entropy).
    pub criterion: Criterion,
    /// Maximum depth per tree.
    pub max_depth: Option<usize>,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Split engine per tree (exact scan, or random thresholds —
    /// extra-trees forces `Random`).
    pub splitter: Splitter,
    /// Bootstrap-resample the training set per tree.
    pub bootstrap: bool,
    /// Minimum impurity decrease per split.
    pub min_impurity_decrease: f64,
    /// Base RNG seed; tree `t` uses `seed + t`.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_estimators: 100,
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            splitter: Splitter::Best,
            bootstrap: true,
            min_impurity_decrease: 0.0,
            seed: 0,
        }
    }
}

/// Train `params.n_estimators` trees on the shared `em-rt` worker pool with
/// per-tree seeds and optional bootstrap. Tree `t` is fully determined by
/// `params.seed` and `t`, so predictions are bit-identical at any pool
/// width. `fit_member` fits one tree on base rows `rows` (a bootstrap
/// draw), or on all of them when `None`, with its share of the forest's
/// [`SplitPrep`].
fn fit_trees(
    x: &Matrix,
    params: &ForestParams,
    criterion: Criterion,
    fit_member: impl Fn(TreeParams, Option<&[usize]>, TreePrep<'_>) -> DecisionTree + Sync,
) -> Vec<DecisionTree> {
    let n = x.nrows();
    let n_trees = params.n_estimators.max(1);
    // Rank the base matrix once for the whole forest: bootstrap resamples
    // only repeat base rows, so each tree takes its order from the base
    // instead of re-sorting every feature.
    let prep = SplitPrep::new(x, params.splitter);
    let mut results: Vec<Option<DecisionTree>> = vec![None; n_trees];
    let writer = em_rt::SliceWriter::new(&mut results);
    em_rt::parallel_for_chunked(n_trees, 0, 1, |t| {
        let tree_params = TreeParams {
            criterion,
            max_depth: params.max_depth,
            min_samples_split: params.min_samples_split,
            min_samples_leaf: params.min_samples_leaf,
            max_features: params.max_features,
            splitter: params.splitter,
            min_impurity_decrease: params.min_impurity_decrease,
            seed: tree_seed(params.seed, t),
        };
        let tree = if params.bootstrap {
            let idx = bootstrap_rows(tree_params.seed, n);
            fit_member(tree_params, Some(&idx), prep.tree(Some(&idx)))
        } else {
            fit_member(tree_params, None, prep.tree(None))
        };
        // Safety: `parallel_for` hands out each index exactly once.
        unsafe { writer.write(t, Some(tree)) };
    });
    results
        .into_iter()
        .map(|t| t.expect("all trees trained"))
        .collect()
}

/// [`fit_trees`] for the two classifiers.
fn fit_classifier_trees(
    x: &Matrix,
    y: &[usize],
    n_classes: usize,
    sample_weight: Option<&[f64]>,
    params: &ForestParams,
) -> Vec<DecisionTree> {
    let _span = em_obs::span!("forest.fit");
    fit_trees(x, params, params.criterion, |tree_params, rows, prep| {
        let Some(idx) = rows else {
            return DecisionTree::fit_classifier_prepared(
                x,
                y,
                n_classes,
                sample_weight,
                tree_params,
                prep,
            );
        };
        let xb = x.select_rows(idx);
        let yb: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
        let wb: Option<Vec<f64>> = sample_weight.map(|w| idx.iter().map(|&i| w[i]).collect());
        DecisionTree::fit_classifier_prepared(&xb, &yb, n_classes, wb.as_deref(), tree_params, prep)
    })
}

/// Tree `t`'s seed in a forest seeded with `seed`.
fn tree_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_add(t as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The bootstrap draw of `n` rows for the tree seeded with `tree_seed`.
fn bootstrap_rows(tree_seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(tree_seed ^ BOOTSTRAP_SALT);
    (0..n).map(|_| rng.random_range(0..n)).collect()
}

/// Salt mixed into per-tree seeds so the bootstrap RNG and the split RNG
/// draw independent streams.
const BOOTSTRAP_SALT: u64 = 0xB001_57A9;

/// Random forest classifier (bagging + per-split feature subsampling).
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    /// Hyperparameters (read-only after `fit`).
    pub params: ForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Create an unfitted forest with the given hyperparameters.
    pub fn new(params: ForestParams) -> Self {
        RandomForestClassifier {
            params,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// The fitted trees (empty before `fit`).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean-decrease-in-impurity importances averaged over the trees
    /// (sklearn's `feature_importances_`), normalized to sum to 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "fit before inspecting importances");
        let d = self.trees[0].n_features();
        let mut out = vec![0.0; d];
        for tree in &self.trees {
            for (o, v) in out.iter_mut().zip(tree.feature_importances()) {
                *o += v;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            out.iter_mut().for_each(|v| *v /= total);
        }
        out
    }

    /// Out-of-bag F1: evaluate each training sample only with the trees
    /// whose bootstrap draw excluded it — an unbiased generalization
    /// estimate without a held-out split.
    ///
    /// Must be called with the *same* `(x, y)` the forest was fitted on
    /// (the bootstrap draws are reconstructed from the per-tree seeds).
    /// Returns `None` when the forest was fitted without bootstrap or some
    /// sample never fell out of bag.
    pub fn oob_f1(&self, x: &Matrix, y: &[usize]) -> Option<f64> {
        if !self.params.bootstrap || self.trees.is_empty() {
            return None;
        }
        let n = x.nrows();
        assert_eq!(n, y.len(), "X/y length mismatch");
        let mut votes = vec![vec![0.0f64; self.n_classes]; n];
        let mut seen = vec![false; n];
        for (t, tree) in self.trees.iter().enumerate() {
            // Reconstruct tree t's bootstrap draw.
            let mut in_bag = vec![false; n];
            for i in bootstrap_rows(tree_seed(self.params.seed, t), n) {
                in_bag[i] = true;
            }
            for (i, row) in x.rows_iter().enumerate() {
                if !in_bag[i] {
                    seen[i] = true;
                    for (c, &p) in tree.predict_proba_row(row).iter().enumerate() {
                        votes[i][c] += p;
                    }
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return None;
        }
        let pred: Vec<usize> = votes
            .iter()
            .map(|v| {
                let mut best = 0;
                for (c, &p) in v.iter().enumerate() {
                    if p > v[best] {
                        best = c;
                    }
                }
                best
            })
            .collect();
        Some(crate::metrics::f1_score(y, &pred))
    }

    /// Per-sample agreement of the ensemble: the fraction of trees whose
    /// individual hard prediction equals the majority prediction. This is
    /// the confidence score of the paper's Figure 7 — low values fall into
    /// the "inconsistent" regions R2/R3 (active-learning targets), high
    /// values into R1/R4 (self-training targets).
    pub fn vote_fraction(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let n = x.nrows();
        let mut votes = vec![vec![0usize; self.n_classes]; n];
        for tree in &self.trees {
            for (r, row) in x.rows_iter().enumerate() {
                let dist = tree.predict_proba_row(row);
                let mut best = 0;
                for (c, &p) in dist.iter().enumerate() {
                    if p > dist[best] {
                        best = c;
                    }
                }
                votes[r][best] += 1;
            }
        }
        votes
            .iter()
            .map(|v| *v.iter().max().unwrap() as f64 / self.trees.len() as f64)
            .collect()
    }
}

impl Classifier for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        self.n_classes = n_classes;
        self.trees = fit_classifier_trees(x, y, n_classes, sample_weight, &self.params);
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        for tree in &self.trees {
            for (r, row) in x.rows_iter().enumerate() {
                let dist = tree.predict_proba_row(row);
                for (c, &p) in dist.iter().enumerate() {
                    out.set(r, c, out.get(r, c) + p);
                }
            }
        }
        let k = self.trees.len() as f64;
        for r in 0..out.nrows() {
            for c in 0..out.ncols() {
                out.set(r, c, out.get(r, c) / k);
            }
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        Some(RandomForestClassifier::feature_importances(self))
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

/// Extra-trees classifier: no bootstrap by default, random split thresholds.
#[derive(Debug, Clone)]
pub struct ExtraTreesClassifier {
    /// Hyperparameters (read-only after `fit`).
    pub params: ForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl ExtraTreesClassifier {
    /// Create an unfitted extra-trees ensemble.
    pub fn new(mut params: ForestParams) -> Self {
        // sklearn's ExtraTrees default: no bootstrap, random thresholds.
        params.bootstrap = false;
        params.splitter = Splitter::Random;
        ExtraTreesClassifier {
            params,
            trees: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for ExtraTreesClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        self.n_classes = n_classes;
        self.trees = fit_classifier_trees(x, y, n_classes, sample_weight, &self.params);
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        for tree in &self.trees {
            for (r, row) in x.rows_iter().enumerate() {
                let dist = tree.predict_proba_row(row);
                for (c, &p) in dist.iter().enumerate() {
                    out.set(r, c, out.get(r, c) + p);
                }
            }
        }
        let k = self.trees.len() as f64;
        for r in 0..out.nrows() {
            for c in 0..out.ncols() {
                out.set(r, c, out.get(r, c) / k);
            }
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        let d = self.trees.first()?.n_features();
        let mut out = vec![0.0; d];
        for tree in &self.trees {
            for (o, v) in out.iter_mut().zip(tree.feature_importances()) {
                *o += v;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            out.iter_mut().for_each(|v| *v /= total);
        }
        Some(out)
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl ForestParams {
    /// Serialize the hyperparameters to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_estimators", Json::from(self.n_estimators)),
            ("criterion", Json::from(self.criterion.as_str())),
            ("max_depth", jsonio::opt_usize(self.max_depth)),
            ("min_samples_split", Json::from(self.min_samples_split)),
            ("min_samples_leaf", Json::from(self.min_samples_leaf)),
            ("max_features", self.max_features.to_json()),
            ("splitter", Json::from(self.splitter.as_str())),
            ("bootstrap", Json::from(self.bootstrap)),
            (
                "min_impurity_decrease",
                jsonio::num(self.min_impurity_decrease),
            ),
            ("seed", jsonio::u64_str(self.seed)),
        ])
    }

    /// Inverse of [`ForestParams::to_json`]. Fields it does not read are
    /// ignored: older artifacts also carry a per-forest thread count, which
    /// never affected the fitted trees, and a histogram bin budget, which
    /// no fit reads any more.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(ForestParams {
            n_estimators: jsonio::as_usize(jsonio::field(j, "n_estimators")?)?,
            criterion: Criterion::parse(jsonio::as_str(jsonio::field(j, "criterion")?)?)?,
            max_depth: jsonio::as_opt_usize(jsonio::field(j, "max_depth")?)?,
            min_samples_split: jsonio::as_usize(jsonio::field(j, "min_samples_split")?)?,
            min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            max_features: MaxFeatures::from_json(jsonio::field(j, "max_features")?)?,
            // Introduced after the first artifact format; older artifacts
            // load with the value they were fitted with.
            splitter: match j.get("splitter") {
                Some(v) => Splitter::parse(jsonio::as_str(v)?)?,
                None => Splitter::Best,
            },
            bootstrap: jsonio::as_bool(jsonio::field(j, "bootstrap")?)?,
            min_impurity_decrease: jsonio::as_f64(jsonio::field(j, "min_impurity_decrease")?)?,
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
        })
    }
}

/// Shared (de)serialization for the two tree-ensemble classifiers (they
/// differ only in splitter/bootstrap, which live inside the params/trees).
fn ensemble_to_json(params: &ForestParams, trees: &[DecisionTree], n_classes: usize) -> Json {
    Json::obj([
        ("params", params.to_json()),
        ("n_classes", Json::from(n_classes)),
        ("trees", Json::arr(trees.iter().map(DecisionTree::to_json))),
    ])
}

/// The inverse of [`ensemble_to_json`], rejecting a member list that
/// predict could not serve (see [`check_members`]).
fn ensemble_from_json(j: &Json) -> Result<(ForestParams, Vec<DecisionTree>, usize), String> {
    let params = ForestParams::from_json(jsonio::field(j, "params")?)?;
    let n_classes = jsonio::as_usize(jsonio::field(j, "n_classes")?)?;
    if n_classes == 0 {
        return Err("a tree-ensemble classifier needs at least one class".to_string());
    }
    let trees: Vec<DecisionTree> = jsonio::field(j, "trees")?
        .as_arr()
        .ok_or_else(|| "trees must be an array".to_string())?
        .iter()
        .map(DecisionTree::from_json)
        .collect::<Result<_, _>>()?;
    check_members(&trees, n_classes)?;
    Ok((params, trees, n_classes))
}

impl RandomForestClassifier {
    /// Serialize the fitted forest for the model artifact.
    pub fn to_json(&self) -> Json {
        ensemble_to_json(&self.params, &self.trees, self.n_classes)
    }

    /// Inverse of [`RandomForestClassifier::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let (params, trees, n_classes) = ensemble_from_json(j)?;
        Ok(RandomForestClassifier {
            params,
            trees,
            n_classes,
        })
    }
}

impl ExtraTreesClassifier {
    /// Serialize the fitted ensemble for the model artifact.
    pub fn to_json(&self) -> Json {
        ensemble_to_json(&self.params, &self.trees, self.n_classes)
    }

    /// Inverse of [`ExtraTreesClassifier::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let (mut params, trees, n_classes) = ensemble_from_json(j)?;
        // Pre-splitter artifacts default to `Best`; extra-trees always
        // means random thresholds (a refit must not change engines).
        params.splitter = Splitter::Random;
        Ok(ExtraTreesClassifier {
            params,
            trees,
            n_classes,
        })
    }
}

/// Random forest regressor (used as the SMAC surrogate in `em-automl`).
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    /// Hyperparameters (criterion is forced to MSE).
    pub params: ForestParams,
    trees: Vec<DecisionTree>,
}

impl RandomForestRegressor {
    /// Create an unfitted regressor.
    pub fn new(mut params: ForestParams) -> Self {
        params.criterion = Criterion::Mse;
        RandomForestRegressor {
            params,
            trees: Vec::new(),
        }
    }

    /// Fit on continuous targets (trees train on the shared `em-rt` pool).
    pub fn fit(&mut self, x: &Matrix, targets: &[f64]) {
        let _span = em_obs::span!("forest.fit_regressor");
        self.trees = fit_trees(
            x,
            &self.params,
            Criterion::Mse,
            |tree_params, rows, prep| {
                let Some(idx) = rows else {
                    return DecisionTree::fit_regressor_prepared(
                        x,
                        targets,
                        None,
                        tree_params,
                        prep,
                    );
                };
                let xb = x.select_rows(idx);
                let tb: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
                DecisionTree::fit_regressor_prepared(&xb, &tb, None, tree_params, prep)
            },
        );
    }

    /// Mean prediction across trees.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let mut out = vec![0.0; x.nrows()];
        for tree in &self.trees {
            for (r, v) in tree.predict_values(x).into_iter().enumerate() {
                out[r] += v;
            }
        }
        let k = self.trees.len() as f64;
        out.iter_mut().for_each(|v| *v /= k);
        out
    }

    /// Per-sample mean and variance of the tree predictions — the surrogate
    /// uncertainty SMAC's expected-improvement acquisition needs.
    pub fn predict_with_variance(&self, x: &Matrix) -> Vec<(f64, f64)> {
        assert!(!self.trees.is_empty(), "fit before predicting");
        let per_tree: Vec<Vec<f64>> = self.trees.iter().map(|t| t.predict_values(x)).collect();
        (0..x.nrows())
            .map(|r| {
                let vals: Vec<f64> = per_tree.iter().map(|p| p[r]).collect();
                let m = crate::stats::mean(&vals);
                let v = crate::stats::variance(&vals);
                (m, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy two-cluster data in 4 dimensions.
    fn clusters(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { 0.0 } else { 1.0 };
            rows.push(
                (0..4)
                    .map(|_| center + rng.random_range(-0.3..0.3))
                    .collect(),
            );
            y.push(c);
        }
        (Matrix::from_rows(&rows), y)
    }

    fn small_forest(seed: u64) -> RandomForestClassifier {
        RandomForestClassifier::new(ForestParams {
            n_estimators: 25,
            seed,
            ..ForestParams::default()
        })
    }

    #[test]
    fn forest_learns_clusters() {
        let (x, y) = clusters(200, 1);
        let mut rf = small_forest(0);
        rf.fit(&x, &y, 2, None);
        let acc = rf
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn forest_deterministic_under_seed() {
        let (x, y) = clusters(100, 2);
        let mut a = small_forest(7);
        let mut b = small_forest(7);
        a.fit(&x, &y, 2, None);
        b.fit(&x, &y, 2, None);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_differ() {
        // Overlapping clusters: probabilities on ambiguous points depend on
        // the bootstrap draws, so different seeds must diverge somewhere.
        let mut rng = StdRng::seed_from_u64(2);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let c = i % 2;
            let center = c as f64 * 0.5;
            rows.push(vec![center + rng.random_range(-0.6..0.6)]);
            y.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let mut a = small_forest(7);
        let mut b = small_forest(8);
        a.fit(&x, &y, 2, None);
        b.fit(&x, &y, 2, None);
        assert_ne!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn vote_fraction_confidence_structure() {
        let (x, y) = clusters(200, 3);
        let mut rf = small_forest(1);
        rf.fit(&x, &y, 2, None);
        let conf = rf.vote_fraction(&x);
        // Every agreement fraction is in [0.5, 1] for binary problems.
        for &c in &conf {
            assert!((0.5..=1.0).contains(&c), "confidence {c}");
        }
        // A point far from both clusters' boundary is high-confidence.
        let easy = Matrix::from_rows(&[vec![-0.5; 4], vec![1.5; 4]]);
        for c in rf.vote_fraction(&easy) {
            assert!(c > 0.9, "easy point confidence {c}");
        }
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let (x, y) = clusters(80, 4);
        let mut rf = small_forest(0);
        rf.fit(&x, &y, 2, None);
        let p = rf.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extra_trees_learn_too() {
        let (x, y) = clusters(200, 5);
        let mut et = ExtraTreesClassifier::new(ForestParams {
            n_estimators: 30,
            seed: 0,
            ..ForestParams::default()
        });
        et.fit(&x, &y, 2, None);
        let acc = et
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_linear_signal() {
        let x = Matrix::from_rows(&(0..100).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>());
        let t: Vec<f64> = (0..100).map(|i| 2.0 * (i as f64 / 10.0) + 1.0).collect();
        let mut rf = RandomForestRegressor::new(ForestParams {
            n_estimators: 30,
            max_features: MaxFeatures::All,
            seed: 0,
            ..ForestParams::default()
        });
        rf.fit(&x, &t);
        let pred = rf.predict(&x);
        let mse: f64 = pred
            .iter()
            .zip(&t)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / t.len() as f64;
        assert!(mse < 0.5, "mse {mse}");
    }

    #[test]
    fn regressor_variance_nonnegative() {
        let x = Matrix::from_rows(&(0..50).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let t: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let mut rf = RandomForestRegressor::new(ForestParams {
            n_estimators: 10,
            seed: 0,
            ..ForestParams::default()
        });
        rf.fit(&x, &t);
        for (m, v) in rf.predict_with_variance(&x) {
            assert!(v >= 0.0);
            assert!(m.is_finite());
        }
    }

    #[test]
    fn oob_f1_approximates_holdout_f1() {
        let (x, y) = clusters(300, 7);
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 40,
            seed: 2,
            ..ForestParams::default()
        });
        rf.fit(&x, &y, 2, None);
        let oob = rf.oob_f1(&x, &y).expect("bootstrap forest has OOB");
        // Fresh data from the same distribution as an oracle comparison.
        let (xt, yt) = clusters(300, 77);
        let holdout = crate::metrics::f1_score(&yt, &rf.predict(&xt));
        assert!(
            (oob - holdout).abs() < 0.1,
            "oob {oob} vs holdout {holdout}"
        );
    }

    #[test]
    fn oob_is_none_without_bootstrap() {
        let (x, y) = clusters(60, 8);
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 10,
            bootstrap: false,
            ..ForestParams::default()
        });
        rf.fit(&x, &y, 2, None);
        assert!(rf.oob_f1(&x, &y).is_none());
    }

    #[test]
    fn forest_importances_rank_informative_features_first() {
        // Feature 0 carries the class; features 1-3 are noise.
        let mut rng = StdRng::seed_from_u64(9);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let c = i % 2;
            rows.push(vec![
                c as f64 + rng.random_range(-0.2..0.2),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
            y.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let mut rf = small_forest(3);
        rf.fit(&x, &y, 2, None);
        let imp = rf.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            imp[0] > imp[1] && imp[0] > imp[2] && imp[0] > imp[3],
            "{imp:?}"
        );
        assert!(imp[0] > 0.5, "{imp:?}");
    }

    #[test]
    fn single_job_matches_parallel() {
        // The pool width is the only serial/parallel switch: fit on a
        // one-thread pool, then at the wide width (4 unless `EM_THREADS`
        // sets it), which must really have workers unless `EM_THREADS=1`.
        let (x, y) = clusters(100, 6);
        let wide = match std::env::var("EM_THREADS") {
            Ok(_) => em_rt::threads(),
            Err(_) => 4,
        };
        let fit = |width: usize| {
            em_rt::set_threads(width);
            let mut rf = small_forest(11);
            rf.fit(&x, &y, 2, None);
            rf
        };
        let par = fit(wide);
        if std::env::var("EM_THREADS").as_deref() != Ok("1") {
            assert!(
                em_rt::pool_workers() > 0,
                "the wide fit had no pool workers"
            );
        }
        let ser = fit(1);
        em_rt::set_threads(wide);
        assert_eq!(par.predict_proba(&x), ser.predict_proba(&x));
    }
}
