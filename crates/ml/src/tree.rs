//! CART decision trees: the building block of every tree ensemble in this
//! crate (random forest, extra-trees, AdaBoost, gradient boosting) and of the
//! SMAC surrogate model in `em-automl`.
//!
//! Supports weighted samples, gini/entropy impurity for classification and
//! MSE for regression, per-node random feature subsampling (`max_features`),
//! and the extra-trees "random threshold" splitter.

use crate::jsonio;
use crate::matrix::Matrix;
use em_rt::Json;

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification).
    Gini,
    /// Shannon entropy (classification).
    Entropy,
    /// Variance reduction (regression).
    Mse,
}

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(d))` features (random-forest default).
    Sqrt,
    /// `ceil(log2(d))` features.
    Log2,
    /// A fraction of the features, `ceil(fraction * d)` (auto-sklearn encodes
    /// `max_features` this way — see paper Fig. 11's 0.9008...).
    Fraction(f64),
    /// An absolute count, clamped to `[1, d]`.
    Count(usize),
}

impl MaxFeatures {
    /// Resolve to a concrete feature count for dimensionality `d`.
    pub fn resolve(&self, d: usize) -> usize {
        if d == 0 {
            return 0;
        }
        let k = match *self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (d as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Fraction(f) => ((f.clamp(0.0, 1.0)) * d as f64).ceil() as usize,
            MaxFeatures::Count(c) => c,
        };
        k.clamp(1, d)
    }
}

/// Threshold-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitter {
    /// Exhaustive best split per candidate feature (CART / random forest).
    Best,
    /// One uniformly random threshold per candidate feature (extra-trees).
    Random,
}

impl Splitter {
    /// Stable artifact name of the splitter.
    pub fn as_str(&self) -> &'static str {
        match self {
            Splitter::Best => "best",
            Splitter::Random => "random",
        }
    }

    /// Inverse of [`Splitter::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "best" => Ok(Splitter::Best),
            "random" => Ok(Splitter::Random),
            other => Err(format!("unknown splitter {other:?}")),
        }
    }
}

/// Hyperparameters of a single tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Split-quality criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Per-split feature subsampling.
    pub max_features: MaxFeatures,
    /// Threshold-selection strategy.
    pub splitter: Splitter,
    /// Minimum impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
    /// RNG seed for feature subsampling / random thresholds.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            splitter: Splitter::Best,
            min_impurity_decrease: 0.0,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Classification: weighted class distribution (normalized).
        /// Regression: single-element vector holding the leaf mean.
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree (classification or regression depending on
/// which `fit_*` constructor was used).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    /// Number of classes (0 for a regression tree).
    n_classes: usize,
    n_features: usize,
    /// Unnormalized mean-decrease-in-impurity per feature, accumulated at
    /// fit time (weight-of-node × impurity decrease per split).
    importances: Vec<f64>,
}

/// Target wrapper so classification and regression share one builder.
pub(crate) enum Target<'a> {
    Classes { y: &'a [usize], n_classes: usize },
    Values(&'a [f64]),
}

/// What a fit prepares once so that no tree re-sorts a column per node:
/// the dense ranks for the exact scan, nothing for random thresholds.
/// Ensembles build one per fit and hand each member its
/// [`SplitPrep::tree`] share.
pub(crate) enum SplitPrep {
    Ranked(crate::presort::Ranks),
    Unordered,
}

impl SplitPrep {
    /// Prepare `x` for `splitter`.
    pub(crate) fn new(x: &Matrix, splitter: Splitter) -> SplitPrep {
        match splitter {
            Splitter::Best => SplitPrep::Ranked(crate::presort::Ranks::build(x)),
            Splitter::Random => SplitPrep::Unordered,
        }
    }

    /// The share of a member tree whose `x` holds base rows `rows`, in
    /// order and with repeats (bootstrap, subsample), or every base row
    /// when `None`.
    pub(crate) fn tree<'a>(&'a self, rows: Option<&'a [usize]>) -> TreePrep<'a> {
        TreePrep { prep: self, rows }
    }
}

/// One member tree's share of a [`SplitPrep`].
pub(crate) struct TreePrep<'a> {
    prep: &'a SplitPrep,
    rows: Option<&'a [usize]>,
}

impl DecisionTree {
    /// Fit a classification tree.
    ///
    /// `y` holds class indices in `0..n_classes`; `sample_weight` defaults to
    /// uniform weights. NaN feature values are rejected: run an imputer first.
    ///
    /// # Panics
    /// On shape mismatches, NaN features, or an MSE criterion.
    pub fn fit_classifier(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
    ) -> Self {
        check_classifier_inputs(x, y, n_classes, &params);
        let prep = SplitPrep::new(x, params.splitter);
        let target = Target::Classes { y, n_classes };
        Self::fit_inner(x, target, sample_weight, params, prep.tree(None))
    }

    /// [`DecisionTree::fit_classifier`] on an ensemble's per-fit
    /// preparation, so the column sorts are paid once per fit instead of
    /// once per tree.
    pub(crate) fn fit_classifier_prepared(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
        prep: TreePrep<'_>,
    ) -> Self {
        check_classifier_inputs(x, y, n_classes, &params);
        let target = Target::Classes { y, n_classes };
        Self::fit_inner(x, target, sample_weight, params, prep)
    }

    /// [`DecisionTree::fit_regressor`] on an ensemble's per-fit preparation.
    pub(crate) fn fit_regressor_prepared(
        x: &Matrix,
        targets: &[f64],
        sample_weight: Option<&[f64]>,
        mut params: TreeParams,
        prep: TreePrep<'_>,
    ) -> Self {
        params.criterion = Criterion::Mse;
        check_regressor_inputs(x, targets);
        Self::fit_inner(x, Target::Values(targets), sample_weight, params, prep)
    }

    /// Fit a regression tree (criterion is forced to MSE).
    ///
    /// # Panics
    /// On shape mismatches or NaN features.
    pub fn fit_regressor(
        x: &Matrix,
        targets: &[f64],
        sample_weight: Option<&[f64]>,
        mut params: TreeParams,
    ) -> Self {
        params.criterion = Criterion::Mse;
        check_regressor_inputs(x, targets);
        let prep = SplitPrep::new(x, params.splitter);
        Self::fit_inner(
            x,
            Target::Values(targets),
            sample_weight,
            params,
            prep.tree(None),
        )
    }

    fn fit_inner(
        x: &Matrix,
        target: Target<'_>,
        sample_weight: Option<&[f64]>,
        params: TreeParams,
        prep: TreePrep<'_>,
    ) -> Self {
        let n = x.nrows();
        let default_w;
        let w: &[f64] = match sample_weight {
            Some(w) => {
                assert_eq!(w.len(), n, "weight length mismatch");
                w
            }
            None => {
                default_w = vec![1.0; n];
                &default_w
            }
        };
        let n_classes = match &target {
            Target::Classes { n_classes, .. } => *n_classes,
            Target::Values(_) => 0,
        };
        EXACT_FITS.incr();
        let sorted = match prep.prep {
            SplitPrep::Ranked(ranks) => Some(ranks.sorted_rows(prep.rows, n)),
            SplitPrep::Unordered => None,
        };
        let (nodes, importances) = crate::presort::grow(x, &target, w, &params, sorted);
        NODES.add(nodes.len() as u64);
        DecisionTree {
            params,
            nodes,
            n_classes,
            n_features: x.ncols(),
            importances,
        }
    }

    /// Leaf index reached by sample `row` (used by gradient boosting).
    pub fn apply(&self, row: &[f64]) -> usize {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // NaN goes left by convention.
                    let v = row[*feature];
                    node = if v <= *threshold || v.is_nan() {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Class-probability distribution for one sample (classification only).
    pub fn predict_proba_row(&self, row: &[f64]) -> &[f64] {
        match &self.nodes[self.apply(row)] {
            Node::Leaf { dist } => dist,
            Node::Split { .. } => unreachable!("apply returns leaves"),
        }
    }

    /// Class-probability matrix (n × n_classes).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(self.n_classes > 0, "regression tree has no probabilities");
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.predict_proba_row(row));
        }
        out
    }

    /// Hard class predictions (classification only).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let proba = self.predict_proba(x);
        (0..proba.nrows()).map(|r| argmax(proba.row(r))).collect()
    }

    /// Regression predictions (regression trees only).
    pub fn predict_values(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(self.n_classes, 0, "classification tree has no values");
        x.rows_iter()
            .map(|row| match &self.nodes[self.apply(row)] {
                Node::Leaf { dist } => dist[0],
                Node::Split { .. } => unreachable!(),
            })
            .collect()
    }

    /// Overwrite the value of leaf `leaf` (gradient boosting's Newton step).
    pub fn set_leaf_value(&mut self, leaf: usize, value: f64) {
        match &mut self.nodes[leaf] {
            Node::Leaf { dist } => {
                dist.clear();
                dist.push(value);
            }
            Node::Split { .. } => panic!("node {leaf} is not a leaf"),
        }
    }

    /// Total node count (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (diagnostics).
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// The number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Mean-decrease-in-impurity feature importances, normalized to sum to
    /// 1 (all-zero for a tree that never split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.importances.iter().map(|v| v / total).collect()
    }
}

impl Criterion {
    /// Stable artifact name of the criterion.
    pub fn as_str(&self) -> &'static str {
        match self {
            Criterion::Gini => "gini",
            Criterion::Entropy => "entropy",
            Criterion::Mse => "mse",
        }
    }

    /// Inverse of [`Criterion::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "gini" => Ok(Criterion::Gini),
            "entropy" => Ok(Criterion::Entropy),
            "mse" => Ok(Criterion::Mse),
            other => Err(format!("unknown criterion {other:?}")),
        }
    }
}

impl MaxFeatures {
    /// Serialize to the artifact encoding (a tag string, or `{fraction}` /
    /// `{count}` objects for the parameterized variants).
    pub fn to_json(&self) -> Json {
        match *self {
            MaxFeatures::All => Json::from("all"),
            MaxFeatures::Sqrt => Json::from("sqrt"),
            MaxFeatures::Log2 => Json::from("log2"),
            MaxFeatures::Fraction(f) => Json::obj([("fraction", jsonio::num(f))]),
            MaxFeatures::Count(c) => Json::obj([("count", Json::from(c))]),
        }
    }

    /// Inverse of [`MaxFeatures::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if let Some(s) = j.as_str() {
            return match s {
                "all" => Ok(MaxFeatures::All),
                "sqrt" => Ok(MaxFeatures::Sqrt),
                "log2" => Ok(MaxFeatures::Log2),
                other => Err(format!("unknown max_features {other:?}")),
            };
        }
        if let Some(f) = j.get("fraction") {
            return Ok(MaxFeatures::Fraction(jsonio::as_f64(f)?));
        }
        if let Some(c) = j.get("count") {
            return Ok(MaxFeatures::Count(jsonio::as_usize(c)?));
        }
        Err("unknown max_features encoding".to_string())
    }
}

impl TreeParams {
    /// Serialize the hyperparameters to the artifact encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("criterion", Json::from(self.criterion.as_str())),
            ("max_depth", jsonio::opt_usize(self.max_depth)),
            ("min_samples_split", Json::from(self.min_samples_split)),
            ("min_samples_leaf", Json::from(self.min_samples_leaf)),
            ("max_features", self.max_features.to_json()),
            ("splitter", Json::from(self.splitter.as_str())),
            (
                "min_impurity_decrease",
                jsonio::num(self.min_impurity_decrease),
            ),
            ("seed", jsonio::u64_str(self.seed)),
        ])
    }

    /// Inverse of [`TreeParams::to_json`]. Fields it does not read are
    /// ignored: older artifacts also carry a histogram bin budget, which
    /// no fit reads any more.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(TreeParams {
            criterion: Criterion::parse(jsonio::as_str(jsonio::field(j, "criterion")?)?)?,
            max_depth: jsonio::as_opt_usize(jsonio::field(j, "max_depth")?)?,
            min_samples_split: jsonio::as_usize(jsonio::field(j, "min_samples_split")?)?,
            min_samples_leaf: jsonio::as_usize(jsonio::field(j, "min_samples_leaf")?)?,
            max_features: MaxFeatures::from_json(jsonio::field(j, "max_features")?)?,
            splitter: Splitter::parse(jsonio::as_str(jsonio::field(j, "splitter")?)?)?,
            min_impurity_decrease: jsonio::as_f64(jsonio::field(j, "min_impurity_decrease")?)?,
            seed: jsonio::as_u64(jsonio::field(j, "seed")?)?,
        })
    }
}

fn node_to_json(node: &Node) -> Json {
    match node {
        Node::Leaf { dist } => Json::obj([("dist", jsonio::nums(dist))]),
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => Json::obj([
            ("f", Json::from(*feature)),
            ("t", jsonio::num(*threshold)),
            ("l", Json::from(*left)),
            ("r", Json::from(*right)),
        ]),
    }
}

fn node_from_json(j: &Json) -> Result<Node, String> {
    if let Some(dist) = j.get("dist") {
        return Ok(Node::Leaf {
            dist: jsonio::f64_vec(dist)?,
        });
    }
    Ok(Node::Split {
        feature: jsonio::as_usize(jsonio::field(j, "f")?)?,
        threshold: jsonio::as_f64(jsonio::field(j, "t")?)?,
        left: jsonio::as_usize(jsonio::field(j, "l")?)?,
        right: jsonio::as_usize(jsonio::field(j, "r")?)?,
    })
}

impl DecisionTree {
    /// Serialize the fitted tree (params, node array, importances) for the
    /// model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("params", self.params.to_json()),
            ("n_classes", Json::from(self.n_classes)),
            ("n_features", Json::from(self.n_features)),
            ("importances", jsonio::nums(&self.importances)),
            ("nodes", Json::arr(self.nodes.iter().map(node_to_json))),
        ])
    }

    /// Inverse of [`DecisionTree::to_json`]. The node array is validated
    /// so a corrupt artifact fails here rather than panicking or looping
    /// at predict time: both builders write pre-order arrays, so every
    /// child index must exceed its parent's (no cycles, `apply` always
    /// ends at a leaf), every split feature must exist, and every leaf
    /// must carry `n_classes` probabilities (one value for regression).
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let nodes: Vec<Node> = jsonio::field(j, "nodes")?
            .as_arr()
            .ok_or_else(|| "nodes must be an array".to_string())?
            .iter()
            .map(node_from_json)
            .collect::<Result<_, _>>()?;
        if nodes.is_empty() {
            return Err("tree has no nodes".to_string());
        }
        let n_classes = jsonio::as_usize(jsonio::field(j, "n_classes")?)?;
        let n_features = jsonio::as_usize(jsonio::field(j, "n_features")?)?;
        let leaf_len = n_classes.max(1);
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *left <= i || *right <= i || *left >= nodes.len() || *right >= nodes.len() {
                        return Err(format!("tree node {i}: child index out of order"));
                    }
                    if *feature >= n_features {
                        return Err(format!("tree node {i}: feature {feature} of {n_features}"));
                    }
                }
                Node::Leaf { dist } => {
                    if dist.len() != leaf_len {
                        return Err(format!(
                            "tree node {i}: leaf holds {} values, expected {leaf_len}",
                            dist.len()
                        ));
                    }
                }
            }
        }
        Ok(DecisionTree {
            params: TreeParams::from_json(jsonio::field(j, "params")?)?,
            nodes,
            n_classes,
            n_features,
            importances: jsonio::f64_vec(jsonio::field(j, "importances")?)?,
        })
    }
}

/// Load-time check on an ensemble's member trees, so that a corrupt
/// artifact fails at load rather than at predict: there is at least one
/// member, and every member has `n_classes` classes (0 for regression
/// trees).
pub(crate) fn check_members<'a>(
    members: impl IntoIterator<Item = &'a DecisionTree>,
    n_classes: usize,
) -> Result<(), String> {
    let mut count = 0;
    for tree in members {
        if tree.n_classes != n_classes {
            return Err(format!(
                "member {count} has {} classes, expected {n_classes}",
                tree.n_classes
            ));
        }
        count += 1;
    }
    if count == 0 {
        return Err("ensemble has no members".to_string());
    }
    Ok(())
}

/// Fit-path counters (no-ops unless `em-obs` tracing is active).
static EXACT_FITS: em_obs::Counter = em_obs::Counter::new("tree.exact_fits");
static NODES: em_obs::Counter = em_obs::Counter::new("tree.nodes");

/// Fit-time input checks, run before any per-fit preparation.
fn check_classifier_inputs(x: &Matrix, y: &[usize], n_classes: usize, params: &TreeParams) {
    assert_ne!(
        params.criterion,
        Criterion::Mse,
        "use fit_regressor for MSE"
    );
    assert_eq!(x.nrows(), y.len(), "X/y length mismatch");
    check_features(x);
    assert!(y.iter().all(|&c| c < n_classes), "label out of range");
}

fn check_regressor_inputs(x: &Matrix, targets: &[f64]) {
    assert_eq!(x.nrows(), targets.len(), "X/y length mismatch");
    check_features(x);
}

fn check_features(x: &Matrix) {
    assert!(x.nrows() > 0, "cannot fit a tree on zero samples");
    // The engine indexes a tree's rows as `u32`.
    assert!(
        u32::try_from(x.nrows()).is_ok(),
        "too many rows for one tree"
    );
    assert!(!x.has_nan(), "NaN features: impute before fitting trees");
}

/// One pass over a node's rows, in ascending row order: impurity and leaf
/// payload, plus the total weight the split scans start from.
pub(crate) struct NodeStats {
    pub(crate) impurity: f64,
    pub(crate) leaf_dist: Vec<f64>,
    /// `Σ w[i]` over the rows.
    pub(crate) total_w: f64,
}

/// [`NodeStats`] of `rows`.
pub(crate) fn node_stats(
    target: &Target<'_>,
    w: &[f64],
    rows: &[u32],
    criterion: Criterion,
) -> NodeStats {
    match target {
        Target::Classes { y, n_classes } => {
            let mut counts = vec![0.0f64; *n_classes];
            let mut tw = 0.0f64;
            for &i in rows {
                let i = i as usize;
                counts[y[i]] += w[i];
                tw += w[i];
            }
            let total: f64 = counts.iter().sum();
            let impurity = impurity_from_counts(&counts, total, criterion);
            let leaf_dist = if total > 0.0 {
                counts.iter().map(|c| c / total).collect()
            } else {
                vec![1.0 / *n_classes as f64; *n_classes]
            };
            NodeStats {
                impurity,
                leaf_dist,
                total_w: tw,
            }
        }
        Target::Values(t) => {
            let mut sw = 0.0;
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for &i in rows {
                let i = i as usize;
                sw += w[i];
                sum += w[i] * t[i];
                sum_sq += w[i] * t[i] * t[i];
            }
            let mean = if sw > 0.0 { sum / sw } else { 0.0 };
            let var = if sw > 0.0 {
                (sum_sq / sw - mean * mean).max(0.0)
            } else {
                0.0
            };
            NodeStats {
                impurity: var,
                leaf_dist: vec![mean],
                total_w: sw,
            }
        }
    }
}

/// The CART inner loop: every threshold between distinct values of
/// feature `f`, over the node's rows `order` sorted by `(value, row)` (the
/// presorted engine's node segment).
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_threshold_sorted(
    x: &Matrix,
    target: &Target<'_>,
    w: &[f64],
    order: &[u32],
    f: usize,
    parent_imp: f64,
    total_w: f64,
    min_leaf: usize,
    criterion: Criterion,
) -> Option<(f64, f64)> {
    let n = order.len();
    let mut v_here = x.get(order[0] as usize, f);
    let mut best: Option<(f64, f64)> = None;
    match target {
        Target::Classes { y, n_classes } => {
            let mut left_counts = vec![0.0f64; *n_classes];
            let mut right_counts = vec![0.0f64; *n_classes];
            for &i in order {
                right_counts[y[i as usize]] += w[i as usize];
            }
            let mut left_w = 0.0;
            for pos in 0..n - 1 {
                let i = order[pos] as usize;
                left_counts[y[i]] += w[i];
                right_counts[y[i]] -= w[i];
                left_w += w[i];
                let v_next = x.get(order[pos + 1] as usize, f);
                let v = std::mem::replace(&mut v_here, v_next);
                if v == v_next || pos + 1 < min_leaf || n - pos - 1 < min_leaf {
                    continue;
                }
                let right_w = total_w - left_w;
                let imp_l = impurity_from_counts(&left_counts, left_w, criterion);
                let imp_r = impurity_from_counts(&right_counts, right_w, criterion);
                let gain = parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((midpoint(v, v_next), gain));
                }
            }
        }
        Target::Values(t) => {
            let mut left_w = 0.0;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let (mut right_w, mut right_sum, mut right_sq) = (0.0, 0.0, 0.0);
            for &i in order {
                let i = i as usize;
                right_w += w[i];
                right_sum += w[i] * t[i];
                right_sq += w[i] * t[i] * t[i];
            }
            for pos in 0..n - 1 {
                let i = order[pos] as usize;
                left_w += w[i];
                left_sum += w[i] * t[i];
                left_sq += w[i] * t[i] * t[i];
                right_w -= w[i];
                right_sum -= w[i] * t[i];
                right_sq -= w[i] * t[i] * t[i];
                let v_next = x.get(order[pos + 1] as usize, f);
                let v = std::mem::replace(&mut v_here, v_next);
                if v == v_next || pos + 1 < min_leaf || n - pos - 1 < min_leaf {
                    continue;
                }
                let imp_l = variance_from_sums(left_w, left_sum, left_sq);
                let imp_r = variance_from_sums(right_w, right_sum, right_sq);
                let gain = parent_imp - (left_w * imp_l + right_w * imp_r) / total_w;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((midpoint(v, v_next), gain));
                }
            }
        }
    }
    best
}

fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

pub(crate) fn impurity_from_counts(counts: &[f64], total: f64, criterion: Criterion) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    match criterion {
        Criterion::Gini => {
            let mut s = 0.0;
            for &c in counts {
                let p = c / total;
                s += p * p;
            }
            1.0 - s
        }
        Criterion::Entropy => {
            let mut h = 0.0;
            for &c in counts {
                if c > 0.0 {
                    let p = c / total;
                    h -= p * p.log2();
                }
            }
            h
        }
        Criterion::Mse => unreachable!("MSE uses variance_from_sums"),
    }
}

pub(crate) fn variance_from_sums(w: f64, sum: f64, sum_sq: f64) -> f64 {
    if w <= 0.0 {
        return 0.0;
    }
    let mean = sum / w;
    (sum_sq / w - mean * mean).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AdaBoostClassifier, AdaBoostParams, Classifier, ForestParams, GradientBoostingClassifier,
        GradientBoostingParams, RandomForestClassifier,
    };

    /// Two well-separated clusters on one feature.
    fn separable() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 / 100.0, 0.5]);
            y.push(0);
        }
        for i in 0..20 {
            rows.push(vec![0.8 + i as f64 / 100.0, 0.5]);
            y.push(1);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        assert_eq!(t.predict(&x), y);
        // Should need exactly one split.
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn max_depth_limits_growth() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 1, 0, 1]; // needs depth >= 2
        let p = TreeParams {
            max_depth: Some(1),
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = separable();
        let p = TreeParams {
            min_samples_leaf: 15,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        // 40 samples, leaves must have >= 15 each: the 20/20 split is legal.
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn weighted_samples_shift_the_split() {
        // One mislabeled point with huge weight dominates.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 1, 1];
        let w = vec![1.0, 100.0, 1.0, 1.0];
        let t = DecisionTree::fit_classifier(&x, &y, 2, Some(&w), TreeParams::default());
        // Prediction at x=1 must be class 0 with high confidence.
        let p = t.predict_proba(&Matrix::from_rows(&[vec![1.0]]));
        assert!(p.get(0, 0) > 0.9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        let p = t.predict_proba(&x);
        for r in 0..p.nrows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_criterion_works() {
        let (x, y) = separable();
        let p = TreeParams {
            criterion: Criterion::Entropy,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x = Matrix::from_rows(&(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let t_vals: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let tree = DecisionTree::fit_regressor(&x, &t_vals, None, TreeParams::default());
        let pred = tree.predict_values(&x);
        for (p, t) in pred.iter().zip(&t_vals) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn random_splitter_still_learns() {
        let (x, y) = separable();
        let p = TreeParams {
            splitter: Splitter::Random,
            seed: 3,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        let acc =
            t.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = separable();
        let p = TreeParams {
            max_features: MaxFeatures::Count(1),
            seed: 9,
            ..TreeParams::default()
        };
        let a = DecisionTree::fit_classifier(&x, &y, 2, None, p.clone());
        let b = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.n_nodes(), b.n_nodes());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Log2.resolve(8), 3);
        assert_eq!(MaxFeatures::Fraction(0.5).resolve(10), 5);
        assert_eq!(MaxFeatures::Fraction(0.0).resolve(10), 1);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
    }

    #[test]
    #[should_panic(expected = "NaN features")]
    fn nan_features_rejected() {
        let x = Matrix::from_rows(&[vec![f64::NAN], vec![1.0]]);
        let _ = DecisionTree::fit_classifier(&x, &[0, 1], 2, None, TreeParams::default());
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let (x, y) = separable();
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
        let imp = t.feature_importances();
        // Feature 0 separates the classes; feature 1 is constant.
        assert!(imp[0] > 0.99, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn importances_zero_without_splits() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let t = DecisionTree::fit_classifier(&x, &[1, 1], 2, None, TreeParams::default());
        assert_eq!(t.feature_importances(), vec![0.0]);
    }

    #[test]
    fn min_impurity_decrease_prunes() {
        // Nearly-pure data: a split would gain almost nothing.
        let x = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut y = vec![0usize; 100];
        y[99] = 1;
        let p = TreeParams {
            min_impurity_decrease: 0.5,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit_classifier(&x, &y, 2, None, p);
        assert_eq!(t.n_nodes(), 1);
    }

    /// A tree document over one feature and two classes with `nodes`.
    fn tree_doc(nodes: &str) -> Json {
        let params = TreeParams::default().to_json().render();
        let text = format!(
            r#"{{"params": {params}, "n_classes": 2, "n_features": 1,
                "importances": [1], "nodes": {nodes}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn corrupt_node_arrays_are_rejected_at_load() {
        let ok =
            tree_doc(r#"[{"f": 0, "t": 0.5, "l": 1, "r": 2}, {"dist": [1, 0]}, {"dist": [0, 1]}]"#);
        let tree = DecisionTree::from_json(&ok).expect("a well-formed tree loads");
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert_eq!(tree.predict(&x), vec![0, 1]);
        for (what, nodes) in [
            // `predict_proba` would loop forever on rows going left.
            (
                "a split whose child is itself",
                r#"[{"f": 0, "t": 0.5, "l": 0, "r": 1}, {"dist": [1, 0]}]"#,
            ),
            // `apply` would index past the row.
            (
                "a split on a feature the tree does not have",
                r#"[{"f": 7, "t": 0.5, "l": 1, "r": 2}, {"dist": [1, 0]}, {"dist": [0, 1]}]"#,
            ),
            // `predict_proba` would copy one value into a two-class row.
            ("a leaf with one class of two", r#"[{"dist": [1]}]"#),
        ] {
            assert!(
                DecisionTree::from_json(&tree_doc(nodes)).is_err(),
                "{what} loaded"
            );
        }
    }

    #[test]
    fn parent_format_params_load_with_every_other_field_equal() {
        // As written while a histogram engine existed: every params
        // document with a bin budget, the boosters' with a splitter too.
        let n_bins = |doc| jsonio::with_field(doc, "n_bins", Json::from(256usize));
        let splitter = |doc| jsonio::with_field(n_bins(doc), "splitter", Json::from("best"));
        let tree = TreeParams {
            criterion: Criterion::Entropy,
            max_depth: Some(6),
            splitter: Splitter::Random,
            seed: 9,
            ..TreeParams::default()
        };
        assert_eq!(TreeParams::from_json(&n_bins(tree.to_json())), Ok(tree));
        let forest = ForestParams {
            n_estimators: 40,
            max_features: MaxFeatures::Fraction(0.5),
            bootstrap: false,
            ..ForestParams::default()
        };
        assert_eq!(
            ForestParams::from_json(&n_bins(forest.to_json())),
            Ok(forest)
        );
        let ada = AdaBoostParams {
            learning_rate: 0.5,
            seed: 4,
            ..AdaBoostParams::default()
        };
        assert_eq!(AdaBoostParams::from_json(&splitter(ada.to_json())), Ok(ada));
        let gbm = GradientBoostingParams {
            subsample: 0.75,
            seed: 5,
            ..GradientBoostingParams::default()
        };
        let loaded = GradientBoostingParams::from_json(&splitter(gbm.to_json()));
        assert_eq!(loaded, Ok(gbm));
    }

    #[test]
    fn binned_splitter_is_rejected() {
        assert!(Splitter::parse("binned").is_err());
        let doc = jsonio::with_field(TreeParams::default().to_json(), "splitter", "binned".into());
        let err = TreeParams::from_json(&doc).unwrap_err();
        assert!(err.contains("unknown splitter"), "{err}");
    }

    // Ensemble loaders: predict cannot serve any document below (the
    // comments say how it fails), so loading must.

    /// `model` fitted on [`separable`] and saved, with field `key` set to
    /// `value`.
    fn saved_with(mut model: impl Classifier, key: &str, value: Json) -> Json {
        let (x, y) = separable();
        model.fit(&x, &y, 2, None);
        jsonio::with_field(model.save_json(), key, value)
    }

    /// A saved one-feature tree with `n_classes` classes (0: regression).
    fn member(n_classes: usize) -> Json {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let tree = match n_classes {
            0 => DecisionTree::fit_regressor(&x, &[0.0, 1.0], None, TreeParams::default()),
            k => DecisionTree::fit_classifier(&x, &[0, 1], k, None, TreeParams::default()),
        };
        tree.to_json()
    }

    fn forest() -> RandomForestClassifier {
        RandomForestClassifier::new(ForestParams::default())
    }

    fn adaboost() -> AdaBoostClassifier {
        AdaBoostClassifier::new(AdaBoostParams::default())
    }

    fn gbm() -> GradientBoostingClassifier {
        GradientBoostingClassifier::new(GradientBoostingParams::default())
    }

    #[test]
    fn forest_without_trees_is_rejected_at_load() {
        // "fit before predicting"
        let doc = saved_with(forest(), "trees", Json::arr([]));
        assert!(RandomForestClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn forest_whose_trees_have_other_classes_is_rejected_at_load() {
        // One class over two-class trees: index out of bounds.
        let doc = saved_with(forest(), "n_classes", Json::from(1usize));
        assert!(RandomForestClassifier::from_json(&doc).is_err());
        // No classes over regression trees: the same.
        let doc = saved_with(forest(), "n_classes", Json::from(0usize));
        let doc = jsonio::with_field(doc, "trees", Json::arr([member(0)]));
        assert!(RandomForestClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn adaboost_without_stages_is_rejected_at_load() {
        // "fit before predicting"
        let doc = saved_with(adaboost(), "stages", Json::arr([]));
        assert!(AdaBoostClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn adaboost_whose_stages_have_other_classes_is_rejected_at_load() {
        // One class over two-class stages: index out of bounds.
        let doc = saved_with(adaboost(), "n_classes", Json::from(1usize));
        assert!(AdaBoostClassifier::from_json(&doc).is_err());
        // No classes over a regression tree: "regression tree has no
        // probabilities".
        let stage = Json::obj([("alpha", Json::from(1.0)), ("tree", member(0))]);
        let doc = saved_with(adaboost(), "n_classes", Json::from(0usize));
        let doc = jsonio::with_field(doc, "stages", Json::arr([stage]));
        assert!(AdaBoostClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn gbm_without_trees_is_rejected_at_load() {
        // "fit before predicting"
        let doc = saved_with(gbm(), "trees", Json::arr([]));
        assert!(GradientBoostingClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn gbm_with_a_classification_tree_is_rejected_at_load() {
        // "classification tree has no values"
        let doc = saved_with(gbm(), "trees", Json::arr([member(2)]));
        assert!(GradientBoostingClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn gbm_that_is_not_binary_is_rejected_at_load() {
        // Would report three classes over two probability columns.
        let doc = saved_with(gbm(), "n_classes", Json::from(3usize));
        assert!(GradientBoostingClassifier::from_json(&doc).is_err());
    }
}
