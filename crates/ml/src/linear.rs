//! Linear models: logistic regression (full-batch gradient descent with L2)
//! and a linear SVM trained with the Pegasos SGD scheme. Both are members of
//! the "all-model" AutoML search space (paper Fig. 4).

use crate::jsonio;
use crate::matrix::Matrix;
use crate::Classifier;
use em_rt::Json;
use em_rt::SliceRandom;
use em_rt::StdRng;

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionParams {
    /// L2 regularization strength (sklearn's `1/C`).
    pub alpha: f64,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Number of full-batch iterations.
    pub max_iter: usize,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            alpha: 1e-4,
            learning_rate: 0.5,
            max_iter: 300,
        }
    }
}

/// Binary logistic regression.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Hyperparameters.
    pub params: LogisticRegressionParams,
    weights: Vec<f64>,
    bias: f64,
    n_classes: usize,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Create an unfitted model.
    pub fn new(params: LogisticRegressionParams) -> Self {
        LogisticRegression {
            params,
            weights: Vec::new(),
            bias: 0.0,
            n_classes: 0,
        }
    }

    /// Raw decision function `w·x + b` per sample.
    pub fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.weights.is_empty(), "fit before predicting");
        x.rows_iter()
            .map(|row| {
                row.iter()
                    .zip(&self.weights)
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>()
                    + self.bias
            })
            .collect()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        assert_eq!(n_classes, 2, "LogisticRegression is binary-only");
        self.n_classes = 2;
        let n = x.nrows();
        let d = x.ncols();
        let w_samples: Vec<f64> = sample_weight.map_or_else(|| vec![1.0; n], <[f64]>::to_vec);
        let wsum: f64 = w_samples.iter().sum();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        for _ in 0..self.params.max_iter {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (r, row) in x.rows_iter().enumerate() {
                let z: f64 = row
                    .iter()
                    .zip(&self.weights)
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>()
                    + self.bias;
                let err = sigmoid(z) - y[r] as f64;
                let scaled = w_samples[r] * err;
                for (g, xi) in grad_w.iter_mut().zip(row) {
                    *g += scaled * xi;
                }
                grad_b += scaled;
            }
            let lr = self.params.learning_rate;
            for (wi, g) in self.weights.iter_mut().zip(&grad_w) {
                *wi -= lr * (g / wsum + self.params.alpha * *wi);
            }
            self.bias -= lr * grad_b / wsum;
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let f = self.decision_function(x);
        let mut out = Matrix::zeros(x.nrows(), 2);
        for (r, &z) in f.iter().enumerate() {
            let p = sigmoid(z);
            out.set(r, 0, 1.0 - p);
            out.set(r, 1, p);
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl LogisticRegression {
    /// Serialize the fitted model (weights + bias) for the model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj([
                    ("alpha", jsonio::num(self.params.alpha)),
                    ("learning_rate", jsonio::num(self.params.learning_rate)),
                    ("max_iter", Json::from(self.params.max_iter)),
                ]),
            ),
            ("weights", jsonio::nums(&self.weights)),
            ("bias", jsonio::num(self.bias)),
            ("n_classes", Json::from(self.n_classes)),
        ])
    }

    /// Inverse of [`LogisticRegression::to_json`]. Rejects an empty weight vector,
    /// which predict cannot serve.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let p = jsonio::field(j, "params")?;
        let weights = nonempty_weights(j)?;
        Ok(LogisticRegression {
            params: LogisticRegressionParams {
                alpha: jsonio::as_f64(jsonio::field(p, "alpha")?)?,
                learning_rate: jsonio::as_f64(jsonio::field(p, "learning_rate")?)?,
                max_iter: jsonio::as_usize(jsonio::field(p, "max_iter")?)?,
            },
            weights,
            bias: jsonio::as_f64(jsonio::field(j, "bias")?)?,
            n_classes: jsonio::as_usize(jsonio::field(j, "n_classes")?)?,
        })
    }
}

/// Linear-SVM hyperparameters (Pegasos).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvmParams {
    /// Regularization strength λ.
    pub lambda: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// RNG seed for the per-epoch shuffle.
    pub seed: u64,
}

impl Default for LinearSvmParams {
    fn default() -> Self {
        LinearSvmParams {
            lambda: 1e-3,
            epochs: 30,
            seed: 0,
        }
    }
}

/// Binary linear SVM trained with the Pegasos stochastic subgradient method.
/// `predict_proba` maps the margin through a sigmoid (a cheap Platt-style
/// calibration) so the model can participate in probability-based pipelines.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Hyperparameters.
    pub params: LinearSvmParams,
    weights: Vec<f64>,
    bias: f64,
    n_classes: usize,
}

impl LinearSvm {
    /// Create an unfitted model.
    pub fn new(params: LinearSvmParams) -> Self {
        LinearSvm {
            params,
            weights: Vec::new(),
            bias: 0.0,
            n_classes: 0,
        }
    }

    /// Raw margin `w·x + b` per sample.
    pub fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.weights.is_empty(), "fit before predicting");
        x.rows_iter()
            .map(|row| {
                row.iter()
                    .zip(&self.weights)
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>()
                    + self.bias
            })
            .collect()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        assert_eq!(n_classes, 2, "LinearSvm is binary-only");
        self.n_classes = 2;
        let n = x.nrows();
        let d = x.ncols();
        let w_samples: Vec<f64> = sample_weight.map_or_else(|| vec![1.0; n], <[f64]>::to_vec);
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let lambda = self.params.lambda.max(1e-9);
        let mut t = 0usize;
        for _ in 0..self.params.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (lambda * t as f64);
                let yi = if y[i] == 1 { 1.0 } else { -1.0 };
                let row = x.row(i);
                let margin: f64 = row
                    .iter()
                    .zip(&self.weights)
                    .map(|(xi, wi)| xi * wi)
                    .sum::<f64>()
                    + self.bias;
                // Subgradient step with L2 shrinkage.
                for wi in self.weights.iter_mut() {
                    *wi *= 1.0 - eta * lambda;
                }
                if yi * margin < 1.0 {
                    let scale = eta * yi * w_samples[i];
                    for (wi, xi) in self.weights.iter_mut().zip(row) {
                        *wi += scale * xi;
                    }
                    self.bias += scale;
                }
            }
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let f = self.decision_function(x);
        let mut out = Matrix::zeros(x.nrows(), 2);
        for (r, &z) in f.iter().enumerate() {
            let p = sigmoid(z);
            out.set(r, 0, 1.0 - p);
            out.set(r, 1, p);
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn save_json(&self) -> Json {
        self.to_json()
    }
}

impl LinearSvm {
    /// Serialize the fitted model (weights + bias) for the model artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj([
                    ("lambda", jsonio::num(self.params.lambda)),
                    ("epochs", Json::from(self.params.epochs)),
                    ("seed", jsonio::u64_str(self.params.seed)),
                ]),
            ),
            ("weights", jsonio::nums(&self.weights)),
            ("bias", jsonio::num(self.bias)),
            ("n_classes", Json::from(self.n_classes)),
        ])
    }

    /// Inverse of [`LinearSvm::to_json`]. Rejects an empty weight vector,
    /// which predict cannot serve.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let p = jsonio::field(j, "params")?;
        let weights = nonempty_weights(j)?;
        Ok(LinearSvm {
            params: LinearSvmParams {
                lambda: jsonio::as_f64(jsonio::field(p, "lambda")?)?,
                epochs: jsonio::as_usize(jsonio::field(p, "epochs")?)?,
                seed: jsonio::as_u64(jsonio::field(p, "seed")?)?,
            },
            weights,
            bias: jsonio::as_f64(jsonio::field(j, "bias")?)?,
            n_classes: jsonio::as_usize(jsonio::field(j, "n_classes")?)?,
        })
    }
}

/// The `weights` field of a saved linear model; empty means unfitted, and
/// predict asserts "fit before predicting".
fn nonempty_weights(j: &Json) -> Result<Vec<f64>, String> {
    let weights = jsonio::f64_vec(jsonio::field(j, "weights")?)?;
    if weights.is_empty() {
        return Err("a linear model needs at least one weight".to_string());
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(-1.0..1.0);
            let b: f64 = rng.random_range(-1.0..1.0);
            rows.push(vec![a, b]);
            y.push(usize::from(a + b > 0.0));
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(pred: &[usize], y: &[usize]) -> f64 {
        pred.iter().zip(y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64
    }

    // Loader: an empty weight vector fails predict's "fit before
    // predicting", so loading must.

    fn fitted(mut model: impl Classifier) -> Json {
        let (x, y) = linear_data(50, 4);
        model.fit(&x, &y, 2, None);
        jsonio::with_field(model.save_json(), "weights", Json::arr([]))
    }

    #[test]
    fn logistic_without_weights_is_rejected_at_load() {
        let doc = fitted(LogisticRegression::new(LogisticRegressionParams::default()));
        assert!(LogisticRegression::from_json(&doc).is_err());
    }

    #[test]
    fn svm_without_weights_is_rejected_at_load() {
        let doc = fitted(LinearSvm::new(LinearSvmParams::default()));
        assert!(LinearSvm::from_json(&doc).is_err());
    }

    #[test]
    fn logistic_learns_linear_boundary() {
        let (x, y) = linear_data(400, 1);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y, 2, None);
        assert!(accuracy(&lr.predict(&x), &y) > 0.95);
    }

    #[test]
    fn logistic_probabilities_calibrated_direction() {
        let (x, y) = linear_data(400, 2);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y, 2, None);
        let deep_pos = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let deep_neg = Matrix::from_rows(&[vec![-1.0, -1.0]]);
        assert!(lr.predict_proba(&deep_pos).get(0, 1) > 0.9);
        assert!(lr.predict_proba(&deep_neg).get(0, 1) < 0.1);
    }

    #[test]
    fn logistic_sample_weights_shift_boundary() {
        // Same point twice with conflicting labels: the heavier one wins.
        let x = Matrix::from_rows(&[vec![0.5], vec![0.5]]);
        let y = vec![0, 1];
        let mut lr = LogisticRegression::new(LogisticRegressionParams {
            max_iter: 500,
            ..LogisticRegressionParams::default()
        });
        lr.fit(&x, &y, 2, Some(&[10.0, 1.0]));
        assert_eq!(lr.predict(&Matrix::from_rows(&[vec![0.5]]))[0], 0);
    }

    #[test]
    fn svm_learns_linear_boundary() {
        let (x, y) = linear_data(400, 3);
        let mut svm = LinearSvm::new(LinearSvmParams::default());
        svm.fit(&x, &y, 2, None);
        assert!(accuracy(&svm.predict(&x), &y) > 0.93);
    }

    #[test]
    fn svm_deterministic() {
        let (x, y) = linear_data(200, 4);
        let mut a = LinearSvm::new(LinearSvmParams {
            seed: 5,
            ..LinearSvmParams::default()
        });
        let mut b = LinearSvm::new(LinearSvmParams {
            seed: 5,
            ..LinearSvmParams::default()
        });
        a.fit(&x, &y, 2, None);
        b.fit(&x, &y, 2, None);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let (x, y) = linear_data(100, 6);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y, 2, None);
        let p = lr.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "binary-only")]
    fn logistic_rejects_multiclass() {
        let x = Matrix::from_rows(&[vec![0.0]]);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &[2], 3, None);
    }
}
