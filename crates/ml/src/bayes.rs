//! Gaussian naive Bayes — one of the "all-model" search-space members
//! (paper Fig. 4 lists Naive Bayes among Magellan's candidate models).

use crate::jsonio;
use crate::matrix::Matrix;
use crate::Classifier;
use em_rt::Json;

/// Gaussian-NB hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNbParams {
    /// Portion of the largest feature variance added to every variance for
    /// numerical stability (sklearn's `var_smoothing`).
    pub var_smoothing: f64,
}

impl Default for GaussianNbParams {
    fn default() -> Self {
        GaussianNbParams {
            var_smoothing: 1e-9,
        }
    }
}

/// Gaussian naive Bayes classifier with weighted maximum-likelihood
/// estimates of per-class feature means and variances.
#[derive(Debug, Clone)]
pub struct GaussianNb {
    /// Hyperparameters.
    pub params: GaussianNbParams,
    // per class: prior, per-feature mean, per-feature variance
    class_log_prior: Vec<f64>,
    means: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    n_classes: usize,
}

impl GaussianNb {
    /// Create an unfitted model.
    pub fn new(params: GaussianNbParams) -> Self {
        GaussianNb {
            params,
            class_log_prior: Vec::new(),
            means: Vec::new(),
            variances: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for GaussianNb {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        let n = x.nrows();
        let d = x.ncols();
        let w: Vec<f64> = sample_weight.map_or_else(|| vec![1.0; n], <[f64]>::to_vec);
        self.n_classes = n_classes;
        let mut class_w = vec![0.0f64; n_classes];
        let mut sums = vec![vec![0.0f64; d]; n_classes];
        let mut sq_sums = vec![vec![0.0f64; d]; n_classes];
        for (r, row) in x.rows_iter().enumerate() {
            let c = y[r];
            class_w[c] += w[r];
            for (j, &v) in row.iter().enumerate() {
                sums[c][j] += w[r] * v;
                sq_sums[c][j] += w[r] * v * v;
            }
        }
        let total_w: f64 = class_w.iter().sum();
        self.means = Vec::with_capacity(n_classes);
        self.variances = Vec::with_capacity(n_classes);
        self.class_log_prior = Vec::with_capacity(n_classes);
        let mut max_var = 0.0f64;
        let mut raw_vars = vec![vec![0.0f64; d]; n_classes];
        for c in 0..n_classes {
            for j in 0..d {
                if class_w[c] > 0.0 {
                    let m = sums[c][j] / class_w[c];
                    let v = (sq_sums[c][j] / class_w[c] - m * m).max(0.0);
                    raw_vars[c][j] = v;
                    max_var = max_var.max(v);
                }
            }
        }
        let eps = self.params.var_smoothing * max_var.max(1e-12);
        for c in 0..n_classes {
            let prior = if total_w > 0.0 && class_w[c] > 0.0 {
                (class_w[c] / total_w).ln()
            } else {
                f64::NEG_INFINITY
            };
            self.class_log_prior.push(prior);
            let mean_c: Vec<f64> = (0..d)
                .map(|j| {
                    if class_w[c] > 0.0 {
                        sums[c][j] / class_w[c]
                    } else {
                        0.0
                    }
                })
                .collect();
            let var_c: Vec<f64> = (0..d).map(|j| raw_vars[c][j] + eps).collect();
            self.means.push(mean_c);
            self.variances.push(var_c);
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.means.is_empty(), "fit before predicting");
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            let log_probs: Vec<f64> = (0..self.n_classes)
                .map(|c| {
                    let mut lp = self.class_log_prior[c];
                    if lp.is_finite() {
                        for (j, &v) in row.iter().enumerate() {
                            let var = self.variances[c][j];
                            let diff = v - self.means[c][j];
                            lp += -0.5
                                * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var);
                        }
                    }
                    lp
                })
                .collect();
            // Log-sum-exp normalization.
            let m = log_probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let denom: f64 = log_probs.iter().map(|&lp| (lp - m).exp()).sum();
            for (c, &lp) in log_probs.iter().enumerate() {
                out.set(r, c, (lp - m).exp() / denom);
            }
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

impl GaussianNb {
    /// Serialize the fitted model for the model artifact. Log-priors can be
    /// `-inf` (a class absent from the training data), which the shared
    /// helpers encode as the string `"-inf"`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj([("var_smoothing", jsonio::num(self.params.var_smoothing))]),
            ),
            ("class_log_prior", jsonio::nums(&self.class_log_prior)),
            (
                "means",
                Json::arr(self.means.iter().map(|m| jsonio::nums(m))),
            ),
            (
                "variances",
                Json::arr(self.variances.iter().map(|v| jsonio::nums(v))),
            ),
            ("n_classes", Json::from(self.n_classes)),
        ])
    }

    /// Inverse of [`GaussianNb::to_json`]. Rejects a document predict
    /// could not serve: per-class lists that do not have one entry per
    /// class, or mean/variance rows of unequal width.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let p = jsonio::field(j, "params")?;
        let rows = |key: &str| -> Result<Vec<Vec<f64>>, String> {
            jsonio::field(j, key)?
                .as_arr()
                .ok_or_else(|| format!("{key} must be an array"))?
                .iter()
                .map(jsonio::f64_vec)
                .collect()
        };
        let class_log_prior = jsonio::f64_vec(jsonio::field(j, "class_log_prior")?)?;
        let means = rows("means")?;
        let variances = rows("variances")?;
        let n_classes = jsonio::as_usize(jsonio::field(j, "n_classes")?)?;
        for (key, len) in [
            ("class_log_prior", class_log_prior.len()),
            ("means", means.len()),
            ("variances", variances.len()),
        ] {
            if len != n_classes {
                return Err(format!(
                    "naive Bayes {key} has {len} entries for {n_classes} classes"
                ));
            }
        }
        let width = means.first().map_or(0, Vec::len);
        if means.iter().chain(&variances).any(|r| r.len() != width) {
            return Err("naive Bayes mean/variance rows differ in width".to_string());
        }
        Ok(GaussianNb {
            params: GaussianNbParams {
                var_smoothing: jsonio::as_f64(jsonio::field(p, "var_smoothing")?)?,
            },
            class_log_prior,
            means,
            variances,
            n_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = em_rt::StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let mu = if c == 0 { -1.0 } else { 1.0 };
            rows.push(vec![
                mu + rng.random_range(-0.5..0.5),
                mu + rng.random_range(-0.5..0.5),
            ]);
            y.push(c);
        }
        (Matrix::from_rows(&rows), y)
    }

    // Loader: predict cannot serve any document below (every one indexes
    // past the end of a per-class list or a mean/variance row), so loading
    // must.

    /// The default model fitted on two-feature blobs and saved, with field
    /// `key` set to `value`.
    fn saved_with(key: &str, value: Json) -> Json {
        let (x, y) = gaussian_blobs(40, 3);
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, None);
        jsonio::with_field(nb.to_json(), key, value)
    }

    fn rows_json(rows: &[&[f64]]) -> Json {
        Json::arr(rows.iter().map(|r| jsonio::nums(r)))
    }

    #[test]
    fn priors_for_fewer_classes_are_rejected_at_load() {
        let doc = saved_with("class_log_prior", jsonio::nums(&[-0.7]));
        assert!(GaussianNb::from_json(&doc).is_err());
    }

    #[test]
    fn means_for_fewer_classes_are_rejected_at_load() {
        let doc = saved_with("means", rows_json(&[&[0.0, 0.0]]));
        assert!(GaussianNb::from_json(&doc).is_err());
    }

    #[test]
    fn variances_for_fewer_classes_are_rejected_at_load() {
        let doc = saved_with("variances", rows_json(&[&[1.0, 1.0]]));
        assert!(GaussianNb::from_json(&doc).is_err());
    }

    #[test]
    fn mean_rows_of_unequal_width_are_rejected_at_load() {
        let doc = saved_with("means", rows_json(&[&[-1.0, -1.0], &[1.0]]));
        assert!(GaussianNb::from_json(&doc).is_err());
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = gaussian_blobs(300, 1);
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, None);
        let acc = nb
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn priors_reflect_imbalance() {
        // 90/10 class split, identical features: prediction follows the prior.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            rows.push(vec![0.0]);
            y.push(usize::from(i >= 90));
        }
        let x = Matrix::from_rows(&rows);
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, None);
        let p = nb.predict_proba(&Matrix::from_rows(&[vec![0.0]]));
        assert!(p.get(0, 0) > 0.85);
    }

    #[test]
    fn sample_weights_change_priors() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0]]);
        let y = vec![0, 1];
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, Some(&[9.0, 1.0]));
        let p = nb.predict_proba(&Matrix::from_rows(&[vec![0.0]]));
        assert!((p.get(0, 0) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let (x, y) = gaussian_blobs(100, 2);
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, None);
        let p = nb.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_variance_features_do_not_crash() {
        // Constant feature alongside an informative one.
        let x = Matrix::from_rows(&[
            vec![1.0, -1.0],
            vec![1.0, 1.0],
            vec![1.0, -1.2],
            vec![1.0, 1.2],
        ]);
        let y = vec![0, 1, 0, 1];
        let mut nb = GaussianNb::new(GaussianNbParams::default());
        nb.fit(&x, &y, 2, None);
        assert_eq!(nb.predict(&x), y);
    }
}
