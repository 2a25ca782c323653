//! k-nearest-neighbors classifier (brute force, Euclidean distance) — one of
//! the "all-model" search-space members (paper Fig. 4's `KNeighborsClassifier`).

use crate::jsonio;
use crate::matrix::Matrix;
use crate::Classifier;
use em_rt::Json;

/// Neighbor weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeights {
    /// Each neighbor votes equally.
    Uniform,
    /// Votes weighted by inverse distance (exact matches dominate).
    Distance,
}

/// k-NN hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnParams {
    /// Number of neighbors consulted.
    pub k: usize,
    /// Vote weighting.
    pub weights: KnnWeights,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 5,
            weights: KnnWeights::Uniform,
        }
    }
}

/// Brute-force k-NN classifier. Stores the training data; prediction is
/// `O(n_train * n_query * d)`, fine at benchmark scale.
#[derive(Debug, Clone)]
pub struct KNeighborsClassifier {
    /// Hyperparameters.
    pub params: KnnParams,
    x_train: Option<Matrix>,
    y_train: Vec<usize>,
    sample_weight: Vec<f64>,
    n_classes: usize,
}

impl KNeighborsClassifier {
    /// Create an unfitted model.
    pub fn new(params: KnnParams) -> Self {
        KNeighborsClassifier {
            params,
            x_train: None,
            y_train: Vec::new(),
            sample_weight: Vec::new(),
            n_classes: 0,
        }
    }
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Classifier for KNeighborsClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize, sample_weight: Option<&[f64]>) {
        assert_eq!(x.nrows(), y.len(), "X/y length mismatch");
        self.x_train = Some(x.clone());
        self.y_train = y.to_vec();
        self.sample_weight = sample_weight.map_or_else(|| vec![1.0; y.len()], <[f64]>::to_vec);
        self.n_classes = n_classes;
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let train = self.x_train.as_ref().expect("fit before predicting");
        let k = self.params.k.clamp(1, train.nrows());
        let mut out = Matrix::zeros(x.nrows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            // Collect (distance, train index), partial-select the k nearest.
            let mut dists: Vec<(f64, usize)> = train
                .rows_iter()
                .enumerate()
                .map(|(i, t)| (squared_distance(row, t), i))
                .collect();
            dists
                .select_nth_unstable_by(k - 1, |a, b| a.0.partial_cmp(&b.0).expect("NaN distance"));
            let mut votes = vec![0.0f64; self.n_classes];
            for &(d2, i) in &dists[..k] {
                let w = match self.params.weights {
                    KnnWeights::Uniform => self.sample_weight[i],
                    KnnWeights::Distance => self.sample_weight[i] / (d2.sqrt() + 1e-12),
                };
                votes[self.y_train[i]] += w;
            }
            let total: f64 = votes.iter().sum();
            for (c, v) in votes.iter().enumerate() {
                out.set(
                    r,
                    c,
                    if total > 0.0 {
                        v / total
                    } else {
                        1.0 / self.n_classes as f64
                    },
                );
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

impl KNeighborsClassifier {
    /// Serialize the fitted model for the model artifact. k-NN is a lazy
    /// learner, so the artifact carries the full training matrix.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj([
                    ("k", Json::from(self.params.k)),
                    (
                        "weights",
                        Json::from(match self.params.weights {
                            KnnWeights::Uniform => "uniform",
                            KnnWeights::Distance => "distance",
                        }),
                    ),
                ]),
            ),
            (
                "x_train",
                match &self.x_train {
                    Some(m) => jsonio::matrix_to_json(m),
                    None => Json::Null,
                },
            ),
            (
                "y_train",
                Json::arr(self.y_train.iter().map(|&c| Json::from(c))),
            ),
            ("sample_weight", jsonio::nums(&self.sample_weight)),
            ("n_classes", Json::from(self.n_classes)),
        ])
    }

    /// Inverse of [`KNeighborsClassifier::to_json`]. Rejects a document
    /// predict could not serve: no classes, an empty training matrix, or
    /// labels and weights that do not cover its rows with known classes.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let p = jsonio::field(j, "params")?;
        let x_train = match jsonio::field(j, "x_train")? {
            Json::Null => None,
            m => Some(jsonio::matrix_from_json(m)?),
        };
        let y_train = jsonio::usize_vec(jsonio::field(j, "y_train")?)?;
        let sample_weight = jsonio::f64_vec(jsonio::field(j, "sample_weight")?)?;
        let n_classes = jsonio::as_usize(jsonio::field(j, "n_classes")?)?;
        if n_classes == 0 {
            return Err("a k-NN classifier needs at least one class".to_string());
        }
        if let Some(x) = &x_train {
            let rows = x.nrows();
            if rows == 0 {
                return Err("k-NN training matrix has no rows".to_string());
            }
            if y_train.len() != rows || sample_weight.len() != rows {
                return Err(format!(
                    "k-NN has {rows} training rows but {} labels and {} weights",
                    y_train.len(),
                    sample_weight.len()
                ));
            }
            if let Some(&c) = y_train.iter().find(|&&c| c >= n_classes) {
                return Err(format!("k-NN label {c} is not below n_classes {n_classes}"));
            }
        }
        Ok(KNeighborsClassifier {
            params: KnnParams {
                k: jsonio::as_usize(jsonio::field(p, "k")?)?,
                weights: match jsonio::as_str(jsonio::field(p, "weights")?)? {
                    "uniform" => KnnWeights::Uniform,
                    "distance" => KnnWeights::Distance,
                    other => return Err(format!("unknown knn weights {other:?}")),
                },
            },
            x_train,
            y_train,
            sample_weight,
            n_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> (Matrix, Vec<usize>) {
        // Left cluster class 0, right cluster class 1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            y.push(0);
            rows.push(vec![1.0 + 0.01 * i as f64, 0.0]);
            y.push(1);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn classifies_clusters() {
        let (x, y) = grid();
        let mut knn = KNeighborsClassifier::new(KnnParams::default());
        knn.fit(&x, &y, 2, None);
        let q = Matrix::from_rows(&[vec![0.02, 0.0], vec![1.05, 0.0]]);
        assert_eq!(knn.predict(&q), vec![0, 1]);
    }

    #[test]
    fn k_one_memorizes_training_data() {
        let (x, y) = grid();
        let mut knn = KNeighborsClassifier::new(KnnParams {
            k: 1,
            ..KnnParams::default()
        });
        knn.fit(&x, &y, 2, None);
        assert_eq!(knn.predict(&x), y);
    }

    #[test]
    fn distance_weighting_prefers_closer_class() {
        // Query nearer the single class-1 point than the two class-0 points.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![1.0]]);
        let y = vec![0, 0, 1];
        let mut knn = KNeighborsClassifier::new(KnnParams {
            k: 3,
            weights: KnnWeights::Distance,
        });
        knn.fit(&x, &y, 2, None);
        let q = Matrix::from_rows(&[vec![0.99]]);
        assert_eq!(knn.predict(&q), vec![1]);
        // Uniform weighting with k=3 would say class 0 here.
        let mut uni = KNeighborsClassifier::new(KnnParams {
            k: 3,
            weights: KnnWeights::Uniform,
        });
        uni.fit(&x, &y, 2, None);
        assert_eq!(uni.predict(&q), vec![0]);
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let mut knn = KNeighborsClassifier::new(KnnParams {
            k: 50,
            ..KnnParams::default()
        });
        knn.fit(&x, &[0, 1], 2, None);
        let p = knn.predict_proba(&Matrix::from_rows(&[vec![0.5]]));
        assert!((p.get(0, 0) - 0.5).abs() < 1e-12);
    }

    // Loader: predict cannot serve any document below (the comments say
    // how it fails), so loading must.

    /// The default k-NN fitted on [`grid`] and saved, with field `key` set
    /// to `value`.
    fn saved_with(key: &str, value: Json) -> Json {
        let (x, y) = grid();
        let mut knn = KNeighborsClassifier::new(KnnParams::default());
        knn.fit(&x, &y, 2, None);
        jsonio::with_field(knn.to_json(), key, value)
    }

    #[test]
    fn labels_shorter_than_rows_are_rejected_at_load() {
        // Index out of bounds on the last row's label.
        let (_, y) = grid();
        let doc = saved_with("y_train", Json::arr(y[1..].iter().map(|&c| Json::from(c))));
        assert!(KNeighborsClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn label_outside_the_classes_is_rejected_at_load() {
        // Index out of bounds on the vote vector.
        let (_, mut y) = grid();
        y[0] = 2;
        let doc = saved_with("y_train", Json::arr(y.iter().map(|&c| Json::from(c))));
        assert!(KNeighborsClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn weights_shorter_than_rows_are_rejected_at_load() {
        // Index out of bounds on the last row's weight.
        let doc = saved_with("sample_weight", jsonio::nums(&[1.0; 19]));
        assert!(KNeighborsClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn empty_training_matrix_is_rejected_at_load() {
        // `k.clamp(1, 0)` panics.
        let doc = saved_with("x_train", jsonio::matrix_to_json(&Matrix::zeros(0, 2)));
        let doc = jsonio::with_field(doc, "y_train", Json::arr([]));
        let doc = jsonio::with_field(doc, "sample_weight", Json::arr([]));
        assert!(KNeighborsClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn zero_classes_are_rejected_at_load() {
        // Index out of bounds on the empty vote vector.
        let doc = saved_with("n_classes", Json::from(0usize));
        assert!(KNeighborsClassifier::from_json(&doc).is_err());
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let (x, y) = grid();
        let mut knn = KNeighborsClassifier::new(KnnParams::default());
        knn.fit(&x, &y, 2, None);
        let p = knn.predict_proba(&x);
        for r in 0..p.nrows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
