//! Exact-splitter golden over the inputs `exact_fit_golden.json` leaves out.
//!
//! That fixture pins unit-weight fits on continuous features. This one pins
//! what makes a presorted split engine easy to get subtly wrong, all on one
//! seeded dataset:
//!
//! * non-integer sample weights (`sample_weights(Weighting, …)` on
//!   imbalanced labels), so every accumulation order shows in the bits;
//! * heavy ties: a two-valued column, a 0/1 column, a few-level column;
//! * `-0.0` and `0.0` mixed in one column (equal under `partial_cmp`, so
//!   they must tie, in row order);
//! * `MaxFeatures::Fraction` subsampling, bootstrap on and off,
//!   `min_samples_leaf > 1`, gini and entropy;
//! * a `RandomForestRegressor` in the SMAC surrogate's shape.
//!
//! Predictions (on the training rows and on probe rows between them) and
//! importances must match the committed fixture bit for bit. The fixture
//! was generated before the presorted engine existed; it is never
//! regenerated to make a change pass.

use em_ml::preprocess::{sample_weights, BalancingStrategy};
use em_ml::{
    AdaBoostClassifier, AdaBoostParams, Classifier, Criterion, DecisionTree, ExtraTreesClassifier,
    ForestParams, GradientBoostingClassifier, GradientBoostingParams, Matrix, MaxFeatures,
    RandomForestClassifier, RandomForestRegressor, TreeParams,
};
use em_rt::{Json, StdRng};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/exact_fit_golden_mixed.json"
);

/// The classification inputs (the recipe must not change): ~30% positives,
/// seven columns of deliberately different value structure.
fn mixed_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        // Both classes present whatever the draws.
        let c = if i < 2 {
            i
        } else {
            usize::from(rng.random_bool(0.3))
        };
        let s = c as f64;
        let signed_zero = if rng.random_bool(0.5) { -0.0 } else { 0.0 };
        rows.push(vec![
            // Continuous, informative.
            s * 0.6 + rng.random_range(-0.7..0.7),
            // Continuous, weakly informative.
            s * 0.3 + rng.random_range(-1.0..1.0),
            // Two-valued.
            if rng.random_bool(0.3 + 0.4 * s) {
                0.75
            } else {
                0.25
            },
            // 0/1.
            if rng.random_bool(0.35 + 0.3 * s) {
                1.0
            } else {
                0.0
            },
            // Mostly signed zeros, with values on both sides of them.
            if rng.random_bool(0.6) {
                signed_zero
            } else {
                s * 0.5 + rng.random_range(-1.0..1.0)
            },
            // A handful of levels.
            (s * 2.0 + rng.random_range(0.0..6.0)).floor() / 4.0,
            // Noise.
            rng.random_range(-1.0..1.0),
        ]);
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

/// Surrogate inputs shaped like `ConfigSpace::encode` output: categorical
/// codes, `-1.0` for inactive conditionals, normalized ints and floats,
/// with non-integer scores as targets.
fn surrogate_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut t = Vec::with_capacity(n);
    for _ in 0..n {
        let cat = rng.random_range(0..3usize) as f64 / 2.0;
        let cond = if cat == 0.0 {
            rng.random_range(0.0..1.0)
        } else {
            -1.0
        };
        let int = rng.random_range(0..10usize) as f64 / 9.0;
        let flag = if rng.random_bool(0.5) { 1.0 } else { 0.0 };
        let float = rng.random_range(0.0..1.0);
        let cond2 = if flag == 1.0 {
            rng.random_range(0.0..1.0)
        } else {
            -1.0
        };
        let score = 0.4 + 0.2 * cat - 0.15 * (float - 0.5).abs() + 0.1 * flag * cond2.max(0.0)
            - 0.05 * int
            + rng.random_range(-0.03..0.03);
        rows.push(vec![cat, cond, int, flag, float, cond2]);
        t.push(score);
    }
    (Matrix::from_rows(&rows), t)
}

/// Rows halfway between consecutive rows of `x`: they land between
/// thresholds the training rows alone would not distinguish.
fn probes(x: &Matrix, count: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..count.min(x.nrows() - 1))
        .map(|r| {
            x.row(r)
                .iter()
                .zip(x.row(r + 1))
                .map(|(a, b)| (a + b) / 2.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Flattened `predict_proba` on the training rows, then on the probes,
/// then the importances.
fn classifier_record(model: &dyn Classifier, x: &Matrix, probe: &Matrix) -> Vec<f64> {
    let mut out = model.predict_proba(x).as_slice().to_vec();
    out.extend_from_slice(model.predict_proba(probe).as_slice());
    if let Some(imp) = model.feature_importances() {
        out.extend(imp);
    }
    out
}

/// Every golden case, in fixture order: `(key, values)`.
fn golden_cases() -> Vec<(&'static str, Vec<f64>)> {
    let (x, y) = mixed_data(200, 0x60_1D);
    let w = sample_weights(BalancingStrategy::Weighting, &y, 2);
    let probe = probes(&x, 60);
    let mut cases = Vec::new();

    let mut rf = RandomForestClassifier::new(ForestParams {
        n_estimators: 8,
        criterion: Criterion::Gini,
        max_features: MaxFeatures::Fraction(0.45),
        bootstrap: true,
        seed: 21,
        ..ForestParams::default()
    });
    rf.fit(&x, &y, 2, Some(&w));
    cases.push(("rf_gini_bootstrap", classifier_record(&rf, &x, &probe)));

    let mut rf = RandomForestClassifier::new(ForestParams {
        n_estimators: 6,
        criterion: Criterion::Entropy,
        max_features: MaxFeatures::Fraction(0.6),
        bootstrap: false,
        min_samples_split: 4,
        min_samples_leaf: 3,
        seed: 22,
        ..ForestParams::default()
    });
    rf.fit(&x, &y, 2, Some(&w));
    cases.push((
        "rf_entropy_no_bootstrap_leaf3",
        classifier_record(&rf, &x, &probe),
    ));

    let mut rf = RandomForestClassifier::new(ForestParams {
        n_estimators: 6,
        criterion: Criterion::Entropy,
        max_features: MaxFeatures::Fraction(0.3),
        bootstrap: true,
        min_samples_leaf: 2,
        max_depth: Some(7),
        seed: 23,
        ..ForestParams::default()
    });
    rf.fit(&x, &y, 2, Some(&w));
    cases.push((
        "rf_entropy_bootstrap_leaf2",
        classifier_record(&rf, &x, &probe),
    ));

    let tree = DecisionTree::fit_classifier(
        &x,
        &y,
        2,
        Some(&w),
        TreeParams {
            criterion: Criterion::Gini,
            max_features: MaxFeatures::Fraction(0.7),
            min_samples_leaf: 2,
            seed: 24,
            ..TreeParams::default()
        },
    );
    let mut record = tree.predict_proba(&x).as_slice().to_vec();
    record.extend_from_slice(tree.predict_proba(&probe).as_slice());
    record.extend(tree.feature_importances());
    cases.push(("tree_gini_fraction", record));

    let mut et = ExtraTreesClassifier::new(ForestParams {
        n_estimators: 6,
        max_features: MaxFeatures::Fraction(0.5),
        min_samples_leaf: 2,
        seed: 25,
        ..ForestParams::default()
    });
    et.fit(&x, &y, 2, Some(&w));
    cases.push(("extra_trees", classifier_record(&et, &x, &probe)));

    let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
        n_estimators: 8,
        min_samples_leaf: 2,
        subsample: 0.7,
        seed: 26,
        ..GradientBoostingParams::default()
    });
    gb.fit(&x, &y, 2, Some(&w));
    cases.push(("gradient_boosting", classifier_record(&gb, &x, &probe)));

    let mut ab = AdaBoostClassifier::new(AdaBoostParams {
        n_estimators: 6,
        max_depth: 2,
        ..AdaBoostParams::default()
    });
    ab.fit(&x, &y, 2, Some(&w));
    cases.push(("adaboost", classifier_record(&ab, &x, &probe)));

    // The SMAC surrogate's shape (`SmacSearch::ranked_candidates`).
    let (sx, st) = surrogate_data(40, 0x5_AC);
    let sprobe = probes(&sx, 20);
    let mut surrogate = RandomForestRegressor::new(ForestParams {
        n_estimators: 10,
        max_features: MaxFeatures::Fraction(0.8),
        min_samples_leaf: 1,
        seed: 40,
        ..ForestParams::default()
    });
    surrogate.fit(&sx, &st);
    let mut record = Vec::new();
    for m in [&sx, &sprobe] {
        for (mean, var) in surrogate.predict_with_variance(m) {
            record.push(mean);
            record.push(var);
        }
    }
    cases.push(("surrogate_regressor", record));
    cases
}

#[test]
fn exact_fit_matches_mixed_golden() {
    let text = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    let golden = Json::parse(&text).unwrap();
    for (key, got) in golden_cases() {
        let want: Vec<f64> = golden
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("fixture lacks {key}"))
            .iter()
            .map(|v| v.as_f64().expect("number"))
            .collect();
        assert_eq!(want.len(), got.len(), "{key}: value count");
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{key}: value {i}: {w} vs {g}");
        }
    }
}
