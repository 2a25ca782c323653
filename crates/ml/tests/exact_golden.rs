//! Exact-splitter golden: seeded ensembles on continuous features with
//! unit weights. `predict_proba` must match the committed fixture
//! `exact_fit_golden.json` bit for bit; the fixture is never regenerated
//! to make a change pass.

use em_ml::{
    AdaBoostClassifier, AdaBoostParams, Classifier, ExtraTreesClassifier, ForestParams,
    GradientBoostingClassifier, GradientBoostingParams, Matrix, RandomForestClassifier,
};
use em_rt::{Json, StdRng};

/// Regenerate the seeded ensembles the fixture recorded before the
/// histogram engine existed and compare `predict_proba` against it bit for
/// bit: the exact splitter's output must never drift.
#[test]
fn exact_fit_matches_pre_binned_golden() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/exact_fit_golden.json"
    ))
    .expect("golden fixture present");
    let golden = Json::parse(&text).unwrap();
    let (x, y) = golden_data(240, 6, 11);

    let mut rf = RandomForestClassifier::new(ForestParams {
        n_estimators: 12,
        seed: 5,
        ..ForestParams::default()
    });
    rf.fit(&x, &y, 2, None);
    assert_matches_golden(&golden, "random_forest", &rf.predict_proba(&x));

    let mut et = ExtraTreesClassifier::new(ForestParams {
        n_estimators: 8,
        seed: 6,
        ..ForestParams::default()
    });
    et.fit(&x, &y, 2, None);
    assert_matches_golden(&golden, "extra_trees", &et.predict_proba(&x));

    let mut gb = GradientBoostingClassifier::new(GradientBoostingParams {
        n_estimators: 10,
        subsample: 0.8,
        seed: 3,
        ..GradientBoostingParams::default()
    });
    gb.fit(&x, &y, 2, None);
    assert_matches_golden(&golden, "gradient_boosting", &gb.predict_proba(&x));

    let mut ab = AdaBoostClassifier::new(AdaBoostParams {
        n_estimators: 10,
        max_depth: 2,
        ..AdaBoostParams::default()
    });
    ab.fit(&x, &y, 2, None);
    assert_matches_golden(&golden, "adaboost", &ab.predict_proba(&x));
}

/// The dataset the golden fixture was generated on (recipe must not change).
fn golden_data(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 2;
        rows.push(
            (0..d)
                .map(|_| c as f64 * 0.7 + rng.random_range(-0.6..0.6))
                .collect(),
        );
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

fn assert_matches_golden(golden: &Json, key: &str, proba: &Matrix) {
    let rows = golden
        .get(key)
        .and_then(Json::as_arr)
        .expect("fixture rows");
    assert_eq!(rows.len(), proba.nrows(), "{key}: row count");
    for (r, row) in rows.iter().enumerate() {
        let want: Vec<f64> = row
            .as_arr()
            .expect("row array")
            .iter()
            .map(|v| v.as_f64().expect("number"))
            .collect();
        let got = proba.row(r);
        assert_eq!(want.len(), got.len());
        for (c, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{key}: row {r} col {c}: {w} vs {g}"
            );
        }
    }
}
