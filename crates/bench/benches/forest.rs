//! Benchmarks for the ML substrate's hot paths: tree and forest training,
//! prediction, and the vote-fraction confidence used by Algorithm 1. The
//! forest-fit benchmarks compare the shared `em-rt` pool at full width
//! against a one-thread pool.

use em_bench::timing::Harness;
use em_ml::{
    Classifier, DecisionTree, ForestParams, Matrix, MaxFeatures, RandomForestClassifier, TreeParams,
};
use em_rt::StdRng;
use std::hint::black_box;

/// Two noisy interleaved clusters, `n` samples × `d` features.
fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 2;
        let center = c as f64 * 0.6;
        rows.push(
            (0..d)
                .map(|_| center + rng.random_range(-0.5..0.5))
                .collect(),
        );
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

fn main() {
    // Explicit thread count so the pool-vs-serial comparison is stable
    // across machines, unless the environment sets EM_THREADS.
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let threads = em_rt::threads();
    eprintln!("running with {threads} threads");

    let mut h = Harness::new("forest");

    let (x, y) = dataset(1000, 30, 0);
    h.bench("tree/fit_1000x30", || {
        DecisionTree::fit_classifier(black_box(&x), black_box(&y), 2, None, TreeParams::default())
    });
    let tree = DecisionTree::fit_classifier(&x, &y, 2, None, TreeParams::default());
    h.bench("tree/predict_1000", || tree.predict(black_box(&x)));

    let (x, y) = dataset(2000, 40, 1);
    let params = ForestParams {
        n_estimators: 50,
        max_features: MaxFeatures::Sqrt,
        ..ForestParams::default()
    };
    h.bench("forest/fit_50trees_2000x40_pool", || {
        let mut rf = RandomForestClassifier::new(params.clone());
        rf.fit(black_box(&x), black_box(&y), 2, None);
        rf
    });
    em_rt::set_threads(1);
    h.bench("forest/fit_50trees_2000x40_serial", || {
        let mut rf = RandomForestClassifier::new(params.clone());
        rf.fit(black_box(&x), black_box(&y), 2, None);
        rf
    });
    em_rt::set_threads(threads);
    let mut rf = RandomForestClassifier::new(params);
    rf.fit(&x, &y, 2, None);
    h.bench("forest/predict_proba_2000", || {
        rf.predict_proba(black_box(&x))
    });
    h.bench("forest/vote_fraction_2000", || {
        rf.vote_fraction(black_box(&x))
    });

    h.finish();
}
