//! Benchmarks for the AutoML engine itself (search overhead, excluding
//! objective cost): configuration sampling, surrogate-guided suggestion, a
//! full small search on a cheap analytic objective, and the batched async
//! runner against the sequential one.

use automl_em::{build_space, ModelSpace, SpaceOptions};
use em_automl::{
    run_search, run_search_async, Budget, Configuration, RandomSearch, SmacSearch, TpeSearch,
};
use em_bench::timing::Harness;
use em_rt::StdRng;
use std::hint::black_box;

/// Cheap analytic objective over the real AutoML-EM space: prefers
/// weighting + percentile selection + deep forests.
fn objective(c: &Configuration) -> f64 {
    let mut score = 0.0;
    if c.get_str("balancing:strategy") == Some("weighting") {
        score += 0.2;
    }
    if let Some(p) = c.get_float("preprocessor:select_percentile:percentile") {
        score += 0.3 - (p - 60.0).abs() / 200.0;
    }
    if let Some(f) = c.get_float("classifier:random_forest:max_features") {
        score += 0.3 - (f - 0.6).abs() / 4.0;
    }
    score
}

fn main() {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    eprintln!("running with {} threads", em_rt::threads());

    let mut h = Harness::new("search");

    let rf_space = build_space(SpaceOptions::default());
    let all_space = build_space(SpaceOptions {
        model_space: ModelSpace::AllModels,
        ..SpaceOptions::default()
    });
    {
        let mut rng = StdRng::seed_from_u64(0);
        h.bench("space/sample_rf_space", || {
            black_box(rf_space.sample(&mut rng))
        });
    }
    {
        let mut rng = StdRng::seed_from_u64(0);
        h.bench("space/sample_all_space", || {
            black_box(all_space.sample(&mut rng))
        });
    }
    let mut rng = StdRng::seed_from_u64(1);
    let config = all_space.sample(&mut rng);
    h.bench("space/encode_all_space", || {
        black_box(all_space.encode(&config))
    });
    {
        let mut rng = StdRng::seed_from_u64(2);
        h.bench("space/neighbor_all_space", || {
            black_box(all_space.neighbor(&config, &mut rng))
        });
    }

    h.bench("search/64_evals_cheap_objective/random", || {
        run_search(
            &all_space,
            &mut RandomSearch,
            &mut objective,
            Budget::Evaluations(64),
            0,
        )
        .best_score()
    });
    h.bench("search/64_evals_cheap_objective/smac", || {
        run_search(
            &all_space,
            &mut SmacSearch::default(),
            &mut objective,
            Budget::Evaluations(64),
            0,
        )
        .best_score()
    });
    h.bench("search/64_evals_cheap_objective/smac_batch8", || {
        run_search_async(
            &all_space,
            &mut SmacSearch::default(),
            &objective,
            Budget::Evaluations(64),
            0,
            &[],
            8,
        )
        .best_score()
    });
    h.bench("search/64_evals_cheap_objective/tpe", || {
        run_search(
            &all_space,
            &mut TpeSearch::default(),
            &mut objective,
            Budget::Evaluations(64),
            0,
        )
        .best_score()
    });

    h.finish();
}
