//! Figure 10: model selection — validation and test F1 as the search budget
//! grows, for the full "all-model" space versus the restricted
//! "random-forest-only" space (the AutoML-EM customization of §III-C).
//!
//! The paper's wall-clock grid (60…8400 s) maps onto an evaluation-count
//! grid here (see DESIGN.md substitutions): one search per (dataset, space)
//! runs to the largest budget, and every smaller budget is scored from the
//! prefix of that search's history — exactly how a budget-limited run would
//! have behaved, since the search is deterministic.
//!
//! The paper's shape: the restricted space converges in fewer evaluations
//! (better scores at small budgets); the full space catches up or passes at
//! the largest budgets. Whether a run shows it is read off the table.
//!
//! ```sh
//! cargo run --release -p em-bench --bin exp_fig10 [-- --scale F --budget MAX --hard-only]
//! ```

use automl_em::{build_space, decode_configuration, FeatureScheme, ModelSpace, SpaceOptions};
use em_automl::{run_search, Budget, Configuration, SmacSearch};
use em_bench::{pct, prepare, reference_for, row, ExpArgs};
use em_ml::f1_score;

/// The evaluation-budget grid (stand-in for the paper's 60…8400 s).
fn budget_grid(max: usize) -> Vec<usize> {
    [4usize, 8, 16, 32, 64, 96, 128, 192]
        .into_iter()
        .filter(|&b| b <= max)
        .collect()
}

fn main() {
    let args = ExpArgs::parse();
    let grid = budget_grid(args.budget.max(4));
    let max_budget = *grid.last().unwrap();
    println!(
        "== Figure 10: all-model vs random-forest-only across budgets (scale {}, grid {:?}) ==",
        args.scale, grid
    );
    for b in args.benchmarks() {
        let reference = reference_for(b);
        let prep = prepare(b, FeatureScheme::AutoMlEm, &args);
        let (xt, yt) = prep.train();
        let (xv, yv) = prep.valid();
        let (xs, ys) = prep.test();
        println!("\n-- {} --", reference.name);
        let widths = [16, 12, 10, 10];
        println!(
            "{}",
            row(
                &[
                    "space".into(),
                    "budget".into(),
                    "validF1".into(),
                    "testF1".into()
                ],
                &widths
            )
        );
        for (label, model_space) in [
            ("random-forest", ModelSpace::RandomForestOnly),
            ("all-model", ModelSpace::AllModels),
        ] {
            let space = build_space(SpaceOptions {
                model_space,
                ..SpaceOptions::default()
            });
            let objective = |config: &Configuration| -> f64 {
                let pipeline = decode_configuration(config, args.seed);
                pipeline.fit(&xt, &yt).f1(&xv, &yv)
            };
            let history = run_search(
                &space,
                &mut SmacSearch::default(),
                &objective,
                Budget::Evaluations(max_budget),
                args.seed,
            );
            for &budget in &grid {
                // Prefix incumbent: what a run stopped at `budget` would
                // have returned, the earliest of tied trials included.
                let incumbent = history.incumbent_after(budget).expect("nonempty prefix");
                let pipeline = decode_configuration(&incumbent.config, args.seed);
                let x_all = xt.vstack(&xv);
                let mut y_all = yt.clone();
                y_all.extend_from_slice(&yv);
                let fitted = pipeline.fit(&x_all, &y_all);
                let test_f1 = f1_score(&ys, &fitted.predict(&xs));
                println!(
                    "{}",
                    row(
                        &[
                            label.into(),
                            format!("{budget}"),
                            pct(incumbent.score),
                            pct(test_f1),
                        ],
                        &widths
                    )
                );
            }
        }
    }
    em_obs::flush();
}
