//! Shared infrastructure for the experiment binaries (one per paper table /
//! figure) and the micro-benchmarks: tiny CLI parsing, table printing, the
//! in-repo timing harness, and the paper's published reference numbers.

pub mod serve_scale;
pub mod timing;

use automl_em::{AutoMlEmOptions, FeatureScheme, PreparedDataset};
use em_data::Benchmark;

/// Paper-reported F1 scores per dataset (Tables IV / Figure 8), used to put
/// our measured numbers side by side with the published ones.
#[derive(Debug, Clone, Copy)]
pub struct PaperReference {
    /// Dataset display name.
    pub name: &'static str,
    /// Magellan's F1 (paper Table IV, copied there from Mudgal et al.).
    pub magellan_f1: f64,
    /// AutoML-EM's F1 (paper Table IV).
    pub automl_em_f1: f64,
    /// DeepMatcher's F1 (paper Figure 8, copied there from Mudgal et al.).
    pub deepmatcher_f1: f64,
}

/// The eight Table IV / Figure 8 rows.
pub const PAPER_REFERENCES: [PaperReference; 8] = [
    PaperReference {
        name: "BeerAdvo-RateBeer",
        magellan_f1: 78.8,
        automl_em_f1: 82.3,
        deepmatcher_f1: 72.7,
    },
    PaperReference {
        name: "Fodors-Zagats",
        magellan_f1: 100.0,
        automl_em_f1: 100.0,
        deepmatcher_f1: 100.0,
    },
    PaperReference {
        name: "iTunes-Amazon",
        magellan_f1: 91.2,
        automl_em_f1: 96.3,
        deepmatcher_f1: 88.0,
    },
    PaperReference {
        name: "DBLP-ACM",
        magellan_f1: 98.4,
        automl_em_f1: 98.4,
        deepmatcher_f1: 98.4,
    },
    PaperReference {
        name: "DBLP-Scholar",
        magellan_f1: 92.3,
        automl_em_f1: 94.6,
        deepmatcher_f1: 94.7,
    },
    PaperReference {
        name: "Amazon-Google",
        magellan_f1: 49.1,
        automl_em_f1: 66.4,
        deepmatcher_f1: 69.3,
    },
    PaperReference {
        name: "Walmart-Amazon",
        magellan_f1: 71.9,
        automl_em_f1: 78.5,
        deepmatcher_f1: 66.9,
    },
    PaperReference {
        name: "Abt-Buy",
        magellan_f1: 43.6,
        automl_em_f1: 59.2,
        deepmatcher_f1: 62.8,
    },
];

/// Reference row for a benchmark.
pub fn reference_for(benchmark: Benchmark) -> PaperReference {
    let name = benchmark.profile().name;
    *PAPER_REFERENCES
        .iter()
        .find(|r| r.name == name)
        .expect("every benchmark has a reference row")
}

/// Common CLI options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Dataset scale factor in (0, 1]; 1.0 reproduces the paper's sizes.
    pub scale: f64,
    /// Search budget in evaluations.
    pub budget: usize,
    /// Master seed.
    pub seed: u64,
    /// Restrict to the hard datasets only (for the slow experiments).
    pub hard_only: bool,
    /// Restrict to datasets whose name contains this substring
    /// (case-insensitive).
    pub only: Option<String>,
    /// Show the incumbent pipeline dump (Figure 11).
    pub show_pipeline: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            budget: 48,
            seed: 0,
            hard_only: false,
            only: None,
            show_pipeline: false,
        }
    }
}

impl ExpArgs {
    /// Parse `--scale F`, `--budget N`, `--seed N`, `--hard-only`,
    /// `--show-pipeline` from `std::env::args`. Unknown flags abort with a
    /// usage message.
    pub fn parse() -> Self {
        let mut out = ExpArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => {
                    out.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a float in (0, 1]");
                }
                "--budget" => {
                    out.budget = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget needs an integer");
                }
                "--seed" => {
                    out.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--hard-only" => out.hard_only = true,
                "--only" => {
                    out.only = Some(args.next().expect("--only needs a dataset name substring"));
                }
                "--show-pipeline" => out.show_pipeline = true,
                other => {
                    eprintln!(
                        "unknown flag {other}\nusage: [--scale F] [--budget N] [--seed N] [--hard-only] [--only NAME] [--show-pipeline]"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The benchmark list this run covers.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let base: Vec<Benchmark> = if self.hard_only {
            vec![Benchmark::AmazonGoogle, Benchmark::AbtBuy]
        } else {
            Benchmark::all().to_vec()
        };
        match &self.only {
            None => base,
            Some(filter) => {
                let f = filter.to_ascii_lowercase();
                base.into_iter()
                    .filter(|b| b.profile().name.to_ascii_lowercase().contains(&f))
                    .collect()
            }
        }
    }
}

/// Generate + featurize one benchmark under the given args.
pub fn prepare(benchmark: Benchmark, scheme: FeatureScheme, args: &ExpArgs) -> PreparedDataset {
    let ds = benchmark.generate_scaled(args.seed, args.scale);
    PreparedDataset::prepare(&ds, scheme, args.seed)
}

/// Default AutoML-EM options under the given args.
pub fn automl_options(args: &ExpArgs) -> AutoMlEmOptions {
    AutoMlEmOptions {
        budget: em_automl::Budget::Evaluations(args.budget),
        seed: args.seed,
        ..Default::default()
    }
}

/// Print a markdown-ish table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Render an F1 in the paper's percent convention.
pub fn pct(f1: f64) -> String {
    format!("{:.1}", f1 * 100.0)
}

/// Run the paper's active-learning protocol (Algorithm 1) on a prepared
/// dataset and report the final test F1 of AutoML-EM trained on the
/// collected labels. `st_batch = 0` gives the "AC + AutoML-EM" baseline.
///
/// The labeling pool is the train+validation portion; the test portion is
/// only touched by the final evaluation.
#[allow(clippy::too_many_arguments)]
pub fn active_learning_test_f1(
    prep: &PreparedDataset,
    init_size: usize,
    ac_batch: usize,
    st_batch: usize,
    iterations: usize,
    automl_budget: usize,
    seed: u64,
) -> f64 {
    use automl_em::{ActiveConfig, AutoMlEm, AutoMlEmActive, GroundTruthOracle};
    use em_automl::Budget;
    use em_ml::{f1_score, stratified_train_test_indices};

    let mut pool_idx: Vec<usize> = prep.split.train.clone();
    pool_idx.extend_from_slice(&prep.split.valid);
    let x_pool = prep.features.select_rows(&pool_idx);
    let pool_truth: Vec<usize> = pool_idx.iter().map(|&i| prep.labels[i]).collect();
    let mut oracle = GroundTruthOracle::from_classes(&pool_truth);
    // Scaled-down datasets may not fit the paper's init = 500; clamp so the
    // harness stays runnable at any --scale (warned, so it's visible).
    let init_size = if init_size * 2 > x_pool.nrows() {
        let clamped = (x_pool.nrows() / 2).max(2);
        eprintln!(
            "warning[{}]: pool of {} pairs cannot seed init = {init_size}; clamping to {clamped}",
            prep.name,
            x_pool.nrows()
        );
        clamped
    } else {
        init_size
    };
    let run = AutoMlEmActive::new(ActiveConfig {
        init_size,
        ac_batch,
        st_batch,
        iterations,
        seed,
        ..ActiveConfig::default()
    })
    .run(&x_pool, &mut oracle);
    // Train AutoML-EM on the collected labels, 4:1 train/valid.
    let x_labeled = x_pool.select_rows(&run.labeled.indices);
    let (tr, va) = stratified_train_test_indices(&run.labeled.labels, 0.2, seed);
    if tr.is_empty() || va.is_empty() {
        return 0.0;
    }
    let xt = x_labeled.select_rows(&tr);
    let yt: Vec<usize> = tr.iter().map(|&i| run.labeled.labels[i]).collect();
    let xv = x_labeled.select_rows(&va);
    let yv: Vec<usize> = va.iter().map(|&i| run.labeled.labels[i]).collect();
    let result = AutoMlEm::new(automl_em::AutoMlEmOptions {
        budget: Budget::Evaluations(automl_budget),
        seed,
        ..Default::default()
    })
    .fit(&xt, &yt, &xv, &yv);
    let (x_test, y_test) = {
        let idx = &prep.split.test;
        (
            prep.features.select_rows(idx),
            idx.iter().map(|&i| prep.labels[i]).collect::<Vec<usize>>(),
        )
    };
    f1_score(&y_test, &result.fitted.predict(&x_test))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_cover_all_benchmarks() {
        for b in Benchmark::all() {
            let r = reference_for(b);
            assert!(r.magellan_f1 > 0.0);
            assert!(r.automl_em_f1 >= r.magellan_f1 - 1e-9, "{:?}", b);
        }
    }

    #[test]
    fn paper_average_improvement_is_5_8() {
        // Table IV's bottom row: averages 78.1 vs 83.9, i.e. ΔF1 = +5.8.
        // (The paper's own per-row deltas are internally inconsistent —
        // e.g. Abt-Buy is printed as +5.3 though 59.2 - 43.6 = 15.6 — so we
        // anchor on the published averages.)
        let avg_m: f64 = PAPER_REFERENCES.iter().map(|r| r.magellan_f1).sum::<f64>() / 8.0;
        let avg_a: f64 = PAPER_REFERENCES.iter().map(|r| r.automl_em_f1).sum::<f64>() / 8.0;
        assert!((avg_m - 78.16).abs() < 0.05, "{avg_m}");
        // The per-row numbers average to +6.3; the paper's printed bottom
        // row says 83.9 / +5.8, which its own rows don't quite reproduce.
        // Either way the headline "≈ +6" improvement holds.
        assert!((avg_a - avg_m - 6.3).abs() < 0.05, "{}", avg_a - avg_m);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.592), "59.2");
        assert_eq!(pct(1.0), "100.0");
    }

    #[test]
    fn row_pads() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a    bb  ");
    }
}
