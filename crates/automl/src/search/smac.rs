//! SMAC-style sequential model-based optimization (paper §III-A):
//! a random-forest surrogate predicts the score of unseen configurations;
//! the expected-improvement acquisition picks the most promising candidate
//! among random samples and neighbors of the incumbents; evaluating it
//! updates the surrogate. Random configurations are interleaved for
//! exploration, as in the original SMAC.

use crate::config::Configuration;
use crate::runner::{SearchAlgorithm, SearchHistory};
use crate::space::ConfigSpace;
use em_ml::forest::RandomForestRegressor;
use em_ml::stats::gammainc_lower;
use em_ml::{ForestParams, Matrix, MaxFeatures};
use em_rt::StdRng;

/// SMAC hyperparameters.
#[derive(Debug, Clone)]
pub struct SmacParams {
    /// Random configurations evaluated before the surrogate switches on.
    pub n_init: usize,
    /// Random candidates scored by the acquisition per suggestion.
    pub n_candidates: usize,
    /// Neighbors generated around each of the top incumbents.
    pub n_neighbors: usize,
    /// Top incumbents used as neighbor seeds.
    pub n_incumbent_seeds: usize,
    /// Every `interleave`-th suggestion is purely random (SMAC's
    /// exploration interleaving); 0 disables interleaving.
    pub interleave: usize,
    /// Trees in the surrogate forest.
    pub surrogate_trees: usize,
}

impl Default for SmacParams {
    fn default() -> Self {
        SmacParams {
            n_init: 8,
            n_candidates: 64,
            n_neighbors: 8,
            n_incumbent_seeds: 3,
            interleave: 4,
            surrogate_trees: 24,
        }
    }
}

/// The SMAC-style searcher.
#[derive(Debug, Clone, Default)]
pub struct SmacSearch {
    /// Hyperparameters.
    pub params: SmacParams,
}

impl SmacSearch {
    /// Create with custom hyperparameters.
    pub fn new(params: SmacParams) -> Self {
        SmacSearch { params }
    }
}

impl SmacSearch {
    /// Generate the candidate pool, fit the surrogate on the full history,
    /// and return candidates ranked by expected improvement (best first).
    fn ranked_candidates(
        &self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        /// Surrogate model refits across all SMAC instances (traced runs).
        static SURROGATE_REFITS: em_obs::Counter = em_obs::Counter::new("smbo.surrogate_refits");
        let _span = em_obs::span!("smac.suggest");
        SURROGATE_REFITS.incr();
        let n = history.len();
        // Fit the surrogate on all observations.
        let encoded: Vec<Vec<f64>> = history
            .trials()
            .iter()
            .map(|t| space.encode(&t.config))
            .collect();
        let x = Matrix::from_rows(&encoded);
        let y: Vec<f64> = history.trials().iter().map(|t| t.score).collect();
        let mut surrogate = RandomForestRegressor::new(ForestParams {
            n_estimators: self.params.surrogate_trees,
            max_features: MaxFeatures::Fraction(0.8),
            min_samples_leaf: 1,
            seed: n as u64, // refit per step with a fresh but deterministic seed
            ..ForestParams::default()
        });
        surrogate.fit(&x, &y);
        // Candidate pool: random samples + neighbors of the top incumbents.
        let mut candidates: Vec<Configuration> = Vec::new();
        for _ in 0..self.params.n_candidates {
            candidates.push(space.sample(rng));
        }
        let mut sorted: Vec<&crate::runner::Trial> = history.trials().iter().collect();
        sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        for seed_trial in sorted.iter().take(self.params.n_incumbent_seeds) {
            for _ in 0..self.params.n_neighbors {
                candidates.push(space.neighbor(&seed_trial.config, rng));
            }
        }
        // Rank by expected improvement over the incumbent.
        let best = history.best_score();
        let enc: Vec<Vec<f64>> = candidates.iter().map(|c| space.encode(c)).collect();
        let cx = Matrix::from_rows(&enc);
        let preds = surrogate.predict_with_variance(&cx);
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let eis: Vec<f64> = preds
            .iter()
            .map(|&(mu, var)| expected_improvement(mu, var.sqrt(), best))
            .collect();
        // Stable sort keeps ties in generation order (deterministic).
        order.sort_by(|&a, &b| eis[b].partial_cmp(&eis[a]).unwrap());
        let mut by_rank: Vec<Option<Configuration>> = candidates.into_iter().map(Some).collect();
        order
            .into_iter()
            .map(|i| by_rank[i].take().expect("each candidate ranked once"))
            .collect()
    }
}

impl SearchAlgorithm for SmacSearch {
    fn suggest(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Configuration {
        self.suggest_batch(space, history, rng, 1)
            .pop()
            .expect("candidate pool is never empty")
    }

    fn suggest_batch(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
        k: usize,
    ) -> Vec<Configuration> {
        let k = k.max(1);
        let n = history.len();
        if n < self.params.n_init {
            // Still in the random-init phase: fill the whole batch randomly.
            return (0..k.min(self.params.n_init - n).max(1))
                .map(|_| space.sample(rng))
                .collect();
        }
        // Slot i is random exactly when trial n + i would be random in the
        // sequential schedule; one surrogate fit ranks candidates for every
        // other slot, in order. `suggest` is the case k = 1.
        let interleave = self.params.interleave;
        let random = |i: usize| interleave > 0 && (n + i).is_multiple_of(interleave);
        let mut ranked = if (0..k).all(random) {
            Vec::new()
        } else {
            self.ranked_candidates(space, history, rng)
        }
        .into_iter();
        (0..k)
            .map_while(|i| {
                if random(i) {
                    Some(space.sample(rng))
                } else {
                    ranked.next()
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "smac"
    }
}

/// Expected improvement for maximization:
/// `EI = (mu - best) Φ(z) + sigma φ(z)` with `z = (mu - best) / sigma`.
/// Falls back to the mean improvement when the surrogate is certain.
pub fn expected_improvement(mu: f64, sigma: f64, best: f64) -> f64 {
    let diff = mu - best;
    if sigma <= 1e-12 {
        return diff.max(0.0);
    }
    let z = diff / sigma;
    diff * normal_cdf(z) + sigma * normal_pdf(z)
}

/// Standard normal CDF via the regularized incomplete gamma
/// (`erf(x) = P(1/2, x²)` for `x ≥ 0`).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let erf = if x >= 0.0 {
        gammainc_lower(0.5, x * x)
    } else {
        -gammainc_lower(0.5, x * x)
    };
    0.5 * (1.0 + erf)
}

/// Standard normal density.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_search, Budget};
    use crate::search::RandomSearch;
    use crate::space::Domain;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b}");
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-12);
        close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        close(normal_cdf(-1.959_963_984_540_054), 0.025, 1e-9);
        close(normal_cdf(5.0), 0.999_999_713, 1e-6);
    }

    #[test]
    fn ei_properties() {
        // Certain improvement: EI equals the improvement.
        close(expected_improvement(1.0, 0.0, 0.5), 0.5, 1e-12);
        // Certain non-improvement: EI is 0.
        close(expected_improvement(0.2, 0.0, 0.5), 0.0, 1e-12);
        // Uncertainty adds value: EI with sigma > 0 exceeds max(diff, 0).
        assert!(expected_improvement(0.2, 0.5, 0.5) > 0.0);
        assert!(expected_improvement(1.0, 0.5, 0.5) > 0.5);
        // EI grows with sigma.
        assert!(expected_improvement(0.4, 0.8, 0.5) > expected_improvement(0.4, 0.2, 0.5));
    }

    /// A deceptive 2-D objective with a narrow peak: the surrogate should
    /// find it faster than random search (statistically, with fixed seeds).
    fn hard_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            "x",
            Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false,
            },
        );
        s.add(
            "y",
            Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false,
            },
        );
        s
    }

    fn hard_objective(c: &Configuration) -> f64 {
        let x = c.get_float("x").unwrap();
        let y = c.get_float("y").unwrap();
        // Smooth bowl toward (0.7, 0.3) plus a mild ridge.
        let d = ((x - 0.7).powi(2) + (y - 0.3).powi(2)).sqrt();
        1.0 - d + 0.1 * (5.0 * x).sin() * 0.05
    }

    #[test]
    fn smac_beats_or_matches_random_on_smooth_objective() {
        let space = hard_space();
        let budget = Budget::Evaluations(40);
        let mut smac_wins = 0;
        let trials = 5;
        for seed in 0..trials {
            let hs = run_search(
                &space,
                &mut SmacSearch::default(),
                &hard_objective,
                budget,
                seed,
            );
            let hr = run_search(&space, &mut RandomSearch, &hard_objective, budget, seed);
            if hs.best_score() >= hr.best_score() - 1e-9 {
                smac_wins += 1;
            }
        }
        assert!(smac_wins >= 3, "SMAC won only {smac_wins}/{trials} seeds");
    }

    #[test]
    fn smac_suggestions_are_valid() {
        let space = hard_space();
        let h = run_search(
            &space,
            &mut SmacSearch::default(),
            &hard_objective,
            Budget::Evaluations(20),
            3,
        );
        assert_eq!(h.len(), 20);
        for t in h.trials() {
            space.validate(&t.config).unwrap();
        }
    }

    #[test]
    fn smac_is_deterministic() {
        let space = hard_space();
        let a = run_search(
            &space,
            &mut SmacSearch::default(),
            &hard_objective,
            Budget::Evaluations(25),
            9,
        );
        let b = run_search(
            &space,
            &mut SmacSearch::default(),
            &hard_objective,
            Budget::Evaluations(25),
            9,
        );
        assert_eq!(a.best_score(), b.best_score());
    }
}
