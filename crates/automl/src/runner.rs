//! The search loop: suggest → evaluate → record, under an evaluation-count
//! or wall-clock budget (the paper's §III-A "time budget").

use crate::config::Configuration;
use crate::space::ConfigSpace;
use em_rt::StdRng;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Search budget. The experiments default to evaluation counts for
/// determinism; wall-clock mode mirrors the paper's seconds-based budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Stop after this many objective evaluations.
    Evaluations(usize),
    /// Stop once this much wall-clock time has elapsed (the round of
    /// evaluations in flight when the deadline passes still completes and
    /// is recorded).
    WallClock(Duration),
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The evaluated configuration.
    pub config: Configuration,
    /// Objective value (higher is better; the experiments use validation F1).
    pub score: f64,
    /// 0-based evaluation index.
    pub index: usize,
}

/// The full record of a search run.
#[derive(Debug, Clone, Default)]
pub struct SearchHistory {
    trials: Vec<Trial>,
}

impl SearchHistory {
    /// All trials in evaluation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of evaluations performed.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether no evaluations have run.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The best trial so far (ties keep the earliest).
    pub fn incumbent(&self) -> Option<&Trial> {
        self.incumbent_after(self.len())
    }

    /// The best of the first `n` trials (ties keep the earliest): what a
    /// run stopped after `n` evaluations would have returned.
    pub fn incumbent_after(&self, n: usize) -> Option<&Trial> {
        self.trials[..n.min(self.len())].iter().max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap()
                .then(b.index.cmp(&a.index))
        })
    }

    /// Best score so far (NEG_INFINITY when empty).
    pub fn best_score(&self) -> f64 {
        self.incumbent().map_or(f64::NEG_INFINITY, |t| t.score)
    }

    /// Best score after each evaluation (the convergence curve of the
    /// paper's Figure 10).
    pub fn best_score_trace(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.trials
            .iter()
            .map(|t| {
                best = best.max(t.score);
                best
            })
            .collect()
    }

    fn push(&mut self, config: Configuration, score: f64) {
        let index = self.trials.len();
        let improved = score > self.best_score();
        self.trials.push(Trial {
            config,
            score,
            index,
        });
        em_obs::event("search.trial", || {
            vec![
                ("trial", em_rt::Json::from(index)),
                ("score", em_rt::Json::from(score)),
            ]
        });
        if improved {
            em_obs::event("search.incumbent", || {
                vec![
                    ("trial", em_rt::Json::from(index)),
                    ("score", em_rt::Json::from(score)),
                ]
            });
        }
    }
}

/// A search strategy proposes the next configuration to evaluate.
pub trait SearchAlgorithm {
    /// Propose the next configuration given the history so far.
    fn suggest(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Configuration;

    /// Propose up to `k` configurations to evaluate concurrently against the
    /// same history. The default calls [`SearchAlgorithm::suggest`] `k`
    /// times; model-based searchers override this to amortize one surrogate
    /// fit across the whole batch (SMAC fills the slots its sequential
    /// schedule would not draw at random from one expected-improvement
    /// ranking instead of refitting per suggestion). At `k = 1` an override
    /// must return what `suggest` returns.
    fn suggest_batch(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
        k: usize,
    ) -> Vec<Configuration> {
        (0..k.max(1))
            .map(|_| self.suggest(space, history, rng))
            .collect()
    }

    /// Human-readable name for logs and experiment output.
    fn name(&self) -> &'static str;
}

/// Run a search: repeatedly ask `algo` for a configuration, evaluate it with
/// `objective` (higher = better), and record the result, until the budget is
/// exhausted. Deterministic for a fixed seed and evaluation budget.
pub fn run_search(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
) -> SearchHistory {
    run_search_async(space, algo, objective, budget, seed, &[], 1)
}

/// [`run_search`] with warm-start configurations: the `initial` configs are
/// evaluated first (in order, counting against the budget) so the search
/// algorithm's model sees them from its first suggestion — auto-sklearn's
/// meta-learning warm start, with the meta-learned portfolio supplied by
/// the caller.
pub fn run_search_with_initial(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
) -> SearchHistory {
    run_search_async(space, algo, objective, budget, seed, initial, 1)
}

/// The search loop, evaluating up to `batch` configurations at once. Each
/// round checks the budget, takes the next round (up to `batch` warm
/// starts while any are left, then `algo.suggest_batch(k)` for the `k`
/// evaluations the budget still allows, at most `batch`), evaluates it, and
/// commits its scores in suggestion order. The round in flight when a
/// wall-clock deadline passes still completes and is recorded.
///
/// The calling thread is the sole owner of the search algorithm (with its
/// surrogate) and the RNG, so neither sits behind a lock. A round of one
/// configuration, or any round on a one-thread pool, is evaluated inline;
/// otherwise the calling thread and up to `min(k, em_rt::threads()) - 1`
/// scoped helper threads claim configurations from one atomic counter.
/// The helpers are dedicated threads, not pool tasks, so the forest fits
/// inside each evaluation still get the shared `em-rt` pool. A panicking
/// objective panics out of the search once the round's other evaluations
/// finish.
///
/// The trajectory depends only on `(space, algo, budget, seed, initial,
/// batch)`, **never on the pool width**: the same `suggest_batch` calls
/// see the same committed history and RNG stream whichever thread scored
/// each configuration. At `batch = 1` this is the sequential suggest →
/// evaluate loop of [`run_search_with_initial`].
pub fn run_search_async(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
    batch: usize,
) -> SearchHistory {
    let batch = batch.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = SearchHistory::default();
    let start = Instant::now();
    let mut warm = initial.iter();
    loop {
        let remaining = match budget {
            Budget::Evaluations(n) => n.saturating_sub(history.len()),
            Budget::WallClock(d) if start.elapsed() >= d => 0,
            Budget::WallClock(_) => usize::MAX,
        };
        if remaining == 0 {
            break;
        }
        let k = remaining.min(batch);
        let round: Vec<Configuration> = if !warm.as_slice().is_empty() {
            let round: Vec<Configuration> = warm.by_ref().take(k).cloned().collect();
            for config in &round {
                assert!(
                    space.validate(config).is_ok(),
                    "warm-start configuration is invalid for this space"
                );
            }
            round
        } else {
            let round = algo.suggest_batch(space, &history, &mut rng, k);
            assert!(
                (1..=k).contains(&round.len()),
                "suggest_batch must return between 1 and {k} candidates"
            );
            for config in &round {
                debug_assert!(
                    space.validate(config).is_ok(),
                    "search algorithm produced an invalid configuration"
                );
            }
            round
        };
        let scores = evaluate_round(objective, history.len(), &round);
        for (config, score) in round.into_iter().zip(scores) {
            history.push(config, score);
        }
    }
    history
}

/// Score `round`, whose first configuration is trial `base`, and return
/// the scores in round order. The caller and `width - 1` scoped helpers
/// claim configurations from one counter; at width 1 (a round of one, or a
/// one-thread pool) no helper is spawned and the caller scores the round
/// inline. Scoring order cannot change a score: the objective is a pure
/// function of the configuration.
fn evaluate_round(
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    base: usize,
    round: &[Configuration],
) -> Vec<f64> {
    let width = round.len().min(em_rt::threads());
    // Relaxed: the counter only hands out indices; the scores come back
    // through the joins.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut scored = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(config) = round.get(i) else {
                return scored;
            };
            scored.push((i, traced_eval(objective, base + i, config)));
        }
    };
    let mut scores = vec![f64::NAN; round.len()];
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(claim)).collect();
        let mine = claim();
        // A helper's panic is re-raised here; one on this thread unwinds
        // out of the scope, which first waits for every helper to finish.
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)));
        for (i, score) in mine.into_iter().chain(theirs) {
            scores[i] = score;
        }
    });
    scores
}

/// Score `config` as trial `trial`, bracketed by the `search.eval_start` /
/// `search.eval_finish` trace events.
fn traced_eval(
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    trial: usize,
    config: &Configuration,
) -> f64 {
    em_obs::event("search.eval_start", || {
        vec![("trial", em_rt::Json::from(trial))]
    });
    let score = objective(config);
    em_obs::event("search.eval_finish", || {
        vec![
            ("trial", em_rt::Json::from(trial)),
            ("score", em_rt::Json::from(score)),
        ]
    });
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::RandomSearch;
    use crate::space::Domain;

    fn quadratic_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            "x",
            Domain::Float {
                lo: -2.0,
                hi: 2.0,
                log: false,
            },
        );
        s
    }

    /// Maximize -(x-1)^2: optimum at x = 1.
    fn objective(c: &Configuration) -> f64 {
        let x = c.get_float("x").unwrap();
        -(x - 1.0) * (x - 1.0)
    }

    #[test]
    fn evaluation_budget_is_exact() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(&space, &mut algo, &objective, Budget::Evaluations(37), 0);
        assert_eq!(h.len(), 37);
    }

    #[test]
    fn incumbent_is_the_max() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(&space, &mut algo, &objective, Budget::Evaluations(50), 1);
        let best = h.incumbent().unwrap();
        for t in h.trials() {
            assert!(t.score <= best.score);
        }
        assert_eq!(h.best_score(), best.score);
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(&space, &mut algo, &objective, Budget::Evaluations(40), 2);
        let trace = h.best_score_trace();
        for w in trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(trace.len(), 40);
    }

    #[test]
    fn deterministic_runs() {
        let space = quadratic_space();
        let h1 = run_search(
            &space,
            &mut RandomSearch,
            &objective,
            Budget::Evaluations(20),
            7,
        );
        let h2 = run_search(
            &space,
            &mut RandomSearch,
            &objective,
            Budget::Evaluations(20),
            7,
        );
        assert_eq!(h1.best_score(), h2.best_score());
        for (a, b) in h1.trials().iter().zip(h2.trials()) {
            assert_eq!(a.config, b.config);
        }
    }

    #[test]
    fn wall_clock_budget_stops() {
        let space = quadratic_space();
        let h = run_search(
            &space,
            &mut RandomSearch,
            &objective,
            Budget::WallClock(Duration::from_millis(20)),
            3,
        );
        assert!(!h.is_empty());
    }

    #[test]
    fn warm_start_configs_are_evaluated_first() {
        let space = quadratic_space();
        use crate::config::ParamValue;
        let good = Configuration::from_map([("x".to_string(), ParamValue::Float(1.0))]);
        let h = run_search_with_initial(
            &space,
            &mut RandomSearch,
            &objective,
            Budget::Evaluations(10),
            0,
            std::slice::from_ref(&good),
        );
        assert_eq!(h.trials()[0].config, good);
        assert_eq!(h.trials()[0].score, 0.0);
        assert_eq!(h.len(), 10);
        // The warm start is the optimum here, so it stays the incumbent.
        assert_eq!(h.incumbent().unwrap().index, 0);
    }

    #[test]
    fn warm_start_respects_tiny_budgets() {
        let space = quadratic_space();
        use crate::config::ParamValue;
        let configs: Vec<Configuration> = (0..5)
            .map(|i| {
                Configuration::from_map([("x".to_string(), ParamValue::Float(i as f64 / 10.0))])
            })
            .collect();
        let h = run_search_with_initial(
            &space,
            &mut RandomSearch,
            &objective,
            Budget::Evaluations(3),
            0,
            &configs,
        );
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn incumbent_after_keeps_the_earliest_of_tied_maxima() {
        let mut h = SearchHistory::default();
        for score in [0.5, 0.9, 0.9, 1.0, 0.9] {
            h.push(Configuration::default(), score);
        }
        let best = |n: usize| h.incumbent_after(n).map(|t| t.index);
        assert_eq!(best(0), None);
        assert_eq!(best(1), Some(0));
        assert_eq!(best(3), Some(1));
        assert_eq!(best(4), Some(3));
        assert_eq!(best(99), Some(3));
        assert_eq!(h.incumbent().map(|t| t.index), Some(3));
    }

    #[test]
    fn empty_history_best_is_neg_infinity() {
        let h = SearchHistory::default();
        assert_eq!(h.best_score(), f64::NEG_INFINITY);
        assert!(h.incumbent().is_none());
    }
}
