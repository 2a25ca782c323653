//! The search loop: suggest → evaluate → record, under an evaluation-count
//! or wall-clock budget (the paper's §III-A "time budget").

use crate::config::Configuration;
use crate::space::ConfigSpace;
use em_rt::StdRng;
use std::time::{Duration, Instant};

/// Search budget. The experiments default to evaluation counts for
/// determinism; wall-clock mode mirrors the paper's seconds-based budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Stop after this many objective evaluations.
    Evaluations(usize),
    /// Stop once this much wall-clock time has elapsed (the evaluation in
    /// flight when the deadline passes still completes).
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
        self.trials.iter().max_by(|a, b| {
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
    /// fit across the whole batch (SMAC returns the top-`k` candidates by
    /// expected improvement instead of refitting per suggestion).
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
    objective: &mut dyn FnMut(&Configuration) -> f64,
    budget: Budget,
    seed: u64,
) -> SearchHistory {
    run_search_with_initial(space, algo, objective, budget, seed, &[])
}

/// [`run_search`] with warm-start configurations: the `initial` configs are
/// evaluated first (in order, counting against the budget) so the search
/// algorithm's model sees them from its first suggestion — auto-sklearn's
/// meta-learning warm start, with the meta-learned portfolio supplied by
/// the caller.
pub fn run_search_with_initial(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &mut dyn FnMut(&Configuration) -> f64,
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
) -> SearchHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = SearchHistory::default();
    let start = Instant::now();
    let exhausted = |history: &SearchHistory, start: &Instant| match budget {
        Budget::Evaluations(n) => history.len() >= n,
        Budget::WallClock(d) => start.elapsed() >= d,
    };
    for config in initial {
        if exhausted(&history, &start) {
            break;
        }
        assert!(
            space.validate(config).is_ok(),
            "warm-start configuration is invalid for this space"
        );
        let score = objective(config);
        history.push(config.clone(), score);
    }
    loop {
        if exhausted(&history, &start) {
            break;
        }
        let config = algo.suggest(space, &history, &mut rng);
        debug_assert!(
            space.validate(&config).is_ok(),
            "search algorithm produced an invalid configuration"
        );
        let trial = history.len();
        em_obs::event("search.eval_start", || {
            vec![("trial", em_rt::Json::from(trial))]
        });
        let score = objective(&config);
        em_obs::event("search.eval_finish", || {
            vec![
                ("trial", em_rt::Json::from(trial)),
                ("score", em_rt::Json::from(score)),
            ]
        });
        history.push(config, score);
    }
    history
}

/// Outcome of [`run_search_async_report`]: the history plus per-worker
/// evaluation counts (empty when the inline path ran).
#[derive(Debug, Clone)]
pub struct AsyncSearchReport {
    /// The search trajectory, identical at any pool width for the same
    /// inputs.
    pub history: SearchHistory,
    /// Evaluations completed by each dedicated worker thread.
    pub evals_per_worker: Vec<usize>,
}

/// Asynchronous SMBO: persistent worker threads pull suggestions over an
/// `em-rt` channel and stream scores back, while the coordinator — the sole
/// owner of the surrogate and the RNG, so no mutex guards either — commits
/// results in suggestion order through a reorder buffer and issues the next
/// wave of suggestions. See [`run_search_async_report`] for the worker
/// accounting variant.
///
/// The trajectory depends only on `(space, algo, budget, seed, initial,
/// batch)`, **never on the pool width**: the coordinator makes the same
/// `suggest_batch` calls against the same committed history and the same
/// RNG stream with or without workers, and evaluation results are committed
/// in suggestion order no matter which worker finished first. At pool width
/// 1 there are no workers and each round is evaluated inline on the caller
/// thread; that inline path is the oracle the worker path is tested
/// against. Workers are dedicated channel-fed threads, which leaves the
/// shared pool free for nested parallelism inside the objective (e.g.
/// forest fits).
pub fn run_search_async(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
    batch: usize,
) -> SearchHistory {
    run_search_async_report(space, algo, objective, budget, seed, initial, batch).history
}

/// [`run_search_async`], additionally reporting how many evaluations each
/// worker thread completed (for scheduling/starvation diagnostics).
///
/// Worker count is `min(batch, em_rt::threads() - 1)` — one slot is left
/// for the coordinator. When that is zero (a pool width of 1) the search
/// runs inline on the caller thread and still produces the exact same
/// history and the same `search.eval_start` / `search.eval_finish` events
/// (with `worker` 0), which is what makes the 1-vs-N-thread determinism
/// harness able to cover this path.
pub fn run_search_async_report(
    space: &ConfigSpace,
    algo: &mut dyn SearchAlgorithm,
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    budget: Budget,
    seed: u64,
    initial: &[Configuration],
    batch: usize,
) -> AsyncSearchReport {
    let batch = batch.max(1);
    let n_workers = batch.min(em_rt::threads().saturating_sub(1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = SearchHistory::default();
    let start = Instant::now();
    let exhausted = |history: &SearchHistory, start: &Instant| match budget {
        Budget::Evaluations(n) => history.len() >= n,
        Budget::WallClock(d) => start.elapsed() >= d,
    };
    // Evaluations left; a wall-clock budget has no count, so like the
    // sequential runner it offers every warm start and lets the deadline
    // decide how many are committed.
    let remaining = |history: &SearchHistory| match budget {
        Budget::Evaluations(n) => n.saturating_sub(history.len()),
        Budget::WallClock(_) => usize::MAX,
    };
    let warm: Vec<Configuration> = initial.iter().take(remaining(&history)).cloned().collect();
    for config in &warm {
        assert!(
            space.validate(config).is_ok(),
            "warm-start configuration is invalid for this space"
        );
    }

    if n_workers == 0 {
        // Inline path: the identical suggest/commit sequence, evaluated on
        // the caller thread (the objective is pure, so scoring a suggestion
        // before or after its batch-mates cannot change any committed value).
        let mut round = warm;
        loop {
            for config in round.drain(..) {
                if exhausted(&history, &start) {
                    break;
                }
                let score = traced_eval(objective, history.len(), 0, &config);
                history.push(config, score);
            }
            if exhausted(&history, &start) {
                break;
            }
            let k = remaining(&history).min(batch).max(1);
            round = algo.suggest_batch(space, &history, &mut rng, k);
            assert!(!round.is_empty(), "suggest_batch returned no candidates");
        }
        return AsyncSearchReport {
            history,
            evals_per_worker: Vec::new(),
        };
    }

    let (job_tx, job_rx) = em_rt::channel::<(usize, Configuration)>();
    let (result_tx, result_rx) = em_rt::channel::<(usize, usize, f64)>();
    let mut evals_per_worker = vec![0usize; n_workers];

    std::thread::scope(|s| {
        for w in 0..n_workers {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            s.spawn(move || {
                while let Some((ix, config)) = jobs.recv() {
                    let score = traced_eval(objective, ix, w, &config);
                    if results.send((ix, w, score)).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold their own clones; dropping these keeps channel
        // close semantics tied to the coordinator (job_tx) and the worker
        // set (result_tx clones).
        drop(job_rx);
        drop(result_tx);

        let mut round = warm;
        loop {
            // Dispatch the round; workers race for jobs over the channel.
            let base = history.len();
            for (i, config) in round.iter().enumerate() {
                job_tx
                    .send((base + i, config.clone()))
                    .expect("workers alive while coordinator dispatches");
            }
            // Reorder buffer: collect every score of the round, then commit
            // in suggestion order regardless of completion order.
            let mut scores: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            while scores.len() < round.len() {
                let (ix, w, score) = result_rx.recv().expect("a worker result per job");
                evals_per_worker[w] += 1;
                scores.insert(ix, score);
            }
            for (i, config) in round.drain(..).enumerate() {
                if exhausted(&history, &start) {
                    break;
                }
                history.push(config, scores[&(base + i)]);
            }
            if exhausted(&history, &start) {
                break;
            }
            let k = remaining(&history).min(batch).max(1);
            round = algo.suggest_batch(space, &history, &mut rng, k);
            assert!(!round.is_empty(), "suggest_batch returned no candidates");
            for config in &round {
                debug_assert!(
                    space.validate(config).is_ok(),
                    "search algorithm produced an invalid configuration"
                );
            }
        }
        // Closing the job channel sends workers home; the scope joins them.
        job_tx.close();
    });

    AsyncSearchReport {
        history,
        evals_per_worker,
    }
}

/// Score `config` as trial `trial` on async worker `worker`, bracketed by
/// the `search.eval_start` / `search.eval_finish` trace events.
fn traced_eval(
    objective: &(dyn Fn(&Configuration) -> f64 + Sync),
    trial: usize,
    worker: usize,
    config: &Configuration,
) -> f64 {
    em_obs::event("search.eval_start", || {
        vec![
            ("trial", em_rt::Json::from(trial)),
            ("worker", em_rt::Json::from(worker)),
        ]
    });
    let score = objective(config);
    em_obs::event("search.eval_finish", || {
        vec![
            ("trial", em_rt::Json::from(trial)),
            ("worker", em_rt::Json::from(worker)),
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
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(37),
            0,
        );
        assert_eq!(h.len(), 37);
    }

    #[test]
    fn incumbent_is_the_max() {
        let space = quadratic_space();
        let mut algo = RandomSearch;
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(50),
            1,
        );
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
        let h = run_search(
            &space,
            &mut algo,
            &mut objective,
            Budget::Evaluations(40),
            2,
        );
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
            &mut objective,
            Budget::Evaluations(20),
            7,
        );
        let h2 = run_search(
            &space,
            &mut RandomSearch,
            &mut objective,
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
            &mut objective,
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
            &mut objective,
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
            &mut objective,
            Budget::Evaluations(3),
            0,
            &configs,
        );
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn empty_history_best_is_neg_infinity() {
        let h = SearchHistory::default();
        assert_eq!(h.best_score(), f64::NEG_INFINITY);
        assert!(h.incumbent().is_none());
    }
}
