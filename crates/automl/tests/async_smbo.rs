//! Regression tests for the asynchronous SMBO runner. The pool width is
//! the only serial/parallel switch: at width 1 the runner evaluates inline
//! on the caller thread, and that inline path is the oracle its worker path
//! must match exactly for the same seed — which is what makes the runner
//! thread-count-deterministic. Every dedicated worker must get work (no
//! starvation), warm starts survive a wall-clock budget, and both paths
//! trace the same evaluation events.

use em_automl::{
    run_search, run_search_async, run_search_async_report, run_search_with_initial, Budget,
    ConfigSpace, Configuration, Domain, ParamValue, RandomSearch, SearchAlgorithm, SmacSearch,
    TpeSearch,
};
use em_rt::{Json, StdRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// These tests mutate the process-global `em_rt::set_threads` knob and the
/// trace mode, so they must not interleave with each other.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A conditional toy space exercising categorical, int, and float domains.
fn build_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    s.add(
        "model",
        Domain::Categorical(vec!["rf".into(), "gbm".into()]),
    );
    s.add_conditional(
        "rf:trees",
        Domain::Int {
            lo: 10,
            hi: 500,
            log: true,
        },
        "model",
        ["rf"],
    );
    s.add_conditional(
        "gbm:lr",
        Domain::Float {
            lo: 0.01,
            hi: 1.0,
            log: true,
        },
        "model",
        ["gbm"],
    );
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

/// Constant-time rigged objective: a deterministic function of the
/// configuration alone, so inline and worker runs are comparable
/// eval-by-eval.
fn toy_objective(c: &Configuration) -> f64 {
    let x = c.get_float("x").unwrap();
    let bonus = match c.get_str("model") {
        Some("rf") => c.get_int("rf:trees").unwrap() as f64 / 500.0,
        _ => c.get_float("gbm:lr").unwrap_or(0.0),
    };
    -(x - 0.5) * (x - 0.5) + 0.1 * bonus
}

fn assert_same_history(a: &em_automl::SearchHistory, b: &em_automl::SearchHistory) {
    assert_eq!(a.len(), b.len());
    for (ta, tb) in a.trials().iter().zip(b.trials()) {
        assert_eq!(ta.config, tb.config);
        assert_eq!(ta.score.to_bits(), tb.score.to_bits());
        assert_eq!(ta.index, tb.index);
    }
}

/// `f` run at pool width 1 (the inline path, the oracle) and then at the
/// wide width: 4, or `EM_THREADS` when the environment sets it (only then
/// is `set_threads` left alone, since it would override the variable).
/// Unless `EM_THREADS=1` asks for a one-thread process, the wide run must
/// really have workers, or the comparison would pass trivially.
fn inline_and_wide<T>(f: impl Fn() -> T) -> (T, T) {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let wide = em_rt::threads();
    if std::env::var("EM_THREADS").as_deref() != Ok("1") {
        assert!(
            em_rt::pool_workers() > 0,
            "the wide run has no pool workers"
        );
    }
    em_rt::set_threads(1);
    let inline = f();
    em_rt::set_threads(wide);
    (inline, f())
}

#[test]
fn worker_path_visits_the_same_configurations_as_the_inline_path() {
    let _guard = serialize();
    let space = build_space();
    for seed in [0u64, 7, 1234] {
        for batch in [2usize, 4, 8] {
            let (inline, workers) = inline_and_wide(|| {
                run_search_async(
                    &space,
                    &mut SmacSearch::default(),
                    &toy_objective,
                    Budget::Evaluations(24),
                    seed,
                    &[],
                    batch,
                )
            });
            // Not merely the same set: the same configurations with the
            // same scores in the same commit order.
            assert_same_history(&inline, &workers);
        }
    }
}

#[test]
fn worker_path_matches_the_inline_path_for_tpe_too() {
    let _guard = serialize();
    let space = build_space();
    let (inline, workers) = inline_and_wide(|| {
        run_search_async(
            &space,
            &mut TpeSearch::default(),
            &toy_objective,
            Budget::Evaluations(20),
            3,
            &[],
            4,
        )
    });
    assert_same_history(&inline, &workers);
}

#[test]
fn serial_fallback_reproduces_the_async_history() {
    let _guard = serialize();
    // A one-thread pool drives worker count to zero; the inline fallback
    // must produce the exact same trajectory as the threaded run.
    let space = build_space();
    let (serial, threaded) = inline_and_wide(|| {
        run_search_async(
            &space,
            &mut SmacSearch::default(),
            &toy_objective,
            Budget::Evaluations(16),
            11,
            &[],
            4,
        )
    });
    assert_same_history(&serial, &threaded);
}

#[test]
fn smac_batch_of_one_is_the_sequential_suggestion() {
    // At every prefix of a SMAC history (the random-init phase, the
    // interleaved random slots and the ranked ones) a batch of one must be
    // `suggest`'s configuration and leave the RNG where `suggest` does.
    let space = build_space();
    for seed in [0u64, 3, 41] {
        let full = run_search(
            &space,
            &mut SmacSearch::default(),
            &mut toy_objective,
            Budget::Evaluations(30),
            seed,
        );
        let configs: Vec<Configuration> = full.trials().iter().map(|t| t.config.clone()).collect();
        for n in 0..configs.len() {
            // Warm-starting with the first n configurations rebuilds the
            // prefix through the public runner.
            let prefix = run_search_with_initial(
                &space,
                &mut RandomSearch,
                &mut toy_objective,
                Budget::Evaluations(n),
                0,
                &configs[..n],
            );
            let mut seq_rng = StdRng::seed_from_u64(seed ^ n as u64);
            let mut batch_rng = seq_rng.clone();
            let one = SmacSearch::default().suggest(&space, &prefix, &mut seq_rng);
            let batch = SmacSearch::default().suggest_batch(&space, &prefix, &mut batch_rng, 1);
            assert_eq!(batch, vec![one], "seed {seed}, prefix {n}");
            assert_eq!(batch_rng, seq_rng, "seed {seed}, prefix {n}: RNG diverged");
        }
    }
}

#[test]
fn async_batch_of_one_reproduces_the_sequential_runner() {
    let _guard = serialize();
    let space = build_space();
    let warm: Vec<Configuration> = [0.2, -1.0]
        .iter()
        .map(|&x| {
            Configuration::from_map([
                ("model".to_string(), ParamValue::Cat("rf".into())),
                ("rf:trees".to_string(), ParamValue::Int(50)),
                ("x".to_string(), ParamValue::Float(x)),
            ])
        })
        .collect();
    let algos: [fn() -> Box<dyn SearchAlgorithm>; 3] = [
        || Box::new(SmacSearch::default()),
        || Box::new(TpeSearch::default()),
        || Box::new(RandomSearch),
    ];
    for make in algos {
        for seed in [0u64, 3] {
            let budget = Budget::Evaluations(30);
            let sequential = run_search_with_initial(
                &space,
                &mut *make(),
                &mut toy_objective,
                budget,
                seed,
                &warm,
            );
            let (inline, workers) = inline_and_wide(|| {
                run_search_async(&space, &mut *make(), &toy_objective, budget, seed, &warm, 1)
            });
            assert_same_history(&sequential, &inline);
            assert_same_history(&sequential, &workers);
        }
    }
}

#[test]
fn wall_clock_budget_commits_every_warm_start() {
    let _guard = serialize();
    // Like the sequential runner, a wall-clock budget evaluates every warm
    // start before the deadline can stop the search, at any width; the
    // batch size (2 here) does not cap them.
    let space = build_space();
    let warm: Vec<Configuration> = (0..5)
        .map(|i| {
            Configuration::from_map([
                ("model".to_string(), ParamValue::Cat("gbm".into())),
                (
                    "gbm:lr".to_string(),
                    ParamValue::Float(0.1 * (i + 1) as f64),
                ),
                ("x".to_string(), ParamValue::Float(i as f64 / 5.0)),
            ])
        })
        .collect();
    let (inline, workers) = inline_and_wide(|| {
        run_search_async(
            &space,
            &mut RandomSearch,
            &toy_objective,
            Budget::WallClock(Duration::from_millis(50)),
            0,
            &warm,
            2,
        )
    });
    for history in [&inline, &workers] {
        assert!(history.len() >= warm.len());
        for (trial, config) in history.trials().iter().zip(&warm) {
            assert_eq!(&trial.config, config);
        }
    }
}

#[test]
fn every_evaluation_emits_one_eval_start_and_finish() {
    let _guard = serialize();
    // The inline path and the worker path write the same trace events: one
    // `search.eval_start` and one `search.eval_finish` per trial.
    let space = build_space();
    let path = std::env::temp_dir().join(format!("em-async-trace-{}.jsonl", std::process::id()));
    let traced = || {
        em_obs::set_mode(em_obs::TraceMode::File(path.to_string_lossy().into_owned()));
        let history = run_search_async(
            &space,
            &mut SmacSearch::default(),
            &toy_objective,
            Budget::Evaluations(12),
            2,
            &[],
            4,
        );
        em_obs::flush();
        em_obs::set_mode(em_obs::TraceMode::Off);
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let records = em_obs::report::parse_trace(&text).expect("trace parses");
        (history.len(), records)
    };
    let (inline, workers) = inline_and_wide(traced);
    let _ = std::fs::remove_file(&path);
    for (trials, records) in [inline, workers] {
        assert_eq!(trials, 12);
        for name in ["search.eval_start", "search.eval_finish"] {
            let mut seen: Vec<usize> = records
                .iter()
                .filter(|r| r.get("event").and_then(Json::as_str) == Some(name))
                .map(|r| r.get("trial").and_then(Json::as_f64).expect("trial field") as usize)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..trials).collect::<Vec<_>>(), "{name}");
        }
    }
}

#[test]
fn no_worker_starves() {
    let _guard = serialize();
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let batch = 8usize;
    let n_workers = batch.min(em_rt::threads().saturating_sub(1));
    if n_workers < 2 {
        // EM_THREADS pinned the pool below real concurrency; the inline
        // fallback path is covered by serial_fallback_reproduces_the_async_history.
        return;
    }
    // Rig the objective to block until every worker has picked up a job:
    // the first round dispatches `batch >= n_workers` jobs, so each worker
    // must claim (and therefore complete) at least one evaluation.
    let started = AtomicUsize::new(0);
    let space = build_space();
    let gated = |c: &Configuration| -> f64 {
        let me = started.fetch_add(1, Ordering::SeqCst) + 1;
        if me <= n_workers {
            while started.load(Ordering::SeqCst) < n_workers {
                std::hint::spin_loop();
            }
        }
        toy_objective(c)
    };
    let report = run_search_async_report(
        &space,
        &mut SmacSearch::default(),
        &gated,
        Budget::Evaluations(32),
        5,
        &[],
        batch,
    );
    assert_eq!(report.history.len(), 32);
    assert_eq!(report.evals_per_worker.len(), n_workers);
    assert!(
        report.evals_per_worker.iter().all(|&n| n >= 1),
        "a worker starved: {:?}",
        report.evals_per_worker
    );
    assert_eq!(report.evals_per_worker.iter().sum::<usize>(), 32);
}
