//! Regression tests for the batched search loop. The pool width is the
//! only serial/parallel switch: at width 1 every round is evaluated inline
//! on the caller thread, and that inline path is the oracle the helper
//! threads must match exactly for the same seed — which is what makes the
//! search thread-count-deterministic. Golden digests pin the trajectories
//! across commits, warm starts survive a wall-clock budget, both paths
//! trace the same evaluation events, and a panicking objective panics out
//! of the search instead of hanging it.

use em_automl::{
    run_search_async, run_search_with_initial, Budget, ConfigSpace, Configuration, Domain,
    ParamValue, RandomSearch, SearchAlgorithm, SearchHistory, SmacSearch, TpeSearch,
};
use em_rt::Json;
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

fn assert_same_history(a: &SearchHistory, b: &SearchHistory) {
    assert_eq!(a.len(), b.len());
    for (ta, tb) in a.trials().iter().zip(b.trials()) {
        assert_eq!(ta.config, tb.config);
        assert_eq!(ta.score.to_bits(), tb.score.to_bits());
        assert_eq!(ta.index, tb.index);
    }
}

/// Two valid warm starts on the random-forest branch of the toy space.
fn two_warm_starts() -> Vec<Configuration> {
    [0.2, -1.0]
        .iter()
        .map(|&x| {
            Configuration::from_map([
                ("model".to_string(), ParamValue::Cat("rf".into())),
                ("rf:trees".to_string(), ParamValue::Int(50)),
                ("x".to_string(), ParamValue::Float(x)),
            ])
        })
        .collect()
}

/// FNV-1a-64 over each trial's index (`u64`, little-endian), its
/// configuration's `Display` rendering and its score's bits (little-endian).
fn trajectory_digest(history: &SearchHistory) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in history.trials() {
        let rendered = t.config.to_string();
        let bytes = (t.index as u64)
            .to_le_bytes()
            .into_iter()
            .chain(rendered.bytes())
            .chain(t.score.to_bits().to_le_bytes());
        for byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `f` run at pool width 1 (the inline path, the oracle) and then at the
/// wide width: 4, or `EM_THREADS` when the environment sets it (only then
/// is `set_threads` left alone, since it would override the variable).
/// Unless `EM_THREADS=1` asks for a one-thread process, the wide run must
/// really have pool workers (a pool that wide lets rounds use helper
/// threads), or the comparison would pass trivially.
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
fn trajectories_match_the_golden_digests() {
    let _guard = serialize();
    // Digests of 30-evaluation searches from two warm starts: any change
    // to a searcher's suggestions, the RNG stream, the order warm starts
    // and rounds are committed in, or the budget rule moves them. Batch 1
    // pins the sequential loop, batch 4 the batched one.
    // Log-scale domains and SMAC's surrogate call `exp`/`ln`; the digests
    // were computed with glibc's libm on x86-64.
    let space = build_space();
    let warm = two_warm_starts();
    type MakeAlgo = fn() -> Box<dyn SearchAlgorithm>;
    let algos: [(&str, MakeAlgo); 3] = [
        ("smac", || Box::new(SmacSearch::default())),
        ("tpe", || Box::new(TpeSearch::default())),
        ("random", || Box::new(RandomSearch)),
    ];
    let mut got = Vec::new();
    for (name, make) in algos {
        for batch in [1usize, 4] {
            let budget = Budget::Evaluations(30);
            let history = if batch == 1 {
                run_search_with_initial(&space, &mut *make(), &toy_objective, budget, 5, &warm)
            } else {
                run_search_async(
                    &space,
                    &mut *make(),
                    &toy_objective,
                    budget,
                    5,
                    &warm,
                    batch,
                )
            };
            assert_eq!(history.len(), 30);
            got.push(format!(
                "{name}/{batch} {:016x}",
                trajectory_digest(&history)
            ));
        }
    }
    let want = [
        "smac/1 f0121be05c9defed",
        "smac/4 0ead5af9d7a90d2c",
        "tpe/1 b70f3cc2cd6150b3",
        "tpe/4 77a9707863d57632",
        "random/1 07151f387bd4d209",
        "random/4 07151f387bd4d209",
    ];
    assert_eq!(got, want);
}

#[test]
fn a_panicking_objective_panics_out_of_a_batched_search() {
    let _guard = serialize();
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    // The search runs on a thread of its own, so a search that hangs fails
    // this test after a minute instead of stalling the suite.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let search = std::thread::spawn(move || {
        let searched = std::panic::catch_unwind(|| {
            run_search_async(
                &build_space(),
                &mut RandomSearch,
                &|c: &Configuration| {
                    let x = c.get_float("x").unwrap();
                    assert!(x <= 1.0, "the objective fails at x = {x}");
                    toy_objective(c)
                },
                Budget::Evaluations(64),
                0,
                &[],
                4,
            )
        });
        let _ = done_tx.send(searched.is_err());
    });
    let panicked = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the search hung after its objective panicked");
    search.join().expect("the search thread caught the panic");
    assert!(
        panicked,
        "the search returned although its objective panicked"
    );
}

#[test]
fn serial_fallback_reproduces_the_async_history() {
    let _guard = serialize();
    // A one-thread pool evaluates every round inline; that must produce the
    // exact same trajectory as the run whose rounds use helper threads.
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
fn wall_clock_budget_commits_every_warm_start() {
    let _guard = serialize();
    // Warm starts are offered before any suggestion, in rounds of `batch`
    // (2 here), and a wall-clock budget is checked only between rounds: an
    // instant objective commits all five well inside the deadline, at any
    // width.
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
    // Inline and on helper threads, at batch 1 and 4, every trial (warm
    // starts included) writes one `search.eval_start` and one
    // `search.eval_finish` trace event.
    let space = build_space();
    let warm = two_warm_starts();
    let path = std::env::temp_dir().join(format!("em-async-trace-{}.jsonl", std::process::id()));
    for batch in [1usize, 4] {
        let traced = || {
            em_obs::set_mode(em_obs::TraceMode::File(path.to_string_lossy().into_owned()));
            let history = run_search_async(
                &space,
                &mut SmacSearch::default(),
                &toy_objective,
                Budget::Evaluations(12),
                2,
                &warm,
                batch,
            );
            em_obs::flush();
            em_obs::set_mode(em_obs::TraceMode::Off);
            let text = std::fs::read_to_string(&path).expect("trace file written");
            let records = em_obs::report::parse_trace(&text).expect("trace parses");
            (history.len(), records)
        };
        let (inline, wide) = inline_and_wide(traced);
        for (trials, records) in [inline, wide] {
            assert_eq!(trials, 12);
            for name in ["search.eval_start", "search.eval_finish"] {
                let mut seen: Vec<usize> = records
                    .iter()
                    .filter(|r| r.get("event").and_then(Json::as_str) == Some(name))
                    .map(|r| r.get("trial").and_then(Json::as_f64).expect("trial field") as usize)
                    .collect();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..trials).collect::<Vec<_>>(),
                    "{name}, batch {batch}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
