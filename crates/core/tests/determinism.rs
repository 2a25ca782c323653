//! Thread-count determinism harness: with a fixed seed, every pool-parallel
//! path in the workspace must produce bit-identical results whether the
//! shared `em-rt` pool runs the work on 1 thread or many. This is the
//! guarantee that lets every experiment in the repo report one number
//! regardless of the host. Covered paths:
//!
//! 1. pairwise feature generation + forest training (the original check),
//! 2. `em-table` blocking candidate generation,
//! 3. stratified k-fold `cross_val_f1`,
//! 4. permutation feature importances,
//! 5. `em-data` benchmark synthesis,
//! 6. the batched search trajectory (inline rounds vs helper threads),
//! 7. cached feature generation (`FeatureCache`): profile building and memo
//!    filling at any thread count, bit-identical to the uncached path,
//! 8. `em-weak` labeling-function application and label-model EM fitting
//!    (parallel E-step), bit-identical votes/posteriors at any pool size.
//!
//! Every check flips the pool width with `em_rt::set_threads`, the only
//! serial/parallel switch: the same call runs once on a one-thread pool and
//! once at the wide width (4, or `EM_THREADS` when the environment sets
//! it). This harness gets its own process (integration-test binary), so it
//! can size the global pool without interfering with other tests.
//! `verify.sh` additionally runs the whole tier-1 suite under
//! `EM_THREADS=1` and `EM_THREADS=8`; inside the `EM_THREADS=8` run these
//! tests compare 1-thread against 8-thread execution in-process.

use automl_em::{EmPipelineConfig, FeatureCache, FeatureGenerator, FeatureScheme};
use em_ml::{Classifier, ForestParams, Matrix, RandomForestClassifier};
use em_table::{Blocker, OverlapBlocker, RecordPair};
use std::sync::{Mutex, MutexGuard};

/// Tests here may mutate the process-global `em_rt::set_threads` knob, so
/// they must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Make the wide width 4 threads even on single-core CI hosts, unless the
/// environment sets `EM_THREADS`: its value is then the wide width, so
/// `set_threads`, which overrides the variable, is left alone.
fn ensure_pool() {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
}

/// `f` run on a one-thread pool, then at the wide width ([`ensure_pool`]).
/// Unless `EM_THREADS=1` asks for a one-thread process, the wide run must
/// really have pool workers, or the comparison would pass trivially.
fn serial_and_wide<T>(f: impl Fn() -> T) -> (T, T) {
    ensure_pool();
    let wide = em_rt::threads();
    if std::env::var("EM_THREADS").as_deref() != Ok("1") {
        assert!(
            em_rt::pool_workers() > 0,
            "the wide run has no pool workers"
        );
    }
    em_rt::set_threads(1);
    let serial = f();
    em_rt::set_threads(wide);
    (serial, f())
}

/// Small labeled feature data with an informative column, a noisy column, a
/// missing-prone column, and a constant column.
fn toy_data() -> (Matrix, Vec<usize>) {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for i in 0..80 {
        let c = i % 2;
        let noise = ((i * 7) % 13) as f64 / 13.0;
        let missing = if i % 9 == 0 { f64::NAN } else { noise };
        rows.push(vec![c as f64 + 0.1 * noise, noise, missing, 1.0]);
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

#[test]
fn feature_matrix_and_forest_are_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();

    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(7, 0.2);
    let generator =
        FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    assert!(
        pairs.len() >= 64,
        "need enough pairs to trigger the parallel path"
    );

    // Feature matrix: serial vs pooled, bit for bit (NaN = missing cell).
    let (serial, pooled) = serial_and_wide(|| generator.generate(&ds.table_a, &ds.table_b, &pairs));
    assert_eq!(serial.nrows(), pooled.nrows());
    assert_eq!(serial.ncols(), pooled.ncols());
    for (a, b) in serial.as_slice().iter().zip(pooled.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Forest: 1 thread vs many, identical predictions and probabilities.
    // Trees reject NaN, so impute the missing cells first (mean, like the
    // pipeline's default preprocessor).
    let (_, serial) = em_ml::preprocess::SimpleImputer::fit_transform(
        em_ml::preprocess::ImputeStrategy::Mean,
        &serial,
    );
    let labels: Vec<usize> = ds.pairs.iter().map(|p| usize::from(p.label)).collect();
    let (rf1, rfn) = serial_and_wide(|| {
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 31,
            seed: 41,
            ..ForestParams::default()
        });
        rf.fit(&serial, &labels, 2, None);
        rf
    });
    assert_eq!(rf1.predict(&serial), rfn.predict(&serial));
    let (p1, pn) = (rf1.predict_proba(&serial), rfn.predict_proba(&serial));
    for (a, b) in p1.as_slice().iter().zip(pn.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(rf1.vote_fraction(&serial), rfn.vote_fraction(&serial));
}

#[test]
fn cached_featuregen_is_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();

    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(7, 0.2);
    let generator =
        FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    assert!(
        pairs.len() >= 64,
        "need enough pairs to trigger the parallel path"
    );

    let bitwise_eq = |a: &Matrix, b: &Matrix| {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    };

    // Serial build + serial memo fill vs pooled build + pooled fill: the
    // interner ids, memo contents, and output matrix must all agree bit for
    // bit, and both must match the uncached `&str` path. Re-running against
    // a warm memo changes nothing.
    let (serial, pooled) = serial_and_wide(|| {
        let uncached = generator.generate(&ds.table_a, &ds.table_b, &pairs);
        let mut cache = FeatureCache::new(generator.clone(), &ds.table_a, &ds.table_b);
        let cold = cache.generate(&ds.table_a, &ds.table_b, &pairs);
        let warm = cache.generate(&ds.table_a, &ds.table_b, &pairs);
        (
            uncached,
            cache.interned_tokens(),
            cache.memo_len(),
            cold,
            warm,
        )
    });
    let uncached = &serial.0;
    bitwise_eq(uncached, &pooled.0);
    assert_eq!(serial.1, pooled.1);
    assert_eq!(serial.2, pooled.2);
    for from_cache in [&serial.3, &pooled.3, &serial.4, &pooled.4] {
        bitwise_eq(uncached, from_cache);
    }
}

#[test]
fn featcache_counters_reach_the_trace() {
    let _guard = serialize();
    ensure_pool();
    // With tracing on, the cache's em-obs counters (profile builds, memo
    // hits/misses, interner size) must land in the flushed trace — and a
    // second batch over the same pairs must be pure memo hits.
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(3, 0.2);
    let generator =
        FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let trace_path =
        std::env::temp_dir().join(format!("em-featcache-trace-{}.jsonl", std::process::id()));
    em_obs::set_mode(em_obs::TraceMode::File(
        trace_path.to_string_lossy().into_owned(),
    ));
    let mut cache = FeatureCache::new(generator, &ds.table_a, &ds.table_b);
    let _ = cache.generate(&ds.table_a, &ds.table_b, &pairs);
    let _ = cache.generate(&ds.table_a, &ds.table_b, &pairs);
    em_obs::flush();
    em_obs::set_mode(em_obs::TraceMode::Off);
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let records = em_obs::report::parse_trace(&text).expect("trace parses");
    let counter = |name: &str| -> u64 {
        records
            .iter()
            .filter(|r| r.get("kind").and_then(em_rt::Json::as_str) == Some("counter"))
            .filter(|r| r.get("name").and_then(em_rt::Json::as_str) == Some(name))
            .filter_map(|r| r.get("value").and_then(em_rt::Json::as_f64))
            .map(|v| v as u64)
            .max()
            .unwrap_or(0)
    };
    assert!(counter("featcache.profile_builds") > 0);
    assert!(counter("featcache.interner_tokens") > 0);
    assert!(counter("featcache.memo_misses") > 0);
    // The second batch repeats every key, so hits must at least cover it.
    assert!(counter("featcache.memo_hits") > 0);
}

#[test]
fn blocking_candidates_are_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();
    // DBLP-ACM at 0.2 scale yields ~440 records per table — enough to span
    // multiple 256-record probe shards.
    let ds = em_data::Benchmark::DblpAcm.generate_scaled(11, 0.2);
    assert!(ds.table_a.len() > 256, "need multiple shards");
    let attr = ds.table_a.schema().names()[0].to_string();
    let blocker = OverlapBlocker {
        attribute: attr,
        min_overlap: 2,
    };
    let (serial, pooled) = serial_and_wide(|| blocker.candidates(&ds.table_a, &ds.table_b));
    assert!(!serial.is_empty());
    assert_eq!(serial, pooled);
}

#[test]
fn cross_val_f1_is_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();
    let (x, y) = toy_data();
    let config = EmPipelineConfig::default_random_forest(3);
    let (serial, pooled) = serial_and_wide(|| config.cross_val_f1(&x, &y, 5, 9));
    assert_eq!(serial.to_bits(), pooled.to_bits());
}

#[test]
fn permutation_importances_are_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();
    let (x, y) = toy_data();
    let fitted = EmPipelineConfig::default_random_forest(5).fit(&x, &y);
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    let (serial, pooled) =
        serial_and_wide(|| fitted.permutation_importances(&x, &y, &names, 3, 17));
    assert_eq!(serial.entries.len(), pooled.entries.len());
    for (a, b) in serial.entries.iter().zip(&pooled.entries) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

#[test]
fn benchmark_synthesis_is_thread_count_invariant() {
    let _guard = serialize();
    ensure_pool();
    for b in [
        em_data::Benchmark::FodorsZagats,
        em_data::Benchmark::DblpScholar,
        em_data::Benchmark::AbtBuy,
    ] {
        let (serial, pooled) = serial_and_wide(|| b.generate_scaled(13, 0.1));
        assert_eq!(serial.table_a, pooled.table_a, "{}", serial.name);
        assert_eq!(serial.table_b, pooled.table_b, "{}", serial.name);
        assert_eq!(serial.pairs, pooled.pairs, "{}", serial.name);
    }
}

#[test]
fn results_are_identical_with_tracing_on_and_off() {
    let _guard = serialize();
    ensure_pool();
    // The observability contract: instrumentation observes, it never feeds
    // back. A traced run must produce bit-identical results to an untraced
    // one — spans, counters, and events may not perturb RNG streams, work
    // partitioning, or float accumulation order.
    let (x, y) = toy_data();
    let run = || {
        let config = EmPipelineConfig::default_random_forest(7);
        let f1 = config.cross_val_f1(&x, &y, 5, 3);
        let fitted = config.fit(&x, &y);
        (f1, fitted.predict(&x))
    };
    let trace_path =
        std::env::temp_dir().join(format!("em-det-trace-{}.jsonl", std::process::id()));
    em_obs::set_mode(em_obs::TraceMode::File(
        trace_path.to_string_lossy().into_owned(),
    ));
    let traced = run();
    em_obs::flush();
    em_obs::set_mode(em_obs::TraceMode::Off);
    let untraced = run();
    assert_eq!(traced.0.to_bits(), untraced.0.to_bits());
    assert_eq!(traced.1, untraced.1);
    // The trace itself must be well-formed JSONL with the expected spans.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let records = em_obs::report::parse_trace(&text).expect("trace parses");
    assert!(!records.is_empty());
    assert!(text.contains("pipeline.cross_val"));
    assert!(text.contains("forest.fit"));
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn async_smbo_trajectory_is_thread_count_invariant() {
    let _guard = serialize();
    // End-to-end: the full AutoML-EM driver with batched candidate
    // evaluation, run once with a 1-thread pool (every round inline) and
    // once with a wide pool (rounds on helper threads) — same seed,
    // identical trajectory, including the forest fits nested inside each
    // objective evaluation.
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(2, 0.2);
    let prep = automl_em::PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 2);
    let (xt, yt) = prep.train();
    let (xv, yv) = prep.valid();
    let run = || {
        let driver = automl_em::AutoMlEm::new(automl_em::AutoMlEmOptions {
            budget: em_automl::Budget::Evaluations(6),
            candidate_batch: 3,
            seed: 21,
            ..Default::default()
        });
        driver.fit(&xt, &yt, &xv, &yv)
    };
    let (serial, pooled) = serial_and_wide(run);
    assert_eq!(serial.history.len(), pooled.history.len());
    for (a, b) in serial.history.trials().iter().zip(pooled.history.trials()) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    assert_eq!(serial.best_configuration, pooled.best_configuration);
    assert_eq!(
        serial.validation_f1.to_bits(),
        pooled.validation_f1.to_bits()
    );
}

#[test]
fn weak_lf_application_and_label_model_are_thread_count_invariant() {
    let _guard = serialize();
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(5, 0.3);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let lfs = em_weak::LfSet::similarity_battery(&ds.table_a, &ds.table_b, 0.7, 0.2);
    let run = || {
        em_weak::WeakSupervision::run(
            &lfs,
            &ds.table_a,
            &ds.table_b,
            &pairs,
            &em_weak::LabelModelOptions::default(),
        )
        .expect("battery compiles against its own schema")
    };
    let (serial, pooled) = serial_and_wide(run);
    // Votes go through FeatureCache (parallel profile drafting + memo
    // fill); the label model's E-step is a parallel_for. Both must be bit
    // stable.
    assert_eq!(serial.votes, pooled.votes);
    assert_eq!(serial.stats, pooled.stats);
    assert_eq!(serial.model.iterations, pooled.model.iterations);
    assert_eq!(serial.model.converged, pooled.model.converged);
    assert_eq!(serial.model.prior.to_bits(), pooled.model.prior.to_bits());
    for (a, b) in serial.model.accuracies.iter().zip(&pooled.model.accuracies) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in serial.posteriors.iter().zip(&pooled.posteriors) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // The derived training set (thresholded hard labels + confidence
    // weights) is therefore identical too.
    let (ts, tp) = (serial.training_set(), pooled.training_set());
    assert_eq!(ts.indices, tp.indices);
    assert_eq!(ts.labels, tp.labels);
    for (a, b) in ts.weights.iter().zip(&tp.weights) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
