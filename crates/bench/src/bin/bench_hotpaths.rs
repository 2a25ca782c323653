//! Acceptance benchmark for the remaining hot paths moved onto the shared
//! `em-rt` pool: blocking candidate generation, stratified k-fold
//! cross-validation, forest fitting, permutation feature importances, and
//! benchmark dataset synthesis — on a one-thread pool vs the full width,
//! flipped with `em_rt::set_threads` — plus the search loop's round
//! evaluator at width 1 against full width on the same workload, and
//! Table-II feature generation through the uncached `&str` path against
//! the interned feature cache on short (Fodors-Zagats) and long (Abt-Buy)
//! text, asserted bit-identical before timing. The samples of each
//! comparison's sides are interleaved, so host drift does not land in its
//! ratio. Writes `BENCH_hotpaths.json` (override the path with the first
//! CLI argument).
//!
//! Thread count comes from `EM_THREADS` when set, else defaults to 4 so the
//! serial-vs-pool comparison is stable across machines; the host's actual
//! `available_parallelism` is recorded alongside the numbers.

use em_automl::{run_search_async, Budget, SmacSearch};
use em_bench::timing::{fmt_ns, Harness};
use em_ml::{Classifier, ForestParams, Matrix, RandomForestClassifier};
use em_rt::{Json, StdRng};
use em_table::{Blocker, OverlapBlocker};

fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 2;
        rows.push(
            (0..d)
                .map(|_| c as f64 * 0.6 + rng.random_range(-0.5..0.5))
                .collect(),
        );
        y.push(c);
    }
    (Matrix::from_rows(&rows), y)
}

/// Time `f` as `{name}/{serial}` on a one-thread pool and as
/// `{name}/{pool}` at `threads`, samples interleaved: the pool width is the
/// only serial/parallel switch.
fn serial_vs_pool<T>(
    h: &mut Harness,
    name: &str,
    [serial, pool]: [&str; 2],
    threads: usize,
    mut f: impl FnMut() -> T,
) {
    let names = [format!("{name}/{serial}"), format!("{name}/{pool}")];
    h.bench_interleaved(&names, |variant| {
        em_rt::set_threads(if variant == 0 { 1 } else { threads });
        f()
    });
    em_rt::set_threads(threads);
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let threads = em_rt::threads();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("threads = {threads}, host cores = {cores}");
    // Build the pool at full width before any one-thread row runs, so the
    // pool rows really have workers.
    assert!(
        threads == 1 || em_rt::pool_workers() > 0,
        "the pool rows need pool workers"
    );
    const SERIAL_POOL: [&str; 2] = ["serial", "pool"];

    let mut h = Harness::new("bench_hotpaths");

    // -- blocking: ~2.9k-record tables, multi-shard probe --------------------
    let ds = em_data::Benchmark::DblpScholar.generate_scaled(0, 0.55);
    let attr = ds.table_a.schema().names()[0].to_string();
    let blocker = OverlapBlocker {
        attribute: attr,
        min_overlap: 2,
    };
    serial_vs_pool(
        &mut h,
        "blocking_overlap_dblp_scholar",
        SERIAL_POOL,
        threads,
        || blocker.candidates(&ds.table_a, &ds.table_b),
    );

    // -- feature generation: uncached &str path vs the interned cache ---------
    // Table-II features over a candidate set. cold = profile build + memo
    // fill every iteration (first featurization of a dataset); warm = the
    // steady state every later batch sees (folds, search trials, the active
    // loop) — pure memo lookups. Fodors-Zagats strings are short;
    // Abt-Buy's descriptions run to hundreds of chars, so its rows time the
    // multi-word kernels, and its bit-identity check runs them in a release
    // build against the &str oracle on real long text.
    let fz = em_data::Benchmark::FodorsZagats.generate_scaled(0, 1.0);
    let ab = em_data::Benchmark::AbtBuy.generate_scaled(0, 0.05);
    for (label, ds, warm_row) in [("fodors", &fz, true), ("abtbuy", &ab, false)] {
        let generator = automl_em::FeatureGenerator::plan_for_tables(
            automl_em::FeatureScheme::AutoMlEm,
            &ds.table_a,
            &ds.table_b,
        );
        let pairs: Vec<em_table::RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
        eprintln!(
            "featuregen {label}: {} pairs x {} features",
            pairs.len(),
            generator.n_features()
        );
        let (a, b) = (&ds.table_a, &ds.table_b);
        let uncached = generator.generate(a, b, &pairs);
        let cached = generator.cached(a, b).generate(a, b, &pairs);
        assert!(
            uncached
                .as_slice()
                .iter()
                .zip(cached.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{label}: cached features differ from the uncached path"
        );
        let mut warm = warm_row.then(|| {
            let mut warm = generator.cached(a, b);
            let _ = warm.generate(a, b, &pairs);
            warm
        });
        let variants = ["uncached", "cached_cold", "cached_warm"];
        let names: Vec<String> = variants[..if warm_row { 3 } else { 2 }]
            .iter()
            .map(|variant| format!("featuregen_{label}_table2/{variant}"))
            .collect();
        h.bench_interleaved(&names, |variant| match variant {
            0 => generator.generate(a, b, &pairs),
            1 => generator.cached(a, b).generate(a, b, &pairs),
            _ => warm.as_mut().expect("warm row").generate(a, b, &pairs),
        });
    }

    // -- 5-fold cross-validation of the default forest pipeline --------------
    let (x, y) = dataset(600, 12, 1);
    let config = automl_em::EmPipelineConfig::default_random_forest(0);
    serial_vs_pool(
        &mut h,
        "cross_val_f1_5fold_600x12",
        SERIAL_POOL,
        threads,
        || config.cross_val_f1(&x, &y, 5, 0),
    );

    // -- forest fit: per-tree pool parallelism --------------------------------
    // Same 600 x 12 workload as the CV rows, one forest fit without the CV
    // around it.
    serial_vs_pool(&mut h, "forest_fit_600x12", SERIAL_POOL, threads, || {
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_estimators: 30,
            seed: 9,
            ..ForestParams::default()
        });
        rf.fit(&x, &y, 2, None);
        rf
    });

    // -- permutation importances over 12 columns ------------------------------
    let fitted = config.fit(&x, &y);
    let names: Vec<String> = (0..x.ncols()).map(|i| format!("f{i}")).collect();
    serial_vs_pool(
        &mut h,
        "permutation_importance_12cols",
        SERIAL_POOL,
        threads,
        || fitted.permutation_importances(&x, &y, &names, 2, 0),
    );

    // -- benchmark synthesis (per-entity tasks) -------------------------------
    serial_vs_pool(
        &mut h,
        "datagen_dblp_scholar_halfscale",
        SERIAL_POOL,
        threads,
        || em_data::Benchmark::DblpScholar.generate_scaled(0, 0.5),
    );

    // -- batched search: round evaluator at width 1 vs full width ------------
    // The objective fits a small forest so evaluations cost something real.
    // At pool width 1 each round of 4 is scored inline on the caller
    // thread; at full width the caller and helper threads share it. Same
    // space, seed, budget, batch and trajectory.
    let (sx, sy) = dataset(240, 8, 2);
    let space = automl_em::build_space(automl_em::SpaceOptions::default());
    let objective = |c: &em_automl::Configuration| -> f64 {
        let pipeline = automl_em::decode_configuration(c, 0);
        let f = pipeline.fit(&sx, &sy);
        f.f1(&sx, &sy)
    };
    serial_vs_pool(
        &mut h,
        "smbo_16evals_batch4",
        ["width_1", "full_width"],
        threads,
        || {
            run_search_async(
                &space,
                &mut SmacSearch::default(),
                &objective,
                Budget::Evaluations(16),
                0,
                &[],
                4,
            )
        },
    );

    // -- report ---------------------------------------------------------------
    let median = |name: &str| -> f64 {
        h.results()
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark ran")
            .median_ns()
    };
    let mut comparisons = Vec::new();
    for (name, baseline, variant, workload) in [
        (
            "blocking_overlap_dblp_scholar",
            "serial",
            "pool",
            "OverlapBlocker min_overlap=2 over ~2.9k x 2.9k DBLP-Scholar tables",
        ),
        (
            "featuregen_fodors_table2",
            "uncached",
            "cached_cold",
            "Table-II features, full Fodors-Zagats candidate set, first \
             featurization (profile build + memo fill included)",
        ),
        (
            "featuregen_fodors_table2",
            "uncached",
            "cached_warm",
            "Table-II features, full Fodors-Zagats candidate set, warm memo \
             (the steady state of folds / search trials / the active loop)",
        ),
        (
            "featuregen_abtbuy_table2",
            "uncached",
            "cached_cold",
            "Table-II features, Abt-Buy candidate set at scale 0.05 \
             (descriptions of hundreds of chars), first featurization",
        ),
        (
            "cross_val_f1_5fold_600x12",
            "serial",
            "pool",
            "5-fold stratified CV of the default RF pipeline on 600 x 12",
        ),
        (
            "forest_fit_600x12",
            "serial",
            "pool",
            "RF fit, 30 trees on 600 x 12, trees fitted as pool tasks",
        ),
        (
            "permutation_importance_12cols",
            "serial",
            "pool",
            "12 columns x 2 repeats against a fitted default RF pipeline",
        ),
        (
            "datagen_dblp_scholar_halfscale",
            "serial",
            "pool",
            "DBLP-Scholar synthesis at scale 0.5 (~2.7k entities + negatives)",
        ),
        (
            "smbo_16evals_batch4",
            "width_1",
            "full_width",
            "SMAC, 16 evaluations, batch 4, small-forest objective: each \
             round scored inline on a one-thread pool vs by the caller and \
             helper threads at full width",
        ),
    ] {
        let base = median(&format!("{name}/{baseline}"));
        let var = median(&format!("{name}/{variant}"));
        let speedup = base / var;
        eprintln!(
            "{name}: {baseline} {} vs {variant} {} -> {speedup:.2}x",
            fmt_ns(base),
            fmt_ns(var)
        );
        comparisons.push(Json::obj([
            ("name", Json::from(name)),
            ("workload", Json::from(workload)),
            ("baseline", Json::from(baseline)),
            ("baseline_median_ns", Json::from(base)),
            ("variant", Json::from(variant)),
            ("variant_median_ns", Json::from(var)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    let report = Json::obj([
        ("suite", Json::from("bench_hotpaths")),
        ("threads", Json::from(threads)),
        ("host_available_parallelism", Json::from(cores)),
        (
            "note",
            Json::from(
                "serial = the same call on a one-thread pool \
                 (em_rt::set_threads(1)); pool = the shared em-rt worker \
                 pool at full width. Every pair is bit-identical output by \
                 construction (see crates/core/tests/determinism.rs); the \
                 smbo row compares the search loop's round evaluator at \
                 width 1 against full width on an identical trajectory; the \
                 featuregen rows compare the uncached &str \
                 path against the interned FeatureCache (EM_FEATCACHE \
                 toggles the same paths inside PreparedDataset::prepare), \
                 after asserting both give the same bits. \
                 Speedups > 1 assume a multi-core host; \
                 host_available_parallelism records what this run had.",
            ),
        ),
        ("comparisons", Json::Arr(comparisons)),
        ("raw", h.to_json()),
    ]);
    std::fs::write(&out_path, report.render_pretty(2) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    em_obs::flush();
}
