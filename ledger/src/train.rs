//! `train_abt`: the paper's headline workflow, end to end on Abt-Buy.
//!
//! Set-up generates the dataset and featurizes it (`PreparedDataset::
//! prepare`); the timed part is `AutoMlEm::fit` through artifact save and
//! reload, repeated until the run's seconds are spent. Forest fitting
//! dominates; featurization of Abt-Buy's long descriptions is visible; no
//! index, store or WAL is touched.

use crate::layers::{timed, Trace, Window, ROOT};
use crate::report::{Metric, Outcome};
use crate::stats::{begin_peak_window, median_s, peak_rss_mib, Digest};
use crate::RunDir;
use automl_em::{
    decode_configuration, default_configuration, AutoMlEm, AutoMlEmOptions, EmPipelineConfig,
    FeatureGenerator, FeatureScheme, PreparedDataset, SearchChoice,
};
use em_automl::{
    run_search_with_initial, Budget, ConfigSpace, Configuration, SearchAlgorithm, SearchHistory,
    SmacSearch,
};
use em_data::{Benchmark, EmDataset};
use em_ml::{f1_score, paper_split, Matrix};
use em_rt::StdRng;
use em_serve::ModelArtifact;
use em_table::RecordPair;
use std::time::Instant;

pub struct Config {
    /// Seed of the dataset, split, search and models. Fixed rather than
    /// taken from `--seed`: the search trajectory (hence forest sizes,
    /// search time and test F1) follows the data and the seed so closely
    /// that five seeds spread search time by 32% and F1 by 26%
    /// (interquartile range over median), wider than any bound could
    /// gate. One fixed Abt-Buy instance, as the paper uses one dataset.
    pub input_seed: u64,
    /// Abt-Buy size as a share of the paper's.
    pub scale: f64,
    /// Pipeline evaluations per search.
    pub budget: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            input_seed: 1,
            scale: 0.25,
            budget: 16,
            setup_reps: 3,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Config {
            input_seed: 3,
            scale: 0.03,
            budget: 3,
            setup_reps: 2,
        }
    }

    fn options(&self) -> AutoMlEmOptions {
        AutoMlEmOptions {
            scheme: FeatureScheme::AutoMlEm,
            search: SearchChoice::Smac,
            budget: Budget::Evaluations(self.budget),
            seed: self.input_seed,
            candidate_batch: 1,
            ..AutoMlEmOptions::default()
        }
    }
}

const REQUIRED_SPANS: [&str; 9] = [
    "datagen.generate",
    "featurize.build",
    "featurize.generate",
    "search.suggest",
    "fit.trial",
    "fit.eval",
    "fit.final",
    "artifact.save",
    "artifact.load",
];

fn setup(cfg: &Config) -> (EmDataset, PreparedDataset) {
    let seed = cfg.input_seed;
    let ds = Benchmark::AbtBuy.generate_scaled(seed, cfg.scale);
    let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, seed);
    (ds, prep)
}

fn hash_matrix(d: &mut Digest, m: &Matrix) {
    d.word(m.nrows() as u64);
    for v in m.as_slice() {
        d.word(v.to_bits());
    }
}

/// What one search produced, reduced to the bits the checks compare.
struct Searched {
    trials: usize,
    test_f1: f64,
    /// History scores, validation F1 and reloaded test scores.
    digest: Digest,
    /// Fitted and reloaded pipelines score the test set identically.
    reload_identical: bool,
}

fn score_digest(d: &mut Digest, history: &SearchHistory, valid_f1: f64, scores: &[(f64, bool)]) {
    for t in history.trials() {
        d.word(t.score.to_bits());
    }
    d.word(valid_f1.to_bits());
    for (s, m) in scores {
        d.word(s.to_bits());
        d.word(u64::from(*m));
    }
}

fn judge(
    artifact: &ModelArtifact,
    loaded: &ModelArtifact,
    history: &SearchHistory,
    valid_f1: f64,
    prep: &PreparedDataset,
) -> Searched {
    let (xs, ys) = prep.test();
    let fitted = artifact.pipeline.predict_with_scores(&xs);
    let reloaded = loaded.pipeline.predict_with_scores(&xs);
    let reload_identical = fitted.len() == reloaded.len()
        && fitted
            .iter()
            .zip(&reloaded)
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
    let pred: Vec<usize> = reloaded.iter().map(|&(_, m)| usize::from(m)).collect();
    let mut digest = Digest::default();
    score_digest(&mut digest, history, valid_f1, &reloaded);
    Searched {
        trials: history.len(),
        test_f1: f1_score(&ys, &pred),
        digest,
        reload_identical,
    }
}

/// The entry point: `AutoMlEm::fit` → artifact save → load.
fn search(
    cfg: &Config,
    ds: &EmDataset,
    prep: &PreparedDataset,
    path: &str,
) -> Result<(Searched, f64), String> {
    let (xt, yt) = prep.train();
    let (xv, yv) = prep.valid();
    let t = Instant::now();
    let result = AutoMlEm::new(cfg.options()).fit(&xt, &yt, &xv, &yv);
    let artifact = ModelArtifact::for_tables(
        FeatureScheme::AutoMlEm,
        &ds.table_a,
        &ds.table_b,
        result.fitted,
    );
    artifact.save(path)?;
    let loaded = ModelArtifact::load(path)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        judge(
            &artifact,
            &loaded,
            &result.history,
            result.validation_f1,
            prep,
        ),
        secs,
    ))
}

pub fn run(cfg: &Config, seconds: f64, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(false);
    begin_peak_window();
    let mut setups = Vec::new();
    let mut prepared: Option<(EmDataset, PreparedDataset)> = None;
    let mut first_features: Option<Digest> = None;
    for _ in 0..cfg.setup_reps {
        let (p, secs) = timed(|| setup(cfg));
        setups.push(secs);
        let mut d = Digest::default();
        hash_matrix(&mut d, &p.1.features);
        match first_features {
            Some(f) => out.check("set-up is deterministic", f == d),
            None => first_features = Some(d),
        }
        prepared = Some(p);
    }
    let (ds, prep) = prepared.expect("at least one set-up");
    let path = run_dir.path("artifact.json").to_string_lossy().into_owned();

    let started = Instant::now();
    let mut searches: Vec<f64> = Vec::new();
    let mut first: Option<Searched> = None;
    let mut trials = 0usize;
    while searches.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let (s, secs) = search(cfg, &ds, &prep, &path)?;
        searches.push(secs);
        trials += s.trials;
        out.check(
            "reloaded artifact predicts bit-identically",
            s.reload_identical,
        );
        out.check("search ran its whole budget", s.trials == cfg.budget);
        if let Some(f) = &first {
            out.check("repeated searches agree bit for bit", f.digest == s.digest);
        } else {
            first = Some(s);
        }
    }
    let first = first.expect("at least one search");
    let total: f64 = searches.iter().sum();
    let n = searches.len();
    out.push(Metric::with_samples(
        "setup_s",
        median_s(&setups),
        setups.len(),
    ));
    out.push(Metric::new("peak_rss_mib", peak_rss_mib()));
    out.push(Metric::with_samples(
        "ops_per_s",
        trials as f64 / total,
        trials,
    ));
    out.push(Metric::with_samples("p50_ms", median_s(&searches) * 1e3, n));
    let slowest = searches.iter().copied().fold(0.0, f64::max);
    out.push(Metric::with_samples("tail_ms", slowest * 1e3, n));
    out.push(Metric::new("quality", first.test_f1));
    Ok(out)
}

/// `SmacSearch` with a span around every suggestion.
struct TimedSearch(SmacSearch);

impl SearchAlgorithm for TimedSearch {
    fn suggest(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Configuration {
        let _s = em_obs::span!("ledger.search.suggest");
        self.0.suggest(space, history, rng)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// What a replay produced: the same digest as the entry point's, plus
/// the sizes the per-layer metrics divide by.
struct Replayed {
    prepare: Digest,
    searched: Searched,
    pairs: usize,
    artifact_bytes: u64,
    wall_s: f64,
}

/// `PreparedDataset::prepare` then `AutoMlEm::fit` → save → load, driven
/// layer by layer through the crates' public functions in the order the
/// entry points call them, with a span around each call.
fn replay(cfg: &Config, path: &str) -> Result<Replayed, String> {
    let seed = cfg.input_seed;
    let started = Instant::now();
    let _root = em_obs::span!(ROOT);
    let ds = {
        let _s = em_obs::span!("ledger.datagen.generate");
        Benchmark::AbtBuy.generate_scaled(seed, cfg.scale)
    };
    let (a, b) = (&ds.table_a, &ds.table_b);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let features = {
        let generator = {
            let _s = em_obs::span!("ledger.featurize.build");
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, a, b)
        };
        if automl_em::featcache::enabled() {
            let mut cache = {
                let _s = em_obs::span!("ledger.featurize.build");
                generator.cached(a, b)
            };
            let _s = em_obs::span!("ledger.featurize.generate");
            cache.generate(a, b, &pairs)
        } else {
            let _s = em_obs::span!("ledger.featurize.generate");
            generator.generate(a, b, &pairs)
        }
    };
    let labels = ds.labels();
    let split = paper_split(&labels, seed);
    let subset = |idx: &[usize]| -> (Matrix, Vec<usize>) {
        (
            features.select_rows(idx),
            idx.iter().map(|&i| labels[i]).collect(),
        )
    };
    let (xt, yt) = subset(&split.train);
    let (xv, yv) = subset(&split.valid);

    let opts = cfg.options();
    let space = automl_em::build_space(opts.space);
    let mut algo = TimedSearch(SmacSearch::default());
    let mut objective = |config: &Configuration| -> f64 {
        let pipeline = decode_configuration(config, seed);
        let fitted = {
            let _s = em_obs::span!("ledger.fit.trial");
            pipeline.fit_weighted(&xt, &yt, None)
        };
        let _s = em_obs::span!("ledger.fit.eval");
        fitted.f1(&xv, &yv)
    };
    let warm_start = [default_configuration(opts.space)];
    let history = run_search_with_initial(
        &space,
        &mut algo,
        &mut objective,
        opts.budget,
        seed,
        &warm_start,
    );
    let (fitted, valid_f1) = {
        let _s = em_obs::span!("ledger.fit.final");
        let incumbent = history.incumbent().ok_or("search ran no evaluation")?;
        let mut valid_f1 = incumbent.score;
        let mut best = decode_configuration(&incumbent.config, seed);
        let default_pipeline = EmPipelineConfig::default_random_forest(seed);
        let default_f1 = default_pipeline.fit_weighted(&xt, &yt, None).f1(&xv, &yv);
        if default_f1 > valid_f1 {
            valid_f1 = default_f1;
            best = default_pipeline;
        }
        let x_all = xt.vstack(&xv);
        let mut y_all = yt.clone();
        y_all.extend_from_slice(&yv);
        (best.fit_weighted(&x_all, &y_all, None), valid_f1)
    };
    let artifact = ModelArtifact::for_tables(FeatureScheme::AutoMlEm, a, b, fitted);
    {
        let _s = em_obs::span!("ledger.artifact.save");
        artifact.save(path)?;
    }
    let loaded = {
        let _s = em_obs::span!("ledger.artifact.load");
        ModelArtifact::load(path)?
    };
    drop(_root);
    let wall_s = started.elapsed().as_secs_f64();
    let artifact_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    // The entry point's test split comes from PreparedDataset; rebuild it
    // from the replay's own features for the judgement.
    let prep = PreparedDataset {
        name: ds.name.clone(),
        features,
        labels,
        split,
        generator: FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, a, b),
    };
    let mut prepare = Digest::default();
    hash_matrix(&mut prepare, &prep.features);
    Ok(Replayed {
        prepare,
        searched: judge(&artifact, &loaded, &history, valid_f1, &prep),
        pairs: pairs.len(),
        artifact_bytes,
        wall_s,
    })
}

/// The traced run: the entry point untraced, the replay untraced (the
/// overhead baseline), then the replay traced; all three must agree bit
/// for bit.
pub fn traced(cfg: &Config, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(true);
    let path = run_dir.path("artifact.json").to_string_lossy().into_owned();
    let (ds, prep) = setup(cfg);
    let mut entry_prepare = Digest::default();
    hash_matrix(&mut entry_prepare, &prep.features);
    let (entry, _) = search(cfg, &ds, &prep, &path)?;
    drop((ds, prep));
    out.attempted += 1;
    out.check(
        "entry point: reloaded artifact predicts bit-identically",
        entry.reload_identical,
    );

    let plain = replay(cfg, &path)?;
    let window = Window::open(run_dir.path("trace.jsonl"));
    let replayed = replay(cfg, &path);
    let trace = window.close(&REQUIRED_SPANS)?;
    let replayed = replayed?;
    out.attempted += 2;
    for (tag, r) in [("untraced", &plain), ("traced", &replayed)] {
        out.check(
            format!("{tag} replay featurizes bit-identically to PreparedDataset::prepare"),
            r.prepare == entry_prepare,
        );
        out.check(
            format!("{tag} replay searches, refits and reloads bit-identically to AutoMlEm::fit"),
            r.searched.digest == entry.digest && r.searched.reload_identical,
        );
    }
    push_layers(&mut out, &trace, &replayed, plain.wall_s);
    Ok(out)
}

fn push_layers(out: &mut Outcome, t: &Trace, r: &Replayed, plain_s: f64) {
    let gen_s = t.total_s("featurize.generate");
    for (metric, span) in [
        ("datagen.generate_s", "datagen.generate"),
        ("featurize.build_s", "featurize.build"),
        ("featurize.generate_s", "featurize.generate"),
        ("search.suggest_s", "search.suggest"),
        ("fit.trial_s", "fit.trial"),
        ("fit.eval_s", "fit.eval"),
        ("fit.final_s", "fit.final"),
        ("artifact.save_s", "artifact.save"),
        ("artifact.load_s", "artifact.load"),
    ] {
        out.push(Metric::new(metric, t.total_s(span)));
    }
    out.push(Metric::new(
        "featurize.ns_per_pair",
        gen_s * 1e9 / r.pairs.max(1) as f64,
    ));
    out.push(Metric::new("search.trials", r.searched.trials as f64));
    t.push_spread(out, "fit.trial", "fit.trial_p50_ms", "fit.trial_max_ms");
    for (metric, counter) in [
        ("tree.exact_fits", "tree.exact_fits"),
        ("tree.binned_fits", "tree.binned_fits"),
        ("tree.nodes", "tree.nodes"),
    ] {
        out.push(Metric::new(metric, t.counter(counter) as f64));
    }
    out.push(Metric::new("artifact.bytes", r.artifact_bytes as f64));
    t.push_common(out, plain_s);
    out.zero_fill_layers();
}
