//! The metric catalogue and the one result line every run ends with.

use em_rt::Json;

/// End-to-end metrics: every workload reports each of them, with tracing
/// off. `README.md` gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics from the traced replay. Every workload reports each
/// of them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    // em-data
    ("datagen.generate_s", "s"),
    // automl-em::featcache
    ("featurize.build_s", "s"),
    ("featurize.generate_s", "s"),
    ("featurize.ns_per_pair", "ns"),
    ("featurize.rebind_s", "s"),
    ("featurize.memo_hit_ratio", "ratio"),
    // em-automl
    ("search.suggest_s", "s"),
    ("search.trials", "count"),
    // automl-em::pipeline over em-ml (fit)
    ("fit.trial_s", "s"),
    ("fit.trial_p50_ms", "ms"),
    ("fit.trial_max_ms", "ms"),
    ("fit.eval_s", "s"),
    ("fit.final_s", "s"),
    ("tree.exact_fits", "count"),
    ("tree.binned_fits", "count"),
    ("tree.nodes", "count"),
    // em-serve::artifact
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    // em-serve::index (probe)
    ("probe.s", "s"),
    ("probe.candidates_per_query", "1/query"),
    ("probe.pruned_tokens", "1/query"),
    ("probe.capped_queries", "1/query"),
    ("probe.stale_recounts", "1/query"),
    // em-serve::store (writes and recovery)
    ("index.upsert_s", "s"),
    ("index.remove_s", "s"),
    ("index.open_s", "s"),
    ("wal.bytes", "bytes"),
    ("wal.records", "count"),
    ("index.stale_debt", "count"),
    // em-serve::catstore (gather)
    ("gather.s", "s"),
    ("gather.rows_read", "count"),
    ("gather.hit_ratio", "ratio"),
    ("catalog.open_s", "s"),
    // automl-em::pipeline (predict)
    ("predict.s", "s"),
    // em-rt
    ("pool.busy_ratio", "ratio"),
    ("pool.queue_wait_p50_us", "us"),
    // Self time of each layer as a share of the decomposed wall.
    ("share.datagen", "ratio"),
    ("share.featurize", "ratio"),
    ("share.search", "ratio"),
    ("share.fit", "ratio"),
    ("share.artifact", "ratio"),
    ("share.probe", "ratio"),
    ("share.store", "ratio"),
    ("share.catstore", "ratio"),
    ("share.predict", "ratio"),
    ("share.unaccounted", "ratio"),
    // The decomposed wall itself, and what tracing added to it.
    ("replay.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value. `samples` is the count behind a percentile or
/// median, printed beside it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            samples: None,
        }
    }

    pub fn with_samples(name: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            value,
            samples: Some(samples),
        }
    }
}

/// Everything a run produced: operation tallies, correctness checks, and
/// the metrics of the mode it ran in.
pub struct Outcome {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(traced: bool) -> Self {
        Outcome {
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record a correctness check; a failed one counts as a failed op.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.into(), ok));
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Fill every per-layer metric this workload did not set with 0.
    pub fn zero_fill_layers(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metrics.push(Metric::new(name, 0.0));
            }
        }
    }

    /// Render the human summary, the final JSON line, and whether the run
    /// passed. A run with a failed check, a missing or duplicated metric,
    /// or a non-finite value is reported as failed with no metrics: it is
    /// not scored.
    pub fn finish(mut self) -> (String, String, bool) {
        let catalogue: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in catalogue {
            let n = self.metrics.iter().filter(|m| m.name == name).count();
            self.check(format!("metric {name} reported once"), n == 1);
        }
        let stray: Vec<&str> = self
            .metrics
            .iter()
            .map(|m| m.name)
            .filter(|n| !catalogue.iter().any(|(c, _)| c == n))
            .collect();
        self.check(
            format!("no metrics outside the catalogue {stray:?}"),
            stray.is_empty(),
        );
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        self.check("every metric value is finite", finite);
        self.check("at least one operation attempted", self.attempted > 0);

        let correct = self.checks.iter().all(|(_, ok)| *ok);
        let mut summary = String::new();
        for (what, ok) in &self.checks {
            if !ok {
                summary.push_str(&format!("check FAILED: {what}\n"));
            }
        }
        let passed = self.checks.iter().filter(|(_, ok)| *ok).count();
        summary.push_str(&format!(
            "checks: {passed}/{} passed; ops attempted {}, failed {}\n",
            self.checks.len(),
            self.attempted,
            self.failed
        ));
        let mut metrics = Vec::new();
        if correct {
            for &(name, unit) in catalogue {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("presence checked above");
                let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                summary.push_str(&format!("  {name:<28} {:>16.6} {unit}{n}\n", m.value));
                metrics.push((
                    name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(unit))]),
                ));
            }
        }
        let line = Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render();
        (summary, line, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(traced: bool) -> Outcome {
        let mut o = Outcome::new(traced);
        o.attempted = 10;
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in catalogue {
            o.push(Metric::new(name, 1.5));
        }
        o
    }

    #[test]
    fn a_complete_run_prints_every_metric_with_its_unit() {
        let (summary, line, ok) = full(false).finish();
        assert!(ok, "{summary}");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::from(true)));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn a_failed_check_is_reported_as_failed_not_scored() {
        let mut o = full(false);
        o.check("reloaded artifact predicts bit-identically", false);
        let (summary, line, ok) = o.finish();
        assert!(!ok);
        assert!(summary.contains("check FAILED: reloaded artifact"));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::from(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("metrics"),
            Some(&Json::obj(Vec::<(String, Json)>::new()))
        );
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = full(true);
        o.metrics.retain(|m| m.name != "probe.s");
        assert!(!o.finish().2);
        let mut o = full(false);
        o.metrics[0].value = f64::NAN;
        assert!(!o.finish().2);
        let mut o = Outcome::new(true);
        o.attempted = 1;
        o.zero_fill_layers();
        assert!(o.finish().2);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
