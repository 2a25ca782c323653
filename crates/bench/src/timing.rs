//! Minimal in-repo timing harness replacing `criterion`: auto-calibrated
//! iteration counts, a warmup phase, median-of-N sampling with the samples
//! of compared variants interleaved, a compact text report, and JSON
//! output through `em_rt::Json`.
//!
//! Knob (environment): `EM_BENCH_SAMPLES`, measured samples per benchmark
//! (default 11).

use em_rt::Json;
use std::hint::black_box;
use std::time::Instant;

/// Target wall-clock time for one measured sample. Calibration picks an
/// iteration count so cheap closures are batched up to roughly this long.
const TARGET_SAMPLE_NS: f64 = 20_000_000.0; // 20 ms

/// Warmup samples discarded before measurement.
const WARMUP_SAMPLES: usize = 2;

/// One benchmark's measurements: per-iteration nanoseconds, one per sample.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `similarity/short/levenshtein`.
    pub name: String,
    /// Iterations batched into each sample.
    pub iters: u64,
    /// Per-iteration nanoseconds for each measured sample.
    pub samples_ns: Vec<f64>,
}

impl BenchResult {
    /// Median per-iteration nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let mut s = self.samples_ns.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = s.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }

    /// Fastest sample.
    pub fn min_ns(&self) -> f64 {
        self.samples_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Slowest sample.
    pub fn max_ns(&self) -> f64 {
        self.samples_ns.iter().copied().fold(0.0, f64::max)
    }

    /// JSON record with the summary statistics and raw samples.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("iters_per_sample", Json::from(self.iters)),
            ("samples", Json::from(self.samples_ns.len())),
            ("median_ns", Json::from(self.median_ns())),
            ("min_ns", Json::from(self.min_ns())),
            ("max_ns", Json::from(self.max_ns())),
            (
                "samples_ns",
                Json::arr(self.samples_ns.iter().map(|&v| Json::from(v))),
            ),
        ])
    }
}

/// Render nanoseconds with an adaptive unit, criterion-style.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named collection of benchmarks sharing sampling settings.
pub struct Harness {
    suite: String,
    samples: usize,
    results: Vec<BenchResult>,
}

impl Harness {
    /// New harness; reads `EM_BENCH_SAMPLES` for the per-benchmark sample
    /// count (default 11).
    pub fn new(suite: &str) -> Self {
        let samples = std::env::var("EM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(11)
            .max(1);
        eprintln!("== bench suite `{suite}` ({samples} samples/benchmark) ==");
        Harness {
            suite: suite.to_string(),
            samples,
            results: Vec::new(),
        }
    }

    /// Measure the variants of one comparison with their samples
    /// interleaved (A, B, A, B, …): `f(i)` runs variant `i` once, and its
    /// result is recorded under `names[i]`. Each variant calibrates its own
    /// iteration count (batching iterations up to ~20 ms per sample), then
    /// warmup and measured samples go round the variants in turn, so host
    /// drift over the run lands on every variant alike instead of on their
    /// ratio.
    pub fn bench_interleaved<T>(
        &mut self,
        names: &[impl AsRef<str>],
        mut f: impl FnMut(usize) -> T,
    ) {
        let iters: Vec<u64> = (0..names.len()).map(|i| calibrate(&mut || f(i))).collect();
        let mut samples_ns = vec![Vec::with_capacity(self.samples); names.len()];
        for round in 0..WARMUP_SAMPLES + self.samples {
            for (i, &n) in iters.iter().enumerate() {
                let ns = run_sample(n, &mut || f(i));
                if round >= WARMUP_SAMPLES {
                    samples_ns[i].push(ns);
                }
            }
        }
        for ((name, iters), samples_ns) in names.iter().zip(iters).zip(samples_ns) {
            self.record(BenchResult {
                name: name.as_ref().to_string(),
                iters,
                samples_ns,
            });
        }
    }

    /// Print one result's summary line and keep it.
    fn record(&mut self, result: BenchResult) {
        eprintln!(
            "{:<44} {:>12}  [{} .. {}]  x{}",
            result.name,
            fmt_ns(result.median_ns()),
            fmt_ns(result.min_ns()),
            fmt_ns(result.max_ns()),
            result.iters,
        );
        self.results.push(result);
    }

    /// All results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// JSON report for the whole suite. Embeds the runtime's configured
    /// thread count and the machine's available parallelism so results from
    /// different hosts or `EM_THREADS` settings stay comparable.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::from(self.suite.as_str())),
            ("samples_per_benchmark", Json::from(self.samples)),
            ("threads", Json::from(em_rt::threads())),
            (
                "available_parallelism",
                Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
            ),
            (
                "benchmarks",
                Json::arr(self.results.iter().map(BenchResult::to_json)),
            ),
        ])
    }
}

/// One sample: `iters` calls of `f` under one timer; per-iteration ns.
fn run_sample<T>(iters: u64, f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Double the iteration count until one batch takes a measurable slice of
/// the sample target, then scale so a sample lands near the target. Slow
/// closures (one call ≥ the target) get `iters = 1`.
fn calibrate<T>(f: &mut impl FnMut() -> T) -> u64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        if elapsed_ns >= TARGET_SAMPLE_NS / 4.0 || iters >= 1 << 22 {
            let per_iter = elapsed_ns / iters as f64;
            return ((TARGET_SAMPLE_NS / per_iter) as u64).clamp(1, 1 << 24);
        }
        iters *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let mut r = BenchResult {
            name: "t".into(),
            iters: 1,
            samples_ns: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(r.median_ns(), 2.0);
        r.samples_ns = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(r.median_ns(), 2.5);
        assert_eq!(r.min_ns(), 1.0);
        assert_eq!(r.max_ns(), 4.0);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500.0), "500.0 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
        assert_eq!(fmt_ns(1_500_000_000.0), "1.500 s");
    }

    #[test]
    fn interleaved_samples_go_round_the_variants() {
        let mut h = Harness {
            suite: "t".into(),
            samples: 3,
            results: Vec::new(),
        };
        let mut order = Vec::new();
        h.bench_interleaved(&["a", "b"], |i| {
            // One call is a whole 20 ms sample, so calibration picks one
            // iteration and `order` holds one entry per sample.
            std::thread::sleep(std::time::Duration::from_millis(20));
            order.push(i);
        });
        let names: Vec<&str> = h.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(h
            .results()
            .iter()
            .all(|r| r.iters == 1 && r.samples_ns.len() == 3));
        // After one calibration call per variant, the warmup and measured
        // samples alternate.
        let after_calibration = &order[2..];
        assert_eq!(after_calibration.len(), 2 * (WARMUP_SAMPLES + 3));
        assert!(after_calibration
            .iter()
            .enumerate()
            .all(|(k, &i)| i == k % 2));
    }

    #[test]
    fn result_json_has_summary_fields() {
        let r = BenchResult {
            name: "x".into(),
            iters: 2,
            samples_ns: vec![10.0, 20.0, 30.0],
        };
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"median_ns\":20"));
        assert!(rendered.contains("\"iters_per_sample\":2"));
    }
}
