//! The traced replay's plumbing: a trace window written to a file, the
//! ledger's own layer spans, and the per-layer numbers read back from it.
//!
//! Replays open spans named `ledger.<layer>.<call>` around each call into
//! a layer, under one `ledger.replay` root. Everything the crates record
//! themselves (their own spans, counters, the em-rt pool stats) lands in
//! the same file; [`Window::close`] flushes it and parses it back.

use crate::report::{Metric, Outcome};
use crate::stats::{ns, quantile_of};
use em_obs::TraceMode;
use em_rt::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Root span of every replay; its duration is the decomposed wall.
pub const ROOT: &str = "ledger.replay";

/// The share metric a ledger span's self time counts toward, named after
/// the crate or module that owns the layer.
fn layer_of(span: &str) -> Option<&'static str> {
    let rest = span.strip_prefix("ledger.")?;
    Some(match rest.split('.').next()? {
        "datagen" => "share.datagen",             // em-data
        "featurize" => "share.featurize",         // automl-em::featcache
        "search" => "share.search",               // em-automl
        "fit" => "share.fit",                     // automl-em::pipeline over em-ml
        "artifact" => "share.artifact",           // em-serve::artifact
        "probe" => "share.probe",                 // em-serve::index
        "index" => "share.store",                 // em-serve::store
        "gather" | "catalog" => "share.catstore", // em-serve::catstore
        "predict" => "share.predict",             // automl-em::pipeline (predict)
        _ => return None,
    })
}

const SHARES: [&str; 9] = [
    "share.datagen",
    "share.featurize",
    "share.search",
    "share.fit",
    "share.artifact",
    "share.probe",
    "share.store",
    "share.catstore",
    "share.predict",
];

/// An open trace window: em-obs writes to `path` until [`Window::close`].
pub struct Window {
    path: PathBuf,
}

impl Window {
    pub fn open(path: PathBuf) -> Self {
        em_obs::set_mode(TraceMode::File(path.to_string_lossy().into_owned()));
        em_rt::stats::reset();
        Window { path }
    }

    /// Flush em-obs, switch tracing off, and parse the trace. Fails when
    /// any span in `required` (names without the `ledger.` prefix) never
    /// appeared: a layer the replay should have entered is missing.
    pub fn close(self, required: &[&str]) -> Result<Trace, String> {
        em_obs::flush();
        em_obs::set_mode(TraceMode::Off);
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("read trace {}: {e}", self.path.display()))?;
        let trace = Trace::parse(&text)?;
        let missing: Vec<&str> = std::iter::once(ROOT)
            .chain(required.iter().copied())
            .filter(|name| {
                let full = if *name == ROOT {
                    ROOT.to_string()
                } else {
                    format!("ledger.{name}")
                };
                !trace.spans.iter().any(|s| s.name == full)
            })
            .collect();
        if !missing.is_empty() {
            return Err(format!("trace lacks expected layer spans {missing:?}"));
        }
        Ok(trace)
    }
}

struct Span {
    name: String,
    id: u64,
    parent: u64,
    dur_ns: u64,
}

/// What a trace window recorded.
pub struct Trace {
    spans: Vec<Span>,
    counters: HashMap<String, u64>,
    pool_busy_ns: u64,
    queue_wait_p50_ns: f64,
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("trace record lacks numeric {key}"))
}

impl Trace {
    fn parse(text: &str) -> Result<Trace, String> {
        let mut t = Trace {
            spans: Vec::new(),
            counters: HashMap::new(),
            pool_busy_ns: 0,
            queue_wait_p50_ns: 0.0,
        };
        for r in em_obs::report::parse_trace(text)? {
            let name = || {
                r.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            match r.get("kind").and_then(Json::as_str) {
                Some("span") => t.spans.push(Span {
                    name: name(),
                    id: num(&r, "id")? as u64,
                    parent: num(&r, "parent")? as u64,
                    dur_ns: (num(&r, "t1")? - num(&r, "t0")?) as u64,
                }),
                Some("counter") => {
                    t.counters.insert(name(), num(&r, "value")? as u64);
                }
                Some("pool") => {
                    for b in r.get("busy").and_then(Json::as_arr).unwrap_or(&[]) {
                        t.pool_busy_ns += num(b, "busy_ns")? as u64;
                    }
                    t.queue_wait_p50_ns = r
                        .get("queue_wait_ns")
                        .and_then(|q| q.get("p50"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                }
                _ => {}
            }
        }
        Ok(t)
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> {
        let full = format!("ledger.{name}");
        self.spans.iter().filter(move |s| s.name == full)
    }

    /// Total seconds inside spans `ledger.<name>`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns as f64).sum::<f64>() / 1e9
    }

    /// Every duration of spans `ledger.<name>`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|s| s.dur_ns).collect()
    }

    /// A counter the crates recorded (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Duration of the replay root, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == ROOT)
            .map(|s| s.dur_ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Self time per layer share: each ledger span's duration minus that
    /// of the ledger spans nested in it, crate spans in between notwith-
    /// standing. Returns the shares of the decomposed wall plus the share
    /// no layer accounts for.
    fn shares(&self) -> (HashMap<&'static str, f64>, f64) {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut nested: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| layer_of(&s.name).is_some()) {
            let mut p = s.parent;
            while let Some(anc) = by_id.get(&p) {
                if anc.name == ROOT {
                    break;
                }
                if layer_of(&anc.name).is_some() {
                    *nested.entry(anc.id).or_default() += s.dur_ns;
                    break;
                }
                p = anc.parent;
            }
        }
        let wall = self.wall_s() * 1e9;
        let mut shares: HashMap<&'static str, f64> = HashMap::new();
        let mut covered = 0.0;
        for s in &self.spans {
            if let Some(layer) = layer_of(&s.name) {
                let own = s
                    .dur_ns
                    .saturating_sub(nested.get(&s.id).copied().unwrap_or(0))
                    as f64;
                *shares.entry(layer).or_default() += own / wall;
                covered += own;
            }
        }
        (shares, ((wall - covered) / wall).max(0.0))
    }

    /// Push the metrics every workload derives the same way: layer shares,
    /// the time no layer accounts for, em-rt pool stats, the decomposed
    /// wall and the tracing overhead against an untraced run of the same
    /// replay (`plain_s`).
    pub fn push_common(&self, out: &mut Outcome, plain_s: f64) {
        let (shares, unaccounted) = self.shares();
        for name in SHARES {
            out.push(Metric::new(name, shares.get(name).copied().unwrap_or(0.0)));
        }
        out.push(Metric::new("share.unaccounted", unaccounted));
        let wall = self.wall_s();
        let threads = em_rt::threads() as f64;
        out.push(Metric::new(
            "pool.busy_ratio",
            self.pool_busy_ns as f64 / (threads * wall * 1e9),
        ));
        // em-rt keeps queue wait only as a log2 histogram; this is the
        // lower bound of its median bucket.
        out.push(Metric::new(
            "pool.queue_wait_p50_us",
            self.queue_wait_p50_ns / 1e3,
        ));
        out.push(Metric::new("replay.wall_s", wall));
        out.push(Metric::new("trace.overhead_s", wall - plain_s));
        out.push(Metric::new(
            "trace.overhead_ratio",
            (wall - plain_s) / plain_s,
        ));
        let memo = (
            self.counter("featcache.memo_hits"),
            self.counter("featcache.memo_misses"),
        );
        out.push(Metric::new(
            "featurize.memo_hit_ratio",
            ratio(memo.0, memo.0 + memo.1),
        ));
    }

    /// `<name>_s` total plus exact p50 / max of the individual spans.
    pub fn push_spread(&self, out: &mut Outcome, name: &str, p50: &'static str, max: &'static str) {
        let d = self.durations_ns(name);
        if d.is_empty() {
            return;
        }
        out.push(Metric::with_samples(
            p50,
            quantile_of(&d, 0.5) as f64 / 1e6,
            d.len(),
        ));
        out.push(Metric::with_samples(
            max,
            quantile_of(&d, 1.0) as f64 / 1e6,
            d.len(),
        ));
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, ns(t.elapsed()) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, dur_ns: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_layer_spans_through_crate_spans() {
        let t = Trace {
            spans: vec![
                span(ROOT, 1, 0, 1000),
                span("ledger.fit.trial", 2, 1, 600),
                span("forest.fit", 3, 2, 500), // a crate span between two ledger spans
                span("ledger.featurize.generate", 4, 3, 100),
                span("ledger.search.suggest", 5, 1, 200),
            ],
            counters: HashMap::new(),
            pool_busy_ns: 0,
            queue_wait_p50_ns: 0.0,
        };
        let (shares, unaccounted) = t.shares();
        assert_eq!(shares["share.fit"], 0.5);
        assert_eq!(shares["share.featurize"], 0.1);
        assert_eq!(shares["share.search"], 0.2);
        assert!((unaccounted - 0.2).abs() < 1e-12);
        assert_eq!(t.total_s("fit.trial"), 600e-9);
    }

    #[test]
    fn every_ledger_layer_maps_to_a_share_metric() {
        for (name, _) in crate::report::PER_LAYER {
            if let Some(share) = name.strip_prefix("share.") {
                assert!(share == "unaccounted" || SHARES.contains(&name), "{name}");
            }
        }
        assert_eq!(layer_of("ledger.index.upsert"), Some("share.store"));
        assert_eq!(layer_of("ledger.catalog.open"), Some("share.catstore"));
        assert_eq!(layer_of(ROOT), None);
        assert_eq!(layer_of("serve.batch"), None);
    }
}
