//! End-to-end trace tests: emit spans/events/metrics through a real file
//! sink, flush, parse the JSONL back, and render the report. Tests mutate
//! the process-global trace mode, so they serialize on a mutex.

use em_obs::{report, Counter, Histogram, TraceMode};
use em_rt::Json;
use std::sync::{Mutex, MutexGuard};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("em_obs_test_{}_{name}.jsonl", std::process::id()));
    p
}

fn kinds(records: &[Json]) -> Vec<&str> {
    records
        .iter()
        .map(|r| r.get("kind").and_then(Json::as_str).unwrap_or(""))
        .collect()
}

#[test]
fn file_sink_captures_spans_events_and_metrics() {
    let _guard = serialize();
    let path = temp_path("capture");
    em_obs::set_mode(TraceMode::File(path.to_string_lossy().into_owned()));

    static TEST_PAIRS: Counter = Counter::new("test.pairs");
    static TEST_LATENCY: Histogram = Histogram::new("test.latency");
    {
        let _outer = em_obs::span!("test.outer");
        {
            let _inner = em_obs::span!("test.inner");
            TEST_PAIRS.add(5);
            TEST_LATENCY.record(300);
        }
        em_obs::event("test.step", || {
            vec![("fold", Json::from(2usize)), ("f1", Json::from(0.9))]
        });
    }
    em_obs::flush();
    em_obs::set_mode(TraceMode::Off);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let records = report::parse_trace(&text).expect("trace parses");
    let ks = kinds(&records);
    for expected in [
        "span", "event", "counter", "hist", "thread", "pool", "channel", "meta",
    ] {
        assert!(ks.contains(&expected), "missing kind {expected}: {ks:?}");
    }

    // Nesting: the inner span's parent must be the outer span's id.
    let spans: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("span"))
        .collect();
    let outer = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("test.outer"))
        .expect("outer span recorded");
    let inner = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("test.inner"))
        .expect("inner span recorded");
    assert_eq!(
        inner.get("parent").and_then(Json::as_f64),
        outer.get("id").and_then(Json::as_f64)
    );
    let t = |rec: &Json, k: &str| rec.get(k).and_then(Json::as_f64).unwrap();
    assert!(t(inner, "t0") >= t(outer, "t0"));
    assert!(t(inner, "t1") <= t(outer, "t1"));

    // Metrics captured the in-window values.
    let counter = records
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("test.pairs"))
        .expect("counter flushed");
    assert_eq!(counter.get("value").and_then(Json::as_f64), Some(5.0));

    // The report renders the stage table from this trace.
    let rendered = report::render_report(&records);
    assert!(rendered.contains("test.outer"), "{rendered}");
    assert!(rendered.contains("test.inner"), "{rendered}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn histogram_quantiles_clamp_to_observed_range() {
    let _guard = serialize();
    let path = temp_path("clamp");
    em_obs::set_mode(TraceMode::File(path.to_string_lossy().into_owned()));
    static CLAMP_H: Histogram = Histogram::new("test.clamp");
    // Both observations land in the [1048576, 1179647] bucket: its upper
    // bound would read 1179647, but clamping to the exact observed range
    // pins p50/p99 to the true max.
    CLAMP_H.record(1_100_000);
    CLAMP_H.record(1_150_000);
    assert_eq!(CLAMP_H.observed_range(), Some((1_100_000, 1_150_000)));
    assert_eq!(CLAMP_H.quantile(0.50), Some(1_150_000));
    assert_eq!(CLAMP_H.quantile(0.99), Some(1_150_000));
    em_obs::flush();
    em_obs::set_mode(TraceMode::Off);

    // The flushed record carries the clamped quantiles and the exact range.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let records = report::parse_trace(&text).expect("trace parses");
    let hist = records
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("test.clamp"))
        .expect("hist flushed");
    assert_eq!(hist.get("min").and_then(Json::as_f64), Some(1_100_000.0));
    assert_eq!(hist.get("max").and_then(Json::as_f64), Some(1_150_000.0));
    assert_eq!(hist.get("p99").and_then(Json::as_f64), Some(1_150_000.0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_mode_records_nothing() {
    let _guard = serialize();
    em_obs::set_mode(TraceMode::Off);
    assert!(!em_obs::enabled());
    static OFF_COUNTER: Counter = Counter::new("test.off");
    OFF_COUNTER.add(99);
    assert_eq!(OFF_COUNTER.value(), 0);
    let _span = em_obs::span!("test.ignored");
    em_obs::event("test.ignored", || {
        panic!("fields must not be built when off")
    });
    em_obs::flush();
}

#[test]
fn spans_from_pool_threads_land_in_their_own_shards() {
    let _guard = serialize();
    let path = temp_path("pool");
    em_obs::set_mode(TraceMode::File(path.to_string_lossy().into_owned()));
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    em_rt::parallel_map(64, 0, |_| {
        let _span = em_obs::span!("test.task");
    });
    em_obs::flush();
    em_obs::set_mode(TraceMode::Off);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let records = report::parse_trace(&text).expect("trace parses");
    let tasks = records
        .iter()
        .filter(|r| r.get("name").and_then(Json::as_str) == Some("test.task"))
        .count();
    assert_eq!(tasks, 64);
    // The runtime's own stats were live: the parallel section was counted.
    let pool = records
        .iter()
        .rev()
        .find(|r| r.get("kind").and_then(Json::as_str) == Some("pool"))
        .expect("pool record");
    let jobs = pool.get("jobs").and_then(Json::as_f64).unwrap_or(0.0);
    let inline = pool
        .get("inline_sections")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(jobs + inline >= 1.0, "parallel section not counted");
    let _ = std::fs::remove_file(&path);
}
