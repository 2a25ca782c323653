//! One declaration, two sinks: a `Counter` and a `Histogram` recorded with
//! tracing and live telemetry both on must report the same count, p50,
//! p99, min and max in the flushed trace and in `/metrics`. Its own test
//! binary, because it holds both process-global switches.

use em_obs::{live, report, Counter, Histogram, TraceMode};
use em_rt::Json;

#[test]
fn trace_and_live_windows_agree_on_one_declaration() {
    let path = std::env::temp_dir().join(format!(
        "em_obs_test_{}_two_sinks.jsonl",
        std::process::id()
    ));
    em_obs::set_mode(TraceMode::File(path.to_string_lossy().into_owned()));
    live::set_enabled(true);

    static ITEMS: Counter = Counter::new("test.two_sinks.items");
    static LATENCY: Histogram = Histogram::new("test.two_sinks.latency_ns");
    // Spread over exact small values and several log-linear buckets, with a
    // tail sharing one bucket so the max clamp is exercised.
    let values = [
        3u64, 9, 15, 17, 250, 251, 4_000, 65_000, 1_100_000, 1_150_000,
    ];
    for &v in &values {
        ITEMS.add(v % 4);
        LATENCY.record(v);
    }
    LATENCY.record_all([2_770_000, 4_290_000]);
    let metrics = live::render_metrics_at(em_rt::stats::now_ns());
    live::set_enabled(false);
    em_obs::flush();
    em_obs::set_mode(TraceMode::Off);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let records = report::parse_trace(&text).expect("trace parses");
    let record = |name: &str| {
        records
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} not flushed"))
            .clone()
    };
    let metric = |key: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{key} missing from /metrics:\n{metrics}"))
            .parse()
            .expect("integer value")
    };

    let counter = record("test.two_sinks.items");
    let total: u64 = values.iter().map(|v| v % 4).sum();
    assert_eq!(
        counter.get("value").and_then(Json::as_f64),
        Some(total as f64)
    );
    assert_eq!(metric("test.two_sinks.items.total"), total);
    assert_eq!(metric("test.two_sinks.items.5m.count"), total);

    let hist = record("test.two_sinks.latency_ns");
    assert_eq!(metric("test.two_sinks.latency_ns.total.count"), 12);
    for field in ["count", "p50", "p99", "min", "max"] {
        let traced = hist
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("hist record lacks {field}"));
        let live = metric(&format!("test.two_sinks.latency_ns.5m.{field}"));
        assert_eq!(traced, live as f64, "{field}: trace vs /metrics");
    }
    assert_eq!(hist.get("min").and_then(Json::as_f64), Some(3.0));
    assert_eq!(hist.get("max").and_then(Json::as_f64), Some(4_290_000.0));
}
