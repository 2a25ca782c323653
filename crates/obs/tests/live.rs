//! Live-telemetry tests: window rotation and count conservation (including
//! an 8-thread hammer across rotations), sampler determinism, the slow-query
//! log bound, min/max-clamped quantiles, and the text renderers. Tests that
//! flip a global sink switch or touch the health registry serialize on a
//! mutex.

use em_obs::live::{self, RequestLog, RequestRecord, Window};
use em_obs::{Counter, Histogram, TraceMode};
use std::sync::{Mutex, MutexGuard};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// 1ms slices so a test can sweep many epochs with synthetic timestamps.
const SLICE: u64 = 1_000_000;

#[test]
fn windowed_histogram_rotates_and_windows_slices() {
    static H: Histogram = Histogram::with_slice_ns("test.rotate", SLICE);
    // Epoch 0: two fast observations; epoch 1: one slow one.
    H.record_at(0, 100);
    H.record_at(SLICE / 2, 200);
    H.record_at(SLICE, 4000);

    // At epoch 1, the 10s window (2 slices) sees all three.
    let s = H.stats_at(SLICE, Window::TenSec);
    assert_eq!(s.count, 3);
    assert_eq!(s.sum, 4300);
    assert_eq!(s.min, Some(100));
    assert_eq!(s.max, Some(4000));
    // p50 = 2nd of [100, 200, 4000] -> bucket [192, 207] -> its largest
    // value, 207.
    assert_eq!(s.p50, Some(207));
    // p99 lands in the [3840, 4095] bucket; the upper bound clamps to the
    // exact max instead of reading 4095.
    assert_eq!(s.p99, Some(4000));
    // When the tail shares one bucket, clamping pins the quantile to the
    // true max (the small-sample p99 fix from BENCH_serve.json).
    static NARROW: Histogram = Histogram::with_slice_ns("test.narrow", SLICE);
    NARROW.record_at(0, 1_100_000);
    NARROW.record_at(0, 1_150_000);
    let n = NARROW.stats_at(0, Window::TenSec);
    assert_eq!(n.p99, Some(1_150_000));
    assert!((s.rate_per_sec - 3.0 / s.window_secs).abs() < 1e-9);

    // At epoch 2, the 2-slice window has rotated past epoch 0.
    let s = H.stats_at(2 * SLICE, Window::TenSec);
    assert_eq!(s.count, 1);
    assert_eq!((s.min, s.max), (Some(4000), Some(4000)));
    // The 1m window (12 slices) still covers everything.
    assert_eq!(H.stats_at(2 * SLICE, Window::OneMin).count, 3);
    // Far in the future every window is empty, but the cumulative totals
    // survive.
    let s = H.stats_at(1000 * SLICE, Window::FiveMin);
    assert_eq!(s.count, 0);
    assert_eq!((s.p50, s.min), (None, None));
    assert_eq!(H.live_total(), Some((3, 4300)));
}

#[test]
fn ring_slot_reuse_discards_expired_epochs() {
    static H: Histogram = Histogram::with_slice_ns("test.reuse", SLICE);
    // Epoch 0 and epoch RING_LEN map to the same ring slot; writing the
    // later epoch must evict the earlier one, not merge with it.
    H.record_at(0, 10);
    let wrapped = live::RING_LEN as u64 * SLICE;
    H.record_at(wrapped, 20);
    let s = H.stats_at(wrapped, Window::FiveMin);
    assert_eq!(s.count, 1);
    assert_eq!(s.min, Some(20));
    assert_eq!(H.live_total(), Some((2, 30)));
}

#[test]
fn concurrent_hammer_conserves_counts_across_rotations() {
    static H: Histogram = Histogram::with_slice_ns("test.hammer", SLICE);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    // Each thread records across epochs 0..40 (interleaved with the other
    // threads' rotations of the same slots) while a reader snapshots
    // concurrently. 40 epochs < RING_LEN, so at the end nothing has fallen
    // off the ring and conservation must be exact.
    const EPOCHS: u64 = 40;
    let t_of = |i: u64| (i % EPOCHS) * SLICE + (i % 7) * (SLICE / 7);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    H.record_at(t_of(i), t * PER_THREAD + i);
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..100 {
                let s = H.stats_at((EPOCHS - 1) * SLICE, Window::FiveMin);
                assert!(s.count <= THREADS * PER_THREAD);
            }
        });
    });
    assert_eq!(H.live_total().map(|(n, _)| n), Some(THREADS * PER_THREAD));
    // The 5m window (60 slices) covers all 40 epochs: every record is still
    // in the ring.
    let s = H.stats_at((EPOCHS - 1) * SLICE, Window::FiveMin);
    assert_eq!(s.count, THREADS * PER_THREAD);
    assert_eq!(s.min, Some(0));
    assert_eq!(s.max, Some(THREADS * PER_THREAD - 1));
}

#[test]
fn windowed_counter_counts_and_rates() {
    static C: Counter = Counter::with_slice_ns("test.counter", SLICE);
    C.add_at(0, 5);
    C.add_at(SLICE, 7);
    assert_eq!(C.live_total(), Some(12));
    let s = C.stats_at(SLICE, Window::TenSec);
    assert_eq!(s.count, 12);
    assert!((s.rate_per_sec - 12.0 / s.window_secs).abs() < 1e-9);
    // One slice later the epoch-0 increment leaves the 2-slice window.
    assert_eq!(C.stats_at(2 * SLICE, Window::TenSec).count, 7);
}

#[test]
fn sampler_is_deterministic_and_sparse() {
    let log = RequestLog::new("test.sampler", 0xD1CE, 16, 4);
    let first: Vec<bool> = (0..4096).map(|id| log.is_sampled(id)).collect();
    let second: Vec<bool> = (0..4096).map(|id| log.is_sampled(id)).collect();
    assert_eq!(first, second);
    let kept = first.iter().filter(|&&s| s).count();
    // Expected 256 of 4096; the hash should land within a loose band.
    assert!((128..=512).contains(&kept), "kept {kept} of 4096");
    // sample_every <= 1 keeps everything.
    let all = RequestLog::new("test.all", 1, 1, 4);
    assert!((0..100).all(|id| all.is_sampled(id)));
}

#[test]
fn request_log_keeps_k_worst_and_recent_samples() {
    let _guard = serialize();
    live::set_enabled(true);
    static LOG: RequestLog = RequestLog::new("test.slowlog", 7, 2, 3);
    for id in 0..100u64 {
        // Latencies 1..=100 in scrambled order.
        let latency = (id * 37) % 100 + 1;
        LOG.record(RequestRecord {
            id,
            latency_ns: latency,
            fields: vec![("queries", id)],
        });
    }
    let slow: Vec<u64> = LOG.slow().iter().map(|r| r.latency_ns).collect();
    assert_eq!(slow, vec![100, 99, 98]);
    let sampled = LOG.sampled_recent();
    assert!(sampled.len() <= 32);
    assert!(sampled.iter().all(|r| LOG.is_sampled(r.id)));
    live::set_enabled(false);
    // While disabled nothing is recorded and `record` reports unsampled.
    assert!(!LOG.record(RequestRecord {
        id: 0,
        latency_ns: u64::MAX,
        fields: vec![],
    }));
    assert_eq!(LOG.slow().first().map(|r| r.latency_ns), Some(100));
}

#[test]
fn disabled_live_metrics_record_nothing() {
    let _guard = serialize();
    em_obs::set_mode(TraceMode::Off);
    live::set_enabled(false);
    static H: Histogram = Histogram::new("test.disabled_h");
    static C: Counter = Counter::new("test.disabled_c");
    H.record(123);
    H.record_all([4, 5]);
    C.incr();
    assert_eq!((H.count(), C.value()), (0, 0));
    // No live record ever allocated a window ring...
    assert_eq!(H.live_total(), None);
    assert_eq!(C.live_total(), None);
    // ...and neither metric joined the registry, so turning live telemetry
    // on later does not surface them until they record.
    live::set_enabled(true);
    let text = live::render_metrics();
    live::set_enabled(false);
    assert!(!text.contains("test.disabled_"), "{text}");
}

#[test]
fn render_metrics_emits_parseable_key_value_lines() {
    let _guard = serialize();
    live::set_enabled(true);
    static H: Histogram = Histogram::new("test.render_h");
    static C: Counter = Counter::new("test.render_c");
    H.record(1000);
    H.record(3000);
    C.add(4);
    let now = em_rt::stats::now_ns();
    let text = live::render_metrics_at(now);
    live::set_enabled(false);
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let key = parts.next().expect("key");
        let value = parts.next().unwrap_or_else(|| panic!("no value: {line}"));
        assert!(parts.next().is_none(), "extra tokens: {line}");
        assert!(!key.is_empty());
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
    }
    assert!(text.contains("test.render_h.total.count 2"), "{text}");
    assert!(text.contains("test.render_h.10s.min 1000"), "{text}");
    assert!(text.contains("test.render_h.10s.max 3000"), "{text}");
    assert!(text.contains("test.render_c.total 4"), "{text}");
    // Metric blocks appear in name order (line order within a block is
    // logical: totals, then windows).
    let c_at = text.find("test.render_c").expect("counter block");
    let h_at = text.find("test.render_h").expect("histogram block");
    assert!(c_at < h_at, "{text}");
}

#[test]
fn health_registry_tracks_latest_component_state() {
    let _guard = serialize();
    live::clear_health();
    assert!(live::health_ok());
    let (ok, body) = live::render_health();
    assert!(ok);
    assert!(body.contains("no components reported"), "{body}");

    live::set_health("test.index", Ok("42 live records".to_string()));
    live::set_health("test.wal", Err("torn tail".to_string()));
    assert!(!live::health_ok());
    let (ok, body) = live::render_health();
    assert!(!ok);
    assert!(body.starts_with("FAIL\n"), "{body}");
    assert!(body.contains("test.index ok 42 live records"), "{body}");
    assert!(body.contains("test.wal FAIL torn tail"), "{body}");

    // A newer report replaces the old one.
    live::set_health("test.wal", Ok("clean".to_string()));
    assert!(live::health_ok());
    let (ok, body) = live::render_health();
    assert!(ok, "{body}");
    assert!(body.starts_with("ok\n"), "{body}");
    live::clear_health();
}
