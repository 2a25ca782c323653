//! Domain counters and histograms as `static` items.
//!
//! Declaration is `const`, so a metric costs nothing until first touched
//! while a sink is active, at which point it registers itself into the one
//! metric registry:
//!
//! ```
//! static PAIRS_EMITTED: em_obs::Counter = em_obs::Counter::new("blocking.pairs_emitted");
//! PAIRS_EMITTED.add(42);
//! ```
//!
//! One declaration and one `add`/`record` call feed both sinks under the
//! same name: the JSONL trace while tracing is on ([`crate::enabled`]) and
//! the trailing windows of `/metrics` while live telemetry is on
//! ([`crate::live::enabled`]). Each sink moves only while it is on, so the
//! trace value describes exactly the traced window and the `/metrics`
//! totals exactly the time with live telemetry on. With both off, a record
//! site is one relaxed load.

use crate::live::{lock, Gauge, Window, WindowStats, Windows, DEFAULT_SLICE_NS};
use crate::{prepend, sinks, write_record, LIVE, TRACE};
use em_rt::stats::LogHistogram;
use em_rt::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Every metric touched while a sink was on, in first-touch order.
pub(crate) enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
    Gauge(&'static Gauge),
}

impl Metric {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Histogram(h) => h.name,
            Metric::Gauge(g) => g.name(),
        }
    }
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

pub(crate) fn registry() -> MutexGuard<'static, Vec<Metric>> {
    lock(&REGISTRY)
}

/// Push `metric` into the registry the first time `flag` is raised.
pub(crate) fn register_once(flag: &AtomicBool, metric: Metric) {
    if !flag.swap(true, Ordering::Relaxed) {
        registry().push(metric);
    }
}

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
    live: Windows<u64>,
}

impl Counter {
    /// Declare a counter (usable in `static` position).
    pub const fn new(name: &'static str) -> Counter {
        Counter::with_slice_ns(name, DEFAULT_SLICE_NS)
    }

    /// Declare with a custom window slice width — tests use millisecond
    /// slices to exercise rotation without waiting out wall-clock windows.
    pub const fn with_slice_ns(name: &'static str, slice_ns: u64) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
            live: Windows::new(slice_ns),
        }
    }

    /// Add `n` to every active sink (no-op while both are off).
    #[inline]
    pub fn add(&'static self, n: u64) {
        let sinks = sinks();
        if sinks == 0 {
            return;
        }
        register_once(&self.registered, Metric::Counter(self));
        if sinks & TRACE != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
        if sinks & LIVE != 0 {
            self.add_at(em_rt::stats::now_ns(), n);
        }
    }

    /// Add 1 (no-op while both sinks are off).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Add to the live windows at an explicit timestamp. Test hook: not
    /// gated on any sink and does not register, so tests can drive
    /// synthetic time deterministically.
    pub fn add_at(&self, now_ns: u64, n: u64) {
        self.live.update(now_ns, |c| *c += n);
    }

    /// Value recorded while tracing was on.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Total recorded while live telemetry was on; `None` until the first
    /// live record allocates the window ring.
    pub fn live_total(&self) -> Option<u64> {
        self.live.total(|c| *c)
    }

    /// Trailing-window count and rate at the current time.
    pub fn stats(&self, window: Window) -> WindowStats {
        self.stats_at(em_rt::stats::now_ns(), window)
    }

    /// Trailing-window count and rate at an explicit timestamp (test hook).
    pub fn stats_at(&self, now_ns: u64, window: Window) -> WindowStats {
        let mut count = 0;
        self.live.for_window(now_ns, window, |c| count += c);
        self.live.stats(window, count, count)
    }
}

/// A named histogram over the shared log-linear core
/// ([`em_rt::stats::LogHistogram`]): exact below 16, 8 sub-buckets per
/// power of two above, exact min/max beside.
pub struct Histogram {
    name: &'static str,
    trace: LogHistogram,
    registered: AtomicBool,
    live: Windows<LogHistogram>,
}

impl Histogram {
    /// Declare a histogram (usable in `static` position).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram::with_slice_ns(name, DEFAULT_SLICE_NS)
    }

    /// Declare with a custom window slice width (test hook, as
    /// [`Counter::with_slice_ns`]).
    pub const fn with_slice_ns(name: &'static str, slice_ns: u64) -> Histogram {
        Histogram {
            name,
            trace: LogHistogram::new(),
            registered: AtomicBool::new(false),
            live: Windows::new(slice_ns),
        }
    }

    /// Count one observation of `v` in every active sink (no-op while both
    /// are off).
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.record_all([v]);
    }

    /// Count a batch of observations, taking the live-window lock once.
    /// Hot paths that observe per-item values (e.g. per-pair match scores)
    /// use this instead of a lock round-trip per item.
    pub fn record_all<I>(&'static self, values: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let sinks = sinks();
        if sinks == 0 {
            return;
        }
        register_once(&self.registered, Metric::Histogram(self));
        let values = values.into_iter();
        if sinks & TRACE != 0 {
            values.clone().for_each(|v| self.trace.record(v));
        }
        if sinks & LIVE != 0 {
            self.live.update(em_rt::stats::now_ns(), |h| {
                values.clone().for_each(|v| h.record(v))
            });
        }
    }

    /// Record into the live windows at an explicit timestamp. Test hook:
    /// not gated on any sink and does not register.
    pub fn record_at(&self, now_ns: u64, v: u64) {
        self.live.update(now_ns, |h| h.record(v));
    }

    /// Observations recorded while tracing was on.
    pub fn count(&self) -> u64 {
        self.trace.count()
    }

    /// Exact `(min, max)` recorded while tracing was on, `None` while empty.
    pub fn observed_range(&self) -> Option<(u64, u64)> {
        self.trace.range()
    }

    /// Quantile of the traced observations ([`LogHistogram::quantile`]),
    /// `None` while empty. Lets harnesses (e.g. `serve_demo`) read p50/p99
    /// without a flush cycle.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.trace.quantile(q)
    }

    /// `(count, sum)` recorded while live telemetry was on; `None` until the
    /// first live record allocates the window ring.
    pub fn live_total(&self) -> Option<(u64, u64)> {
        self.live.total(|h| (h.count(), h.sum()))
    }

    /// Trailing-window snapshot at the current time.
    pub fn stats(&self, window: Window) -> WindowStats {
        self.stats_at(em_rt::stats::now_ns(), window)
    }

    /// Trailing-window snapshot at an explicit timestamp (test hook).
    pub fn stats_at(&self, now_ns: u64, window: Window) -> WindowStats {
        let merged = LogHistogram::new();
        self.live.for_window(now_ns, window, |h| merged.merge(h));
        let range = merged.range();
        WindowStats {
            min: range.map(|(lo, _)| lo),
            max: range.map(|(_, hi)| hi),
            p50: merged.quantile(0.50),
            p99: merged.quantile(0.99),
            ..self.live.stats(window, merged.count(), merged.sum())
        }
    }
}

/// Serialize every registered counter and histogram to the trace. Called
/// from [`flush`](crate::flush).
pub(crate) fn flush() {
    for m in registry().iter() {
        match m {
            Metric::Counter(c) => write_record(&Json::obj([
                ("kind", Json::from("counter")),
                ("name", Json::from(c.name)),
                ("value", Json::from(c.value())),
            ])),
            Metric::Histogram(h) => write_record(&prepend(
                [("kind", Json::from("hist")), ("name", Json::from(h.name))],
                h.trace.to_json(),
            )),
            Metric::Gauge(_) => {}
        }
    }
}
