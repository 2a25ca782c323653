//! Live telemetry: rolling-window metrics, sampled request logs, and a
//! process-wide health registry — the read-while-it-runs counterpart to the
//! post-hoc trace in the crate root.
//!
//! There is no second metric type here. The trace accumulates from process
//! start and flushes once at exit; a long-running server instead wants
//! "what happened in the last minute". So each [`Counter`](crate::Counter)
//! and [`Histogram`](crate::Histogram) carries, beside its trace value, a
//! ring of [`RING_LEN`] time slices that records while live telemetry is on.
//! A histogram slice is an `em_rt::stats::LogHistogram`, the same
//! log-linear core the trace uses, stamped with its slice epoch
//! (`now_ns / slice_ns` off the shared monotonic timebase in
//! `em_rt::stats`). Recording rotates the ring lazily: the slot for the
//! current epoch is cleared the first time a new epoch touches it, so there
//! is no background sweeper thread and an idle metric costs nothing.
//! Snapshots merge the slices whose epochs fall inside the requested
//! [`Window`] (10s / 1m / 5m with the default 5-second slice) and read
//! quantiles by the trace's rule, so a windowed and a post-hoc quantile
//! over the same observations are equal.
//!
//! Everything is gated on [`enabled`], flipped when a metrics endpoint starts
//! (`EM_METRICS`): while it and tracing are both off, every instrumentation
//! site is one relaxed atomic load. The determinism contract of the trace
//! layer carries over unchanged — live telemetry *observes* execution and
//! never feeds back into it, so enabling it cannot change any computed bit
//! (`crates/serve/tests/serve_stream.rs` enforces this).
//!
//! [`Gauge`]s are live-only last values. [`RequestLog`] adds
//! request-scoped visibility: a seeded deterministic
//! sampler (keyed on `em_rt::derive_seed(seed, request_id)`, so the *same*
//! requests are sampled in every run at every thread count) keeps a bounded
//! ring of fully-annotated recent requests, and a bounded slow-query log
//! retains the K worst requests seen so far. [`set_health`] lets serving
//! components publish invariant-check results for the `/healthz` endpoint.

use crate::metrics::{register_once, registry, Metric};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Default width of one ring slice: 5 seconds.
pub const DEFAULT_SLICE_NS: u64 = 5_000_000_000;
/// Slices per ring: 64 x 5s = 320s of history, enough to cover the 5-minute
/// window with headroom.
pub const RING_LEN: usize = 64;

/// Turn live telemetry collection on or off. The runtime stats switch
/// follows: it stays on while either tracing or live telemetry is active
/// (the poller reads pool busy-time from `em_rt::stats`).
pub fn set_enabled(on: bool) {
    crate::set_sink(crate::LIVE, on);
}

/// Whether live telemetry is active. One relaxed load after the one-time
/// `EM_TRACE` lookup.
#[inline]
pub fn enabled() -> bool {
    crate::sinks() & crate::LIVE != 0
}

/// A trailing window over the slice ring. Durations assume the default
/// 5-second slice; a metric built with a custom `slice_ns` (tests) keeps the
/// same slice *counts*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Last 2 slices (10 seconds).
    TenSec,
    /// Last 12 slices (1 minute).
    OneMin,
    /// Last 60 slices (5 minutes).
    FiveMin,
}

impl Window {
    /// All windows, shortest first — the order `/metrics` renders them in.
    pub const ALL: [Window; 3] = [Window::TenSec, Window::OneMin, Window::FiveMin];

    /// Number of ring slices this window spans.
    pub fn slices(self) -> u64 {
        match self {
            Window::TenSec => 2,
            Window::OneMin => 12,
            Window::FiveMin => 60,
        }
    }

    /// Metric-key suffix (`serve.batch_ns.5m.p99`).
    pub fn label(self) -> &'static str {
        match self {
            Window::TenSec => "10s",
            Window::OneMin => "1m",
            Window::FiveMin => "5m",
        }
    }
}

/// Snapshot of one metric over one trailing window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    pub window: Window,
    /// Window span in seconds (slice width x slice count).
    pub window_secs: f64,
    /// Observations that fell inside the window.
    pub count: u64,
    /// `count / window_secs`.
    pub rate_per_sec: f64,
    /// Sum of observed values inside the window (counters: equals `count`).
    pub sum: u64,
    /// Exact min/max observed inside the window, `None` while empty.
    pub min: Option<u64>,
    pub max: Option<u64>,
    /// Quantiles by the trace's rule (`em_rt::stats::LogHistogram::quantile`),
    /// `None` while empty (counters: always `None`).
    pub p50: Option<u64>,
    pub p99: Option<u64>,
}

/// Lock `m`, recovering the guard if a panicking thread poisoned it: every
/// update under these locks leaves the data valid at each step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One metric's live state: cumulative totals plus a ring of [`RING_LEN`]
/// time slices, boxed on the first live record so a declared but untouched
/// metric is a few static words.
pub(crate) struct Windows<S> {
    slice_ns: u64,
    ring: Mutex<Option<Box<Ring<S>>>>,
}

struct Ring<S> {
    total: S,
    /// `(epoch, slice)`; epoch `u64::MAX` marks a slot never written.
    slices: Vec<(u64, S)>,
}

impl<S: Default> Windows<S> {
    pub(crate) const fn new(slice_ns: u64) -> Windows<S> {
        Windows {
            slice_ns,
            ring: Mutex::new(None),
        }
    }

    /// Apply `f` to the totals and to the slice for `now_ns`. A slot still
    /// holding an older epoch is cleared first: this lazy rotation is the
    /// only way slices are ever reset.
    pub(crate) fn update(&self, now_ns: u64, mut f: impl FnMut(&mut S)) {
        let epoch = now_ns / self.slice_ns;
        let mut guard = lock(&self.ring);
        let ring = guard.get_or_insert_with(|| {
            Box::new(Ring {
                total: S::default(),
                slices: (0..RING_LEN).map(|_| (u64::MAX, S::default())).collect(),
            })
        });
        f(&mut ring.total);
        let (slot_epoch, slice) = &mut ring.slices[(epoch % RING_LEN as u64) as usize];
        if *slot_epoch != epoch {
            *slot_epoch = epoch;
            *slice = S::default();
        }
        f(slice);
    }

    /// `f` of the totals, `None` while the ring is unallocated.
    pub(crate) fn total<R>(&self, f: impl FnOnce(&S) -> R) -> Option<R> {
        lock(&self.ring).as_deref().map(|ring| f(&ring.total))
    }

    /// Visit every slice inside `window` ending at `now_ns`.
    pub(crate) fn for_window(&self, now_ns: u64, window: Window, mut f: impl FnMut(&S)) {
        let epoch = now_ns / self.slice_ns;
        let lo = epoch.saturating_sub(window.slices() - 1);
        if let Some(ring) = lock(&self.ring).as_deref() {
            for (e, slice) in &ring.slices {
                if (lo..=epoch).contains(e) {
                    f(slice);
                }
            }
        }
    }

    /// Count, rate and sum over `window`; no range or quantiles.
    pub(crate) fn stats(&self, window: Window, count: u64, sum: u64) -> WindowStats {
        let window_secs = (window.slices() * self.slice_ns) as f64 / 1e9;
        WindowStats {
            window,
            window_secs,
            count,
            rate_per_sec: count as f64 / window_secs,
            sum,
            min: None,
            max: None,
            p50: None,
            p99: None,
        }
    }
}

/// A named last-value gauge (RSS, index size, stale debt, …). Declare as a
/// `static`.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Declare a gauge (usable in `static` position).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Replace the value (no-op while live telemetry is off).
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        register_once(&self.registered, Metric::Gauge(self));
        self.value.store(v, Ordering::Relaxed);
    }

    /// Last value set.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

static REQUEST_LOGS: Mutex<Vec<&'static RequestLog>> = Mutex::new(Vec::new());

/// Render every registered metric as `key value` text lines (the `/metrics`
/// payload), sorted by name. Counters and histograms emit their live totals
/// plus count/rate per trailing window, histograms also p50/p99/min/max;
/// quantile lines are omitted while a window is empty.
pub fn render_metrics() -> String {
    render_metrics_at(em_rt::stats::now_ns())
}

/// [`render_metrics`] at an explicit timestamp (test hook).
pub fn render_metrics_at(now_ns: u64) -> String {
    let mut out = format!("em.uptime_secs {:.1}\n", now_ns as f64 / 1e9);
    let registry = registry();
    let mut order: Vec<&Metric> = registry.iter().collect();
    order.sort_by_key(|m| m.name());
    for m in order {
        let name = m.name();
        match m {
            Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.value())),
            Metric::Counter(c) => {
                let total = c.live_total().unwrap_or(0);
                out.push_str(&format!("{name}.total {total}\n"));
                for w in Window::ALL {
                    push_window(&mut out, name, &c.stats_at(now_ns, w));
                }
            }
            Metric::Histogram(h) => {
                let (count, sum) = h.live_total().unwrap_or((0, 0));
                out.push_str(&format!("{name}.total.count {count}\n"));
                out.push_str(&format!("{name}.total.sum {sum}\n"));
                for w in Window::ALL {
                    push_window(&mut out, name, &h.stats_at(now_ns, w));
                }
            }
        }
    }
    out
}

fn push_window(out: &mut String, name: &str, s: &WindowStats) {
    let l = s.window.label();
    out.push_str(&format!("{name}.{l}.count {}\n", s.count));
    out.push_str(&format!("{name}.{l}.rate_per_s {:.3}\n", s.rate_per_sec));
    for (stat, v) in [
        ("p50", s.p50),
        ("p99", s.p99),
        ("min", s.min),
        ("max", s.max),
    ] {
        if let Some(v) = v {
            out.push_str(&format!("{name}.{l}.{stat} {v}\n"));
        }
    }
}

/// One request's record in a [`RequestLog`]: identity, latency, and a small
/// set of named effect counts (candidate pairs, pruned tokens, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    pub id: u64,
    pub latency_ns: u64,
    pub fields: Vec<(&'static str, u64)>,
}

struct LogInner {
    /// K worst requests by latency, descending.
    slow: Vec<RequestRecord>,
    /// Most recent sampled requests, oldest first.
    sampled: VecDeque<RequestRecord>,
}

/// Bounded request-scoped log: a deterministic 1-in-N sampler plus a K-worst
/// slow-query log. Declare as a `static`.
pub struct RequestLog {
    name: &'static str,
    seed: u64,
    sample_every: u64,
    slow_k: usize,
    sampled_cap: usize,
    registered: AtomicBool,
    inner: Mutex<LogInner>,
}

impl RequestLog {
    /// Declare a request log (usable in `static` position): sample 1 in
    /// `sample_every` requests (keep the latest 32), retain the `slow_k`
    /// worst by latency.
    pub const fn new(
        name: &'static str,
        seed: u64,
        sample_every: u64,
        slow_k: usize,
    ) -> RequestLog {
        RequestLog {
            name,
            seed,
            sample_every,
            slow_k,
            sampled_cap: 32,
            registered: AtomicBool::new(false),
            inner: Mutex::new(LogInner {
                slow: Vec::new(),
                sampled: VecDeque::new(),
            }),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether request `id` is in the sample. Pure in `(seed, id)` — the same
    /// requests are sampled in every run at every thread count, so sampled
    /// trace events stay reproducible.
    pub fn is_sampled(&self, id: u64) -> bool {
        self.sample_every <= 1
            || em_rt::derive_seed(self.seed, id).is_multiple_of(self.sample_every)
    }

    /// Record one request; returns whether it was sampled. No-op (returning
    /// `false`) while live telemetry is off.
    pub fn record(&'static self, rec: RequestRecord) -> bool {
        if !enabled() {
            return false;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock(&REQUEST_LOGS).push(self);
        }
        let sampled = self.is_sampled(rec.id);
        let mut inner = lock(&self.inner);
        let pos = inner
            .slow
            .partition_point(|r| r.latency_ns >= rec.latency_ns);
        if pos < self.slow_k {
            let k = self.slow_k;
            inner.slow.insert(pos, rec.clone());
            inner.slow.truncate(k);
        }
        if sampled {
            inner.sampled.push_back(rec);
            if inner.sampled.len() > self.sampled_cap {
                inner.sampled.pop_front();
            }
        }
        sampled
    }

    /// The K worst requests by latency, descending.
    pub fn slow(&self) -> Vec<RequestRecord> {
        lock(&self.inner).slow.clone()
    }

    /// The most recent sampled requests, oldest first.
    pub fn sampled_recent(&self) -> Vec<RequestRecord> {
        lock(&self.inner).sampled.iter().cloned().collect()
    }
}

/// Render every registered request log (the `/slow` payload): the slow-query
/// table first, then the sampled ring.
pub fn render_slow() -> String {
    let logs = lock(&REQUEST_LOGS);
    if logs.is_empty() {
        return "no request logs registered\n".to_string();
    }
    let mut order: Vec<usize> = (0..logs.len()).collect();
    order.sort_by_key(|&i| logs[i].name);
    let mut out = String::new();
    let fmt_rec = |out: &mut String, r: &RequestRecord| {
        out.push_str(&format!("id={} latency_ns={}", r.id, r.latency_ns));
        for (k, v) in &r.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    };
    for i in order {
        let log = logs[i];
        out.push_str(&format!("== {}: {} slowest ==\n", log.name, log.slow_k));
        for r in log.slow() {
            fmt_rec(&mut out, &r);
        }
        out.push_str(&format!(
            "== {}: sampled 1-in-{} (most recent last) ==\n",
            log.name, log.sample_every
        ));
        for r in log.sampled_recent() {
            fmt_rec(&mut out, &r);
        }
    }
    out
}

/// One component's latest health report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEntry {
    pub component: String,
    pub ok: bool,
    pub detail: String,
    /// Timebase nanoseconds at report time.
    pub t_ns: u64,
}

static HEALTH: Mutex<Vec<HealthEntry>> = Mutex::new(Vec::new());

/// Publish a component's health (`Ok(detail)` / `Err(reason)`), replacing its
/// previous report. Not gated on [`enabled`] — invariant checks run anyway,
/// and `/healthz` should reflect the latest result even if it predates the
/// endpoint.
pub fn set_health(component: &str, status: Result<String, String>) {
    let (ok, detail) = match status {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    let entry = HealthEntry {
        component: component.to_string(),
        ok,
        detail,
        t_ns: em_rt::stats::now_ns(),
    };
    let mut h = lock(&HEALTH);
    match h.iter_mut().find(|e| e.component == component) {
        Some(e) => *e = entry,
        None => h.push(entry),
    }
}

/// Whether every reported component is healthy (vacuously true when nothing
/// has reported).
pub fn health_ok() -> bool {
    lock(&HEALTH).iter().all(|e| e.ok)
}

/// All current health reports, sorted by component.
pub fn health() -> Vec<HealthEntry> {
    let mut v = lock(&HEALTH).clone();
    v.sort_by(|a, b| a.component.cmp(&b.component));
    v
}

/// Drop every health report (test hook — health state is process-global).
pub fn clear_health() {
    lock(&HEALTH).clear();
}

/// Render the `/healthz` payload: overall verdict plus one line per
/// component.
pub fn render_health() -> (bool, String) {
    let entries = health();
    if entries.is_empty() {
        return (true, "ok (no components reported)\n".to_string());
    }
    let ok = entries.iter().all(|e| e.ok);
    let mut out = String::new();
    out.push_str(if ok { "ok\n" } else { "FAIL\n" });
    for e in entries {
        out.push_str(&format!(
            "{} {} {}\n",
            e.component,
            if e.ok { "ok" } else { "FAIL" },
            e.detail
        ));
    }
    (ok, out)
}
