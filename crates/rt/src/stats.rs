//! Self-instrumentation for the runtime: lock-free counters and log-linear
//! histograms the pool and channel update on their hot paths, plus the
//! process-wide monotonic timebase every trace record in the workspace
//! shares.
//!
//! This module exists so `em-obs` (which depends on `em-rt`) can observe the
//! runtime without a dependency cycle: `em-obs` flips [`set_enabled`] when a
//! trace sink is active and snapshots everything here at flush time via
//! [`snapshot_json`]. When disabled (the default), every instrumentation
//! site reduces to one relaxed atomic load — no timestamps are taken, no
//! counters move, and nothing allocates.
//!
//! Determinism contract: everything here *observes* execution (timestamps,
//! claim counts, wait durations) and nothing feeds back into scheduling or
//! computation, so enabling stats can never change a result bit.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch, flipped by the observability layer. Default off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable runtime stats collection. Counters are not cleared on
/// transitions; pair with [`reset`] when a clean window is needed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether runtime stats collection is currently on. One relaxed load —
/// cheap enough for per-chunk hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process's trace epoch (the first call to this
/// function). Monotonic, shared by every span and event in the workspace so
/// records from different crates land on one timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Number of per-thread busy-time slots: slot 0 is the submitting thread,
/// slots `1..` are pool workers. Workers beyond the cap fold into the last
/// slot (pools that large do not occur in practice).
pub const MAX_TRACKED_THREADS: usize = 65;

/// Linear sub-buckets per power of two, as a bit count: 8 of them, so a
/// bucket is never wider than 1/8 of its smallest value.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Buckets spanning all of `u64`: one per value below 16, then 8 for each
/// power of two from 2^4 up to 2^63.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// The bucket holding `v`. Values below 16 are their own bucket; above,
/// the leading bit picks a group of 8 and the three bits under it pick the
/// bucket inside the group.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    shift as usize * SUB + (v >> shift) as usize
}

/// Smallest and largest value bucket `i` holds.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < 2 * SUB {
        return (i as u64, i as u64);
    }
    let shift = i / SUB - 1;
    let lo = ((i - shift * SUB) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// A log-linear histogram: values below 16 are exact, larger ones fall in
/// one of 8 equal sub-buckets per power of two. Exact min, max and sum ride
/// beside the buckets. Recording is a few relaxed atomics, and a new
/// histogram is `const`, so it can sit in a `static`. It is the one bucket
/// core of the workspace: the pool and channel waits here, the trace and
/// the live windows of every `em-obs` histogram all record into it and
/// read quantiles through [`LogHistogram::quantile`].
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Count one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Add every observation of `other` into `self`.
    pub fn merge(&self, other: &LogHistogram) {
        for (acc, b) in self.buckets.iter().zip(&other.buckets) {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                acc.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of the observed values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact observed `(min, max)`, `None` while empty.
    pub fn range(&self) -> Option<(u64, u64)> {
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        (min <= max).then_some((min, max))
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n != 0).then(|| (bucket_range(i).0, n))
            })
            .collect()
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), `None` while empty: the
    /// largest value the bucket of the `ceil(q * count)`-th observation can
    /// hold, clamped to the exact observed `[min, max]`. The answer is never
    /// below the true sample and at most 12.5% above it, and a tail that
    /// shares one bucket reads the true max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let i = counts.iter().position(|&n| {
            seen += n;
            seen >= rank
        })?;
        let hi = bucket_range(i).1;
        // A record racing this read may have bumped its bucket before its
        // min/max; skip the clamp rather than clamp to an inverted range.
        Some(self.range().map_or(hi, |(min, max)| hi.clamp(min, max)))
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The histogram as trace fields: count, p50, p99, exact min/max, and
    /// the non-empty buckets as `{ge, n}` pairs.
    pub fn to_json(&self) -> Json {
        let range = self.range();
        Json::obj([
            ("count", Json::from(self.count())),
            ("p50", self.quantile(0.50).map_or(Json::Null, Json::from)),
            ("p99", self.quantile(0.99).map_or(Json::Null, Json::from)),
            ("min", range.map_or(Json::Null, |(lo, _)| Json::from(lo))),
            ("max", range.map_or(Json::Null, |(_, hi)| Json::from(hi))),
            (
                "buckets",
                Json::arr(self.nonzero_buckets().into_iter().map(|(lower, n)| {
                    Json::obj([("ge", Json::from(lower)), ("n", Json::from(n))])
                })),
            ),
        ])
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Parallel sections dispatched to the worker pool.
pub static POOL_JOBS: AtomicU64 = AtomicU64::new(0);
/// Parallel sections run inline (serial request, nested section, or a
/// contended pool).
pub static POOL_INLINE: AtomicU64 = AtomicU64::new(0);
/// Work chunks claimed off dispatch counters (steal operations).
pub static POOL_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Delay from job publication to each participant starting it, in ns.
pub static QUEUE_WAIT_NS: LogHistogram = LogHistogram::new();
/// Busy nanoseconds per participating thread: slot 0 = submitter, 1.. =
/// pool workers.
pub static THREAD_BUSY_NS: [AtomicU64; MAX_TRACKED_THREADS] =
    [const { AtomicU64::new(0) }; MAX_TRACKED_THREADS];
/// Values sent over `em-rt` channels.
pub static CHANNEL_SENDS: AtomicU64 = AtomicU64::new(0);
/// Values received over `em-rt` channels.
pub static CHANNEL_RECVS: AtomicU64 = AtomicU64::new(0);
/// Time receivers spent blocked waiting for a value, in ns (only recorded
/// when `recv` actually blocks).
pub static RECV_WAIT_NS: LogHistogram = LogHistogram::new();

/// Add `ns` of busy time to the slot for pool worker `index` (`None` = the
/// submitting thread).
#[inline]
pub fn add_busy_ns(worker: Option<usize>, ns: u64) {
    let slot = match worker {
        None => 0,
        Some(i) => (i + 1).min(MAX_TRACKED_THREADS - 1),
    };
    THREAD_BUSY_NS[slot].fetch_add(ns, Ordering::Relaxed);
}

/// Total busy nanoseconds accumulated across every tracked thread (submitter
/// plus pool workers). Monotone while stats stay enabled; live-telemetry
/// pollers diff successive samples against wall time to derive pool
/// utilization without touching the flush path.
pub fn busy_ns_total() -> u64 {
    THREAD_BUSY_NS
        .iter()
        .map(|slot| slot.load(Ordering::Relaxed))
        .sum()
}

/// Clear every counter and histogram (the timebase epoch is left alone so
/// timestamps stay comparable across windows).
pub fn reset() {
    for c in [
        &POOL_JOBS,
        &POOL_INLINE,
        &POOL_CHUNKS,
        &CHANNEL_SENDS,
        &CHANNEL_RECVS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
    for slot in &THREAD_BUSY_NS {
        slot.store(0, Ordering::Relaxed);
    }
    QUEUE_WAIT_NS.clear();
    RECV_WAIT_NS.clear();
}

/// Snapshot every runtime counter as a JSON object (the payload of the
/// trace's `"kind":"pool"` / `"kind":"channel"` records).
pub fn snapshot_json() -> (Json, Json) {
    let busy: Vec<Json> = THREAD_BUSY_NS
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            let ns = slot.load(Ordering::Relaxed);
            if ns == 0 {
                None
            } else {
                let name = if i == 0 {
                    "submitter".to_string()
                } else {
                    format!("worker-{}", i - 1)
                };
                Some(Json::obj([
                    ("thread", Json::from(name)),
                    ("busy_ns", Json::from(ns)),
                ]))
            }
        })
        .collect();
    let pool = Json::obj([
        ("jobs", Json::from(POOL_JOBS.load(Ordering::Relaxed))),
        (
            "inline_sections",
            Json::from(POOL_INLINE.load(Ordering::Relaxed)),
        ),
        (
            "chunks_claimed",
            Json::from(POOL_CHUNKS.load(Ordering::Relaxed)),
        ),
        ("workers", Json::from(crate::pool::pool_workers())),
        ("queue_wait_ns", QUEUE_WAIT_NS.to_json()),
        ("busy", Json::Arr(busy)),
    ]);
    let channel = Json::obj([
        ("sends", Json::from(CHANNEL_SENDS.load(Ordering::Relaxed))),
        ("recvs", Json::from(CHANNEL_RECVS.load(Ordering::Relaxed))),
        ("recv_wait_ns", RECV_WAIT_NS.to_json()),
    ]);
    (pool, channel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_by_power_of_two() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        // 1024..=1151 is one eighth of [2^10, 2^11); 1152 opens the next.
        h.record(1151);
        h.record(1152);
        assert_eq!(h.count(), 7);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 1), (3, 1), (1024, 2), (1152, 1)]
        );
        assert_eq!(h.sum(), 1 + 2 + 3 + 1024 + 1151 + 1152);
        assert_eq!(h.range(), Some((0, 1152)));
    }

    #[test]
    fn bucket_ranges_tile_the_u64_line() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} leaves a gap");
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            // Width at most 1/8 of the lower bound once past the exact range.
            assert!(lo < 16 || (hi - lo) < lo / 8, "bucket {i} too wide");
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.99), Some(4));
        assert_eq!(h.quantile(1.0), Some(1 << 20));
        assert_eq!(LogHistogram::new().quantile(0.5), None);
        // A quantile reads its bucket's largest value: 100 shares [96, 103].
        let h = LogHistogram::new();
        for v in [100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(103));
        assert_eq!(h.quantile(0.99), Some(1000));
    }

    #[test]
    fn small_sample_batch_latencies_keep_p50_below_p99() {
        // 14 batch latencies from 2.77 ms to 4.29 ms, 12 of them below
        // 2^22 ns: a log2 core put p50 and p99 on the same bound.
        let ns = [
            2_770_000u64,
            2_810_000,
            2_905_000,
            2_990_000,
            3_050_000,
            3_120_000,
            3_260_000,
            3_410_000,
            3_560_000,
            3_700_000,
            3_880_000,
            4_100_000,
            4_230_000,
            4_290_000,
        ];
        assert_eq!(ns.iter().filter(|&&v| v < 1 << 22).count(), 12);
        let h = LogHistogram::new();
        for v in ns {
            h.record(v);
        }
        let nearest_rank = |q: f64| ns[((q * ns.len() as f64).ceil() as usize).max(1) - 1];
        let (p50, p99) = (h.quantile(0.50).unwrap(), h.quantile(0.99).unwrap());
        assert!(p50 < p99, "p50 {p50} vs p99 {p99}");
        for (got, q) in [(p50, 0.50), (p99, 0.99)] {
            let exact = nearest_rank(q);
            assert!(
                got >= exact && (got - exact) as f64 <= 0.125 * exact as f64,
                "q{q}: {got} vs nearest-rank {exact}"
            );
        }
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
