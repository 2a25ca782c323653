//! Exact sample statistics, output digests and process memory.
//!
//! Every percentile the ledger prints comes from its own exact samples
//! (nearest rank, as `em_bench::serve_scale::quantile`), never from the
//! log2-bucket histograms in em-obs or em-rt.

pub use em_bench::serve_scale::quantile;
use std::time::Duration;

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile of an unsorted sample, in nanoseconds.
pub fn quantile_of(samples: &[u64], q: f64) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    quantile(&s, q)
}

/// Nearest-rank median of an unsorted sample of seconds.
pub fn median_s(samples: &[f64]) -> f64 {
    let ns: Vec<u64> = samples.iter().map(|s| (s * 1e9).round() as u64).collect();
    quantile_of(&ns, 0.5) as f64 / 1e9
}

/// Nearest-rank median of an ascending, non-empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    sorted[(sorted.len() - 1) / 2]
}

/// Throughput over consecutive windows of `window` samples, ascending,
/// where sample `i` finished `work[i]` units at `at_ns[i]` (nanoseconds
/// from the timed start, ascending). Reported as their median, so a short
/// burst of host contention moves a window, not the run's figure. A
/// partial last window is dropped; a run shorter than one window gives
/// its whole-run rate.
pub fn window_rates(work: &[u64], at_ns: &[u64], window: usize) -> Vec<f64> {
    let rate = |units: u64, span_ns: u64| units as f64 * 1e9 / span_ns.max(1) as f64;
    let full = work.len().min(at_ns.len()) / window;
    if full == 0 {
        return vec![rate(work.iter().sum(), at_ns.last().copied().unwrap_or(0))];
    }
    let mut from = 0u64;
    let mut rates: Vec<f64> = (0..full)
        .map(|w| {
            let end = at_ns[(w + 1) * window - 1];
            let units = work[w * window..(w + 1) * window].iter().sum();
            let r = rate(units, end.saturating_sub(from));
            from = end;
            r
        })
        .collect();
    rates.sort_unstable_by(f64::total_cmp);
    rates
}

/// One summary line for a set of per-window rates (ascending).
pub fn rate_line(what: &str, rates: &[f64]) -> String {
    let at = |q: f64| rates[((rates.len() - 1) as f64 * q).round() as usize];
    format!(
        "{what} per window: p10 {:.0}, p50 {:.0}, p90 {:.0} (n={})",
        at(0.1),
        median_sorted(rates),
        at(0.9),
        rates.len()
    )
}

/// Median over consecutive windows of `window` samples of each window's
/// nearest-rank `q` quantile, so a slow spell of the host shifts a few
/// windows rather than the run's percentile. A sample shorter than one
/// window gives its own quantile.
pub fn median_window_quantile(samples: &[u64], window: usize, q: f64) -> u64 {
    let mut per: Vec<u64> = samples
        .chunks_exact(window)
        .map(|w| quantile_of(w, q))
        .collect();
    if per.is_empty() {
        return quantile_of(samples, q);
    }
    per.sort_unstable();
    per[(per.len() - 1) / 2]
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive digest of outputs
/// (pairs, score bits, decisions) for bit-identity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Start a fresh peak-memory window (resets `VmHWM` where procfs allows;
/// otherwise the peak stays whole-process).
pub fn begin_peak_window() {
    em_bench::serve_scale::reset_hwm();
}

/// Peak resident set of the current window, in MiB.
pub fn peak_rss_mib() -> f64 {
    em_bench::serve_scale::hwm_kb().unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles_are_exact_nearest_rank() {
        assert_eq!(median_s(&[3.0, 1.0, 2.0]), 2.0);
        let v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(quantile_of(&v, 0.95), 190);
        assert_eq!(quantile_of(&v, 0.5), 101);
    }

    #[test]
    fn window_rates_drop_the_partial_tail_and_the_median_ignores_a_burst() {
        // Windows of 2 samples finishing 10 units each: 1 s, 1 s, 10 s, 1 s.
        let at: Vec<u64> = [0.5, 1.0, 1.5, 2.0, 7.0, 12.0, 12.5, 13.0, 13.2]
            .iter()
            .map(|s| (s * 1e9) as u64)
            .collect();
        let work = vec![5u64; at.len()];
        let rates = window_rates(&work, &at, 2);
        assert_eq!(rates, [1.0, 10.0, 10.0, 10.0]);
        assert_eq!(median_sorted(&rates), 10.0);
        assert_eq!(window_rates(&work[..1], &at[..1], 2), [10.0]);
    }

    #[test]
    fn median_window_quantile_ignores_one_slow_window() {
        let v = [1, 2, 3, 90, 95, 99, 4, 5, 6];
        assert_eq!(median_window_quantile(&v, 3, 1.0), 6);
        assert_eq!(median_window_quantile(&v[..2], 3, 1.0), 2);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}
