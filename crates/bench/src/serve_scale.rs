//! Shared plumbing for the serving-scale bench (`bench_serve_scale`) and
//! the soak harness (`soak_serve`): process memory readings from
//! `/proc/self/status`, exact nearest-rank latency quantiles, and a
//! deterministic mixed ingest/retract/query workload generator over a
//! [`ScaleCatalog`]. Both binaries replay the *same* seeded op stream, so
//! a latency regression seen in the bench reproduces in the soak run.

use em_data::ScaleCatalog;
use em_rt::{derive_seed, StdRng};
use em_table::{Schema, Table, Value};

/// Read a numeric `kB` field (e.g. `VmRSS`, `VmHWM`) from
/// `/proc/self/status`. `None` on platforms without procfs — callers must
/// degrade to reporting only the index's own `approx_bytes`.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            if let Some(rest) = rest.strip_prefix(':') {
                return rest.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

/// Resident set size in kiB, if procfs is available.
pub fn rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS")
}

/// Peak resident set size (memory high-water mark) in kiB.
pub fn hwm_kb() -> Option<u64> {
    proc_status_kb("VmHWM")
}

/// Reset the kernel's `VmHWM` high-water mark to the current RSS by
/// writing `5` to `/proc/self/clear_refs`, so successive bench phases can
/// each read their *own* peak. Returns false (and changes nothing) where
/// procfs or the reset knob is unavailable — callers must then treat
/// [`hwm_kb`] as a whole-process peak.
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Return glibc's free heap pages to the kernel (`malloc_trim`). Called
/// before [`reset_hwm`], it makes a window start from what the process
/// holds rather than from what an earlier phase freed and the allocator
/// kept resident (at 1M records, reopening a JSON index snapshot leaves
/// ~275 MiB of that).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases pages of
    // glibc's own free chunks, under glibc's arena locks, so any thread may
    // call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// Optional probe bounds (`--top-k`, `--max-posting`) for the serving
/// demo. Parsed from the CLI so operators can tune the
/// accuracy/latency trade-off without recompiling; apply with
/// [`em_serve::Matcher::set_probe_limits`] and report cumulative effects
/// from [`em_serve::Matcher::probe_totals`] on exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeBounds {
    /// Keep only the `top_k` highest-overlap candidates per query.
    pub top_k: Option<usize>,
    /// Prune query tokens whose document frequency exceeds this.
    pub max_posting: Option<usize>,
}

impl ProbeBounds {
    /// Split `--top-k N` / `--max-posting N` out of an argument list,
    /// returning the bounds and the remaining (positional) arguments.
    /// Aborts with a usage message on a malformed value.
    pub fn extract(args: impl IntoIterator<Item = String>) -> (Self, Vec<String>) {
        let mut bounds = ProbeBounds::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let parse = |flag: &str, v: Option<String>| -> usize {
                v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("{flag} needs a positive integer");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--top-k" => bounds.top_k = Some(parse("--top-k", args.next())),
                "--max-posting" => bounds.max_posting = Some(parse("--max-posting", args.next())),
                _ => rest.push(arg),
            }
        }
        (bounds, rest)
    }

    /// Apply to a matcher (no-op when both bounds are unset).
    pub fn apply(&self, matcher: &mut em_serve::Matcher) {
        if self.top_k.is_some() || self.max_posting.is_some() {
            matcher.set_probe_limits(self.top_k, self.max_posting);
        }
    }

    /// Human-readable summary, e.g. `top_k=64, max_posting=off`.
    pub fn describe(&self) -> String {
        let show = |v: Option<usize>| v.map_or("off".to_string(), |n| n.to_string());
        format!(
            "top_k={}, max_posting={}",
            show(self.top_k),
            show(self.max_posting)
        )
    }
}

/// Print a matcher's cumulative probe (and, store-backed, fetch) effects —
/// the exit-time stats line the serving binaries share.
pub fn print_probe_totals(tag: &str, matcher: &em_serve::Matcher) {
    let p = matcher.probe_totals();
    let f = matcher.fetch_totals();
    let mut line = format!(
        "{tag}: pruned_tokens={}, capped_queries={}, stale_recounts={}",
        p.pruned_tokens, p.capped_queries, p.stale_recounts
    );
    if f.requested > 0 {
        line.push_str(&format!(
            ", rows_fetched={}, cache_hits={}/{}",
            f.rows_read, f.cache_hits, f.requested
        ));
    }
    eprintln!("{line}");
}

/// Exact nearest-rank quantile over an already-sorted sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A single-record query table over the serving schema.
pub fn single_query(value: String) -> Table {
    let mut t = Table::new(Schema::new(["name"]));
    t.push_row(vec![Value::Text(value)]).unwrap();
    t
}

/// One step of the mixed serving workload.
pub enum MixedOp {
    /// Probe the index with one query record.
    Query(Table),
    /// Write a row: fresh content or a restore of the catalog value.
    Upsert { row: usize, value: String },
    /// Retract a row (removing an absent row is a no-op by contract).
    Remove { row: usize },
}

/// The `k`-th op of the deterministic mixed stream for `(cat, seed)`:
/// 60% queries, 20% fresh-content upserts (drawn from the catalog's value
/// function past the end of the catalog, so token statistics stay
/// zipf-shaped), 10% restores of the canonical row value (exercising the
/// dedup/revival path), 10% removals.
pub fn mixed_op(cat: &ScaleCatalog, seed: u64, k: u64) -> MixedOp {
    let records = cat.spec().records;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, k));
    match rng.random_range(0..10u32) {
        0..=5 => MixedOp::Query(single_query(cat.query_value(k as usize))),
        6..=7 => MixedOp::Upsert {
            row: rng.random_range(0..records),
            value: cat.value(records + k as usize),
        },
        8 => {
            let row = rng.random_range(0..records);
            MixedOp::Upsert {
                row,
                value: cat.value(row),
            }
        }
        _ => MixedOp::Remove {
            row: rng.random_range(0..records),
        },
    }
}

/// Tallies from a mixed-workload run. `query_ns` is unsorted arrival
/// order; sort before handing it to [`quantile`].
#[derive(Default)]
pub struct MixedStats {
    pub queries: u64,
    pub upserts: u64,
    pub removals: u64,
    pub candidate_pairs: u64,
    pub query_ns: Vec<u64>,
}

impl MixedStats {
    /// (p50, p99) query latency in nanoseconds; `None` if no queries ran.
    pub fn latency_quantiles(&mut self) -> Option<(u64, u64)> {
        if self.query_ns.is_empty() {
            return None;
        }
        self.query_ns.sort_unstable();
        Some((
            quantile(&self.query_ns, 0.50),
            quantile(&self.query_ns, 0.99),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::CatalogSpec;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&s, 0.50), 51);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn proc_status_parses_when_procfs_present() {
        // On Linux this must parse; elsewhere None is the contract.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss_kb().unwrap() > 0);
            assert!(hwm_kb().unwrap() >= rss_kb().unwrap() / 2);
        }
    }

    #[test]
    fn probe_bounds_extract_flags_and_keep_positionals() {
        let (b, rest) = ProbeBounds::extract(
            ["out.json", "--top-k", "64", "--max-posting", "4096", "x"].map(String::from),
        );
        assert_eq!((b.top_k, b.max_posting), (Some(64), Some(4096)));
        assert_eq!(rest, vec!["out.json".to_string(), "x".to_string()]);
        assert_eq!(b.describe(), "top_k=64, max_posting=4096");

        let (b, rest) = ProbeBounds::extract(Vec::new());
        assert_eq!((b.top_k, b.max_posting), (None, None));
        assert!(rest.is_empty());
        assert_eq!(b.describe(), "top_k=off, max_posting=off");
    }

    #[test]
    fn mixed_stream_is_deterministic_and_mixed() {
        let cat = ScaleCatalog::new(CatalogSpec {
            records: 500,
            seed: 9,
            vocab: 200,
            ..CatalogSpec::default()
        });
        let (mut q, mut u, mut r) = (0, 0, 0);
        for k in 0..400 {
            match mixed_op(&cat, 77, k) {
                MixedOp::Query(t) => {
                    assert_eq!(t.len(), 1);
                    q += 1;
                }
                MixedOp::Upsert { row, value } => {
                    assert!(row < 500 && !value.is_empty());
                    u += 1;
                }
                MixedOp::Remove { row } => {
                    assert!(row < 500);
                    r += 1;
                }
            }
        }
        assert!(q > u && u > r && r > 0, "mix off: q={q} u={u} r={r}");
        // Replaying the stream yields identical ops.
        for k in [0u64, 17, 399] {
            let (a, b) = (mixed_op(&cat, 77, k), mixed_op(&cat, 77, k));
            match (a, b) {
                (MixedOp::Query(x), MixedOp::Query(y)) => assert_eq!(
                    format!("{:?}", x.records().next().unwrap().get(0)),
                    format!("{:?}", y.records().next().unwrap().get(0))
                ),
                (
                    MixedOp::Upsert { row: r1, value: v1 },
                    MixedOp::Upsert { row: r2, value: v2 },
                ) => assert_eq!((r1, v1), (r2, v2)),
                (MixedOp::Remove { row: r1 }, MixedOp::Remove { row: r2 }) => {
                    assert_eq!(r1, r2)
                }
                _ => panic!("op kind drifted between replays"),
            }
        }
    }
}
