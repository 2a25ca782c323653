//! `index_churn`: writes beside reads on one persistent index.
//!
//! Untimed preparation builds a bounded `IncrementalIndex` over a
//! `ScaleCatalog`, snapshots it with `PersistentIndex::create` and logs a
//! WAL tail. Set-up is the recovery (`PersistentIndex::open`: snapshot
//! plus WAL replay). Then one synchronous client runs the seeded
//! `serve_scale::mixed_op` stream — 60% single-record probes, 20% fresh
//! upserts, 10% restores, 10% removals — with writes WAL-logged. The probe
//! and write paths of em-serve do all the work: no featurize, no predict.

use crate::layers::{ratio, timed, Trace, Window, ROOT};
use crate::report::{Metric, Outcome};
use crate::serve::{bounded, token_jaccard, MAX_POSTING, TOP_K};
use crate::stats::{
    begin_peak_window, median_s, median_sorted, median_window_quantile, ns, peak_rss_mib,
    quantile_of, rate_line, window_rates, Digest,
};
use crate::RunDir;
use em_bench::serve_scale::{mixed_op, MixedOp};
use em_data::{CatalogSpec, ScaleCatalog};
use em_serve::{IncrementalIndex, PersistentIndex, ProbeStats};
use em_table::{RecordPair, Table, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Config {
    pub records: usize,
    /// Ops logged to the WAL after the snapshot, replayed by every open.
    pub wal_ops: u64,
    pub setup_reps: usize,
    /// Queries whose candidates must survive close and reopen unchanged.
    pub reopen_queries: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            records: 50_000,
            wal_ops: 1_000,
            setup_reps: 5,
            reopen_queries: 50,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Config {
            records: 2_000,
            wal_ops: 50,
            setup_reps: 1,
            reopen_queries: 10,
        }
    }
}

const REQUIRED_SPANS: [&str; 4] = ["index.open", "probe.query", "index.upsert", "index.remove"];
const CATALOG_SEED: u64 = 4242;
/// A run's op count per second of `--seconds` (about what one core of a
/// 2-core host completes, bookkeeping included, so the loop fills the
/// run's seconds and a slow spell of the host covers few of its
/// windows). The work is fixed rather than
/// time-bounded because probe cost follows the index's stale debt, which
/// follows the op count: a time-bounded loop turns host speed into a
/// different workload and doubled the run-to-run spread of `p50_ms`.
const OPS_PER_SECOND: f64 = 6_000.0;
/// Ops every run makes, however short its seconds, so both probes and
/// writes have samples.
const MIN_OPS: u64 = 200;
/// Consecutive ops per throughput window (`ops_per_s` is the median
/// window's ops per second spent in the index).
const RATE_WINDOW: usize = 1_000;
/// Consecutive probes per latency window: `p50_ms` and `tail_ms` are the
/// median window's p50 and p99, and a window's p99 has 10 probes beyond it.
const QUERY_WINDOW: usize = 1_000;

fn op_budget(seconds: f64) -> u64 {
    ((seconds * OPS_PER_SECOND) as u64).max(MIN_OPS)
}
/// Seed of the WAL tail written before the run (distinct from any op
/// stream a run's seed selects).
const TAIL_SEED: u64 = 0xD15C;

fn catalog(records: usize) -> ScaleCatalog {
    ScaleCatalog::new(CatalogSpec {
        records,
        seed: CATALOG_SEED,
        ..CatalogSpec::default()
    })
}

fn op_seed(seed: u64) -> u64 {
    em_rt::derive_seed(0xC4_0125, seed)
}

/// Build, snapshot and log the WAL tail into `dir`.
fn prepare(cfg: &Config, cat: &ScaleCatalog, dir: &Path) -> Result<(), String> {
    let mut index = IncrementalIndex::with_options("name", bounded());
    for row in 0..cfg.records {
        index.upsert(row, Some(&cat.value(row)));
    }
    let mut p = PersistentIndex::create(dir, index)?;
    for k in 0..cfg.wal_ops {
        match mixed_op(cat, TAIL_SEED, k) {
            MixedOp::Query(_) => {}
            MixedOp::Upsert { row, value } => p.upsert(row, Some(&value))?,
            MixedOp::Remove { row } => p.remove(row)?,
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for name in ["snapshot.json", "wal.log"] {
        std::fs::copy(from.join(name), to.join(name)).map_err(|e| format!("copy {name}: {e}"))?;
    }
    Ok(())
}

/// Recovery through the public entry point; probe bounds are runtime
/// tuning, not on-disk state, so they are applied after every open.
fn open(dir: &Path) -> Result<PersistentIndex, String> {
    let mut p = PersistentIndex::open(dir)?;
    p.index_mut()
        .set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    Ok(p)
}

fn digest_probe(d: &mut Digest, k: u64, pairs: &[RecordPair]) {
    d.word(k);
    d.word(pairs.len() as u64);
    for p in pairs {
        d.word(p.right as u64);
    }
}

fn query_text(q: &Table) -> &str {
    match q.cell(0, 0) {
        Value::Text(s) => s.as_str(),
        _ => "",
    }
}

/// The catalog as the client last wrote it: the generator's value unless
/// a run upserted or removed the row.
struct Truth<'a> {
    cat: &'a ScaleCatalog,
    written: HashMap<usize, Option<String>>,
}

impl Truth<'_> {
    /// Whether any candidate's current value is a near-duplicate (token
    /// Jaccard ≥ 0.5) of the query.
    fn hit(&self, query: &str, pairs: &[RecordPair]) -> bool {
        pairs.iter().any(|p| {
            let value = match self.written.get(&p.right) {
                Some(Some(v)) => std::borrow::Cow::Borrowed(v.as_str()),
                Some(None) => return false,
                None => std::borrow::Cow::Owned(self.cat.value(p.right)),
            };
            token_jaccard(query, &value) >= 0.5
        })
    }
}

/// The timed closed loop through `PersistentIndex`'s public functions.
struct Churned {
    ops: u64,
    failed: u64,
    query_ns: Vec<u64>,
    write_ns: Vec<u64>,
    /// Nanoseconds spent in the index up to the end of each op.
    busy_ns: Vec<u64>,
    hits: u64,
    digest: Digest,
}

fn churn(p: &mut PersistentIndex, cat: &ScaleCatalog, seed: u64, ops: u64) -> Churned {
    let mut c = Churned {
        ops: 0,
        failed: 0,
        query_ns: Vec::new(),
        write_ns: Vec::new(),
        busy_ns: Vec::new(),
        hits: 0,
        digest: Digest::default(),
    };
    let mut busy = 0u64;
    let mut truth = Truth {
        cat,
        written: HashMap::new(),
    };
    for k in 0..ops {
        let op = mixed_op(cat, op_seed(seed), k);
        c.ops += 1;
        let t = Instant::now();
        let took = match op {
            MixedOp::Query(q) => {
                let pairs = p.candidates(&q, 0);
                let took = ns(t.elapsed());
                c.query_ns.push(took);
                digest_probe(&mut c.digest, k, &pairs);
                c.hits += u64::from(truth.hit(query_text(&q), &pairs));
                took
            }
            MixedOp::Upsert { row, value } => {
                let res = p.upsert(row, Some(&value));
                let took = ns(t.elapsed());
                c.write_ns.push(took);
                c.failed += u64::from(res.is_err());
                truth.written.insert(row, Some(value));
                took
            }
            MixedOp::Remove { row } => {
                let res = p.remove(row);
                let took = ns(t.elapsed());
                c.write_ns.push(took);
                c.failed += u64::from(res.is_err());
                truth.written.insert(row, None);
                took
            }
        };
        busy += took;
        c.busy_ns.push(busy);
    }
    c
}

/// Close, reopen and compare: the candidates of `queries` must survive
/// recovery unchanged, and both indexes must pass their invariants.
fn reopen_check(out: &mut Outcome, p: PersistentIndex, dir: &Path, queries: &Table) {
    let want = p.candidates(queries, 0);
    out.check(
        "verify_invariants passes before close",
        p.index().verify_invariants().is_ok(),
    );
    drop(p);
    match open(dir) {
        Ok(r) => {
            out.check(
                "verify_invariants passes after reopen",
                r.index().verify_invariants().is_ok(),
            );
            out.check(
                "candidates after reopen equal candidates before close",
                r.candidates(queries, 0) == want,
            );
        }
        Err(e) => out.check(format!("reopen after the run: {e}"), false),
    }
}

pub fn run(cfg: &Config, seed: u64, seconds: f64, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(false);
    let cat = catalog(cfg.records);
    let dir = run_dir.path("index");
    prepare(cfg, &cat, &dir)?;

    begin_peak_window();
    let mut setups = Vec::new();
    let mut index = None;
    for _ in 0..cfg.setup_reps {
        drop(index.take());
        let (p, secs) = timed(|| open(&dir));
        setups.push(secs);
        index = Some(p?);
    }
    let mut p = index.expect("at least one set-up");
    let started = Instant::now();
    let c = churn(&mut p, &cat, seed, op_budget(seconds));
    println!(
        "op loop: {} ops in {:.1} s",
        c.ops,
        started.elapsed().as_secs_f64()
    );
    let peak = peak_rss_mib();
    out.attempted = c.ops;
    out.failed = c.failed;
    reopen_check(
        &mut out,
        p,
        &dir,
        &cat.queries(7_000_000, cfg.reopen_queries),
    );

    let n = c.query_ns.len();
    let w = c.write_ns.len();
    out.check("the stream both probed and wrote", n > 0 && w > 0);
    if n > 0 && w > 0 {
        println!(
            "writes: p50 {:.1} us, p99 {:.1} us (n={w})",
            quantile_of(&c.write_ns, 0.5) as f64 / 1e3,
            quantile_of(&c.write_ns, 0.99) as f64 / 1e3
        );
    }
    out.push(Metric::with_samples(
        "setup_s",
        median_s(&setups),
        setups.len(),
    ));
    out.push(Metric::new("peak_rss_mib", peak));
    let rates = window_rates(&vec![1; c.busy_ns.len()], &c.busy_ns, RATE_WINDOW);
    println!("{}", rate_line("ops/s in the index", &rates));
    out.push(Metric::with_samples(
        "ops_per_s",
        median_sorted(&rates),
        rates.len(),
    ));
    out.push(Metric::with_samples(
        "p50_ms",
        median_window_quantile(&c.query_ns, QUERY_WINDOW, 0.5) as f64 / 1e6,
        n,
    ));
    out.push(Metric::with_samples(
        "tail_ms",
        median_window_quantile(&c.query_ns, QUERY_WINDOW, 0.99) as f64 / 1e6,
        n,
    ));
    out.push(Metric::with_samples("quality", ratio(c.hits, n as u64), n));
    Ok(out)
}

/// Per-layer tallies of a replay.
struct Replayed {
    digest: Digest,
    queries: u64,
    candidates: u64,
    probe: ProbeStats,
    wal_bytes: u64,
    wal_records: u64,
    stale_debt: u64,
    /// Seconds under the replay root.
    wall_s: f64,
}

/// Recovery plus `n_ops` of the op stream, driven through the index's
/// public functions with a span around each call. Probes go through
/// `candidates_with_stats`, whose candidates `candidates` returns.
fn replay(dir: &Path, cat: &ScaleCatalog, seed: u64, n_ops: u64) -> Result<Replayed, String> {
    let started = Instant::now();
    let root = em_obs::span!(ROOT);
    let mut p = {
        let _s = em_obs::span!("ledger.index.open");
        open(dir)?
    };
    let mut r = Replayed {
        digest: Digest::default(),
        queries: 0,
        candidates: 0,
        probe: ProbeStats::default(),
        wal_bytes: 0,
        wal_records: 0,
        stale_debt: 0,
        wall_s: 0.0,
    };
    for k in 0..n_ops {
        match mixed_op(cat, op_seed(seed), k) {
            MixedOp::Query(q) => {
                let (pairs, stats) = {
                    let _s = em_obs::span!("ledger.probe.query");
                    p.index().candidates_with_stats(&q, 0)
                };
                digest_probe(&mut r.digest, k, &pairs);
                r.queries += 1;
                r.candidates += pairs.len() as u64;
                r.probe.pruned_tokens += stats.pruned_tokens;
                r.probe.capped_queries += stats.capped_queries;
                r.probe.stale_recounts += stats.stale_recounts;
            }
            MixedOp::Upsert { row, value } => {
                let _s = em_obs::span!("ledger.index.upsert");
                p.upsert(row, Some(&value))?;
            }
            MixedOp::Remove { row } => {
                let _s = em_obs::span!("ledger.index.remove");
                p.remove(row)?;
            }
        }
    }
    r.wal_bytes = p.store().log_bytes();
    r.wal_records = p.store().log_records();
    r.stale_debt = p.index().stale_debt();
    drop(root);
    r.wall_s = started.elapsed().as_secs_f64();
    Ok(r)
}

/// The traced run: the entry point untraced, then the same op count
/// replayed untraced (the overhead baseline) and traced, each from its
/// own copy of the prepared index; all three must agree bit for bit.
pub fn traced(cfg: &Config, seed: u64, seconds: f64, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(true);
    let cat = catalog(cfg.records);
    let pristine = run_dir.path("pristine");
    prepare(cfg, &cat, &pristine)?;
    let dirs: Vec<PathBuf> = ["entry", "plain", "traced"]
        .iter()
        .map(|n| run_dir.path(n))
        .collect();
    for d in &dirs {
        copy_dir(&pristine, d)?;
    }
    let mut p = open(&dirs[0])?;
    let c = churn(&mut p, &cat, seed, op_budget(seconds));
    out.attempted = c.ops;
    out.failed = c.failed;
    reopen_check(
        &mut out,
        p,
        &dirs[0],
        &cat.queries(7_000_000, cfg.reopen_queries),
    );

    let plain = replay(&dirs[1], &cat, seed, c.ops)?;
    let window = Window::open(run_dir.path("trace.jsonl"));
    let replayed = replay(&dirs[2], &cat, seed, c.ops);
    let trace = window.close(&REQUIRED_SPANS)?;
    let r = replayed?;
    out.check(
        "untraced replay probes bit-identically to the entry point",
        plain.digest == c.digest,
    );
    out.check(
        "traced replay probes bit-identically to the entry point",
        r.digest == c.digest,
    );
    push_layers(&mut out, &trace, &r, plain.wall_s);
    Ok(out)
}

fn push_layers(out: &mut Outcome, t: &Trace, r: &Replayed, plain_s: f64) {
    for (metric, span) in [
        ("index.open_s", "index.open"),
        ("probe.s", "probe.query"),
        ("index.upsert_s", "index.upsert"),
        ("index.remove_s", "index.remove"),
    ] {
        out.push(Metric::new(metric, t.total_s(span)));
    }
    let q = r.queries.max(1) as f64;
    out.push(Metric::new(
        "probe.candidates_per_query",
        r.candidates as f64 / q,
    ));
    out.push(Metric::new(
        "probe.pruned_tokens",
        r.probe.pruned_tokens as f64 / q,
    ));
    out.push(Metric::new(
        "probe.capped_queries",
        r.probe.capped_queries as f64 / q,
    ));
    out.push(Metric::new(
        "probe.stale_recounts",
        r.probe.stale_recounts as f64 / q,
    ));
    out.push(Metric::new("wal.bytes", r.wal_bytes as f64));
    out.push(Metric::new("wal.records", r.wal_records as f64));
    out.push(Metric::new("index.stale_debt", r.stale_debt as f64));
    t.push_common(out, plain_s);
    out.zero_fill_layers();
}
