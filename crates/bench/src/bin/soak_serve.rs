//! Soak harness for the persistent serving index: run the seeded mixed
//! ingest/retract/query workload against a [`PersistentIndex`] for a wall
//! clock duration, verifying postings invariants every few seconds,
//! snapshotting periodically (so the WAL is exercised across truncations),
//! and watching process RSS for unbounded growth. Exits nonzero on any
//! invariant violation, parity failure, or runaway memory; `scripts/verify.sh
//! --soak` runs this at 100k records for 60 seconds.
//!
//! Flags: `--records N` (default 100000), `--seconds S` (default 60),
//! `--dir PATH` (default a fresh temp dir, removed on success).
//!
//! The soak always runs with a live metrics endpoint — at `EM_METRICS`
//! when set, an ephemeral `127.0.0.1` port otherwise — so a long run can
//! be watched with `curl`. Progress lines come from the windowed registry
//! (10s op rate and query quantiles, live stale debt), and every verify
//! tick also scrapes its own `/healthz`, failing fast if the endpoint
//! stops agreeing that the index is sound.

use em_bench::serve_scale::{mixed_op, quantile, rss_kb, MixedOp, MixedStats};
use em_bench::timing::fmt_ns;
use em_data::{CatalogSpec, ScaleCatalog};
use em_obs::live::Window;
use em_obs::{Counter, Histogram};
use em_serve::{http_get, IncrementalIndex, IndexOptions, MetricsServer, PersistentIndex};
use std::path::PathBuf;
use std::time::Instant;

/// Mixed-workload ops applied (its windows drive live progress).
static SOAK_OPS: Counter = Counter::new("soak.ops");
/// Per-query candidate-probe latency, ns.
static SOAK_QUERY_NS: Histogram = Histogram::new("soak.query_ns");

const VERIFY_EVERY_SECS: f64 = 5.0;
const SNAPSHOT_EVERY_SECS: f64 = 15.0;
/// RSS is sampled once the run is 20% through (allocator + index warm),
/// and the final RSS must stay within this factor of that mark plus a
/// fixed slack — catching leaks without tripping on allocator retention.
const RSS_GROWTH_FACTOR: f64 = 1.25;
const RSS_SLACK_KB: u64 = 64 * 1024;

fn fail(msg: &str) -> ! {
    eprintln!("soak: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut records = 100_000usize;
    let mut seconds = 60.0f64;
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--records" => records = value().parse().expect("--records: bad count"),
            "--seconds" => seconds = value().parse().expect("--seconds: bad duration"),
            "--dir" => dir = Some(PathBuf::from(value())),
            _ => {
                eprintln!("unknown flag {flag}; known: --records N --seconds S --dir PATH");
                std::process::exit(2);
            }
        }
    }
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let dir =
        dir.unwrap_or_else(|| std::env::temp_dir().join(format!("em-soak-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir);
    let server = match MetricsServer::start_from_env().expect("EM_METRICS endpoint") {
        Some(s) => s,
        None => MetricsServer::start("127.0.0.1:0").expect("bind ephemeral metrics port"),
    };
    eprintln!(
        "soak: {records} records, {seconds}s, threads = {}, store = {}, \
         metrics = http://{}/metrics",
        em_rt::threads(),
        dir.display(),
        server.addr()
    );

    let cat = ScaleCatalog::new(CatalogSpec {
        records,
        seed: 4242,
        ..CatalogSpec::default()
    });
    let mut index = IncrementalIndex::with_options(
        "name",
        IndexOptions {
            min_overlap: 2,
            top_k: Some(64),
            max_posting: Some(4096),
            ..IndexOptions::default()
        },
    );
    let t0 = Instant::now();
    for row in 0..records {
        index.upsert(row, Some(&cat.value(row)));
    }
    eprintln!(
        "soak: built in {}",
        fmt_ns(t0.elapsed().as_secs_f64() * 1e9)
    );
    let mut p = PersistentIndex::create(&dir, index).expect("create store");

    let start = Instant::now();
    let mut stats = MixedStats::default();
    let mut k = 0u64;
    let mut next_verify = VERIFY_EVERY_SECS;
    let mut next_snapshot = SNAPSHOT_EVERY_SECS;
    let mut warmup_rss: Option<u64> = None;
    let mut snapshots = 0u64;
    let mut verifies = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        match mixed_op(&cat, 0x50A4, k) {
            MixedOp::Query(q) => {
                let t = Instant::now();
                let pairs = p.candidates(&q, 0);
                let ns = t.elapsed().as_nanos() as u64;
                SOAK_QUERY_NS.record(ns);
                stats.query_ns.push(ns);
                stats.candidate_pairs += pairs.len() as u64;
                stats.queries += 1;
            }
            MixedOp::Upsert { row, value } => {
                p.upsert(row, Some(&value))
                    .unwrap_or_else(|e| fail(&format!("upsert: {e}")));
                stats.upserts += 1;
            }
            MixedOp::Remove { row } => {
                p.remove(row)
                    .unwrap_or_else(|e| fail(&format!("remove: {e}")));
                stats.removals += 1;
            }
        }
        k += 1;
        SOAK_OPS.incr();
        let elapsed = start.elapsed().as_secs_f64();
        if warmup_rss.is_none() && elapsed >= seconds * 0.2 {
            warmup_rss = rss_kb();
        }
        if elapsed >= next_verify {
            next_verify += VERIFY_EVERY_SECS;
            verifies += 1;
            if let Err(e) = p.verify_and_report() {
                fail(&format!("invariant violation after {k} ops: {e}"));
            }
            // The endpoint must agree: a 503 here means the health registry
            // (or the endpoint itself) is broken, not just the index.
            match http_get(server.addr(), "/healthz") {
                Ok((200, _)) => {}
                Ok((code, body)) => fail(&format!("/healthz returned {code}:\n{body}")),
                Err(e) => fail(&format!("/healthz scrape failed: {e}")),
            }
            // Progress from the windowed registry, like a scrape would see.
            let ops = SOAK_OPS.stats(Window::TenSec);
            let q = SOAK_QUERY_NS.stats(Window::TenSec);
            eprintln!(
                "soak: t={elapsed:.0}s ops/s={:.0} query p50={} p99={} stale_debt={}",
                ops.rate_per_sec,
                fmt_ns(q.p50.unwrap_or(0) as f64),
                fmt_ns(q.p99.unwrap_or(0) as f64),
                p.index().stale_debt(),
            );
        }
        if elapsed >= next_snapshot {
            next_snapshot += SNAPSHOT_EVERY_SECS;
            snapshots += 1;
            p.snapshot()
                .unwrap_or_else(|e| fail(&format!("snapshot: {e}")));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Final invariants + recovery parity: reopen from disk and demand the
    // recovered index answer a fresh query batch bit-identically.
    if let Err(e) = p.verify_and_report() {
        fail(&format!("final invariant violation: {e}"));
    }
    let queries = cat.queries(9_000_000, 50);
    let want = p.candidates(&queries, 0);
    let live = p.index().len();
    drop(p);
    let mut reopened =
        PersistentIndex::open(&dir).unwrap_or_else(|e| fail(&format!("reopen: {e}")));
    // Probe bounds are serving config, not on-disk state: re-apply them so
    // the recovered index answers under the same limits it ran with.
    reopened.index_mut().set_probe_limits(Some(64), Some(4096));
    if let Err(e) = reopened.index().verify_invariants() {
        fail(&format!("recovered invariant violation: {e}"));
    }
    if reopened.candidates(&queries, 0) != want {
        fail("recovered index diverged from pre-shutdown state");
    }
    if reopened.index().len() != live {
        fail("recovered live-row count drifted");
    }

    // Memory: the post-warmup RSS must not keep climbing.
    let end_rss = rss_kb();
    if let (Some(warm), Some(end)) = (warmup_rss, end_rss) {
        let limit = (warm as f64 * RSS_GROWTH_FACTOR) as u64 + RSS_SLACK_KB;
        if end > limit {
            fail(&format!(
                "rss grew from {warm} kB at warmup to {end} kB (limit {limit} kB)"
            ));
        }
        eprintln!("soak: rss warmup {warm} kB -> end {end} kB (limit {limit} kB)");
    }

    stats.query_ns.sort_unstable();
    let (p50, p99) = if stats.query_ns.is_empty() {
        (0, 0)
    } else {
        (
            quantile(&stats.query_ns, 0.5),
            quantile(&stats.query_ns, 0.99),
        )
    };
    eprintln!(
        "soak: OK — {k} ops in {elapsed:.1}s ({:.0} ops/s): {} queries (p50 {}, p99 {}), \
         {} upserts, {} removals, {} pairs, {verifies} verifies, {snapshots} snapshots",
        k as f64 / elapsed,
        stats.queries,
        fmt_ns(p50 as f64),
        fmt_ns(p99 as f64),
        stats.upserts,
        stats.removals,
        stats.candidate_pairs,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
