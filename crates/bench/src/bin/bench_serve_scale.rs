//! Serving-index scale benchmark: build [`ScaleCatalog`] catalogs of
//! 10k → 1M records into the compact sharded [`IncrementalIndex`], run a
//! seeded mixed ingest/retract/query workload, and record build rate,
//! p50/p99 query latency, and memory (index `approx_bytes` plus process
//! VmRSS/VmHWM) per size into the `"scale"` key of `BENCH_serve.json`
//! (other keys in the file are preserved).
//!
//! Each size then runs a *scored-matches* section end to end: the catalog
//! streams chunk-at-a-time into a row-addressable [`CatalogStore`] plus a
//! bounded index (never materializing a `Table`), both are reopened from
//! disk, a trained artifact is served over them with `match_stream`, and
//! the peak RSS of that phase is compared against the in-memory baseline
//! (full catalog `Table` + in-memory index, gathering candidate rows out of
//! the table) running the same stream — which must also produce
//! bit-identical output.
//!
//! Correctness anchors, checked on every run at the sizes where the exact
//! probe is tractable:
//! - the default-span sharded index answers bit-identically to a
//!   single-shard (flat) index over a sampled query batch;
//! - bounded probes (`top_k` + `max_posting`) return per-query subsets.
//!
//! And at every size:
//! - a snapshot + replay-log round trip reproduces the exact candidates;
//! - store-backed streamed output, served over the reopened store and
//!   index, matches the in-memory path bit for bit, including across a
//!   thread-count flip.
//!
//! Flags: `--out PATH` (default `BENCH_serve.json`), `--sizes a,b,c`
//! (default `10000,100000,1000000`), `--ops N` mixed ops per size
//! (default `10000`). Thread count: `EM_THREADS`, else 4.

use automl_em::{EmPipelineConfig, FeatureGenerator, FeatureScheme};
use em_bench::serve_scale::{
    hwm_kb, mixed_op, quantile, release_free_heap, reset_hwm, rss_kb, MixedOp, MixedStats,
};
use em_bench::timing::fmt_ns;
use em_data::{CatalogSpec, ScaleCatalog};
use em_rt::Json;
use em_serve::{
    BatchOutput, CatalogStore, IncrementalIndex, IndexOptions, Matcher, ModelArtifact,
    PersistentIndex, StreamOptions,
};
use em_table::{Table, Value};
use std::time::Instant;

/// Probe bounds for the "pruned" runs: generous enough to keep recall
/// useful, tight enough to bound per-query work at 1M records.
const TOP_K: usize = 64;
const MAX_POSTING: usize = 4096;
/// Exact (unbounded) probes and flat-vs-sharded parity are only tractable
/// below this size; beyond it the head zipf tokens make exact candidate
/// sets quadratic-ish and the bench runs bounded probes only.
const EXACT_LIMIT: usize = 100_000;
const PARITY_QUERIES: usize = 200;
const WORKLOAD_SEED: u64 = 0xBE7C_5CA1;
/// Scored-matches stream: how many queries, in what batch size, and how
/// many rows per chunk when streaming the catalog into the store.
const STREAM_QUERIES: usize = 1024;
const STREAM_BATCH: usize = 32;
const STORE_CHUNK: usize = 8192;

fn catalog(records: usize) -> ScaleCatalog {
    ScaleCatalog::new(CatalogSpec {
        records,
        seed: 4242,
        ..CatalogSpec::default()
    })
}

fn options(shard_span: usize, bounded: bool) -> IndexOptions {
    IndexOptions {
        min_overlap: 2,
        shard_span,
        top_k: bounded.then_some(TOP_K),
        max_posting: bounded.then_some(MAX_POSTING),
    }
}

/// Stream the catalog into a fresh index row by row — the serving ingest
/// path, never materializing a Table — returning (index, build seconds).
fn build_streaming(cat: &ScaleCatalog, opts: IndexOptions) -> (IncrementalIndex, f64) {
    let mut index = IncrementalIndex::with_options("name", opts);
    let t0 = Instant::now();
    for row in 0..cat.spec().records {
        index.upsert(row, Some(&cat.value(row)));
    }
    (index, t0.elapsed().as_secs_f64())
}

/// Run `ops` steps of the seeded mixed workload against `index`.
fn run_mixed(index: &mut IncrementalIndex, cat: &ScaleCatalog, ops: u64) -> MixedStats {
    let mut stats = MixedStats::default();
    for k in 0..ops {
        match mixed_op(cat, WORKLOAD_SEED, k) {
            MixedOp::Query(q) => {
                let t0 = Instant::now();
                let pairs = index.candidates(&q, 0);
                stats.query_ns.push(t0.elapsed().as_nanos() as u64);
                stats.candidate_pairs += pairs.len() as u64;
                stats.queries += 1;
            }
            MixedOp::Upsert { row, value } => {
                index.upsert(row, Some(&value));
                stats.upserts += 1;
            }
            MixedOp::Remove { row } => {
                index.remove(row);
                stats.removals += 1;
            }
        }
    }
    stats
}

/// Flat-vs-sharded parity plus bounded-subset checks over a sampled query
/// batch; returns the exact candidate-pair count for the report.
fn parity_checks(cat: &ScaleCatalog, sharded: &IncrementalIndex) -> usize {
    let queries = cat.queries(0, PARITY_QUERIES);
    let (flat, _) = build_streaming(cat, options(usize::MAX >> 1, false));
    let exact = flat.candidates(&queries, 0);
    assert_eq!(
        sharded.candidates(&queries, 0),
        exact,
        "sharded probe diverged from flat exact probe"
    );
    assert_eq!(
        sharded.candidates(&queries, 1),
        exact,
        "serial sharded probe diverged"
    );
    // Bounded probes: per-query subsets of the exact set, capped at TOP_K.
    let mut bounded_index = build_streaming(cat, options(usize::MAX >> 1, true)).0;
    let bounded = bounded_index.candidates(&queries, 0);
    let mut per_q = vec![0usize; PARITY_QUERIES];
    for p in &bounded {
        per_q[p.left] += 1;
        assert!(exact.contains(p), "bounded pair {p:?} not in exact set");
    }
    assert!(per_q.iter().all(|&c| c <= TOP_K), "top_k cap exceeded");
    // And switching bounds off restores the exact answer bit-for-bit.
    bounded_index.set_probe_limits(None, None);
    assert_eq!(bounded_index.candidates(&queries, 0), exact);
    exact.len()
}

/// Snapshot + replay round trip: persist the index, log a short op tail,
/// reopen, and demand bit-identical candidates. Returns recovery seconds.
fn persistence_check(cat: &ScaleCatalog, index: IncrementalIndex) -> f64 {
    let dir = std::env::temp_dir().join(format!("em-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut p = PersistentIndex::create(&dir, index).expect("create store");
    for k in 0..1_000u64 {
        match mixed_op(cat, WORKLOAD_SEED ^ 0xD15C, k) {
            MixedOp::Query(_) => {}
            MixedOp::Upsert { row, value } => p.upsert(row, Some(&value)).expect("log upsert"),
            MixedOp::Remove { row } => p.remove(row).expect("log remove"),
        }
    }
    let queries = cat.queries(5_000, 50);
    let want = p.candidates(&queries, 0);
    drop(p);
    let t0 = Instant::now();
    let mut reopened = PersistentIndex::open(&dir).expect("recovery");
    let secs = t0.elapsed().as_secs_f64();
    // Probe bounds are a serving-config knob, not on-disk state: re-apply
    // the ones the pre-shutdown index was probing with.
    reopened
        .index_mut()
        .set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    reopened.index().verify_invariants().expect("invariants");
    assert_eq!(
        reopened.candidates(&queries, 0),
        want,
        "recovered index diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

/// Jaccard similarity over whitespace token sets — the heuristic labeler
/// for the scored-path training set.
fn token_jaccard(a: &str, b: &str) -> f64 {
    let sa: std::collections::HashSet<&str> = a.split_whitespace().collect();
    let sb: std::collections::HashSet<&str> = b.split_whitespace().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    inter as f64 / (sa.len() + sb.len() - inter) as f64
}

/// Train the scored-path artifact once: a small random forest over a 2k
/// sample of the same catalog family (the value function is pure in
/// `(seed, row)`, so the sample matches every size's head), with blocked
/// candidate pairs labeled by token-set Jaccard — the scale workload's
/// notion of a duplicate, no hand labels needed. One model serves every
/// catalog size, the way a deployment would.
fn train_artifact(path: &str) {
    let cat = catalog(2_000);
    let tb = cat.table();
    // Query sample offset past the streamed-workload queries so the serve
    // phases never replay the training stream. Bounded probes keep the
    // training pair set at top_k per query — the same candidate shape the
    // serving path scores.
    let ta = cat.queries(1_000_000, 400);
    let (index, _) = build_streaming(&cat, options(em_serve::DEFAULT_SHARD_SPAN, true));
    let pairs = index.candidates(&ta, 0);
    fn text(t: &Table, row: usize) -> &str {
        match t.cell(row, 0) {
            Value::Text(s) => s.as_str(),
            _ => unreachable!("scale catalog cells are text"),
        }
    }
    let jac: Vec<f64> = pairs
        .iter()
        .map(|p| token_jaccard(text(&ta, p.left), text(&tb, p.right)))
        .collect();
    let mut y: Vec<usize> = jac.iter().map(|&j| usize::from(j >= 0.5)).collect();
    let pos: usize = y.iter().sum();
    if pos == 0 || pos == y.len() {
        // Degenerate threshold (does not happen with the zipf catalogs,
        // but a one-class fit would be useless): label the top half.
        let mut order: Vec<usize> = (0..jac.len()).collect();
        order.sort_by(|&a, &b| jac[b].partial_cmp(&jac[a]).unwrap());
        y = vec![0; jac.len()];
        for &i in order.iter().take(jac.len() / 2) {
            y[i] = 1;
        }
    }
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ta, &tb);
    let x = g.generate(&ta, &tb, &pairs);
    let fitted = EmPipelineConfig::default_random_forest(7).fit(&x, &y);
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ta, &tb, fitted)
        .save(path)
        .expect("save scored-path artifact");
}

fn batches_of(t: &Table, size: usize) -> Vec<Table> {
    (0..t.len())
        .step_by(size)
        .map(|lo| t.slice_rows(lo..(lo + size).min(t.len())))
        .collect()
}

/// One full `match_stream` pass over `batches`; returns (seconds, ordered
/// batch outputs).
fn stream_batches(matcher: &mut Matcher, batches: &[Table]) -> (f64, Vec<BatchOutput>) {
    let (query_tx, query_rx) = em_rt::channel::<Table>();
    let (result_tx, result_rx) = em_rt::channel::<BatchOutput>();
    for b in batches {
        query_tx.send(b.clone()).expect("stream open");
    }
    query_tx.close();
    let t0 = Instant::now();
    matcher.match_stream(query_rx, result_tx, StreamOptions::default());
    let secs = t0.elapsed().as_secs_f64();
    (secs, std::iter::from_fn(|| result_rx.recv()).collect())
}

/// Demand bit-identical streamed outputs (pair, score bits, decision).
fn assert_identical(tag: &str, a: &[BatchOutput], b: &[BatchOutput]) {
    assert_eq!(a.len(), b.len(), "{tag}: batch count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.matches.len(),
            y.matches.len(),
            "{tag}: match count diverged"
        );
        for (m, n) in x.matches.iter().zip(&y.matches) {
            assert!(
                m.pair == n.pair
                    && m.score.to_bits() == n.score.to_bits()
                    && m.is_match == n.is_match,
                "{tag}: scored output diverged at {:?}",
                m.pair
            );
        }
    }
}

/// The scored-matches section for one size: stream the catalog into a
/// [`CatalogStore`] + bounded index (O(chunk) memory, no full `Table`),
/// snapshot and reopen both, serve a trained artifact over them with
/// `match_stream` + `match_batch`, then run the same stream through the
/// in-memory path and demand bit-identical output with a strictly lower
/// store-side peak RSS (asserted at sizes where the gap clears procfs
/// noise).
fn scored_row(cat: &ScaleCatalog, artifact_path: &str, records: usize) -> Json {
    let base = std::env::temp_dir().join(format!(
        "em-bench-scale-store-{}-{records}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);

    // Build store + bounded index chunk at a time straight off the value
    // function — the ingest path a million-record deployment would run.
    let t0 = Instant::now();
    let mut store = CatalogStore::create(base.join("catalog"), cat.schema()).expect("create store");
    let mut index =
        IncrementalIndex::with_options("name", options(em_serve::DEFAULT_SHARD_SPAN, true));
    cat.for_each_chunk(STORE_CHUNK, |first, rows| -> Result<(), String> {
        for (i, row) in rows.iter().enumerate() {
            match &row[0] {
                Value::Text(s) => index.upsert(first + i, Some(s)),
                _ => unreachable!("scale catalog rows are text"),
            }
            store.append_row(row)?;
        }
        store.commit()
    })
    .expect("stream catalog into store");
    let store_build_secs = t0.elapsed().as_secs_f64();
    let dat_bytes = store.dat_bytes();
    eprintln!(
        "scored: store build {} ({:.0} rows/s), records.dat {:.1} MiB",
        fmt_ns(store_build_secs * 1e9),
        records as f64 / store_build_secs,
        dat_bytes as f64 / (1 << 20) as f64,
    );

    // Cold restart before serving: snapshot the index, then reopen the
    // store and the index from disk.
    drop(store);
    drop(PersistentIndex::create(base.join("index"), index).expect("snapshot index"));
    let artifact = ModelArtifact::load(artifact_path).expect("load artifact");
    let t0 = Instant::now();
    let store = CatalogStore::open(base.join("catalog")).expect("reopen store");
    let index = PersistentIndex::open(base.join("index")).expect("reopen index");
    let mut matcher =
        Matcher::with_store(artifact, store, index).expect("assemble store-backed matcher");
    let reopen_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "scored: store + index reopened in {}",
        fmt_ns(reopen_secs * 1e9)
    );
    // Probe bounds are runtime tuning, not on-disk state: re-apply after
    // the snapshot round trip.
    matcher.set_probe_limits(Some(TOP_K), Some(MAX_POSTING));

    // Store-backed phase, with its own HWM window: one pipelined stream
    // for throughput, then per-batch one-shot calls for latency quantiles.
    let queries = cat.queries(0, STREAM_QUERIES);
    let batches = batches_of(&queries, STREAM_BATCH);
    release_free_heap();
    let hwm_windows = reset_hwm();
    let (stream_secs, store_out) = stream_batches(&mut matcher, &batches);
    let mut lat: Vec<u64> = batches
        .iter()
        .map(|b| {
            let t = Instant::now();
            let _ = matcher.match_batch(b);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    lat.sort_unstable();
    let (p50, p99) = (quantile(&lat, 0.50), quantile(&lat, 0.99));
    let prev_threads = em_rt::threads();
    em_rt::set_threads(1);
    let (_, one) = stream_batches(&mut matcher, &batches);
    assert_identical("store-backed stream, 1 thread vs default", &store_out, &one);
    em_rt::set_threads(prev_threads);
    let store_hwm = hwm_kb().unwrap_or(0);
    let fetch = matcher.fetch_totals();
    let cached = matcher.catalog_store().map_or(0, CatalogStore::cached_rows);
    let pairs: usize = store_out.iter().map(|o| o.matches.len()).sum();
    let matches: usize = store_out
        .iter()
        .flat_map(|o| &o.matches)
        .filter(|m| m.is_match)
        .count();
    eprintln!(
        "scored: stream {STREAM_QUERIES} queries in {} ({:.0} pairs/s, {pairs} pairs, \
         {matches} matches), batch p50 {} p99 {}, fetched {} rows ({} cache hits / {} requested)",
        fmt_ns(stream_secs * 1e9),
        pairs as f64 / stream_secs,
        fmt_ns(p50 as f64),
        fmt_ns(p99 as f64),
        fetch.rows_read,
        fetch.cache_hits,
        fetch.requested,
    );

    // In-memory baseline in its own HWM window: the full catalog Table and
    // an in-memory index, candidate rows gathered out of the table. Same
    // stream, so output parity is asserted on the way.
    drop(matcher);
    let artifact = ModelArtifact::load(artifact_path).expect("reload artifact");
    release_free_heap();
    let _ = reset_hwm();
    let t0 = Instant::now();
    let mut in_memory =
        Matcher::new(artifact, cat.table(), "name", 2).expect("assemble in-memory matcher");
    in_memory.set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    let baseline_build_secs = t0.elapsed().as_secs_f64();
    let (baseline_secs, mem_out) = stream_batches(&mut in_memory, &batches);
    assert_identical("store-backed vs in-memory stream", &store_out, &mem_out);
    em_rt::set_threads(1);
    let (_, one) = stream_batches(&mut in_memory, &batches);
    assert_identical(
        "in-memory stream, 1 thread vs store-backed",
        &store_out,
        &one,
    );
    em_rt::set_threads(prev_threads);
    let baseline_hwm = hwm_kb().unwrap_or(0);
    drop(in_memory);
    eprintln!(
        "scored: store-backed peak {:.1} MiB vs in-memory baseline {:.1} MiB \
         (bit-identical output, thread flip checked)",
        store_hwm as f64 / 1024.0,
        baseline_hwm as f64 / 1024.0,
    );
    if hwm_windows && records >= EXACT_LIMIT {
        assert!(
            store_hwm < baseline_hwm,
            "store-backed peak RSS {store_hwm} kiB not below the in-memory \
             baseline {baseline_hwm} kiB"
        );
    }
    let _ = std::fs::remove_dir_all(&base);

    let fields = vec![
        ("store_build_secs", Json::from(store_build_secs)),
        (
            "store_rows_per_sec",
            Json::from(records as f64 / store_build_secs),
        ),
        ("records_dat_bytes", Json::from(dat_bytes)),
        ("reopen_secs", Json::from(reopen_secs)),
        ("stream_queries", Json::from(STREAM_QUERIES)),
        ("stream_batch", Json::from(STREAM_BATCH)),
        ("stream_secs", Json::from(stream_secs)),
        ("stream_pairs", Json::from(pairs)),
        ("stream_matches", Json::from(matches)),
        ("pairs_per_sec", Json::from(pairs as f64 / stream_secs)),
        ("batch_p50_ns", Json::from(p50)),
        ("batch_p99_ns", Json::from(p99)),
        ("rows_fetched", Json::from(fetch.rows_read)),
        ("cache_hits", Json::from(fetch.cache_hits)),
        ("rows_requested", Json::from(fetch.requested)),
        ("hot_rows_cached", Json::from(cached)),
        ("store_vm_hwm_kb", Json::from(store_hwm)),
        ("baseline_vm_hwm_kb", Json::from(baseline_hwm)),
        ("baseline_build_secs", Json::from(baseline_build_secs)),
        ("baseline_stream_secs", Json::from(baseline_secs)),
    ];
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn size_row(records: usize, ops: u64, artifact_path: &str) -> Json {
    eprintln!("-- {records} records --");
    let cat = catalog(records);
    let rss0 = rss_kb().unwrap_or(0);
    // Built unbounded so parity can compare exact probes, then converted
    // to bounded probes for the mixed workload (probe limits are a probe-
    // time knob, not an encoding decision).
    let (mut index, build_secs) =
        build_streaming(&cat, options(em_serve::DEFAULT_SHARD_SPAN, false));
    let rss_built = rss_kb().unwrap_or(0);
    let index_bytes = index.approx_bytes();
    eprintln!(
        "build: {} ({:.0} rows/s), index {:.1} MiB, rss {:.1} MiB (+{:.1})",
        fmt_ns(build_secs * 1e9),
        records as f64 / build_secs,
        index_bytes as f64 / (1 << 20) as f64,
        rss_built as f64 / 1024.0,
        (rss_built.saturating_sub(rss0)) as f64 / 1024.0,
    );

    let exact_pairs = if records <= EXACT_LIMIT {
        let n = parity_checks(&cat, &index);
        eprintln!("parity: sharded == flat over {PARITY_QUERIES} queries ({n} exact pairs)");
        Some(n)
    } else {
        eprintln!("parity: skipped (exact probe intractable past {EXACT_LIMIT} records)");
        None
    };

    index.set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    let t0 = Instant::now();
    let mut stats = run_mixed(&mut index, &cat, ops);
    let mixed_secs = t0.elapsed().as_secs_f64();
    index
        .verify_invariants()
        .expect("invariants after mixed workload");
    let (p50, p99) = stats.latency_quantiles().expect("workload ran queries");
    eprintln!(
        "mixed {ops} ops in {}: {} queries (p50 {}, p99 {}), {} upserts, {} removals, {} pairs",
        fmt_ns(mixed_secs * 1e9),
        stats.queries,
        fmt_ns(p50 as f64),
        fmt_ns(p99 as f64),
        stats.upserts,
        stats.removals,
        stats.candidate_pairs,
    );

    // Consumes the index, so the scored section's peak-RSS windows below
    // measure only the copy it builds.
    let recovery_secs = persistence_check(&cat, index);
    eprintln!(
        "persistence: snapshot + 1000-op replay recovered in {}",
        fmt_ns(recovery_secs * 1e9)
    );

    let rss_end = rss_kb().unwrap_or(0);
    let hwm = hwm_kb().unwrap_or(0);
    eprintln!(
        "memory: rss {:.1} MiB, high-water {:.1} MiB",
        rss_end as f64 / 1024.0,
        hwm as f64 / 1024.0
    );
    let mut fields = vec![
        ("records", Json::from(records)),
        ("build_secs", Json::from(build_secs)),
        (
            "build_rows_per_sec",
            Json::from(records as f64 / build_secs),
        ),
        ("index_bytes", Json::from(index_bytes)),
        ("rss_after_build_kb", Json::from(rss_built)),
        ("rss_end_kb", Json::from(rss_end)),
        ("vm_hwm_kb", Json::from(hwm)),
        ("mixed_ops", Json::from(ops)),
        ("mixed_secs", Json::from(mixed_secs)),
        ("queries", Json::from(stats.queries)),
        ("query_p50_ns", Json::from(p50)),
        ("query_p99_ns", Json::from(p99)),
        ("candidate_pairs", Json::from(stats.candidate_pairs)),
        ("recovery_secs", Json::from(recovery_secs)),
    ];
    if let Some(n) = exact_pairs {
        fields.push(("parity_exact_pairs", Json::from(n)));
    }
    fields.push(("scored", scored_row(&cat, artifact_path, records)));
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut sizes = vec![10_000usize, 100_000, 1_000_000];
    let mut ops = 10_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--out" => out_path = value(),
            "--sizes" => {
                sizes = value()
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes: bad size"))
                    .collect()
            }
            "--ops" => ops = value().parse().expect("--ops: bad count"),
            _ => {
                eprintln!("unknown flag {flag}; known: --out PATH --sizes a,b,c --ops N");
                std::process::exit(2);
            }
        }
    }
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    let threads = em_rt::threads();
    eprintln!("threads = {threads}, sizes = {sizes:?}, mixed ops = {ops}");

    // One artifact serves every size (the scored sections below reload it
    // per matcher, the way separate serving processes would).
    let artifact_path = std::env::temp_dir()
        .join(format!(
            "em-bench-scale-artifact-{}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let t0 = Instant::now();
    train_artifact(&artifact_path);
    eprintln!(
        "trained scored-path artifact in {} -> {artifact_path}",
        fmt_ns(t0.elapsed().as_nanos() as f64)
    );

    let rows: Vec<Json> = sizes
        .iter()
        .map(|&n| size_row(n, ops, &artifact_path))
        .collect();
    let scale = Json::obj([
        ("threads", Json::from(threads)),
        ("top_k", Json::from(TOP_K)),
        ("max_posting", Json::from(MAX_POSTING)),
        ("min_overlap", Json::from(2usize)),
        ("shard_span", Json::from(em_serve::DEFAULT_SHARD_SPAN)),
        (
            "note",
            Json::from(
                "Streaming build (row-at-a-time upserts) into the compact \
                 sharded index with bounded probes (top_k/max_posting), then \
                 a seeded 60/20/10/10 query/upsert/restore/remove workload; \
                 latencies are exact nearest-rank quantiles over every query \
                 op. Sizes within the exact-probe limit also assert \
                 flat==sharded parity and bounded-subset behavior; every \
                 size asserts snapshot+replay recovery parity. Memory is \
                 procfs VmRSS/VmHWM (kiB). Each size's 'scored' object \
                 serves a trained artifact end to end over a reopened \
                 store-backed catalog and index (probe -> row gather -> \
                 featurize -> predict) and over the in-memory baseline \
                 (resident Table, rows gathered from it); outputs must \
                 agree bit for bit at the default and at one thread, and \
                 the two peaks come from separate clear_refs HWM windows, \
                 each opened after malloc_trim returns freed heap (so \
                 vm_hwm_kb covers build+mixed phases since the previous \
                 size's scored section).",
            ),
        ),
        ("sizes", Json::Arr(rows)),
    ]);

    // Merge into the existing report under the "scale" key.
    let mut fields = match std::fs::read_to_string(&out_path).map(|t| Json::parse(&t)) {
        Ok(Ok(Json::Obj(fields))) => fields,
        _ => Vec::new(),
    };
    fields.retain(|(k, _)| k != "scale");
    fields.push(("scale".to_string(), scale));
    std::fs::write(&out_path, Json::Obj(fields).render_pretty(2) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    let _ = std::fs::remove_file(&artifact_path);
}
