//! Catalog-store guarantees, in the spirit of `serve_stream.rs`:
//!
//! 1. **Round-trip property** — random catalogs (null / unicode / empty /
//!    non-finite-number cells) pushed through a [`CatalogStore`] must come
//!    back from `fetch_rows` bit-identical to `Table::slice_rows` on the
//!    in-memory original, including after a crash-recovery reopen.
//! 2. **Store-backed = in-memory serving** — `match_stream` over a
//!    store-backed matcher must be bit-identical to the in-memory-`Table`
//!    matcher, with the hot-row cache enabled and disabled, at
//!    `EM_THREADS=1` and `8`.
//! 3. **Run-ahead = one batch at a time** — with its fetch stage running
//!    ahead of featurization, a stream's outputs and probe and gather
//!    totals equal per-batch `match_batch`, at any in-flight depth and
//!    predict-worker count.
//! 4. **A failing stage ends the stream** — a gather that fails its CRC
//!    check panics out of `match_stream` instead of hanging it.
//!
//! This harness gets its own process so it can resize the global pool.

use automl_em::{EmPipelineConfig, FeatureGenerator, FeatureScheme};
use em_rt::StdRng;
use em_serve::{
    BatchOutput, CatalogStore, IncrementalIndex, Matcher, ModelArtifact, PersistentIndex,
    StreamOptions,
};
use em_table::{Schema, Table, Value};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Tests here may mutate the process-global `em_rt::set_threads` knob, so
/// they must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Force a multi-worker pool even on single-core CI hosts, unless the
/// environment sets `EM_THREADS`: `set_threads` would override it, so it is
/// only called when the variable is unset.
fn ensure_pool() {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("em-catserve-{tag}-{}", std::process::id()))
}

/// A random cell drawing from every `Value` variant, with the string pool
/// biased toward the hostile cases: empty, whitespace-only, multi-byte
/// unicode, and strings that look like JSON or number sentinels.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..10u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.unit_f64() < 0.5),
        2 => Value::Number(match rng.random_range(0..6u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => (rng.unit_f64() - 0.5) * 1e18,
            _ => rng.unit_f64(),
        }),
        3 => Value::Text(String::new()),
        4 => Value::Text(
            [
                "NaN",
                "inf",
                "-0",
                "null",
                "[1,2]",
                "{\"f\":\"x\"}",
                "  ",
                "\t\n",
            ][rng.random_range(0..8usize)]
            .to_string(),
        ),
        5 => Value::Text(
            [
                "café zürich",
                "北京 烤鸭",
                "naïve ⊕ café",
                "😀 grill",
                "Ørsted",
            ][rng.random_range(0..5usize)]
            .to_string(),
        ),
        _ => {
            let n = rng.random_range(1..6usize);
            let words: Vec<String> = (0..n)
                .map(|_| format!("w{}", rng.random_range(0..50u32)))
                .collect();
            Value::Text(words.join(" "))
        }
    }
}

fn random_table(rng: &mut StdRng, rows: usize, cols: usize) -> Table {
    let schema = Schema::new((0..cols).map(|c| format!("attr{c}")));
    let mut t = Table::new(schema);
    for _ in 0..rows {
        t.push_row((0..cols).map(|_| random_value(rng)).collect())
            .unwrap();
    }
    t
}

/// Bitwise table equality (NaN == NaN, -0.0 != +0.0).
fn assert_tables_bit_identical(got: &Table, want: &Table, tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: row count");
    assert_eq!(got.schema(), want.schema(), "{tag}: schema");
    for i in 0..got.len() {
        for (g, w) in got.record(i).values().iter().zip(want.record(i).values()) {
            match (g, w) {
                (Value::Number(a), Value::Number(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}: row {i}")
                }
                _ => assert_eq!(g, w, "{tag}: row {i}"),
            }
        }
    }
}

#[test]
fn random_catalogs_round_trip_bit_identically_including_after_recovery() {
    let _guard = serialize();
    ensure_pool();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xCA7A_0000 + seed);
        let rows = rng.random_range(1..120usize);
        let cols = rng.random_range(1..4usize);
        let original = random_table(&mut rng, rows, cols);
        let dir = temp_dir(&format!("prop{seed}"));
        let _ = std::fs::remove_dir_all(&dir);

        let mut store = CatalogStore::create(&dir, original.schema().clone()).unwrap();
        store.append_table(&original).unwrap();
        store.commit().unwrap();

        // Gathers in random order with repeats, vs slice_rows on the
        // original — and a full sequential gather vs the table itself.
        for trial in 0..4 {
            let batch: Vec<u32> = (0..rng.random_range(1..40usize))
                .map(|_| rng.random_range(0..rows) as u32)
                .collect();
            let fetched = store.fetch_rows(&batch).unwrap();
            let mut want = Table::new(original.schema().clone());
            for &r in &batch {
                let slice = original.slice_rows(r as usize..r as usize + 1);
                want.push_row(slice.record(0).values().to_vec()).unwrap();
            }
            assert_tables_bit_identical(&fetched, &want, &format!("seed {seed} trial {trial}"));
        }
        let all: Vec<u32> = (0..rows as u32).collect();
        let fetched = store.fetch_rows(&all).unwrap();
        assert_tables_bit_identical(&fetched, &original, &format!("seed {seed} full"));

        // Crash recovery: append a fresh tail without committing, drop
        // (flushes the frames, never the commit point), reopen, and read
        // everything back — committed prefix and recovered tail alike.
        let tail_rows = rng.random_range(1..10usize);
        let tail = random_table(&mut rng, tail_rows, cols);
        store.append_table(&tail).unwrap();
        drop(store);
        let mut reopened = CatalogStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), original.len() + tail.len(), "seed {seed}");
        let all: Vec<u32> = (0..reopened.len() as u32).collect();
        let fetched = reopened.fetch_rows(&all).unwrap();
        let mut want = original.clone();
        for rec in tail.records() {
            want.push_row(rec.values().to_vec()).unwrap();
        }
        assert_tables_bit_identical(&fetched, &want, &format!("seed {seed} post-recovery"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Split `t` into consecutive batches of `size` rows (last may be short).
fn batches_of(t: &Table, size: usize) -> Vec<Table> {
    (0..t.len())
        .step_by(size)
        .map(|lo| t.slice_rows(lo..(lo + size).min(t.len())))
        .collect()
}

/// Drive `match_stream` over `batches` and collect the ordered outputs.
fn run_stream(matcher: &mut Matcher, batches: &[Table], opts: StreamOptions) -> Vec<BatchOutput> {
    let (query_tx, query_rx) = em_rt::channel::<Table>();
    let (result_tx, result_rx) = em_rt::channel::<BatchOutput>();
    for b in batches {
        query_tx.send(b.clone()).expect("stream open");
    }
    query_tx.close();
    matcher.match_stream(query_rx, result_tx, opts);
    std::iter::from_fn(|| result_rx.recv()).collect()
}

fn assert_outputs_bit_identical(a: &[BatchOutput], b: &[BatchOutput], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: batch count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.seq, y.seq, "{tag}");
        assert_eq!(x.n_queries, y.n_queries, "{tag}");
        assert_eq!(x.matches.len(), y.matches.len(), "{tag} seq {}", x.seq);
        for (m, n) in x.matches.iter().zip(&y.matches) {
            assert_eq!(m.pair, n.pair, "{tag} seq {}", x.seq);
            assert_eq!(m.is_match, n.is_match, "{tag} seq {}", x.seq);
            assert_eq!(
                m.score.to_bits(),
                n.score.to_bits(),
                "{tag} seq {}: score {} vs {}",
                x.seq,
                m.score,
                n.score
            );
        }
    }
}

/// Serving fixture: a fitted artifact over Fodors-Zagats plus the dataset.
fn serving_fixture(seed: u64) -> (em_data::EmDataset, ModelArtifact, String) {
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(seed, 0.25);
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
    let pairs: Vec<em_table::RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let x = g.generate(&ds.table_a, &ds.table_b, &pairs);
    let y: Vec<usize> = ds.pairs.iter().map(|p| usize::from(p.label)).collect();
    let fitted = EmPipelineConfig::default_random_forest(seed).fit(&x, &y);
    let artifact =
        ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, fitted);
    let attr = ds.table_a.schema().names()[0].to_string();
    (ds, artifact, attr)
}

/// Reload `artifact` via a JSON round-trip (matchers consume it by value).
fn clone_artifact(artifact: &ModelArtifact) -> ModelArtifact {
    ModelArtifact::from_json(&em_rt::Json::parse(&artifact.to_json().render()).unwrap()).unwrap()
}

/// Build a committed store holding `catalog` under `dir` and reopen it,
/// so every serving run below exercises the recovered-reader path.
fn store_with(dir: &PathBuf, catalog: &Table) -> CatalogStore {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = CatalogStore::create(dir, catalog.schema().clone()).unwrap();
    store.append_table(catalog).unwrap();
    store.commit().unwrap();
    drop(store);
    CatalogStore::open(dir).unwrap()
}

/// A store-backed matcher over a reopened store under `dir` and a
/// reopened persistent index beside it.
fn store_backed_matcher(
    artifact: &ModelArtifact,
    dir: &PathBuf,
    catalog: &Table,
    attr: &str,
) -> Matcher {
    let store = store_with(dir, catalog);
    let index_dir = dir.with_extension("index");
    let _ = std::fs::remove_dir_all(&index_dir);
    let index = IncrementalIndex::build(attr, 1, catalog).unwrap();
    drop(PersistentIndex::create(&index_dir, index).unwrap());
    let index = PersistentIndex::open(&index_dir).unwrap();
    Matcher::with_store(clone_artifact(artifact), store, index).unwrap()
}

/// One store-backed stream run over a reopened store and a reopened
/// persistent index. `hot_cache`: `Some((capacity, seed))` reconfigures
/// the hot-row cache, `None` keeps the default.
fn run_store_backed(
    artifact: &ModelArtifact,
    dir: &PathBuf,
    catalog: &Table,
    attr: &str,
    batches: &[Table],
    hot_cache: Option<(usize, u64)>,
) -> Vec<BatchOutput> {
    let mut matcher = store_backed_matcher(artifact, dir, catalog, attr);
    if let Some((capacity, seed)) = hot_cache {
        assert!(matcher.configure_hot_cache(capacity, seed));
    }
    let outputs = run_stream(&mut matcher, batches, StreamOptions::default());
    // The store path really gathered from disk (unless every batch was
    // candidate-free).
    let totals = matcher.fetch_totals();
    assert_eq!(
        totals.requested > 0,
        outputs.iter().any(|o| !o.matches.is_empty()),
        "fetch totals inconsistent with outputs"
    );
    let _ = std::fs::remove_dir_all(dir.with_extension("index"));
    outputs
}

#[test]
fn store_backed_stream_is_bit_identical_to_in_memory_cache_on_and_off() {
    let _guard = serialize();
    ensure_pool();
    let (ds, artifact, attr) = serving_fixture(23);
    let batches = batches_of(&ds.table_a, 7);

    let mut in_memory =
        Matcher::new(clone_artifact(&artifact), ds.table_b.clone(), &attr, 1).unwrap();
    let baseline = run_stream(&mut in_memory, &batches, StreamOptions::default());
    assert!(
        baseline.iter().any(|o| !o.matches.is_empty()),
        "fixture produced no candidates"
    );

    let dir = temp_dir("parity");
    for (tag, hot_cache) in [
        ("default hot cache", None),
        ("hot cache disabled", Some((0, 1))),
        ("tiny hot cache", Some((2, 0x5EED))),
    ] {
        let outputs = run_store_backed(&artifact, &dir, &ds.table_b, &attr, &batches, hot_cache);
        assert_outputs_bit_identical(&baseline, &outputs, tag);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_stream_is_thread_count_invariant() {
    let _guard = serialize();
    if std::env::var("EM_THREADS").is_ok() {
        // The env pins the pool size for the whole process; the in-process
        // 1-vs-8 comparison below needs to flip it, so defer to the runs
        // where the knob is free (verify.sh runs this suite both ways).
        return;
    }
    let (ds, artifact, attr) = serving_fixture(29);
    let batches = batches_of(&ds.table_a, 5);
    let dir = temp_dir("threads");

    // Asking for 8 threads builds the pool at that width unless an earlier
    // section already did; either way the wide run must have workers.
    em_rt::set_threads(8);
    assert!(
        em_rt::pool_workers() > 0,
        "the 8-thread run needs pool workers"
    );
    em_rt::set_threads(1);
    let single = run_store_backed(&artifact, &dir, &ds.table_b, &attr, &batches, None);
    let mut mem_single =
        Matcher::new(clone_artifact(&artifact), ds.table_b.clone(), &attr, 1).unwrap();
    let baseline_single = run_stream(&mut mem_single, &batches, StreamOptions::default());

    em_rt::set_threads(8);
    let pooled = run_store_backed(&artifact, &dir, &ds.table_b, &attr, &batches, None);
    let mut mem_pooled =
        Matcher::new(clone_artifact(&artifact), ds.table_b.clone(), &attr, 1).unwrap();
    let baseline_pooled = run_stream(&mut mem_pooled, &batches, StreamOptions::default());

    assert_outputs_bit_identical(&single, &pooled, "store-backed 1 vs 8 threads");
    assert_outputs_bit_identical(&baseline_single, &single, "store vs memory at 1 thread");
    assert_outputs_bit_identical(&baseline_pooled, &pooled, "store vs memory at 8 threads");

    em_rt::set_threads(4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_match_batch_agrees_and_persistent_retire_wal_logs() {
    let _guard = serialize();
    ensure_pool();
    let (ds, artifact, attr) = serving_fixture(31);
    let queries = ds.table_a.slice_rows(0..40.min(ds.table_a.len()));

    let mut in_memory =
        Matcher::new(clone_artifact(&artifact), ds.table_b.clone(), &attr, 1).unwrap();
    let expect = in_memory.match_batch(&queries);

    let cat_dir = temp_dir("batch-cat");
    let idx_dir = temp_dir("batch-idx");
    let _ = std::fs::remove_dir_all(&idx_dir);
    let store = store_with(&cat_dir, &ds.table_b);
    let index = IncrementalIndex::build(&attr, 1, &ds.table_b).unwrap();
    let pindex = PersistentIndex::create(&idx_dir, index).unwrap();
    let mut matcher = Matcher::with_store(clone_artifact(&artifact), store, pindex).unwrap();

    let got = matcher.match_batch(&queries);
    assert_eq!(got.len(), expect.len());
    for (m, e) in got.iter().zip(&expect) {
        assert_eq!(m.pair, e.pair);
        assert_eq!(m.score.to_bits(), e.score.to_bits());
        assert_eq!(m.is_match, e.is_match);
    }

    // Retiring through the persistent backing WAL-logs: reopening the
    // index sees the removal, and the retired row stops matching.
    let retired = expect
        .first()
        .map(|m| m.pair.right)
        .unwrap_or_else(|| panic!("fixture produced no candidates"));
    matcher.retire(retired).unwrap();
    let after = matcher.match_batch(&queries);
    assert!(
        after.iter().all(|m| m.pair.right != retired),
        "retired row still matching"
    );
    drop(matcher);
    let reopened = PersistentIndex::open(&idx_dir).unwrap();
    assert_eq!(reopened.index().len(), ds.table_b.len() - 1);

    let _ = std::fs::remove_dir_all(&cat_dir);
    let _ = std::fs::remove_dir_all(&idx_dir);
}

/// A fresh matcher over `ds.table_b`, store-backed under `dir` or in
/// memory, with tight probe bounds, a tiny hot-row cache and two retired
/// rows, so that every probe and gather total a stream accumulates moves.
fn run_ahead_matcher(
    artifact: &ModelArtifact,
    ds: &em_data::EmDataset,
    attr: &str,
    dir: Option<&PathBuf>,
) -> Matcher {
    let mut matcher = match dir {
        Some(dir) => {
            let mut m = store_backed_matcher(artifact, dir, &ds.table_b, attr);
            assert!(m.configure_hot_cache(8, 0x5EED));
            m
        }
        None => Matcher::new(clone_artifact(artifact), ds.table_b.clone(), attr, 1).unwrap(),
    };
    matcher.set_probe_limits(Some(3), Some(4));
    for row in [1, 4] {
        matcher.retire(row).unwrap();
    }
    matcher
}

#[test]
fn run_ahead_stream_equals_batch_path_in_outputs_and_totals() {
    let _guard = serialize();
    ensure_pool();
    let (ds, artifact, attr) = serving_fixture(37);
    let batches = batches_of(&ds.table_a, 5);
    let dir = temp_dir("run-ahead");
    for (tag, store_dir) in [("in-memory", None), ("store-backed", Some(&dir))] {
        let mut batch_path = run_ahead_matcher(&artifact, &ds, &attr, store_dir);
        let expected: Vec<BatchOutput> = batches
            .iter()
            .enumerate()
            .map(|(seq, b)| BatchOutput {
                seq,
                n_queries: b.len(),
                matches: batch_path.match_batch(b),
            })
            .collect();
        let (probe, fetch) = (batch_path.probe_totals(), batch_path.fetch_totals());
        drop(batch_path);
        assert!(
            probe.pruned_tokens > 0 && probe.capped_queries > 0,
            "{tag}: probe bounds never bit: {probe:?}"
        );
        if store_dir.is_some() {
            assert!(
                fetch.cache_hits > 0 && fetch.rows_read > 0,
                "{tag}: {fetch:?}"
            );
        }
        for max_in_flight in [1, 4, 16] {
            for predict_workers in [1, 3] {
                let tag = format!("{tag}, {max_in_flight} in flight, {predict_workers} workers");
                let mut matcher = run_ahead_matcher(&artifact, &ds, &attr, store_dir);
                let opts = StreamOptions {
                    max_in_flight,
                    predict_workers,
                };
                let outputs = run_stream(&mut matcher, &batches, opts);
                assert_outputs_bit_identical(&expected, &outputs, &tag);
                assert_eq!(matcher.probe_totals(), probe, "{tag}: probe totals");
                assert_eq!(matcher.fetch_totals(), fetch, "{tag}: fetch totals");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("index"));
}

/// Flip one payload byte of every frame in `records.dat`, in place, so
/// each row still frames correctly but fails its CRC check.
fn corrupt_every_payload(dir: &std::path::Path) {
    let path = dir.join("records.dat");
    let mut bytes = std::fs::read(&path).unwrap();
    let mut at = 0usize;
    while at < bytes.len() {
        let len = std::str::from_utf8(&bytes[at..at + 8]).unwrap();
        let len = usize::from_str_radix(len, 16).unwrap();
        bytes[at + 18] ^= 1;
        at += 18 + len + 1;
    }
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn corrupt_store_panics_out_of_match_stream_instead_of_hanging() {
    let _guard = serialize();
    ensure_pool();
    let (ds, artifact, attr) = serving_fixture(41);
    let batches = batches_of(&ds.table_a, 7);
    let dir = temp_dir("corrupt");
    let mut matcher = store_backed_matcher(&artifact, &dir, &ds.table_b, &attr);
    // With the hot-row cache off every gather reads the damaged file.
    assert!(matcher.configure_hot_cache(0, 1));
    corrupt_every_payload(&dir);

    // A hung stream must fail this test, not stall it: the stream runs on
    // its own thread and the verdict comes back through a timed receive.
    let (tx, rx) = std::sync::mpsc::channel();
    let streamer = std::thread::spawn(move || {
        let streamed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stream(&mut matcher, &batches, StreamOptions::default()).len()
        }));
        let _ = tx.send(streamed);
    });
    let verdict = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("match_stream hung on a corrupt catalog store");
    streamer
        .join()
        .expect("the streaming thread caught the panic");
    let payload = match verdict {
        Ok(n) => panic!("match_stream returned {n} batches from a corrupt store"),
        Err(payload) => payload,
    };
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("catalog store fetch failed") && message.contains("crc mismatch"),
        "unexpected panic: {message:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(dir.with_extension("index"));
}
