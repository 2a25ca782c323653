//! Property tests for the compact sharded serving index:
//!
//! 1. **Delta round-trip** — encoding a strictly-sorted `u32` sequence into
//!    a [`DeltaList`] and decoding it back is the identity, whether built
//!    by ascending pushes or shuffled inserts, at any magnitude.
//! 2. **Sharded = exact** — over randomized upsert/remove/query
//!    interleavings, a many-shard index, a single-shard index, and the
//!    batch [`em_table::OverlapBlocker`] over the equivalent catalog table
//!    all produce bit-identical candidate sets, at 1 worker and at the
//!    full pool width.
//! 3. **Bounds are principled** — `top_k`/`max_posting` large enough to be
//!    vacuous change nothing; an active `top_k` yields a per-query subset
//!    of the exact candidates; sharding never changes bounded output.
//!
//! This harness gets its own process so it can resize the global pool.

use em_data::{CatalogSpec, ScaleCatalog};
use em_rt::{derive_seed, StdRng};
use em_serve::{DeltaList, IncrementalIndex, IndexOptions};
use em_table::{Blocker, OverlapBlocker, RecordPair, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

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

#[test]
fn delta_list_round_trips_random_sequences() {
    let mut rng = StdRng::seed_from_u64(0xD31A);
    for case in 0..200 {
        let n = rng.random_range(0..300);
        let mut vals: Vec<u32> = (0..n)
            .map(|_| {
                if case % 5 == 0 {
                    // Exercise multi-byte varints: values beyond 2^28.
                    (rng.random_range(0..u32::MAX as usize)) as u32
                } else {
                    rng.random_range(0..4096) as u32
                }
            })
            .collect();
        vals.sort_unstable();
        vals.dedup();
        // Built by ascending pushes.
        let pushed = DeltaList::from_sorted(&vals);
        assert_eq!(pushed.iter().collect::<Vec<_>>(), vals, "case {case}");
        assert_eq!(pushed.count() as usize, vals.len());
        assert_eq!(pushed.last(), vals.last().copied());
        // Built by shuffled interior inserts: same encoding semantics.
        let mut shuffled = vals.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.random_range(0..i + 1));
        }
        let mut inserted = DeltaList::new();
        for &v in &shuffled {
            assert!(inserted.insert(v));
        }
        for &v in &shuffled {
            assert!(!inserted.insert(v), "duplicate insert must be rejected");
        }
        assert_eq!(inserted.iter().collect::<Vec<_>>(), vals, "case {case}");
        let mut decoded = Vec::new();
        inserted.decode_into(&mut decoded);
        assert_eq!(decoded, vals);
    }
}

/// Mirror of the index as a plain table, for ground-truthing against the
/// batch blocker: absent/removed rows become null cells.
fn mirror_table(state: &HashMap<usize, String>, n_rows: usize) -> Table {
    let mut t = Table::new(Schema::new(["name"]));
    for row in 0..n_rows {
        let cell = match state.get(&row) {
            Some(v) => Value::Text(v.clone()),
            None => Value::Null,
        };
        t.push_row(vec![cell]).unwrap();
    }
    t
}

/// Drive `ops` random upsert/remove/query steps, checking after every query
/// that the sharded index, a flat (single-shard) index, and the batch
/// blocker agree bit-for-bit at jobs=1 and jobs=pool.
fn interleaving_case(seed: u64, min_overlap: usize, ops: usize) {
    let cat = ScaleCatalog::new(CatalogSpec {
        records: 400,
        vocab: 120,
        seed,
        duplicate_rate: 0.2,
        min_tokens: 2,
        max_tokens: 6,
        ..CatalogSpec::default()
    });
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x1A7E));
    let mut sharded = IncrementalIndex::with_options(
        "name",
        IndexOptions {
            min_overlap,
            shard_span: 16, // 400 rows -> ~25 shards
            ..IndexOptions::default()
        },
    );
    let mut flat = IncrementalIndex::with_options(
        "name",
        IndexOptions {
            min_overlap,
            shard_span: 1 << 20, // everything in shard 0
            ..IndexOptions::default()
        },
    );
    let mut state: HashMap<usize, String> = HashMap::new();
    let mut n_rows = 0usize;
    let mut value_counter = 0usize;
    for step in 0..ops {
        match rng.random_range(0..10) {
            0..=5 => {
                let row = rng.random_range(0..400usize);
                let v = cat.value(value_counter % 4096);
                value_counter += 1;
                sharded.upsert(row, Some(&v));
                flat.upsert(row, Some(&v));
                state.insert(row, v);
                n_rows = n_rows.max(row + 1);
            }
            6..=7 => {
                let row = rng.random_range(0..400usize);
                sharded.remove(row);
                flat.remove(row);
                state.remove(&row);
            }
            _ => {
                let queries = cat.queries(step * 7, 12);
                let exact = flat.candidates(&queries, 1);
                assert_eq!(sharded.candidates(&queries, 1), exact, "step {step} jobs=1");
                assert_eq!(
                    sharded.candidates(&queries, 0),
                    exact,
                    "step {step} jobs=pool"
                );
                assert_eq!(flat.candidates(&queries, 0), exact, "step {step} flat pool");
                let blocker = OverlapBlocker {
                    attribute: "name".into(),
                    min_overlap,
                };
                let truth = blocker.candidates(&queries, &mirror_table(&state, n_rows));
                assert_eq!(exact, truth, "step {step} vs batch blocker");
            }
        }
    }
    sharded.verify_invariants().unwrap();
    flat.verify_invariants().unwrap();
    assert_eq!(sharded.len(), state.len());
    assert_eq!(flat.len(), state.len());
}

#[test]
fn sharded_probe_equals_exact_over_random_interleavings() {
    let _guard = serialize();
    ensure_pool();
    for (seed, min_overlap) in [(11, 1), (12, 2), (13, 1)] {
        interleaving_case(seed, min_overlap, 120);
    }
}

#[test]
fn vacuous_probe_bounds_change_nothing() {
    let _guard = serialize();
    ensure_pool();
    let cat = ScaleCatalog::new(CatalogSpec {
        records: 600,
        vocab: 200,
        seed: 21,
        ..CatalogSpec::default()
    });
    let table = cat.table();
    let queries = cat.queries(0, 60);
    let exact = IncrementalIndex::build("name", 1, &table).unwrap();
    let mut bounded = IncrementalIndex::build_with_options(
        "name",
        IndexOptions {
            min_overlap: 1,
            shard_span: 64,
            top_k: Some(usize::MAX >> 1),
            max_posting: Some(usize::MAX >> 1),
        },
        &table,
    )
    .unwrap();
    let want = exact.candidates(&queries, 0);
    assert_eq!(bounded.candidates(&queries, 0), want);
    assert_eq!(bounded.candidates(&queries, 1), want);
    // Turning the bounds off entirely is also identical.
    bounded.set_probe_limits(None, None);
    assert_eq!(bounded.candidates(&queries, 0), want);
}

#[test]
fn active_top_k_yields_per_query_subsets_and_shards_agree() {
    let _guard = serialize();
    ensure_pool();
    let cat = ScaleCatalog::new(CatalogSpec {
        records: 600,
        vocab: 150,
        seed: 33,
        ..CatalogSpec::default()
    });
    let table = cat.table();
    let queries = cat.queries(100, 60);
    let exact = IncrementalIndex::build("name", 1, &table).unwrap();
    let want = exact.candidates(&queries, 0);
    let opts = IndexOptions {
        min_overlap: 1,
        top_k: Some(8),
        max_posting: Some(64),
        ..IndexOptions::default()
    };
    let flat = IncrementalIndex::build_with_options(
        "name",
        IndexOptions {
            shard_span: 1 << 20,
            ..opts.clone()
        },
        &table,
    )
    .unwrap();
    let sharded = IncrementalIndex::build_with_options(
        "name",
        IndexOptions {
            shard_span: 48,
            ..opts
        },
        &table,
    )
    .unwrap();
    let bounded = flat.candidates(&queries, 0);
    // Sharding must not change bounded output either (pruning and top-k
    // are shard-independent decisions).
    assert_eq!(sharded.candidates(&queries, 0), bounded);
    assert_eq!(sharded.candidates(&queries, 1), bounded);
    // Per query: bounded candidates are a subset of the exact set, capped
    // at k (pruning may drop further rows, never add).
    let mut exact_by_q: HashMap<usize, Vec<RecordPair>> = HashMap::new();
    for p in &want {
        exact_by_q.entry(p.left).or_default().push(*p);
    }
    let mut per_q: HashMap<usize, usize> = HashMap::new();
    for p in &bounded {
        *per_q.entry(p.left).or_default() += 1;
        assert!(
            exact_by_q.get(&p.left).is_some_and(|v| v.contains(p)),
            "bounded pair {p:?} not in exact set"
        );
    }
    assert!(per_q.values().all(|&c| c <= 8), "top_k cap exceeded");
}
