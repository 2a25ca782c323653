//! Property tests for the table substrate: CSV round-trips, value parsing
//! totality, type-inference stability, and blocking soundness.
//!
//! Each property runs over `CASES` deterministically seeded random inputs
//! drawn from the `em-rt` RNG; on failure the offending seed is printed so
//! the case can be replayed with `StdRng::seed_from_u64(seed)`.

use em_rt::StdRng;
use em_table::{
    infer_column_type, parse_csv, write_csv, AttrEquivalenceBlocker, Blocker, OverlapBlocker,
    RecordPair, Schema, Table, Value,
};
use std::sync::{Mutex, MutexGuard};

const CASES: u64 = 256;

/// Run a property over `CASES` seeded RNGs, reporting the failing seed.
fn check(f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    check_cases(CASES, f);
}

/// [`check`] with an explicit case count, for expensive properties.
fn check_cases(cases: u64, f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x7ab1_0000 ^ case;
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed for seed {seed} (case {case}/{cases})");
            std::panic::resume_unwind(e);
        }
    }
}

/// CSV-safe-ish field content, including characters that need quoting
/// (the old `[a-zA-Z0-9 ,"']{0,12}` strategy).
fn field(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,\"'";
    let len = rng.random_range(0..=12usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Arbitrary printable-ASCII content (the old `[ -~]{0,20}` strategy).
fn printable(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..=20usize);
    (0..len)
        .map(|_| rng.random_range(0x20u32..0x7f) as u8 as char)
        .collect()
}

/// A 2-4 column table of typed-parsed random fields with 1-7 rows.
fn random_table(rng: &mut StdRng) -> Table {
    let cols = rng.random_range(2..5usize);
    let rows = rng.random_range(1..8usize);
    let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
    let mut t = Table::new(Schema::new(names));
    for _ in 0..rows {
        t.push_row((0..cols).map(|_| Value::parse(&field(rng))).collect())
            .unwrap();
    }
    t
}

#[test]
fn csv_round_trips() {
    check(|rng| {
        let t = random_table(rng);
        let text = write_csv(&t);
        let back = parse_csv(&text).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.schema().names(), t.schema().names());
        // Values survive up to display-equivalence (typed parsing may turn
        // "07" into Number(7), so compare rendered forms of the reparse).
        let again = parse_csv(&write_csv(&back)).unwrap();
        assert_eq!(back, again);
    });
}

#[test]
fn value_parse_is_total_and_display_reparses() {
    check(|rng| {
        let raw = printable(rng);
        let v = Value::parse(&raw);
        // Displaying and reparsing is idempotent after one round.
        if let Some(display) = v.to_display_string() {
            let v2 = Value::parse(&display);
            let v3 = Value::parse(&v2.to_display_string().unwrap_or_default());
            assert_eq!(v2, v3);
        }
    });
}

#[test]
fn type_inference_is_permutation_invariant() {
    check(|rng| {
        let n = rng.random_range(1..10usize);
        let values: Vec<Value> = (0..n).map(|_| Value::parse(&field(rng))).collect();
        let t1 = infer_column_type(values.iter());
        let mut reversed = values.clone();
        reversed.reverse();
        let t2 = infer_column_type(reversed.iter());
        assert_eq!(t1, t2);
    });
}

#[test]
fn attr_blocker_candidates_have_equal_keys() {
    check(|rng| {
        let t = random_table(rng);
        let blocker = AttrEquivalenceBlocker {
            attribute: "c0".into(),
        };
        for pair in blocker.candidates(&t, &t) {
            let ka = t.record(pair.left).get(0).to_display_string();
            let kb = t.record(pair.right).get(0).to_display_string();
            assert_eq!(ka, kb);
        }
    });
}

#[test]
fn attr_blocker_includes_the_diagonal_for_non_null_keys() {
    check(|rng| {
        let t = random_table(rng);
        let blocker = AttrEquivalenceBlocker {
            attribute: "c0".into(),
        };
        let cands: std::collections::HashSet<(usize, usize)> = blocker
            .candidates(&t, &t)
            .into_iter()
            .map(|p| (p.left, p.right))
            .collect();
        for rec in t.records() {
            if !rec.get(0).is_null() {
                assert!(cands.contains(&(rec.index(), rec.index())));
            }
        }
    });
}

/// A wide random table for blocking: one key column drawn from a small
/// vocabulary (so blocks are large and straddle the parallel probe's
/// 256-record shard boundaries) plus a payload column.
fn random_blocking_table(rng: &mut StdRng, rows: usize) -> Table {
    const WORDS: [&str; 9] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota",
    ];
    let mut t = Table::new(Schema::new(["key", "payload"]));
    for _ in 0..rows {
        let tokens = rng.random_range(0..=3usize);
        let key: Vec<&str> = (0..tokens)
            .map(|_| WORDS[rng.random_range(0..WORDS.len())])
            .collect();
        t.push_row(vec![
            Value::parse(&key.join(" ")),
            Value::parse(&field(rng)),
        ])
        .unwrap();
    }
    t
}

/// The blocking tests flip the process-global pool width — the only
/// serial/parallel switch — so they must not interleave. Each starts by
/// asking for the widest width it uses, which builds the pool with workers
/// (unless `EM_THREADS=1` asks for a one-thread process).
fn wide_pool() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    em_rt::set_threads(8);
    if std::env::var("EM_THREADS").as_deref() != Ok("1") {
        assert!(em_rt::pool_workers() > 0, "the wide runs need pool workers");
    }
    guard
}

/// `blocker`'s candidates with the pool at `width` threads.
fn candidates_at(width: usize, blocker: &dyn Blocker, a: &Table, b: &Table) -> Vec<RecordPair> {
    em_rt::set_threads(width);
    blocker.candidates(a, b)
}

#[test]
fn parallel_blocking_matches_serial_exactly() {
    let _guard = wide_pool();
    // Fewer, larger cases: left tables of up to ~600 records span multiple
    // 256-record shards, so chunk boundaries are genuinely exercised.
    check_cases(24, |rng| {
        let rows_a = rng.random_range(1..=600usize);
        let rows_b = rng.random_range(1..=80usize);
        let a = random_blocking_table(rng, rows_a);
        let b = random_blocking_table(rng, rows_b);
        let overlap = OverlapBlocker {
            attribute: "key".into(),
            min_overlap: rng.random_range(1..=2usize),
        };
        let equiv = AttrEquivalenceBlocker {
            attribute: "key".into(),
        };
        for blocker in [&overlap as &dyn Blocker, &equiv] {
            let serial = candidates_at(1, blocker, &a, &b);
            for width in [2, 3, 8] {
                // Exact match — same pairs, same order, no permutation.
                assert_eq!(serial, candidates_at(width, blocker, &a, &b));
            }
        }
    });
}

#[test]
fn parallel_blocking_neither_drops_nor_duplicates_pairs() {
    let _guard = wide_pool();
    check_cases(24, |rng| {
        let rows_a = rng.random_range(200..=600usize);
        let rows_b = rng.random_range(1..=60usize);
        let a = random_blocking_table(rng, rows_a);
        let b = random_blocking_table(rng, rows_b);
        let blocker = OverlapBlocker {
            attribute: "key".into(),
            min_overlap: 1,
        };
        let parallel = candidates_at(8, &blocker, &a, &b);
        // No pair duplicated across chunk boundaries...
        let unique: std::collections::HashSet<(usize, usize)> =
            parallel.iter().map(|p| (p.left, p.right)).collect();
        assert_eq!(unique.len(), parallel.len());
        // ...and none dropped: every serial pair is present.
        for pair in candidates_at(1, &blocker, &a, &b) {
            assert!(unique.contains(&(pair.left, pair.right)));
        }
    });
}

#[test]
fn overlap_blocker_is_sound() {
    check(|rng| {
        let t = random_table(rng);
        let min_overlap = rng.random_range(1..3usize);
        let blocker = OverlapBlocker {
            attribute: "c0".into(),
            min_overlap,
        };
        for pair in blocker.candidates(&t, &t) {
            let ka = t
                .record(pair.left)
                .get(0)
                .to_display_string()
                .unwrap_or_default();
            let kb = t
                .record(pair.right)
                .get(0)
                .to_display_string()
                .unwrap_or_default();
            let sa: std::collections::HashSet<String> = ka
                .split_whitespace()
                .map(|w| w.to_ascii_lowercase())
                .collect();
            let sb: std::collections::HashSet<String> = kb
                .split_whitespace()
                .map(|w| w.to_ascii_lowercase())
                .collect();
            assert!(sa.intersection(&sb).count() >= min_overlap);
        }
    });
}
