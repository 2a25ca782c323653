//! Crash-recovery guarantees for the snapshot + replay-log store:
//!
//! 1. **Every-byte truncation** — cutting `wal.log` at *every* byte
//!    boundary of the final record must recover either the full pre-crash
//!    state (all frames intact) or the state just before the interrupted
//!    write — never an error, never a corrupt index.
//! 2. **Interior damage is rejected** — flipping payload bytes (CRC
//!    mismatch), breaking a frame header, or losing the terminator must
//!    fail recovery loudly instead of replaying garbage.
//! 3. **Missing snapshot is rejected**, and a recovered store keeps
//!    accepting writes that survive another recovery.

use em_serve::{IncrementalIndex, PersistentIndex};
use em_table::{RecordPair, Table};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_store(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for name in ["snapshot.json", "wal.log"] {
        let from = src.join(name);
        if from.exists() {
            fs::copy(&from, dst.join(name)).unwrap();
        }
    }
}

fn queries() -> Table {
    em_table::parse_csv(
        "name\n\
         fenix at the argyle\n\
         grill on the alley\n\
         arnie mortons of chicago\n\
         brand new bistro\n",
    )
    .unwrap()
}

/// A store with a snapshot plus a few logged ops, returning the dir and
/// the log length before + after the final op.
fn build_store(tag: &str) -> (PathBuf, u64, u64) {
    let dir = temp_dir(tag);
    let mut base = IncrementalIndex::new("name", 1);
    base.upsert(0, Some("arnie mortons of chicago"));
    base.upsert(1, Some("fenix at the argyle"));
    let mut p = PersistentIndex::create(&dir, base).unwrap();
    p.upsert(2, Some("grill on the alley")).unwrap();
    p.upsert(1, Some("fenix lounge")).unwrap();
    p.remove(0).unwrap();
    let before_last = p.store().log_bytes();
    p.upsert(3, Some("brand new bistro and grill")).unwrap();
    let after_last = p.store().log_bytes();
    (dir, before_last, after_last)
}

#[test]
fn truncation_at_every_byte_of_last_record_recovers_cleanly() {
    let (dir, before_last, after_last) = build_store("truncate");
    let q = queries();

    // Expected states: with the full log vs with the last record dropped.
    let full = PersistentIndex::open(&dir).unwrap();
    let full_candidates = full.candidates(&q, 0);
    let full_len = full.index().len();
    assert!(full_candidates.contains(&RecordPair::new(3, 3)));
    drop(full);

    let prefix_dir = temp_dir("truncate-prefix");
    copy_store(&dir, &prefix_dir);
    let wal = prefix_dir.join("wal.log");
    let bytes = fs::read(&wal).unwrap();
    fs::write(&wal, &bytes[..before_last as usize]).unwrap();
    let prefix = PersistentIndex::open(&prefix_dir).unwrap();
    let prefix_candidates = prefix.candidates(&q, 0);
    let prefix_len = prefix.index().len();
    assert!(!prefix_candidates.contains(&RecordPair::new(3, 3)));
    drop(prefix);

    let work = temp_dir("truncate-work");
    for cut in before_last..=after_last {
        copy_store(&dir, &work);
        let wal = work.join("wal.log");
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..cut as usize]).unwrap();
        let recovered = PersistentIndex::open(&work)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        recovered.index().verify_invariants().unwrap();
        let got = recovered.candidates(&q, 0);
        if cut == after_last {
            assert_eq!(got, full_candidates, "cut {cut}: expected full state");
            assert_eq!(recovered.index().len(), full_len);
        } else {
            assert_eq!(
                got, prefix_candidates,
                "cut {cut}: expected pre-crash state"
            );
            assert_eq!(recovered.index().len(), prefix_len);
        }
        // Recovery truncated the torn tail, so reopening is stable.
        drop(recovered);
        let again = PersistentIndex::open(&work).unwrap();
        assert_eq!(again.candidates(&q, 0), got, "cut {cut}: reopen drifted");
    }
    for d in [dir, prefix_dir, work] {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn interior_corruption_is_rejected() {
    let (dir, _, _) = build_store("corrupt");
    let work = temp_dir("corrupt-work");
    let wal_bytes = fs::read(dir.join("wal.log")).unwrap();

    // Flip one payload byte in the middle of the log: CRC must catch it.
    let mut damaged = wal_bytes.clone();
    let mid = damaged.len() / 2;
    // Stay inside a payload: pick a position whose byte is alphabetic.
    let pos = (mid..damaged.len())
        .find(|&i| damaged[i].is_ascii_lowercase())
        .unwrap();
    damaged[pos] ^= 0x01;
    copy_store(&dir, &work);
    fs::write(work.join("wal.log"), &damaged).unwrap();
    let err = PersistentIndex::open(&work)
        .err()
        .expect("crc damage accepted");
    assert!(
        err.contains("crc") || err.contains("wal"),
        "unexpected error: {err}"
    );

    // Break the very first frame header: not a torn tail, a hard error.
    let mut damaged = wal_bytes.clone();
    damaged[0] = b'x'; // 'x' is not a hex digit
    copy_store(&dir, &work);
    fs::write(work.join("wal.log"), &damaged).unwrap();
    let err = PersistentIndex::open(&work)
        .err()
        .expect("header damage accepted");
    assert!(err.contains("header"), "unexpected error: {err}");

    // Replace a frame terminator with a space: hard error.
    let mut damaged = wal_bytes.clone();
    let nl = damaged.iter().position(|&b| b == b'\n').unwrap();
    damaged[nl] = b' ';
    copy_store(&dir, &work);
    fs::write(work.join("wal.log"), &damaged).unwrap();
    assert!(PersistentIndex::open(&work).is_err());

    // Corrupt snapshots: a token id out of range or beyond u32, a row's ids
    // out of order, a repeated token.
    for (from, to) in [
        ("\"records\":[[", "\"records\":[[9999,"),
        ("\"records\":[[", "\"records\":[[4294967296,"),
        ("\"records\":[[0,", "\"records\":[[1,0,"),
        ("\"tokens\":[\"", "\"tokens\":[\"fenix\",\""),
    ] {
        copy_store(&dir, &work);
        let snap = fs::read_to_string(work.join("snapshot.json")).unwrap();
        let bad = snap.replacen(from, to, 1);
        assert_ne!(bad, snap, "{to}");
        fs::write(work.join("snapshot.json"), bad).unwrap();
        assert!(PersistentIndex::open(&work).is_err(), "{to}");
    }

    // Missing snapshot: rejected.
    copy_store(&dir, &work);
    fs::remove_file(work.join("snapshot.json")).unwrap();
    assert!(PersistentIndex::open(&work).is_err());

    let _ = fs::remove_dir_all(dir);
    let _ = fs::remove_dir_all(work);
}

#[test]
fn recovered_store_keeps_accepting_writes() {
    let (dir, _, _) = build_store("continue");
    let q = queries();
    let mut p = PersistentIndex::open(&dir).unwrap();
    p.upsert(10, Some("arnie mortons annex")).unwrap();
    p.snapshot().unwrap();
    assert_eq!(p.store().log_bytes(), 0);
    p.upsert(11, Some("post snapshot grill")).unwrap();
    let want = p.candidates(&q, 0);
    drop(p);
    let reopened = PersistentIndex::open(&dir).unwrap();
    reopened.index().verify_invariants().unwrap();
    assert_eq!(reopened.candidates(&q, 0), want);
    let _ = fs::remove_dir_all(dir);
}
