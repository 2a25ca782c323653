//! Crash-recovery guarantees for the checkpoint + replay-log store:
//!
//! 1. **Every-byte truncation** — cutting `wal.log` at *every* byte
//!    boundary of the final record must recover either the full pre-crash
//!    state (all frames intact) or the state just before the interrupted
//!    write — never an error, never a corrupt index.
//! 2. **Interior damage is rejected** — flipping payload bytes (CRC
//!    mismatch), breaking a frame header, or losing the terminator must
//!    fail recovery loudly instead of replaying garbage; so must a
//!    corrupt binary checkpoint or legacy JSON snapshot.
//! 3. **Missing checkpoint is rejected**, and a recovered store keeps
//!    accepting writes that survive another recovery.
//! 4. **A crash inside `snapshot()`** — after the temp write, after the
//!    rename, after the log truncate — reopens to the pre-crash candidates,
//!    in a binary directory and in a legacy JSON one that the snapshot
//!    migrates.
//! 5. **The checkpoint reader is total** — seeded mutations of a churned
//!    index's checkpoint return `Err` or an index that passes its
//!    invariants and serves probes, never a panic.
//! 6. **Probe bounds persist as of the last checkpoint** — they are not
//!    logged, so a reopen restores the bounds the last snapshot wrote.
//! 7. **Rows the index cannot hold never replay** — a well-framed upsert
//!    of row `u32::MAX` fails the open instead of panicking in the index,
//!    and `PersistentIndex::upsert` refuses it before logging.

use em_rt::{Json, StdRng};
use em_serve::store::{crc32, decode_checkpoint, encode_checkpoint, CHECKPOINT_MAGIC};
use em_serve::{IncrementalIndex, IndexOptions, PersistentIndex};
use em_table::{RecordPair, Schema, Table, Value};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Every file a store directory can hold.
const STORE_FILES: [&str; 3] = ["snapshot.json", "snapshot.json.tmp", "wal.log"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy whichever store files exist in `src` into a fresh `dst`.
fn copy_store(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for name in STORE_FILES {
        let from = src.join(name);
        if from.exists() {
            fs::copy(&from, dst.join(name)).unwrap();
        }
    }
}

fn legacy_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/index_v1")
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

    // Corrupt legacy JSON snapshots: a token id out of range or beyond
    // u32, a row's ids out of order, a repeated token.
    for (from, to) in [
        ("\"records\":[[", "\"records\":[[9999,"),
        ("\"records\":[[", "\"records\":[[4294967296,"),
        ("\"records\":[[0,", "\"records\":[[1,0,"),
        ("\"tokens\":[\"", "\"tokens\":[\"fenix\",\""),
    ] {
        copy_store(&legacy_fixture(), &work);
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

/// Where each field of a checkpoint payload sits (see
/// `IncrementalIndex::write_checkpoint` for the layout).
#[derive(Default)]
struct Layout {
    /// Offsets of `u32` item counts.
    counts: Vec<usize>,
    /// Offsets of `u32` byte lengths.
    lens: Vec<usize>,
    /// The attribute's and each token's UTF-8 bytes.
    strings: Vec<Range<usize>>,
    /// Each live row's encoded token ids, behind the length at `.0`.
    rows: Vec<(usize, Range<usize>)>,
    /// Offsets of posting-list token ids, per shard.
    posting_tokens: Vec<Vec<usize>>,
    /// Each posting list's encoded local rows, behind the length at `.0`.
    postings: Vec<(usize, Range<usize>)>,
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn layout(p: &[u8]) -> Layout {
    let mut l = Layout::default();
    let mut pos = 0;
    // A `u32` length at `pos` and the bytes behind it.
    let sized = |pos: &mut usize, lens: &mut Vec<usize>| {
        lens.push(*pos);
        let start = *pos + 4;
        *pos = start + u32_at(p, *pos);
        start..*pos
    };
    let attribute = sized(&mut pos, &mut l.lens);
    l.strings.push(attribute);
    pos += 16; // min_overlap, shard_span
    for _ in 0..2 {
        pos += 1 + 8 * usize::from(p[pos]); // top_k, max_posting
    }
    l.counts.push(pos);
    let n_tokens = u32_at(p, pos);
    pos += 4;
    for _ in 0..n_tokens {
        let token = sized(&mut pos, &mut l.lens);
        l.strings.push(token);
    }
    l.counts.push(pos);
    let n_rows = u32_at(p, pos);
    pos += 4;
    for _ in 0..n_rows {
        pos += 1;
        if p[pos - 1] == 1 {
            let at = pos;
            let ids = sized(&mut pos, &mut l.lens);
            l.rows.push((at, ids));
        }
    }
    l.counts.push(pos);
    let n_shards = u32_at(p, pos);
    pos += 4;
    for _ in 0..n_shards {
        l.counts.push(pos);
        let n_lists = u32_at(p, pos);
        pos += 4;
        l.posting_tokens.push(Vec::new());
        for _ in 0..n_lists {
            l.posting_tokens.last_mut().unwrap().push(pos);
            pos += 4;
            let at = pos;
            let list = sized(&mut pos, &mut l.lens);
            l.postings.push((at, list));
        }
    }
    assert_eq!(pos, p.len(), "layout walk ends at the payload's end");
    l
}

/// `payload` with the length-prefixed bytes at `len_at` replaced by `with`.
fn splice(payload: &[u8], (len_at, old): &(usize, Range<usize>), with: &[u8]) -> Vec<u8> {
    let mut out = payload[..*len_at].to_vec();
    out.extend_from_slice(&(with.len() as u32).to_le_bytes());
    out.extend_from_slice(with);
    out.extend_from_slice(&payload[old.end..]);
    out
}

/// `v` as the LEB128 varint a list encodes it as.
fn varint(mut v: u32) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// `payload` with the `u32` at `at` set to `v`.
fn with_u32(payload: &[u8], at: usize, v: u32) -> Vec<u8> {
    let mut out = payload.to_vec();
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
    out
}

/// A checkpoint file around `payload`, with the header fields of `file`
/// and a length and CRC that match: the frame accepts it, so the payload
/// decoder is what must object.
fn reframe(file: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = file[..12].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn binary_checkpoint_corruption_is_rejected() {
    let (dir, _, _) = build_store("bin-corrupt");
    let work = temp_dir("bin-corrupt-work");
    let file = fs::read(dir.join("snapshot.json")).unwrap();
    assert!(file.starts_with(&CHECKPOINT_MAGIC));
    let payload = &file[24..];
    let l = layout(payload);
    let n_tokens = u32_at(payload, l.counts[0]) as u32;
    let first_row = &l.rows[0];
    // `strings` and `lens` start with the attribute, then token 0, 1, ...
    let first_token = &payload[l.strings[1].clone()];
    let cases = [
        (
            "token id out of range",
            splice(payload, first_row, &varint(n_tokens)),
        ),
        (
            "token id beyond u32",
            splice(payload, first_row, &[0xff, 0xff, 0xff, 0xff, 0x1f]),
        ),
        (
            "unsorted row",
            splice(payload, first_row, &[1, 0]), // ids 1, 1
        ),
        (
            "repeated token",
            splice(payload, &(l.lens[2], l.strings[2].clone()), first_token),
        ),
    ];
    for (what, bad) in cases {
        copy_store(&dir, &work);
        fs::write(work.join("snapshot.json"), reframe(&file, &bad)).unwrap();
        let err = PersistentIndex::open(&work).err();
        assert!(err.is_some(), "{what} accepted");
    }

    // One flipped payload byte under the original CRC.
    let mut damaged = file.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0x01;
    copy_store(&dir, &work);
    fs::write(work.join("snapshot.json"), damaged).unwrap();
    let err = PersistentIndex::open(&work)
        .err()
        .expect("crc damage accepted");
    assert!(err.contains("crc mismatch"), "{err}");

    // Neither a checkpoint nor a legacy snapshot: rejected, even with a
    // leftover temp file.
    copy_store(&dir, &work);
    fs::rename(work.join("snapshot.json"), work.join("snapshot.json.tmp")).unwrap();
    assert!(PersistentIndex::open(&work).is_err());

    let _ = fs::remove_dir_all(dir);
    let _ = fs::remove_dir_all(work);
}

/// Reopen `dir` and return its candidates for [`queries`].
fn reopened_candidates(dir: &Path) -> Vec<RecordPair> {
    let p = PersistentIndex::open(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    p.index().verify_invariants().unwrap();
    p.candidates(&queries(), 0)
}

/// Leaves a store directory as a crash inside `snapshot()` would, given
/// the new checkpoint.
type Crash = fn(&Path, &[u8]);

/// Stop `snapshot()` of the store in `src` after each of its steps and
/// demand the pre-crash candidates on reopen. The crash states are built
/// from the files a completed snapshot leaves: the new checkpoint lands
/// as `snapshot.json.tmp`, is renamed over `snapshot.json`, then the log
/// is truncated.
fn crash_inside_snapshot(src: &Path, tag: &str) {
    let want = {
        let work = temp_dir(&format!("{tag}-pre"));
        copy_store(src, &work);
        let got = reopened_candidates(&work);
        let _ = fs::remove_dir_all(work);
        got
    };
    let done = temp_dir(&format!("{tag}-done"));
    copy_store(src, &done);
    PersistentIndex::open(&done).unwrap().snapshot().unwrap();
    let checkpoint = fs::read(done.join("snapshot.json")).unwrap();
    assert!(checkpoint.starts_with(&CHECKPOINT_MAGIC));
    assert_eq!(fs::read(done.join("wal.log")).unwrap(), b"");
    assert!(!done.join("snapshot.json.tmp").exists());

    let work = temp_dir(&format!("{tag}-crash"));
    let crashes: [(&str, Crash); 3] = [
        ("after the temp write", |dir, ckpt| {
            fs::write(dir.join("snapshot.json.tmp"), ckpt).unwrap()
        }),
        ("after the rename", |dir, ckpt| {
            fs::write(dir.join("snapshot.json"), ckpt).unwrap()
        }),
        ("after the log truncate", |dir, ckpt| {
            fs::write(dir.join("snapshot.json"), ckpt).unwrap();
            fs::write(dir.join("wal.log"), b"").unwrap();
        }),
    ];
    for (step, crash) in crashes {
        copy_store(src, &work);
        crash(&work, &checkpoint);
        assert_eq!(reopened_candidates(&work), want, "{tag}: crash {step}");
        // The next snapshot completes what the crash interrupted.
        PersistentIndex::open(&work).unwrap().snapshot().unwrap();
        assert_eq!(fs::read(work.join("snapshot.json")).unwrap(), checkpoint);
        assert_eq!(reopened_candidates(&work), want, "{tag}: after {step}");
    }
    let _ = fs::remove_dir_all(done);
    let _ = fs::remove_dir_all(work);
}

#[test]
fn crash_inside_snapshot_reopens_to_the_pre_crash_candidates() {
    let (dir, _, _) = build_store("snapcrash");
    crash_inside_snapshot(&dir, "snapcrash-bin");
    let _ = fs::remove_dir_all(dir);
    // A legacy JSON directory: its first snapshot migrates it.
    crash_inside_snapshot(&legacy_fixture(), "snapcrash-v1");
}

#[test]
fn upserts_of_rows_beyond_u32_are_rejected() {
    let (dir, _, _) = build_store("row-range");
    let work = temp_dir("row-range-work");
    copy_store(&dir, &work);
    let payload = br#"{"op":"upsert","row":4294967295,"value":"x"}"#;
    let mut wal = fs::read(work.join("wal.log")).unwrap();
    wal.extend_from_slice(format!("{:08x} {:08x} ", payload.len(), crc32(payload)).as_bytes());
    wal.extend_from_slice(payload);
    wal.push(b'\n');
    fs::write(work.join("wal.log"), wal).unwrap();
    let err = PersistentIndex::open(&work)
        .err()
        .expect("row u32::MAX replayed");
    assert!(err.contains("upsert of row 4294967295"), "{err}");

    let mut p = PersistentIndex::open(&dir).unwrap();
    let log = fs::read(dir.join("wal.log")).unwrap();
    let want = p.candidates(&queries(), 0);
    let err = p
        .upsert(u32::MAX as usize, Some("fenix at the argyle"))
        .expect_err("row u32::MAX logged");
    assert!(err.contains("upsert of row 4294967295"), "{err}");
    assert_eq!(fs::read(dir.join("wal.log")).unwrap(), log);
    assert_eq!(p.candidates(&queries(), 0), want);
    drop(p);
    assert_eq!(reopened_candidates(&dir), want);
    for d in [dir, work] {
        let _ = fs::remove_dir_all(d);
    }
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

#[test]
fn probe_bounds_survive_reopen() {
    let dir = temp_dir("bounds");
    let opts = IndexOptions {
        min_overlap: 1,
        shard_span: 4,
        top_k: Some(2),
        max_posting: Some(3),
    };
    let index = churned(opts.clone(), 40);
    let q = queries();
    let want = index.candidates(&q, 0);
    drop(PersistentIndex::create(&dir, index).unwrap());
    let p = PersistentIndex::open(&dir).unwrap();
    assert_eq!(p.index().options(), opts);
    assert_eq!(p.candidates(&q, 0), want);
    let _ = fs::remove_dir_all(dir);
}

/// Probe bounds are not logged: a change reaches disk with the next
/// snapshot, and a reopen before it restores the last checkpoint's bounds
/// while keeping the logged upsert made after the change.
#[test]
fn probe_bounds_persist_as_of_the_last_snapshot() {
    let dir = temp_dir("bounds-snap");
    let opts = IndexOptions {
        min_overlap: 1,
        shard_span: 4,
        top_k: Some(2),
        max_posting: Some(3),
    };
    let tight = IndexOptions {
        top_k: Some(1),
        max_posting: None,
        ..opts.clone()
    };
    let q = queries();
    let mut expect = churned(opts.clone(), 40);
    expect.upsert(40, Some("fenix grill on the alley"));
    let want_old = expect.candidates(&q, 0);
    expect.set_probe_limits(tight.top_k, tight.max_posting);
    let want_new = expect.candidates(&q, 0);
    assert_ne!(want_old, want_new, "the two bound settings must differ");

    drop(PersistentIndex::create(&dir, churned(opts.clone(), 40)).unwrap());
    let mut p = PersistentIndex::open(&dir).unwrap();
    p.index_mut()
        .set_probe_limits(tight.top_k, tight.max_posting);
    p.upsert(40, Some("fenix grill on the alley")).unwrap();
    drop(p);
    let mut p = PersistentIndex::open(&dir).unwrap();
    assert_eq!(p.index().options(), opts, "bounds set after the checkpoint");
    assert_eq!(p.candidates(&q, 0), want_old);

    p.index_mut()
        .set_probe_limits(tight.top_k, tight.max_posting);
    p.snapshot().unwrap();
    drop(p);
    let p = PersistentIndex::open(&dir).unwrap();
    assert_eq!(
        p.index().options(),
        tight,
        "bounds set before the checkpoint"
    );
    assert_eq!(p.candidates(&q, 0), want_new);
    let _ = fs::remove_dir_all(dir);
}

/// The version-1 JSON snapshot of `index`, as the store wrote it before
/// the binary checkpoint.
fn legacy_json(index: &IncrementalIndex) -> String {
    let records = index.records().iter().map(|rec| match rec {
        None => Json::Null,
        Some(ids) => Json::arr(ids.iter().map(|id| Json::from(u64::from(id)))),
    });
    Json::obj([
        ("attribute", Json::from(index.attribute())),
        ("min_overlap", Json::from(index.min_overlap())),
        ("shard_span", Json::from(index.shard_span())),
        ("tokens", Json::arr(index.tokens().map(Json::from))),
        ("records", Json::arr(records)),
    ])
    .render()
}

/// `rows` rows over a small vocabulary, several shards, rewritten and
/// removed so shards carry stale debt; one live row has no tokens.
fn churned(opts: IndexOptions, rows: usize) -> IncrementalIndex {
    let words = [
        "fenix", "grill", "alley", "argyle", "mortons", "chicago", "bistro", "the", "at", "on",
    ];
    let mut rng = StdRng::seed_from_u64(0xC4EC);
    let value = |rng: &mut StdRng| {
        let n = rng.random_range(1..5);
        (0..n)
            .map(|_| words[rng.random_range(0..words.len())])
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut index = IncrementalIndex::with_options("name", opts);
    for row in 0..rows {
        index.upsert(row, Some(&value(&mut rng)));
    }
    for round in 0..3 {
        for row in (round..rows).step_by(3) {
            index.upsert(row, Some(&value(&mut rng)));
        }
        for row in (round..rows).step_by(7) {
            index.remove(row);
        }
    }
    index.upsert(rows + 2, Some("   "));
    index
}

#[test]
fn binary_and_legacy_reopens_write_identical_checkpoints() {
    let opts = IndexOptions {
        min_overlap: 1,
        shard_span: 8,
        ..IndexOptions::default()
    };
    let bin = temp_dir("parity-bin");
    let legacy = temp_dir("parity-legacy");
    let base = churned(opts.clone(), 60);
    assert!(base.stale_debt() > 0);
    fs::create_dir_all(&legacy).unwrap();
    fs::write(legacy.join("snapshot.json"), legacy_json(&base)).unwrap();
    // The same log tail behind both checkpoints.
    let mut p = PersistentIndex::create(&bin, base).unwrap();
    p.upsert(3, Some("late fenix grill")).unwrap();
    p.remove(4).unwrap();
    p.upsert(70, Some("alley bistro")).unwrap();
    drop(p);
    fs::copy(bin.join("wal.log"), legacy.join("wal.log")).unwrap();

    let (b, l) = (
        PersistentIndex::open(&bin).unwrap(),
        PersistentIndex::open(&legacy).unwrap(),
    );
    assert_eq!(encode_checkpoint(b.index()), encode_checkpoint(l.index()));
    assert_eq!(b.candidates(&queries(), 0), l.candidates(&queries(), 0));
    for d in [bin, legacy] {
        let _ = fs::remove_dir_all(d);
    }
}

/// Decode `payload`; an accepted index must pass its invariants and take
/// a probe (on its own attribute, which a flip may have renamed) and a
/// write. Returns whether it was accepted.
fn accepted(payload: &[u8]) -> bool {
    match IncrementalIndex::from_checkpoint(payload) {
        Err(_) => false,
        Ok(mut index) => {
            index.verify_invariants().unwrap();
            let mut q = Table::new(Schema::new([index.attribute()]));
            for v in ["fenix at the argyle", "grill on the alley", "bistro"] {
                q.push_row(vec![Value::Text(v.into())]).unwrap();
            }
            index.candidates(&q, 0);
            index.upsert(1, Some("fenix grill"));
            index.verify_invariants().unwrap();
            true
        }
    }
}

#[test]
fn checkpoint_reader_is_total_under_mutation() {
    let opts = IndexOptions {
        min_overlap: 1,
        shard_span: 8,
        top_k: Some(4),
        max_posting: None,
    };
    let file = encode_checkpoint(&churned(opts, 40));
    let payload = &file[24..];
    assert!(accepted(payload));
    let l = layout(payload);
    let rejected = |bad: &[u8], what: &str| {
        assert!(!accepted(bad), "{what} accepted");
    };

    // Truncation at every byte, of the payload and of the framed file.
    for cut in 0..payload.len() {
        rejected(&payload[..cut], &format!("payload cut at {cut}"));
    }
    for cut in 0..file.len() {
        assert!(
            decode_checkpoint(&file[..cut]).is_err(),
            "file cut at {cut}"
        );
    }

    // Counts and lengths that lie: all of u32, or one past the bytes left.
    for &at in l.counts.iter().chain(&l.lens) {
        let past = (payload.len() - at - 4 + 1) as u32;
        for v in [u32::MAX, past] {
            rejected(&with_u32(payload, at, v), &format!("field at {at} = {v}"));
        }
    }

    // Token ids at or above the token count, in postings and in rows.
    let n_tokens = u32_at(payload, l.counts[0]) as u32;
    for &at in l.posting_tokens.iter().flatten() {
        for v in [n_tokens, n_tokens + 1, u32::MAX] {
            rejected(&with_u32(payload, at, v), &format!("posting token {v}"));
        }
    }
    for row in &l.rows {
        rejected(
            &splice(payload, row, &varint(n_tokens)),
            "row id = token count",
        );
    }

    // Unsorted lists: a repeated value (gap 0) in rows and postings, and
    // two posting lists of a shard in descending token order.
    for list in l.rows.iter().chain(&l.postings) {
        let mut repeated = payload[list.1.clone()].to_vec();
        repeated.extend_from_slice(&[0]);
        rejected(&splice(payload, list, &repeated), "repeated list value");
    }
    for pair in l.posting_tokens.iter().flat_map(|shard| shard.windows(2)) {
        let (a, b) = (u32_at(payload, pair[0]), u32_at(payload, pair[1]));
        if a < b {
            let swapped = with_u32(&with_u32(payload, pair[0], b as u32), pair[1], a as u32);
            rejected(&swapped, "posting lists out of token order");
        }
    }

    // Bad UTF-8 in the attribute and in every token.
    for s in l.strings.iter().filter(|s| !s.is_empty()) {
        let mut bad = payload.to_vec();
        bad[s.start] = 0xff;
        rejected(&bad, "invalid UTF-8");
    }

    // Seeded bit flips: one to three per case, anywhere in the payload.
    let mut rng = StdRng::seed_from_u64(0x5EED_C4EC);
    let mut kept = 0;
    for _ in 0..3000 {
        let mut bad = payload.to_vec();
        for _ in 0..rng.random_range(1..4) {
            let at = rng.random_range(0..bad.len());
            bad[at] ^= 1u8 << rng.random_range(0..8usize);
        }
        kept += usize::from(accepted(&bad));
    }
    // Flips in token text or row ids can leave a consistent index; most
    // break a count, a length or a list.
    assert!(kept < 1500, "{kept} of 3000 flipped checkpoints accepted");
}
