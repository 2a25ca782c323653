//! Golden on-disk format tests: pre-built checkpoint + replay-log pairs
//! checked into `tests/fixtures/` must keep loading and must answer a
//! fixed query set bit-exactly — the serving-index analogue of the
//! `artifact_pre_binned.json` guard for model artifacts. Neither fixture
//! is ever regenerated:
//!
//! * `index_v1` holds a version-1 JSON `snapshot.json`, the format the
//!   store wrote before the binary checkpoint; nothing writes it any more.
//! * `index_v2` holds the version-2 binary checkpoint of the same index,
//!   and the same log. [`build_fixture`] is how both were made; a change
//!   that makes the writer stop reproducing `index_v2`'s bytes is a format
//!   change, which needs a new version and a new fixture.

use em_serve::{IncrementalIndex, IndexOptions, PersistentIndex};
use em_table::{parse_csv, RecordPair};
use std::fs;
use std::path::{Path, PathBuf};

/// The files of a store directory, checkpoint first.
const FILES: [&str; 2] = ["snapshot.json", "wal.log"];

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn queries() -> em_table::Table {
    parse_csv(
        "name\n\
         fenix at the argyle\n\
         grill on the alley\n\
         arnie mortons steakhouse\n\
         velvet lounge\n",
    )
    .unwrap()
}

/// The exact candidate set both fixtures must produce for [`queries`].
fn expected() -> Vec<RecordPair> {
    [(0, 1), (0, 6), (1, 2), (1, 4), (1, 6), (2, 0), (3, 5)]
        .into_iter()
        .map(|(l, r)| RecordPair::new(l, r))
        .collect()
}

/// Build the fixture index into `dir` deterministically.
fn build_fixture(dir: &Path) {
    let mut base = IncrementalIndex::with_options(
        "name",
        IndexOptions {
            min_overlap: 2,
            shard_span: 4, // several shards even at 8 records
            ..IndexOptions::default()
        },
    );
    base.upsert(0, Some("arnie mortons of chicago"));
    base.upsert(1, Some("fenix at the argyle"));
    base.upsert(2, Some("grill on the alley"));
    base.upsert(3, Some("la luna ristorante"));
    let _ = fs::remove_dir_all(dir);
    let mut p = PersistentIndex::create(dir, base).unwrap();
    // Logged tail: an extension, a replacement, a removal, a re-add.
    p.upsert(4, Some("the alley grill annex")).unwrap();
    p.upsert(5, Some("velvet lounge supper club")).unwrap();
    p.upsert(3, None).unwrap();
    p.upsert(6, Some("fenix grill at the alley")).unwrap();
    p.remove(5).unwrap();
    p.upsert(5, Some("velvet lounge")).unwrap();
}

fn work_dir(tag: &str) -> PathBuf {
    let work = std::env::temp_dir().join(format!("em-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    work
}

/// Open a copy of fixture `name` (opening takes a write handle on the
/// log, and a checked-in fixture must never be modified by a test run)
/// and check it answers bit-exactly.
fn check_fixture(name: &str) {
    let dir = fixture_dir(name);
    let work = work_dir(name);
    fs::create_dir_all(&work).unwrap();
    for file in FILES {
        fs::copy(dir.join(file), work.join(file))
            .unwrap_or_else(|e| panic!("fixture file {name}/{file} missing: {e}"));
    }
    let p = PersistentIndex::open(&work).unwrap();
    p.index().verify_invariants().unwrap();
    assert_eq!(p.index().attribute(), "name");
    assert_eq!(p.index().min_overlap(), 2);
    assert_eq!(p.index().shard_span(), 4);
    assert_eq!(p.index().len(), 6);
    assert_eq!(p.candidates(&queries(), 0), expected());
    assert_eq!(p.candidates(&queries(), 1), expected());
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn golden_fixture_loads_and_answers_bit_exactly() {
    check_fixture("index_v1");
}

#[test]
fn golden_binary_fixture_loads_and_answers_bit_exactly() {
    check_fixture("index_v2");
}

#[test]
fn writer_reproduces_the_binary_fixture() {
    let work = work_dir("rebuild");
    build_fixture(&work);
    for file in FILES {
        let want = fs::read(fixture_dir("index_v2").join(file)).unwrap();
        assert!(
            fs::read(work.join(file)).unwrap() == want,
            "{file} differs from tests/fixtures/index_v2/{file}"
        );
    }
    let _ = fs::remove_dir_all(&work);
}
