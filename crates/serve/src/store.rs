//! Checkpoint + append-only replay-log persistence for the serving index.
//!
//! The pre-scale serving layer persisted the whole index as one JSON
//! document per save — O(catalog) bytes rewritten for every record change.
//! [`IndexStore`] replaces that with the classic checkpoint + WAL split:
//!
//! * **`snapshot.json`** — a binary checkpoint of the index, written
//!   atomically (temp file + rename). The file keeps the name it had when
//!   it held JSON, for good: index directories are addressed by their two
//!   file names (the benchmark's `index_churn` copies them by name), and
//!   with one name for both formats a migration is a single rename that
//!   leaves no legacy file to remove. Its first eight bytes say which
//!   format it holds. The frame:
//!
//!   | bytes  | field                                                   |
//!   |--------|---------------------------------------------------------|
//!   | 0..8   | magic `em-index`                                        |
//!   | 8..12  | format version, `u32` LE (2; the JSON snapshot was 1)   |
//!   | 12..20 | payload length, `u64` LE                                |
//!   | 20..24 | payload CRC-32 (IEEE), `u32` LE                         |
//!   | 24..   | payload                                                 |
//!
//!   The payload is [`IncrementalIndex::write_checkpoint`]'s: the
//!   attribute, `min_overlap`, `shard_span`, `top_k` and `max_posting`,
//!   the interned tokens in id order, each row's encoded token ids (or
//!   none), and each shard's posting lists as (token id, encoded local
//!   rows) in ascending token order, compacted. A reopen copies those
//!   bytes straight into the index's lists; it parses no JSON and
//!   rebuilds no postings, and the probe bounds come back with the rest.
//! * **`wal.log`** — an append-only log of upsert/remove operations applied
//!   since the checkpoint. Each record is framed as
//!
//!   ```text
//!   llllllll cccccccc <payload>\n
//!   ```
//!
//!   where `llllllll` is the payload byte length and `cccccccc` the
//!   payload's CRC-32 (IEEE), both lowercase hex; the payload is a one-line
//!   JSON object (`{"op":"upsert","row":N,"value":...}` or
//!   `{"op":"remove","row":N}`).
//!
//! Recovery ([`IndexStore::open`]) loads the checkpoint, which must pass
//! [`IncrementalIndex::verify_invariants`], replays the log, and verifies
//! the index again when the log held operations. The frame format makes
//! torn writes detectable and recoverable: a crash mid-append leaves a
//! final record that is a strict prefix of a valid frame, which recovery
//! drops (truncating the log back to the last complete record) — the index
//! state is then exactly the pre-crash state minus the interrupted write.
//! Any *interior* damage — a header that is not hex-and-spaces, a payload
//! whose CRC does not match, a missing `\n` terminator, a checkpoint whose
//! length, CRC or contents do not check out — is a hard error, never a
//! silently wrong index.
//!
//! Replaying an operation is idempotent (an upsert carries the record's
//! absolute value, not a delta), so [`IndexStore::snapshot`] can rename the
//! new checkpoint into place *before* truncating the log: a crash between
//! the two steps merely replays ops the checkpoint already contains.
//!
//! **Probe bounds persist as of the last checkpoint.** `top_k` and
//! `max_posting` are probe tuning, not catalog operations, so the log does
//! not carry them. A change made through [`PersistentIndex::index_mut`] (or
//! [`Matcher::set_probe_limits`](crate::Matcher::set_probe_limits) on a
//! store-backed matcher) reaches disk with the next
//! [`IndexStore::snapshot`]; a reopen before that restores the bounds of
//! the last checkpoint. Callers that need new bounds to survive a restart
//! snapshot after setting them, or set them again after open.
//!
//! **Legacy directories.** A `snapshot.json` that does not start with the
//! magic is a version-1 JSON snapshot (attribute, `min_overlap`,
//! `shard_span`, tokens and each row's token ids; postings rebuilt on
//! load; probe bounds off). It still loads, and nothing writes one any
//! more: the first [`IndexStore::snapshot`] of such a directory renames a
//! binary checkpoint over it, then truncates the log, which migrates it.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{IncrementalIndex, IndexOptions, DEFAULT_SHARD_SPAN};
use em_ml::jsonio;
use em_rt::Json;

/// WAL records appended.
static APPENDS: em_obs::Counter = em_obs::Counter::new("serve.store_appends");
/// Snapshots written.
static SNAPSHOTS: em_obs::Counter = em_obs::Counter::new("serve.store_snapshots");
/// WAL records replayed during recovery.
static REPLAYED: em_obs::Counter = em_obs::Counter::new("serve.store_replayed");
/// Torn final records dropped during recovery.
static TORN_TAILS: em_obs::Counter = em_obs::Counter::new("serve.store_torn_tails");
/// Operations in the log since the last snapshot (live-telemetry runs only).
static G_WAL_RECORDS: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.wal_records");
/// Bytes of complete frames in the log (live-telemetry runs only).
static G_WAL_BYTES: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.wal_bytes");

/// Frame header: 8 hex length digits, space, 8 hex CRC digits, space.
pub(crate) const HEADER_LEN: usize = 18;

/// First bytes of a binary checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"em-index";
/// Checkpoint format version this build writes and reads.
const CHECKPOINT_VERSION: u32 = 2;
/// Checkpoint frame: magic, version, payload length, payload CRC-32.
const CHECKPOINT_HEADER: usize = 24;

/// CRC-32 (IEEE 802.3, reflected polynomial) lookup table, built at
/// compile time so the crate stays dependency-free.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// `index`'s checkpoint file: the frame header, then the payload
/// [`IncrementalIndex::write_checkpoint`] appends.
pub fn encode_checkpoint(index: &IncrementalIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.resize(CHECKPOINT_HEADER, 0);
    index.write_checkpoint(&mut out);
    let payload_len = (out.len() - CHECKPOINT_HEADER) as u64;
    let crc = crc32(&out[CHECKPOINT_HEADER..]);
    out[12..20].copy_from_slice(&payload_len.to_le_bytes());
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Load an [`encode_checkpoint`] file: check the frame, then hand the
/// payload to [`IncrementalIndex::from_checkpoint`], which returns only a
/// verified index.
///
/// # Errors
/// Fails on a short or foreign header, an unknown version, a length that
/// is not the payload's, a CRC mismatch, or any payload defect.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<IncrementalIndex, String> {
    let Some((header, payload)) = bytes.split_at_checked(CHECKPOINT_HEADER) else {
        return Err("checkpoint: header truncated".into());
    };
    let field = |range: std::ops::Range<usize>| {
        header[range]
            .iter()
            .rev()
            .fold(0u64, |v, &b| (v << 8) | u64::from(b))
    };
    if header[..8] != CHECKPOINT_MAGIC {
        return Err("checkpoint: bad magic".into());
    }
    let version = field(8..12);
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(format!(
            "checkpoint: version {version} unsupported (this build reads {CHECKPOINT_VERSION})"
        ));
    }
    let len = field(12..20);
    if len != payload.len() as u64 {
        return Err(format!(
            "checkpoint: length {len} != {} payload bytes",
            payload.len()
        ));
    }
    if field(20..24) != u64::from(crc32(payload)) {
        return Err("checkpoint: crc mismatch".into());
    }
    IncrementalIndex::from_checkpoint(payload).map_err(|e| format!("checkpoint: {e}"))
}

/// Load a version-1 JSON snapshot through [`IncrementalIndex::from_parts`],
/// which rebuilds postings and rejects out-of-range or unsorted token ids,
/// then verify it as every loaded checkpoint is. Rows are decoded one at a
/// time as the index consumes them. Documents written before sharding (no
/// `shard_span` field) load with the default span; probe bounds load off.
fn snapshot_from_json(j: &Json) -> Result<IncrementalIndex, String> {
    let attribute = jsonio::as_str(jsonio::field(j, "attribute")?)?;
    let tokens = jsonio::field(j, "tokens")?
        .as_arr()
        .ok_or("tokens: expected array")?
        .iter()
        .map(|t| jsonio::as_str(t).map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    let opts = IndexOptions {
        min_overlap: jsonio::as_usize(jsonio::field(j, "min_overlap")?)?,
        shard_span: match jsonio::field(j, "shard_span") {
            Ok(v) => jsonio::as_usize(v)?,
            Err(_) => DEFAULT_SHARD_SPAN,
        },
        ..IndexOptions::default()
    };
    let records = jsonio::field(j, "records")?
        .as_arr()
        .ok_or("records: expected array")?
        .iter()
        .enumerate()
        .map(|(row, rec)| match rec {
            Json::Null => Ok(None),
            ids => jsonio::usize_vec(ids)?
                .into_iter()
                .map(|id| {
                    u32::try_from(id)
                        .map_err(|_| format!("record {row}: token id {id} out of range"))
                })
                .collect::<Result<Vec<u32>, String>>()
                .map(Some),
        });
    let index = IncrementalIndex::from_parts(attribute, opts, tokens, records)?;
    index.verify_invariants()?;
    Ok(index)
}

/// Load `snapshot.json` in whichever format its first bytes name.
fn load_snapshot(path: &Path) -> Result<IncrementalIndex, String> {
    let bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
    if bytes.starts_with(&CHECKPOINT_MAGIC) {
        return decode_checkpoint(&bytes);
    }
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("snapshot: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("snapshot: {e}"))?;
    snapshot_from_json(&doc).map_err(|e| format!("snapshot: {e}"))
}

/// One replayable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Upsert { row: usize, value: Option<String> },
    Remove { row: usize },
}

impl Op {
    fn to_payload(&self) -> String {
        match self {
            Op::Upsert { row, value } => Json::obj([
                ("op", Json::from("upsert")),
                ("row", Json::from(*row)),
                (
                    "value",
                    match value {
                        Some(s) => Json::from(s.as_str()),
                        None => Json::Null,
                    },
                ),
            ])
            .render(),
            Op::Remove { row } => {
                Json::obj([("op", Json::from("remove")), ("row", Json::from(*row))]).render()
            }
        }
    }

    fn from_payload(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("wal payload: {e}"))?;
        let j = Json::parse(text).map_err(|e| format!("wal payload: {e}"))?;
        let op = jsonio::as_str(jsonio::field(&j, "op")?)?;
        let row = jsonio::as_usize(jsonio::field(&j, "row")?)?;
        match op {
            "upsert" => {
                check_upsert_row(row).map_err(|e| format!("wal payload: {e}"))?;
                let value = match jsonio::field(&j, "value")? {
                    Json::Null => None,
                    other => Some(jsonio::as_str(other)?.to_string()),
                };
                Ok(Op::Upsert { row, value })
            }
            "remove" => Ok(Op::Remove { row }),
            other => Err(format!("wal payload: unknown op {other:?}")),
        }
    }

    fn apply(&self, index: &mut IncrementalIndex) {
        match self {
            Op::Upsert { row, value } => index.upsert(*row, value.as_deref()),
            Op::Remove { row } => index.remove(*row),
        }
    }
}

/// Reject an upsert of a row the index cannot hold (see
/// [`IncrementalIndex::MAX_ROWS`]). Such an op must never reach the log,
/// where every later open would replay it.
fn check_upsert_row(row: usize) -> Result<(), String> {
    if row < IncrementalIndex::MAX_ROWS {
        Ok(())
    } else {
        Err(format!(
            "upsert of row {row}, beyond the index's u32 row ids"
        ))
    }
}

/// Frame `payload` for the log: hex length + hex CRC + payload + newline.
pub(crate) fn frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + bytes.len() + 1);
    out.extend_from_slice(format!("{:08x} {:08x} ", bytes.len(), crc32(bytes)).as_bytes());
    out.extend_from_slice(bytes);
    out.push(b'\n');
    out
}

/// True when `bytes` could be the prefix of a well-formed frame header
/// (hex digits with spaces at offsets 8 and 17) — i.e. a torn write, not
/// interior corruption.
pub(crate) fn is_header_prefix(bytes: &[u8]) -> bool {
    bytes.iter().enumerate().all(|(i, &b)| match i {
        8 | 17 => b == b' ',
        _ => b.is_ascii_hexdigit() && !b.is_ascii_uppercase(),
    })
}

/// Parse 8 lowercase hex digits.
pub(crate) fn parse_hex8(bytes: &[u8]) -> Option<u32> {
    let s = std::str::from_utf8(bytes).ok()?;
    u32::from_str_radix(s, 16).ok()
}

/// Walk the frames of a log, handing each complete frame's byte offset and
/// payload to `visit`. Returns the byte length of the complete-frame
/// prefix: shorter than `bytes.len()` only when a torn final frame (a
/// strict prefix of a well-formed one) was dropped. Interior damage is an
/// error whose message starts with `log`.
pub(crate) fn scan_frames(
    bytes: &[u8],
    log: &str,
    mut visit: impl FnMut(usize, &[u8]) -> Result<(), String>,
) -> Result<usize, String> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let header = &rest[..HEADER_LEN.min(rest.len())];
        if !is_header_prefix(header) {
            return Err(format!("{log}: corrupt frame header at byte {pos}"));
        }
        if header.len() < HEADER_LEN {
            return Ok(pos); // torn header, drop
        }
        let len = parse_hex8(&header[0..8]).ok_or_else(|| format!("{log}: bad length field"))?;
        let crc = parse_hex8(&header[9..17]).ok_or_else(|| format!("{log}: bad crc field"))?;
        let end = HEADER_LEN + len as usize;
        if rest.len() <= end {
            return Ok(pos); // torn payload, drop
        }
        if rest[end] != b'\n' {
            return Err(format!("{log}: missing frame terminator at byte {pos}"));
        }
        let payload = &rest[HEADER_LEN..end];
        if crc32(payload) != crc {
            return Err(format!("{log}: crc mismatch at byte {pos}"));
        }
        visit(pos, payload)?;
        pos += end + 1;
    }
    Ok(pos)
}

/// Replay `bytes` into `index`. Returns `(valid_len, n_replayed)`:
/// `valid_len` is the byte length of the complete-frame prefix (shorter
/// than `bytes.len()` only when a torn final record was dropped).
fn replay(bytes: &[u8], index: &mut IncrementalIndex) -> Result<(u64, u64), String> {
    let mut replayed = 0u64;
    let valid_len = scan_frames(bytes, "wal", |_, payload| {
        Op::from_payload(payload)?.apply(index);
        replayed += 1;
        REPLAYED.incr();
        Ok(())
    })?;
    if valid_len < bytes.len() {
        TORN_TAILS.incr();
    }
    Ok((valid_len as u64, replayed))
}

pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// On-disk home of one serving index: the `snapshot.json` checkpoint +
/// `wal.log` in a directory. See the module docs for the format and
/// recovery rules.
pub struct IndexStore {
    dir: PathBuf,
    log: File,
    log_bytes: u64,
    log_records: u64,
}

impl IndexStore {
    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.json")
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Initialize `dir` with a snapshot of `index` and an empty log,
    /// creating the directory if needed.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn create(dir: impl Into<PathBuf>, index: &IncrementalIndex) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let mut store = IndexStore {
            log: OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::wal_path(&dir))
                .map_err(|e| io_err("open", &Self::wal_path(&dir), e))?,
            dir,
            log_bytes: 0,
            log_records: 0,
        };
        store.write_snapshot(index)?;
        Ok(store)
    }

    /// Recover the index persisted in `dir`: load the checkpoint (binary,
    /// or a legacy JSON snapshot) and verify it, replay the log (dropping a
    /// torn final record and truncating the file back to the last complete
    /// frame), and verify the index again when the log held operations.
    /// The loaded index is verified before the log replays onto it, so
    /// replay never starts from a state it could trip over, and with an
    /// empty log the replayed index is the verified one.
    ///
    /// # Errors
    /// Fails on a missing/corrupt checkpoint, interior log corruption, or an
    /// invariant violation in the loaded or recovered index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, IncrementalIndex), String> {
        let dir = dir.into();
        let mut index = load_snapshot(&Self::snapshot_path(&dir))?;
        let wal_path = Self::wal_path(&dir);
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err("open", &wal_path, e))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &wal_path, e))?;
        let (valid_len, log_records) = replay(&bytes, &mut index)?;
        if valid_len < bytes.len() as u64 {
            log.set_len(valid_len)
                .map_err(|e| io_err("truncate", &wal_path, e))?;
        }
        log.seek(SeekFrom::Start(valid_len))
            .map_err(|e| io_err("seek", &wal_path, e))?;
        if log_records > 0 {
            index
                .verify_invariants()
                .map_err(|e| format!("recovered index failed invariants: {e}"))?;
        }
        Ok((
            IndexStore {
                dir,
                log,
                log_bytes: valid_len,
                log_records,
            },
            index,
        ))
    }

    /// Append one upsert to the log (call before applying it to the index).
    ///
    /// # Errors
    /// Propagates filesystem failures. Rejects a row the index cannot hold
    /// ([`IncrementalIndex::MAX_ROWS`] or above) without writing anything.
    pub fn log_upsert(&mut self, row: usize, value: Option<&str>) -> Result<(), String> {
        check_upsert_row(row)?;
        self.append(&Op::Upsert {
            row,
            value: value.map(str::to_string),
        })
    }

    /// Append one remove to the log (call before applying it to the index).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn log_remove(&mut self, row: usize) -> Result<(), String> {
        self.append(&Op::Remove { row })
    }

    fn append(&mut self, op: &Op) -> Result<(), String> {
        let framed = frame(&op.to_payload());
        let wal_path = Self::wal_path(&self.dir);
        self.log.write_all(&framed).map_err(|e| {
            let msg = io_err("append", &wal_path, e);
            // A failed append means the on-disk log no longer tracks the
            // index; surface it on `/healthz` until a snapshot recovers.
            em_obs::live::set_health("wal", Err(msg.clone()));
            msg
        })?;
        self.log_bytes += framed.len() as u64;
        self.log_records += 1;
        APPENDS.incr();
        self.publish_gauges();
        Ok(())
    }

    /// Write a fresh checkpoint of `index` and reset the log. The
    /// checkpoint lands atomically (temp + rename) *before* the log is
    /// truncated; replay idempotence makes a crash between the two steps
    /// harmless. In a legacy directory the rename replaces the JSON
    /// snapshot, which completes its migration.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn snapshot(&mut self, index: &IncrementalIndex) -> Result<(), String> {
        self.write_snapshot(index)?;
        let wal_path = Self::wal_path(&self.dir);
        self.log
            .set_len(0)
            .map_err(|e| io_err("truncate", &wal_path, e))?;
        self.log
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", &wal_path, e))?;
        self.log_bytes = 0;
        self.log_records = 0;
        self.publish_gauges();
        Ok(())
    }

    /// Publish WAL size gauges to the live-metrics registry.
    fn publish_gauges(&self) {
        if !em_obs::live::enabled() {
            return;
        }
        G_WAL_RECORDS.set(self.log_records);
        G_WAL_BYTES.set(self.log_bytes);
    }

    fn write_snapshot(&mut self, index: &IncrementalIndex) -> Result<(), String> {
        let path = Self::snapshot_path(&self.dir);
        let tmp = self.dir.join("snapshot.json.tmp");
        fs::write(&tmp, encode_checkpoint(index)).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        SNAPSHOTS.incr();
        Ok(())
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of complete frames currently in the log.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Operations currently in the log (since the last snapshot).
    pub fn log_records(&self) -> u64 {
        self.log_records
    }
}

/// Run `index`'s full invariant check and publish the result as the
/// `index` component of the live health registry (served by `/healthz`).
pub(crate) fn publish_index_health(index: &IncrementalIndex) -> Result<(), String> {
    let res = index.verify_invariants();
    em_obs::live::set_health(
        "index",
        res.clone().map(|()| {
            format!(
                "{} live records, stale debt {}",
                index.len(),
                index.stale_debt()
            )
        }),
    );
    res
}

/// An [`IncrementalIndex`] bound to an [`IndexStore`]: every mutation is
/// WAL-logged before it is applied, so the on-disk state never lags the
/// in-memory index by more than the operation in flight.
pub struct PersistentIndex {
    index: IncrementalIndex,
    store: IndexStore,
}

impl PersistentIndex {
    /// Persist `index` into `dir` (snapshot + empty log) and wrap it.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn create(dir: impl Into<PathBuf>, index: IncrementalIndex) -> Result<Self, String> {
        let store = IndexStore::create(dir, &index)?;
        Ok(PersistentIndex { index, store })
    }

    /// Recover the index persisted in `dir`.
    ///
    /// # Errors
    /// Fails on a missing/corrupt snapshot, interior log corruption, or an
    /// invariant violation in the recovered index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let (store, index) = IndexStore::open(dir)?;
        Ok(PersistentIndex { index, store })
    }

    /// Log then apply an upsert. See [`IncrementalIndex::upsert`].
    ///
    /// # Errors
    /// Propagates filesystem failures and rejects a row the index cannot
    /// hold ([`IncrementalIndex::MAX_ROWS`] or above); the log and the index
    /// are untouched on error.
    pub fn upsert(&mut self, row: usize, value: Option<&str>) -> Result<(), String> {
        self.store.log_upsert(row, value)?;
        self.index.upsert(row, value);
        Ok(())
    }

    /// Log then apply a remove. See [`IncrementalIndex::remove`].
    ///
    /// # Errors
    /// Propagates filesystem failures; the index is untouched on error.
    pub fn remove(&mut self, row: usize) -> Result<(), String> {
        self.store.log_remove(row)?;
        self.index.remove(row);
        Ok(())
    }

    /// Probe for candidates. See [`IncrementalIndex::candidates`].
    pub fn candidates(&self, queries: &em_table::Table, jobs: usize) -> Vec<em_table::RecordPair> {
        self.index.candidates(queries, jobs)
    }

    /// Fold the log into a fresh snapshot. See [`IndexStore::snapshot`].
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn snapshot(&mut self) -> Result<(), String> {
        self.store.snapshot(&self.index)
    }

    /// The in-memory index.
    pub fn index(&self) -> &IncrementalIndex {
        &self.index
    }

    /// Mutable access for tuning that is not logged: probe limits set here
    /// reach disk with the next [`Self::snapshot`], and a reopen before
    /// that restores the last checkpoint's (see the module docs).
    /// Mutations that change catalog state must go through
    /// [`Self::upsert`] / [`Self::remove`] or they will not survive
    /// recovery.
    pub fn index_mut(&mut self) -> &mut IncrementalIndex {
        &mut self.index
    }

    /// The backing store.
    pub fn store(&self) -> &IndexStore {
        &self.store
    }

    /// Run the full index invariant check and publish index + WAL status to
    /// the live health registry (components `index` and `wal`, served by
    /// `/healthz`). Returns the verification result so harnesses can also
    /// fail fast locally.
    ///
    /// # Errors
    /// Returns the first invariant violation, exactly as
    /// [`IncrementalIndex::verify_invariants`] reports it.
    pub fn verify_and_report(&self) -> Result<(), String> {
        let res = publish_index_health(&self.index);
        em_obs::live::set_health(
            "wal",
            Ok(format!(
                "{} records / {} bytes since last snapshot",
                self.store.log_records(),
                self.store.log_bytes()
            )),
        );
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_through_replay() {
        let ops = [
            Op::Upsert {
                row: 3,
                value: Some("fenix at the argyle".into()),
            },
            Op::Upsert {
                row: 5,
                value: None,
            },
            Op::Remove { row: 3 },
        ];
        let mut bytes = Vec::new();
        for op in &ops {
            bytes.extend_from_slice(&frame(&op.to_payload()));
        }
        let mut index = IncrementalIndex::new("name", 1);
        let (valid, n) = replay(&bytes, &mut index).unwrap();
        assert_eq!(valid, bytes.len() as u64);
        assert_eq!(n, 3);
        assert_eq!(index.len(), 0); // row 3 upserted then removed; row 5 null
        index.verify_invariants().unwrap();
    }

    #[test]
    fn payload_parse_rejects_unknown_ops() {
        assert!(Op::from_payload(br#"{"op":"merge","row":1}"#).is_err());
    }

    #[test]
    fn payload_parse_rejects_rows_the_index_cannot_hold() {
        let last = br#"{"op":"upsert","row":4294967294,"value":null}"#;
        assert!(Op::from_payload(last).is_ok());
        let err = Op::from_payload(br#"{"op":"upsert","row":4294967295,"value":"x"}"#)
            .expect_err("row u32::MAX accepted");
        assert!(err.contains("upsert of row 4294967295"), "{err}");
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable() {
        let catalog = em_table::parse_csv(
            "name\narnie mortons of chicago\nfenix at the argyle\ngrill on the alley\n",
        )
        .unwrap();
        let queries = em_table::parse_csv("name\nfenix at the argyle\nthe alley grill\n").unwrap();
        let mut index = IncrementalIndex::build("name", 1, &catalog).unwrap();
        index.remove(2);
        index.upsert(7, Some("late arrival grill"));
        index.set_probe_limits(Some(5), None);
        let file = encode_checkpoint(&index);
        let loaded = decode_checkpoint(&file).unwrap();
        assert_eq!(encode_checkpoint(&loaded), file);
        assert_eq!(loaded.options(), index.options());
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.stale_debt(), 0);
        assert_eq!(
            loaded.candidates(&queries, 0),
            index.candidates(&queries, 0)
        );
    }

    #[test]
    fn checkpoint_frame_defects_are_rejected() {
        let mut index = IncrementalIndex::new("name", 1);
        index.upsert(0, Some("fenix at the argyle"));
        let file = encode_checkpoint(&index);
        let with = |at: usize, bytes: &[u8]| {
            let mut f = file.clone();
            f[at..at + bytes.len()].copy_from_slice(bytes);
            decode_checkpoint(&f).err().expect("defect accepted")
        };
        assert_eq!(
            decode_checkpoint(&file[..CHECKPOINT_HEADER - 1])
                .err()
                .unwrap(),
            "checkpoint: header truncated"
        );
        assert_eq!(with(0, b"em-indey"), "checkpoint: bad magic");
        assert!(with(8, &3u32.to_le_bytes()).contains("version 3 unsupported"));
        assert!(with(12, &u64::MAX.to_le_bytes()).contains("payload bytes"));
        let last = file.len() - 1;
        assert_eq!(with(last, &[file[last] ^ 1]), "checkpoint: crc mismatch");
        let mut longer = file.clone();
        longer.push(0);
        let err = decode_checkpoint(&longer).err().unwrap();
        assert!(err.contains("payload bytes"), "{err}");
    }
}
