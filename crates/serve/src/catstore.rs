//! Row-addressable on-disk catalog store: the record-fetch substrate that
//! lets the matcher serve million-record catalogs without holding the
//! catalog `Table` in memory.
//!
//! ## Layout
//!
//! A store is a directory of three files:
//!
//! * **`records.dat`** — the record file: one CRC-framed payload per
//!   catalog row, append-only. Frames use the exact [`crate::store`] WAL
//!   framing (`llllllll cccccccc <payload>\n`, lowercase-hex length and
//!   CRC-32); the payload is a one-line JSON array with one element per
//!   attribute, encoded so every [`Value`] round-trips bit-exactly
//!   (numbers keep their `f64` bits, non-finite values go through the
//!   `em_ml::jsonio` sentinels, text/null/bool are native JSON).
//! * **`rows.idx`** — the fixed-width row offset table: entry `r` is the
//!   byte offset of row `r`'s frame in `records.dat`, as 16 lowercase hex
//!   digits plus a newline (17 bytes). Fetching a row is two O(1) reads:
//!   offset at `r * 17`, then the frame at that offset.
//! * **`meta.json`** — the commit point: schema plus the `(rows,
//!   dat_bytes)` prefix of the other two files that is durably committed.
//!   Written atomically (temp + rename) by [`CatalogStore::commit`].
//!
//! ## Recovery discipline
//!
//! Same rules as [`crate::IndexStore`]: the region past the last commit is
//! an append log. [`CatalogStore::open`] trusts the committed prefix
//! (every fetch still CRC-verifies the frames it reads, so interior
//! corruption there surfaces as a hard error at read time, never as a
//! silently wrong record), then scans the uncommitted tail frame by
//! frame: complete valid frames are recovered as appended rows, a torn
//! final frame is dropped and truncated away, and any *interior* damage —
//! malformed header, CRC mismatch, missing terminator — is a hard error.
//! The offset table is rebuilt from the recovered frames (it is fully
//! redundant with `records.dat`), and the recovered state is re-committed.
//!
//! ## Hot-row cache
//!
//! [`CatalogStore::fetch_rows`] gathers a batch of rows into a [`Table`],
//! serving repeats from a bounded in-memory cache of decoded rows.
//! Eviction is seeded random replacement driven by a [`StdRng`] owned by
//! the cache, and each gather admits its freshly read rows in row order:
//! rows in an append-only store are immutable, so a cache hit can never
//! be stale, and because the store has one owner that fetches batches in
//! arrival order (a matcher's `match_batch` caller, or its stream's fetch
//! stage), the eviction sequence — and with it every hit and miss count
//! — is a pure function of the access sequence and the seed. Cached vs
//! uncached (capacity 0) fetches return bit-identical tables at any
//! `EM_THREADS`.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::store::{crc32, frame, io_err, is_header_prefix, parse_hex8, scan_frames, HEADER_LEN};
use em_ml::jsonio;
use em_obs::live::Gauge;
use em_obs::{Counter, Histogram};
use em_rt::{Json, StdRng};
use em_table::{Schema, Table, Value};

/// Store format tag (the `format` field of `meta.json`).
pub const CATALOG_FORMAT: &str = "em-serve.catalog";
/// Current store schema version.
pub const CATALOG_VERSION: u64 = 1;
/// Default hot-row cache capacity (rows).
pub const DEFAULT_HOT_ROWS: usize = 4096;
/// Default hot-row cache eviction seed.
pub const DEFAULT_CACHE_SEED: u64 = 0xCA7A_0106;

/// Bytes per fixed-width offset-table entry: 16 hex digits + newline.
const IDX_ENTRY: usize = 17;

/// Batched row gathers served.
static FETCHES: Counter = Counter::new("serve.catalog_fetches");
/// Rows decoded from disk by gathers.
static ROWS_READ: Counter = Counter::new("serve.catalog_rows_read");
/// Per-gather latency, ns.
static FETCH_NS: Histogram = Histogram::new("serve.catalog_fetch_ns");
/// Requested rows served from the hot-row cache.
static CACHE_HITS: Counter = Counter::new("serve.cache_hits");
/// Requested rows that missed the hot-row cache.
static CACHE_MISSES: Counter = Counter::new("serve.cache_misses");
/// Committed catalog rows (live-telemetry runs only).
static G_CATALOG_ROWS: Gauge = Gauge::new("serve.catalog_rows");
/// Current hot-row cache occupancy (live-telemetry runs only).
static G_HOT_ROWS: Gauge = Gauge::new("serve.catalog_hot_rows");

/// Encode one cell so it parses back to the identical [`Value`]. Finite
/// numbers stay JSON numbers (`em_rt::Json` renders a representation that
/// parses back bit-exactly); the exceptions go through `{"f":"NaN"}`-style
/// objects so they can never collide with a text cell holding `"NaN"`:
/// non-finite values (JSON has no spelling for them) and `-0.0` (the one
/// finite `f64` whose rendered form drops the sign bit).
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Text(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Number(x) if x.is_finite() && x.to_bits() != (-0.0f64).to_bits() => Json::Num(*x),
        Value::Number(x) if x.to_bits() == (-0.0f64).to_bits() => {
            Json::obj([("f", Json::Str("-0".to_string()))])
        }
        Value::Number(x) => Json::obj([("f", jsonio::num(*x))]),
    }
}

/// Decode a cell written by [`value_to_json`].
fn value_from_json(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Str(s) => Ok(Value::Text(s.clone())),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Num(x) => Ok(Value::Number(*x)),
        Json::Obj(_) => match jsonio::field(j, "f")? {
            Json::Str(s) if s == "-0" => Ok(Value::Number(-0.0)),
            f => jsonio::as_f64(f).map(Value::Number),
        },
        Json::Arr(_) => Err("catalog cell: unexpected array".to_string()),
    }
}

/// One row as a frame payload: a JSON array in attribute order.
fn row_payload(values: &[Value]) -> String {
    Json::arr(values.iter().map(value_to_json)).render()
}

/// Decode a frame payload into row values, checking arity against `schema`.
fn row_from_payload(payload: &[u8], schema: &Schema) -> Result<Vec<Value>, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("catalog row: {e}"))?;
    let j = Json::parse(text).map_err(|e| format!("catalog row: {e}"))?;
    let cells = j.as_arr().ok_or("catalog row: expected array")?;
    if cells.len() != schema.len() {
        return Err(format!(
            "catalog row holds {} cells, schema has {} attributes",
            cells.len(),
            schema.len()
        ));
    }
    cells.iter().map(value_from_json).collect()
}

/// Per-gather effects, for the matcher's batch telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Rows requested (including repeats within the batch).
    pub requested: u64,
    /// Requested rows served from the hot-row cache.
    pub cache_hits: u64,
    /// Distinct rows decoded from disk.
    pub rows_read: u64,
}

/// Bounded cache of decoded rows with seeded random-replacement eviction.
/// See the module docs for why this is deterministic.
struct HotRowCache {
    capacity: usize,
    map: HashMap<u32, Vec<Value>>,
    keys: Vec<u32>,
    rng: StdRng,
}

impl HotRowCache {
    fn new(capacity: usize, seed: u64) -> Self {
        HotRowCache {
            capacity,
            map: HashMap::new(),
            keys: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn get(&self, row: u32) -> Option<&Vec<Value>> {
        self.map.get(&row)
    }

    fn insert(&mut self, row: u32, values: Vec<Value>) {
        if self.capacity == 0 || self.map.contains_key(&row) {
            return;
        }
        if self.keys.len() >= self.capacity {
            let victim = self.rng.random_range(0..self.keys.len());
            let evicted = self.keys.swap_remove(victim);
            self.map.remove(&evicted);
        }
        self.keys.push(row);
        self.map.insert(row, values);
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// On-disk home of one serving catalog. See the module docs for the
/// layout, recovery rules, and cache semantics.
pub struct CatalogStore {
    dir: PathBuf,
    schema: Schema,
    /// Append handles (buffered; flushed before any read and on commit).
    dat_w: BufWriter<File>,
    idx_w: BufWriter<File>,
    /// Random-access read handles.
    dat_r: File,
    idx_r: File,
    /// Appended-but-unflushed frames pending in the writers.
    dirty: bool,
    rows: u32,
    dat_bytes: u64,
    committed_rows: u32,
    cache: HotRowCache,
}

impl CatalogStore {
    fn meta_path(dir: &Path) -> PathBuf {
        dir.join("meta.json")
    }

    fn dat_path(dir: &Path) -> PathBuf {
        dir.join("records.dat")
    }

    fn idx_path(dir: &Path) -> PathBuf {
        dir.join("rows.idx")
    }

    fn open_rw(path: &Path, truncate: bool) -> Result<File, String> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| io_err("open", path, e))
    }

    fn assemble(
        dir: PathBuf,
        schema: Schema,
        dat: File,
        idx: File,
        rows: u32,
        dat_bytes: u64,
    ) -> Result<Self, String> {
        let dat_r = File::open(Self::dat_path(&dir))
            .map_err(|e| io_err("open", &Self::dat_path(&dir), e))?;
        let idx_r = File::open(Self::idx_path(&dir))
            .map_err(|e| io_err("open", &Self::idx_path(&dir), e))?;
        Ok(CatalogStore {
            dir,
            schema,
            dat_w: BufWriter::new(dat),
            idx_w: BufWriter::new(idx),
            dat_r,
            idx_r,
            dirty: false,
            rows,
            dat_bytes,
            committed_rows: rows,
            cache: HotRowCache::new(DEFAULT_HOT_ROWS, DEFAULT_CACHE_SEED),
        })
    }

    /// Initialize `dir` as an empty store over `schema`, creating the
    /// directory if needed and truncating any previous store files.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn create(dir: impl Into<PathBuf>, schema: Schema) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let dat = Self::open_rw(&Self::dat_path(&dir), true)?;
        let idx = Self::open_rw(&Self::idx_path(&dir), true)?;
        let mut store = Self::assemble(dir, schema, dat, idx, 0, 0)?;
        store.commit()?;
        Ok(store)
    }

    /// Recover the store persisted in `dir`: load the committed prefix
    /// from `meta.json`, replay the uncommitted tail of `records.dat`
    /// (dropping a torn final frame, rejecting interior corruption),
    /// rebuild the offset table past the commit point, and re-commit.
    ///
    /// # Errors
    /// Fails on missing/corrupt metadata, a record file shorter than the
    /// committed prefix, or interior corruption in the tail.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        let meta_path = Self::meta_path(&dir);
        let text = fs::read_to_string(&meta_path).map_err(|e| io_err("read", &meta_path, e))?;
        let meta = Json::parse(&text).map_err(|e| format!("catalog meta: {e}"))?;
        let format = jsonio::as_str(jsonio::field(&meta, "format")?)?;
        if format != CATALOG_FORMAT {
            return Err(format!(
                "not a catalog store: format is {format:?}, expected {CATALOG_FORMAT:?}"
            ));
        }
        let version = jsonio::as_u64(jsonio::field(&meta, "version")?)?;
        if version != CATALOG_VERSION {
            return Err(format!(
                "unsupported catalog version {version} (this build reads version {CATALOG_VERSION})"
            ));
        }
        let attributes = jsonio::field(&meta, "attributes")?
            .as_arr()
            .ok_or("catalog meta: attributes must be an array")?
            .iter()
            .map(|v| jsonio::as_str(v).map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let schema = Schema::new(attributes);
        let committed_rows = jsonio::as_u64(jsonio::field(&meta, "rows")?)?;
        let committed_rows = u32::try_from(committed_rows)
            .map_err(|_| format!("catalog meta: {committed_rows} rows exceed u32"))?;
        let committed_bytes = jsonio::as_u64(jsonio::field(&meta, "dat_bytes")?)?;

        let dat_path = Self::dat_path(&dir);
        let mut dat = Self::open_rw(&dat_path, false)?;
        let dat_len = dat
            .metadata()
            .map_err(|e| io_err("stat", &dat_path, e))?
            .len();
        if dat_len < committed_bytes {
            return Err(format!(
                "catalog record file truncated below the commit point: \
                 {dat_len} bytes on disk, {committed_bytes} committed"
            ));
        }

        // Scan the uncommitted tail: every complete frame is a recovered
        // row, a torn final frame is dropped, interior damage is fatal.
        dat.seek(SeekFrom::Start(committed_bytes))
            .map_err(|e| io_err("seek", &dat_path, e))?;
        let mut tail = Vec::new();
        dat.read_to_end(&mut tail)
            .map_err(|e| io_err("read", &dat_path, e))?;
        let mut recovered: Vec<u64> = Vec::new();
        let valid_tail = scan_frames(&tail, "catalog tail", |pos, payload| {
            // Decode now so a structurally-broken payload is rejected at
            // recovery, not at first fetch.
            row_from_payload(payload, &schema)?;
            recovered.push(committed_bytes + pos as u64);
            Ok(())
        })?;
        let dat_bytes = committed_bytes + valid_tail as u64;
        if dat_bytes < dat_len {
            dat.set_len(dat_bytes)
                .map_err(|e| io_err("truncate", &dat_path, e))?;
        }
        dat.seek(SeekFrom::Start(dat_bytes))
            .map_err(|e| io_err("seek", &dat_path, e))?;
        let rows = committed_rows as u64 + recovered.len() as u64;
        if rows > u64::from(u32::MAX) {
            return Err("catalog store: row count exceeds u32".to_string());
        }

        // The offset table is redundant with records.dat: truncate it to
        // the committed prefix, then re-append entries for recovered rows.
        let idx_path = Self::idx_path(&dir);
        let mut idx = Self::open_rw(&idx_path, false)?;
        let committed_idx = u64::from(committed_rows) * IDX_ENTRY as u64;
        if idx
            .metadata()
            .map_err(|e| io_err("stat", &idx_path, e))?
            .len()
            < committed_idx
        {
            return Err(format!(
                "catalog offset table truncated below the commit point \
                 ({committed_rows} committed rows)"
            ));
        }
        idx.set_len(committed_idx)
            .map_err(|e| io_err("truncate", &idx_path, e))?;
        idx.seek(SeekFrom::Start(committed_idx))
            .map_err(|e| io_err("seek", &idx_path, e))?;
        for off in &recovered {
            idx.write_all(format!("{off:016x}\n").as_bytes())
                .map_err(|e| io_err("append", &idx_path, e))?;
        }

        let mut store = Self::assemble(dir, schema, dat, idx, rows as u32, dat_bytes)?;
        store.commit()?;
        Ok(store)
    }

    /// Append one row; returns its catalog row id. The row is durable only
    /// after the next [`Self::commit`] (or recovery of its complete frame
    /// from the uncommitted tail).
    ///
    /// # Errors
    /// Fails on arity mismatch or filesystem errors.
    pub fn append_row(&mut self, values: &[Value]) -> Result<u32, String> {
        if values.len() != self.schema.len() {
            return Err(format!(
                "append: row holds {} cells, schema has {} attributes",
                values.len(),
                self.schema.len()
            ));
        }
        if self.rows == u32::MAX {
            return Err("catalog store: row count exceeds u32".to_string());
        }
        let framed = frame(&row_payload(values));
        let dat_path = Self::dat_path(&self.dir);
        self.dat_w
            .write_all(&framed)
            .map_err(|e| io_err("append", &dat_path, e))?;
        self.idx_w
            .write_all(format!("{:016x}\n", self.dat_bytes).as_bytes())
            .map_err(|e| io_err("append", &Self::idx_path(&self.dir), e))?;
        let row = self.rows;
        self.dat_bytes += framed.len() as u64;
        self.rows += 1;
        self.dirty = true;
        Ok(row)
    }

    /// Append every row of `t` (schemas must match).
    ///
    /// # Errors
    /// Fails on schema mismatch or filesystem errors.
    pub fn append_table(&mut self, t: &Table) -> Result<(), String> {
        if t.schema() != &self.schema {
            return Err("append: table schema differs from store schema".to_string());
        }
        for rec in t.records() {
            self.append_row(rec.values())?;
        }
        Ok(())
    }

    /// Flush buffered appends and atomically advance the commit point to
    /// cover every appended row (the snapshot step of the recovery
    /// discipline: committed bytes are trusted, the tail is replayed).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn commit(&mut self) -> Result<(), String> {
        self.flush_writers()?;
        let meta = Json::obj([
            ("format", Json::from(CATALOG_FORMAT)),
            ("version", Json::from(CATALOG_VERSION)),
            (
                "attributes",
                Json::arr(self.schema.iter().map(|a| Json::from(a.name.as_str()))),
            ),
            ("rows", Json::from(u64::from(self.rows))),
            ("dat_bytes", Json::from(self.dat_bytes)),
        ]);
        let path = Self::meta_path(&self.dir);
        let tmp = self.dir.join("meta.json.tmp");
        fs::write(&tmp, meta.render_pretty(2) + "\n").map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        self.committed_rows = self.rows;
        if em_obs::live::enabled() {
            G_CATALOG_ROWS.set(u64::from(self.rows));
        }
        Ok(())
    }

    fn flush_writers(&mut self) -> Result<(), String> {
        if !self.dirty {
            return Ok(());
        }
        self.dat_w
            .flush()
            .map_err(|e| io_err("flush", &Self::dat_path(&self.dir), e))?;
        self.idx_w
            .flush()
            .map_err(|e| io_err("flush", &Self::idx_path(&self.dir), e))?;
        self.dirty = false;
        Ok(())
    }

    /// Replace the hot-row cache with a fresh one of `capacity` rows
    /// (0 disables caching entirely) evicting with `seed`.
    pub fn configure_cache(&mut self, capacity: usize, seed: u64) {
        self.cache = HotRowCache::new(capacity, seed);
    }

    /// Read one row's frame from disk and decode it.
    fn read_row(&mut self, row: u32) -> Result<Vec<Value>, String> {
        let idx_path = Self::idx_path(&self.dir);
        let dat_path = Self::dat_path(&self.dir);
        let mut entry = [0u8; IDX_ENTRY];
        self.idx_r
            .seek(SeekFrom::Start(u64::from(row) * IDX_ENTRY as u64))
            .map_err(|e| io_err("seek", &idx_path, e))?;
        self.idx_r
            .read_exact(&mut entry)
            .map_err(|e| io_err("read", &idx_path, e))?;
        let hi = parse_hex8(&entry[0..8]).ok_or("rows.idx: bad offset entry")?;
        let lo = parse_hex8(&entry[8..16]).ok_or("rows.idx: bad offset entry")?;
        if entry[16] != b'\n' {
            return Err("rows.idx: bad offset entry terminator".to_string());
        }
        let offset = (u64::from(hi) << 32) | u64::from(lo);

        let mut header = [0u8; HEADER_LEN];
        self.dat_r
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", &dat_path, e))?;
        self.dat_r
            .read_exact(&mut header)
            .map_err(|e| io_err("read", &dat_path, e))?;
        if !is_header_prefix(&header) {
            return Err(format!("records.dat: corrupt frame header for row {row}"));
        }
        let len = parse_hex8(&header[0..8]).ok_or("records.dat: bad length field")? as usize;
        let crc = parse_hex8(&header[9..17]).ok_or("records.dat: bad crc field")?;
        // A corrupt length must not size the allocation below.
        let end = offset.saturating_add((HEADER_LEN + len + 1) as u64);
        if end > self.dat_bytes {
            return Err(format!(
                "records.dat: frame length {len} for row {row} runs past the {} data bytes",
                self.dat_bytes
            ));
        }
        let mut payload = vec![0u8; len + 1];
        self.dat_r
            .read_exact(&mut payload)
            .map_err(|e| io_err("read", &dat_path, e))?;
        if payload[len] != b'\n' {
            return Err(format!(
                "records.dat: missing frame terminator for row {row}"
            ));
        }
        payload.truncate(len);
        if crc32(&payload) != crc {
            return Err(format!("records.dat: crc mismatch for row {row}"));
        }
        row_from_payload(&payload, &self.schema)
    }

    /// Batched gather: a [`Table`] whose row `i` is catalog row `rows[i]`
    /// (any order, repeats allowed). Repeats and hot rows come from the
    /// cache; everything else is decoded from disk (and admitted to the
    /// cache). Output is identical for every cache configuration.
    ///
    /// # Errors
    /// Fails on out-of-range rows, I/O errors, or frame corruption.
    pub fn fetch_rows(&mut self, rows: &[u32]) -> Result<Table, String> {
        self.fetch_rows_with_stats(rows).map(|(t, _)| t)
    }

    /// [`Self::fetch_rows`] plus the gather's [`FetchStats`], for serving
    /// telemetry.
    ///
    /// # Errors
    /// Fails on out-of-range rows, I/O errors, or frame corruption.
    pub fn fetch_rows_with_stats(&mut self, rows: &[u32]) -> Result<(Table, FetchStats), String> {
        let _span = em_obs::span!("serve.catalog.fetch");
        let started = Instant::now();
        self.flush_writers()?;
        let mut stats = FetchStats {
            requested: rows.len() as u64,
            ..FetchStats::default()
        };
        let mut out = Table::new(self.schema.clone());
        // Decoded-this-gather rows, so in-batch repeats never re-read disk
        // even when the cache is disabled or has already evicted them.
        let mut fresh: HashMap<u32, Vec<Value>> = HashMap::new();
        for &row in rows {
            if row >= self.rows {
                return Err(format!(
                    "fetch: row {row} out of range (store holds {} rows)",
                    self.rows
                ));
            }
            let values = if let Some(v) = self.cache.get(row) {
                stats.cache_hits += 1;
                v.clone()
            } else if let Some(v) = fresh.get(&row) {
                stats.cache_hits += 1;
                v.clone()
            } else {
                stats.rows_read += 1;
                let v = self.read_row(row)?;
                fresh.insert(row, v.clone());
                v
            };
            out.push_row(values).expect("schema arity holds");
        }
        // Admit in row order: the map's iteration order follows its random
        // hash seed, and would make the eviction sequence (so later hits)
        // differ from run to run.
        let mut fresh: Vec<(u32, Vec<Value>)> = fresh.into_iter().collect();
        fresh.sort_unstable_by_key(|&(row, _)| row);
        for (row, values) in fresh {
            self.cache.insert(row, values);
        }
        let misses = stats.requested - stats.cache_hits;
        FETCHES.incr();
        ROWS_READ.add(stats.rows_read);
        CACHE_HITS.add(stats.cache_hits);
        CACHE_MISSES.add(misses);
        FETCH_NS.record(started.elapsed().as_nanos() as u64);
        G_HOT_ROWS.set(self.cache.len() as u64);
        Ok((out, stats))
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows in the store (committed + appended).
    pub fn len(&self) -> usize {
        self.rows as usize
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows covered by the last commit.
    pub fn committed_rows(&self) -> usize {
        self.committed_rows as usize
    }

    /// Bytes in the record file (committed + appended frames).
    pub fn dat_bytes(&self) -> u64 {
        self.dat_bytes
    }

    /// Rows currently held by the hot-row cache.
    pub fn cached_rows(&self) -> usize {
        self.cache.len()
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(["name", "rating", "open"])
    }

    fn sample_rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Text("fenix at the argyle".into()),
                Value::Number(4.5),
                Value::Bool(true),
            ],
            vec![Value::Null, Value::Number(-0.0), Value::Bool(false)],
            vec![
                Value::Text(String::new()),
                Value::Number(f64::NAN),
                Value::Null,
            ],
            vec![
                Value::Text("café 北京 nørd".into()),
                Value::Number(1.0 / 3.0),
                Value::Null,
            ],
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("em-catstore-{tag}-{}", std::process::id()))
    }

    fn assert_rows_eq(t: &Table, want: &[Vec<Value>], rows: &[u32]) {
        assert_eq!(t.len(), rows.len());
        for (i, &r) in rows.iter().enumerate() {
            let got = t.record(i).values();
            let exp = &want[r as usize];
            assert_eq!(got.len(), exp.len());
            for (g, e) in got.iter().zip(exp) {
                match (g, e) {
                    (Value::Number(a), Value::Number(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "row {r}")
                    }
                    _ => assert_eq!(g, e, "row {r}"),
                }
            }
        }
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        for v in [
            Value::Null,
            Value::Text("NaN".into()),
            Value::Text("".into()),
            Value::Text("naïve ⊕ rows".into()),
            Value::Bool(true),
            Value::Number(0.1 + 0.2),
            Value::Number(-0.0),
            Value::Number(f64::NAN),
            Value::Number(f64::INFINITY),
            Value::Number(f64::NEG_INFINITY),
            Value::Number(f64::MIN_POSITIVE),
        ] {
            let j = Json::parse(&value_to_json(&v).render()).unwrap();
            let back = value_from_json(&j).unwrap();
            match (&v, &back) {
                (Value::Number(a), Value::Number(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
    }

    #[test]
    fn append_fetch_commit_reopen() {
        let dir = temp_dir("basic");
        let _ = fs::remove_dir_all(&dir);
        let rows = sample_rows();
        let mut store = CatalogStore::create(&dir, sample_schema()).unwrap();
        for r in &rows {
            store.append_row(r).unwrap();
        }
        // Uncommitted rows are fetchable (writers flush on demand).
        let order = [3u32, 0, 3, 1, 2, 2];
        assert_rows_eq(&store.fetch_rows(&order).unwrap(), &rows, &order);
        assert_eq!(store.committed_rows(), 0);
        store.commit().unwrap();
        drop(store);

        let mut reopened = CatalogStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), rows.len());
        assert_eq!(reopened.committed_rows(), rows.len());
        assert_rows_eq(&reopened.fetch_rows(&order).unwrap(), &rows, &order);
        assert!(reopened.fetch_rows(&[4]).is_err(), "out of range");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_uncommitted_tail_and_truncates_torn_frame() {
        let dir = temp_dir("torn");
        let _ = fs::remove_dir_all(&dir);
        let rows = sample_rows();
        let mut store = CatalogStore::create(&dir, sample_schema()).unwrap();
        store.append_row(&rows[0]).unwrap();
        store.commit().unwrap();
        // Two appends past the commit point, then a simulated crash that
        // tears the final frame mid-payload.
        store.append_row(&rows[1]).unwrap();
        store.append_row(&rows[2]).unwrap();
        store.flush_writers().unwrap();
        drop(store);
        let dat = CatalogStore::dat_path(&dir);
        let bytes = fs::read(&dat).unwrap();
        let torn = [&bytes[..], &frame(&row_payload(&rows[3]))[..20]].concat();
        fs::write(&dat, torn).unwrap();

        let mut reopened = CatalogStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3, "complete tail frames recovered");
        assert_eq!(reopened.committed_rows(), 3, "recovery re-commits");
        assert_rows_eq(&reopened.fetch_rows(&[0, 1, 2]).unwrap(), &rows, &[0, 1, 2]);
        // And appends continue cleanly after recovery.
        reopened.append_row(&rows[3]).unwrap();
        assert_rows_eq(&reopened.fetch_rows(&[3]).unwrap(), &rows, &[3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rejects_interior_corruption() {
        let dir = temp_dir("corrupt");
        let _ = fs::remove_dir_all(&dir);
        let rows = sample_rows();
        let mut store = CatalogStore::create(&dir, sample_schema()).unwrap();
        store.append_row(&rows[0]).unwrap();
        store.commit().unwrap();
        store.append_row(&rows[1]).unwrap();
        store.append_row(&rows[2]).unwrap();
        store.flush_writers().unwrap();
        let tail_start = {
            let meta = fs::read_to_string(CatalogStore::meta_path(&dir)).unwrap();
            let j = Json::parse(&meta).unwrap();
            jsonio::as_u64(jsonio::field(&j, "dat_bytes").unwrap()).unwrap() as usize
        };
        drop(store);
        let dat = CatalogStore::dat_path(&dir);
        let mut bytes = fs::read(&dat).unwrap();
        // Flip a payload byte of the first *uncommitted* frame: that is
        // interior corruption (a later complete frame follows), not a torn
        // tail, so recovery must refuse.
        bytes[tail_start + HEADER_LEN] ^= 0x40;
        fs::write(&dat, bytes).unwrap();
        let err = CatalogStore::open(&dir)
            .map(|_| ())
            .expect_err("interior corruption must be rejected");
        assert!(err.contains("crc mismatch"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_a_row_count_beyond_u32() {
        let dir = temp_dir("rows-u32");
        let _ = fs::remove_dir_all(&dir);
        let mut store = CatalogStore::create(&dir, sample_schema()).unwrap();
        for r in &sample_rows()[..3] {
            store.append_row(r).unwrap();
        }
        store.commit().unwrap();
        drop(store);
        // 2^32 + 3 rows: an `as u32` cast would read it as 3.
        let meta_path = CatalogStore::meta_path(&dir);
        let meta = fs::read_to_string(&meta_path).unwrap();
        let lying = meta.replacen("\"rows\": 3", "\"rows\": 4294967299", 1);
        assert_ne!(lying, meta);
        fs::write(&meta_path, lying).unwrap();
        let err = CatalogStore::open(&dir)
            .map(|_| ())
            .expect_err("row count wrapped");
        assert!(err.contains("4294967299"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_rejects_a_lying_frame_length_before_allocating() {
        let dir = temp_dir("lying-len");
        let _ = fs::remove_dir_all(&dir);
        let rows = sample_rows();
        let mut store = CatalogStore::create(&dir, sample_schema()).unwrap();
        for r in &rows {
            store.append_row(r).unwrap();
        }
        store.commit().unwrap();
        drop(store);
        // Row 1's committed frame claims a 4 GiB payload.
        let dat = CatalogStore::dat_path(&dir);
        let mut bytes = fs::read(&dat).unwrap();
        let row1 = HEADER_LEN + parse_hex8(&bytes[..8]).unwrap() as usize + 1;
        bytes[row1..row1 + 8].copy_from_slice(b"ffffffff");
        fs::write(&dat, bytes).unwrap();
        let mut reopened = CatalogStore::open(&dir).unwrap();
        assert_rows_eq(&reopened.fetch_rows(&[0]).unwrap(), &rows, &[0]);
        let err = reopened.fetch_rows(&[1]).expect_err("lying length");
        assert!(err.contains("row 1") && err.contains("runs past"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_cache_is_bounded_and_output_invariant() {
        let dir = temp_dir("cache");
        let _ = fs::remove_dir_all(&dir);
        let mut store = CatalogStore::create(&dir, Schema::new(["name"])).unwrap();
        for i in 0..64 {
            store
                .append_row(&[Value::Text(format!("record number {i}"))])
                .unwrap();
        }
        store.configure_cache(8, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let mut with_cache = Vec::new();
        let mut accesses = Vec::new();
        for _ in 0..40 {
            let batch: Vec<u32> = (0..5).map(|_| rng.random_range(0..64u32)).collect();
            with_cache.push(store.fetch_rows(&batch).unwrap());
            accesses.push(batch);
            assert!(store.cached_rows() <= 8, "cache exceeded its capacity");
        }
        store.configure_cache(0, 7); // disabled
        for (batch, want) in accesses.iter().zip(&with_cache) {
            assert_eq!(&store.fetch_rows(batch).unwrap(), want);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
