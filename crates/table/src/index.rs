//! Incremental blocking index: a compact sharded interned-postings overlap
//! index over a catalog table, and the crate's only overlap-postings
//! engine. Serving keeps one index alive and mutates it a record at a
//! time; the batch [`OverlapBlocker`](crate::OverlapBlocker) bulk-builds
//! one over its right table and probes it with the left, so the two agree
//! by construction. A candidate pair shares at least `min_overlap`
//! lowercase word tokens, interned to dense `u32` ids. The index is built
//! to survive million-record catalogs:
//!
//! * **Compact postings.** Each token's record list is a [`DeltaList`]:
//!   strictly-ascending row offsets stored as LEB128 varint gaps, inline
//!   (no heap allocation) for the zipf tail of rare tokens. Re-adding an
//!   existing row splices one gap in place.
//! * **Row-range shards.** The catalog is partitioned into contiguous
//!   spans of [`shard_span`](IncrementalIndex::shard_span) rows. Posting
//!   lists are per-shard (local offsets fit small varints) and the probe
//!   fans out over a (query-chunk × shard) grid on the `em-rt` pool.
//! * **Counting probes.** A probe task walks the query's posting lists
//!   once, counting shared tokens per local row in a per-thread array of
//!   stamped slots that is never cleared between queries. A row becomes a
//!   candidate when its count reaches `min_overlap`, so only candidates
//!   are sorted, never the raw hits.
//! * **Deferred retraction.** Removing or replacing a record does not
//!   splice every affected posting list (that is O(tokens × list length)).
//!   Instead the old entries stay encoded, the shard's `stale` debt grows,
//!   and the row is marked for exact recount at probe time. When the debt
//!   passes a threshold the shard compacts: postings are rebuilt from the
//!   per-record truth in one ascending pass.
//! * **Bounded probes.** Optional frequency-based pruning drops query
//!   tokens whose live document frequency exceeds `max_posting`, and an
//!   optional per-query `top_k` keeps only the highest-overlap candidates.
//!   Both default to off, in which case candidate sets are **bit-identical**
//!   to the exact single-shard index.
//!
//! **Invariants** (checked by [`IncrementalIndex::verify_invariants`],
//! relied on by the probe loop):
//!
//! 1. `records[r]` holds the sorted token ids record `r` currently
//!    contributes — the ground truth postings are derived from.
//! 2. Every live `(token, row)` pair is encoded in its shard's posting
//!    list; encoded pairs may additionally include retired ones, so a
//!    postings-derived overlap count is an upper bound on the true count.
//! 3. A shard's `stale` counter equals encoded pairs minus live pairs, and
//!    every row with a retired encoded pair is in `stale_rows` — so the
//!    probe knows exactly which candidates need an exact recount.
//! 4. Token ids are dense `0..interner.len()` and never reassigned;
//!    `df[t]` is the live document frequency of token `t`.
//!
//! Probe output is a pure function of the query table and the op sequence
//! at any `EM_THREADS`: the parallel grid writes disjoint buffers that are
//! merged serially in (query, shard) order, and compaction triggers depend
//! only on per-shard debt counters.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::compact::DeltaList;
use crate::pairs::RecordPair;
use crate::table::Table;
use em_text::TokenInterner;

/// Catalog records upserted into the index.
static UPSERTS: em_obs::Counter = em_obs::Counter::new("serve.index_upserts");
/// Catalog records removed from the index.
static REMOVALS: em_obs::Counter = em_obs::Counter::new("serve.index_removals");
/// Shard compactions triggered by stale-entry debt.
static COMPACTIONS: em_obs::Counter = em_obs::Counter::new("serve.index_compactions");
/// Probe candidates that needed an exact recount.
static STALE_RECOUNTS: em_obs::Counter = em_obs::Counter::new("serve.index_stale_recounts");
/// Query tokens dropped by frequency pruning.
static PRUNED_TOKENS: em_obs::Counter = em_obs::Counter::new("serve.index_pruned_tokens");
/// Queries whose candidate list was capped to `top_k`.
static CAPPED_QUERIES: em_obs::Counter = em_obs::Counter::new("serve.index_capped_queries");
/// (query chunk × shard) probe tasks executed.
static SHARD_PROBES: em_obs::Counter = em_obs::Counter::new("serve.index_shard_probes");
/// Records currently contributing postings (live-telemetry runs only).
static G_LIVE: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.index_live");
/// Retired encoded pairs awaiting compaction (live-telemetry runs only).
static G_STALE_DEBT: em_obs::live::Gauge = em_obs::live::Gauge::new("serve.index_stale_debt");

/// Default rows per shard: small enough that 1M records probe on all pool
/// workers, large enough that local offsets usually encode in ≤ 3 bytes.
pub const DEFAULT_SHARD_SPAN: usize = 65_536;

/// Queries per probe task; multiplied by the shard count to form the grid.
const QUERY_CHUNK: usize = 256;

/// Compact a shard once it carries this many stale entries *and* the debt
/// exceeds a third of its encoded pairs (`stale * 4 > entries + stale` ⇔
/// stale > (live pairs)/3). The absolute floor keeps tiny shards from
/// compacting on every churn; the ratio bounds wasted probe work.
const COMPACT_MIN_STALE: u64 = 256;

/// Tuning knobs for [`IncrementalIndex::with_options`].
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Minimum shared-token count for a candidate (`>= 1`).
    pub min_overlap: usize,
    /// Catalog rows per shard.
    pub shard_span: usize,
    /// Keep only the `top_k` highest-overlap candidates per query
    /// (ties broken toward lower catalog rows). `None` = uncapped.
    pub top_k: Option<usize>,
    /// Drop query tokens whose live document frequency exceeds this
    /// (frequency-based posting pruning). `None` = no pruning.
    pub max_posting: Option<usize>,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            min_overlap: 1,
            shard_span: DEFAULT_SHARD_SPAN,
            top_k: None,
            max_posting: None,
        }
    }
}

/// Per-probe effect counts returned by
/// [`IncrementalIndex::candidates_with_stats`] — how much the probe bounds
/// and deferred retraction actually cost a batch, independent of whether
/// tracing is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Query tokens dropped by `max_posting` frequency pruning.
    pub pruned_tokens: u64,
    /// Queries whose candidate list was capped to `top_k`.
    pub capped_queries: u64,
    /// Candidates recounted exactly against the record truth.
    pub stale_recounts: u64,
}

/// One contiguous row range of the catalog: `postings` map token ids to
/// ascending *local* row offsets within the span.
#[derive(Default)]
struct Shard {
    /// Token id -> encoded local rows. Iteration order is never observed:
    /// probes are point lookups and rebuilds walk records, so the std
    /// hasher's per-process seed cannot leak into output.
    postings: HashMap<u32, DeltaList>,
    /// Total encoded `(token, local)` pairs.
    entries: u64,
    /// Encoded pairs minus live pairs (retired entries awaiting compaction).
    stale: u64,
    /// Sorted local rows with at least one retired encoded pair; probe hits
    /// on these rows are recounted exactly against the record truth.
    stale_rows: Vec<u32>,
}

/// One thread's overlap counters for probe tasks: a `(stamp, count)` slot
/// per local row of the largest shard probed so far. A slot counts for the
/// current (query, shard) pass only when it carries the pass's stamp, so a
/// new pass just takes the next stamp instead of clearing the slots; they
/// are zeroed only when the stamp wraps.
#[derive(Default)]
struct OverlapCounts {
    stamp: u32,
    slots: Vec<(u32, u32)>,
    /// Local rows whose count reached `min_overlap` in the current pass.
    joined: Vec<u32>,
}

impl OverlapCounts {
    /// Start a pass over a shard holding `rows` local rows.
    fn begin(&mut self, rows: usize) {
        if self.slots.len() < rows {
            self.slots.resize(rows, (0, 0));
        }
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.joined.clear();
    }
}

thread_local! {
    /// Reused by every probe task that runs on this thread, whatever its
    /// index or shard.
    static COUNTS: RefCell<OverlapCounts> = RefCell::new(OverlapCounts::default());
}

/// Lowercase `word` into `buf` (ASCII, matching `str::to_ascii_lowercase`).
fn lowercase_into(word: &str, buf: &mut String) {
    buf.clear();
    buf.extend(word.chars().map(|c| c.to_ascii_lowercase()));
}

/// The sorted, deduplicated ids `resolve` gives `value`'s lowercased
/// whitespace tokens (`None` drops a token).
fn token_ids(value: &str, mut resolve: impl FnMut(&str) -> Option<u32>) -> Vec<u32> {
    let mut buf = String::new();
    let mut ids: Vec<u32> = value
        .split_whitespace()
        .filter_map(|w| {
            lowercase_into(w, &mut buf);
            resolve(&buf)
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// An updatable overlap-blocking index over one attribute of a catalog.
pub struct IncrementalIndex {
    attribute: String,
    min_overlap: usize,
    shard_span: usize,
    top_k: Option<usize>,
    max_posting: Option<usize>,
    interner: TokenInterner,
    shards: Vec<Shard>,
    /// Catalog record id -> its current sorted deduped token ids (`None` =
    /// never inserted, removed, or null-valued: contributes no candidates).
    records: Vec<Option<DeltaList>>,
    /// Live document frequency per token id.
    df: Vec<u32>,
    /// Records currently contributing postings.
    live: usize,
}

impl IncrementalIndex {
    /// An empty index blocking on `attribute` with the given overlap
    /// threshold (`min_overlap >= 1`) and default sharding/pruning.
    pub fn new(attribute: impl Into<String>, min_overlap: usize) -> Self {
        Self::with_options(
            attribute,
            IndexOptions {
                min_overlap,
                ..IndexOptions::default()
            },
        )
    }

    /// An empty index with explicit sharding and probe-bound options.
    pub fn with_options(attribute: impl Into<String>, opts: IndexOptions) -> Self {
        IncrementalIndex {
            attribute: attribute.into(),
            min_overlap: opts.min_overlap.max(1),
            shard_span: opts.shard_span.max(1),
            top_k: opts.top_k,
            max_posting: opts.max_posting,
            interner: TokenInterner::new(),
            shards: Vec::new(),
            records: Vec::new(),
            df: Vec::new(),
            live: 0,
        }
    }

    /// Build an index over every record of `catalog`.
    ///
    /// # Errors
    /// Fails when `attribute` is missing from the catalog schema.
    pub fn build(
        attribute: impl Into<String>,
        min_overlap: usize,
        catalog: &Table,
    ) -> Result<Self, String> {
        Self::build_with_options(
            attribute,
            IndexOptions {
                min_overlap,
                ..IndexOptions::default()
            },
            catalog,
        )
    }

    /// Build with explicit options over every record of `catalog`.
    ///
    /// # Errors
    /// Fails when the blocking attribute is missing from the catalog schema.
    pub fn build_with_options(
        attribute: impl Into<String>,
        opts: IndexOptions,
        catalog: &Table,
    ) -> Result<Self, String> {
        let mut index = Self::with_options(attribute, opts);
        let col = catalog
            .schema()
            .index_of(&index.attribute)
            .ok_or_else(|| format!("attribute {:?} missing in catalog", index.attribute))?;
        for rec in catalog.records() {
            let value = rec.get(col).to_display_string();
            index.upsert(rec.index(), value.as_deref());
        }
        Ok(index)
    }

    /// The blocking attribute name.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Minimum shared-token count for a candidate.
    pub fn min_overlap(&self) -> usize {
        self.min_overlap
    }

    /// Catalog rows per shard.
    pub fn shard_span(&self) -> usize {
        self.shard_span
    }

    /// Change the probe bounds on a live index: per-query candidate cap and
    /// document-frequency pruning threshold (`None` disables either). With
    /// both off, candidate sets are exact.
    pub fn set_probe_limits(&mut self, top_k: Option<usize>, max_posting: Option<usize>) {
        self.top_k = top_k;
        self.max_posting = max_posting;
    }

    /// Catalog records currently contributing postings.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no record contributes postings.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Distinct tokens interned so far (monotone; removals keep tokens).
    pub fn interned_tokens(&self) -> usize {
        self.interner.len()
    }

    /// Retire `row`'s current incarnation: decrement document frequencies,
    /// grow the shard's stale debt, and mark the row for exact recount.
    /// The encoded postings themselves are left in place for compaction.
    fn retire(&mut self, row: usize) {
        let Some(old) = self.records[row].take() else {
            return;
        };
        for id in old.iter() {
            self.df[id as usize] -= 1;
        }
        let shard = &mut self.shards[row / self.shard_span];
        shard.stale += u64::from(old.count());
        let local = (row % self.shard_span) as u32;
        if let Err(pos) = shard.stale_rows.binary_search(&local) {
            shard.stale_rows.insert(pos, local);
        }
        self.live -= 1;
    }

    /// Insert or replace catalog record `row`'s blocking value. `None` (or
    /// an upsert of a null cell) retracts the record: it can no longer
    /// appear as a candidate. Retired postings are recounted away at probe
    /// time and reclaimed by shard compaction, so repeated upserts never
    /// accumulate unbounded stale entries.
    pub fn upsert(&mut self, row: usize, value: Option<&str>) {
        assert!(row < u32::MAX as usize, "row id out of u32 range");
        if row >= self.records.len() {
            self.records.resize_with(row + 1, || None);
        }
        let shard_i = row / self.shard_span;
        if shard_i >= self.shards.len() {
            self.shards.resize_with(shard_i + 1, Shard::default);
        }
        self.retire(row);
        let Some(s) = value else {
            REMOVALS.incr();
            self.maybe_compact(shard_i);
            self.publish_gauges();
            return;
        };
        let ids = token_ids(s, |t| Some(self.interner.intern(t)));
        self.df.resize(self.interner.len(), 0);
        let local = (row % self.shard_span) as u32;
        let shard = &mut self.shards[shard_i];
        for &id in &ids {
            self.df[id as usize] += 1;
            if shard.postings.entry(id).or_default().insert(local) {
                shard.entries += 1;
            } else {
                // The pair was already encoded by a retired incarnation of
                // this row; it just became live again, repaying one unit of
                // stale debt.
                shard.stale -= 1;
            }
        }
        self.records[row] = Some(DeltaList::from_sorted(&ids));
        self.live += 1;
        UPSERTS.incr();
        self.maybe_compact(shard_i);
        self.publish_gauges();
    }

    /// Retract catalog record `row` (no-op when absent).
    pub fn remove(&mut self, row: usize) {
        if row < self.records.len() && self.records[row].is_some() {
            self.upsert(row, None);
        }
    }

    /// Rebuild shard `shard_i`'s postings from the record truth when its
    /// stale debt is worth reclaiming. Triggered from `upsert`, so whether
    /// a compaction happens is a pure function of the op sequence.
    fn maybe_compact(&mut self, shard_i: usize) {
        let shard = &self.shards[shard_i];
        if shard.stale < COMPACT_MIN_STALE || shard.stale * 4 <= shard.entries {
            return;
        }
        self.rebuild_shard(shard_i);
        COMPACTIONS.incr();
    }

    /// Derive shard `shard_i`'s postings from the record truth in one
    /// ascending pass, dropping every retired entry.
    fn rebuild_shard(&mut self, shard_i: usize) {
        let base = shard_i * self.shard_span;
        let end = (base + self.shard_span).min(self.records.len());
        let mut postings: HashMap<u32, DeltaList> = HashMap::new();
        let mut entries = 0u64;
        for row in base..end {
            if let Some(ids) = &self.records[row] {
                let local = (row - base) as u32;
                for id in ids.iter() {
                    // Rows ascend, so every append is the O(1) push path.
                    postings.entry(id).or_default().push(local);
                    entries += 1;
                }
            }
        }
        let shard = &mut self.shards[shard_i];
        shard.postings = postings;
        shard.entries = entries;
        shard.stale = 0;
        shard.stale_rows.clear();
    }

    /// Candidate pairs `(query row, catalog row)` for a query batch: every
    /// pair sharing at least `min_overlap` lowercase word tokens on the
    /// blocking attribute — minus whatever an active `top_k` cap or
    /// `max_posting` pruning deliberately drops. Probes fan out over a
    /// (query chunk × shard) grid on the `em-rt` pool (`jobs = 0` uses the
    /// pool width); output order is deterministic at any thread count:
    /// query rows ascending, catalog rows ascending within a query. Panics
    /// when the blocking attribute is missing from the query schema, like
    /// the batch blockers.
    pub fn candidates(&self, queries: &Table, jobs: usize) -> Vec<RecordPair> {
        self.candidates_with_stats(queries, jobs).0
    }

    /// [`candidates`](Self::candidates) plus the probe's [`ProbeStats`].
    /// The candidate list is bit-identical to `candidates`; the stats ride
    /// along so callers can report probe effects per request.
    pub fn candidates_with_stats(
        &self,
        queries: &Table,
        jobs: usize,
    ) -> (Vec<RecordPair>, ProbeStats) {
        let _span = em_obs::span!("serve.index.candidates");
        let mut stats = ProbeStats::default();
        let col = queries
            .schema()
            .index_of(&self.attribute)
            .unwrap_or_else(|| panic!("attribute {} missing in query table", self.attribute));
        let nq = queries.len();
        if nq == 0 || self.shards.is_empty() {
            return (Vec::new(), stats);
        }

        // Resolve and prune query token ids serially: pruning consults the
        // live document frequency, which probes must not mutate.
        let mut query_ids: Vec<Vec<u32>> = Vec::with_capacity(nq);
        for i in 0..nq {
            let value = queries.record(i).get(col).to_display_string();
            let mut ids = value.map_or_else(Vec::new, |s| token_ids(&s, |t| self.interner.get(t)));
            if let Some(cap) = self.max_posting {
                let before = ids.len();
                ids.retain(|&id| self.df[id as usize] as usize <= cap);
                stats.pruned_tokens += (before - ids.len()) as u64;
            }
            // Fewer tokens than the threshold can never reach it.
            if ids.len() < self.min_overlap {
                ids.clear();
            }
            query_ids.push(ids);
        }

        // Grid probe: each task scans one query chunk against one shard and
        // writes its own buffer of (query, catalog row, overlap) triples.
        let n_shards = self.shards.len();
        let n_chunks = nq.div_ceil(QUERY_CHUNK);
        let n_tasks = n_chunks * n_shards;
        let mut buffers: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); n_tasks];
        let writer = em_rt::SliceWriter::new(&mut buffers);
        let mut recounts: Vec<u64> = vec![0; n_tasks];
        let recount_writer = em_rt::SliceWriter::new(&mut recounts);
        let min_overlap = u32::try_from(self.min_overlap).unwrap_or(u32::MAX);
        em_rt::parallel_for(n_tasks, jobs, |t| {
            // Safety: each task index is handed out exactly once, so this
            // is the only thread touching slot `t` of either buffer.
            let out = unsafe { &mut writer.slice_mut(t, 1)[0] };
            let task_recounts = unsafe { &mut recount_writer.slice_mut(t, 1)[0] };
            let (chunk, shard_i) = (t / n_shards, t % n_shards);
            let shard = &self.shards[shard_i];
            let base = shard_i * self.shard_span;
            let rows = (self.records.len() - base).min(self.shard_span);
            let q_end = ((chunk + 1) * QUERY_CHUNK).min(nq);
            let q_range = chunk * QUERY_CHUNK..q_end;
            COUNTS.with_borrow_mut(|counts| {
                for (q, ids) in q_range.clone().zip(&query_ids[q_range]) {
                    if ids.is_empty() {
                        continue;
                    }
                    counts.begin(rows);
                    let OverlapCounts {
                        stamp,
                        slots,
                        joined,
                    } = counts;
                    // Each local row is counted once per shared encoded
                    // token, an upper bound on the live overlap.
                    for id in ids {
                        let Some(list) = shard.postings.get(id) else {
                            continue;
                        };
                        for local in list.iter() {
                            let slot = &mut slots[local as usize];
                            if slot.0 == *stamp {
                                slot.1 += 1;
                            } else {
                                *slot = (*stamp, 1);
                            }
                            if slot.1 == min_overlap {
                                joined.push(local);
                            }
                        }
                    }
                    joined.sort_unstable();
                    for &local in joined.iter() {
                        let row = base + local as usize;
                        if shard.stale_rows.binary_search(&local).is_ok() {
                            // Retired entries may inflate the count: recount
                            // exactly against the record truth.
                            *task_recounts += 1;
                            let Some(rec) = &self.records[row] else {
                                continue; // dead row, postings not yet compacted
                            };
                            let exact = rec.intersection_size(ids) as u32;
                            if exact >= min_overlap {
                                out.push((q as u32, row as u32, exact));
                            }
                        } else {
                            out.push((q as u32, row as u32, slots[local as usize].1));
                        }
                    }
                }
            });
        });
        stats.stale_recounts = recounts.iter().sum();

        // Serial merge in (chunk, query, shard) order: shard s covers rows
        // [s·span, (s+1)·span), so per-query candidates come out ascending
        // by catalog row — bit-identical to a single-shard probe.
        let mut out = Vec::new();
        let mut per_query: Vec<(u32, u32)> = Vec::new();
        for chunk in 0..n_chunks {
            let mut cursors = vec![0usize; n_shards];
            let q_end = ((chunk + 1) * QUERY_CHUNK).min(nq);
            for q in chunk * QUERY_CHUNK..q_end {
                per_query.clear();
                for (s, cursor) in cursors.iter_mut().enumerate() {
                    let buf = &buffers[chunk * n_shards + s];
                    while *cursor < buf.len() && buf[*cursor].0 == q as u32 {
                        per_query.push((buf[*cursor].1, buf[*cursor].2));
                        *cursor += 1;
                    }
                }
                if let Some(k) = self.top_k {
                    if per_query.len() > k {
                        // Keep the k highest-overlap candidates, breaking
                        // ties toward lower catalog rows, then restore
                        // row-ascending output order.
                        per_query.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        per_query.truncate(k);
                        per_query.sort_unstable_by_key(|&(row, _)| row);
                        stats.capped_queries += 1;
                    }
                }
                out.extend(
                    per_query
                        .iter()
                        .map(|&(row, _)| RecordPair::new(q, row as usize)),
                );
            }
        }
        // Once per call, off the parallel body: with live telemetry on,
        // each record takes its metric's window lock.
        PRUNED_TOKENS.add(stats.pruned_tokens);
        CAPPED_QUERIES.add(stats.capped_queries);
        STALE_RECOUNTS.add(stats.stale_recounts);
        SHARD_PROBES.add(n_tasks as u64);
        (out, stats)
    }

    /// Total retired encoded pairs awaiting compaction, summed across
    /// shards. Grows on retraction, shrinks on re-insertion and compaction;
    /// `/healthz` and the live gauges report it as the index's deferred
    /// cleanup backlog.
    pub fn stale_debt(&self) -> u64 {
        self.shards.iter().map(|s| s.stale).sum()
    }

    /// Publish size and debt gauges to the live-metrics registry
    /// (observation only — never feeds back into matching).
    fn publish_gauges(&self) {
        if !em_obs::live::enabled() {
            return;
        }
        G_LIVE.set(self.live as u64);
        G_STALE_DEBT.set(self.stale_debt());
    }

    /// Check every structural invariant the probe relies on; returns a
    /// description of the first violation. O(total encoded entries × record
    /// length) — cheap enough for every recovery, not meant for per-op use.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let n_tokens = self.interner.len();
        let mut df = vec![0u32; n_tokens];
        let mut live = 0usize;
        for (row, rec) in self.records.iter().enumerate() {
            let Some(ids) = rec else { continue };
            live += 1;
            let mut prev = None;
            for id in ids.iter() {
                if id as usize >= n_tokens {
                    return Err(format!("record {row}: token id {id} out of range"));
                }
                if prev.is_some_and(|p| p >= id) {
                    return Err(format!("record {row}: token ids not strictly sorted"));
                }
                prev = Some(id);
                df[id as usize] += 1;
            }
        }
        if live != self.live {
            return Err(format!("live count {} != recomputed {live}", self.live));
        }
        if df != self.df[..n_tokens] {
            return Err("document frequencies out of sync with records".into());
        }
        if self.shards.len() != self.records.len().div_ceil(self.shard_span)
            && !self.records.is_empty()
        {
            return Err("shard count out of sync with record count".into());
        }
        for (s, shard) in self.shards.iter().enumerate() {
            let base = s * self.shard_span;
            let end = (base + self.shard_span).min(self.records.len());
            let (mut entries, mut encoded_live) = (0u64, 0u64);
            for (&token, list) in &shard.postings {
                let mut prev = None;
                for local in list.iter() {
                    if local as usize >= self.shard_span {
                        return Err(format!("shard {s}: local row {local} out of span"));
                    }
                    if prev.is_some_and(|p| p >= local) {
                        return Err(format!("shard {s} token {token}: postings not sorted"));
                    }
                    prev = Some(local);
                    entries += 1;
                    let row = base + local as usize;
                    let live_pair = self
                        .records
                        .get(row)
                        .and_then(|r| r.as_ref())
                        .is_some_and(|r| r.contains(token));
                    if live_pair {
                        encoded_live += 1;
                    } else if shard.stale_rows.binary_search(&local).is_err() {
                        return Err(format!(
                            "shard {s}: retired entry (token {token}, row {row}) not stale-marked"
                        ));
                    }
                }
            }
            if entries != shard.entries {
                return Err(format!(
                    "shard {s}: entries {} != encoded {entries}",
                    shard.entries
                ));
            }
            // Lists are strictly ascending and each token has one list per
            // shard, so encoded pairs are distinct: every live pair is
            // encoded exactly when the encoded live pairs number as many as
            // the live records' tokens.
            let live_pairs: u64 = self
                .records
                .get(base..end)
                .unwrap_or_default()
                .iter()
                .flatten()
                .map(|ids| u64::from(ids.count()))
                .sum();
            if encoded_live != live_pairs {
                return Err(format!(
                    "shard {s}: only {encoded_live} of {live_pairs} live pairs encoded"
                ));
            }
            if shard.entries - live_pairs != shard.stale {
                return Err(format!(
                    "shard {s}: stale {} != encoded {} - live {live_pairs}",
                    shard.stale, shard.entries
                ));
            }
        }
        Ok(())
    }

    /// Rough heap footprint in bytes (postings, records, frequencies, and
    /// interner) — for bench/soak memory accounting, not an allocator query.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = 0usize;
        for shard in &self.shards {
            // HashMap stores (key, value) slots plus ~1/8 byte of control
            // metadata per slot at its load factor.
            total += shard.postings.capacity() * (size_of::<(u32, DeltaList)>() + 1);
            total += shard.stale_rows.capacity() * size_of::<u32>();
            for list in shard.postings.values() {
                total += list.heap_bytes();
            }
        }
        total += self.records.capacity() * size_of::<Option<DeltaList>>();
        for rec in self.records.iter().flatten() {
            total += rec.heap_bytes();
        }
        total += self.df.capacity() * size_of::<u32>();
        for (token, _) in self.interner.export() {
            // String bytes plus map/vec bookkeeping per entry.
            total += token.len() + 48;
        }
        total
    }

    /// Interned tokens in id order (the `i`-th token has id `i`).
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.interner.export().into_iter().map(|(token, _)| token)
    }

    /// Each catalog row's current token ids, ascending (`None` = never
    /// inserted, removed, or null-valued).
    pub fn records(&self) -> &[Option<DeltaList>] {
        &self.records
    }

    /// Reassemble an index from what [`Self::tokens`] and [`Self::records`]
    /// expose: the tokens in id order and each row's strictly ascending
    /// token ids, in row order. Rows arrive as results so a decoder can
    /// stream them; the first `Err` aborts the load. Postings are derived
    /// state: every shard is rebuilt by the ascending pass that compaction
    /// runs.
    ///
    /// # Errors
    /// Fails on a row's `Err`, a repeated token, a token id out of range,
    /// or a row whose ids are not strictly ascending.
    pub fn from_parts(
        attribute: impl Into<String>,
        opts: IndexOptions,
        tokens: Vec<String>,
        records: impl IntoIterator<Item = Result<Option<Vec<u32>>, String>>,
    ) -> Result<Self, String> {
        let mut index = Self::with_options(attribute, opts);
        index.interner = TokenInterner::from_tokens(tokens)?;
        let n_tokens = index.interner.len();
        index.df = vec![0; n_tokens];
        for (row, ids) in records.into_iter().enumerate() {
            let ids = ids?;
            if let Some(ids) = &ids {
                for (k, &id) in ids.iter().enumerate() {
                    if id as usize >= n_tokens {
                        return Err(format!(
                            "record {row}: token id {id} out of range ({n_tokens} tokens)"
                        ));
                    }
                    if k > 0 && ids[k - 1] >= id {
                        return Err(format!("record {row}: token ids not strictly sorted"));
                    }
                    index.df[id as usize] += 1;
                }
                index.live += 1;
            }
            index
                .records
                .push(ids.as_deref().map(DeltaList::from_sorted));
        }
        let n_shards = index.records.len().div_ceil(index.shard_span);
        index.shards.resize_with(n_shards, Shard::default);
        for shard_i in 0..n_shards {
            index.rebuild_shard(shard_i);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_csv;
    use std::collections::HashSet;

    fn catalog() -> Table {
        parse_csv(
            "name,city\n\
             arnie mortons of chicago,los angeles\n\
             fenix at the argyle,west hollywood\n\
             grill on the alley,beverly hills\n\
             ,anywhere\n",
        )
        .unwrap()
    }

    /// Brute force: every (query, catalog row) pair whose lowercased
    /// whitespace-token sets on `name` share at least `min_overlap` tokens,
    /// in ascending order.
    fn brute_force(queries: &Table, catalog: &Table, min_overlap: usize) -> Vec<RecordPair> {
        let tokens = |t: &Table, row: usize| -> HashSet<String> {
            let col = t.schema().index_of("name").unwrap();
            let value = t.record(row).get(col).to_display_string();
            let value = value.unwrap_or_default();
            value
                .split_whitespace()
                .map(str::to_ascii_lowercase)
                .collect()
        };
        let mut out = Vec::new();
        for q in 0..queries.len() {
            let query = tokens(queries, q);
            for r in 0..catalog.len() {
                if query.intersection(&tokens(catalog, r)).count() >= min_overlap {
                    out.push(RecordPair::new(q, r));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_on_static_catalog() {
        let b = catalog();
        let a = parse_csv(
            "name,city\n\
             fenix,west hollywood\n\
             the grill,beverly hills\n\
             arnie mortons,chicago\n",
        )
        .unwrap();
        for min_overlap in [1, 2] {
            let want = brute_force(&a, &b, min_overlap);
            assert!(!want.is_empty(), "min_overlap {min_overlap}");
            let index = IncrementalIndex::build("name", min_overlap, &b).unwrap();
            assert_eq!(index.candidates(&a, 0), want, "min_overlap {min_overlap}");
        }
    }

    #[test]
    fn upsert_and_remove_update_candidates() {
        let b = catalog();
        let queries = parse_csv("name,city\nfenix at the argyle,hollywood\n").unwrap();
        let mut index = IncrementalIndex::build("name", 2, &b).unwrap();
        assert_eq!(index.candidates(&queries, 0), vec![RecordPair::new(0, 1)]);
        // Replace record 1's name: the old candidates disappear.
        index.upsert(1, Some("completely different"));
        assert!(index.candidates(&queries, 0).is_empty());
        // Put it back (re-upsert), then remove it outright.
        index.upsert(1, Some("fenix at the argyle"));
        assert_eq!(index.candidates(&queries, 0), vec![RecordPair::new(0, 1)]);
        index.remove(1);
        assert!(index.candidates(&queries, 0).is_empty());
        assert_eq!(index.len(), 2); // records 0 and 2; 3 was null all along
                                    // A brand-new record id extends the catalog.
        index.upsert(9, Some("the argyle fenix"));
        assert_eq!(index.candidates(&queries, 0), vec![RecordPair::new(0, 9)]);
        index.verify_invariants().unwrap();
    }

    #[test]
    fn incremental_build_equals_batch_build() {
        let b = catalog();
        let queries = parse_csv("name,city\ngrill alley,beverly hills\n").unwrap();
        let batch = IncrementalIndex::build("name", 1, &b).unwrap();
        let mut inc = IncrementalIndex::new("name", 1);
        // Insert in reverse, with churn: same final candidates.
        for row in (0..b.len()).rev() {
            inc.upsert(row, Some("placeholder value"));
        }
        for rec in b.records() {
            let col = b.schema().index_of("name").unwrap();
            let v = rec.get(col).to_display_string();
            inc.upsert(rec.index(), v.as_deref());
        }
        assert_eq!(inc.candidates(&queries, 0), batch.candidates(&queries, 0));
        inc.verify_invariants().unwrap();
    }

    #[test]
    fn sharded_index_matches_single_shard() {
        let b = catalog();
        let queries = parse_csv(
            "name,city\n\
             fenix at the argyle,hollywood\n\
             grill on the alley,beverly hills\n",
        )
        .unwrap();
        let flat = IncrementalIndex::build("name", 1, &b).unwrap();
        let sharded = IncrementalIndex::build_with_options(
            "name",
            IndexOptions {
                min_overlap: 1,
                shard_span: 2, // forces multiple shards even on 4 records
                ..IndexOptions::default()
            },
            &b,
        )
        .unwrap();
        assert_eq!(
            sharded.candidates(&queries, 0),
            flat.candidates(&queries, 0)
        );
        sharded.verify_invariants().unwrap();
    }

    #[test]
    fn top_k_caps_candidates_per_query() {
        let b = parse_csv(
            "name\n\
             alpha beta gamma\n\
             alpha beta\n\
             alpha\n",
        )
        .unwrap();
        let queries = parse_csv("name\nalpha beta gamma\n").unwrap();
        let mut index = IncrementalIndex::build("name", 1, &b).unwrap();
        assert_eq!(index.candidates(&queries, 0).len(), 3);
        index.set_probe_limits(Some(2), None);
        // Highest-overlap rows survive the cap, output still row-ascending.
        assert_eq!(
            index.candidates(&queries, 0),
            vec![RecordPair::new(0, 0), RecordPair::new(0, 1)]
        );
        index.set_probe_limits(None, None);
        assert_eq!(index.candidates(&queries, 0).len(), 3);
    }

    #[test]
    fn max_posting_prunes_frequent_tokens() {
        let b = parse_csv(
            "name\n\
             alpha one\n\
             alpha two\n\
             alpha three\n\
             rare three\n",
        )
        .unwrap();
        let queries = parse_csv("name\nalpha three\n").unwrap();
        let mut index = IncrementalIndex::build("name", 1, &b).unwrap();
        assert_eq!(index.candidates(&queries, 0).len(), 4);
        // "alpha" has df 3 and gets pruned; only "three" (df 2) probes.
        index.set_probe_limits(None, Some(2));
        assert_eq!(
            index.candidates(&queries, 0),
            vec![RecordPair::new(0, 2), RecordPair::new(0, 3)]
        );
    }

    #[test]
    fn churn_triggers_compaction_and_keeps_candidates_exact() {
        let queries = parse_csv("name\nwidget five hundred\n").unwrap();
        let mut index = IncrementalIndex::with_options(
            "name",
            IndexOptions {
                min_overlap: 1,
                shard_span: 64,
                ..IndexOptions::default()
            },
        );
        // Heavy churn: every row rewritten several times, some removed.
        for round in 0..6 {
            for row in 0..200 {
                index.upsert(row, Some(&format!("widget item{} round{round}", row % 17)));
            }
            for row in (0..200).step_by(7) {
                index.remove(row);
            }
        }
        index.verify_invariants().unwrap();
        let mut mirror = IncrementalIndex::new("name", 1);
        for row in 0..200 {
            let alive = row % 7 != 0;
            if alive {
                mirror.upsert(row, Some(&format!("widget item{} round5", row % 17)));
            }
        }
        assert_eq!(
            index.candidates(&queries, 0),
            mirror.candidates(&queries, 0)
        );
    }

    /// A one-column `name` table: `None` cells are null.
    fn names(values: &[Option<String>]) -> Table {
        let mut t = Table::new(crate::Schema::new(["name"]));
        for v in values {
            let cell = v.clone().map_or(crate::Value::Null, crate::Value::Text);
            t.push_row(vec![cell]).unwrap();
        }
        t
    }

    /// `n` names of 1–5 words over a 24-word vocabulary, so every row
    /// shares tokens with many others.
    fn random_names(n: usize, seed: u64) -> Vec<Option<String>> {
        let mut rng = em_rt::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.random_range(1..6);
                let words: Vec<String> = (0..len)
                    .map(|_| format!("w{}", rng.random_range(0..24)))
                    .collect();
                Some(words.join(" "))
            })
            .collect()
    }

    #[test]
    fn probe_counts_never_leak_between_queries_shards_or_indexes() {
        let mut rows = random_names(300, 7);
        let queries = names(&random_names(30, 8));
        for min_overlap in [1, 2, 3] {
            // Many 8-row shards, one shard far larger than the catalog,
            // and three 128-row shards; every probe runs on this thread.
            let mut indexes: Vec<IncrementalIndex> = [8, 4096, 128]
                .iter()
                .map(|&shard_span| {
                    let opts = IndexOptions {
                        min_overlap,
                        shard_span,
                        ..IndexOptions::default()
                    };
                    IncrementalIndex::build_with_options("name", opts, &names(&rows)).unwrap()
                })
                .collect();
            for round in 0..2 {
                let want = brute_force(&queries, &names(&rows), min_overlap);
                for q in 0..queries.len() {
                    let query = queries.slice_rows(q..q + 1);
                    let want: Vec<RecordPair> = want
                        .iter()
                        .filter(|p| p.left == q)
                        .map(|p| RecordPair::new(0, p.right))
                        .collect();
                    for index in &indexes {
                        assert_eq!(
                            index.candidates(&query, 1),
                            want,
                            "min_overlap {min_overlap}, round {round}, query {q}, span {}",
                            index.shard_span()
                        );
                    }
                }
                for index in &indexes {
                    assert_eq!(
                        index.candidates(&queries, 1),
                        brute_force(&queries, &names(&rows), min_overlap)
                    );
                }
                // Churn every index the same way, so the next round also
                // probes stale-marked rows.
                let fresh = random_names(rows.len(), 100 + round);
                for row in (0..rows.len()).step_by(3) {
                    rows[row] = if row % 2 == 0 {
                        fresh[row].clone()
                    } else {
                        None
                    };
                    for index in &mut indexes {
                        index.upsert(row, rows[row].as_deref());
                    }
                }
            }
        }
    }

    #[test]
    fn probe_counts_survive_the_stamp_wrap() {
        let rows = names(&random_names(300, 9));
        let queries = names(&random_names(30, 10));
        let vocabulary: Vec<String> = (0..24).map(|w| format!("w{w}")).collect();
        let everything = names(&[Some(vocabulary.join(" "))]);
        let index = IncrementalIndex::build("name", 2, &rows).unwrap();
        let wrap = || COUNTS.with_borrow_mut(|counts| counts.stamp = u32::MAX);
        // A query holding every word stamps every row's slot with the
        // first stamp after a wrap...
        wrap();
        assert_eq!(
            index.candidates(&everything, 1),
            brute_force(&everything, &rows, 2)
        );
        // ...which the next wrap hands out again: left uncleared, those
        // slots would add to the first query's counts.
        wrap();
        assert_eq!(
            index.candidates(&queries, 1),
            brute_force(&queries, &rows, 2)
        );
        COUNTS.with_borrow(|counts| assert!(counts.stamp as usize <= queries.len()));
    }

    /// Plant one violation in a healthy index whose row 0 is retired (its
    /// pairs stay encoded, stale-marked) and demand `Err`.
    fn assert_rejects(plant: impl FnOnce(&mut IncrementalIndex)) {
        let mut index = IncrementalIndex::build("name", 1, &catalog()).unwrap();
        index.remove(0);
        index.verify_invariants().unwrap();
        plant(&mut index);
        assert!(index.verify_invariants().is_err());
    }

    /// The first token id of live row 1 ("fenix at the argyle").
    fn row1_token(index: &IncrementalIndex) -> u32 {
        index.records[1].as_ref().unwrap().iter().next().unwrap()
    }

    #[test]
    fn verify_rejects_a_live_pair_missing_from_postings() {
        assert_rejects(|index| {
            // Re-point one live pair of row 1 at retired row 0: entries and
            // stale debt still add up, only the live-pair count can tell.
            let token = row1_token(index);
            let list = index.shards[0].postings.get_mut(&token).unwrap();
            let mut rows: Vec<u32> = list.iter().filter(|&l| l != 1).collect();
            rows.insert(0, 0);
            *list = DeltaList::from_sorted(&rows);
        });
    }

    #[test]
    fn verify_rejects_an_unmarked_retired_entry() {
        assert_rejects(|index| index.shards[0].stale_rows.clear());
    }

    #[test]
    fn verify_rejects_off_by_one_counters() {
        assert_rejects(|index| index.shards[0].entries += 1);
        assert_rejects(|index| index.shards[0].stale += 1);
    }

    #[test]
    fn verify_rejects_document_frequencies_out_of_sync() {
        assert_rejects(|index| {
            let token = row1_token(index);
            index.df[token as usize] += 1;
        });
    }

    #[test]
    fn verify_rejects_unsorted_record_ids() {
        assert_rejects(|index| {
            // Gap 0 decodes to the same id twice: [t, t].
            let mut buf = [0; crate::compact::INLINE_BYTES];
            buf[0] = row1_token(index) as u8;
            index.records[1] = Some(DeltaList::Inline { len: 2, buf });
        });
    }
}
