//! The matcher: block → featurize → predict over a fixed catalog, for
//! one-shot batches ([`Matcher::match_batch`]) or a stream of batches
//! ([`Matcher::match_stream`]).
//!
//! ## Catalogs
//!
//! A matcher serves one of two catalogs, each with the index that comes
//! with it:
//!
//! * **In-memory** ([`Matcher::new`]) — a resident `Table` and an
//!   in-memory [`IncrementalIndex`]. Right for tests and small catalogs.
//! * **Store-backed** ([`Matcher::with_store`]) — rows live in a
//!   [`CatalogStore`] and the index is a WAL-backed [`PersistentIndex`],
//!   so resident memory scales with the per-batch working set, not the
//!   catalog, and retirements survive restarts.
//!
//! Both run one batch step in two halves over disjoint state: *fetch*
//! (probe → gather only the sorted distinct candidate rows, read from the
//! store or copied out of the table → remap the pairs to slice-local
//! rows) owns the catalog and the probe and gather totals; *featurize*
//! (rebind the feature cache to the gathered slice and featurize, span
//! `serve.featurize`) owns the feature cache. Prediction follows. Output
//! is bit-identical across the two catalogs (the private
//! `Gathered::featurize` documents why), at any `EM_THREADS`, with the
//! store's hot-row cache on or off.
//!
//! ## Streaming design
//!
//! `match_stream` pulls query tables from an [`em_rt::channel()`] and runs a
//! four-stage pipeline of dedicated threads around one coordinator:
//!
//! * **Fetch stage** (one dedicated thread per stream) — receives batches
//!   in arrival order, spends a credit on each, and runs the fetch half
//!   of the batch step. It runs ahead of featurization by up to the
//!   credits left, so probing and gathering overlap it.
//! * **Coordinator** (the calling thread) — receives fetched batches in
//!   arrival order, runs the featurize half, and ships the featurized
//!   batch to the predict workers. Featurization is the stream's only
//!   serial stage: the cache it mutates lives here alone.
//! * **Predict workers** — dedicated threads racing over the job channel;
//!   each scores whole batches through the fitted pipeline. Per-batch
//!   prediction is a pure function of the feature matrix, so racing is
//!   safe.
//! * **Emitter** — reorders finished batches by sequence number and sends
//!   [`BatchOutput`]s strictly in input order.
//!
//! Probe and featurization are internally parallel on the `em-rt` pool.
//! When both ask for it at once, the pool runs one and the other runs
//! inline on its own thread, which changes no result.
//!
//! **Backpressure**: the fetch stage spends one credit when it picks a
//! batch up and the emitter returns one per *emitted* batch, so at most
//! [`StreamOptions::max_in_flight`] batches are held between fetch pickup
//! and emission — a slow consumer stalls the fetch stage rather than
//! growing the unbounded channels.
//!
//! **Determinism**, stage by stage: the fetch stage is the only thread
//! that probes the index, reads the store (and moves its hot-row cache)
//! or adds to the totals, and does so in arrival order; the coordinator
//! is the only thread that touches the feature cache, also in arrival
//! order; prediction is pure; emission is sequence-ordered. Probing and
//! featurization are each bit-deterministic at any pool width (pool
//! discipline as per `em-rt`), so the full output stream, and the probe
//! and gather totals, are bit-identical to `match_batch` one batch at a
//! time, whether `EM_THREADS` is 1 or 64, with tracing on or off.
//!
//! **Failure**: each channel is fed by one stage that owns its sender, so
//! a stage that panics (a store gather that fails its CRC check does, by
//! design) closes its output as it unwinds; the stages downstream drain
//! and exit, and `match_stream` re-raises the first panic in stage order
//! instead of hanging or returning a short stream.

use crate::artifact::ModelArtifact;
use crate::catstore::{CatalogStore, FetchStats};
use crate::index::{IncrementalIndex, ProbeStats};
use crate::store::PersistentIndex;
use automl_em::{FeatureCache, FittedEmPipeline};
use em_ml::Matrix;
use em_obs::live::{RequestLog, RequestRecord};
use em_obs::{Counter, Histogram};
use em_rt::{Json, Receiver, Sender};
use em_table::{RecordPair, Schema, Table};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Query batches served by `match_stream`/`match_batch`.
static BATCHES: Counter = Counter::new("serve.batches");
/// Candidate pairs scored by the model.
static PAIRS_SCORED: Counter = Counter::new("serve.pairs_scored");
/// Pairs the model declared matches.
static MATCHES: Counter = Counter::new("serve.matches");
/// End-to-end per-batch latency, ns: fetch-stage pickup to ordered
/// emission in `match_stream`, call to return in `match_batch`.
static BATCH_NS: Histogram = Histogram::new("serve.batch_ns");
/// Candidate pairs per batch.
static CANDIDATES: Histogram = Histogram::new("serve.batch_candidates");
/// Match-score distribution of the served model, in thousandths (a score
/// of 0.73 records as 730) so the integer buckets resolve the [0,1] range.
static SCORE_MILLI: Histogram = Histogram::new("serve.score_milli");
/// Slow-query log + deterministic 1-in-16 trace sampler over request ids.
static REQUESTS: RequestLog = RequestLog::new("serve.requests", 0x5EED_1092, 16, 8);
/// Request ids for `match_batch` calls (stream batches use their seq).
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(0);

/// p50/p99 of the end-to-end batch latency histogram, in nanoseconds
/// (`None` until a traced `match_stream`/`match_batch` run has recorded
/// batches).
pub fn batch_latency_quantiles() -> Option<(u64, u64)> {
    Some((BATCH_NS.quantile(0.5)?, BATCH_NS.quantile(0.99)?))
}

/// One scored candidate: `pair.left` is the row in the query batch,
/// `pair.right` the catalog row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRecord {
    /// (query row, catalog row).
    pub pair: RecordPair,
    /// Matching probability from the pipeline.
    pub score: f64,
    /// Hard decision, exactly `FittedEmPipeline::predict`'s output.
    pub is_match: bool,
}

/// The scored results of one query batch, tagged with its input ordinal.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// 0-based arrival position of the batch in the input stream.
    pub seq: usize,
    /// Rows in the query batch (for consumers sizing per-batch work).
    pub n_queries: usize,
    /// Scored candidates, in candidate-generation order.
    pub matches: Vec<MatchRecord>,
}

/// Tuning knobs for [`Matcher::match_stream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Maximum batches held between fetch-stage pickup and emission
    /// (credit-based backpressure; min 1). Also how far the fetch stage
    /// can run ahead of featurization.
    pub max_in_flight: usize,
    /// Dedicated predict-worker threads (0 = pool width minus one, min 1).
    pub predict_workers: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            max_in_flight: 4,
            predict_workers: 0,
        }
    }
}

/// A batch between two `match_stream` stages: its arrival ordinal, query
/// count and fetch-pickup instant travel with what the last stage made.
struct InFlight<T> {
    seq: usize,
    n_queries: usize,
    started: Instant,
    batch: T,
}

/// Per-batch stage timings and probe effects, carried alongside the batch
/// so whoever observes the finished request (emitter or `match_batch`) can
/// feed the request log. Observation only: nothing here feeds back into
/// matching.
#[derive(Clone, Copy, Default)]
struct BatchTelemetry {
    probe_ns: u64,
    featurize_ns: u64,
    predict_ns: u64,
    /// Wall time of the candidate-row gather.
    fetch_ns: u64,
    probe: ProbeStats,
    fetch: FetchStats,
}

/// Record one finished request into the batch metrics, the slow-query
/// log, and — for the deterministic 1-in-N sample — the JSONL trace.
fn record_request(
    id: u64,
    n_queries: usize,
    matches: &[MatchRecord],
    latency_ns: u64,
    t: BatchTelemetry,
) {
    BATCHES.incr();
    BATCH_NS.record(latency_ns);
    CANDIDATES.record(matches.len() as u64);
    if em_obs::live::enabled() {
        REQUESTS.record(RequestRecord {
            id,
            latency_ns,
            fields: vec![
                ("queries", n_queries as u64),
                ("candidates", matches.len() as u64),
                (
                    "matches",
                    matches.iter().filter(|m| m.is_match).count() as u64,
                ),
                ("probe_ns", t.probe_ns),
                ("featurize_ns", t.featurize_ns),
                ("predict_ns", t.predict_ns),
                ("fetch_ns", t.fetch_ns),
                ("rows_fetched", t.fetch.rows_read),
                ("cache_hits", t.fetch.cache_hits),
                ("pruned_tokens", t.probe.pruned_tokens),
                ("capped_queries", t.probe.capped_queries),
                ("stale_recounts", t.probe.stale_recounts),
            ],
        });
    }
    if REQUESTS.is_sampled(id) {
        em_obs::event("serve.request", || {
            vec![
                ("request", Json::from(id)),
                ("latency_ns", Json::from(latency_ns)),
                ("queries", Json::from(n_queries)),
                ("candidates", Json::from(matches.len())),
                ("probe_ns", Json::from(t.probe_ns)),
                ("featurize_ns", Json::from(t.featurize_ns)),
                ("predict_ns", Json::from(t.predict_ns)),
            ]
        });
    }
}

/// The catalog and the index that comes with it: a resident `Table` with
/// an in-memory index (right for tests and small catalogs), or a
/// [`CatalogStore`] with a WAL-backed [`PersistentIndex`], which keeps
/// memory O(working set) instead of O(catalog) and makes retirements
/// survive restarts.
enum Catalog {
    Memory {
        table: Table,
        index: Box<IncrementalIndex>,
    },
    Store {
        store: Box<CatalogStore>,
        index: Box<PersistentIndex>,
    },
}

impl Catalog {
    fn index(&self) -> &IncrementalIndex {
        match self {
            Catalog::Memory { index, .. } => index,
            Catalog::Store { index, .. } => index.index(),
        }
    }

    /// The table whose row `i` is catalog row `rows[i]`, plus the store's
    /// gather effects (zero for a resident table). Fetch or decode failures
    /// panic: a serving matcher whose catalog file is unreadable mid-stream
    /// has no useful degraded mode.
    fn gather(&mut self, rows: &[u32]) -> (Table, FetchStats) {
        match self {
            Catalog::Memory { table, .. } => {
                let mut slice = Table::new(table.schema().clone());
                for &row in rows {
                    let values = table.record(row as usize).values().to_vec();
                    slice.push_row(values).expect("same schema");
                }
                (slice, FetchStats::default())
            }
            Catalog::Store { store, .. } => store
                .fetch_rows_with_stats(rows)
                .unwrap_or_else(|e| panic!("catalog store fetch failed: {e}")),
        }
    }
}

/// What the first half of the batch step mutates: the catalog (with the
/// store's hot-row cache) and the running probe and gather totals. The
/// feature cache and the fitted pipeline stay outside, so a stream can
/// fetch one batch while its coordinator featurizes another.
struct Fetcher {
    catalog: Catalog,
    /// Cumulative probe effects across every batch this matcher served.
    probe_totals: ProbeStats,
    /// Cumulative store-gather effects (all zero on a resident table).
    fetch_totals: FetchStats,
}

/// One batch after [`Fetcher::fetch`], awaiting featurization.
struct Gathered {
    /// Candidates in generation order, right side as a catalog row.
    pairs: Vec<RecordPair>,
    /// The same candidates, right side as a row of `slice`.
    local_pairs: Vec<RecordPair>,
    /// The sorted distinct candidate rows.
    slice: Table,
    telem: BatchTelemetry,
}

/// One batch after [`Gathered::featurize`], awaiting prediction. It keeps
/// the whole gathered batch, so the slice and the local pairs are freed by
/// [`Featurized::predict`] on a predict worker, off the stream's serial
/// featurization stage.
struct Featurized {
    gathered: Gathered,
    features: Matrix,
}

impl Fetcher {
    /// The batch step up to featurization: probe → gather the sorted
    /// distinct candidate rows → remap the pairs to slice-local rows.
    fn fetch(&mut self, queries: &Table) -> Gathered {
        let t_probe = Instant::now();
        let (pairs, probe) = self.catalog.index().candidates_with_stats(queries, 0);
        let probe_ns = t_probe.elapsed().as_nanos() as u64;
        let t_fetch = Instant::now();
        let mut rows: Vec<u32> = pairs.iter().map(|p| p.right as u32).collect();
        rows.sort_unstable();
        rows.dedup();
        let (slice, fetch) = self.catalog.gather(&rows);
        let local_pairs: Vec<RecordPair> = pairs
            .iter()
            .map(|p| {
                let local = rows
                    .binary_search(&(p.right as u32))
                    .expect("candidate row was gathered");
                RecordPair::new(p.left, local)
            })
            .collect();
        let fetch_ns = t_fetch.elapsed().as_nanos() as u64;
        let totals = &mut self.probe_totals;
        totals.pruned_tokens += probe.pruned_tokens;
        totals.capped_queries += probe.capped_queries;
        totals.stale_recounts += probe.stale_recounts;
        let totals = &mut self.fetch_totals;
        totals.requested += fetch.requested;
        totals.cache_hits += fetch.cache_hits;
        totals.rows_read += fetch.rows_read;
        Gathered {
            pairs,
            local_pairs,
            slice,
            telem: BatchTelemetry {
                probe_ns,
                fetch_ns,
                probe,
                fetch,
                ..BatchTelemetry::default()
            },
        }
    }
}

impl Gathered {
    /// The batch step's featurization: rebind `cache` to (queries,
    /// gathered slice) and featurize under `serve.featurize`. Prediction
    /// is [`Featurized::predict`].
    ///
    /// Features equal a whole-catalog featurization bit for bit: every
    /// similarity is a pure function of the two cell values (token-id
    /// assignment order never changes an intersection size), and the
    /// store's row codec round-trips cells bit-exactly, so featurizing
    /// `(queries, slice)` under slice-local indices equals featurizing
    /// `(queries, catalog)` under global ones, pair for pair, whichever
    /// catalog backs the matcher.
    fn featurize(mut self, cache: &mut FeatureCache, queries: &Table) -> Featurized {
        let t_feat = Instant::now();
        let features = {
            let _span = em_obs::span!("serve.featurize");
            cache.rebind_left(queries);
            cache.rebind_right(&self.slice);
            cache.generate(queries, &self.slice, &self.local_pairs)
        };
        self.telem.featurize_ns = t_feat.elapsed().as_nanos() as u64;
        Featurized {
            gathered: self,
            features,
        }
    }
}

impl Featurized {
    /// Score the batch under `serve.predict`, stamping the predict time.
    fn predict(self, pipeline: &FittedEmPipeline) -> (Vec<MatchRecord>, BatchTelemetry) {
        let _span = em_obs::span!("serve.predict");
        let t_pred = Instant::now();
        let matches = score_pairs(pipeline, &self.gathered.pairs, &self.features);
        let mut telem = self.gathered.telem;
        telem.predict_ns = t_pred.elapsed().as_nanos() as u64;
        (matches, telem)
    }
}

/// A deployable matcher: fitted pipeline + catalog with its index + feature
/// cache, assembled from a [`ModelArtifact`].
pub struct Matcher {
    pipeline: FittedEmPipeline,
    fetcher: Fetcher,
    cache: FeatureCache,
}

/// Reject a catalog whose schema disagrees with the artifact that will
/// score its rows.
fn check_schema(schema: &Schema, artifact: &ModelArtifact) -> Result<(), String> {
    let catalog_names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    if catalog_names != artifact.attributes {
        return Err(format!(
            "catalog schema {:?} does not match artifact attributes {:?}",
            catalog_names, artifact.attributes
        ));
    }
    Ok(())
}

impl Matcher {
    /// Assemble a matcher over a fully in-memory catalog: replay the
    /// artifact's feature plan and build the blocking index over
    /// `catalog`. Batches gather their candidate rows out of the table, as
    /// [`Self::with_store`] gathers them out of a store. The right choice
    /// for tests and small catalogs; million-record deployments should use
    /// [`Self::with_store`].
    ///
    /// # Errors
    /// Fails when the catalog schema does not match the artifact's
    /// attribute list, or the blocking attribute is missing.
    pub fn new(
        artifact: ModelArtifact,
        catalog: Table,
        blocking_attribute: &str,
        min_overlap: usize,
    ) -> Result<Self, String> {
        check_schema(catalog.schema(), &artifact)?;
        let index = IncrementalIndex::build(blocking_attribute, min_overlap, &catalog)?;
        Ok(Self::assemble(
            artifact,
            Catalog::Memory {
                table: catalog,
                index: Box::new(index),
            },
        ))
    }

    /// Assemble a store-backed matcher: candidate rows are gathered from
    /// `store` per batch and the blocking index is the WAL-backed `index`,
    /// so neither the catalog nor its feature profiles are ever fully
    /// resident. Retirements WAL-log through the persistent index.
    ///
    /// # Errors
    /// Fails when the store schema does not match the artifact's
    /// attribute list.
    pub fn with_store(
        artifact: ModelArtifact,
        store: CatalogStore,
        index: PersistentIndex,
    ) -> Result<Self, String> {
        check_schema(store.schema(), &artifact)?;
        Ok(Self::assemble(
            artifact,
            Catalog::Store {
                store: Box::new(store),
                index: Box::new(index),
            },
        ))
    }

    fn assemble(artifact: ModelArtifact, catalog: Catalog) -> Self {
        Matcher {
            cache: FeatureCache::unbound(artifact.generator()),
            pipeline: artifact.pipeline,
            fetcher: Fetcher {
                catalog,
                probe_totals: ProbeStats::default(),
                fetch_totals: FetchStats::default(),
            },
        }
    }

    /// The catalog store, when this matcher is store-backed.
    pub fn catalog_store(&self) -> Option<&CatalogStore> {
        match &self.fetcher.catalog {
            Catalog::Memory { .. } => None,
            Catalog::Store { store, .. } => Some(store),
        }
    }

    /// The blocking index (read access; see [`Self::retire`] for updates).
    pub fn index(&self) -> &IncrementalIndex {
        self.fetcher.catalog.index()
    }

    /// Cumulative probe effects (pruned tokens, capped queries, stale
    /// recounts) across every batch this matcher has served.
    pub fn probe_totals(&self) -> ProbeStats {
        self.fetcher.probe_totals
    }

    /// Cumulative store-gather effects across every batch (all zero for
    /// in-memory matchers).
    pub fn fetch_totals(&self) -> FetchStats {
        self.fetcher.fetch_totals
    }

    /// Reconfigure the store's hot-row cache (see
    /// [`CatalogStore::configure_cache`]; capacity 0 disables it). Returns
    /// false — and does nothing — on an in-memory matcher.
    pub fn configure_hot_cache(&mut self, capacity: usize, seed: u64) -> bool {
        match &mut self.fetcher.catalog {
            Catalog::Memory { .. } => false,
            Catalog::Store { store, .. } => {
                store.configure_cache(capacity, seed);
                true
            }
        }
    }

    /// Bound the feature cache's similarity memo (see
    /// [`FeatureCache::set_memo_cap`]) — recommended for long-running
    /// streams over unbounded query vocabularies.
    pub fn set_memo_cap(&mut self, cap: Option<usize>) {
        self.cache.set_memo_cap(cap);
    }

    /// Bound the blocking probe (see
    /// [`IncrementalIndex::set_probe_limits`]): keep only the `top_k`
    /// highest-overlap candidates per query and prune query tokens whose
    /// document frequency exceeds `max_posting`. `None` disables either
    /// bound; with both off, candidate sets are exact.
    pub fn set_probe_limits(&mut self, top_k: Option<usize>, max_posting: Option<usize>) {
        match &mut self.fetcher.catalog {
            Catalog::Memory { index, .. } => index.set_probe_limits(top_k, max_posting),
            // Probe bounds are runtime tuning, not index state, so they do
            // not WAL-log.
            Catalog::Store { index, .. } => index.index_mut().set_probe_limits(top_k, max_posting),
        }
    }

    /// Retire a catalog record: it stops appearing in candidates. (The
    /// catalog rows themselves are immutable — profiles and memo entries
    /// for the record stay cached and simply go unreferenced.)
    ///
    /// # Errors
    /// A WAL-backed index can fail to log the retirement; the in-memory
    /// path never fails.
    pub fn retire(&mut self, catalog_row: usize) -> Result<(), String> {
        match &mut self.fetcher.catalog {
            Catalog::Memory { index, .. } => {
                index.remove(catalog_row);
                Ok(())
            }
            Catalog::Store { index, .. } => index.remove(catalog_row),
        }
    }

    /// Block and score one query batch synchronously.
    pub fn match_batch(&mut self, queries: &Table) -> Vec<MatchRecord> {
        let _span = em_obs::span!("serve.batch");
        let started = Instant::now();
        let (out, telem) = self
            .fetcher
            .fetch(queries)
            .featurize(&mut self.cache, queries)
            .predict(&self.pipeline);
        let id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
        record_request(
            id,
            queries.len(),
            &out,
            started.elapsed().as_nanos() as u64,
            telem,
        );
        out
    }

    /// Run the full index invariant check and publish the result to the
    /// live health registry (component `index`, served by `/healthz`).
    ///
    /// # Errors
    /// Returns the first invariant violation, exactly as
    /// [`IncrementalIndex::verify_invariants`] reports it.
    pub fn verify_index(&self) -> Result<(), String> {
        crate::store::publish_index_health(self.index())
    }

    /// Stream matching: pull query tables from `queries` until the channel
    /// closes, emit one [`BatchOutput`] per batch on `results`, strictly in
    /// input order. See the module docs for the pipeline shape and the
    /// determinism/backpressure contracts. Blocks until the stream drains.
    pub fn match_stream(
        &mut self,
        queries: Receiver<Table>,
        results: Sender<BatchOutput>,
        opts: StreamOptions,
    ) {
        let _span = em_obs::span!("serve.stream");
        let max_in_flight = opts.max_in_flight.max(1);
        let n_workers = if opts.predict_workers == 0 {
            em_rt::threads().saturating_sub(1).max(1)
        } else {
            opts.predict_workers
        };
        // Fetch and featurization mutate disjoint state and the workers
        // only read the pipeline, so the borrows split here.
        let Matcher {
            pipeline,
            fetcher,
            cache,
        } = self;
        let pipeline = &*pipeline;
        // Every channel below has one feeding stage, which owns its sender
        // by value: a stage that panics closes its output as it unwinds,
        // the stages downstream drain and exit, and the joins below hand
        // the panic to the caller.
        let panicked = std::thread::scope(|s| {
            let (credit_tx, credit_rx) = em_rt::channel::<()>();
            for _ in 0..max_in_flight {
                credit_tx.send(()).expect("credit receiver alive");
            }
            let (fetched_tx, fetched_rx) = em_rt::channel::<InFlight<(Table, Gathered)>>();
            let (job_tx, job_rx) = em_rt::channel::<InFlight<Featurized>>();
            let (done_tx, done_rx) = em_rt::channel::<(BatchOutput, Instant, BatchTelemetry)>();
            // Fetch stage: arrival order, one credit each.
            let fetch = s.spawn(move || {
                let mut seq = 0usize;
                while let Some(queries) = queries.recv() {
                    if credit_rx.recv().is_none() {
                        break; // emitter gone: consumer vanished entirely
                    }
                    let started = Instant::now();
                    let gathered = fetcher.fetch(&queries);
                    let fetched = InFlight {
                        seq,
                        n_queries: queries.len(),
                        started,
                        batch: (queries, gathered),
                    };
                    if fetched_tx.send(fetched).is_err() {
                        break;
                    }
                    seq += 1;
                }
            });
            let workers: Vec<_> = (0..n_workers)
                .map(|_| {
                    let (job_rx, done_tx) = (job_rx.clone(), done_tx.clone());
                    s.spawn(move || {
                        // Workers share the done channel, so one that
                        // panics closes it outright: the emitter must not
                        // wait for the batch the worker took down with it.
                        let worked = catch_unwind(AssertUnwindSafe(|| {
                            while let Some(job) = job_rx.recv() {
                                let (matches, telem) = job.batch.predict(pipeline);
                                let out = BatchOutput {
                                    seq: job.seq,
                                    n_queries: job.n_queries,
                                    matches,
                                };
                                if done_tx.send((out, job.started, telem)).is_err() {
                                    return;
                                }
                            }
                        }));
                        if let Err(payload) = worked {
                            done_tx.close();
                            resume_unwind(payload);
                        }
                    })
                })
                .collect();
            drop((job_rx, done_tx));
            // Emitter: reorder by sequence number, return credits.
            let emitter = s.spawn(move || {
                type Pending = (BatchOutput, Instant, BatchTelemetry);
                let mut pending: std::collections::BTreeMap<usize, Pending> =
                    std::collections::BTreeMap::new();
                let mut next = 0usize;
                while let Some(done) = done_rx.recv() {
                    pending.insert(done.0.seq, done);
                    while let Some((out, started, telem)) = pending.remove(&next) {
                        let latency_ns = started.elapsed().as_nanos() as u64;
                        record_request(
                            out.seq as u64,
                            out.n_queries,
                            &out.matches,
                            latency_ns,
                            telem,
                        );
                        // A dropped consumer just discards output; the
                        // stream still drains for the producer's sake.
                        let _ = results.send(out);
                        let _ = credit_tx.send(());
                        next += 1;
                    }
                }
            });
            // Coordinator (this thread): featurize in arrival order.
            while let Some(fetched) = fetched_rx.recv() {
                let _span = em_obs::span!("serve.batch");
                let (queries, gathered) = fetched.batch;
                let job = InFlight {
                    seq: fetched.seq,
                    n_queries: fetched.n_queries,
                    started: fetched.started,
                    batch: gathered.featurize(cache, &queries),
                };
                if job_tx.send(job).is_err() {
                    break;
                }
            }
            // Closing the job channel lets the workers drain and exit, and
            // the emitter after them; the fetch stage has already stopped
            // feeding, or stops at its next send.
            drop((job_tx, fetched_rx));
            let joined: Vec<_> = std::iter::once(fetch)
                .chain(workers)
                .chain([emitter])
                .map(|stage| stage.join())
                .collect();
            joined.into_iter().find_map(Result::err)
        });
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }
}

/// Score candidate pairs: probability plus argmax decision, one transform
/// pass ([`FittedEmPipeline::predict_with_scores`]).
fn score_pairs(
    pipeline: &FittedEmPipeline,
    pairs: &[RecordPair],
    features: &Matrix,
) -> Vec<MatchRecord> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let scored = pipeline.predict_with_scores(features);
    PAIRS_SCORED.add(pairs.len() as u64);
    let out: Vec<MatchRecord> = pairs
        .iter()
        .zip(scored)
        .map(|(&pair, (score, is_match))| MatchRecord {
            pair,
            score,
            is_match,
        })
        .collect();
    MATCHES.add(out.iter().filter(|m| m.is_match).count() as u64);
    SCORE_MILLI.record_all(
        out.iter()
            .map(|m| (m.score.clamp(0.0, 1.0) * 1000.0).round() as u64),
    );
    out
}
