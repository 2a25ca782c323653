//! # em-serve — serving a searched AutoML-EM matcher
//!
//! The paper's pipeline search ends with a fitted model; this crate turns
//! that result into a deployable matching service, in these pieces:
//!
//! * [`ModelArtifact`] — a versioned JSON document capturing the feature
//!   plan and every fitted parameter (imputer statistics, scaler centers,
//!   selected features, model weights). Save/load round-trips are
//!   bit-exact: a loaded pipeline predicts identically to the one that was
//!   saved, on every input.
//! * [`IncrementalIndex`] — a compact sharded interned-postings overlap
//!   index over a catalog table: delta-encoded varint postings
//!   ([`DeltaList`]) partitioned into row-range shards, per-record
//!   `upsert`/`remove` with deferred retraction + compaction, and
//!   grid-parallel candidate probes with optional `top_k` / `max_posting`
//!   bounds. It lives in `em-table`, where the batch
//!   [`em_table::OverlapBlocker`] probes the same engine, and is
//!   re-exported here (and as [`index`] / [`compact`]).
//! * [`IndexStore`] / [`PersistentIndex`] — snapshot + append-only replay
//!   log persistence: every upsert/remove is WAL-logged with CRC framing
//!   before it is applied, recovery loads the snapshot, replays the tail
//!   (tolerating a torn final record), and verifies postings invariants.
//! * [`Matcher`] — one batch step, probe → gather the candidate rows →
//!   featurize (through the shared [`automl_em::FeatureCache`]) → predict,
//!   over an in-memory `Table` + [`IncrementalIndex`] or a
//!   [`CatalogStore`] + [`PersistentIndex`]; either per batch
//!   ([`Matcher::match_batch`]) or over a channel-fed stream
//!   ([`Matcher::match_stream`]) with bounded in-flight batches and
//!   deterministic, input-ordered output at any `EM_THREADS`.
//!
//! ```
//! use automl_em::{AutoMlEmOptions, FeatureScheme, PreparedDataset};
//! use em_automl::Budget;
//! use em_data::Benchmark;
//! use em_serve::{Matcher, ModelArtifact};
//!
//! let ds = em_data::Benchmark::FodorsZagats.generate_scaled(5, 0.25);
//! let prepared = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 5);
//! let options = AutoMlEmOptions { budget: Budget::Evaluations(2), ..Default::default() };
//! let (_, _, result) = prepared.run_automl(options);
//!
//! let artifact = ModelArtifact::for_tables(
//!     FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b, result.fitted);
//! let mut matcher = Matcher::new(artifact, ds.table_b.clone(), "name", 1).unwrap();
//! let queries = ds.table_a.slice_rows(0..4);
//! let scored = matcher.match_batch(&queries);
//! assert!(scored.iter().all(|m| (0.0..=1.0).contains(&m.score)));
//! ```

pub mod artifact;
pub mod catstore;
pub mod matcher;
pub mod store;
pub mod telemetry;

pub use artifact::{ModelArtifact, ARTIFACT_FORMAT, ARTIFACT_VERSION};
pub use catstore::{CatalogStore, FetchStats, CATALOG_FORMAT, CATALOG_VERSION};
pub use em_table::{compact, index};
pub use em_table::{DeltaList, IncrementalIndex, IndexOptions, ProbeStats, DEFAULT_SHARD_SPAN};
pub use matcher::{batch_latency_quantiles, BatchOutput, MatchRecord, Matcher, StreamOptions};
pub use store::{IndexStore, PersistentIndex};
pub use telemetry::{http_get, MetricsServer};
