//! `em-rt` — the zero-dependency runtime underneath the AutoML-EM workspace.
//!
//! The workspace's hot paths (forest training, pairwise feature generation,
//! pipeline search) are embarrassingly parallel but latency-sensitive: a
//! single SMAC run fits hundreds of small forests, so per-fit thread-spawn
//! overhead compounds. This crate owns that problem with five tiny modules:
//!
//! * [`pool`] — a persistent, lazily-initialized, process-global worker pool
//!   behind two safe calls: [`parallel_map`] returns `f(i)` in index order,
//!   and [`parallel_rows`] hands each disjoint row of a caller's buffer to
//!   its own call. Threads are spawned once and reused across every fit of
//!   a search, instead of once per call; the pool's lifetime erasure is the
//!   only `unsafe` a parallel section rests on.
//! * [`rng`] — a deterministic SplitMix64-seeded xoshiro256++ generator
//!   ([`StdRng`]) replacing the `rand` crate: `seed_from_u64`,
//!   `random_range`, `shuffle`, and Gaussian sampling, plus the
//!   [`derive_seed`] per-task stream-splitting discipline that keeps
//!   parallel sections bit-identical across thread counts.
//! * [`channel`](mod@channel) — a blocking MPMC channel (`Mutex<VecDeque>` + `Condvar`)
//!   for coordinator/worker protocols such as the serving stream's stages.
//! * [`json`] — a minimal JSON value/writer/parser for benchmark and
//!   experiment output, standing in for `serde`.
//! * [`stats`] — lock-free self-instrumentation (pool queue-wait, per-worker
//!   busy time, channel traffic) behind a relaxed-atomic enable flag, plus
//!   the process-wide monotonic timebase `em-obs` builds its traces on.
//!
//! Everything is plain `std`; the workspace builds with no registry access.

pub mod channel;
pub mod json;
pub mod pool;
pub mod rng;
pub mod stats;

pub use channel::{channel, Receiver, Sender};
pub use json::Json;
pub use pool::{parallel_map, parallel_rows, pool_workers, set_threads, threads};
pub use rng::{derive_seed, SliceRandom, StdRng};
