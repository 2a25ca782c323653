//! `serve_store`: cold restart, then bulk scoring against a store-backed
//! catalog.
//!
//! Untimed preparation builds a `ScaleCatalog` into a `CatalogStore`
//! plus a bounded index snapshot and trains the serving artifact. Set-up
//! is the cold restart (artifact load → store open → index open →
//! `Matcher::with_store`); then one client streams a fixed number of
//! fresh query batches through `match_stream`, `in_flight` at a time, and
//! times each batch from send to receipt. Featurization dominates; no
//! forest is fitted.

use crate::layers::{ratio, timed, Trace, Window, ROOT};
use crate::report::{Metric, Outcome};
use crate::stats::{
    begin_peak_window, median_s, median_sorted, ns, peak_rss_mib, quantile_of, rate_line,
    window_rates, Digest,
};
use crate::RunDir;
use automl_em::{EmPipelineConfig, FeatureCache, FeatureGenerator, FeatureScheme};
use em_data::{CatalogSpec, ScaleCatalog};
use em_serve::{
    BatchOutput, CatalogStore, FetchStats, IncrementalIndex, IndexOptions, Matcher, ModelArtifact,
    PersistentIndex, ProbeStats, StreamOptions,
};
use em_table::{RecordPair, Table, Value};
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

/// Probe bounds: generous enough to keep recall useful, tight enough to
/// bound per-query work (the scale bench's serving settings).
pub const TOP_K: usize = 64;
pub const MAX_POSTING: usize = 4096;
const CATALOG_SEED: u64 = 4242;
/// Consecutive batch receipts per throughput window (`ops_per_s` is the
/// median window's scored pairs per second).
const RATE_WINDOW: usize = 8;

pub struct Config {
    pub records: usize,
    pub batch: usize,
    pub in_flight: usize,
    pub warmup_batches: usize,
    /// Timed batches per second of `--seconds` (about what one core of a
    /// 2-core host scores). The work is fixed rather than time-bounded:
    /// the matcher's memory grows with the batches it has served, so a
    /// time-bounded loop made peak memory follow host speed (runs past
    /// ~300 batches read 121 MiB, runs short of it 102 MiB).
    pub batches_per_second: f64,
    /// Timed batches every run makes, however short its seconds.
    pub min_batches: usize,
    pub setup_reps: usize,
    /// Batches an untraced run replays layer by layer to check its output.
    pub check_batches: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            records: 50_000,
            batch: 32,
            in_flight: 4,
            warmup_batches: 8,
            batches_per_second: 12.0,
            min_batches: 8,
            setup_reps: 5,
            check_batches: 16,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Config {
            records: 1_500,
            batch: 8,
            in_flight: 2,
            warmup_batches: 2,
            batches_per_second: 20.0,
            min_batches: 4,
            setup_reps: 1,
            check_batches: 4,
        }
    }

    fn timed_batches(&self, seconds: f64) -> usize {
        ((seconds * self.batches_per_second) as usize).max(self.min_batches)
    }
}

const REQUIRED_SPANS: [&str; 9] = [
    "artifact.load",
    "catalog.open",
    "index.open",
    "featurize.build",
    "probe.query",
    "gather.fetch",
    "featurize.rebind",
    "featurize.generate",
    "predict.score",
];

fn catalog(records: usize) -> ScaleCatalog {
    ScaleCatalog::new(CatalogSpec {
        records,
        seed: CATALOG_SEED,
        ..CatalogSpec::default()
    })
}

/// The serving index's options: overlap blocking on the default shard
/// span with both probe bounds on.
pub fn bounded() -> IndexOptions {
    IndexOptions {
        min_overlap: 2,
        shard_span: em_serve::DEFAULT_SHARD_SPAN,
        top_k: Some(TOP_K),
        max_posting: Some(MAX_POSTING),
    }
}

fn text(t: &Table, row: usize) -> &str {
    match t.cell(row, 0) {
        Value::Text(s) => s.as_str(),
        _ => "",
    }
}

/// Token-set Jaccard: the scale workload's notion of a duplicate (pairs
/// at 0.5 or above), which the serving artifact is trained to find.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let sa: HashSet<&str> = a.split_whitespace().collect();
    let sb: HashSet<&str> = b.split_whitespace().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    inter as f64 / (sa.len() + sb.len() - inter) as f64
}

/// Train the serving artifact as the serving-scale bench does: a default
/// random forest over bounded-probe candidate pairs of a 2k sample of the
/// catalog family, labeled by token Jaccard.
fn train_artifact(path: &str) -> Result<(), String> {
    let cat = catalog(2_000);
    let tb = cat.table();
    let ta = cat.queries(1_000_000, 400);
    let mut index = IncrementalIndex::with_options("name", bounded());
    for row in 0..tb.len() {
        index.upsert(row, Some(text(&tb, row)));
    }
    let pairs = index.candidates(&ta, 0);
    let y: Vec<usize> = pairs
        .iter()
        .map(|p| usize::from(token_jaccard(text(&ta, p.left), text(&tb, p.right)) >= 0.5))
        .collect();
    let positives: usize = y.iter().sum();
    if positives == 0 || positives == y.len() {
        return Err("artifact training set has a single class".into());
    }
    let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ta, &tb);
    let x = g.generate(&ta, &tb, &pairs);
    let fitted = EmPipelineConfig::default_random_forest(7).fit(&x, &y);
    ModelArtifact::for_tables(FeatureScheme::AutoMlEm, &ta, &tb, fitted).save(path)
}

/// Files the untimed preparation leaves for the timed part.
struct Prepared {
    cat: ScaleCatalog,
    artifact: String,
    catalog_dir: PathBuf,
    index_dir: PathBuf,
}

fn prepare(cfg: &Config, run_dir: &RunDir) -> Result<Prepared, String> {
    let p = Prepared {
        cat: catalog(cfg.records),
        artifact: run_dir.path("artifact.json").to_string_lossy().into_owned(),
        catalog_dir: run_dir.path("catalog"),
        index_dir: run_dir.path("index"),
    };
    train_artifact(&p.artifact)?;
    let mut store = CatalogStore::create(&p.catalog_dir, p.cat.schema())?;
    let mut index = IncrementalIndex::with_options("name", bounded());
    p.cat
        .for_each_chunk(8192, |first, rows| -> Result<(), String> {
            for (i, row) in rows.iter().enumerate() {
                if let Value::Text(s) = &row[0] {
                    index.upsert(first + i, Some(s));
                }
                store.append_row(row)?;
            }
            store.commit()
        })?;
    drop(store);
    drop(PersistentIndex::create(&p.index_dir, index)?);
    Ok(p)
}

/// The cold restart, through the public entry points.
fn open_matcher(p: &Prepared) -> Result<Matcher, String> {
    let artifact = ModelArtifact::load(&p.artifact)?;
    let store = CatalogStore::open(&p.catalog_dir)?;
    let index = PersistentIndex::open(&p.index_dir)?;
    let mut m = Matcher::with_store(artifact, store, index)?;
    m.set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    Ok(m)
}

/// Query batches starting at stream offset `start`. Runs draw from
/// seed-dependent offsets far apart, so every batch is fresh.
fn batches(cat: &ScaleCatalog, start: usize, n: usize, size: usize) -> Vec<Table> {
    (0..n)
        .map(|b| cat.queries(start + b * size, size))
        .collect()
}

fn offsets(seed: u64) -> (usize, usize) {
    // Each seed owns a 2^24-query slice of the query stream, warm-up in its
    // first half and timed batches in its second.
    let base = (seed % (1 << 20)) as usize * (1 << 24) + (1 << 22);
    (base, base + (1 << 23))
}

fn digest_output(d: &mut Digest, seq: usize, o: &BatchOutput) {
    d.word(seq as u64);
    d.word(o.n_queries as u64);
    for m in &o.matches {
        d.word(m.pair.left as u64);
        d.word(m.pair.right as u64);
        d.word(m.score.to_bits());
        d.word(u64::from(m.is_match));
    }
}

/// What the entry point returned: warm-up and timed outputs, and each
/// timed batch's send-to-receipt latency and receipt time.
struct Streamed {
    outputs: Vec<BatchOutput>,
    latency_ns: Vec<u64>,
    /// Nanoseconds from the start of the timed loop to each receipt.
    receipt_ns: Vec<u64>,
    warmup: Vec<BatchOutput>,
}

/// Warm up, then run the closed loop: keep `in_flight` batches in flight
/// until every timed batch is answered, timing each from send to receipt.
fn stream(m: &mut Matcher, warm: &[Table], timed: &[Table], in_flight: usize) -> Streamed {
    let opts = StreamOptions {
        max_in_flight: in_flight,
        predict_workers: 0,
    };
    let (qtx, qrx) = em_rt::channel::<Table>();
    let (rtx, rrx) = em_rt::channel::<BatchOutput>();
    for b in warm {
        qtx.send(b.clone()).expect("stream open");
    }
    qtx.close();
    m.match_stream(qrx, rtx, opts);
    let warmup: Vec<BatchOutput> = std::iter::from_fn(|| rrx.recv()).collect();

    let (qtx, qrx) = em_rt::channel::<Table>();
    let (rtx, rrx) = em_rt::channel::<BatchOutput>();
    std::thread::scope(|s| {
        let client = s.spawn(move || {
            let start = Instant::now();
            let mut sent: VecDeque<Instant> = VecDeque::new();
            let mut next = 0usize;
            let send = |next: &mut usize, sent: &mut VecDeque<Instant>| {
                let b = timed[*next].clone();
                sent.push_back(Instant::now());
                qtx.send(b).expect("stream open");
                *next += 1;
            };
            while next < in_flight.min(timed.len()) {
                send(&mut next, &mut sent);
            }
            let (mut outputs, mut latency_ns, mut receipt_ns) =
                (Vec::new(), Vec::new(), Vec::new());
            while outputs.len() < next {
                let Some(out) = rrx.recv() else { break };
                let at = sent.pop_front().expect("a receipt answers a send");
                latency_ns.push(ns(at.elapsed()));
                receipt_ns.push(ns(start.elapsed()));
                outputs.push(out);
                if next < timed.len() {
                    send(&mut next, &mut sent);
                }
            }
            qtx.close();
            (outputs, latency_ns, receipt_ns)
        });
        m.match_stream(qrx, rtx, opts);
        let (outputs, latency_ns, receipt_ns) = client.join().expect("client thread");
        Streamed {
            outputs,
            latency_ns,
            receipt_ns,
            warmup,
        }
    })
}

/// Quality of the served decisions: F1 of `is_match` against the
/// token-Jaccard duplicate rule the artifact was trained on.
fn served_f1(cat: &ScaleCatalog, batches: &[Table], outputs: &[BatchOutput]) -> f64 {
    let (mut tp, mut fp, mut fne) = (0u64, 0u64, 0u64);
    for (o, b) in outputs.iter().zip(batches) {
        for m in &o.matches {
            let truth = token_jaccard(text(b, m.pair.left), &cat.value(m.pair.right)) >= 0.5;
            match (m.is_match, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fne += 1,
                _ => {}
            }
        }
    }
    ratio(2 * tp, 2 * tp + fp + fne)
}

/// Per-layer tallies of a replay.
#[derive(Default)]
struct Replayed {
    digest: Digest,
    queries: u64,
    pairs: u64,
    probe: ProbeStats,
    fetch: FetchStats,
    /// Seconds under the replay root.
    wall_s: f64,
}

/// `Matcher::with_store` + `match_stream` over `batches`, driven layer by
/// layer through the crates' public functions in the order the matcher
/// calls them, with a span around each call. Prediction runs inline: the
/// matcher's predict workers change when a batch is scored, not what it
/// scores.
fn replay(p: &Prepared, batches: &[Table]) -> Result<Replayed, String> {
    let started = Instant::now();
    let root = em_obs::span!(ROOT);
    let artifact = {
        let _s = em_obs::span!("ledger.artifact.load");
        ModelArtifact::load(&p.artifact)?
    };
    let mut store = {
        let _s = em_obs::span!("ledger.catalog.open");
        CatalogStore::open(&p.catalog_dir)?
    };
    let mut index = {
        let _s = em_obs::span!("ledger.index.open");
        PersistentIndex::open(&p.index_dir)?
    };
    index
        .index_mut()
        .set_probe_limits(Some(TOP_K), Some(MAX_POSTING));
    let mut cache = {
        let _s = em_obs::span!("ledger.featurize.build");
        FeatureCache::unbound(artifact.generator())
    };
    let mut r = Replayed::default();
    for (seq, batch) in batches.iter().enumerate() {
        let (pairs, probe) = {
            let _s = em_obs::span!("ledger.probe.query");
            index.index().candidates_with_stats(batch, 0)
        };
        let (slice, local, fetch) = {
            let _s = em_obs::span!("ledger.gather.fetch");
            let mut rows: Vec<u32> = pairs.iter().map(|p| p.right as u32).collect();
            rows.sort_unstable();
            rows.dedup();
            let (slice, fetch) = store.fetch_rows_with_stats(&rows)?;
            let local: Vec<RecordPair> = pairs
                .iter()
                .map(|p| {
                    let at = rows
                        .binary_search(&(p.right as u32))
                        .expect("row was gathered");
                    RecordPair::new(p.left, at)
                })
                .collect();
            (slice, local, fetch)
        };
        {
            let _s = em_obs::span!("ledger.featurize.rebind");
            cache.rebind_left(batch);
            cache.rebind_right(&slice);
        }
        let features = {
            let _s = em_obs::span!("ledger.featurize.generate");
            cache.generate(batch, &slice, &local)
        };
        let scored = {
            let _s = em_obs::span!("ledger.predict.score");
            if pairs.is_empty() {
                Vec::new()
            } else {
                artifact.pipeline.predict_with_scores(&features)
            }
        };
        r.digest.word(seq as u64);
        r.digest.word(batch.len() as u64);
        for (p, (score, is_match)) in pairs.iter().zip(&scored) {
            r.digest.word(p.left as u64);
            r.digest.word(p.right as u64);
            r.digest.word(score.to_bits());
            r.digest.word(u64::from(*is_match));
        }
        r.queries += batch.len() as u64;
        r.pairs += pairs.len() as u64;
        r.probe.pruned_tokens += probe.pruned_tokens;
        r.probe.capped_queries += probe.capped_queries;
        r.probe.stale_recounts += probe.stale_recounts;
        r.fetch.requested += fetch.requested;
        r.fetch.cache_hits += fetch.cache_hits;
        r.fetch.rows_read += fetch.rows_read;
    }
    drop(root);
    r.wall_s = started.elapsed().as_secs_f64();
    Ok(r)
}

/// Digest of the warm-up and timed outputs, re-sequenced as one stream
/// so it compares with a replay of the concatenated batches.
fn stream_digest(s: &Streamed, limit: usize) -> Digest {
    let mut d = Digest::default();
    for (seq, o) in s.warmup.iter().chain(&s.outputs).take(limit).enumerate() {
        digest_output(&mut d, seq, o);
    }
    d
}

fn check_order(out: &mut Outcome, s: &Streamed, batches: &[Table]) {
    let in_order = |outs: &[BatchOutput]| outs.iter().enumerate().all(|(i, o)| o.seq == i);
    out.check("warm-up batches return in order", in_order(&s.warmup));
    out.check("timed batches return in order", in_order(&s.outputs));
    out.check(
        "every timed batch was answered",
        s.outputs.len() == batches.len() && s.latency_ns.len() == batches.len(),
    );
    out.check(
        "answers cover their batches",
        s.outputs.iter().zip(batches).all(|(o, b)| {
            o.n_queries == b.len() && o.matches.iter().all(|m| m.pair.left < b.len())
        }),
    );
}

pub fn run(cfg: &Config, seed: u64, seconds: f64, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(false);
    let p = prepare(cfg, run_dir)?;
    let (warm_at, timed_at) = offsets(seed);
    let warm = batches(&p.cat, warm_at, cfg.warmup_batches, cfg.batch);
    let pool = batches(&p.cat, timed_at, cfg.timed_batches(seconds), cfg.batch);

    begin_peak_window();
    let mut setups = Vec::new();
    let mut matcher = None;
    for _ in 0..cfg.setup_reps {
        drop(matcher.take());
        let (m, secs) = timed(|| open_matcher(&p));
        setups.push(secs);
        matcher = Some(m?);
    }
    let mut matcher = matcher.expect("at least one set-up");
    let s = stream(&mut matcher, &warm, &pool, cfg.in_flight);
    let peak = peak_rss_mib();
    drop(matcher);
    out.attempted = (s.warmup.len() + s.latency_ns.len()) as u64;
    check_order(&mut out, &s, &pool);

    // Replay a prefix layer by layer and demand the same bits.
    let prefix: Vec<Table> = warm
        .iter()
        .chain(&pool[..s.outputs.len()])
        .take(cfg.check_batches)
        .cloned()
        .collect();
    let r = replay(&p, &prefix)?;
    out.check(
        "match_stream output equals the layer-by-layer replay",
        r.digest == stream_digest(&s, prefix.len()),
    );

    let pairs: Vec<u64> = s.outputs.iter().map(|o| o.matches.len() as u64).collect();
    let rates = window_rates(&pairs, &s.receipt_ns, RATE_WINDOW);
    println!("{}", rate_line("scored pairs/s", &rates));
    let n = s.latency_ns.len();
    out.push(Metric::with_samples(
        "setup_s",
        median_s(&setups),
        setups.len(),
    ));
    out.push(Metric::new("peak_rss_mib", peak));
    out.push(Metric::with_samples(
        "ops_per_s",
        median_sorted(&rates),
        rates.len(),
    ));
    out.push(Metric::with_samples(
        "p50_ms",
        quantile_of(&s.latency_ns, 0.5) as f64 / 1e6,
        n,
    ));
    out.push(Metric::with_samples(
        "tail_ms",
        quantile_of(&s.latency_ns, 0.95) as f64 / 1e6,
        n,
    ));
    out.push(Metric::new("quality", served_f1(&p.cat, &pool, &s.outputs)));
    Ok(out)
}

/// The traced run: the entry point untraced, then the full batch sequence
/// replayed untraced (the overhead baseline) and traced; all three must
/// agree bit for bit.
pub fn traced(cfg: &Config, seed: u64, seconds: f64, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(true);
    let p = prepare(cfg, run_dir)?;
    let (warm_at, timed_at) = offsets(seed);
    let warm = batches(&p.cat, warm_at, cfg.warmup_batches, cfg.batch);
    let pool = batches(&p.cat, timed_at, cfg.timed_batches(seconds), cfg.batch);
    let mut matcher = open_matcher(&p)?;
    let s = stream(&mut matcher, &warm, &pool, cfg.in_flight);
    drop(matcher);
    out.attempted = (s.warmup.len() + s.outputs.len()) as u64;
    check_order(&mut out, &s, &pool);
    let all: Vec<Table> = warm
        .iter()
        .chain(&pool[..s.outputs.len()])
        .cloned()
        .collect();
    let want = stream_digest(&s, all.len());

    let plain = replay(&p, &all)?;
    let window = Window::open(run_dir.path("trace.jsonl"));
    let replayed = replay(&p, &all);
    let trace = window.close(&REQUIRED_SPANS)?;
    let r = replayed?;
    out.check(
        "untraced replay equals match_stream bit for bit",
        plain.digest == want,
    );
    out.check(
        "traced replay equals match_stream bit for bit",
        r.digest == want,
    );
    push_layers(&mut out, &trace, &r, plain.wall_s);
    Ok(out)
}

fn push_layers(out: &mut Outcome, t: &Trace, r: &Replayed, plain_s: f64) {
    for (metric, span) in [
        ("artifact.load_s", "artifact.load"),
        ("catalog.open_s", "catalog.open"),
        ("index.open_s", "index.open"),
        ("featurize.build_s", "featurize.build"),
        ("probe.s", "probe.query"),
        ("gather.s", "gather.fetch"),
        ("featurize.rebind_s", "featurize.rebind"),
        ("featurize.generate_s", "featurize.generate"),
        ("predict.s", "predict.score"),
    ] {
        out.push(Metric::new(metric, t.total_s(span)));
    }
    let q = r.queries.max(1) as f64;
    out.push(Metric::new(
        "featurize.ns_per_pair",
        t.total_s("featurize.generate") * 1e9 / r.pairs.max(1) as f64,
    ));
    out.push(Metric::new(
        "probe.candidates_per_query",
        r.pairs as f64 / q,
    ));
    out.push(Metric::new(
        "probe.pruned_tokens",
        r.probe.pruned_tokens as f64 / q,
    ));
    out.push(Metric::new(
        "probe.capped_queries",
        r.probe.capped_queries as f64 / q,
    ));
    out.push(Metric::new(
        "probe.stale_recounts",
        r.probe.stale_recounts as f64 / q,
    ));
    out.push(Metric::new("gather.rows_read", r.fetch.rows_read as f64));
    out.push(Metric::new(
        "gather.hit_ratio",
        ratio(r.fetch.cache_hits, r.fetch.requested),
    ));
    t.push_common(out, plain_s);
    out.zero_fill_layers();
}
