//! End-to-end serving demo: search a pipeline on a benchmark, package it as
//! a [`ModelArtifact`], reload it, and stream query batches through a
//! [`Matcher`] — verifying on the way that the streamed output is exactly
//! (bit for bit) what the in-memory predict path produces.
//!
//! Usage: `serve_demo [artifact.json] [--top-k N] [--max-posting N]` —
//! the artifact path defaults to a temp file that is removed on success;
//! the probe-bound flags feed [`Matcher::set_probe_limits`] (applied to
//! both the streamed and the verification matcher, so the parity check
//! compares like with like) and cumulative pruned/capped stats print on
//! exit. Set `EM_TRACE` to also collect serve-path telemetry (batch
//! latency quantiles are printed when tracing is on). Set
//! `EM_METRICS=addr` (e.g. `127.0.0.1:0`) to serve live telemetry while
//! the demo runs; the demo then also asserts that the windowed `/metrics`
//! batch-latency quantiles equal the post-hoc trace histogram's and that
//! `/healthz` reports a verified index.

use automl_em::{AutoMlEmOptions, FeatureScheme, PreparedDataset};
use em_automl::Budget;
use em_bench::serve_scale::{print_probe_totals, ProbeBounds};
use em_serve::{
    batch_latency_quantiles, http_get, MatchRecord, Matcher, MetricsServer, ModelArtifact,
    StreamOptions,
};
use em_table::{RecordPair, Table};
use std::collections::HashSet;
use std::time::Instant;

/// Precision/recall/F1 of a predicted match set against gold positives.
fn prf(predicted: &HashSet<RecordPair>, gold: &HashSet<RecordPair>) -> (f64, f64, f64) {
    let tp = predicted.intersection(gold).count() as f64;
    let p = if predicted.is_empty() {
        0.0
    } else {
        tp / predicted.len() as f64
    };
    let r = if gold.is_empty() {
        0.0
    } else {
        tp / gold.len() as f64
    };
    let f1 = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    (p, r, f1)
}

fn main() {
    let (bounds, positional) = ProbeBounds::extract(std::env::args().skip(1));
    let artifact_path = positional.first().cloned();
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    println!("== em-serve demo: Fodors-Zagats ==");
    println!("threads = {}", em_rt::threads());
    println!("probe bounds: {}", bounds.describe());
    let metrics = MetricsServer::start_from_env().expect("EM_METRICS endpoint");
    // The windowed-vs-post-hoc parity check below compares the live
    // windows against the trace side of the same histogram, so an endpoint
    // run needs a trace sink even when the caller did not ask for one.
    let tmp_trace = if metrics.is_some() && std::env::var("EM_TRACE").is_err() {
        let p = std::env::temp_dir().join(format!("em-serve-demo-{}.jsonl", std::process::id()));
        em_obs::set_mode(em_obs::TraceMode::File(p.to_string_lossy().into_owned()));
        Some(p)
    } else {
        None
    };
    if let Some(server) = &metrics {
        println!("metrics endpoint: http://{}/metrics", server.addr());
    }

    // 1. Search a pipeline (small budget: this is a demo, not a paper run).
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(11, 1.0);
    let prepared = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 11);
    let options = AutoMlEmOptions {
        budget: Budget::Evaluations(8),
        ..Default::default()
    };
    let t0 = Instant::now();
    let (valid_f1, test_f1, result) = prepared.run_automl(options);
    println!(
        "search: valid F1 = {valid_f1:.4}, test F1 = {test_f1:.4} ({:.1}s)",
        t0.elapsed().as_secs_f64()
    );

    // 2. Package + reload the artifact.
    let tmp_default = std::env::temp_dir()
        .join(format!("em-serve-demo-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let path = artifact_path.clone().unwrap_or(tmp_default);
    let artifact = ModelArtifact::for_tables(
        FeatureScheme::AutoMlEm,
        &ds.table_a,
        &ds.table_b,
        result.fitted,
    );
    artifact.save(&path).expect("save artifact");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("artifact: {path} ({bytes} bytes)");
    let loaded = ModelArtifact::load(&path).expect("load artifact");

    // 3. Serve: catalog = table B, queries = table A in batches of 8.
    let attr = ds.table_a.schema().names()[0].to_string();
    let mut matcher = Matcher::new(loaded, ds.table_b.clone(), &attr, 1).expect("assemble matcher");
    bounds.apply(&mut matcher);
    let batches: Vec<Table> = (0..ds.table_a.len())
        .step_by(8)
        .map(|lo| ds.table_a.slice_rows(lo..(lo + 8).min(ds.table_a.len())))
        .collect();
    let (query_tx, query_rx) = em_rt::channel::<Table>();
    let (result_tx, result_rx) = em_rt::channel::<em_serve::BatchOutput>();
    for b in &batches {
        query_tx.send(b.clone()).expect("stream open");
    }
    query_tx.close();
    let t1 = Instant::now();
    matcher.match_stream(query_rx, result_tx, StreamOptions::default());
    let stream_secs = t1.elapsed().as_secs_f64();
    let outputs: Vec<em_serve::BatchOutput> = std::iter::from_fn(|| result_rx.recv()).collect();

    let latency = batch_latency_quantiles();
    // 3b. With a live endpoint: one `serve.batch_ns` record call fed both
    // the windows behind /metrics and the trace, through one bucket core
    // and one quantile rule, so windowed and post-hoc p50/p99 are equal.
    // Checked *before* the in-memory verification pass, which records its
    // own batches.
    if let Some(server) = &metrics {
        let (code, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
        assert_eq!(code, 200, "/metrics not served");
        let metric = |key: &str| -> f64 {
            body.lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    (k == key).then(|| v.parse::<f64>().ok())?
                })
                .unwrap_or_else(|| panic!("{key} missing from /metrics:\n{body}"))
        };
        assert_eq!(metric("serve.batches.total") as usize, outputs.len());
        let (w_p50, w_p99) = (
            metric("serve.batch_ns.5m.p50"),
            metric("serve.batch_ns.5m.p99"),
        );
        let (t_p50, t_p99) = latency.expect("trace histogram recorded the stream");
        for (tag, w, t) in [("p50", w_p50, t_p50), ("p99", w_p99, t_p99)] {
            assert_eq!(w, t as f64, "{tag}: windowed vs post-hoc batch latency");
        }
        matcher.verify_index().expect("index invariants");
        let (code, health) = http_get(server.addr(), "/healthz").expect("GET /healthz");
        assert_eq!(code, 200, "/healthz failed:\n{health}");
        assert!(health.contains("index ok"), "{health}");
        println!(
            "telemetry: windowed p50/p99 = {:.2}/{:.2}ms equal post-hoc; /healthz ok",
            w_p50 / 1e6,
            w_p99 / 1e6
        );
    }

    // 4. Verify: streamed output must equal the in-memory predict path.
    let reference = ModelArtifact::load(&path).expect("reload artifact");
    let mut in_memory =
        Matcher::new(reference, ds.table_b.clone(), &attr, 1).expect("assemble matcher");
    bounds.apply(&mut in_memory);
    let mut mismatches = 0usize;
    // Streamed records with `pair.left` mapped from batch-local rows back
    // to global table-A rows.
    let mut streamed: Vec<MatchRecord> = Vec::new();
    let mut base = 0usize;
    for (batch, out) in batches.iter().zip(&outputs) {
        let expect = in_memory.match_batch(batch);
        if out.matches.len() != expect.len() {
            mismatches += 1;
        } else {
            mismatches += out
                .matches
                .iter()
                .zip(&expect)
                .filter(|(m, e)| {
                    m.pair != e.pair
                        || m.score.to_bits() != e.score.to_bits()
                        || m.is_match != e.is_match
                })
                .count();
        }
        streamed.extend(out.matches.iter().map(|m| MatchRecord {
            pair: RecordPair::new(base + m.pair.left, m.pair.right),
            ..*m
        }));
        base += batch.len();
    }
    assert_eq!(
        outputs.len(),
        batches.len(),
        "stream dropped {} batches",
        batches.len() - outputs.len()
    );
    assert_eq!(
        mismatches, 0,
        "streamed output diverged from in-memory path"
    );
    println!(
        "stream: {} batches, {} candidate pairs in {:.2}s ({:.0} pairs/s) — \
         bit-identical to the in-memory path",
        outputs.len(),
        streamed.len(),
        stream_secs,
        streamed.len() as f64 / stream_secs
    );
    if let Some((p50, p99)) = latency {
        println!(
            "batch latency: p50 = {:.2}ms, p99 = {:.2}ms",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6
        );
    }

    // 5. Quality: streamed decisions against the gold pair labels. The
    // stream scores blocked candidates over the *full* tables, so compare
    // on the labeled candidate set.
    let labeled: std::collections::HashMap<RecordPair, bool> =
        ds.pairs.iter().map(|p| (p.pair, p.label)).collect();
    let gold: HashSet<RecordPair> = ds
        .pairs
        .iter()
        .filter(|p| p.label)
        .map(|p| p.pair)
        .collect();
    let predicted: HashSet<RecordPair> = streamed
        .iter()
        .filter(|m| m.is_match && labeled.contains_key(&m.pair))
        .map(|m| m.pair)
        .collect();
    let (p, r, f1) = prf(&predicted, &gold);
    println!("serve quality on labeled pairs: precision = {p:.4}, recall = {r:.4}, F1 = {f1:.4}");

    if artifact_path.is_none() {
        let _ = std::fs::remove_file(&path);
    }
    print_probe_totals("probe totals (streamed matcher)", &matcher);
    em_obs::flush();
    if let Some(p) = tmp_trace {
        em_obs::set_mode(em_obs::TraceMode::Off);
        let _ = std::fs::remove_file(p);
    }
    drop(metrics);
    println!("ok");
}
