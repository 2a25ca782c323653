//! Backward compatibility of model artifacts across format changes.
//!
//! `tests/fixtures/artifact_pre_binned.json` was saved before the histogram
//! split engine existed: its trees name their splitter, but its forest
//! parameters have no splitter, no bin budget, and still a per-forest
//! thread count. Loading it must succeed — the absent forest splitter
//! defaults to the exact engine, the thread count is ignored — and the
//! stored pipeline must reproduce the match probabilities recorded at save
//! time bit for bit.

use em_rt::Json;
use em_serve::ModelArtifact;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Every key `ForestParams::to_json` writes, in order.
const FOREST_PARAM_KEYS: [&str; 10] = [
    "n_estimators",
    "criterion",
    "max_depth",
    "min_samples_split",
    "min_samples_leaf",
    "max_features",
    "splitter",
    "bootstrap",
    "min_impurity_decrease",
    "seed",
];

/// The keys of the stored forest's parameters (`pipeline.model.params`).
fn forest_param_keys(doc: &Json) -> Vec<String> {
    let params = doc
        .get("pipeline")
        .and_then(|p| p.get("model"))
        .and_then(|m| m.get("params"));
    match params {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("artifact has no forest params: {other:?}"),
    }
}

#[test]
fn pre_binned_artifact_loads_and_predicts_bit_exact() {
    let artifact =
        ModelArtifact::load(&fixture_path("artifact_pre_binned.json")).expect("old artifact loads");

    let expected_doc = Json::parse(
        &std::fs::read_to_string(fixture_path("artifact_pre_binned_expected.json")).unwrap(),
    )
    .unwrap();
    let seed = expected_doc
        .get("benchmark_seed")
        .and_then(Json::as_f64)
        .expect("seed") as u64;
    let scale = expected_doc
        .get("scale")
        .and_then(Json::as_f64)
        .expect("scale");
    let expected: Vec<f64> = expected_doc
        .get("match_proba")
        .and_then(Json::as_arr)
        .expect("expected probabilities")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();

    // Rebuild the exact candidate features the fixture was generated on.
    let ds = em_data::Benchmark::FodorsZagats.generate_scaled(seed, scale);
    let g = automl_em::FeatureGenerator::plan_for_tables(
        automl_em::FeatureScheme::AutoMlEm,
        &ds.table_a,
        &ds.table_b,
    );
    let pairs: Vec<em_table::RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let x = g.generate(&ds.table_a, &ds.table_b, &pairs);

    let proba = artifact.pipeline.predict_match_proba(&x);
    assert_eq!(proba.len(), expected.len(), "pair count");
    for (i, (p, e)) in proba.iter().zip(&expected).enumerate() {
        assert_eq!(
            p.to_bits(),
            e.to_bits(),
            "pair {i}: probability drifted: {p} vs {e}"
        );
    }

    // Upgrading the artifact (save in the new format, load again) must not
    // change predictions either.
    let path = std::env::temp_dir()
        .join(format!("em-serve-compat-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    artifact.save(&path).unwrap();
    let resaved = std::fs::read_to_string(&path).unwrap();
    let upgraded = ModelArtifact::load(&path).expect("re-saved artifact loads");
    let _ = std::fs::remove_file(&path);
    let reproba = upgraded.pipeline.predict_match_proba(&x);
    for (p, q) in proba.iter().zip(&reproba) {
        assert_eq!(p.to_bits(), q.to_bits(), "upgrade changed predictions");
    }
    // The upgraded document has no histogram bin budget: no fit reads one.
    let doc = upgraded.to_json().render();
    assert!(
        !doc.contains("\"n_bins\""),
        "upgraded artifact has no n_bins"
    );
    // And the original fixture genuinely predates the histogram engine.
    let old_doc = std::fs::read_to_string(fixture_path("artifact_pre_binned.json")).unwrap();
    assert!(
        !old_doc.contains("n_bins") && !old_doc.contains("binned"),
        "fixture must be a pre-binned artifact"
    );

    // The fixture's forest params carry exactly one key the current format
    // no longer writes — the per-forest thread count, which never affected
    // the trees — and re-saving writes exactly the current keys, so it is
    // gone from the upgraded document.
    let legacy_only: Vec<String> = forest_param_keys(&Json::parse(&old_doc).unwrap())
        .into_iter()
        .filter(|k| !FOREST_PARAM_KEYS.contains(&k.as_str()))
        .collect();
    assert_eq!(legacy_only.len(), 1, "legacy-only keys: {legacy_only:?}");
    let resaved_keys = forest_param_keys(&Json::parse(&resaved).unwrap());
    assert_eq!(resaved_keys, FOREST_PARAM_KEYS);
    assert!(
        !resaved.contains(&format!("\"{}\"", legacy_only[0])),
        "the re-saved document still has the legacy key"
    );
}
