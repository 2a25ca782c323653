//! Benchmarks for feature generation throughput (the cost of paper §III-B):
//! Magellan's rule-based scheme vs AutoML-EM's exhaustive scheme, per pair
//! and in parallel batches on the shared `em-rt` pool, on an easy
//! (short-string) and a hard (long-text) benchmark.

use automl_em::{FeatureGenerator, FeatureScheme};
use em_bench::timing::Harness;
use em_data::Benchmark;
use em_table::RecordPair;
use std::hint::black_box;

fn main() {
    if std::env::var("EM_THREADS").is_err() {
        em_rt::set_threads(4);
    }
    eprintln!("running with {} threads", em_rt::threads());

    let mut h = Harness::new("featuregen");
    for (label, benchmark) in [
        ("fodors_zagats", Benchmark::FodorsZagats),
        ("abt_buy", Benchmark::AbtBuy),
    ] {
        let ds = benchmark.generate_scaled(0, 0.05);
        let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
        for (scheme_label, scheme) in [
            ("magellan", FeatureScheme::Magellan),
            ("automl_em", FeatureScheme::AutoMlEm),
        ] {
            let generator = FeatureGenerator::plan_for_tables(scheme, &ds.table_a, &ds.table_b);
            h.bench(
                &format!("featuregen/{label}/{scheme_label}/single_pair"),
                || generator.generate_row(black_box(&ds.table_a), black_box(&ds.table_b), pairs[0]),
            );
            h.bench(
                &format!("featuregen/{label}/{scheme_label}/batch_pool"),
                || generator.generate(&ds.table_a, &ds.table_b, black_box(&pairs)),
            );
        }
    }
    h.finish();
}
