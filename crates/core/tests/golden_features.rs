//! Golden digests of the AutoML-EM feature matrices.
//!
//! `PreparedDataset::prepare(.., FeatureScheme::AutoMlEm, 1)` on four
//! synthesized benchmarks must produce these exact feature bits. The
//! featurization kernels (`em_text::eval_families`, profile drafting and
//! interning, the feature cache) are rewritten for speed from time to
//! time, always under the contract that every feature keeps its bits; the
//! digests pin that contract across commits, not just between the cached
//! and uncached paths of one build.
//!
//! Each digest is FNV-1a-64 over the matrix row-major, one value at a time
//! as `f64::to_bits().to_le_bytes()`. No feature uses a transcendental
//! function, so the bits are the same on any IEEE-754 host.

use automl_em::{FeatureScheme, PreparedDataset};
use em_data::Benchmark;

/// FNV-1a-64 of a matrix's values, row-major, as little-endian `f64` bits.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn automl_em_feature_bits_match_golden_digests() {
    // Scales keep the debug build's run to seconds; Abt-Buy's long
    // descriptions exercise every kernel past the 64-char word boundary.
    let cases = [
        (Benchmark::AbtBuy, 0.25),
        (Benchmark::DblpScholar, 0.05),
        (Benchmark::AmazonGoogle, 0.1),
        (Benchmark::FodorsZagats, 1.0),
    ];
    let got: Vec<(String, usize, usize, String)> = cases
        .iter()
        .map(|&(benchmark, scale)| {
            let ds = benchmark.generate_scaled(1, scale);
            let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, 1);
            let x = &prep.features;
            let hex = format!("{:016x}", digest(x.as_slice()));
            (prep.name, x.nrows(), x.ncols(), hex)
        })
        .collect();
    let want: Vec<(String, usize, usize, String)> = [
        ("Abt-Buy", 2394, 36, "f899d76bdbf119f1"),
        ("DBLP-Scholar", 1435, 52, "dba6d5bfc9850cd8"),
        ("Amazon-Google", 1146, 36, "9d0f3198a46b9f89"),
        ("Fodors-Zagats", 946, 84, "f452e3a8e2fe4ae3"),
    ]
    .iter()
    .map(|&(name, rows, cols, hex)| (name.to_owned(), rows, cols, hex.to_owned()))
    .collect();
    assert_eq!(got, want);
}
