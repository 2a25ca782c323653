#!/bin/sh
# Regenerate every paper table/figure. Scales are chosen for a single-core
# machine; pass-through of per-binary flags documents each run's setting.
set -x
cd "$(dirname "$0")/.." || exit 1
R="results"
mkdir -p $R
cargo run --release -p em-bench --bin exp_datasets -q -- --scale 1.0            > $R/table3_datasets.txt 2>&1
cargo run --release -p em-bench --bin exp_fig3     -q -- --scale 1.0            > $R/fig3_tuning.txt 2>&1
cargo run --release -p em-bench --bin exp_table4   -q -- --scale 0.5 --budget 32 > $R/table4_magellan_vs_automl.txt 2>&1
cargo run --release -p em-bench --bin exp_table4   -q -- --scale 0.5 --budget 32 --only abt --show-pipeline > $R/fig11_pipeline.txt 2>&1
cargo run --release -p em-bench --bin exp_fig8     -q -- --scale 0.5 --budget 32 > $R/fig8_vs_deepmatcher.txt 2>&1
cargo run --release -p em-bench --bin exp_fig9     -q -- --scale 0.5 --budget 24 > $R/fig9_featuregen.txt 2>&1
cargo run --release -p em-bench --bin exp_fig12    -q -- --scale 0.5 --budget 32 > $R/fig12_ablation.txt 2>&1
cargo run --release -p em-bench --bin exp_fig10    -q -- --scale 0.2 --budget 96 > $R/fig10_modelspace.txt 2>&1
# Labeling-scenario tail (figs 13-15, ablation, weak-vs-active) is shared
# with the standalone active-experiments script — run it once from there.
sh scripts/run_active_experiments.sh || exit 1
echo ALL_EXPERIMENTS_DONE
