#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace must build, every test
# must pass — on a 1-thread pool AND on an 8-thread pool, since every
# parallel path guarantees thread-count-invariant results — and no workspace
# dependency may point at a registry; the build is self-contained by
# construction (see README.md "Zero dependencies").
#
# Flags:
#   --soak   additionally run the 60-second serving soak harness
#            (100k-record mixed workload; fails on invariant violations or
#            unbounded memory growth) and the 1M-record store-backed
#            scored-matches run (peak-RSS-below-baseline assertion).
#            Skipped by default: together they add minutes of wall clock
#            to an otherwise fast gate.
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK=0
for arg in "$@"; do
    case "$arg" in
        --soak) SOAK=1 ;;
        *)
            echo "usage: scripts/verify.sh [--soak]" >&2
            exit 2
            ;;
    esac
done

# Serialize every cargo invocation in this script against concurrent runs.
# Parallel `cargo test`/`cargo build` processes sharing one `target/` race on
# build artifacts (doctest binaries in particular), which shows up as flaky
# "No such file or directory" doctest failures. An exclusive flock on a file
# next to target/ makes the whole verification critical-section.
mkdir -p target
exec 9>target/.verify.lock
if command -v flock >/dev/null 2>&1; then
    flock 9
fi

echo "== checking that all workspace dependencies are path-only =="
# Inside any [dependencies]-like section, a quoted version number (e.g.
# `rand = "0.10"` or `version = "1"`) means a registry lookup; every entry
# must be a `{ path = ... }` or `{ workspace = true }` reference.
if ! awk '
    /^\[/ { in_dep = ($0 ~ /dependencies(\]|\.)/) }
    in_dep && /"[0-9]/ && !/path *=/ {
        printf "%s:%d: registry dependency: %s\n", FILENAME, FNR, $0; bad = 1
    }
    END { exit bad }
' Cargo.toml crates/*/Cargo.toml; then
    echo "error: registry dependencies found (listed above)" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors) =="
# Moving an item between crates is what breaks intra-doc links; a broken or
# ambiguous link, or one to a private item, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== similarity kernels vs the textbook oracle in a release build (em-text) =="
# The workspace test runs below are debug builds, which keep overflow
# checks on the kernels' integer arithmetic. This one checks the code the
# benchmarks and production run, optimized, against the &str oracle
# functions.
cargo test -q --release --offline -p em-text

echo "== posting splice and counting probe in a release build (em-table, em-serve) =="
# Same reason: DeltaList's in-place gap splice does u32 gap arithmetic and
# the probe counts overlaps in u32 slots. Debug builds trap on overflow,
# release builds wrap, so the index's oracle and parity tests run once
# more as the optimized code that serves.
cargo test -q --release --offline -p em-table -p em-serve

echo "== cargo test --offline (EM_THREADS=1) =="
EM_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test --offline (EM_THREADS=8) =="
EM_THREADS=8 cargo test -q --offline --workspace

echo "== determinism harness with the feature cache disabled (EM_FEATCACHE=off) =="
# PreparedDataset::prepare must fall back to the uncached &str path and
# still be bit-identical at any thread count.
EM_FEATCACHE=off EM_THREADS=8 cargo test -q --offline -p automl-em --test determinism --test featcache_props

echo "== weak supervision smoke (LF set -> label model -> AutoML, 1 and 8 threads) =="
# End to end with zero hand labels: apply an LF set, fit the generative
# label model, train AutoML-EM through the sample-weight path. The test
# asserts test F1 above a 0.6 floor; the exp_weak run prints the
# weak-vs-active comparison from the real binary. Run at both pool sizes:
# LF application and the label-model fit guarantee bit-identical results at
# any EM_THREADS (the determinism harness asserts the equality).
EM_THREADS=1 cargo test -q --offline -p em-weak --test weak_props \
    weak_automl_labels_fodors_zagats_with_zero_hand_labels
EM_THREADS=8 cargo test -q --offline -p em-weak --test weak_props \
    weak_automl_labels_fodors_zagats_with_zero_hand_labels
EM_THREADS=1 cargo run -q --release --offline -p em-bench --bin exp_weak -- \
    --scale 0.3 --budget 4 --only fodors
EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin exp_weak -- \
    --scale 0.3 --budget 4 --only fodors

echo "== Table IV binary is thread-count invariant (EM_THREADS=1 vs 8) =="
# exp_table4 produces EXPERIMENTS.md's Table IV; a small run over the hard
# datasets must print the same bytes on a 1-thread and an 8-thread pool.
T4_ARGS=(--hard-only --scale 0.2 --budget 6)
T4_ONE="$(EM_THREADS=1 cargo run -q --release --offline -p em-bench --bin exp_table4 -- "${T4_ARGS[@]}")"
T4_EIGHT="$(EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin exp_table4 -- "${T4_ARGS[@]}")"
if [ "$T4_ONE" != "$T4_EIGHT" ]; then
    diff <(echo "$T4_ONE") <(echo "$T4_EIGHT") >&2 || true
    echo "error: exp_table4 output differs between EM_THREADS=1 and 8" >&2
    exit 1
fi
echo "ok: exp_table4 identical at EM_THREADS=1 and 8"

echo "== serve smoke test (search -> save/load artifact -> stream -> in-memory parity) =="
# serve_demo searches a small pipeline, round-trips it through a model
# artifact, streams the full 110-record query table through
# Matcher::match_stream, and asserts the streamed output is bit-identical
# to the in-memory predict path (so streamed F1 == in-memory F1 by
# construction); it also prints precision/recall/F1 against the gold pairs.
EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin serve_demo

echo "== metrics endpoint smoke test (EM_METRICS, 1 and 8 threads) =="
# With EM_METRICS set, serve_demo serves /metrics and /healthz while it
# streams, asserts that the windowed batch-latency p50/p99 equal the
# post-hoc trace histogram's (one declaration feeds both), and still
# asserts bit-identical output — at both pool sizes, so the endpoint
# provably never feeds back into results.
EM_METRICS=127.0.0.1:0 EM_THREADS=1 cargo run -q --release --offline -p em-bench --bin serve_demo
EM_METRICS=127.0.0.1:0 EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin serve_demo

echo "== store-backed serving smoke (10k records: build -> snapshot -> reopen -> stream) =="
# bench_serve_scale's scored section streams the catalog into a CatalogStore
# + persistent index, reopens both from disk, serves a trained artifact over
# the store with match_stream, and asserts the output is bit-identical to
# the in-memory path (including across a thread flip). The report lands in
# a temp file: this is a correctness gate, not a bench run.
SCALE_OUT="$(mktemp /tmp/em-verify-scale-XXXXXX.json)"
cargo run -q --release --offline -p em-bench --bin bench_serve_scale -- \
    --sizes 10000 --ops 2000 --out "$SCALE_OUT"
rm -f "$SCALE_OUT"

echo "== one-thread-vs-pool report smoke (bench_hotpaths, one sample per row) =="
# bench_hotpaths asserts that its pool rows really ran on pool workers; one
# sample per row makes it a check that the binary runs, not a bench run, so
# the report lands in a temp file.
HOT_OUT="$(mktemp /tmp/em-verify-hotpaths-XXXXXX.json)"
EM_BENCH_SAMPLES=1 cargo run -q --release --offline -p em-bench --bin bench_hotpaths -- "$HOT_OUT"
rm -f "$HOT_OUT"

echo "== benchmark package self-tests (ledger/, its own cargo workspace) =="
# ledger/Cargo.toml declares its own [workspace], so nothing above compiles
# it: this is what catches a workspace API change that breaks the benchmark.
cargo test -q --release --offline --manifest-path ledger/Cargo.toml

if [ "$SOAK" = 1 ]; then
    echo "== soak: 60s mixed serving workload at 100k records (--soak) =="
    # Sustained churn against the persistent sharded index: periodic
    # invariant verification and snapshots, recovery parity at shutdown,
    # and an RSS growth ceiling. Nonzero exit on any violation.
    EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin soak_serve -- \
        --records 100000 --seconds 60

    echo "== soak: store-backed scored matches at 1M records (--soak) =="
    # The full-size check: a million-record catalog streamed into the
    # store, snapshotted and reopened, served end to end with thread-flip
    # parity, and the store-side peak RSS asserted strictly below the
    # in-memory baseline.
    SCALE_OUT="$(mktemp /tmp/em-verify-scale-1m-XXXXXX.json)"
    cargo run -q --release --offline -p em-bench --bin bench_serve_scale -- \
        --sizes 1000000 --out "$SCALE_OUT"
    rm -f "$SCALE_OUT"
fi

echo "verify: OK"
