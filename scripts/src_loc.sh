#!/bin/sh
# Non-blank source lines under crates/*/src, one line per crate plus a
# total. Tests, benches and examples outside src/ are not counted.
# Usage: scripts/src_loc.sh
cd "$(dirname "$0")/.." || exit 1
total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' -exec cat {} + | grep -c '[^[:space:]]')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
