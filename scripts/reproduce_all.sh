#!/usr/bin/env bash
# Regenerate every paper figure/table, the ablations and the scaling
# study (8/32/64 contexts) into results/, then check the paper's shapes
# on the figure outputs with check_shapes.py; the exit status is that
# script's.
# Usage: scripts/reproduce_all.sh [build-dir] (default: build)
# Env:   JOBS=N  host threads per harness (default: nproc)
set -euo pipefail
BUILD="${1:-build}"
OUT="results"
JOBS="${JOBS:-$(nproc)}"
mkdir -p "$OUT"

benches=(
    table2_config
    fig1_motivation
    fig4_p8
    fig5_breakdown
    fig6_cdf
    fig7_p8s
    fig8_l1tm
    fig_scale
    ablation_buffer
    ablation_signature
    ablation_pagepolicy
    ablation_retry
    ablation_annotations
    ablation_preabort
    ablation_policy
)

for b in "${benches[@]}"; do
    echo "== $b (jobs=$JOBS) =="
    "$BUILD/bench/$b" --jobs "$JOBS" | tee "$OUT/$b.txt"
    echo
done

echo "All outputs written to $OUT/. Compare against EXPERIMENTS.md."
echo
echo "== shape checks =="
cat "$OUT"/{fig1_motivation,fig4_p8,fig5_breakdown,fig7_p8s,fig8_l1tm}.txt \
    | python3 "$(dirname "$0")/check_shapes.py" /dev/stdin
