#!/usr/bin/env bash
# Rebuilds every deterministic figure/table row at fast scale, seed 42, into
# results/<row>.txt and fails if any differs from the committed file. Used by
# CI's `figures` job and by local runs (≈ 5 min on 2 vCPUs). table3_overhead
# and telemetry_report print wall-clock timings and are left out. A deliberate
# behaviour change regenerates the files with this script and commits them.
# One row alone, after a release build:
#   ./target/release/twig-bench ROW --jobs 2 >results/ROW.txt && git diff --exit-code results/ROW.txt
set -euo pipefail

cd "$(dirname "$0")/.."

rows=(
    fig01_pmc_vs_ipc
    fig04_power_paae
    fig05_twig_s_fixed
    fig06_mapping_masstree
    fig07_learning_curve
    fig08_transfer_single
    fig09_transfer_colocated
    fig10_varying_load_single
    fig11_varying_load_colocated
    fig12_mapping_colocated
    fig13_twig_c_fixed
    table1_pmc_selection
    table2_capacity
    diurnal
    ablation
    memcomplexity
    resilience
)

cargo build --release --offline -p twig-bench
files=()
for row in "${rows[@]}"; do
    echo "== figures: $row =="
    ./target/release/twig-bench "$row" --jobs 2 >"results/$row.txt"
    files+=("results/$row.txt")
done
git diff --exit-code -- "${files[@]}"
echo "figures: ${#rows[@]} rows byte-identical to the committed reports"
