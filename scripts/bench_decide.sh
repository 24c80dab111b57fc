#!/usr/bin/env bash
# Decide-latency benchmark for the fused K-agent inference path. Used by
# CI (.github/workflows/ci.yml, bench-decide job) and local runs.
#
# `twig-bench bench_decide` sweeps the agent count (4/16/64/128) and
# measures p50/p99 decide latency of the fused batched path and the fully
# per-agent reference loop, asserting bit-identity, zero steady-state
# allocations and (full mode) a >= 2x fused speedup at K=64. The full
# report lands in results/BENCH_decide.json.
#
# Usage:
#   scripts/bench_decide.sh              full run + regression check against
#                                        results/BENCH_decide.baseline.json
#   scripts/bench_decide.sh --smoke OUT  reduced samples, no baseline check
#                                        (smoke p99s are too noisy for the
#                                        1.5x tolerance to be meaningful);
#                                        the report goes to OUT
set -euo pipefail

cd "$(dirname "$0")/.."

mkdir -p results

echo "== bench_decide: building release binary =="
cargo build --release --offline -p twig-bench

if [ "${1:-}" = "--smoke" ]; then
    out="${2:?usage: scripts/bench_decide.sh --smoke OUT}"
    echo "== bench_decide: smoke sweep ($out) =="
    ./target/release/twig-bench bench_decide --smoke "$out"
else
    echo "== bench_decide: full sweep + baseline check (results/BENCH_decide.json) =="
    ./target/release/twig-bench bench_decide \
        --baseline results/BENCH_decide.baseline.json \
        results/BENCH_decide.json
fi

echo "bench_decide.sh: passed"
