#!/usr/bin/env bash
# The A/A check: two full ledgers on the same build, then, for every
# workload and end-to-end metric, both values, their relative difference,
# the metric's bound and AGREE / DISAGREE. Metrics that are exact at a
# fixed seed must be identical. Arguments go to run.sh (--seed, --seconds,
# --workload, --smoke). Exits non-zero when the sets disagree.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
bash "$here/run.sh" "$@" --results results_a.json
bash "$here/run.sh" "$@" --results results_b.json
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" compare \
    "$here/out/results_a.json" "$here/out/results_b.json"
