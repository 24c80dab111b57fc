#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run (what BENCHMARK.json's command does): build, measure NAME
#       for S seconds, check outputs, print every metric with its unit and,
#       as the last line of stdout, the result as one JSON object.
#       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
#       metrics (and writes bench/out/trace_NAME.jsonl).
#
#   bench/run.sh [--seed N] [--seconds S] [--workload NAME] [--smoke]
#       The ledger: format and lint bench/, build, then every workload
#       untraced and traced; writes bench/out/results.json. Exits non-zero
#       when any output check fails.
#
# Builds offline into $CARGO_TARGET_DIR (default bench/target). Everything
# it writes stays under that directory and bench/out.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
bin="$CARGO_TARGET_DIR/release"
# rustc's temporary files stay inside the checkout too; the binaries point
# TMPDIR at the same place for the checkpoint stores they open.
mkdir -p "$here/out/tmp"
export TMPDIR="$here/out/tmp"

trace=""
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ]; then
        trace="$arg"
    fi
    prev="$arg"
done

if [ -n "$trace" ] || [ "$prev" = "--trace" ]; then
    # Cargo's chatter goes to stderr: stdout ends with the result line.
    cargo build --release --offline --quiet --manifest-path "$manifest" >&2
    if [ "$trace" = "1" ]; then
        exec "$bin/perfbench-traced" "$@" --out "$here/out"
    fi
    exec "$bin/perfbench" "$@" --out "$here/out"
fi

# scripts/check.sh does not reach this crate, so the ledger gates it.
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings

clean=1
[ -d "$bin" ] && [ -x "$bin/perfbench" ] && clean=0
start="$EPOCHREALTIME"
cargo build --release --offline --manifest-path "$manifest" >&2
PERFBENCH_BUILD_S="$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.3f", b - a }')"
export PERFBENCH_BUILD_S
export PERFBENCH_BUILD_CLEAN="$clean"
PERFBENCH_RUSTC="$(rustc -V)"
export PERFBENCH_RUSTC
PERFBENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$bin/perfbench" ledger "$@" --out "$here/out"
