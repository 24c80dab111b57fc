#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline (the workspace has no external
# dependencies — see DESIGN.md §6). Run from the repo root. Formats, builds,
# tests (dev and release) and lints the workspace, runs the fault suites at
# alternate seeds, type-checks the bench/ ledger workspace against it, and
# runs the grep guards below.
#
# bash (not POSIX sh) so `pipefail` is available: a step that pipes through
# a filter must fail on the producer's status, not the filter's.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

step() {
    name="$1"
    shift
    # Explicit status capture: run under `if` so `set -e` doesn't abort the
    # gate mid-way — every step reports PASS/FAIL and the worst status wins.
    local status=0
    if "$@"; then
        status=0
    else
        status=$?
    fi
    if [ "$status" -eq 0 ]; then
        echo "PASS: $name"
    else
        echo "FAIL: $name (exit $status)"
        fail=1
    fi
}

# The committed decide-latency baseline must exist and carry the keys the
# bench's regression check reads — schema drift here would silently turn
# the CI bench-decide gate into a no-op.
check_bench_baseline() {
    local baseline="results/BENCH_decide.baseline.json"
    [ -f "$baseline" ] || {
        echo "missing $baseline"
        return 1
    }
    local key
    for key in \
        schema_version \
        k4_fused_p50_us \
        k16_fused_p50_us \
        k64_fused_p50_us \
        k128_fused_p50_us \
        speedup_k64 \
        fused_bit_identical \
        fused_steady_state_allocations; do
        grep -q "\"$key\":" "$baseline" || {
            echo "$baseline is missing key \"$key\" (bench schema drift)"
            return 1
        }
    done
}

# Every suite report bench_smoke.sh tees into results/ must actually be
# there once any report exists — a suite silently dropped from the script
# (or a renamed report file) would otherwise vanish from the CI artifact
# without failing anything. On a fresh clone (no reports yet) this passes:
# the guard checks manifest completeness, not that the suites have run.
check_report_manifest() {
    local ok=0 report
    local expected
    expected=$(grep -o 'results/[a-z_]*_report\.txt' scripts/bench_smoke.sh | sort -u)
    [ -n "$expected" ] || {
        echo "scripts/bench_smoke.sh tees no results/*_report.txt — manifest guard is stale"
        return 1
    }
    # shellcheck disable=SC2144
    ls results/*_report.txt >/dev/null 2>&1 || return 0
    for report in $expected; do
        [ -f "$report" ] || {
            echo "$report is referenced by scripts/bench_smoke.sh but missing from results/"
            ok=1
        }
    done
    return "$ok"
}

# The workspace's libraries contain exactly one `unsafe` block: the
# CPUID-guarded call into the AVX2 instantiation of the GEMM band walk in
# crates/twig-nn/src/gemm.rs (DESIGN.md §10). So: every crate root but
# twig-nn's still forbids unsafe code, twig-nn's denies it, and the only
# `unsafe` token outside comments under src/ and crates/ is that block.
# The counting allocators that binaries install (`unsafe impl GlobalAlloc`,
# see crates/twig-nn/src/count_alloc.rs) live in the crates' tests/ and in
# twig-bench's main.rs; those files are named here, not wildcarded. A grep
# guard rather than a compile check so a missing attribute fails loudly even
# on crates whose code happens to contain no unsafe today.
check_unsafe_budget() {
    local ok=0 lib want
    for lib in src/lib.rs crates/*/src/lib.rs; do
        want='forbid'
        [ "$lib" = crates/twig-nn/src/lib.rs ] && want='deny'
        grep -q "^#!\[$want(unsafe_code)\]\$" "$lib" || {
            echo "$lib is missing #![$want(unsafe_code)]"
            ok=1
        }
    done
    local hits
    hits=$(grep -rnw --include='*.rs' 'unsafe' src crates |
        grep -v -e '^[^:]*:[0-9]*:[[:space:]]*//' \
            -e '^crates/twig-bench/src/main\.rs:' \
            -e '^crates/twig-\(nn\|rl\|sim\)/tests/alloc_discipline\.rs:' || true)
    if [ "$(echo "$hits" | grep -c .)" -ne 1 ] ||
        ! echo "$hits" | grep -q '^crates/twig-nn/src/gemm\.rs:[0-9]*:.*unsafe {'; then
        echo "expected exactly one unsafe block, in crates/twig-nn/src/gemm.rs; found:"
        echo "${hits:-  (none)}"
        ok=1
    fi
    grep -B6 'unsafe {' crates/twig-nn/src/gemm.rs | grep -q '// SAFETY:' || {
        echo "the unsafe block in crates/twig-nn/src/gemm.rs has no // SAFETY: comment"
        ok=1
    }
    return "$ok"
}

# A counter's name is written once, in its `stats!` declaration, whose
# generated `bump`/`add` are the only way it moves (DESIGN.md §9). So no
# `counter_add(` call outside twig-telemetry may hold a string literal, not
# even one rustfmt wrapped onto the next line (`-z` reads a file as one
# line). Computed per-service names (`&keys.dropped`) are not literals.
check_stats_counter_names() {
    # shellcheck disable=SC2046
    grep -rPzo --include='*.rs' 'counter_add\([^)]*"' \
        $(ls -d src crates/*/src | grep -v '^crates/twig-telemetry/') | tr '\0' '\n'
    case "${PIPESTATUS[0]}" in
    0)
        echo "string literal in a counter_add( call above: declare it in a stats! struct"
        return 1
        ;;
    1) return 0 ;;
    *) return 2 ;;
    esac
}

# The chaos, timing, cluster, platform and federate suites assert only
# invariants that hold at every seed (seed-specific floors live in their
# unit tests), so each must pass at seeds other than the shipped 42. Runs
# the release binary the build step produced (all five: ≈ 0.3 s per seed).
check_any_seed() {
    local seed suite
    for seed in 1 2 3 4 5 6 7 8; do
        for suite in chaos timing cluster platform federate; do
            ./target/release/twig-bench "$suite" --smoke --seed "$seed" --jobs 2 >/dev/null || {
                echo "twig-bench $suite --smoke --seed $seed failed"
                return 1
            }
        done
    done
}

step "fmt"            cargo fmt --all -- --check
step "build"          cargo build --release --offline --workspace
step "any-seed"       check_any_seed
step "test"           cargo test -q --offline --workspace
# The bit-identity tests of the numeric crates (kernel vs naive loop,
# continued vs one-shot product, prefix vs concatenated forward, select vs
# branch activations, fused vs per-agent decide, selection vs sort) and the
# simulator's golden `Server::step` digests are a contract about the
# vectorised release build the reports and benchmarks run, which the dev
# profile above does not generate. Reuses the release build above.
# This is also the step that runs the AVX2 instantiation of the GEMM kernel
# optimised, against the naive loop and the portable instantiation (twig-nn's
# `gemm::tests`; it prints "skipped: no avx2" on a CPU without it).
# twig-scenario rides along so the table-driven section reader and writer
# and the 400-scenario round-trip property also run as the corpus runs them.
step "test-release"   cargo test --release --offline -q -p twig-nn -p twig-rl -p twig-stats -p twig-sim -p twig-scenario
step "clippy"         cargo clippy --offline --workspace --all-targets -- -D warnings
# The performance ledger (bench/) is its own workspace with path
# dependencies on the crates above, so nothing before this step compiles it:
# deleting or renaming an API it calls would otherwise fail only the
# perf-ledger CI job and the benchmark run.
step "bench-compiles" cargo check --offline --locked --manifest-path bench/Cargo.toml --all-targets
step "bench-baseline" check_bench_baseline
step "report-manifest" check_report_manifest
step "unsafe-budget"  check_unsafe_budget
step "stats-mirror"   check_stats_counter_names

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
