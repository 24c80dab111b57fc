#!/usr/bin/env sh
# Smoke run of the experiment path and the chaos suites through the one
# `twig-bench` binary. Used by both CI (.github/workflows/ci.yml, smoke
# job) and local runs. Fleet speed-up, steady-state allocations and the
# per-layer timings are measured by bench/ (see bench/README.md).
#
# 1. A reduced-epoch (--smoke) fig01 run exercises the real experiment
#    path end to end; its output lands in results/ for the CI artifact.
# 2. The chaos suite (--smoke, fixed seed, --jobs 2) runs the seeded
#    crash/restart/corruption schedules — torn writes, generation
#    fallback, cold start, agent quarantine — asserting its invariants
#    internally; the report lands in results/chaos_report.txt. The suite
#    then runs once more at paper scale (--full, sub-second, same
#    internal assertions) into a temporary file, so one `--full` path is
#    exercised on every push and by the weekly scheduled run without
#    touching the committed report.
# 3. The timing suite (--smoke, fixed seed, --jobs 2) runs the seeded
#    timing-chaos schedules — phase-latency spikes, stale PMC windows,
#    actuator stalls, clock faults — against the deadline-aware epoch
#    scheduler, asserting graceful degradation (no panics, bounded
#    ladder, zero stale actuations) internally; the report lands in
#    results/timing_report.txt.
# 4. The cluster suite (--smoke, fixed seed, --jobs 2) runs the seeded
#    fleet-failure schedules — server crashes, coordinator blackouts,
#    partitions, stalled and corrupted migrations — against the Twig-D
#    control plane, asserting request conservation, bounded failover,
#    and zero stale actuations internally;
#    the report lands in results/cluster_report.txt.
# 5. The scenario corpus (fixed seed, --jobs 2) parses, runs and asserts
#    all shipped scenarios/*.scn files — load shapes, service churn,
#    fault/timing plans, cluster failover, digest-checked determinism —
#    via the twig-scenario runner; the PASS/FAIL report lands in
#    results/scenario_report.txt. scnfmt --check keeps the corpus
#    byte-canonical first.
# 6. The platform suite (--smoke, fixed seed, --jobs 2) drives the Linux
#    actuation backend against a fault-injecting fake sysfs — write
#    rejections, torn writes, governor clamps, stale/garbage counter
#    files, flapping permissions — asserting the reconciliation ladder
#    (read-back verify, bounded retries, divergence routed to degraded
#    mode) and sim-backend bit-identity internally; the report lands in
#    results/platform_report.txt.
# 7. The federate suite (--smoke, fixed seed, --jobs 2) runs the seeded
#    weight-exchange schedules — corrupt payload storms, Byzantine
#    nodes, straggler quorums, mid-round partitions — against the
#    federation plane, asserting exact screening-ladder accounting,
#    rollback on poisoned merges, round-abort with weights untouched,
#    and the cluster-scale policy-transfer result internally; the
#    report lands in results/federate_report.txt.
# 8. bench_decide (--smoke, via scripts/bench_decide.sh) sweeps the agent
#    count, times the fused and per-agent decide paths, and asserts the
#    fused path is bit-identical to the per-agent loop and allocation-free;
#    results/BENCH_decide.json. The
#    baseline latency-regression check runs only in the full (CI
#    bench-decide job) mode.
set -eu

cd "$(dirname "$0")/.."

mkdir -p results

echo "== bench_smoke: building release binaries =="
cargo build --release --offline -p twig-bench
cargo build --release --offline -p twig-scenario --bin scnfmt

echo "== bench_smoke: fig01 smoke run (results/fig01_smoke.txt) =="
./target/release/twig-bench fig01_pmc_vs_ipc --smoke --jobs 2 | tee results/fig01_smoke.txt

echo "== bench_smoke: chaos suite (results/chaos_report.txt) =="
./target/release/twig-bench chaos --smoke --seed 42 --jobs 2 | tee results/chaos_report.txt

echo "== bench_smoke: chaos suite at paper scale (temporary file) =="
chaos_full="$(mktemp)"
./target/release/twig-bench chaos --full --seed 42 --jobs 2 > "$chaos_full"
tail -n 2 "$chaos_full"
rm -f "$chaos_full"

echo "== bench_smoke: timing suite (results/timing_report.txt) =="
./target/release/twig-bench timing --smoke --seed 42 --jobs 2 | tee results/timing_report.txt

echo "== bench_smoke: cluster suite (results/cluster_report.txt) =="
./target/release/twig-bench cluster --smoke --seed 42 --jobs 2 | tee results/cluster_report.txt

echo "== bench_smoke: scenario corpus (results/scenario_report.txt) =="
./target/release/scnfmt --check scenarios/*.scn
./target/release/twig-bench scenario --seed 42 --jobs 2 | tee results/scenario_report.txt

echo "== bench_smoke: platform suite (results/platform_report.txt) =="
./target/release/twig-bench platform --smoke --seed 42 --jobs 2 | tee results/platform_report.txt

echo "== bench_smoke: federate suite (results/federate_report.txt) =="
./target/release/twig-bench federate --smoke --seed 42 --jobs 2 | tee results/federate_report.txt

echo "== bench_smoke: decide-latency smoke (results/BENCH_decide.json) =="
bash scripts/bench_decide.sh --smoke

echo "bench_smoke: all steps passed"
echo "bench_smoke: the reports are the behavioural contract. cargo test pins the"
echo "chaos/timing/cluster/platform/federate reports; fig01_smoke.txt and"
echo "scenario_report.txt are checked only by:"
echo "  git diff --exit-code -- results/*_report.txt results/fig01_smoke.txt"
