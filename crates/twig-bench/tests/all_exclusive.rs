//! `all` under the counting allocator: Table III's process-wide
//! zero-allocation assertion holds because its unit runs alone, after the
//! parallel units drain, and the sections still come back in registry
//! order.
//!
//! Compiles the binary's `main.rs` into this test so the harness's one
//! counting allocator is the one measured here. Kept as its own
//! integration test with a single `#[test]`, so no concurrent test
//! pollutes the counter.

use twig_bench::experiments::{run_all, RunTo, REGISTRY};
use twig_bench::Options;

#[allow(dead_code)]
#[path = "../src/main.rs"]
mod front_door;

#[test]
fn table3_runs_alone_and_sections_keep_registry_order() {
    let picked = ["table3_overhead", "cluster", "timing"];
    let slice: Vec<(&str, RunTo)> = REGISTRY
        .iter()
        .filter(|(name, _)| picked.contains(name))
        .copied()
        .collect();
    let opts = Options {
        smoke: true,
        jobs: 2,
        ..Options::default()
    };
    let run = run_all(&slice, &opts);
    let labels: Vec<&str> = run.results.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, picked, "sections out of registry order");
    for result in &run.results {
        assert!(
            result.outcome.is_ok(),
            "{}: {:?}",
            result.label,
            result.outcome
        );
    }
    let table3 = run.results[0].outcome.as_deref().unwrap();
    let allocs = table3
        .lines()
        .find(|line| line.contains("steady-state heap allocations"))
        .expect("allocation row");
    assert!(allocs.contains("0 allocs"), "{allocs}");
}
