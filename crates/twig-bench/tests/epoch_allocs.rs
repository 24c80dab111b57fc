//! What one `Twig` decide + observe epoch allocates, counted exactly.
//!
//! Compiles the binary's `main.rs` into this test so the harness's one
//! counting allocator is live (the library crates carry no `unsafe`). A
//! single `#[test]` that counts only its own thread, so nothing else
//! pollutes the counter.

use twig_bench::make_twig;
use twig_nn::count_alloc;
use twig_sim::{catalog, Server, ServerConfig, ServiceSpec};

#[allow(dead_code)]
#[path = "../src/main.rs"]
mod front_door;

/// Allocations of each of `EPOCHS` steady-state epochs, `Server::step`
/// excluded. The window sits between two doublings of the replay buffer's
/// vectors (64 and 128 transitions), its only amortised allocation.
fn epoch_allocs(specs: Vec<ServiceSpec>, load: f64) -> Vec<u64> {
    const WARMUP: usize = 70;
    const EPOCHS: usize = 50;
    let mut server = Server::new(ServerConfig::default(), specs.clone(), 42).unwrap();
    for i in 0..specs.len() {
        server.set_load_fraction(i, load).unwrap();
    }
    let mut twig = make_twig(specs, 1_000, 42).unwrap();
    // The train step allocates nothing in steady state
    // (`twig-rl/tests/alloc_discipline.rs`); leaving it out keeps this
    // about the manager.
    twig.set_pure_exploitation(true);
    let mut counts = Vec::with_capacity(EPOCHS);
    for epoch in 0..WARMUP + EPOCHS {
        let before = count_alloc::allocation_count();
        let assignments = twig.decide().unwrap();
        let decided = count_alloc::allocations_since(before);
        let report = server.step(&assignments).unwrap();
        let before = count_alloc::allocation_count();
        twig.observe(&report).unwrap();
        let observed = count_alloc::allocations_since(before);
        if epoch >= WARMUP {
            counts.push(decided + observed);
        }
    }
    assert_eq!(twig.agent().buffer_len(), WARMUP + EPOCHS);
    counts
}

#[test]
fn decide_plus_observe_allocates_only_what_it_returns() {
    count_alloc::count_this_thread_only();
    assert!(
        count_alloc::counter_armed(),
        "counting allocator not installed"
    );
    let k24: Vec<ServiceSpec> = (0..24)
        .map(|i| {
            let base = catalog::all();
            let mut spec = base[i % base.len()].clone();
            spec.name = format!("{}-{}", spec.name, i / base.len());
            spec
        })
        .collect();
    // `parent` is what the same loop counted on the commit before PR 20,
    // when the replay buffer kept the manager's per-epoch vectors
    // (`7K + 7`, plus the mapper's time-sharing at K = 24).
    for (specs, load, parent) in [
        (vec![catalog::masstree(), catalog::moses()], 0.5, 21),
        (k24, 0.04, 181),
    ] {
        let k = specs.len() as u64;
        // The decision it returns: the assignment list and a core list per
        // service.
        let want = k + 1;
        let counts = epoch_allocs(specs, load);
        assert!(
            counts.iter().all(|&c| c == want),
            "K = {k}: expected {want} allocations per epoch, counted {counts:?}"
        );
        assert!(
            want + 4 * (k + 1) <= parent,
            "K = {k}: {want} is not 4(K + 1) below the parent's {parent}"
        );
    }
}
