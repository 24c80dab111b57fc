//! Proof that a steady-state `Server::step` allocates nothing but the
//! `EpochReport` it returns.
//!
//! The report is owned — `services` (1) with a `String` name per service
//! (K), `actuation` (1) with a core list per service (K) and
//! `telemetry.pmc_faults` (1) — so the floor is `2K + 3` allocations per
//! step, whatever the number of requests the epoch simulated. Everything
//! else (the latency buffer, the claim table, the per-service arrays, the
//! telemetry metric names) lives in the server and is reused.
//!
//! Kept as its own integration test so the `#[global_allocator]` does not
//! leak into other test binaries, and run single-threaded by construction
//! (one `#[test]`), so no concurrent test pollutes the counter.

use twig_nn::count_alloc;
use twig_sim::{
    catalog, Assignment, CoreId, FaultConfig, FaultPlan, Server, ServerConfig, ServiceSpec,
};
use twig_telemetry::Telemetry;

#[global_allocator]
static ALLOC: twig_nn::CountingAlloc = twig_nn::CountingAlloc;

const WARMUP: usize = 40;
const MEASURED: usize = 25;

/// `k` services: masstree + moses, or the catalog cycled for wider mixes.
fn specs(k: usize) -> Vec<ServiceSpec> {
    if k == 2 {
        return vec![catalog::masstree(), catalog::moses()];
    }
    let base = catalog::all();
    (0..k)
        .map(|i| {
            let mut spec = base[i % base.len()].clone();
            spec.name = format!("{}-{}", spec.name, i / base.len());
            spec
        })
        .collect()
}

/// Two alternating assignments (so migrations and re-resolved claim tables
/// are in the measured window), every service on at least one core, cores
/// time-shared once `k` exceeds the socket.
fn assignments(k: usize, config: &ServerConfig) -> [Vec<Assignment>; 2] {
    let width = (config.cores / k).max(1);
    let build = |shift: usize| {
        (0..k)
            .map(|svc| {
                let cores = (0..width)
                    .map(|c| CoreId((svc * width + c + shift) % config.cores))
                    .collect();
                Assignment::new(cores, config.dvfs.max())
            })
            .collect()
    };
    [build(0), build(1)]
}

fn set_load(server: &mut Server, k: usize, load: f64) {
    for svc in 0..k {
        server.set_load_fraction(svc, load).unwrap();
    }
}

/// Steps `epochs` times and returns the allocation count of each step, the
/// returned report included (dropping it frees, which is not counted), and
/// how many requests the epochs were offered.
fn allocations_per_step(
    server: &mut Server,
    plans: &[Vec<Assignment>; 2],
    epochs: usize,
) -> (Vec<u64>, f64) {
    let mut counts = Vec::with_capacity(epochs);
    let mut requests = 0.0;
    for epoch in 0..epochs {
        let before = count_alloc::allocation_count();
        let report = server.step(&plans[epoch % 2]).unwrap();
        counts.push(count_alloc::allocation_count() - before);
        requests += report.services.iter().map(|s| s.offered_rps).sum::<f64>();
    }
    (counts, requests)
}

#[test]
fn steady_state_step_allocates_only_its_report() {
    for k in [2usize, 24] {
        let floor = (2 * k + 3) as u64;
        for armed in [false, true] {
            let config = ServerConfig::default();
            let plans = assignments(k, &config);
            let mut server = Server::new(config, specs(k), 42).unwrap();
            if armed {
                server.set_telemetry(Telemetry::enabled());
            }
            // Size every buffer at the heaviest load first, so the measured
            // windows below cannot outgrow what warm-up saw.
            set_load(&mut server, k, 1.0);
            allocations_per_step(&mut server, &plans, WARMUP);

            let mut offered = Vec::new();
            for load in [0.2, 0.9] {
                set_load(&mut server, k, load);
                // Let the backlog left by the previous load drain.
                allocations_per_step(&mut server, &plans, WARMUP);
                let (counts, requests) = allocations_per_step(&mut server, &plans, MEASURED);
                assert!(
                    counts.iter().all(|&n| n == floor),
                    "K = {k}, load {load}, telemetry armed: {armed}: expected {floor} \
                     allocations per step, saw {counts:?}"
                );
                offered.push(requests);
            }
            // The two windows really did simulate different amounts of work.
            assert!(
                offered[1] > 4.0 * offered[0],
                "K = {k}: {offered:?} requests"
            );
        }
    }

    // With an enabled fault plan the platform builds the applied core lists
    // itself (still one per service) and the first core to go offline
    // allocates the offline set's node: one more than the floor at most, and
    // still independent of the number of requests.
    let k = 3;
    let config = ServerConfig::default();
    let plans = assignments(k, &config);
    let mut server = Server::new(config, specs(k), 7).unwrap();
    server.set_fault_plan(
        FaultPlan::new(
            FaultConfig {
                pmc_corrupt_rate: 0.2,
                telemetry_delay_epochs: 2,
                actuation_reject_rate: 0.2,
                dvfs_clamp_rate: 0.2,
                power_glitch_rate: 0.1,
                core_fail_rate: 0.3,
                core_repair_rate: 0.3,
                max_offline_cores: 3,
            },
            11,
        )
        .unwrap(),
    );
    set_load(&mut server, k, 1.0);
    allocations_per_step(&mut server, &plans, WARMUP);
    let ceiling = (2 * k + 3 + 1) as u64;
    for load in [0.2, 0.9] {
        set_load(&mut server, k, load);
        allocations_per_step(&mut server, &plans, WARMUP);
        let (counts, _) = allocations_per_step(&mut server, &plans, 4 * MEASURED);
        assert!(
            counts.iter().all(|&n| n <= ceiling),
            "faulted, load {load}: expected at most {ceiling} allocations per step, saw {counts:?}"
        );
    }
}
