//! Cross-crate property tests: the invariants the learning stack relies on
//! must hold at the integration boundary between `twig-sim` and
//! `twig-core`. Each test sweeps a deterministic sample of the input space
//! (seeded in-repo RNG, no external generators).

use twig::manager::SystemMonitor;
use twig::sim::{catalog, Assignment, CoreId, Frequency, Server, ServerConfig};
use twig::stats::rng::{Rng, Xoshiro256};

/// Monitor states stay in [0, 1] for any reachable simulator output.
#[test]
fn monitor_states_always_normalised() {
    let mut rng = Xoshiro256::seed_from_u64(0x51a7e5);
    for _ in 0..16 {
        let load = rng.next_f64();
        let cores = rng.range_usize_inclusive(1, 18);
        let dvfs_idx = rng.range_usize(0, 9);
        let seed = rng.next_u64() % 50;
        let cfg = ServerConfig::default();
        let freq = cfg.dvfs.frequency_at(dvfs_idx).unwrap();
        let mut server = Server::new(cfg, vec![catalog::moses()], seed).unwrap();
        server.set_load_fraction(0, load).unwrap();
        let mut monitor = SystemMonitor::new(1, 5, 18).unwrap();
        let a = vec![Assignment::first_n(cores, freq)];
        for _ in 0..8 {
            let r = server.step(&a).unwrap();
            monitor.update(0, &r.services[0].pmcs).unwrap();
            let state = monitor.state(0).unwrap();
            assert_eq!(state.len(), twig::sim::NUM_COUNTERS);
            for &v in &state {
                assert!((0.0..=1.0).contains(&v), "state value {v}");
            }
        }
    }
}

/// Energy accumulates monotonically and power stays within the socket's
/// physical envelope.
#[test]
fn power_within_physical_envelope() {
    let mut rng = Xoshiro256::seed_from_u64(0xe17e);
    for _ in 0..16 {
        let cores = rng.range_usize_inclusive(1, 18);
        let seed = rng.next_u64() % 50;
        let mut server =
            Server::new(ServerConfig::default(), vec![catalog::img_dnn()], seed).unwrap();
        let peak = server.peak_power_w();
        server.set_load_fraction(0, 0.7).unwrap();
        let a = vec![Assignment::first_n(cores, Frequency::from_mhz(2000))];
        let mut last_energy = 0.0;
        for _ in 0..6 {
            let r = server.step(&a).unwrap();
            assert!(r.true_power_w > 0.0);
            assert!(
                r.true_power_w <= peak * 1.01,
                "power {} vs peak {peak}",
                r.true_power_w
            );
            assert!(r.energy_j > last_energy);
            last_energy = r.energy_j;
        }
    }
}

/// More resources never hurt steady-state tail latency (on average over a
/// window, same seed).
#[test]
fn more_cores_never_hurt() {
    for seed in 0u64..16 {
        let cfg = ServerConfig::default();
        let freq = cfg.dvfs.max();
        let mut p99 = Vec::new();
        for cores in [4usize, 18] {
            let mut server = Server::new(cfg.clone(), vec![catalog::xapian()], seed).unwrap();
            server.set_load_fraction(0, 0.6).unwrap();
            let a = vec![Assignment::first_n(cores, freq)];
            let mut sum = 0.0;
            for e in 0..30 {
                let r = server.step(&a).unwrap();
                if e >= 10 {
                    sum += r.services[0].p99_ms;
                }
            }
            p99.push(sum / 20.0);
        }
        assert!(
            p99[1] <= p99[0] * 1.1,
            "seed {seed}: 18 cores {} vs 4 cores {}",
            p99[1],
            p99[0]
        );
    }
}

#[test]
fn disjoint_core_sets_see_shared_cache_pressure() {
    // Two colocated services on disjoint cores still interfere through the
    // shared LLC/bandwidth — the effect Twig-C exists to manage.
    let cfg = ServerConfig::default();
    let freq = cfg.dvfs.max();
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server = Server::new(cfg, specs, 7).unwrap();
    server.set_load_fraction(0, 0.5).unwrap();
    server.set_load_fraction(1, 0.9).unwrap();
    let assignments = vec![
        Assignment::new((0..9).map(CoreId).collect(), freq),
        Assignment::new((9..18).map(CoreId).collect(), freq),
    ];
    let mut masstree_p99 = 0.0;
    for e in 0..40 {
        let r = server.step(&assignments).unwrap();
        if e >= 20 {
            masstree_p99 += r.services[0].p99_ms / 20.0;
        }
    }
    // Without interference masstree at 50% load on 9 cores sits near 1 ms;
    // moses at 90% load pushes bandwidth pressure well past the knee.
    assert!(
        masstree_p99 > 1.1,
        "expected interference-inflated p99, got {masstree_p99:.2} ms"
    );
}
