//! Telemetry must be a pure observer: attaching the subsystem must not
//! perturb the simulation, the learner's RNG streams, or any decision. With
//! the same seed, every epoch report is bit-identical with it on or off.

use twig::manager::TwigBuilder;
use twig::sim::{catalog, EpochReport, Server, ServerConfig};
use twig::telemetry::Telemetry;

const EPOCHS: u64 = 30;

fn run(telemetry: Option<Telemetry>) -> Vec<EpochReport> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server = Server::new(ServerConfig::default(), specs.clone(), 11).unwrap();
    server.set_load_fraction(0, 0.5).unwrap();
    server.set_load_fraction(1, 0.4).unwrap();
    let mut twig = TwigBuilder::new().services(specs).seed(23).build().unwrap();
    if let Some(tl) = telemetry {
        server.set_telemetry(tl.clone());
        twig.set_telemetry(tl);
    }
    (0..EPOCHS)
        .map(|_| {
            let actions = twig.decide().unwrap();
            let report = server.step(&actions).unwrap();
            twig.observe(&report).unwrap();
            report
        })
        .collect()
}

/// Bitwise comparison of everything float-valued plus the discrete state.
fn assert_bit_identical(a: &[EpochReport], b: &[EpochReport], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: epoch count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.time_s, y.time_s, "{label}: time");
        assert_eq!(x.power_w.to_bits(), y.power_w.to_bits(), "{label}: power");
        assert_eq!(
            x.true_power_w.to_bits(),
            y.true_power_w.to_bits(),
            "{label}: true power"
        );
        assert_eq!(
            x.energy_j.to_bits(),
            y.energy_j.to_bits(),
            "{label}: energy"
        );
        assert_eq!(x.migrations, y.migrations, "{label}: migrations");
        for (s, t) in x.services.iter().zip(&y.services) {
            assert_eq!(s.core_count, t.core_count, "{label}: cores ({})", s.name);
            assert_eq!(s.freq, t.freq, "{label}: freq ({})", s.name);
            assert_eq!(
                s.p99_ms.to_bits(),
                t.p99_ms.to_bits(),
                "{label}: p99 ({})",
                s.name
            );
            assert_eq!(s.completed, t.completed, "{label}: completed ({})", s.name);
            for (u, v) in s.pmcs.as_array().iter().zip(t.pmcs.as_array().iter()) {
                assert_eq!(u.to_bits(), v.to_bits(), "{label}: pmc ({})", s.name);
            }
        }
    }
}

#[test]
fn telemetry_never_perturbs_the_run() {
    let baseline = run(None);
    let telemetry = Telemetry::enabled();
    let recorded = run(Some(telemetry.clone()));

    assert_bit_identical(&baseline, &recorded, "telemetry enabled");

    // And the handle really did observe the run it left untouched.
    let snapshot = telemetry.metrics().unwrap();
    assert_eq!(snapshot.counter("sim.epochs"), EPOCHS);
    assert_eq!(
        telemetry.spans().len() as u64 + telemetry.spans_dropped(),
        EPOCHS
    );
}
