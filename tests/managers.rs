//! Cross-crate integration of every task manager behind the common
//! `TaskManager` trait.

use twig::baselines::{Heracles, Hipster, HipsterConfig, Parties, StaticMapping};
use twig::manager::{TaskManager, TwigBuilder};
use twig::rl::EpsilonSchedule;
use twig::sim::{catalog, DvfsLadder, Server, ServerConfig};

fn single_service_managers() -> Vec<Box<dyn TaskManager>> {
    let spec = catalog::img_dnn();
    let dvfs = DvfsLadder::default();
    vec![
        Box::new(StaticMapping::new(vec![spec.clone()], 18, dvfs.clone()).unwrap()),
        Box::new(Heracles::new(spec.clone(), 18, dvfs.clone()).unwrap()),
        Box::new(Hipster::new(spec.clone(), 18, dvfs, HipsterConfig::default()).unwrap()),
        Box::new(
            TwigBuilder::new()
                .services(vec![spec])
                .epsilon(EpsilonSchedule::scaled(100))
                .seed(1)
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn every_single_service_manager_produces_valid_assignments() {
    let cfg = ServerConfig::default();
    for mut manager in single_service_managers() {
        let mut server = Server::new(cfg.clone(), vec![catalog::img_dnn()], 3).unwrap();
        server.set_load_fraction(0, 0.5).unwrap();
        for _ in 0..30 {
            let assignments = manager.decide().unwrap();
            assert_eq!(assignments.len(), 1, "{}", manager.name());
            let a = &assignments[0];
            assert!(
                (1..=18).contains(&a.core_count()),
                "{}: {} cores",
                manager.name(),
                a.core_count()
            );
            assert!(cfg.dvfs.index_of(a.freq).is_ok(), "{}", manager.name());
            let report = server.step(&assignments).unwrap();
            manager.observe(&report).unwrap();
        }
    }
}

#[test]
fn colocated_managers_share_the_socket() {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let cfg = ServerConfig::default();
    let managers: Vec<Box<dyn TaskManager>> = vec![
        Box::new(StaticMapping::new(specs.clone(), 18, cfg.dvfs.clone()).unwrap()),
        Box::new(Parties::new(specs.clone(), 18, cfg.dvfs.clone(), 0).unwrap()),
        Box::new(
            TwigBuilder::new()
                .services(specs.clone())
                .epsilon(EpsilonSchedule::scaled(100))
                .seed(2)
                .build()
                .unwrap(),
        ),
    ];
    for mut manager in managers {
        let mut server = Server::new(cfg.clone(), specs.clone(), 4).unwrap();
        server.set_load_fraction(0, 0.3).unwrap();
        server.set_load_fraction(1, 0.5).unwrap();
        for _ in 0..25 {
            let assignments = manager.decide().unwrap();
            assert_eq!(assignments.len(), 2, "{}", manager.name());
            let report = server.step(&assignments).unwrap();
            assert_eq!(report.services.len(), 2);
            manager.observe(&report).unwrap();
        }
    }
}

#[test]
fn managers_have_distinct_names() {
    let names: Vec<String> = single_service_managers()
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        names.len(),
        "duplicate manager names: {names:?}"
    );
}

#[test]
fn heracles_lockout_visible_through_trait() {
    // Trip the main controller via high load and confirm the full-socket
    // allocation appears at the trait level.
    let spec = catalog::masstree();
    let heracles = Heracles::new(spec.clone(), 18, DvfsLadder::default()).unwrap();
    let mut server = Server::new(ServerConfig::default(), vec![spec], 6).unwrap();
    server.set_load_fraction(0, 0.95).unwrap();
    let mut manager: Box<dyn TaskManager> = Box::new(heracles.clone());
    for _ in 0..5 {
        let a = manager.decide().unwrap();
        let r = server.step(&a).unwrap();
        manager.observe(&r).unwrap();
    }
    let a = manager.decide().unwrap();
    assert_eq!(a[0].core_count(), 18);
    heracles.migrations(); // silence unused original
}
