//! Integration of the transfer-learning path across manager, agent and
//! simulator (the Figure 8/9 mechanism).

use twig::manager::{Twig, TwigBuilder};
use twig::rl::EpsilonSchedule;
use twig::sim::{catalog, Server, ServerConfig, ServiceSpec};

fn train(spec: &ServiceSpec, learn: u64, seed: u64) -> Twig {
    let mut twig = TwigBuilder::new()
        .services(vec![spec.clone()])
        .epsilon(EpsilonSchedule::new(0.1, 0.01, learn * 3 / 5, learn))
        .train_steps_per_epoch(2)
        .seed(seed)
        .build()
        .unwrap();
    let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], seed).unwrap();
    server.set_load_fraction(0, 0.5).unwrap();
    for _ in 0..learn {
        let a = twig.decide().unwrap();
        let r = server.step(&a).unwrap();
        twig.observe(&r).unwrap();
    }
    twig
}

#[test]
fn transfer_preserves_trunk_and_resets_heads() {
    let mut twig = train(&catalog::masstree(), 300, 1);
    let trunk_before = twig.agent().trunk_weights().to_vec();
    twig.transfer_service(0, catalog::xapian()).unwrap();
    assert_eq!(twig.agent().trunk_weights(), trunk_before);
    assert_eq!(twig.config().services[0].name, "xapian");
}

#[test]
fn transferred_manager_operates_the_new_service() {
    let mut twig = train(&catalog::masstree(), 500, 2);
    twig.transfer_service(0, catalog::moses()).unwrap();
    let spec = catalog::moses();
    let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 3).unwrap();
    server.set_load_fraction(0, 0.5).unwrap();
    let mut met = 0;
    let total = 300;
    for _ in 0..total {
        let a = twig.decide().unwrap();
        let r = server.step(&a).unwrap();
        if r.services[0].p99_ms <= spec.qos_ms {
            met += 1;
        }
        twig.observe(&r).unwrap();
    }
    assert!(
        met as f64 / total as f64 > 0.6,
        "post-transfer QoS too low: {met}/{total}"
    );
}

#[test]
fn transfer_resumes_at_low_exploration() {
    let mut twig = train(&catalog::masstree(), 300, 4);
    twig.transfer_service(0, catalog::img_dnn()).unwrap();
    // Post-transfer ε resumes at the exploitation end of phase 1, not 1.0.
    assert!(twig.epsilon() <= 0.1 + 1e-9, "epsilon {}", twig.epsilon());
}
