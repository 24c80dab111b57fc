//! Colocation: Twig-C vs PARTIES on the paper's most interesting pair.
//!
//! Moses is cache- and bandwidth-hungry; Masstree barely uses bandwidth
//! but is extremely sensitive to interference on it (Section V-B2). This
//! example colocates them (Masstree 20 %, Moses 60 %), runs both managers,
//! and prints the side-by-side QoS/energy/migration summary of Figure 12.
//!
//! Run with: `cargo run --release --example colocate_pair`

use twig::baselines::Parties;
use twig::manager::{TaskManager, TwigBuilder};
use twig::rl::EpsilonSchedule;
use twig::sim::{catalog, Server, ServerConfig};

struct Outcome {
    qos: Vec<f64>,
    energy: f64,
    migrations: usize,
}

fn run(
    manager: &mut dyn TaskManager,
    epochs: u64,
    window: u64,
    seed: u64,
) -> Result<Outcome, Box<dyn std::error::Error + Send + Sync>> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server = Server::new(ServerConfig::default(), specs.clone(), seed)?;
    server.set_load_fraction(0, 0.2)?;
    server.set_load_fraction(1, 0.6)?;
    let mut reports = Vec::new();
    for _ in 0..epochs {
        let a = manager.decide()?;
        let r = server.step(&a)?;
        manager.observe(&r)?;
        reports.push(r);
    }
    let tail = &reports[reports.len() - window as usize..];
    let qos = (0..2)
        .map(|i| {
            100.0
                * tail
                    .iter()
                    .filter(|r| r.services[i].p99_ms <= specs[i].qos_ms)
                    .count() as f64
                / tail.len() as f64
        })
        .collect();
    Ok(Outcome {
        qos,
        energy: tail.iter().map(|r| r.true_power_w).sum(),
        migrations: tail.iter().map(|r| r.migrations).sum(),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let learn = 1200u64;
    let window = 300u64;

    let mut twig = TwigBuilder::new()
        .services(specs.clone())
        .epsilon(EpsilonSchedule::scaled(learn))
        .seed(11)
        .build()?;
    let twig_result = run(&mut twig, learn + window, window, 42)?;

    let mut parties = Parties::new(specs, 18, ServerConfig::default().dvfs, 0)?;
    let parties_result = run(&mut parties, 150 + window, window, 42)?;

    println!("masstree @ 20% + moses @ 60%, {window}-epoch measurement window\n");
    println!("manager   masstree QoS  moses QoS  energy (J)  migrations");
    for (name, o) in [("twig-c", &twig_result), ("parties", &parties_result)] {
        println!(
            "{name:9} {:10.1}%  {:8.1}%  {:10.0}  {:10}",
            o.qos[0], o.qos[1], o.energy, o.migrations
        );
    }
    println!(
        "\ntwig-c energy vs parties: {:+.1}%",
        100.0 * (twig_result.energy / parties_result.energy - 1.0)
    );
    Ok(())
}
