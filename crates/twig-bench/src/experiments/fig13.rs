//! Figure 13 — Twig-C vs PARTIES vs static for every pair of Tailbench
//! services at low/mid/high colocated load.
//!
//! Each service alone can meet QoS at its maximum load, but colocated it
//! operates at a fraction of it (typically ~60 %, per Section V-B2); the
//! paper determines each pair's colocated maximum by an offline sweep.
//! Here the colocated maximum is approximated analytically from the pair's
//! combined bandwidth demand (see `colocated_max`), and low/mid/high are
//! 20/50/80 % of it. Headline to reproduce: Twig-C cuts energy vs PARTIES
//! by ~28 % on average at comparable QoS guarantees.

use crate::{drive, make_twig, summarize, total_energy, window, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::{Parties, PartiesConfig, StaticMapping};
use twig_core::TaskManager;
use twig_sim::{catalog, Server, ServerConfig, ServiceSpec};

/// Approximate maximum per-service load fraction at which the pair can
/// still meet QoS together, limited by whichever shared resource saturates
/// first: memory bandwidth (total demand kept at 75 % of the socket, just
/// above the contention knee) or cores (each service's solo maximum assumes
/// the whole socket, so two colocated services split the core budget —
/// matching the paper's observation that colocated services typically run
/// "around 60%" of their solo maximum).
pub fn colocated_max(a: &ServiceSpec, b: &ServiceSpec) -> f64 {
    let bandwidth_limit = 0.75 / (a.bw_demand_frac + b.bw_demand_frac);
    let core_limit = 0.55;
    bandwidth_limit.min(core_limit)
}

struct Cell {
    qos: Vec<f64>,
    energy: f64,
}

fn run_pair(
    specs: &[ServiceSpec],
    load: f64,
    manager: &mut dyn TaskManager,
    epochs: u64,
    measure: u64,
    seed: u64,
) -> Result<Cell, ExpError> {
    let mut server = Server::new(ServerConfig::default(), specs.to_vec(), seed)?;
    for i in 0..specs.len() {
        server.set_load_fraction(i, load)?;
    }
    let reports = drive(&mut server, manager, epochs)?;
    let tail = window(&reports, measure);
    let s = summarize(tail, specs);
    Ok(Cell {
        qos: s.iter().map(|x| x.qos_guarantee_pct).collect(),
        energy: total_energy(tail),
    })
}

/// Regenerates Figure 13, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let services = catalog::tailbench();
    // Colocated (K = 2) policies see a joint state space; double the
    // compressed learning phase so both agents converge.
    let learn = opts.learn_epochs() * 2;
    let measure = opts.measure_epochs(true);
    let warm = opts.controller_warmup();
    writeln!(
        out,
        "Figure 13: Twig-C vs PARTIES vs static over all service pairs"
    )?;
    writeln!(
        out,
        "(loads are fractions of each pair's colocated maximum; window {measure} epochs)\n"
    )?;

    let mut t = TextTable::new(vec![
        "pair",
        "load",
        "manager",
        "QoS svc1 (%)",
        "QoS svc2 (%)",
        "energy (norm.)",
    ]);
    let mut avg: std::collections::BTreeMap<String, (f64, f64, usize)> = Default::default();
    for i in 0..services.len() {
        for j in i + 1..services.len() {
            let specs = vec![services[i].clone(), services[j].clone()];
            let pair_name = format!("{}+{}", specs[0].name, specs[1].name);
            let max = colocated_max(&specs[0], &specs[1]);
            for &level in &[0.2, 0.5, 0.8] {
                let load = level * max;

                let mut stat = StaticMapping::new(specs.clone(), 18, ServerConfig::default().dvfs)?;
                let c_static =
                    run_pair(&specs, load, &mut stat, warm + measure, measure, opts.seed)?;

                let mut parties = Parties::new(
                    specs.clone(),
                    18,
                    ServerConfig::default().dvfs,
                    PartiesConfig {
                        seed: opts.seed,
                        ..PartiesConfig::default()
                    },
                )?;
                let c_parties = run_pair(
                    &specs,
                    load,
                    &mut parties,
                    warm + measure,
                    measure,
                    opts.seed,
                )?;

                let mut twig = make_twig(specs.clone(), learn, opts.seed)?;
                let c_twig =
                    run_pair(&specs, load, &mut twig, learn + measure, measure, opts.seed)?;

                for (name, c) in [
                    ("static", &c_static),
                    ("parties", &c_parties),
                    ("twig-c", &c_twig),
                ] {
                    let norm = c.energy / c_static.energy;
                    t.row(vec![
                        pair_name.clone(),
                        format!("{:.0}%", level * 100.0),
                        name.into(),
                        format!("{:.1}", c.qos[0]),
                        format!("{:.1}", c.qos[1]),
                        format!("{norm:.3}"),
                    ]);
                    let e = avg.entry(name.to_string()).or_insert((0.0, 0.0, 0));
                    e.0 += (c.qos[0] + c.qos[1]) / 2.0;
                    e.1 += norm;
                    e.2 += 1;
                }
            }
        }
    }
    writeln!(out, "{t}")?;
    let mut at = TextTable::new(vec!["manager", "avg QoS (%)", "avg energy (norm.)"]);
    let mut energies: std::collections::BTreeMap<String, f64> = Default::default();
    for (name, (q, e, n)) in &avg {
        at.row(vec![
            name.clone(),
            format!("{:.1}", q / *n as f64),
            format!("{:.3}", e / *n as f64),
        ]);
        energies.insert(name.clone(), e / *n as f64);
    }
    writeln!(out, "averages:\n{at}")?;
    if let (Some(&tw), Some(&pa)) = (energies.get("twig-c"), energies.get("parties")) {
        writeln!(
            out,
            "Twig-C energy savings vs PARTIES: {:.1}% (paper: 28% on average)",
            100.0 * (1.0 - tw / pa)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocated_max_below_solo_max() {
        let m = colocated_max(&catalog::masstree(), &catalog::moses());
        assert!(m < 1.0 && m > 0.3, "colocated max {m}");
        // No pair can exceed the core-budget split, and heavier bandwidth
        // pairs never get more than lighter ones.
        let heavy = colocated_max(&catalog::moses(), &catalog::web_search());
        let light = colocated_max(&catalog::masstree(), &catalog::img_dnn());
        assert!(heavy <= light);
        assert!(light <= 0.55 + 1e-12);
    }
}
