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

use crate::runner::{FixedLoadGrid, Workload};
use crate::{ExpError, Manager, Options};
use std::fmt::Write as _;
use twig_sim::{catalog, ServiceSpec};

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

/// Regenerates Figure 13, appending to `out`. Each (pair, load) cell is
/// an independent fleet unit run with `opts.jobs` workers.
///
/// # Errors
///
/// Propagates simulator and manager errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let services = catalog::tailbench();
    let measure = opts.measure_epochs(true);
    writeln!(
        out,
        "Figure 13: Twig-C vs PARTIES vs static over all service pairs"
    )?;
    writeln!(
        out,
        "(loads are fractions of each pair's colocated maximum; window {measure} epochs)\n"
    )?;
    let mut workloads = Vec::new();
    for (i, a) in services.iter().enumerate() {
        for b in &services[i + 1..] {
            workloads.push(Workload {
                max_load: colocated_max(a, b),
                specs: vec![a.clone(), b.clone()],
            });
        }
    }
    let grid = FixedLoadGrid {
        row: "fig13",
        workloads,
        roster: &[Manager::Static, Manager::Parties, Manager::Twig],
        // Colocated (K = 2) policies see a joint state space; double the
        // compressed learning phase so both agents converge.
        learn: opts.learn_epochs() * 2,
        window: measure,
    };
    let energies = grid.render_to(
        out,
        vec![
            "pair",
            "load",
            "manager",
            "QoS svc1 (%)",
            "QoS svc2 (%)",
            "energy (norm.)",
        ],
        "averages:",
        opts,
    )?;
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
