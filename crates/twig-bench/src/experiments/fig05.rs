//! Figure 5 — Twig-S vs Hipster, Heracles and static mapping at fixed
//! loads of 20/50/80 % for each of the four Tailbench services.
//!
//! The paper's headline: all managers deliver similar QoS guarantees while
//! Twig-S cuts energy by 11.8 % vs Hipster and 38 % vs Heracles on average.
//! The shapes that must reproduce: energy(twig) < energy(hipster) <
//! energy(heracles) < energy(static) on average, at comparable (high) QoS
//! guarantees.

use crate::runner::{FixedLoadGrid, Workload};
use crate::{ExpError, Manager, Options};
use std::fmt::Write as _;
use twig_sim::catalog;

/// Regenerates Figure 5, appending to `out`. Each (service, load) cell is
/// an independent fleet unit run with `opts.jobs` workers.
///
/// # Errors
///
/// Propagates simulator and manager errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    writeln!(
        out,
        "Figure 5: Twig-S vs Hipster / Heracles / static at fixed loads"
    )?;
    writeln!(out,
        "(learning {} epochs, measuring last {}; paper: Twig saves 11.8% vs Hipster, 38% vs Heracles)\n",
        opts.learn_epochs(),
        opts.measure_epochs(false)
    )?;
    let grid = FixedLoadGrid {
        row: "fig05",
        workloads: catalog::tailbench()
            .into_iter()
            .map(|spec| Workload {
                specs: vec![spec],
                max_load: 1.0,
            })
            .collect(),
        roster: &[
            Manager::Static,
            Manager::Heracles,
            Manager::Hipster,
            Manager::Twig,
        ],
        learn: opts.learn_epochs(),
        window: opts.measure_epochs(false),
    };
    let energies = grid.render_to(
        out,
        vec![
            "service",
            "load",
            "manager",
            "QoS guarantee (%)",
            "energy (norm. to static)",
        ],
        "averages across all services and loads:",
        opts,
    )?;
    if let (Some(&tw), Some(&hip), Some(&her)) = (
        energies.get("twig-s"),
        energies.get("hipster"),
        energies.get("heracles"),
    ) {
        writeln!(out,
            "Twig-S energy savings: {:.1}% vs Hipster (paper 11.8%), {:.1}% vs Heracles (paper 38%)",
            100.0 * (1.0 - tw / hip),
            100.0 * (1.0 - tw / her)
        )?;
    }
    Ok(())
}
