//! Figure 5 — Twig-S vs Hipster, Heracles and static mapping at fixed
//! loads of 20/50/80 % for each of the four Tailbench services.
//!
//! The paper's headline: all managers deliver similar QoS guarantees while
//! Twig-S cuts energy by 11.8 % vs Hipster and 38 % vs Heracles on average.
//! The shapes that must reproduce: energy(twig) < energy(hipster) <
//! energy(heracles) < energy(static) on average, at comparable (high) QoS
//! guarantees.

use crate::{
    drive, make_twig, run_fleet, summarize, total_energy, window, ExpError, Options, TextTable,
    Unit,
};
use std::fmt::Write as _;
use twig_baselines::{Heracles, HeraclesConfig, Hipster, HipsterConfig, StaticMapping};
use twig_core::TaskManager;
use twig_sim::{catalog, Server, ServerConfig, ServiceSpec};

/// One manager's result at one (service, load) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Manager name.
    pub manager: String,
    /// QoS guarantee over the measurement window (%).
    pub qos_pct: f64,
    /// Energy over the window, normalised to static mapping.
    pub energy_norm: f64,
}

fn run_manager(
    spec: &ServiceSpec,
    load: f64,
    manager: &mut dyn TaskManager,
    epochs: u64,
    measure: u64,
    seed: u64,
) -> Result<(f64, f64), ExpError> {
    let cfg = ServerConfig::default();
    let mut server = Server::new(cfg, vec![spec.clone()], seed)?;
    server.set_load_fraction(0, load)?;
    let reports = drive(&mut server, manager, epochs)?;
    let tail = window(&reports, measure);
    let summary = summarize(tail, std::slice::from_ref(spec));
    Ok((summary[0].qos_guarantee_pct, total_energy(tail)))
}

/// One (service, load) cell of the Figure 5 grid: all four manager
/// variants at that point, energies normalised to static mapping.
fn grid_cell(
    spec: &ServiceSpec,
    load: f64,
    opts: &Options,
) -> Result<(String, f64, Vec<Cell>), ExpError> {
    let cfg = ServerConfig::default();
    let learn = opts.learn_epochs();
    let measure = opts.measure_epochs(false);
    let warm = opts.controller_warmup();
    let mut cells = Vec::new();

    let mut stat = StaticMapping::new(vec![spec.clone()], cfg.cores, cfg.dvfs.clone())?;
    let (q, e_static) = run_manager(spec, load, &mut stat, warm + measure, measure, opts.seed)?;
    cells.push(Cell {
        manager: "static".into(),
        qos_pct: q,
        energy_norm: 1.0,
    });

    let mut heracles = Heracles::new(
        spec.clone(),
        cfg.cores,
        cfg.dvfs.clone(),
        HeraclesConfig::default(),
    )?;
    let (q, e) = run_manager(
        spec,
        load,
        &mut heracles,
        warm + measure,
        measure,
        opts.seed,
    )?;
    cells.push(Cell {
        manager: "heracles".into(),
        qos_pct: q,
        energy_norm: e / e_static,
    });

    let mut hipster = Hipster::new(
        spec.clone(),
        cfg.cores,
        cfg.dvfs.clone(),
        HipsterConfig {
            learning_phase: learn * 3 / 4,
            seed: opts.seed,
            ..HipsterConfig::default()
        },
    )?;
    let (q, e) = run_manager(
        spec,
        load,
        &mut hipster,
        learn + measure,
        measure,
        opts.seed,
    )?;
    cells.push(Cell {
        manager: "hipster".into(),
        qos_pct: q,
        energy_norm: e / e_static,
    });

    let mut twig = make_twig(vec![spec.clone()], learn, opts.seed)?;
    let (q, e) = run_manager(spec, load, &mut twig, learn + measure, measure, opts.seed)?;
    cells.push(Cell {
        manager: "twig-s".into(),
        qos_pct: q,
        energy_norm: e / e_static,
    });

    Ok((spec.name.clone(), load, cells))
}

/// Runs the full grid, returning all cells (exposed for fig06/fig07 reuse
/// and integration tests). Each (service, load, manager-variant set) cell
/// is an independent fleet unit run with `opts.jobs` workers; results come
/// back in grid order, so the output is identical at any job count.
///
/// # Errors
///
/// Propagates simulator and manager errors, naming failed units.
pub fn grid(opts: &Options) -> Result<Vec<(String, f64, Vec<Cell>)>, ExpError> {
    let mut units = Vec::new();
    for spec in catalog::tailbench() {
        for &load in &[0.2, 0.5, 0.8] {
            let spec = spec.clone();
            units.push(Unit::new(
                format!("fig05/{}@{:.0}%", spec.name, load * 100.0),
                move |_seed| grid_cell(&spec, load, opts),
            ));
        }
    }
    run_fleet(units, opts.jobs, opts.seed).into_outputs()
}

/// Regenerates Figure 5, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
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
    let results = grid(opts)?;
    let mut t = TextTable::new(vec![
        "service",
        "load",
        "manager",
        "QoS guarantee (%)",
        "energy (norm. to static)",
    ]);
    let mut sums: std::collections::BTreeMap<String, (f64, f64, usize)> = Default::default();
    for (service, load, cells) in &results {
        for c in cells {
            t.row(vec![
                service.clone(),
                format!("{:.0}%", load * 100.0),
                c.manager.clone(),
                format!("{:.1}", c.qos_pct),
                format!("{:.3}", c.energy_norm),
            ]);
            let e = sums.entry(c.manager.clone()).or_insert((0.0, 0.0, 0));
            e.0 += c.qos_pct;
            e.1 += c.energy_norm;
            e.2 += 1;
        }
    }
    writeln!(out, "{t}")?;
    let mut avg = TextTable::new(vec!["manager", "avg QoS (%)", "avg energy (norm.)"]);
    let mut energies: std::collections::BTreeMap<String, f64> = Default::default();
    for (name, (q, e, n)) in &sums {
        avg.row(vec![
            name.clone(),
            format!("{:.1}", q / *n as f64),
            format!("{:.3}", e / *n as f64),
        ]);
        energies.insert(name.clone(), e / *n as f64);
    }
    writeln!(out, "averages across all services and loads:\n{avg}")?;
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
