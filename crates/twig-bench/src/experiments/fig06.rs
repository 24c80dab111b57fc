//! Figure 6 — core-mapping decisions and QoS-tardiness histograms for
//! Masstree at 50 % of max load under Heracles, Hipster and Twig-S.
//!
//! The paper's reading: Heracles oscillates between 12–13 cores at 2 GHz,
//! Hipster sits at ~6 cores at 2 GHz but only reaches an 80.67 % QoS
//! guarantee, and Twig-S finds mappings that just meet the target with
//! tardiness concentrated below 1. The shapes that must reproduce: Heracles
//! allocates the most cores; Twig's tardiness mass sits just under 1.0
//! with few violations (< 4 %, due to residual exploration).

use crate::{drive, make_twig, run_sections, window, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_baselines::{Heracles, HeraclesConfig, Hipster, HipsterConfig};
use twig_core::TaskManager;
use twig_sim::{catalog, EpochReport, Server, ServerConfig};
use twig_stats::Histogram;

fn mapping_distribution(tail: &[EpochReport]) -> Vec<(usize, f64)> {
    let mut counts = std::collections::BTreeMap::new();
    for r in tail {
        *counts.entry(r.services[0].core_count).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .map(|(cores, n)| (cores, 100.0 * n as f64 / tail.len() as f64))
        .collect()
}

fn tardiness_histogram(tail: &[EpochReport], qos: f64) -> Histogram {
    let mut h = Histogram::new(0.0, 2.0, 10).expect("valid histogram");
    h.extend(tail.iter().map(|r| r.services[0].p99_ms / qos));
    h
}

fn report_manager(
    out: &mut String,
    name: &str,
    manager: &mut dyn TaskManager,
    epochs: u64,
    measure: u64,
    opts: &Options,
) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    let reports = drive(&mut server, manager, epochs)?;
    let tail = window(&reports, measure);

    writeln!(out, "== {name} ==")?;
    let mut t = TextTable::new(vec!["cores", "time share (%)"]);
    let dist = mapping_distribution(tail);
    for (cores, pct) in &dist {
        t.row(vec![cores.to_string(), format!("{pct:.1}")]);
    }
    writeln!(out, "{t}")?;

    let hist = tardiness_histogram(tail, spec.qos_ms);
    let mut ht = TextTable::new(vec!["tardiness bucket", "share (%)"]);
    let centers = hist.bin_centers();
    let total = hist.total().max(1);
    for (i, &c) in hist.counts().iter().enumerate() {
        ht.row(vec![
            format!("[{:.1}, {:.1})", centers[i] - 0.1, centers[i] + 0.1),
            format!("{:.1}", 100.0 * c as f64 / total as f64),
        ]);
    }
    let over = hist.overflow();
    ht.row(vec![
        ">= 2.0".into(),
        format!("{:.1}", 100.0 * over as f64 / total as f64),
    ]);
    writeln!(out, "tardiness histogram (violation when > 1.0):\n{ht}")?;

    let mean_cores: f64 = dist.iter().map(|&(c, p)| c as f64 * p / 100.0).sum();
    let violations: f64 = tail
        .iter()
        .filter(|r| r.services[0].p99_ms > spec.qos_ms)
        .count() as f64
        / tail.len() as f64;
    writeln!(
        out,
        "mean cores {mean_cores:.1}, violations {:.1}%\n",
        violations * 100.0
    )?;
    Ok(())
}

/// Regenerates Figure 6, appending to `out`. Each manager variant runs as
/// an independent fleet unit (`--jobs` parallel); the managers are built
/// inside their units because Twig's telemetry handle is single-threaded.
///
/// # Errors
///
/// Propagates simulator and manager errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    writeln!(
        out,
        "Figure 6: core-mapping and QoS-tardiness distributions, masstree @ 50%\n"
    )?;
    let cfg = ServerConfig::default();
    let learn = opts.learn_epochs();
    let measure = opts.measure_epochs(false);
    let warm = opts.controller_warmup();

    let units = vec![
        Unit::new("fig06/heracles", {
            let cfg = cfg.clone();
            move |_seed| {
                let mut s = String::new();
                let mut heracles = Heracles::new(
                    catalog::masstree(),
                    cfg.cores,
                    cfg.dvfs.clone(),
                    HeraclesConfig::default(),
                )?;
                report_manager(
                    &mut s,
                    "heracles",
                    &mut heracles,
                    warm + measure,
                    measure,
                    opts,
                )?;
                Ok(s)
            }
        }),
        Unit::new("fig06/hipster", {
            let cfg = cfg.clone();
            move |_seed| {
                let mut s = String::new();
                let mut hipster = Hipster::new(
                    catalog::masstree(),
                    cfg.cores,
                    cfg.dvfs.clone(),
                    HipsterConfig {
                        learning_phase: learn * 3 / 4,
                        seed: opts.seed,
                        ..HipsterConfig::default()
                    },
                )?;
                report_manager(
                    &mut s,
                    "hipster",
                    &mut hipster,
                    learn + measure,
                    measure,
                    opts,
                )?;
                Ok(s)
            }
        }),
        Unit::new("fig06/twig-s", move |_seed| {
            let mut s = String::new();
            let mut twig = make_twig(vec![catalog::masstree()], learn, opts.seed)?;
            report_manager(&mut s, "twig-s", &mut twig, learn + measure, measure, opts)?;
            Ok(s)
        }),
    ];
    run_sections(out, units, opts)?;
    Ok(())
}
