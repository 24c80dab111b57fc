//! Figure 6 — core-mapping decisions and QoS-tardiness histograms for
//! Masstree at 50 % of max load under Heracles, Hipster and Twig-S.
//!
//! The paper's reading: Heracles oscillates between 12–13 cores at 2 GHz,
//! Hipster sits at ~6 cores at 2 GHz but only reaches an 80.67 % QoS
//! guarantee, and Twig-S finds mappings that just meet the target with
//! tardiness concentrated below 1. The shapes that must reproduce: Heracles
//! allocates the most cores; Twig's tardiness mass sits just under 1.0
//! with few violations (< 4 %, due to residual exploration).

use crate::runner::{core_shares, shares_mean};
use crate::{run_sections, ExpError, Manager, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_sim::{catalog, EpochReport, LoadGenerator};
use twig_stats::Histogram;

fn tardiness_histogram(tail: &[EpochReport], qos: f64) -> Histogram {
    let mut h = Histogram::new(0.0, 2.0, 10).expect("valid histogram");
    h.extend(tail.iter().map(|r| r.services[0].p99_ms / qos));
    h
}

fn report_manager(out: &mut String, manager: Manager, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    let (name, measured) = manager.run(
        std::slice::from_ref(&spec),
        &[LoadGenerator::fixed(0.5)?],
        opts.learn_epochs(),
        opts.measure_epochs(false),
        opts,
    )?;
    let tail = &measured.window;

    writeln!(out, "== {name} ==")?;
    let mut t = TextTable::new(vec!["cores", "time share (%)"]);
    let dist = core_shares(tail, 0);
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

    let violations: f64 = tail
        .iter()
        .filter(|r| r.services[0].p99_ms > spec.qos_ms)
        .count() as f64
        / tail.len() as f64;
    writeln!(
        out,
        "mean cores {:.1}, violations {:.1}%\n",
        shares_mean(&dist),
        violations * 100.0
    )?;
    Ok(())
}

/// Regenerates Figure 6, appending to `out`. Each manager variant runs as
/// an independent fleet unit (`--jobs` parallel) that builds its own
/// manager.
///
/// # Errors
///
/// Propagates simulator and manager errors, naming failed units.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    writeln!(
        out,
        "Figure 6: core-mapping and QoS-tardiness distributions, masstree @ 50%\n"
    )?;
    let units = [Manager::Heracles, Manager::Hipster, Manager::Twig]
        .into_iter()
        .map(|manager| {
            Unit::new(format!("fig06/{manager:?}"), move |_seed| {
                let mut s = String::new();
                report_manager(&mut s, manager, opts)?;
                Ok(s)
            })
        })
        .collect();
    run_sections(out, units, opts)?;
    Ok(())
}
