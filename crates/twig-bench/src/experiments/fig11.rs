//! Figure 11 — Twig-C under varying load: Moses ramps 20 → 70 % while
//! Masstree holds 20 %.
//!
//! The paper ramps Moses to 100 %; on this platform capacity scales with
//! core share, so the top of that ramp is infeasible colocated (see the
//! Figure 12 note). The ramp is capped at the pair's feasible maximum,
//! preserving the figure's question: does the manager track a moving load?
//!
//! The paper's reading: Twig-C "directly jumps to the appropriate core
//! configuration for the specified load" and prefers fine DVFS adaptations
//! over core migrations because they are cheaper. (PARTIES is omitted from
//! the paper's plot for legibility; we print it as a summary row.) Shapes
//! to reproduce: Twig-C's Moses core allocation tracks the ramp while
//! Masstree's allocation stays small and its QoS holds.

use crate::{ExpError, Manager, Measured, Options, Scale, TextTable};
use std::fmt::Write as _;
use twig_sim::{catalog, EpochReport, LoadGenerator};

fn write_allocation_trace(
    out: &mut String,
    reports: &[EpochReport],
    step_period: u64,
) -> Result<(), ExpError> {
    let mut t = TextTable::new(vec![
        "epoch",
        "moses load (%)",
        "moses cores",
        "moses freq (MHz)",
        "moses p99/qos",
        "masstree cores",
    ]);
    let qos = catalog::moses().qos_ms;
    for r in reports.iter().step_by(step_period as usize) {
        t.row(vec![
            r.time_s.to_string(),
            format!("{:.0}", r.services[0].load_fraction * 100.0),
            r.services[0].core_count.to_string(),
            r.services[0].freq.mhz().to_string(),
            format!("{:.2}", r.services[0].p99_ms / qos),
            r.services[1].core_count.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// The closing line of a manager's run: per-service QoS, energy and
/// migrations over the window.
fn summary_line(m: &Measured) -> String {
    format!(
        "moses QoS {:.1}%, masstree QoS {:.1}%, energy {:.0} J, migrations {}",
        m.summary[0].qos_guarantee_pct, m.summary[1].qos_guarantee_pct, m.energy, m.migrations
    )
}

/// Regenerates Figure 11, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    // A varying-load policy must cover every load level, so the compressed
    // learning phase is doubled relative to the fixed-load experiments.
    let learn = opts.learn_epochs() * 2;
    let step_period = if opts.scale == Scale::Full { 200 } else { 50 };
    let measure = step_period * 20;
    let specs = [catalog::moses(), catalog::masstree()];
    let loads = [
        LoadGenerator::step(0.2, 0.7, 1.2, step_period)?,
        LoadGenerator::fixed(0.2)?,
    ];
    writeln!(
        out,
        "Figure 11: Twig-C with moses ramping 20-100% and masstree fixed at 20%\n"
    )?;

    let (_, twig) = Manager::Twig.run(&specs, &loads, learn, measure, opts)?;
    writeln!(out, "twig-c allocation trace (sampled once per load step):")?;
    write_allocation_trace(out, &twig.window, step_period)?;
    writeln!(out, "twig-c: {}\n", summary_line(&twig))?;

    let (_, parties) = Manager::Parties.run(&specs, &loads, learn, measure, opts)?;
    writeln!(
        out,
        "parties (summary only, as in the paper): {}",
        summary_line(&parties)
    )?;
    Ok(())
}
