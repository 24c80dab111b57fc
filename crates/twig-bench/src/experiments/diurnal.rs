//! Diurnal-load evaluation (Section V-B: "both variants are evaluated with
//! a diurnal load variations which are common in data centres").
//!
//! The paper gives no dedicated figure for this run; we evaluate Twig-S on
//! each Tailbench service and Twig-C on the masstree+moses pair under a
//! sinusoidal day/night load between 15 % and 85 % of max, reporting QoS
//! guarantee and energy against the static baseline.

use crate::runner::services_label;
use crate::{ExpError, Manager, Options, Scale, TextTable};
use std::fmt::Write as _;
use twig_sim::{catalog, LoadGenerator};

/// Runs the diurnal evaluation.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let learn = opts.learn_epochs();
    let period = if opts.scale == Scale::Full {
        2_000
    } else {
        500
    };
    let measure = period * 2; // two full day/night cycles
    writeln!(out, "Diurnal load (15-85% solo / 15-50% colocated, period {period} epochs), measured over {measure} epochs\n")?;

    let mut t = TextTable::new(vec![
        "workload",
        "manager",
        "QoS guarantee (%)",
        "energy (norm. to static)",
    ]);
    // Twig-S per service, then Twig-C on the flagship pair.
    let workloads = catalog::tailbench()
        .into_iter()
        .map(|spec| vec![spec])
        .chain([vec![catalog::masstree(), catalog::moses()]]);
    for specs in workloads {
        // Colocated pairs split the core budget, so their diurnal peak is
        // derated to stay feasible (see the Figure 12/13 notes).
        let peak = if specs.len() > 1 { 0.5 } else { 0.85 };
        let loads = vec![LoadGenerator::diurnal(0.15, peak, period)?; specs.len()];
        let (_, reference) = Manager::Static.run(&specs, &loads, learn, measure, opts)?;
        let (name, twig) = Manager::Twig.run(&specs, &loads, learn, measure, opts)?;
        let qos: Vec<String> = twig
            .summary
            .iter()
            .map(|s| format!("{:.1}", s.qos_guarantee_pct))
            .collect();
        t.row(vec![
            services_label(&specs),
            name,
            qos.join(" / "),
            format!("{:.3}", twig.energy / reference.energy),
        ]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}
