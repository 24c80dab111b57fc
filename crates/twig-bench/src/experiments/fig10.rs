//! Figure 10 — resource allocation under varying load for Img-dnn, with
//! Twig-S, Hipster and Heracles.
//!
//! The load is "a step-wise monotonic function" multiplying by a 20 %
//! change factor every 200 s between a minimum and the maximum. The paper's
//! reading: Hipster fails at high load (its heuristic cannot adapt fast
//! enough), Heracles keeps 100 % QoS by over-allocating cores at fixed
//! DVFS (2.3x more migrations, 18 % more energy than Twig-S), while Twig-S
//! tracks the load at a 99.1 % guarantee. Shapes to reproduce: QoS(heracles)
//! ~ QoS(twig) > QoS(hipster); energy(twig) < energy(heracles).

use crate::{ExpError, Manager, Options, Scale, TextTable};
use std::fmt::Write as _;
use twig_sim::{catalog, LoadGenerator};

/// Regenerates Figure 10, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    // A varying-load policy must cover every load level, so the compressed
    // learning phase is doubled relative to the fixed-load experiments.
    let learn = opts.learn_epochs() * 2;
    let step_period = if opts.scale == Scale::Full { 200 } else { 50 };
    // Measure over several full load cycles after learning.
    let measure = step_period * 20;
    writeln!(out,
        "Figure 10: varying load (img-dnn, step x1.2 every {step_period} epochs), measured over {measure} epochs\n"
    )?;

    let specs = [catalog::img_dnn()];
    let loads = [LoadGenerator::step(0.2, 1.0, 1.2, step_period)?];
    let mut t = TextTable::new(vec![
        "manager",
        "QoS guarantee (%)",
        "energy (J)",
        "core migrations",
        "mean cores",
        "mean freq (MHz)",
    ]);
    let mut runs = Vec::new();
    for manager in [Manager::Twig, Manager::Hipster, Manager::Heracles] {
        let (name, m) = manager.run(&specs, &loads, learn, measure, opts)?;
        t.row(vec![
            name,
            format!("{:.1}", m.summary[0].qos_guarantee_pct),
            format!("{:.0}", m.energy),
            m.migrations.to_string(),
            format!("{:.1}", m.summary[0].mean_cores),
            format!("{:.0}", m.summary[0].mean_freq_mhz),
        ]);
        runs.push(m);
    }
    writeln!(out, "{t}")?;
    let (twig, heracles) = (&runs[0], &runs[2]);
    writeln!(out,
        "heracles/twig energy ratio {:.2} (paper: heracles +18%); heracles/twig migrations {:.1}x (paper: 2.3x)",
        heracles.energy / twig.energy,
        heracles.migrations as f64 / twig.migrations.max(1) as f64
    )?;
    Ok(())
}
