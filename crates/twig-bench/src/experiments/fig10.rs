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

use crate::{drive, summarize, total_energy, window, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::{Heracles, Hipster, HipsterConfig};
use twig_core::TaskManager;
use twig_sim::{catalog, LoadGenerator, Server, ServerConfig};

struct Outcome {
    qos_pct: f64,
    energy: f64,
    migrations: usize,
    mean_cores: f64,
    mean_freq: f64,
}

fn run_one(
    manager: &mut dyn TaskManager,
    epochs: u64,
    measure: u64,
    step_period: u64,
    opts: &Options,
) -> Result<Outcome, ExpError> {
    let spec = catalog::img_dnn();
    let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], opts.seed)?;
    server.set_load_generator(0, LoadGenerator::step(0.2, 1.0, 1.2, step_period)?)?;
    let reports = drive(&mut server, manager, epochs)?;
    let tail = window(&reports, measure);
    let s = summarize(tail, &[spec]);
    Ok(Outcome {
        qos_pct: s[0].qos_guarantee_pct,
        energy: total_energy(tail),
        migrations: tail.iter().map(|r| r.migrations).sum(),
        mean_cores: s[0].mean_cores,
        mean_freq: s[0].mean_freq_mhz,
    })
}

/// Regenerates Figure 10, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let cfg = ServerConfig::default();
    // A varying-load policy must cover every load level, so the compressed
    // learning phase is doubled relative to the fixed-load experiments.
    let learn = opts.learn_epochs() * 2;
    let step_period = if opts.full { 200 } else { 50 };
    // Measure over several full load cycles after learning.
    let measure = step_period * 20;
    let epochs = learn + measure;
    writeln!(out,
        "Figure 10: varying load (img-dnn, step x1.2 every {step_period} epochs), measured over {measure} epochs\n"
    )?;

    let mut twig = crate::make_twig(vec![catalog::img_dnn()], learn, opts.seed)?;
    let o_twig = run_one(&mut twig, epochs, measure, step_period, opts)?;

    let mut hipster = Hipster::new(
        catalog::img_dnn(),
        cfg.cores,
        cfg.dvfs.clone(),
        HipsterConfig {
            learning_phase: learn * 3 / 4,
            seed: opts.seed,
        },
    )?;
    let o_hip = run_one(&mut hipster, epochs, measure, step_period, opts)?;

    let mut heracles = Heracles::new(catalog::img_dnn(), cfg.cores, cfg.dvfs.clone())?;
    let o_her = run_one(
        &mut heracles,
        opts.controller_warmup() + measure,
        measure,
        step_period,
        opts,
    )?;

    let mut t = TextTable::new(vec![
        "manager",
        "QoS guarantee (%)",
        "energy (J)",
        "core migrations",
        "mean cores",
        "mean freq (MHz)",
    ]);
    for (name, o) in [
        ("twig-s", &o_twig),
        ("hipster", &o_hip),
        ("heracles", &o_her),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.1}", o.qos_pct),
            format!("{:.0}", o.energy),
            o.migrations.to_string(),
            format!("{:.1}", o.mean_cores),
            format!("{:.0}", o.mean_freq),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(out,
        "heracles/twig energy ratio {:.2} (paper: heracles +18%); heracles/twig migrations {:.1}x (paper: 2.3x)",
        o_her.energy / o_twig.energy,
        o_her.migrations as f64 / o_twig.migrations.max(1) as f64
    )?;
    Ok(())
}
