//! Diurnal-load evaluation (Section V-B: "both variants are evaluated with
//! a diurnal load variations which are common in data centres").
//!
//! The paper gives no dedicated figure for this run; we evaluate Twig-S on
//! each Tailbench service and Twig-C on the masstree+moses pair under a
//! sinusoidal day/night load between 15 % and 85 % of max, reporting QoS
//! guarantee and energy against the static baseline.

use crate::{drive, make_twig, summarize, total_energy, window, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::StaticMapping;
use twig_sim::{catalog, LoadGenerator, Server, ServerConfig};

fn diurnal_server(
    specs: Vec<twig_sim::ServiceSpec>,
    period: u64,
    seed: u64,
) -> Result<Server, ExpError> {
    let mut server = Server::new(ServerConfig::default(), specs.clone(), seed)?;
    // Colocated pairs split the core budget, so their diurnal peak is
    // derated to stay feasible (see the Figure 12/13 notes).
    let peak = if specs.len() > 1 { 0.5 } else { 0.85 };
    for i in 0..specs.len() {
        server.set_load_generator(i, LoadGenerator::diurnal(0.15, peak, period)?)?;
    }
    Ok(server)
}

/// Runs the diurnal evaluation.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let learn = opts.learn_epochs();
    let period = if opts.full { 2_000 } else { 500 };
    let measure = period * 2; // two full day/night cycles
    writeln!(out, "Diurnal load (15-85% solo / 15-50% colocated, period {period} epochs), measured over {measure} epochs\n")?;

    let mut t = TextTable::new(vec![
        "workload",
        "manager",
        "QoS guarantee (%)",
        "energy (norm. to static)",
    ]);
    // Twig-S per service.
    for spec in catalog::tailbench() {
        let mut server = diurnal_server(vec![spec.clone()], period, opts.seed)?;
        let mut stat = StaticMapping::new(vec![spec.clone()], 18, ServerConfig::default().dvfs)?;
        let static_reports = drive(&mut server, &mut stat, opts.controller_warmup() + measure)?;
        let e_static = total_energy(window(&static_reports, measure));

        let mut server = diurnal_server(vec![spec.clone()], period, opts.seed)?;
        let mut twig = make_twig(vec![spec.clone()], learn, opts.seed)?;
        let reports = drive(&mut server, &mut twig, learn + measure)?;
        let tail = window(&reports, measure);
        let s = summarize(tail, std::slice::from_ref(&spec));
        t.row(vec![
            spec.name.clone(),
            "twig-s".into(),
            format!("{:.1}", s[0].qos_guarantee_pct),
            format!("{:.3}", total_energy(tail) / e_static),
        ]);
    }

    // Twig-C on the flagship pair.
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server = diurnal_server(specs.clone(), period, opts.seed)?;
    let mut stat = StaticMapping::new(specs.clone(), 18, ServerConfig::default().dvfs)?;
    let static_reports = drive(&mut server, &mut stat, opts.controller_warmup() + measure)?;
    let e_static = total_energy(window(&static_reports, measure));
    let mut server = diurnal_server(specs.clone(), period, opts.seed)?;
    let mut twig = make_twig(specs.clone(), learn, opts.seed)?;
    let reports = drive(&mut server, &mut twig, learn + measure)?;
    let tail = window(&reports, measure);
    let s = summarize(tail, &specs);
    t.row(vec![
        "masstree+moses".into(),
        "twig-c".into(),
        format!(
            "{:.1} / {:.1}",
            s[0].qos_guarantee_pct, s[1].qos_guarantee_pct
        ),
        format!("{:.3}", total_energy(tail) / e_static),
    ]);
    writeln!(out, "{t}")?;
    Ok(())
}
