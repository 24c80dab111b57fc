//! Figure 12 — core-mapping distributions for PARTIES vs Twig-C with
//! Masstree at 20 % and Moses at 60 % of max load, over a 600 s window.
//!
//! The paper runs Moses at 80 %; on this platform a service's capacity
//! scales with its core share (the solo maximum assumes the whole socket),
//! so 80 % Moses + 20 % Masstree exceeds the socket under mutual
//! interference. 60 % preserves the figure's structure — a pressured,
//! bandwidth-hungry Moses squeezing a latency-sensitive Masstree — while
//! staying feasible (see EXPERIMENTS.md).
//!
//! The paper's reading: PARTIES continuously makes minor mapping changes
//! based on distance to target (ping-ponging), while Twig-C holds a stable
//! mapping using fewer resources, which is where its energy savings come
//! from. Shapes to reproduce: Twig-C's core-count distribution is more
//! concentrated (fewer distinct allocations / lower variance) and uses
//! fewer total cores.

use crate::{drive, make_twig, summarize, total_energy, window, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::Parties;
use twig_sim::{catalog, EpochReport, Server, ServerConfig};

fn distribution(tail: &[EpochReport], svc: usize) -> Vec<(usize, f64)> {
    let mut counts = std::collections::BTreeMap::new();
    for r in tail {
        *counts.entry(r.services[svc].core_count).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .map(|(c, n)| (c, 100.0 * n as f64 / tail.len() as f64))
        .collect()
}

fn spread(dist: &[(usize, f64)]) -> f64 {
    let mean: f64 = dist.iter().map(|&(c, p)| c as f64 * p / 100.0).sum();
    dist.iter()
        .map(|&(c, p)| (c as f64 - mean).powi(2) * p / 100.0)
        .sum::<f64>()
        .sqrt()
}

/// Regenerates Figure 12, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    // Colocated (K = 2) policies see a joint state space; double the
    // compressed learning phase so both agents converge.
    let learn = opts.learn_epochs() * 2;
    let measure = opts.measure_epochs(true);
    writeln!(out, "Figure 12: core-mapping distribution, masstree @ 20% + moses @ 60%, {measure}-epoch window\n")?;

    let setup = |seed: u64| -> Result<Server, ExpError> {
        let mut server = Server::new(ServerConfig::default(), specs.clone(), seed)?;
        server.set_load_fraction(0, 0.2)?;
        server.set_load_fraction(1, 0.6)?;
        Ok(server)
    };

    let mut parties = Parties::new(specs.clone(), 18, ServerConfig::default().dvfs, opts.seed)?;
    let mut server = setup(opts.seed)?;
    let p_reports = drive(
        &mut server,
        &mut parties,
        opts.controller_warmup() + measure,
    )?;
    let p_tail = window(&p_reports, measure);

    let mut twig = make_twig(specs.clone(), learn, opts.seed)?;
    let mut server = setup(opts.seed)?;
    let t_reports = drive(&mut server, &mut twig, learn + measure)?;
    let t_tail = window(&t_reports, measure);

    for (svc, name) in [(0usize, "masstree"), (1, "moses")] {
        let pd = distribution(p_tail, svc);
        let td = distribution(t_tail, svc);
        let mut t = TextTable::new(vec!["cores", "parties time (%)", "twig-c time (%)"]);
        let all_cores: std::collections::BTreeSet<usize> =
            pd.iter().chain(&td).map(|&(c, _)| c).collect();
        for c in all_cores {
            let find =
                |d: &[(usize, f64)]| d.iter().find(|&&(cc, _)| cc == c).map_or(0.0, |&(_, p)| p);
            t.row(vec![
                c.to_string(),
                format!("{:.1}", find(&pd)),
                format!("{:.1}", find(&td)),
            ]);
        }
        writeln!(out, "== {name} ==\n{t}")?;
        writeln!(
            out,
            "allocation spread (stddev of cores): parties {:.2}, twig-c {:.2}\n",
            spread(&pd),
            spread(&td)
        )?;
    }

    let ps = summarize(p_tail, &specs);
    let ts = summarize(t_tail, &specs);
    writeln!(
        out,
        "parties: QoS {:.1}%/{:.1}%, energy {:.0} J, migrations {}",
        ps[0].qos_guarantee_pct,
        ps[1].qos_guarantee_pct,
        total_energy(p_tail),
        p_tail.iter().map(|r| r.migrations).sum::<usize>()
    )?;
    writeln!(
        out,
        "twig-c:  QoS {:.1}%/{:.1}%, energy {:.0} J, migrations {}",
        ts[0].qos_guarantee_pct,
        ts[1].qos_guarantee_pct,
        total_energy(t_tail),
        t_tail.iter().map(|r| r.migrations).sum::<usize>()
    )?;
    Ok(())
}
