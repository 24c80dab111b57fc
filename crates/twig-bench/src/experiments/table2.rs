//! Table II — maximum load and QoS target per Tailbench service.
//!
//! The paper derives these "according to the capacity and characteristics
//! of our platform": each service runs alone on all cores at the highest
//! DVFS setting while the load is raised step by step "until the latency
//! increases exponentially". This experiment performs the same capacity
//! search on the simulated platform. QoS targets are the paper's; the
//! measured maximum load is a property of our platform, so `EXPERIMENTS.md`
//! compares the *ordering* across services with Table II.

use crate::{drive, window, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::StaticMapping;
use twig_sim::{catalog, Server, ServerConfig, ServiceSpec};

/// Highest load fraction (relative to the spec's reference max) at which
/// the service still meets its QoS target with full resources, searched in
/// 5 % steps up to 1.5x.
fn capacity_search(spec: &ServiceSpec, opts: &Options) -> Result<f64, ExpError> {
    let cfg = ServerConfig::default();
    let warm = 20u64;
    let measure = if opts.full { 120 } else { 60 };
    let mut best = 0.0;
    for step in 1..=30 {
        let frac = step as f64 * 0.05;
        // Widen the generator's range: express frac > 1 by scaling the spec.
        let mut scaled = spec.clone();
        scaled.max_load_rps = spec.max_load_rps * frac;
        let mut server = Server::new(cfg.clone(), vec![scaled.clone()], opts.seed)?;
        server.set_load_fraction(0, 1.0)?;
        let mut manager = StaticMapping::new(vec![scaled.clone()], cfg.cores, cfg.dvfs.clone())?;
        let reports = drive(&mut server, &mut manager, warm + measure)?;
        let tail = window(&reports, measure);
        let mean_p99: f64 =
            tail.iter().map(|r| r.services[0].p99_ms).sum::<f64>() / tail.len() as f64;
        if mean_p99 <= spec.qos_ms {
            best = frac;
        } else if frac > best + 0.1 {
            break; // past the knee
        }
    }
    Ok(best)
}

/// Regenerates Table II, appending to `out`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    writeln!(out, "Table II: services, measured max load and target QoS")?;
    writeln!(
        out,
        "(paper QoS targets; max load from a capacity sweep on this platform)\n"
    )?;
    let mut table = TextTable::new(vec![
        "service",
        "paper max (RPS)",
        "measured max (RPS)",
        "target QoS (ms)",
    ]);
    let mut measured = Vec::new();
    for spec in catalog::tailbench() {
        let frac = capacity_search(&spec, opts)?;
        let max_rps = frac * spec.max_load_rps;
        measured.push((spec.name.clone(), max_rps));
        table.row(vec![
            spec.name.clone(),
            format!("{:.0}", spec.max_load_rps),
            format!("{max_rps:.0}"),
            format!("{:.2}", spec.qos_ms),
        ]);
    }
    writeln!(out, "{table}")?;

    // Shape check: the capacity ordering should match the paper's.
    let order = |v: &[(String, f64)]| {
        let mut names: Vec<&str> = v.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_by(|a, b| {
            let fa = v.iter().find(|(n, _)| n == a).expect("present").1;
            let fb = v.iter().find(|(n, _)| n == b).expect("present").1;
            fb.partial_cmp(&fa).expect("finite")
        });
        names.join(" > ")
    };
    writeln!(out, "measured capacity ordering: {}", order(&measured))?;
    writeln!(
        out,
        "paper capacity ordering:    moses > masstree > img-dnn > xapian"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_search_finds_roughly_the_calibrated_max() {
        let opts = Options::default();
        let frac = capacity_search(&catalog::masstree(), &opts).unwrap();
        // Calibration targets QoS being met at 1.0 and broken well before
        // 1.5x; allow the noisy band around it.
        assert!((0.8..=1.45).contains(&frac), "masstree capacity {frac}");
    }
}
