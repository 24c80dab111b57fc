//! Figure 7 — learning-time complexity: QoS guarantee over time for
//! Masstree under Hipster and Twig-S.
//!
//! In the paper, ε anneals to 0.1 in 5 000 s for Twig-S and Hipster's
//! heuristic phase ends at 5 000 s; Hipster's heuristic gives it better
//! early QoS, but Twig-S passes 80 % guarantee sooner once it starts
//! exploiting, without needing Hipster's exhaustive prior power-efficiency
//! knowledge. Shapes to reproduce: both curves rise over time; Twig's
//! post-ramp guarantee is at least as high.

use crate::{drive, make_twig, summarize, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::{Hipster, HipsterConfig};
use twig_sim::{catalog, EpochReport, Server, ServerConfig};

fn guarantee_series(reports: &[EpochReport], qos_ms: f64, bucket: usize) -> Vec<(u64, f64)> {
    reports
        .chunks(bucket)
        .filter(|c| !c.is_empty())
        .map(|chunk| {
            let spec = catalog::masstree();
            let mut specs = vec![spec];
            specs[0].qos_ms = qos_ms;
            let s = summarize(chunk, &specs);
            (chunk[0].time_s, s[0].qos_guarantee_pct)
        })
        .collect()
}

/// Regenerates Figure 7, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and manager errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let cfg = ServerConfig::default();
    let spec = catalog::masstree();
    // Figure 7 halves the paper's ramps: epsilon to 0.1 in 5000 s; fast
    // mode compresses proportionally.
    let ramp = opts.learn_epochs() / 2;
    let total = ramp * 2;
    let bucket = (total / 10).max(1) as usize;
    writeln!(out, "Figure 7: QoS guarantee over time, masstree (ramp {ramp} epochs, {bucket}-epoch buckets)\n")?;

    let mut server = Server::new(cfg.clone(), vec![spec.clone()], opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    let mut twig = make_twig(vec![spec.clone()], ramp, opts.seed)?;
    let twig_reports = drive(&mut server, &mut twig, total)?;

    let mut server = Server::new(cfg.clone(), vec![spec.clone()], opts.seed)?;
    server.set_load_fraction(0, 0.5)?;
    let mut hipster = Hipster::new(
        spec.clone(),
        cfg.cores,
        cfg.dvfs.clone(),
        HipsterConfig {
            learning_phase: ramp,
            seed: opts.seed,
        },
    )?;
    let hipster_reports = drive(&mut server, &mut hipster, total)?;

    let twig_series = guarantee_series(&twig_reports, spec.qos_ms, bucket);
    let hip_series = guarantee_series(&hipster_reports, spec.qos_ms, bucket);
    let mut t = TextTable::new(vec!["epoch", "twig-s QoS (%)", "hipster QoS (%)"]);
    for (tw, hp) in twig_series.iter().zip(&hip_series) {
        t.row(vec![
            tw.0.to_string(),
            format!("{:.1}", tw.1),
            format!("{:.1}", hp.1),
        ]);
    }
    writeln!(out, "{t}")?;

    let first_above =
        |series: &[(u64, f64)]| series.iter().find(|(_, q)| *q >= 80.0).map(|(t, _)| *t);
    writeln!(out,
        "first bucket at >= 80% guarantee: twig-s {:?}, hipster {:?} (paper: Twig reaches 80% faster)",
        first_above(&twig_series),
        first_above(&hip_series)
    )?;
    Ok(())
}
