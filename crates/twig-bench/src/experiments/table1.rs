//! Table I — the PMC selection pipeline (Section III-B1).
//!
//! The paper runs each service for 1000 s at every DVFS/core combination,
//! builds a Pearson correlation matrix between all counters and tail
//! latency, keeps the principal components covering ≥ 95 % of the
//! co-variance, and ranks "the most vital and distinct PMCs". This
//! experiment profiles the simulated services over a (load, cores, DVFS)
//! sweep and runs the same pipeline (`twig_core::select_counters`).
//! Absolute importance ranks depend on the platform; what must hold is that
//! all 11 counters carry signal and a stable ranking emerges.

use crate::{ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_sim::pmc::PmcSample;
use twig_sim::{catalog, Assignment, Server, ServerConfig};

/// Profiles all four Tailbench services across the configuration space,
/// collecting (counters, tail latency) pairs.
fn gather_profile(opts: &Options) -> Result<Vec<(PmcSample, f64)>, ExpError> {
    let cfg = ServerConfig::default();
    let epochs = if opts.full { 50 } else { 16 };
    let mut profile = Vec::new();
    for spec in catalog::tailbench() {
        for &load in &[0.2, 0.4, 0.6, 0.8] {
            for cores in [4, 9, 14, 18] {
                for dvfs in [0, 4, 8] {
                    let mut server = Server::new(cfg.clone(), vec![spec.clone()], opts.seed)?;
                    server.set_load_fraction(0, load)?;
                    let freq = cfg.dvfs.frequency_at(dvfs)?;
                    let a = vec![Assignment::first_n(cores, freq)];
                    for e in 0..epochs {
                        let r = server.step(&a)?;
                        if e >= 3 {
                            let svc = &r.services[0];
                            profile.push((svc.pmcs, svc.p99_ms.min(spec.qos_ms * 20.0)));
                        }
                    }
                }
            }
        }
    }
    Ok(profile)
}

/// Regenerates Table I, appending to `out`.
///
/// # Errors
///
/// Propagates simulator and statistics errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    writeln!(
        out,
        "Table I: counter selection by Pearson correlation + PCA (>=95% co-variance)"
    )?;
    writeln!(
        out,
        "(the paper's importance ranks are platform-specific; ours are re-derived)\n"
    )?;
    let profile = gather_profile(opts)?;
    writeln!(out, "profiled {} samples\n", profile.len())?;
    let ranking = twig_core::select_counters(&profile, 0.95)?;
    let mut t = TextTable::new(vec![
        "#",
        "counter name",
        "range",
        "importance (this platform)",
        "|corr| with tail latency",
    ]);
    for (rank, entry) in ranking.iter().enumerate() {
        t.row(vec![
            format!("{}", entry.counter.index() + 1),
            entry.counter.event_name().to_string(),
            "[0, 1]".to_string(),
            format!("{} (score {:.4})", rank + 1, entry.importance),
            format!("{:.3}", entry.latency_correlation),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "paper's top counter: PERF_COUNT_HW_BRANCH_MISSES; ours: {}",
        ranking[0].counter
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_produces_full_ranking() {
        let profile = gather_profile(&Options::default()).unwrap();
        assert!(profile.len() > 500);
        let ranking = twig_core::select_counters(&profile, 0.95).unwrap();
        assert_eq!(ranking.len(), twig_sim::NUM_COUNTERS);
        // Top counters must correlate meaningfully with tail latency.
        assert!(ranking[0].latency_correlation > 0.2);
    }
}
