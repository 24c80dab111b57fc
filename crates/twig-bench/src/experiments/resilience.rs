//! Resilience under platform faults — not a paper figure. Exercises the
//! `twig-sim` fault-injection layer (PMC corruption, actuation rejection,
//! DVFS clamping, telemetry delay, power glitches, core failures) against
//! three managers: the static baseline, bare Twig, and Twig wrapped in the
//! [`SafetyGovernor`].
//!
//! Protocol per (fault level, manager): a clean learning phase, then a
//! fault window with the injectors armed, then a clean recovery window.
//! Reported: the QoS guarantee inside the fault window, the recovery time
//! (epochs after the faults stop until the first sustained streak of
//! QoS-met epochs), the post-fault QoS guarantee, and — for the governed
//! run — what the governor intervened on.
//!
//! The expected reading: static is immune but burns maximum power; bare
//! Twig degrades under corrupted telemetry and mis-actuation; the governor
//! recovers Twig's QoS during and after the fault window without giving up
//! its learned policy.

use crate::{drive, make_twig, ExpError, Options, TextTable};
use std::fmt::Write as _;
use twig_baselines::StaticMapping;
use twig_core::{GovernorConfig, SafetyGovernor, ScratchStore, TaskManager};
use twig_rl::QuarantineConfig;
use twig_sim::{catalog, EpochReport, FaultConfig, FaultPlan, Server, ServerConfig, ServiceSpec};
use twig_telemetry::Telemetry;

/// Consecutive QoS-met epochs that count as "recovered".
const RECOVERY_STREAK: usize = 5;

/// One manager's behaviour across the fault protocol.
pub struct Outcome {
    /// % of fault-window epochs meeting QoS.
    pub fault_qos_pct: f64,
    /// % of post-fault epochs meeting QoS.
    pub post_qos_pct: f64,
    /// Epochs after the faults stop until [`RECOVERY_STREAK`] consecutive
    /// QoS-met epochs begin; `None` if that never happens.
    pub recovery_epochs: Option<usize>,
    /// Mean cores held during the fault window (cost of riding it out).
    pub fault_mean_cores: f64,
}

fn qos_met(r: &EpochReport, spec: &ServiceSpec) -> bool {
    let svc = &r.services[0];
    let active = svc.offered_rps > 0.0 || svc.completed > 0;
    !active || svc.p99_ms <= spec.qos_ms
}

fn pct_met(reports: &[EpochReport], spec: &ServiceSpec) -> f64 {
    if reports.is_empty() {
        return 100.0;
    }
    let met = reports.iter().filter(|r| qos_met(r, spec)).count();
    100.0 * met as f64 / reports.len() as f64
}

fn recovery_time(reports: &[EpochReport], spec: &ServiceSpec) -> Option<usize> {
    let met: Vec<bool> = reports.iter().map(|r| qos_met(r, spec)).collect();
    (0..met.len()).find(|&i| {
        i + RECOVERY_STREAK <= met.len() && met[i..i + RECOVERY_STREAK].iter().all(|&m| m)
    })
}

/// Phase lengths of the fault protocol.
#[derive(Clone, Copy)]
pub struct Phases {
    /// Clean learning epochs before the faults start.
    pub learn: u64,
    /// Epochs with the fault plan armed.
    pub fault: u64,
    /// Clean epochs after the faults stop.
    pub recovery: u64,
}

/// Runs one manager through learn → fault → recovery and scores it.
///
/// # Errors
///
/// Propagates manager and simulator errors.
pub fn evaluate(
    manager: &mut dyn TaskManager,
    spec: &ServiceSpec,
    fault: &FaultConfig,
    phases: Phases,
    seed: u64,
) -> Result<Outcome, ExpError> {
    let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], seed)?;
    server.set_load_fraction(0, 0.5)?;

    drive(&mut server, manager, phases.learn)?;

    server.set_fault_plan(FaultPlan::new(fault.clone(), seed ^ 0xFA17)?);
    let faulted = drive(&mut server, manager, phases.fault)?;

    server.clear_fault_plan();
    let recovered = drive(&mut server, manager, phases.recovery)?;

    // The platform never applies an out-of-range configuration: every
    // epoch's applied state must be a valid allocation even mid-fault.
    for r in faulted.iter().chain(&recovered) {
        let svc = &r.services[0];
        assert!(
            (1..=ServerConfig::default().cores).contains(&svc.core_count),
            "invalid applied core count {}",
            svc.core_count
        );
        assert!(svc.p99_ms.is_finite() && r.power_w.is_finite());
    }

    let fault_mean_cores = faulted
        .iter()
        .map(|r| r.services[0].core_count as f64)
        .sum::<f64>()
        / phases.fault.max(1) as f64;
    Ok(Outcome {
        fault_qos_pct: pct_met(&faulted, spec),
        post_qos_pct: pct_met(&recovered, spec),
        recovery_epochs: recovery_time(&recovered, spec),
        fault_mean_cores,
    })
}

// "heavy" names every injector there is today and still ends in
// `..default()`: a fault added to `FaultConfig` must not have to be named
// here (the level's numbers are a committed result).
#[allow(clippy::needless_update)]
fn fault_levels() -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "light (5% pmc, 2% act)",
            FaultConfig {
                pmc_corrupt_rate: 0.05,
                actuation_reject_rate: 0.02,
                ..FaultConfig::default()
            },
        ),
        (
            "moderate (10% pmc, 5% act)",
            FaultConfig {
                pmc_corrupt_rate: 0.10,
                actuation_reject_rate: 0.05,
                ..FaultConfig::default()
            },
        ),
        (
            "heavy (25% pmc, 15% act, +delay/power/cores)",
            FaultConfig {
                pmc_corrupt_rate: 0.25,
                actuation_reject_rate: 0.15,
                dvfs_clamp_rate: 0.10,
                telemetry_delay_epochs: 2,
                power_glitch_rate: 0.05,
                core_fail_rate: 0.02,
                core_repair_rate: 0.30,
                max_offline_cores: 4,
                ..FaultConfig::default()
            },
        ),
    ]
}

fn fmt_recovery(o: &Outcome) -> String {
    match o.recovery_epochs {
        Some(0) => "immediate".to_string(),
        Some(n) => format!("{n} epochs"),
        None => "never".to_string(),
    }
}

/// Regenerates the resilience sweep, appending to `out`.
///
/// # Errors
///
/// Propagates manager and simulator errors.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let spec = catalog::masstree();
    let cfg = ServerConfig::default();
    let phases = Phases {
        learn: opts.learn_epochs(),
        fault: if opts.full { 300 } else { 100 },
        recovery: if opts.full { 200 } else { 80 },
    };
    writeln!(out,
        "Resilience: masstree at 50% load; {} learn epochs, {} fault epochs, {} recovery epochs (QoS recovery = {} consecutive met epochs)\n",
        phases.learn, phases.fault, phases.recovery, RECOVERY_STREAK
    )?;

    let mut t = TextTable::new(vec![
        "fault level",
        "manager",
        "QoS% (faults)",
        "QoS% (after)",
        "recovery",
        "mean cores (faults)",
        "gov fallbacks",
        "gov trips",
        "gov safe epochs",
        "gov degraded",
        "gov backoff",
    ]);
    let mut ckpt_writes = 0u64;
    let mut ckpt_write_failures = 0u64;
    let mut quarantine_trips = 0u64;
    let mut quarantine_readmitted = 0u64;
    for (label, fault) in fault_levels() {
        let mut stat = StaticMapping::new(vec![spec.clone()], cfg.cores, cfg.dvfs.clone())?;
        let o = evaluate(&mut stat, &spec, &fault, phases, opts.seed)?;
        t.row(vec![
            label.into(),
            "static".into(),
            format!("{:.1}", o.fault_qos_pct),
            format!("{:.1}", o.post_qos_pct),
            fmt_recovery(&o),
            format!("{:.1}", o.fault_mean_cores),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        let mut twig = make_twig(vec![spec.clone()], phases.learn, opts.seed)?;
        let o = evaluate(&mut twig, &spec, &fault, phases, opts.seed)?;
        t.row(vec![
            label.into(),
            "twig-s".into(),
            format!("{:.1}", o.fault_qos_pct),
            format!("{:.1}", o.post_qos_pct),
            fmt_recovery(&o),
            format!("{:.1}", o.fault_mean_cores),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        let mut inner = make_twig(vec![spec.clone()], phases.learn, opts.seed)?;
        // The governed run carries the full robustness stack: per-agent
        // divergence quarantine in the learner and periodic crash-safe
        // checkpointing through the governor.
        inner.set_quarantine(QuarantineConfig::default().armed())?;
        let mut gov = SafetyGovernor::new(
            inner,
            GovernorConfig {
                services: vec![spec.clone()],
                cores: cfg.cores,
                dvfs: cfg.dvfs.clone(),
                ..GovernorConfig::default()
            },
        )?;
        let store = ScratchStore::create("resilience-ckpt", 2)?;
        gov.arm_checkpointing(store.clone(), 25)?;
        // Intervention counts come from the telemetry registry, not the
        // governor's internal stats — this is the observable surface an
        // operator would scrape in production.
        let telemetry = Telemetry::enabled();
        gov.set_telemetry(telemetry.clone());
        let o = evaluate(&mut gov, &spec, &fault, phases, opts.seed)?;
        let m = telemetry.metrics().ok_or("telemetry disabled")?;
        ckpt_writes += m.counter("ckpt.write");
        ckpt_write_failures += m.counter("ckpt.write_failed");
        quarantine_trips += m.counter("quarantine.trips");
        quarantine_readmitted += m.counter("quarantine.readmitted");
        t.row(vec![
            label.into(),
            "twig-s+governor".into(),
            format!("{:.1}", o.fault_qos_pct),
            format!("{:.1}", o.post_qos_pct),
            fmt_recovery(&o),
            format!("{:.1}", o.fault_mean_cores),
            m.counter("governor.fallback_decisions").to_string(),
            m.counter("governor.watchdog_trips").to_string(),
            m.counter("governor.safe_mode_epochs").to_string(),
            m.counter("governor.degraded_epochs").to_string(),
            format!("{:.0}", m.gauge("governor.backoff_epochs").unwrap_or(0.0)),
        ]);
    }
    writeln!(out, "{t}")?;
    writeln!(out,
        "Expected shape: static rides out faults at max cores; the governor holds QoS% at or above bare twig-s during the fault window and recovers at least as fast after it."
    )?;
    writeln!(out,
        "Crash-safety counters across the governed runs: {ckpt_writes} checkpoint writes ({ckpt_write_failures} failed), {quarantine_trips} quarantine trips, {quarantine_readmitted} re-admissions."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_twig_survives_moderate_faults() {
        // Scaled-down acceptance check: 10% PMC corruption + 5% actuation
        // rejection; the governed Twig must finish the protocol without an
        // error, keep every applied allocation valid (asserted inside
        // evaluate) and meet QoS again after the fault window.
        let spec = catalog::masstree();
        let cfg = ServerConfig::default();
        let fault = FaultConfig {
            pmc_corrupt_rate: 0.10,
            actuation_reject_rate: 0.05,
            ..FaultConfig::default()
        };
        let phases = Phases {
            learn: 60,
            fault: 40,
            recovery: 40,
        };
        let inner = make_twig(vec![spec.clone()], phases.learn, 7).unwrap();
        let mut gov = SafetyGovernor::new(
            inner,
            GovernorConfig {
                services: vec![spec.clone()],
                cores: cfg.cores,
                dvfs: cfg.dvfs.clone(),
                ..GovernorConfig::default()
            },
        )
        .unwrap();
        let o = evaluate(&mut gov, &spec, &fault, phases, 7).unwrap();
        assert!(gov.stats().degraded_epochs > 0, "faults should have fired");
        assert!(
            o.post_qos_pct >= 75.0,
            "post-fault QoS {:.1}% too low",
            o.post_qos_pct
        );
        assert!(o.recovery_epochs.is_some(), "never recovered");
    }

    #[test]
    fn static_is_immune_to_telemetry_faults() {
        // Static ignores telemetry entirely, so PMC corruption cannot move
        // its allocation; only actuation faults could, and none are armed.
        let spec = catalog::masstree();
        let cfg = ServerConfig::default();
        let fault = FaultConfig {
            pmc_corrupt_rate: 0.5,
            ..FaultConfig::default()
        };
        let phases = Phases {
            learn: 10,
            fault: 30,
            recovery: 10,
        };
        let mut stat = StaticMapping::new(vec![spec.clone()], cfg.cores, cfg.dvfs.clone()).unwrap();
        let o = evaluate(&mut stat, &spec, &fault, phases, 3).unwrap();
        assert!((o.fault_mean_cores - cfg.cores as f64).abs() < 1e-9);
        assert_eq!(o.fault_qos_pct, 100.0);
    }
}
