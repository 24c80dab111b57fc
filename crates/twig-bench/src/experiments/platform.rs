//! Platform suite — seeded OS-fault schedules against the Linux actuation
//! backend's reconciliation ladder. Not a paper figure.
//!
//! Each schedule closes the loop between a governed manager, a
//! [`twig_platform::LinuxPlatform`] actuating through a fault-injecting
//! [`twig_platform::FakeFs`]
//! sysfs/procfs tree, and a [`SimWorld`] running the ground-truth physics
//! on whatever actually landed in the control files. The seeded
//! [`OsFaultPlan`] injects `EPERM`/`EBUSY` rejections, torn writes,
//! silent cpufreq clamps, delayed visibility, permission-flap outages,
//! and stale/garbage/missing counter files.
//!
//! Invariants asserted on every schedule (a violation fails the unit, and
//! the fleet reports it without killing the suite):
//!
//! - no panic anywhere in the loop — every OS fault ends in a verified
//!   retry, a reported divergence, or a governor-routed degraded epoch;
//! - finite p99 and power in every report the manager sees;
//! - **divergence routing**: an epoch with an unreconciled actuation is
//!   always reported degraded, so the `SafetyGovernor` takes its
//!   `observe_degraded` path and never learns from it;
//! - **no phantom faults**: a clean counter read means the manager's
//!   belief equals the world's ground truth exactly;
//! - the backend's `platform.*` telemetry counters match its own stats
//!   (by construction: every event moves both through `PlatformStats::bump`).
//!
//! The calm schedule additionally proves the [`SimPlatform`] trait
//! adapter behavior-preserving: a governed manager driven through
//! [`Platform::actuate`]/[`Platform::observe_epoch`] stays bit-identical
//! — epoch reports and full checkpoint bytes — to a twin calling
//! [`twig_sim::Server::step`] directly.
//!
//! Outputs are deterministic in `(seed, schedule index)` — wall clock
//! never enters the text — so the report is bit-identical at `--jobs 1`,
//! `2` and `4`.

use crate::runner::{assert_exercised, suite_epochs, twin_lockstep, QosTally};
use crate::{fmt_f, run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_core::{GovernorConfig, SafetyGovernor, TaskManager};
use twig_platform::{OsFaultConfig, OsFaultPlan, Platform, PlatformStats, SimPlatform, SimWorld};
use twig_scenario::build_twig;
use twig_sim::{catalog, Server, ServerConfig};
use twig_telemetry::Telemetry;

/// What a schedule is required to demonstrate, beyond the universal
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// No faults: the trait adapter is bit-identical to the raw server
    /// (twin-manager proof) and the Linux backend verifies every write.
    BitIdentity,
    /// `EPERM`/`EBUSY` storms: retries reconcile some writes, exhausted
    /// budgets diverge and route to the governor.
    RejectStorm,
    /// Torn cpuset writes plus silent cpufreq clamps: read-back catches
    /// the tears, clamps are accepted and reported.
    TornClamp,
    /// Stale, garbage and missing counter files: the previous sample is
    /// served and flagged, never invented data.
    StaleCounters,
    /// Sustained permission-flap outages that outlast any retry budget,
    /// then clear: divergence during the outage, reconvergence after.
    Flap,
    /// Everything at once: every fault class fires and the loop survives.
    KitchenSink,
}

/// One OS-fault schedule: a seeded fault mix plus its expectation.
struct Schedule {
    name: &'static str,
    faults: OsFaultConfig,
    expect: Expect,
}

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule {
            name: "calm (bit-identity)",
            faults: OsFaultConfig::default(),
            expect: Expect::BitIdentity,
        },
        Schedule {
            name: "reject storm",
            faults: OsFaultConfig {
                cpuset_eperm_rate: 0.35,
                cpuset_ebusy_rate: 0.2,
                cpufreq_eperm_rate: 0.25,
                ..OsFaultConfig::default()
            },
            expect: Expect::RejectStorm,
        },
        Schedule {
            name: "torn-write clamp",
            faults: OsFaultConfig {
                cpuset_torn_rate: 0.35,
                cpuset_delay_rate: 0.15,
                cpufreq_clamp_rate: 0.3,
                ..OsFaultConfig::default()
            },
            expect: Expect::TornClamp,
        },
        Schedule {
            name: "stale counters",
            faults: OsFaultConfig {
                counter_stale_rate: 0.3,
                counter_garbage_rate: 0.15,
                counter_enoent_rate: 0.1,
                ..OsFaultConfig::default()
            },
            expect: Expect::StaleCounters,
        },
        Schedule {
            name: "flapping permissions",
            faults: OsFaultConfig {
                eperm_flap_period: 4,
                ..OsFaultConfig::default()
            },
            expect: Expect::Flap,
        },
        Schedule {
            name: "kitchen sink",
            faults: OsFaultConfig {
                cpuset_eperm_rate: 0.2,
                cpuset_ebusy_rate: 0.1,
                cpuset_torn_rate: 0.15,
                cpuset_delay_rate: 0.1,
                cpufreq_eperm_rate: 0.15,
                cpufreq_clamp_rate: 0.2,
                counter_stale_rate: 0.2,
                counter_garbage_rate: 0.1,
                counter_enoent_rate: 0.1,
                ..OsFaultConfig::default()
            },
            expect: Expect::KitchenSink,
        },
    ]
}

/// Ungoverned, fault-free pre-roll epochs that fill the replay buffer to
/// exactly one batch before the scheduled (and faulted) run starts.
const WARMUP_EPOCHS: u64 = 16;

/// Per-schedule outcome — plain counts only, so units stay `Send` and the
/// rendered report is deterministic.
#[derive(Default)]
struct Outcome {
    name: String,
    /// The Linux backend's counters at the end of the run.
    stats: PlatformStats,
    qos: QosTally,
    /// `Some` only for the calm twin-manager proof.
    bit_identical: Option<bool>,
}

/// Runs one governed control loop through the Linux backend against a
/// faulted [`SimWorld`] and asserts its expectation plus the universal
/// invariants.
fn run_schedule(s: &Schedule, epochs: u64, seed: u64) -> Result<Outcome, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let qos: Vec<f64> = specs.iter().map(|sp| sp.qos_ms).collect();
    let mut world = SimWorld::new(specs.clone(), seed)?;
    world.server_mut().set_load_fraction(0, 0.4)?;
    world.server_mut().set_load_fraction(1, 0.4)?;
    let cores = world.server().config().cores;
    let dvfs = world.server().config().dvfs.clone();
    let mut platform = world.platform()?;

    // Fault-free warm-up pre-roll through the same closed loop, then
    // install the fault plan so outage windows align with the scheduled
    // run.
    let mut twig = build_twig(specs.clone(), epochs, seed, true)?;
    for _ in 0..WARMUP_EPOCHS {
        let a = twig.decide()?;
        platform.actuate(&a)?;
        world.tick()?;
        let r = platform.observe_epoch()?;
        twig.observe(&r)?;
    }
    world
        .fs()
        .set_fault_plan(OsFaultPlan::new(s.faults.clone(), seed ^ 0x05FA_17BD)?);

    let mut gov = SafetyGovernor::new(
        twig,
        GovernorConfig {
            services: specs,
            cores,
            dvfs,
            ..GovernorConfig::default()
        },
    )?;

    let mut o = Outcome {
        name: s.name.to_string(),
        ..Outcome::default()
    };
    let mut rejected_assignments = 0u64;
    let mut divergences_before = 0u64;
    // With counter faults in play, a fresh-looking sequence stamp can
    // legitimately carry the previous epoch's sample (a stale read served
    // after a rejected garbage read still advances the stamp), so exact
    // ground-truth equality is only assertable when reads never fault.
    let counters_clean = s.faults.counter_stale_rate == 0.0
        && s.faults.counter_garbage_rate == 0.0
        && s.faults.counter_enoent_rate == 0.0;
    for _ in 0..epochs {
        let a = gov.decide()?;
        platform.actuate(&a)?;
        let truth = world.tick()?;
        let seen = platform.observe_epoch()?;

        assert!(seen.power_w.is_finite(), "non-finite power reading");
        o.qos.absorb(&seen, &qos);
        for (i, svc) in seen.services.iter().enumerate() {
            // No phantom faults: a clean counter read means the belief is
            // exactly the world's ground truth.
            if counters_clean && !seen.telemetry.service_degraded(i) {
                assert_eq!(
                    svc.p99_ms, truth.services[i].p99_ms,
                    "clean read diverged from ground truth"
                );
                assert_eq!(svc.completed, truth.services[i].completed);
            }
        }
        rejected_assignments += seen.actuation.iter().filter(|ap| ap.rejected).count() as u64;

        // Divergence routing: an unreconciled actuation this epoch must
        // surface as a degraded report, or the governor would learn from
        // an assignment the OS never applied.
        let divergences_now = platform.stats().divergences;
        if divergences_now > divergences_before {
            assert!(
                seen.telemetry.delayed_epochs > 0,
                "divergence not routed to the governor"
            );
        }
        divergences_before = divergences_now;
        gov.observe(&seen)?;
    }

    let stats = *platform.stats();
    assert_eq!(stats.epochs, WARMUP_EPOCHS + epochs);
    o.stats = stats;

    match s.expect {
        Expect::BitIdentity => unreachable!("calm runs use run_bit_identity"),
        Expect::RejectStorm => {
            assert!(stats.write_errors > 0, "no write was ever rejected");
            assert!(stats.reconciled > 0, "no retry ever reconciled a write");
            assert!(stats.divergences > 0, "no budget was ever exhausted");
            assert!(stats.degraded_epochs > 0, "no epoch was routed degraded");
            assert!(rejected_assignments > 0, "no assignment was rejected");
        }
        Expect::TornClamp => {
            assert!(stats.clamps > 0, "no cpufreq clamp was ever accepted");
            assert!(stats.reconciled > 0, "no torn write was ever repaired");
            assert_eq!(
                stats.write_errors, 0,
                "torn/clamp schedule has no erroring writes"
            );
        }
        Expect::StaleCounters => {
            assert!(stats.stale_counters > 0, "no stale counter was served");
            assert!(stats.garbage_counters > 0, "no garbage counter was served");
            assert!(stats.missing_counters > 0, "no counter ever went missing");
            assert!(
                stats.power_glitches > 0,
                "the energy counter never glitched"
            );
            assert!(stats.degraded_epochs > 0, "counter faults never routed");
            assert_eq!(stats.divergences, 0, "read faults are not divergences");
        }
        Expect::Flap => {
            assert!(stats.write_errors > 0, "the flap never denied a write");
            assert!(
                stats.divergences > 0,
                "outage windows never exhausted the budget"
            );
            assert!(stats.degraded_epochs > 0, "outages never routed degraded");
            assert!(
                stats.degraded_epochs < stats.epochs,
                "the backend never reconverged between outages"
            );
        }
        Expect::KitchenSink => {
            assert!(
                stats.divergences > 0,
                "no divergence under the kitchen sink"
            );
            assert!(stats.clamps > 0, "no clamp under the kitchen sink");
            assert!(
                stats.stale_counters + stats.garbage_counters + stats.missing_counters > 0,
                "no counter fault under the kitchen sink"
            );
            assert!(
                stats.reconciled > 0,
                "no reconciliation under the kitchen sink"
            );
            assert!(
                stats.degraded_epochs > 0,
                "nothing routed under the kitchen sink"
            );
        }
    }
    Ok(o)
}

/// The calm proof: a governed manager driven through the [`SimPlatform`]
/// trait adapter stays bit-identical — every epoch report and the full
/// checkpoint bytes — to a twin calling the raw server directly, and a
/// fault-free Linux backend verifies every write with zero retries.
fn run_bit_identity(s: &Schedule, epochs: u64, seed: u64) -> Result<Outcome, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let qos: Vec<f64> = specs.iter().map(|sp| sp.qos_ms).collect();
    let cfg = ServerConfig::default();
    let mut platform = SimPlatform::new(Server::new(cfg.clone(), specs.clone(), seed)?);
    let mut server = Server::new(cfg.clone(), specs.clone(), seed)?;
    platform.server_mut().set_load_fraction(0, 0.4)?;
    platform.server_mut().set_load_fraction(1, 0.4)?;
    server.set_load_fraction(0, 0.4)?;
    server.set_load_fraction(1, 0.4)?;

    let mut twig_a = build_twig(specs.clone(), epochs, seed, true)?;
    let mut twig_b = build_twig(specs.clone(), epochs, seed, true)?;
    for _ in 0..WARMUP_EPOCHS {
        let a = twig_a.decide()?;
        platform.actuate(&a)?;
        let ra = platform.observe_epoch()?;
        twig_a.observe(&ra)?;
        let b = twig_b.decide()?;
        let rb = server.step(&b)?;
        twig_b.observe(&rb)?;
    }
    let gov_cfg = GovernorConfig {
        services: specs,
        cores: cfg.cores,
        dvfs: cfg.dvfs.clone(),
        ..GovernorConfig::default()
    };
    let mut twins = [
        SafetyGovernor::new(twig_a, gov_cfg.clone())?,
        SafetyGovernor::new(twig_b, gov_cfg)?,
    ];

    let mut o = Outcome {
        name: s.name.to_string(),
        ..Outcome::default()
    };
    let identical = twin_lockstep(
        epochs,
        &mut twins,
        |gov| gov.inner().checkpoint_bytes(),
        |[gov_a, gov_b]| {
            let a = gov_a.decide()?;
            platform.actuate(&a)?;
            let ra = platform.observe_epoch()?;
            let b = gov_b.decide()?;
            let rb = server.step(&b)?;
            o.qos.absorb(&ra, &qos);
            Ok([ra, rb])
        },
    )?;
    assert!(
        identical,
        "the SimPlatform trait adapter diverged from the raw server"
    );

    // A fault-free Linux backend over the same workload shape must verify
    // every write on the first attempt: zero retries, zero divergences,
    // zero degraded epochs.
    let mut world = SimWorld::new(vec![catalog::masstree(), catalog::moses()], seed ^ 1)?;
    world.server_mut().set_load_fraction(0, 0.4)?;
    world.server_mut().set_load_fraction(1, 0.4)?;
    let mut linux = world.platform()?;
    let all = twig_sim::Assignment::first_n(linux.cores(), linux.dvfs().max());
    for _ in 0..epochs {
        linux.actuate(&[all.clone(), all.clone()])?;
        world.tick()?;
        let r = linux.observe_epoch()?;
        assert!(
            !r.telemetry.degraded(),
            "calm Linux epoch reported degraded"
        );
    }
    let stats = *linux.stats();
    assert_eq!(stats.epochs, epochs);
    assert_eq!(stats.write_retries, 0, "calm backend retried a write");
    assert_eq!(stats.divergences, 0, "calm backend diverged");
    assert_eq!(stats.degraded_epochs, 0, "calm backend degraded");
    o.stats = stats;
    o.bit_identical = Some(identical);
    Ok(o)
}

/// Runs every platform schedule and appends the report, asserting the
/// acceptance invariants along the way.
///
/// # Errors
///
/// Returns an error naming every failed (errored or panicked) schedule.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let epochs = suite_epochs(opts, 30, 50);
    let retry = twig_core::SchedulerConfig::default().retry_budget();
    writeln!(
        out,
        "Platform suite: {} schedules x {epochs} epochs through the Linux backend on a fault-injecting fake sysfs ({} retries per write, backoff {:.0} ms doubling to {:.0} ms)\n",
        schedules().len(),
        retry.max_retries,
        retry.backoff_ms,
        retry.backoff_cap_ms,
    )?;

    let scheds = schedules();
    let units: Vec<Unit<'_, Outcome>> = scheds
        .iter()
        .map(|s| {
            Unit::new(format!("platform:{}", s.name), move |seed| match s.expect {
                Expect::BitIdentity => run_bit_identity(s, epochs, seed),
                _ => run_schedule(s, epochs, seed),
            })
        })
        .collect();
    let reports = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "schedule",
        "epochs",
        "writes",
        "retries",
        "errors",
        "reconciled",
        "diverged",
        "clamps",
        "stale ctrs",
        "glitches",
        "degraded",
        "qos %",
        "mean p99 ms",
    ]);
    let counter_faults =
        |s: &PlatformStats| s.stale_counters + s.garbage_counters + s.missing_counters;
    for r in &reports {
        let s = &r.stats;
        t.row(vec![
            r.name.clone(),
            s.epochs.to_string(),
            s.writes.to_string(),
            s.write_retries.to_string(),
            s.write_errors.to_string(),
            s.reconciled.to_string(),
            s.divergences.to_string(),
            s.clamps.to_string(),
            counter_faults(s).to_string(),
            s.power_glitches.to_string(),
            s.degraded_epochs.to_string(),
            fmt_f(r.qos.pct(), 1),
            fmt_f(r.qos.mean_p99(), 3),
        ]);
    }
    writeln!(out, "{t}")?;

    let mut all = PlatformStats::default();
    for r in &reports {
        all.add(&r.stats, &Telemetry::disabled());
    }
    assert_exercised(&[
        (all.write_errors, "write rejection"),
        (all.reconciled, "retry reconciliation"),
        (all.divergences, "divergence"),
        (all.clamps, "cpufreq clamp"),
        (all.stale_counters, "stale counter"),
        (all.garbage_counters, "garbage counter"),
        (all.missing_counters, "missing counter"),
        (all.power_glitches, "power glitch"),
        (all.degraded_epochs, "degraded routing"),
    ]);
    let bit = reports
        .iter()
        .find_map(|r| r.bit_identical)
        .expect("bit-identity schedule present");
    assert!(bit);
    writeln!(
        out,
        "invariants held across all schedules: no panic, finite observables every epoch, every divergence routed degraded, clean reads equal to ground truth, platform.* counters equal to stats."
    )?;
    writeln!(
        out,
        "exercised: {} write rejections, {} retry reconciliations, {} divergences, {} accepted clamps, {} counter faults ({} stale / {} garbage / {} missing), {} power glitches, {} degraded epochs.",
        all.write_errors,
        all.reconciled,
        all.divergences,
        all.clamps,
        counter_faults(&all),
        all.stale_counters,
        all.garbage_counters,
        all.missing_counters,
        all.power_glitches,
        all.degraded_epochs,
    )?;
    writeln!(
        out,
        "sim backend behind the Platform trait bit-identical to the raw server: {bit}."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_schedule_proves_bit_identity() {
        let scheds = schedules();
        let s = scheds
            .iter()
            .find(|s| s.expect == Expect::BitIdentity)
            .expect("calm schedule");
        let o = run_bit_identity(s, 20, 7).unwrap();
        assert_eq!(o.bit_identical, Some(true));
        assert_eq!(o.stats.divergences, 0);
    }

    #[test]
    fn reject_storm_reconciles_and_routes() {
        let scheds = schedules();
        let s = scheds
            .iter()
            .find(|s| s.expect == Expect::RejectStorm)
            .expect("reject-storm schedule");
        // run_schedule asserts the expectation internally; this pins the
        // counters that make it meaningful.
        let stats = run_schedule(s, 30, 11).unwrap().stats;
        assert!(stats.write_errors > 0 && stats.reconciled > 0 && stats.divergences > 0);
        assert!(stats.degraded_epochs > 0);
    }
}
