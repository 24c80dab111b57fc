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

use crate::runner::{suite_epochs, twin_lockstep};
use crate::{fmt_f, run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_core::{GovernorConfig, SafetyGovernor, TaskManager};
use twig_platform::{OsFaultConfig, OsFaultPlan, Platform, SimPlatform, SimWorld};
use twig_scenario::build_twig;
use twig_sim::{catalog, Server, ServerConfig};

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
struct Outcome {
    name: String,
    epochs: u64,
    writes: u64,
    retries: u64,
    write_errors: u64,
    reconciled: u64,
    divergences: u64,
    clamps: u64,
    stale: u64,
    garbage: u64,
    missing: u64,
    glitches: u64,
    degraded: u64,
    rejected_assignments: u64,
    qos_hits: u64,
    qos_total: u64,
    p99_sum: f64,
    /// `Some` only for the calm twin-manager proof.
    bit_identical: Option<bool>,
}

impl Outcome {
    fn new(name: &str) -> Self {
        Outcome {
            name: name.to_string(),
            epochs: 0,
            writes: 0,
            retries: 0,
            write_errors: 0,
            reconciled: 0,
            divergences: 0,
            clamps: 0,
            stale: 0,
            garbage: 0,
            missing: 0,
            glitches: 0,
            degraded: 0,
            rejected_assignments: 0,
            qos_hits: 0,
            qos_total: 0,
            p99_sum: 0.0,
            bit_identical: None,
        }
    }

    fn absorb_service_epoch(&mut self, p99_ms: f64, qos_ms: f64) {
        assert!(
            p99_ms.is_finite() && p99_ms >= 0.0,
            "non-finite p99 reached the manager"
        );
        self.qos_total += 1;
        if p99_ms <= qos_ms {
            self.qos_hits += 1;
        }
        self.p99_sum += p99_ms;
    }

    fn absorb_stats(&mut self, stats: &twig_platform::PlatformStats) {
        self.epochs = stats.epochs;
        self.writes = stats.writes;
        self.retries = stats.write_retries;
        self.write_errors = stats.write_errors;
        self.reconciled = stats.reconciled;
        self.divergences = stats.divergences;
        self.clamps = stats.clamps;
        self.stale = stats.stale_counters;
        self.garbage = stats.garbage_counters;
        self.missing = stats.missing_counters;
        self.glitches = stats.power_glitches;
        self.degraded = stats.degraded_epochs;
    }
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

    let mut o = Outcome::new(s.name);
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
        for (i, svc) in seen.services.iter().enumerate() {
            o.absorb_service_epoch(svc.p99_ms, qos[i]);
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
        o.rejected_assignments += seen.actuation.iter().filter(|ap| ap.rejected).count() as u64;

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
    o.absorb_stats(&stats);

    match s.expect {
        Expect::BitIdentity => unreachable!("calm runs use run_bit_identity"),
        Expect::RejectStorm => {
            assert!(stats.write_errors > 0, "no write was ever rejected");
            assert!(stats.reconciled > 0, "no retry ever reconciled a write");
            assert!(stats.divergences > 0, "no budget was ever exhausted");
            assert!(stats.degraded_epochs > 0, "no epoch was routed degraded");
            assert!(o.rejected_assignments > 0, "no assignment was rejected");
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

    let mut o = Outcome::new(s.name);
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
            for (i, svc) in ra.services.iter().enumerate() {
                o.absorb_service_epoch(svc.p99_ms, qos[i]);
            }
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
    assert_eq!(stats.write_retries, 0, "calm backend retried a write");
    assert_eq!(stats.divergences, 0, "calm backend diverged");
    assert_eq!(stats.degraded_epochs, 0, "calm backend degraded");
    o.absorb_stats(&stats);
    o.epochs = epochs;
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
    for r in &reports {
        let qos_pct = if r.qos_total > 0 {
            100.0 * r.qos_hits as f64 / r.qos_total as f64
        } else {
            0.0
        };
        let mean_p99 = if r.qos_total > 0 {
            r.p99_sum / r.qos_total as f64
        } else {
            0.0
        };
        t.row(vec![
            r.name.clone(),
            r.epochs.to_string(),
            r.writes.to_string(),
            r.retries.to_string(),
            r.write_errors.to_string(),
            r.reconciled.to_string(),
            r.divergences.to_string(),
            r.clamps.to_string(),
            (r.stale + r.garbage + r.missing).to_string(),
            r.glitches.to_string(),
            r.degraded.to_string(),
            fmt_f(qos_pct, 1),
            fmt_f(mean_p99, 3),
        ]);
    }
    writeln!(out, "{t}")?;

    // Suite-level acceptance: each OS-fault class must actually have been
    // exercised somewhere, not just survived in the abstract.
    let errors: u64 = reports.iter().map(|r| r.write_errors).sum();
    let reconciled: u64 = reports.iter().map(|r| r.reconciled).sum();
    let diverged: u64 = reports.iter().map(|r| r.divergences).sum();
    let clamps: u64 = reports.iter().map(|r| r.clamps).sum();
    let stale: u64 = reports.iter().map(|r| r.stale).sum();
    let garbage: u64 = reports.iter().map(|r| r.garbage).sum();
    let missing: u64 = reports.iter().map(|r| r.missing).sum();
    let glitches: u64 = reports.iter().map(|r| r.glitches).sum();
    let degraded: u64 = reports.iter().map(|r| r.degraded).sum();
    assert!(errors > 0, "no write rejection was ever exercised");
    assert!(reconciled > 0, "no retry reconciliation was ever exercised");
    assert!(diverged > 0, "no divergence was ever exercised");
    assert!(clamps > 0, "no cpufreq clamp was ever exercised");
    assert!(
        stale > 0 && garbage > 0 && missing > 0,
        "a counter-fault class was never exercised"
    );
    assert!(glitches > 0, "no power glitch was ever exercised");
    assert!(degraded > 0, "no degraded routing was ever exercised");
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
        "exercised: {errors} write rejections, {reconciled} retry reconciliations, {diverged} divergences, {clamps} accepted clamps, {} counter faults ({stale} stale / {garbage} garbage / {missing} missing), {glitches} power glitches, {degraded} degraded epochs.",
        stale + garbage + missing
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
    fn platform_suite_is_deterministic_across_jobs() {
        // The acceptance gate: the full report is bit-identical at
        // --jobs 1/2/4, every schedule passes its invariants, and the
        // required OS-fault classes (rejection, reconciliation,
        // divergence, clamp, counter faults, power glitch) all fire.
        let render = |jobs: usize| {
            let opts = Options {
                smoke: true,
                jobs,
                seed: 42,
                ..Options::default()
            };
            let mut out = String::new();
            run_to(&mut out, &opts).unwrap();
            out
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(4));
        assert!(one.contains("bit-identical to the raw server: true"));
    }

    #[test]
    fn calm_schedule_proves_bit_identity() {
        let scheds = schedules();
        let s = scheds
            .iter()
            .find(|s| s.expect == Expect::BitIdentity)
            .expect("calm schedule");
        let o = run_bit_identity(s, 20, 7).unwrap();
        assert_eq!(o.bit_identical, Some(true));
        assert_eq!(o.divergences, 0);
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
        let o = run_schedule(s, 30, 11).unwrap();
        assert!(o.write_errors > 0 && o.reconciled > 0 && o.divergences > 0);
        assert!(o.degraded > 0);
    }
}
