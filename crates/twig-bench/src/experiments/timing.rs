//! Timing suite — seeded timing-chaos schedules against the deadline-aware
//! epoch scheduler. Not a paper figure.
//!
//! Each schedule drives a governed Twig through the full phase walk of one
//! control epoch — PMC read, inference, learning, actuation — under a
//! [`TimingFaultPlan`] that injects phase-latency spikes, stale PMC
//! windows, actuator stalls and clock faults (jitter, backward skew, stuck
//! reads). The [`EpochScheduler`] meters every phase against its budget and
//! walks the load-shedding ladder on projected overruns: defer the
//! resumable micro-batch learning step, reuse the last validated action
//! instead of running inference, or drop to the [`SafetyGovernor`]'s safe
//! fallback. The walk itself is [`EpochScheduler::metered_epoch`].
//!
//! Invariants asserted on every schedule (a violation fails the unit, and
//! the fleet reports it without killing the suite):
//!
//! - no panic anywhere in the control loop;
//! - finite p99 and power every epoch — QoS degrades, it never explodes;
//! - **no stale actuation**: a decision is only ever computed from a fresh
//!   PMC window, and a decision the actuator gave up on is never learned
//!   from (the epoch is routed to `observe_degraded`);
//! - the ladder is monotone within an epoch and its depth is bounded by 3;
//! - the scheduler's `deadline.*` telemetry counters match its own stats
//!   (by construction: every event moves both through `SchedulerStats::bump`).
//!
//! The zero-pressure schedule additionally proves the budgeted micro-batch
//! learning path bit-identical to the monolithic `train_step`, by running a
//! twin manager and comparing full checkpoint bytes every epoch.
//!
//! Scenario outputs are deterministic in `(seed, scenario index)` — wall
//! clock never enters the text — so the report is bit-identical at
//! `--jobs 1`, `2` and `4`.

use crate::runner::{assert_exercised, suite_epochs, twin_lockstep, QosTally};
use crate::{fmt_f, run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_core::{
    ActuationDirective, EpochScheduler, GovernorConfig, InferenceDirective, LearnDirective,
    SafetyGovernor, SchedulerStats, SimClock, Twig, ACTUATE_BUDGET_MS, INFERENCE_BUDGET_MS,
    INTERVAL_MS, LEARN_BUDGET_MS, PMC_BUDGET_MS, RETRY_BUDGET, STALE_AFTER_MS,
};
use twig_rl::BudgetedProgress;
use twig_scenario::build_twig;
use twig_sim::{
    catalog, Assignment, EpochTimings, Server, ServerConfig, TimingFaultConfig, TimingFaultPlan,
};

/// What a schedule is required to demonstrate, beyond the universal
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Zero pressure: no misses, no shedding, and the budgeted learning
    /// path is bit-identical to the monolithic step (twin-manager proof).
    Clean,
    /// Learn-phase spikes push past the learn deadline: the in-flight
    /// micro-batch step is deferred and resumed in a later epoch.
    DeferLearn,
    /// PMC stalls and stale windows: inference is skipped and the last
    /// validated action reused; stale windows are counted, never decided
    /// on.
    SkipInference,
    /// Actuator stalls past the timeout: bounded retries with saturating
    /// backoff, then an explicit safe-fallback actuation.
    SafeFallback,
    /// Clock chaos (jitter, backward skew, stuck reads): the universal
    /// invariants only — every epoch still terminates.
    Survive,
    /// Everything at once: the ladder bottoms out at depth 3 and every
    /// shedding class fires somewhere.
    KitchenSink,
}

/// One timing-chaos schedule: a seeded fault mix plus its expectation.
struct Schedule {
    name: &'static str,
    timing: TimingFaultConfig,
    expect: Expect,
}

/// Phase latencies small enough that a full epoch fits comfortably inside
/// every budget — the baseline all pressure schedules build on.
fn calm() -> TimingFaultConfig {
    TimingFaultConfig {
        pmc_base_ms: 5.0,
        inference_base_ms: 10.0,
        learn_chunk_base_ms: 20.0,
        actuation_base_ms: 5.0,
        ..TimingFaultConfig::default()
    }
}

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule {
            name: "no pressure (bit-identity)",
            timing: calm(),
            expect: Expect::Clean,
        },
        Schedule {
            name: "learn overrun",
            timing: TimingFaultConfig {
                learn_spike_rate: 0.5,
                // One spiked chunk lands past the 800 ms learn deadline, so
                // the step defers mid-flight and resumes next epoch.
                learn_spike_ms: 900.0,
                ..calm()
            },
            expect: Expect::DeferLearn,
        },
        Schedule {
            name: "pmc stalls + stale windows",
            timing: TimingFaultConfig {
                // A spiked read leaves too little slack for inference
                // (705 + 150 > 800), forcing action reuse.
                pmc_spike_rate: 0.45,
                pmc_spike_ms: 700.0,
                // Stale beyond the 1000 ms bound: the window must never
                // reach the policy.
                pmc_stale_rate: 0.35,
                pmc_stale_age_ms: 1500.0,
                ..calm()
            },
            expect: Expect::SkipInference,
        },
        Schedule {
            name: "actuator stalls",
            timing: TimingFaultConfig {
                // Every attempt in a stalled epoch breaches the 80 ms
                // timeout; retries exhaust and the safe fallback actuates.
                actuation_stall_rate: 0.5,
                actuation_stall_ms: 320.0,
                ..calm()
            },
            expect: Expect::SafeFallback,
        },
        Schedule {
            name: "clock chaos",
            timing: TimingFaultConfig {
                clock_jitter_ms: 80.0,
                clock_skew_rate: 0.25,
                clock_skew_ms: 500.0,
                clock_stuck_rate: 0.25,
                ..calm()
            },
            expect: Expect::Survive,
        },
        Schedule {
            name: "kitchen sink",
            timing: TimingFaultConfig {
                pmc_spike_rate: 0.3,
                pmc_spike_ms: 700.0,
                pmc_stale_rate: 0.25,
                pmc_stale_age_ms: 1500.0,
                inference_spike_rate: 0.3,
                inference_spike_ms: 400.0,
                learn_spike_rate: 0.35,
                learn_spike_ms: 850.0,
                actuation_stall_rate: 0.35,
                actuation_stall_ms: 320.0,
                clock_jitter_ms: 40.0,
                clock_skew_rate: 0.15,
                clock_skew_ms: 400.0,
                clock_stuck_rate: 0.15,
                ..calm()
            },
            expect: Expect::KitchenSink,
        },
    ]
}

/// Ungoverned pre-roll epochs that fill the replay buffer to exactly one
/// batch (`batch_size` in [`build_twig`]) before the scheduled run starts.
const WARMUP_EPOCHS: u64 = 16;

/// Per-schedule outcome — plain counts only, so units stay `Send` and the
/// rendered report is deterministic.
#[derive(Default)]
struct Outcome {
    name: String,
    /// The scheduler's counters at the end of the run.
    stats: SchedulerStats,
    /// Learning steps completed.
    steps: u64,
    /// Epochs that reused the last validated action.
    reused: u64,
    /// Epochs whose actuation gave up and applied the safe plan.
    fallback_actuations: u64,
    qos: QosTally,
    /// `Some` only for the zero-pressure twin-manager proof.
    bit_identical: Option<bool>,
}

/// Runs one governed, scheduler-metered control loop under a timing-fault
/// schedule and asserts its expectation plus the universal invariants.
fn run_schedule(s: &Schedule, epochs: u64, seed: u64) -> Result<Outcome, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let qos: Vec<f64> = specs.iter().map(|sp| sp.qos_ms).collect();
    let cfg = ServerConfig::default();
    let mut server = Server::new(cfg.clone(), specs.clone(), seed)?;
    server.set_load_fraction(0, 0.4)?;
    server.set_load_fraction(1, 0.4)?;
    server.set_timing_plan(TimingFaultPlan::new(s.timing.clone(), seed ^ 0x7171_F0F0)?);

    let mut twig = build_twig(specs.clone(), epochs, seed, true)?;
    // Warm-up pre-roll: fill the replay buffer to one batch so the
    // budgeted learning phase is live from the first scheduled epoch
    // (governor safe-mode epochs push no transitions, so without this a
    // short run can end before training — and hence deferral — ever
    // starts).
    for _ in 0..WARMUP_EPOCHS {
        let a = twig.decide()?;
        let r = server.step(&a)?;
        twig.observe(&r)?;
    }
    let mut gov = SafetyGovernor::new(
        twig,
        GovernorConfig {
            services: specs,
            cores: cfg.cores,
            dvfs: cfg.dvfs.clone(),
            ..GovernorConfig::default()
        },
    )?;

    let mut sched = EpochScheduler::new(SimClock::new());

    let mut o = Outcome {
        name: s.name.to_string(),
        ..Outcome::default()
    };
    // Bootstrapped to the safe plan: "reuse last" always has a validated
    // action to reuse, even before the first successful decide.
    let mut last_validated: Vec<Assignment> = gov.safe_assignments();
    let mut stale_seen = 0u64;

    for _ in 0..epochs {
        let e = sched.metered_epoch(&mut server, &mut gov, &mut last_validated)?;
        // The zero-stale-actuation invariant: the policy only ever ran on a
        // fresh window, and a stale one was counted, not decided on.
        assert!(e.fresh || !e.decided, "decided on a stale PMC window");
        stale_seen += u64::from(!e.fresh);
        o.reused += u64::from(e.reused);
        o.steps += u64::from(e.steps_completed);
        o.fallback_actuations += u64::from(e.gave_up);

        assert!(e.report.power_w.is_finite(), "non-finite power reading");
        o.qos.absorb(&e.report, &qos);
        assert!(
            sched.stats().max_ladder_depth <= 3,
            "ladder depth out of range"
        );
    }

    let stats = sched.stats();
    assert_eq!(stats.epochs, epochs);
    assert_eq!(stats.stale_windows, stale_seen);
    o.stats = stats;

    match s.expect {
        Expect::Clean => unreachable!("zero-pressure runs use run_bit_identity"),
        Expect::DeferLearn => {
            assert!(stats.defer_learn_epochs > 0, "learn deferral never fired");
            assert!(o.steps > 0, "deferred steps never completed");
        }
        Expect::SkipInference => {
            assert!(
                stats.skip_inference_epochs > 0,
                "inference skip never fired"
            );
            assert!(stats.stale_windows > 0, "stale windows never injected");
            assert!(o.reused > 0, "no action was ever reused");
        }
        Expect::SafeFallback => {
            assert!(stats.safe_fallback_epochs > 0, "safe fallback never fired");
            assert!(stats.actuation_retries > 0, "no actuation retry happened");
            assert!(stats.actuation_timeouts > 0, "no actuation timeout");
            assert!(stats.misses > 0, "stalled actuations never missed");
            assert!(o.fallback_actuations > 0, "safe plan never actuated");
        }
        Expect::Survive => {}
        Expect::KitchenSink => {
            assert!(stats.stale_windows > 0, "stale windows never injected");
            assert!(stats.actuation_retries > 0, "no actuation retry happened");
            assert_eq!(stats.max_ladder_depth, 3, "ladder never bottomed out");
            assert!(
                stats.defer_learn_epochs + stats.skip_inference_epochs + stats.safe_fallback_epochs
                    > 0,
                "no shedding class ever fired"
            );
        }
    }
    Ok(o)
}

/// The zero-pressure proof: a scheduler-metered manager training through
/// budgeted micro-batches stays bit-identical (full checkpoint bytes,
/// every epoch) to a twin taking the monolithic `train_step` — and the
/// scheduler reports zero misses and zero shedding.
fn run_bit_identity(s: &Schedule, epochs: u64, seed: u64) -> Result<Outcome, ExpError> {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let qos: Vec<f64> = specs.iter().map(|sp| sp.qos_ms).collect();
    let cfg = ServerConfig::default();
    let mut server_a = Server::new(cfg.clone(), specs.clone(), seed)?;
    let mut server_b = Server::new(cfg, specs.clone(), seed)?;
    for srv in [&mut server_a, &mut server_b] {
        srv.set_load_fraction(0, 0.4)?;
        srv.set_load_fraction(1, 0.4)?;
    }
    // Base latencies only: the plan draws nothing random, so the twin
    // server without one sees an identical workload.
    server_a.set_timing_plan(TimingFaultPlan::new(s.timing.clone(), seed ^ 0x7171_F0F0)?);

    let mut twins = [
        build_twig(specs.clone(), epochs, seed, true)?,
        build_twig(specs, epochs, seed, true)?,
    ];

    let clock = SimClock::new();
    let mut sched = EpochScheduler::new(clock.clone());

    let mut o = Outcome {
        name: s.name.to_string(),
        ..Outcome::default()
    };
    let identical = twin_lockstep(
        epochs,
        &mut twins,
        Twig::checkpoint_bytes,
        |[twig_a, twig_b]| {
            let t = server_a.epoch_timings().unwrap_or_else(EpochTimings::zero);
            sched.begin_epoch();

            clock.advance(t.pmc_read_ms);
            assert!(sched.pmc_window_fresh(t.pmc_read_ms));
            assert_eq!(sched.inference_directive(), InferenceDirective::Run);
            clock.advance(t.inference_ms);
            let a_assign = twig_a.decide()?;
            let b_assign = twig_b.decide()?;

            // A: budgeted micro-batches under chunk grants. B: one monolithic
            // step at the same point in the epoch.
            loop {
                match sched.learn_directive() {
                    LearnDirective::Defer => panic!("zero-pressure schedule deferred learning"),
                    LearnDirective::Chunk => {
                        clock.advance(t.learn_chunk_ms);
                        match twig_a.agent_mut().train_step_budgeted(1)? {
                            BudgetedProgress::Done(_) => {
                                o.steps += 1;
                                break;
                            }
                            BudgetedProgress::InProgress { .. } => {}
                            BudgetedProgress::NotReady => break,
                        }
                    }
                }
            }
            let _ = twig_b.agent_mut().train_step()?;

            clock.advance(t.actuation_attempt_ms);
            assert_eq!(
                sched.actuation_attempt(t.actuation_attempt_ms),
                ActuationDirective::Applied
            );
            let ra = server_a.step(&a_assign)?;
            let rb = server_b.step(&b_assign)?;
            o.qos.absorb(&ra, &qos);

            sched.end_epoch();
            let rem = sched.remaining_ms();
            if rem > 0.0 {
                clock.advance(rem);
            }
            Ok([ra, rb])
        },
    )?;

    let stats = sched.stats();
    assert_eq!(stats.misses, 0, "zero-pressure run missed a deadline");
    assert_eq!(stats.stale_windows, 0);
    assert_eq!(
        stats.defer_learn_epochs + stats.skip_inference_epochs + stats.safe_fallback_epochs,
        0,
        "zero-pressure run shed load"
    );
    assert!(
        identical,
        "budgeted micro-batch training diverged from the monolithic step"
    );
    o.stats = stats;
    o.bit_identical = Some(identical);
    Ok(o)
}

/// Runs every timing schedule and appends the report, asserting the
/// acceptance invariants along the way.
///
/// # Errors
///
/// Returns an error naming every failed (errored or panicked) schedule.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let epochs = suite_epochs(opts, 30, 50);
    writeln!(
        out,
        "Timing suite: {} schedules x {epochs} epochs, interval {:.0} ms (budgets: pmc {:.0} / inference {:.0} / learn {:.0} / actuate {:.0} ms, stale after {:.0} ms, {} actuation retries)\n",
        schedules().len(),
        INTERVAL_MS,
        PMC_BUDGET_MS,
        INFERENCE_BUDGET_MS,
        LEARN_BUDGET_MS,
        ACTUATE_BUDGET_MS,
        STALE_AFTER_MS,
        RETRY_BUDGET.max_retries,
    )?;

    let scheds = schedules();
    let units: Vec<Unit<'_, Outcome>> = scheds
        .iter()
        .map(|s| {
            Unit::new(format!("timing:{}", s.name), move |seed| match s.expect {
                Expect::Clean => run_bit_identity(s, epochs, seed),
                _ => run_schedule(s, epochs, seed),
            })
        })
        .collect();
    let reports = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "schedule",
        "epochs",
        "misses",
        "stale",
        "defer",
        "skip inf",
        "safe fb",
        "retries",
        "chunks",
        "steps",
        "ladder",
        "qos %",
        "mean p99 ms",
    ]);
    for r in &reports {
        let s = &r.stats;
        t.row(vec![
            r.name.clone(),
            s.epochs.to_string(),
            s.misses.to_string(),
            s.stale_windows.to_string(),
            s.defer_learn_epochs.to_string(),
            s.skip_inference_epochs.to_string(),
            s.safe_fallback_epochs.to_string(),
            s.actuation_retries.to_string(),
            s.learn_chunks.to_string(),
            r.steps.to_string(),
            s.max_ladder_depth.to_string(),
            fmt_f(r.qos.pct(), 1),
            fmt_f(r.qos.mean_p99(), 3),
        ]);
    }
    writeln!(out, "{t}")?;

    let misses: u64 = reports.iter().map(|r| r.stats.misses).sum();
    let stale: u64 = reports.iter().map(|r| r.stats.stale_windows).sum();
    let retries: u64 = reports.iter().map(|r| r.stats.actuation_retries).sum();
    let defers: u64 = reports.iter().map(|r| r.stats.defer_learn_epochs).sum();
    let fallbacks: u64 = reports.iter().map(|r| r.fallback_actuations).sum();
    let reused: u64 = reports.iter().map(|r| r.reused).sum();
    assert_exercised(&[
        (misses, "deadline miss"),
        (stale, "stale window"),
        (retries, "actuation retry"),
        (defers, "learn deferral"),
        (fallbacks, "safe-fallback actuation"),
    ]);
    let bit = reports
        .iter()
        .find_map(|r| r.bit_identical)
        .expect("bit-identity schedule present");
    assert!(bit);
    writeln!(
        out,
        "invariants held across all schedules: no panic, finite observables every epoch, ladder depth <= 3, zero actuations from stale PMC windows."
    )?;
    writeln!(
        out,
        "exercised: {misses} deadline misses, {stale} stale windows, {retries} actuation retries, {defers} learn deferrals, {fallbacks} safe-fallback actuations, {reused} action reuses."
    )?;
    writeln!(
        out,
        "budgeted micro-batch training bit-identical to the monolithic step under zero pressure: {bit}."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pressure_schedule_proves_bit_identity() {
        let scheds = schedules();
        let s = scheds
            .iter()
            .find(|s| s.expect == Expect::Clean)
            .expect("clean schedule");
        let o = run_bit_identity(s, 24, 7).unwrap();
        assert_eq!(o.bit_identical, Some(true));
        assert_eq!(o.stats.misses, 0);
        assert!(o.steps > 0, "the proof never actually trained");
    }

    #[test]
    fn actuator_stalls_fall_back_safely() {
        let scheds = schedules();
        let s = scheds
            .iter()
            .find(|s| s.expect == Expect::SafeFallback)
            .expect("safe-fallback schedule");
        // run_schedule asserts the expectation internally; this pins the
        // counters that make it meaningful.
        let o = run_schedule(s, 40, 11).unwrap();
        let stats = o.stats;
        assert!(stats.safe_fallback_epochs > 0);
        assert!(stats.actuation_retries > 0 && stats.actuation_timeouts > 0);
        assert!(o.fallback_actuations > 0);
    }
}
