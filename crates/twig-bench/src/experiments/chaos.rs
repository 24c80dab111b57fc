//! Chaos suite — seeded crash/restart/corruption schedules against the
//! checkpointing subsystem. Not a paper figure.
//!
//! Each schedule drives a governed Twig in segments, checkpointing through
//! a [`StoreFaultPlan`] that corrupts payloads on the way to the
//! [`CheckpointStore`](twig_core::CheckpointStore) (torn writes, bit
//! flips, truncation, stale generations). At every segment boundary the
//! manager "crashes": it is dropped, rebuilt cold, and sent up the
//! recovery ladder ([`recover`]) while the simulated server keeps serving
//! load. One additional schedule
//! exercises per-agent quarantine at the [`MaBdq`] level with a poisoned
//! reward stream.
//!
//! Invariants asserted on every schedule (a violation fails the unit, and
//! the fleet reports it without killing the suite):
//!
//! - no panic anywhere in the control loop;
//! - no NaN actuation or observation (finite p99/power every epoch,
//!   finite Q-values at every segment boundary);
//! - the recovery ladder is bounded by the store's retained generations,
//!   and a failed climb is an **explicit** cold start, never a
//!   half-restored manager;
//! - a quarantined agent is re-admitted after its probation window.
//!
//! Scenario outputs are deterministic in `(seed, scenario index)` — wall
//! clock never enters the text — so the report is bit-identical at
//! `--jobs 1`, `2` and `4`.

use crate::runner::{assert_exercised, suite_epochs};
use crate::{make_twig, run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_core::{
    recover, GovernorConfig, RecoveryOutcome, RecoveryStats, SafetyGovernor, ScratchStore,
    TaskManager,
};
use twig_rl::{MaBdq, MaBdqConfig, MultiTransition, QuarantineConfig, QuarantineStats};
use twig_sim::{
    catalog, Server, ServerConfig, StoreFaultConfig, StoreFaultKind, StoreFaultPlan, NUM_COUNTERS,
};
use twig_stats::rng::{Rng, Xoshiro256};
use twig_telemetry::Telemetry;

/// Checkpoint generations the store retains (and the ladder-depth bound).
const KEEP: usize = 3;
/// Epochs between checkpoint writes.
const WRITE_EVERY: u64 = 5;
/// Run segments per schedule (crash/restart between consecutive ones).
const SEGMENTS: u64 = 3;

/// What a schedule is required to demonstrate, beyond the universal
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Every recovery restores the newest generation (ladder depth 0).
    CleanRestore,
    /// Every recovery falls back past the (deterministically torn) newest
    /// generation and restores an older one.
    FallbackRestore,
    /// Recovered or explicit cold start — the universal invariants only.
    AnyRecovery,
    /// Every generation is corrupt: every recovery must be an explicit
    /// cold start.
    ColdStart,
}

struct Schedule {
    name: &'static str,
    fault: StoreFaultConfig,
    /// Deterministically tear the final pre-crash checkpoint (the
    /// canonical crash-mid-write), guaranteeing a generation fallback.
    tear_final_write: bool,
    expect: Expect,
}

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule {
            name: "clean restart",
            fault: StoreFaultConfig::default(),
            tear_final_write: false,
            expect: Expect::CleanRestore,
        },
        Schedule {
            name: "torn final write",
            fault: StoreFaultConfig::default(),
            tear_final_write: true,
            expect: Expect::FallbackRestore,
        },
        Schedule {
            name: "random bit flips",
            fault: StoreFaultConfig {
                bit_flip_rate: 0.45,
                ..StoreFaultConfig::default()
            },
            tear_final_write: false,
            expect: Expect::AnyRecovery,
        },
        Schedule {
            name: "truncation + stale generations",
            fault: StoreFaultConfig {
                truncate_rate: 0.4,
                stale_rate: 0.4,
                ..StoreFaultConfig::default()
            },
            tear_final_write: false,
            expect: Expect::AnyRecovery,
        },
        Schedule {
            name: "total corruption",
            fault: StoreFaultConfig {
                bit_flip_rate: 1.0,
                ..StoreFaultConfig::default()
            },
            tear_final_write: false,
            expect: Expect::ColdStart,
        },
    ]
}

/// Everything one schedule demonstrated, aggregated for the report table.
/// Plain counts only (no telemetry handle): scenario units run on fleet
/// worker threads and the result must be `Send`.
#[derive(Default)]
struct ScenarioReport {
    /// Schedule name.
    name: String,
    /// Decision epochs driven across all segments.
    epochs: u64,
    /// Checkpoint generations that landed on disk.
    writes: u64,
    /// Written generations the fault plan corrupted first.
    corrupted_writes: u64,
    /// Writes silently dropped (stale-generation faults).
    stale_drops: u64,
    /// Restores that had to fall back past at least one corrupt generation.
    fallback_restores: u64,
    /// Deepest ladder rung any recovery reached.
    max_ladder_depth: usize,
    /// The recovery ladder's rungs, summed over every recovery: `loads`
    /// restores and `cold_starts` explicit cold starts.
    recovery: RecoveryStats,
    /// The learner's quarantine counters (quarantine schedule only).
    quarantine: QuarantineStats,
}

/// Runs one crash/restart/corruption schedule and scores it.
///
/// # Errors
///
/// Propagates manager, simulator and store errors; invariant violations
/// panic (the fleet reports a panicking unit as failed).
fn run_store_schedule(
    schedule: &Schedule,
    epochs_per_seg: u64,
    seed: u64,
) -> Result<ScenarioReport, ExpError> {
    let spec = catalog::masstree();
    let cfg = ServerConfig::default();
    let store = ScratchStore::create("chaos", KEEP)?;
    let mut plan = StoreFaultPlan::new(schedule.fault.clone(), seed ^ 0xC4A0_5EED)?;

    // The environment outlives every crash: only the manager restarts.
    let mut server = Server::new(cfg.clone(), vec![spec.clone()], seed)?;
    server.set_load_fraction(0, 0.5)?;

    let learn = SEGMENTS * epochs_per_seg;
    let probe = vec![vec![0.5_f32; NUM_COUNTERS]];
    let mut report = ScenarioReport {
        name: schedule.name.to_string(),
        ..ScenarioReport::default()
    };

    let mut checkpoint =
        |twig: &twig_core::Twig, tear: bool, report: &mut ScenarioReport| -> Result<(), ExpError> {
            let mut bytes = twig.checkpoint_bytes();
            if tear {
                // Crash mid-write: only a prefix of the final checkpoint lands.
                bytes.truncate((bytes.len() / 3).max(1));
                store.write(&bytes)?;
                report.writes += 1;
                report.corrupted_writes += 1;
                return Ok(());
            }
            match plan.corrupt_write(&mut bytes) {
                Some(StoreFaultKind::Stale) => report.stale_drops += 1,
                kind => {
                    if kind.is_some() {
                        report.corrupted_writes += 1;
                    }
                    store.write(&bytes)?;
                    report.writes += 1;
                }
            }
            Ok(())
        };

    for segment in 0..SEGMENTS {
        // Crash boundary: the previous manager is gone; a cold replacement
        // climbs the recovery ladder before taking over.
        let mut twig = make_twig(vec![spec.clone()], learn, seed ^ segment)?;
        if segment > 0 {
            let rec = recover(&store, &mut twig, &Telemetry::disabled());
            assert!(
                rec.ladder_depth <= KEEP,
                "{}: ladder depth {} exceeds the {KEEP} retained generations",
                schedule.name,
                rec.ladder_depth
            );
            if let RecoveryOutcome::Restored { generation } = rec.outcome {
                report.fallback_restores += u64::from(generation >= 1);
            }
            report.max_ladder_depth = report.max_ladder_depth.max(rec.ladder_depth);
            report.recovery.add(&rec.stats, &Telemetry::disabled());
        }
        let mut gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: vec![spec.clone()],
                cores: cfg.cores,
                dvfs: cfg.dvfs.clone(),
                ..GovernorConfig::default()
            },
        )?;

        for epoch in 0..epochs_per_seg {
            let assignments = gov.decide()?;
            assert_eq!(assignments.len(), 1, "{}: assignment shape", schedule.name);
            assert!(
                (1..=cfg.cores).contains(&assignments[0].core_count()),
                "{}: invalid core count actuated",
                schedule.name
            );
            let r = server.step(&assignments)?;
            assert!(
                r.services[0].p99_ms.is_finite() && r.power_w.is_finite(),
                "{}: non-finite observation",
                schedule.name
            );
            gov.observe(&r)?;
            report.epochs += 1;
            let last = epoch + 1 == epochs_per_seg;
            if (epoch + 1).is_multiple_of(WRITE_EVERY) && !last {
                checkpoint(gov.inner(), false, &mut report)?;
            }
            if last {
                checkpoint(gov.inner(), schedule.tear_final_write, &mut report)?;
            }
        }

        // The policy survived the segment with finite Q-values.
        let q = gov.inner().agent().clone().q_values(&probe)?;
        assert!(
            q.iter().flatten().flatten().all(|v| v.is_finite()),
            "{}: non-finite Q-values after segment {segment}",
            schedule.name
        );
    }

    let recoveries = SEGMENTS - 1;
    let RecoveryStats {
        loads, cold_starts, ..
    } = report.recovery;
    match schedule.expect {
        Expect::CleanRestore => assert_eq!(
            (loads, report.max_ladder_depth),
            (recoveries, 0),
            "{}: expected depth-0 restores only",
            schedule.name
        ),
        Expect::FallbackRestore => assert!(
            loads == recoveries && report.fallback_restores == recoveries,
            "{}: every recovery must fall back past the torn generation",
            schedule.name
        ),
        Expect::AnyRecovery => assert_eq!(
            loads + cold_starts,
            recoveries,
            "{}: every crash must end restored or explicitly cold",
            schedule.name
        ),
        Expect::ColdStart => assert_eq!(
            cold_starts, recoveries,
            "{}: all-corrupt store must cold-start every recovery",
            schedule.name
        ),
    }
    Ok(report)
}

/// Runs the quarantine schedule: a two-agent MaBdq, one agent fed a
/// poisoned reward stream mid-run. The divergence detector must trip,
/// contain the damage to that agent, and re-admit it after probation.
///
/// # Errors
///
/// Propagates learner errors; invariant violations panic.
fn run_quarantine_schedule(seed: u64, steps_scale: u64) -> Result<ScenarioReport, ExpError> {
    let quarantine = QuarantineConfig {
        trip_multiple: 6.0,
        warmup_steps: 20,
        probation_steps: 40,
        snapshot_every: 5,
        ..QuarantineConfig::default()
    }
    .armed();
    let config = MaBdqConfig {
        agents: 2,
        state_dim: 4,
        branches: vec![4, 3],
        trunk_hidden: vec![16, 12],
        head_hidden: 8,
        dropout: 0.0,
        batch_size: 8,
        buffer_capacity: 512,
        seed,
        quarantine,
        ..MaBdqConfig::default()
    };
    let mut agent = MaBdq::new(config)?;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x000A_11CE);
    let transition = |poison: bool, rng: &mut Xoshiro256| MultiTransition {
        states: (0..2)
            .map(|_| (0..4).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect())
            .collect(),
        actions: vec![vec![rng.range_usize(0, 4), rng.range_usize(0, 3)]; 2],
        rewards: if poison {
            vec![1.0e30, 0.1]
        } else {
            vec![0.1, 0.1]
        },
        next_states: (0..2)
            .map(|_| (0..4).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect())
            .collect(),
    };

    let warmup = steps_scale;
    for _ in 0..warmup {
        agent.observe(transition(false, &mut rng))?;
        let _ = agent.train_step()?;
    }
    // Poison agent 0's reward stream: its TD errors explode past any
    // baseline while agent 1 stays sane. The detector trips on the first
    // step that samples a poisoned transition, and how soon that is depends
    // on the buffer: a new transition enters at the running maximum
    // priority, one leaf against the summed priorities of everything the
    // warm-up left behind, so the wait grows with `steps_scale` (a 240-step
    // warm-up has needed up to nine steps). Four steps are always taken;
    // after that the stream stays poisoned until the trip, for at most as
    // long as the warm-up lasted.
    let mut poisoned = 0;
    while poisoned < 4 || (agent.quarantine_stats().trips == 0 && poisoned < warmup) {
        agent.observe(transition(true, &mut rng))?;
        let _ = agent.train_step()?;
        poisoned += 1;
    }
    let mid = agent.quarantine_stats();
    assert!(mid.trips >= 1, "poisoned agent never tripped quarantine");
    assert_eq!(mid.frozen_agents, 1, "exactly one agent must be frozen");

    // The other agent keeps training through the probation window, and the
    // frozen one comes back once it expires.
    for _ in 0..steps_scale + 60 {
        agent.observe(transition(false, &mut rng))?;
        let _ = agent.train_step()?;
    }
    // No end-state freeze assert: the poisoned transitions stay in the PER
    // buffer with enormous priority, so the agent may legitimately re-trip
    // after re-admission. The contract is trip + re-admission, not amnesty.
    let end = agent.quarantine_stats();
    assert!(end.readmissions >= 1, "quarantined agent never re-admitted");
    let probe: Vec<Vec<f32>> = vec![vec![0.25; 4]; 2];
    let q = agent.q_values(&probe)?;
    assert!(
        q.iter().flatten().flatten().all(|v| v.is_finite()),
        "policy not finite after quarantine round-trip"
    );
    Ok(ScenarioReport {
        name: "agent quarantine".to_string(),
        epochs: warmup + poisoned + steps_scale + 60,
        quarantine: end,
        ..ScenarioReport::default()
    })
}

/// Runs every chaos schedule and appends the report, asserting the
/// acceptance invariants along the way.
///
/// # Errors
///
/// Returns an error naming every failed (errored or panicked) schedule.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let per_seg = suite_epochs(opts, 30, 50);
    writeln!(
        out,
        "Chaos suite: {SEGMENTS} segments x {per_seg} epochs per schedule, checkpoint every {WRITE_EVERY} epochs, {KEEP} generations retained, crash/restart at every segment boundary\n"
    )?;

    let scheds = schedules();
    let mut units: Vec<Unit<'_, ScenarioReport>> = scheds
        .iter()
        .map(|s| {
            Unit::new(format!("chaos:{}", s.name), move |seed| {
                run_store_schedule(s, per_seg, seed)
            })
        })
        .collect();
    units.push(Unit::new("chaos:agent quarantine", move |seed| {
        run_quarantine_schedule(seed, 2 * per_seg)
    }));

    let reports = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "schedule",
        "epochs",
        "writes",
        "corrupted",
        "stale drops",
        "restored",
        "fallbacks",
        "cold starts",
        "max ladder",
        "q-trips",
        "q-readmits",
    ]);
    for r in &reports {
        t.row(vec![
            r.name.clone(),
            r.epochs.to_string(),
            r.writes.to_string(),
            r.corrupted_writes.to_string(),
            r.stale_drops.to_string(),
            r.recovery.loads.to_string(),
            r.fallback_restores.to_string(),
            r.recovery.cold_starts.to_string(),
            r.max_ladder_depth.to_string(),
            r.quarantine.trips.to_string(),
            r.quarantine.readmissions.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;

    let mut recovery = RecoveryStats::default();
    for r in &reports {
        recovery.add(&r.recovery, &Telemetry::disabled());
    }
    let fallbacks: u64 = reports.iter().map(|r| r.fallback_restores).sum();
    let corrupted: u64 = reports.iter().map(|r| r.corrupted_writes).sum();
    let trips: u64 = reports.iter().map(|r| r.quarantine.trips).sum();
    let readmits: u64 = reports.iter().map(|r| r.quarantine.readmissions).sum();
    assert_exercised(&[
        (corrupted, "corrupted write"),
        (fallbacks, "generation fallback"),
        (recovery.cold_starts, "cold start"),
        (trips, "quarantine trip"),
        (readmits, "quarantine re-admission"),
    ]);
    writeln!(
        out,
        "invariants held across all schedules: no panic, no NaN actuation, ladder depth <= {KEEP}, every crash restored or explicitly cold."
    )?;
    writeln!(
        out,
        "exercised: {corrupted} corrupted writes, {} ladder restores ({fallbacks} via generation fallback), {} cold starts, {trips} quarantine trips / {readmits} re-admissions.",
        recovery.loads, recovery.cold_starts
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_final_write_forces_generation_fallback() {
        let s = &schedules()[1];
        assert!(s.tear_final_write);
        let r = run_store_schedule(s, 20, 7).unwrap();
        // One torn generation skipped per climb, then a restore.
        let climbs = RecoveryStats {
            loads: SEGMENTS - 1,
            corrupt: SEGMENTS - 1,
            cold_starts: 0,
        };
        assert_eq!(r.recovery, climbs);
        assert_eq!(r.fallback_restores, SEGMENTS - 1);
    }

    #[test]
    fn total_corruption_always_cold_starts() {
        let s = schedules().into_iter().last().unwrap();
        assert_eq!(s.expect, Expect::ColdStart);
        let r = run_store_schedule(&s, 20, 11).unwrap();
        assert_eq!(r.recovery.cold_starts, SEGMENTS - 1);
        assert_eq!(r.recovery.loads, 0);
        assert_eq!(r.corrupted_writes, r.writes);
    }

    #[test]
    fn quarantine_schedule_trips_and_readmits() {
        let r = run_quarantine_schedule(3, 40).unwrap();
        assert!(r.quarantine.trips >= 1);
        assert!(r.quarantine.readmissions >= 1);
    }

    #[test]
    fn quarantine_schedule_trips_and_readmits_at_full_scale() {
        // `--full` warms up for 2 x 120 steps; the poison then waits longer
        // to be sampled than the four steps the faster scales need.
        let mut beyond_four = 0;
        for seed in [3, 42, 7, 777] {
            let r = run_quarantine_schedule(seed, 240).unwrap();
            assert!(r.quarantine.trips >= 1, "seed {seed}");
            assert!(r.quarantine.readmissions >= 1, "seed {seed}");
            beyond_four += u64::from(r.epochs > 240 + 4 + 240 + 60);
        }
        assert!(beyond_four >= 2, "seeds 42 and 7 need more than four steps");
    }
}
