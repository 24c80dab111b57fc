//! Cluster chaos suite — seeded fleet-level failure schedules against the
//! Twig-D control plane. Not a paper figure.
//!
//! Each schedule boots the same heterogeneous four-node fleet (three
//! 18-core sockets, one 12-core socket with a shorter DVFS ladder) running
//! three colocated services at replication factor two, then drives it
//! through a scripted-plus-rate [`ClusterFaultPlan`]: whole-server
//! crashes, coordinator blackouts, node partitions, migration stalls and
//! corrupted state transfers.
//!
//! Invariants asserted on **every** schedule (a violation fails the unit,
//! and the fleet reports it without killing the suite):
//!
//! - request conservation every epoch — nothing dropped or double-routed
//!   at the balancer, the pending backlog absorbs what cannot be placed;
//! - bounded failover — every crash-to-suspicion latency is at most the
//!   heartbeat suspicion threshold;
//! - zero stale-placement actuations — a coordinator-reachable node never
//!   actuates from an outdated placement generation;
//! - the `cluster.*` telemetry counters equal the [`ClusterStats`]
//!   lifetime counters (by construction: `Cluster::step` folds each
//!   epoch's delta in through `ClusterStats::add`, which mirrors it).
//!
//! Scenario outputs are deterministic in `(seed, scenario index)` — wall
//! clock never enters the text — so the report is bit-identical at
//! `--jobs 1`, `2` and `4`.

use crate::runner::{
    assert_exercised, suite_cluster_config, suite_epochs, REPLICATION, SUSPECT_AFTER,
};
use crate::{run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_cluster::{
    Cluster, ClusterEvent, ClusterFaultConfig, ClusterFaultPlan, ClusterStats, ScriptedEvent,
};
use twig_core::NodeId;
use twig_telemetry::Telemetry;

/// What a schedule is required to demonstrate beyond the universal
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// No faults: full routing, no bounces, no failovers, no repairs.
    Calm,
    /// One scripted crash + reboot of this node: bounded failover, a
    /// restored **and** a cold-fallback repair (the replacements span an
    /// 18-core and a 12-core target), replication restored.
    CrashFailover {
        /// The crashed node.
        node: usize,
    },
    /// Every delivered transfer payload corrupted: the CRC catches each
    /// one, every migration walks the full rollback/backoff ladder and
    /// downgrades to a cold start that still lands the replica.
    CorruptStorm {
        /// Scripted migrations in the schedule.
        migrations: u64,
    },
    /// Every transfer epoch stalls: the stall timeout rolls back
    /// half-transferred state, retries under saturating backoff, and the
    /// exhausted migration downgrades to cold.
    StallRollback,
    /// Coordinator blackout with a mid-blackout crash: the balancer
    /// fails over on its own channel, every live node serves
    /// autonomously, the placement generation freezes until recovery,
    /// and repairs land after the blackout lifts.
    Blackout {
        /// Scripted blackout length, epochs.
        window: u64,
    },
    /// Scripted partition plus background rate chaos: universal
    /// invariants under everything at once.
    KitchenSink {
        /// Scripted partition length, epochs (lower bound on the
        /// partition/autonomy counters).
        window: u64,
    },
}

struct Schedule {
    name: &'static str,
    faults: ClusterFaultConfig,
    expect: Expect,
}

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule {
            name: "calm fleet",
            faults: ClusterFaultConfig::default(),
            expect: Expect::Calm,
        },
        Schedule {
            name: "crash + failover",
            faults: ClusterFaultConfig {
                scripted: vec![
                    ScriptedEvent {
                        epoch: 12,
                        event: ClusterEvent::Crash { node: 0 },
                    },
                    ScriptedEvent {
                        epoch: 30,
                        event: ClusterEvent::Restart { node: 0 },
                    },
                ],
                ..ClusterFaultConfig::default()
            },
            expect: Expect::CrashFailover { node: 0 },
        },
        Schedule {
            name: "corrupt transfer storm",
            faults: ClusterFaultConfig {
                migration_corrupt_rate: 1.0,
                scripted: vec![
                    // 18-core -> 18-core and 18-core -> 12-core planned
                    // moves; with every delivery corrupted both must walk
                    // the retry ladder down to a cold landing.
                    ScriptedEvent {
                        epoch: 5,
                        event: ClusterEvent::Migrate {
                            service: 1,
                            from: 2,
                            to: 0,
                        },
                    },
                    ScriptedEvent {
                        epoch: 6,
                        event: ClusterEvent::Migrate {
                            service: 0,
                            from: 0,
                            to: 3,
                        },
                    },
                ],
                ..ClusterFaultConfig::default()
            },
            expect: Expect::CorruptStorm { migrations: 2 },
        },
        Schedule {
            name: "stall + rollback",
            faults: ClusterFaultConfig {
                migration_stall_rate: 1.0,
                scripted: vec![ScriptedEvent {
                    epoch: 5,
                    event: ClusterEvent::Migrate {
                        service: 1,
                        from: 2,
                        to: 0,
                    },
                }],
                ..ClusterFaultConfig::default()
            },
            expect: Expect::StallRollback,
        },
        Schedule {
            name: "coordinator blackout",
            faults: ClusterFaultConfig {
                scripted: vec![
                    ScriptedEvent {
                        epoch: 8,
                        event: ClusterEvent::Blackout { epochs: 12 },
                    },
                    // Crash while the coordinator is dark: the balancer
                    // must fail over alone; repairs wait for recovery.
                    ScriptedEvent {
                        epoch: 10,
                        event: ClusterEvent::Crash { node: 1 },
                    },
                ],
                ..ClusterFaultConfig::default()
            },
            expect: Expect::Blackout { window: 12 },
        },
        Schedule {
            name: "partition + kitchen sink",
            faults: ClusterFaultConfig {
                crash_rate: 0.01,
                restart_after_epochs: 8,
                heartbeat_loss_rate: 0.04,
                partition_rate: 0.015,
                partition_epochs: 3,
                blackout_rate: 0.008,
                blackout_epochs: 3,
                migration_stall_rate: 0.3,
                migration_corrupt_rate: 0.3,
                scripted: vec![ScriptedEvent {
                    epoch: 5,
                    event: ClusterEvent::Partition { node: 1, epochs: 6 },
                }],
            },
            expect: Expect::KitchenSink { window: 6 },
        },
    ]
}

/// Everything one schedule demonstrated, aggregated for the report table.
/// Plain counts only: scenario units run on fleet worker threads and the
/// result must be `Send`.
struct ScenarioReport {
    /// Schedule name.
    name: String,
    /// Final lifetime control-plane counters.
    stats: ClusterStats,
    /// Worst crash-to-suspicion latency observed (epochs; 0 if none).
    max_failover_latency: u64,
}

/// Runs one fleet-failure schedule and scores it.
///
/// # Errors
///
/// Propagates cluster errors; invariant violations panic (the fleet
/// reports a panicking unit as failed).
fn run_schedule(schedule: &Schedule, epochs: u64, seed: u64) -> Result<ScenarioReport, ExpError> {
    let mut cluster = Cluster::new(
        suite_cluster_config(epochs, seed),
        ClusterFaultPlan::new(schedule.faults.clone(), seed ^ 0x00C1_05E5)?,
        Telemetry::disabled(),
    )?;
    let boot_generation = cluster.placement().generation();

    let mut generations = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let r = cluster.step()?;
        assert!(
            r.conserved,
            "{}: epoch {} dropped or double-routed requests",
            schedule.name, r.epoch
        );
        assert!(r.live_nodes > 0, "{}: the whole fleet died", schedule.name);
        generations.push(r.placement_generation);
    }

    let stats = *cluster.stats();

    // Universal invariants.
    assert_eq!(
        stats.conservation_failures, 0,
        "{}: balancer books did not balance",
        schedule.name
    );
    assert_eq!(
        stats.double_route_guards, 0,
        "{}: placement handed the balancer duplicate replicas",
        schedule.name
    );
    assert_eq!(
        stats.stale_actuations, 0,
        "{}: a reachable node actuated from a stale placement",
        schedule.name
    );
    let max_failover_latency = cluster
        .failover_latencies()
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    assert!(
        max_failover_latency <= u64::from(SUSPECT_AFTER),
        "{}: failover took {max_failover_latency} epochs (threshold {SUSPECT_AFTER})",
        schedule.name
    );

    // Schedule-specific expectations.
    match schedule.expect {
        Expect::Calm => {
            assert_eq!(
                stats.crashes + stats.failovers + stats.restarts,
                0,
                "calm fleet faulted"
            );
            assert_eq!(
                stats.bounced_rps + stats.deferred_rps,
                0,
                "calm fleet rerouted"
            );
            assert_eq!(
                cluster.backlog().iter().sum::<u64>(),
                0,
                "calm fleet left a backlog"
            );
            assert_eq!(
                stats.spinups,
                (REPLICATION * 3) as u64,
                "calm fleet repaired beyond bootstrap"
            );
        }
        Expect::CrashFailover { node } => {
            assert_eq!(stats.crashes, 1, "{}: crash count", schedule.name);
            assert_eq!(stats.restarts, 1, "{}: restart count", schedule.name);
            assert_eq!(stats.failovers, 1, "{}: failover count", schedule.name);
            assert!(
                stats.bounced_rps > 0,
                "{}: pre-suspicion bounce",
                schedule.name
            );
            assert!(
                stats.activations_restored >= 1,
                "{}: no repair restored donor state",
                schedule.name
            );
            assert!(
                stats.activations_cold_fallback >= 1,
                "{}: the 12-core repair must cold-fallback",
                schedule.name
            );
            let placement = cluster.placement();
            for s in 0..3 {
                assert_eq!(
                    placement.replicas(s).len(),
                    REPLICATION,
                    "{}: replication not restored for service {s}",
                    schedule.name
                );
                assert!(
                    !placement.hosts(s, NodeId(node)),
                    "{}: repaired replica left on the crashed node",
                    schedule.name
                );
            }
        }
        Expect::CorruptStorm { migrations } => {
            assert_eq!(stats.migrations_started, migrations);
            assert_eq!(
                stats.migrations_completed, migrations,
                "{}: every migration must still land",
                schedule.name
            );
            assert!(
                stats.transfer_corruptions >= migrations,
                "{}: corruption never fired",
                schedule.name
            );
            assert!(
                stats.transfer_rollbacks >= stats.transfer_corruptions,
                "{}: every corruption must roll back",
                schedule.name
            );
            assert_eq!(
                stats.transfer_downgrades, migrations,
                "{}: exhausted retries must downgrade to cold",
                schedule.name
            );
            assert_eq!(
                stats.activations_restored, 0,
                "{}: nothing restorable",
                schedule.name
            );
            let placement = cluster.placement();
            assert!(placement.hosts(1, NodeId(0)) && !placement.hosts(1, NodeId(2)));
            assert!(placement.hosts(0, NodeId(3)) && !placement.hosts(0, NodeId(0)));
        }
        Expect::StallRollback => {
            assert!(stats.transfer_stalls >= 9, "{}: stall count", schedule.name);
            assert!(
                stats.transfer_rollbacks >= 3,
                "{}: each timeout must discard half-transferred state",
                schedule.name
            );
            assert_eq!(stats.transfer_downgrades, 1, "{}: downgrade", schedule.name);
            assert_eq!(
                stats.migrations_completed, 1,
                "{}: the migration must land cold",
                schedule.name
            );
            assert!(cluster.placement().hosts(1, NodeId(0)));
        }
        Expect::Blackout { window } => {
            assert_eq!(
                stats.blackout_epochs, window,
                "{}: blackout length",
                schedule.name
            );
            assert!(
                stats.autonomous_epochs >= window,
                "{}: nodes must serve autonomously through the blackout",
                schedule.name
            );
            assert_eq!(
                stats.failovers, 1,
                "{}: the balancer must fail over without the coordinator",
                schedule.name
            );
            // The placement generation froze while the coordinator was
            // dark (epochs are 1-based; index = epoch - 1).
            let frozen = &generations[8..20.min(generations.len())];
            assert!(
                frozen.windows(2).all(|w| w[0] == w[1]),
                "{}: placement mutated during the blackout",
                schedule.name
            );
            // Repairs landed after recovery.
            assert!(
                cluster.placement().generation() > boot_generation,
                "{}: no repair after the blackout lifted",
                schedule.name
            );
            for s in 0..3 {
                assert_eq!(cluster.placement().replicas(s).len(), REPLICATION);
            }
        }
        Expect::KitchenSink { window } => {
            assert!(
                stats.partition_node_epochs >= window,
                "{}: scripted partition not recorded",
                schedule.name
            );
            // No autonomy floor here: a background crash may kill the
            // scripted-partition node mid-window for some seeds. The
            // blackout schedule asserts autonomy deterministically.
        }
    }

    Ok(ScenarioReport {
        name: schedule.name.to_string(),
        stats,
        max_failover_latency,
    })
}

/// Runs every cluster-chaos schedule and appends the report, asserting
/// the acceptance invariants along the way.
///
/// # Errors
///
/// Returns an error naming every failed (errored or panicked) schedule.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let epochs = suite_epochs(opts, 45, 70);
    writeln!(
        out,
        "Cluster chaos suite: 4 heterogeneous nodes (3x18-core, 1x12-core), 3 services, replication {REPLICATION}, {epochs} epochs per schedule, heartbeat suspicion after {SUSPECT_AFTER} misses\n"
    )?;

    let scheds = schedules();
    let units: Vec<Unit<'_, ScenarioReport>> = scheds
        .iter()
        .map(|s| {
            Unit::new(format!("cluster:{}", s.name), move |seed| {
                run_schedule(s, epochs, seed)
            })
        })
        .collect();
    let reports = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "schedule",
        "routed",
        "bounced",
        "deferred",
        "failovers",
        "max fo",
        "crashes",
        "migr done",
        "stalls",
        "rollbacks",
        "downgrades",
        "autonomous",
        "stale",
    ]);
    for r in &reports {
        t.row(vec![
            r.name.clone(),
            r.stats.routed_rps.to_string(),
            r.stats.bounced_rps.to_string(),
            r.stats.deferred_rps.to_string(),
            r.stats.failovers.to_string(),
            r.max_failover_latency.to_string(),
            r.stats.crashes.to_string(),
            r.stats.migrations_completed.to_string(),
            r.stats.transfer_stalls.to_string(),
            r.stats.transfer_rollbacks.to_string(),
            r.stats.transfer_downgrades.to_string(),
            r.stats.autonomous_epochs.to_string(),
            r.stats.stale_actuations.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;

    let mut all = ClusterStats::default();
    for r in &reports {
        all.add(&r.stats, &Telemetry::disabled());
    }
    assert_exercised(&[
        (all.crashes, "server crash"),
        (all.failovers, "failover"),
        (all.transfer_rollbacks, "transfer rollback"),
        (all.transfer_corruptions, "corrupt transfer"),
        (all.blackout_epochs, "coordinator blackout"),
        (all.partition_node_epochs, "partition"),
        (all.autonomous_epochs, "autonomous serving"),
    ]);
    writeln!(
        out,
        "invariants held across all schedules: every request conserved, failover within {SUSPECT_AFTER} epochs, zero stale actuations, cluster.* telemetry == ClusterStats."
    )?;
    writeln!(
        out,
        "exercised: {} crashes / {} failovers, {} corrupt transfers, {} rollbacks, {} blackout epochs, {} partition node-epochs, {} autonomous node-epochs.",
        all.crashes,
        all.failovers,
        all.transfer_corruptions,
        all.transfer_rollbacks,
        all.blackout_epochs,
        all.partition_node_epochs,
        all.autonomous_epochs,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_schedule_routes_everything() {
        // run_schedule also asserts the calm fleet leaves no backlog.
        let r = run_schedule(&schedules()[0], 20, 42).unwrap();
        assert_eq!(r.stats.bounced_rps, 0);
    }

    #[test]
    fn crash_schedule_fails_over_and_repairs() {
        let r = run_schedule(&schedules()[1], 45, 42).unwrap();
        assert_eq!(r.stats.failovers, 1);
        assert!(r.max_failover_latency <= u64::from(SUSPECT_AFTER));
        assert!(r.stats.activations_restored >= 1);
        assert!(r.stats.activations_cold_fallback >= 1);
    }

    #[test]
    fn corrupt_storm_walks_the_retry_ladder() {
        let r = run_schedule(&schedules()[2], 45, 42).unwrap();
        assert_eq!(r.stats.migrations_completed, 2);
        assert_eq!(r.stats.transfer_downgrades, 2);
        assert!(r.stats.transfer_corruptions >= 2);
    }

    #[test]
    fn stall_schedule_rolls_back_and_lands_cold() {
        let r = run_schedule(&schedules()[3], 45, 42).unwrap();
        assert!(r.stats.transfer_stalls >= 9);
        assert_eq!(r.stats.migrations_completed, 1);
    }

    #[test]
    fn blackout_schedule_serves_autonomously() {
        let r = run_schedule(&schedules()[4], 45, 42).unwrap();
        assert_eq!(r.stats.blackout_epochs, 12);
        assert!(r.stats.autonomous_epochs >= 12);
        assert_eq!(r.stats.stale_actuations, 0);
    }

    #[test]
    fn kitchen_sink_holds_universal_invariants() {
        let r = run_schedule(&schedules()[5], 45, 42).unwrap();
        assert!(r.stats.partition_node_epochs >= 6);
        assert_eq!(r.stats.stale_actuations, 0);
    }
}
