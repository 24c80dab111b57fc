//! Federation chaos suite — seeded fleet-level failure schedules against
//! the federated learning plane. Not a paper figure.
//!
//! Each schedule boots the same heterogeneous four-node fleet as the
//! cluster suite (three 18-core sockets, one 12-core socket), enables
//! weight-exchange rounds through [`Cluster::enable_federation`], and
//! drives the plane through a scripted-plus-rate [`FedFaultPlan`]:
//! corrupted and truncated payloads, Byzantine nodes (garbage,
//! non-finite and offset weights), stragglers, dropped payloads,
//! poisoned merges, plus cluster-level partitions and blackouts landing
//! mid-round.
//!
//! Invariants asserted on **every** schedule:
//!
//! - request conservation every epoch (the federation plane must never
//!   break serving);
//! - the screening-ladder books balance: every payload that reached the
//!   coordinator was either accepted or rejected by a named rung —
//!   `received == accepted + corrupt + shape + nonfinite + divergent` —
//!   which is the counter-level proof that no corrupted or Byzantine
//!   payload ever reached a merge;
//! - only accepted payloads merge: `contributors_merged ≤ accepted`;
//! - the `fed.*` telemetry counters equal the [`FedStats`] lifetime
//!   counters (and `cluster.*` likewise) by construction: `Cluster::step`
//!   folds each delta in through the generated `add`, which mirrors it;
//! - zero stale-placement actuations.
//!
//! The suite closes with the first-class **policy-transfer experiment**:
//! the same corrupt-migration schedule that strands a cold replica on an
//! 18-core node is run with federation on and off, and the report shows
//! the cold node inheriting the donor's trained policy in a single round
//! — a steps discontinuity no amount of self-training could produce —
//! versus re-learning from scratch without federation.
//!
//! Scenario outputs are deterministic in `(seed, scenario index)` — wall
//! clock never enters the text — so the report is bit-identical at
//! `--jobs 1`, `2` and `4`.

use crate::runner::{suite_cluster_config, suite_epochs, REPLICATION};
use crate::{run_fleet, ExpError, Options, TextTable, Unit};
use std::fmt::Write as _;
use twig_cluster::{
    ByzantineFlavor, Cluster, ClusterEvent, ClusterFaultConfig, ClusterFaultPlan, FedEvent,
    FedFaultConfig, FedFaultPlan, FedScripted, FedStats, FederateConfig, ScriptedEvent,
};
use twig_telemetry::Telemetry;

/// Epochs between federation round starts.
const ROUND_PERIOD: u64 = 10;

struct Schedule {
    name: &'static str,
    cluster_faults: ClusterFaultConfig,
    fed_config: FederateConfig,
    fed_faults: FedFaultConfig,
}

/// The scripted migration that strands a cold replica: service 0 moves
/// from node 0 to node 2 (both 18-core) with every payload delivery
/// corrupted, so the transfer ladder exhausts its attempts and lands the
/// replica cold — while node 1 keeps the trained donor policy.
fn cold_landing_faults() -> ClusterFaultConfig {
    ClusterFaultConfig {
        migration_corrupt_rate: 1.0,
        scripted: vec![ScriptedEvent {
            epoch: 5,
            event: ClusterEvent::Migrate {
                service: 0,
                from: 0,
                to: 2,
            },
        }],
        ..ClusterFaultConfig::default()
    }
}

fn fed_config(min_quorum: usize) -> FederateConfig {
    FederateConfig {
        round_period: ROUND_PERIOD,
        collect_timeout: 3,
        min_quorum,
        ..FederateConfig::default()
    }
}

fn schedules() -> Vec<Schedule> {
    vec![
        // No federation faults; a scripted corrupt-migration strands a cold
        // replica that the next round re-warms (the cold-server transfer).
        Schedule {
            name: "calm + cold transfer",
            cluster_faults: cold_landing_faults(),
            fed_config: fed_config(1),
            fed_faults: FedFaultConfig::default(),
        },
        // Rate-corrupted/truncated payloads plus scripted poisoned merges:
        // the CRC rung rejects the damage, the twin run rolls the poison
        // back, and honest rounds still commit.
        Schedule {
            name: "corrupt payload storm",
            cluster_faults: ClusterFaultConfig::default(),
            fed_config: fed_config(1),
            fed_faults: FedFaultConfig {
                corrupt_rate: 0.5,
                truncate_rate: 0.3,
                scripted: (1..=3)
                    .map(|round| FedScripted {
                        round,
                        event: FedEvent::PoisonMerge,
                    })
                    .collect(),
                ..FedFaultConfig::default()
            },
        },
        // One node ships Byzantine weights every round (garbage, then
        // non-finite, then offset): each flavor dies at its designated rung.
        Schedule {
            name: "byzantine node",
            cluster_faults: ClusterFaultConfig::default(),
            fed_config: fed_config(1),
            fed_faults: FedFaultConfig {
                // Node 1 (hosting services 0 and 2) is adversarial every
                // round: garbage magnitudes first, then non-finite
                // weights, then honest-scale offsets once the screen's
                // EWMA baseline is warm.
                scripted: (1..=12)
                    .map(|round| FedScripted {
                        round,
                        event: FedEvent::Byzantine {
                            node: 1,
                            flavor: match round {
                                1 | 2 => ByzantineFlavor::Garbage,
                                3 => ByzantineFlavor::NonFinite,
                                _ => ByzantineFlavor::Offset,
                            },
                        },
                    })
                    .collect(),
                ..FedFaultConfig::default()
            },
        },
        // Stragglers past the collection window: quorum failures, backoff
        // retries, and partial aggregation from the payloads that made it.
        Schedule {
            name: "straggler quorum",
            cluster_faults: ClusterFaultConfig::default(),
            fed_config: FederateConfig {
                collect_timeout: 2,
                ..fed_config(2)
            },
            fed_faults: FedFaultConfig {
                straggler_rate: 0.45,
                straggle_epochs: 4,
                scripted: (0..4)
                    .map(|node| FedScripted {
                        round: 1,
                        event: FedEvent::Straggle { node, epochs: 4 },
                    })
                    .collect(),
                ..FedFaultConfig::default()
            },
        },
        // A partition spans one round (the node sits it out) and a blackout
        // lands mid-collection on another (the round aborts wholesale).
        Schedule {
            name: "mid-round partition",
            cluster_faults: ClusterFaultConfig {
                scripted: vec![
                    // Covers the round at epoch 10: node 1 sits it out.
                    ScriptedEvent {
                        epoch: 9,
                        event: ClusterEvent::Partition { node: 1, epochs: 3 },
                    },
                    // Lands while the epoch-20 round is still collecting
                    // its scripted stragglers: the round aborts.
                    ScriptedEvent {
                        epoch: 21,
                        event: ClusterEvent::Blackout { epochs: 2 },
                    },
                ],
                ..ClusterFaultConfig::default()
            },
            fed_config: fed_config(1),
            fed_faults: FedFaultConfig {
                scripted: (0..4)
                    .map(|node| FedScripted {
                        round: 2,
                        event: FedEvent::Straggle { node, epochs: 2 },
                    })
                    .collect(),
                ..FedFaultConfig::default()
            },
        },
        // Everything at once, rates only: universal invariants must hold.
        Schedule {
            name: "kitchen sink",
            cluster_faults: ClusterFaultConfig {
                crash_rate: 0.01,
                restart_after_epochs: 8,
                heartbeat_loss_rate: 0.04,
                partition_rate: 0.015,
                partition_epochs: 3,
                blackout_rate: 0.008,
                blackout_epochs: 3,
                migration_stall_rate: 0.3,
                migration_corrupt_rate: 0.3,
                scripted: Vec::new(),
            },
            fed_config: fed_config(1),
            fed_faults: FedFaultConfig {
                corrupt_rate: 0.15,
                truncate_rate: 0.1,
                byzantine_rate: 0.1,
                straggler_rate: 0.25,
                // Longer than the collection window, so rate-drawn
                // stragglers actually miss the deadline.
                straggle_epochs: 4,
                drop_rate: 0.1,
                poison_merge_rate: 0.15,
                scripted: Vec::new(),
            },
        },
    ]
}

/// Everything one schedule demonstrated, aggregated for the report.
struct ScenarioReport {
    /// Schedule name.
    name: String,
    /// Final federation counters.
    fed: FedStats,
}

/// Runs one federation failure schedule, checks the universal invariants
/// (ladder accounting, zero stale actuations, checkpoint survival), which
/// hold at every seed, and returns the drained cluster. What each schedule
/// is expected to demonstrate is asserted by its unit test at the shipped
/// seed.
///
/// # Errors
///
/// Propagates cluster errors; invariant violations panic (the fleet
/// reports a panicking unit as failed).
fn run_schedule(schedule: &Schedule, epochs: u64, seed: u64) -> Result<Cluster, ExpError> {
    let mut cluster = Cluster::new(
        suite_cluster_config(epochs, seed),
        ClusterFaultPlan::new(schedule.cluster_faults.clone(), seed ^ 0x00C1_05E5)?,
        Telemetry::disabled(),
    )?;
    cluster.enable_federation(
        schedule.fed_config.clone(),
        FedFaultPlan::new(schedule.fed_faults.clone(), seed ^ 0x00FE_DE05)?,
    )?;

    for _ in 0..epochs {
        let r = cluster.step()?;
        assert!(
            r.conserved,
            "{}: epoch {} dropped or double-routed requests",
            schedule.name, r.epoch
        );
        assert!(r.live_nodes > 0, "{}: the whole fleet died", schedule.name);
    }
    // Drain any round still collecting so the counter books close. A
    // round resolves within its collection window, so this always
    // reaches an idle boundary quickly.
    let mut drained = 0;
    while !cluster.federation_idle() && drained < 24 {
        let r = cluster.step()?;
        assert!(
            r.conserved,
            "{}: drain epoch dropped requests",
            schedule.name
        );
        drained += 1;
    }
    assert!(
        cluster.federation_idle(),
        "{}: a round never resolved during the drain window",
        schedule.name
    );

    let fed = cluster.fed_stats();

    // Universal invariants: the screening ladder's books must balance
    // exactly — every payload that reached the coordinator was accepted,
    // rejected by a named rung, or discarded unscreened by a round abort,
    // so nothing corrupted or Byzantine could have reached a merge.
    assert_eq!(
        fed.payloads_received,
        fed.payloads_accepted
            + fed.rejected_corrupt
            + fed.rejected_shape
            + fed.rejected_nonfinite
            + fed.rejected_divergent
            + fed.payloads_discarded,
        "{}: screening ladder books do not balance",
        schedule.name
    );
    assert!(
        fed.contributors_merged <= fed.payloads_accepted,
        "{}: more contributors merged than payloads accepted",
        schedule.name
    );
    assert_eq!(
        fed.payloads_requested,
        fed.payloads_received + fed.payloads_straggled + fed.payloads_lost,
        "{}: payload lifecycle books do not balance",
        schedule.name
    );
    assert!(
        fed.cold_transfers <= fed.recipients_updated,
        "{}: cold transfers exceed adoptions",
        schedule.name
    );
    assert_eq!(
        cluster.stats().stale_actuations,
        0,
        "{}: stale actuation",
        schedule.name
    );
    // Every live replica still owns a decodable checkpoint after all the
    // merging and rolling back.
    for node in cluster.nodes() {
        if !node.is_alive() {
            continue;
        }
        for s in 0..3 {
            if node.has_replica(s) {
                assert!(
                    node.checkpoint_of(s).is_some(),
                    "{}: live replica lost its checkpoint",
                    schedule.name
                );
            }
        }
    }

    Ok(cluster)
}

/// One arm of the policy-transfer experiment.
struct TransferOutcome {
    /// Epoch the cold replica landed on node 2 (downgraded migration).
    landing: Option<u64>,
    /// First epoch the replica's step counter jumped past anything
    /// self-training could explain — the federated adoption moment.
    adoption: Option<u64>,
    /// Steps right after the jump (the inherited donor schooling).
    inherited_steps: u64,
    /// The donor QoS band: 1.5x the median service-0 worst p99 over the
    /// pre-migration steady state (identical across arms by design).
    band_ms: f64,
    /// First post-adoption epoch back inside the band (federated arm).
    reentry: Option<u64>,
    /// Post-landing epochs with service-0 worst p99 inside the band.
    in_band: u64,
    /// Post-landing observation window.
    window: u64,
}

/// Runs the cold-landing schedule with or without federation and tracks
/// the stranded replica's recovery epoch by epoch.
fn run_transfer(epochs: u64, seed: u64, federated: bool) -> Result<TransferOutcome, ExpError> {
    let mut cluster = Cluster::new(
        suite_cluster_config(epochs, seed),
        ClusterFaultPlan::new(cold_landing_faults(), seed ^ 0x00C1_05E5)?,
        Telemetry::disabled(),
    )?;
    if federated {
        cluster.enable_federation(fed_config(1), FedFaultPlan::disabled())?;
    }
    let mut out = TransferOutcome {
        landing: None,
        adoption: None,
        inherited_steps: 0,
        band_ms: 0.0,
        reentry: None,
        in_band: 0,
        window: 0,
    };
    let mut prev_steps = 0u64;
    let mut steady_p99 = Vec::new();
    for _ in 0..epochs {
        let r = cluster.step()?;
        let epoch = r.epoch;
        let p99 = r.services[0].worst_p99_ms;
        // Pre-migration steady state (the scripted Migrate fires at
        // epoch 5): the donor policy serving undisturbed. Both arms see
        // bit-identical epochs here, so the band is shared.
        if (2..5).contains(&epoch) {
            steady_p99.push(p99);
        }
        if epoch == 5 {
            steady_p99.sort_by(f64::total_cmp);
            out.band_ms = 1.5 * steady_p99[steady_p99.len() / 2];
        }
        let steps = cluster.nodes()[2].agent_steps_of(0);
        if out.landing.is_none() {
            if let Some(s) = steps {
                out.landing = Some(epoch);
                prev_steps = s;
            }
            continue;
        }
        if let Some(s) = steps {
            // Self-training advances at most one gradient step per epoch
            // here, so a single-epoch jump of two or more steps must have
            // been inherited through a federation round — zero cold-start
            // learning epochs by construction.
            if out.adoption.is_none() && s >= prev_steps + 2 {
                out.adoption = Some(epoch);
                out.inherited_steps = s;
            }
            prev_steps = s;
        }
        out.window += 1;
        if p99 <= out.band_ms {
            out.in_band += 1;
            if out.reentry.is_none() && out.adoption.is_some() {
                out.reentry = Some(epoch);
            }
        }
    }
    Ok(out)
}

/// Runs every federation chaos schedule plus the policy-transfer
/// experiment and appends the report, asserting the acceptance
/// invariants along the way.
///
/// # Errors
///
/// Returns an error naming every failed (errored or panicked) schedule.
pub fn run_to(out: &mut String, opts: &Options) -> Result<(), ExpError> {
    let epochs = suite_epochs(opts, 45, 70);
    writeln!(
        out,
        "Federation chaos suite: 4 heterogeneous nodes (3x18-core, 1x12-core), 3 services, replication {REPLICATION}, round period {ROUND_PERIOD}, {epochs} epochs per schedule\n"
    )?;

    let scheds = schedules();
    let units: Vec<Unit<'_, ScenarioReport>> = scheds
        .iter()
        .map(|s| {
            Unit::new(format!("federate:{}", s.name), move |seed| {
                Ok(ScenarioReport {
                    name: s.name.to_string(),
                    fed: *run_schedule(s, epochs, seed)?.fed_stats(),
                })
            })
        })
        .collect();
    let reports = run_fleet(units, opts.jobs, opts.seed).into_outputs()?;

    let mut t = TextTable::new(vec![
        "schedule",
        "rounds",
        "committed",
        "q-failed",
        "aborted",
        "rolledback",
        "rej crc",
        "rej shape",
        "rej nonfin",
        "rej diverg",
        "straggled",
        "recipients",
        "cold",
    ]);
    for r in &reports {
        t.row(vec![
            r.name.clone(),
            r.fed.rounds_started.to_string(),
            r.fed.rounds_committed.to_string(),
            r.fed.rounds_quorum_failed.to_string(),
            r.fed.rounds_aborted_offline.to_string(),
            r.fed.rounds_rolled_back.to_string(),
            r.fed.rejected_corrupt.to_string(),
            r.fed.rejected_shape.to_string(),
            r.fed.rejected_nonfinite.to_string(),
            r.fed.rejected_divergent.to_string(),
            r.fed.payloads_straggled.to_string(),
            r.fed.recipients_updated.to_string(),
            r.fed.cold_transfers.to_string(),
        ]);
    }
    writeln!(out, "{t}")?;

    writeln!(
        out,
        "invariants held across all schedules: ladder books balanced (received == accepted + rejected), only accepted payloads merged, fed.* telemetry == FedStats, zero stale actuations."
    )?;

    // The policy-transfer experiment: identical cold-landing runs with
    // federation on and off, same seed.
    let base_seed = opts.seed;
    let transfer_units = vec![
        Unit::new("federate:transfer federated".to_string(), move |_| {
            run_transfer(epochs, base_seed, true)
        }),
        Unit::new("federate:transfer unfederated".to_string(), move |_| {
            run_transfer(epochs, base_seed, false)
        }),
    ];
    let mut arms = run_fleet(transfer_units, opts.jobs, opts.seed).into_outputs()?;
    let unfed = arms.pop().ok_or("missing unfederated arm")?;
    let fed = arms.pop().ok_or("missing federated arm")?;

    let landing = fed.landing.unwrap_or(0);
    let adoption = fed.adoption.unwrap_or(0);
    let reentry = fed.reentry.unwrap_or(0);
    writeln!(
        out,
        "policy transfer: cold landing at epoch {landing}; with federation the replica inherited {} donor steps at epoch {adoption} (zero cold-start learning epochs) and service-0 p99 was back inside the donor band ({:.2} ms) by epoch {reentry}; in-band {}/{} post-landing epochs federated vs {}/{} unfederated.",
        fed.inherited_steps, fed.band_ms, fed.in_band, fed.window, unfed.in_band, unfed.window
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_cluster::ClusterStats;

    // What each schedule must demonstrate, at the shipped seed and smoke
    // length. Together the floors cover every failure class the suite
    // exists to exercise: CRC, shape, non-finite and Byzantine rejections,
    // quorum failures, mid-round aborts, post-merge rollbacks and cold
    // transfers.
    fn shipped(schedule: usize) -> (FedStats, ClusterStats) {
        let cluster = run_schedule(&schedules()[schedule], 45, 42).unwrap();
        (*cluster.fed_stats(), *cluster.stats())
    }

    #[test]
    fn calm_transfer_schedule_warms_the_cold_replica() {
        let (fed, cluster) = shipped(0);
        assert_eq!(
            fed.rejected_corrupt + fed.rejected_nonfinite + fed.rejected_divergent,
            0,
            "calm schedule rejected honest payloads"
        );
        assert!(fed.rounds_committed >= 2, "calm rounds must commit");
        // Quorum failures are legitimate here: the corrupt-migration outage
        // window can leave a service with no eligible contributor for a
        // round or two.
        assert_eq!(fed.rounds_aborted_offline, 0, "calm abort");
        assert_eq!(fed.service_rollbacks, 0, "calm rollback");
        assert_eq!(
            cluster.transfer_downgrades, 1,
            "the scripted migration must land cold"
        );
        assert!(
            fed.cold_transfers >= 1,
            "the stranded replica must inherit the donor policy"
        );
        // The 12-core socket exercises the shape rung every round it
        // contributes.
        assert!(fed.rejected_shape >= 1, "heterogeneous shape never seen");
        assert!(fed.recipients_incompatible >= 1);
    }

    #[test]
    fn corrupt_storm_rejects_and_rolls_back() {
        let fed = shipped(1).0;
        assert!(fed.rejected_corrupt >= 3, "corruption never fired");
        assert!(fed.rounds_committed >= 1, "no honest round survived");
        assert!(
            fed.merges_poisoned >= 1 && fed.service_rollbacks >= 1,
            "poisoned merge must be caught by the twin run"
        );
        assert!(fed.recipients_rolled_back >= 1);
    }

    #[test]
    fn byzantine_schedule_screens_every_flavor() {
        let fed = shipped(2).0;
        assert!(
            fed.rejected_divergent >= 3,
            "garbage/offset weights never screened"
        );
        assert!(
            fed.rejected_nonfinite >= 1,
            "non-finite weights never rejected"
        );
        assert!(fed.rounds_committed >= 1, "honest services must progress");
    }

    #[test]
    fn straggler_schedule_fails_quorum_and_retries() {
        let fed = shipped(3).0;
        assert!(fed.payloads_straggled >= 4, "stragglers never missed");
        assert!(fed.rounds_quorum_failed >= 1, "quorum never failed");
        assert!(
            fed.rounds_started > 45 / ROUND_PERIOD,
            "backoff retries must add rounds beyond the period grid"
        );
        assert!(
            fed.contributors_merged < fed.payloads_requested,
            "partial aggregation must have dropped stragglers"
        );
    }

    #[test]
    fn partition_schedule_aborts_midround() {
        let (fed, cluster) = shipped(4);
        assert!(
            fed.rounds_aborted_offline >= 1,
            "the mid-collection blackout must abort the round"
        );
        assert!(fed.payloads_lost >= 4, "aborted payloads must count lost");
        assert!(fed.rounds_committed >= 1, "the plane must recover");
        assert!(cluster.partition_node_epochs >= 3);
    }

    #[test]
    fn kitchen_sink_keeps_the_books() {
        // run_schedule asserts the ladder identity on every schedule; this
        // pins that the kitchen sink gave it payloads to balance.
        let fed = shipped(5).0;
        assert!(fed.rounds_started >= 1, "federation never ran");
        assert!(fed.payloads_received > 0, "{fed:?}");
        assert!(fed.contributors_merged <= fed.payloads_accepted);
    }

    #[test]
    fn transfer_experiment_shows_inheritance() {
        // The suite's two arms at --smoke --seed 42.
        let fed = run_transfer(45, 42, true).unwrap();
        let unfed = run_transfer(45, 42, false).unwrap();
        assert!(fed.landing.is_some(), "cold replica never landed");
        let adoption = fed
            .adoption
            .expect("federation never re-warmed the replica");
        assert!(
            unfed.adoption.is_none(),
            "steps discontinuity without federation"
        );
        let reentry = fed.reentry.expect("service 0 never re-entered the band");
        assert!(
            reentry <= adoption + 10,
            "band re-entry took {} epochs after adoption",
            reentry - adoption
        );
        assert!(
            2 * fed.in_band >= fed.window,
            "federated arm spent under half its window in band ({}/{})",
            fed.in_band,
            fed.window
        );
    }
}
