//! Seeded, deterministic cluster-level fault injection.
//!
//! [`ClusterFaultPlan`] is the fleet-scale sibling of the per-server
//! `twig_sim::FaultPlan`: where that plan corrupts PMC samples and DVFS
//! writes inside one socket, this one kills whole servers, blinds the
//! coordinator, drops heartbeats and sabotages state transfers. It owns
//! its **own** RNG stream, so:
//!
//! 1. the same plan seed reproduces the identical fault sequence for any
//!    cluster under test, and
//! 2. a plan with every rate zero and no script draws nothing and leaves
//!    the cluster bit-identical to a fault-free run.
//!
//! Faults come from two sources, merged per epoch:
//!
//! - a **script** ([`ScriptedEvent`]) — exact `(epoch, event)` pairs for
//!   reproducing a precise failure story in a report;
//! - **rates** ([`ClusterFaultConfig`]) — per-epoch Bernoulli draws for
//!   background chaos.

use crate::ClusterError;
use twig_stats::fields::{check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// One cluster-level fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Server `node` crashes: it stops serving, loses its replicas and
    /// in-flight queue, and goes silent on every channel.
    Crash {
        /// Index of the server.
        node: usize,
    },
    /// Server `node` reboots into an empty state (no replicas, no
    /// placement knowledge) and resumes heartbeating.
    Restart {
        /// Index of the server.
        node: usize,
    },
    /// Server `node`'s heartbeats are lost this epoch on every channel
    /// (the server itself keeps serving).
    DropHeartbeat {
        /// Index of the server.
        node: usize,
    },
    /// The coordinator blacks out for `epochs` epochs: no liveness
    /// tracking, no repairs, no transfer progress, no placement syncs.
    Blackout {
        /// Blackout duration in epochs.
        epochs: u64,
    },
    /// Server `node` is partitioned from the coordinator for `epochs`
    /// epochs: it misses placement syncs and its heartbeats never reach
    /// the coordinator, but the balancer↔node data path stays up.
    Partition {
        /// Index of the server.
        node: usize,
        /// Partition duration in epochs.
        epochs: u64,
    },
    /// Force a migration of `service` from `from` to `to` (the planned
    /// kind, decommissioning the source on success).
    Migrate {
        /// Service to move.
        service: usize,
        /// Donor server.
        from: usize,
        /// Target server.
        to: usize,
    },
}

/// An exact `(epoch, event)` pair in a fault script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedEvent {
    /// Epoch (1-based, matching [`crate::Cluster::step`] counts) at which
    /// the event fires.
    pub epoch: u64,
    /// The fault.
    pub event: ClusterEvent,
}

/// Per-epoch fault probabilities plus the script. All rates default to
/// zero and the script to empty: the default configuration injects
/// nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterFaultConfig {
    /// Probability, per live node per epoch, of a crash.
    pub crash_rate: f64,
    /// Crashed nodes reboot automatically after this many epochs
    /// (0 = only scripted restarts).
    pub restart_after_epochs: u64,
    /// Probability, per live node per epoch, that its heartbeats are
    /// lost this epoch.
    pub heartbeat_loss_rate: f64,
    /// Probability, per epoch, that the coordinator blacks out.
    pub blackout_rate: f64,
    /// Duration of a rate-drawn blackout, epochs.
    pub blackout_epochs: u64,
    /// Probability, per live node per epoch, of a coordinator partition.
    pub partition_rate: f64,
    /// Duration of a rate-drawn partition, epochs.
    pub partition_epochs: u64,
    /// Probability that one epoch of state transfer makes no progress.
    pub migration_stall_rate: f64,
    /// Probability that a completed transfer's payload arrives corrupted.
    pub migration_corrupt_rate: f64,
    /// Exact scripted events, merged with the rate draws.
    pub scripted: Vec<ScriptedEvent>,
}

impl ClusterFaultConfig {
    /// The field table: every rate and duration once, under its `.scn`
    /// key (a blackout or partition is one `<rate> <epochs>` record), in
    /// the order the scenario emitter writes them. The script is not a
    /// field: its `at` lines follow the table's.
    pub const FIELDS: &'static [Row<ClusterFaultConfig>] = twig_stats::field_rows![
        "crash_rate" => crash_rate: Probability;
        "restart_after" => restart_after_epochs: Count;
        "heartbeat_loss" => heartbeat_loss_rate: Probability;
        "blackout" => blackout_rate: Probability, blackout_epochs: Count;
        "partition" => partition_rate: Probability, partition_epochs: Count;
        "migration_stall" => migration_stall_rate: Probability;
        "migration_corrupt" => migration_corrupt_rate: Probability;
    ];

    /// Validates all rates are finite probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] when a rate is outside
    /// `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), ClusterError> {
        check(Self::FIELDS, self, Kind::Probability).map_err(not_a_probability)
    }
}

/// The error both fault configurations of this crate report for a rate
/// [`check`] refused.
pub(crate) fn not_a_probability((label, rate): (&'static str, f64)) -> ClusterError {
    ClusterError::invalid(format!("{label} must be a probability, got {rate}"))
}

/// Everything the fault plan injects at one epoch, pre-drawn in a fixed
/// order so consumers cannot perturb the stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochFaults {
    /// Nodes crashing this epoch.
    pub crashes: Vec<usize>,
    /// Nodes rebooting this epoch (scripted only; rate-based reboots are
    /// scheduled by the cluster from `restart_after_epochs`).
    pub restarts: Vec<usize>,
    /// Per node: heartbeats lost this epoch.
    pub heartbeat_drop: Vec<bool>,
    /// A blackout starting this epoch lasts this many epochs (0 = none).
    pub blackout_epochs: u64,
    /// Partitions starting this epoch: `(node, epochs)`.
    pub partitions: Vec<(usize, u64)>,
    /// Forced migrations: `(service, from, to)`.
    pub migrations: Vec<(usize, usize, usize)>,
}

/// The seeded fleet-fault injector. See the module docs.
#[derive(Debug, Clone)]
pub struct ClusterFaultPlan {
    config: ClusterFaultConfig,
    rng: Xoshiro256,
}

impl ClusterFaultPlan {
    /// Creates a plan with its own RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an invalid rate.
    pub fn new(config: ClusterFaultConfig, seed: u64) -> Result<Self, ClusterError> {
        config.validate()?;
        Ok(ClusterFaultPlan {
            config,
            // Decorrelate from workload seeds the same way the server's
            // fault plan does: a fixed xor tweak before seeding.
            rng: Xoshiro256::seed_from_u64(seed ^ 0xC1D5_7E2F_FA17_BEEF),
        })
    }

    /// A plan that injects nothing.
    pub fn disabled() -> Self {
        ClusterFaultPlan::new(ClusterFaultConfig::default(), 0).expect("zero rates are valid")
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterFaultConfig {
        &self.config
    }

    /// Draws this epoch's fleet faults. `alive` is the ground-truth
    /// liveness per node (crash draws only target live nodes; heartbeat
    /// and partition draws are made for every node slot so the stream
    /// does not depend on liveness history).
    pub fn epoch_events(&mut self, epoch: u64, alive: &[bool]) -> EpochFaults {
        let n = alive.len();
        let mut out = EpochFaults {
            heartbeat_drop: vec![false; n],
            ..EpochFaults::default()
        };
        // Fixed draw order: crash per node, heartbeat per node, partition
        // per node, then blackout.
        for (node, &up) in alive.iter().enumerate() {
            if self.rng.next_bool(self.config.crash_rate) && up {
                out.crashes.push(node);
            }
        }
        for (node, drop) in out.heartbeat_drop.iter_mut().enumerate() {
            *drop = self.rng.next_bool(self.config.heartbeat_loss_rate) && alive[node];
        }
        for (node, &up) in alive.iter().enumerate() {
            if self.rng.next_bool(self.config.partition_rate) && up {
                out.partitions.push((node, self.config.partition_epochs));
            }
        }
        if self.rng.next_bool(self.config.blackout_rate) {
            out.blackout_epochs = self.config.blackout_epochs;
        }
        for ev in &self.config.scripted {
            if ev.epoch != epoch {
                continue;
            }
            match ev.event {
                ClusterEvent::Crash { node } => out.crashes.push(node),
                ClusterEvent::Restart { node } => out.restarts.push(node),
                ClusterEvent::DropHeartbeat { node } => {
                    if let Some(d) = out.heartbeat_drop.get_mut(node) {
                        *d = true;
                    }
                }
                ClusterEvent::Blackout { epochs } => {
                    out.blackout_epochs = out.blackout_epochs.max(epochs);
                }
                ClusterEvent::Partition { node, epochs } => out.partitions.push((node, epochs)),
                ClusterEvent::Migrate { service, from, to } => {
                    out.migrations.push((service, from, to));
                }
            }
        }
        out.crashes.sort_unstable();
        out.crashes.dedup();
        out.restarts.sort_unstable();
        out.restarts.dedup();
        out
    }

    /// Draws whether one epoch of state transfer stalls.
    pub fn stall_draw(&mut self) -> bool {
        self.rng.next_bool(self.config.migration_stall_rate)
    }

    /// Draws whether a delivered transfer payload is corrupted.
    pub fn corrupt_draw(&mut self) -> bool {
        self.rng.next_bool(self.config.migration_corrupt_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_draw_nothing_and_consume_no_rng() {
        let mut plan = ClusterFaultPlan::disabled();
        let mut again = ClusterFaultPlan::disabled();
        for epoch in 1..=50 {
            let ev = plan.epoch_events(epoch, &[true, true, true]);
            assert_eq!(
                ev,
                EpochFaults {
                    heartbeat_drop: vec![false; 3],
                    ..EpochFaults::default()
                }
            );
            assert!(!plan.stall_draw());
            assert!(!plan.corrupt_draw());
        }
        // The untouched twin still agrees: p == 0 draws consume no stream.
        assert_eq!(
            plan.epoch_events(51, &[true]),
            again.epoch_events(51, &[true])
        );
    }

    #[test]
    fn scripted_events_fire_exactly_on_their_epoch() {
        let cfg = ClusterFaultConfig {
            scripted: vec![
                ScriptedEvent {
                    epoch: 3,
                    event: ClusterEvent::Crash { node: 1 },
                },
                ScriptedEvent {
                    epoch: 3,
                    event: ClusterEvent::Blackout { epochs: 5 },
                },
                ScriptedEvent {
                    epoch: 4,
                    event: ClusterEvent::Migrate {
                        service: 0,
                        from: 0,
                        to: 2,
                    },
                },
            ],
            ..ClusterFaultConfig::default()
        };
        let mut plan = ClusterFaultPlan::new(cfg, 7).unwrap();
        let alive = [true, true, true];
        assert!(plan.epoch_events(2, &alive).crashes.is_empty());
        let e3 = plan.epoch_events(3, &alive);
        assert_eq!(e3.crashes, vec![1]);
        assert_eq!(e3.blackout_epochs, 5);
        let e4 = plan.epoch_events(4, &alive);
        assert_eq!(e4.migrations, vec![(0, 0, 2)]);
        assert!(e4.crashes.is_empty());
    }

    #[test]
    fn same_seed_same_sequence() {
        let cfg = ClusterFaultConfig {
            crash_rate: 0.3,
            heartbeat_loss_rate: 0.4,
            partition_rate: 0.2,
            partition_epochs: 3,
            blackout_rate: 0.1,
            blackout_epochs: 4,
            ..ClusterFaultConfig::default()
        };
        let mut a = ClusterFaultPlan::new(cfg.clone(), 42).unwrap();
        let mut b = ClusterFaultPlan::new(cfg, 42).unwrap();
        for epoch in 1..=100 {
            assert_eq!(
                a.epoch_events(epoch, &[true, false, true]),
                b.epoch_events(epoch, &[true, false, true])
            );
        }
    }

    #[test]
    fn rates_validated() {
        let cfg = ClusterFaultConfig {
            crash_rate: 1.5,
            ..ClusterFaultConfig::default()
        };
        assert!(matches!(
            ClusterFaultPlan::new(cfg, 1),
            Err(ClusterError::InvalidConfig { .. })
        ));
        let cfg = ClusterFaultConfig {
            migration_stall_rate: f64::NAN,
            ..ClusterFaultConfig::default()
        };
        assert!(ClusterFaultPlan::new(cfg, 1).is_err());
    }

    #[test]
    fn dead_nodes_do_not_crash_or_drop_heartbeats() {
        let cfg = ClusterFaultConfig {
            crash_rate: 1.0,
            heartbeat_loss_rate: 1.0,
            ..ClusterFaultConfig::default()
        };
        let mut plan = ClusterFaultPlan::new(cfg, 9).unwrap();
        let ev = plan.epoch_events(1, &[false, true]);
        assert_eq!(ev.crashes, vec![1]);
        assert_eq!(ev.heartbeat_drop, vec![false, true]);
    }
}
