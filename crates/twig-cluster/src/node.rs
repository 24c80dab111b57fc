//! One server of the fleet: a simulated socket plus its local control
//! plane.
//!
//! A [`ClusterNode`] hosts up to one replica of every cluster service.
//! The socket is a full `twig_sim::Server` over all services; placement
//! controls which of them actually receive traffic and an agent. Each
//! installed replica runs its **own** Twig-S agent wrapped in a
//! [`SafetyGovernor`]. The node also walks a local [`EpochScheduler`]
//! through each epoch, but only as a meter: it charges nominal phase
//! costs (5 ms PMC read, 2 ms per replica's inference, 5 ms actuation,
//! far inside every budget) and discards every directive, so the
//! scheduler can never shed an epoch or miss a deadline here. Its
//! [`SchedulerStats`] count the node's epochs; the cluster suite injects
//! control-plane faults, and per-phase timing faults live in the
//! single-server timing suite.
//!
//! Partition-tolerant autonomy falls out of this layout: the node keeps
//! its last synced [`ServicePlacement`] generation and its local agents,
//! so when the coordinator vanishes it simply keeps deciding and
//! actuating from local state.

use crate::ClusterError;
use twig_core::{
    EpochScheduler, GovernorConfig, NodeId, SafetyGovernor, SchedulerStats, ServicePlacement,
    SimClock, TaskManager, Twig, TwigBuilder,
};
use twig_rl::{encode_checkpoint, EpsilonSchedule, MaBdqCheckpoint, MaBdqConfig};
use twig_sim::{
    Assignment, DvfsLadder, EpochReport, Server, ServerConfig, ServiceSpec, TelemetryHealth,
};
use twig_stats::rng::splitmix64_mix;

/// Hardware shape of one server (the heterogeneity axis of the fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlatform {
    /// Physical cores.
    pub cores: usize,
    /// DVFS ladder.
    pub dvfs: DvfsLadder,
}

impl NodePlatform {
    /// Capacity weight used by the balancer and placement: cores × max
    /// MHz.
    pub fn weight(&self) -> u64 {
        self.cores as u64 * u64::from(self.dvfs.max().mhz())
    }
}

/// How a replica install seeded its agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcome {
    /// Agent state restored from the transferred checkpoint.
    Restored,
    /// No checkpoint was offered (first placement, or donor lost): cold
    /// start.
    Cold,
    /// A checkpoint was offered but could not be adopted (architecture
    /// mismatch between heterogeneous nodes, or late-detected damage):
    /// the replica cold-starts instead of failing the placement.
    ColdFallback,
}

/// Per-replica control stack.
#[derive(Debug)]
struct Replica {
    governor: SafetyGovernor<Twig>,
}

/// Agent-shaping knobs shared by every replica the node builds.
#[derive(Debug, Clone)]
pub struct AgentTuning {
    /// Network/optimizer template (`agents`/`state_dim`/`branches` are
    /// overridden per platform by the builder).
    pub template: MaBdqConfig,
    /// Epochs over which ε anneals (the compressed learning phase).
    pub learn_epochs: u64,
    /// Gradient steps per epoch.
    pub train_steps_per_epoch: u32,
}

impl Default for AgentTuning {
    fn default() -> Self {
        AgentTuning {
            // Small nets: cluster runs host many replicas per process.
            template: MaBdqConfig {
                trunk_hidden: vec![16, 12],
                head_hidden: 8,
                batch_size: 8,
                buffer_capacity: 256,
                ..MaBdqConfig::default()
            },
            learn_epochs: 300,
            train_steps_per_epoch: 1,
        }
    }
}

/// One server of the fleet. See the module docs.
#[derive(Debug)]
pub struct ClusterNode {
    id: NodeId,
    platform: NodePlatform,
    specs: Vec<ServiceSpec>,
    server: Server,
    replicas: Vec<Option<Replica>>,
    clock: SimClock,
    scheduler: EpochScheduler,
    tuning: AgentTuning,
    seed: u64,
    restarts: u64,
    installs: u64,
    alive: bool,
    synced_generation: u64,
    /// The next serve panics.
    #[cfg(test)]
    panic_on_serve: bool,
}

/// splitmix64 finalizer for deriving independent sub-seeds.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64_mix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl ClusterNode {
    /// Boots a server of the given shape hosting (but not yet serving)
    /// all `specs`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when the platform or specs are invalid.
    pub fn new(
        id: NodeId,
        platform: NodePlatform,
        specs: Vec<ServiceSpec>,
        tuning: AgentTuning,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        if specs.is_empty() {
            return Err(ClusterError::invalid("node needs at least one service"));
        }
        let server = Server::new(
            ServerConfig::with_platform(platform.cores, platform.dvfs.clone()),
            specs.clone(),
            mix(seed, 0x5EED),
        )?;
        let clock = SimClock::new();
        let scheduler = EpochScheduler::new(clock.clone());
        let k = specs.len();
        let mut node = ClusterNode {
            id,
            platform,
            specs,
            server,
            replicas: (0..k).map(|_| None).collect(),
            clock,
            scheduler,
            tuning,
            seed,
            restarts: 0,
            installs: 0,
            alive: true,
            synced_generation: 0,
            #[cfg(test)]
            panic_on_serve: false,
        };
        node.idle_all_loads()?;
        Ok(node)
    }

    fn idle_all_loads(&mut self) -> Result<(), ClusterError> {
        for s in 0..self.specs.len() {
            self.server.set_load_fraction(s, 0.0)?;
        }
        Ok(())
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's hardware shape.
    pub fn platform(&self) -> &NodePlatform {
        &self.platform
    }

    /// `true` while the server is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Reboot count.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Placement generation last synced from the coordinator.
    pub fn synced_generation(&self) -> u64 {
        self.synced_generation
    }

    /// `true` when a replica of `service` is installed and serving.
    pub fn has_replica(&self, service: usize) -> bool {
        self.alive && self.replicas.get(service).is_some_and(Option::is_some)
    }

    /// Number of installed replicas.
    pub fn replica_count(&self) -> usize {
        if !self.alive {
            return 0;
        }
        self.replicas.iter().filter(|r| r.is_some()).count()
    }

    /// Local deadline-scheduler counters.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Whole-machine crash: all replicas, their agents and the in-flight
    /// queue are gone; the node goes silent until [`restart`](Self::restart).
    pub fn crash(&mut self) {
        self.alive = false;
        for r in &mut self.replicas {
            *r = None;
        }
    }

    /// Reboots the crashed server into an empty state: a fresh socket
    /// (deterministically re-seeded per reboot), no replicas, no
    /// placement knowledge.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Sim`] if the socket cannot be rebuilt.
    pub fn restart(&mut self) -> Result<(), ClusterError> {
        self.restarts += 1;
        self.server = Server::new(
            ServerConfig::with_platform(self.platform.cores, self.platform.dvfs.clone()),
            self.specs.clone(),
            mix(self.seed, 0x5EED ^ (self.restarts << 32)),
        )?;
        self.idle_all_loads()?;
        self.alive = true;
        self.synced_generation = 0;
        Ok(())
    }

    fn build_agent(&mut self, service: usize) -> Result<Twig, ClusterError> {
        let spec = self.specs[service].clone();
        self.installs += 1;
        let learn = self.tuning.learn_epochs.max(5);
        let twig = TwigBuilder::new()
            .services(vec![spec])
            .cores(self.platform.cores)
            .dvfs(self.platform.dvfs.clone())
            .agent(self.tuning.template.clone())
            .epsilon(EpsilonSchedule::new(0.1, 0.005, learn * 3 / 5, learn))
            .train_steps_per_epoch(self.tuning.train_steps_per_epoch)
            .action_stickiness(0.02)
            .seed(mix(
                self.seed,
                0xA6E2 ^ (service as u64) << 8 ^ self.installs << 20,
            ))
            .build()?;
        Ok(twig)
    }

    /// Installs a replica of `service`, optionally seeding its agent from
    /// a transferred checkpoint. A checkpoint that cannot be adopted
    /// (shape mismatch across heterogeneous platforms, residual damage)
    /// downgrades to a cold start rather than failing — a replica that
    /// serves cold beats a placement that never lands.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] when the node is down, the service index
    /// is bad, or agent construction itself fails.
    pub fn install_replica(
        &mut self,
        service: usize,
        checkpoint: Option<&[u8]>,
    ) -> Result<InstallOutcome, ClusterError> {
        if !self.alive {
            return Err(ClusterError::invariant(format!(
                "install on dead {}",
                self.id
            )));
        }
        if service >= self.specs.len() {
            return Err(ClusterError::invalid(format!(
                "service {service} out of range"
            )));
        }
        let mut twig = self.build_agent(service)?;
        let outcome = match checkpoint {
            Some(bytes) => match twig.restore_checkpoint_bytes(bytes) {
                Ok(()) => InstallOutcome::Restored,
                Err(_) => InstallOutcome::ColdFallback,
            },
            None => InstallOutcome::Cold,
        };
        let governor = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: vec![self.specs[service].clone()],
                cores: self.platform.cores,
                dvfs: self.platform.dvfs.clone(),
                ..GovernorConfig::default()
            },
        )?;
        self.replicas[service] = Some(Replica { governor });
        Ok(outcome)
    }

    /// Serializes the live replica's agent state for transfer (the PR-4
    /// checkpoint codec is the wire format).
    pub fn checkpoint_of(&self, service: usize) -> Option<Vec<u8>> {
        self.snapshot_of(service).map(|c| encode_checkpoint(&c))
    }

    /// The live replica's agent state as a struct, for in-process use (a
    /// federation round's merge and rollback snapshot); `None` when the
    /// node is down or hosts no replica of `service`.
    pub fn snapshot_of(&self, service: usize) -> Option<MaBdqCheckpoint> {
        if !self.alive {
            return None;
        }
        self.replicas
            .get(service)?
            .as_ref()
            .map(|r| r.governor.inner().agent().save_checkpoint())
    }

    /// Quarantine counters of the replica's learning agent, for the
    /// federation plane's eligibility check (`None` when the node is down
    /// or hosts no replica of `service`).
    pub fn quarantine_of(&self, service: usize) -> Option<twig_rl::QuarantineStats> {
        if !self.alive {
            return None;
        }
        self.replicas
            .get(service)?
            .as_ref()
            .map(|r| r.governor.inner().agent().quarantine_stats())
    }

    /// Gradient steps the replica's agent has applied (`None` when the
    /// node is down or hosts no replica). The federation plane uses this
    /// to prove a transferred policy arrived trained.
    pub fn agent_steps_of(&self, service: usize) -> Option<u64> {
        if !self.alive {
            return None;
        }
        self.replicas
            .get(service)?
            .as_ref()
            .map(|r| r.governor.inner().agent().steps())
    }

    /// Adopts a federation-round checkpoint — merged weights after a
    /// committed round, or the pre-round [`snapshot_of`](Self::snapshot_of)
    /// being rolled back after a failed one — into the replica's governed
    /// agent via the governor's round-restore hook (which also resets its
    /// health tracking).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Invariant`] when the node is down or hosts
    /// no replica of `service`, and propagates shape errors — the replica
    /// is left unchanged in that case.
    pub fn adopt_round_state(
        &mut self,
        service: usize,
        ckpt: &MaBdqCheckpoint,
    ) -> Result<(), ClusterError> {
        if !self.alive {
            return Err(ClusterError::invariant(format!(
                "round adopt on dead {}",
                self.id
            )));
        }
        let replica = self
            .replicas
            .get_mut(service)
            .and_then(Option::as_mut)
            .ok_or_else(|| {
                ClusterError::invariant(format!("round adopt: no replica of service {service}"))
            })?;
        replica.governor.restore_round_snapshot(ckpt)?;
        Ok(())
    }

    /// Largest |Q| the replica's online network produces on a fixed probe
    /// state (`f64::INFINITY` when any head output is non-finite, `None`
    /// when the node is down or hosts no replica). The federation plane
    /// twin-runs this before and after applying merged weights: a merged
    /// policy whose probe magnitude explodes is rolled back.
    ///
    /// # Errors
    ///
    /// Propagates learner errors (probe-state shape is derived from the
    /// live agent, so these indicate bugs, not bad merges).
    pub fn probe_q_magnitude(&mut self, service: usize) -> Result<Option<f64>, ClusterError> {
        if !self.alive {
            return Ok(None);
        }
        let Some(replica) = self.replicas.get_mut(service).and_then(Option::as_mut) else {
            return Ok(None);
        };
        let agent = replica.governor.inner_mut().agent_mut();
        let probe = vec![vec![0.5f32; agent.config().state_dim]; agent.config().agents];
        let q = agent
            .q_values(&probe)
            .map_err(|e| ClusterError::invariant(format!("federation probe: {e}")))?;
        let mut max = 0.0f64;
        for branch in q.iter().flatten() {
            for &v in branch {
                if !v.is_finite() {
                    return Ok(Some(f64::INFINITY));
                }
                max = max.max(f64::from(v).abs());
            }
        }
        Ok(Some(max))
    }

    /// Makes the next [`serve_epoch`](Self::serve_epoch) panic.
    #[cfg(test)]
    pub(crate) fn inject_serve_panic(&mut self) {
        self.panic_on_serve = true;
    }

    /// Adopts the coordinator's placement: replicas no longer assigned
    /// here are dropped, and the node records the generation it now
    /// actuates from. Returns how many replicas were decommissioned.
    pub fn sync_placement(&mut self, placement: &ServicePlacement) -> u64 {
        let mut dropped = 0;
        for (s, slot) in self.replicas.iter_mut().enumerate() {
            if slot.is_some() && !placement.hosts(s, self.id) {
                *slot = None;
                dropped += 1;
            }
        }
        self.synced_generation = placement.generation();
        dropped
    }

    /// Serves one epoch: applies `routed` requests per second per
    /// service, lets each replica's governed agent decide (metered at
    /// nominal cost; see the module docs), steps the socket, and feeds the
    /// per-service observations back to the replicas.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Invariant`] when called on a dead node and
    /// propagates simulator/manager errors.
    pub fn serve_epoch(&mut self, routed: &[u64], epoch: u64) -> Result<EpochReport, ClusterError> {
        #[cfg(test)]
        assert!(!self.panic_on_serve, "injected serve panic on {}", self.id);
        if !self.alive {
            return Err(ClusterError::invariant(format!(
                "serve on dead {}",
                self.id
            )));
        }
        if routed.len() != self.specs.len() {
            return Err(ClusterError::invalid(format!(
                "routed len {} != services {}",
                routed.len(),
                self.specs.len()
            )));
        }
        for (s, spec) in self.specs.iter().enumerate() {
            let fraction = if self.replicas[s].is_some() {
                (routed[s] as f64 / spec.max_load_rps).min(1.0)
            } else {
                0.0
            };
            self.server.set_load_fraction(s, fraction)?;
        }

        // Meter the local decision loop at nominal per-phase costs; the
        // directives are discarded (see the module docs).
        self.clock.set(epoch as f64 * 1000.0);
        self.scheduler.begin_epoch();
        self.clock.advance(5.0); // PMC read
        let _ = self.scheduler.pmc_window_fresh(0.0);
        let min_freq = self.platform.dvfs.min();
        let mut assignments = vec![Assignment::new(Vec::new(), min_freq); self.specs.len()];
        for (s, slot) in assignments.iter_mut().enumerate() {
            let Some(replica) = self.replicas[s].as_mut() else {
                continue;
            };
            let _ = self.scheduler.inference_directive();
            self.clock.advance(2.0); // per-replica inference
            let mut decided = replica.governor.decide()?;
            *slot = decided
                .pop()
                .ok_or_else(|| ClusterError::invariant("empty decision"))?;
        }
        let _ = self.scheduler.actuation_attempt(5.0);
        self.clock.advance(5.0);
        let report = self.server.step(&assignments)?;
        self.scheduler.end_epoch();

        for s in 0..self.specs.len() {
            let Some(replica) = self.replicas[s].as_mut() else {
                continue;
            };
            let single = slice_report(&report, s);
            replica.governor.observe(&single)?;
        }
        Ok(report)
    }
}

/// Projects one service's view out of a whole-socket report, preserving
/// the telemetry-health flags the governor uses to route degraded epochs.
fn slice_report(report: &EpochReport, service: usize) -> EpochReport {
    EpochReport {
        time_s: report.time_s,
        services: vec![report.services[service].clone()],
        power_w: report.power_w,
        true_power_w: report.true_power_w,
        energy_j: report.energy_j,
        migrations: report.services[service].migrated_cores,
        actuation: vec![report.actuation[service].clone()],
        telemetry: TelemetryHealth {
            pmc_faults: vec![report.telemetry.pmc_faults[service]],
            delayed_epochs: report.telemetry.delayed_epochs,
            power_glitched: report.telemetry.power_glitched,
            offline_cores: report.telemetry.offline_cores,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::catalog;

    fn node(cores: usize) -> ClusterNode {
        ClusterNode::new(
            NodeId(0),
            NodePlatform {
                cores,
                dvfs: DvfsLadder::default(),
            },
            vec![catalog::masstree(), catalog::xapian()],
            AgentTuning {
                learn_epochs: 20,
                ..AgentTuning::default()
            },
            42,
        )
        .unwrap()
    }

    #[test]
    fn serves_only_installed_replicas() {
        let mut n = node(18);
        assert_eq!(n.replica_count(), 0);
        assert_eq!(n.install_replica(0, None).unwrap(), InstallOutcome::Cold);
        assert!(n.has_replica(0));
        assert!(!n.has_replica(1));
        let report = n.serve_epoch(&[500, 500], 1).unwrap();
        // Replica 0 served its traffic; service 1 has no replica, so the
        // node applied zero load and zero cores to it.
        assert!(report.services[0].offered_rps > 0.0);
        assert_eq!(report.services[1].offered_rps, 0.0);
        assert_eq!(report.services[1].core_count, 0);
        assert_eq!(n.scheduler_stats().epochs, 1);
    }

    #[test]
    fn mix_outputs_are_pinned() {
        for (seed, salt, want) in [
            (42, 0x5EED, 0x030e_3175_184b_ad89),
            (42, 0x0DE5 ^ (3 << 16), 0x01ea_c165_273e_155b),
            (7, 0x5EED ^ (2 << 32), 0xa0c6_f7c0_7616_b476),
            (u64::MAX, 1, 0xde0a_564c_bcd0_60c4),
        ] {
            assert_eq!(mix(seed, salt), want, "mix({seed:#x}, {salt:#x})");
        }
    }

    #[test]
    fn nominal_metering_never_sheds_or_misses() {
        const EPOCHS: u64 = 25;
        let mut n = node(18);
        n.install_replica(0, None).unwrap();
        n.install_replica(1, None).unwrap();
        for epoch in 1..=EPOCHS {
            n.serve_epoch(&[900, 900], epoch).unwrap();
        }
        assert_eq!(
            n.scheduler_stats(),
            SchedulerStats {
                epochs: EPOCHS,
                ..SchedulerStats::default()
            }
        );
    }

    #[test]
    fn crash_loses_replicas_and_restart_reboots_empty() {
        let mut n = node(18);
        n.install_replica(0, None).unwrap();
        n.crash();
        assert!(!n.is_alive());
        assert_eq!(n.replica_count(), 0);
        assert!(n.checkpoint_of(0).is_none());
        assert!(n.serve_epoch(&[0, 0], 1).is_err());
        assert!(n.install_replica(0, None).is_err());
        n.restart().unwrap();
        assert!(n.is_alive());
        assert_eq!(n.restarts(), 1);
        assert_eq!(n.replica_count(), 0);
        assert_eq!(n.synced_generation(), 0);
        // The rebooted socket serves again.
        n.install_replica(0, None).unwrap();
        n.serve_epoch(&[100, 0], 1).unwrap();
    }

    #[test]
    fn checkpoint_roundtrips_between_same_shape_nodes() {
        let mut donor = node(18);
        donor.install_replica(0, None).unwrap();
        for epoch in 1..=3 {
            donor.serve_epoch(&[400, 0], epoch).unwrap();
        }
        let bytes = donor.checkpoint_of(0).unwrap();
        twig_rl::validate_checkpoint_bytes(&bytes).unwrap();
        let mut target = node(18);
        assert_eq!(
            target.install_replica(0, Some(&bytes)).unwrap(),
            InstallOutcome::Restored
        );
    }

    #[test]
    fn heterogeneous_shapes_fall_back_cold() {
        let mut donor = node(18);
        donor.install_replica(0, None).unwrap();
        let bytes = donor.checkpoint_of(0).unwrap();
        // 12-core target: different branch cardinality, incompatible net.
        let mut target = node(12);
        assert_eq!(
            target.install_replica(0, Some(&bytes)).unwrap(),
            InstallOutcome::ColdFallback
        );
        // The fallback replica still serves.
        target.serve_epoch(&[100, 0], 1).unwrap();
    }

    #[test]
    fn sync_placement_decommissions_and_records_generation() {
        let mut n = node(18);
        n.install_replica(0, None).unwrap();
        n.install_replica(1, None).unwrap();
        let mut p = ServicePlacement::new(2);
        p.add_replica(0, NodeId(0)).unwrap();
        p.add_replica(1, NodeId(3)).unwrap(); // service 1 moved away
        assert_eq!(n.sync_placement(&p), 1);
        assert!(n.has_replica(0));
        assert!(!n.has_replica(1));
        assert_eq!(n.synced_generation(), p.generation());
    }

    #[test]
    fn reboot_reseeds_deterministically() {
        let build = || {
            let mut n = node(18);
            n.install_replica(0, None).unwrap();
            n.crash();
            n.restart().unwrap();
            n.install_replica(0, None).unwrap();
            let r = n.serve_epoch(&[300, 0], 1).unwrap();
            (r.services[0].p99_ms, r.power_w)
        };
        assert_eq!(build(), build());
    }
}
