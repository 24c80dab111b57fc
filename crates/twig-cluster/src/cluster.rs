//! The assembled Twig-D cluster: nodes + balancer + coordinator + fault
//! plan, stepped one epoch at a time.
//!
//! [`Cluster::step`] is the conductor. Each epoch it (in order) injects
//! faults, reboots what is due, collects heartbeats on the two
//! independent channels (balancer and coordinator), lets the coordinator
//! repair placement and advance state transfers — unless it is blacked
//! out — syncs placement to every reachable node, routes traffic, and
//! serves it on every live server. The fault phases all draw from the
//! seeded [`ClusterFaultPlan`] in a fixed order, so a full run is a pure
//! function of `(ClusterConfig, ClusterFaultConfig, seed)`.

use std::collections::BTreeMap;

use crate::balancer::LoadBalancer;
use crate::coordinator::{Coordinator, CoordinatorConfig, HandoffResult, TransferEvent};
use crate::fault::ClusterFaultPlan;
use crate::federate::{FedFaultPlan, FedStats, FederateConfig, FederationPlane};
use crate::node::{mix, AgentTuning, ClusterNode, InstallOutcome, NodePlatform};
use crate::ClusterError;
use twig_core::{ClusterView, NodeId, NodeView, PlacementAction, ServicePlacement};
use twig_rl::validate_checkpoint_bytes;
use twig_sim::ServiceSpec;
use twig_telemetry::Telemetry;

/// Shape of the whole cluster under test.
///
/// The `Default` value is an *empty* cluster — [`Cluster::new`] rejects
/// it — so configs are always built explicitly from a topology.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Hardware shape per server.
    pub nodes: Vec<NodePlatform>,
    /// The colocated latency-critical services.
    pub services: Vec<ServiceSpec>,
    /// Cluster-wide offered load per service, requests per second.
    pub demand_rps: Vec<u64>,
    /// Target replicas per service.
    pub replication: usize,
    /// Balancer-side suspicion threshold, missed heartbeats.
    pub suspect_after_misses: u32,
    /// Coordinator tunables.
    pub coordinator: CoordinatorConfig,
    /// Agent-shaping knobs for every replica.
    pub tuning: AgentTuning,
    /// Master seed for nodes, agents and workloads.
    pub seed: u64,
}

impl ClusterConfig {
    fn validate(&self) -> Result<(), ClusterError> {
        if self.nodes.is_empty() || self.services.is_empty() {
            return Err(ClusterError::invalid("cluster needs nodes and services"));
        }
        if self.demand_rps.len() != self.services.len() {
            return Err(ClusterError::invalid(format!(
                "demand_rps has {} entries for {} services",
                self.demand_rps.len(),
                self.services.len()
            )));
        }
        if self.replication == 0 {
            return Err(ClusterError::invalid("replication must be at least 1"));
        }
        if self.suspect_after_misses == 0 {
            return Err(ClusterError::invalid("suspect_after_misses must be ≥ 1"));
        }
        Ok(())
    }
}

twig_telemetry::stats! {
    /// Lifetime counters of everything the control plane did. Every
    /// field is mirrored into telemetry under the matching
    /// `cluster.*` counter.
    pub struct ClusterStats {
        /// Epochs stepped.
        epochs => "cluster.epochs",
        /// Whole-server crashes injected.
        crashes => "cluster.crashes",
        /// Server reboots (scripted and automatic).
        restarts => "cluster.restarts",
        /// Heartbeats missing on the balancer channel (node-epochs).
        heartbeat_misses => "cluster.heartbeat_misses",
        /// Nodes newly suspected dead by the balancer (failover moments).
        failovers => "cluster.failovers",
        /// Requests routed to replicas.
        routed_rps => "cluster.routed_rps",
        /// Requests that bounced off an unreachable replica and re-routed.
        bounced_rps => "cluster.bounced_rps",
        /// Requests parked in the balancer backlog.
        deferred_rps => "cluster.deferred_rps",
        /// Duplicate routing-table entries defensively dropped.
        double_route_guards => "cluster.double_route_guards",
        /// Epochs in which the balancer's books did not balance.
        conservation_failures => "cluster.conservation_failures",
        /// Replica spin-ups started by repair planning.
        spinups => "cluster.spinups",
        /// Planned (scripted) migrations started.
        migrations_started => "cluster.migrations_started",
        /// Spin-ups and migrations that landed a replica.
        migrations_completed => "cluster.migrations_completed",
        /// Replicas activated from a restored checkpoint.
        activations_restored => "cluster.activations_restored",
        /// Replicas activated cold (no checkpoint offered).
        activations_cold => "cluster.activations_cold",
        /// Replicas activated cold because the checkpoint could not be
        /// adopted.
        activations_cold_fallback => "cluster.activations_cold_fallback",
        /// Transfer epochs that made no progress.
        transfer_stalls => "cluster.transfer_stalls",
        /// Half-transferred state discarded (stall timeout or corruption).
        transfer_rollbacks => "cluster.transfer_rollbacks",
        /// Delivered payloads that failed validation.
        transfer_corruptions => "cluster.transfer_corruptions",
        /// Transfers that exhausted retries and downgraded to cold.
        transfer_downgrades => "cluster.transfer_downgrades",
        /// Replicas torn down on nodes by placement sync.
        decommissions => "cluster.decommissions",
        /// Epochs the coordinator spent blacked out.
        blackout_epochs => "cluster.blackout_epochs",
        /// Node-epochs spent partitioned from the coordinator.
        partition_node_epochs => "cluster.partition_node_epochs",
        /// Node-epochs served autonomously (replicas up, coordinator
        /// unreachable).
        autonomous_epochs => "cluster.autonomous_epochs",
        /// Actuations taken by a coordinator-reachable node on a stale
        /// placement (must stay 0).
        stale_actuations => "cluster.stale_actuations",
        /// Node placement syncs that advanced a node's generation.
        placement_syncs => "cluster.placement_syncs",
    }
}

/// Per-service slice of one cluster epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServiceEpoch {
    /// Service name.
    pub name: String,
    /// Requests routed to this service's replicas.
    pub routed_rps: u64,
    /// Worst p99 among replicas that received traffic (0 when none did).
    pub worst_p99_ms: f64,
    /// All traffic-bearing replicas met the QoS target.
    pub qos_met: bool,
    /// Replicas installed and serving.
    pub active_replicas: usize,
}

/// What one [`Cluster::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEpochReport {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Requests routed this epoch.
    pub routed_rps: u64,
    /// Requests bounced and re-routed this epoch.
    pub bounced_rps: u64,
    /// Requests parked in the backlog this epoch.
    pub deferred_rps: u64,
    /// Balancer backlog after this epoch.
    pub backlog_rps: u64,
    /// The balancer's conservation check held.
    pub conserved: bool,
    /// Servers up at the end of the epoch.
    pub live_nodes: usize,
    /// Replicas installed across the fleet.
    pub total_replicas: usize,
    /// Coordinator placement generation.
    pub placement_generation: u64,
    /// Per-service outcomes.
    pub services: Vec<ClusterServiceEpoch>,
    /// Live nodes that served without coordinator contact this epoch.
    pub autonomous_nodes: usize,
}

/// The assembled Twig-D cluster. See the module docs.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<ClusterNode>,
    balancer: LoadBalancer,
    coordinator: Coordinator,
    fault_plan: ClusterFaultPlan,
    telemetry: Telemetry,
    epoch: u64,
    stats: ClusterStats,
    /// Epoch each currently-down node crashed at (for auto-restart).
    crashed_at: Vec<Option<u64>>,
    /// Remaining partition epochs per node.
    partition_left: Vec<u64>,
    /// Remaining coordinator-blackout epochs.
    blackout_left: u64,
    /// Crash epoch per node whose failover the balancer has not yet
    /// detected.
    pending_failover: BTreeMap<usize, u64>,
    /// Epochs from crash to balancer suspicion, per detected failover.
    failover_latencies: Vec<u64>,
    /// The federated learning plane, when enabled.
    federation: Option<FederationPlane>,
    /// Lifetime federation counters (mirrored under `fed.*`).
    fed_stats: FedStats,
}

impl Cluster {
    /// Builds the fleet, bootstraps the initial placement (cold replicas,
    /// no spin-up delay at boot) and syncs it everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an empty or
    /// inconsistent topology.
    pub fn new(
        config: ClusterConfig,
        fault_plan: ClusterFaultPlan,
        telemetry: Telemetry,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        let n = config.nodes.len();
        let services = config.services.len();
        let mut nodes = Vec::with_capacity(n);
        for (i, platform) in config.nodes.iter().enumerate() {
            nodes.push(ClusterNode::new(
                NodeId(i),
                platform.clone(),
                config.services.clone(),
                config.tuning.clone(),
                mix(config.seed, 0x0DE5 ^ ((i as u64) << 16)),
            )?);
        }
        let weights = config.nodes.iter().map(NodePlatform::weight).collect();
        let balancer = LoadBalancer::new(services, weights, config.suspect_after_misses)?;
        let coordinator =
            Coordinator::new(services, n, config.replication, config.coordinator.clone())?;
        let mut cluster = Cluster {
            config,
            nodes,
            balancer,
            coordinator,
            fault_plan,
            telemetry,
            epoch: 0,
            stats: ClusterStats::default(),
            crashed_at: vec![None; n],
            partition_left: vec![0; n],
            blackout_left: 0,
            pending_failover: BTreeMap::new(),
            failover_latencies: Vec::new(),
            federation: None,
            fed_stats: FedStats::default(),
        };
        cluster.bootstrap()?;
        Ok(cluster)
    }

    /// Initial placement: run the repair policy once against the fresh
    /// fleet and install every proposed replica cold, instantly.
    fn bootstrap(&mut self) -> Result<(), ClusterError> {
        let mut delta = ClusterStats::default();
        let view = self.coordinator_view();
        let spinups = self.coordinator.plan_repairs(&view);
        for action in spinups {
            if let PlacementAction::SpinUp { service, to, .. } = action {
                let outcome = self.nodes[to.0].install_replica(service, None)?;
                debug_assert_eq!(outcome, InstallOutcome::Cold);
                self.coordinator.admit_replica(service, to)?;
                delta.spinups += 1;
                delta.activations_cold += 1;
            }
        }
        self.balancer.sync_table(self.coordinator.placement());
        for node in &mut self.nodes {
            node.sync_placement(self.coordinator.placement());
            delta.placement_syncs += 1;
        }
        self.stats.add(&delta, &self.telemetry);
        Ok(())
    }

    /// The fleet as the **coordinator** believes it to be (its liveness
    /// beliefs, its placement) — repairs must not peek at ground truth.
    fn coordinator_view(&self) -> ClusterView {
        let placement = self.coordinator.placement();
        ClusterView {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, node)| {
                    let hosted = (0..self.config.services.len())
                        .filter(|&s| placement.hosts(s, NodeId(i)))
                        .count();
                    NodeView {
                        id: NodeId(i),
                        alive: self.coordinator.believed_alive()[i],
                        cores: node.platform().cores,
                        max_freq_mhz: node.platform().dvfs.max().mhz(),
                        hosted_replicas: hosted,
                    }
                })
                .collect(),
        }
    }

    /// Lifetime control-plane counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Lifetime federation counters (all zero until
    /// [`Cluster::enable_federation`] is called).
    pub fn fed_stats(&self) -> &FedStats {
        &self.fed_stats
    }

    /// Whether no federation round is mid-collection: every requested
    /// payload has been resolved, so the [`FedStats`] screening-ladder
    /// books balance exactly. Always true when federation is disabled.
    pub fn federation_idle(&self) -> bool {
        self.federation.as_ref().is_none_or(FederationPlane::idle)
    }

    /// Turns on the federated learning plane. Rounds start at the next
    /// multiple of the configured period. Without this call the cluster
    /// behaves bit-identically to a federation-free build.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for invalid federation
    /// knobs or when federation is already enabled.
    pub fn enable_federation(
        &mut self,
        config: FederateConfig,
        plan: FedFaultPlan,
    ) -> Result<(), ClusterError> {
        if self.federation.is_some() {
            return Err(ClusterError::invalid("federation already enabled"));
        }
        self.federation = Some(FederationPlane::new(
            config,
            plan,
            self.config.services.len(),
            self.epoch,
        )?);
        Ok(())
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The coordinator's authoritative placement.
    pub fn placement(&self) -> &ServicePlacement {
        self.coordinator.placement()
    }

    /// Epochs from crash to balancer suspicion, one entry per detected
    /// failover, in detection order.
    pub fn failover_latencies(&self) -> &[u64] {
        &self.failover_latencies
    }

    /// The nodes (read-only).
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Per-service balancer backlog.
    pub fn backlog(&self) -> &[u64] {
        self.balancer.backlog()
    }

    /// Updates one service's offered load for subsequent epochs. The
    /// scenario engine uses this to drive time-varying cluster demand
    /// (ramps, bursts, flash crowds) through the balancer.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] when `service` is out of
    /// range.
    pub fn set_demand(&mut self, service: usize, rps: u64) -> Result<(), ClusterError> {
        if service >= self.config.services.len() {
            return Err(ClusterError::InvalidConfig {
                detail: format!(
                    "set_demand service {service} out of range ({} services)",
                    self.config.services.len()
                ),
            });
        }
        self.config.demand_rps[service] = rps;
        Ok(())
    }

    fn alive_mask(&self) -> Vec<bool> {
        self.nodes.iter().map(ClusterNode::is_alive).collect()
    }

    /// Runs one cluster epoch. See the module docs for the phase order.
    ///
    /// # Errors
    ///
    /// Propagates node/simulator errors; the chaos ladder itself never
    /// errors.
    pub fn step(&mut self) -> Result<ClusterEpochReport, ClusterError> {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut delta = ClusterStats {
            epochs: 1,
            ..ClusterStats::default()
        };

        // 1. Draw this epoch's faults.
        let faults = self.fault_plan.epoch_events(epoch, &self.alive_mask());

        // 2. Crashes.
        for &n in &faults.crashes {
            if n < self.nodes.len() && self.nodes[n].is_alive() {
                self.nodes[n].crash();
                self.crashed_at[n] = Some(epoch);
                self.pending_failover.insert(n, epoch);
                delta.crashes += 1;
            }
        }

        // 3. Reboots: scripted, plus automatic after `restart_after_epochs`.
        let auto_after = self.fault_plan.config().restart_after_epochs;
        for n in 0..self.nodes.len() {
            let scripted = faults.restarts.contains(&n);
            let auto_due =
                auto_after > 0 && self.crashed_at[n].is_some_and(|at| epoch >= at + auto_after);
            if (scripted || auto_due) && !self.nodes[n].is_alive() {
                self.nodes[n].restart()?;
                self.crashed_at[n] = None;
                // Crash healed before the balancer ever noticed: no
                // failover will fire for it.
                self.pending_failover.remove(&n);
                delta.restarts += 1;
            }
        }

        // 4. Blackout / partition countdowns (new windows extend old).
        if faults.blackout_epochs > 0 {
            self.blackout_left = self.blackout_left.max(faults.blackout_epochs);
        }
        for &(n, epochs) in &faults.partitions {
            if n < self.partition_left.len() {
                self.partition_left[n] = self.partition_left[n].max(epochs);
            }
        }
        let blackout = self.blackout_left > 0;
        if blackout {
            delta.blackout_epochs += 1;
        }
        for n in 0..self.nodes.len() {
            if self.partition_left[n] > 0 {
                delta.partition_node_epochs += 1;
            }
        }

        // 5. Heartbeats on the two independent channels.
        let hb_balancer: Vec<bool> = (0..self.nodes.len())
            .map(|n| self.nodes[n].is_alive() && !faults.heartbeat_drop[n])
            .collect();
        let hb_coord: Vec<bool> = (0..self.nodes.len())
            .map(|n| hb_balancer[n] && self.partition_left[n] == 0)
            .collect();
        delta.heartbeat_misses += hb_balancer.iter().filter(|&&ok| !ok).count() as u64;
        for suspect in self.balancer.observe_heartbeats(&hb_balancer) {
            delta.failovers += 1;
            if let Some(crashed) = self.pending_failover.remove(&suspect.0) {
                self.failover_latencies.push(epoch - crashed);
            }
        }

        // 6. Coordinator phase — skipped wholesale during a blackout.
        if !blackout {
            self.coordinator.record_heartbeats(&hb_coord);

            // Scripted planned migrations.
            for &(service, from, to) in &faults.migrations {
                let valid = service < self.config.services.len()
                    && from < self.nodes.len()
                    && to < self.nodes.len()
                    && self.nodes[from].has_replica(service)
                    && self.nodes[to].is_alive()
                    && !self.coordinator.placement().hosts(service, NodeId(to))
                    && !self
                        .coordinator
                        .migrations()
                        .iter()
                        .any(|m| m.service == service && m.to == NodeId(to));
                if valid {
                    let payload = self.nodes[from].checkpoint_of(service);
                    self.coordinator.begin_transfer(
                        service,
                        NodeId(to),
                        Some(NodeId(from)),
                        payload,
                        true,
                    );
                    delta.migrations_started += 1;
                }
            }

            // Repair planning against the coordinator's beliefs.
            let view = self.coordinator_view();
            for action in self.coordinator.plan_repairs(&view) {
                if let PlacementAction::SpinUp { service, to, from } = action {
                    // The believed-alive donor may actually be dead; its
                    // checkpoint is then unavailable and the spin-up goes
                    // cold — exactly what a real coordinator would see.
                    let payload = from.and_then(|f| self.nodes[f.0].checkpoint_of(service));
                    self.coordinator
                        .begin_transfer(service, to, from, payload, false);
                    delta.spinups += 1;
                }
            }

            // Advance transfers, with the fault plan deciding stalls.
            let fault_plan = &mut self.fault_plan;
            let events = self
                .coordinator
                .advance_transfers(|| fault_plan.stall_draw());
            let mut ready = Vec::new();
            for ev in events {
                match ev {
                    TransferEvent::Stalled { .. } => delta.transfer_stalls += 1,
                    TransferEvent::RolledBack { .. } => delta.transfer_rollbacks += 1,
                    TransferEvent::Downgraded { .. } => delta.transfer_downgrades += 1,
                    TransferEvent::Ready { id } => ready.push(id),
                    TransferEvent::Progressed { .. } => {}
                }
            }

            // Handoffs: install on the target, commit or retry.
            for id in ready {
                let Some(migration) = self.coordinator.take_handoff(id) else {
                    continue;
                };
                let to = migration.to;
                if !self.nodes[to.0].is_alive() {
                    self.coordinator
                        .resolve_handoff(migration, HandoffResult::TargetDead)?;
                    continue;
                }
                let payload = match &migration.payload {
                    Some(bytes) => {
                        let mut delivered = bytes.clone();
                        if self.fault_plan.corrupt_draw() {
                            // Damage one byte mid-payload; the codec's
                            // CRC32 footer catches it at validation.
                            let at = delivered.len() / 2;
                            if let Some(b) = delivered.get_mut(at) {
                                *b ^= 0xFF;
                            }
                            delta.transfer_corruptions += 1;
                        }
                        Some(delivered)
                    }
                    None => None,
                };
                if let Some(bytes) = &payload {
                    if validate_checkpoint_bytes(bytes).is_err() {
                        delta.transfer_rollbacks += 1;
                        let downgraded = self
                            .coordinator
                            .resolve_handoff(migration, HandoffResult::CorruptPayload)?;
                        if downgraded {
                            delta.transfer_downgrades += 1;
                        }
                        continue;
                    }
                }
                let outcome =
                    self.nodes[to.0].install_replica(migration.service, payload.as_deref())?;
                match outcome {
                    InstallOutcome::Restored => delta.activations_restored += 1,
                    InstallOutcome::Cold => delta.activations_cold += 1,
                    InstallOutcome::ColdFallback => delta.activations_cold_fallback += 1,
                }
                self.coordinator
                    .resolve_handoff(migration, HandoffResult::Installed)?;
                delta.migrations_completed += 1;
            }
        }

        // 7. Placement sync to every coordinator-reachable live node, and
        //    to the balancer's routing table.
        if !blackout {
            let placement = self.coordinator.placement();
            for n in 0..self.nodes.len() {
                if self.nodes[n].is_alive() && self.partition_left[n] == 0 {
                    let before = self.nodes[n].synced_generation();
                    delta.decommissions += self.nodes[n].sync_placement(placement);
                    if self.nodes[n].synced_generation() != before {
                        delta.placement_syncs += 1;
                    }
                }
            }
            self.balancer.sync_table(placement);
        }

        // 8. Route this epoch's traffic. Capacity is the balancer's
        //    *belief* — any listed replica can absorb one replica's
        //    reference load — while `reachable` is ground truth, so
        //    traffic aimed at a just-died replica genuinely bounces and
        //    re-routes the same epoch.
        let services = self.config.services.len();
        let cap: Vec<Vec<u64>> = (0..self.nodes.len())
            .map(|_| {
                (0..services)
                    .map(|s| self.config.services[s].max_load_rps as u64)
                    .collect()
            })
            .collect();
        let reachable: Vec<Vec<bool>> = self
            .nodes
            .iter()
            .map(|node| (0..services).map(|s| node.has_replica(s)).collect())
            .collect();
        let routing = self
            .balancer
            .route(&self.config.demand_rps, &cap, &reachable)?;
        delta.routed_rps += routing.routed;
        delta.bounced_rps += routing.bounced;
        delta.deferred_rps += routing.deferred;
        delta.double_route_guards += routing.double_route_guards;
        if !routing.conserved {
            delta.conservation_failures += 1;
        }

        // 9. Autonomy and staleness accounting.
        let generation = self.coordinator.placement().generation();
        let mut autonomous_nodes = 0;
        for n in 0..self.nodes.len() {
            if !self.nodes[n].is_alive() {
                continue;
            }
            let coord_reachable = !blackout && self.partition_left[n] == 0;
            if coord_reachable {
                if self.nodes[n].synced_generation() != generation {
                    delta.stale_actuations += 1;
                }
            } else if self.nodes[n].replica_count() > 0 {
                delta.autonomous_epochs += 1;
                autonomous_nodes += 1;
            }
        }

        // 10. Serve the epoch on every live server.
        let mut per_service: Vec<ClusterServiceEpoch> = self
            .config
            .services
            .iter()
            .enumerate()
            .map(|(s, spec)| ClusterServiceEpoch {
                name: spec.name.clone(),
                routed_rps: (0..self.nodes.len()).map(|n| routing.per_node[n][s]).sum(),
                worst_p99_ms: 0.0,
                qos_met: true,
                active_replicas: 0,
            })
            .collect();
        for n in 0..self.nodes.len() {
            if !self.nodes[n].is_alive() {
                continue;
            }
            let report = self.nodes[n].serve_epoch(&routing.per_node[n], epoch)?;
            for (s, svc) in per_service.iter_mut().enumerate() {
                if self.nodes[n].has_replica(s) {
                    svc.active_replicas += 1;
                }
                if routing.per_node[n][s] > 0 {
                    let p99 = report.services[s].p99_ms;
                    svc.worst_p99_ms = svc.worst_p99_ms.max(p99);
                    if p99 > self.config.services[s].qos_ms {
                        svc.qos_met = false;
                    }
                }
            }
        }

        // 10b. Federation round step. Runs after serving so a round
        //      exchanges this epoch's post-training weights; the plane
        //      aborts in-flight rounds during a blackout and skips
        //      partitioned nodes on both the contribute and receive
        //      sides.
        if self.federation.is_some() {
            let mut fed_delta = FedStats::default();
            if let Some(plane) = self.federation.as_mut() {
                plane.step(
                    epoch,
                    blackout,
                    &self.partition_left,
                    &mut self.nodes,
                    &mut fed_delta,
                )?;
            }
            self.fed_stats.add(&fed_delta, &self.telemetry);
        }

        // 11. Tick down windows, commit stats, assemble the report.
        self.blackout_left = self.blackout_left.saturating_sub(1);
        for left in &mut self.partition_left {
            *left = left.saturating_sub(1);
        }
        self.stats.add(&delta, &self.telemetry);
        Ok(ClusterEpochReport {
            epoch,
            routed_rps: routing.routed,
            bounced_rps: routing.bounced,
            deferred_rps: routing.deferred,
            backlog_rps: self.balancer.backlog().iter().sum(),
            conserved: routing.conserved,
            live_nodes: self.nodes.iter().filter(|n| n.is_alive()).count(),
            total_replicas: self.nodes.iter().map(ClusterNode::replica_count).sum(),
            placement_generation: generation,
            services: per_service,
            autonomous_nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ClusterEvent, ClusterFaultConfig, ScriptedEvent};
    use twig_sim::{catalog, DvfsLadder};

    fn platform(cores: usize) -> NodePlatform {
        NodePlatform {
            cores,
            dvfs: DvfsLadder::default(),
        }
    }

    fn config(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: (0..nodes).map(|_| platform(18)).collect(),
            services: vec![catalog::masstree(), catalog::xapian()],
            demand_rps: vec![1200, 900],
            replication: 2,
            suspect_after_misses: 2,
            coordinator: CoordinatorConfig {
                spinup_epochs: 1,
                ..CoordinatorConfig::default()
            },
            tuning: AgentTuning {
                learn_epochs: 20,
                ..AgentTuning::default()
            },
            seed: 42,
        }
    }

    fn cluster_with(faults: ClusterFaultConfig, nodes: usize) -> Cluster {
        Cluster::new(
            config(nodes),
            ClusterFaultPlan::new(faults, 42).unwrap(),
            Telemetry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn bootstrap_places_replication_factor_everywhere() {
        let c = cluster_with(ClusterFaultConfig::default(), 3);
        for s in 0..2 {
            assert_eq!(c.placement().replicas(s).len(), 2);
        }
        assert_eq!(c.stats().activations_cold, 4);
        assert_eq!(
            c.nodes()
                .iter()
                .map(ClusterNode::replica_count)
                .sum::<usize>(),
            4
        );
    }

    #[test]
    fn calm_epochs_route_everything_and_meet_conservation() {
        let mut c = cluster_with(ClusterFaultConfig::default(), 3);
        for _ in 0..5 {
            let r = c.step().unwrap();
            assert!(r.conserved);
            assert_eq!(r.routed_rps, 1200 + 900);
            assert_eq!(r.deferred_rps, 0);
            assert_eq!(r.bounced_rps, 0);
        }
        assert_eq!(c.stats().stale_actuations, 0);
        assert_eq!(c.stats().conservation_failures, 0);
    }

    #[test]
    fn crash_bounces_then_fails_over_and_repairs() {
        let faults = ClusterFaultConfig {
            scripted: vec![ScriptedEvent {
                epoch: 3,
                event: ClusterEvent::Crash { node: 0 },
            }],
            ..ClusterFaultConfig::default()
        };
        let mut c = cluster_with(faults, 3);
        let hosted_on_0: usize = (0..2)
            .filter(|&s| c.placement().hosts(s, NodeId(0)))
            .count();
        assert!(hosted_on_0 > 0, "test needs node 0 to host something");
        for _ in 0..12 {
            let r = c.step().unwrap();
            assert!(r.conserved);
        }
        assert_eq!(c.stats().crashes, 1);
        assert_eq!(c.stats().failovers, 1);
        assert_eq!(c.failover_latencies().len(), 1);
        // Detection is bounded by the suspicion threshold.
        assert!(c.failover_latencies()[0] <= 2);
        // Repair replaced the lost replicas on the survivors.
        for s in 0..2 {
            assert_eq!(c.placement().replicas(s).len(), 2);
            assert!(!c.placement().hosts(s, NodeId(0)));
        }
        assert_eq!(c.stats().stale_actuations, 0);
    }

    #[test]
    fn blackout_freezes_control_plane_but_serving_continues() {
        let faults = ClusterFaultConfig {
            scripted: vec![ScriptedEvent {
                epoch: 2,
                event: ClusterEvent::Blackout { epochs: 4 },
            }],
            ..ClusterFaultConfig::default()
        };
        let mut c = cluster_with(faults, 3);
        let gen_before = c.placement().generation();
        let mut autonomous_seen = 0;
        for _ in 0..6 {
            let r = c.step().unwrap();
            assert!(r.conserved);
            assert!(r.routed_rps > 0, "fleet serves through the blackout");
            autonomous_seen += r.autonomous_nodes;
        }
        assert_eq!(c.stats().blackout_epochs, 4);
        assert!(autonomous_seen > 0);
        assert_eq!(c.placement().generation(), gen_before);
        assert_eq!(c.stats().stale_actuations, 0);
    }

    #[test]
    fn partitioned_node_serves_autonomously_and_resyncs() {
        let faults = ClusterFaultConfig {
            scripted: vec![ScriptedEvent {
                epoch: 2,
                event: ClusterEvent::Partition { node: 1, epochs: 3 },
            }],
            ..ClusterFaultConfig::default()
        };
        let mut c = cluster_with(faults, 3);
        for _ in 0..8 {
            let r = c.step().unwrap();
            assert!(r.conserved);
        }
        assert_eq!(c.stats().partition_node_epochs, 3);
        assert!(c.stats().autonomous_epochs > 0);
        // After the window the node resynced to the live generation.
        assert_eq!(c.nodes()[1].synced_generation(), c.placement().generation());
        assert_eq!(c.stats().stale_actuations, 0);
    }

    #[test]
    fn scripted_migration_transfers_state_and_decommissions_donor() {
        let base = cluster_with(ClusterFaultConfig::default(), 3);
        // Find a (service, donor) pair and an empty target.
        let service = 0;
        let donor = base.placement().replicas(service)[0];
        let target = (0..3)
            .map(NodeId)
            .find(|n| !base.placement().hosts(service, *n))
            .unwrap();
        drop(base);
        let faults = ClusterFaultConfig {
            scripted: vec![ScriptedEvent {
                epoch: 2,
                event: ClusterEvent::Migrate {
                    service,
                    from: donor.0,
                    to: target.0,
                },
            }],
            ..ClusterFaultConfig::default()
        };
        let mut c = cluster_with(faults, 3);
        for _ in 0..20 {
            c.step().unwrap();
        }
        assert_eq!(c.stats().migrations_started, 1);
        assert!(c.stats().migrations_completed >= 1);
        assert_eq!(
            c.stats().activations_restored,
            1,
            "same-shape transfer restores"
        );
        assert!(c.placement().hosts(service, target));
        assert!(!c.placement().hosts(service, donor));
    }

    #[test]
    fn full_run_is_deterministic() {
        let faults = ClusterFaultConfig {
            crash_rate: 0.02,
            restart_after_epochs: 6,
            heartbeat_loss_rate: 0.05,
            partition_rate: 0.02,
            partition_epochs: 3,
            blackout_rate: 0.01,
            blackout_epochs: 3,
            migration_stall_rate: 0.3,
            migration_corrupt_rate: 0.3,
            ..ClusterFaultConfig::default()
        };
        let run = || {
            let mut c = cluster_with(faults.clone(), 4);
            let mut digest = Vec::new();
            for _ in 0..30 {
                let r = c.step().unwrap();
                digest.push((
                    r.routed_rps,
                    r.bounced_rps,
                    r.live_nodes,
                    r.total_replicas,
                    r.placement_generation,
                ));
            }
            (digest, *c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn invalid_configs_rejected() {
        for bad in [
            ClusterConfig::default(),
            ClusterConfig {
                demand_rps: vec![1],
                ..config(2)
            },
            ClusterConfig {
                replication: 0,
                ..config(2)
            },
            ClusterConfig {
                suspect_after_misses: 0,
                ..config(2)
            },
        ] {
            assert!(matches!(
                Cluster::new(bad, ClusterFaultPlan::disabled(), Telemetry::disabled()),
                Err(ClusterError::InvalidConfig { .. })
            ));
        }
    }
}
