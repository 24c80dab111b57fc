//! Cluster-level service placement: who runs which replica where.
//!
//! A Twig-D deployment shards each latency-critical service across a
//! fleet of heterogeneous servers. This module holds the *control-plane
//! vocabulary* for that sharding, independent of any particular cluster
//! runtime:
//!
//! - [`NodeId`] — a stable server identity;
//! - [`ServicePlacement`] — the generation-numbered routing truth: which
//!   nodes host a replica of each service. Every mutation bumps the
//!   generation, so a node can tell whether the placement it actuates
//!   from is current or stale;
//! - [`ClusterView`] / [`NodeView`] — the coordinator's belief about the
//!   fleet (liveness, capacity, hosted replicas) at planning time;
//! - [`PlacementPolicy`] — the pluggable planner interface, mirroring
//!   how [`TaskManager`](crate::TaskManager) abstracts the per-server
//!   agent; [`ReplicatedPlacement`] is the default implementation that
//!   maintains a fixed replication factor and repairs it after node
//!   death.
//!
//! The planner is deliberately pure: it reads a view and proposes
//! [`PlacementAction`]s; the cluster runtime (in `twig-cluster`) owns
//! execution — spin-up costs, state transfer, retries — and reports the
//! outcome back through the next view.

use crate::TwigError;
use std::fmt;

/// Stable identity of one server in the cluster.
///
/// # Examples
///
/// ```
/// use twig_core::NodeId;
///
/// let n = NodeId(2);
/// assert_eq!(n.to_string(), "node2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Generation-numbered mapping from services to the nodes hosting their
/// replicas.
///
/// The generation is the cluster's staleness fence: the coordinator bumps
/// it on every mutation and nodes record the generation they last synced.
/// A node actuating with an older generation after the coordinator has
/// moved on is, by definition, acting on a stale placement.
///
/// # Examples
///
/// ```
/// use twig_core::{NodeId, ServicePlacement};
///
/// let mut p = ServicePlacement::new(2);
/// p.add_replica(0, NodeId(0)).unwrap();
/// p.add_replica(0, NodeId(1)).unwrap();
/// assert_eq!(p.replicas(0), &[NodeId(0), NodeId(1)]);
/// assert_eq!(p.generation(), 2);
/// p.remove_replica(0, NodeId(0)).unwrap();
/// assert_eq!(p.replicas(0), &[NodeId(1)]);
/// assert_eq!(p.generation(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePlacement {
    generation: u64,
    replicas: Vec<Vec<NodeId>>,
}

impl ServicePlacement {
    /// Empty placement for `services` services at generation 0.
    pub fn new(services: usize) -> Self {
        ServicePlacement {
            generation: 0,
            replicas: vec![Vec::new(); services],
        }
    }

    /// Monotonic mutation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of services tracked.
    pub fn services(&self) -> usize {
        self.replicas.len()
    }

    /// Nodes hosting a replica of `service`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `service` is out of range.
    pub fn replicas(&self, service: usize) -> &[NodeId] {
        &self.replicas[service]
    }

    /// `true` when `node` hosts a replica of `service`.
    pub fn hosts(&self, service: usize, node: NodeId) -> bool {
        self.replicas
            .get(service)
            .is_some_and(|r| r.contains(&node))
    }

    /// Records a new replica of `service` on `node`, bumping the
    /// generation.
    ///
    /// # Errors
    ///
    /// [`TwigError::InvalidConfig`] when `service` is out of range or the
    /// node already hosts the service.
    pub fn add_replica(&mut self, service: usize, node: NodeId) -> Result<(), TwigError> {
        let slot = self
            .replicas
            .get_mut(service)
            .ok_or_else(|| TwigError::InvalidConfig {
                detail: format!("service {service} out of range"),
            })?;
        if slot.contains(&node) {
            return Err(TwigError::InvalidConfig {
                detail: format!("{node} already hosts service {service}"),
            });
        }
        slot.push(node);
        self.generation += 1;
        Ok(())
    }

    /// Removes the replica of `service` on `node`, bumping the
    /// generation.
    ///
    /// # Errors
    ///
    /// [`TwigError::InvalidConfig`] when `service` is out of range or the
    /// node does not host it.
    pub fn remove_replica(&mut self, service: usize, node: NodeId) -> Result<(), TwigError> {
        let slot = self
            .replicas
            .get_mut(service)
            .ok_or_else(|| TwigError::InvalidConfig {
                detail: format!("service {service} out of range"),
            })?;
        let at = slot
            .iter()
            .position(|&n| n == node)
            .ok_or_else(|| TwigError::InvalidConfig {
                detail: format!("{node} does not host service {service}"),
            })?;
        slot.remove(at);
        self.generation += 1;
        Ok(())
    }

    /// Drops every replica placed on `node` (a declared-dead server),
    /// returning the services that lost one. Bumps the generation once
    /// if anything changed.
    pub fn evict_node(&mut self, node: NodeId) -> Vec<usize> {
        let mut lost = Vec::new();
        for (service, slot) in self.replicas.iter_mut().enumerate() {
            if let Some(at) = slot.iter().position(|&n| n == node) {
                slot.remove(at);
                lost.push(service);
            }
        }
        if !lost.is_empty() {
            self.generation += 1;
        }
        lost
    }
}

/// The coordinator's belief about one server at planning time.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Which server this describes.
    pub id: NodeId,
    /// `true` when the coordinator currently believes the server is up
    /// (heartbeats within the suspicion threshold).
    pub alive: bool,
    /// Physical cores on the server.
    pub cores: usize,
    /// Highest DVFS frequency in MHz — with `cores`, the capacity proxy.
    pub max_freq_mhz: u32,
    /// Replicas the placement currently assigns to this server.
    pub hosted_replicas: usize,
}

impl NodeView {
    /// Capacity proxy used for placement tie-breaking: `cores × max GHz`.
    pub fn capacity(&self) -> f64 {
        self.cores as f64 * f64::from(self.max_freq_mhz) / 1000.0
    }
}

/// Everything a [`PlacementPolicy`] may read when planning.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    /// Per-server beliefs, in [`NodeId`] order.
    pub nodes: Vec<NodeView>,
}

/// One step a placement planner asks the cluster runtime to execute.
///
/// Planning is separated from execution: spin-up cost, state transfer
/// and its failure modes (corruption, stalls, retries) live in the
/// runtime, which reflects progress back into the next [`ClusterView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementAction {
    /// Start a replica of `service` on `to`, seeding its agent from a
    /// checkpoint of the replica on `from` when a live donor exists
    /// (`None` means a cold start).
    SpinUp {
        /// Service to replicate.
        service: usize,
        /// Target server.
        to: NodeId,
        /// Live donor replica to transfer agent state from, if any.
        from: Option<NodeId>,
    },
    /// Remove the replica of `service` on `node` from the placement
    /// (typically because the server was declared dead).
    Decommission {
        /// Service losing a replica.
        service: usize,
        /// Server the replica was placed on.
        node: NodeId,
    },
}

/// A cluster-level placement planner, the control-plane analogue of
/// [`TaskManager`](crate::TaskManager).
pub trait PlacementPolicy {
    /// Short human-readable name for reports.
    fn name(&self) -> &str;

    /// Proposes repairs given the current belief and placement. Must be
    /// deterministic in its inputs: the cluster chaos suites rely on
    /// bit-identical planning across runs.
    fn plan(&mut self, view: &ClusterView, placement: &ServicePlacement) -> Vec<PlacementAction>;
}

/// Default planner: keep every service at a fixed replication factor on
/// live nodes, repairing after node death.
///
/// Deterministic rules, applied per service in index order:
///
/// 1. replicas placed on dead nodes are decommissioned;
/// 2. while live replicas are below `min(factor, live nodes)`, spin up
///    on the live node with the fewest hosted replicas that does not
///    already host the service — ties broken by larger capacity, then
///    smaller id — with the first surviving live replica as donor.
///
/// # Examples
///
/// ```
/// use twig_core::{
///     ClusterView, NodeId, NodeView, PlacementAction, PlacementPolicy, ReplicatedPlacement,
///     ServicePlacement,
/// };
///
/// let mut policy = ReplicatedPlacement::new(2);
/// let view = ClusterView {
///     nodes: (0..3)
///         .map(|i| NodeView {
///             id: NodeId(i),
///             alive: true,
///             cores: 18,
///             max_freq_mhz: 2201,
///             hosted_replicas: 0,
///         })
///         .collect(),
/// };
/// let placement = ServicePlacement::new(1);
/// let actions = policy.plan(&view, &placement);
/// // Fresh cluster: two cold spin-ups to reach the factor.
/// assert_eq!(actions.len(), 2);
/// assert!(matches!(actions[0], PlacementAction::SpinUp { from: None, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedPlacement {
    factor: usize,
}

impl ReplicatedPlacement {
    /// Planner maintaining `factor` replicas per service (minimum 1).
    pub fn new(factor: usize) -> Self {
        ReplicatedPlacement {
            factor: factor.max(1),
        }
    }

    /// Configured replication factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl PlacementPolicy for ReplicatedPlacement {
    fn name(&self) -> &str {
        "replicated"
    }

    fn plan(&mut self, view: &ClusterView, placement: &ServicePlacement) -> Vec<PlacementAction> {
        let mut actions = Vec::new();
        // Working copy of per-node replica counts so spin-ups planned for
        // one service are visible when placing the next.
        let mut hosted: Vec<usize> = view.nodes.iter().map(|n| n.hosted_replicas).collect();
        let alive = |id: NodeId| view.nodes.get(id.0).is_some_and(|n| n.alive);
        let live_count = view.nodes.iter().filter(|n| n.alive).count();

        for service in 0..placement.services() {
            let mut live: Vec<NodeId> = Vec::new();
            let mut planned_on: Vec<NodeId> = Vec::new();
            for &node in placement.replicas(service) {
                if alive(node) {
                    live.push(node);
                } else {
                    actions.push(PlacementAction::Decommission { service, node });
                    hosted[node.0] = hosted[node.0].saturating_sub(1);
                }
                planned_on.push(node);
            }

            let want = self.factor.min(live_count);
            let mut effective = live.len();
            while effective < want {
                let target = view
                    .nodes
                    .iter()
                    .filter(|n| n.alive && !planned_on.contains(&n.id))
                    .min_by(|a, b| {
                        hosted[a.id.0]
                            .cmp(&hosted[b.id.0])
                            .then(b.capacity().total_cmp(&a.capacity()))
                            .then(a.id.cmp(&b.id))
                    })
                    .map(|n| n.id);
                let Some(to) = target else { break };
                actions.push(PlacementAction::SpinUp {
                    service,
                    to,
                    from: live.first().copied(),
                });
                planned_on.push(to);
                hosted[to.0] += 1;
                effective += 1;
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(alive: &[bool], hosted: &[usize]) -> ClusterView {
        ClusterView {
            nodes: alive
                .iter()
                .zip(hosted)
                .enumerate()
                .map(|(i, (&alive, &hosted_replicas))| NodeView {
                    id: NodeId(i),
                    alive,
                    cores: if i % 2 == 0 { 18 } else { 12 },
                    max_freq_mhz: 2201,
                    hosted_replicas,
                })
                .collect(),
        }
    }

    #[test]
    fn placement_mutations_bump_generation() {
        let mut p = ServicePlacement::new(2);
        assert_eq!(p.generation(), 0);
        p.add_replica(0, NodeId(0)).unwrap();
        p.add_replica(1, NodeId(0)).unwrap();
        assert_eq!(p.generation(), 2);
        assert!(p.hosts(0, NodeId(0)));
        assert!(!p.hosts(0, NodeId(1)));
        p.remove_replica(0, NodeId(0)).unwrap();
        assert_eq!(p.generation(), 3);
        // Errors leave the generation alone.
        assert!(p.add_replica(9, NodeId(0)).is_err());
        assert!(p.remove_replica(0, NodeId(5)).is_err());
        assert!(p.add_replica(1, NodeId(0)).is_err()); // duplicate
        assert_eq!(p.generation(), 3);
    }

    #[test]
    fn evict_node_drops_all_replicas_once() {
        let mut p = ServicePlacement::new(3);
        p.add_replica(0, NodeId(1)).unwrap();
        p.add_replica(2, NodeId(1)).unwrap();
        p.add_replica(2, NodeId(0)).unwrap();
        let g = p.generation();
        assert_eq!(p.evict_node(NodeId(1)), vec![0, 2]);
        assert_eq!(p.generation(), g + 1);
        assert_eq!(p.evict_node(NodeId(1)), Vec::<usize>::new());
        assert_eq!(p.generation(), g + 1);
        assert_eq!(p.replicas(2), &[NodeId(0)]);
    }

    #[test]
    fn fresh_cluster_spins_up_to_factor() {
        let mut policy = ReplicatedPlacement::new(2);
        let v = view(&[true, true, true], &[0, 0, 0]);
        let p = ServicePlacement::new(2);
        let actions = policy.plan(&v, &p);
        assert_eq!(actions.len(), 4);
        // Cold starts, spread across nodes: capacity tie-break favors
        // node0 (18 cores), then the per-call hosted tracking pushes the
        // second replica elsewhere.
        let spun: Vec<_> = actions
            .iter()
            .map(|a| match a {
                PlacementAction::SpinUp { service, to, from } => {
                    assert!(from.is_none());
                    (*service, *to)
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            spun,
            vec![
                (0, NodeId(0)),
                (0, NodeId(2)),
                (1, NodeId(1)),
                (1, NodeId(0)),
            ]
        );
    }

    #[test]
    fn dead_node_is_decommissioned_and_replaced_with_donor() {
        let mut policy = ReplicatedPlacement::new(2);
        let mut p = ServicePlacement::new(1);
        p.add_replica(0, NodeId(0)).unwrap();
        p.add_replica(0, NodeId(1)).unwrap();
        let v = view(&[true, false, true], &[1, 1, 0]);
        let actions = policy.plan(&v, &p);
        assert_eq!(
            actions,
            vec![
                PlacementAction::Decommission {
                    service: 0,
                    node: NodeId(1),
                },
                PlacementAction::SpinUp {
                    service: 0,
                    to: NodeId(2),
                    from: Some(NodeId(0)),
                },
            ]
        );
    }

    #[test]
    fn factor_clamped_to_live_nodes() {
        let mut policy = ReplicatedPlacement::new(3);
        let v = view(&[true, false, false], &[0, 0, 0]);
        let p = ServicePlacement::new(1);
        let actions = policy.plan(&v, &p);
        // Only one live node: exactly one spin-up, no infinite loop.
        assert_eq!(
            actions,
            vec![PlacementAction::SpinUp {
                service: 0,
                to: NodeId(0),
                from: None,
            }]
        );
    }

    #[test]
    fn satisfied_placement_plans_nothing() {
        let mut policy = ReplicatedPlacement::new(2);
        let mut p = ServicePlacement::new(1);
        p.add_replica(0, NodeId(0)).unwrap();
        p.add_replica(0, NodeId(2)).unwrap();
        let v = view(&[true, true, true], &[1, 0, 1]);
        assert!(policy.plan(&v, &p).is_empty());
    }

    #[test]
    fn planning_is_deterministic() {
        let v = view(&[true, true, false], &[2, 1, 0]);
        let mut p = ServicePlacement::new(3);
        p.add_replica(0, NodeId(2)).unwrap();
        p.add_replica(1, NodeId(0)).unwrap();
        let a1 = ReplicatedPlacement::new(2).plan(&v, &p);
        let a2 = ReplicatedPlacement::new(2).plan(&v, &p);
        assert_eq!(a1, a2);
    }
}
