//! Serving a fleet's nodes on two threads.
//!
//! The servers of a fleet share nothing while they serve an epoch, so
//! [`Cluster::step`](crate::Cluster::step) hands the upper half of its
//! nodes to the shared persistent [`Helper`] and serves the lower half
//! itself ([`serve_split`]). Both halves run [`serve_nodes`], the one serve
//! loop, and the reports come back in node order, so a step is
//! bit-identical to serving every node on one thread. On a machine with one
//! CPU there is no helper and the caller runs the same loop over every
//! node. DESIGN.md §18 has the handoff, the wait policy and the error order.

use crate::node::ClusterNode;
use crate::ClusterError;
use twig_sim::EpochReport;
use twig_stats::helper::{Helper, Job};

/// One epoch's reports, one entry per node in node order: `None` for a
/// node that is down.
pub(crate) type Reports = Vec<Option<EpochReport>>;

/// Serves one epoch on every live node of `nodes`, node `i` taking
/// `routes[i]` requests per second per service. `reports` is cleared and
/// then gets one entry per node; the loop stops at the first error.
///
/// # Errors
///
/// The first [`ClusterNode::serve_epoch`] error.
pub(crate) fn serve_nodes(
    nodes: &mut [ClusterNode],
    routes: &[Vec<u64>],
    epoch: u64,
    reports: &mut Reports,
) -> Result<(), ClusterError> {
    reports.clear();
    for (node, routed) in nodes.iter_mut().zip(routes) {
        let report = if node.is_alive() {
            Some(node.serve_epoch(routed, epoch)?)
        } else {
            None
        };
        reports.push(report);
    }
    Ok(())
}

// The helper moves nodes, and the clocks and telemetry handles inside
// them, between threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<ClusterNode>();
    send::<twig_core::SimClock>();
    send::<twig_telemetry::Telemetry>();
};

/// The helper's half of an epoch. Its vectors keep their capacity from
/// epoch to epoch.
pub(crate) struct Serve {
    nodes: Vec<ClusterNode>,
    routes: Vec<Vec<u64>>,
    epoch: u64,
    reports: Reports,
    served: Result<(), ClusterError>,
}

impl Job for Serve {
    fn run(&mut self) {
        self.served = serve_nodes(&mut self.nodes, &self.routes, self.epoch, &mut self.reports);
    }
}

/// Starts a cluster's serve helper, or returns `None` when this process
/// can run only one thread at a time.
pub(crate) fn spawn() -> Option<Helper<Serve>> {
    let job = Serve {
        nodes: Vec::new(),
        routes: Vec::new(),
        epoch: 0,
        reports: Reports::new(),
        served: Ok(()),
    };
    Helper::spawn("twig-serve", job)
}

/// [`serve_nodes`] over all of `nodes`, with `nodes[n/2..]` served on the
/// helper while this thread serves `nodes[..n/2]`. Returns with every node
/// back in place and, on success, one report per node in node order.
///
/// # Errors
///
/// The lower half's error if it has one, else the upper half's. The upper
/// half serves even when the lower half fails.
///
/// # Panics
///
/// Resumes a panic of either half, after both are done and the nodes are
/// back.
pub(crate) fn serve_split(
    helper: &mut Helper<Serve>,
    nodes: &mut Vec<ClusterNode>,
    routes: &[Vec<u64>],
    epoch: u64,
    reports: &mut Reports,
) -> Result<(), ClusterError> {
    let half = nodes.len() / 2;
    let (mine, theirs) = routes.split_at(half);
    {
        let mut job = helper.job();
        job.nodes.extend(nodes.drain(half..));
        job.routes.resize_with(theirs.len(), Vec::new);
        for (row, routed) in job.routes.iter_mut().zip(theirs) {
            row.clone_from(routed);
        }
        job.epoch = epoch;
    }
    let served = helper.run(|| serve_nodes(nodes, mine, epoch, reports));
    let mut job = helper.job();
    nodes.append(&mut job.nodes);
    reports.append(&mut job.reports);
    let theirs = std::mem::replace(&mut job.served, Ok(()));
    drop(job);
    served.resume().and(theirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AgentTuning, Cluster, ClusterConfig, ClusterEpochReport, ClusterEvent, ClusterFaultConfig,
        ClusterFaultPlan, ClusterStats, CoordinatorConfig, FedFaultConfig, FedFaultPlan, FedStats,
        FederateConfig, NodePlatform, ScriptedEvent,
    };
    use std::panic::{self, AssertUnwindSafe};
    use twig_core::NodeId;
    use twig_sim::{catalog, DvfsLadder, ServiceSpec};
    use twig_stats::helper::two_cpus;
    use twig_telemetry::Telemetry;

    fn services() -> Vec<ServiceSpec> {
        vec![catalog::masstree(), catalog::xapian()]
    }

    /// 18-core sockets, the last one a 12-core socket with a short ladder.
    fn platform(i: usize, n: usize) -> NodePlatform {
        if i + 1 == n {
            NodePlatform {
                cores: 12,
                dvfs: DvfsLadder::new(1200, 100, 7).unwrap(),
            }
        } else {
            NodePlatform {
                cores: 18,
                dvfs: DvfsLadder::default(),
            }
        }
    }

    fn build(seed: u64, n: usize, faults: ClusterFaultConfig) -> Cluster {
        let config = ClusterConfig {
            nodes: (0..n).map(|i| platform(i, n)).collect(),
            services: services(),
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
            seed,
        };
        let plan = ClusterFaultPlan::new(faults, seed).unwrap();
        Cluster::new(config, plan, Telemetry::disabled()).unwrap()
    }

    /// Crashes, partitions, a blackout, two scripted migrations, and
    /// federation rounds that Byzantine and corrupt payloads attack.
    fn chaotic(seed: u64, n: usize) -> Cluster {
        let at = |epoch, event| ScriptedEvent { epoch, event };
        let faults = ClusterFaultConfig {
            crash_rate: 0.03,
            restart_after_epochs: 4,
            heartbeat_loss_rate: 0.05,
            partition_rate: 0.03,
            partition_epochs: 3,
            migration_stall_rate: 0.2,
            migration_corrupt_rate: 0.2,
            scripted: vec![
                at(9, ClusterEvent::Blackout { epochs: 3 }),
                at(
                    14,
                    ClusterEvent::Migrate {
                        service: 0,
                        from: 0,
                        to: n - 1,
                    },
                ),
                at(
                    20,
                    ClusterEvent::Migrate {
                        service: 1,
                        from: n - 1,
                        to: 0,
                    },
                ),
            ],
            ..ClusterFaultConfig::default()
        };
        let mut cluster = build(seed, n, faults);
        let fed_faults = FedFaultConfig {
            byzantine_rate: 0.3,
            corrupt_rate: 0.1,
            ..FedFaultConfig::default()
        };
        cluster
            .enable_federation(
                FederateConfig {
                    round_period: 5,
                    ..FederateConfig::default()
                },
                FedFaultPlan::new(fed_faults, seed).unwrap(),
            )
            .unwrap();
        cluster
    }

    #[derive(Debug, PartialEq)]
    struct Run {
        reports: Vec<ClusterEpochReport>,
        stats: ClusterStats,
        fed: FedStats,
        /// Every node's `checkpoint_of` bytes per service at the end.
        checkpoints: Vec<Option<Vec<u8>>>,
    }

    fn run(seed: u64, n: usize, serial: bool) -> Run {
        let mut cluster = chaotic(seed, n);
        if serial {
            cluster.serve_serially();
        }
        let reports = (0..40).map(|_| cluster.step().unwrap()).collect();
        assert_eq!(cluster.serve_helper().is_some(), !serial && two_cpus());
        let checkpoints = cluster
            .nodes()
            .iter()
            .flat_map(|node| (0..services().len()).map(|s| node.checkpoint_of(s)))
            .collect();
        Run {
            reports,
            stats: *cluster.stats(),
            fed: *cluster.fed_stats(),
            checkpoints,
        }
    }

    #[test]
    fn threaded_steps_equal_serial_steps() {
        let (mut stats, mut fed) = (ClusterStats::default(), FedStats::default());
        for seed in 1..=8 {
            for n in [2, 3, 8] {
                let serial = run(seed, n, true);
                assert_eq!(run(seed, n, false), serial, "seed {seed}, {n} nodes");
                stats.add(&serial.stats, &Telemetry::disabled());
                fed.add(&serial.fed, &Telemetry::disabled());
            }
        }
        // The runs exercised what they claim to.
        assert!(stats.crashes > 0 && stats.restarts > 0);
        assert!(stats.partition_node_epochs > 0 && stats.blackout_epochs > 0);
        assert!(stats.migrations_started > 0 && stats.transfer_corruptions > 0);
        assert!(fed.rounds_committed > 0 && fed.rejected_divergent > 0);
    }

    #[test]
    fn a_panic_on_the_helper_surfaces_from_step_with_the_nodes_back() {
        let mut cluster = build(3, 3, ClusterFaultConfig::default());
        cluster.step().unwrap();
        assert_eq!(cluster.serve_helper().is_some(), two_cpus());
        // Nodes 1 and 2 are the helper's half.
        cluster.node_mut(2).inject_serve_panic();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| cluster.step())).unwrap_err();
        let message = caught.downcast_ref::<String>().unwrap();
        assert!(
            message.contains("injected serve panic on node2"),
            "{message}"
        );
        assert_eq!(cluster.nodes().len(), 3, "the nodes came back");
    }

    #[test]
    fn the_lower_half_error_wins_and_the_upper_half_still_serves() {
        let Some(mut helper) = spawn() else {
            return;
        };
        let mut nodes: Vec<ClusterNode> = (0..4)
            .map(|i| {
                let tuning = AgentTuning::default();
                ClusterNode::new(NodeId(i), platform(i, 4), services(), tuning, 9).unwrap()
            })
            .collect();
        // Nodes 0 and 3 get rows of the wrong length.
        let routes = vec![vec![0], vec![0, 0], vec![0, 0], vec![0, 0, 0]];
        let mut reports = Reports::new();
        let err = serve_split(&mut helper, &mut nodes, &routes, 1, &mut reports).unwrap_err();
        assert!(err.to_string().contains("routed len 1"), "{err}");
        let served: Vec<u64> = nodes.iter().map(|n| n.scheduler_stats().epochs).collect();
        assert_eq!(served, [0, 0, 1, 0]);
        assert_eq!(
            nodes.iter().map(|n| n.id().0).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }
}
