//! Serving a fleet's nodes on two threads.
//!
//! The servers of a fleet share nothing while they serve an epoch, so
//! [`Cluster::step`](crate::Cluster::step) hands the upper half of its
//! nodes to one persistent [`ServeWorker`] and serves the lower half
//! itself. Both halves run [`serve_nodes`], the one serve loop, and the
//! reports come back in node order, so a step is bit-identical to serving
//! every node on one thread. On a machine with one CPU there is no worker
//! and the caller runs the same loop over every node. DESIGN.md §18 has
//! the handoff, the wait policy and the error order.

use std::fmt;
use std::hint::spin_loop;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::node::ClusterNode;
use crate::ClusterError;
use twig_sim::EpochReport;

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

// The worker moves nodes, and the clocks and telemetry handles inside
// them, between threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<ClusterNode>();
    send::<twig_core::SimClock>();
    send::<twig_telemetry::Telemetry>();
};

/// Whether this process may run two threads at once (its CPU affinity
/// counts, so `taskset -c 0` says no).
fn two_cpus() -> bool {
    thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// Busy polls before a waiting side starts to `yield_now`.
const SPINS: u32 = 1 << 10;
/// Idle polls before the worker parks until the next post.
const PARK_AFTER: u32 = 1 << 16;

/// The caller has filled the slot: the worker owns it.
const POSTED: u8 = 0;
/// The caller owns the slot: the worker has served it, or nothing was
/// posted yet.
const DONE: u8 = 1;
/// The worker returns.
const EXIT: u8 = 2;

/// What travels between the caller and the worker. Its vectors keep their
/// capacity from epoch to epoch.
#[derive(Default)]
struct Slot {
    nodes: Vec<ClusterNode>,
    routes: Vec<Vec<u64>>,
    epoch: u64,
    reports: Reports,
    /// The worker's serve result; the outer `Err` carries a panic.
    outcome: Option<thread::Result<Result<(), ClusterError>>>,
}

struct Shared {
    /// Whose turn the slot is. Stores are `Release` and loads `Acquire`,
    /// though the slot's mutex already publishes its contents.
    phase: AtomicU8,
    slot: Mutex<Slot>,
    /// Times the worker has parked.
    #[cfg(test)]
    parks: std::sync::atomic::AtomicU32,
}

/// Locks the slot. Both sides catch the panics of a serve, so the lock is
/// never poisoned while it holds a half-written slot.
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent thread that serves the upper half of a cluster's nodes
/// each epoch. Joined on drop.
pub(crate) struct ServeWorker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for ServeWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeWorker").finish_non_exhaustive()
    }
}

impl ServeWorker {
    /// Starts the worker, or returns `None` when this process can run only
    /// one thread at a time or the spawn fails. The caller then serves
    /// every node itself.
    pub(crate) fn spawn() -> Option<Self> {
        if !two_cpus() {
            return None;
        }
        let shared = Arc::new(Shared {
            phase: AtomicU8::new(DONE),
            slot: Mutex::new(Slot::default()),
            #[cfg(test)]
            parks: Default::default(),
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("twig-serve".into())
            .spawn(move || run(&theirs))
            .ok()?;
        Some(ServeWorker {
            shared,
            thread: Some(thread),
        })
    }

    /// [`serve_nodes`] over all of `nodes`, with `nodes[n/2..]` served on
    /// the worker while this thread serves `nodes[..n/2]`. Returns with
    /// every node back in place and, on success, one report per node in
    /// node order.
    ///
    /// # Errors
    ///
    /// The lower half's error if it has one, else the upper half's. The
    /// upper half serves even when the lower half fails.
    ///
    /// # Panics
    ///
    /// Resumes a panic of either half, after the worker is done.
    pub(crate) fn serve(
        &mut self,
        nodes: &mut Vec<ClusterNode>,
        routes: &[Vec<u64>],
        epoch: u64,
        reports: &mut Reports,
    ) -> Result<(), ClusterError> {
        let half = nodes.len() / 2;
        let (mine, theirs) = routes.split_at(half);
        {
            let mut slot = lock(&self.shared.slot);
            slot.nodes.extend(nodes.drain(half..));
            slot.routes.resize_with(theirs.len(), Vec::new);
            for (row, routed) in slot.routes.iter_mut().zip(theirs) {
                row.clone_from(routed);
            }
            slot.epoch = epoch;
        }
        self.shared.phase.store(POSTED, Ordering::Release);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_nodes(nodes, mine, epoch, reports)
        }));
        let mut polls = 0u32;
        while self.shared.phase.load(Ordering::Acquire) != DONE {
            if polls < SPINS {
                polls += 1;
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
        let mut slot = lock(&self.shared.slot);
        nodes.append(&mut slot.nodes);
        reports.append(&mut slot.reports);
        let outcome = slot
            .outcome
            .take()
            .expect("a done worker leaves an outcome");
        drop(slot);
        let (served, outcome) = match (served, outcome) {
            (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
            (Ok(served), Ok(outcome)) => (served, outcome),
        };
        served.and(outcome)
    }

    /// A handle that upgrades while the worker thread is running.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }

    /// Times the worker has parked so far.
    #[cfg(test)]
    pub(crate) fn parks(&self) -> u32 {
        self.shared.parks.load(Ordering::Relaxed)
    }
}

impl Drop for ServeWorker {
    fn drop(&mut self) {
        // `serve` returns only once the worker is done, so it is waiting.
        self.shared.phase.store(EXIT, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // The worker's panics were caught and resumed by `serve`.
            let _ = thread.join();
        }
    }
}

/// The worker's loop: wait for a post, serve the slot, mark it done.
fn run(shared: &Shared) {
    loop {
        let mut polls = 0u32;
        loop {
            match shared.phase.load(Ordering::Acquire) {
                POSTED => break,
                EXIT => return,
                _ => {}
            }
            polls = polls.saturating_add(1);
            if polls < SPINS {
                spin_loop();
            } else if polls < PARK_AFTER {
                thread::yield_now();
            } else {
                #[cfg(test)]
                shared.parks.fetch_add(1, Ordering::Relaxed);
                thread::park();
            }
        }
        let mut slot = lock(&shared.slot);
        let Slot {
            nodes,
            routes,
            epoch,
            reports,
            outcome,
        } = &mut *slot;
        *outcome = Some(panic::catch_unwind(AssertUnwindSafe(|| {
            serve_nodes(nodes, routes, *epoch, reports)
        })));
        drop(slot);
        shared.phase.store(DONE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AgentTuning, Cluster, ClusterConfig, ClusterEpochReport, ClusterEvent, ClusterFaultConfig,
        ClusterFaultPlan, ClusterStats, CoordinatorConfig, FedFaultConfig, FedFaultPlan, FedStats,
        FederateConfig, NodePlatform, ScriptedEvent,
    };
    use twig_core::NodeId;
    use twig_sim::{catalog, DvfsLadder, ServiceSpec};
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
        assert_eq!(cluster.serve_worker().is_some(), !serial && two_cpus());
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
    fn a_panic_on_the_worker_surfaces_from_step() {
        let mut cluster = build(3, 3, ClusterFaultConfig::default());
        cluster.step().unwrap();
        let worker = cluster.serve_worker().map(ServeWorker::liveness);
        assert_eq!(worker.is_some(), two_cpus());
        // Nodes 1 and 2 are the worker's half.
        cluster.node_mut(2).inject_serve_panic();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| cluster.step())).unwrap_err();
        let message = caught.downcast_ref::<String>().unwrap();
        assert!(
            message.contains("injected serve panic on node2"),
            "{message}"
        );
        assert_eq!(cluster.nodes().len(), 3, "the nodes came back");
        drop(cluster);
        assert!(worker.is_none_or(|w| w.upgrade().is_none()));
    }

    #[test]
    fn a_post_wakes_a_parked_worker_and_drop_joins_it() {
        let mut cluster = build(4, 2, ClusterFaultConfig::default());
        cluster.step().unwrap();
        let Some(worker) = cluster.serve_worker() else {
            assert!(!two_cpus());
            return;
        };
        let liveness = worker.liveness();
        while worker.parks() == 0 {
            thread::yield_now();
        }
        cluster.step().unwrap();
        assert!(liveness.upgrade().is_some());
        // Parked again, the worker takes a while to wake, so only a join
        // can have let its handle go by the time `drop` returns.
        let worker = cluster.serve_worker().unwrap();
        let parks = worker.parks();
        while worker.parks() == parks {
            thread::yield_now();
        }
        drop(cluster);
        assert!(liveness.upgrade().is_none(), "drop joined the worker");
    }

    #[test]
    fn the_lower_half_error_wins_and_the_upper_half_still_serves() {
        let Some(mut worker) = ServeWorker::spawn() else {
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
        let err = worker
            .serve(&mut nodes, &routes, 1, &mut reports)
            .unwrap_err();
        assert!(err.to_string().contains("routed len 1"), "{err}");
        let served: Vec<u64> = nodes.iter().map(|n| n.scheduler_stats().epochs).collect();
        assert_eq!(served, [0, 0, 1, 0]);
        assert_eq!(
            nodes.iter().map(|n| n.id().0).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }
}
