//! Twig-D: the fault-tolerant cluster control plane.
//!
//! This crate scales the single-server Twig stack out to a simulated
//! fleet and hardens the *distributed* failure modes the paper's
//! colocated services face in production:
//!
//! - **Replica failover** — a deterministic front-end [`LoadBalancer`]
//!   splits each service's traffic across its replicas and, on missed
//!   heartbeats, routes around dead servers within a bounded number of
//!   epochs, conserving every request (nothing dropped, nothing
//!   double-routed).
//! - **Migration retries** — the [`Coordinator`] moves replicas between
//!   heterogeneous servers using the RL checkpoint codec as the wire
//!   format; stalled or corrupted transfers roll back half-transferred
//!   state and retry under saturating exponential backoff, downgrading
//!   to a cold start when the attempt budget runs out.
//! - **Fault-tolerant federated learning** — with
//!   [`Cluster::enable_federation`] the fleet runs periodic
//!   weight-exchange rounds (checkpoint codec as wire format) behind a
//!   robustness ladder: CRC/shape/finiteness rejection, quarantine-aware
//!   exclusion, Byzantine screening, straggler quorums with saturating
//!   backoff, post-merge twin-run rollback, and blackout round-abort.
//!   [`FederateConfig`] sets the cadence, quorum, collect timeout and
//!   contributor step floor; the retry budget, backoff, screen and
//!   twin-run tolerance are fixed.
//! - **Partition-tolerant local autonomy** — every [`ClusterNode`] runs
//!   its own Twig agent, safety governor and deadline scheduler, so
//!   servers that lose the coordinator (partition or blackout) keep
//!   deciding and actuating from local state and their last-known
//!   placement, and resync when connectivity returns.
//!
//! Faults are injected by the seeded [`ClusterFaultPlan`]; a full run is
//! a pure function of `(ClusterConfig, ClusterFaultConfig, seed)`, which
//! is what lets the chaos suite assert bit-identical results at any
//! parallelism.
//!
//! # Examples
//!
//! ```
//! use twig_cluster::{
//!     AgentTuning, Cluster, ClusterConfig, ClusterFaultPlan, CoordinatorConfig, NodePlatform,
//! };
//! use twig_sim::{catalog, DvfsLadder};
//!
//! let config = ClusterConfig {
//!     nodes: vec![
//!         NodePlatform { cores: 18, dvfs: DvfsLadder::default() },
//!         NodePlatform { cores: 18, dvfs: DvfsLadder::default() },
//!     ],
//!     services: vec![catalog::masstree()],
//!     demand_rps: vec![800],
//!     replication: 2,
//!     suspect_after_misses: 2,
//!     coordinator: CoordinatorConfig::default(),
//!     tuning: AgentTuning { learn_epochs: 20, ..AgentTuning::default() },
//!     seed: 7,
//! };
//! let mut cluster = Cluster::new(
//!     config,
//!     ClusterFaultPlan::disabled(),
//!     twig_telemetry::Telemetry::disabled(),
//! )
//! .unwrap();
//! let report = cluster.step().unwrap();
//! assert!(report.conserved);
//! assert_eq!(report.routed_rps, 800);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancer;
mod cluster;
mod coordinator;
mod error;
mod fault;
mod federate;
mod node;
mod serve;

pub use balancer::{LoadBalancer, RoutingOutcome};
pub use cluster::{Cluster, ClusterConfig, ClusterEpochReport, ClusterServiceEpoch, ClusterStats};
pub use coordinator::{Coordinator, CoordinatorConfig, HandoffResult, Migration, TransferEvent};
pub use error::ClusterError;
pub use fault::{ClusterEvent, ClusterFaultConfig, ClusterFaultPlan, EpochFaults, ScriptedEvent};
pub use federate::{
    ByzantineFlavor, FedEvent, FedFaultConfig, FedFaultPlan, FedScripted, FedStats, FederateConfig,
    RoundFaults,
};
pub use node::{AgentTuning, ClusterNode, InstallOutcome, NodePlatform};
