//! The Twig task manager — the paper's primary contribution.
//!
//! Twig (Section III) is a QoS-aware task manager for latency-critical
//! services colocated on one server. Once per second it reads hardware
//! performance counters per service, feeds them to a multi-agent branching
//! dueling Q-network, and maps every service to a set of cores at a DVFS
//! setting, parking the remaining cores. Its three components map onto this
//! crate's modules:
//!
//! - **System monitor** ([`SystemMonitor`]) — gathers the 11 Table-I
//!   counters per service, smooths them over the last η = 5 intervals with a
//!   weighted sum and feature-scales them to `[0, 1]`; the
//!   [`select_counters`] pipeline (Pearson correlation + PCA) reproduces the
//!   counter-selection methodology of Section III-B1 / Table I.
//! - **Learning agent** ([`Twig`], wrapping [`twig_rl::MaBdq`]) — Algorithm 1:
//!   ε-annealed action selection over (core count, DVFS) branches,
//!   the Eq. 1 reward ([`RewardConfig`]) combining QoS tardiness with the
//!   per-service power estimate of the Eq. 2 model ([`Eq2PowerModel`],
//!   fitted by [`fit_power_model`]), and one prioritised-replay gradient
//!   step per epoch.
//! - **Mapper module** ([`Mapper`]) — turns per-service (cores, DVFS)
//!   requests into concrete core assignments with the cache-locality
//!   ordering of Section III-B3; conflicting requests are resolved by the
//!   arbitration rule of Section IV (overlapping cores time-shared at the
//!   highest requested DVFS).
//!
//! Twig-S (single service) and Twig-C (colocated services) are the same
//! [`Twig`] type with `K = 1` or `K > 1` services.
//!
//! # Examples
//!
//! ```
//! use twig_core::{Twig, TwigBuilder};
//! use twig_sim::{catalog, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = catalog::masstree();
//! let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 42)?;
//! server.set_load_fraction(0, 0.5)?;
//! let mut twig: Twig = TwigBuilder::new().services(vec![spec]).seed(7).build()?;
//! for _ in 0..5 {
//!     let actions = twig.decide()?;
//!     let report = server.step(&actions)?;
//!     twig.observe(&report)?;
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint_store;
mod clock;
mod error;
mod governor;
mod manager;
mod mapper;
mod monitor;
mod placement;
mod power_model;
mod reward;
mod scheduler;

pub use checkpoint_store::{
    recover, CheckpointStore, Checkpointable, RecoveryOutcome, RecoveryReport, RecoveryStats,
    ScratchStore,
};
pub use clock::SimClock;
pub use error::{ManagerError, TwigError};
pub use governor::{next_backoff, GovernorConfig, GovernorStats, SafetyGovernor};
pub use manager::{TaskManager, Twig, TwigBuilder, TwigConfig};
pub use mapper::Mapper;
pub use monitor::{select_counters, CounterRanking, SystemMonitor};
pub use placement::{
    ClusterView, NodeId, NodeView, PlacementAction, ReplicatedPlacement, ServicePlacement,
};
pub use power_model::{fit_power_model, paae, Eq2PowerModel, PowerModelFit, ProfilePoint};
pub use reward::RewardConfig;
pub use scheduler::{
    ActuationDirective, EpochScheduler, InferenceDirective, LearnDirective, MeteredEpoch,
    RetryBudget, SchedulerStats, ShedLevel, ACTUATE_BUDGET_MS, INFERENCE_BUDGET_MS, INTERVAL_MS,
    LEARN_BUDGET_MS, PMC_BUDGET_MS, RETRY_BUDGET, STALE_AFTER_MS,
};
