//! Discrete-event multicore server simulator for the Twig reproduction.
//!
//! The paper evaluates Twig on a real dual-socket Xeon E5-2695v4 running
//! Tailbench services, measuring tail latency from service logs, power via
//! RAPL and performance counters via libpfm4. This crate substitutes that
//! testbed with a simulator exposing *exactly the same observables and
//! actuators* a user-space task manager sees:
//!
//! - **Actuators** — per-service core allocations and per-core DVFS settings
//!   ([`Assignment`], applied through [`Server::step`]); unused cores are
//!   parked at the lowest DVFS state.
//! - **Observables** — per-service p99 tail latency (from a queueing model
//!   of request processing), the 11 Table-I performance counters (from
//!   [`pmc`]), and noisy socket-level RAPL-style power (from [`PowerModel`]).
//!
//! The service models in [`catalog`] are calibrated so the qualitative
//! behaviours the paper's analysis relies on hold: CPU-bound work speeds up
//! with frequency, memory-bound work does not; colocated services contend
//! for memory bandwidth and cache capacity (Masstree is bandwidth-*sensitive*
//! while Moses is bandwidth-*hungry*); remapping cores incurs migration
//! penalties, so oscillating managers hurt their own tail latency.
//!
//! # Examples
//!
//! ```
//! use twig_sim::{catalog, Assignment, CoreId, Server, ServerConfig};
//!
//! # fn main() -> Result<(), twig_sim::SimError> {
//! let config = ServerConfig::default();
//! let max_freq = config.dvfs.max();
//! let mut server = Server::new(config, vec![catalog::masstree()], 42)?;
//! server.set_load_fraction(0, 0.5)?;
//! let assignment = Assignment::new((0..9).map(CoreId).collect(), max_freq);
//! let report = server.step(&[assignment])?;
//! assert!(report.services[0].p99_ms > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cores;
mod error;
pub mod fault;
pub mod faultstore;
mod load;
pub mod pmc;
mod power;
mod queue;
mod server;
mod service;
pub mod timing;

pub mod catalog;

pub use cores::{CoreId, DvfsLadder, Frequency};
pub use error::SimError;
pub use fault::{AppliedAssignment, FaultConfig, FaultPlan, PmcFaultKind, TelemetryHealth};
pub use faultstore::{StoreFaultConfig, StoreFaultKind, StoreFaultPlan};
pub use load::LoadGenerator;
pub use pmc::{CounterId, PmcSample, NUM_COUNTERS};
pub use power::PowerModel;
pub use queue::{EpochQueueCounts, EpochQueueStats, ServiceQueue};
pub use server::{Assignment, CorePlan, EpochReport, Server, ServerConfig, ServiceEpoch};
pub use service::ServiceSpec;
pub use timing::{EpochTimings, TimingFaultConfig, TimingFaultPlan};
