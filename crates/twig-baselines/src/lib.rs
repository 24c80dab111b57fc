//! Baseline task managers the paper compares Twig against (Section V-A).
//!
//! All four implement [`twig_core::TaskManager`], so the experiment harness
//! drives them interchangeably with Twig:
//!
//! - [`StaticMapping`] — the paper's *static baseline*: every service on
//!   every core, all cores pinned to the highest DVFS state.
//! - [`Hipster`] (HPCA 2017) — hybrid heuristic + tabular-Q manager for a
//!   single service: the state is the request rate quantised into 4 %
//!   buckets, the action a (cores, DVFS) pair from a power-efficiency-
//!   ordered list; a state-machine heuristic drives the learning phase,
//!   after which it behaves ε-greedily (lr 0.6, γ 0.9, as prescribed by the
//!   Hipster authors and used in Section V-A).
//! - [`Heracles`] (ISCA 2015) — a multi-level feedback controller: a main
//!   controller (15 s) that grants the service *all* resources for 5
//!   minutes after a violation or at > 85 % load; a core controller (2 s)
//!   that grows the allocation when latency reaches 80 % of the target or
//!   memory bandwidth rises, and shrinks it otherwise; and a power
//!   controller (2 s) that lowers DVFS only when power hits 90 % of TDP.
//! - [`Parties`] (ASPLOS 2019) — the colocated-services controller: every
//!   2 s it adjusts *one* resource (core count or DVFS) for one service —
//!   upsizing whoever is within 95 % of its target, otherwise reclaiming
//!   from the service with the most slack, reverting an adjustment that
//!   caused a violation.
//!
//! The paper implemented Heracles and PARTIES from their publications
//! because neither is open source; this crate is in exactly the same
//! position and follows the published descriptions (Intel CAT and explicit
//! memory-bandwidth partitioning are omitted, as in the paper's own
//! testbed). The published periods, thresholds and learning constants
//! above are `const`s in each manager's module, not configuration: the
//! constructors take only the platform, a seed where the manager draws
//! random numbers, and Hipster's learning-phase length.
//!
//! # Examples
//!
//! ```
//! use twig_baselines::StaticMapping;
//! use twig_core::TaskManager;
//! use twig_sim::{catalog, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
//! let specs = vec![catalog::masstree(), catalog::moses()];
//! let mut server = Server::new(ServerConfig::default(), specs.clone(), 1)?;
//! let mut manager = StaticMapping::new(specs, 18, ServerConfig::default().dvfs)?;
//! let assignments = manager.decide()?;
//! let report = server.step(&assignments)?;
//! manager.observe(&report)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heracles;
mod hipster;
mod parties;
mod static_mapping;

pub use heracles::Heracles;
pub use hipster::{Hipster, HipsterConfig};
pub use parties::Parties;
pub use static_mapping::StaticMapping;

/// Error type shared by the baseline managers — the structured
/// [`twig_core::ManagerError`] of the [`twig_core::TaskManager`] trait.
pub type BaselineError = twig_core::ManagerError;

fn config_error(detail: impl Into<String>) -> BaselineError {
    BaselineError::fatal(detail)
}
