//! Deep reinforcement learning substrate for the Twig reproduction.
//!
//! The paper's learning machinery, reimplemented from scratch on top of
//! `twig-nn`:
//!
//! - [`EpsilonSchedule`] / [`LinearAnneal`] — the ε-annealing of Section IV
//!   (1 → 0.1 over 10 000 s, → 0.01 at 25 000 s) and the PER β annealing;
//! - [`QTable`] — tabular Q-learning, the state-action representation used
//!   by Hipster and the memory-complexity strawman of Section V-B1;
//! - [`MaBdq`] — the paper's contribution: a **multi-agent branching dueling
//!   Q-network** with a shared state representation, per-agent state-value
//!   heads, per-branch advantage heads shared across agents, and the 1/K
//!   (agents) and 1/D (branches) gradient rescaling of Section III-A,
//!   trained from prioritised experience replay (sum tree, α = 0.6,
//!   β₀ = 0.4 → 1) over a flat transition slab;
//! - [`Dqn`] — the vanilla joint-action DQN of Section II-B1 (the
//!   combinatorial-explosion strawman the BDQ replaces);
//! - [`memory`] — the memory-complexity accounting behind the paper's
//!   Hipster-vs-Twig comparison;
//! - [`federate`] — the fleet-side aggregation math: the payload screening
//!   ladder (CRC, shape, finiteness, quarantine eligibility, Byzantine
//!   EWMA screen) and the permutation-invariant capacity-weighted merge.
//!
//! # Examples
//!
//! Drive a tiny multi-agent BDQ on a synthetic two-agent problem:
//!
//! ```
//! use twig_rl::{MaBdq, MaBdqConfig, MultiTransition};
//!
//! let config = MaBdqConfig {
//!     agents: 2,
//!     state_dim: 3,
//!     branches: vec![4, 5],
//!     trunk_hidden: vec![16, 8],
//!     ..MaBdqConfig::default()
//! };
//! let mut agent = MaBdq::new(config).unwrap();
//! let states = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
//! let actions = agent.select_actions(&states, 0.1).unwrap();
//! assert_eq!(actions.len(), 2);       // one action set per agent
//! assert_eq!(actions[0].len(), 2);    // one action per branch
//! assert!(actions[0][0] < 4 && actions[0][1] < 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
pub mod checkpoint;
mod dqn;
mod error;
pub mod federate;
mod mabdq;
pub mod memory;
mod per;
mod slab;
mod tabular;

pub use anneal::{EpsilonSchedule, LinearAnneal};
pub use checkpoint::{
    crc32, decode_checkpoint, encode_checkpoint, validate_checkpoint_bytes, MaBdqCheckpoint,
};
pub use dqn::Dqn;
pub use error::RlError;
pub use federate::{ByzantineScreen, Contribution, FedError, ScreenConfig};
pub use mabdq::{
    BudgetedProgress, LearnerMemory, LearnerStats, MaBdq, MaBdqConfig, MultiTransition,
    QuarantineConfig, QuarantineStats, TrainStats,
};
pub use tabular::QTable;
