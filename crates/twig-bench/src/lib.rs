//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a module under [`experiments`] and one row of
//! [`experiments::REGISTRY`]; `cargo run --release -p twig-bench -- <name>`
//! prints the same rows/series the paper reports, `-- all` runs the whole
//! registry as a fleet and `-- list` prints the names. The mapping from
//! paper table/figure to name lives in `DESIGN.md` (experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured record).
//!
//! Experiments default to a **fast** scale (shortened learning phases with
//! the ε schedule compressed proportionally via
//! [`twig_rl::EpsilonSchedule::scaled`]); pass `--full` for the paper's
//! durations (10 000 s learning, 300/600 s measurement windows) or
//! `--smoke` for the CI scale. The scale is one [`Scale`]: of `--smoke`,
//! `--fast` and `--full`, the last one given wins.
//!
//! # Examples
//!
//! ```
//! use twig_bench::{Options, Scale};
//!
//! let opts = Options::parse_from(["--seed", "7"].iter().map(|s| s.to_string())).unwrap();
//! assert_eq!(opts.seed, 7);
//! assert_eq!(opts.scale, Scale::Fast);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_decide;
pub mod experiments;
pub mod fleet;
mod options;
mod runner;
mod table;

pub use fleet::{run_fleet, unit_seed, FleetRun, FleetStats, Unit, UnitResult};
pub use options::{Options, Scale};
pub use runner::{
    drive, make_twig, run_sections, summarize, total_energy, window, ExpError, ServiceSummary,
};
pub(crate) use runner::{measure, server, Manager, Measured};
pub use table::{fmt_f, TextTable};
