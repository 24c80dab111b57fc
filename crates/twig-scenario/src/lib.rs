//! A declarative scenario DSL and runner for the Twig workload
//! reproduction.
//!
//! A `.scn` file describes one complete experiment: the topology (a
//! single governed server or a cluster fleet), the services it hosts
//! with composable load shapes (fixed, step, diurnal, ramp, flash
//! crowd, correlated bursts, trace replay), catalog churn (services
//! arriving, departing, or being swapped mid-run), seeded fault /
//! timing / cluster-fault plans, run parameters, and the properties the
//! run must exhibit (`assert` lines). Scenarios are data, not code:
//! the corpus under `scenarios/` is the repo's executable description
//! of every behaviour the stack guarantees.
//!
//! The pipeline is [`parse`](fn@parse) → [`ScenarioRunner`] → outcome:
//!
//! - [`parse`](fn@parse) turns text into a validated [`Scenario`]; every
//!   rejection is a typed [`ScenarioError`] with a source line.
//! - [`emit`](fn@emit) renders the single canonical text form. The parser
//!   accepts a superset (comments, flexible whitespace), making the
//!   emitter a fixed point: `emit(parse(emit(s))) == emit(s)`, and
//!   canonically-authored files round-trip byte-identically.
//! - [`ScenarioRunner`] compiles the scenario onto `twig-sim` /
//!   `twig-cluster`, runs it (self-seeded: outcomes are bit-identical
//!   regardless of fleet parallelism), and evaluates the assertions.
//!
//! ```
//! use twig_scenario::{emit, parse, ScenarioRunner};
//!
//! let text = "\
//! scenario \"doc\"
//! seed 7
//! epochs 30
//! measure 10
//!
//! server
//!   cores 16
//!   dvfs 1200 200 8
//! end
//!
//! service \"img-dnn\"
//!   spec catalog img-dnn
//!   load fixed 0.3
//! end
//!
//! assert qos_floor all 50
//! ";
//! let scenario = parse(text).unwrap();
//! assert_eq!(emit(&scenario), text);
//! let outcome = ScenarioRunner::new(scenario).unwrap().run().unwrap();
//! assert!(outcome.passed, "{:?}", outcome.assertions);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod emit;
mod error;
mod model;
mod parse;
mod runner;

pub use corpus::corpus;
pub use emit::emit;
pub use error::ScenarioError;
pub use model::{
    Assertion, ClusterFaultSection, FaultSection, FederateSection, Scenario, ServiceDef,
    SpecSource, TimingSection, Topology,
};
pub use parse::parse;
pub use runner::{
    build_twig, AssertionResult, ClusterOutcome, ScenarioOutcome, ScenarioRunner, ServiceOutcome,
};
