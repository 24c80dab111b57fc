//! Actuation backends for Twig: the [`Platform`] trait and its two
//! implementations.
//!
//! The paper's manager runs against a real Linux host — cgroup-v2
//! cpusets, cpufreq setpoints, perf counters, RAPL power — while this
//! repository's experiments run against the [`twig_sim`] simulator. This
//! crate puts one seam between the two:
//!
//! - [`Platform`] is the actuation-and-observation surface a manager
//!   needs: `actuate` an epoch's assignments, `observe_epoch` the
//!   resulting report.
//! - [`SimPlatform`] wraps [`twig_sim::Server`] behavior-preservingly:
//!   driving it through the trait is byte-identical to calling
//!   [`twig_sim::Server::step`] directly.
//! - [`LinuxPlatform`] actuates through sysfs/procfs-style control files
//!   behind the [`Fs`] abstraction, with a write–verify–retry
//!   *reconciliation ladder* (see the private `linux` module) that turns partial OS
//!   failures into verified retries, reported divergences, or
//!   governor-routed degraded epochs — never panics.
//!
//! Offline, [`FakeFs`] provides the kernel: an in-memory tree whose
//! seeded [`OsFaultPlan`] injects `EPERM`/`EBUSY` rejections, torn
//! writes, silent clamps, delayed visibility, and stale or garbage
//! counter files. [`SimWorld`] closes the loop by running the simulator
//! on whatever actually landed in the tree, so tests compare what the
//! platform *believed* against what the machine *did*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpulist;
mod error;
mod fake;
mod fault;
mod fs;
mod linux;
mod platform;
mod sim;
mod world;

pub use error::PlatformError;
pub use fake::FakeFs;
pub use fault::{classify, OsFaultConfig, OsFaultPlan, PathClass, ReadFault, WriteFault};
pub use fs::{Fs, FsError, RealFs};
pub use linux::{LinuxConfig, LinuxLayout, LinuxPlatform, PlatformStats};
pub use platform::Platform;
pub use sim::SimPlatform;
pub use world::SimWorld;
