//! Seeded OS-level fault injection for the fake sysfs tree.
//!
//! An [`OsFaultPlan`] owns a private RNG stream and decides, per
//! filesystem operation, whether the fake OS misbehaves — mirroring the
//! failure modes real cgroup/cpufreq/procfs interaction exhibits:
//!
//! - **EPERM / EBUSY / ENOENT** — writes rejected by permission flaps or
//!   transient locks; counter files vanishing mid-read;
//! - **torn writes** — only a prefix of the written string lands, which
//!   for a cpulist can be *valid but wrong* (`"0-1"` out of `"0-15"`);
//! - **silent clamps** — a cpufreq write "succeeds" but the OS stores a
//!   policy-clamped lower value;
//! - **stale / garbage counters** — reads serve the previous epoch's
//!   content, or non-numeric junk;
//! - **delayed visibility** — a write lands but reads keep serving the
//!   old content until the next epoch boundary;
//! - **permission flapping** — whole epochs-long windows in which every
//!   write is EPERM, alternating with calm windows.
//!
//! Draw order is fixed per operation and a zero rate consumes no draws,
//! so a zero-rate plan is bit-identical to no plan at all — the same
//! contract `twig_sim::FaultPlan` keeps.

use crate::PlatformError;
use twig_stats::fields::{any_active, check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// What kind of file a path is, for fault scoping. Classification is by
/// the path's tail, matching the layout [`crate::LinuxLayout`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// A cgroup-v2 `cpuset.cpus` file.
    Cpuset,
    /// A per-core cpufreq sysfs file.
    Cpufreq,
    /// A counter file: PMCs, latency observables or the RAPL energy file.
    Counter,
    /// Anything else (never faulted).
    Other,
}

/// Classifies a path for fault scoping.
pub fn classify(path: &str) -> PathClass {
    if path.ends_with("cpuset.cpus") {
        PathClass::Cpuset
    } else if path.contains("/cpufreq/") {
        PathClass::Cpufreq
    } else if path.ends_with("/pmc") || path.ends_with("/latency") || path.ends_with("energy_uj") {
        PathClass::Counter
    } else {
        PathClass::Other
    }
}

/// Per-operation fault rates (all in `[0, 1]`) plus the deterministic
/// permission-flap schedule. `..Default::default()` gives all-zero rates
/// (nothing ever fails).
#[derive(Debug, Clone, PartialEq)]
pub struct OsFaultConfig {
    /// P(cpuset write returns EPERM).
    pub cpuset_eperm_rate: f64,
    /// P(cpuset write returns EBUSY).
    pub cpuset_ebusy_rate: f64,
    /// P(cpuset write lands torn: only a prefix of the string is stored).
    pub cpuset_torn_rate: f64,
    /// P(cpuset write lands but stays invisible to reads until the next
    /// epoch boundary).
    pub cpuset_delay_rate: f64,
    /// P(cpufreq write returns EPERM).
    pub cpufreq_eperm_rate: f64,
    /// P(cpufreq write is silently clamped to `cpufreq_floor_khz`).
    pub cpufreq_clamp_rate: f64,
    /// The kHz value clamped cpufreq writes are stored as.
    pub cpufreq_floor_khz: u64,
    /// P(counter read serves the previous content instead of the current).
    pub counter_stale_rate: f64,
    /// P(counter read serves non-numeric garbage).
    pub counter_garbage_rate: f64,
    /// P(counter read returns ENOENT).
    pub counter_enoent_rate: f64,
    /// When non-zero, epochs are tiled into windows of this length and
    /// every write during an odd window returns EPERM — sustained outages
    /// that exhaust any bounded retry budget, then clear.
    pub eperm_flap_period: u64,
}

impl Default for OsFaultConfig {
    fn default() -> Self {
        OsFaultConfig {
            cpuset_eperm_rate: 0.0,
            cpuset_ebusy_rate: 0.0,
            cpuset_torn_rate: 0.0,
            cpuset_delay_rate: 0.0,
            cpufreq_eperm_rate: 0.0,
            cpufreq_clamp_rate: 0.0,
            cpufreq_floor_khz: 1_200_000,
            counter_stale_rate: 0.0,
            counter_garbage_rate: 0.0,
            counter_enoent_rate: 0.0,
            eperm_flap_period: 0,
        }
    }
}

impl OsFaultConfig {
    /// The field table: every rate and the flap period once. The clamp
    /// floor is not in it — it is a stored value with its own constraint
    /// (non-zero), not something a schedule varies.
    pub const FIELDS: &'static [Row<OsFaultConfig>] = twig_stats::field_rows![
        "cpuset_eperm" => cpuset_eperm_rate: Probability;
        "cpuset_ebusy" => cpuset_ebusy_rate: Probability;
        "cpuset_torn" => cpuset_torn_rate: Probability;
        "cpuset_delay" => cpuset_delay_rate: Probability;
        "cpufreq_eperm" => cpufreq_eperm_rate: Probability;
        "cpufreq_clamp" => cpufreq_clamp_rate: Probability;
        "counter_stale" => counter_stale_rate: Probability;
        "counter_garbage" => counter_garbage_rate: Probability;
        "counter_enoent" => counter_enoent_rate: Probability;
        "eperm_flap" => eperm_flap_period: Count;
    ];

    /// True when any fault can ever fire.
    pub fn enabled(&self) -> bool {
        any_active(Self::FIELDS, self)
    }

    /// Validates every rate.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] for a rate outside `[0, 1]` or a
    /// zero clamp floor.
    pub fn validate(&self) -> Result<(), PlatformError> {
        check(Self::FIELDS, self, Kind::Probability).map_err(|(label, r)| {
            PlatformError::Config {
                detail: format!("{label} must be in [0, 1], got {r}"),
            }
        })?;
        if self.cpufreq_floor_khz == 0 {
            return Err(PlatformError::Config {
                detail: "cpufreq_floor_khz must be non-zero".into(),
            });
        }
        Ok(())
    }
}

/// What the fake OS does to one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write lands verbatim.
    None,
    /// Rejected with EPERM.
    Eperm,
    /// Rejected with EBUSY.
    Ebusy,
    /// Only a prefix of the content lands.
    Torn,
    /// The content lands but stays invisible until the next epoch.
    Delayed,
    /// The stored value is clamped to this kHz floor.
    Clamp(u64),
}

/// What the fake OS does to one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The read serves the current content.
    None,
    /// The read serves the previous content.
    Stale,
    /// The read serves non-numeric garbage.
    Garbage,
    /// The read fails with ENOENT.
    Enoent,
}

/// A seeded, deterministic schedule of OS faults. Owns its RNG: the
/// sequence of faults is a pure function of `(config, seed)` and the
/// order of filesystem operations, independent of anything else in the
/// process.
#[derive(Debug, Clone)]
pub struct OsFaultPlan {
    config: OsFaultConfig,
    rng: Xoshiro256,
    epoch: u64,
}

impl OsFaultPlan {
    /// Validates the config and seeds the plan's private RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] when the config does not
    /// validate.
    pub fn new(config: OsFaultConfig, seed: u64) -> Result<Self, PlatformError> {
        config.validate()?;
        Ok(OsFaultPlan {
            config,
            // Domain-separated from every other stream in the workspace.
            rng: Xoshiro256::seed_from_u64(seed ^ 0x05FA_17BD_0000_0001),
            epoch: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &OsFaultConfig {
        &self.config
    }

    /// The current epoch (advanced by [`crate::FakeFs::advance_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch counter (permission-flap windows are keyed on
    /// it).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// True during an odd permission-flap window.
    fn flapped_out(&self) -> bool {
        let p = self.config.eperm_flap_period;
        p > 0 && (self.epoch / p) % 2 == 1
    }

    /// Draws the fault for one write. Every relevant rate is drawn in a
    /// fixed order (zero rates consume no draws) and the first hit in
    /// severity order wins, so the draw count per call depends only on
    /// the config.
    pub fn write_fault(&mut self, class: PathClass) -> WriteFault {
        if self.flapped_out() && class != PathClass::Other {
            return WriteFault::Eperm;
        }
        match class {
            PathClass::Cpuset => {
                let eperm = self.rng.next_bool(self.config.cpuset_eperm_rate);
                let ebusy = self.rng.next_bool(self.config.cpuset_ebusy_rate);
                let torn = self.rng.next_bool(self.config.cpuset_torn_rate);
                let delay = self.rng.next_bool(self.config.cpuset_delay_rate);
                if eperm {
                    WriteFault::Eperm
                } else if ebusy {
                    WriteFault::Ebusy
                } else if torn {
                    WriteFault::Torn
                } else if delay {
                    WriteFault::Delayed
                } else {
                    WriteFault::None
                }
            }
            PathClass::Cpufreq => {
                let eperm = self.rng.next_bool(self.config.cpufreq_eperm_rate);
                let clamp = self.rng.next_bool(self.config.cpufreq_clamp_rate);
                if eperm {
                    WriteFault::Eperm
                } else if clamp {
                    WriteFault::Clamp(self.config.cpufreq_floor_khz)
                } else {
                    WriteFault::None
                }
            }
            PathClass::Counter | PathClass::Other => WriteFault::None,
        }
    }

    /// Draws the fault for one read (only counter files are faulted —
    /// actuation read-backs see the tree as the writes left it, which is
    /// what makes read-back verification meaningful).
    pub fn read_fault(&mut self, class: PathClass) -> ReadFault {
        match class {
            PathClass::Counter => {
                let stale = self.rng.next_bool(self.config.counter_stale_rate);
                let garbage = self.rng.next_bool(self.config.counter_garbage_rate);
                let enoent = self.rng.next_bool(self.config.counter_enoent_rate);
                if stale {
                    ReadFault::Stale
                } else if garbage {
                    ReadFault::Garbage
                } else if enoent {
                    ReadFault::Enoent
                } else {
                    ReadFault::None
                }
            }
            _ => ReadFault::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_paths() {
        assert_eq!(
            classify("/sys/fs/cgroup/twig/masstree/cpuset.cpus"),
            PathClass::Cpuset
        );
        assert_eq!(
            classify("/sys/devices/system/cpu/cpu3/cpufreq/scaling_setspeed"),
            PathClass::Cpufreq
        );
        assert_eq!(classify("/run/twig/masstree/pmc"), PathClass::Counter);
        assert_eq!(classify("/run/twig/masstree/latency"), PathClass::Counter);
        assert_eq!(
            classify("/sys/class/powercap/intel-rapl:0/energy_uj"),
            PathClass::Counter
        );
        assert_eq!(classify("/etc/hostname"), PathClass::Other);
    }

    #[test]
    fn zero_rate_plan_never_fires_and_draws_nothing() {
        let mut plan = OsFaultPlan::new(OsFaultConfig::default(), 7).unwrap();
        let twin = plan.clone();
        for class in [PathClass::Cpuset, PathClass::Cpufreq, PathClass::Counter] {
            assert_eq!(plan.write_fault(class), WriteFault::None);
            assert_eq!(plan.read_fault(class), ReadFault::None);
        }
        // No draws were consumed: the RNG state is untouched.
        assert_eq!(format!("{plan:?}"), format!("{twin:?}"));
    }

    #[test]
    fn plans_are_deterministic_in_seed() {
        let config = OsFaultConfig {
            cpuset_eperm_rate: 0.3,
            cpuset_torn_rate: 0.2,
            counter_stale_rate: 0.4,
            ..OsFaultConfig::default()
        };
        let mut a = OsFaultPlan::new(config.clone(), 11).unwrap();
        let mut b = OsFaultPlan::new(config, 11).unwrap();
        for _ in 0..200 {
            assert_eq!(
                a.write_fault(PathClass::Cpuset),
                b.write_fault(PathClass::Cpuset)
            );
            assert_eq!(
                a.read_fault(PathClass::Counter),
                b.read_fault(PathClass::Counter)
            );
        }
    }

    #[test]
    fn flap_windows_reject_everything_deterministically() {
        let mut plan = OsFaultPlan::new(
            OsFaultConfig {
                eperm_flap_period: 3,
                ..OsFaultConfig::default()
            },
            0,
        )
        .unwrap();
        let mut pattern = Vec::new();
        for _ in 0..12 {
            pattern.push(plan.write_fault(PathClass::Cpuset) == WriteFault::Eperm);
            plan.advance_epoch();
        }
        assert_eq!(
            pattern,
            [false, false, false, true, true, true, false, false, false, true, true, true]
        );
    }

    #[test]
    fn rates_are_validated() {
        let bad = OsFaultConfig {
            cpuset_eperm_rate: 1.5,
            ..OsFaultConfig::default()
        };
        assert!(OsFaultPlan::new(bad, 0).is_err());
        let bad = OsFaultConfig {
            cpufreq_floor_khz: 0,
            ..OsFaultConfig::default()
        };
        assert!(OsFaultPlan::new(bad, 0).is_err());
    }
}
