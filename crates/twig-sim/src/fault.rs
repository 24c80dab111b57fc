//! Seeded, deterministic fault injection for the simulated platform.
//!
//! Real deployments see telemetry and actuation failures the paper's
//! evaluation never exercises: perf counters return garbage or go stale,
//! sysfs DVFS writes are rejected or clamped by the platform, the RAPL
//! meter glitches, and cores are taken offline by the OS or firmware. This
//! module injects those faults into [`Server::step`](crate::Server::step)
//! so task managers can be hardened and evaluated against them.
//!
//! A [`FaultPlan`] owns its **own** RNG stream, seeded independently of the
//! server's workload RNG. Two consequences:
//!
//! 1. the same plan seed reproduces the identical fault sequence for any
//!    manager under test, and
//! 2. a plan whose every rate is zero leaves the server's outputs
//!    bit-identical to a run with no plan installed at all (the workload
//!    stream is never perturbed).
//!
//! # Examples
//!
//! ```
//! use twig_sim::{catalog, Assignment, FaultConfig, FaultPlan, Server, ServerConfig};
//!
//! # fn main() -> Result<(), twig_sim::SimError> {
//! let cfg = ServerConfig::default();
//! let freq = cfg.dvfs.max();
//! let mut server = Server::new(cfg, vec![catalog::masstree()], 42)?;
//! server.set_fault_plan(FaultPlan::new(
//!     FaultConfig { pmc_corrupt_rate: 0.5, ..FaultConfig::default() },
//!     7,
//! )?);
//! let report = server.step(&[Assignment::first_n(9, freq)])?;
//! // The report says whether this epoch's telemetry can be trusted.
//! let _ = report.telemetry.degraded();
//! # Ok(())
//! # }
//! ```

use crate::pmc::{PmcSample, NUM_COUNTERS};
use crate::{CoreId, DvfsLadder, Frequency, SimError};
use std::collections::BTreeSet;
use twig_stats::fields::{any_active, check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// Per-epoch fault probabilities and magnitudes. All rates default to zero:
/// the default configuration injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability, per service per epoch, that the PMC sample delivered to
    /// the manager is corrupted (NaN, +∞, all-zero or a stale repeat of the
    /// previous epoch, chosen uniformly).
    pub pmc_corrupt_rate: f64,
    /// Telemetry latency: PMC samples are delivered this many epochs late
    /// (0 = fresh). Models a slow or backlogged collection pipeline.
    pub telemetry_delay_epochs: usize,
    /// Probability, per service per epoch, that the platform rejects the
    /// requested assignment outright and keeps the previous epoch's
    /// actually-applied assignment.
    pub actuation_reject_rate: f64,
    /// Probability, per service per epoch, that the requested DVFS setting
    /// is clamped one ladder step down (a governor or thermal limiter
    /// overriding the request). Applied independently of rejection.
    pub dvfs_clamp_rate: f64,
    /// Probability, per epoch, that the RAPL-style power reading glitches:
    /// it returns zero or a 10x spike (never affects true power or energy
    /// accounting).
    pub power_glitch_rate: f64,
    /// Probability, per epoch, that one currently-online core goes offline.
    pub core_fail_rate: f64,
    /// Probability, per epoch, that one currently-offline core comes back.
    pub core_repair_rate: f64,
    /// Upper bound on simultaneously offline cores.
    pub max_offline_cores: usize,
}

impl FaultConfig {
    /// The field table: every field once, under its `.scn` key, in the
    /// order the scenario emitter writes them.
    pub const FIELDS: &'static [Row<FaultConfig>] = twig_stats::field_rows![
        "pmc_corrupt" => pmc_corrupt_rate: Probability;
        "telemetry_delay" => telemetry_delay_epochs: Count;
        "actuation_reject" => actuation_reject_rate: Probability;
        "dvfs_clamp" => dvfs_clamp_rate: Probability;
        "power_glitch" => power_glitch_rate: Probability;
        "core_fail" => core_fail_rate: Probability;
        "core_repair" => core_repair_rate: Probability;
        "max_offline" => max_offline_cores: Count;
    ];

    /// `true` when some field is above zero. (Repairs and the offline cap
    /// count too, although alone they fire nothing.)
    pub fn enabled(&self) -> bool {
        any_active(Self::FIELDS, self)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a rate is outside `[0, 1]`
    /// or not finite.
    pub fn validate(&self) -> Result<(), SimError> {
        check(Self::FIELDS, self, Kind::Probability).map_err(|(label, rate)| {
            SimError::InvalidConfig {
                detail: format!("fault {label} = {rate} outside [0, 1]"),
            }
        })
    }
}

/// How a PMC sample was corrupted this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmcFaultKind {
    /// Every counter replaced with NaN.
    Nan,
    /// Every counter replaced with +∞.
    Inf,
    /// Every counter replaced with zero (a dropped read).
    Zero,
    /// The previous epoch's sample delivered again (a stuck collector).
    Stale,
}

/// What actually happened to one service's requested assignment.
#[derive(Debug, PartialEq, Eq)]
pub struct AppliedAssignment {
    /// The cores the platform actually ran the service on this epoch.
    pub cores: Vec<CoreId>,
    /// The DVFS setting actually applied.
    pub freq: Frequency,
    /// The platform rejected the request and kept the previous assignment.
    pub rejected: bool,
    /// The requested DVFS setting was clamped down a ladder step.
    pub clamped: bool,
    /// Requested cores dropped because they were offline this epoch.
    pub cores_lost_offline: usize,
}

// By hand for `clone_from`: the server refreshes its record of what each
// service last ran on every epoch, into the core list it already holds.
impl Clone for AppliedAssignment {
    fn clone(&self) -> Self {
        AppliedAssignment {
            cores: self.cores.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a new field fails to compile here.
        let AppliedAssignment {
            cores,
            freq,
            rejected,
            clamped,
            cores_lost_offline,
        } = source;
        self.cores.clone_from(cores);
        self.freq = *freq;
        self.rejected = *rejected;
        self.clamped = *clamped;
        self.cores_lost_offline = *cores_lost_offline;
    }
}

impl AppliedAssignment {
    /// An identity record: the request was applied verbatim.
    pub fn verbatim(cores: Vec<CoreId>, freq: Frequency) -> Self {
        AppliedAssignment {
            cores,
            freq,
            rejected: false,
            clamped: false,
            cores_lost_offline: 0,
        }
    }

    /// `true` when the applied assignment differs from the request.
    pub fn diverged(&self) -> bool {
        self.rejected || self.clamped || self.cores_lost_offline > 0
    }
}

/// Per-epoch telemetry-health summary attached to every
/// [`EpochReport`](crate::EpochReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryHealth {
    /// Per service: how the delivered PMC sample was corrupted, if at all.
    pub pmc_faults: Vec<Option<PmcFaultKind>>,
    /// How many epochs late the delivered PMC samples are.
    pub delayed_epochs: usize,
    /// The power reading glitched this epoch.
    pub power_glitched: bool,
    /// Cores offline this epoch.
    pub offline_cores: usize,
}

impl TelemetryHealth {
    /// A clean bill of health for `services` services.
    pub fn clean(services: usize) -> Self {
        TelemetryHealth {
            pmc_faults: vec![None; services],
            delayed_epochs: 0,
            power_glitched: false,
            offline_cores: 0,
        }
    }

    /// `true` when any telemetry channel is unreliable this epoch.
    pub fn degraded(&self) -> bool {
        self.delayed_epochs > 0
            || self.power_glitched
            || self.pmc_faults.iter().any(Option::is_some)
    }

    /// `true` when service `index`'s PMC sample is corrupted.
    pub fn service_degraded(&self, index: usize) -> bool {
        self.pmc_faults.get(index).is_some_and(Option::is_some)
    }
}

/// A deterministic fault schedule, driven by its own seeded RNG stream.
///
/// Install on a server with
/// [`Server::set_fault_plan`](crate::Server::set_fault_plan). Draws happen
/// in a fixed order each epoch (core health, then per-service actuation in
/// service order, then per-service telemetry, then power), so the same
/// seed yields the same fault sequence regardless of the manager's
/// decisions.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: Xoshiro256,
    offline: BTreeSet<CoreId>,
}

impl FaultPlan {
    /// Creates a plan from a configuration and a seed for its private RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid rates.
    pub fn new(config: FaultConfig, seed: u64) -> Result<Self, SimError> {
        config.validate()?;
        Ok(FaultPlan {
            config,
            rng: Xoshiro256::seed_from_u64(seed),
            offline: BTreeSet::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// `true` when at least one injector can fire.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Cores currently offline.
    pub fn offline_cores(&self) -> &BTreeSet<CoreId> {
        &self.offline
    }

    /// Epoch prologue: evolve the core-health state (at most one failure
    /// and one repair per epoch).
    pub(crate) fn begin_epoch(&mut self, total_cores: usize) {
        if self.config.core_repair_rate > 0.0
            && !self.offline.is_empty()
            && self.rng.next_bool(self.config.core_repair_rate)
        {
            let pick = self.rng.range_usize(0, self.offline.len());
            let back = *self.offline.iter().nth(pick).expect("pick below len");
            self.offline.remove(&back);
        }
        if self.config.core_fail_rate > 0.0
            && self.offline.len()
                < self
                    .config
                    .max_offline_cores
                    .min(total_cores.saturating_sub(1))
            && self.rng.next_bool(self.config.core_fail_rate)
        {
            let offline = &self.offline;
            let online = || {
                (0..total_cores)
                    .map(CoreId)
                    .filter(|c| !offline.contains(c))
            };
            let count = online().count();
            if count > 1 {
                let victim = online()
                    .nth(self.rng.range_usize(0, count))
                    .expect("pick below count");
                self.offline.insert(victim);
            }
        }
    }

    /// Resolves one service's requested assignment against this epoch's
    /// faults. `last_applied` is what actually ran the previous epoch (used
    /// when the request is rejected). A service that requested at least one
    /// core always keeps at least one, even if every requested core is
    /// offline.
    pub(crate) fn actuate(
        &mut self,
        requested_cores: &[CoreId],
        requested_freq: Frequency,
        last_applied: Option<&AppliedAssignment>,
        dvfs: &DvfsLadder,
    ) -> AppliedAssignment {
        let rejected = self.config.actuation_reject_rate > 0.0
            && self.rng.next_bool(self.config.actuation_reject_rate);
        let clamped =
            self.config.dvfs_clamp_rate > 0.0 && self.rng.next_bool(self.config.dvfs_clamp_rate);

        let (mut cores, mut freq) = if rejected {
            match last_applied {
                Some(prev) => (prev.cores.clone(), prev.freq),
                // Nothing to fall back to on the first epoch: the request
                // goes through (a reject against no prior state is a no-op).
                None => (requested_cores.to_vec(), requested_freq),
            }
        } else {
            (requested_cores.to_vec(), requested_freq)
        };

        if clamped {
            if let Ok(idx) = dvfs.index_of(freq) {
                if idx > 0 {
                    freq = dvfs.frequency_at(idx - 1).unwrap_or(freq);
                }
            }
        }

        let before = cores.len();
        if !self.offline.is_empty() {
            cores.retain(|c| !self.offline.contains(c));
            if cores.is_empty() && before > 0 {
                // Never strand a service with zero cores: the first
                // requested core is treated as still reachable.
                cores.push(requested_cores.first().copied().unwrap_or(CoreId(0)));
            }
        }
        AppliedAssignment {
            cores_lost_offline: before - cores.len().min(before),
            cores,
            freq,
            rejected: rejected && last_applied.is_some(),
            clamped,
        }
    }

    /// Possibly corrupts one service's PMC sample in place. `previous` is
    /// the sample the manager saw last epoch (for stale-repeat faults).
    pub(crate) fn corrupt_pmcs(
        &mut self,
        sample: &mut PmcSample,
        previous: &PmcSample,
    ) -> Option<PmcFaultKind> {
        if self.config.pmc_corrupt_rate <= 0.0 || !self.rng.next_bool(self.config.pmc_corrupt_rate)
        {
            return None;
        }
        let kind = match self.rng.range_usize(0, 4) {
            0 => PmcFaultKind::Nan,
            1 => PmcFaultKind::Inf,
            2 => PmcFaultKind::Zero,
            _ => PmcFaultKind::Stale,
        };
        let value = match kind {
            PmcFaultKind::Nan => f64::NAN,
            PmcFaultKind::Inf => f64::INFINITY,
            PmcFaultKind::Zero => 0.0,
            PmcFaultKind::Stale => {
                *sample = *previous;
                return Some(kind);
            }
        };
        *sample = PmcSample::from_array([value; NUM_COUNTERS]);
        Some(kind)
    }

    /// Possibly replaces the power-meter reading (zero or a 10x spike).
    /// Returns `(reading, glitched)`.
    pub(crate) fn glitch_power(&mut self, measured: f64) -> (f64, bool) {
        if self.config.power_glitch_rate <= 0.0
            || !self.rng.next_bool(self.config.power_glitch_rate)
        {
            return (measured, false);
        }
        let reading = if self.rng.next_bool(0.5) {
            0.0
        } else {
            measured * 10.0
        };
        (reading, true)
    }

    /// How many epochs late PMC telemetry arrives.
    pub(crate) fn telemetry_delay(&self) -> usize {
        self.config.telemetry_delay_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> DvfsLadder {
        DvfsLadder::default()
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let c = FaultConfig::default();
        assert!(!c.enabled());
        c.validate().unwrap();
        assert!(!FaultPlan::new(c, 0).unwrap().enabled());
    }

    #[test]
    fn invalid_rates_rejected() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let c = FaultConfig {
                pmc_corrupt_rate: bad,
                ..FaultConfig::default()
            };
            assert!(c.validate().is_err(), "rate {bad} should be rejected");
        }
    }

    #[test]
    fn same_seed_reproduces_fault_sequence() {
        let config = FaultConfig {
            pmc_corrupt_rate: 0.4,
            actuation_reject_rate: 0.3,
            dvfs_clamp_rate: 0.2,
            power_glitch_rate: 0.3,
            core_fail_rate: 0.3,
            core_repair_rate: 0.2,
            max_offline_cores: 4,
            ..FaultConfig::default()
        };
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(config.clone(), seed).unwrap();
            let cores: Vec<CoreId> = (0..8).map(CoreId).collect();
            let mut trace = Vec::new();
            let mut sample = PmcSample::from_array([1.0; NUM_COUNTERS]);
            let prev = PmcSample::from_array([2.0; NUM_COUNTERS]);
            let mut last = None;
            for _ in 0..50 {
                plan.begin_epoch(18);
                let applied = plan.actuate(&cores, ladder().max(), last.as_ref(), &ladder());
                let fault = plan.corrupt_pmcs(&mut sample, &prev);
                let (reading, glitched) = plan.glitch_power(100.0);
                trace.push((
                    applied.clone(),
                    fault,
                    reading.to_bits(),
                    glitched,
                    plan.offline_cores().len(),
                ));
                last = Some(applied);
            }
            trace
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn rejection_keeps_last_applied() {
        let config = FaultConfig {
            actuation_reject_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config, 1).unwrap();
        let first: Vec<CoreId> = (0..4).map(CoreId).collect();
        let a1 = plan.actuate(&first, ladder().max(), None, &ladder());
        // No prior state: the first request goes through un-rejected.
        assert!(!a1.rejected);
        assert_eq!(a1.cores, first);
        let second: Vec<CoreId> = (4..10).map(CoreId).collect();
        let a2 = plan.actuate(&second, ladder().min(), Some(&a1), &ladder());
        assert!(a2.rejected);
        assert_eq!(a2.cores, first, "rejected request keeps previous cores");
        assert_eq!(
            a2.freq,
            ladder().max(),
            "rejected request keeps previous freq"
        );
    }

    #[test]
    fn clamp_steps_down_one_dvfs_level() {
        let config = FaultConfig {
            dvfs_clamp_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config, 2).unwrap();
        let cores = vec![CoreId(0)];
        let a = plan.actuate(&cores, ladder().max(), None, &ladder());
        assert!(a.clamped);
        let max_idx = ladder().len() - 1;
        assert_eq!(a.freq, ladder().frequency_at(max_idx - 1).unwrap());
        // Already at the bottom: clamp is a no-op on frequency.
        let a = plan.actuate(&cores, ladder().min(), None, &ladder());
        assert_eq!(a.freq, ladder().min());
    }

    #[test]
    fn offline_cores_filtered_but_never_all() {
        let config = FaultConfig {
            core_fail_rate: 1.0,
            max_offline_cores: 18,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config, 3).unwrap();
        for _ in 0..40 {
            plan.begin_epoch(18);
        }
        // One failure per epoch, capped below the socket size.
        assert!(!plan.offline_cores().is_empty());
        assert!(plan.offline_cores().len() < 18);
        // A service whose every requested core is offline keeps one.
        let requested: Vec<CoreId> = plan.offline_cores().iter().copied().collect();
        let a = plan.actuate(&requested, ladder().max(), None, &ladder());
        assert!(!a.cores.is_empty());
    }

    #[test]
    fn pmc_corruption_covers_all_kinds() {
        let config = FaultConfig {
            pmc_corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config, 4).unwrap();
        let prev = PmcSample::from_array([7.0; NUM_COUNTERS]);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let mut sample = PmcSample::from_array([1.0; NUM_COUNTERS]);
            let kind = plan.corrupt_pmcs(&mut sample, &prev).expect("rate 1.0");
            match kind {
                PmcFaultKind::Nan => assert!(sample.as_array()[0].is_nan()),
                PmcFaultKind::Inf => {
                    assert!(sample.as_array()[0].is_infinite());
                }
                PmcFaultKind::Zero => assert_eq!(sample.as_array()[0], 0.0),
                PmcFaultKind::Stale => assert_eq!(sample, prev),
            }
            seen.insert(format!("{kind:?}"));
        }
        assert_eq!(seen.len(), 4, "all four corruption kinds should occur");
    }

    #[test]
    fn power_glitch_zero_or_spike() {
        let config = FaultConfig {
            power_glitch_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config, 5).unwrap();
        for _ in 0..50 {
            let (reading, glitched) = plan.glitch_power(80.0);
            assert!(glitched);
            assert!(reading == 0.0 || (reading - 800.0).abs() < 1e-9);
        }
    }

    #[test]
    fn telemetry_health_flags() {
        let mut h = TelemetryHealth::clean(2);
        assert!(!h.degraded());
        assert!(!h.service_degraded(0));
        h.pmc_faults[1] = Some(PmcFaultKind::Nan);
        assert!(h.degraded());
        assert!(h.service_degraded(1));
        assert!(!h.service_degraded(0));
        let mut h = TelemetryHealth::clean(1);
        h.power_glitched = true;
        assert!(h.degraded());
        let mut h = TelemetryHealth::clean(1);
        h.delayed_epochs = 2;
        assert!(h.degraded());
    }
}
