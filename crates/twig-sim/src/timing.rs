//! Seeded, deterministic *timing*-fault injection for the epoch loop.
//!
//! The [`fault`](crate::fault) module corrupts *what* the manager observes;
//! this module corrupts *when*. Real control loops miss their deadline
//! because PMC reads stall behind perf multiplexing, a learning step
//! overruns, sysfs actuation blocks, or the timebase itself misbehaves
//! (NTP skew, virtualised clocks going backwards or freezing). A
//! [`TimingFaultPlan`] draws one [`EpochTimings`] record per epoch — phase
//! latencies plus clock misbehaviour — which the experiment driver feeds
//! into a `twig_core::SimClock` around the deadline scheduler.
//!
//! Like [`FaultPlan`](crate::FaultPlan), the plan owns its **own** RNG
//! stream with a fixed per-epoch draw order, so:
//!
//! 1. the same seed reproduces the identical timing sequence for any
//!    manager under test, and
//! 2. a plan whose every rate and latency is zero draws nothing and leaves
//!    a run bit-identical to one with no plan installed.
//!
//! Timing faults never perturb the workload simulation itself — a stalled
//! actuation makes the *manager* late, not the simulated requests faster.

use crate::SimError;
use twig_stats::fields::{any_active, check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// Per-epoch timing-fault probabilities, base latencies and magnitudes.
/// All-zero by default: the default configuration injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingFaultConfig {
    /// Baseline duration of the PMC read phase, ms.
    pub pmc_base_ms: f64,
    /// Probability, per epoch, that the PMC read spikes.
    pub pmc_spike_rate: f64,
    /// Extra latency added to a spiked PMC read, ms.
    pub pmc_spike_ms: f64,
    /// Probability, per epoch, that the delivered PMC window is old (a
    /// backlogged collector handing out a previous interval).
    pub pmc_stale_rate: f64,
    /// Age of a stale window, ms (how long ago it was captured).
    pub pmc_stale_age_ms: f64,
    /// Baseline duration of the inference phase, ms.
    pub inference_base_ms: f64,
    /// Probability, per epoch, that inference spikes.
    pub inference_spike_rate: f64,
    /// Extra latency added to a spiked inference, ms.
    pub inference_spike_ms: f64,
    /// Baseline duration of one learning micro-batch chunk, ms.
    pub learn_chunk_base_ms: f64,
    /// Probability, per epoch, that every learn chunk this epoch spikes.
    pub learn_spike_rate: f64,
    /// Extra latency per spiked learn chunk, ms.
    pub learn_spike_ms: f64,
    /// Baseline duration of one actuation attempt, ms.
    pub actuation_base_ms: f64,
    /// Probability, per epoch, that actuation attempts stall.
    pub actuation_stall_rate: f64,
    /// Extra latency per stalled actuation attempt, ms.
    pub actuation_stall_ms: f64,
    /// Upper bound on uniform clock jitter added per epoch, ms.
    pub clock_jitter_ms: f64,
    /// Probability, per epoch, of a backward clock jump (NTP step / VM
    /// migration skew).
    pub clock_skew_rate: f64,
    /// Size of a backward clock jump, ms.
    pub clock_skew_ms: f64,
    /// Probability, per epoch, that the clock freezes for the whole epoch.
    pub clock_stuck_rate: f64,
}

impl TimingFaultConfig {
    /// The field table: every field once, under its `.scn` key (a spike
    /// or skew is one `<rate> <ms>` record), in the order the scenario
    /// emitter writes them.
    pub const FIELDS: &'static [Row<TimingFaultConfig>] = twig_stats::field_rows![
        "pmc_base" => pmc_base_ms: Duration;
        "pmc_spike" => pmc_spike_rate: Probability, pmc_spike_ms: Duration;
        "pmc_stale" => pmc_stale_rate: Probability, pmc_stale_age_ms: Duration;
        "inference_base" => inference_base_ms: Duration;
        "inference_spike" => inference_spike_rate: Probability, inference_spike_ms: Duration;
        "learn_chunk" => learn_chunk_base_ms: Duration;
        "learn_spike" => learn_spike_rate: Probability, learn_spike_ms: Duration;
        "actuation_base" => actuation_base_ms: Duration;
        "actuation_stall" => actuation_stall_rate: Probability, actuation_stall_ms: Duration;
        "clock_jitter" => clock_jitter_ms: Duration;
        "clock_skew" => clock_skew_rate: Probability, clock_skew_ms: Duration;
        "clock_stuck" => clock_stuck_rate: Probability;
    ];

    /// `true` when at least one draw can fire (any rate, base latency or
    /// jitter bound > 0).
    pub fn enabled(&self) -> bool {
        any_active(Self::FIELDS, self)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a rate is outside `[0, 1]`
    /// or a latency/magnitude is negative or non-finite.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |detail| SimError::InvalidConfig { detail };
        check(Self::FIELDS, self, Kind::Probability)
            .map_err(|(label, rate)| invalid(format!("timing {label} = {rate} outside [0, 1]")))?;
        check(Self::FIELDS, self, Kind::Duration).map_err(|(label, ms)| {
            invalid(format!(
                "timing {label} = {ms} must be non-negative and finite"
            ))
        })
    }
}

/// One epoch's drawn phase latencies and clock misbehaviour, consumed by a
/// timing-experiment driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochTimings {
    /// Duration of the PMC read phase this epoch, ms.
    pub pmc_read_ms: f64,
    /// Age of the delivered PMC window, ms (0 = fresh this interval).
    pub pmc_window_age_ms: f64,
    /// Duration of the inference phase this epoch, ms.
    pub inference_ms: f64,
    /// Duration of each learning micro-batch chunk this epoch, ms.
    pub learn_chunk_ms: f64,
    /// Duration of each actuation attempt this epoch, ms.
    pub actuation_attempt_ms: f64,
    /// Extra clock jitter to spread across the epoch, ms.
    pub clock_jitter_ms: f64,
    /// Backward clock jump to apply this epoch, ms (0 = none).
    pub clock_skew_ms: f64,
    /// The clock is frozen for this entire epoch.
    pub clock_stuck: bool,
}

impl EpochTimings {
    /// All-zero timings: every phase instantaneous, clock perfectly behaved.
    pub fn zero() -> Self {
        EpochTimings {
            pmc_read_ms: 0.0,
            pmc_window_age_ms: 0.0,
            inference_ms: 0.0,
            learn_chunk_ms: 0.0,
            actuation_attempt_ms: 0.0,
            clock_jitter_ms: 0.0,
            clock_skew_ms: 0.0,
            clock_stuck: false,
        }
    }
}

/// A deterministic timing-fault schedule, driven by its own seeded RNG.
///
/// Install on a server with
/// [`Server::set_timing_plan`](crate::Server::set_timing_plan); the server
/// memoizes exactly one [`draw_epoch`](Self::draw_epoch) per simulated
/// epoch. Draws happen in a fixed order (PMC spike, PMC staleness,
/// inference spike, learn spike, actuation stall, jitter, skew, stuck), so
/// the same seed yields the same timing sequence regardless of what the
/// manager under test decides.
#[derive(Debug, Clone)]
pub struct TimingFaultPlan {
    config: TimingFaultConfig,
    rng: Xoshiro256,
}

impl TimingFaultPlan {
    /// Creates a plan from a configuration and a seed for its private RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid rates or latencies.
    pub fn new(config: TimingFaultConfig, seed: u64) -> Result<Self, SimError> {
        config.validate()?;
        Ok(TimingFaultPlan {
            config,
            rng: Xoshiro256::seed_from_u64(seed),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TimingFaultConfig {
        &self.config
    }

    /// `true` when at least one draw can fire.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Draws one epoch's timings. Every guarded draw consumes RNG state
    /// only when its rate is non-zero, so an all-zero configuration never
    /// touches the stream and stays bit-identical to no plan at all.
    pub fn draw_epoch(&mut self) -> EpochTimings {
        let c = &self.config;
        let fire = |rng: &mut Xoshiro256, rate: f64| rate > 0.0 && rng.next_bool(rate);
        let pmc_spiked = fire(&mut self.rng, c.pmc_spike_rate);
        let pmc_stale = fire(&mut self.rng, c.pmc_stale_rate);
        let inference_spiked = fire(&mut self.rng, c.inference_spike_rate);
        let learn_spiked = fire(&mut self.rng, c.learn_spike_rate);
        let actuation_stalled = fire(&mut self.rng, c.actuation_stall_rate);
        let jitter = if c.clock_jitter_ms > 0.0 {
            self.rng.range_f64(0.0, c.clock_jitter_ms)
        } else {
            0.0
        };
        let skewed = fire(&mut self.rng, c.clock_skew_rate);
        let stuck = fire(&mut self.rng, c.clock_stuck_rate);
        EpochTimings {
            pmc_read_ms: c.pmc_base_ms + if pmc_spiked { c.pmc_spike_ms } else { 0.0 },
            pmc_window_age_ms: if pmc_stale { c.pmc_stale_age_ms } else { 0.0 },
            inference_ms: c.inference_base_ms
                + if inference_spiked {
                    c.inference_spike_ms
                } else {
                    0.0
                },
            learn_chunk_ms: c.learn_chunk_base_ms
                + if learn_spiked { c.learn_spike_ms } else { 0.0 },
            actuation_attempt_ms: c.actuation_base_ms
                + if actuation_stalled {
                    c.actuation_stall_ms
                } else {
                    0.0
                },
            clock_jitter_ms: jitter,
            clock_skew_ms: if skewed { c.clock_skew_ms } else { 0.0 },
            clock_stuck: stuck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled_and_valid() {
        let c = TimingFaultConfig::default();
        assert!(!c.enabled());
        c.validate().unwrap();
        let mut plan = TimingFaultPlan::new(c, 0).unwrap();
        assert!(!plan.enabled());
        for _ in 0..5 {
            assert_eq!(plan.draw_epoch(), EpochTimings::zero());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        for bad_rate in [-0.1, 1.5, f64::NAN] {
            let c = TimingFaultConfig {
                learn_spike_rate: bad_rate,
                ..TimingFaultConfig::default()
            };
            assert!(c.validate().is_err(), "rate {bad_rate} should be rejected");
        }
        for bad_ms in [-1.0, f64::INFINITY, f64::NAN] {
            let c = TimingFaultConfig {
                actuation_stall_ms: bad_ms,
                ..TimingFaultConfig::default()
            };
            assert!(c.validate().is_err(), "latency {bad_ms} should be rejected");
        }
    }

    #[test]
    fn same_seed_reproduces_timing_sequence() {
        let config = TimingFaultConfig {
            pmc_base_ms: 5.0,
            pmc_spike_rate: 0.3,
            pmc_spike_ms: 200.0,
            pmc_stale_rate: 0.2,
            pmc_stale_age_ms: 1500.0,
            inference_base_ms: 10.0,
            inference_spike_rate: 0.3,
            inference_spike_ms: 400.0,
            learn_chunk_base_ms: 20.0,
            learn_spike_rate: 0.4,
            learn_spike_ms: 300.0,
            actuation_base_ms: 8.0,
            actuation_stall_rate: 0.3,
            actuation_stall_ms: 250.0,
            clock_jitter_ms: 25.0,
            clock_skew_rate: 0.1,
            clock_skew_ms: 500.0,
            clock_stuck_rate: 0.1,
        };
        let run = |seed: u64| {
            let mut plan = TimingFaultPlan::new(config.clone(), seed).unwrap();
            (0..100).map(|_| plan.draw_epoch()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should differ");
        // Every injector fires at least once over 100 epochs at these rates.
        let trace = run(11);
        assert!(trace.iter().any(|t| t.pmc_read_ms > 100.0));
        assert!(trace.iter().any(|t| t.pmc_window_age_ms > 0.0));
        assert!(trace.iter().any(|t| t.inference_ms > 100.0));
        assert!(trace.iter().any(|t| t.learn_chunk_ms > 100.0));
        assert!(trace.iter().any(|t| t.actuation_attempt_ms > 100.0));
        assert!(trace.iter().any(|t| t.clock_skew_ms > 0.0));
        assert!(trace.iter().any(|t| t.clock_stuck));
        // Base latencies always present even when nothing fires.
        assert!(trace.iter().all(|t| t.pmc_read_ms >= 5.0));
        assert!(trace.iter().all(|t| t.clock_jitter_ms >= 0.0));
    }

    #[test]
    fn base_latencies_without_rates_are_constant() {
        let config = TimingFaultConfig {
            pmc_base_ms: 3.0,
            inference_base_ms: 7.0,
            learn_chunk_base_ms: 11.0,
            actuation_base_ms: 2.0,
            ..TimingFaultConfig::default()
        };
        assert!(config.enabled());
        let mut plan = TimingFaultPlan::new(config, 1).unwrap();
        for _ in 0..10 {
            let t = plan.draw_epoch();
            assert_eq!(t.pmc_read_ms, 3.0);
            assert_eq!(t.inference_ms, 7.0);
            assert_eq!(t.learn_chunk_ms, 11.0);
            assert_eq!(t.actuation_attempt_ms, 2.0);
            assert_eq!(t.pmc_window_age_ms, 0.0);
            assert!(!t.clock_stuck);
        }
    }
}
