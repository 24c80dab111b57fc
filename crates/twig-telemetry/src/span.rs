use std::time::Instant;

/// Number of phases in a control-loop epoch.
pub const NUM_PHASES: usize = 6;

/// The phases of one Twig decision epoch, in pipeline order.
///
/// `decide()` covers the first three (read counters, run the networks, map
/// actions to an assignment), the platform covers actuation, and
/// `observe()` covers the last two (reward computation + experience push,
/// then gradient steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading and normalising the PMC state vectors.
    PmcRead,
    /// Forward pass of the per-service Q-networks + action selection.
    Inference,
    /// Translating joint actions into a core/DVFS assignment.
    Mapping,
    /// Applying the assignment on the platform (simulated epoch step).
    Actuation,
    /// Reward computation and replay-buffer insertion.
    RewardUpdate,
    /// Minibatch gradient steps on the online network.
    LearnStep,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::PmcRead,
        Phase::Inference,
        Phase::Mapping,
        Phase::Actuation,
        Phase::RewardUpdate,
        Phase::LearnStep,
    ];

    /// Stable snake_case name, used for metric keys and export columns.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PmcRead => "pmc_read",
            Phase::Inference => "inference",
            Phase::Mapping => "mapping",
            Phase::Actuation => "actuation",
            Phase::RewardUpdate => "reward_update",
            Phase::LearnStep => "learn_step",
        }
    }

    /// Name of the histogram [`Telemetry::phase_add`] feeds with this
    /// phase's times: `phase_ms.<name>`. A constant, so recording a phase
    /// formats nothing.
    ///
    /// [`Telemetry::phase_add`]: crate::Telemetry::phase_add
    pub fn metric_key(self) -> &'static str {
        match self {
            Phase::PmcRead => "phase_ms.pmc_read",
            Phase::Inference => "phase_ms.inference",
            Phase::Mapping => "phase_ms.mapping",
            Phase::Actuation => "phase_ms.actuation",
            Phase::RewardUpdate => "phase_ms.reward_update",
            Phase::LearnStep => "phase_ms.learn_step",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::PmcRead => 0,
            Phase::Inference => 1,
            Phase::Mapping => 2,
            Phase::Actuation => 3,
            Phase::RewardUpdate => 4,
            Phase::LearnStep => 5,
        }
    }
}

/// Wall-clock time spent in each [`Phase`] of one epoch, in milliseconds.
///
/// A span is assembled cooperatively: the manager records its phases from
/// `decide()`/`observe()`, the platform records actuation from its step —
/// all against the same epoch number, merged by the telemetry handle.
///
/// # Examples
///
/// ```
/// use twig_telemetry::{EpochSpan, Phase};
///
/// let mut span = EpochSpan::new(3);
/// span.add(Phase::Inference, 0.25);
/// span.add(Phase::Inference, 0.25);
/// assert_eq!(span.get(Phase::Inference), 0.5);
/// assert_eq!(span.total_ms(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSpan {
    /// The decision epoch this span describes.
    pub epoch: u64,
    phase_ms: [f64; NUM_PHASES],
}

impl EpochSpan {
    /// Creates an empty span for `epoch`.
    pub fn new(epoch: u64) -> Self {
        EpochSpan {
            epoch,
            phase_ms: [0.0; NUM_PHASES],
        }
    }

    /// Adds `ms` to `phase` (accumulates across calls within the epoch).
    pub fn add(&mut self, phase: Phase, ms: f64) {
        self.phase_ms[phase.index()] += ms;
    }

    /// Milliseconds recorded for `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.phase_ms[phase.index()]
    }

    /// Total milliseconds across all phases.
    pub fn total_ms(&self) -> f64 {
        self.phase_ms.iter().sum()
    }
}

/// Measures elapsed wall-clock time between laps — but only when armed.
///
/// A disarmed stopwatch never touches [`Instant::now`] and always reports
/// zero, so the disabled-telemetry hot path pays nothing and, crucially,
/// never perturbs anything: timing reads feed only the telemetry layer,
/// keeping simulation outputs bit-identical whether telemetry is on or off.
///
/// # Examples
///
/// ```
/// use twig_telemetry::Stopwatch;
///
/// let mut off = Stopwatch::disarmed();
/// assert_eq!(off.lap_ms(), 0.0);
/// let mut on = Stopwatch::armed();
/// assert!(on.lap_ms() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// A stopwatch that measures real time.
    pub fn armed() -> Self {
        Stopwatch {
            last: Some(Instant::now()),
        }
    }

    /// A stopwatch that always reports zero and never reads the clock.
    pub fn disarmed() -> Self {
        Stopwatch { last: None }
    }

    /// Milliseconds since the previous lap (or since arming), then restarts
    /// the lap. Always `0.0` when disarmed.
    pub fn lap_ms(&mut self) -> f64 {
        match self.last {
            Some(prev) => {
                let now = Instant::now();
                self.last = Some(now);
                now.duration_since(prev).as_secs_f64() * 1e3
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_cover_the_array_in_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "pmc_read",
                "inference",
                "mapping",
                "actuation",
                "reward_update",
                "learn_step"
            ]
        );
        for p in Phase::ALL {
            assert_eq!(p.metric_key(), format!("phase_ms.{}", p.name()));
        }
    }

    #[test]
    fn span_accumulates_per_phase() {
        let mut span = EpochSpan::new(9);
        span.add(Phase::PmcRead, 1.0);
        span.add(Phase::PmcRead, 0.5);
        span.add(Phase::LearnStep, 2.0);
        assert_eq!(span.epoch, 9);
        assert_eq!(span.get(Phase::PmcRead), 1.5);
        assert_eq!(span.get(Phase::Inference), 0.0);
        assert_eq!(span.total_ms(), 3.5);
    }

    #[test]
    fn disarmed_stopwatch_reports_zero_forever() {
        let mut sw = Stopwatch::disarmed();
        assert_eq!(sw.lap_ms(), 0.0);
        assert_eq!(sw.lap_ms(), 0.0);
    }

    #[test]
    fn armed_stopwatch_reports_nonnegative_laps() {
        let mut sw = Stopwatch::armed();
        let a = sw.lap_ms();
        let b = sw.lap_ms();
        assert!(a >= 0.0 && b >= 0.0);
    }
}
