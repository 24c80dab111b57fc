//! Deadline-aware epoch scheduling with a load-shedding ladder.
//!
//! Twig's contract is one full decision cycle — PMC read, BDQ inference,
//! learning, actuation — every [`INTERVAL_MS`] (1 s in the paper). Real
//! colocated managers miss that deadline: PMC reads stall behind perf
//! multiplexing, cgroup/DVFS writes block, and a learning step overruns.
//! The [`EpochScheduler`] carves the interval into fixed per-phase budgets
//! (the `*_BUDGET_MS` constants) and, when the epoch is projected to
//! overrun, walks a **monotone** shedding ladder:
//!
//! 1. [`ShedLevel::DeferLearn`] — stop issuing learning micro-batches; the
//!    in-flight gradient step (`MaBdq::train_step_budgeted`) simply resumes
//!    next epoch — it is the same code as an undeferred step, paused
//!    between two agents.
//! 2. [`ShedLevel::SkipInference`] — reuse the last validated action
//!    instead of running the network.
//! 3. [`ShedLevel::SafeFallback`] — actuate the `SafetyGovernor`'s degraded
//!    decide (Twig's greedy argmax, validated like a primary decision) or,
//!    when that fails or actuation gives up, its safe assignments (all
//!    cores, max DVFS).
//!
//! Within one epoch the level only ever escalates (`max`), and
//! [`begin_epoch`](EpochScheduler::begin_epoch) resets it — so a transient
//! spike cannot leave the manager wedged in fallback. Actuation gets
//! bounded retries with saturating exponential backoff ([`RETRY_BUDGET`]);
//! PMC windows older than [`STALE_AFTER_MS`] are flagged so the driver
//! routes them through `TaskManager::observe_degraded` instead of learning
//! from stale state.
//! Time comes from an injected [`VirtualClock`]; backward or stuck
//! readings are clamped, and every loop the scheduler gates (learn chunks,
//! actuation attempts) is capped by count as well as by time, so a stuck
//! clock degrades scheduling but can never hang the control loop.
//!
//! Everything is observable through `deadline.*` telemetry: misses, shed
//! depth per ladder rung, stale windows, actuation retries/timeouts and an
//! `deadline.epoch_ms` duration digest.
//!
//! [`EpochScheduler::metered_epoch`] is the one phase walk that puts the
//! directives together against the simulator's drawn phase latencies; the
//! timing suite and the scenario runner both drive it.

use crate::clock::{SimClock, VirtualClock};
use crate::{ManagerError, SafetyGovernor, TaskManager, Twig};
use twig_rl::BudgetedProgress;
use twig_sim::{Assignment, EpochReport, EpochTimings, Server};
use twig_telemetry::Telemetry;

/// How much of the epoch the scheduler has shed, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedLevel {
    /// Full cycle: inference, learning and actuation all run.
    None = 0,
    /// Learning deferred to a later epoch (micro-batch left in flight).
    DeferLearn = 1,
    /// Inference skipped; the last validated action is reused (implies
    /// learning is deferred too).
    SkipInference = 2,
    /// Everything shed: actuate the governor's safe fallback.
    SafeFallback = 3,
}

impl ShedLevel {
    /// Ladder depth as a small integer (0 = nothing shed).
    pub fn depth(self) -> u8 {
        self as u8
    }
}

/// What the scheduler wants done about inference this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceDirective {
    /// Enough budget remains: run the network.
    Run,
    /// Inference would overrun: reuse the last validated action.
    ReuseLast,
    /// Not even actuation headroom remains: use the safe fallback.
    SafeFallback,
}

/// What the scheduler wants done about the learning phase right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnDirective {
    /// Budget remains: run one more micro-batch chunk.
    Chunk,
    /// Stop for this epoch; resume the in-flight step next epoch.
    Defer,
}

/// What the scheduler wants done after one actuation attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActuationDirective {
    /// The attempt completed within the timeout: the decision is applied.
    Applied,
    /// The attempt timed out; wait `backoff_ms` and try again.
    Retry {
        /// Saturating-doubled backoff to sleep before the next attempt.
        backoff_ms: f64,
    },
    /// Retries exhausted (or the interval is spent): actuate the fallback.
    GiveUp,
}

/// Decision interval (the deadline), ms. Paper: 1000.
pub const INTERVAL_MS: f64 = 1000.0;
/// Budget for the PMC read phase, ms.
pub const PMC_BUDGET_MS: f64 = 100.0;
/// Budget for BDQ inference + mapping, ms.
pub const INFERENCE_BUDGET_MS: f64 = 150.0;
/// Budget for the learning phase, ms.
pub const LEARN_BUDGET_MS: f64 = 450.0;
/// Headroom reserved for actuation at the end of the epoch, ms.
pub const ACTUATE_BUDGET_MS: f64 = 200.0;
/// PMC windows older than this are stale and must not be learned from.
/// The paper's control loop tolerates at most one interval of lag.
pub const STALE_AFTER_MS: f64 = 1000.0;
/// A single actuation attempt longer than this counts as timed out.
const ACTUATION_TIMEOUT_MS: f64 = 80.0;
/// Hard cap on learning micro-batch chunks per epoch, so a stuck clock
/// (elapsed time frozen) still cannot spin the learn loop forever.
const MAX_LEARN_CHUNKS: u32 = 8;

/// The actuation retry budget: how many retries one actuation gets and
/// how long to back off between them. Shared with `twig-platform`, whose
/// write-verify reconciliation ladder retries divergent sysfs writes under
/// exactly this budget — one budget governs every bounded-retry loop in
/// the control path.
pub const RETRY_BUDGET: RetryBudget = RetryBudget {
    max_retries: 2,
    backoff_ms: 10.0,
    backoff_cap_ms: 80.0,
};

/// A bounded-retry budget with saturating exponential backoff; see
/// [`RETRY_BUDGET`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Retries after the first attempt before giving up.
    pub max_retries: u32,
    /// Initial backoff, ms; doubles per retry.
    pub backoff_ms: f64,
    /// Saturation ceiling for the doubled backoff, ms.
    pub backoff_cap_ms: f64,
}

impl RetryBudget {
    /// Backoff before retry number `attempt` (0-based): saturating
    /// exponential doubling, capped. `f64::powi` cannot overflow to a
    /// panic, and the cap bounds the wait.
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        (self.backoff_ms * f64::powi(2.0, attempt.min(1024) as i32)).min(self.backoff_cap_ms)
    }
}

twig_telemetry::stats! {
    /// Aggregate counters for reports. Every counter is mirrored into
    /// telemetry under the matching `deadline.*` name; the `plain` fields
    /// have no counter.
    pub struct SchedulerStats {
        /// Epochs whose wall duration exceeded the interval.
        misses => "deadline.misses",
        /// PMC windows rejected as stale.
        stale_windows => "deadline.stale_windows",
        /// Actuation retry attempts issued.
        actuation_retries => "deadline.actuation_retries",
        /// Actuation attempts that hit the per-attempt timeout.
        actuation_timeouts => "deadline.actuation_timeouts",
        /// Epochs that ended at [`ShedLevel::DeferLearn`].
        defer_learn_epochs => "deadline.shed.defer_learn",
        /// Epochs that ended at [`ShedLevel::SkipInference`].
        skip_inference_epochs => "deadline.shed.skip_inference",
        /// Epochs that ended at [`ShedLevel::SafeFallback`].
        safe_fallback_epochs => "deadline.shed.safe_fallback",
        plain {
            /// Epochs completed (`end_epoch` calls).
            epochs: u64,
            /// Learning micro-batch chunks granted.
            learn_chunks: u64,
            /// Deepest ladder level any epoch reached.
            max_ladder_depth: u8,
        }
    }
}

/// Deadline-aware scheduler for one manager's epoch loop. Generic over the
/// time source so the simulator can inject deterministic time; see the
/// module docs for the ladder semantics.
///
/// # Examples
///
/// ```
/// use twig_core::{EpochScheduler, InferenceDirective, SimClock};
///
/// let clock = SimClock::new();
/// let mut sched = EpochScheduler::new(clock.clone());
/// sched.begin_epoch();
/// clock.advance(50.0); // fast PMC read
/// assert_eq!(sched.inference_directive(), InferenceDirective::Run);
/// clock.advance(900.0); // the learn phase blew the interval
/// sched.end_epoch();
/// assert_eq!(sched.stats().misses, 0); // 950 ms < 1000 ms: made it
/// ```
#[derive(Debug, Clone)]
pub struct EpochScheduler<C: VirtualClock> {
    clock: C,
    telemetry: Telemetry,
    /// Highest clock reading seen — backward jumps clamp to this.
    high_water_ms: f64,
    epoch_start_ms: f64,
    level: ShedLevel,
    attempts_this_epoch: u32,
    chunks_this_epoch: u32,
    stats: SchedulerStats,
}

impl<C: VirtualClock> EpochScheduler<C> {
    /// Wraps the clock; the epoch origin is its current reading.
    pub fn new(clock: C) -> Self {
        let now = Self::sanitize(clock.now_ms(), 0.0);
        EpochScheduler {
            clock,
            telemetry: Telemetry::disabled(),
            high_water_ms: now,
            epoch_start_ms: now,
            level: ShedLevel::None,
            attempts_this_epoch: 0,
            chunks_this_epoch: 0,
            stats: SchedulerStats::default(),
        }
    }

    /// Attaches a telemetry handle for the `deadline.*` metrics. Telemetry
    /// never feeds back into scheduling decisions.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Current ladder level (monotone within an epoch).
    pub fn shed_level(&self) -> ShedLevel {
        self.level
    }

    fn sanitize(raw: f64, fallback: f64) -> f64 {
        if raw.is_finite() {
            raw
        } else {
            fallback
        }
    }

    /// Clamped-monotone clock read: a skewed-backward or non-finite reading
    /// never moves scheduler time backwards (a stuck clock reads as frozen
    /// elapsed time, which the per-epoch count caps make safe).
    fn now_ms(&mut self) -> f64 {
        let raw = Self::sanitize(self.clock.now_ms(), self.high_water_ms);
        self.high_water_ms = self.high_water_ms.max(raw);
        self.high_water_ms
    }

    /// Milliseconds of this epoch already spent.
    pub fn elapsed_ms(&mut self) -> f64 {
        self.now_ms() - self.epoch_start_ms
    }

    /// Milliseconds of the epoch remaining (clamped at zero).
    pub fn remaining_ms(&mut self) -> f64 {
        (INTERVAL_MS - self.elapsed_ms()).max(0.0)
    }

    /// Starts a new epoch: resets the ladder, the actuation-attempt and
    /// learn-chunk counters, and the epoch origin.
    pub fn begin_epoch(&mut self) {
        self.epoch_start_ms = self.now_ms();
        self.level = ShedLevel::None;
        self.attempts_this_epoch = 0;
        self.chunks_this_epoch = 0;
    }

    /// Monotone escalation: the ladder never descends within an epoch.
    fn escalate(&mut self, to: ShedLevel) {
        self.level = self.level.max(to);
    }

    /// Checks a PMC window's age against the staleness bound. A stale
    /// window must be routed to `TaskManager::observe_degraded` (the
    /// monitor keeps its last healthy smoothing) — never learned from, and
    /// never used to justify a fresh actuation.
    pub fn pmc_window_fresh(&mut self, age_ms: f64) -> bool {
        if age_ms.is_finite() && age_ms <= STALE_AFTER_MS {
            return true;
        }
        self.stats.bump(&self.telemetry, |s| &mut s.stale_windows);
        false
    }

    /// Decides the inference phase from the time already spent: run it,
    /// reuse the last validated action, or drop to the safe fallback.
    /// Escalates the ladder as a side effect.
    pub fn inference_directive(&mut self) -> InferenceDirective {
        let elapsed = self.elapsed_ms();
        let actuation_deadline = INTERVAL_MS - ACTUATE_BUDGET_MS;
        if self.level >= ShedLevel::SafeFallback || elapsed >= actuation_deadline {
            self.escalate(ShedLevel::SafeFallback);
            return InferenceDirective::SafeFallback;
        }
        if self.level >= ShedLevel::SkipInference
            || elapsed + INFERENCE_BUDGET_MS > actuation_deadline
        {
            self.escalate(ShedLevel::SkipInference);
            return InferenceDirective::ReuseLast;
        }
        InferenceDirective::Run
    }

    /// Decides whether the learning phase may run one more micro-batch
    /// chunk. `Defer` leaves any in-flight budgeted step untouched — it
    /// resumes on the first `Chunk` grant of a later epoch.
    pub fn learn_directive(&mut self) -> LearnDirective {
        if self.level >= ShedLevel::DeferLearn {
            return LearnDirective::Defer;
        }
        if self.chunks_this_epoch >= MAX_LEARN_CHUNKS {
            self.escalate(ShedLevel::DeferLearn);
            return LearnDirective::Defer;
        }
        let elapsed = self.elapsed_ms();
        let learn_deadline = INTERVAL_MS - ACTUATE_BUDGET_MS;
        if elapsed >= learn_deadline {
            self.escalate(ShedLevel::DeferLearn);
            return LearnDirective::Defer;
        }
        self.chunks_this_epoch += 1;
        self.stats.learn_chunks += 1;
        LearnDirective::Chunk
    }

    /// Scores one actuation attempt that took `attempt_ms`: applied within
    /// the timeout, retry after a saturating-doubled backoff, or give up
    /// (bounded by [`RETRY_BUDGET`]'s retries *and* by the interval, and by
    /// attempt count alone under a stuck clock).
    pub fn actuation_attempt(&mut self, attempt_ms: f64) -> ActuationDirective {
        let timed_out = !attempt_ms.is_finite() || attempt_ms > ACTUATION_TIMEOUT_MS;
        if !timed_out {
            return ActuationDirective::Applied;
        }
        self.stats
            .bump(&self.telemetry, |s| &mut s.actuation_timeouts);
        let retries_left = self.attempts_this_epoch < RETRY_BUDGET.max_retries;
        let time_left = self.elapsed_ms() < INTERVAL_MS;
        if !retries_left || !time_left {
            self.escalate(ShedLevel::SafeFallback);
            return ActuationDirective::GiveUp;
        }
        let backoff_ms = RETRY_BUDGET.backoff_for(self.attempts_this_epoch);
        self.attempts_this_epoch += 1;
        self.stats
            .bump(&self.telemetry, |s| &mut s.actuation_retries);
        ActuationDirective::Retry { backoff_ms }
    }

    /// Closes the epoch: scores the deadline, folds the deepest ladder
    /// level reached into the stats and exports the `deadline.*` gauges.
    pub fn end_epoch(&mut self) {
        let duration = self.elapsed_ms();
        self.stats.epochs += 1;
        if duration > INTERVAL_MS {
            self.stats.bump(&self.telemetry, |s| &mut s.misses);
        }
        match self.level {
            ShedLevel::None => {}
            ShedLevel::DeferLearn => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.defer_learn_epochs);
            }
            ShedLevel::SkipInference => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.skip_inference_epochs);
            }
            ShedLevel::SafeFallback => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.safe_fallback_epochs);
            }
        }
        self.stats.max_ladder_depth = self.stats.max_ladder_depth.max(self.level.depth());
        self.telemetry.record("deadline.epoch_ms", duration);
        self.telemetry
            .gauge_set("deadline.ladder_depth", f64::from(self.level.depth()));
    }
}

/// What one [`EpochScheduler::metered_epoch`] did, beside the simulator's
/// report of it.
#[derive(Debug, Clone, PartialEq)]
pub struct MeteredEpoch {
    /// The epoch as the simulator reported it (flagged delayed when the
    /// governor was told not to learn from it).
    pub report: EpochReport,
    /// The PMC window was inside the staleness bound.
    pub fresh: bool,
    /// The policy ran this epoch.
    pub decided: bool,
    /// The last validated action was reused (stale window or skipped
    /// inference).
    pub reused: bool,
    /// Actuation retries ran out and the safe plan was actuated instead.
    pub gave_up: bool,
    /// Gradient steps that completed this epoch (0 or 1).
    pub steps_completed: u32,
}

impl EpochScheduler<SimClock> {
    /// One deadline-metered control epoch against the simulator's drawn
    /// phase latencies ([`Server::epoch_timings`]): PMC read, inference,
    /// learning in one-agent micro-batches, actuation with bounded retries,
    /// then the simulator step and the governor's `observe`, and finally
    /// the sleep to the end of the interval. The injected clock is advanced
    /// by each phase's latency (not at all in a stuck-clock epoch) and the
    /// ladder decides what is shed.
    ///
    /// `last_validated` is the action "reuse last" falls back on: seed it
    /// with [`SafetyGovernor::safe_assignments`]; it is replaced whenever a
    /// fresh decision was actually applied. A stale PMC window never
    /// reaches the policy, and a stale window or a decision the actuator
    /// gave up on is flagged delayed so the governor routes the epoch to
    /// `observe_degraded` instead of learning from it.
    ///
    /// # Errors
    ///
    /// Propagates errors from the governor, the agent and the simulator.
    pub fn metered_epoch(
        &mut self,
        server: &mut Server,
        gov: &mut SafetyGovernor<Twig>,
        last_validated: &mut Vec<Assignment>,
    ) -> Result<MeteredEpoch, ManagerError> {
        let t = server.epoch_timings().unwrap_or_else(EpochTimings::zero);
        // Clock faults land first: a backward skew moves the raw clock
        // before the epoch opens, a stuck clock freezes every intra-epoch
        // advance below.
        if t.clock_skew_ms > 0.0 {
            self.clock.set(self.clock.now_ms() - t.clock_skew_ms);
        }
        self.begin_epoch();
        let clock = self.clock.clone();
        let adv = |ms: f64| {
            if !t.clock_stuck {
                clock.advance(ms);
            }
        };
        adv(t.clock_jitter_ms);

        // Phase 1: PMC read.
        adv(t.pmc_read_ms);
        let age = if t.pmc_window_age_ms > 0.0 {
            t.pmc_window_age_ms
        } else {
            t.pmc_read_ms
        };
        let fresh = self.pmc_window_fresh(age);

        // Phase 2: inference, metered against the actuation deadline.
        let directive = if fresh {
            self.inference_directive()
        } else {
            InferenceDirective::ReuseLast
        };
        let decided = directive == InferenceDirective::Run;
        let assignments = match directive {
            InferenceDirective::Run => {
                adv(t.inference_ms);
                gov.decide()?
            }
            InferenceDirective::ReuseLast => last_validated.clone(),
            InferenceDirective::SafeFallback => gov.decide_fallback(),
        };

        // Phase 3: learning as budgeted micro-batches. `Defer` leaves the
        // in-flight step parked inside the agent; it resumes on the first
        // chunk grant of a later epoch.
        let mut steps_completed = 0;
        while steps_completed == 0 && self.learn_directive() == LearnDirective::Chunk {
            adv(t.learn_chunk_ms);
            match gov.inner_mut().agent_mut().train_step_budgeted(1)? {
                BudgetedProgress::Done(_) => steps_completed = 1,
                BudgetedProgress::InProgress { .. } => {}
                BudgetedProgress::NotReady => break,
            }
        }

        // Phase 4: actuation with bounded, saturating-backoff retries.
        // Giving up actuates the governor's safe plan instead — stale or
        // unapplied decisions never reach the platform.
        let mut gave_up = false;
        loop {
            adv(t.actuation_attempt_ms);
            match self.actuation_attempt(t.actuation_attempt_ms) {
                ActuationDirective::Applied => break,
                ActuationDirective::Retry { backoff_ms } => adv(backoff_ms),
                ActuationDirective::GiveUp => {
                    gave_up = true;
                    break;
                }
            }
        }
        let mut report = if gave_up {
            server.step(&gov.safe_assignments())?
        } else {
            server.step(&assignments)?
        };

        if !fresh || (decided && gave_up) {
            report.telemetry.delayed_epochs = report.telemetry.delayed_epochs.max(1);
        }
        gov.observe(&report)?;
        if decided && !gave_up {
            *last_validated = assignments;
        }

        self.end_epoch();
        // Sleep out the remainder of the interval (real time resumes
        // between epochs even after a stuck-clock epoch).
        let remaining = self.remaining_ms();
        if remaining > 0.0 {
            self.clock.advance(remaining);
        }
        Ok(MeteredEpoch {
            report,
            fresh,
            decided,
            reused: directive == InferenceDirective::ReuseLast,
            gave_up,
            steps_completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use twig_stats::rng::{Rng, Xoshiro256};

    fn sched(clock: SimClock) -> EpochScheduler<SimClock> {
        EpochScheduler::new(clock)
    }

    #[test]
    fn constants_meet_the_budget_invariants() {
        let budgets = [
            ("INTERVAL_MS", INTERVAL_MS),
            ("PMC_BUDGET_MS", PMC_BUDGET_MS),
            ("INFERENCE_BUDGET_MS", INFERENCE_BUDGET_MS),
            ("LEARN_BUDGET_MS", LEARN_BUDGET_MS),
            ("ACTUATE_BUDGET_MS", ACTUATE_BUDGET_MS),
            ("STALE_AFTER_MS", STALE_AFTER_MS),
            ("ACTUATION_TIMEOUT_MS", ACTUATION_TIMEOUT_MS),
            ("RETRY_BUDGET.backoff_ms", RETRY_BUDGET.backoff_ms),
            ("RETRY_BUDGET.backoff_cap_ms", RETRY_BUDGET.backoff_cap_ms),
        ];
        for (label, v) in budgets {
            assert!(v.is_finite() && v > 0.0, "{label} = {v}");
        }
        let phase_sum = PMC_BUDGET_MS + INFERENCE_BUDGET_MS + LEARN_BUDGET_MS + ACTUATE_BUDGET_MS;
        assert!(
            phase_sum <= INTERVAL_MS,
            "phase budgets sum to {phase_sum} ms"
        );
        const { assert!(MAX_LEARN_CHUNKS >= 1) };
    }

    #[test]
    fn on_time_epoch_sheds_nothing() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        s.begin_epoch();
        clock.advance(40.0);
        assert!(s.pmc_window_fresh(40.0));
        assert_eq!(s.inference_directive(), InferenceDirective::Run);
        clock.advance(60.0);
        assert_eq!(s.learn_directive(), LearnDirective::Chunk);
        clock.advance(100.0);
        assert_eq!(s.actuation_attempt(20.0), ActuationDirective::Applied);
        s.end_epoch();
        let st = s.stats();
        assert_eq!(st.misses, 0);
        assert_eq!(st.max_ladder_depth, 0);
        assert_eq!(s.shed_level(), ShedLevel::None);
    }

    #[test]
    fn overrun_walks_the_ladder_in_order() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        // Learn deadline blown -> defer.
        s.begin_epoch();
        clock.advance(850.0);
        assert_eq!(s.learn_directive(), LearnDirective::Defer);
        assert_eq!(s.shed_level(), ShedLevel::DeferLearn);
        s.end_epoch();
        // Inference budget no longer fits -> reuse last action.
        s.begin_epoch();
        clock.advance(700.0);
        assert_eq!(s.inference_directive(), InferenceDirective::ReuseLast);
        assert_eq!(s.shed_level(), ShedLevel::SkipInference);
        s.end_epoch();
        // Not even actuation headroom -> safe fallback.
        s.begin_epoch();
        clock.advance(950.0);
        assert_eq!(s.inference_directive(), InferenceDirective::SafeFallback);
        assert_eq!(s.shed_level(), ShedLevel::SafeFallback);
        s.end_epoch();
        let st = s.stats();
        assert_eq!(st.defer_learn_epochs, 1);
        assert_eq!(st.skip_inference_epochs, 1);
        assert_eq!(st.safe_fallback_epochs, 1);
        assert_eq!(st.max_ladder_depth, 3);
    }

    #[test]
    fn begin_epoch_resets_the_ladder() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        s.begin_epoch();
        clock.advance(990.0);
        assert_eq!(s.inference_directive(), InferenceDirective::SafeFallback);
        s.end_epoch();
        clock.advance(10.0);
        s.begin_epoch();
        assert_eq!(s.shed_level(), ShedLevel::None);
        assert_eq!(s.inference_directive(), InferenceDirective::Run);
    }

    #[test]
    fn deadline_miss_is_counted() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        s.begin_epoch();
        clock.advance(1500.0);
        s.end_epoch();
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn stale_window_detection() {
        let clock = SimClock::new();
        let mut s = sched(clock);
        s.begin_epoch();
        assert!(s.pmc_window_fresh(999.0));
        assert!(!s.pmc_window_fresh(1001.0));
        assert!(!s.pmc_window_fresh(f64::NAN));
        assert_eq!(s.stats().stale_windows, 2);
    }

    #[test]
    fn actuation_retries_backoff_then_give_up() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        s.begin_epoch();
        let r1 = s.actuation_attempt(200.0);
        assert_eq!(r1, ActuationDirective::Retry { backoff_ms: 10.0 });
        let r2 = s.actuation_attempt(200.0);
        assert_eq!(r2, ActuationDirective::Retry { backoff_ms: 20.0 });
        // max_retries = 2: the third timeout gives up and drops to safe.
        assert_eq!(s.actuation_attempt(200.0), ActuationDirective::GiveUp);
        assert_eq!(s.shed_level(), ShedLevel::SafeFallback);
        let st = s.stats();
        assert_eq!(st.actuation_timeouts, 3);
        assert_eq!(st.actuation_retries, 2);
    }

    #[test]
    fn actuation_backoff_saturates_at_cap() {
        let mut last = 0.0;
        for attempt in (0..40).chain([1024, u32::MAX]) {
            let backoff_ms = RETRY_BUDGET.backoff_for(attempt);
            assert!(backoff_ms.is_finite());
            assert!(backoff_ms <= RETRY_BUDGET.backoff_cap_ms);
            assert!(backoff_ms >= last);
            last = backoff_ms;
        }
        assert_eq!(last, 80.0);
    }

    #[test]
    fn backward_and_stuck_clocks_are_clamped() {
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        clock.set(500.0);
        s.begin_epoch();
        // Skew backwards: elapsed clamps to zero, never negative.
        clock.set(100.0);
        assert_eq!(s.elapsed_ms(), 0.0);
        assert_eq!(s.inference_directive(), InferenceDirective::Run);
        // Stuck clock: the chunk cap still terminates the learn loop.
        let mut chunks = 0;
        while s.learn_directive() == LearnDirective::Chunk {
            chunks += 1;
            assert!(chunks <= 1000, "learn loop did not terminate");
        }
        assert_eq!(chunks, MAX_LEARN_CHUNKS);
        // Non-finite readings are ignored too.
        clock.set(f64::NAN);
        assert_eq!(s.elapsed_ms(), 0.0);
        s.end_epoch();
    }

    #[test]
    fn ladder_is_monotone_under_random_schedules() {
        // Property test: for random phase latencies at the fixed budgets,
        // within any epoch the observed shed level sequence is
        // non-decreasing, and directives are consistent with the level.
        let mut rng = Xoshiro256::seed_from_u64(0xD3AD_11FE);
        let interval = INTERVAL_MS;
        for trial in 0..200 {
            let clock = SimClock::new();
            let mut s = sched(clock.clone());
            for _epoch in 0..20 {
                s.begin_epoch();
                let mut seen = s.shed_level();
                let check = |lvl: ShedLevel, seen: &mut ShedLevel| {
                    assert!(
                        lvl >= *seen,
                        "trial {trial}: ladder de-escalated {seen:?} -> {lvl:?}"
                    );
                    *seen = lvl;
                };
                clock.advance(rng.range_f64(0.0, interval * 0.3));
                let _ = s.pmc_window_fresh(rng.range_f64(0.0, 2.0 * interval));
                check(s.shed_level(), &mut seen);
                let inf = s.inference_directive();
                check(s.shed_level(), &mut seen);
                if inf == InferenceDirective::Run {
                    clock.advance(rng.range_f64(0.0, interval * 0.4));
                }
                let mut guard = 0;
                while s.learn_directive() == LearnDirective::Chunk {
                    check(s.shed_level(), &mut seen);
                    clock.advance(rng.range_f64(0.0, interval * 0.2));
                    guard += 1;
                    assert!(guard <= 1000, "learn loop did not terminate");
                }
                check(s.shed_level(), &mut seen);
                loop {
                    match s.actuation_attempt(rng.range_f64(0.0, interval * 0.2)) {
                        ActuationDirective::Applied | ActuationDirective::GiveUp => break,
                        ActuationDirective::Retry { backoff_ms } => {
                            assert!(backoff_ms.is_finite() && backoff_ms > 0.0);
                            clock.advance(backoff_ms);
                        }
                    }
                    check(s.shed_level(), &mut seen);
                }
                check(s.shed_level(), &mut seen);
                s.end_epoch();
                clock.advance(rng.range_f64(0.0, interval));
            }
            let st = s.stats();
            assert_eq!(st.epochs, 20);
            assert!(st.max_ladder_depth <= 3);
        }
    }

    #[test]
    fn safe_fallback_epochs_decide_greedily_and_leave_no_trace() {
        use crate::{GovernorConfig, Mapper, SystemMonitor, TwigBuilder};
        use twig_rl::{EpsilonSchedule, MaBdqConfig};
        use twig_sim::{catalog, ServerConfig, TimingFaultConfig, TimingFaultPlan};

        const EPOCHS: u64 = 30;
        let specs = vec![catalog::masstree(), catalog::moses()];
        let cfg = ServerConfig::default();
        let mut server = Server::new(cfg.clone(), specs.clone(), 7).unwrap();
        for i in 0..specs.len() {
            server.set_load_fraction(i, 0.4).unwrap();
        }
        let mut twig = TwigBuilder::new()
            .services(specs.clone())
            .cores(cfg.cores)
            .dvfs(cfg.dvfs.clone())
            .epsilon(EpsilonSchedule::scaled(40))
            .agent(MaBdqConfig {
                batch_size: 8,
                ..MaBdqConfig::default()
            })
            .seed(7)
            .build()
            .unwrap();
        // What the manager's monitor sees, fed the same reports.
        let mut monitor = SystemMonitor::new(specs.len(), twig.config().eta, cfg.cores).unwrap();
        let mut observe = |twig: &mut Twig, report: &EpochReport| {
            for (i, svc) in report.services.iter().enumerate() {
                monitor.update(i, &svc.pmcs).unwrap();
            }
            twig.observe(report).unwrap();
        };
        // Ordinary epochs first: they store transitions and train, so a
        // fallback epoch that stored one would show in the buffer.
        for _ in 0..24 {
            let a = twig.decide().unwrap();
            let r = server.step(&a).unwrap();
            observe(&mut twig, &r);
        }
        let stored = twig.agent().buffer_len();
        assert!(twig.agent().steps() > 0, "the warm-up never trained");
        let mut twin = twig.clone();
        let mut probe = twig.agent().clone();

        // Every PMC read takes 855 ms: fresh (under the 1 000 ms staleness
        // bound) but past the 800 ms actuation deadline, so every epoch
        // sheds to the fallback rung.
        server.set_timing_plan(
            TimingFaultPlan::new(
                TimingFaultConfig {
                    pmc_base_ms: 5.0,
                    pmc_spike_rate: 1.0,
                    pmc_spike_ms: 850.0,
                    actuation_base_ms: 5.0,
                    ..TimingFaultConfig::default()
                },
                7,
            )
            .unwrap(),
        );
        let mut gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: specs.clone(),
                cores: cfg.cores,
                dvfs: cfg.dvfs.clone(),
                // Untrained greedy choices may miss QoS; the watchdog must
                // not take the decisions away from the rung.
                watchdog_epochs: u32::MAX,
                ..GovernorConfig::default()
            },
        )
        .unwrap();
        let mut sched = sched(SimClock::new());
        let mut last_validated = gov.safe_assignments();
        let mapper = Mapper::new(cfg.cores).unwrap();
        let mut q = Vec::new();
        for epoch in 0..EPOCHS {
            // The rung's decision: the first-max argmax of every branch of
            // the f32 Q-values on the monitor's states, resolved by the
            // mapper.
            let states = monitor.states().unwrap();
            probe.q_values_into(&states, &mut q).unwrap();
            let requests: Vec<_> = q
                .iter()
                .map(|branches| {
                    let a: Vec<usize> = branches
                        .iter()
                        .map(|row| {
                            (0..row.len()).fold(0, |b, i| if row[i] > row[b] { i } else { b })
                        })
                        .collect();
                    (
                        (a[0] + 1).min(cfg.cores),
                        cfg.dvfs.frequency_at(a[1]).unwrap(),
                    )
                })
                .collect();
            let want = mapper.assign(&requests).unwrap();

            let e = sched
                .metered_epoch(&mut server, &mut gov, &mut last_validated)
                .unwrap();
            assert!(
                e.fresh && !e.decided && !e.reused && !e.gave_up,
                "epoch {epoch}"
            );
            assert_eq!(e.report.actuation.len(), want.len());
            for (applied, want) in e.report.actuation.iter().zip(&want) {
                assert_eq!(
                    (&applied.cores, applied.freq),
                    (&want.cores, want.freq),
                    "epoch {epoch}"
                );
            }
            for (i, svc) in e.report.services.iter().enumerate() {
                monitor.update(i, &svc.pmcs).unwrap();
            }
        }

        assert_eq!(sched.stats().safe_fallback_epochs, EPOCHS);
        assert_eq!(gov.stats().degraded_decisions, EPOCHS);
        assert_eq!(gov.inner().agent().buffer_len(), stored);

        // The rung drew nothing from the ε stream: the twin that never ran
        // it explores identically from here on.
        let states = monitor.states().unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            let agent = gov.inner_mut().agent_mut();
            agent.select_actions_into(&states, 0.7, &mut a).unwrap();
            twin.agent_mut()
                .select_actions_into(&states, 0.7, &mut b)
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn telemetry_counters_match_stats() {
        let telemetry = Telemetry::enabled();
        let clock = SimClock::new();
        let mut s = sched(clock.clone());
        s.set_telemetry(telemetry.clone());
        s.begin_epoch();
        let _ = s.pmc_window_fresh(5000.0);
        let _ = s.actuation_attempt(500.0);
        clock.advance(1200.0);
        s.end_epoch();
        let m = telemetry.metrics().unwrap();
        assert_eq!(m.counter("deadline.misses"), 1);
        assert_eq!(m.counter("deadline.stale_windows"), 1);
        assert_eq!(m.counter("deadline.actuation_retries"), 1);
        assert_eq!(m.counter("deadline.actuation_timeouts"), 1);
    }
}
