//! A graceful-degradation safety net around any [`TaskManager`].
//!
//! Learning-based managers fail in ways heuristic ones do not: a transient
//! learning error, a decision outside platform limits, or an epoch of
//! garbage telemetry can cascade into sustained QoS violations. The
//! [`SafetyGovernor`] wraps an inner manager and enforces four invariants:
//!
//! 1. **Decision validation** — every `decide()` output is checked against
//!    the platform limits (service count, ≥ 1 in-range core each, a ladder
//!    frequency); invalid output is replaced, never applied.
//! 2. **Last-known-good fallback** — recoverable errors and invalid
//!    decisions fall back to the most recent validated assignment (or the
//!    safe static allocation before one exists).
//! 3. **Watchdog** — after `watchdog_epochs` *consecutive* QoS-violation
//!    epochs the governor trips into the safe static allocation (every
//!    service on every core at max DVFS — the paper's static baseline,
//!    which meets QoS whenever QoS is meetable at all) and holds it for an
//!    exponentially backed-off re-entry window before giving the inner
//!    manager control again.
//! 4. **Replay hygiene** — epochs whose telemetry is flagged corrupted are
//!    routed to [`TaskManager::observe_degraded`], so a learning manager
//!    never trains on garbage observations.
//!
//! A [`Checkpointable`] inner manager can additionally be armed with
//! periodic crash-safe persistence ([`SafetyGovernor::arm_checkpointing`]);
//! a checkpoint write failure is counted, never allowed to take down a
//! healthy control loop. A restarted process restores a fresh manager from
//! the store through the recovery ladder ([`recover`](crate::recover)) and
//! wraps it in a fresh governor.

use crate::{CheckpointStore, Checkpointable, ManagerError, TaskManager, Twig, TwigError};
use twig_rl::MaBdqCheckpoint;
use twig_sim::{Assignment, DvfsLadder, EpochReport, ServiceSpec};
use twig_telemetry::Telemetry;

/// Configuration of a [`SafetyGovernor`].
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// The managed services (QoS targets drive the watchdog).
    pub services: Vec<ServiceSpec>,
    /// Socket size.
    pub cores: usize,
    /// The platform's DVFS ladder.
    pub dvfs: DvfsLadder,
    /// Consecutive QoS-violation epochs before the watchdog trips.
    pub watchdog_epochs: u32,
    /// Epochs spent in the safe static allocation after the first trip.
    pub initial_backoff_epochs: u64,
    /// Upper bound on the backoff window (doubles on every re-trip).
    pub max_backoff_epochs: u64,
    /// Healthy (violation-free) epochs after which the backoff resets to
    /// its initial value.
    pub backoff_reset_epochs: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            services: Vec::new(),
            cores: 18,
            dvfs: DvfsLadder::default(),
            watchdog_epochs: 5,
            initial_backoff_epochs: 8,
            max_backoff_epochs: 128,
            backoff_reset_epochs: 50,
        }
    }
}

twig_telemetry::stats! {
    /// Counters describing everything the governor intervened on (for
    /// resilience evaluation), plus its checkpoint writes. Every field is
    /// mirrored into telemetry under the matching `governor.*` or `ckpt.*`
    /// counter.
    pub struct GovernorStats {
        /// Decisions replaced because the inner manager returned a
        /// recoverable error.
        recoverable_errors => "governor.recoverable_errors",
        /// Decisions replaced because they failed platform validation.
        invalid_decisions => "governor.invalid_decisions",
        /// Total fallback decisions issued (last-known-good or safe static).
        fallback_decisions => "governor.fallback_decisions",
        /// Epochs whose telemetry was corrupted (routed to
        /// [`TaskManager::observe_degraded`]).
        degraded_epochs => "governor.degraded_epochs",
        /// Watchdog trips into the safe static allocation.
        watchdog_trips => "governor.watchdog_trips",
        /// Epochs spent in the safe static allocation.
        safe_mode_epochs => "governor.safe_mode_epochs",
        /// Degraded (`SafeFallback`-tier) decisions served from the inner
        /// manager's cheap path instead of the safe static allocation.
        degraded_decisions => "governor.degraded_decisions",
        /// Checkpoint generations written by armed checkpointing.
        ckpt_writes => "ckpt.write",
        /// Armed checkpoint writes that failed (the loop kept running).
        ckpt_write_failures => "ckpt.write_failed",
    }
}

/// Periodic-checkpoint wiring installed by
/// [`SafetyGovernor::arm_checkpointing`].
///
/// `encode` is a plain `fn` pointer (captured from the
/// [`Checkpointable`] impl at arming time) rather than a trait bound, so
/// the generic `TaskManager` impl — which cannot know about
/// checkpointability — can still drive the periodic writes, and the
/// governor stays `Clone`/`Debug` for free.
#[derive(Debug, Clone)]
struct CheckpointArm<M> {
    store: CheckpointStore,
    every_epochs: u64,
    encode: fn(&M) -> Result<Vec<u8>, TwigError>,
}

/// A supervisor wrapping any [`TaskManager`] with validation, fallback and
/// a QoS watchdog. See the module docs for the policy.
///
/// # Examples
///
/// ```
/// use twig_core::{GovernorConfig, SafetyGovernor, TaskManager, TwigBuilder};
/// use twig_sim::catalog;
///
/// let twig = TwigBuilder::new()
///     .services(vec![catalog::masstree()])
///     .seed(1)
///     .build()
///     .unwrap();
/// let config = GovernorConfig {
///     services: vec![catalog::masstree()],
///     ..GovernorConfig::default()
/// };
/// let mut governed = SafetyGovernor::new(twig, config).unwrap();
/// assert_eq!(governed.name(), "twig-s+governor");
/// assert!(governed.decide().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct SafetyGovernor<M> {
    inner: M,
    config: GovernorConfig,
    name: String,
    last_good: Option<Vec<Assignment>>,
    violation_streak: u32,
    healthy_streak: u32,
    safe_remaining: u64,
    backoff: u64,
    stats: GovernorStats,
    telemetry: Telemetry,
    ckpt: Option<CheckpointArm<M>>,
    epochs_observed: u64,
}

/// Doubles a backoff without overflow: `current * 2` saturates at
/// `u64::MAX` before the cap is applied, so an extreme initial backoff (or
/// enough consecutive retries) pins it at `max` instead of wrapping back to
/// a tiny value — which would silently hand an untrusted policy short
/// safe-mode windows again, or retry a failing transfer or federation round
/// at once. The one doubling rule of the governor's watchdog, the cluster
/// coordinator's transfer rollbacks and the federation plane's quorum
/// retries.
///
/// ```
/// use twig_core::next_backoff;
/// assert_eq!(next_backoff(4, 16), 8);
/// assert_eq!(next_backoff(12, 16), 16);
/// assert_eq!(next_backoff(u64::MAX / 2 + 1, u64::MAX), u64::MAX);
/// ```
pub fn next_backoff(current: u64, max: u64) -> u64 {
    current.saturating_mul(2).min(max)
}

impl<M: TaskManager> SafetyGovernor<M> {
    /// Wraps `inner` with the governor policy.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::Fatal`] for an empty service list, zero
    /// cores, a zero watchdog window or a zero backoff.
    pub fn new(inner: M, config: GovernorConfig) -> Result<Self, ManagerError> {
        if config.services.is_empty() {
            return Err(ManagerError::fatal("governor: no services"));
        }
        if config.cores == 0 {
            return Err(ManagerError::fatal("governor: zero cores"));
        }
        if config.watchdog_epochs == 0 {
            return Err(ManagerError::fatal("governor: zero watchdog window"));
        }
        if config.initial_backoff_epochs == 0 || config.max_backoff_epochs == 0 {
            return Err(ManagerError::fatal("governor: zero backoff window"));
        }
        let name = format!("{}+governor", inner.name());
        let backoff = config.initial_backoff_epochs;
        Ok(SafetyGovernor {
            inner,
            config,
            name,
            last_good: None,
            violation_streak: 0,
            healthy_streak: 0,
            safe_remaining: 0,
            backoff,
            stats: GovernorStats::default(),
            telemetry: Telemetry::disabled(),
            ckpt: None,
            epochs_observed: 0,
        })
    }

    /// Attaches a telemetry handle: every intervention (recoverable error,
    /// invalid decision, fallback, watchdog trip, safe-mode epoch,
    /// degraded-telemetry routing) is mirrored into `governor.*` counters,
    /// and the current re-entry backoff into a gauge. Note this does NOT
    /// forward the handle to the wrapped manager — attach one there
    /// directly (e.g. [`crate::Twig::set_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped manager, mutably.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Intervention counters.
    pub fn stats(&self) -> GovernorStats {
        self.stats
    }

    /// `true` while the watchdog holds the safe static allocation.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_remaining > 0
    }

    /// The current re-entry backoff in epochs (doubles per trip).
    pub fn current_backoff_epochs(&self) -> u64 {
        self.backoff
    }

    /// The safe static allocation: every service on every core at the
    /// highest DVFS setting (the static baseline — maximum capacity,
    /// maximum power, no learning in the loop).
    pub fn safe_assignments(&self) -> Vec<Assignment> {
        let freq = self.config.dvfs.max();
        self.config
            .services
            .iter()
            .map(|_| Assignment::first_n(self.config.cores, freq))
            .collect()
    }

    /// The `SafeFallback` shed tier's decision: asks the inner manager for
    /// its degraded decide (Twig serves the greedy argmax of its f32
    /// network, with no exploration) and validates it against the platform
    /// limits exactly like a primary decision. Any failure — no degraded path, a recoverable error, an
    /// invalid assignment — lands on
    /// [`safe_assignments`](Self::safe_assignments), so this is never less safe than the static
    /// allocation it replaces. While the watchdog holds safe mode the inner
    /// manager stays suspended and the static allocation is served
    /// directly.
    pub fn decide_fallback(&mut self) -> Vec<Assignment> {
        if self.in_safe_mode() {
            return self.safe_assignments();
        }
        match self.inner.decide_fallback() {
            Ok(assignments) if self.validate(&assignments).is_ok() => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.degraded_decisions);
                assignments
            }
            Ok(_) => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.invalid_decisions);
                self.safe_assignments()
            }
            Err(_) => self.safe_assignments(),
        }
    }

    /// Validates a decision against the platform limits.
    fn validate(&self, assignments: &[Assignment]) -> Result<(), String> {
        if assignments.len() != self.config.services.len() {
            return Err(format!(
                "{} assignments for {} services",
                assignments.len(),
                self.config.services.len()
            ));
        }
        for (svc, a) in assignments.iter().enumerate() {
            if a.cores.is_empty() {
                return Err(format!("service {svc}: zero cores"));
            }
            if a.cores.len() > self.config.cores {
                return Err(format!(
                    "service {svc}: {} cores on a {}-core socket",
                    a.cores.len(),
                    self.config.cores
                ));
            }
            for c in &a.cores {
                if c.index() >= self.config.cores {
                    return Err(format!("service {svc}: core {} out of range", c.index()));
                }
            }
            if self.config.dvfs.index_of(a.freq).is_err() {
                return Err(format!(
                    "service {svc}: frequency {} MHz off the ladder",
                    a.freq.mhz()
                ));
            }
        }
        Ok(())
    }

    fn fallback(&mut self) -> Vec<Assignment> {
        self.stats
            .bump(&self.telemetry, |s| &mut s.fallback_decisions);
        match &self.last_good {
            Some(a) => a.clone(),
            None => self.safe_assignments(),
        }
    }

    /// Writes one checkpoint generation when checkpointing is armed and the
    /// interval has elapsed. Write failures are counted
    /// (`ckpt.write_failed`) and swallowed: losing durability must not take
    /// down a healthy control loop.
    fn write_checkpoint_if_due(&mut self) {
        let Some(arm) = &self.ckpt else { return };
        if !self.epochs_observed.is_multiple_of(arm.every_epochs) {
            return;
        }
        let written = (arm.encode)(&self.inner).and_then(|bytes| {
            arm.store
                .write(&bytes)
                .map(|_| ())
                .map_err(|e| TwigError::Io {
                    detail: e.to_string(),
                })
        });
        match written {
            Ok(()) => self.stats.bump(&self.telemetry, |s| &mut s.ckpt_writes),
            Err(_) => self
                .stats
                .bump(&self.telemetry, |s| &mut s.ckpt_write_failures),
        }
    }

    fn any_violation(&self, report: &EpochReport) -> bool {
        report
            .services
            .iter()
            .zip(&self.config.services)
            .any(|(svc, spec)| {
                // Idle services cannot violate; corrupted latency readings
                // count as violations (we cannot prove health from them).
                let active = svc.offered_rps > 0.0 || svc.completed > 0;
                active && !(svc.p99_ms.is_finite() && svc.p99_ms <= spec.qos_ms)
            })
    }
}

impl<M: TaskManager + Checkpointable> SafetyGovernor<M> {
    /// Arms crash-safe persistence: after every `every_epochs` fully
    /// observed epochs the inner manager's state is serialized and written
    /// atomically to `store` (counter `ckpt.write`; a failed write counts
    /// `ckpt.write_failed` and never interrupts the loop).
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::Fatal`] for a zero interval.
    pub fn arm_checkpointing(
        &mut self,
        store: CheckpointStore,
        every_epochs: u64,
    ) -> Result<(), ManagerError> {
        if every_epochs == 0 {
            return Err(ManagerError::fatal("governor: zero checkpoint interval"));
        }
        self.ckpt = Some(CheckpointArm {
            store,
            every_epochs,
            encode: <M as Checkpointable>::checkpoint_bytes,
        });
        Ok(())
    }

    /// The armed checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref().map(|arm| &arm.store)
    }
}

impl SafetyGovernor<Twig> {
    /// Restores the governed Twig from a federation-round checkpoint —
    /// merged weights being adopted after a committed round, or the
    /// pre-round snapshot (`agent().save_checkpoint()`) being rolled back
    /// after a failed one ([`Twig::load_checkpoint`]). The governor's own
    /// health tracking (last-known-good decision, violation and healthy
    /// streaks) is reset: it described a policy that no longer exists.
    ///
    /// # Errors
    ///
    /// Propagates [`Twig::load_checkpoint`]'s error; the manager and the
    /// governor's health tracking are then left untouched.
    pub fn restore_round_snapshot(&mut self, ckpt: &MaBdqCheckpoint) -> Result<(), TwigError> {
        self.inner.load_checkpoint(ckpt)?;
        self.last_good = None;
        self.violation_streak = 0;
        self.healthy_streak = 0;
        Ok(())
    }

    /// Swaps service `index` for `spec` ([`Twig::transfer_service`]) and
    /// gives the watchdog the new service's QoS target, so the new service
    /// is judged against its own target, not its predecessor's.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for a service the governor
    /// does not watch, and propagates [`Twig::transfer_service`]'s errors;
    /// nothing changes then.
    pub fn transfer_service(&mut self, index: usize, spec: ServiceSpec) -> Result<(), TwigError> {
        let Some(watched) = self.config.services.get_mut(index) else {
            return Err(TwigError::ReportMismatch {
                detail: format!("governor: service {index}"),
            });
        };
        self.inner.transfer_service(index, spec.clone())?;
        *watched = spec;
        Ok(())
    }
}

impl<M: TaskManager> TaskManager for SafetyGovernor<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError> {
        if self.in_safe_mode() {
            // The inner manager is suspended: its policy caused (or could
            // not prevent) the violation streak, so run the known-safe
            // configuration until the backoff expires.
            return Ok(self.safe_assignments());
        }
        match self.inner.decide() {
            Ok(assignments) => match self.validate(&assignments) {
                Ok(()) => {
                    self.last_good = Some(assignments.clone());
                    Ok(assignments)
                }
                Err(detail) => {
                    self.stats
                        .bump(&self.telemetry, |s| &mut s.invalid_decisions);
                    let _ = detail;
                    Ok(self.fallback())
                }
            },
            Err(e) if e.is_recoverable() => {
                self.stats
                    .bump(&self.telemetry, |s| &mut s.recoverable_errors);
                Ok(self.fallback())
            }
            Err(fatal) => Err(fatal),
        }
    }

    fn observe(&mut self, report: &EpochReport) -> Result<(), ManagerError> {
        // Watchdog accounting runs on every epoch, including safe-mode ones
        // (ground-truth p99 in the report is unaffected by telemetry
        // faults).
        if self.any_violation(report) {
            self.violation_streak += 1;
            self.healthy_streak = 0;
        } else {
            self.violation_streak = 0;
            self.healthy_streak = self.healthy_streak.saturating_add(1);
            if self.healthy_streak >= self.config.backoff_reset_epochs {
                self.backoff = self.config.initial_backoff_epochs;
            }
        }

        if self.in_safe_mode() {
            self.stats
                .bump(&self.telemetry, |s| &mut s.safe_mode_epochs);
            self.safe_remaining -= 1;
            if self.safe_remaining == 0 {
                // Hand control back with a clean slate: the violations that
                // tripped the watchdog belong to the previous regime.
                self.violation_streak = 0;
            }
        } else if self.violation_streak >= self.config.watchdog_epochs {
            self.stats.bump(&self.telemetry, |s| &mut s.watchdog_trips);
            self.safe_remaining = self.backoff;
            self.backoff = next_backoff(self.backoff, self.config.max_backoff_epochs);
            // The policy that produced this streak is not to be trusted:
            // its last decision is no longer "known good".
            self.last_good = None;
            self.violation_streak = 0;
        }
        self.telemetry
            .gauge_set("governor.backoff_epochs", self.backoff as f64);

        let degraded = report.telemetry.degraded();
        if degraded {
            self.stats.bump(&self.telemetry, |s| &mut s.degraded_epochs);
        }
        let result = if degraded {
            self.inner.observe_degraded(report)
        } else {
            self.inner.observe(report)
        };
        let outcome = match result {
            Ok(()) => Ok(()),
            Err(e) if e.is_recoverable() => {
                // A transient observation failure must not kill the loop;
                // the decision path already has its fallback.
                self.stats
                    .bump(&self.telemetry, |s| &mut s.recoverable_errors);
                Ok(())
            }
            Err(fatal) => Err(fatal),
        };
        self.epochs_observed += 1;
        if outcome.is_ok() {
            // One full epoch has been absorbed: this is the
            // crash-consistent point to persist the learner.
            self.write_checkpoint_if_due();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover, RecoveryOutcome, RecoveryReport, ScratchStore};
    use twig_sim::fault::{AppliedAssignment, TelemetryHealth};
    use twig_sim::{catalog, CoreId, Frequency, PmcSample, ServiceEpoch};

    /// Scriptable inner manager for exercising the governor policy.
    struct Scripted {
        decisions: Vec<Result<Vec<Assignment>, ManagerError>>,
        decide_calls: usize,
        observe_calls: usize,
        degraded_calls: usize,
    }

    impl Scripted {
        fn new(decisions: Vec<Result<Vec<Assignment>, ManagerError>>) -> Self {
            Scripted {
                decisions,
                decide_calls: 0,
                observe_calls: 0,
                degraded_calls: 0,
            }
        }

        fn good() -> Vec<Assignment> {
            vec![Assignment::first_n(4, DvfsLadder::default().max())]
        }
    }

    impl TaskManager for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError> {
            let i = self.decide_calls.min(self.decisions.len() - 1);
            self.decide_calls += 1;
            self.decisions[i].clone()
        }

        fn observe(&mut self, _report: &EpochReport) -> Result<(), ManagerError> {
            self.observe_calls += 1;
            Ok(())
        }

        fn observe_degraded(&mut self, _report: &EpochReport) -> Result<(), ManagerError> {
            self.degraded_calls += 1;
            Ok(())
        }
    }

    fn config() -> GovernorConfig {
        GovernorConfig {
            services: vec![catalog::masstree()],
            watchdog_epochs: 3,
            initial_backoff_epochs: 4,
            max_backoff_epochs: 16,
            ..GovernorConfig::default()
        }
    }

    fn report(p99_ms: f64, degraded: bool) -> EpochReport {
        let spec = catalog::masstree();
        let mut telemetry = TelemetryHealth::clean(1);
        if degraded {
            telemetry.pmc_faults[0] = Some(twig_sim::PmcFaultKind::Nan);
        }
        EpochReport {
            time_s: 0,
            services: vec![ServiceEpoch {
                name: spec.name,
                offered_rps: 100.0,
                load_fraction: 0.5,
                p99_ms,
                mean_ms: p99_ms / 2.0,
                completed: 100,
                dropped: 0,
                queue_len: 0,
                pmcs: PmcSample::zero(),
                core_count: 4,
                freq: DvfsLadder::default().max(),
                migrated_cores: 0,
            }],
            power_w: 50.0,
            true_power_w: 50.0,
            energy_j: 50.0,
            migrations: 0,
            actuation: vec![AppliedAssignment::verbatim(
                (0..4).map(CoreId).collect(),
                DvfsLadder::default().max(),
            )],
            telemetry,
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mk = || Scripted::new(vec![Ok(Scripted::good())]);
        assert!(SafetyGovernor::new(
            mk(),
            GovernorConfig {
                services: vec![],
                ..config()
            }
        )
        .is_err());
        assert!(SafetyGovernor::new(
            mk(),
            GovernorConfig {
                cores: 0,
                ..config()
            }
        )
        .is_err());
        assert!(SafetyGovernor::new(
            mk(),
            GovernorConfig {
                watchdog_epochs: 0,
                ..config()
            }
        )
        .is_err());
    }

    #[test]
    fn valid_decisions_pass_through_and_become_lkg() {
        let inner = Scripted::new(vec![
            Ok(Scripted::good()),
            Err(ManagerError::recoverable("hiccup")),
        ]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        let a = gov.decide().unwrap();
        assert_eq!(a, Scripted::good());
        // The recoverable error falls back to the validated decision.
        let b = gov.decide().unwrap();
        assert_eq!(b, Scripted::good());
        assert_eq!(gov.stats().recoverable_errors, 1);
        assert_eq!(gov.stats().fallback_decisions, 1);
    }

    #[test]
    fn recoverable_error_without_lkg_uses_safe_static() {
        let inner = Scripted::new(vec![Err(ManagerError::recoverable("cold"))]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        let a = gov.decide().unwrap();
        assert_eq!(a, gov.safe_assignments());
        assert_eq!(a[0].core_count(), 18);
        assert_eq!(a[0].freq, DvfsLadder::default().max());
    }

    #[test]
    fn fatal_error_propagates() {
        let inner = Scripted::new(vec![Err(ManagerError::fatal("broken wiring"))]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        assert!(gov.decide().is_err());
    }

    #[test]
    fn invalid_decisions_are_replaced() {
        let out_of_range = vec![Assignment::new(
            vec![CoreId(99)],
            DvfsLadder::default().max(),
        )];
        let off_ladder = vec![Assignment::first_n(4, Frequency::from_mhz(1234))];
        let empty = vec![Assignment::new(vec![], DvfsLadder::default().max())];
        let wrong_count = vec![];
        for bad in [out_of_range, off_ladder, empty, wrong_count] {
            let inner = Scripted::new(vec![Ok(bad)]);
            let mut gov = SafetyGovernor::new(inner, config()).unwrap();
            let a = gov.decide().unwrap();
            assert_eq!(a, gov.safe_assignments());
            assert_eq!(gov.stats().invalid_decisions, 1);
        }
    }

    #[test]
    fn degraded_decide_validates_or_lands_safe() {
        // Scripted keeps the trait default (no degraded path) → safe static.
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        assert_eq!(gov.decide_fallback(), gov.safe_assignments());
        assert_eq!(gov.stats().degraded_decisions, 0);

        struct Degraded(Vec<Assignment>);
        impl TaskManager for Degraded {
            fn name(&self) -> &str {
                "degraded"
            }
            fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError> {
                Ok(self.0.clone())
            }
            fn observe(&mut self, _report: &EpochReport) -> Result<(), ManagerError> {
                Ok(())
            }
            fn decide_fallback(&mut self) -> Result<Vec<Assignment>, ManagerError> {
                Ok(self.0.clone())
            }
        }

        // A valid degraded decision is served and counted.
        let mut gov = SafetyGovernor::new(Degraded(Scripted::good()), config()).unwrap();
        assert_eq!(gov.decide_fallback(), Scripted::good());
        assert_eq!(gov.stats().degraded_decisions, 1);

        // An invalid one is replaced by the safe static allocation.
        let bad = vec![Assignment::new(
            vec![CoreId(99)],
            DvfsLadder::default().max(),
        )];
        let mut gov = SafetyGovernor::new(Degraded(bad), config()).unwrap();
        assert_eq!(gov.decide_fallback(), gov.safe_assignments());
        assert_eq!(gov.stats().invalid_decisions, 1);
        assert_eq!(gov.stats().degraded_decisions, 0);
    }

    #[test]
    fn watchdog_trips_after_consecutive_violations() {
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        let qos = catalog::masstree().qos_ms;
        // Two violations then a healthy epoch: streak resets, no trip.
        for _ in 0..2 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        gov.decide().unwrap();
        gov.observe(&report(qos * 0.5, false)).unwrap();
        assert!(!gov.in_safe_mode());
        // Three consecutive violations: the watchdog trips.
        for _ in 0..3 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert!(gov.in_safe_mode());
        assert_eq!(gov.stats().watchdog_trips, 1);
        // Safe mode issues the static allocation without consulting the
        // inner manager.
        let calls_before = gov.inner().decide_calls;
        let a = gov.decide().unwrap();
        assert_eq!(a, gov.safe_assignments());
        assert_eq!(gov.inner().decide_calls, calls_before);
    }

    #[test]
    fn backoff_doubles_per_trip_and_expires() {
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        let qos = catalog::masstree().qos_ms;
        assert_eq!(gov.current_backoff_epochs(), 4);
        // First trip: 4 safe epochs, next backoff 8.
        for _ in 0..3 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert!(gov.in_safe_mode());
        assert_eq!(gov.current_backoff_epochs(), 8);
        for _ in 0..4 {
            assert!(gov.in_safe_mode());
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert!(!gov.in_safe_mode(), "backoff window expired");
        // Immediate re-trip holds for 8 epochs and caps at 16.
        for _ in 0..3 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert!(gov.in_safe_mode());
        assert_eq!(gov.current_backoff_epochs(), 16);
        assert_eq!(gov.stats().watchdog_trips, 2);
        for _ in 0..8 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert!(!gov.in_safe_mode());
        assert_eq!(gov.current_backoff_epochs(), 16, "capped at max");
        assert_eq!(gov.stats().safe_mode_epochs, 12);
    }

    #[test]
    fn backoff_doubling_saturates_instead_of_wrapping() {
        // 100 doublings would overflow u64 63 times over; the helper must
        // pin at the cap, never wrap back to a small window.
        let mut backoff = 1_u64;
        for _ in 0..100 {
            let next = next_backoff(backoff, u64::MAX);
            assert!(
                next >= backoff,
                "backoff went backwards: {backoff} -> {next}"
            );
            backoff = next;
        }
        assert_eq!(backoff, u64::MAX);
        // With a finite cap the same walk pins at the cap.
        let mut capped = 3_u64;
        for _ in 0..100 {
            capped = next_backoff(capped, 1000);
        }
        assert_eq!(capped, 1000);
        assert_eq!(next_backoff(0, 16), 0, "zero backoff stays zero");
    }

    #[test]
    fn extreme_backoff_config_survives_repeated_trips() {
        // Regression: `backoff * 2` used to be unchecked, so a config with
        // initial backoff in the top bit wrapped to zero on the first trip
        // (debug builds panicked instead). Saturation keeps it at the cap.
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(
            inner,
            GovernorConfig {
                initial_backoff_epochs: 1 << 63,
                max_backoff_epochs: u64::MAX,
                ..config()
            },
        )
        .unwrap();
        let qos = catalog::masstree().qos_ms;
        let mut last = gov.current_backoff_epochs();
        for _ in 0..3 {
            // Trip the watchdog (3 consecutive violations)...
            for _ in 0..3 {
                gov.decide().unwrap();
                gov.observe(&report(qos * 2.0, false)).unwrap();
            }
            let now = gov.current_backoff_epochs();
            assert!(now >= last, "backoff wrapped: {last} -> {now}");
            last = now;
            // ...then force the safe window shut so the next round can trip
            // again (windows this long never expire naturally in a test).
            gov.safe_remaining = 0;
        }
        assert_eq!(last, u64::MAX);
    }

    #[test]
    fn healthy_run_resets_backoff() {
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(
            inner,
            GovernorConfig {
                backoff_reset_epochs: 5,
                ..config()
            },
        )
        .unwrap();
        let qos = catalog::masstree().qos_ms;
        for _ in 0..3 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        for _ in 0..4 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 2.0, false)).unwrap();
        }
        assert_eq!(gov.current_backoff_epochs(), 8);
        for _ in 0..5 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 0.5, false)).unwrap();
        }
        assert_eq!(gov.current_backoff_epochs(), 4, "reset after healthy run");
    }

    #[test]
    fn swapped_service_is_judged_against_its_own_target() {
        use crate::TwigBuilder;

        let old = catalog::moses();
        let new = ServiceSpec {
            name: "moses-derated".into(),
            qos_ms: old.qos_ms + 2.0,
            ..old.clone()
        };
        let twig = TwigBuilder::new()
            .services(vec![old.clone()])
            .seed(5)
            .build()
            .unwrap();
        let services = vec![old.clone()];
        let mut gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services,
                ..config()
            },
        )
        .unwrap();
        gov.transfer_service(0, new.clone()).unwrap();
        assert_eq!(gov.inner().config().services[0], new);
        // A tail that violates only the old target, for a whole watchdog
        // window: the new service meets its own.
        let p99 = (old.qos_ms + new.qos_ms) / 2.0;
        for _ in 0..config().watchdog_epochs {
            gov.decide().unwrap();
            gov.observe(&report(p99, false)).unwrap();
        }
        assert!(!gov.in_safe_mode());
        assert_eq!(gov.stats().watchdog_trips, 0);
        // An unknown service is refused and changes nothing.
        assert!(gov.transfer_service(1, old).is_err());
    }

    #[test]
    fn degraded_telemetry_routes_to_observe_degraded() {
        let inner = Scripted::new(vec![Ok(Scripted::good())]);
        let mut gov = SafetyGovernor::new(inner, config()).unwrap();
        let qos = catalog::masstree().qos_ms;
        gov.decide().unwrap();
        gov.observe(&report(qos * 0.5, true)).unwrap();
        gov.decide().unwrap();
        gov.observe(&report(qos * 0.5, false)).unwrap();
        assert_eq!(gov.inner().degraded_calls, 1);
        assert_eq!(gov.inner().observe_calls, 1);
        assert_eq!(gov.stats().degraded_epochs, 1);
    }

    /// Checkpointable inner manager: one counter bumped per observed epoch,
    /// serialized as 8 little-endian bytes.
    struct Persistable {
        value: u64,
    }

    impl TaskManager for Persistable {
        fn name(&self) -> &str {
            "persistable"
        }

        fn decide(&mut self) -> Result<Vec<Assignment>, ManagerError> {
            Ok(Scripted::good())
        }

        fn observe(&mut self, _report: &EpochReport) -> Result<(), ManagerError> {
            self.value += 1;
            Ok(())
        }
    }

    impl Checkpointable for Persistable {
        fn checkpoint_bytes(&self) -> Result<Vec<u8>, TwigError> {
            Ok(self.value.to_le_bytes().to_vec())
        }

        fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), TwigError> {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| TwigError::Io {
                detail: "bad checkpoint length".into(),
            })?;
            self.value = u64::from_le_bytes(arr);
            Ok(())
        }
    }

    fn temp_store(tag: &str, keep: usize) -> ScratchStore {
        ScratchStore::create(&format!("gov-ckpt-{tag}"), keep).unwrap()
    }

    /// Runs the recovery ladder over `gov`'s armed store into its manager.
    fn recover_armed(gov: &mut SafetyGovernor<Persistable>) -> RecoveryReport {
        let armed = gov.checkpoint_store().expect("armed").clone();
        recover(&armed, &mut gov.inner, &gov.telemetry)
    }

    #[test]
    fn armed_governor_writes_periodically_and_recovers() {
        let store = temp_store("roundtrip", 3);
        let qos = catalog::masstree().qos_ms;

        let mut gov = SafetyGovernor::new(Persistable { value: 0 }, config()).unwrap();
        gov.set_telemetry(Telemetry::enabled());
        gov.arm_checkpointing(store.clone(), 2).unwrap();
        assert!(gov.checkpoint_store().is_some());
        for _ in 0..6 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 0.5, false)).unwrap();
        }
        // Writes after epochs 2, 4 and 6.
        assert_eq!(gov.stats().ckpt_writes, 3);
        assert_eq!(gov.telemetry.counter("ckpt.write"), 3);
        assert_eq!(store.generations().unwrap().len(), 3);

        // A fresh (crashed-and-restarted) governor recovers the newest
        // generation: the counter state after epoch 6.
        let mut fresh = SafetyGovernor::new(Persistable { value: 0 }, config()).unwrap();
        fresh.set_telemetry(Telemetry::enabled());
        fresh.arm_checkpointing(store.clone(), 2).unwrap();
        let rec = recover_armed(&mut fresh);
        assert_eq!(rec.outcome, RecoveryOutcome::Restored { generation: 0 });
        assert_eq!(fresh.inner().value, 6);

        // With the newest generation corrupted the ladder falls back one
        // rung to the epoch-4 state.
        let gens = store.generations().unwrap();
        std::fs::write(&gens[0], [0xFF; 3]).unwrap();
        let mut again = SafetyGovernor::new(Persistable { value: 0 }, config()).unwrap();
        again.set_telemetry(Telemetry::enabled());
        again.arm_checkpointing(store.clone(), 2).unwrap();
        let rec = recover_armed(&mut again);
        assert_eq!(rec.outcome, RecoveryOutcome::Restored { generation: 1 });
        assert_eq!(rec.stats.corrupt, 1);
        assert_eq!(again.inner().value, 4);
        assert_eq!(again.telemetry.counter("ckpt.corrupt"), 1);
        assert_eq!(again.telemetry.counter("ckpt.load"), 1);
    }

    #[test]
    fn round_snapshot_roundtrips_and_resets_health_tracking() {
        use crate::TwigBuilder;
        use twig_rl::MaBdqConfig;

        let qos = catalog::masstree().qos_ms;
        let twig = TwigBuilder::new()
            .services(vec![catalog::masstree()])
            .agent(MaBdqConfig {
                trunk_hidden: vec![16, 12],
                head_hidden: 8,
                batch_size: 2,
                buffer_capacity: 64,
                ..MaBdqConfig::default()
            })
            .seed(3)
            .build()
            .unwrap();
        let mut gov = SafetyGovernor::new(twig, config()).unwrap();
        let epoch = |gov: &mut SafetyGovernor<Twig>, p99: f64| {
            gov.decide().unwrap();
            gov.observe(&report(p99, false)).unwrap();
        };
        for _ in 0..4 {
            epoch(&mut gov, qos * 0.5);
        }
        let snapshot = gov.inner().agent().save_checkpoint();
        // The learner moves on; two violation epochs arm a streak. The
        // restore must clear it so the watchdog never charges a restored
        // policy for its predecessor's violations.
        epoch(&mut gov, qos * 4.0);
        epoch(&mut gov, qos * 4.0);
        let moved = gov.inner().agent().save_checkpoint();
        assert!(moved.steps > snapshot.steps && moved.params != snapshot.params);
        assert_eq!(gov.violation_streak, 2);
        gov.restore_round_snapshot(&snapshot).unwrap();
        let restored = gov.inner().agent().save_checkpoint();
        assert_eq!(restored.params, snapshot.params, "weights rolled back");
        assert_eq!(restored.adam, snapshot.adam);
        assert_eq!(restored.steps, snapshot.steps);
        assert!(gov.last_good.is_none());
        assert_eq!(gov.violation_streak, 0);
        assert_eq!(gov.healthy_streak, 0);
        // A failed restore (a checkpoint of the wrong shape) leaves the
        // manager and the health tracking untouched.
        epoch(&mut gov, qos * 4.0);
        let before = gov.inner().agent().save_checkpoint();
        let mut wrong = snapshot.clone();
        wrong.params.push(0.0);
        assert!(gov.restore_round_snapshot(&wrong).is_err());
        assert_eq!(gov.inner().agent().save_checkpoint(), before);
        assert!(gov.last_good.is_some());
        assert_eq!(gov.violation_streak, 1);
    }

    #[test]
    fn checkpoint_arming_validation_and_write_failures() {
        let store = temp_store("failures", 2);
        let qos = catalog::masstree().qos_ms;

        let mut gov = SafetyGovernor::new(Persistable { value: 0 }, config()).unwrap();
        assert!(gov.arm_checkpointing(store.clone(), 0).is_err());
        assert!(gov.checkpoint_store().is_none());

        // Deleting the directory out from under an armed store makes the
        // write fail; the loop must keep running and count the failure.
        gov.set_telemetry(Telemetry::enabled());
        gov.arm_checkpointing(store.clone(), 1).unwrap();
        std::fs::remove_dir_all(store.dir()).unwrap();
        for _ in 0..2 {
            gov.decide().unwrap();
            gov.observe(&report(qos * 0.5, false)).unwrap();
        }
        assert_eq!(gov.stats().ckpt_writes, 0);
        assert_eq!(gov.telemetry.counter("ckpt.write_failed"), 2);
        assert_eq!(gov.inner().value, 2, "inner manager kept observing");

        // Recovery over the now-empty store is an explicit cold start.
        let rec = recover_armed(&mut gov);
        assert_eq!(rec.outcome, RecoveryOutcome::ColdStart);
    }

    #[test]
    fn governed_twig_survives_faults_and_recovers() {
        use crate::TwigBuilder;
        use twig_rl::{EpsilonSchedule, MaBdqConfig};
        use twig_sim::fault::{FaultConfig, FaultPlan};
        use twig_sim::{Server, ServerConfig};

        // The acceptance scenario: 10% PMC corruption + 5% actuation
        // rejection. The governed Twig must keep producing valid, finite
        // decisions throughout and meet QoS again once the faults stop.
        let spec = catalog::masstree();
        let mut server = Server::new(ServerConfig::default(), vec![spec.clone()], 31).unwrap();
        server.set_load_fraction(0, 0.4).unwrap();
        server.set_fault_plan(
            FaultPlan::new(
                FaultConfig {
                    pmc_corrupt_rate: 0.10,
                    actuation_reject_rate: 0.05,
                    ..FaultConfig::default()
                },
                77,
            )
            .unwrap(),
        );
        let twig = TwigBuilder::new()
            .services(vec![spec.clone()])
            .agent(MaBdqConfig {
                trunk_hidden: vec![32, 24],
                head_hidden: 16,
                dropout: 0.0,
                batch_size: 8,
                buffer_capacity: 2048,
                ..MaBdqConfig::default()
            })
            .epsilon(EpsilonSchedule::scaled(60))
            .seed(13)
            .build()
            .unwrap();
        let mut gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: vec![spec.clone()],
                ..GovernorConfig::default()
            },
        )
        .unwrap();

        let probe = vec![vec![0.5_f32; twig_sim::NUM_COUNTERS]];
        for epoch in 0..80 {
            let a = gov.decide().unwrap();
            assert_eq!(a.len(), 1);
            assert!((1..=18).contains(&a[0].core_count()));
            let r = server.step(&a).unwrap();
            gov.observe(&r).unwrap();
            if epoch % 10 == 9 {
                // Q-values stay finite while training on faulted telemetry.
                let q = gov.inner().agent().clone().q_values(&probe).unwrap();
                assert!(q.iter().flatten().flatten().all(|v| v.is_finite()));
            }
        }
        assert!(gov.stats().degraded_epochs > 0, "faults should have fired");

        // Fault window over: drive to steady state and check recovery.
        server.clear_fault_plan();
        let mut met = 0;
        for _ in 0..40 {
            let a = gov.decide().unwrap();
            let r = server.step(&a).unwrap();
            if r.services[0].p99_ms <= spec.qos_ms {
                met += 1;
            }
            gov.observe(&r).unwrap();
        }
        assert!(met >= 30, "recovered QoS in only {met}/40 epochs");
    }
}
