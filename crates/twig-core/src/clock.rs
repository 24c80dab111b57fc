//! The simulated time source of the deadline-aware epoch scheduler.
//!
//! The [`EpochScheduler`](crate::EpochScheduler) never reads wall time: it
//! holds a [`SimClock`] that the driver advances by hand (or by a seeded
//! `twig_sim::TimingFaultPlan`, which may also skew it backwards). That
//! keeps every scheduling decision — and therefore every experiment report
//! — a deterministic function of the seed, with zero external dependencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic simulated time, advanced explicitly by the driver.
///
/// Clones share the same underlying reading (the `f64`'s bits in an
/// atomic, so a node that owns a clock can be served on another thread),
/// and a driver can keep one handle and hand another to the scheduler:
///
/// ```
/// use twig_core::SimClock;
/// let driver = SimClock::new();
/// let scheduler_view = driver.clone();
/// driver.advance(12.5);
/// assert_eq!(scheduler_view.now_ms(), 12.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    /// `f64::to_bits` of the reading. `Relaxed` suffices: a clock and its
    /// clones are used on one thread at a time, and whatever hands them to
    /// another thread synchronises.
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A simulated clock starting at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Milliseconds elapsed since the clock's origin. Not monotone: a
    /// skew fault [`set`](Self::set)s it backwards, and the scheduler clamps
    /// such readings itself.
    pub fn now_ms(&self) -> f64 {
        f64::from_bits(self.now.load(Ordering::Relaxed))
    }

    /// Advances the clock by `delta_ms`. Negative or non-finite deltas are
    /// ignored (a fault plan models skew via [`set`](Self::set) instead).
    pub fn advance(&self, delta_ms: f64) {
        if delta_ms.is_finite() && delta_ms > 0.0 {
            self.set(self.now_ms() + delta_ms);
        }
    }

    /// Sets the clock to an absolute reading — including *backwards*, which
    /// is exactly how clock-skew faults are injected.
    pub fn set(&self, now_ms: f64) {
        self.now.store(now_ms.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(3.0);
        b.advance(2.0);
        assert_eq!(a.now_ms(), 5.0);
        assert_eq!(b.now_ms(), 5.0);
        a.set(1.0);
        assert_eq!(b.now_ms(), 1.0);
    }

    #[test]
    fn sim_clock_ignores_bogus_advances() {
        let c = SimClock::new();
        c.advance(-5.0);
        c.advance(f64::NAN);
        c.advance(f64::INFINITY);
        assert_eq!(c.now_ms(), 0.0);
    }
}
