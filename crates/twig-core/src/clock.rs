//! Time sources for the deadline-aware epoch scheduler.
//!
//! The [`EpochScheduler`](crate::EpochScheduler) never reads wall time
//! directly: it is generic over a [`VirtualClock`], so production code runs
//! on a monotonic [`WallClock`] while the simulator and tests inject a
//! [`SimClock`] advanced by hand (or by a seeded
//! `twig_sim::TimingFaultPlan`). That keeps every scheduling decision — and
//! therefore every experiment report — a deterministic function of the
//! seed, with zero external dependencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of milliseconds since some fixed origin.
///
/// Implementations need not be monotone — the scheduler clamps backward
/// jumps itself, so a skewed or stuck clock degrades scheduling quality but
/// can never panic it or run it backwards.
pub trait VirtualClock {
    /// Milliseconds elapsed since the clock's origin.
    fn now_ms(&self) -> f64;
}

/// Real monotonic time from [`std::time::Instant`], origin at construction.
///
/// # Examples
///
/// ```
/// use twig_core::{VirtualClock, WallClock};
/// let clock = WallClock::new();
/// assert!(clock.now_ms() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock for WallClock {
    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }
}

/// Deterministic simulated time, advanced explicitly by the driver.
///
/// Clones share the same underlying reading (the `f64`'s bits in an
/// atomic, so a node that owns a clock can be served on another thread),
/// and a driver can keep one handle and hand another to the scheduler:
///
/// ```
/// use twig_core::{SimClock, VirtualClock};
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

impl VirtualClock for SimClock {
    fn now_ms(&self) -> f64 {
        f64::from_bits(self.now.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a && a >= 0.0);
    }

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
