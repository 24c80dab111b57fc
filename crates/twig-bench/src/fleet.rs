//! Work-stealing-free parallel experiment fleet.
//!
//! Experiments decompose into independent **units** — (figure, seed,
//! manager-variant) tuples — that [`run_fleet`] executes across `jobs`
//! scoped OS threads ([`std::thread::scope`], no external dependencies).
//! Three properties make the fleet safe to put in front of every result
//! table:
//!
//! - **Determinism.** Each unit derives its seed from the base seed and its
//!   *index* ([`unit_seed`]), never from which thread picked it up, and
//!   results are collected back into submission order. A table assembled
//!   from fleet outputs is therefore bit-identical at `--jobs 1` and
//!   `--jobs N` (asserted by `tests/fleet_determinism.rs`).
//! - **Panic isolation.** A unit that panics is reported as a failed unit
//!   with its panic message; the remaining units still run and the suite
//!   stays alive.
//! - **No work stealing.** Workers claim the next unit off a shared atomic
//!   cursor. There are no per-thread deques to rebalance and no ordering
//!   dependence on who finishes first.
//!
//! Per-thread busy time and unit counts are gathered into [`FleetStats`].

use crate::ExpError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Derives the seed for unit `index` from the fleet's base seed.
///
/// SplitMix64 over the base xor a golden-ratio-scrambled index: distinct
/// indices get decorrelated streams, and the value depends only on
/// `(base, index)` — never on thread identity or completion order, which
/// is what makes fleet output independent of `--jobs`.
pub fn unit_seed(base: u64, index: usize) -> u64 {
    let mut z = base
        ^ (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent experiment unit: a label plus the work closure, which
/// receives the unit's derived seed (see [`unit_seed`]).
pub struct Unit<'a, T = String> {
    label: String,
    work: Box<dyn FnOnce(u64) -> Result<T, ExpError> + Send + 'a>,
}

impl<'a, T> Unit<'a, T> {
    /// Wraps `work` under `label` (shown in failure reports and stats).
    pub fn new<F>(label: impl Into<String>, work: F) -> Self
    where
        F: FnOnce(u64) -> Result<T, ExpError> + Send + 'a,
    {
        Unit {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// The unit's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> std::fmt::Debug for Unit<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Unit").field("label", &self.label).finish()
    }
}

/// One unit's outcome, in submission order. `Err` carries the error or
/// panic description — a crashed unit is a reported failure, not a dead
/// suite.
#[derive(Debug)]
pub struct UnitResult<T> {
    /// The unit's label.
    pub label: String,
    /// Output on success; error / panic description on failure.
    pub outcome: Result<T, String>,
}

/// Aggregate fleet accounting: unit counts, per-thread busy time, wall
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Worker threads actually spawned (after clamping to the unit count).
    pub jobs: usize,
    /// Units submitted.
    pub units_total: usize,
    /// Units that returned `Ok`.
    pub units_ok: usize,
    /// Units that errored or panicked.
    pub units_failed: usize,
    /// Busy milliseconds per worker thread (time spent inside unit work).
    pub busy_ms: Vec<f64>,
    /// Wall-clock milliseconds for the whole fleet.
    pub wall_ms: f64,
}

impl FleetStats {
    /// Mean fraction of the fleet's wall clock its threads spent busy
    /// (1.0 = perfectly utilized).
    pub fn utilization(&self) -> f64 {
        if self.wall_ms <= 0.0 || self.busy_ms.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.busy_ms.iter().sum();
        busy / (self.wall_ms * self.busy_ms.len() as f64)
    }
}

/// A completed fleet: per-unit results in submission order, plus stats.
#[derive(Debug)]
pub struct FleetRun<T> {
    /// One entry per submitted unit, in submission order.
    pub results: Vec<UnitResult<T>>,
    /// Aggregate accounting.
    pub stats: FleetStats,
}

impl<T> FleetRun<T> {
    /// Unwraps every unit output in order, or errors listing every failed
    /// unit (label + reason).
    ///
    /// # Errors
    ///
    /// Returns a combined error if any unit failed.
    pub fn into_outputs(self) -> Result<Vec<T>, ExpError> {
        let mut outputs = Vec::with_capacity(self.results.len());
        let mut failures = Vec::new();
        for r in self.results {
            match r.outcome {
                Ok(v) => outputs.push(v),
                Err(e) => failures.push(format!("{}: {e}", r.label)),
            }
        }
        if failures.is_empty() {
            Ok(outputs)
        } else {
            Err(format!(
                "{} fleet unit(s) failed: {}",
                failures.len(),
                failures.join("; ")
            )
            .into())
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `units` across `min(jobs, units)` scoped threads, collecting
/// results back into submission order. `jobs == 1` degenerates to a plain
/// serial loop on one worker thread; outputs are identical either way
/// because seeds derive from indices and collection is slot-ordered.
pub fn run_fleet<'a, T: Send + 'a>(
    units: Vec<Unit<'a, T>>,
    jobs: usize,
    base_seed: u64,
) -> FleetRun<T> {
    let n = units.len();
    let jobs = jobs.max(1).min(n.max(1));
    // Each slot is claimed exactly once: the atomic cursor hands every
    // index to one worker, which takes the unit out of its slot.
    let slots: Vec<Mutex<Option<Unit<'a, T>>>> =
        units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, String, Result<T, String>)>();
    let start = Instant::now();
    let mut busy_ms = vec![0.0f64; jobs];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let tx = tx.clone();
                let slots = &slots;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut busy = 0.0f64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let unit = slots[i]
                            .lock()
                            .expect("fleet slot lock")
                            .take()
                            .expect("unit claimed exactly once");
                        let label = unit.label.clone();
                        let seed = unit_seed(base_seed, i);
                        let t0 = Instant::now();
                        let outcome =
                            match catch_unwind(AssertUnwindSafe(move || (unit.work)(seed))) {
                                Ok(Ok(v)) => Ok(v),
                                Ok(Err(e)) => Err(format!("error: {e}")),
                                Err(p) => Err(format!("panic: {}", panic_message(p.as_ref()))),
                            };
                        busy += t0.elapsed().as_secs_f64() * 1e3;
                        // Receiver outlives the scope; send cannot fail.
                        let _ = tx.send((i, label, outcome));
                    }
                    busy
                })
            })
            .collect();
        drop(tx);
        for (w, h) in handles.into_iter().enumerate() {
            // Worker bodies catch unit panics; the worker itself only joins.
            busy_ms[w] = h.join().expect("fleet worker never panics");
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut ordered: Vec<Option<UnitResult<T>>> = (0..n).map(|_| None).collect();
    for (i, label, outcome) in rx.try_iter() {
        ordered[i] = Some(UnitResult { label, outcome });
    }
    let results: Vec<UnitResult<T>> = ordered
        .into_iter()
        .map(|r| r.expect("every claimed unit reports a result"))
        .collect();
    let units_ok = results.iter().filter(|r| r.outcome.is_ok()).count();
    FleetRun {
        stats: FleetStats {
            jobs,
            units_total: n,
            units_ok,
            units_failed: n - units_ok,
            busy_ms,
            wall_ms,
        },
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seed_is_deterministic_and_decorrelated() {
        assert_eq!(unit_seed(42, 0), unit_seed(42, 0));
        let seeds: Vec<u64> = (0..64).map(|i| unit_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "colliding unit seeds");
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0));
    }

    fn seed_units<'a>(n: usize) -> Vec<Unit<'a, u64>> {
        (0..n)
            .map(|i| Unit::new(format!("u{i}"), move |seed| Ok(seed ^ i as u64)))
            .collect()
    }

    #[test]
    fn results_are_ordered_and_jobs_invariant() {
        let serial = run_fleet(seed_units(17), 1, 99);
        let parallel = run_fleet(seed_units(17), 4, 99);
        let vals = |run: FleetRun<u64>| -> Vec<u64> { run.into_outputs().unwrap() };
        assert_eq!(vals(serial), vals(parallel));
    }

    #[test]
    fn panicking_unit_is_isolated() {
        let mut units: Vec<Unit<u64>> = seed_units(5);
        units.insert(
            2,
            Unit::new("boom", |_| -> Result<u64, ExpError> { panic!("kaput") }),
        );
        let run = run_fleet(units, 3, 7);
        assert_eq!(run.stats.units_total, 6);
        assert_eq!(run.stats.units_failed, 1);
        assert_eq!(run.stats.units_ok, 5);
        let failed = &run.results[2];
        assert_eq!(failed.label, "boom");
        let msg = failed.outcome.as_ref().unwrap_err();
        assert!(msg.contains("panic") && msg.contains("kaput"), "{msg}");
        // The suite survives and the aggregate error names the culprit.
        let err = run.into_outputs().unwrap_err().to_string();
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    fn erroring_unit_reports_not_kills() {
        let units = vec![
            Unit::new("ok", |_| Ok(1u64)),
            Unit::new("bad", |_| Err("deliberate".into())),
        ];
        let run = run_fleet(units, 2, 0);
        assert!(run.results[0].outcome.is_ok());
        let msg = run.results[1].outcome.as_ref().unwrap_err();
        assert!(msg.contains("deliberate"), "{msg}");
    }

    #[test]
    fn jobs_clamped_to_unit_count() {
        let run = run_fleet(seed_units(2), 16, 0);
        assert_eq!(run.stats.jobs, 2);
        assert_eq!(run.stats.busy_ms.len(), 2);
        let empty = run_fleet(Vec::<Unit<u64>>::new(), 4, 0);
        assert_eq!(empty.stats.jobs, 1);
        assert_eq!(empty.stats.units_total, 0);
    }
}
