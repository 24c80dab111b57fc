//! Seeded fault injection for checkpoint storage.
//!
//! The checkpoint path fails differently from telemetry or actuation: a
//! crash mid-write tears the payload, ageing media flips bits, a full or
//! failing filesystem truncates files, and a wedged writer silently stops
//! producing new generations so only stale state survives. This module
//! models those failures as deterministic corruptions of the *payload about
//! to be written*, so a chaos harness can interpose a [`StoreFaultPlan`]
//! between a manager's serializer and a
//! `CheckpointStore`-style sink and then assert that the recovery ladder
//! climbs back to a good generation.
//!
//! Like [`FaultPlan`](crate::FaultPlan), a plan owns its own RNG stream:
//! the same seed reproduces the identical corruption schedule regardless of
//! the manager under test, and every channel is drawn on every call so the
//! schedule does not shift when individual rates are toggled.
//!
//! # Examples
//!
//! ```
//! use twig_sim::{StoreFaultConfig, StoreFaultKind, StoreFaultPlan};
//!
//! # fn main() -> Result<(), twig_sim::SimError> {
//! let mut plan = StoreFaultPlan::new(
//!     StoreFaultConfig { bit_flip_rate: 1.0, ..StoreFaultConfig::default() },
//!     7,
//! )?;
//! let mut payload = vec![0u8; 64];
//! assert_eq!(plan.corrupt_write(&mut payload), Some(StoreFaultKind::BitFlip));
//! # Ok(())
//! # }
//! ```

use crate::SimError;
use twig_stats::fields::{any_active, check, Kind, Row};
use twig_stats::rng::{Rng, Xoshiro256};

/// Per-write fault probabilities for checkpoint storage. All rates default
/// to zero: the default configuration corrupts nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreFaultConfig {
    /// Probability, per write, that the payload is torn: only a random
    /// prefix (at least one byte, never the whole payload) reaches disk —
    /// a crash between `write` and `fsync` on a store without atomic
    /// rename, or a torn rename on a non-journalled filesystem.
    pub torn_write_rate: f64,
    /// Probability, per write, that exactly one bit of the payload is
    /// flipped (media corruption or a DMA error).
    pub bit_flip_rate: f64,
    /// Probability, per write, that the payload is truncated below the
    /// codec's minimum header size (a full filesystem cutting the file
    /// short).
    pub truncate_rate: f64,
    /// Probability, per write, that the write is silently dropped and only
    /// older generations survive (a wedged or crashed writer).
    pub stale_rate: f64,
}

impl StoreFaultConfig {
    /// The field table: every field once.
    pub const FIELDS: &'static [Row<StoreFaultConfig>] = twig_stats::field_rows![
        "torn_write" => torn_write_rate: Probability;
        "bit_flip" => bit_flip_rate: Probability;
        "truncate" => truncate_rate: Probability;
        "stale" => stale_rate: Probability;
    ];

    /// `true` when at least one corruption channel can fire.
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
                detail: format!("store fault {label} = {rate} outside [0, 1]"),
            }
        })
    }
}

/// How one checkpoint write was corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// Only a prefix of the payload reached disk.
    TornWrite,
    /// Exactly one bit of the payload was flipped.
    BitFlip,
    /// The payload was cut below the codec's minimum header size.
    Truncate,
    /// The write was dropped entirely: the caller must skip it and leave
    /// older generations in place.
    Stale,
}

/// A deterministic checkpoint-corruption schedule, driven by its own
/// seeded RNG stream.
///
/// Interpose [`corrupt_write`](StoreFaultPlan::corrupt_write) between
/// serializing a checkpoint and handing it to the store. Draws happen in a
/// fixed order per call (torn, bit flip, truncate, stale — all four drawn
/// even when their rates are zero), and the first winning channel applies,
/// so the same seed yields the same corruption sequence for any rate
/// combination.
#[derive(Debug, Clone)]
pub struct StoreFaultPlan {
    config: StoreFaultConfig,
    rng: Xoshiro256,
}

impl StoreFaultPlan {
    /// Creates a plan from a configuration and a seed for its private RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid rates.
    pub fn new(config: StoreFaultConfig, seed: u64) -> Result<Self, SimError> {
        config.validate()?;
        Ok(StoreFaultPlan {
            config,
            rng: Xoshiro256::seed_from_u64(seed),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StoreFaultConfig {
        &self.config
    }

    /// `true` when at least one corruption channel can fire.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Possibly corrupts one checkpoint payload in place, returning what
    /// happened. [`StoreFaultKind::Stale`] leaves the payload intact — the
    /// caller must *not* write it (the generation never lands on disk).
    pub fn corrupt_write(&mut self, payload: &mut Vec<u8>) -> Option<StoreFaultKind> {
        // One uniform draw per channel on every call (not `next_bool`,
        // which skips the draw at rate 0 or 1): toggling one rate must not
        // shift the schedule of the others.
        let torn = self.rng.next_f64() < self.config.torn_write_rate;
        let flip = self.rng.next_f64() < self.config.bit_flip_rate;
        let truncate = self.rng.next_f64() < self.config.truncate_rate;
        let stale = self.rng.next_f64() < self.config.stale_rate;

        if torn && payload.len() > 1 {
            let keep = self.rng.range_usize(1, payload.len());
            payload.truncate(keep);
            return Some(StoreFaultKind::TornWrite);
        }
        if flip && !payload.is_empty() {
            let byte = self.rng.range_usize(0, payload.len());
            let bit = self.rng.range_usize(0, 8);
            payload[byte] ^= 1u8 << bit;
            return Some(StoreFaultKind::BitFlip);
        }
        if truncate {
            let cap = payload.len().min(16);
            payload.truncate(self.rng.range_usize(0, cap.max(1)));
            return Some(StoreFaultKind::Truncate);
        }
        if stale {
            return Some(StoreFaultKind::Stale);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        (0..128u8).collect()
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let c = StoreFaultConfig::default();
        assert!(!c.enabled());
        c.validate().unwrap();
        assert!(!StoreFaultPlan::new(c, 0).unwrap().enabled());
    }

    #[test]
    fn invalid_rates_rejected() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let c = StoreFaultConfig {
                torn_write_rate: bad,
                ..StoreFaultConfig::default()
            };
            assert!(c.validate().is_err(), "rate {bad} should be rejected");
            assert!(StoreFaultPlan::new(c, 0).is_err());
        }
    }

    #[test]
    fn zero_rates_never_touch_the_payload() {
        let mut plan = StoreFaultPlan::new(StoreFaultConfig::default(), 1).unwrap();
        let mut p = payload();
        for _ in 0..100 {
            assert_eq!(plan.corrupt_write(&mut p), None);
            assert_eq!(p, payload(), "payload must stay bit-identical");
        }
    }

    #[test]
    fn same_seed_reproduces_corruption_sequence() {
        let config = StoreFaultConfig {
            torn_write_rate: 0.3,
            bit_flip_rate: 0.3,
            truncate_rate: 0.2,
            stale_rate: 0.2,
        };
        let run = |seed: u64| {
            let mut plan = StoreFaultPlan::new(config.clone(), seed).unwrap();
            (0..60)
                .map(|_| {
                    let mut p = payload();
                    let kind = plan.corrupt_write(&mut p);
                    (kind, p)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn torn_write_keeps_a_strict_nonempty_prefix() {
        let mut plan = StoreFaultPlan::new(
            StoreFaultConfig {
                torn_write_rate: 1.0,
                ..StoreFaultConfig::default()
            },
            2,
        )
        .unwrap();
        for _ in 0..50 {
            let original = payload();
            let mut p = original.clone();
            assert_eq!(plan.corrupt_write(&mut p), Some(StoreFaultKind::TornWrite));
            assert!(!p.is_empty() && p.len() < original.len());
            assert_eq!(p[..], original[..p.len()], "a prefix, not a rewrite");
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut plan = StoreFaultPlan::new(
            StoreFaultConfig {
                bit_flip_rate: 1.0,
                ..StoreFaultConfig::default()
            },
            3,
        )
        .unwrap();
        for _ in 0..50 {
            let original = payload();
            let mut p = original.clone();
            assert_eq!(plan.corrupt_write(&mut p), Some(StoreFaultKind::BitFlip));
            let flipped: u32 = p
                .iter()
                .zip(&original)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
        }
    }

    #[test]
    fn truncate_cuts_below_header_size() {
        let mut plan = StoreFaultPlan::new(
            StoreFaultConfig {
                truncate_rate: 1.0,
                ..StoreFaultConfig::default()
            },
            4,
        )
        .unwrap();
        for _ in 0..50 {
            let mut p = payload();
            assert_eq!(plan.corrupt_write(&mut p), Some(StoreFaultKind::Truncate));
            assert!(p.len() < 16, "below the codec's minimum header size");
        }
    }

    #[test]
    fn stale_leaves_payload_intact() {
        let mut plan = StoreFaultPlan::new(
            StoreFaultConfig {
                stale_rate: 1.0,
                ..StoreFaultConfig::default()
            },
            5,
        )
        .unwrap();
        let mut p = payload();
        assert_eq!(plan.corrupt_write(&mut p), Some(StoreFaultKind::Stale));
        assert_eq!(p, payload(), "stale drops the write, not the bytes");
    }

    #[test]
    fn channels_apply_in_fixed_precedence() {
        // All channels armed: torn wins every time.
        let mut plan = StoreFaultPlan::new(
            StoreFaultConfig {
                torn_write_rate: 1.0,
                bit_flip_rate: 1.0,
                truncate_rate: 1.0,
                stale_rate: 1.0,
            },
            6,
        )
        .unwrap();
        let mut p = payload();
        assert_eq!(plan.corrupt_write(&mut p), Some(StoreFaultKind::TornWrite));
        // A 1-byte payload cannot tear or stay non-degenerate under a
        // flip-less tear, so the ladder falls through to the bit flip.
        let mut tiny = vec![0xAAu8];
        assert_eq!(plan.corrupt_write(&mut tiny), Some(StoreFaultKind::BitFlip));
        assert_ne!(tiny, vec![0xAAu8]);
        // An empty payload can only truncate (a no-op) — never panic.
        let mut empty = Vec::new();
        assert_eq!(
            plan.corrupt_write(&mut empty),
            Some(StoreFaultKind::Truncate)
        );
    }
}
