use crate::StatsError;

/// Computes the `p`-th percentile of `data` (linear interpolation between
/// closest ranks), reordering `data` in place.
///
/// Tail latency in the Twig reproduction is always the 99th percentile of the
/// request latencies observed in a monitoring interval. Only the two order
/// statistics the interpolation reads are placed, by selection, in O(n) and
/// without a scratch buffer; the result is bit for bit what sorting with
/// [`f64::total_cmp`] and calling [`percentile_sorted`] returns (floats that
/// `total_cmp` calls equal are the same bits), but `data` is left
/// partitioned around those ranks, not sorted.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] if `data` is empty and
/// [`StatsError::InvalidParameter`] if `p` is outside `0..=100`.
///
/// # Examples
///
/// ```
/// let mut lat = vec![5.0, 1.0, 3.0, 2.0, 4.0];
/// assert_eq!(twig_stats::percentile(&mut lat, 50.0).unwrap(), 3.0);
/// ```
pub fn percentile(data: &mut [f64], p: f64) -> Result<f64, StatsError> {
    let (lo, hi, frac) = closest_ranks(data.len(), p)?;
    // total_cmp keeps this panic-free on NaN input (NaN ranks last); a
    // corrupted sample must degrade the estimate, not abort the simulation.
    let (_, &mut at_lo, above) = data.select_nth_unstable_by(lo, f64::total_cmp);
    let at_hi = if hi == lo {
        at_lo
    } else {
        // hi == lo + 1: the smallest element right of the pivot.
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("hi <= len - 1, so the right partition is non-empty")
    };
    Ok(at_lo + (at_hi - at_lo) * frac)
}

/// Computes the `p`-th percentile of already-sorted `data`.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] if `data` is empty and
/// [`StatsError::InvalidParameter`] if `p` is outside `0..=100`.
///
/// # Examples
///
/// ```
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(twig_stats::percentile_sorted(&sorted, 100.0).unwrap(), 4.0);
/// ```
pub fn percentile_sorted(data: &[f64], p: f64) -> Result<f64, StatsError> {
    let (lo, hi, frac) = closest_ranks(data.len(), p)?;
    Ok(data[lo] + (data[hi] - data[lo]) * frac)
}

/// The two ranks the `p`-th percentile of `len` samples interpolates
/// between (`hi` is `lo` or `lo + 1`) and the weight of the upper one.
fn closest_ranks(len: usize, p: f64) -> Result<(usize, usize, f64), StatsError> {
    if len == 0 {
        return Err(StatsError::Empty);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter {
            detail: format!("percentile {p} outside 0..=100"),
        });
    }
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok((lo, hi, rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn percentile_rejects_out_of_range() {
        let mut d = [1.0];
        assert!(matches!(
            percentile(&mut d, 101.0),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            percentile(&mut d, -0.1),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn percentile_empty_errors() {
        assert_eq!(percentile(&mut [], 50.0), Err(StatsError::Empty));
    }

    #[test]
    fn single_element_all_percentiles() {
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut [7.0], p).unwrap(), 7.0);
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let mut d = [0.0, 10.0];
        assert_eq!(percentile(&mut d, 50.0).unwrap(), 5.0);
        assert_eq!(percentile(&mut d, 25.0).unwrap(), 2.5);
    }

    #[test]
    fn percentile_monotone_in_p() {
        let mut rng = Xoshiro256::seed_from_u64(0x9e3779b9);
        for _ in 0..200 {
            let n = rng.range_usize(1, 200);
            let mut data: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
            let p1 = rng.range_f64(0.0, 100.0);
            let p2 = rng.range_f64(0.0, 100.0);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&mut data, lo).unwrap();
            let b = percentile(&mut data, hi).unwrap();
            assert!(a <= b, "p{lo} gave {a} > p{hi} giving {b}");
        }
    }

    #[test]
    fn percentile_bounded_by_min_max() {
        let mut rng = Xoshiro256::seed_from_u64(0x51c3);
        for _ in 0..200 {
            let n = rng.range_usize(1, 200);
            let mut data: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
            let p = rng.range_f64(0.0, 100.0);
            let v = percentile(&mut data, p).unwrap();
            let min = data.iter().copied().fold(f64::INFINITY, f64::min);
            let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min && v <= max);
        }
    }

    /// The reference the selection must reproduce bit for bit.
    fn by_sorting(data: &[f64], p: f64) -> u64 {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, p).unwrap().to_bits()
    }

    /// Seeded inputs of length `n` in every shape the simulator or a
    /// corrupted sample can produce.
    fn shapes(n: usize, rng: &mut Xoshiro256) -> Vec<(&'static str, Vec<f64>)> {
        let random: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e3, 1e3)).collect();
        let mut ascending = random.clone();
        ascending.sort_by(f64::total_cmp);
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        // Completion order: long ascending runs with a few restarts.
        let mut runs = ascending.clone();
        runs.rotate_left(n / 3);
        let duplicates: Vec<f64> = (0..n)
            .map(|_| rng.range_usize(0, 4) as f64 * 0.25)
            .collect();
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            2000.0,
            -1.5,
        ];
        let mut specials: Vec<f64> = (0..n)
            .map(|i| match rng.range_usize(0, 3) {
                0 => SPECIALS[rng.range_usize(0, SPECIALS.len())],
                1 => -f64::NAN,
                _ => random[i],
            })
            .collect();
        // Every special at least once where the length allows.
        for (slot, special) in specials.iter_mut().zip(SPECIALS) {
            *slot = special;
        }
        vec![
            ("random", random),
            ("ascending", ascending),
            ("descending", descending),
            ("runs", runs),
            ("duplicates", duplicates),
            ("specials", specials),
            ("constant", vec![1.39; n]),
        ]
    }

    #[test]
    fn selection_matches_the_sort_bit_for_bit() {
        let mut rng = Xoshiro256::seed_from_u64(0x5e1ec7);
        // Every small length (so every remainder of the rank arithmetic,
        // including the integral ranks where `hi == lo`), then a spread up
        // to the simulator's backlog cap.
        let lengths = (1..=300).chain([500, 1_001, 2_600, 5_000, 10_001, 25_000, 50_000]);
        for n in lengths {
            for (shape, data) in shapes(n, &mut rng) {
                for p in [0.0, 1.0, 50.0, 99.0, 99.9, 100.0] {
                    let mut scratch = data.clone();
                    let got = percentile(&mut scratch, p).unwrap().to_bits();
                    assert_eq!(
                        got,
                        by_sorting(&data, p),
                        "{shape} input of length {n} at p{p}"
                    );
                    // Reordered, never rewritten: same multiset of bits.
                    let mut before: Vec<u64> = data.iter().map(|x| x.to_bits()).collect();
                    let mut after: Vec<u64> = scratch.iter().map(|x| x.to_bits()).collect();
                    before.sort_unstable();
                    after.sort_unstable();
                    assert_eq!(before, after, "{shape} input of length {n} at p{p}");
                }
            }
        }
    }

    #[test]
    fn selection_covers_integral_and_fractional_ranks() {
        // p99 of 101 and 201 samples lands exactly on a sample; of 100 it
        // interpolates. Both branches of `hi == lo` must be exercised above.
        assert_eq!(closest_ranks(101, 99.0).unwrap(), (99, 99, 0.0));
        assert_eq!(closest_ranks(201, 99.0).unwrap(), (198, 198, 0.0));
        let (lo, hi, frac) = closest_ranks(100, 99.0).unwrap();
        assert_eq!((lo, hi), (98, 99));
        assert!(frac > 0.0 && frac < 1.0);
        assert_eq!(closest_ranks(7, 100.0).unwrap(), (6, 6, 0.0));
    }

    #[test]
    fn nan_still_ranks_last() {
        let mut data = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&mut data, 0.0).unwrap(), 1.0);
        assert!(percentile(&mut data, 100.0).unwrap().is_nan());
        // p50 interpolates between ranks 1 and 2: the NaN is not involved.
        assert_eq!(percentile(&mut data, 50.0).unwrap(), 2.5);
    }
}
