use crate::{StatsError, Summary};

/// Fixed-width binned histogram over a closed range.
///
/// The evaluation figures need both probability-density summaries (Fig. 1
/// left, Fig. 6 right) and time-distribution colour maps (Fig. 6 left,
/// Fig. 12); both are produced from this type.
///
/// # Examples
///
/// ```
/// let mut h = twig_stats::Histogram::new(0.0, 10.0, 5).unwrap();
/// h.record(1.0);
/// h.record(1.5);
/// h.record(9.0);
/// assert_eq!(h.counts()[0], 2);
/// assert_eq!(h.total(), 3);
/// let d = h.density();
/// assert!((d.iter().sum::<f64>() * 2.0 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates a histogram of `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `bins == 0` or
    /// `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 || hi <= lo {
            return Err(StatsError::InvalidParameter {
                detail: format!("histogram over [{lo}, {hi}) with {bins} bins"),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            below: 0,
            above: 0,
        })
    }

    /// Records one sample. Samples outside `[lo, hi)` are counted in
    /// overflow/underflow buckets and excluded from [`density`](Self::density).
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.below += 1;
        } else if value >= self.hi {
            self.above += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of samples below the range.
    pub fn underflow(&self) -> u64 {
        self.below
    }

    /// Number of samples at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.above
    }

    /// Centre of each bin.
    pub fn bin_centers(&self) -> Vec<f64> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + width * (i as f64 + 0.5))
            .collect()
    }

    /// Probability-density estimate (integrates to 1 over the range when
    /// there are in-range samples; all zeros otherwise).
    pub fn density(&self) -> Vec<f64> {
        let total = self.total();
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / (total as f64 * width))
            .collect()
    }

    /// Index of the most populated bin, or `None` for an empty histogram.
    pub fn mode_bin(&self) -> Option<usize> {
        if self.total() == 0 {
            return None;
        }
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A violin-plot style summary: for each bucket of an independent variable,
/// the distribution of a dependent variable.
///
/// Figure 1 (b, d) buckets samples by measured tail latency and shows the
/// distribution of the prediction error within each bucket.
///
/// # Examples
///
/// ```
/// let mut v = twig_stats::ViolinSummary::new(0.0, 10.0, 2).unwrap();
/// v.record(2.0, 0.1); // x in first bucket
/// v.record(2.5, 0.3);
/// v.record(7.0, -0.2); // x in second bucket
/// let buckets = v.bucket_summaries();
/// assert_eq!(buckets.len(), 2);
/// assert_eq!(buckets[0].as_ref().unwrap().count, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinSummary {
    lo: f64,
    hi: f64,
    buckets: Vec<Vec<f64>>,
}

impl ViolinSummary {
    /// Creates a summary with `buckets` equal-width x-buckets over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `buckets == 0` or
    /// `hi <= lo`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self, StatsError> {
        if buckets == 0 || hi <= lo {
            return Err(StatsError::InvalidParameter {
                detail: format!("violin over [{lo}, {hi}) with {buckets} buckets"),
            });
        }
        Ok(ViolinSummary {
            lo,
            hi,
            buckets: vec![Vec::new(); buckets],
        })
    }

    /// Records a `(x, y)` pair; out-of-range `x` values are clamped into the
    /// first/last bucket.
    pub fn record(&mut self, x: f64, y: f64) {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let idx = if x < self.lo {
            0
        } else {
            (((x - self.lo) / width) as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx].push(y);
    }

    /// Per-bucket [`Summary`] of the dependent variable (`None` for empty
    /// buckets).
    pub fn bucket_summaries(&self) -> Vec<Option<Summary>> {
        self.buckets
            .iter()
            .map(|b| Summary::from_data(b).ok())
            .collect()
    }

    /// Boundaries `[lo, .., hi]` of the x-buckets.
    pub fn bucket_edges(&self) -> Vec<f64> {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (0..=self.buckets.len())
            .map(|i| self.lo + width * i as f64)
            .collect()
    }

    /// Raw y-samples of a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn bucket_samples(&self, bucket: usize) -> &[f64] {
        &self.buckets[bucket]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn rejects_zero_bins() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
    }

    #[test]
    fn overflow_underflow_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.5);
        h.record(1.5);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn mode_bin_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert_eq!(h.mode_bin(), None);
    }

    #[test]
    fn bin_centers_are_monotone() {
        let h = Histogram::new(-1.0, 1.0, 4).unwrap();
        let centers = h.bin_centers();
        assert_eq!(centers.len(), 4);
        for w in centers.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn density_zero_when_empty() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!(h.density().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn violin_clamps_out_of_range_x() {
        let mut v = ViolinSummary::new(0.0, 1.0, 2).unwrap();
        v.record(-5.0, 1.0);
        v.record(5.0, 2.0);
        assert_eq!(v.bucket_samples(0), &[1.0]);
        assert_eq!(v.bucket_samples(1), &[2.0]);
    }

    #[test]
    fn violin_edges_span_range() {
        let v = ViolinSummary::new(0.0, 10.0, 5).unwrap();
        let edges = v.bucket_edges();
        assert_eq!(edges.first().copied(), Some(0.0));
        assert_eq!(edges.last().copied(), Some(10.0));
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut rng = Xoshiro256::seed_from_u64(0xd157);
        for _ in 0..100 {
            let n = rng.range_usize(1, 500);
            let samples: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let bins = rng.range_usize(1, 50);
            let mut h = Histogram::new(0.0, 1.0, bins).unwrap();
            h.extend(samples.iter().copied());
            let width = 1.0 / bins as f64;
            let integral: f64 = h.density().iter().map(|d| d * width).sum();
            assert!((integral - 1.0).abs() < 1e-9, "integral = {integral}");
        }
    }

    #[test]
    fn counts_conserved() {
        let mut rng = Xoshiro256::seed_from_u64(0xc0c0);
        for _ in 0..100 {
            let n = rng.range_usize(0, 300);
            let samples: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 3.0)).collect();
            let mut h = Histogram::new(0.0, 1.0, 7).unwrap();
            h.extend(samples.iter().copied());
            assert_eq!(
                h.total() + h.underflow() + h.overflow(),
                samples.len() as u64
            );
        }
    }
}
