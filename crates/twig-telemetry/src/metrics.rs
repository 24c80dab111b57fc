use crate::TelemetryError;
use std::collections::BTreeMap;

/// A histogram with log-scaled fixed buckets over `[lo, hi)`.
///
/// Latency- and loss-style metrics span orders of magnitude; equal-width
/// bins either blur the small values or truncate the large ones. Here each
/// bucket is a constant *ratio* wider than the previous one
/// (`buckets_per_decade` buckets per ×10), so relative resolution is
/// uniform across the range. Quantile queries interpolate geometrically
/// within the winning bucket; the unit tests cross-check them against
/// [`twig_stats::percentile`] on the raw samples.
///
/// Non-finite samples are counted (`nonfinite`) but never recorded — a NaN
/// must not poison a summary the control loop's operators rely on.
///
/// # Examples
///
/// ```
/// let mut h = twig_telemetry::LogHistogram::new(0.001, 1000.0, 8).unwrap();
/// for v in [0.5, 1.0, 2.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(50.0).unwrap();
/// assert!(p50 > 0.5 && p50 < 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nonfinite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram over `[lo, hi)` with `buckets_per_decade` buckets
    /// per factor of ten.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidConfig`] when `lo <= 0`, `hi <= lo`
    /// or `buckets_per_decade == 0`.
    pub fn new(lo: f64, hi: f64, buckets_per_decade: usize) -> Result<Self, TelemetryError> {
        let bounds_ok = lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo;
        if !bounds_ok || buckets_per_decade == 0 {
            return Err(TelemetryError::InvalidConfig {
                detail: format!("log histogram [{lo}, {hi}) x{buckets_per_decade}/decade"),
            });
        }
        let growth = 10f64.powf(1.0 / buckets_per_decade as f64);
        let buckets = ((hi / lo).log10() * buckets_per_decade as f64)
            .ceil()
            .max(1.0) as usize;
        Ok(LogHistogram {
            lo,
            growth,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            nonfinite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// The default layout for control-loop metrics: 0.1 µs to 10⁷ ms with 8
    /// buckets per decade (< 15 % relative bucket width, 88 buckets).
    pub fn for_timings() -> Self {
        Self::new(1e-4, 1e7, 8).expect("static layout is valid")
    }

    /// Records one sample. Values below `lo` (including zero and negatives)
    /// land in a dedicated underflow bucket, values at or above `hi` in an
    /// overflow bucket; both still count toward quantiles as range ends.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < self.lo {
            self.underflow += 1;
        } else {
            let idx = (value / self.lo).log10() / self.growth.log10();
            let idx = idx as usize;
            if idx >= self.counts.len() {
                self.overflow += 1;
            } else {
                self.counts[idx] += 1;
            }
        }
    }

    /// Finite samples recorded.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Non-finite samples rejected.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Sum of the finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the finite samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }

    /// Smallest finite sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Largest finite sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.max)
    }

    /// The `p`-th quantile estimate (`p` in `0..=100`), interpolated
    /// geometrically within the winning bucket and clamped to the observed
    /// min/max. `None` when empty or `p` is out of range.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        let target = p / 100.0 * (total as f64 - 1.0);
        let mut cum = self.underflow as f64;
        let clamp = |v: f64| v.clamp(self.min, self.max);
        if target < cum {
            return Some(self.min);
        }
        let mut bucket_lo = self.lo;
        for &c in &self.counts {
            if c > 0 && target < cum + c as f64 {
                let frac = (target - cum + 0.5) / c as f64;
                return Some(clamp(bucket_lo * self.growth.powf(frac.clamp(0.0, 1.0))));
            }
            cum += c as f64;
            bucket_lo *= self.growth;
        }
        Some(self.max)
    }

    /// Collapses the histogram into a fixed summary for export.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            nonfinite: self.nonfinite,
            mean: self.mean().unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            p50: self.quantile(50.0).unwrap_or(0.0),
            p95: self.quantile(95.0).unwrap_or(0.0),
            p99: self.quantile(99.0).unwrap_or(0.0),
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::for_timings()
    }
}

/// Fixed-size digest of a [`LogHistogram`] (what sinks export).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Finite samples recorded.
    pub count: u64,
    /// Non-finite samples rejected.
    pub nonfinite: u64,
    /// Mean of the finite samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// Named counters, gauges and histograms with deterministic (sorted)
/// iteration order.
///
/// Counters only go up (events: governor trips, rejected transitions);
/// gauges hold the latest value (ε, buffer occupancy, socket power);
/// histograms digest distributions (phase latencies, loss, p99).
///
/// # Examples
///
/// ```
/// let mut m = twig_telemetry::MetricsRegistry::new();
/// m.counter_add("governor.trips", 1);
/// m.gauge_set("twig.epsilon", 0.1);
/// m.record("rl.loss", 0.25);
/// assert_eq!(m.counter("governor.trips"), 1);
/// assert_eq!(m.gauge("twig.epsilon"), Some(0.1));
/// assert_eq!(m.histogram("rl.loss").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records `value` into histogram `name` (created with the
    /// [`LogHistogram::for_timings`] layout on first use).
    pub fn record(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogHistogram::for_timings();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of counter `name` (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// A point-in-time copy of everything, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], name-sorted for
/// deterministic export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, digest)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram digest by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::{Rng, Xoshiro256};

    #[test]
    fn rejects_degenerate_layouts() {
        assert!(LogHistogram::new(0.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(-1.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(1.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(0.1, 10.0, 0).is_err());
        assert!(LogHistogram::new(f64::NAN, 1.0, 4).is_err());
    }

    #[test]
    fn bucket_edges_grow_by_constant_ratio() {
        let h = LogHistogram::new(1.0, 1000.0, 1).unwrap();
        // 3 decades, 1 bucket per decade.
        assert_eq!(h.counts.len(), 3);
        assert!((h.growth - 10.0).abs() < 1e-12);
    }

    #[test]
    fn samples_land_in_the_right_decade() {
        let mut h = LogHistogram::new(1.0, 1000.0, 1).unwrap();
        h.record(2.0); // decade [1, 10)
        h.record(20.0); // decade [10, 100)
        h.record(200.0); // decade [100, 1000)
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow, 0);
    }

    #[test]
    fn underflow_overflow_and_nonfinite_are_segregated() {
        let mut h = LogHistogram::new(1.0, 100.0, 2).unwrap();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e9);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.underflow, 2);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.nonfinite(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_match_twig_stats_percentiles_within_bucket_resolution() {
        // The histogram's quantile must agree with the exact order
        // statistic (twig-stats on the raw samples) to within one bucket's
        // relative width — that is the whole point of log bucketing.
        let mut rng = Xoshiro256::seed_from_u64(0x7e1e);
        for trial in 0..20 {
            let mut h = LogHistogram::new(1e-3, 1e4, 16).unwrap();
            let n = rng.range_usize(50, 2000);
            let mut samples: Vec<f64> = (0..n)
                .map(|_| 10f64.powf(rng.range_f64(-2.0, 3.0)))
                .collect();
            for &s in &samples {
                h.record(s);
            }
            let rel_width = 10f64.powf(1.0 / 16.0);
            for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                let exact = twig_stats::percentile(&mut samples, p).unwrap();
                let est = h.quantile(p).unwrap();
                let ratio = est / exact;
                assert!(
                    ratio < rel_width * rel_width && ratio > 1.0 / (rel_width * rel_width),
                    "trial {trial} p{p}: est {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(0xbead);
        let mut h = LogHistogram::for_timings();
        for _ in 0..500 {
            h.record(rng.range_f64(0.01, 100.0));
        }
        let mut prev = 0.0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let q = h.quantile(p).unwrap();
            assert!(q >= prev, "quantiles must be monotone in p");
            assert!(q >= h.min().unwrap() && q <= h.max().unwrap());
            prev = q;
        }
        assert_eq!(h.quantile(0.0).unwrap(), h.min().unwrap());
        assert_eq!(h.quantile(100.0).unwrap(), h.max().unwrap());
    }

    #[test]
    fn quantile_edge_cases() {
        let h = LogHistogram::for_timings();
        assert_eq!(h.quantile(50.0), None, "empty histogram");
        let mut h = LogHistogram::for_timings();
        h.record(3.0);
        assert_eq!(h.quantile(0.0), Some(3.0));
        assert_eq!(h.quantile(100.0), Some(3.0));
        assert_eq!(h.quantile(101.0), None);
        assert_eq!(h.quantile(-1.0), None);
    }

    #[test]
    fn summary_digest_is_consistent() {
        let mut h = LogHistogram::for_timings();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn registry_counters_accumulate_and_gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        m.gauge_set("g", 1.0);
        m.gauge_set("g", 2.0);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(2.0));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z", 1);
        m.counter_add("a", 1);
        m.record("h", 5.0);
        m.gauge_set("mid", 0.5);
        let s = m.snapshot();
        assert_eq!(s.counters[0].0, "a");
        assert_eq!(s.counters[1].0, "z");
        assert_eq!(s.counter("z"), 1);
        assert_eq!(s.gauge("mid"), Some(0.5));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert!(s.histogram("nope").is_none());
    }
}
