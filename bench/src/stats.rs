//! Order statistics the ledger reports: medians, the tail percentile rule,
//! and the median-of-blocks throughput estimate.

/// Percentiles the tail rule may pick, highest last, each with the share of
/// a sample that lies beyond it, per mille.
const TAIL_CANDIDATES: [(f64, usize); 4] = [(90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
/// An empty sample yields 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n`; the median (50) when even p90 has not.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map_or(50.0, |(percentile, _)| *percentile)
}

/// Median and tail of one timing sample, with the percentile the tail is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`tail_percentile`]`(n)`.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

/// Summarises a timing sample by the reporting rule: the median and the
/// highest percentile with at least ten samples beyond it.
pub fn timing(samples: &[f64]) -> Timing {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Timing {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 50.0),
        tail: percentile_sorted(&sorted, tail_pct),
        tail_pct,
    }
}

/// Operations per second of each of `blocks` equal-count blocks of a timed
/// window. `ends_ns[i]` is when operation `i` finished, `start_ns` when the
/// window opened; a remainder that does not fill a block is dropped from
/// the end. Fewer operations than blocks yields one block per operation.
pub fn block_rates(start_ns: u64, ends_ns: &[u64], blocks: usize) -> Vec<f64> {
    let per_block = (ends_ns.len() / blocks.max(1)).max(1);
    let mut rates = Vec::with_capacity(blocks);
    let mut from = start_ns;
    for chunk in ends_ns.chunks_exact(per_block).take(blocks) {
        let to = chunk[per_block - 1];
        let secs = to.saturating_sub(from) as f64 / 1e9;
        if secs > 0.0 {
            rates.push(per_block as f64 / secs);
        }
        from = to;
    }
    rates
}

/// Median block rate: the throughput estimate every workload reports. A
/// stall that lands in a few blocks moves the mean but not this.
pub fn median_block_rate(start_ns: u64, ends_ns: &[u64], blocks: usize) -> f64 {
    median(&block_rates(start_ns, ends_ns, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn timing_reports_the_tail_it_used() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = timing(&samples);
        assert_eq!(t.n, 200);
        assert_eq!(t.tail_pct, 95.0);
        assert_eq!(t.p50, 100.5);
        assert!(t.tail > 190.0 && t.tail < 192.0);
    }

    #[test]
    fn median_of_blocks_ignores_a_stall() {
        // 21 blocks of 2 ops at 1 ms each, except one block that stalls.
        let mut ends = Vec::new();
        let mut t = 0u64;
        for block in 0..21 {
            for _ in 0..2 {
                t += if block == 5 { 50_000_000 } else { 1_000_000 };
                ends.push(t);
            }
        }
        let rates = block_rates(0, &ends, 21);
        assert_eq!(rates.len(), 21);
        assert!((median_block_rate(0, &ends, 21) - 1_000.0).abs() < 1e-6);
        let mean = ends.len() as f64 / (t as f64 / 1e9);
        assert!(mean < 400.0, "the mean is dragged down by the stall");
    }

    #[test]
    fn blocks_drop_the_remainder_and_survive_short_windows() {
        let ends: Vec<u64> = (1..=45).map(|i| i * 1_000).collect();
        // 45 / 21 = 2 per block, 3 left over.
        assert_eq!(block_rates(0, &ends, 21).len(), 21);
        let short: Vec<u64> = (1..=3).map(|i| i * 1_000).collect();
        assert_eq!(block_rates(0, &short, 21).len(), 3);
        assert!(block_rates(0, &[], 21).is_empty());
        assert_eq!(median_block_rate(0, &[], 21), 0.0);
    }
}
