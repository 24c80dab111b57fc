use crate::TwigError;
use std::collections::VecDeque;
use twig_sim::pmc::{calibration_maxima, CounterId, PmcSample, NUM_COUNTERS};
use twig_stats::{max_norm_scale, MaxNormScaler, Pca};

/// The Twig system monitor (Section III-B1): per service it keeps the last
/// η raw counter samples, reduces noise with a weighted sum (recent samples
/// weigh more), and feature-scales the result to `[0, 1]` with max-value
/// normalisation against the microbenchmark calibration maxima.
///
/// # Examples
///
/// ```
/// use twig_core::SystemMonitor;
/// use twig_sim::PmcSample;
///
/// let mut mon = SystemMonitor::new(2, 5, 18).unwrap();
/// mon.update(0, &PmcSample::zero()).unwrap();
/// let state = mon.state(0).unwrap();
/// assert_eq!(state.len(), twig_sim::NUM_COUNTERS);
/// assert!(state.iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
#[derive(Debug, Clone)]
pub struct SystemMonitor {
    histories: Vec<VecDeque<PmcSample>>,
    last_good: Vec<PmcSample>,
    degraded: Vec<bool>,
    eta: usize,
    scaler: MaxNormScaler,
}

impl SystemMonitor {
    /// Creates a monitor for `services` services with smoothing window
    /// `eta` (the paper uses η = 5) on a platform with `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::InvalidConfig`] for zero services, window or
    /// cores.
    pub fn new(services: usize, eta: usize, cores: usize) -> Result<Self, TwigError> {
        if services == 0 || eta == 0 {
            return Err(TwigError::InvalidConfig {
                detail: format!("{services} services, eta {eta}"),
            });
        }
        let maxima = calibration_maxima(cores).map_err(TwigError::Sim)?;
        let scaler = MaxNormScaler::new(maxima.to_vec()).map_err(TwigError::Stats)?;
        Ok(SystemMonitor {
            histories: vec![VecDeque::with_capacity(eta); services],
            last_good: vec![PmcSample::zero(); services],
            degraded: vec![false; services],
            eta,
            scaler,
        })
    }

    /// Number of monitored services.
    pub fn services(&self) -> usize {
        self.histories.len()
    }

    /// Records one epoch's raw counters for service `index`.
    ///
    /// Non-finite counter readings (NaN/Inf from a dropped or corrupted PMC
    /// read) never enter the history: each bad entry is replaced with that
    /// counter's last-known-good value and the service is flagged degraded
    /// until a fully clean sample arrives.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for an unknown service.
    pub fn update(&mut self, index: usize, sample: &PmcSample) -> Result<(), TwigError> {
        let history = self
            .histories
            .get_mut(index)
            .ok_or_else(|| TwigError::ReportMismatch {
                detail: format!("service {index}"),
            })?;
        let mut clean = *sample;
        let mut any_bad = false;
        for (i, &v) in sample.as_array().iter().enumerate() {
            if !v.is_finite() {
                any_bad = true;
                clean.set(CounterId::ALL[i], self.last_good[index].as_array()[i]);
            }
        }
        self.degraded[index] = any_bad;
        if !any_bad {
            self.last_good[index] = clean;
        }
        if history.len() == self.eta {
            history.pop_front();
        }
        history.push_back(clean);
        Ok(())
    }

    /// Whether service `index`'s most recent sample contained corrupted
    /// (non-finite) counter readings that had to be patched.
    pub fn is_degraded(&self, index: usize) -> bool {
        self.degraded.get(index).copied().unwrap_or(false)
    }

    /// The smoothed, scaled state vector for service `index` — the MDP state
    /// of Table I. All zeros until the first update.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for an unknown service.
    pub fn state(&self, index: usize) -> Result<Vec<f32>, TwigError> {
        let mut out = Vec::with_capacity(NUM_COUNTERS);
        self.state_into(index, &mut out)?;
        Ok(out)
    }

    /// [`state`](Self::state) into a reusable vector (cleared first);
    /// allocation-free once `out` has held a state.
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for an unknown service.
    pub fn state_into(&self, index: usize, out: &mut Vec<f32>) -> Result<(), TwigError> {
        let history = self
            .histories
            .get(index)
            .ok_or_else(|| TwigError::ReportMismatch {
                detail: format!("service {index}"),
            })?;
        out.clear();
        if history.is_empty() {
            out.resize(NUM_COUNTERS, 0.0);
            return Ok(());
        }
        // Weighted sum over the window: weight i+1 for the i-th oldest,
        // normalised — recent samples dominate, old noise decays.
        let total_weight: f64 = (1..=history.len()).map(|w| w as f64).sum();
        let mut smoothed = [0.0f64; NUM_COUNTERS];
        for (i, sample) in history.iter().enumerate() {
            let w = (i + 1) as f64 / total_weight;
            for (acc, &v) in smoothed.iter_mut().zip(sample.as_array()) {
                *acc += w * v;
            }
        }
        // Belt and braces: max_norm_scale already clamps to [0, 1] and maps
        // NaN to 0, so the MDP state can never carry a non-finite feature.
        out.extend(
            smoothed
                .iter()
                .zip(self.scaler.maxima())
                .map(|(&v, &max)| (max_norm_scale(v, max) as f32).clamp(0.0, 1.0)),
        );
        Ok(())
    }

    /// All services' states, in index order.
    ///
    /// # Errors
    ///
    /// Propagates [`state`](Self::state) errors.
    pub fn states(&self) -> Result<Vec<Vec<f32>>, TwigError> {
        let mut out = Vec::with_capacity(self.services());
        self.states_into(&mut out)?;
        Ok(out)
    }

    /// [`states`](Self::states) into a reusable buffer: the per-service
    /// vectors keep their capacity, so the per-epoch control loop reads its
    /// state without allocating.
    ///
    /// # Errors
    ///
    /// Propagates [`state`](Self::state) errors.
    pub fn states_into(&self, out: &mut Vec<Vec<f32>>) -> Result<(), TwigError> {
        out.resize_with(self.services(), Vec::new);
        for (i, state) in out.iter_mut().enumerate() {
            self.state_into(i, state)?;
        }
        Ok(())
    }

    /// Clears the history of one service (used when a service is swapped
    /// out at runtime).
    ///
    /// # Errors
    ///
    /// Returns [`TwigError::ReportMismatch`] for an unknown service.
    pub fn reset_service(&mut self, index: usize) -> Result<(), TwigError> {
        let history = self
            .histories
            .get_mut(index)
            .ok_or_else(|| TwigError::ReportMismatch {
                detail: format!("service {index}"),
            })?;
        history.clear();
        Ok(())
    }
}

/// One counter's rank in the selection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRanking {
    /// The counter.
    pub counter: CounterId,
    /// Importance score (higher = more vital), from the PCA loadings.
    pub importance: f64,
    /// Absolute Pearson correlation with tail latency.
    pub latency_correlation: f64,
}

/// The counter-selection methodology of Section III-B1 (after Malik et al.):
/// gather all counters while sweeping load/cores/DVFS, correlate each with
/// tail latency (Pearson), run PCA keeping components covering ≥ 95 % of the
/// co-variance, and rank counters by their PCA loading importance. This is
/// what produces the Table I "importance" column.
///
/// `profile` pairs each epoch's raw counters with its measured tail latency.
///
/// # Errors
///
/// Returns [`TwigError::InvalidConfig`] for fewer than 3 profile points, and
/// propagates statistics errors.
///
/// # Examples
///
/// ```
/// use twig_core::select_counters;
/// use twig_sim::PmcSample;
///
/// let profile: Vec<(PmcSample, f64)> = (0..50)
///     .map(|i| {
///         let mut s = PmcSample::zero();
///         let load = i as f64;
///         for c in twig_sim::CounterId::ALL {
///             s.set(c, load * (1.0 + c.index() as f64));
///         }
///         (s, load * 0.1)
///     })
///     .collect();
/// let ranking = select_counters(&profile, 0.95).unwrap();
/// assert_eq!(ranking.len(), twig_sim::NUM_COUNTERS);
/// ```
pub fn select_counters(
    profile: &[(PmcSample, f64)],
    covariance_threshold: f64,
) -> Result<Vec<CounterRanking>, TwigError> {
    if profile.len() < 3 {
        return Err(TwigError::InvalidConfig {
            detail: format!("{} profile points (need at least 3)", profile.len()),
        });
    }
    let latencies: Vec<f64> = profile.iter().map(|(_, l)| *l).collect();
    let columns: Vec<Vec<f64>> = (0..NUM_COUNTERS)
        .map(|c| profile.iter().map(|(s, _)| s.as_array()[c]).collect())
        .collect();

    // Pearson correlation of each counter with tail latency; dead counters
    // get zero.
    let correlations: Vec<f64> = columns
        .iter()
        .map(|col| {
            twig_stats::pearson(col, &latencies)
                .map(f64::abs)
                .unwrap_or(0.0)
        })
        .collect();

    // PCA over the (max-scaled) counter matrix.
    let maxima: Vec<f64> = columns
        .iter()
        .map(|col| col.iter().cloned().fold(0.0, f64::max).max(1e-12))
        .collect();
    let samples: Vec<Vec<f64>> = profile
        .iter()
        .map(|(s, _)| {
            s.as_array()
                .iter()
                .zip(&maxima)
                .map(|(&v, &m)| v / m)
                .collect()
        })
        .collect();
    let model = Pca::new().fit(&samples).map_err(TwigError::Stats)?;
    let k = model.components_for_covariance(covariance_threshold);
    let importance = model.feature_importance(k);

    // Blend PCA importance with latency correlation so counters that are
    // vital *and* latency-relevant rank first (Malik et al.'s intent).
    let mut ranking: Vec<CounterRanking> = CounterId::ALL
        .iter()
        .map(|&counter| {
            let i = counter.index();
            CounterRanking {
                counter,
                importance: importance[i] * correlations[i].max(1e-6),
                latency_correlation: correlations[i],
            }
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.importance
            .partial_cmp(&a.importance)
            .expect("NaN importance")
    });
    Ok(ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::pmc::{synthesize, Activity};
    use twig_stats::rng::Xoshiro256;

    #[test]
    fn rejects_bad_config() {
        assert!(SystemMonitor::new(0, 5, 18).is_err());
        assert!(SystemMonitor::new(2, 0, 18).is_err());
        assert!(SystemMonitor::new(2, 5, 0).is_err());
    }

    #[test]
    fn state_zero_before_first_update() {
        let mon = SystemMonitor::new(1, 5, 18).unwrap();
        assert_eq!(mon.state(0).unwrap(), vec![0.0; NUM_COUNTERS]);
    }

    #[test]
    fn window_slides_and_weights_recent_samples() {
        let mut mon = SystemMonitor::new(1, 3, 18).unwrap();
        let mut hi = PmcSample::zero();
        hi.set(CounterId::InstructionRetired, 1.0e9);
        let lo = PmcSample::zero();
        // Fill with high values, then push lows; state must decay.
        for _ in 0..3 {
            mon.update(0, &hi).unwrap();
        }
        let s_full = mon.state(0).unwrap()[CounterId::InstructionRetired.index()];
        mon.update(0, &lo).unwrap();
        let s_one_lo = mon.state(0).unwrap()[CounterId::InstructionRetired.index()];
        mon.update(0, &lo).unwrap();
        mon.update(0, &lo).unwrap();
        let s_all_lo = mon.state(0).unwrap()[CounterId::InstructionRetired.index()];
        assert!(s_full > s_one_lo, "{s_full} vs {s_one_lo}");
        assert!(s_one_lo > s_all_lo);
        assert_eq!(s_all_lo, 0.0);
    }

    #[test]
    fn recent_sample_outweighs_old_one() {
        let mut mon = SystemMonitor::new(1, 2, 18).unwrap();
        let mut hi = PmcSample::zero();
        hi.set(CounterId::LlcMisses, 1.0e8);
        let lo = PmcSample::zero();
        // old = hi, new = lo  vs  old = lo, new = hi
        mon.update(0, &hi).unwrap();
        mon.update(0, &lo).unwrap();
        let hi_then_lo = mon.state(0).unwrap()[CounterId::LlcMisses.index()];
        let mut mon2 = SystemMonitor::new(1, 2, 18).unwrap();
        mon2.update(0, &lo).unwrap();
        mon2.update(0, &hi).unwrap();
        let lo_then_hi = mon2.state(0).unwrap()[CounterId::LlcMisses.index()];
        assert!(lo_then_hi > hi_then_lo);
    }

    #[test]
    fn unknown_service_errors() {
        let mut mon = SystemMonitor::new(1, 2, 18).unwrap();
        assert!(mon.update(1, &PmcSample::zero()).is_err());
        assert!(mon.state(1).is_err());
        assert!(mon.reset_service(1).is_err());
    }

    #[test]
    fn reset_clears_history() {
        let mut mon = SystemMonitor::new(1, 2, 18).unwrap();
        let mut s = PmcSample::zero();
        s.set(CounterId::UopsRetired, 1e9);
        mon.update(0, &s).unwrap();
        mon.reset_service(0).unwrap();
        assert_eq!(mon.state(0).unwrap(), vec![0.0; NUM_COUNTERS]);
    }

    #[test]
    fn select_counters_needs_data() {
        assert!(select_counters(&[], 0.95).is_err());
    }

    #[test]
    fn non_finite_samples_fall_back_to_last_known_good() {
        let mut mon = SystemMonitor::new(1, 2, 18).unwrap();
        let mut good = PmcSample::zero();
        good.set(CounterId::InstructionRetired, 1.0e9);
        mon.update(0, &good).unwrap();
        assert!(!mon.is_degraded(0));
        let clean_state = mon.state(0).unwrap();

        let mut bad = good;
        bad.set(CounterId::InstructionRetired, f64::NAN);
        bad.set(CounterId::LlcMisses, f64::INFINITY);
        mon.update(0, &bad).unwrap();
        assert!(mon.is_degraded(0));
        let state = mon.state(0).unwrap();
        assert!(state.iter().all(|v| v.is_finite()));
        assert!(state.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The NaN counter was patched with the last-known-good reading, so
        // the smoothed state is unchanged for that feature.
        assert_eq!(
            state[CounterId::InstructionRetired.index()],
            clean_state[CounterId::InstructionRetired.index()]
        );

        // A clean sample clears the degraded flag.
        mon.update(0, &good).unwrap();
        assert!(!mon.is_degraded(0));
    }

    #[test]
    fn all_nan_first_sample_stays_finite() {
        let mut mon = SystemMonitor::new(1, 3, 18).unwrap();
        let mut bad = PmcSample::zero();
        for c in CounterId::ALL {
            bad.set(c, f64::NAN);
        }
        mon.update(0, &bad).unwrap();
        assert!(mon.is_degraded(0));
        let state = mon.state(0).unwrap();
        assert_eq!(state, vec![0.0; NUM_COUNTERS]);
    }

    #[test]
    fn select_counters_ranks_latency_tracking_counters_first() {
        // Build a synthetic profile where activity (and latency) vary with
        // load; all counters correlate, but noise-only dead counters rank
        // last.
        let spec = twig_sim::catalog::masstree();
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut profile = Vec::new();
        for i in 0..200 {
            let load = 0.1 + 0.8 * (i % 20) as f64 / 20.0;
            let act = Activity {
                weighted_busy_core_s: 10.0 * load,
                busy_core_s: 10.0 * load,
                cpu_work_ms: 8000.0 * load,
                mem_work_ms: 3000.0 * load,
                cache_pressure: 0.0,
                clock_ghz: 2.0,
            };
            let mut sample = synthesize(&spec, &act, &mut rng);
            // Make one counter pure noise.
            sample.set(CounterId::UnhaltedReferenceCycles, (i % 7) as f64);
            let latency = 0.3 + 2.0 * load * load;
            profile.push((sample, latency));
        }
        let ranking = select_counters(&profile, 0.95).unwrap();
        assert_eq!(ranking.len(), NUM_COUNTERS);
        // The noise counter must not win.
        assert_ne!(ranking[0].counter, CounterId::UnhaltedReferenceCycles);
        // Importances are sorted descending.
        for w in ranking.windows(2) {
            assert!(w[0].importance >= w[1].importance);
        }
        // The top counter genuinely tracks latency.
        assert!(ranking[0].latency_correlation > 0.5);
    }
}
