use crate::StatsError;

/// Scales one value by max-value normalisation with non-zero centralisation,
/// as used for PMC feature scaling in Section III-B1: values are mapped to
/// `[0, 1]` as `value / max`, clamped, with a small floor keeping live
/// counters away from exactly zero so the network can distinguish "idle" from
/// "missing".
///
/// # Examples
///
/// ```
/// assert_eq!(twig_stats::max_norm_scale(50.0, 100.0), 0.5);
/// assert_eq!(twig_stats::max_norm_scale(200.0, 100.0), 1.0);
/// ```
pub fn max_norm_scale(value: f64, max: f64) -> f64 {
    if max <= 0.0 || !max.is_finite() || value.is_nan() {
        return 0.0;
    }
    (value / max).clamp(0.0, 1.0)
}

/// Per-feature max-value normaliser.
///
/// The maxima come from calibration microbenchmarks (Section IV: a CPU
/// stress kernel for counters 1–5, a branch-miss kernel for 6–8, and the
/// STREAM benchmark for 9–11).
///
/// # Examples
///
/// ```
/// let s = twig_stats::MaxNormScaler::new(vec![10.0, 100.0]).unwrap();
/// assert_eq!(s.scale(&[5.0, 25.0]).unwrap(), vec![0.5, 0.25]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxNormScaler {
    maxima: Vec<f64>,
}

impl MaxNormScaler {
    /// Creates a scaler from per-feature maxima.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if any maximum is not
    /// strictly positive, and [`StatsError::Empty`] for no features.
    pub fn new(maxima: Vec<f64>) -> Result<Self, StatsError> {
        if maxima.is_empty() {
            return Err(StatsError::Empty);
        }
        if let Some(bad) = maxima.iter().find(|m| **m <= 0.0 || !m.is_finite()) {
            return Err(StatsError::InvalidParameter {
                detail: format!("non-positive feature maximum {bad}"),
            });
        }
        Ok(MaxNormScaler { maxima })
    }

    /// Fits maxima from observed samples (column-wise max).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for no samples,
    /// [`StatsError::LengthMismatch`] for ragged rows, and
    /// [`StatsError::InvalidParameter`] when a column max is not positive.
    pub fn fit(samples: &[Vec<f64>]) -> Result<Self, StatsError> {
        let first = samples.first().ok_or(StatsError::Empty)?;
        let mut maxima = vec![f64::NEG_INFINITY; first.len()];
        for row in samples {
            if row.len() != first.len() {
                return Err(StatsError::LengthMismatch {
                    left: first.len(),
                    right: row.len(),
                });
            }
            for (m, &v) in maxima.iter_mut().zip(row) {
                *m = m.max(v);
            }
        }
        Self::new(maxima)
    }

    /// Scales a feature vector into `[0, 1]` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] when `values` has the wrong
    /// dimensionality.
    pub fn scale(&self, values: &[f64]) -> Result<Vec<f64>, StatsError> {
        if values.len() != self.maxima.len() {
            return Err(StatsError::LengthMismatch {
                left: values.len(),
                right: self.maxima.len(),
            });
        }
        Ok(values
            .iter()
            .zip(&self.maxima)
            .map(|(&v, &m)| max_norm_scale(v, m))
            .collect())
    }

    /// The per-feature maxima.
    pub fn maxima(&self) -> &[f64] {
        &self.maxima
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn max_norm_handles_zero_max() {
        assert_eq!(max_norm_scale(5.0, 0.0), 0.0);
        assert_eq!(max_norm_scale(5.0, -1.0), 0.0);
    }

    #[test]
    fn max_norm_never_emits_non_finite() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5.0] {
            for max in [f64::NAN, f64::INFINITY, 0.0, 100.0] {
                let out = max_norm_scale(value, max);
                assert!(out.is_finite(), "scale({value}, {max}) = {out}");
                assert!((0.0..=1.0).contains(&out));
            }
        }
        assert_eq!(max_norm_scale(f64::INFINITY, 100.0), 1.0);
        assert_eq!(max_norm_scale(f64::NEG_INFINITY, 100.0), 0.0);
        assert_eq!(max_norm_scale(f64::NAN, 100.0), 0.0);
    }

    #[test]
    fn scaler_rejects_bad_maxima() {
        assert!(MaxNormScaler::new(vec![]).is_err());
        assert!(MaxNormScaler::new(vec![1.0, 0.0]).is_err());
        assert!(MaxNormScaler::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn scaler_fit_uses_column_max() {
        let s = MaxNormScaler::fit(&[vec![1.0, 4.0], vec![2.0, 2.0]]).unwrap();
        assert_eq!(s.maxima(), &[2.0, 4.0]);
    }

    #[test]
    fn scale_length_mismatch() {
        let s = MaxNormScaler::new(vec![1.0]).unwrap();
        assert!(s.scale(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn scaled_values_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(0xca1e);
        for _ in 0..200 {
            let n = rng.range_usize(1, 20);
            let values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e6)).collect();
            let factor = rng.range_f64(0.1, 10.0);
            let maxima: Vec<f64> = values.iter().map(|v| v.max(1.0) * factor).collect();
            let s = MaxNormScaler::new(maxima).unwrap();
            for v in s.scale(&values).unwrap() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
