use crate::{Matrix, StatsError};

/// Principal-component analysis over a sample matrix.
///
/// Section III-B1: the paper gathers all available PMCs, builds a Pearson
/// correlation matrix, chooses the number of principal components covering at
/// least 95 % of the co-variance, and uses the PCA loadings to rank "the most
/// vital and distinct PMCs" (the methodology of Malik et al.). [`Pca::fit`]
/// implements the eigendecomposition (cyclic Jacobi on the covariance
/// matrix); [`PcaModel::feature_importance`] implements the loading-based
/// ranking used to produce Table I.
///
/// # Examples
///
/// ```
/// use twig_stats::Pca;
///
/// // Two informative dimensions, one constant.
/// let samples = vec![
///     vec![1.0, 10.0, 5.0],
///     vec![2.0, 20.0, 5.0],
///     vec![3.0, 30.0, 5.0],
///     vec![4.0, 41.0, 5.0],
/// ];
/// let model = Pca::new().fit(&samples).unwrap();
/// assert_eq!(model.components_for_covariance(0.95), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    max_sweeps: usize,
    tolerance: f64,
}

impl Default for Pca {
    fn default() -> Self {
        Pca {
            max_sweeps: 100,
            tolerance: 1e-12,
        }
    }
}

impl Pca {
    /// Creates a PCA solver with default Jacobi iteration settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the maximum number of Jacobi sweeps.
    pub fn max_sweeps(mut self, sweeps: usize) -> Self {
        self.max_sweeps = sweeps;
        self
    }

    /// Fits the model: centres the data, forms the covariance matrix and
    /// diagonalises it.
    ///
    /// `samples[i]` is one observation (row) over all features.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for no samples and
    /// [`StatsError::DimensionMismatch`] for ragged rows.
    pub fn fit(&self, samples: &[Vec<f64>]) -> Result<PcaModel, StatsError> {
        let x = Matrix::from_rows(samples)?;
        let n = x.rows();
        let d = x.cols();
        if n < 2 {
            return Err(StatsError::InvalidParameter {
                detail: format!("PCA needs at least 2 samples, got {n}"),
            });
        }
        // Centre.
        let means: Vec<f64> = (0..d)
            .map(|c| x.col(c).iter().sum::<f64>() / n as f64)
            .collect();
        let mut cov = Matrix::zeros(d, d);
        for r in 0..n {
            let row = x.row(r);
            for i in 0..d {
                let di = row[i] - means[i];
                for j in i..d {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] / (n - 1) as f64;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let (eigenvalues, eigenvectors) = self.jacobi(cov);
        Ok(PcaModel {
            means,
            eigenvalues,
            eigenvectors,
        })
    }

    /// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
    /// eigenvalues (descending) and the matrix whose *columns* are the
    /// corresponding eigenvectors.
    fn jacobi(&self, mut a: Matrix) -> (Vec<f64>, Matrix) {
        let n = a.rows();
        let mut v = Matrix::identity(n);
        for _ in 0..self.max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off < self.tolerance {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    if a[(p, q)].abs() < 1e-30 {
                        continue;
                    }
                    let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * a[(p, q)]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].partial_cmp(&a[(i, i)]).expect("NaN eigenvalue"));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a[(i, i)].max(0.0)).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        (eigenvalues, vectors)
    }
}

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct PcaModel {
    means: Vec<f64>,
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl PcaModel {
    /// Eigenvalues (explained variance per component), descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Per-feature means used for centring.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fraction of total variance explained by the first `k` components.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of components.
    pub fn explained_variance_ratio(&self, k: usize) -> f64 {
        assert!(k <= self.eigenvalues.len(), "k {k} exceeds dimensionality");
        let total: f64 = self.eigenvalues.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        self.eigenvalues[..k].iter().sum::<f64>() / total
    }

    /// Smallest number of components whose cumulative explained variance is
    /// at least `threshold` (e.g. `0.95` per Section III-B1).
    pub fn components_for_covariance(&self, threshold: f64) -> usize {
        for k in 1..=self.eigenvalues.len() {
            if self.explained_variance_ratio(k) + 1e-12 >= threshold {
                return k;
            }
        }
        self.eigenvalues.len()
    }

    /// Importance score per original feature: the sum over the first `k`
    /// components of `|loading| * eigenvalue`. This is the ranking used to
    /// order the Table I counters ("importance" column).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of components.
    pub fn feature_importance(&self, k: usize) -> Vec<f64> {
        assert!(k <= self.eigenvalues.len(), "k {k} exceeds dimensionality");
        let d = self.means.len();
        let mut scores = vec![0.0; d];
        for c in 0..k {
            for (r, score) in scores.iter_mut().enumerate() {
                *score += self.eigenvectors[(r, c)].abs() * self.eigenvalues[c];
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_samples() -> Vec<Vec<f64>> {
        // Strongly correlated first two dims, noise third dim.
        (0..50)
            .map(|i| {
                let t = i as f64;
                vec![t, 2.0 * t + (i % 3) as f64 * 0.01, (i % 5) as f64 * 0.1]
            })
            .collect()
    }

    #[test]
    fn eigenvalues_descending_and_nonnegative() {
        let m = Pca::new().fit(&toy_samples()).unwrap();
        let ev = m.eigenvalues();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        for &e in ev {
            assert!(e >= 0.0);
        }
    }

    #[test]
    fn explained_variance_total_is_one() {
        let m = Pca::new().fit(&toy_samples()).unwrap();
        assert!((m.explained_variance_ratio(m.eigenvalues().len()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dominant_direction_found() {
        let m = Pca::new().fit(&toy_samples()).unwrap();
        // One dominant component explains nearly everything.
        assert!(m.explained_variance_ratio(1) > 0.99);
        assert_eq!(m.components_for_covariance(0.95), 1);
    }

    #[test]
    fn importance_ranks_informative_features_first() {
        let m = Pca::new().fit(&toy_samples()).unwrap();
        let score = m.feature_importance(1);
        // Feature 1 (2t) has the largest variance along PC1, then feature 0.
        assert!(score[1] > score[0] && score[0] > score[2], "{score:?}");
    }

    #[test]
    fn needs_two_samples() {
        let err = Pca::new().fit(&[vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, StatsError::InvalidParameter { .. }));
    }

    #[test]
    fn recovers_known_eigenvalues_of_diagonal_covariance() {
        // Independent dims with variances ~ 4 and ~ 1 (std 2 and 1 patterns).
        let mut samples = Vec::new();
        for i in 0..200 {
            let a = if i % 2 == 0 { 2.0 } else { -2.0 };
            let b = if i % 4 < 2 { 1.0 } else { -1.0 };
            samples.push(vec![a, b]);
        }
        let m = Pca::new().fit(&samples).unwrap();
        let ev = m.eigenvalues();
        assert!((ev[0] - 4.0 * 200.0 / 199.0).abs() < 0.1, "ev0 = {}", ev[0]);
        assert!((ev[1] - 1.0 * 200.0 / 199.0).abs() < 0.1, "ev1 = {}", ev[1]);
    }
}
