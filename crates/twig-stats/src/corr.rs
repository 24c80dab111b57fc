use crate::StatsError;

/// Pearson correlation coefficient between two equal-length samples.
///
/// Section III-B1 of the paper uses Pearson correlation to build the
/// correlation matrix between candidate performance counters and tail
/// latency before applying PCA.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] when the inputs differ in length,
/// [`StatsError::Empty`] when they are empty, and
/// [`StatsError::ZeroVariance`] when either input is constant.
///
/// # Examples
///
/// ```
/// let r = twig_stats::pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
/// assert!((r + 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn perfect_positive_correlation() {
        let r = pearson(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_input_errors() {
        assert_eq!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::ZeroVariance)
        );
    }

    #[test]
    fn length_mismatch_errors() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        ));
    }

    fn random_series<R: Rng>(rng: &mut R, lo_n: usize, hi_n: usize) -> Vec<f64> {
        let n = rng.range_usize(lo_n, hi_n);
        (0..n).map(|_| rng.range_f64(-1e3, 1e3)).collect()
    }

    #[test]
    fn pearson_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(0x9ea5);
        for _ in 0..200 {
            let xs = random_series(&mut rng, 3, 100);
            let ys: Vec<f64> = xs.iter().rev().map(|x| x * 0.5 + 1.0).collect();
            if let Ok(r) = pearson(&xs, &ys) {
                assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            }
        }
    }

    #[test]
    fn pearson_symmetric() {
        let mut rng = Xoshiro256::seed_from_u64(0x5b33);
        for _ in 0..200 {
            let n = rng.range_usize(3, 50);
            let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e3, 1e3)).collect();
            let ys: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e3, 1e3)).collect();
            match (pearson(&xs, &ys), pearson(&ys, &xs)) {
                (Ok(a), Ok(b)) => assert!((a - b).abs() < 1e-12),
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("asymmetric result"),
            }
        }
    }

    #[test]
    fn pearson_scale_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(0x5ca1e);
        for _ in 0..200 {
            let xs = random_series(&mut rng, 3, 50);
            let scale = rng.range_f64(0.1, 100.0);
            let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 3.0).collect();
            let xs2: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            if let (Ok(a), Ok(b)) = (pearson(&xs, &ys), pearson(&xs2, &ys)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
