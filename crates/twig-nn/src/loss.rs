use crate::{NnError, Tensor};

/// Mean-squared-error loss with optional per-sample importance weights.
///
/// Returns `(loss, grad)` where `grad` is the gradient of the loss with
/// respect to `pred`. With `weights` (one per batch row) each row's squared
/// error is multiplied by its weight — exactly what prioritised experience
/// replay needs to correct its sampling bias.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when shapes disagree (including a
/// weights vector whose length is not the batch size) and [`NnError::Empty`]
/// for empty tensors.
///
/// # Examples
///
/// ```
/// use twig_nn::{mse_loss, Tensor};
///
/// let pred = Tensor::from_row(&[1.0, 2.0]);
/// let target = Tensor::from_row(&[0.0, 2.0]);
/// let (loss, grad) = mse_loss(&pred, &target, None).unwrap();
/// assert!((loss - 0.5).abs() < 1e-6);
/// assert_eq!(grad.as_slice(), &[1.0, 0.0]);
/// ```
pub fn mse_loss(
    pred: &Tensor,
    target: &Tensor,
    weights: Option<&[f32]>,
) -> Result<(f32, Tensor), NnError> {
    check_shapes(pred, target, weights)?;
    let n = pred.as_slice().len() as f32;
    let mut grad = Tensor::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for r in 0..pred.rows() {
        let w = weights.map_or(1.0, |ws| ws[r]);
        let p_row = pred.row(r);
        let t_row = target.row(r);
        let g_row = grad.row_mut(r);
        for i in 0..p_row.len() {
            let diff = p_row[i] - t_row[i];
            loss += w * diff * diff;
            g_row[i] = 2.0 * w * diff / n;
        }
    }
    Ok((loss / n, grad))
}

fn check_shapes(pred: &Tensor, target: &Tensor, weights: Option<&[f32]>) -> Result<(), NnError> {
    if pred.rows() == 0 || pred.cols() == 0 {
        return Err(NnError::Empty);
    }
    if pred.rows() != target.rows() || pred.cols() != target.cols() {
        return Err(NnError::ShapeMismatch {
            detail: format!(
                "pred {}x{} vs target {}x{}",
                pred.rows(),
                pred.cols(),
                target.rows(),
                target.cols()
            ),
        });
    }
    if let Some(ws) = weights {
        if ws.len() != pred.rows() {
            return Err(NnError::ShapeMismatch {
                detail: format!("{} weights for {} rows", ws.len(), pred.rows()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::{Rng, Xoshiro256};

    #[test]
    fn mse_zero_when_equal() {
        let t = Tensor::from_row(&[1.0, -2.0, 3.0]);
        let (loss, grad) = mse_loss(&t, &t, None).unwrap();
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn weighted_rows_scale_loss() {
        let pred = Tensor::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let target = Tensor::from_rows(&[vec![0.0], vec![0.0]]).unwrap();
        let (unweighted, _) = mse_loss(&pred, &target, None).unwrap();
        let (weighted, _) = mse_loss(&pred, &target, Some(&[2.0, 0.0])).unwrap();
        assert!((unweighted - 1.0).abs() < 1e-6);
        assert!((weighted - 1.0).abs() < 1e-6); // (2 + 0) / 2
    }

    #[test]
    fn shape_errors_detected() {
        let a = Tensor::from_row(&[1.0]);
        let b = Tensor::from_row(&[1.0, 2.0]);
        assert!(mse_loss(&a, &b, None).is_err());
        assert!(mse_loss(&a, &a, Some(&[1.0, 1.0])).is_err());
    }

    #[test]
    fn loss_nonnegative() {
        let mut rng = Xoshiro256::seed_from_u64(0x1055);
        for _ in 0..200 {
            let n = rng.range_usize(1, 20);
            let p: Vec<f32> = (0..n).map(|_| rng.range_f32(-10.0, 10.0)).collect();
            let t: Vec<f32> = (0..n).map(|_| rng.range_f32(-10.0, 10.0)).collect();
            let (mse, _) = mse_loss(&Tensor::from_row(&p), &Tensor::from_row(&t), None).unwrap();
            assert!(mse >= 0.0);
        }
    }
}
