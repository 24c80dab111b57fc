use std::collections::HashMap;

/// Adam optimiser ([Kingma & Ba 2014]), the optimiser used by the paper
/// (Section IV: learning rate 0.0025).
///
/// State (first/second moment estimates) is keyed by a stable parameter id
/// supplied by the caller, so one `Adam` instance can drive a whole network
/// of heterogeneous layers.
///
/// [Kingma & Ba 2014]: https://arxiv.org/abs/1412.6980
///
/// # Examples
///
/// ```
/// use twig_nn::Adam;
///
/// let mut adam = Adam::new(0.1);
/// let mut param = vec![1.0f32];
/// for _ in 0..100 {
///     // Gradient of f(x) = x^2 is 2x: drive x to 0.
///     let grad = vec![2.0 * param[0]];
///     adam.update(0, &mut param, &grad);
/// }
/// assert!(param[0].abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    steps: HashMap<usize, u64>,
    m: HashMap<usize, Vec<f32>>,
    v: HashMap<usize, Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimiser with the given learning rate and standard
    /// defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            steps: HashMap::new(),
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Overrides β₁ and β₂.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Sets a new learning rate (e.g. for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam step to `param` given `grad`, using the moment
    /// buffers registered under `param_id`.
    ///
    /// # Panics
    ///
    /// Panics if `param.len() != grad.len()`, or if `param_id` was
    /// previously used with a different parameter length.
    pub fn update(&mut self, param_id: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(
            param.len(),
            grad.len(),
            "parameter/gradient length mismatch for id {param_id}"
        );
        let m = self
            .m
            .entry(param_id)
            .or_insert_with(|| vec![0.0; param.len()]);
        let v = self
            .v
            .entry(param_id)
            .or_insert_with(|| vec![0.0; param.len()]);
        assert_eq!(
            m.len(),
            param.len(),
            "parameter id {param_id} reused with a different shape"
        );
        let t = self.steps.entry(param_id).or_insert(0);
        *t += 1;
        let t = *t as i32;
        let bias1 = 1.0 - self.beta1.powi(t);
        let bias2 = 1.0 - self.beta2.powi(t);
        // One zipped pass with the hyper-parameters in locals: no index, no
        // bounds check, nothing reloaded through `self`, so the loop
        // vectorises. Element-wise IEEE operations in the written order —
        // bit-identical to the indexed form (see the test below).
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (((p, &g), m), v) in param.iter_mut().zip(grad).zip(m).zip(v) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Discards all moment state (used when weights are replaced wholesale,
    /// e.g. by transfer learning).
    pub fn reset_state(&mut self) {
        self.steps.clear();
        self.m.clear();
        self.v.clear();
    }

    /// Snapshots the moment buffers and step counts for every registered
    /// parameter id, sorted by id so the result is deterministic.
    pub fn export_state(&self) -> AdamState {
        let mut ids: Vec<usize> = self.m.keys().copied().collect();
        ids.sort_unstable();
        let slots = ids
            .into_iter()
            .map(|id| AdamSlot {
                id,
                steps: self.steps.get(&id).copied().unwrap_or(0),
                m: self.m[&id].clone(),
                v: self.v[&id].clone(),
            })
            .collect();
        AdamState { slots }
    }

    /// Replaces all moment state with a snapshot produced by
    /// [`export_state`](Self::export_state). Existing state is discarded
    /// first, so importing an empty snapshot is equivalent to
    /// [`reset_state`](Self::reset_state).
    pub fn import_state(&mut self, state: &AdamState) {
        self.reset_state();
        for slot in &state.slots {
            self.steps.insert(slot.id, slot.steps);
            self.m.insert(slot.id, slot.m.clone());
            self.v.insert(slot.id, slot.v.clone());
        }
    }
}

/// Serializable snapshot of an [`Adam`] optimiser's moment state, used by
/// checkpointing. Slots are ordered by ascending parameter id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// One slot per registered parameter id, ascending by id.
    pub slots: Vec<AdamSlot>,
}

/// Moment buffers and bias-correction step count for one parameter id.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSlot {
    /// The parameter id the buffers are registered under.
    pub id: usize,
    /// Bias-correction step count `t`.
    pub steps: u64,
    /// First-moment estimate.
    pub m: Vec<f32>,
    /// Second-moment estimate.
    pub v: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut adam = Adam::new(0.05);
        let mut p = vec![5.0f32, -3.0];
        for _ in 0..2000 {
            let grad: Vec<f32> = p.iter().map(|x| 2.0 * x).collect();
            adam.update(7, &mut p, &grad);
        }
        assert!(p.iter().all(|x| x.abs() < 1e-2), "p = {p:?}");
    }

    #[test]
    fn zipped_update_bit_identical_to_indexed_reference() {
        use twig_stats::rng::{Rng, Xoshiro256};
        // The textbook indexed loop, kept here as the reference.
        fn reference(
            (lr, beta1, beta2, eps): (f32, f32, f32, f32),
            t: i32,
            (param, grad): (&mut [f32], &[f32]),
            (m, v): (&mut [f32], &mut [f32]),
        ) {
            let bias1 = 1.0 - beta1.powi(t);
            let bias2 = 1.0 - beta2.powi(t);
            for i in 0..param.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                param[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(0xada);
        // 37 is not a multiple of any vector width: the tail runs too.
        let n = 37;
        let mut adam = Adam::new(0.0025);
        let mut got: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let mut want = got.clone();
        let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
        for t in 1..=50 {
            let grad: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        rng.range_f32(-3.0, 3.0)
                    }
                })
                .collect();
            adam.update(0, &mut got, &grad);
            reference(
                (0.0025, 0.9, 0.999, 1e-8),
                t,
                (&mut want, &grad),
                (&mut m, &mut v),
            );
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {t}");
            }
        }
    }

    #[test]
    fn separate_ids_have_separate_state() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![1.0f32];
        let mut b = vec![1.0f32];
        adam.update(0, &mut a, &[1.0]);
        adam.update(0, &mut a, &[1.0]);
        adam.update(1, &mut b, &[1.0]);
        // First step moves exactly lr regardless of gradient magnitude.
        assert!((b[0] - 0.9).abs() < 1e-5);
        assert!(a[0] < b[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let mut adam = Adam::new(0.1);
        adam.update(0, &mut [1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn rejects_id_reuse_with_new_shape() {
        let mut adam = Adam::new(0.1);
        adam.update(0, &mut [1.0], &[1.0]);
        adam.update(0, &mut [1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        let mut a = Adam::new(0.05);
        let mut b = Adam::new(0.05);
        let mut pa = vec![5.0f32, -3.0];
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            a.update(3, &mut pa, &grad);
        }
        let state = a.export_state();
        assert_eq!(state.slots.len(), 1);
        assert_eq!(state.slots[0].id, 3);
        assert_eq!(state.slots[0].steps, 10);
        b.import_state(&state);
        let mut pb = pa.clone();
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            a.update(3, &mut pa, &grad);
            let grad: Vec<f32> = pb.iter().map(|x| 2.0 * x).collect();
            b.update(3, &mut pb, &grad);
        }
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn export_state_sorted_by_id() {
        let mut adam = Adam::new(0.1);
        adam.update(9, &mut [1.0], &[1.0]);
        adam.update(2, &mut [1.0, 2.0], &[1.0, 1.0]);
        adam.update(5, &mut [1.0], &[1.0]);
        let ids: Vec<usize> = adam.export_state().slots.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn import_empty_state_resets() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        adam.update(0, &mut p, &[1.0]);
        adam.import_state(&AdamState::default());
        let mut q = vec![0.0f32];
        adam.update(0, &mut q, &[1.0]);
        assert!((q[0] + 0.1).abs() < 1e-6);
    }

    #[test]
    fn reset_state_restarts_bias_correction() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        adam.update(0, &mut p, &[1.0]);
        let after_first = p[0];
        adam.reset_state();
        let mut q = vec![0.0f32];
        adam.update(0, &mut q, &[1.0]);
        assert!((after_first - q[0]).abs() < 1e-7);
    }
}
