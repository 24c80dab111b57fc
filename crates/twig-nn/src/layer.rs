use crate::{NnError, Tensor};
use rand_distr_like::he_std;
use twig_stats::rng::Rng;

/// Helper for weight-initialisation scales (no external distribution crate:
/// we sample uniform and rescale to the He / Kaiming standard deviation).
mod rand_distr_like {
    /// He-initialisation standard deviation for a layer with `fan_in` inputs.
    pub fn he_std(fan_in: usize) -> f32 {
        (2.0 / fan_in as f32).sqrt()
    }
}

/// A differentiable layer: caches what it needs on `forward`, accumulates
/// parameter gradients on `backward`, and returns the gradient with respect
/// to its input.
///
/// This trait is sealed in spirit — the provided implementations
/// ([`Dense`], [`Relu`], [`Dropout`]) cover the architecture used by the
/// paper — but it is left open so downstream experiments can add layers.
pub trait Layer {
    /// Forward pass. `train` enables training-only behaviour (dropout).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Forward pass written into a caller-owned scratch tensor. Once `out`
    /// has enough capacity, no allocation occurs. The provided layers
    /// compute bit-identical values to [`forward`](Self::forward) — their
    /// allocating API is a thin wrapper around this one.
    fn forward_into(&mut self, input: &Tensor, train: bool, out: &mut Tensor) {
        *out = self.forward(input, train);
    }

    /// Evaluation-only forward pass through `&self`: computes values
    /// bit-identical to [`forward_into`](Self::forward_into) with
    /// `train = false`, but touches no layer state — no activation cache,
    /// no ReLU mask, no dropout RNG draw. Because it leaves training state
    /// untouched, a layer whose weights are *shared* (the multi-agent BDQ's
    /// advantage heads) can evaluate a stacked many-row batch mid-epoch
    /// without disturbing an in-flight gradient step.
    fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor);

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// gradient whose shape does not match the cached activation.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Backward pass writing the input gradient into a caller-owned
    /// scratch tensor; the allocation-free sibling of
    /// [`backward`](Self::backward).
    ///
    /// # Panics
    ///
    /// Same contract as [`backward`](Self::backward).
    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        *grad_input = self.backward(grad_output);
    }

    /// Zeroes accumulated parameter gradients.
    fn zero_grads(&mut self);

    /// Applies the optimiser to this layer's parameters, consuming the
    /// accumulated gradients. `param_id` is a stable per-layer base id used
    /// by stateful optimisers; returns the next free id.
    fn apply(&mut self, optim: &mut crate::Adam, param_id: usize) -> usize;

    /// Number of trainable scalar parameters.
    fn param_count(&self) -> usize;

    /// Squared L2 norm of the accumulated gradients (for clipping).
    fn grad_sq_norm(&self) -> f32 {
        0.0
    }

    /// Scales the accumulated gradients in place (for clipping/rescaling).
    fn scale_grads(&mut self, _factor: f32) {}
}

/// Fully connected layer `y = x W + b` with He-initialised weights.
///
/// # Examples
///
/// ```
/// use twig_nn::{Dense, Layer, Tensor};
/// use twig_stats::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from_u64(0);
/// let mut d = Dense::new(3, 2, &mut rng);
/// let y = d.forward(&Tensor::zeros(4, 3), false);
/// assert_eq!((y.rows(), y.cols()), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
    // Scratch for the weight-gradient product in `backward_into`. Gradients
    // are computed here then folded into `grad_w` via `add_assign`, keeping
    // the accumulation order identical to the allocating path (which also
    // materialised the product before adding).
    gw_scratch: Tensor,
    gb_scratch: Vec<f32>,
    // Scratch for the input-gradient product: one register-tile-wide panel
    // of `w` transposed at a time (`Tensor::matmul_t_into`), a few KiB
    // however large the layer, allocated by the first backward pass.
    pack_scratch: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights and zero bias.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = he_std(in_dim);
        let mut w = Tensor::zeros(in_dim, out_dim);
        for v in w.as_mut_slice() {
            // Uniform(-a, a) has std a/sqrt(3); pick a = std * sqrt(3).
            *v = rng.range_f32(-1.0, 1.0) * std * 3f32.sqrt();
        }
        Dense {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            grad_w: Tensor::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            cached_input: None,
            gw_scratch: Tensor::zeros(0, 0),
            gb_scratch: Vec::new(),
            pack_scratch: Vec::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Re-initialises weights and bias (used by transfer learning to reset
    /// the final, most task-specific layer).
    pub fn reinitialize<R: Rng>(&mut self, rng: &mut R) {
        let fresh = Dense::new(self.in_dim, self.out_dim, rng);
        self.w = fresh.w;
        self.b = fresh.b;
        self.zero_grads();
    }

    /// Copies weights from another layer of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when dimensions disagree.
    pub fn copy_weights_from(&mut self, other: &Dense) -> Result<(), NnError> {
        if self.in_dim != other.in_dim || self.out_dim != other.out_dim {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "dense {}x{} vs {}x{}",
                    self.in_dim, self.out_dim, other.in_dim, other.out_dim
                ),
            });
        }
        self.w.copy_from(&other.w);
        self.b.copy_from_slice(&other.b);
        Ok(())
    }

    /// Read access to the weight matrix (for tests/inspection).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Read access to the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Replaces weights and bias from flat buffers (for checkpoint
    /// restore).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the buffer sizes disagree
    /// with the layer shape.
    pub fn set_parameters(&mut self, weights: &[f32], bias: &[f32]) -> Result<(), NnError> {
        if weights.len() != self.in_dim * self.out_dim || bias.len() != self.out_dim {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{} weights + {} bias for a {}x{} layer",
                    weights.len(),
                    bias.len(),
                    self.in_dim,
                    self.out_dim
                ),
            });
        }
        self.w.as_mut_slice().copy_from_slice(weights);
        self.b.copy_from_slice(bias);
        Ok(())
    }

    /// The part of the forward product that the leading `shared.cols()`
    /// input columns contribute: `out = shared · W[..shared.cols()]`, no
    /// bias. When many input rows share those columns (`K` agents' head
    /// inputs are `[trunk_out | own state]`), this is computed once and
    /// [`forward_batch_from_prefix_into`](Self::forward_batch_from_prefix_into)
    /// finishes each row from it.
    ///
    /// # Panics
    ///
    /// Panics if `shared` has more columns than the layer has inputs.
    pub fn prefix_into(&self, shared: &Tensor, out: &mut Tensor) {
        shared
            .matmul_rows_into(&self.w, 0, out)
            .expect("dense prefix shape");
    }

    /// [`forward_batch_into`](Layer::forward_batch_into) on the input rows
    /// `[shared[r mod B] | own[r]]` without materialising them: `prefix` is
    /// [`prefix_into`](Self::prefix_into) of the `B`-row `shared`, `own`
    /// holds the trailing input columns of a whole number of `B`-row groups.
    /// Every row's sums *continue* from its prefix row over the remaining
    /// inner indices, then take the bias — the same chain of additions, so
    /// the same bits, as the product over the concatenated row.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not add up to the layer's.
    pub fn forward_batch_from_prefix_into(&self, prefix: &Tensor, own: &Tensor, out: &mut Tensor) {
        assert!(
            prefix.rows() > 0 && own.rows().is_multiple_of(prefix.rows()),
            "{} rows are not whole groups of {}",
            own.rows(),
            prefix.rows()
        );
        out.repeat_rows_from(prefix, own.rows() / prefix.rows());
        own.matmul_rows_continue_into(&self.w, self.in_dim - own.cols(), out)
            .expect("dense continue shape");
        out.add_row_broadcast(&self.b).expect("bias shape");
    }

    /// [`forward_into`](Layer::forward_into) on the input `[shared | own]`
    /// given `prefix = prefix_into(shared)`: bit-identical output, and the
    /// concatenated input is cached for the weight gradient as usual.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not add up to the layer's.
    pub fn forward_from_prefix_into(
        &mut self,
        prefix: &Tensor,
        shared: &Tensor,
        own: &Tensor,
        out: &mut Tensor,
    ) {
        self.forward_batch_from_prefix_into(prefix, own, out);
        shared
            .concat_cols_into(own, self.cached_input.get_or_insert_with(Tensor::default))
            .expect("same batch");
    }

    /// [`backward_into`](Layer::backward_into) computing only the first
    /// `cols` columns of the input gradient (`grad_input` comes out
    /// `B × cols`; the columns are independent sums, so they hold the bits
    /// the full gradient would). Parameter gradients accumulate in full. A
    /// layer whose trailing inputs are data (or all of them: `cols = 0` for
    /// a network's first layer) skips the product nobody reads.
    ///
    /// # Panics
    ///
    /// Same contract as [`backward`](Layer::backward); also panics if
    /// `cols > self.in_dim()`.
    pub fn backward_cols_into(
        &mut self,
        grad_output: &Tensor,
        cols: usize,
        grad_input: &mut Tensor,
    ) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        input
            .t_matmul_into(grad_output, &mut self.gw_scratch)
            .expect("dense backward shape");
        self.grad_w
            .add_assign(&self.gw_scratch)
            .expect("grad shape");
        grad_output.sum_rows_into(&mut self.gb_scratch);
        for (gb, g) in self.grad_b.iter_mut().zip(&self.gb_scratch) {
            *gb += g;
        }
        grad_output
            .matmul_t_rows_into(&self.w, cols, &mut self.pack_scratch, grad_input)
            .expect("dense input grad shape");
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.forward_into(input, train, &mut out);
        out
    }

    fn forward_into(&mut self, input: &Tensor, _train: bool, out: &mut Tensor) {
        self.forward_batch_into(input, out);
        self.cached_input
            .get_or_insert_with(Tensor::default)
            .copy_from(input);
    }

    fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        input
            .matmul_into(&self.w, out)
            .expect("dense forward shape");
        out.add_row_broadcast(&self.b).expect("bias shape");
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad_input = Tensor::zeros(0, 0);
        self.backward_into(grad_output, &mut grad_input);
        grad_input
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        self.backward_cols_into(grad_output, self.in_dim, grad_input);
    }

    fn zero_grads(&mut self) {
        self.grad_w.resize_zeroed(self.in_dim, self.out_dim);
        self.grad_b.clear();
        self.grad_b.resize(self.out_dim, 0.0);
    }

    fn apply(&mut self, optim: &mut crate::Adam, param_id: usize) -> usize {
        optim.update(param_id, self.w.as_mut_slice(), self.grad_w.as_slice());
        optim.update(param_id + 1, &mut self.b, &self.grad_b);
        param_id + 2
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn grad_sq_norm(&self) -> f32 {
        self.grad_w.as_slice().iter().map(|g| g * g).sum::<f32>()
            + self.grad_b.iter().map(|g| g * g).sum::<f32>()
    }

    fn scale_grads(&mut self, factor: f32) {
        self.grad_w.scale(factor);
        for g in &mut self.grad_b {
            *g *= factor;
        }
    }
}

/// Rectified linear unit.
///
/// # Examples
///
/// ```
/// use twig_nn::{Layer, Relu, Tensor};
///
/// let mut r = Relu::new();
/// let y = r.forward(&Tensor::from_row(&[-1.0, 2.0]), false);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.forward_into(input, train, &mut out);
        out
    }

    fn forward_into(&mut self, input: &Tensor, _train: bool, out: &mut Tensor) {
        out.reshape_for_overwrite(input.rows(), input.cols());
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.resize(input.as_slice().len(), false);
        // One pass from `input` to `out` and `mask`. Selects, not branches
        // (here and in the two passes below), so the loops vectorise.
        // `v > 0.0` is false for -0.0 and NaN: both come out as +0.0 with a
        // dead mask bit.
        let outputs = out.as_mut_slice().iter_mut().zip(mask.iter_mut());
        for ((o, alive), &v) in outputs.zip(input.as_slice()) {
            *alive = v > 0.0;
            *o = if *alive { v } else { 0.0 };
        }
    }

    fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        out.reshape_for_overwrite(input.rows(), input.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad = Tensor::zeros(0, 0);
        self.backward_into(grad_output, &mut grad);
        grad
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        let mask = self.mask.as_ref().expect("backward before forward");
        assert_eq!(
            mask.len(),
            grad_output.as_slice().len(),
            "relu gradient shape mismatch"
        );
        grad_input.reshape_for_overwrite(grad_output.rows(), grad_output.cols());
        let grads = grad_input.as_mut_slice().iter_mut().zip(mask);
        for ((g_in, &alive), &g) in grads.zip(grad_output.as_slice()) {
            *g_in = if alive { g } else { 0.0 };
        }
    }

    fn zero_grads(&mut self) {}

    fn apply(&mut self, _optim: &mut crate::Adam, param_id: usize) -> usize {
        param_id
    }

    fn param_count(&self) -> usize {
        0
    }
}

/// Inverted dropout: at train time each activation is dropped with
/// probability `p` and survivors are scaled by `1/(1-p)`; at evaluation the
/// layer is the identity. The paper uses `p = 0.5` after every fully
/// connected layer.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    // `mask` keeps its allocation across epochs; `active` records whether
    // the last forward pass actually dropped anything (train mode), so the
    // eval path never discards the buffer.
    mask: Vec<f32>,
    active: bool,
    rng: twig_stats::rng::Xoshiro256,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own seeded
    /// RNG stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} outside [0, 1)"
        );
        Dropout {
            p,
            mask: Vec::new(),
            active: false,
            rng: twig_stats::rng::Xoshiro256::seed_from_u64(seed),
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.forward_into(input, train, &mut out);
        out
    }

    fn forward_into(&mut self, input: &Tensor, train: bool, out: &mut Tensor) {
        if !train || self.p == 0.0 {
            self.active = false;
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.active = true;
        out.reshape_for_overwrite(input.rows(), input.cols());
        self.mask.resize(input.as_slice().len(), 0.0);
        // One draw per element in element order, parked in `mask`. The
        // generator is a serial chain that cannot vectorise, and a select
        // fused into its loop compiles to a branch a fair coin mispredicts
        // every other element — that branch, not any copy, was most of a
        // train-mode forward (64 x 48: 20.5 us fused, 4.2 us split).
        for m in self.mask.iter_mut() {
            *m = self.rng.next_f32();
        }
        // Then one vectorised pass from `input` and the draws to `out` and
        // `mask`. The selects are written as bit masks: as `if alive { v *
        // scale } else { 0.0 }` LLVM sinks the load and the multiply into the
        // branch and its cost model then declines to vectorise. A dropped
        // activation is +0.0 whatever it held (not `v * 0.0`, which would
        // keep a sign or a NaN).
        let outputs = out.as_mut_slice().iter_mut().zip(self.mask.iter_mut());
        for ((o, m), &v) in outputs.zip(input.as_slice()) {
            let alive_bits = u32::from(*m < keep).wrapping_neg();
            *o = f32::from_bits((v * scale).to_bits() & alive_bits);
            *m = f32::from_bits(scale.to_bits() & alive_bits);
        }
    }

    fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        // Evaluation-mode dropout is the identity and never draws from the
        // RNG stream, so the batched path is a plain copy.
        out.copy_from(input);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad = Tensor::zeros(0, 0);
        self.backward_into(grad_output, &mut grad);
        grad
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        if !self.active {
            grad_input.copy_from(grad_output);
            return;
        }
        assert_eq!(
            self.mask.len(),
            grad_output.as_slice().len(),
            "dropout gradient shape mismatch"
        );
        grad_input.reshape_for_overwrite(grad_output.rows(), grad_output.cols());
        let grads = grad_input.as_mut_slice().iter_mut().zip(&self.mask);
        for ((g_in, &m), &g) in grads.zip(grad_output.as_slice()) {
            *g_in = g * m;
        }
    }

    fn zero_grads(&mut self) {}

    fn apply(&mut self, _optim: &mut crate::Adam, param_id: usize) -> usize {
        param_id
    }

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::Xoshiro256;

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut d = Dense::new(2, 3, &mut rng);
        let out = d.forward(&Tensor::zeros(5, 2), false);
        assert_eq!((out.rows(), out.cols()), (5, 3));
        // Zero input -> output equals bias (zero at init).
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_gradients_accumulate() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut d = Dense::new(1, 1, &mut rng);
        let x = Tensor::from_row(&[1.0]);
        d.forward(&x, true);
        d.backward(&Tensor::from_row(&[1.0]));
        d.forward(&x, true);
        d.backward(&Tensor::from_row(&[1.0]));
        assert_eq!(d.grad_b[0], 2.0);
        d.zero_grads();
        assert_eq!(d.grad_b[0], 0.0);
    }

    #[test]
    fn dense_copy_weights_shape_check() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut a = Dense::new(2, 2, &mut rng);
        let b = Dense::new(2, 3, &mut rng);
        assert!(a.copy_weights_from(&b).is_err());
        let c = Dense::new(2, 2, &mut rng);
        a.copy_weights_from(&c).unwrap();
        assert_eq!(a.weights(), c.weights());
    }

    #[test]
    fn relu_zeroes_negative_gradient_paths() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_row(&[-1.0, 1.0]), true);
        let grad = r.backward(&Tensor::from_row(&[5.0, 5.0]));
        assert_eq!(grad.as_slice(), &[0.0, 5.0]);
    }

    /// Values on which a select and a branch could disagree if either were
    /// written differently: both zeros, NaN, infinities, subnormals of both
    /// signs, and ordinary numbers.
    fn edge_values() -> Tensor {
        let sub = f32::MIN_POSITIVE / 4.0;
        Tensor::from_row(&[
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            sub,
            -sub,
            f32::MIN_POSITIVE,
            1.5,
            -2.5,
            f32::MAX,
        ])
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relu_selects_match_the_branching_form_bit_for_bit() {
        // The branching form this layer used to run, as the reference.
        let x = edge_values();
        let mut want = x.clone();
        let mut want_mask = Vec::new();
        for v in want.as_mut_slice() {
            if *v > 0.0 {
                want_mask.push(true);
            } else {
                *v = 0.0;
                want_mask.push(false);
            }
        }
        let mut r = Relu::new();
        assert_eq!(bits(&r.forward(&x, true)), bits(&want));
        assert_eq!(r.mask.as_ref().unwrap(), &want_mask);
        let mut eval = Tensor::zeros(0, 0);
        r.forward_batch_into(&x, &mut eval);
        assert_eq!(bits(&eval), bits(&want));

        // Backward over the same edge values as gradients, under a mask
        // that kills every other one.
        let mask: Vec<bool> = (0..x.cols()).map(|i| i % 2 == 0).collect();
        let mut want_grad = x.clone();
        for (g, &alive) in want_grad.as_mut_slice().iter_mut().zip(&mask) {
            if !alive {
                *g = 0.0;
            }
        }
        r.mask = Some(mask);
        assert_eq!(bits(&r.backward(&x)), bits(&want_grad));
    }

    #[test]
    fn dropout_selects_match_the_branching_form_bit_for_bit() {
        let x = edge_values();
        let (p, seed) = (0.5, 33);
        let mut d = Dropout::new(p, seed);
        for _ in 0..8 {
            // Reference: the branching form on a copy of the layer's stream.
            let mut rng = d.rng.clone();
            let keep = 1.0 - p;
            let scale = 1.0 / keep;
            let mut want = x.clone();
            let mut want_mask = Vec::new();
            for v in want.as_mut_slice() {
                if rng.next_f32() < keep {
                    *v *= scale;
                    want_mask.push(scale);
                } else {
                    *v = 0.0;
                    want_mask.push(0.0);
                }
            }
            assert_eq!(bits(&d.forward(&x, true)), bits(&want));
            assert_eq!(d.mask, want_mask);
            // Same number of draws: the streams stay in step.
            assert_eq!(d.rng.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn dense_prefix_forward_and_limited_backward_match_the_full_pass() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let (shared_dim, own_dim, out_dim, batch) = (6, 3, 5, 4);
        let mut full = Dense::new(shared_dim + own_dim, out_dim, &mut rng);
        full.b = (0..out_dim).map(|i| i as f32 * 0.25 - 0.5).collect();
        let mut split = full.clone();
        let random = |rng: &mut Xoshiro256, r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            Tensor::from_vec(r, c, data).unwrap()
        };
        let shared = random(&mut rng, batch, shared_dim);
        let grad = random(&mut rng, batch, out_dim);
        let mut prefix = Tensor::zeros(0, 0);
        split.prefix_into(&shared, &mut prefix);

        // Eval: three row groups share the one prefix.
        let own3 = random(&mut rng, 3 * batch, own_dim);
        let mut shared3 = Tensor::zeros(0, 0);
        shared3.repeat_rows_from(&shared, 3);
        let want = full.forward(&shared3.concat_cols(&own3).unwrap(), false);
        let mut got = Tensor::zeros(0, 0);
        split.forward_batch_from_prefix_into(&prefix, &own3, &mut got);
        assert_eq!(bits(&got), bits(&want));

        // Train: same output, same cached input, so the same dW and db; the
        // limited input gradient is the leading columns of the full one.
        let own = random(&mut rng, batch, own_dim);
        let want = full.forward(&shared.concat_cols(&own).unwrap(), true);
        split.forward_from_prefix_into(&prefix, &shared, &own, &mut got);
        assert_eq!(bits(&got), bits(&want));
        let want_dx = full.backward(&grad);
        for cols in [0, 1, shared_dim, shared_dim + own_dim] {
            let mut twin = split.clone();
            twin.backward_cols_into(&grad, cols, &mut got);
            assert_eq!(bits(&got), bits(&want_dx.split_cols(cols).0));
            assert_eq!(bits(&twin.grad_w), bits(&full.grad_w));
            assert_eq!(twin.grad_b, full.grad_b);
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_row(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x, false), x);
        // backward in eval mode passes through.
        let g = Tensor::from_row(&[1.0, 1.0, 1.0]);
        assert_eq!(d.backward(&g), g);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::from_vec(1, 10_000, vec![1.0; 10_000]).unwrap();
        let out = d.forward(&x, true);
        let mean: f32 = out.as_slice().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} drifted from 1.0");
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn param_counts() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        assert_eq!(Dense::new(3, 4, &mut rng).param_count(), 16);
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Dropout::new(0.1, 0).param_count(), 0);
    }
}
