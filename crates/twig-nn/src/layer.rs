use crate::tape::{Products, Slot};
use crate::{Adam, NnError, Tensor};
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

/// Fully connected layer `y = x W + b` with He-initialised weights.
///
/// Holds parameters and their accumulated gradients only. What a backward
/// pass needs from the forward before it (the input) lives in the
/// [`Tape`](crate::Tape) the pass runs on, so a layer is as large as its
/// weights — and a layer nobody trains (a target network's, an
/// evaluation-only clone's) never allocates gradients at all: the first
/// `zero_grads` or backward pass does.
///
/// # Examples
///
/// ```
/// use twig_nn::{Dense, Mlp, Tensor};
/// use twig_stats::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from_u64(0);
/// let mut net = Mlp::new().push(Dense::new(3, 2, &mut rng));
/// let y = net.forward(&Tensor::zeros(4, 3), false);
/// assert_eq!((y.rows(), y.cols()), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Tensor,
    b: Vec<f32>,
    // Empty (= all zero) until `ensure_grads`.
    grad_w: Tensor,
    grad_b: Vec<f32>,
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
            grad_w: Tensor::default(),
            grad_b: Vec::new(),
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
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
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

    /// Heap bytes held (weights, bias and, once allocated, gradients).
    pub fn heap_bytes(&self) -> usize {
        self.w.heap_bytes()
            + self.grad_w.heap_bytes()
            + (self.b.capacity() + self.grad_b.capacity()) * std::mem::size_of::<f32>()
    }

    /// Evaluation forward `out = input · W + b`: touches nothing but `out`.
    pub(crate) fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        input
            .matmul_into(&self.w, out)
            .expect("dense forward shape");
        out.add_row_broadcast(&self.b).expect("bias shape");
    }

    /// [`forward_batch_into`](Self::forward_batch_into), leaving the input in
    /// `slot` for the backward pass.
    pub(crate) fn forward_into(&self, input: &Tensor, slot: &mut Slot, out: &mut Tensor) {
        self.forward_batch_into(input, out);
        slot.input.copy_from(input);
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
    pub(crate) fn prefix_into(&self, shared: &Tensor, out: &mut Tensor) {
        shared
            .matmul_rows_into(&self.w, 0, out)
            .expect("dense prefix shape");
    }

    /// [`forward_batch_into`](Self::forward_batch_into) on the input rows
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
    pub(crate) fn forward_batch_from_prefix_into(
        &self,
        prefix: &Tensor,
        own: &Tensor,
        out: &mut Tensor,
    ) {
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

    /// [`forward_into`](Self::forward_into) on the input `[shared | own]`
    /// given `prefix = prefix_into(shared)`: bit-identical output, and the
    /// concatenated input is left in `slot` for the weight gradient as usual.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not add up to the layer's.
    pub(crate) fn forward_from_prefix_into(
        &self,
        prefix: &Tensor,
        shared: &Tensor,
        own: &Tensor,
        slot: &mut Slot,
        out: &mut Tensor,
    ) {
        self.forward_batch_from_prefix_into(prefix, own, out);
        shared
            .concat_cols_into(own, &mut slot.input)
            .expect("same batch");
    }

    /// Backward pass computing only the first `cols` columns of the input
    /// gradient (`grad_input` comes out `B × cols`; the columns are
    /// independent sums, so they hold the bits the full gradient would).
    /// Parameter gradients accumulate in full. A layer whose trailing inputs
    /// are data (or all of them: `cols = 0` for a network's first layer)
    /// skips the product nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not hold the input of a forward pass with
    /// `grad_output`'s batch size, or if `cols > self.in_dim()`.
    pub(crate) fn backward_cols_into(
        &mut self,
        grad_output: &Tensor,
        cols: usize,
        slot: &Slot,
        products: &mut Products,
        grad_input: &mut Tensor,
    ) {
        self.ensure_grads();
        slot.input
            .t_matmul_into(grad_output, &mut products.gw)
            .expect("dense backward shape");
        self.grad_w.add_assign(&products.gw).expect("grad shape");
        grad_output.sum_rows_into(&mut products.gb);
        for (gb, g) in self.grad_b.iter_mut().zip(&products.gb) {
            *gb += g;
        }
        grad_output
            .matmul_t_rows_into(&self.w, cols, &mut products.pack, grad_input)
            .expect("dense input grad shape");
    }

    /// The accumulated weight and bias gradients.
    #[cfg(test)]
    pub(crate) fn grads(&self) -> (&Tensor, &[f32]) {
        (&self.grad_w, &self.grad_b)
    }

    /// Allocates the gradients (as zeros) unless they are there.
    fn ensure_grads(&mut self) {
        if (self.grad_w.rows(), self.grad_w.cols()) != (self.in_dim, self.out_dim) {
            self.zero_grads();
        }
    }

    /// Zeroes the accumulated gradients, allocating them on first use.
    pub(crate) fn zero_grads(&mut self) {
        self.grad_w.resize_zeroed(self.in_dim, self.out_dim);
        self.grad_b.clear();
        self.grad_b.resize(self.out_dim, 0.0);
    }

    /// Applies the optimiser to weights (`param_id`) and bias (`param_id +
    /// 1`), consuming the accumulated gradients; returns the next free id.
    pub(crate) fn apply(&mut self, optim: &mut Adam, param_id: usize) -> usize {
        self.ensure_grads();
        optim.update(param_id, self.w.as_mut_slice(), self.grad_w.as_slice());
        optim.update(param_id + 1, &mut self.b, &self.grad_b);
        param_id + 2
    }

    /// Number of trainable scalar parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    /// Squared L2 norm of the accumulated gradients (for clipping).
    pub(crate) fn grad_sq_norm(&self) -> f32 {
        self.grad_w.as_slice().iter().map(|g| g * g).sum::<f32>()
            + self.grad_b.iter().map(|g| g * g).sum::<f32>()
    }

    /// Scales the accumulated gradients in place (for clipping/rescaling).
    pub(crate) fn scale_grads(&mut self, factor: f32) {
        self.grad_w.scale(factor);
        for g in &mut self.grad_b {
            *g *= factor;
        }
    }
}

/// Rectified linear unit. Stateless: the mask its backward pass needs lives
/// in the [`Tape`](crate::Tape) the pass runs on.
///
/// # Examples
///
/// ```
/// use twig_nn::{Mlp, Relu, Tensor};
///
/// let mut net = Mlp::new().push(Relu::new());
/// let y = net.forward(&Tensor::from_row(&[-1.0, 2.0]), false);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }

    pub(crate) fn forward_into(&self, input: &Tensor, slot: &mut Slot, out: &mut Tensor) {
        out.reshape_for_overwrite(input.rows(), input.cols());
        slot.alive.resize(input.as_slice().len(), false);
        // One pass from `input` to `out` and the mask. Selects, not branches
        // (here and in the two passes below), so the loops vectorise.
        // `v > 0.0` is false for -0.0 and NaN: both come out as +0.0 with a
        // dead mask bit.
        let outputs = out.as_mut_slice().iter_mut().zip(slot.alive.iter_mut());
        for ((o, alive), &v) in outputs.zip(input.as_slice()) {
            *alive = v > 0.0;
            *o = if *alive { v } else { 0.0 };
        }
    }

    pub(crate) fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        out.reshape_for_overwrite(input.rows(), input.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
    }

    pub(crate) fn backward_into(&self, grad_output: &Tensor, slot: &Slot, grad_input: &mut Tensor) {
        assert_eq!(
            slot.alive.len(),
            grad_output.as_slice().len(),
            "relu gradient shape mismatch"
        );
        grad_input.reshape_for_overwrite(grad_output.rows(), grad_output.cols());
        let grads = grad_input.as_mut_slice().iter_mut().zip(&slot.alive);
        for ((g_in, &alive), &g) in grads.zip(grad_output.as_slice()) {
            *g_in = if alive { g } else { 0.0 };
        }
    }
}

/// Inverted dropout: at train time each activation is dropped with
/// probability `p` and survivors are scaled by `1/(1-p)`; at evaluation the
/// layer is the identity. The paper uses `p = 0.5` after every fully
/// connected layer. Holds its RNG stream; the mask of the last forward pass
/// lives in the [`Tape`](crate::Tape) the pass ran on.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
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
            rng: twig_stats::rng::Xoshiro256::seed_from_u64(seed),
        }
    }

    pub(crate) fn forward_into(
        &mut self,
        input: &Tensor,
        train: bool,
        slot: &mut Slot,
        out: &mut Tensor,
    ) {
        slot.dropped = train && self.p != 0.0;
        if !slot.dropped {
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        out.reshape_for_overwrite(input.rows(), input.cols());
        slot.keep.resize(input.as_slice().len(), 0.0);
        // One draw per element in element order, parked in the mask. The
        // generator is a serial chain that cannot vectorise, and a select
        // fused into its loop compiles to a branch a fair coin mispredicts
        // every other element — that branch, not any copy, was most of a
        // train-mode forward (64 x 48: 20.5 us fused, 4.2 us split).
        for m in slot.keep.iter_mut() {
            *m = self.rng.next_f32();
        }
        // Then one vectorised pass from `input` and the draws to `out` and
        // the mask. The selects are written as bit masks: as `if alive { v *
        // scale } else { 0.0 }` LLVM sinks the load and the multiply into the
        // branch and its cost model then declines to vectorise. A dropped
        // activation is +0.0 whatever it held (not `v * 0.0`, which would
        // keep a sign or a NaN).
        let outputs = out.as_mut_slice().iter_mut().zip(slot.keep.iter_mut());
        for ((o, m), &v) in outputs.zip(input.as_slice()) {
            let alive_bits = u32::from(*m < keep).wrapping_neg();
            *o = f32::from_bits((v * scale).to_bits() & alive_bits);
            *m = f32::from_bits(scale.to_bits() & alive_bits);
        }
    }

    /// Evaluation-mode dropout is the identity and never draws from the RNG
    /// stream, so the batched path is a plain copy.
    pub(crate) fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        out.copy_from(input);
    }

    pub(crate) fn backward_into(&self, grad_output: &Tensor, slot: &Slot, grad_input: &mut Tensor) {
        if !slot.dropped {
            grad_input.copy_from(grad_output);
            return;
        }
        assert_eq!(
            slot.keep.len(),
            grad_output.as_slice().len(),
            "dropout gradient shape mismatch"
        );
        grad_input.reshape_for_overwrite(grad_output.rows(), grad_output.cols());
        let grads = grad_input.as_mut_slice().iter_mut().zip(&slot.keep);
        for ((g_in, &m), &g) in grads.zip(grad_output.as_slice()) {
            *g_in = g * m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::Xoshiro256;

    /// A stateful forward of one layer on fresh working memory.
    fn dense_forward(d: &Dense, x: &Tensor, slot: &mut Slot) -> Tensor {
        let mut out = Tensor::default();
        d.forward_into(x, slot, &mut out);
        out
    }

    fn dense_backward(d: &mut Dense, grad: &Tensor, cols: usize, slot: &Slot) -> Tensor {
        let mut out = Tensor::default();
        d.backward_cols_into(grad, cols, slot, &mut Products::default(), &mut out);
        out
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let d = Dense::new(2, 3, &mut rng);
        let out = dense_forward(&d, &Tensor::zeros(5, 2), &mut Slot::default());
        assert_eq!((out.rows(), out.cols()), (5, 3));
        // Zero input -> output equals bias (zero at init).
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_gradients_allocate_on_first_use_and_accumulate() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut d = Dense::new(2, 4, &mut rng);
        let weights_only = d.heap_bytes();
        assert_eq!(weights_only, (2 * 4 + 4) * std::mem::size_of::<f32>());
        assert_eq!(d.grad_sq_norm(), 0.0);
        let x = Tensor::from_row(&[1.0, 0.0]);
        let mut slot = Slot::default();
        for _ in 0..2 {
            dense_forward(&d, &x, &mut slot);
            dense_backward(&mut d, &Tensor::from_row(&[1.0; 4]), 2, &slot);
        }
        assert_eq!(d.grad_b, [2.0; 4]);
        assert_eq!(
            d.grad_w.as_slice(),
            [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        );
        assert_eq!(d.heap_bytes(), 2 * weights_only);
        d.zero_grads();
        assert_eq!(d.grad_b, [0.0; 4]);
        // Re-initialising zeroes gradients that exist and allocates none.
        d.grad_b[0] = 3.0;
        d.reinitialize(&mut rng);
        assert_eq!(d.grad_b, [0.0; 4]);
        let mut fresh = Dense::new(2, 4, &mut rng);
        fresh.reinitialize(&mut rng);
        assert_eq!(fresh.heap_bytes(), weights_only);
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
        let (mut slot, mut out) = (Slot::default(), Tensor::default());
        Relu.forward_into(&Tensor::from_row(&[-1.0, 1.0]), &mut slot, &mut out);
        Relu.backward_into(&Tensor::from_row(&[5.0, 5.0]), &slot, &mut out);
        assert_eq!(out.as_slice(), &[0.0, 5.0]);
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
        let (mut slot, mut got) = (Slot::default(), Tensor::default());
        Relu.forward_into(&x, &mut slot, &mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(slot.alive, want_mask);
        Relu.forward_batch_into(&x, &mut got);
        assert_eq!(bits(&got), bits(&want));

        // Backward over the same edge values as gradients, under a mask
        // that kills every other one.
        slot.alive = (0..x.cols()).map(|i| i % 2 == 0).collect();
        let mut want_grad = x.clone();
        for (g, &alive) in want_grad.as_mut_slice().iter_mut().zip(&slot.alive) {
            if !alive {
                *g = 0.0;
            }
        }
        Relu.backward_into(&x, &slot, &mut got);
        assert_eq!(bits(&got), bits(&want_grad));
    }

    #[test]
    fn dropout_selects_match_the_branching_form_bit_for_bit() {
        let x = edge_values();
        let (p, seed) = (0.5, 33);
        let mut d = Dropout::new(p, seed);
        let (mut slot, mut got) = (Slot::default(), Tensor::default());
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
            d.forward_into(&x, true, &mut slot, &mut got);
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(slot.keep, want_mask);
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
        let split = full.clone();
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
        let (mut want, mut got) = (Tensor::default(), Tensor::default());
        full.forward_batch_into(&shared3.concat_cols(&own3).unwrap(), &mut want);
        split.forward_batch_from_prefix_into(&prefix, &own3, &mut got);
        assert_eq!(bits(&got), bits(&want));

        // Train: same output, same input left in the slot, so the same dW
        // and db; the limited input gradient is the leading columns of the
        // full one.
        let own = random(&mut rng, batch, own_dim);
        let (mut full_slot, mut split_slot) = (Slot::default(), Slot::default());
        let want = dense_forward(&full, &shared.concat_cols(&own).unwrap(), &mut full_slot);
        split.forward_from_prefix_into(&prefix, &shared, &own, &mut split_slot, &mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&split_slot.input), bits(&full_slot.input));
        let want_dx = dense_backward(&mut full, &grad, shared_dim + own_dim, &full_slot);
        for cols in [0, 1, shared_dim, shared_dim + own_dim] {
            let mut twin = split.clone();
            let got = dense_backward(&mut twin, &grad, cols, &split_slot);
            assert_eq!(bits(&got), bits(&want_dx.split_cols(cols).0));
            assert_eq!(bits(&twin.grad_w), bits(&full.grad_w));
            assert_eq!(twin.grad_b, full.grad_b);
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_row(&[1.0, 2.0, 3.0]);
        let (mut slot, mut out) = (Slot::default(), Tensor::default());
        d.forward_into(&x, false, &mut slot, &mut out);
        assert_eq!(out, x);
        // backward in eval mode passes through.
        let g = Tensor::from_row(&[1.0, 1.0, 1.0]);
        d.backward_into(&g, &slot, &mut out);
        assert_eq!(out, g);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::from_vec(1, 10_000, vec![1.0; 10_000]).unwrap();
        let (mut slot, mut out) = (Slot::default(), Tensor::default());
        d.forward_into(&x, true, &mut slot, &mut out);
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
    }
}
