use crate::tape::{Products, Slot};
use crate::tensor::MatRef;
use crate::Tensor;
use std::ops::Range;
use twig_stats::rng::Rng;

/// Draws He-initialised weights (uniform, scaled to the He / Kaiming
/// standard deviation `sqrt(2 / in_dim)`) into `weights`, in order.
pub(crate) fn he_init<R: Rng>(in_dim: usize, weights: &mut [f32], rng: &mut R) {
    let std = (2.0 / in_dim as f32).sqrt();
    for v in weights {
        // Uniform(-a, a) has std a/sqrt(3); pick a = std * sqrt(3).
        *v = rng.range_f32(-1.0, 1.0) * std * 3f32.sqrt();
    }
}

/// Fully connected layer `y = x W + b` with He-initialised weights and zero
/// bias, on its way into an [`Mlp`](crate::Mlp).
///
/// Holds the freshly drawn parameters until [`Mlp::push`](crate::Mlp::push)
/// appends them to the network's parameter arena; inside the network a
/// dense layer is only a shape and an offset into that arena.
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
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Weights (row-major `in_dim × out_dim`), then bias.
    pub(crate) params: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights and zero bias.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let mut params = vec![0.0; in_dim * out_dim + out_dim];
        he_init(in_dim, &mut params[..in_dim * out_dim], rng);
        Dense {
            in_dim,
            out_dim,
            params,
        }
    }
}

/// A dense layer inside an [`Mlp`](crate::Mlp): its shape, and where its
/// weights (row-major `in_dim × out_dim`) and then its bias sit in the
/// network's parameter arena — and, at the same offsets, in its gradient
/// arena. Every pass borrows the arena it reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseAt {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    pub(crate) offset: usize,
}

impl DenseAt {
    /// The weight block's elements in the arena.
    pub(crate) fn weights(&self) -> Range<usize> {
        self.offset..self.offset + self.in_dim * self.out_dim
    }

    /// The bias's elements in the arena.
    pub(crate) fn bias(&self) -> Range<usize> {
        let start = self.weights().end;
        start..start + self.out_dim
    }

    /// Weights and bias.
    pub(crate) fn range(&self) -> Range<usize> {
        self.offset..self.bias().end
    }

    fn w<'p>(&self, params: &'p [f32]) -> MatRef<'p> {
        MatRef {
            data: &params[self.weights()],
            rows: self.in_dim,
            cols: self.out_dim,
        }
    }

    /// Evaluation forward `out = input · W + b`: touches nothing but `out`.
    pub(crate) fn forward_batch_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.cols(), self.in_dim, "dense forward shape");
        input
            .matmul_rows_into(self.w(params), 0, out)
            .expect("dense forward shape");
        out.add_row_broadcast(&params[self.bias()])
            .expect("bias shape");
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
    pub(crate) fn prefix_into(&self, params: &[f32], shared: &Tensor, out: &mut Tensor) {
        shared
            .matmul_rows_into(self.w(params), 0, out)
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
        params: &[f32],
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
        own.matmul_rows_continue_into(self.w(params), self.in_dim - own.cols(), out)
            .expect("dense continue shape");
        out.add_row_broadcast(&params[self.bias()])
            .expect("bias shape");
    }

    /// Backward pass computing only the first `cols` columns of the input
    /// gradient (`grad_input` comes out `B × cols`; the columns are
    /// independent sums, so they hold the bits the full gradient would).
    /// Parameter gradients accumulate in full into `grads`, the gradient
    /// arena. A layer whose trailing inputs are data (or all of them: `cols
    /// = 0` for a network's first layer) skips the product nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not hold the input of a forward pass with
    /// `grad_output`'s batch size, or if `cols > in_dim`.
    pub(crate) fn backward_cols_into(
        &self,
        (params, grads): (&[f32], &mut [f32]),
        grad_output: &Tensor,
        cols: usize,
        slot: &Slot,
        products: &mut Products,
        grad_input: &mut Tensor,
    ) {
        assert_eq!(slot.input.cols(), self.in_dim, "dense backward shape");
        self.backward_own_into(grads, grad_output, slot, products);
        grad_output
            .matmul_t_rows_into(self.w(params), cols, &mut products.pack, grad_input)
            .expect("dense input grad shape");
    }

    /// The parameter half of a backward pass whose forward kept only the
    /// trailing `slot.input.cols()` input columns (all of them, or a
    /// `[shared | own]` input's own columns): the weight rows of those inputs
    /// and the bias accumulate into `grads`; no input gradient is computed.
    /// The shared rows are [`backward_shared_into`](Self::backward_shared_into)'s.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not hold at most `in_dim` columns of a forward
    /// pass with `grad_output`'s batch size.
    pub(crate) fn backward_own_into(
        &self,
        grads: &mut [f32],
        grad_output: &Tensor,
        slot: &Slot,
        products: &mut Products,
    ) {
        assert!(
            slot.input.cols() <= self.in_dim && grad_output.cols() == self.out_dim,
            "dense backward shape"
        );
        let first_row = self.in_dim - slot.input.cols();
        self.add_weight_rows(grads, first_row, &slot.input, grad_output, products);
        grad_output.sum_rows_into(&mut products.gb);
        add_into(&mut grads[self.bias()], &products.gb);
    }

    /// The other half, for input rows `[shared | own]`: the weight rows of
    /// the leading `shared.cols()` inputs accumulate `sharedᵀ · grad_output`,
    /// and `grad_shared = grad_output · W[..shared.cols()]ᵀ` (`B ×
    /// shared.cols()`). Both are linear in `grad_output`, so row groups that
    /// share `shared` sum their output gradients and run this once.
    ///
    /// # Panics
    ///
    /// Panics if `shared` is wider than the layer's input or the shapes of
    /// `shared` and `grad_output` do not match the layer's.
    pub(crate) fn backward_shared_into(
        &self,
        (params, grads): (&[f32], &mut [f32]),
        shared: &Tensor,
        grad_output: &Tensor,
        products: &mut Products,
        grad_shared: &mut Tensor,
    ) {
        assert!(
            shared.cols() <= self.in_dim && grad_output.cols() == self.out_dim,
            "dense backward shape"
        );
        self.add_weight_rows(grads, 0, shared, grad_output, products);
        grad_output
            .matmul_t_rows_into(
                self.w(params),
                shared.cols(),
                &mut products.pack,
                grad_shared,
            )
            .expect("dense input grad shape");
    }

    /// `grads`' weight rows `first_row..first_row + input.cols()` `+=
    /// inputᵀ · grad_output`, the product materialised in `products.gw`
    /// first.
    fn add_weight_rows(
        &self,
        grads: &mut [f32],
        first_row: usize,
        input: &Tensor,
        grad_output: &Tensor,
        products: &mut Products,
    ) {
        input
            .t_matmul_into(grad_output, &mut products.gw)
            .expect("dense backward shape");
        let rows = self.weights().start + first_row * self.out_dim..;
        add_into(
            &mut grads[rows][..products.gw.as_slice().len()],
            products.gw.as_slice(),
        );
    }

    /// Squared L2 norm of the layer's accumulated gradients in `grads` (none
    /// yet: an empty arena): `Σw² + Σb²`, the sum clipping has always seen.
    pub(crate) fn grad_sq_norm(&self, grads: &[f32]) -> f32 {
        let sq = |r: Range<usize>| grads.get(r).unwrap_or_default().iter().map(|g| g * g);
        sq(self.weights()).sum::<f32>() + sq(self.bias()).sum::<f32>()
    }
}

/// `acc += add`, element by element.
fn add_into(acc: &mut [f32], add: &[f32]) {
    for (a, b) in acc.iter_mut().zip(add) {
        *a += b;
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

    /// A layer placed at the start of an arena of its own.
    fn placed(d: &Dense) -> (DenseAt, Vec<f32>) {
        let at = DenseAt {
            in_dim: d.in_dim,
            out_dim: d.out_dim,
            offset: 0,
        };
        (at, d.params.clone())
    }

    /// A stateful forward of one layer on fresh working memory.
    fn dense_forward(d: &Dense, x: &Tensor, slot: &mut Slot) -> Tensor {
        let (at, params) = placed(d);
        let mut out = Tensor::default();
        at.forward_batch_into(&params, x, &mut out);
        slot.input.copy_from(x);
        out
    }

    /// A backward of one layer, accumulating into `grads`.
    fn dense_backward(
        d: &Dense,
        grads: &mut [f32],
        grad: &Tensor,
        cols: usize,
        slot: &Slot,
    ) -> Tensor {
        let (at, params) = placed(d);
        let mut out = Tensor::default();
        at.backward_cols_into(
            (&params, grads),
            grad,
            cols,
            slot,
            &mut Products::default(),
            &mut out,
        );
        out
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let d = Dense::new(2, 3, &mut rng);
        assert_eq!(d.params.len(), 2 * 3 + 3);
        let out = dense_forward(&d, &Tensor::zeros(5, 2), &mut Slot::default());
        assert_eq!((out.rows(), out.cols()), (5, 3));
        // Zero input -> output equals bias (zero at init).
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_gradients_accumulate_weights_then_bias() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let d = Dense::new(2, 4, &mut rng);
        let (at, _) = placed(&d);
        assert_eq!(at.grad_sq_norm(&[]), 0.0);
        let x = Tensor::from_row(&[1.0, 0.0]);
        let (mut slot, mut grads) = (Slot::default(), vec![0.0; 12]);
        for _ in 0..2 {
            dense_forward(&d, &x, &mut slot);
            dense_backward(&d, &mut grads, &Tensor::from_row(&[1.0; 4]), 2, &slot);
        }
        assert_eq!(
            grads,
            [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(at.grad_sq_norm(&grads), 8.0 * 4.0);
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
        let mut d = Dense::new(shared_dim + own_dim, out_dim, &mut rng);
        for (i, b) in d.params[(shared_dim + own_dim) * out_dim..]
            .iter_mut()
            .enumerate()
        {
            *b = i as f32 * 0.25 - 0.5;
        }
        let (at, params) = placed(&d);
        let random = |rng: &mut Xoshiro256, r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            Tensor::from_vec(r, c, data).unwrap()
        };
        let shared = random(&mut rng, batch, shared_dim);
        let grad = random(&mut rng, batch, out_dim);
        let mut prefix = Tensor::zeros(0, 0);
        at.prefix_into(&params, &shared, &mut prefix);

        // Eval: three row groups share the one prefix.
        let own3 = random(&mut rng, 3 * batch, own_dim);
        let mut shared3 = Tensor::zeros(0, 0);
        shared3.repeat_rows_from(&shared, 3);
        let (mut want, mut got) = (Tensor::default(), Tensor::default());
        at.forward_batch_into(&params, &shared3.concat_cols(&own3).unwrap(), &mut want);
        at.forward_batch_from_prefix_into(&params, &prefix, &own3, &mut got);
        assert_eq!(bits(&got), bits(&want));

        // Train: same output, same input left in the slot, so the same dW
        // and db; the limited input gradient is the leading columns of the
        // full one.
        let own = random(&mut rng, batch, own_dim);
        let (mut full_slot, mut split_slot) = (Slot::default(), Slot::default());
        let want = dense_forward(&d, &shared.concat_cols(&own).unwrap(), &mut full_slot);
        at.forward_batch_from_prefix_into(&params, &prefix, &own, &mut got);
        shared
            .concat_cols_into(&own, &mut split_slot.input)
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&split_slot.input), bits(&full_slot.input));
        let mut full_grads = vec![0.0; params.len()];
        let want_dx = dense_backward(&d, &mut full_grads, &grad, shared_dim + own_dim, &full_slot);
        for cols in [0, 1, shared_dim, shared_dim + own_dim] {
            let mut grads = vec![0.0; params.len()];
            let got = dense_backward(&d, &mut grads, &grad, cols, &split_slot);
            assert_eq!(bits(&got), bits(&want_dx.split_cols(cols).0));
            assert_eq!(
                bits(&Tensor::from_row(&grads)),
                bits(&Tensor::from_row(&full_grads))
            );
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
}
