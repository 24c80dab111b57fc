//! Fixed-point inference: i16 weights, i32 accumulation, f32 activations.
//!
//! A [`QuantizedMlp`] is an evaluation-only snapshot of an [`Mlp`](crate::Mlp)
//! built by [`Mlp::quantize`](crate::Mlp::quantize). Weights are quantized
//! once per snapshot to a symmetric per-layer i16 grid (±2047, leaving
//! headroom so `in_dim · 2047 · 127` fits an i32 accumulator); activations
//! are quantized per input row to ±127 at each dense layer; the integer
//! GEMM accumulates in i32 and is dequantized back to f32 before the bias
//! add and ReLU.
//!
//! Nothing in the control loop runs it: the `SafeFallback` shed tier decides
//! on the fused f32 network, which is faster. The variant serves only the
//! `nn.quant_forward_us` and `rl.select_quantized_p50_us` ledger probes, and
//! a later ledger change retires it together with them.

use crate::{NnError, Tensor};

/// Symmetric weight grid: ±2047 (11 bits + sign) so a 127-scaled activation
/// times a 2047-scaled weight summed over ≤ 8192 inputs stays inside i32.
const W_LEVELS: f32 = 2047.0;
/// Symmetric per-row activation grid: ±127.
const X_LEVELS: f32 = 127.0;
/// Largest dense `in_dim` the i32 accumulator can absorb without overflow:
/// `8192 · 2047 · 127 = 2_129_666_048 < i32::MAX`.
const MAX_IN_DIM: usize = 8192;

/// One dense layer quantized to i16 weights with a single symmetric scale.
#[derive(Debug, Clone)]
pub struct QuantizedDense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `in_dim × out_dim`, `w ≈ wq · w_scale`.
    wq: Vec<i16>,
    w_scale: f32,
    /// Bias stays in f32 — it is added after dequantization.
    b: Vec<f32>,
}

impl QuantizedDense {
    /// Quantizes an `in_dim × b.len()` layer's row-major weights `w`.
    fn new(in_dim: usize, w: &[f32], b: &[f32]) -> Result<Self, NnError> {
        if in_dim > MAX_IN_DIM {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "dense in_dim {in_dim} exceeds the {MAX_IN_DIM} i32-accumulator headroom"
                ),
            });
        }
        let w_max = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let w_scale = if w_max > 0.0 { w_max / W_LEVELS } else { 1.0 };
        Ok(QuantizedDense {
            in_dim,
            out_dim: b.len(),
            wq: w
                .iter()
                .map(|&v| (v / w_scale).round().clamp(-W_LEVELS, W_LEVELS) as i16)
                .collect(),
            w_scale,
            b: b.to_vec(),
        })
    }

    /// One quantized forward row: quantizes `x` to the per-row ±127 grid,
    /// runs the i16×i16→i32 GEMV, and dequantizes + bias into `y`.
    fn forward_row(&self, x: &[f32], y: &mut [f32], xq: &mut Vec<i16>, acc: &mut Vec<i32>) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(y.len(), self.out_dim);
        let x_max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if x_max == 0.0 {
            y.copy_from_slice(&self.b);
            return;
        }
        let x_scale = x_max / X_LEVELS;
        xq.clear();
        xq.extend(
            x.iter()
                .map(|v| (v / x_scale).round().clamp(-X_LEVELS, X_LEVELS) as i16),
        );
        acc.clear();
        acc.resize(self.out_dim, 0);
        for (i, &xi) in xq.iter().enumerate() {
            if xi == 0 {
                continue;
            }
            let xi = i32::from(xi);
            let w_row = &self.wq[i * self.out_dim..(i + 1) * self.out_dim];
            for (a, &w) in acc.iter_mut().zip(w_row) {
                *a += xi * i32::from(w);
            }
        }
        let scale = x_scale * self.w_scale;
        for ((dst, &a), &bias) in y.iter_mut().zip(acc.iter()).zip(&self.b) {
            *dst = a as f32 * scale + bias;
        }
    }
}

/// A quantized layer of the snapshot: dense layers carry weights, ReLU is
/// applied in f32, dropout never appears (identity at evaluation).
#[derive(Debug, Clone)]
enum QuantLayer {
    Dense(QuantizedDense),
    Relu,
}

/// Fixed-point evaluation-only snapshot of an [`Mlp`](crate::Mlp).
///
/// Build with [`Mlp::quantize`](crate::Mlp::quantize); steady-state forwards
/// reuse the internal scratch and are allocation-free.
///
/// # Examples
///
/// ```
/// use twig_nn::{Dense, Mlp, Relu, Tensor};
/// use twig_stats::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from_u64(0);
/// let mut net = Mlp::new()
///     .push(Dense::new(4, 16, &mut rng))
///     .push(Relu::new())
///     .push(Dense::new(16, 2, &mut rng));
/// let mut q = net.quantize().unwrap();
/// let x = Tensor::from_row(&[0.5, -0.25, 0.0, 1.0]);
/// let exact = net.forward(&x, false);
/// let mut approx = Tensor::zeros(0, 0);
/// q.forward_into(&x, &mut approx);
/// for (e, a) in exact.as_slice().iter().zip(approx.as_slice()) {
///     assert!((e - a).abs() < 0.05);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QuantizedMlp {
    layers: Vec<QuantLayer>,
    // Scratch: quantized input row, i32 accumulator row, and ping-pong f32
    // activation buffers. Sized on first use, reused afterwards.
    xq: Vec<i16>,
    acc: Vec<i32>,
    buf_a: Tensor,
    buf_b: Tensor,
}

impl QuantizedMlp {
    /// Creates an empty quantized network (the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a quantized snapshot of a dense layer with `in_dim` inputs,
    /// row-major weights `w` and bias `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `in_dim > 8192` (i32
    /// accumulator headroom).
    pub(crate) fn push_dense(
        &mut self,
        in_dim: usize,
        w: &[f32],
        b: &[f32],
    ) -> Result<(), NnError> {
        self.layers
            .push(QuantLayer::Dense(QuantizedDense::new(in_dim, w, b)?));
        Ok(())
    }

    /// Appends a ReLU (applied in f32 after dequantization).
    pub(crate) fn push_relu(&mut self) {
        self.layers.push(QuantLayer::Relu);
    }

    /// Heap bytes held, at allocated capacity: quantized weights, biases and
    /// the forward scratch.
    pub fn heap_bytes(&self) -> usize {
        let dense = |l: &QuantLayer| match l {
            QuantLayer::Dense(d) => {
                d.wq.capacity() * std::mem::size_of::<i16>()
                    + d.b.capacity() * std::mem::size_of::<f32>()
            }
            QuantLayer::Relu => 0,
        };
        self.layers.capacity() * std::mem::size_of::<QuantLayer>()
            + self.layers.iter().map(dense).sum::<usize>()
            + self.xq.capacity() * std::mem::size_of::<i16>()
            + self.acc.capacity() * std::mem::size_of::<i32>()
            + self.buf_a.heap_bytes()
            + self.buf_b.heap_bytes()
    }

    /// Fixed-point forward pass into a caller-owned tensor; allocation-free
    /// once the scratch and `out` have capacity.
    pub fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        let QuantizedMlp {
            layers,
            xq,
            acc,
            buf_a,
            buf_b,
        } = self;
        buf_a.copy_from(input);
        let (mut cur, mut next) = (buf_a, buf_b);
        for layer in layers.iter() {
            match layer {
                QuantLayer::Dense(d) => {
                    next.resize_zeroed(cur.rows(), d.out_dim);
                    for r in 0..cur.rows() {
                        d.forward_row(cur.row(r), next.row_mut(r), xq, acc);
                    }
                    std::mem::swap(&mut cur, &mut next);
                }
                QuantLayer::Relu => {
                    for v in cur.as_mut_slice() {
                        if *v > 0.0 {
                            continue;
                        }
                        *v = 0.0;
                    }
                }
            }
        }
        out.copy_from(cur);
    }

    /// Allocating convenience wrapper around
    /// [`forward_into`](Self::forward_into).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.forward_into(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dense, Dropout, Mlp, Relu, Tensor};
    use twig_stats::rng::{Rng, Xoshiro256};

    fn random_net(seed: u64, dims: &[usize], dropout: bool) -> Mlp {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut net = Mlp::new();
        for w in dims.windows(2) {
            net = net.push(Dense::new(w[0], w[1], &mut rng)).push(Relu::new());
            if dropout {
                net = net.push(Dropout::new(0.3, seed));
            }
        }
        net
    }

    fn random_input(seed: u64, rows: usize, cols: usize, max_abs: f32) -> Tensor {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut x = Tensor::zeros(rows, cols);
        for v in x.as_mut_slice() {
            *v = rng.range_f32(-max_abs, max_abs);
        }
        x
    }

    /// How far a snapshot's output may sit from the f32 evaluation forward
    /// at these layer widths and inputs bounded by 1.
    const TOLERANCE: f32 = 0.5;

    fn max_divergence(exact: &Tensor, approx: &Tensor) -> f32 {
        assert_eq!((exact.rows(), exact.cols()), (approx.rows(), approx.cols()));
        exact
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .fold(0.0f32, |m, (e, a)| m.max((e - a).abs()))
    }

    #[test]
    fn quantized_output_tracks_the_f32_forward() {
        for seed in 0..8 {
            let mut net = random_net(seed, &[11, 48, 48, 9], false);
            let mut q = net.quantize().unwrap();
            let x = random_input(seed + 100, 4, 11, 1.0);
            let exact = net.forward(&x, false);
            let max_div = max_divergence(&exact, &q.forward(&x));
            assert!(
                max_div < TOLERANCE,
                "seed {seed}: divergence {max_div} too large"
            );
        }
    }

    #[test]
    fn dropout_layers_are_dropped_from_the_snapshot() {
        let mut with = random_net(3, &[6, 16, 4], true);
        let plain = random_net(3, &[6, 16, 4], false);
        // Identical weights by construction (same seed, same draw order for
        // dense layers)? Dropout construction does not draw from the weight
        // RNG, so the dense layers match.
        assert_eq!(with.parameters(), plain.parameters());
        let mut qa = with.quantize().unwrap();
        let mut qb = plain.quantize().unwrap();
        let x = random_input(9, 2, 6, 1.0);
        assert_eq!(qa.forward(&x), qb.forward(&x));
        // And the snapshot matches eval-mode (dropout-off) behaviour.
        let eval = with.forward(&x, false);
        assert!(max_divergence(&eval, &qa.forward(&x)) < TOLERANCE);
    }

    #[test]
    fn oversized_dense_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let net = Mlp::new().push(Dense::new(8193, 1, &mut rng));
        assert!(net.quantize().is_err());
    }

    #[test]
    fn zero_and_degenerate_inputs() {
        let mut net = random_net(11, &[3, 8, 2], false);
        let mut q = net.quantize().unwrap();
        // All-zero input row: each dense layer passes its f32 bias through
        // unquantized, so the output is exactly the f32 bias chain.
        let x = Tensor::zeros(1, 3);
        assert_eq!(q.forward(&x), net.forward(&x, false));
        // Empty quantized net is the identity.
        let mut id = crate::QuantizedMlp::new();
        let y = random_input(1, 2, 3, 1.0);
        assert_eq!(id.forward(&y), y);
    }
}
