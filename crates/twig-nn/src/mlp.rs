use crate::tape::{Products, Slot};
use crate::{Adam, Dense, Dropout, NnError, Relu, Tape, Tensor};
use twig_stats::rng::Rng;

/// A sequential stack of layers.
///
/// `Mlp` is the building block for the paper's networks: the shared
/// representation trunk, per-agent state-value heads and per-branch
/// advantage heads of the multi-agent BDQ are each an `Mlp`, wired together
/// manually by `twig-rl` so gradient rescaling can be applied between them.
///
/// The layers hold parameters, gradients and dropout RNG streams; what a
/// pass computes on the way lives in a [`Tape`]. Each network owns one for
/// [`forward_scratch`](Self::forward_scratch) and its siblings, and
/// [`on`](Self::on) runs the same passes on a caller's tape, which is how
/// many networks share one set of activation buffers.
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
/// let out = net.forward(&Tensor::zeros(3, 4), false);
/// assert_eq!((out.rows(), out.cols()), (3, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mlp {
    layers: Vec<MlpLayer>,
    // Working memory of the passes run through `forward_scratch` and its
    // siblings; empty for a network that only ever runs `on` another tape.
    // Never holds state the network depends on between a backward pass and
    // the next forward.
    tape: Tape,
}

/// The concrete layer kinds an [`Mlp`] can hold.
#[derive(Debug, Clone)]
enum MlpLayer {
    // Boxed: a `Dense` (weights and gradients) is several times the size of
    // the other two variants.
    Dense(Box<Dense>),
    Relu(Relu),
    Dropout(Dropout),
}

impl MlpLayer {
    /// Stateful forward: leaves in `slot` what the layer's backward needs.
    /// `train` enables training-only behaviour (dropout).
    fn forward_into(&mut self, input: &Tensor, train: bool, slot: &mut Slot, out: &mut Tensor) {
        match self {
            MlpLayer::Dense(l) => l.forward_into(input, slot, out),
            MlpLayer::Relu(l) => l.forward_into(input, slot, out),
            MlpLayer::Dropout(l) => l.forward_into(input, train, slot, out),
        }
    }

    /// Evaluation forward: the values of `forward_into` with `train =
    /// false`, touching neither a slot nor a dropout RNG stream.
    fn forward_batch_into(&self, input: &Tensor, out: &mut Tensor) {
        match self {
            MlpLayer::Dense(l) => l.forward_batch_into(input, out),
            MlpLayer::Relu(l) => l.forward_batch_into(input, out),
            MlpLayer::Dropout(l) => l.forward_batch_into(input, out),
        }
    }

    /// Backward from what the last stateful forward left in `slot`:
    /// accumulates parameter gradients, writes the input gradient.
    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        slot: &Slot,
        products: &mut Products,
        grad_input: &mut Tensor,
    ) {
        match self {
            MlpLayer::Dense(l) => {
                l.backward_cols_into(grad_output, l.in_dim(), slot, products, grad_input)
            }
            MlpLayer::Relu(l) => l.backward_into(grad_output, slot, grad_input),
            MlpLayer::Dropout(l) => l.backward_into(grad_output, slot, grad_input),
        }
    }
}

const NO_FIRST_DENSE: &str = "the network must start with a dense layer";
const NO_FORWARD: &str = "backward called before forward";

/// The first layer, which the prefix forwards and the column-limited
/// backward need to be dense, and the layers after it.
fn split_first_dense(layers: &mut [MlpLayer]) -> (&mut Dense, &mut [MlpLayer]) {
    match layers.split_first_mut() {
        Some((MlpLayer::Dense(first), rest)) => (first, rest),
        _ => panic!("{NO_FIRST_DENSE}"),
    }
}

/// Stateful forwards of `layers` from the activation in `cur`, ping-ponging
/// with `next`; returns whichever holds the last layer's output.
fn forward_rest<'t>(
    layers: &mut [MlpLayer],
    slots: &mut [Slot],
    train: bool,
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> &'t Tensor {
    for (layer, slot) in layers.iter_mut().zip(slots) {
        layer.forward_into(cur, train, slot, next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// [`forward_rest`] through the evaluation forwards.
fn forward_batch_rest<'t>(
    layers: &[MlpLayer],
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> &'t Tensor {
    for layer in layers {
        layer.forward_batch_into(cur, next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Backward through `layers`, last to first, from the gradient in `cur`;
/// returns the buffer holding the first layer's input gradient and the free
/// one.
fn backward_rest<'t>(
    layers: &mut [MlpLayer],
    slots: &[Slot],
    products: &mut Products,
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> (&'t mut Tensor, &'t mut Tensor) {
    for (layer, slot) in layers.iter_mut().zip(slots).rev() {
        layer.backward_into(cur, slot, products, next);
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, next)
}

/// One network's layers about to run a pass on one [`Tape`]: what
/// [`Mlp::on`] returns. Each method is a whole pass and consumes the handle;
/// the tensor it returns lives in the tape until the next pass on it, so
/// copy out anything that must survive.
#[derive(Debug)]
pub struct Pass<'a> {
    layers: &'a mut [MlpLayer],
    tape: &'a mut Tape,
}

impl<'a> Pass<'a> {
    /// Forward pass through all layers: after warm-up no allocation occurs.
    /// Leaves in the tape what [`backward_scratch`](Self::backward_scratch)
    /// needs; `train` enables dropout.
    pub fn forward_scratch(self, input: &Tensor, train: bool) -> &'a Tensor {
        let Pass { layers, tape } = self;
        tape.reserve_slots(layers.len());
        let Tape {
            slots, ping, pong, ..
        } = tape;
        // The first layer reads the caller's tensor where it lies.
        let Some((first, rest)) = layers.split_first_mut() else {
            ping.copy_from(input);
            return ping;
        };
        first.forward_into(input, train, &mut slots[0], ping);
        forward_rest(rest, &mut slots[1..], train, ping, pong)
    }

    /// Evaluation-only forward pass: writes the ping-pong buffers and
    /// nothing else — no slot, no dropout RNG draw. Values are bit-identical
    /// to [`forward_scratch`](Self::forward_scratch) with `train = false`.
    ///
    /// This is the batched-inference entry point: because all layer and slot
    /// state stays untouched, a network whose weights are shared across K
    /// agents can evaluate a stacked `K·B`-row matrix in one register-tiled
    /// GEMM per dense layer (each row's sums keep their ascending-`k` order
    /// whatever tile the row lands in, so stacking changes no bits), and on
    /// a tape of its own it can do so between a stateful forward and its
    /// backward.
    pub fn forward_batch_scratch(self, input: &Tensor) -> &'a Tensor {
        let Tape { ping, pong, .. } = self.tape;
        // The first layer reads the caller's tensor in place: a K·B-row
        // batch is never copied into a scratch buffer.
        let Some((first, rest)) = self.layers.split_first() else {
            ping.copy_from(input);
            return ping;
        };
        first.forward_batch_into(input, ping);
        forward_batch_rest(rest, ping, pong)
    }

    /// [`forward_batch_scratch`](Self::forward_batch_scratch) on the rows
    /// `[shared[r mod B] | own[r]]`, bit for bit, given `prefix =
    /// prefix_into(shared)` (`B` rows, see [`Mlp::prefix_into`]) and `own`
    /// holding the trailing input columns of a whole number of `B`-row
    /// groups. Stateless like every batch forward.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer and the
    /// shapes add up to it.
    pub fn forward_batch_from_prefix_scratch(self, prefix: &Tensor, own: &Tensor) -> &'a Tensor {
        let Tape { ping, pong, .. } = self.tape;
        let (first, rest) = split_first_dense(self.layers);
        first.forward_batch_from_prefix_into(prefix, own, ping);
        forward_batch_rest(rest, ping, pong)
    }

    /// [`forward_scratch`](Self::forward_scratch) on the input `[shared |
    /// own]`, bit for bit and with the same state afterwards (input kept for
    /// the weight gradient, ReLU masks, dropout draws), given `prefix =
    /// prefix_into(shared)`.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer and the
    /// shapes add up to it.
    pub fn forward_from_prefix_scratch(
        self,
        prefix: &Tensor,
        shared: &Tensor,
        own: &Tensor,
        train: bool,
    ) -> &'a Tensor {
        let Pass { layers, tape } = self;
        tape.reserve_slots(layers.len());
        let Tape {
            slots, ping, pong, ..
        } = tape;
        let (first, rest) = split_first_dense(layers);
        first.forward_from_prefix_into(prefix, shared, own, &mut slots[0], ping);
        forward_rest(rest, &mut slots[1..], train, ping, pong)
    }

    /// Backward pass, accumulating parameter gradients; returns the gradient
    /// with respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run on this tape, or if the last one
    /// had another batch size or another network's shapes.
    pub fn backward_scratch(self, grad_output: &Tensor) -> &'a Tensor {
        let Pass { layers, tape } = self;
        let Tape {
            slots,
            ping,
            pong,
            products,
        } = tape;
        // As in the forward pass: the last layer reads the caller's gradient
        // in place.
        let Some((last, rest)) = layers.split_last_mut() else {
            ping.copy_from(grad_output);
            return ping;
        };
        let slots = slots.get(..=rest.len()).expect(NO_FORWARD);
        last.backward_into(grad_output, &slots[rest.len()], products, ping);
        backward_rest(rest, &slots[..rest.len()], products, ping, pong).0
    }

    /// [`backward_scratch`](Self::backward_scratch) returning only the first
    /// `cols` columns of the input gradient (`B × cols`, the same bits) and
    /// never computing the rest: `cols = 0` for a network fed data, the
    /// width of the upstream activations for a head fed `[upstream | data]`.
    /// Parameter gradients accumulate exactly as in the full pass.
    ///
    /// # Panics
    ///
    /// As [`backward_scratch`](Self::backward_scratch); also unless the
    /// network starts with a [`Dense`] layer at least `cols` wide.
    pub fn backward_cols_scratch(self, grad_output: &Tensor, cols: usize) -> &'a Tensor {
        let Pass { layers, tape } = self;
        let Tape {
            slots,
            ping,
            pong,
            products,
        } = tape;
        let (first, rest) = split_first_dense(layers);
        let slots = slots.get(..=rest.len()).expect(NO_FORWARD);
        let Some((last, middle)) = rest.split_last_mut() else {
            first.backward_cols_into(grad_output, cols, &slots[0], products, ping);
            return ping;
        };
        last.backward_into(grad_output, &slots[middle.len() + 1], products, ping);
        let (grad, free) = backward_rest(middle, &slots[1..=middle.len()], products, ping, pong);
        first.backward_cols_into(grad, cols, &slots[0], products, free);
        free
    }
}

/// Types that can be pushed onto an [`Mlp`].
///
/// Implemented for [`Dense`], [`Relu`] and [`Dropout`]; this trait exists
/// only so [`Mlp::push`] can accept each concrete layer type.
pub trait IntoMlpLayer {
    /// Converts the layer into the internal representation.
    fn into_mlp_layer(self) -> MlpLayerToken;
}

/// Opaque token wrapping a layer for [`Mlp::push`].
pub struct MlpLayerToken(MlpLayer);

impl IntoMlpLayer for Dense {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(MlpLayer::Dense(Box::new(self)))
    }
}

impl IntoMlpLayer for Relu {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(MlpLayer::Relu(self))
    }
}

impl IntoMlpLayer for Dropout {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(MlpLayer::Dropout(self))
    }
}

impl Mlp {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push<L: IntoMlpLayer>(mut self, layer: L) -> Self {
        self.layers.push(layer.into_mlp_layer().0);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// This network's layers about to run one pass on `tape` instead of the
    /// network's own — the one way to share working memory between
    /// networks. See [`Tape`] for when that is sound.
    pub fn on<'a>(&'a mut self, tape: &'a mut Tape) -> Pass<'a> {
        Pass {
            layers: &mut self.layers,
            tape,
        }
    }

    /// [`on`](Self::on) the network's own tape.
    fn own(&mut self) -> Pass<'_> {
        Pass {
            layers: &mut self.layers,
            tape: &mut self.tape,
        }
    }

    /// Forward pass through all layers.
    ///
    /// Delegates to [`forward_scratch`](Self::forward_scratch) and clones
    /// the result, so both paths compute bit-identical values.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_scratch(input, train).clone()
    }

    /// [`Pass::forward_scratch`] on the network's own tape. The returned
    /// reference is valid until the next call on this network; it is
    /// overwritten by subsequent `forward_scratch`/`backward_scratch` calls,
    /// so copy out anything that must survive.
    pub fn forward_scratch(&mut self, input: &Tensor, train: bool) -> &Tensor {
        self.own().forward_scratch(input, train)
    }

    /// [`Pass::forward_batch_scratch`] on the network's own tape.
    pub fn forward_batch_scratch(&mut self, input: &Tensor) -> &Tensor {
        self.own().forward_batch_scratch(input)
    }

    /// [`forward_batch_scratch`](Self::forward_batch_scratch) copied into a
    /// caller-owned tensor (allocation-free once `out` has capacity).
    pub fn forward_batch_into(&mut self, input: &Tensor, out: &mut Tensor) {
        out.copy_from(self.forward_batch_scratch(input));
    }

    /// The first (dense) layer's product over the leading `shared.cols()`
    /// input columns, `shared · W[..shared.cols()]`, no bias. Input rows that
    /// agree on those columns — `K` agents' `[trunk_out | own state]` — then
    /// share one `prefix` in
    /// [`forward_batch_from_prefix_scratch`](Self::forward_batch_from_prefix_scratch)
    /// and [`forward_from_prefix_scratch`](Self::forward_from_prefix_scratch)
    /// instead of each multiplying the same columns through again. Weights
    /// must not change between the prefix and its use.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer at least
    /// `shared.cols()` wide.
    pub fn prefix_into(&self, shared: &Tensor, out: &mut Tensor) {
        match self.layers.first() {
            Some(MlpLayer::Dense(first)) => first.prefix_into(shared, out),
            _ => panic!("{NO_FIRST_DENSE}"),
        }
    }

    /// [`Pass::forward_batch_from_prefix_scratch`] on the network's own tape.
    pub fn forward_batch_from_prefix_scratch(&mut self, prefix: &Tensor, own: &Tensor) -> &Tensor {
        self.own().forward_batch_from_prefix_scratch(prefix, own)
    }

    /// [`Pass::forward_from_prefix_scratch`] on the network's own tape.
    pub fn forward_from_prefix_scratch(
        &mut self,
        prefix: &Tensor,
        shared: &Tensor,
        own: &Tensor,
        train: bool,
    ) -> &Tensor {
        self.own()
            .forward_from_prefix_scratch(prefix, shared, own, train)
    }

    /// Snapshots this network into a fixed-point inference variant
    /// ([`crate::QuantizedMlp`]): i16 weights, i32 accumulation, f32 bias
    /// and activations. `Dense` layers are quantized, `Relu` is kept, and
    /// `Dropout` is dropped (it is the identity at evaluation). The snapshot
    /// does not track later weight updates. Nothing in the control loop
    /// calls it: it serves only the `nn.quant_forward_us` and
    /// `rl.select_quantized_p50_us` ledger probes, and a later ledger change
    /// retires it together with them.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when a dense layer is too wide for
    /// the i32 accumulator headroom (`in_dim > 8192`).
    pub fn quantize(&self) -> Result<crate::QuantizedMlp, NnError> {
        let mut q = crate::QuantizedMlp::new();
        for layer in &self.layers {
            match layer {
                MlpLayer::Dense(d) => q.push_dense(d)?,
                MlpLayer::Relu(_) => q.push_relu(),
                MlpLayer::Dropout(_) => {}
            }
        }
        Ok(q)
    }

    /// Backward pass, accumulating parameter gradients; returns the gradient
    /// with respect to the network input.
    ///
    /// Delegates to [`backward_scratch`](Self::backward_scratch) and clones
    /// the result, so both paths compute bit-identical values.
    ///
    /// # Panics
    ///
    /// Panics if called before [`forward`](Self::forward).
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_scratch(grad_output).clone()
    }

    /// [`Pass::backward_scratch`] on the network's own tape; the returned
    /// input gradient lives until the next call on this network.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    pub fn backward_scratch(&mut self, grad_output: &Tensor) -> &Tensor {
        self.own().backward_scratch(grad_output)
    }

    /// [`Pass::backward_cols_scratch`] on the network's own tape.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass or unless the network starts
    /// with a [`Dense`] layer at least `cols` wide.
    pub fn backward_cols_scratch(&mut self, grad_output: &Tensor, cols: usize) -> &Tensor {
        self.own().backward_cols_scratch(grad_output, cols)
    }

    fn denses(&self) -> impl Iterator<Item = &Dense> {
        self.layers.iter().filter_map(|l| match l {
            MlpLayer::Dense(d) => Some(d.as_ref()),
            _ => None,
        })
    }

    fn denses_mut(&mut self) -> impl Iterator<Item = &mut Dense> {
        self.layers.iter_mut().filter_map(|l| match l {
            MlpLayer::Dense(d) => Some(d.as_mut()),
            _ => None,
        })
    }

    /// Zeroes all accumulated gradients (allocating them on first use).
    pub fn zero_grads(&mut self) {
        self.denses_mut().for_each(Dense::zero_grads);
    }

    /// Applies the optimiser to every trainable layer. Parameter ids start
    /// at `0`; use [`apply_with_base`](Self::apply_with_base) when several
    /// networks share one optimiser.
    pub fn apply(&mut self, optim: &mut Adam) {
        self.apply_with_base(optim, 0);
    }

    /// Applies the optimiser using parameter ids starting at `base`;
    /// returns the next free id. Lets multiple `Mlp`s (trunk + heads) share
    /// a single [`Adam`] instance without id collisions. Each dense layer
    /// takes two ids, weights then bias — the order of
    /// [`parameter_lens`](Self::parameter_lens).
    pub fn apply_with_base(&mut self, optim: &mut Adam, base: usize) -> usize {
        self.denses_mut().fold(base, |id, d| d.apply(optim, id))
    }

    /// The length of every parameter tensor in the order
    /// [`apply_with_base`](Self::apply_with_base) hands out ids: per dense
    /// layer, weights then bias.
    pub fn parameter_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.denses()
            .flat_map(|d| [d.in_dim() * d.out_dim(), d.out_dim()])
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.denses().map(Dense::param_count).sum()
    }

    /// Heap bytes held, at allocated capacity: the layers (weights and,
    /// once a backward pass or `zero_grads` has run, gradients) and the
    /// network's own tape.
    pub fn heap_bytes(&self) -> usize {
        self.layers.capacity() * std::mem::size_of::<MlpLayer>()
            + self
                .denses()
                .map(|d| std::mem::size_of::<Dense>() + d.heap_bytes())
                .sum::<usize>()
            + self.tape.heap_bytes()
    }

    /// Squared L2 norm of all accumulated gradients.
    pub fn grad_sq_norm(&self) -> f32 {
        self.denses().map(Dense::grad_sq_norm).sum()
    }

    /// Scales all accumulated gradients, e.g. for global-norm clipping or
    /// the multi-agent BDQ's 1/K and 1/D rescaling.
    pub fn scale_grads(&mut self, factor: f32) {
        self.denses_mut().for_each(|d| d.scale_grads(factor));
    }

    /// Copies all weights from a network with an identical architecture
    /// (used for target-network synchronisation).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) -> Result<(), NnError> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "layer count {} vs {}",
                    self.layers.len(),
                    other.layers.len()
                ),
            });
        }
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            match (dst, src) {
                (MlpLayer::Dense(d), MlpLayer::Dense(s)) => d.copy_weights_from(s)?,
                (MlpLayer::Relu(_), MlpLayer::Relu(_)) => {}
                (MlpLayer::Dropout(_), MlpLayer::Dropout(_)) => {}
                _ => {
                    return Err(NnError::ShapeMismatch {
                        detail: "layer kind mismatch".into(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Re-initialises the weights of the last `Dense` layer — the transfer-
    /// learning move from Section IV ("removing the last layer of a trained
    /// network … and re-initialising it with random weights").
    ///
    /// Returns `true` if a dense layer was found and reset.
    pub fn reinitialize_last_dense<R: Rng>(&mut self, rng: &mut R) -> bool {
        for layer in self.layers.iter_mut().rev() {
            if let MlpLayer::Dense(d) = layer {
                d.reinitialize(rng);
                return true;
            }
        }
        false
    }

    /// Flattens all dense-layer weights into one vector (for tests and
    /// checkpoint-style persistence).
    pub fn export_weights(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            if let MlpLayer::Dense(d) = layer {
                out.extend_from_slice(d.weights().as_slice());
            }
        }
        out
    }

    /// Flattens every trainable parameter (weights *and* biases, in layer
    /// order) into one vector — the checkpoint format used by
    /// [`import_parameters`](Self::import_parameters).
    pub fn export_parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.export_parameters_into(&mut out);
        out
    }

    /// Like [`export_parameters`](Self::export_parameters) but writes into a
    /// caller-owned buffer (cleared first), so repeated snapshots reuse the
    /// buffer's capacity and stay allocation-free.
    pub fn export_parameters_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            if let MlpLayer::Dense(d) = layer {
                out.extend_from_slice(d.weights().as_slice());
                out.extend_from_slice(d.bias());
            }
        }
    }

    /// Restores every trainable parameter from a flat buffer produced by
    /// [`export_parameters`](Self::export_parameters) on a network with an
    /// identical architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the buffer length does not
    /// match this architecture.
    pub fn import_parameters(&mut self, params: &[f32]) -> Result<(), NnError> {
        if params.len() != self.param_count() {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{} parameters for a {}-parameter network",
                    params.len(),
                    self.param_count()
                ),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            if let MlpLayer::Dense(d) = layer {
                let wn = d.in_dim() * d.out_dim();
                let bn = d.out_dim();
                let weights = &params[offset..offset + wn];
                let bias = &params[offset + wn..offset + wn + bn];
                d.set_parameters(weights, bias)?;
                offset += wn + bn;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mse_loss;
    use twig_stats::rng::Xoshiro256;

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        Mlp::new()
            .push(Dense::new(2, 6, &mut rng))
            .push(Relu::new())
            .push(Dense::new(6, 1, &mut rng))
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerical gradient of loss wrt the input must match backward().
        let mut net = tiny_net(11);
        let x = Tensor::from_row(&[0.3, -0.7]);
        let target = Tensor::from_row(&[1.0]);

        let pred = net.forward(&x, false);
        let (_, dloss) = mse_loss(&pred, &target, None).unwrap();
        net.zero_grads();
        let dx = net.backward(&dloss);

        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = mse_loss(&net.forward(&xp, false), &target, None).unwrap().0;
            let lm = mse_loss(&net.forward(&xm, false), &target, None).unwrap().0;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "input {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn target_network_sync() {
        let mut online = tiny_net(1);
        let mut target = tiny_net(2);
        assert_ne!(online.export_weights(), target.export_weights());
        target.copy_weights_from(&online).unwrap();
        assert_eq!(online.export_weights(), target.export_weights());
        // Diverge online again; target must be unaffected.
        let x = Tensor::from_row(&[1.0, 1.0]);
        let t = Tensor::from_row(&[0.0]);
        let pred = online.forward(&x, true);
        let (_, g) = mse_loss(&pred, &t, None).unwrap();
        online.zero_grads();
        online.backward(&g);
        let mut adam = Adam::new(0.1);
        online.apply(&mut adam);
        assert_ne!(online.export_weights(), target.export_weights());
    }

    #[test]
    fn copy_weights_rejects_architecture_mismatch() {
        let mut a = tiny_net(1);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let b = Mlp::new().push(Dense::new(2, 6, &mut rng));
        assert!(a.copy_weights_from(&b).is_err());
    }

    #[test]
    fn reinitialize_last_dense_changes_only_last() {
        let mut net = tiny_net(3);
        let before = net.export_weights();
        let mut rng = Xoshiro256::seed_from_u64(99);
        assert!(net.reinitialize_last_dense(&mut rng));
        let after = net.export_weights();
        // First dense layer (2*6 = 12 weights) unchanged.
        assert_eq!(&before[..12], &after[..12]);
        // Last dense layer (6 weights) changed.
        assert_ne!(&before[12..], &after[12..]);
    }

    #[test]
    fn scale_grads_scales_norm() {
        let mut net = tiny_net(4);
        let x = Tensor::from_row(&[1.0, -1.0]);
        let t = Tensor::from_row(&[5.0]);
        let pred = net.forward(&x, true);
        let (_, g) = mse_loss(&pred, &t, None).unwrap();
        net.zero_grads();
        net.backward(&g);
        let norm = net.grad_sq_norm();
        assert!(norm > 0.0);
        net.scale_grads(0.5);
        assert!((net.grad_sq_norm() - 0.25 * norm).abs() < 1e-4 * norm);
    }

    #[test]
    fn param_count_counts_dense_only() {
        let net = tiny_net(0);
        assert_eq!(net.param_count(), 2 * 6 + 6 + 6 + 1);
    }

    #[test]
    fn parameter_roundtrip_including_biases() {
        let mut a = tiny_net(7);
        // Train a step so biases become nonzero.
        let x = Tensor::from_row(&[0.5, -0.5]);
        let t = Tensor::from_row(&[2.0]);
        let pred = a.forward(&x, true);
        let (_, g) = mse_loss(&pred, &t, None).unwrap();
        a.zero_grads();
        a.backward(&g);
        let mut adam = Adam::new(0.1);
        a.apply(&mut adam);

        let params = a.export_parameters();
        assert_eq!(params.len(), a.param_count());
        let mut b = tiny_net(8);
        assert_ne!(b.forward(&x, false), a.forward(&x, false));
        b.import_parameters(&params).unwrap();
        assert_eq!(b.forward(&x, false), a.forward(&x, false));
        // Wrong sizes rejected.
        assert!(b.import_parameters(&params[1..]).is_err());
    }

    #[test]
    fn export_parameters_superset_of_weights() {
        let net = tiny_net(9);
        // Parameters = weights + biases.
        assert_eq!(
            net.export_parameters().len(),
            net.export_weights().len() + 6 + 1
        );
    }

    #[test]
    fn scratch_and_allocating_paths_bit_identical() {
        // Two clones of one net (including dropout with its own RNG stream):
        // one trained through the allocating forward/backward, the other
        // through forward_scratch/backward_scratch. Every prediction and
        // every parameter must stay bit-identical — this is the pre- vs
        // post-scratch-buffer determinism proof at the unit level.
        let mut rng = Xoshiro256::seed_from_u64(77);
        let base = Mlp::new()
            .push(Dense::new(3, 8, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.3, 9))
            .push(Dense::new(8, 2, &mut rng));
        let mut alloc_net = base.clone();
        let mut scratch_net = base;
        let mut adam_a = Adam::new(0.01);
        let mut adam_s = Adam::new(0.01);
        let x = Tensor::from_rows(&[vec![0.2, -0.4, 1.0], vec![-1.0, 0.5, 0.1]]).unwrap();
        let t = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        for _ in 0..5 {
            let pred_a = alloc_net.forward(&x, true);
            let pred_s = scratch_net.forward_scratch(&x, true).clone();
            assert_eq!(pred_a, pred_s);
            let (_, grad) = mse_loss(&pred_a, &t, None).unwrap();
            alloc_net.zero_grads();
            alloc_net.backward(&grad);
            alloc_net.apply(&mut adam_a);
            scratch_net.zero_grads();
            scratch_net.backward_scratch(&grad);
            scratch_net.apply(&mut adam_s);
            let pa = alloc_net.export_parameters();
            let ps = scratch_net.export_parameters();
            for (a, s) in pa.iter().zip(&ps) {
                assert_eq!(a.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn batch_path_bit_identical_to_eval_forward_and_stateless() {
        // The batched eval path must (a) produce bit-identical values to the
        // mutable eval-mode forward, including through dropout layers, and
        // (b) leave layer state untouched: batch forwards interleaved between
        // a train-mode forward and its backward change neither the gradients
        // nor the next train-mode dropout masks. A gradient step resumed
        // across decisions rests on exactly this.
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut net = Mlp::new()
            .push(Dense::new(3, 8, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.4, 17))
            .push(Dense::new(8, 2, &mut rng));
        let x = Tensor::from_rows(&[
            vec![0.2, -0.4, 1.0],
            vec![-1.0, 0.5, 0.1],
            vec![0.0, 0.0, -0.0],
        ])
        .unwrap();
        let eval = net.forward(&x, false);
        let batch = net.forward_batch_scratch(&x).clone();
        for (a, b) in eval.as_slice().iter().zip(batch.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut out = Tensor::zeros(0, 0);
        net.forward_batch_into(&x, &mut out);
        assert_eq!(out, batch);

        let mut twin = net.clone();
        let other = Tensor::from_rows(&[vec![9.0, -9.0, 3.0]]).unwrap();
        let grad = Tensor::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.25], vec![-2.0, 0.0]]).unwrap();
        for _ in 0..2 {
            let pred = net.forward(&x, true);
            assert_eq!(twin.forward(&x, true), pred);
            for _ in 0..5 {
                let _ = net.forward_batch_scratch(&other);
            }
            net.zero_grads();
            twin.zero_grads();
            assert_eq!(net.backward(&grad), twin.backward(&grad));
            assert_eq!(net.grad_sq_norm().to_bits(), twin.grad_sq_norm().to_bits());
        }
    }

    #[test]
    fn prefix_paths_bit_identical_to_the_concatenated_paths() {
        // A head as twig-rl builds it, fed `[shared | own]`. One twin runs
        // the concatenated input through the plain entry points; the other
        // gets the shared columns' first-layer product once and continues
        // from it, and asks only for the shared columns' input gradient.
        // Over several optimiser steps every activation, every parameter
        // (so every dW and db) and every dropout draw must stay equal.
        let (shared_dim, own_dim, batch, groups) = (6, 3, 5, 3);
        let mut rng = Xoshiro256::seed_from_u64(31);
        let base = Mlp::new()
            .push(Dense::new(shared_dim + own_dim, 8, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.3, 4))
            .push(Dense::new(8, 3, &mut rng));
        let mut full = base.clone();
        let mut split = base;
        let mut adam_f = Adam::new(0.01);
        let mut adam_s = Adam::new(0.01);
        let mut random = |r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            Tensor::from_vec(r, c, data).unwrap()
        };
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let mut prefix = Tensor::zeros(0, 0);
        let mut shared_rep = Tensor::zeros(0, 0);
        for _ in 0..4 {
            let shared = random(batch, shared_dim);
            split.prefix_into(&shared, &mut prefix);

            // Eval: `groups` row groups share the prefix; stateless.
            let own_all = random(groups * batch, own_dim);
            shared_rep.repeat_rows_from(&shared, groups);
            let stacked = shared_rep.concat_cols(&own_all).unwrap();
            let want = full.forward_batch_scratch(&stacked).clone();
            let got = split.forward_batch_from_prefix_scratch(&prefix, &own_all);
            assert_eq!(bits(got), bits(&want));

            // Train: two agents' passes accumulate into the same gradients.
            full.zero_grads();
            split.zero_grads();
            for _ in 0..2 {
                let own = random(batch, own_dim);
                let input = shared.concat_cols(&own).unwrap();
                let want = full.forward_scratch(&input, true).clone();
                let got = split.forward_from_prefix_scratch(&prefix, &shared, &own, true);
                assert_eq!(bits(got), bits(&want));
                let grad = random(batch, 3);
                let want_dx = full.backward_scratch(&grad).split_cols(shared_dim).0;
                let got_dx = split.backward_cols_scratch(&grad, shared_dim);
                assert_eq!(bits(got_dx), bits(&want_dx));
            }
            assert_eq!(
                full.grad_sq_norm().to_bits(),
                split.grad_sq_norm().to_bits()
            );
            full.apply(&mut adam_f);
            split.apply(&mut adam_s);
            assert_eq!(
                bits(&Tensor::from_row(&full.export_parameters())),
                bits(&Tensor::from_row(&split.export_parameters()))
            );
        }
        // No input gradient at all: the shape says so, the parameters'
        // gradients are still there.
        let x = random(batch, shared_dim + own_dim);
        split.zero_grads();
        split.forward_scratch(&x, true);
        let none = split.backward_cols_scratch(&random(batch, 3), 0);
        assert_eq!((none.rows(), none.cols()), (batch, 0));
        assert!(split.grad_sq_norm() > 0.0);
    }

    #[test]
    fn networks_sharing_a_tape_match_networks_on_their_own() {
        // The advantage heads' case: one architecture up to a last layer of
        // 5 or 3 outputs, dropout on, forward + backward in turn on ONE tape.
        // Outputs, input gradients and every accumulated gradient must equal
        // what the same networks compute on tapes of their own: whatever the
        // previous network left in a buffer is overwritten before it is read.
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut head = |out: usize, seed: u64| {
            Mlp::new()
                .push(Dense::new(7, 8, &mut rng))
                .push(Relu::new())
                .push(Dropout::new(0.3, seed))
                .push(Dense::new(8, out, &mut rng))
        };
        let mut shared = [head(5, 1), head(3, 2), head(5, 3)];
        let mut own = shared.clone();
        let mut tape = Tape::new();
        let mut random = |r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            Tensor::from_vec(r, c, data).unwrap()
        };
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        for round in 0..6 {
            // The batch size changes too, so buffers shrink and grow.
            let batch = 4 + round % 3;
            let x = random(batch, 7);
            for (a, b) in shared.iter_mut().zip(&mut own) {
                let want = b.forward_scratch(&x, true).clone();
                assert_eq!(bits(a.on(&mut tape).forward_scratch(&x, true)), bits(&want));
                let grad = random(batch, want.cols());
                let want_dx = b.backward_cols_scratch(&grad, 4).clone();
                let got_dx = a.on(&mut tape).backward_cols_scratch(&grad, 4);
                assert_eq!(bits(got_dx), bits(&want_dx));
            }
        }
        for (a, b) in shared.iter().zip(&own) {
            for (da, db) in a.denses().zip(b.denses()) {
                let ((wa, ba), (wb, bb)) = (da.grads(), db.grads());
                assert!(wa.rows() > 0);
                assert_eq!(bits(wa), bits(wb));
                assert_eq!(bits(&Tensor::from_row(ba)), bits(&Tensor::from_row(bb)));
            }
            // Nothing ran on the sharing networks' own tapes.
            assert_eq!(a.tape.heap_bytes(), 0);
            assert!(b.tape.heap_bytes() > 0);
        }
    }

    #[test]
    fn backward_after_another_batch_size_panics_on_the_shape() {
        // A backward reads what the last stateful forward on the same tape
        // left there. If that was a pass of another batch size, the shapes
        // disagree and the existing checks fire: no stale row is ever read.
        type Finish = fn(Mlp) -> Mlp;
        let cases: [(&str, Finish); 3] = [
            ("dense backward shape", |net| net),
            ("relu gradient shape mismatch", |net| net.push(Relu::new())),
            ("dropout gradient shape mismatch", |net| {
                net.push(Dropout::new(0.5, 1))
            }),
        ];
        for (message, finish) in cases {
            let mut rng = Xoshiro256::seed_from_u64(3);
            let mut net = finish(Mlp::new().push(Dense::new(3, 4, &mut rng)));
            let mut tape = Tape::new();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.on(&mut tape)
                    .forward_scratch(&Tensor::zeros(5, 3), true);
                let mut twin = net.clone();
                twin.on(&mut tape)
                    .forward_scratch(&Tensor::zeros(2, 3), true);
                net.on(&mut tape).backward_scratch(&Tensor::zeros(5, 4));
            }));
            let text = panic_text(caught.expect_err("stale tape accepted"));
            assert!(text.contains(message), "{message}: got {text:?}");
        }
        // And on a tape nothing has run on.
        let mut net = tiny_net(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.on(&mut Tape::new())
                .backward_scratch(&Tensor::zeros(1, 1));
        }));
        let text = panic_text(caught.expect_err("empty tape accepted"));
        assert!(text.contains(NO_FORWARD), "got {text:?}");
    }

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|text| text.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    #[should_panic(expected = "must start with a dense layer")]
    fn limited_backward_needs_a_dense_first_layer() {
        let mut net = Mlp::new().push(Relu::new());
        let x = Tensor::from_row(&[1.0]);
        net.forward_scratch(&x, true);
        net.backward_cols_scratch(&x, 0);
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Mlp::new();
        assert!(net.is_empty());
        let x = Tensor::from_row(&[1.0, 2.0]);
        assert_eq!(net.forward(&x, true), x);
        assert_eq!(net.backward(&x), x);
    }
}
