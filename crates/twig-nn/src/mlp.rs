use crate::layer::{he_init, DenseAt};
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
/// Every parameter lives in one arena, [`parameters`](Self::parameters):
/// per dense layer in order, its weights (row-major `in × out`) and then its
/// bias. Gradients live in a second arena of the same layout, allocated by
/// the first backward pass, [`zero_grads`](Self::zero_grads) or
/// [`apply`](Self::apply) — a network nobody trains never has one. Layers
/// hold shapes, offsets and dropout RNG streams; what a pass computes on the
/// way lives in a [`Tape`]. Each network owns one for
/// [`forward_scratch`](Self::forward_scratch) and
/// [`backward_scratch`](Self::backward_scratch), [`on`](Self::on) runs
/// every stateful pass on a caller's tape instead, which is how many
/// networks share one set of activation buffers, and the evaluation forward
/// [`forward_batch`](Self::forward_batch) takes `&self` and a tape.
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
#[derive(Debug, Default)]
pub struct Mlp {
    layers: Vec<MlpLayer>,
    /// Per dense layer: weights, then bias.
    params: Vec<f32>,
    /// The gradients, laid out like `params`; empty until first needed.
    grads: Vec<f32>,
    // Working memory of the passes run through `forward_scratch` and
    // `backward_scratch`; empty for a network that only ever runs `on`
    // another tape.
    // Never holds state the network depends on between a backward pass and
    // the next forward.
    tape: Tape,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.clone(),
            params: self.params.clone(),
            grads: self.grads.clone(),
            tape: self.tape.clone(),
        }
    }

    /// Copies layers, dropout streams, parameters and gradients into the
    /// buffers `self` has: a copy of a network of the same shape, whose own
    /// tape is as empty as the source's, is refreshed without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
        self.params.clone_from(&source.params);
        self.grads.clone_from(&source.grads);
        self.tape.clone_from(&source.tape);
    }
}

/// The concrete layer kinds an [`Mlp`] can hold.
#[derive(Debug, Clone)]
enum MlpLayer {
    Dense(DenseAt),
    Relu(Relu),
    Dropout(Dropout),
}

impl MlpLayer {
    /// Stateful forward: leaves in `slot` what the layer's backward needs.
    /// `train` enables training-only behaviour (dropout).
    fn forward_into(
        &mut self,
        params: &[f32],
        (input, train): (&Tensor, bool),
        slot: &mut Slot,
        out: &mut Tensor,
    ) {
        match self {
            MlpLayer::Dense(l) => {
                l.forward_batch_into(params, input, out);
                slot.input.copy_from(input);
            }
            MlpLayer::Relu(l) => l.forward_into(input, slot, out),
            MlpLayer::Dropout(l) => l.forward_into(input, train, slot, out),
        }
    }

    /// Evaluation forward: the values of `forward_into` with `train =
    /// false`, touching neither a slot nor a dropout RNG stream. Returns
    /// `false`, writing nothing, for a dropout layer: at evaluation it is
    /// the identity, so the pass skips it instead of copying.
    fn forward_batch_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor) -> bool {
        match self {
            MlpLayer::Dense(l) => l.forward_batch_into(params, input, out),
            MlpLayer::Relu(l) => l.forward_batch_into(input, out),
            MlpLayer::Dropout(_) => return false,
        }
        true
    }

    /// Backward from what the last stateful forward left in `slot`:
    /// accumulates parameter gradients, writes the input gradient.
    fn backward_into(
        &self,
        arenas: (&[f32], &mut [f32]),
        grad_output: &Tensor,
        slot: &Slot,
        products: &mut Products,
        grad_input: &mut Tensor,
    ) {
        match self {
            MlpLayer::Dense(l) => {
                l.backward_cols_into(arenas, grad_output, l.in_dim, slot, products, grad_input)
            }
            MlpLayer::Relu(l) => l.backward_into(grad_output, slot, grad_input),
            MlpLayer::Dropout(l) => l.backward_into(grad_output, slot, grad_input),
        }
    }
}

const NO_FIRST_DENSE: &str = "the network must start with a dense layer";
const NO_FORWARD: &str = "backward called before forward";

/// The first layer, which the prefix forwards and the column-limited
/// backward need to be dense; the layers after it are `layers[1..]`.
fn first_dense(layers: &[MlpLayer]) -> DenseAt {
    match layers.first() {
        Some(MlpLayer::Dense(first)) => *first,
        _ => panic!("{NO_FIRST_DENSE}"),
    }
}

/// Stateful forwards of `layers` from the activation in `cur`, ping-ponging
/// with `next`; returns whichever holds the last layer's output.
fn forward_rest<'t>(
    (layers, params): (&mut [MlpLayer], &[f32]),
    slots: &mut [Slot],
    train: bool,
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> &'t Tensor {
    for (layer, slot) in layers.iter_mut().zip(slots) {
        layer.forward_into(params, (cur, train), slot, next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// [`forward_rest`] through the evaluation forwards, dropout skipped.
fn forward_batch_rest<'t>(
    (layers, params): (&[MlpLayer], &[f32]),
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> &'t Tensor {
    for layer in layers {
        if layer.forward_batch_into(params, cur, next) {
            std::mem::swap(&mut cur, &mut next);
        }
    }
    cur
}

/// Backward through `layers`, last to first, from the gradient in `cur`;
/// returns the buffer holding the first layer's input gradient and the free
/// one.
fn backward_rest<'t>(
    (layers, params, grads): (&[MlpLayer], &[f32], &mut [f32]),
    slots: &[Slot],
    products: &mut Products,
    mut cur: &'t mut Tensor,
    mut next: &'t mut Tensor,
) -> (&'t mut Tensor, &'t mut Tensor) {
    for (layer, slot) in layers.iter().zip(slots).rev() {
        layer.backward_into((params, &mut *grads), cur, slot, products, next);
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, next)
}

/// `grads` as the gradient arena of `params`, allocated (zeros) if need be.
fn ensure_grads<'g>(grads: &'g mut Vec<f32>, params: &[f32]) -> &'g mut [f32] {
    if grads.len() != params.len() {
        grads.clear();
        grads.resize(params.len(), 0.0);
    }
    grads
}

/// One network's layers about to run a pass on one [`Tape`]: what
/// [`Mlp::on`] returns. Each method is a whole pass and consumes the handle;
/// the tensor it returns lives in the tape until the next pass on it, so
/// copy out anything that must survive.
#[derive(Debug)]
pub struct Pass<'a> {
    layers: &'a mut [MlpLayer],
    params: &'a [f32],
    grads: &'a mut Vec<f32>,
    tape: &'a mut Tape,
}

impl<'a> Pass<'a> {
    /// Forward pass through all layers: after warm-up no allocation occurs.
    /// Leaves in the tape what [`backward_scratch`](Self::backward_scratch)
    /// needs; `train` enables dropout.
    pub fn forward_scratch(self, input: &Tensor, train: bool) -> &'a Tensor {
        let (layers, params, tape) = (self.layers, self.params, self.tape);
        tape.reserve_slots(layers.len());
        let Tape {
            slots, ping, pong, ..
        } = tape;
        // The first layer reads the caller's tensor where it lies.
        let Some((first, rest)) = layers.split_first_mut() else {
            ping.copy_from(input);
            return ping;
        };
        first.forward_into(params, (input, train), &mut slots[0], ping);
        forward_rest((rest, params), &mut slots[1..], train, ping, pong)
    }

    /// [`forward_scratch`](Self::forward_scratch) on the input `[shared |
    /// own]`, bit for bit, given `prefix = prefix_into(shared)`. Every
    /// later layer keeps what its backward needs (ReLU masks, dropout
    /// draws), but the first keeps only `own`: its backward is
    /// [`backward_from_prefix_scratch`](Self::backward_from_prefix_scratch),
    /// which leaves the shared columns' part to
    /// [`backward_prefix_scratch`](Self::backward_prefix_scratch).
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer and the
    /// shapes add up to it.
    pub fn forward_from_prefix_scratch(
        self,
        prefix: &Tensor,
        own: &Tensor,
        train: bool,
    ) -> &'a Tensor {
        let (layers, params, tape) = (self.layers, self.params, self.tape);
        tape.reserve_slots(layers.len());
        let Tape {
            slots, ping, pong, ..
        } = tape;
        let first = first_dense(layers);
        first.forward_batch_from_prefix_into(params, prefix, own, ping);
        slots[0].input.copy_from(own);
        forward_rest(
            (&mut layers[1..], params),
            &mut slots[1..],
            train,
            ping,
            pong,
        )
    }

    /// Backward pass, accumulating parameter gradients; returns the gradient
    /// with respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run on this tape, or if the last one
    /// had another batch size or another network's shapes.
    pub fn backward_scratch(self, grad_output: &Tensor) -> &'a Tensor {
        let (layers, params, grads, tape) = (self.layers, self.params, self.grads, self.tape);
        let Tape {
            slots,
            ping,
            pong,
            products,
        } = tape;
        // As in the forward pass: the last layer reads the caller's gradient
        // in place.
        let Some((last, rest)) = layers.split_last() else {
            ping.copy_from(grad_output);
            return ping;
        };
        let n = rest.len();
        let slots = slots.get(..=n).expect(NO_FORWARD);
        let grads = ensure_grads(grads, params);
        last.backward_into(
            (params, &mut *grads),
            grad_output,
            &slots[n],
            products,
            ping,
        );
        backward_rest((rest, params, grads), &slots[..n], products, ping, pong).0
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
        let (layers, params, grads, tape) = (self.layers, self.params, self.grads, self.tape);
        let Tape {
            slots,
            ping,
            pong,
            products,
        } = tape;
        let (first, rest) = (first_dense(layers), &layers[1..]);
        let slots = slots.get(..=rest.len()).expect(NO_FORWARD);
        let grads = ensure_grads(grads, params);
        let Some((last, middle)) = rest.split_last() else {
            first.backward_cols_into(
                (params, grads),
                grad_output,
                cols,
                &slots[0],
                products,
                ping,
            );
            return ping;
        };
        let at = middle.len() + 1;
        last.backward_into(
            (params, &mut *grads),
            grad_output,
            &slots[at],
            products,
            ping,
        );
        let arenas = (middle, params, &mut *grads);
        let (grad, free) = backward_rest(arenas, &slots[1..at], products, ping, pong);
        first.backward_cols_into((params, grads), grad, cols, &slots[0], products, free);
        free
    }

    /// The backward of [`forward_from_prefix_scratch`](Self::forward_from_prefix_scratch)
    /// down to the first dense layer's output: every later layer's
    /// parameters accumulate gradients, and so do the first layer's bias and
    /// its weight rows of the `own` columns. Returns the gradient at the
    /// first layer's output (`B × out_dim`) and computes no input gradient.
    ///
    /// What is left — the first layer's weight rows of the shared columns
    /// and the gradient flowing back into them — is linear in that returned
    /// gradient. So row groups that share their leading input columns (the
    /// `K` agents' `[trunk_out | own state]` through a shared head) add
    /// their returned gradients up and finish once with
    /// [`backward_prefix_scratch`](Self::backward_prefix_scratch).
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer, if no
    /// forward pass has run on this tape, or if the last one had another
    /// batch size or another network's shapes.
    pub fn backward_from_prefix_scratch(self, grad_output: &Tensor) -> &'a Tensor {
        let (layers, params, grads, tape) = (self.layers, self.params, self.grads, self.tape);
        let Tape {
            slots,
            ping,
            pong,
            products,
        } = tape;
        let (first, rest) = (first_dense(layers), &layers[1..]);
        let slots = slots.get(..=rest.len()).expect(NO_FORWARD);
        let grads = ensure_grads(grads, params);
        ping.copy_from(grad_output);
        let arenas = (rest, params, &mut *grads);
        let (grad, _) = backward_rest(arenas, &slots[1..], products, ping, pong);
        first.backward_own_into(grads, grad, &slots[0], products);
        grad
    }

    /// The shared columns' part of the first dense layer's backward, for
    /// `grad` the sum of [`backward_from_prefix_scratch`](Self::backward_from_prefix_scratch)'s
    /// results over row groups whose input starts with `shared`: the weight
    /// rows of those columns accumulate `sharedᵀ · grad`, and the returned
    /// tensor is `grad · W[..shared.cols()]ᵀ` (`B × shared.cols()`), the
    /// gradient with respect to `shared`.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer at least
    /// `shared.cols()` wide whose output is `grad.cols()` wide.
    pub fn backward_prefix_scratch(self, shared: &Tensor, grad: &Tensor) -> &'a Tensor {
        let Tape { ping, products, .. } = self.tape;
        let first = first_dense(self.layers);
        let grads = ensure_grads(self.grads, self.params);
        first.backward_shared_into((self.params, grads), shared, grad, products, ping);
        ping
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
pub struct MlpLayerToken(Pending);

/// A layer on its way into an [`Mlp`]: a dense layer still owns the
/// parameters the push moves into the arena.
enum Pending {
    Dense(Dense),
    Other(MlpLayer),
}

impl IntoMlpLayer for Dense {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(Pending::Dense(self))
    }
}

impl IntoMlpLayer for Relu {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(Pending::Other(MlpLayer::Relu(self)))
    }
}

impl IntoMlpLayer for Dropout {
    fn into_mlp_layer(self) -> MlpLayerToken {
        MlpLayerToken(Pending::Other(MlpLayer::Dropout(self)))
    }
}

impl Mlp {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty network with room for `params` parameters: built with
    /// [`dense`](Self::dense), its arena is one exactly sized allocation
    /// when `params` sums [`dense_len`](Self::dense_len) over its layers.
    pub fn with_capacity(params: usize) -> Self {
        Mlp {
            params: Vec::with_capacity(params),
            ..Self::default()
        }
    }

    /// Appends a layer (builder style); a [`Dense`] layer's weights move in.
    pub fn push<L: IntoMlpLayer>(mut self, layer: L) -> Self {
        match layer.into_mlp_layer().0 {
            Pending::Dense(dense) => {
                let at = self.append_dense(dense.in_dim, dense.out_dim);
                self.params[at.range()].copy_from_slice(&dense.params);
            }
            Pending::Other(layer) => self.layers.push(layer),
        }
        self
    }

    /// `push(Dense::new(in_dim, out_dim, rng))` — the same draws — with the
    /// weights drawn straight into the arena.
    pub fn dense<R: Rng>(mut self, in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let at = self.append_dense(in_dim, out_dim);
        he_init(in_dim, &mut self.params[at.weights()], rng);
        self
    }

    /// The parameters a dense layer `in_dim → out_dim` holds in the arena.
    pub fn dense_len(in_dim: usize, out_dim: usize) -> usize {
        let at = DenseAt {
            in_dim,
            out_dim,
            offset: 0,
        };
        at.range().len()
    }

    /// A dense layer's place at the end of the arena, zero-filled.
    fn append_dense(&mut self, in_dim: usize, out_dim: usize) -> DenseAt {
        let at = DenseAt {
            in_dim,
            out_dim,
            offset: self.params.len(),
        };
        self.params.reserve_exact(at.range().len());
        self.params.resize(at.range().end, 0.0);
        self.layers.push(MlpLayer::Dense(at));
        at
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
            params: &self.params,
            grads: &mut self.grads,
            tape,
        }
    }

    /// [`on`](Self::on) with `weights`' parameters in place of this
    /// network's own: the pass reads those weights, and draws from (and
    /// advances) this network's dropout streams. A network that holds
    /// nothing but another's layers ([`copy_streams_from`](Self::copy_streams_from))
    /// thus runs a stateful pass of that network without a copy of its
    /// weights, and without touching it: another thread may read the
    /// weights meanwhile. A backward on the same handle would accumulate
    /// into this network's gradient arena.
    ///
    /// # Panics
    ///
    /// Panics unless both networks have the same layers and dense shapes.
    pub fn on_weights<'a>(&'a mut self, weights: &'a Mlp, tape: &'a mut Tape) -> Pass<'a> {
        assert!(
            self.layers.len() == weights.layers.len()
                && self.parameter_lens().eq(weights.parameter_lens()),
            "on_weights needs a network with the same layers"
        );
        Pass {
            layers: &mut self.layers,
            params: &weights.params,
            grads: &mut self.grads,
            tape,
        }
    }

    /// Makes this network's layers, their shapes and dropout streams, those
    /// of `other`, leaving parameters and gradients alone: the way a
    /// network's streams go to the carrier of [`on_weights`](Self::on_weights)
    /// and come back. Allocates only to hold more layers than ever before.
    pub fn copy_streams_from(&mut self, other: &Mlp) {
        self.layers.clone_from(&other.layers);
    }

    /// [`on`](Self::on) the network's own tape.
    fn own(&mut self) -> Pass<'_> {
        Pass {
            layers: &mut self.layers,
            params: &self.params,
            grads: &mut self.grads,
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

    /// The first (dense) layer's product over the leading `shared.cols()`
    /// input columns, `shared · W[..shared.cols()]`, no bias. Input rows that
    /// agree on those columns — `K` agents' `[trunk_out | own state]` — then
    /// share one `prefix` in [`forward_batch`](Self::forward_batch) and
    /// [`Pass::forward_from_prefix_scratch`] instead of each multiplying the
    /// same columns through again. Weights must not change between the
    /// prefix and its use.
    ///
    /// # Panics
    ///
    /// Panics unless the network starts with a [`Dense`] layer at least
    /// `shared.cols()` wide.
    pub fn prefix_into(&self, shared: &Tensor, out: &mut Tensor) {
        first_dense(&self.layers).prefix_into(&self.params, shared, out);
    }

    /// The evaluation forward, on `tape`: the values of
    /// [`forward_scratch`](Self::forward_scratch) with `train = false`, bit
    /// for bit. It reads the network and writes only the tape's ping-pong
    /// buffers — no slot, no dropout draw — so it needs no `&mut`: threads
    /// that each bring a tape can evaluate one network at once, and on a
    /// tape of its own it can run between a stateful forward and its
    /// backward.
    ///
    /// With `prefix = None`, `input` is the whole input. With `Some(prefix)`,
    /// the rows are `[shared[r mod B] | input[r]]` for `prefix =
    /// prefix_into(shared)` (`B` rows, see [`prefix_into`](Self::prefix_into))
    /// and `input` holding the trailing columns of a whole number of `B`-row
    /// groups.
    ///
    /// This is the batched-inference entry point: a network whose weights
    /// are shared across `K` agents evaluates a stacked `K·B`-row matrix in
    /// one register-tiled GEMM per dense layer (each row's sums keep their
    /// ascending-`k` order whatever tile the row lands in, so stacking
    /// changes no bits). The caller's tensor is read where it lies, never
    /// copied into the tape.
    ///
    /// # Panics
    ///
    /// With a prefix, panics unless the network starts with a [`Dense`]
    /// layer and the shapes add up to it.
    pub fn forward_batch<'t>(
        &self,
        tape: &'t mut Tape,
        prefix: Option<&Tensor>,
        input: &Tensor,
    ) -> &'t Tensor {
        let Tape { ping, pong, .. } = tape;
        let params = &self.params;
        if let Some(prefix) = prefix {
            let first = first_dense(&self.layers);
            first.forward_batch_from_prefix_into(params, prefix, input, ping);
            return forward_batch_rest((&self.layers[1..], params), ping, pong);
        }
        // The first layer that is not dropout reads the caller's tensor.
        for (at, layer) in self.layers.iter().enumerate() {
            if layer.forward_batch_into(params, input, ping) {
                return forward_batch_rest((&self.layers[at + 1..], params), ping, pong);
            }
        }
        ping.copy_from(input);
        ping
    }

    /// Advances every dropout layer's stream past the draws a train-mode
    /// forward of `rows` input rows makes (one per element it sees, none at
    /// `p = 0`), as if that forward had run. A copy of the network that
    /// trains on some of a batch's row groups while another thread trains
    /// the original on the others keeps its masks in step this way.
    ///
    /// # Panics
    ///
    /// Panics on a dropout layer ahead of every dense layer: its width is
    /// the input's, which the network does not know.
    pub fn skip_train_draws(&mut self, rows: usize) {
        let mut width = None;
        for layer in &mut self.layers {
            match layer {
                MlpLayer::Dense(d) => width = Some(d.out_dim),
                MlpLayer::Relu(_) => {}
                MlpLayer::Dropout(l) => {
                    l.skip(rows * width.expect("a dropout layer after a dense one"));
                }
            }
        }
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
                MlpLayer::Dense(d) => {
                    q.push_dense(d.in_dim, &self.params[d.weights()], &self.params[d.bias()])?
                }
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

    fn denses(&self) -> impl Iterator<Item = &DenseAt> {
        self.layers.iter().filter_map(|l| match l {
            MlpLayer::Dense(d) => Some(d),
            _ => None,
        })
    }

    /// Zeroes all accumulated gradients (allocating them on first use).
    pub fn zero_grads(&mut self) {
        ensure_grads(&mut self.grads, &self.params).fill(0.0);
    }

    /// Applies one step of `optim` to this network alone.
    pub fn apply(&mut self, optim: &mut Adam) {
        optim.sized(self.params.len()).update([self.trainable()]);
    }

    /// The parameter arena and the gradient arena (allocated as zeros if no
    /// pass has made it yet): the region an optimiser step updates. Several
    /// networks share one [`Adam`] by handing it theirs in a fixed order.
    pub fn trainable(&mut self) -> (&mut [f32], &[f32]) {
        let grads = ensure_grads(&mut self.grads, &self.params);
        (&mut self.params, grads)
    }

    /// The gradient arena, laid out like [`parameters`](Self::parameters);
    /// empty until a pass or [`zero_grads`](Self::zero_grads) makes it.
    pub fn gradients(&self) -> &[f32] {
        &self.grads
    }

    /// Adds `grads`, an arena laid out like this network's gradients (say,
    /// a copy's [`gradients`](Self::gradients)), into them element by
    /// element, allocating them as zeros first if need be.
    ///
    /// # Panics
    ///
    /// Panics unless `grads` is as long as the parameter arena.
    pub fn add_gradients(&mut self, grads: &[f32]) {
        assert_eq!(grads.len(), self.params.len(), "gradient arena length");
        let acc = ensure_grads(&mut self.grads, &self.params);
        for (a, g) in acc.iter_mut().zip(grads) {
            *a += g;
        }
    }

    /// The length of every parameter tensor in the arena, in order: per
    /// dense layer, weights then bias.
    pub fn parameter_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.denses()
            .flat_map(|d| [d.weights().len(), d.bias().len()])
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Heap bytes held, at allocated capacity: the layers, the parameter
    /// arena, the gradient arena once a pass has made it, and the network's
    /// own tape.
    pub fn heap_bytes(&self) -> usize {
        self.layers.capacity() * std::mem::size_of::<MlpLayer>()
            + (self.params.capacity() + self.grads.capacity()) * std::mem::size_of::<f32>()
            + self.tape.heap_bytes()
    }

    /// Squared L2 norm of all accumulated gradients: per dense layer
    /// `Σw² + Σb²`, summed over the layers.
    pub fn grad_sq_norm(&self) -> f32 {
        self.denses().map(|d| d.grad_sq_norm(&self.grads)).sum()
    }

    /// Scales all accumulated gradients, e.g. for global-norm clipping or
    /// the multi-agent BDQ's 1/K and 1/D rescaling.
    pub fn scale_grads(&mut self, factor: f32) {
        for g in &mut self.grads {
            *g *= factor;
        }
    }

    /// Copies all weights from a network with an identical architecture
    /// (used for target-network synchronisation).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) -> Result<(), NnError> {
        if self.layers.len() != other.layers.len()
            || !self.parameter_lens().eq(other.parameter_lens())
        {
            let shape = |n: &Mlp| (n.layers.len(), n.parameter_lens().collect::<Vec<_>>());
            let detail = format!("layers, tensors {:?} vs {:?}", shape(self), shape(other));
            return Err(NnError::ShapeMismatch { detail });
        }
        self.params.copy_from_slice(&other.params);
        Ok(())
    }

    /// Re-initialises the weights of the last `Dense` layer — the transfer-
    /// learning move from Section IV ("removing the last layer of a trained
    /// network … and re-initialising it with random weights").
    ///
    /// Returns `true` if a dense layer was found and reset.
    pub fn reinitialize_last_dense<R: Rng>(&mut self, rng: &mut R) -> bool {
        let Some(&at) = self.denses().last() else {
            return false;
        };
        he_init(at.in_dim, &mut self.params[at.weights()], rng);
        self.params[at.bias()].fill(0.0);
        if let Some(grads) = self.grads.get_mut(at.range()) {
            grads.fill(0.0);
        }
        true
    }

    /// The parameter arena: per dense layer in order, its weights (row-major
    /// `in × out`) and then its bias — the checkpoint layout.
    pub fn parameters(&self) -> &[f32] {
        &self.params
    }

    /// Restores every trainable parameter from an arena taken from
    /// [`parameters`](Self::parameters) of a network with an identical
    /// architecture.
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
        self.params.copy_from_slice(params);
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
        assert_ne!(online.parameters(), target.parameters());
        target.copy_weights_from(&online).unwrap();
        assert_eq!(online.parameters(), target.parameters());
        // Diverge online again; target must be unaffected.
        let x = Tensor::from_row(&[1.0, 1.0]);
        let t = Tensor::from_row(&[0.0]);
        let pred = online.forward(&x, true);
        let (_, g) = mse_loss(&pred, &t, None).unwrap();
        online.zero_grads();
        online.backward(&g);
        let mut adam = Adam::new(0.1);
        online.apply(&mut adam);
        assert_ne!(online.parameters(), target.parameters());
    }

    #[test]
    fn copy_weights_rejects_architecture_mismatch() {
        let mut a = tiny_net(1);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let b = Mlp::new().push(Dense::new(2, 6, &mut rng));
        assert!(a.copy_weights_from(&b).is_err());
        // Same depth and the same 25 parameters, other tensor shapes.
        let c = Mlp::new()
            .push(Dense::new(4, 4, &mut rng))
            .push(Relu::new())
            .push(Dense::new(4, 1, &mut rng));
        assert_eq!((c.len(), c.param_count()), (a.len(), a.param_count()));
        assert!(a.copy_weights_from(&c).is_err());
        assert_ne!(a.parameters(), c.parameters());
    }

    #[test]
    fn reinitialize_last_dense_changes_only_last() {
        let mut net = tiny_net(3);
        let before = net.parameters().to_vec();
        let mut rng = Xoshiro256::seed_from_u64(99);
        assert!(net.reinitialize_last_dense(&mut rng));
        let after = net.parameters();
        // First dense layer (2*6 weights + 6 biases) unchanged.
        assert_eq!(&before[..18], &after[..18]);
        // Last dense layer's 6 weights changed, its bias is zero again.
        assert_ne!(&before[18..24], &after[18..24]);
        assert_eq!(after[24], 0.0);
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

        let params = a.parameters().to_vec();
        assert_eq!(params.len(), a.param_count());
        let mut b = tiny_net(8);
        assert_ne!(b.forward(&x, false), a.forward(&x, false));
        b.import_parameters(&params).unwrap();
        assert_eq!(b.forward(&x, false), a.forward(&x, false));
        // Wrong sizes rejected.
        assert!(b.import_parameters(&params[1..]).is_err());
    }

    #[test]
    fn dense_draws_into_the_arena_what_a_pushed_dense_holds() {
        let pushed = tiny_net(9);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let drawn = Mlp::with_capacity(pushed.param_count())
            .dense(2, 6, &mut rng)
            .push(Relu::new())
            .dense(6, 1, &mut rng);
        assert_eq!(drawn.parameters(), pushed.parameters());
        assert_eq!(drawn.parameter_lens().collect::<Vec<_>>(), [12, 6, 6, 1]);
        assert_eq!(Mlp::dense_len(2, 6) + Mlp::dense_len(6, 1), 25);
        // One allocation of exactly the parameters, no gradients yet.
        let layers = drawn.layers.capacity() * std::mem::size_of::<MlpLayer>();
        assert_eq!(drawn.heap_bytes(), layers + 25 * 4);
    }

    #[test]
    fn gradients_allocate_on_first_use_and_accumulate() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut net = Mlp::new().push(Dense::new(2, 4, &mut rng));
        let weights_only = net.heap_bytes();
        assert_eq!(net.grad_sq_norm(), 0.0);
        net.scale_grads(2.0);
        // Re-initialising a network nobody trained allocates no gradients.
        assert!(net.reinitialize_last_dense(&mut rng));
        assert_eq!(net.heap_bytes(), weights_only);
        let x = Tensor::from_row(&[1.0, 0.0]);
        for _ in 0..2 {
            net.forward_scratch(&x, true);
            net.backward_scratch(&Tensor::from_row(&[1.0; 4]));
        }
        let expected = [2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(net.grads, expected);
        assert_eq!(net.grad_sq_norm(), 32.0);
        assert_eq!(net.grads.capacity(), 12);
        // Re-initialising zeroes gradients that exist and allocates none.
        net.reinitialize_last_dense(&mut rng);
        assert_eq!(net.grads, [0.0; 12]);
        net.zero_grads();
        assert_eq!(net.grads, [0.0; 12]);
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
            let pa = alloc_net.parameters();
            let ps = scratch_net.parameters();
            for (a, s) in pa.iter().zip(ps) {
                assert_eq!(a.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn a_copy_that_skips_a_forward_s_draws_stays_in_step() {
        // Two row groups through one head with dropout: the original trains
        // on both in turn; a copy skips the first group's draws and trains on
        // the second. Its output and its streams end where the original's do.
        let mut rng = Xoshiro256::seed_from_u64(12);
        let mut original = Mlp::new()
            .push(Dense::new(5, 7, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.3, 4))
            .push(Dense::new(7, 2, &mut rng));
        let mut copy = original.clone();
        let mut random = |r: usize| {
            let data = (0..r * 5).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            Tensor::from_vec(r, 5, data).unwrap()
        };
        let (first, second) = (random(3), random(3));
        original.forward_scratch(&first, true);
        let want = original.forward_scratch(&second, true).clone();
        copy.skip_train_draws(first.rows());
        assert_eq!(copy.forward_scratch(&second, true), &want);
        assert_eq!(
            format!("{:?}", copy.layers),
            format!("{:?}", original.layers)
        );
    }

    #[test]
    fn a_stream_carrier_runs_the_original_s_train_pass_bit_for_bit() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let mut net = Mlp::new()
            .dense(5, 12, &mut rng)
            .push(Relu::new())
            .push(Dropout::new(0.3, 9))
            .dense(12, 4, &mut rng);
        let mut twin = net.clone();
        let mut carrier = Mlp::new();
        let x =
            Tensor::from_vec(7, 5, (0..35).map(|_| rng.range_f32(-1.0, 1.0)).collect()).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for _ in 0..3 {
            let want = bits(twin.forward_scratch(&x, true));
            carrier.copy_streams_from(&net);
            let mut tape = Tape::new();
            let got = bits(
                carrier
                    .on_weights(&net, &mut tape)
                    .forward_scratch(&x, true),
            );
            assert_eq!(got, want, "the carrier drew the original's masks");
            // The original did not move; taking the streams back does.
            let stayed = bits(net.clone().forward_scratch(&x, true));
            assert_eq!(stayed, want);
            net.copy_streams_from(&carrier);
        }
        // The streams came back where the twin's are.
        let next = bits(net.forward_scratch(&x, true));
        assert_eq!(next, bits(twin.forward_scratch(&x, true)));
        assert!(
            carrier.parameters().is_empty(),
            "the carrier holds no weights"
        );
    }

    /// Row subsets of a `rows`-row batch: every non-empty one up to nine
    /// rows, and past that each single row, each window of five and some
    /// drawn at random.
    fn row_subsets(rows: usize, rng: &mut Xoshiro256) -> Vec<Vec<usize>> {
        if rows <= 9 {
            return (1..1u32 << rows)
                .map(|mask| (0..rows).filter(|&r| mask >> r & 1 == 1).collect())
                .collect();
        }
        let singles = (0..rows).map(|r| vec![r]);
        let windows = (0..rows - 4).map(|r| (r..r + 5).collect());
        let drawn = (0..40).map(|_| {
            let subset: Vec<usize> = (0..rows)
                .filter(|_| rng.next_u64().is_multiple_of(3))
                .collect();
            if subset.is_empty() {
                vec![rows - 1]
            } else {
                subset
            }
        });
        singles.chain(windows).chain(drawn).collect()
    }

    #[test]
    fn a_batch_forward_over_any_subset_of_rows_is_those_rows_of_the_full_batch() {
        // Rows are independent in an evaluation forward, whatever tile of
        // the register-tiled kernel a row lands in (the 4-row bands or the
        // single-row remainder) and whichever rows share its products, with
        // or without a shared-column prefix. A learner that recomputes a few
        // rows of a batch evaluated earlier rests on this. `gemm`'s tests
        // hold it for both kernel bodies; this holds it through the layers.
        let (shared_dim, own_dim) = (6, 3);
        let mut rng = Xoshiro256::seed_from_u64(64);
        let net = Mlp::new()
            .push(Dense::new(shared_dim + own_dim, 20, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.5, 3))
            .push(Dense::new(20, 7, &mut rng));
        let bits =
            |t: &Tensor, r: usize| -> Vec<u32> { t.row(r).iter().map(|v| v.to_bits()).collect() };
        let pick = |t: &Tensor, rows: &[usize]| {
            Tensor::from_rows(&rows.iter().map(|&r| t.row(r).to_vec()).collect::<Vec<_>>()).unwrap()
        };
        let mut tape = Tape::new();
        let mut prefix = Tensor::zeros(0, 0);
        for rows in (1..=9).chain([64]) {
            let data = (0..rows * (shared_dim + own_dim))
                .map(|_| rng.range_f32(-2.0, 2.0))
                .collect();
            let x = Tensor::from_vec(rows, shared_dim + own_dim, data).unwrap();
            let cols = |from: usize, to: usize| {
                let picked = (0..rows)
                    .map(|r| x.row(r)[from..to].to_vec())
                    .collect::<Vec<_>>();
                Tensor::from_rows(&picked).unwrap()
            };
            let (shared, own) = (cols(0, shared_dim), cols(shared_dim, shared_dim + own_dim));
            let full = net.forward_batch(&mut tape, None, &x).clone();
            net.prefix_into(&shared, &mut prefix);
            let full_prefixed = net.forward_batch(&mut tape, Some(&prefix), &own).clone();
            for r in 0..rows {
                assert_eq!(
                    bits(&full_prefixed, r),
                    bits(&full, r),
                    "{rows} rows, row {r}"
                );
            }
            for subset in row_subsets(rows, &mut rng) {
                let got = net
                    .forward_batch(&mut tape, None, &pick(&x, &subset))
                    .clone();
                net.prefix_into(&pick(&shared, &subset), &mut prefix);
                let prefixed = net
                    .forward_batch(&mut tape, Some(&prefix), &pick(&own, &subset))
                    .clone();
                for (i, &r) in subset.iter().enumerate() {
                    let what = format!("{rows} rows, subset {subset:?}, row {r}");
                    assert_eq!(bits(&got, i), bits(&full, r), "{what}");
                    assert_eq!(bits(&prefixed, i), bits(&full, r), "{what}, prefixed");
                }
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
        let mut tape = Tape::new();
        let eval = net.forward(&x, false);
        let batch = net.forward_batch(&mut tape, None, &x).clone();
        for (a, b) in eval.as_slice().iter().zip(batch.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut twin = net.clone();
        let other = Tensor::from_rows(&[vec![9.0, -9.0, 3.0]]).unwrap();
        let grad = Tensor::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.25], vec![-2.0, 0.0]]).unwrap();
        for _ in 0..2 {
            let pred = net.on(&mut tape).forward_scratch(&x, true).clone();
            assert_eq!(twin.forward(&x, true), pred);
            for _ in 0..5 {
                let _ = net.forward_batch(&mut tape, None, &other);
            }
            net.zero_grads();
            twin.zero_grads();
            assert_eq!(
                net.on(&mut tape).backward_scratch(&grad),
                &twin.backward(&grad)
            );
            assert_eq!(net.grad_sq_norm().to_bits(), twin.grad_sq_norm().to_bits());
        }
    }

    #[test]
    fn prefix_forwards_bit_identical_to_the_concatenated_forwards() {
        // A head as twig-rl builds it, fed `[shared | own]`. One twin runs
        // the concatenated input through the plain entry points; the other
        // gets the shared columns' first-layer product once and continues
        // from it. Every activation and every dropout draw must be equal.
        let (shared_dim, own_dim, batch, groups) = (6, 3, 5, 3);
        let mut rng = Xoshiro256::seed_from_u64(31);
        let base = Mlp::new()
            .push(Dense::new(shared_dim + own_dim, 8, &mut rng))
            .push(Relu::new())
            .push(Dropout::new(0.3, 4))
            .push(Dense::new(8, 3, &mut rng));
        let mut full = base.clone();
        let mut split = base;
        let mut random = |r: usize, c: usize| {
            let data = (0..r * c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
            Tensor::from_vec(r, c, data).unwrap()
        };
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let mut prefix = Tensor::zeros(0, 0);
        let mut shared_rep = Tensor::zeros(0, 0);
        let mut tape = Tape::new();
        for _ in 0..4 {
            let shared = random(batch, shared_dim);
            split.prefix_into(&shared, &mut prefix);

            // Eval: `groups` row groups share the prefix; stateless.
            let own_all = random(groups * batch, own_dim);
            shared_rep.repeat_rows_from(&shared, groups);
            let stacked = shared_rep.concat_cols(&own_all).unwrap();
            let want = full.forward(&stacked, false);
            let got = split.forward_batch(&mut tape, Some(&prefix), &own_all);
            assert_eq!(bits(got), bits(&want));

            // Train: two agents' passes draw the same dropout masks.
            for _ in 0..2 {
                let own = random(batch, own_dim);
                let input = shared.concat_cols(&own).unwrap();
                let want = full.forward_scratch(&input, true).clone();
                let got = split
                    .on(&mut tape)
                    .forward_from_prefix_scratch(&prefix, &own, true);
                assert_eq!(bits(got), bits(&want));
            }
        }
        // No input gradient at all: the shape says so, the parameters'
        // gradients are still there.
        let x = random(batch, shared_dim + own_dim);
        split.zero_grads();
        split.on(&mut tape).forward_scratch(&x, true);
        let none = split
            .on(&mut tape)
            .backward_cols_scratch(&random(batch, 3), 0);
        assert_eq!((none.rows(), none.cols()), (batch, 0));
        assert!(split.grad_sq_norm() > 0.0);
    }

    #[test]
    fn backward_summed_over_groups_equals_the_per_group_backwards_on_exact_operands() {
        // `G` groups of rows `[shared | own_g]` through one head. The
        // reference runs each group's concatenated input forward and
        // backward and sums the shared columns' input gradients; the split
        // twin stops each group's backward at the first layer's output, sums
        // those gradients, and finishes once with the shared columns' part.
        // That reorders the sums, so the operands are dyadic — quarters,
        // dropout p = 0.5 scaling by exactly 2 — and every sum is exact in
        // any order: every gradient and input gradient must match bit for
        // bit, and so must the forwards and dropout draws.
        let (shared_dim, own_dim, hidden, outputs, batch) = (6, 3, 8, 3, 5);
        let mut rng = Xoshiro256::seed_from_u64(0xd1ad);
        let mut quarters = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| rng.range_usize(0, 9) as f32 / 4.0 - 1.0)
                .collect()
        };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for groups in [1, 2, 5] {
            let mut full = Mlp::new()
                .push(Dense::new(
                    shared_dim + own_dim,
                    hidden,
                    &mut Xoshiro256::seed_from_u64(1),
                ))
                .push(Relu::new())
                .push(Dropout::new(0.5, 7))
                .push(Dense::new(
                    hidden,
                    outputs,
                    &mut Xoshiro256::seed_from_u64(2),
                ));
            let params = quarters(full.param_count());
            full.import_parameters(&params).unwrap();
            let mut split = full.clone();
            let shared = Tensor::from_vec(batch, shared_dim, quarters(batch * shared_dim)).unwrap();
            let (mut tape, mut full_tape) = (Tape::new(), Tape::new());
            let mut prefix = Tensor::zeros(0, 0);
            split.prefix_into(&shared, &mut prefix);
            let mut want_dx = Tensor::zeros(batch, shared_dim);
            let mut first_grad = Tensor::zeros(batch, hidden);
            full.zero_grads();
            split.zero_grads();
            for _ in 0..groups {
                let own = Tensor::from_vec(batch, own_dim, quarters(batch * own_dim)).unwrap();
                let grad = Tensor::from_vec(batch, outputs, quarters(batch * outputs)).unwrap();
                let input = shared.concat_cols(&own).unwrap();
                let want = full.on(&mut full_tape).forward_scratch(&input, true);
                let got = split
                    .on(&mut tape)
                    .forward_from_prefix_scratch(&prefix, &own, true);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
                want_dx
                    .add_assign(
                        full.on(&mut full_tape)
                            .backward_cols_scratch(&grad, shared_dim),
                    )
                    .unwrap();
                let g = split.on(&mut tape).backward_from_prefix_scratch(&grad);
                first_grad.add_assign(g).unwrap();
            }
            let got_dx = split
                .on(&mut tape)
                .backward_prefix_scratch(&shared, &first_grad);
            let context = format!("{groups} groups");
            assert_eq!(
                bits(got_dx.as_slice()),
                bits(want_dx.as_slice()),
                "{context}"
            );
            let (_, want_grads) = full.trainable();
            let want_grads = want_grads.to_vec();
            let (_, got_grads) = split.trainable();
            assert!(want_grads.iter().any(|&g| g != 0.0), "{context}");
            assert_eq!(bits(got_grads), bits(&want_grads), "{context}");
        }
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
                let want_dx = b.backward_scratch(&grad).split_cols(4).0;
                let got_dx = a.on(&mut tape).backward_cols_scratch(&grad, 4);
                assert_eq!(bits(got_dx), bits(&want_dx));
            }
        }
        for (a, b) in shared.iter().zip(&own) {
            assert_eq!(a.grads.len(), a.param_count());
            assert_eq!(
                bits(&Tensor::from_row(&a.grads)),
                bits(&Tensor::from_row(&b.grads))
            );
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
        let mut tape = Tape::new();
        net.on(&mut tape).forward_scratch(&x, true);
        net.on(&mut tape).backward_cols_scratch(&x, 0);
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
