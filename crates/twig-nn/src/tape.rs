use crate::Tensor;

/// The working memory of forward and backward passes: everything a pass
/// writes that is not a parameter, a gradient or a dropout RNG stream.
///
/// Layers hold weights; a tape holds, per layer, what a stateful forward
/// leaves for the backward that follows it (a dense layer's input, a ReLU's
/// mask, which activations a dropout kept), plus one ping-pong pair of activation
/// buffers and the scratch of the dense gradient products. Every buffer
/// grows to the largest shape it has served and is then reused, so passes
/// are allocation-free in steady state.
///
/// Every [`Mlp`](crate::Mlp) owns a tape (empty until its own
/// `forward_scratch` / `backward_scratch` run); [`Mlp::on`](crate::Mlp::on)
/// runs a pass on a caller's tape instead. Networks that never have a
/// forward-backward pair in flight at the same time can share one: each
/// pass overwrites or zero-fills a buffer before it reads it, so what an
/// earlier pass of another network left behind never reaches a result. The
/// reference a pass returns points into the tape and lives until the next
/// pass on it; a backward reads what the last stateful forward *on the same
/// tape* wrote, and panics on a shape mismatch if that was another network's
/// or another batch's.
///
/// # Examples
///
/// ```
/// use twig_nn::{Dense, Mlp, Relu, Tape, Tensor};
/// use twig_stats::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from_u64(0);
/// let mut head = |out| Mlp::new()
///     .push(Dense::new(4, 8, &mut rng))
///     .push(Relu::new())
///     .push(Dense::new(8, out, &mut rng));
/// let (mut a, mut b) = (head(3), head(2));
/// let mut tape = Tape::new();
/// let x = Tensor::zeros(5, 4);
/// for net in [&mut a, &mut b] {
///     let cols = net.on(&mut tape).forward_scratch(&x, true).cols();
///     net.on(&mut tape).backward_scratch(&Tensor::zeros(5, cols));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// Slot `i` belongs to layer `i` of whichever network ran last.
    pub(crate) slots: Vec<Slot>,
    /// Activations on the way forward, gradients on the way back: layer `i`
    /// reads one and writes the other.
    pub(crate) ping: Tensor,
    pub(crate) pong: Tensor,
    pub(crate) products: Products,
}

/// What one layer's stateful forward leaves for its backward. One struct for
/// all three layer kinds rather than an enum: networks whose layer kinds
/// differ at an index can then share a tape without freeing and
/// reallocating the slot on every pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    /// Dense: the input it multiplied (the weight gradient's left operand).
    pub(crate) input: Tensor,
    /// ReLU: which activations were positive. Dropout: which survived,
    /// meaningful only when `dropped`.
    pub(crate) alive: Vec<bool>,
    /// Dropout: whether the last forward dropped anything (train mode with
    /// `p > 0`); otherwise it was the identity and so is its backward.
    pub(crate) dropped: bool,
}

/// Scratch of a dense layer's backward pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Products {
    /// The weight-gradient product. It is materialised here and then added
    /// to the layer's gradient, never accumulated in place, so each backward
    /// adds one rounded sum per element. For a head shared by `K` row groups
    /// over one `[shared | own]` input, each group's backward adds the
    /// `own` rows' product (`ownᵀg`) and one product over the summed output
    /// gradients adds the `shared` rows' (`sharedᵀ·Σg`).
    pub(crate) gw: Tensor,
    pub(crate) gb: Vec<f32>,
    /// One register-tile-wide panel of `w` transposed at a time
    /// (`Tensor::matmul_t_rows_into`): a few KiB however large the layer.
    pub(crate) pack: Vec<f32>,
}

impl Tape {
    /// An empty tape; the first passes size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held, at allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        let slots: usize = self
            .slots
            .iter()
            .map(|s| s.input.heap_bytes() + s.alive.capacity())
            .sum();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + slots
            + self.ping.heap_bytes()
            + self.pong.heap_bytes()
            + self.products.gw.heap_bytes()
            + (self.products.gb.capacity() + self.products.pack.capacity()) * f32s
    }

    /// Makes room for an `n`-layer network's slots, keeping what is there.
    pub(crate) fn reserve_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Slot::default);
        }
    }
}
