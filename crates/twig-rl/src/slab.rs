/// The transitions behind [`MaBdq`](crate::MaBdq)'s replay: fixed-width
/// records in two flat vectors, indexed by the slot `Priorities::push` hands
/// out. Nothing is allocated
/// per transition; the vectors grow as slots are appended and a slot that is
/// overwritten is rewritten in place.
///
/// A record holds what one gradient step reads of a transition, in the
/// layout it reads it in: the joint state and the joint next state are each
/// a row of the step's `B × K·S` input batch (agent `k` in columns
/// `k·S..(k + 1)·S`), so packing a sampled batch is one `copy_from_slice`
/// per row.
#[derive(Debug, Clone)]
pub(crate) struct TransitionSlab {
    agents: usize,
    state_dim: usize,
    num_branches: usize,
    /// Per record `[K·S states | K·S next states | K rewards]`.
    floats: Vec<f32>,
    /// Per record `K·D` branch indices, agent-major.
    actions: Vec<u16>,
}

impl TransitionSlab {
    pub(crate) fn new(agents: usize, state_dim: usize, num_branches: usize) -> Self {
        TransitionSlab {
            agents,
            state_dim,
            num_branches,
            floats: Vec::new(),
            actions: Vec::new(),
        }
    }

    fn joint(&self) -> usize {
        self.agents * self.state_dim
    }

    fn float_stride(&self) -> usize {
        2 * self.joint() + self.agents
    }

    fn action_stride(&self) -> usize {
        self.agents * self.num_branches
    }

    /// Writes a transition into `slot`: the slot after the last one appends,
    /// any earlier one is overwritten. The caller has checked every shape
    /// (`K` rows of `S` / `D` / 1) and every action against its branch.
    pub(crate) fn write(
        &mut self,
        slot: usize,
        states: &[Vec<f32>],
        actions: &[Vec<usize>],
        rewards: &[f32],
        next_states: &[Vec<f32>],
    ) {
        let (float_stride, action_stride) = (self.float_stride(), self.action_stride());
        let (joint, state_dim) = (self.joint(), self.state_dim);
        if slot * float_stride == self.floats.len() {
            self.floats.resize((slot + 1) * float_stride, 0.0);
            self.actions.resize((slot + 1) * action_stride, 0);
        }
        let record = &mut self.floats[slot * float_stride..(slot + 1) * float_stride];
        for (k, (s, n)) in states.iter().zip(next_states).enumerate() {
            record[k * state_dim..(k + 1) * state_dim].copy_from_slice(s);
            record[joint + k * state_dim..joint + (k + 1) * state_dim].copy_from_slice(n);
        }
        record[2 * joint..].copy_from_slice(rewards);
        let record = &mut self.actions[slot * action_stride..(slot + 1) * action_stride];
        for (dst, &a) in record.iter_mut().zip(actions.iter().flatten()) {
            *dst = u16::try_from(a).expect("checked against a branch of at most 2^16 actions");
        }
    }

    /// The joint state of `slot` (`K·S`).
    pub(crate) fn states(&self, slot: usize) -> &[f32] {
        let at = slot * self.float_stride();
        &self.floats[at..at + self.joint()]
    }

    /// The joint next state of `slot` (`K·S`).
    pub(crate) fn next_states(&self, slot: usize) -> &[f32] {
        let at = slot * self.float_stride() + self.joint();
        &self.floats[at..at + self.joint()]
    }

    /// The per-agent rewards of `slot` (`K`).
    pub(crate) fn rewards(&self, slot: usize) -> &[f32] {
        let at = slot * self.float_stride() + 2 * self.joint();
        &self.floats[at..at + self.agents]
    }

    /// The branch indices of `slot`, flattened `k·D + d`.
    pub(crate) fn actions(&self, slot: usize) -> &[u16] {
        let at = slot * self.action_stride();
        &self.actions[at..at + self.action_stride()]
    }

    /// Heap bytes held by the two vectors.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.floats.capacity() * std::mem::size_of::<f32>()
            + self.actions.capacity() * std::mem::size_of::<u16>()
    }
}
