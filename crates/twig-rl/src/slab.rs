/// `links` entry of a record whose next state is its successor's state.
const LINKED: u32 = u32::MAX;

/// The transitions behind [`MaBdq`](crate::MaBdq)'s replay: fixed-width
/// records in flat vectors, indexed by the slot `Priorities::push` hands
/// out. Nothing is allocated per transition; the vectors grow as slots are
/// appended and a slot that is overwritten is rewritten in place.
///
/// A record holds what one gradient step reads of a transition, in the
/// layout it reads it in: the joint state is a row of the step's `B × K·S`
/// input batch (agent `k` in columns `k·S..(k + 1)·S`), so packing a sampled
/// batch is one `copy_from_slice` per row.
///
/// Each joint state is stored once. In a control loop the next state of one
/// transition *is* the state of the following one, so a record keeps no copy
/// of its next state; [`next_states`](Self::next_states) finds it in one of
/// three places:
///
/// - the **tail row**, for the newest record (nothing follows it yet);
/// - the **successor's states**, for a *linked* record — the successor being
///   the next slot in ring order, `slot + 1` wrapping to 0 at `capacity`. A
///   FIFO ring overwrites a record one push before it overwrites the
///   record's successor, and for that one push the record is the newest and
///   reads the tail: a link never dangles;
/// - a row of the **orphan table**, for a record whose follower did not
///   start where it ended (an epoch was dropped in between, or the caller
///   stores unrelated transitions).
///
/// Which of the last two is decided when the follower arrives, by comparing
/// its states to the tail row bit for bit (`to_bits`, so `-0.0` is not
/// `+0.0`): what a linked record reads back is exactly what was stored.
#[derive(Debug, Clone)]
pub(crate) struct TransitionSlab {
    agents: usize,
    state_dim: usize,
    num_branches: usize,
    /// Ring size: the successor of slot `capacity - 1` is slot 0.
    capacity: usize,
    /// Per record `[K·S states | K rewards]`.
    floats: Vec<f32>,
    /// Per record `K·D` branch indices, agent-major.
    actions: Vec<u16>,
    /// Per record [`LINKED`] or its row in `orphans`; [`LINKED`] and unread
    /// for `newest`.
    links: Vec<u32>,
    /// The slot written last, if any.
    newest: Option<usize>,
    /// The next state of `newest` (`K·S`).
    tail: Vec<f32>,
    /// Rows of `K·S`: the next states of the unlinked records.
    orphans: Vec<f32>,
    /// Rows of `orphans` no record uses, handed out again before the table
    /// grows.
    free_rows: Vec<u32>,
}

impl TransitionSlab {
    pub(crate) fn new(
        agents: usize,
        state_dim: usize,
        num_branches: usize,
        capacity: usize,
    ) -> Self {
        TransitionSlab {
            agents,
            state_dim,
            num_branches,
            capacity,
            floats: Vec::new(),
            actions: Vec::new(),
            links: Vec::new(),
            newest: None,
            tail: vec![0.0; agents * state_dim],
            orphans: Vec::new(),
            free_rows: Vec::new(),
        }
    }

    fn joint(&self) -> usize {
        self.agents * self.state_dim
    }

    fn float_stride(&self) -> usize {
        self.joint() + self.agents
    }

    fn action_stride(&self) -> usize {
        self.agents * self.num_branches
    }

    /// The slot the ring writes after `slot`.
    fn successor(&self, slot: usize) -> usize {
        if slot + 1 == self.capacity {
            0
        } else {
            slot + 1
        }
    }

    /// Writes a transition into `slot`, which must be the one the ring hands
    /// out next: the slot after the last one appends, an earlier one is
    /// overwritten. The caller has checked every shape (`K` rows of `S` /
    /// `D` / 1) and every action against its branch.
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
        if slot == self.links.len() {
            self.floats.resize((slot + 1) * float_stride, 0.0);
            self.actions.resize((slot + 1) * action_stride, 0);
            self.links.push(LINKED);
        } else {
            // The record this one replaces gives its orphan row back first,
            // so the record settled below can take it.
            let link = std::mem::replace(&mut self.links[slot], LINKED);
            self.release_row(link);
        }
        if let Some(prev) = self.newest {
            // Links are positional: they hold only while slots arrive in
            // ring order.
            assert_eq!(slot, self.successor(prev), "slot out of ring order");
            // In a ring of one the previous record is the one replaced.
            if prev != slot {
                let chained = states
                    .iter()
                    .flatten()
                    .zip(&self.tail)
                    .all(|(s, t)| s.to_bits() == t.to_bits());
                if !chained {
                    self.links[prev] = self.tail_to_orphan_row();
                }
            }
        }
        let record = &mut self.floats[slot * float_stride..(slot + 1) * float_stride];
        for (k, (s, n)) in states.iter().zip(next_states).enumerate() {
            record[k * state_dim..(k + 1) * state_dim].copy_from_slice(s);
            self.tail[k * state_dim..(k + 1) * state_dim].copy_from_slice(n);
        }
        record[joint..].copy_from_slice(rewards);
        let record = &mut self.actions[slot * action_stride..(slot + 1) * action_stride];
        for (dst, &a) in record.iter_mut().zip(actions.iter().flatten()) {
            *dst = u16::try_from(a).expect("checked against a branch of at most 2^16 actions");
        }
        self.newest = Some(slot);
    }

    /// Puts orphan row `link` on the free list; a no-op for [`LINKED`].
    fn release_row(&mut self, link: u32) {
        if link != LINKED {
            self.free_rows.push(link);
        }
    }

    /// Copies the tail row into a free orphan row — a new one when there is
    /// none — and returns the row.
    fn tail_to_orphan_row(&mut self) -> u32 {
        let joint = self.joint();
        let row = self.free_rows.pop().unwrap_or_else(|| {
            let row = u32::try_from(self.orphans.len() / joint)
                .expect("fewer rows than `capacity`, which MaBdqConfig holds to u32::MAX");
            self.orphans.resize(self.orphans.len() + joint, 0.0);
            row
        });
        let at = row as usize * joint;
        self.orphans[at..at + joint].copy_from_slice(&self.tail);
        row
    }

    /// The joint state of `slot` (`K·S`).
    pub(crate) fn states(&self, slot: usize) -> &[f32] {
        let at = slot * self.float_stride();
        &self.floats[at..at + self.joint()]
    }

    /// The joint next state of `slot` (`K·S`).
    pub(crate) fn next_states(&self, slot: usize) -> &[f32] {
        if self.newest == Some(slot) {
            return &self.tail;
        }
        match self.links[slot] {
            LINKED => self.states(self.successor(slot)),
            row => {
                let at = row as usize * self.joint();
                &self.orphans[at..at + self.joint()]
            }
        }
    }

    /// The per-agent rewards of `slot` (`K`).
    pub(crate) fn rewards(&self, slot: usize) -> &[f32] {
        let at = slot * self.float_stride() + self.joint();
        &self.floats[at..at + self.agents]
    }

    /// The branch indices of `slot`, flattened `k·D + d`.
    pub(crate) fn actions(&self, slot: usize) -> &[u16] {
        let at = slot * self.action_stride();
        &self.actions[at..at + self.action_stride()]
    }

    /// Records whose next state lives in the orphan table.
    pub(crate) fn unlinked(&self) -> usize {
        self.orphans.len() / self.joint() - self.free_rows.len()
    }

    /// Heap bytes held by the records, their links, the tail row and the
    /// orphan table with its free list.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.floats.capacity() + self.tail.capacity() + self.orphans.capacity())
            * std::mem::size_of::<f32>()
            + self.actions.capacity() * std::mem::size_of::<u16>()
            + (self.links.capacity() + self.free_rows.capacity()) * std::mem::size_of::<u32>()
    }
}
