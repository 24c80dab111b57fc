use crate::{LinearAnneal, RlError};
use twig_stats::rng::Rng;

/// One prioritised sample batch: buffer indices and importance weights.
///
/// Reusable: pass the same instance to [`Priorities::sample_into`] every
/// step and the contained vectors keep their capacity, making steady-state
/// sampling allocation-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct PerBatch {
    /// Indices into the buffer (pass back to `update_priorities`).
    pub(crate) indices: Vec<usize>,
    /// Importance-sampling weights, normalised to max 1.
    pub(crate) weights: Vec<f32>,
}

/// Prioritised experience replay (Schaul et al. 2015), as used by the
/// paper: buffer size 10⁶, `pr_α = 0.6`, `pr_β` annealed linearly from 0.4
/// to 1 — the index half of it: which slot the next item takes (append
/// until `capacity`, then overwrite oldest-first), every slot's sampling
/// weight in a sum tree for O(log n) proportional sampling, and the α / β /
/// running-maximum state. It stores no items: [`Dqn`](crate::Dqn) pairs it
/// with a `Vec` of transitions and [`MaBdq`](crate::MaBdq) with its flat
/// transition slab, and both sample through the same code.
#[derive(Debug, Clone)]
pub(crate) struct Priorities {
    tree: SumTree,
    len: usize,
    capacity: usize,
    next: usize,
    alpha: f64,
    beta: LinearAnneal,
    step: u64,
    max_priority: f64,
}

impl Priorities {
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, alpha: f64, beta0: f64, beta_steps: u64) -> Self {
        assert!(capacity > 0, "PER capacity must be positive");
        Priorities {
            tree: SumTree::new(capacity),
            len: 0,
            capacity,
            next: 0,
            alpha,
            beta: LinearAnneal::new(beta0, 1.0, beta_steps),
            step: 0,
            max_priority: 1.0,
        }
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Claims the slot of a new item and gives it the current maximum
    /// priority. A return value equal to the previous [`len`](Self::len)
    /// means "append"; anything lower overwrites that slot.
    pub(crate) fn push(&mut self) -> usize {
        let slot = if self.len < self.capacity {
            self.len += 1;
            self.len - 1
        } else {
            let slot = self.next;
            self.next = (self.next + 1) % self.capacity;
            slot
        };
        if slot == self.tree.leaves {
            self.tree.double();
        }
        self.tree.set(slot, self.max_priority.powf(self.alpha));
        slot
    }

    /// Samples `n` indices proportionally to priority into `batch`
    /// (cleared first), with importance-sampling weights normalised by the
    /// batch maximum, and advances the β anneal by one step.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::NotEnoughData`] when no slot is occupied.
    pub(crate) fn sample_into<R: Rng>(
        &mut self,
        n: usize,
        rng: &mut R,
        batch: &mut PerBatch,
    ) -> Result<(), RlError> {
        batch.indices.clear();
        batch.weights.clear();
        if self.len == 0 {
            return Err(RlError::NotEnoughData {
                needed: n,
                available: 0,
            });
        }
        self.draw_into((self.len, None), n, rng, batch);
        self.step += 1;
        Ok(())
    }

    /// The slot the next [`push`](Self::push) claims and the length it
    /// leaves.
    fn next_push(&self) -> (usize, usize) {
        if self.len < self.capacity {
            (self.len, self.len + 1)
        } else {
            (self.next, self.len)
        }
    }

    /// [`len`](Self::len) after the next push.
    pub(crate) fn len_after_push(&self) -> usize {
        self.next_push().1
    }

    /// Doubles the tree now if the next push would: doubling changes no
    /// leaf, no sum and no draw (see [`SumTree`]), so it may come early,
    /// and [`sample_after_push_into`](Self::sample_after_push_into) then
    /// never has to picture it.
    pub(crate) fn grow_for_push(&mut self) {
        if self.next_push().0 == self.tree.leaves {
            self.tree.double();
        }
    }

    /// What [`push`](Self::push) followed by [`sample_into`](Self::sample_into)
    /// would draw, bit for bit, with neither run: the pushed slot's new
    /// weight and the sums above it are computed as `push` would write them
    /// and read in their place. Returns the slot the push will claim. The
    /// buffer is unchanged; to take the draw, push and then
    /// [`advance_anneal`](Self::advance_anneal).
    ///
    /// # Panics
    ///
    /// Panics if the push would double the tree; call
    /// [`grow_for_push`](Self::grow_for_push) first.
    pub(crate) fn sample_after_push_into<R: Rng>(
        &self,
        n: usize,
        rng: &mut R,
        batch: &mut PerBatch,
    ) -> usize {
        let (slot, len) = self.next_push();
        assert!(slot < self.tree.leaves, "the push would double the tree");
        let pushed = self.tree.path(slot, self.max_priority.powf(self.alpha));
        self.draw_into((len, Some(&pushed)), n, rng, batch);
        slot
    }

    /// Moves the β anneal one step on, as the sample that
    /// [`sample_after_push_into`](Self::sample_after_push_into) drew would
    /// have.
    pub(crate) fn advance_anneal(&mut self) {
        self.step += 1;
    }

    /// The draws of a sample over `len` occupied slots, reading the nodes
    /// `over` lists in place of the tree's own.
    fn draw_into<R: Rng>(
        &self,
        (len, over): (usize, Option<&Path>),
        n: usize,
        rng: &mut R,
        batch: &mut PerBatch,
    ) {
        batch.indices.clear();
        batch.weights.clear();
        let beta = self.beta.value_at(self.step);
        let total = self.tree.total(over);
        for _ in 0..n {
            let target = rng.range_f64(0.0, total.max(f64::MIN_POSITIVE));
            let idx = self.tree.find(target, over).min(len - 1);
            let p = self.tree.get(idx, over) / total;
            let w = (len as f64 * p).powf(-beta);
            batch.indices.push(idx);
            batch.weights.push(w as f32);
        }
        let max_w = batch
            .weights
            .iter()
            .cloned()
            .fold(f32::MIN_POSITIVE, f32::max);
        for w in &mut batch.weights {
            *w /= max_w;
        }
    }

    /// Feeds a train step's absolute TD errors, aligned with `indices`,
    /// back as priorities; indices beyond the occupied slots are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub(crate) fn update_priorities(&mut self, indices: &[usize], errors: &[f64]) {
        assert_eq!(
            indices.len(),
            errors.len(),
            "indices/errors length mismatch"
        );
        const EPS: f64 = 1e-6;
        for (&idx, &err) in indices.iter().zip(errors) {
            if idx >= self.len {
                continue;
            }
            let p = err.abs() + EPS;
            self.max_priority = self.max_priority.max(p);
            self.tree.set(idx, p.powf(self.alpha));
        }
    }

    /// The β-anneal step counter (advances once per sample call).
    pub(crate) fn anneal_step(&self) -> u64 {
        self.step
    }

    /// Restores the β-anneal step counter from a checkpoint.
    pub(crate) fn set_anneal_step(&mut self, step: u64) {
        self.step = step;
    }

    /// The running maximum raw priority assigned to new items.
    pub(crate) fn max_priority(&self) -> f64 {
        self.max_priority
    }

    /// Restores the running maximum priority from a checkpoint. Non-finite
    /// or non-positive values are ignored (the default of 1.0 is kept).
    pub(crate) fn set_max_priority(&mut self, p: f64) {
        if p.is_finite() && p > 0.0 {
            self.max_priority = p;
        }
    }

    /// The stored (already α-exponentiated) sampling weight of every item,
    /// in buffer order — the exact sum-tree leaves, so a
    /// [`restore_priorities`](Self::restore_priorities) round trip is
    /// lossless.
    pub(crate) fn priorities(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.tree.get(i, None)).collect()
    }

    /// Restores sum-tree leaves saved by [`priorities`](Self::priorities).
    /// Entries beyond the current item count are ignored (after a crash the
    /// buffer restarts empty, so a checkpointed priority vector may be
    /// longer than the live buffer).
    pub(crate) fn restore_priorities(&mut self, priorities: &[f64]) {
        for (i, &p) in priorities.iter().enumerate().take(self.len) {
            self.tree.set(i, p);
        }
    }

    /// Heap bytes held by the tree.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tree.nodes.capacity() * std::mem::size_of::<f64>()
    }
}

/// Binary sum tree in heap layout, sized by what it holds: `leaves` is a
/// power of two that doubles when a push reaches it, so the tree is always
/// the leftmost `leaves`-wide subtree of the one a full buffer would need
/// (`full_leaves` wide), and every node it has carries the bits that tree
/// would carry. The levels it does not have are known without storing them:
/// on the path from that tree's root down to this root each node is
/// `total + 0.0` — the same bits, no priority ever being `-0.0` — with an
/// all-zero right sibling.
#[derive(Debug, Clone)]
struct SumTree {
    /// Node 1 is the root, node `leaves + i` is leaf `i`, node `i`'s
    /// children are `2i` and `2i + 1`; node 0 is unused.
    nodes: Vec<f64>,
    leaves: usize,
    full_leaves: usize,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        SumTree {
            nodes: vec![0.0; 2],
            leaves: 1,
            full_leaves: capacity.next_power_of_two(),
        }
    }

    /// Node `i`, or what `over` says it is.
    fn node(&self, i: usize, over: Option<&Path>) -> f64 {
        if let Some(path) = over {
            let depth = path.node.ilog2();
            if let Some(up) = depth.checked_sub(i.ilog2()) {
                if path.node >> up == i {
                    return path.sums[up as usize];
                }
            }
        }
        self.nodes[i]
    }

    fn total(&self, over: Option<&Path>) -> f64 {
        self.node(1, over)
    }

    fn get(&self, leaf: usize, over: Option<&Path>) -> f64 {
        self.node(self.leaves + leaf, over)
    }

    /// What [`set`](Self::set) would write, without writing it: `value` at
    /// `leaf` and each ancestor's sum of its children, left plus right, as
    /// `set` adds them.
    fn path(&self, leaf: usize, value: f64) -> Path {
        let mut i = self.leaves + leaf;
        let mut path = Path {
            node: i,
            sums: [0.0; usize::BITS as usize],
        };
        path.sums[0] = value;
        let mut up = 0;
        while i > 1 {
            let (mine, sibling) = (path.sums[up], self.nodes[i ^ 1]);
            let (left, right) = if i.is_multiple_of(2) {
                (mine, sibling)
            } else {
                (sibling, mine)
            };
            i /= 2;
            up += 1;
            path.sums[up] = left + right;
        }
        path
    }

    fn set(&mut self, leaf: usize, value: f64) {
        let mut i = self.leaves + leaf;
        self.nodes[i] = value;
        while i > 1 {
            i /= 2;
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1];
        }
    }

    /// Finds the leaf where the prefix sum reaches `target`, reading the
    /// nodes `over` lists in place of the tree's own.
    fn find(&self, mut target: f64, over: Option<&Path>) -> usize {
        // The absent upper levels: each compares `target` with a left child
        // equal to `total`, so a target below it arrives at this root
        // unchanged, and any other turns right once into zeros, where no
        // comparison succeeds again, and ends on the last leaf.
        let reaches_this_root = target < self.total(over);
        if self.leaves < self.full_leaves && !reaches_this_root {
            return self.full_leaves - 1;
        }
        let mut i = 1;
        while i < self.leaves {
            let left = self.node(2 * i, over);
            if target < left {
                i *= 2;
            } else {
                target -= left;
                i = 2 * i + 1;
            }
        }
        i - self.leaves
    }

    /// Re-roots the tree one level up: what was the root becomes the left
    /// child of a new root whose right half is zeros.
    fn double(&mut self) {
        let old = self.leaves;
        self.nodes.resize(4 * old, 0.0);
        // The level that is `width` nodes wide lives at `width..2 * width`
        // and moves to the left half of `2 * width..4 * width`. Deepest
        // first: each destination overlaps only a level that already moved.
        let mut width = old;
        while width > 0 {
            self.nodes.copy_within(width..2 * width, 2 * width);
            self.nodes[3 * width..4 * width].fill(0.0);
            width /= 2;
        }
        self.nodes[1] = self.nodes[2] + self.nodes[3];
        self.leaves = 2 * old;
    }
}

/// The nodes one [`SumTree::set`] writes, from the leaf up to the root, with
/// the values it writes: `sums[up]` is node `node >> up`.
#[derive(Debug, Clone)]
struct Path {
    node: usize,
    sums: [f64; usize::BITS as usize],
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::Xoshiro256;

    /// A tree grown until it has at least `leaves` leaves.
    fn tree(leaves: usize) -> SumTree {
        let mut t = SumTree::new(leaves);
        while t.leaves < leaves {
            t.double();
        }
        t
    }

    /// A buffer with `n` pushed slots.
    fn filled(capacity: usize, alpha: f64, n: usize) -> Priorities {
        let mut per = Priorities::new(capacity, alpha, 0.4, 10);
        for _ in 0..n {
            per.push();
        }
        per
    }

    #[test]
    fn sum_tree_total_tracks_sets() {
        let mut t = tree(5);
        t.set(0, 1.0);
        t.set(3, 2.0);
        assert_eq!(t.total(None), 3.0);
        t.set(0, 0.5);
        assert_eq!(t.total(None), 2.5);
        assert_eq!(t.get(3, None), 2.0);
    }

    #[test]
    fn sum_tree_find_respects_proportions() {
        let mut t = tree(4);
        t.set(0, 1.0);
        t.set(1, 3.0);
        assert_eq!(t.find(0.5, None), 0);
        assert_eq!(t.find(1.5, None), 1);
        assert_eq!(t.find(3.9, None), 1);
    }

    #[test]
    fn doubling_keeps_every_leaf_and_the_total() {
        let mut t = SumTree::new(1 << 10);
        let mut want = Vec::new();
        for i in 0..200usize {
            if i == t.leaves {
                t.double();
            }
            let v = (i as f64 + 1.0) * 0.37;
            t.set(i, v);
            want.push(v);
            for (j, w) in want.iter().enumerate() {
                assert_eq!(t.get(j, None).to_bits(), w.to_bits());
            }
            assert!((t.total(None) - want.iter().sum::<f64>()).abs() < 1e-9);
            assert_eq!(t.nodes.len(), 2 * t.leaves);
        }
        assert_eq!(t.leaves, 256);
    }

    #[test]
    fn tree_is_sized_by_contents_not_capacity() {
        let mut per = filled(1_000_000, 0.6, 1_000);
        assert_eq!(per.len(), 1_000);
        assert_eq!(per.tree.leaves, 1_024);
        assert!(per.heap_bytes() <= 2 * 1_024 * 8);
        // The ring cursor only starts moving at capacity.
        assert_eq!(per.push(), 1_000);
        assert_eq!(per.next, 0);
    }

    /// One fresh batch of `n` draws.
    fn sample(per: &mut Priorities, n: usize, rng: &mut Xoshiro256) -> PerBatch {
        let mut batch = PerBatch::default();
        per.sample_into(n, rng, &mut batch).unwrap();
        batch
    }

    #[test]
    fn a_sample_after_a_pictured_push_is_the_sample_after_the_push() {
        // Appending, reaching the tree's width (which doubles it), and
        // overwriting a full ring, in rings of several sizes.
        for (capacity, pushed) in [
            (40, 0),
            (40, 7),
            (40, 31),
            (40, 32),
            (40, 39),
            (40, 95),
            (5, 12),
        ] {
            let mut real = Priorities::new(capacity, 0.6, 0.4, 50);
            let mut errors = Xoshiro256::seed_from_u64(pushed as u64);
            for i in 0..pushed {
                real.push();
                let err = errors.range_f64(0.0, 3.0);
                real.update_priorities(&[i % capacity], &[err]);
            }
            let mut pictured = real.clone();
            let context = format!("capacity {capacity}, {pushed} pushed");
            pictured.grow_for_push();
            let (mut a, mut b) = (PerBatch::default(), PerBatch::default());
            let mut rng_a = Xoshiro256::seed_from_u64(9);
            let mut rng_b = rng_a.clone();
            let slot = pictured.sample_after_push_into(16, &mut rng_a, &mut a);
            assert_eq!(pictured.anneal_step(), real.anneal_step(), "{context}");
            assert_eq!(real.push(), slot, "{context}");
            real.sample_into(16, &mut rng_b, &mut b).unwrap();
            assert_eq!(a.indices, b.indices, "{context}");
            let bits = |w: &[f32]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.weights), bits(&b.weights), "{context}");
            assert_eq!(rng_a, rng_b, "{context}");
            // Taken, the pictured push leaves the buffer the push left.
            assert_eq!(pictured.push(), slot, "{context}");
            pictured.advance_anneal();
            assert_eq!(pictured.anneal_step(), real.anneal_step(), "{context}");
            let leaves = |p: &Priorities| {
                p.priorities()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(leaves(&pictured), leaves(&real), "{context}");
            let total = |p: &Priorities| p.tree.total(None).to_bits();
            assert_eq!(total(&pictured), total(&real), "{context}");
            pictured.sample_into(16, &mut rng_a, &mut a).unwrap();
            real.sample_into(16, &mut rng_b, &mut b).unwrap();
            assert_eq!(a, b, "{context}");
        }
    }

    #[test]
    fn high_priority_items_sampled_more() {
        let mut per = filled(16, 1.0, 10);
        // Give item 7 overwhelming priority.
        per.update_priorities(&[7], &[100.0]);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut count7 = 0;
        let mut total = 0;
        for _ in 0..50 {
            let b = sample(&mut per, 8, &mut rng);
            count7 += b.indices.iter().filter(|&&i| i == 7).count();
            total += b.indices.len();
        }
        assert!(
            count7 as f64 / total as f64 > 0.8,
            "item 7 sampled only {count7}/{total}"
        );
    }

    #[test]
    fn weights_penalise_frequent_samples() {
        let mut per = Priorities::new(8, 1.0, 1.0, 1);
        for _ in 0..4 {
            per.push();
        }
        per.update_priorities(&[0, 1, 2, 3], &[10.0, 1.0, 1.0, 1.0]);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let b = sample(&mut per, 64, &mut rng);
        // The high-priority item must carry the smallest IS weight.
        let mut w_hi = f32::INFINITY;
        let mut w_lo = 0.0f32;
        for (&i, &w) in b.indices.iter().zip(&b.weights) {
            if i == 0 {
                w_hi = w_hi.min(w);
            } else {
                w_lo = w_lo.max(w);
            }
        }
        assert!(w_hi < w_lo, "w_hi {w_hi} vs w_lo {w_lo}");
    }

    #[test]
    fn eviction_reuses_slots() {
        let mut per = filled(2, 0.6, 2);
        // Full: each push overwrites the oldest slot, round robin.
        assert_eq!([per.push(), per.push(), per.push()], [0, 1, 0]);
        assert_eq!(per.len(), 2);
        assert_eq!(per.priorities().len(), 2);
    }

    #[test]
    fn empty_sample_errors() {
        let mut per = Priorities::new(4, 0.6, 0.4, 10);
        let mut rng = Xoshiro256::seed_from_u64(0);
        let mut batch = PerBatch::default();
        assert!(per.sample_into(2, &mut rng, &mut batch).is_err());
        assert_eq!(per.anneal_step(), 0, "a failed sample must not anneal β");
    }

    #[test]
    fn update_ignores_stale_indices() {
        let mut per = filled(4, 0.6, 1);
        per.update_priorities(&[3], &[5.0]); // index 3 does not exist yet
        assert_eq!(per.len(), 1);
        assert_eq!(per.priorities(), [1.0]);
        assert_eq!(per.max_priority(), 1.0);
    }

    #[test]
    fn find_always_in_range() {
        use twig_stats::rng::Rng;
        let mut rng = Xoshiro256::seed_from_u64(0xf1ad);
        for _ in 0..200 {
            let n = rng.range_usize(1, 20);
            let prios: Vec<f64> = (0..n).map(|_| rng.range_f64(0.01, 10.0)).collect();
            let frac = rng.next_f64();
            let mut t = tree(prios.len());
            for (i, &p) in prios.iter().enumerate() {
                t.set(i, p);
            }
            let idx = t.find(frac * t.total(None) * 0.999, None);
            assert!(idx < prios.len());
        }
    }

    #[test]
    fn priorities_roundtrip_is_lossless() {
        let mut per = filled(8, 0.6, 5);
        per.update_priorities(&[1, 3], &[2.5, 9.0]);
        let saved = per.priorities();
        assert_eq!(saved.len(), 5);
        let mut restored = filled(8, 0.6, 5);
        restored.set_anneal_step(per.anneal_step());
        restored.set_max_priority(per.max_priority());
        restored.restore_priorities(&saved);
        assert_eq!(restored.priorities(), saved);
        assert_eq!(restored.max_priority(), per.max_priority());
    }

    #[test]
    fn restore_priorities_ignores_excess_entries() {
        let mut per = filled(8, 0.6, 1);
        per.restore_priorities(&[2.0, 3.0, 4.0]);
        assert_eq!(per.priorities(), vec![2.0]);
    }

    #[test]
    fn set_max_priority_rejects_invalid() {
        let mut per = Priorities::new(4, 0.6, 0.4, 10);
        per.set_max_priority(f64::NAN);
        assert_eq!(per.max_priority(), 1.0);
        per.set_max_priority(-2.0);
        assert_eq!(per.max_priority(), 1.0);
        per.set_max_priority(3.0);
        assert_eq!(per.max_priority(), 3.0);
    }

    #[test]
    fn weights_bounded_by_one() {
        for seed in 0u64..100 {
            let mut per = filled(32, 0.6, 20);
            per.update_priorities(&[1, 5], &[3.0, 7.0]);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut b = PerBatch::default();
            per.sample_into(16, &mut rng, &mut b).unwrap();
            for &w in &b.weights {
                assert!(w > 0.0 && w <= 1.0 + 1e-6, "seed {seed}: weight {w}");
            }
        }
    }

    /// The index this module shipped until the tree learned to grow: every
    /// leaf of a `capacity`-sized tree allocated (and zeroed) up front. Kept
    /// word for word as the reference [`Priorities`] must agree with bit
    /// for bit — sampled indices, weights, totals, leaves and RNG draws.
    mod reference {
        use super::super::{LinearAnneal, PerBatch};
        use twig_stats::rng::Rng;

        pub struct FixedTree {
            nodes: Vec<f64>,
            leaves: usize,
        }

        impl FixedTree {
            pub fn new(capacity: usize) -> Self {
                let leaves = capacity.next_power_of_two();
                FixedTree {
                    nodes: vec![0.0; 2 * leaves],
                    leaves,
                }
            }

            pub fn total(&self) -> f64 {
                self.nodes[1]
            }

            pub fn get(&self, leaf: usize) -> f64 {
                self.nodes[self.leaves + leaf]
            }

            pub fn set(&mut self, leaf: usize, value: f64) {
                let mut i = self.leaves + leaf;
                self.nodes[i] = value;
                while i > 1 {
                    i /= 2;
                    self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1];
                }
            }

            pub fn find(&self, mut target: f64) -> usize {
                let mut i = 1;
                while i < self.leaves {
                    let left = self.nodes[2 * i];
                    if target < left {
                        i *= 2;
                    } else {
                        target -= left;
                        i = 2 * i + 1;
                    }
                }
                i - self.leaves
            }
        }

        pub struct FixedPer {
            pub tree: FixedTree,
            pub len: usize,
            capacity: usize,
            next: usize,
            alpha: f64,
            beta: LinearAnneal,
            pub step: u64,
            pub max_priority: f64,
        }

        impl FixedPer {
            pub fn new(capacity: usize, alpha: f64, beta0: f64, beta_steps: u64) -> Self {
                FixedPer {
                    tree: FixedTree::new(capacity),
                    len: 0,
                    capacity,
                    next: 0,
                    alpha,
                    beta: LinearAnneal::new(beta0, 1.0, beta_steps),
                    step: 0,
                    max_priority: 1.0,
                }
            }

            pub fn push(&mut self) -> usize {
                let slot = if self.len < self.capacity {
                    self.len += 1;
                    self.len - 1
                } else {
                    let slot = self.next;
                    self.next = (self.next + 1) % self.capacity;
                    slot
                };
                self.tree.set(slot, self.max_priority.powf(self.alpha));
                slot
            }

            pub fn sample_into<R: Rng>(&mut self, n: usize, rng: &mut R, batch: &mut PerBatch) {
                batch.indices.clear();
                batch.weights.clear();
                let beta = self.beta.value_at(self.step);
                self.step += 1;
                let total = self.tree.total();
                let len = self.len as f64;
                for _ in 0..n {
                    let target = rng.range_f64(0.0, total.max(f64::MIN_POSITIVE));
                    let idx = self.tree.find(target).min(self.len - 1);
                    let p = self.tree.get(idx) / total;
                    let w = (len * p).powf(-beta);
                    batch.indices.push(idx);
                    batch.weights.push(w as f32);
                }
                let max_w = batch
                    .weights
                    .iter()
                    .cloned()
                    .fold(f32::MIN_POSITIVE, f32::max);
                for w in &mut batch.weights {
                    *w /= max_w;
                }
            }

            pub fn update_priorities(&mut self, indices: &[usize], errors: &[f64]) {
                const EPS: f64 = 1e-6;
                for (&idx, &err) in indices.iter().zip(errors) {
                    if idx >= self.len {
                        continue;
                    }
                    let p = err.abs() + EPS;
                    self.max_priority = self.max_priority.max(p);
                    self.tree.set(idx, p.powf(self.alpha));
                }
            }

            pub fn restore_priorities(&mut self, priorities: &[f64]) {
                for (i, &p) in priorities.iter().enumerate().take(self.len) {
                    self.tree.set(i, p);
                }
            }
        }
    }

    /// Mostly uniform, but one draw in eight is the largest or the smallest
    /// `u64`, i.e. `u = 1 − 2⁻⁵³` or `u = 0`: targets at the very ends of
    /// `[0, total)`, where `target -= left` has the least slack and a walk
    /// can run off the last occupied leaf into the zero padding.
    struct EdgyRng(Xoshiro256);

    impl Rng for EdgyRng {
        fn next_u64(&mut self) -> u64 {
            let v = self.0.next_u64();
            match v & 15 {
                0 => u64::MAX,
                1 => 0,
                _ => self.0.next_u64(),
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Everything observable of the two indices, bit for bit.
    fn assert_same(new: &Priorities, old: &reference::FixedPer, context: &str) {
        assert_eq!(new.len(), old.len, "{context}: len");
        assert_eq!(
            new.tree.total(None).to_bits(),
            old.tree.total().to_bits(),
            "{context}: total"
        );
        assert_eq!(
            new.max_priority().to_bits(),
            old.max_priority.to_bits(),
            "{context}: max priority"
        );
        let leaves: Vec<f64> = (0..old.len).map(|i| old.tree.get(i)).collect();
        assert_eq!(bits(&new.priorities()), bits(&leaves), "{context}: leaves");
        if new.len() > 0 {
            // Probe the walk directly, including the one target the two
            // trees take different routes for: `target == total`.
            let total = old.tree.total();
            for target in [0.0, total * 0.5, total * (1.0 - f64::EPSILON), total] {
                assert_eq!(
                    new.tree.find(target, None).min(new.len() - 1),
                    old.tree.find(target).min(old.len - 1),
                    "{context}: find({target:e}) of total {total:e}"
                );
            }
        }
    }

    #[test]
    fn target_equal_to_total_ends_where_the_fixed_tree_ends() {
        // Leaves chosen so that `total` rounds down to exactly the left
        // half's sum: 1 + 2⁻⁶⁰ → 1, 2⁻⁵⁴ + 2⁻⁵⁴ = 2⁻⁵³, 1 + 2⁻⁵³ → 1 (ties
        // to even). A walk for `target == total` that starts at the
        // four-leaf root subtracts the left half, is left with 0 < 2⁻⁵⁴ and
        // stops on leaf 2. The capacity-sized tree never gets that far: its
        // upper levels see `target < total` fail, turn into the zero half
        // and clamp to the last item, leaf 3.
        let saved = [1.0, 2f64.powi(-60), 2f64.powi(-54), 2f64.powi(-54)];
        for (capacity, want) in [(1_000_000, 3), (9, 3), (4, 2)] {
            let mut new = filled(capacity, 0.6, 4);
            let mut old = reference::FixedPer::new(capacity, 0.6, 0.4, 10);
            for _ in 0..4 {
                old.push();
            }
            new.restore_priorities(&saved);
            old.restore_priorities(&saved);
            let total = old.tree.total();
            assert_eq!(total, 1.0);
            assert_eq!(new.tree.total(None).to_bits(), total.to_bits());
            assert_eq!(old.tree.find(total).min(3), want, "capacity {capacity}");
            assert_eq!(
                new.tree.find(total, None).min(3),
                want,
                "capacity {capacity}"
            );
        }
    }

    /// 10^u for u uniform in [-6, 6): priorities whose sums round.
    fn wide(rng: &mut Xoshiro256) -> f64 {
        10f64.powf(rng.range_f64(-6.0, 6.0))
    }

    #[test]
    fn growing_tree_matches_the_fixed_tree_bit_for_bit() {
        // Capacity 9 and 1 000 wrap the ring several times over; capacity
        // 10⁶ (the default) is where the trees differ most in shape. Every
        // run starts empty, so every doubling (1, 2, 4, …) is crossed with
        // sampling and updates on both sides of it.
        for (capacity, ops, seed) in [
            (9usize, 4_000usize, 1u64),
            (1_000, 12_000, 2),
            (1_000_000, 12_000, 3),
            (1, 200, 4),
        ] {
            let mut new = Priorities::new(capacity, 0.6, 0.4, 500);
            let mut old = reference::FixedPer::new(capacity, 0.6, 0.4, 500);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut draws_new = EdgyRng(Xoshiro256::seed_from_u64(seed ^ 0xabcd));
            let mut draws_old = EdgyRng(Xoshiro256::seed_from_u64(seed ^ 0xabcd));
            let (mut batch_new, mut batch_old) = (PerBatch::default(), PerBatch::default());
            for op in 0..ops {
                let context = format!("capacity {capacity}, op {op}");
                match rng.range_usize(0, 10) {
                    // Pushes dominate so the buffer keeps growing (and, at
                    // the small capacities, wrapping).
                    0..=4 => assert_eq!(new.push(), old.push(), "{context}: slot"),
                    5 | 6 if new.len() > 0 => {
                        // TD errors over twelve decades, one index in eight
                        // stale (beyond `len`), now and then a zero.
                        let n = rng.range_usize(1, 65);
                        let indices: Vec<usize> = (0..n)
                            .map(|_| rng.range_usize(0, new.len() + new.len() / 8 + 1))
                            .collect();
                        let errors: Vec<f64> = (0..n)
                            .map(|_| {
                                if rng.next_bool(0.02) {
                                    0.0
                                } else {
                                    wide(&mut rng)
                                }
                            })
                            .collect();
                        new.update_priorities(&indices, &errors);
                        old.update_priorities(&indices, &errors);
                    }
                    7 | 8 if new.len() > 0 => {
                        let n = rng.range_usize(1, 65);
                        new.sample_into(n, &mut draws_new, &mut batch_new).unwrap();
                        old.sample_into(n, &mut draws_old, &mut batch_old);
                        assert_eq!(batch_new.indices, batch_old.indices, "{context}: indices");
                        let weights = |b: &PerBatch| -> Vec<u32> {
                            b.weights.iter().map(|w| w.to_bits()).collect()
                        };
                        assert_eq!(
                            weights(&batch_new),
                            weights(&batch_old),
                            "{context}: weights"
                        );
                        assert_eq!(draws_new.next_u64(), draws_old.next_u64(), "{context}: rng");
                    }
                    9 if new.len() > 0 && rng.next_bool(0.1) => {
                        // A checkpoint restore: shorter, exact or longer than
                        // the live buffer; one in five is all zeros, which
                        // makes `total` 0 and every target `>= total`.
                        let n = rng.range_usize(0, new.len() + 4);
                        let zeros = rng.next_bool(0.2);
                        let saved: Vec<f64> = (0..n)
                            .map(|_| if zeros { 0.0 } else { wide(&mut rng) })
                            .collect();
                        new.restore_priorities(&saved);
                        old.restore_priorities(&saved);
                    }
                    _ => {}
                }
                // The full comparison is O(len); do it at every doubling,
                // around the first wrap, and every 97th operation.
                let len = new.len();
                if len.is_power_of_two() || len + 1 == capacity || op % 97 == 0 {
                    assert_same(&new, &old, &context);
                }
            }
            assert_same(&new, &old, &format!("capacity {capacity}, end"));
            assert_eq!(new.anneal_step(), old.step);
            if capacity <= 1_000 {
                assert_eq!(new.len(), capacity, "the ring wrapped");
            } else {
                assert!(
                    new.tree.leaves < capacity,
                    "the tree never reached capacity"
                );
            }
        }
    }
}
