/// Adam optimiser ([Kingma & Ba 2014]), the optimiser used by the paper
/// (Section IV: learning rate 0.0025).
///
/// State (first/second moment estimates) is keyed by a stable parameter id
/// supplied by the caller, so one `Adam` instance can drive a whole network
/// of heterogeneous layers. Ids index a vector of slots — hand them out
/// densely from `0`, as [`Mlp::apply_with_base`](crate::Mlp::apply_with_base)
/// does, and check ids that arrive from outside the program before
/// [`import_state`](Self::import_state) sees them.
///
/// [Kingma & Ba 2014]: https://arxiv.org/abs/1412.6980
///
/// # Examples
///
/// ```
/// use twig_nn::Adam;
///
/// let mut adam = Adam::new(0.1);
/// let mut param = vec![1.0f32];
/// for _ in 0..100 {
///     // Gradient of f(x) = x^2 is 2x: drive x to 0.
///     let grad = vec![2.0 * param[0]];
///     adam.update(0, &mut param, &grad);
/// }
/// assert!(param[0].abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    // Slot `i` belongs to parameter id `i`; a slot whose moments are empty
    // has not been registered.
    slots: Vec<AdamSlot>,
}

impl Adam {
    /// Creates an Adam optimiser with the given learning rate and standard
    /// defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            slots: Vec::new(),
        }
    }

    /// Overrides β₁ and β₂.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Applies one Adam step to `param` given `grad`, using the moment
    /// buffers registered under `param_id`.
    ///
    /// # Panics
    ///
    /// Panics if `param.len() != grad.len()`, or if `param_id` was
    /// previously used with a different parameter length.
    pub fn update(&mut self, param_id: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(
            param.len(),
            grad.len(),
            "parameter/gradient length mismatch for id {param_id}"
        );
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let slot = self.slot_mut(param_id);
        if slot.m.is_empty() {
            slot.m = vec![0.0; param.len()];
            slot.v = vec![0.0; param.len()];
        }
        assert_eq!(
            slot.m.len(),
            param.len(),
            "parameter id {param_id} reused with a different shape"
        );
        slot.steps += 1;
        let AdamSlot { steps: t, m, v, .. } = slot;
        let t = *t as i32;
        let bias1 = 1.0 - beta1.powi(t);
        let bias2 = 1.0 - beta2.powi(t);
        let parking = Parking::new(lr, beta1, bias1, eps);
        let mut parked = [0u32; CHUNK];
        for (((param, grad), m), v) in param
            .chunks_mut(CHUNK)
            .zip(grad.chunks(CHUNK))
            .zip(m.chunks_mut(CHUNK))
            .zip(v.chunks_mut(CHUNK))
        {
            // `|`, not `any`: no early exit, so the scan vectorises.
            let stuck = m.iter().fold(false, |hit, m| hit | m.is_subnormal());
            if stuck {
                parking.park((param, grad), (m, v), &mut parked);
            }
            // One zipped pass with the hyper-parameters in locals: no index,
            // no bounds check, nothing reloaded through `self`, so the loop
            // vectorises. Element-wise IEEE operations in the written order
            // — bit-identical to the indexed form (see the test below).
            for (((p, &g), m), v) in param
                .iter_mut()
                .zip(grad)
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            if stuck {
                for (m, bits) in m.iter_mut().zip(&mut parked) {
                    *m = if *bits != 0 {
                        f32::from_bits(*bits)
                    } else {
                        *m
                    };
                    *bits = 0;
                }
            }
        }
    }

    /// The slot of `param_id`, growing the vector by empty slots up to it.
    fn slot_mut(&mut self, param_id: usize) -> &mut AdamSlot {
        let registered = self.slots.len();
        if param_id >= registered {
            self.slots
                .extend((registered..=param_id).map(|id| AdamSlot {
                    id,
                    steps: 0,
                    m: Vec::new(),
                    v: Vec::new(),
                }));
        }
        &mut self.slots[param_id]
    }

    /// Discards all moment state (used when weights are replaced wholesale,
    /// e.g. by transfer learning).
    pub fn reset_state(&mut self) {
        self.slots.clear();
    }

    /// Snapshots the moment buffers and step counts for every registered
    /// parameter id, in ascending id order.
    pub fn export_state(&self) -> AdamState {
        let registered = self.slots.iter().filter(|s| !s.m.is_empty());
        AdamState {
            slots: registered.cloned().collect(),
        }
    }

    /// Replaces all moment state with a snapshot produced by
    /// [`export_state`](Self::export_state). Existing state is discarded
    /// first, so importing an empty snapshot is equivalent to
    /// [`reset_state`](Self::reset_state).
    pub fn import_state(&mut self, state: &AdamState) {
        self.reset_state();
        for slot in &state.slots {
            *self.slot_mut(slot.id) = slot.clone();
        }
    }

    /// Heap bytes held, at allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        let moments = |s: &AdamSlot| (s.m.capacity() + s.v.capacity()) * std::mem::size_of::<f32>();
        self.slots.capacity() * std::mem::size_of::<AdamSlot>()
            + self.slots.iter().map(moments).sum::<usize>()
    }
}

/// Elements [`Adam::update`] handles at a time: long enough for the plain
/// loop to run vectorised, short enough that `Parking`'s side buffer lives
/// on the stack.
const CHUNK: usize = 64;

/// Keeps stuck first moments out of the floating-point unit.
///
/// A parameter whose gradient becomes exactly zero for good — every weight
/// into and out of a ReLU unit that died — has its first moment decay as
/// `m ← β₁·m` until it is subnormal, and there it *sticks*: `0.9 · 4` ulps
/// rounds back to 4 ulps. From then on every step pushes that element
/// through a multiply, two divides and another multiply with a subnormal
/// operand, each a microcode assist of a hundred-odd cycles on x86 — over a
/// third of a trained 24-agent network's moments end up there, and the
/// optimiser step goes from 0.15 ms to 3.8 ms — to compute an update far
/// too small to move the parameter.
///
/// [`park`](Self::park) finds those elements, works out what the plain loop
/// would store and takes them out of its way, so that the results are
/// bit-identical to the plain loop's:
///
/// - `g = ±0` and `m = ±n` ulps, `0 < n < 2²³`, `0 < β₁ < 1`: the loop
///   stores `m' = fl(β₁·m) + ±0`. The product's exact value is `β₁·n` ulps
///   and a subnormal result is rounded to a whole number of ulps, ties to
///   even, so `m' = ±RNE(β₁·n)` ulps — computed here in `f64`, where
///   `β₁·n` (24 × 23 bits) is exact and adding `2⁵²` rounds it to an
///   integer the same way. If that integer is zero the element is left to
///   the plain loop (signed-zero sums).
/// - The parameter must not move. Whatever `m'` and `v ≥ 0` are, the update
///   `x = lr·(m'/bias₁)/(√v̂ + ε)` satisfies `|x| ≤ x_max`, the same three
///   operations applied to the smallest normal over the smallest
///   denominator `ε` (each operation is monotone, so is its rounding); if
///   `p − x_max` and `p + x_max` both round to `p`, so does `p − x`. A `p`
///   that is tiny or NaN fails that test and is left to the plain loop, as
///   are a zero `p` (signed-zero differences again) and any `v` that is
///   negative or NaN.
///
/// A parked element enters the plain loop with `m = +0`, which takes it
/// through `m' = 0`, `x = 0/… = 0`, `p − 0 = p` without a subnormal in sight
/// and leaves `v' = β₂·v + 0` as it would have been; its stored `m'` is put
/// back afterwards.
struct Parking {
    beta1: f64,
    /// Upper bound on `|x|` for a subnormal `m'`; infinite (nothing parks)
    /// when the hyper-parameters are outside what the argument covers.
    x_max: f32,
}

impl Parking {
    fn new(lr: f32, beta1: f32, bias1: f32, eps: f32) -> Self {
        let covered = beta1 > 0.0 && beta1 < 1.0 && eps > 0.0;
        Parking {
            beta1: f64::from(beta1),
            x_max: if covered {
                lr.abs() * (f32::MIN_POSITIVE / bias1) / eps
            } else {
                f32::INFINITY
            },
        }
    }

    /// Zeroes every element of `m` that qualifies and records the bits the
    /// plain loop would have stored for it in `parked` (zero = not parked).
    /// Straight-line selects, no branch: in a trained network most chunks
    /// hold stuck moments, a third of all elements and more.
    fn park(
        &self,
        (param, grad): (&[f32], &[f32]),
        (m, v): (&mut [f32], &[f32]),
        parked: &mut [u32; CHUNK],
    ) {
        // Adding 2⁵² leaves `RNE(x)` in the low bits of the sum's mantissa.
        const ROUND: f64 = (1u64 << 52) as f64;
        for ((((&p, &g), m), &v), slot) in param.iter().zip(grad).zip(m).zip(v).zip(parked) {
            let bits = m.to_bits();
            // Meaningful only under a zero exponent field; fits an `i32`.
            let ulps = f64::from((bits & 0x007f_ffff) as i32);
            let decayed = (self.beta1 * ulps + ROUND).to_bits() as u32;
            let park = (bits & 0x7f80_0000 == 0)
                & (decayed != 0)
                & (g == 0.0)
                & (v >= 0.0)
                & (p != 0.0)
                & (p - self.x_max == p)
                & (p + self.x_max == p);
            *slot = if park {
                (bits & 0x8000_0000) | decayed
            } else {
                0
            };
            *m = if park { 0.0 } else { *m };
        }
    }
}

/// Serializable snapshot of an [`Adam`] optimiser's moment state, used by
/// checkpointing. Slots are ordered by ascending parameter id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// One slot per registered parameter id, ascending by id.
    pub slots: Vec<AdamSlot>,
}

/// Moment buffers and bias-correction step count for one parameter id.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSlot {
    /// The parameter id the buffers are registered under.
    pub id: usize,
    /// Bias-correction step count `t`.
    pub steps: u64,
    /// First-moment estimate.
    pub m: Vec<f32>,
    /// Second-moment estimate.
    pub v: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut adam = Adam::new(0.05);
        let mut p = vec![5.0f32, -3.0];
        for _ in 0..2000 {
            let grad: Vec<f32> = p.iter().map(|x| 2.0 * x).collect();
            adam.update(7, &mut p, &grad);
        }
        assert!(p.iter().all(|x| x.abs() < 1e-2), "p = {p:?}");
    }

    #[test]
    fn zipped_update_bit_identical_to_indexed_reference() {
        use twig_stats::rng::{Rng, Xoshiro256};
        // The textbook indexed loop, kept here as the reference.
        fn reference(
            (lr, beta1, beta2, eps): (f32, f32, f32, f32),
            t: i32,
            (param, grad): (&mut [f32], &[f32]),
            (m, v): (&mut [f32], &mut [f32]),
        ) {
            let bias1 = 1.0 - beta1.powi(t);
            let bias2 = 1.0 - beta2.powi(t);
            for i in 0..param.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                param[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(0xada);
        // 37 is not a multiple of any vector width: the tail runs too.
        let n = 37;
        let mut adam = Adam::new(0.0025);
        let mut got: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let mut want = got.clone();
        let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
        for t in 1..=50 {
            let grad: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        rng.range_f32(-3.0, 3.0)
                    }
                })
                .collect();
            adam.update(0, &mut got, &grad);
            reference(
                (0.0025, 0.9, 0.999, 1e-8),
                t,
                (&mut want, &grad),
                (&mut m, &mut v),
            );
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {t}");
            }
        }
    }

    #[test]
    fn parked_subnormal_moments_bit_identical_to_plain_loop() {
        use twig_stats::rng::{Rng, Xoshiro256};
        // The plain loop, which `update` must reproduce in `p`, `m` and `v`
        // whatever it parks.
        fn reference(
            (lr, beta1, beta2, eps): (f32, f32, f32, f32),
            t: i32,
            (param, grad): (&mut [f32], &[f32]),
            (m, v): (&mut [f32], &mut [f32]),
        ) {
            let bias1 = 1.0 - beta1.powi(t);
            let bias2 = 1.0 - beta2.powi(t);
            for i in 0..param.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                param[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        let ulps = |n: u32| f32::from_bits(n);
        let tiny = f32::MIN_POSITIVE;
        // First moments around and inside the subnormal range, both signs;
        // parameters the bound lets through and ones it must not (zeros,
        // values an update this small still moves, non-finite); second
        // moments that are fine, zero, subnormal, negative and NaN.
        let ms = [
            ulps(1),
            ulps(2),
            ulps(3),
            ulps(4),
            ulps(5),
            -ulps(4),
            -ulps(1),
            ulps(0x7f_ffff),
            -ulps(0x40_0001),
            tiny,
            -tiny * 1.5,
            0.0,
            -0.0,
            1e-3,
        ];
        let ps = [
            0.5,
            -0.25,
            0.0,
            -0.0,
            tiny,
            -tiny * 3.0,
            ulps(7),
            1e-30,
            f32::NAN,
            f32::INFINITY,
        ];
        let vs = [1e-6, 0.0, ulps(9), 1e-30, -1e-6, f32::NAN, f32::INFINITY];
        // Gradients: dead for good (either zero), live, or tiny enough to
        // underflow when squared.
        let gs = [0.0, -0.0, 0.0, 0.0, 0.7, -1e-25];
        let mut rng = Xoshiro256::seed_from_u64(0x5ab);
        let mut pick = |from: &[f32]| from[rng.next_u64() as usize % from.len()];
        // 3 chunks and a tail.
        let n = 3 * CHUNK + 17;
        for (lr, beta1, beta2) in [
            (0.0025, 0.9, 0.999),
            (0.0025, 0.3, 0.5),
            (0.0025, 0.999, 0.9),
            (1e4, 0.9, 0.999),
            (0.0, 0.9, 0.999),
            (-0.1, 0.9, 0.999),
            (0.0025, 1.5, 0.999),
        ] {
            let mut want_p: Vec<f32> = (0..n).map(|_| pick(&ps)).collect();
            let mut want_m: Vec<f32> = (0..n).map(|_| pick(&ms)).collect();
            let mut want_v: Vec<f32> = (0..n).map(|_| pick(&vs)).collect();
            let grad: Vec<f32> = (0..n).map(|_| pick(&gs)).collect();
            let start = 40;
            let mut adam = Adam::new(lr).with_betas(beta1, beta2);
            adam.import_state(&AdamState {
                slots: vec![AdamSlot {
                    id: 0,
                    steps: start,
                    m: want_m.clone(),
                    v: want_v.clone(),
                }],
            });
            let mut got_p = want_p.clone();
            let mut parked_some = false;
            for t in start + 1..start + 200 {
                parked_some |= want_m
                    .iter()
                    .zip(&grad)
                    .any(|(m, g)| m.is_subnormal() && *g == 0.0);
                adam.update(0, &mut got_p, &grad);
                reference(
                    (lr, beta1, beta2, 1e-8),
                    t as i32,
                    (&mut want_p, &grad),
                    (&mut want_m, &mut want_v),
                );
                let state = adam.export_state();
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let what = format!("lr {lr} betas {beta1}/{beta2} step {t}");
                assert_eq!(bits(&got_p), bits(&want_p), "p, {what}");
                assert_eq!(bits(&state.slots[0].m), bits(&want_m), "m, {what}");
                assert_eq!(bits(&state.slots[0].v), bits(&want_v), "v, {what}");
            }
            assert!(parked_some);
        }
    }

    #[test]
    fn dead_gradient_moment_sticks_in_the_subnormals() {
        // The case `Parking` exists for: a first moment under a gradient
        // that went to zero never reaches zero, it stops a few ulps short.
        let mut adam = Adam::new(0.0025);
        let mut p = vec![0.5f32];
        adam.update(0, &mut p, &[1e-3]);
        for _ in 0..2000 {
            adam.update(0, &mut p, &[0.0]);
        }
        let m = adam.export_state().slots[0].m[0];
        assert!(m.is_subnormal(), "m = {m:e}");
        assert_eq!(m.to_bits(), 4);
    }

    #[test]
    fn separate_ids_have_separate_state() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![1.0f32];
        let mut b = vec![1.0f32];
        adam.update(0, &mut a, &[1.0]);
        adam.update(0, &mut a, &[1.0]);
        adam.update(1, &mut b, &[1.0]);
        // First step moves exactly lr regardless of gradient magnitude.
        assert!((b[0] - 0.9).abs() < 1e-5);
        assert!(a[0] < b[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let mut adam = Adam::new(0.1);
        adam.update(0, &mut [1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn rejects_id_reuse_with_new_shape() {
        let mut adam = Adam::new(0.1);
        adam.update(0, &mut [1.0], &[1.0]);
        adam.update(0, &mut [1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        let mut a = Adam::new(0.05);
        let mut b = Adam::new(0.05);
        let mut pa = vec![5.0f32, -3.0];
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            a.update(3, &mut pa, &grad);
        }
        let state = a.export_state();
        assert_eq!(state.slots.len(), 1);
        assert_eq!(state.slots[0].id, 3);
        assert_eq!(state.slots[0].steps, 10);
        b.import_state(&state);
        let mut pb = pa.clone();
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            a.update(3, &mut pa, &grad);
            let grad: Vec<f32> = pb.iter().map(|x| 2.0 * x).collect();
            b.update(3, &mut pb, &grad);
        }
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn ids_registered_out_of_order_export_in_id_order() {
        let mut adam = Adam::new(0.1);
        adam.update(9, &mut [1.0], &[1.0]);
        adam.update(2, &mut [1.0, 2.0], &[1.0, 1.0]);
        adam.update(5, &mut [1.0], &[1.0]);
        adam.update(2, &mut [1.0, 2.0], &[1.0, 1.0]);
        // The ids in between hold empty slots, which an export skips and a
        // round trip through `import_state` leaves empty.
        let state = adam.export_state();
        let summary = |state: &AdamState| -> Vec<(usize, u64, usize)> {
            let slots = state.slots.iter();
            slots.map(|s| (s.id, s.steps, s.m.len())).collect()
        };
        assert_eq!(summary(&state), [(2, 2, 2), (5, 1, 1), (9, 1, 1)]);
        let mut twin = Adam::new(0.1);
        twin.import_state(&state);
        assert_eq!(twin.export_state(), state);
        // A skipped id registers later like any new one.
        twin.update(3, &mut [1.0], &[1.0]);
        assert_eq!(
            summary(&twin.export_state()),
            [(2, 2, 2), (3, 1, 1), (5, 1, 1), (9, 1, 1)]
        );
    }

    #[test]
    fn import_empty_state_resets() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        adam.update(0, &mut p, &[1.0]);
        adam.import_state(&AdamState::default());
        let mut q = vec![0.0f32];
        adam.update(0, &mut q, &[1.0]);
        assert!((q[0] + 0.1).abs() < 1e-6);
    }

    #[test]
    fn reset_state_restarts_bias_correction() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        adam.update(0, &mut p, &[1.0]);
        let after_first = p[0];
        adam.reset_state();
        let mut q = vec![0.0f32];
        adam.update(0, &mut q, &[1.0]);
        assert!((after_first - q[0]).abs() < 1e-7);
    }
}
