/// Adam optimiser ([Kingma & Ba 2014]), the optimiser used by the paper
/// (Section IV: learning rate 0.0025).
///
/// One `Adam` drives any number of parameter arrays as one flat vector: an
/// [`update`](Self::update) is one optimiser step — one bias-correction step
/// count `t` — over the regions it is handed, in order, and the moments `m`
/// and `v` are laid out the same way. Hand it the same regions in the same
/// order every step: `twig-rl`'s learner hands over the parameter arenas of
/// its trunk, value heads and advantage heads.
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
///     let grad = [2.0 * param[0]];
///     adam.sized(1).update([(&mut param[..], &grad[..])]);
/// }
/// assert!(param[0].abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Steps taken since construction or the last reset.
    t: u64,
    // Empty until sized after construction or a reset.
    m: Vec<f32>,
    v: Vec<f32>,
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
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Overrides β₁ and β₂.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The optimiser with moments for `len` parameters, allocated here as
    /// exactly sized zeros when empty (after construction or a reset). Call
    /// it before each [`update`](Self::update) with the regions' total length.
    pub fn sized(&mut self, len: usize) -> &mut Self {
        if self.m.is_empty() {
            self.m = vec![0.0; len];
            self.v = vec![0.0; len];
        }
        self
    }

    /// Applies one Adam step to every `(parameters, gradients)` region, in
    /// order, over moments [`sized`](Self::sized) to their total length.
    ///
    /// # Panics
    ///
    /// Panics if a region's parameter and gradient lengths differ, or if the
    /// regions' total length is not the moments' length.
    pub fn update<'a>(&mut self, regions: impl IntoIterator<Item = (&'a mut [f32], &'a [f32])>) {
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let t = self.t as i32;
        let bias1 = 1.0 - beta1.powi(t);
        let bias2 = 1.0 - beta2.powi(t);
        let parking = Parking::new(lr, beta1, bias1, eps);
        let mut parked = [0u32; CHUNK];
        let mut at = 0;
        for (param, grad) in regions {
            assert_eq!(
                param.len(),
                grad.len(),
                "parameter/gradient length mismatch"
            );
            let end = at + param.len();
            assert!(
                end <= self.m.len(),
                "regions longer than the {} moments",
                self.m.len()
            );
            let (m, v) = (&mut self.m[at..end], &mut self.v[at..end]);
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
                // — bit-identical to the indexed form over any split into
                // regions (see the tests below).
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
            at = end;
        }
        assert_eq!(at, self.m.len(), "regions shorter than the moments");
    }

    /// Discards all moment state and the step count (used when weights are
    /// replaced wholesale, e.g. by transfer learning).
    pub fn reset_state(&mut self) {
        self.t = 0;
        self.m = Vec::new();
        self.v = Vec::new();
    }

    /// Steps taken since construction or the last reset: the bias-correction
    /// step count `t`.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moments, laid out like the regions
    /// [`update`](Self::update) is handed; empty until
    /// [`sized`](Self::sized).
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Sets the step count to `steps` and the moments to `len` zeros each
    /// (reusing their allocation), and lends them out to be filled, e.g. from
    /// a checkpoint. `len = 0` is [`reset_state`](Self::reset_state).
    pub fn restore(&mut self, steps: u64, len: usize) -> (&mut [f32], &mut [f32]) {
        if len == 0 {
            self.reset_state();
        } else {
            self.t = steps;
            for moment in [&mut self.m, &mut self.v] {
                moment.clear();
                moment.resize(len, 0.0);
            }
        }
        (&mut self.m, &mut self.v)
    }

    /// Heap bytes held, at allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        (self.m.capacity() + self.v.capacity()) * std::mem::size_of::<f32>()
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
/// back afterwards. Each element is decided on its own, so where a chunk or
/// a region starts changes nothing but which chunks run the scan.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One step over a single region.
    fn step(adam: &mut Adam, param: &mut [f32], grad: &[f32]) {
        adam.sized(param.len()).update([(param, grad)]);
    }

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut adam = Adam::new(0.05);
        let mut p = vec![5.0f32, -3.0];
        for _ in 0..2000 {
            let grad: Vec<f32> = p.iter().map(|x| 2.0 * x).collect();
            step(&mut adam, &mut p, &grad);
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
        // 37 is not a multiple of any vector width: the tail runs too. The
        // regions cut it where a network's tensors would, off any chunk.
        let n = 37;
        let cuts = [0, 5, 6, 30, 37];
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
            let mut rest = &mut got[..];
            let mut regions = Vec::new();
            for w in cuts.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - w[0]);
                regions.push((head, &grad[w[0]..w[1]]));
                rest = tail;
            }
            adam.sized(n).update(regions);
            assert_eq!(adam.steps(), t as u64);
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
            let (m, v) = adam.restore(start, n);
            m.copy_from_slice(&want_m);
            v.copy_from_slice(&want_v);
            let mut got_p = want_p.clone();
            let mut parked_some = false;
            for t in start + 1..start + 200 {
                parked_some |= want_m
                    .iter()
                    .zip(&grad)
                    .any(|(m, g)| m.is_subnormal() && *g == 0.0);
                step(&mut adam, &mut got_p, &grad);
                reference(
                    (lr, beta1, beta2, 1e-8),
                    t as i32,
                    (&mut want_p, &grad),
                    (&mut want_m, &mut want_v),
                );
                let (m, v) = adam.moments();
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let what = format!("lr {lr} betas {beta1}/{beta2} step {t}");
                assert_eq!(bits(&got_p), bits(&want_p), "p, {what}");
                assert_eq!(bits(m), bits(&want_m), "m, {what}");
                assert_eq!(bits(v), bits(&want_v), "v, {what}");
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
        step(&mut adam, &mut p, &[1e-3]);
        for _ in 0..2000 {
            step(&mut adam, &mut p, &[0.0]);
        }
        let m = adam.moments().0[0];
        assert!(m.is_subnormal(), "m = {m:e}");
        assert_eq!(m.to_bits(), 4);
    }

    #[test]
    fn sized_allocates_the_moments_once_and_exactly() {
        let mut adam = Adam::new(0.1);
        assert_eq!(adam.heap_bytes(), 0);
        let (mut a, mut b) = (vec![1.0f32; 3], vec![1.0f32; 70]);
        for _ in 0..2 {
            adam.sized(73)
                .update([(&mut a[..], &[1.0; 3][..]), (&mut b[..], &[1.0; 70][..])]);
            assert_eq!(adam.heap_bytes(), 2 * 73 * 4);
        }
        assert_eq!((adam.steps(), adam.moments().0.len()), (2, 73));
        // Each step moves exactly lr under a constant gradient.
        assert!((a[0] - 0.8).abs() < 1e-5 && (b[69] - 0.8).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "regions longer")]
    fn rejects_regions_before_the_moments_are_sized() {
        Adam::new(0.1).update([(&mut [1.0][..], &[1.0][..])]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let mut adam = Adam::new(0.1);
        step(&mut adam, &mut [1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "regions longer")]
    fn rejects_regions_longer_than_the_moments() {
        let mut adam = Adam::new(0.1);
        step(&mut adam, &mut [1.0], &[1.0]);
        step(&mut adam, &mut [1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "regions shorter")]
    fn rejects_regions_shorter_than_the_moments() {
        let mut adam = Adam::new(0.1);
        step(&mut adam, &mut [1.0, 2.0], &[1.0, 1.0]);
        step(&mut adam, &mut [1.0], &[1.0]);
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        let mut a = Adam::new(0.05);
        let mut b = Adam::new(0.05);
        let mut pa = vec![5.0f32, -3.0];
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            step(&mut a, &mut pa, &grad);
        }
        assert_eq!(a.steps(), 10);
        let (m, v) = a.moments();
        let (bm, bv) = b.restore(a.steps(), m.len());
        bm.copy_from_slice(m);
        bv.copy_from_slice(v);
        let mut pb = pa.clone();
        for _ in 0..10 {
            let grad: Vec<f32> = pa.iter().map(|x| 2.0 * x).collect();
            step(&mut a, &mut pa, &grad);
            let grad: Vec<f32> = pb.iter().map(|x| 2.0 * x).collect();
            step(&mut b, &mut pb, &grad);
        }
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn restoring_nothing_resets() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        step(&mut adam, &mut p, &[1.0]);
        adam.restore(7, 0);
        assert_eq!((adam.steps(), adam.heap_bytes()), (0, 0));
        let mut q = vec![0.0f32];
        step(&mut adam, &mut q, &[1.0]);
        assert!((q[0] + 0.1).abs() < 1e-6);
    }

    #[test]
    fn reset_state_restarts_bias_correction() {
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32];
        step(&mut adam, &mut p, &[1.0]);
        let after_first = p[0];
        adam.reset_state();
        let mut q = vec![0.0f32];
        step(&mut adam, &mut q, &[1.0]);
        assert!((after_first - q[0]).abs() < 1e-7);
    }
}
