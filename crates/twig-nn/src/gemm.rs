//! The one `f32` GEMM microkernel behind [`Tensor::matmul_into`],
//! [`Tensor::t_matmul_into`] and [`Tensor::matmul_t_into`].
//!
//! # Contract
//!
//! Every output element is `out[i][j] = Σ_p A[i][p] · B[p][j]`, summed in
//! **ascending `p`** starting from `+0.0`, one rounding per fused
//! multiply-add step: `acc = A[i][p].mul_add(B[p][j], acc)`, the exact
//! product added to the accumulator and the sum rounded once, with no
//! reassociation. `f32::mul_add` is correctly rounded on every target, so
//! this is the naive triple loop written with `mul_add`, and weights,
//! checkpoints and scenario digests do not depend on how the loops around it
//! are tiled — nor on which instantiation below ran.
//!
//! With `CONT = true` the chain starts from what `out` already holds instead
//! of `+0.0`. A product over `inner = p₁ + p₂` indices split into a call over
//! the first `p₁` followed by a continuing call over the last `p₂` is the
//! same chain: the partial sum after index `p₁ − 1` is an `f32` either way
//! (nothing is kept in wider precision between steps), so storing it to
//! `out` and loading it back rounds nothing. That is what lets a product
//! whose leading columns are shared by many row groups compute that part
//! once (`Mlp::prefix_into` / `Mlp::forward_batch`).
//!
//! Nothing is skipped: a zero in `A` still multiplies its row of `B`, so
//! `0 · ∞` and `0 · NaN` reach the output as NaN. For finite operands that is
//! the same bit pattern a zero-skipping loop produces: the accumulator starts
//! at `+0.0`, and under round-to-nearest a sum is `-0.0` only when both
//! addends are `-0.0`, so the accumulator is never `-0.0`; an exact product
//! `±0 · b` with finite `b` is `±0`, and a fused step adding `±0` to an
//! accumulator that is not `-0.0` returns the accumulator unchanged.
//!
//! # Shape
//!
//! An `MR × NR` block of accumulators lives in a fixed-size array across the
//! whole inner dimension, which LLVM keeps in vector registers; each step
//! loads one `NR`-wide row of `B` once and feeds all `MR` rows with it.
//! Columns left over after the last full tile cascade through `NR / 2`, … ,
//! `1`. Fewer than `MR` rows left over are served one row at a time by a
//! `1 × 4·NR` tile: a single row of the narrow tile is two dependent add
//! chains and loses to a plain row-axpy, the wide one has as many independent
//! chains as the full tile. The choice depends on the row count alone.
//!
//! # Two instantiations of one source
//!
//! `tile` and the band walk around it (`band_walk!`) are written once and
//! compiled twice. The *portable* instantiation is `4 × 8` / `1 × 32`: with
//! the baseline target features (SSE2 on x86-64) its 32 accumulators are
//! eight of the sixteen `xmm` registers, and each `mul_add` is a call to
//! libm's correctly rounded `fmaf` — slow, but the reference bits on any
//! CPU. On x86-64 the same source is compiled again under
//! `#[target_feature(enable = "avx2,fma")]` as `4 × 16` / `1 × 64`: the same
//! number of registers, each a 256-bit `ymm`, and each step one
//! `vfmadd231ps` per accumulator. A lane of a wider register does exactly
//! what a lane of a narrow one does — one fused rounding, in the same `p`
//! order — so the two produce the same bits. There is no AVX-512 leg (a
//! third copy to test, for registers that the 48- and 18-wide layers here
//! would leave half empty). A taller `6 × 16` tile was measured again with
//! FMA and still lost: a 64-row batch leaves four rows to the single-row
//! tile, and the `learn_k24` loop ran a median 126 epochs/s against 167 for
//! `4 × 16` (four alternating pairs on a 2-vCPU Xeon). (Before FMA it had lost at the operator level too: each
//! step was a multiply and an add on the same ports, so the tile was
//! port-bound at either height.)
//!
//! [`Kernel::Detected`] asks CPUID (`is_x86_feature_detected!` for `avx2`
//! and for `fma`, cached atomic loads) on every call and falls through to the
//! portable body on a CPU without both and on every other architecture,
//! where it is the only path. There is no build flag, feature or environment
//! switch. [`Kernel::Portable`] forces the reference body; only tests ask for
//! it.
//!
//! [`Tensor::matmul_into`]: crate::Tensor::matmul_into
//! [`Tensor::t_matmul_into`]: crate::Tensor::t_matmul_into
//! [`Tensor::matmul_t_into`]: crate::Tensor::matmul_t_into

/// Rows of the register tile, in both instantiations.
pub(crate) const MR: usize = 4;

/// Which instantiation of the band walk serves a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The widest one this CPU runs — what every product in the crate uses.
    Detected,
    /// The portable reference, whatever the CPU. Nothing outside the tests
    /// asks for it.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
}

impl Kernel {
    /// Whether calls through `self` run the AVX2 + FMA instantiation: never
    /// for [`Kernel::Portable`], and for [`Kernel::Detected`] exactly when
    /// CPUID reports both AVX2 and FMA.
    #[inline]
    pub(crate) fn fma(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Detected {
            return std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
        }
        false
    }

    /// Columns of the register tile: the panel width a caller packing `B`
    /// should use so that every panel but the last is whole tiles.
    pub(crate) fn nr(self) -> usize {
        if self.fma() {
            16
        } else {
            8
        }
    }

    /// A name for timing artefacts: instruction set and tile shape.
    pub(crate) fn name(self) -> &'static str {
        if self.fma() {
            "avx2+fma 4x16"
        } else {
            "portable 4x8"
        }
    }

    /// `out[i][j] = Σ_p A[i][p] · B[p][j]` over an `m × n` block of `out`;
    /// with `CONT = true`, `out[i][j] += …` continuing each element's chain
    /// from the value already there.
    ///
    /// `B` is `inner × n` with row stride `ldb`, `out` is `m × n` with row
    /// stride `ldo` (both may be windows into wider matrices). `A` is dense:
    /// with `TA = false` it is `m × inner` row-major; with `TA = true` it is
    /// the transpose of an `inner × m` row-major matrix, read in place — the
    /// tile then walks that matrix row by row as an outer product.
    pub(crate) fn gemm<const TA: bool, const CONT: bool>(
        self,
        dims: (usize, usize, usize),
        a: &[f32],
        b: (&[f32], usize),
        out: (&mut [f32], usize),
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.fma() {
            // SAFETY: `walk_fma` is safe Rust compiled with AVX2 and FMA
            // enabled; its one requirement is a CPU that executes both, and
            // `self.fma()` is true only when `is_x86_feature_detected!`
            // (CPUID) has just said this one does.
            #[allow(unsafe_code)]
            return unsafe { walk_fma::<TA, CONT>(dims, a, b, out) };
        }
        walk_portable::<TA, CONT>(dims, a, b, out)
    }

    /// `out = A · Bᵀ` for `A` `m × inner`, `B` `n × inner`, `out` `m × n`,
    /// all dense row-major: [`nr`](Self::nr) rows of `B` at a time are
    /// transposed into `pack` (resized to `nr · inner` floats, every slot
    /// the kernel reads rewritten per panel) and fed to [`gemm`](Self::gemm),
    /// so each output element sums over ascending column index of `B`.
    pub(crate) fn gemm_bt(
        self,
        (m, inner, n): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        pack: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let nr = self.nr();
        pack.resize(nr * inner, 0.0);
        for j in (0..n).step_by(nr) {
            let width = nr.min(n - j);
            for jj in 0..width {
                let row = &b[(j + jj) * inner..][..inner];
                for (slot, &w) in pack.iter_mut().skip(jj).step_by(nr).zip(row) {
                    *slot = w;
                }
            }
            self.gemm::<false, false>((m, inner, width), a, (pack, nr), (&mut out[j..], n));
        }
    }
}

/// The band walk, written once: full `$mr`-row bands tile their columns
/// `$nr` wide, then the column remainder in the halving widths listed; the
/// last `m mod $mr` rows go one at a time through the single-row widths.
macro_rules! band_walk {
    ($(#[$attr:meta])* $name:ident: $mr:tt x [$($nr:tt)+], 1 x [$($wide:tt)+]) => {
        $(#[$attr])*
        fn $name<const TA: bool, const CONT: bool>(
            (m, inner, n): (usize, usize, usize),
            a: &[f32],
            (b, ldb): (&[f32], usize),
            (out, ldo): (&mut [f32], usize),
        ) {
            let lda = if TA { m } else { inner };
            let mut i = 0;
            while i < m {
                let mut j = 0;
                if m - i >= $mr {
                    $(while n - j >= $nr {
                        tile::<TA, CONT, $mr, $nr>((i, inner, j), (a, lda), (b, ldb), (&mut *out, ldo));
                        j += $nr;
                    })+
                    i += $mr;
                } else {
                    $(while n - j >= $wide {
                        tile::<TA, CONT, 1, $wide>((i, inner, j), (a, lda), (b, ldb), (&mut *out, ldo));
                        j += $wide;
                    })+
                    i += 1;
                }
            }
        }
    };
}

band_walk!(walk_portable: MR x [8 4 2 1], 1 x [32 16 8 4 2 1]);
#[cfg(target_arch = "x86_64")]
band_walk!(
    #[target_feature(enable = "avx2,fma")]
    walk_fma: MR x [16 8 4 2 1], 1 x [64 32 16 8 4 2 1]
);

/// One `R × C` register tile of `out`, at row `i` and column `j`. Inlined
/// into each band walk, so it is compiled with that walk's target features.
#[inline(always)]
fn tile<const TA: bool, const CONT: bool, const R: usize, const C: usize>(
    (i, inner, j): (usize, usize, usize),
    (a, lda): (&[f32], usize),
    (b, ldb): (&[f32], usize),
    (out, ldo): (&mut [f32], usize),
) {
    // Slicing each row of `A` to `inner` once lets the loop index it
    // unchecked (`TA` reads columns of `a` instead and leaves these unused).
    let a_rows: [&[f32]; R] =
        std::array::from_fn(|r| if TA { a } else { &a[(i + r) * lda..][..inner] });
    let mut acc = [[0.0f32; C]; R];
    if CONT {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(i + r) * ldo + j..][..C]);
        }
    }
    for p in 0..inner {
        let a_col: [f32; R] = if TA {
            a[p * lda + i..][..R].try_into().expect("tile height")
        } else {
            a_rows.map(|row| row[p])
        };
        let b_row: &[f32; C] = b[p * ldb + j..][..C].try_into().expect("tile width");
        for (acc_row, a_rp) in acc.iter_mut().zip(a_col) {
            for (o, &b_pc) in acc_row.iter_mut().zip(b_row) {
                *o = a_rp.mul_add(b_pc, *o);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * ldo + j..][..C].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::{Rng, Xoshiro256};

    /// The instantiations a test can reach on this host: the portable body
    /// always (called directly, so it is exercised — and cannot rot — on
    /// hosts where every product in the crate takes the FMA one), and the
    /// AVX2 + FMA body where the CPU has it. Says so when it does not,
    /// instead of passing for a leg that never ran.
    fn kernels() -> Vec<Kernel> {
        if Kernel::Detected.fma() {
            vec![Kernel::Portable, Kernel::Detected]
        } else {
            println!("skipped: no avx2+fma");
            vec![Kernel::Portable]
        }
    }

    /// The naive triple loop — the reference both instantiations must
    /// reproduce bit for bit (fleet determinism, checkpoints and scenario
    /// digests are asserted on exact output): `out[i][j]` takes `a(i, p) ·
    /// b(p, j)` in ascending `p` as one fused multiply-add each, from `+0.0`
    /// or from what `out` holds.
    fn naive(
        (m, inner, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        cont: bool,
        out: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = if cont { out[i * n + j] } else { 0.0f32 };
                for p in 0..inner {
                    sum = a(i, p).mul_add(b(p, j), sum);
                }
                out[i * n + j] = sum;
            }
        }
    }

    /// Ordinary values, or — `special` — a third of them replaced by the
    /// operands a shortcut would mishandle: zeros that meet an infinity (NaN
    /// in the naive product, so NaN here), NaN itself, `-0.0` (a chain
    /// restarted from `+0.0` instead of continued loses the sign of an
    /// all-negative-zero sum) and a subnormal (no flush-to-zero in either
    /// register width).
    fn operand(rng: &mut Xoshiro256, len: usize, special: bool) -> Vec<f32> {
        const SPECIALS: [f32; 6] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 2.0,
        ];
        let mut v: Vec<f32> = (0..len).map(|_| rng.range_f32(-10.0, 10.0)).collect();
        if special {
            for x in v.iter_mut().step_by(3) {
                *x = SPECIALS[rng.next_u64() as usize % SPECIALS.len()];
            }
        }
        v
    }

    /// Bit patterns, with every NaN folded to one: *that* an element is NaN
    /// is part of the contract, its sign and payload are not. When two NaNs
    /// meet (`0 · ∞`'s default NaN and an operand's), x86 returns one
    /// source operand's, and which operand LLVM puts where is its choice per
    /// compilation of a fused multiply-add — naive loop and kernel differ
    /// there, in either register width.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    fn run(
        kernel: Kernel,
        ta: bool,
        cont: bool,
        dims: (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let n = dims.2;
        match (ta, cont) {
            (false, false) => kernel.gemm::<false, false>(dims, a, (b, n), (out, n)),
            (false, true) => kernel.gemm::<false, true>(dims, a, (b, n), (out, n)),
            (true, false) => kernel.gemm::<true, false>(dims, a, (b, n), (out, n)),
            (true, true) => kernel.gemm::<true, true>(dims, a, (b, n), (out, n)),
        }
    }

    #[test]
    fn microkernel_bit_identical_to_naive_on_every_remainder_class() {
        let mut rng = Xoshiro256::seed_from_u64(0xb10c);
        let kernels = kernels();
        // Row counts on both sides of MR in every `m mod MR` class (fewer
        // than MR rows take the wide single-row tile); every column count
        // through both cascades, 1 × 64 and its remainders included; inner
        // lengths from empty to past a cache line; A read in place and
        // transposed; chains started and continued; plain and poisoned
        // operands.
        for m in 1..=2 * MR + 1 {
            for n in 1..=70 {
                for inner in [0, 1, 7, 64, 65] {
                    let dims = (m, inner, n);
                    for special in [false, true] {
                        let a = operand(&mut rng, m * inner, special);
                        let b = operand(&mut rng, inner * n, special);
                        let start = operand(&mut rng, m * n, special);
                        for (ta, cont) in
                            [(false, false), (false, true), (true, false), (true, true)]
                        {
                            let what =
                                format!("{m}x{inner}x{n} ta={ta} cont={cont} special={special}");
                            let mut want = start.clone();
                            // With `ta`, `a` is the `inner × m` matrix whose
                            // transpose is multiplied.
                            let a_at = |i: usize, p: usize| {
                                if ta {
                                    a[p * m + i]
                                } else {
                                    a[i * inner + p]
                                }
                            };
                            naive(dims, a_at, |p, j| b[p * n + j], cont, &mut want);
                            for &kernel in &kernels {
                                let mut got = start.clone();
                                run(kernel, ta, cont, dims, &a, &b, &mut got);
                                assert_eq!(bits(&want), bits(&got), "{kernel:?} {what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn any_subset_of_rows_is_those_rows_of_the_full_product() {
        // Each output row's chains read its own row of A and nothing else,
        // so a product over a subset of A's rows is those rows of the full
        // product bit for bit, whether a row sits in a 4-row band or in the
        // single-row remainder on either side. Row counts 1–9 and 64, every
        // non-empty subset up to nine rows, each single row of 64 and a
        // window at every offset.
        let mut rng = Xoshiro256::seed_from_u64(0x5b5e7);
        for kernel in kernels() {
            for m in (1..=9).chain([64]) {
                let subsets: Vec<Vec<usize>> = if m <= 9 {
                    (1..1u32 << m)
                        .map(|mask| (0..m).filter(|&r| mask >> r & 1 == 1).collect())
                        .collect()
                } else {
                    let singles = (0..m).map(|r| vec![r]);
                    singles
                        .chain((0..m - 4).map(|r| (r..r + 5).collect()))
                        .collect()
                };
                for (inner, n) in [(11, 1), (11, 18), (64, 48), (22, 70)] {
                    let a = operand(&mut rng, m * inner, false);
                    let b = operand(&mut rng, inner * n, false);
                    let mut full = vec![0.0; m * n];
                    run(kernel, false, false, (m, inner, n), &a, &b, &mut full);
                    for subset in &subsets {
                        let rows = subset.len();
                        let a_sub: Vec<f32> = subset
                            .iter()
                            .flat_map(|&r| a[r * inner..(r + 1) * inner].iter().copied())
                            .collect();
                        let mut got = vec![0.0; rows * n];
                        run(kernel, false, false, (rows, inner, n), &a_sub, &b, &mut got);
                        for (i, &r) in subset.iter().enumerate() {
                            assert_eq!(
                                bits(&got[i * n..(i + 1) * n]),
                                bits(&full[r * n..(r + 1) * n]),
                                "{kernel:?} {m}x{inner}x{n}, subset {subset:?}, row {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_b_panels_bit_identical_to_naive_at_every_panel_remainder() {
        let mut rng = Xoshiro256::seed_from_u64(0x9a7e1);
        let kernels = kernels();
        let mut pack = Vec::new();
        // `n` (rows of B, so columns of the output) on both sides of both
        // panel widths and at multiples of neither; the pack buffer is
        // reused across shapes, as a `Dense` reuses it across passes.
        for m in [1, MR, MR + 1] {
            for n in [0, 1, 7, 8, 9, 15, 16, 17, 19, 31, 35, 50] {
                for inner in [0, 1, 13, 65] {
                    for special in [false, true] {
                        let a = operand(&mut rng, m * inner, special);
                        let b = operand(&mut rng, n * inner, special);
                        let mut want = vec![0.0; m * n];
                        naive(
                            (m, inner, n),
                            |i, p| a[i * inner + p],
                            |p, j| b[j * inner + p],
                            false,
                            &mut want,
                        );
                        for &kernel in &kernels {
                            let mut got = vec![f32::NAN; m * n];
                            kernel.gemm_bt((m, inner, n), &a, &b, &mut pack, &mut got);
                            assert_eq!(
                                bits(&want),
                                bits(&got),
                                "{kernel:?} {m}x{inner}x{n}^T special={special}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_takes_the_fma_body_wherever_the_cpu_lists_avx2_and_fma() {
        // A dispatch that fell back to the portable body would still produce
        // the right bits, a libm call per multiply-add slower: only a test
        // that asks the OS what the CPU has can tell.
        let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else {
            println!("skipped: no /proc/cpuinfo");
            return;
        };
        let listed = |flag: &str| {
            cpuinfo
                .lines()
                .filter(|line| line.starts_with("flags"))
                .any(|line| line.split_whitespace().any(|f| f == flag))
        };
        if listed("avx2") && listed("fma") {
            assert!(Kernel::Detected.fma());
            assert_eq!(crate::kernel(), "avx2+fma 4x16");
        } else {
            println!("skipped: the CPU lists no avx2 and fma");
        }
    }

    #[test]
    fn kernel_name_and_panel_width_agree_with_the_dispatch() {
        assert_eq!(
            (Kernel::Portable.name(), Kernel::Portable.nr()),
            ("portable 4x8", 8)
        );
        let detected = Kernel::Detected;
        if detected.fma() {
            assert_eq!((detected.name(), detected.nr()), ("avx2+fma 4x16", 16));
        } else {
            assert_eq!((detected.name(), detected.nr()), ("portable 4x8", 8));
        }
        assert_eq!(crate::kernel(), detected.name());
    }
}
