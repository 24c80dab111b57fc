//! The one `f32` GEMM microkernel behind [`Tensor::matmul_into`],
//! [`Tensor::t_matmul_into`] and [`Tensor::matmul_t_into`].
//!
//! # Contract
//!
//! Every output element is `out[i][j] = Σ_p A[i][p] · B[p][j]`, summed in
//! **ascending `p`** starting from `+0.0`, one rounding per multiply and one
//! per add (no `mul_add`, no reassociation). That is the order of the naive
//! triple loop, so weights, checkpoints and scenario digests do not depend on
//! how the loops around it are tiled.
//!
//! With `CONT = true` the chain starts from what `out` already holds instead
//! of `+0.0`. A product over `inner = p₁ + p₂` indices split into a call over
//! the first `p₁` followed by a continuing call over the last `p₂` is the
//! same chain: the partial sum after index `p₁ − 1` is an `f32` either way
//! (nothing is kept in wider precision between steps), so storing it to
//! `out` and loading it back rounds nothing. That is what lets a product
//! whose leading columns are shared by many row groups compute that part
//! once (`Dense::prefix_into` / `Dense::forward_batch_from_prefix_into`).
//!
//! Nothing is skipped: a zero in `A` still multiplies its row of `B`, so
//! `0 · ∞` and `0 · NaN` reach the output as NaN. For finite operands that is
//! the same bit pattern a zero-skipping loop produces: the accumulator starts
//! at `+0.0`, and under round-to-nearest a sum is `-0.0` only when both
//! addends are `-0.0`, so the accumulator is never `-0.0`; a product `±0 · b`
//! with finite `b` is `±0`, and adding `±0` to an accumulator that is not
//! `-0.0` returns the accumulator unchanged.
//!
//! # Shape
//!
//! An `MR × NR` block of accumulators lives in a fixed-size array across the
//! whole inner dimension, which LLVM keeps in SSE registers (`4 × 8` floats
//! are eight of the sixteen `xmm` registers); each step loads one `NR`-wide
//! row of `B` once and feeds all `MR` rows with it. Columns left over after
//! the last full tile cascade through `NR / 2`, … , `1`. Fewer than `MR`
//! rows left over are served one row at a time by a `1 × 4·NR` tile: a
//! single row of the narrow tile is two dependent add chains and loses to a
//! plain row-axpy, the wide one has as many independent chains as the full
//! tile. The choice depends on the row count alone.
//!
//! [`Tensor::matmul_into`]: crate::Tensor::matmul_into
//! [`Tensor::t_matmul_into`]: crate::Tensor::t_matmul_into
//! [`Tensor::matmul_t_into`]: crate::Tensor::matmul_t_into

/// Rows of the register tile.
pub(crate) const MR: usize = 4;
/// Columns of the register tile (two SSE vectors).
pub(crate) const NR: usize = 8;

/// `out[i][j] = Σ_p A[i][p] · B[p][j]` over an `m × n` block of `out`; with
/// `CONT = true`, `out[i][j] += …` continuing each element's chain from the
/// value already there.
///
/// `B` is `inner × n` with row stride `ldb`, `out` is `m × n` with row stride
/// `ldo` (both may be windows into wider matrices). `A` is dense: with
/// `TA = false` it is `m × inner` row-major; with `TA = true` it is the
/// transpose of an `inner × m` row-major matrix, read in place — the tile
/// then walks that matrix row by row as an outer product.
pub(crate) fn gemm<const TA: bool, const CONT: bool>(
    (m, inner, n): (usize, usize, usize),
    a: &[f32],
    (b, ldb): (&[f32], usize),
    (out, ldo): (&mut [f32], usize),
) {
    let lda = if TA { m } else { inner };
    let mut i = 0;
    while i < m {
        let mut j = 0;
        // Widest tile first, then the column remainder in halving widths.
        macro_rules! row_band {
            ($r:tt: $($c:tt)+) => {{
                $(while n - j >= $c {
                    tile::<TA, CONT, $r, $c>((i, inner, j), (a, lda), (b, ldb), (&mut *out, ldo));
                    j += $c;
                })+
                i += $r;
            }};
        }
        if m - i >= MR {
            row_band!(MR: NR 4 2 1);
        } else {
            row_band!(1: 32 16 8 4 2 1);
        }
    }
}

/// One `R × C` register tile of `out`, at row `i` and column `j`.
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
                *o += a_rp * b_pc;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * ldo + j..][..C].copy_from_slice(acc_row);
    }
}
