use crate::gemm::Kernel;
use crate::NnError;
use std::ops::{Index, IndexMut};

/// Dense row-major `f32` matrix. Rows are batch entries, columns features.
///
/// # Examples
///
/// ```
/// use twig_nn::Tensor;
///
/// let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let b = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// assert_eq!(a.matmul(&b).unwrap(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                detail: format!("{} elements for {rows}x{cols}", data.len()),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Empty`] for no rows and [`NnError::ShapeMismatch`]
    /// for ragged rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, NnError> {
        let first = rows.first().ok_or(NnError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NnError::ShapeMismatch {
                    detail: format!("row length {} != {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Tensor {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a single-row tensor from a feature slice.
    pub fn from_row(row: &[f32]) -> Self {
        Tensor {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Reshapes to `rows x cols`, zero-filling every element. Capacity is
    /// retained, so repeated resizes between the same set of shapes never
    /// reallocate — the backbone of the scratch-buffer (zero-allocation)
    /// forward/backward paths.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` for a caller that is about to write every
    /// element: what the buffer held stays (only newly grown elements are
    /// zero), so between the same set of shapes this touches no memory at
    /// all — the elementwise layers' single pass and the products that start
    /// from `+0.0` begin here.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a bitwise copy of `other`, reusing the existing
    /// allocation when capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Makes `self` `times` copies of `other` stacked row-wise (`times *
    /// other.rows()` rows), reusing the existing allocation when capacity
    /// suffices.
    pub fn repeat_rows_from(&mut self, other: &Tensor, times: usize) {
        self.rows = times * other.rows;
        self.cols = other.cols;
        self.data.clear();
        for _ in 0..times {
            self.data.extend_from_slice(&other.data);
        }
    }

    /// Heap bytes held, at allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other` written into `out` (resized in place,
    /// no allocation once `out` has the capacity).
    ///
    /// Runs the register-tiled microkernel of the `gemm` module: per output
    /// element the inner-index contributions are added in ascending order
    /// from `+0.0`, so results are bit-identical to the naive triple loop.
    /// No operand is skipped — a non-finite value on either side propagates
    /// even when it meets a zero.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        self.matmul_rows_into(other, 0, out)
    }

    /// `self * other[first_row..first_row + self.cols()]` written into `out`
    /// (resized in place): the product against a band of `other`'s rows, the
    /// same kernel and summation order as [`matmul_into`](Self::matmul_into).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the band runs past `other`.
    pub fn matmul_rows_into(
        &self,
        other: &Tensor,
        first_row: usize,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        // A product that starts from `+0.0` stores every element it covers.
        out.reshape_for_overwrite(self.rows, other.cols);
        self.matmul_rows::<false>(other, first_row, out)
    }

    /// `out += self * other[first_row..first_row + self.cols()]`, each
    /// element's sum *continuing* from the value `out` holds. Splitting a
    /// product's inner dimension into
    /// [`matmul_rows_into`](Self::matmul_rows_into) over the leading band and
    /// this over the rest is bit-identical to the one-shot
    /// [`matmul_into`](Self::matmul_into): it is the same ascending chain of
    /// `f32` additions, merely stored to `out` and reloaded at the split.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the band runs past `other` or
    /// `out` is not `self.rows() x other.cols()`.
    pub fn matmul_rows_continue_into(
        &self,
        other: &Tensor,
        first_row: usize,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        self.matmul_rows::<true>(other, first_row, out)
    }

    fn matmul_rows<const CONT: bool>(
        &self,
        other: &Tensor,
        first_row: usize,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        let (m, inner, n) = (self.rows, self.cols, other.cols);
        if first_row + inner > other.rows || (out.rows, out.cols) != (m, n) {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{m}x{inner} * rows {first_row}.. of {}x{n} into {}x{}",
                    other.rows, out.rows, out.cols
                ),
            });
        }
        Kernel::Detected.gemm::<false, CONT>(
            (m, inner, n),
            &self.data,
            (&other.data[first_row * n..], n),
            (&mut out.data, n),
        );
        Ok(())
    }

    /// `self^T * other` without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn t_matmul(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.t_matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// `self^T * other` written into `out` (resized in place): the same
    /// microkernel as [`matmul_into`](Self::matmul_into), its tile walking
    /// `self` row by row as an outer product, so each output element sums
    /// over ascending row index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn t_matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "({}x{})^T * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let (m, inner, n) = (self.cols, self.rows, other.cols);
        out.reshape_for_overwrite(m, n);
        Kernel::Detected.gemm::<true, false>(
            (m, inner, n),
            &self.data,
            (&other.data, n),
            (&mut out.data, n),
        );
        Ok(())
    }

    /// `self * other^T`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when column counts disagree.
    pub fn matmul_t(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.matmul_t_into(other, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    /// `self * other^T` written into `out` (resized in place): one register
    /// tile's width of `other`'s rows at a time (8 or 16, whichever tile the
    /// CPU runs) is transposed into `pack` — a caller-owned scratch of that
    /// many times `other.cols()` floats, reused across calls — and fed to the
    /// same microkernel as [`matmul_into`](Self::matmul_into), so each
    /// output element sums over ascending column index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when column counts disagree.
    pub fn matmul_t_into(
        &self,
        other: &Tensor,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        self.matmul_t_rows_into(other, other.rows, pack, out)
    }

    /// `self * other[..rows]^T`: the first `rows` columns of
    /// [`matmul_t_into`](Self::matmul_t_into), bit for bit (output elements
    /// are independent sums), without computing the rest. `rows = 0` yields
    /// a `self.rows() x 0` tensor and does no arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when column counts disagree or
    /// `rows > other.rows()`.
    pub fn matmul_t_rows_into(
        &self,
        other: &Tensor,
        rows: usize,
        pack: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        if self.cols != other.cols || rows > other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} * ({rows} rows of {}x{})^T",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let (m, inner, n) = (self.rows, self.cols, rows);
        out.reshape_for_overwrite(m, n);
        Kernel::Detected.gemm_bt((m, inner, n), &self.data, &other.data, pack, &mut out.data);
        Ok(())
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<(), NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!("bias length {} != {}", bias.len(), self.cols),
            });
        }
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums across rows, producing one value per column.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums across rows into `out` (resized in place, values overwritten).
    /// Accumulation order per column is ascending row index, identical to
    /// [`sum_rows`](Self::sum_rows).
    pub fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Multiplies every element in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Element-wise addition of another tensor in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes disagree.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), NnError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} += {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Concatenates two tensors column-wise (same number of rows).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn concat_cols(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.concat_cols_into(other, &mut out)?;
        Ok(out)
    }

    /// Column-wise concatenation written into `out` (resized in place).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn concat_cols_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!("concat rows {} vs {}", self.rows, other.rows),
            });
        }
        out.resize_zeroed(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(())
    }

    /// Splits off the first `left_cols` columns, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `left_cols > self.cols()`.
    pub fn split_cols(&self, left_cols: usize) -> (Tensor, Tensor) {
        assert!(
            left_cols <= self.cols,
            "split at {left_cols} beyond {}",
            self.cols
        );
        let mut left = Tensor::zeros(self.rows, left_cols);
        let mut right = Tensor::zeros(self.rows, self.cols - left_cols);
        for r in 0..self.rows {
            let src = self.row(r);
            left.row_mut(r).copy_from_slice(&src[..left_cols]);
            right.row_mut(r).copy_from_slice(&src[left_cols..]);
        }
        (left, right)
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::MR;
    use twig_stats::rng::{Rng, Xoshiro256};

    /// The wider of the two tile widths: shapes built around it also straddle
    /// the narrower one.
    const NR: usize = 16;

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        // a^T (3x2) * b (2x2)
        let got = a.t_matmul(&b).unwrap();
        assert_eq!(got.rows(), 3);
        assert_eq!(got.cols(), 2);
        assert_eq!(got.row(0), &[1.0, 4.0]);
    }

    #[test]
    fn matmul_t_matches_manual() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        // a (1x2) * b^T (2x2) = [11, 17]
        let got = a.matmul_t(&b).unwrap();
        assert_eq!(got.as_slice(), &[11.0, 17.0]);
    }

    #[test]
    fn broadcast_and_sum_rows_roundtrip() {
        let mut t = Tensor::zeros(3, 2);
        t.add_row_broadcast(&[1.0, 2.0]).unwrap();
        assert_eq!(t.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0], vec![6.0]]).unwrap();
        let joined = a.concat_cols(&b).unwrap();
        let (left, right) = joined.split_cols(2);
        assert_eq!(left, a);
        assert_eq!(right, b);
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.concat_cols(&Tensor::zeros(3, 1)).is_err());
        let mut c = Tensor::zeros(2, 3);
        assert!(c.add_row_broadcast(&[1.0]).is_err());
        assert!(c.add_assign(&Tensor::zeros(1, 1)).is_err());
    }

    fn random_tensor<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.range_f32(-10.0, 10.0))
            .collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_associative_with_identity() {
        let mut rng = Xoshiro256::seed_from_u64(0x1de);
        for _ in 0..100 {
            let t = random_tensor(&mut rng, 3, 3);
            let mut id = Tensor::zeros(3, 3);
            for i in 0..3 {
                id[(i, i)] = 1.0;
            }
            assert_eq!(t.matmul(&id).unwrap(), t);
        }
    }

    #[test]
    fn scale_then_sum_linear() {
        let mut rng = Xoshiro256::seed_from_u64(0x5ca);
        for _ in 0..100 {
            let t = random_tensor(&mut rng, 4, 2);
            let k = rng.range_f32(-3.0, 3.0);
            let base: f32 = t.sum_rows().iter().sum();
            let mut scaled = t.clone();
            scaled.scale(k);
            let scaled_sum: f32 = scaled.sum_rows().iter().sum();
            assert!((scaled_sum - k * base).abs() < 1e-3 * (1.0 + base.abs()));
        }
    }

    #[test]
    fn t_matmul_equals_transpose_matmul() {
        let mut rng = Xoshiro256::seed_from_u64(0x7ef);
        for _ in 0..100 {
            let a = random_tensor(&mut rng, 4, 3);
            let b = random_tensor(&mut rng, 4, 2);
            // a^T * b computed directly vs via explicit loops.
            let got = a.t_matmul(&b).unwrap();
            for i in 0..3 {
                for j in 0..2 {
                    let want: f32 = (0..4).map(|r| a[(r, i)] * b[(r, j)]).sum();
                    assert!((got[(i, j)] - want).abs() < 1e-4);
                }
            }
        }
    }

    fn assert_bits_eq(want: &Tensor, got: &Tensor, what: &str) {
        assert_eq!(
            (want.rows(), want.cols()),
            (got.rows(), got.cols()),
            "{what}"
        );
        for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} diverged");
        }
    }

    #[test]
    fn continued_product_bit_identical_to_one_shot_on_every_remainder_class() {
        let mut rng = Xoshiro256::seed_from_u64(0xc0a7);
        // The row/column classes of the kernel's own sweep (`gemm.rs`) around
        // the wider tile; every split point of the inner dimension that
        // leaves an empty, one-wide or wide side.
        // Operands carry the values whose handling a shortcut would change:
        // zeros that meet an infinity (NaN in the one-shot product, so NaN
        // here), NaN itself, and -0.0 (a chain restarted from +0.0 instead
        // of continued would lose the sign of an all-negative-zero sum).
        let specials = [0.0, -0.0, f32::INFINITY, f32::NAN, f32::MIN_POSITIVE / 2.0];
        let ns: Vec<usize> = (1..=2 * NR).chain([63, 64, 65]).collect();
        let mut want = Tensor::zeros(0, 0);
        let mut got = Tensor::zeros(0, 0);
        for m in 1..=2 * MR {
            for &n in &ns {
                for (inner, split) in [(1, 0), (1, 1), (12, 1), (12, 11), (75, 64), (75, 0)] {
                    for special in [false, true] {
                        let what = format!("{m}x({split}+{})x{n} special={special}", inner - split);
                        let mut a = random_tensor(&mut rng, m, inner);
                        let mut b = random_tensor(&mut rng, inner, n);
                        if special {
                            for t in [&mut a, &mut b] {
                                for v in t.as_mut_slice().iter_mut().step_by(3) {
                                    *v = specials[rng.next_u64() as usize % specials.len()];
                                }
                            }
                        }
                        let (left, right) = a.split_cols(split);
                        a.matmul_into(&b, &mut want).unwrap();
                        left.matmul_rows_into(&b, 0, &mut got).unwrap();
                        right
                            .matmul_rows_continue_into(&b, split, &mut got)
                            .unwrap();
                        assert_bits_eq(&want, &got, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn continued_product_keeps_an_all_negative_zero_sum() {
        // (-0.0)·1 + (-0.0)·1 from +0.0 is +0.0; continued from a stored
        // -0.0 it stays -0.0. The kernel must read `out`, not restart.
        let a = Tensor::from_row(&[-0.0]);
        let b = Tensor::from_row(&[1.0]);
        let mut out = Tensor::from_row(&[-0.0]);
        a.matmul_rows_continue_into(&b, 0, &mut out).unwrap();
        assert_eq!(out[(0, 0)].to_bits(), (-0.0f32).to_bits());
        a.matmul_rows_into(&b, 0, &mut out).unwrap();
        assert_eq!(out[(0, 0)].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn band_and_continue_shape_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(5, 4);
        let mut out = Tensor::zeros(2, 4);
        assert!(a.matmul_rows_into(&b, 2, &mut out).is_ok());
        assert!(a.matmul_rows_into(&b, 3, &mut out).is_err());
        assert!(a.matmul_rows_continue_into(&b, 3, &mut out).is_err());
        let mut wrong = Tensor::zeros(2, 3);
        assert!(a.matmul_rows_continue_into(&b, 0, &mut wrong).is_err());
        assert!(a
            .matmul_t_rows_into(&Tensor::zeros(4, 3), 5, &mut Vec::new(), &mut out)
            .is_err());
    }

    #[test]
    fn matmul_t_rows_is_the_leading_columns_of_matmul_t() {
        let mut rng = Xoshiro256::seed_from_u64(0x7c01);
        let mut pack = Vec::new();
        let mut got = Tensor::zeros(0, 0);
        for m in [1, MR, MR + 1] {
            let dy = random_tensor(&mut rng, m, 13);
            let w = random_tensor(&mut rng, 2 * NR + 3, 13);
            let full = dy.matmul_t(&w).unwrap();
            for rows in [0, 1, NR - 1, NR, NR + 1, 2 * NR + 3] {
                dy.matmul_t_rows_into(&w, rows, &mut pack, &mut got)
                    .unwrap();
                assert_bits_eq(
                    &full.split_cols(rows).0,
                    &got,
                    &format!("{m} rows, {rows} cols"),
                );
            }
        }
    }

    #[test]
    fn zero_times_non_finite_reaches_the_output() {
        // No operand is skipped: a zero activation does not mask a poisoned
        // weight. The NaN guards above this crate rely on seeing it.
        let a = Tensor::from_row(&[0.0, 1.0]);
        let b = Tensor::from_rows(&[vec![f32::INFINITY], vec![1.0]]).unwrap();
        assert!(a.matmul(&b).unwrap()[(0, 0)].is_nan());
        let bt = Tensor::from_row(&[f32::INFINITY, 1.0]);
        assert!(a.matmul_t(&bt).unwrap()[(0, 0)].is_nan());
        // (1x2)^T * (1x1): the zero row entry meets the infinity.
        let dy = Tensor::from_row(&[f32::INFINITY]);
        let dw = a.t_matmul(&dy).unwrap();
        assert!(dw[(0, 0)].is_nan());
        assert_eq!(dw[(1, 0)], f32::INFINITY);
    }

    #[test]
    fn into_variants_match_allocating_apis() {
        let mut rng = Xoshiro256::seed_from_u64(0x17f0);
        let a = random_tensor(&mut rng, 9, 17);
        let b = random_tensor(&mut rng, 17, 5);
        let c = random_tensor(&mut rng, 9, 5);

        let mut out = Tensor::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.t_matmul_into(&c, &mut out).unwrap();
        assert_eq!(out, a.t_matmul(&c).unwrap());
        c.matmul_t_into(&b, &mut Vec::new(), &mut out).unwrap();
        assert_eq!(out, c.matmul_t(&b).unwrap());
        a.concat_cols_into(&c, &mut out).unwrap();
        assert_eq!(out, a.concat_cols(&c).unwrap());

        let mut sums = Vec::new();
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, a.sum_rows());
    }

    #[test]
    fn resize_and_copy_retain_capacity() {
        let mut t = Tensor::zeros(8, 8);
        let cap = t.data.capacity();
        let ptr = t.data.as_ptr();
        t.resize_zeroed(4, 4);
        t.resize_zeroed(8, 8);
        assert_eq!(t.data.capacity(), cap);
        assert_eq!(t.data.as_ptr(), ptr);
        let src = Tensor::from_row(&[1.0, 2.0]);
        t.copy_from(&src);
        assert_eq!(t.data.as_ptr(), ptr, "copy_from reallocated");
        assert_eq!((t.rows(), t.cols()), (1, 2));
        assert_eq!(t.as_slice(), &[1.0, 2.0]);
    }
}
