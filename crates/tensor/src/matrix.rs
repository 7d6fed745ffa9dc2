//! Row-major owned `f32` matrix.
//!
//! A deliberately small type: the TT kernels in `el-core` work on raw slices
//! for performance, so `Matrix` mostly manages shape bookkeeping and offers
//! readable accessors for tests, model code and examples.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32`; the default is the empty `0 x 0` one.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An all-zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// A matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { data, rows, cols }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A borrowed view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector (rows are contiguous, columns are
    /// strided, so columns are only materialized on demand).
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(self, rows: usize, cols: usize) -> Self {
        assert_eq!(self.data.len(), rows * cols, "reshape must preserve element count");
        Self { data: self.data, rows, cols }
    }

    /// An owned transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += alpha * other` (element-wise).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (d, s) in self.data.iter_mut().zip(&other.data) {
            *d += alpha * s;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for d in &mut self.data {
            *d *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes in place to `rows x cols` with every element zeroed,
    /// reusing the existing allocation when it is large enough. This is the
    /// pooled-output reset of the zero-allocation training loop: after
    /// warm-up a recycled output matrix never reallocates.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.data.clear();
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute difference from `other` — the metric used by the
    /// kernel-equivalence tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Extracts a sub-matrix (used by sharded-embedding baselines).
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols);
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let src =
                &self.data[(row0 + r) * self.cols + col0..(row0 + r) * self.cols + col0 + cols];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Memory footprint of the element buffer in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let max_cols = 8.min(self.cols);
            let vals: Vec<String> =
                self.row(r)[..max_cols].iter().map(|v| format!("{v:+.4}")).collect();
            let ellipsis = if self.cols > max_cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", vals.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = Matrix::uniform(5, 3, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_moves_elements() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn row_and_col_accessors_agree_with_get() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(m.row(2), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(m.col(1), vec![1.0, 5.0, 9.0, 13.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn identity_multiplication_neutral_element_shape() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.frobenius_norm(), (3.0f32).sqrt());
    }

    #[test]
    fn reshape_preserves_buffer() {
        let m = Matrix::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        let r = m.clone().reshape(3, 4);
        assert_eq!(r.as_slice(), m.as_slice());
        assert_eq!(r.get(1, 0), 4.0);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = m.submatrix(1, 2, 2, 2);
        assert_eq!(s.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let a = Matrix::zeros(2, 2);
        let mut b = Matrix::zeros(2, 2);
        b.set(1, 1, 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
