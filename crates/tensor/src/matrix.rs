//! Dense row-major 2-D matrix of `f32` — the storage type underneath every
//! tensor-graph node, model parameter and dataset in this workspace.
//!
//! The matrix is deliberately small and predictable: no views, no strides, no
//! broadcasting rules beyond the explicit `add_row_vec` / `add_col_vec`
//! helpers. All shape mismatches panic with a descriptive message, because in
//! this workspace a shape mismatch is always a programming error, never a
//! runtime condition to recover from.

use crate::backend::{Backend, Scalar};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the plain-data workhorse of the workspace: autograd nodes hold
/// one, neural-network parameters are one, datasets are collections of row
/// slices of one.
///
/// # Examples
///
/// ```
/// use calibre_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})[", self.rows, self.cols)?;
        let max_show = 8;
        for (i, v) in self.data.iter().take(max_show).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > max_show {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = calibre_tensor::Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert!(z.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix product `self * other`, computed by
    /// [`Scalar::matmul`](crate::backend::Scalar).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        Scalar.matmul(self, other, &mut out);
        out
    }

    /// Matrix product `self * otherᵀ` without materializing the transpose.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient, returning a new matrix.
    pub fn div(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a / b)
    }

    /// Applies a binary function elementwise over two equally-shaped matrices.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Matrix, f: F) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies a unary function elementwise, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place `self += other * s` (axpy). The core of every optimizer and
    /// aggregation loop in the workspace.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// Adds a `(1, cols)` row vector to every row, returning a new matrix.
    pub fn add_row_vec(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "expected a row vector, got {:?}", row.shape());
        assert_eq!(row.cols, self.cols, "row vector length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Adds a `(rows, 1)` column vector to every column, returning a new matrix.
    pub fn add_col_vec(&self, col: &Matrix) -> Matrix {
        assert_eq!(
            col.cols,
            1,
            "expected a column vector, got {:?}",
            col.shape()
        );
        assert_eq!(col.rows, self.rows, "column vector length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let v = col.get(r, 0);
            for o in out.row_mut(r) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column vector of per-row sums of squares, shape `(rows, 1)`.
    pub fn row_sum_sq(&self) -> Matrix {
        let data = (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v * v).sum())
            .collect();
        Matrix {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Per-row Euclidean norms.
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect()
    }

    /// Returns a copy with every row scaled to unit Euclidean norm.
    ///
    /// Rows with a norm below `1e-12` are left unchanged to avoid dividing by
    /// zero.
    pub fn row_l2_normalized(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let norm: f32 = out.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in out.row_mut(r) {
                    *v /= norm;
                }
            }
        }
        out
    }

    /// Row-wise softmax with the standard max-subtraction stabilization.
    pub fn row_softmax(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Row-wise log-softmax with the standard max-subtraction stabilization.
    pub fn row_log_softmax(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
            for v in row.iter_mut() {
                *v = *v - max - log_sum;
            }
        }
        out
    }

    /// Mean of the rows, shape `(1, cols)`.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for (o, &v) in out.row_mut(0).iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for v in out.iter_mut() {
            *v *= inv;
        }
        out
    }

    /// Copies the given rows (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "row index {idx} out of bounds for {} rows",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Vertically stacks `self` above `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn concat_rows(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "concat_rows column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally stacks `self` to the left of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Squared Euclidean distance between row `r` of `self` and row `s` of
    /// `other`.
    pub fn row_distance_sq(&self, r: usize, other: &Matrix, s: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "row_distance_sq dimension mismatch");
        self.row(r)
            .iter()
            .zip(other.row(s))
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Whether every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl FromIterator<f32> for Matrix {
    /// Collects an iterator into a single-row matrix.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_through_get() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![1.0, 0.5, 2.0]]);
        let direct = a.matmul_transpose(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn elementwise_ops_work() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b).row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).row(0), &[2.0, 2.0]);
        assert_eq!(a.mul(&b).row(0), &[3.0, 8.0]);
        assert_eq!(b.div(&a).row(0), &[3.0, 2.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.row(0), &[6.0, 12.0]);
    }

    #[test]
    fn row_and_col_broadcast_add() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let r = Matrix::row_vector(&[10.0, 20.0]);
        let c = Matrix::col_vector(&[100.0, 200.0]);
        assert_eq!(a.add_row_vec(&r).row(1), &[13.0, 24.0]);
        assert_eq!(a.add_col_vec(&c).row(1), &[203.0, 204.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = a.row_softmax();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
        // softmax is monotone in the logits
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = Matrix::from_rows(&[vec![0.3, -1.2, 2.5]]);
        let ls = a.row_log_softmax();
        let s = a.row_softmax();
        for c in 0..3 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Matrix::from_rows(&[vec![1000.0, 1001.0]]);
        let s = a.row_softmax();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn row_l2_normalized_produces_unit_rows() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        let n = a.row_l2_normalized();
        assert!((n.row_norms()[0] - 1.0).abs() < 1e-6);
        // zero row left untouched
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn gather_and_concat_rows() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.col(0), vec![3.0, 1.0]);
        let cat = a.concat_rows(&g);
        assert_eq!(cat.rows(), 5);
        assert_eq!(cat.col(0), vec![1.0, 2.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn concat_cols_stacks_horizontally() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn mean_rows_averages_each_column() {
        let a = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        let m = a.mean_rows();
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[2.0, 20.0]);
    }

    #[test]
    fn reductions_and_norms() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.row_sum_sq().get(0, 0), 25.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn row_distance_sq_is_symmetric_and_zero_on_self() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 6.0]]);
        assert_eq!(a.row_distance_sq(0, &a, 0), 0.0);
        assert_eq!(a.row_distance_sq(0, &a, 1), 25.0);
        assert_eq!(a.row_distance_sq(1, &a, 0), 25.0);
    }

    #[test]
    fn debug_format_is_nonempty_and_truncated() {
        let a = Matrix::zeros(10, 10);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix(10x10)"));
        assert!(s.contains("…"));
    }

    #[test]
    fn from_iterator_builds_row_vector() {
        let m: Matrix = (0..3).map(|v| v as f32).collect();
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }
}
