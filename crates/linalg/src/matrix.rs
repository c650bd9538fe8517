//! Column-major dense matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix stored column-major (BLAS/LAPACK convention): element
/// `(i, j)` lives at `data[i + j * rows]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a column-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major length mismatch");
        Matrix { rows, cols, data }
    }

    /// The column-major buffer, consumed: the inverse of
    /// [`Matrix::from_col_major`].
    pub fn into_col_major(self) -> Vec<f64> {
        self.data
    }

    /// Builds a matrix from a generator `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable column-major buffer.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of column `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable view of column `j`.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copies out the `nr × nc` submatrix anchored at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "submatrix out of range"
        );
        Matrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `block` into `self` at `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of range"
        );
        for j in 0..block.cols {
            for i in 0..block.rows {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Swaps rows `r1` and `r2` across all columns.
    pub(crate) fn swap_rows(&mut self, r1: usize, r2: usize) {
        assert!(r1 < self.rows && r2 < self.rows);
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 + j * self.rows, r2 + j * self.rows);
        }
    }

    /// Swaps rows `r1` and `r2` within the column range `c0..c1` only
    /// (the block-cyclic `laswp` touches just the trailing columns).
    pub fn swap_rows_in_cols(&mut self, r1: usize, r2: usize, c0: usize, c1: usize) {
        assert!(r1 < self.rows && r2 < self.rows);
        assert!(c0 <= c1 && c1 <= self.cols);
        if r1 == r2 {
            return;
        }
        for j in c0..c1 {
            self.data.swap(r1 + j * self.rows, r2 + j * self.rows);
        }
    }

    /// ∞-norm: maximum absolute row sum.
    pub(crate) fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `self · v` for a dense vector.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub(crate) fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (j, &x) in v.iter().enumerate() {
            if x != 0.0 {
                for (yi, &a) in y.iter_mut().zip(self.col(j)) {
                    *yi += a * x;
                }
            }
        }
        y
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.into_col_major().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // Column 0 = [1, 2], column 1 = [3, 4].
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_fn_and_transpose() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        let t = Matrix::from_fn(3, 2, |i, j| m[(j, i)]);
        assert_eq!(t.rows(), 3);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(0, 1)], 12.0);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(4, 4);
        z.set_submatrix(1, 2, &s);
        assert_eq!(z[(2, 3)], m[(2, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, -3.0, 2.0, 4.0]);
        // Rows: [1,2], [-3,4]. inf-norm = max(3, 7) = 7.
        assert_eq!(m.norm_inf(), 7.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        // [[1,2],[3,4]] * [5,6] = [17, 39].
        assert_eq!(m.mul_vec(&[5.0, 6.0]), vec![17.0, 39.0]);
    }
}
