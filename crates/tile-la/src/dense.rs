//! Column-major dense matrix used for tiles, panels and small reference
//! computations.

/// A dense, column-major, heap-allocated `f64` matrix.
///
/// This is the storage unit for individual tiles of the tiled algorithms as
/// well as for the `n × m` sample panels of the PMVN integrator. Its layout is
/// plain column-major, like BLAS/LAPACK; the speed lives in the tile kernels
/// of [`kernels`](crate::kernels) (a packed, register-tiled GEMM compiled for
/// AVX2 where the CPU has it) and in the task parallelism of the tiled
/// algorithms built on top. Its own products (`matmul`, …) are plain triple
/// loops, which the kernel tests use as references.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Build a matrix from an element function `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Build from a column-major data vector.
    pub fn from_column_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length mismatch");
        Self { nrows, ncols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = v;
    }

    /// Mutable element reference.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }

    /// Raw column-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A column as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// A column as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct columns as mutable slices (for in-place rotations).
    #[inline]
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 != j2 && j1 < self.ncols && j2 < self.ncols);
        let n = self.nrows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (a, b) = self.data.split_at_mut(hi * n);
        let first = &mut a[lo * n..(lo + 1) * n];
        let second = &mut b[..n];
        if j1 < j2 {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Copy a rectangular block from `src` starting at `(src_i, src_j)` into
    /// this matrix starting at `(dst_i, dst_j)`, with the given block size.
    pub fn copy_block_from(
        &mut self,
        src: &DenseMatrix,
        src_i: usize,
        src_j: usize,
        dst_i: usize,
        dst_j: usize,
        rows: usize,
        cols: usize,
    ) {
        assert!(src_i + rows <= src.nrows && src_j + cols <= src.ncols);
        assert!(dst_i + rows <= self.nrows && dst_j + cols <= self.ncols);
        for j in 0..cols {
            for i in 0..rows {
                self.set(dst_i + i, dst_j + j, src.get(src_i + i, src_j + j));
            }
        }
    }

    /// Extract a rectangular sub-matrix.
    pub fn submatrix(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(rows, cols);
        out.copy_block_from(self, i0, j0, 0, 0, rows, cols);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.ncols, self.nrows, |i, j| self.get(j, i))
    }

    /// `self · other` (reference triple-loop product).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, other.ncols);
        for j in 0..other.ncols {
            for k in 0..self.ncols {
                let bkj = other.get(k, j);
                if bkj == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.nrows {
                    c_col[i] += a_col[i] * bkj;
                }
            }
        }
        c
    }

    /// `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.ncols, "inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, other.nrows);
        for k in 0..self.ncols {
            for j in 0..other.nrows {
                let bjk = other.get(j, k);
                if bjk == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.nrows {
                    c_col[i] += a_col[i] * bjk;
                }
            }
        }
        c
    }

    /// `selfᵀ · other`.
    pub fn matmul_tn(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.nrows, other.nrows, "inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.ncols, other.ncols);
        for j in 0..other.ncols {
            for i in 0..self.ncols {
                let mut s = 0.0;
                let a_col = self.col(i);
                let b_col = other.col(j);
                for k in 0..self.nrows {
                    s += a_col[k] * b_col[k];
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// `self += alpha * other` (element-wise).
    pub fn add_scaled(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scale all elements by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DenseMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
        let id = DenseMatrix::identity(3);
        assert_eq!(id.get(0, 0), 1.0);
        assert_eq!(id.get(1, 0), 0.0);
    }

    #[test]
    fn column_major_storage_order() {
        let m = DenseMatrix::from_column_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = DenseMatrix::from_column_major(2, 3, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = DenseMatrix::from_column_major(3, 2, vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]);
        let c = a.matmul(&b);
        // [[1,2,3],[4,5,6]] * [[7,8],[9,10],[11,12]] = [[58,64],[139,154]]
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_variants_agree_with_explicit_transpose() {
        let a = DenseMatrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 * 0.3 - 1.0);
        let b = DenseMatrix::from_fn(5, 3, |i, j| (i * j) as f64 * 0.1 + 0.5);
        let nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(crate::norms::max_abs_diff(&nt, &explicit) < 1e-14);

        let c = DenseMatrix::from_fn(4, 6, |i, j| (i as f64 - j as f64) * 0.2);
        let tn = a.matmul_tn(&c);
        let explicit2 = a.transpose().matmul(&c);
        assert!(crate::norms::max_abs_diff(&tn, &explicit2) < 1e-14);
    }

    #[test]
    fn matvec_matches_matmul_with_single_column() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| ((i + 1) * (j + 2)) as f64);
        let x = vec![1.0, -2.0, 0.5];
        let y = a.matvec(&x);
        let xm = DenseMatrix::from_column_major(3, 1, x);
        let ym = a.matmul(&xm);
        for i in 0..3 {
            assert!((y[i] - ym.get(i, 0)).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(4, 7, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn block_copy_and_submatrix() {
        let a = DenseMatrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let sub = a.submatrix(2, 3, 3, 2);
        assert_eq!(sub.get(0, 0), a.get(2, 3));
        assert_eq!(sub.get(2, 1), a.get(4, 4));
        let mut b = DenseMatrix::zeros(6, 6);
        b.copy_block_from(&a, 0, 0, 3, 3, 3, 3);
        assert_eq!(b.get(3, 3), a.get(0, 0));
        assert_eq!(b.get(5, 5), a.get(2, 2));
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn two_cols_mut_gives_disjoint_slices() {
        let mut a = DenseMatrix::from_fn(3, 4, |i, j| (i + j) as f64);
        {
            let (c1, c3) = a.two_cols_mut(1, 3);
            c1[0] = 100.0;
            c3[2] = -7.0;
        }
        assert_eq!(a.get(0, 1), 100.0);
        assert_eq!(a.get(2, 3), -7.0);
        // Reversed order.
        let (c3, c1) = a.two_cols_mut(3, 1);
        assert_eq!(c3[2], -7.0);
        assert_eq!(c1[0], 100.0);
    }

    #[test]
    fn norms_and_scaling() {
        let mut a = DenseMatrix::from_column_major(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        a.scale(2.0);
        assert_eq!(a.data(), &[6.0, 0.0, 0.0, 8.0]);
        let b = DenseMatrix::identity(2);
        a.add_scaled(-1.0, &b);
        assert_eq!(a.get(0, 0), 5.0);
        assert!(a.is_finite());
        a.set(0, 0, f64::NAN);
        assert!(!a.is_finite());
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
