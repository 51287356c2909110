//! Triangular solve kernels with a lower-triangular coefficient tile.
//!
//! Only the variants actually used by the tiled Cholesky, the TLR Cholesky and
//! the tiled forward/backward substitutions are provided:
//!
//! * [`trsm_right_lower_trans`] — `B ← B·L⁻ᵀ` (panel update of the Cholesky),
//! * [`trsm_left_lower_notrans`] — `B ← L⁻¹·B` (forward substitution),
//! * [`trsm_left_lower_trans`] — `B ← L⁻ᵀ·B` (backward substitution).

use super::isa::{self, Kernel};
use crate::dense::DenseMatrix;

/// `B ← B · L⁻ᵀ`, with `L` lower triangular (`L` is `n×n`, `B` is `m×n`).
///
/// This is the `TRSM` used in the panel step of the right-looking Cholesky:
/// after `L_kk` is factored, every tile below it is multiplied by `L_kk⁻ᵀ`.
pub fn trsm_right_lower_trans(l: &DenseMatrix, b: &mut DenseMatrix) {
    isa::run(TrsmRightLowerTrans { l, b })
}

/// One `trsm_right_lower_trans` call.
pub(super) struct TrsmRightLowerTrans<'a> {
    pub(super) l: &'a DenseMatrix,
    pub(super) b: &'a mut DenseMatrix,
}

impl Kernel for TrsmRightLowerTrans<'_> {
    #[inline(always)]
    fn run<const W: usize, const Q: usize>(self) {
        trsm_right_lower_trans_body(self.l, self.b)
    }
}

/// The body of [`trsm_right_lower_trans`], inlined into each compilation (see `isa::Kernel`).
#[inline(always)]
fn trsm_right_lower_trans_body(l: &DenseMatrix, b: &mut DenseMatrix) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "trsm: L must be square");
    assert_eq!(b.ncols(), n, "trsm: B column count must match L");
    let m = b.nrows();
    // Solve X * L^T = B  <=>  for each row x of X: L x^T = b^T... done columnwise:
    // column j of X: X[:,j] = (B[:,j] - sum_{k<j} X[:,k] * L[j,k]) / L[j,j]
    for j in 0..n {
        let ljj = l.get(j, j);
        assert!(ljj != 0.0, "trsm: zero diagonal in triangular factor");
        for k in 0..j {
            let ljk = l.get(j, k);
            if ljk == 0.0 {
                continue;
            }
            let (xk, xj) = b.two_cols_mut(k, j);
            for i in 0..m {
                xj[i] -= xk[i] * ljk;
            }
        }
        let xj = b.col_mut(j);
        let inv = 1.0 / ljj;
        for i in 0..m {
            xj[i] *= inv;
        }
    }
}

/// `B ← L⁻¹ · B`, with `L` lower triangular (`L` is `m×m`, `B` is `m×n`).
///
/// Forward substitution on every column of `B`; used to whiten data vectors,
/// compute Mahalanobis terms in the Gaussian log-likelihood, and for the TLR
/// `TRSM` applied to the `V` factor of an off-diagonal low-rank tile.
pub fn trsm_left_lower_notrans(l: &DenseMatrix, b: &mut DenseMatrix) {
    let m = l.nrows();
    assert_eq!(l.ncols(), m, "trsm: L must be square");
    assert_eq!(b.nrows(), m, "trsm: B row count must match L");
    let n = b.ncols();
    for j in 0..n {
        let col = b.col_mut(j);
        for i in 0..m {
            let mut s = col[i];
            for k in 0..i {
                s -= l.get(i, k) * col[k];
            }
            let lii = l.get(i, i);
            debug_assert!(lii != 0.0, "trsm: zero diagonal");
            col[i] = s / lii;
        }
    }
}

/// `B ← L⁻ᵀ · B`, with `L` lower triangular (`L` is `m×m`, `B` is `m×n`).
///
/// Backward substitution on every column of `B` against the transpose of `L`;
/// used to complete two-sided solves `Σ⁻¹·B = L⁻ᵀ·(L⁻¹·B)`.
pub fn trsm_left_lower_trans(l: &DenseMatrix, b: &mut DenseMatrix) {
    let m = l.nrows();
    assert_eq!(l.ncols(), m, "trsm: L must be square");
    assert_eq!(b.nrows(), m, "trsm: B row count must match L");
    let n = b.ncols();
    for j in 0..n {
        let col = b.col_mut(j);
        for ii in 0..m {
            let i = m - 1 - ii;
            let mut s = col[i];
            for k in (i + 1)..m {
                // (L^T)[i,k] = L[k,i]
                s -= l.get(k, i) * col[k];
            }
            let lii = l.get(i, i);
            debug_assert!(lii != 0.0, "trsm: zero diagonal");
            col[i] = s / lii;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn lower_triangular(n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(n, n, |i, j| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            if i > j {
                v
            } else if i == j {
                2.0 + v.abs() // well away from zero
            } else {
                0.0
            }
        })
    }

    fn rand_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn right_lower_trans_solves_xlt_equals_b() {
        let n = 6;
        let l = lower_triangular(n, 5);
        let b0 = rand_matrix(4, n, 6);
        let mut x = b0.clone();
        trsm_right_lower_trans(&l, &mut x);
        // Check X * L^T == B.
        let reconstructed = x.matmul(&l.transpose());
        assert!(max_abs_diff(&reconstructed, &b0) < 1e-11);
    }

    #[test]
    fn left_lower_notrans_solves_lx_equals_b() {
        let m = 7;
        let l = lower_triangular(m, 15);
        let b0 = rand_matrix(m, 3, 16);
        let mut x = b0.clone();
        trsm_left_lower_notrans(&l, &mut x);
        let reconstructed = l.matmul(&x);
        assert!(max_abs_diff(&reconstructed, &b0) < 1e-11);
    }

    #[test]
    fn left_lower_trans_solves_ltx_equals_b() {
        let m = 7;
        let l = lower_triangular(m, 25);
        let b0 = rand_matrix(m, 2, 26);
        let mut x = b0.clone();
        trsm_left_lower_trans(&l, &mut x);
        let reconstructed = l.transpose().matmul(&x);
        assert!(max_abs_diff(&reconstructed, &b0) < 1e-11);
    }

    #[test]
    fn forward_then_backward_equals_full_spd_solve() {
        // L L^T x = b  =>  x = L^-T L^-1 b; verify against direct reconstruction.
        let m = 5;
        let l = lower_triangular(m, 35);
        let sigma = l.matmul(&l.transpose());
        let b0 = rand_matrix(m, 1, 36);
        let mut x = b0.clone();
        trsm_left_lower_notrans(&l, &mut x);
        trsm_left_lower_trans(&l, &mut x);
        let reconstructed = sigma.matmul(&x);
        assert!(max_abs_diff(&reconstructed, &b0) < 1e-10);
    }

    #[test]
    fn identity_triangle_is_noop() {
        let l = DenseMatrix::identity(4);
        let b0 = rand_matrix(4, 4, 45);
        let mut b = b0.clone();
        trsm_right_lower_trans(&l, &mut b);
        assert!(max_abs_diff(&b, &b0) < 1e-15);
        trsm_left_lower_notrans(&l, &mut b);
        trsm_left_lower_trans(&l, &mut b);
        assert!(max_abs_diff(&b, &b0) < 1e-15);
    }

    #[test]
    #[should_panic]
    fn mismatched_dimensions_panic() {
        let l = lower_triangular(4, 1);
        let mut b = DenseMatrix::zeros(3, 3);
        trsm_right_lower_trans(&l, &mut b);
    }
}
