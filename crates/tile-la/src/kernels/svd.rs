//! One-sided Jacobi singular value decomposition.
//!
//! The TLR compression needs singular values accurate enough to pick the
//! numerical rank at tolerances down to ~1e-9. One-sided Jacobi is simple,
//! unconditionally stable and computes small singular values to high
//! relative accuracy, which is exactly what rank truncation needs. It never
//! sees a whole tile: `tlr::compress` first runs a pivoted QR that stops at
//! the tolerance and hands Jacobi only the `k × n` factor `R` of the `k`
//! kept columns (tall orientation: `k` columns), so a sweep costs `O(k²·n)`
//! instead of `O(n³)` — `k ≈ 20` for a 100 × 100 covariance tile at 1e-3.

use crate::dense::DenseMatrix;

/// A (thin) singular value decomposition `A = U · diag(s) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with `k = min(m, n)`.
    pub u: DenseMatrix,
    /// Singular values in non-increasing order, length `k`.
    pub s: Vec<f64>,
    /// Transposed right singular vectors, `k × n`.
    pub vt: DenseMatrix,
}

/// Compute the thin SVD of `a` by one-sided Jacobi rotations.
///
/// Convergence is declared when a full sweep performs no rotation with
/// off-diagonal weight above `1e-14` relative to the column norms, or after 60
/// sweeps (which is never reached in practice for tile-sized inputs).
pub fn jacobi_svd(a: &DenseMatrix) -> Svd {
    // Work on the tall orientation so the rotations act on long columns.
    let transposed = a.nrows() < a.ncols();
    let mut work = if transposed { a.transpose() } else { a.clone() };
    let m = work.nrows();
    let n = work.ncols();
    let mut v = DenseMatrix::identity(n);

    const MAX_SWEEPS: usize = 60;
    const TOL: f64 = 1e-14;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column inner products.
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                {
                    let cp = work.col(p);
                    let cq = work.col(q);
                    for i in 0..m {
                        app += cp[i] * cp[i];
                        aqq += cq[i] * cq[i];
                        apq += cp[i] * cq[i];
                    }
                }
                if apq.abs() <= TOL * (app * aqq).sqrt() || app == 0.0 || aqq == 0.0 {
                    continue;
                }
                rotated = true;
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate columns p and q of the working matrix and of V.
                {
                    let (cp, cq) = work.two_cols_mut(p, q);
                    for i in 0..m {
                        let xp = cp[i];
                        let xq = cq[i];
                        cp[i] = c * xp - s * xq;
                        cq[i] = s * xp + c * xq;
                    }
                }
                {
                    let (vp, vq) = v.two_cols_mut(p, q);
                    for i in 0..n {
                        let xp = vp[i];
                        let xq = vq[i];
                        vp[i] = c * xp - s * xq;
                        vq[i] = s * xp + c * xq;
                    }
                }
            }
        }
        if !rotated {
            break;
        }
    }

    // Singular values are the column norms; U columns are the normalized columns.
    let k = n.min(m);
    let mut sv: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm = work.col(j).iter().map(|x| x * x).sum::<f64>().sqrt();
            (norm, j)
        })
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut u = DenseMatrix::zeros(m, k);
    let mut s = vec![0.0; k];
    let mut vmat = DenseMatrix::zeros(n, k);
    for (r, &(norm, j)) in sv.iter().take(k).enumerate() {
        s[r] = norm;
        if norm > 0.0 {
            let src = work.col(j);
            let dst = u.col_mut(r);
            for i in 0..m {
                dst[i] = src[i] / norm;
            }
        }
        let vsrc = v.col(j);
        let vdst = vmat.col_mut(r);
        vdst.copy_from_slice(vsrc);
    }

    if transposed {
        // a = (work)^T = (U S V^T)^T = V S U^T: swap roles.
        Svd {
            u: vmat,
            s,
            vt: u.transpose(),
        }
    } else {
        Svd {
            u,
            s,
            vt: vmat.transpose(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    /// The (possibly truncated to `rank`) matrix `U·S·Vᵀ`: the reference
    /// the decomposition is checked against.
    fn reconstruct(svd: &Svd, rank: usize) -> DenseMatrix {
        let k = rank.min(svd.s.len());
        let m = svd.u.nrows();
        let n = svd.vt.ncols();
        let mut out = DenseMatrix::zeros(m, n);
        for r in 0..k {
            let sr = svd.s[r];
            for j in 0..n {
                let vrj = svd.vt.get(r, j) * sr;
                if vrj == 0.0 {
                    continue;
                }
                let u_col = svd.u.col(r);
                let o_col = out.col_mut(j);
                for i in 0..m {
                    o_col[i] += u_col[i] * vrj;
                }
            }
        }
        out
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
    fn svd_reconstructs_tall_and_wide_matrices() {
        for (m, n, seed) in [(10, 6, 1), (6, 10, 2), (8, 8, 3)] {
            let a = rand_matrix(m, n, seed);
            let svd = jacobi_svd(&a);
            let rec = reconstruct(&svd, svd.s.len());
            assert!(
                max_abs_diff(&rec, &a) < 1e-11,
                "reconstruction failed for {m}x{n}"
            );
        }
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = rand_matrix(9, 7, 5);
        let svd = jacobi_svd(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn orthonormal_factors() {
        let a = rand_matrix(12, 5, 9);
        let svd = jacobi_svd(&a);
        let utu = svd.u.matmul_tn(&svd.u);
        assert!(max_abs_diff(&utu, &DenseMatrix::identity(5)) < 1e-11);
        let vvt = svd.vt.matmul_nt(&svd.vt);
        assert!(max_abs_diff(&vvt, &DenseMatrix::identity(5)) < 1e-11);
    }

    #[test]
    fn diagonal_matrix_has_its_diagonal_as_singular_values() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| if i == j { (4 - i) as f64 } else { 0.0 });
        let svd = jacobi_svd(&a);
        for (i, &s) in svd.s.iter().enumerate() {
            assert!((s - (4 - i) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn known_rank_one_matrix() {
        // a = u v^T with |u| = 2, |v| = 3 => single singular value 6.
        let u = [1.0, 1.0, 1.0, 1.0];
        let v = [3.0f64.sqrt(), 3.0f64.sqrt(), 3.0f64.sqrt()];
        let a = DenseMatrix::from_fn(4, 3, |i, j| u[i] * v[j]);
        let svd = jacobi_svd(&a);
        assert!((svd.s[0] - 6.0).abs() < 1e-10);
        for &s in &svd.s[1..] {
            assert!(s < 1e-10);
        }
        let rec = reconstruct(&svd, 1);
        assert!(max_abs_diff(&rec, &a) < 1e-10);
    }

    #[test]
    fn rapidly_decaying_spectrum_truncation_error_bounded_by_next_singular_value() {
        // Smooth kernel matrix: exp(-|i-j|/20) has rapidly decaying singular values.
        let n = 24;
        let a = DenseMatrix::from_fn(n, n, |i, j| (-((i as f64 - j as f64).abs()) / 20.0).exp());
        let svd = jacobi_svd(&a);
        for rank in [1, 3, 6, 10] {
            let rec = reconstruct(&svd, rank);
            let mut diff = rec.clone();
            diff.add_scaled(-1.0, &a);
            let err = diff.frobenius_norm();
            let tail: f64 = svd.s[rank..].iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(
                err <= tail * (1.0 + 1e-8) + 1e-12,
                "rank {rank}: err {err} > tail bound {tail}"
            );
        }
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(5, 4);
        let svd = jacobi_svd(&a);
        assert!(svd.s.iter().all(|&x| x == 0.0));
    }
}
