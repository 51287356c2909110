//! Low-rank tile arithmetic used by the TLR Cholesky factorization and the
//! TLR-aware PMVN propagation step.
//!
//! All operations work on factor pairs without ever forming the dense product
//! of a low-rank tile, except for the final small `rank × rank` core matrices.

use crate::compress::{truncate, CompressionTol};
use crate::lowrank::LowRankBlock;
use tile_la::kernels::{gemm_nn, gemm_nt, gemm_tn, qr_factor};
use tile_la::DenseMatrix;

/// `C ← β·C + α·(U·Vᵀ)·B` — low-rank tile times dense panel.
///
/// This is the kernel used when the PMVN propagation (`A_{j,k} ← A_{j,k} −
/// L_{j,r}·Y_{r,k}`) runs against a TLR Cholesky factor: the cost drops from
/// `O(m²·p)` to `O(k·m·p)` for rank `k`.
pub fn lr_gemm_panel(
    alpha: f64,
    lr: &LowRankBlock,
    b: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    assert_eq!(
        lr.ncols(),
        b.nrows(),
        "lr_gemm_panel: inner dimension mismatch"
    );
    assert_eq!(c.nrows(), lr.nrows(), "lr_gemm_panel: output row mismatch");
    assert_eq!(c.ncols(), b.ncols(), "lr_gemm_panel: output col mismatch");
    if lr.rank() == 0 {
        if beta != 1.0 {
            c.scale(beta);
        }
        return;
    }
    // W = V^T B  (k × p)
    let mut w = DenseMatrix::zeros(lr.rank(), b.ncols());
    gemm_tn(1.0, &lr.v, b, 0.0, &mut w);
    // C = beta C + alpha U W
    gemm_nn(alpha, &lr.u, &w, beta, c);
}

/// `Cᵀ ← β·Cᵀ + α·Bᵀ·(U·Vᵀ)ᵀ` — the chain-major (transposed-panel) variant
/// of [`lr_gemm_panel`].
///
/// The chain-major PMVN sweep stores its panels with the chain index down
/// the columns: `bt` is `p × n` (`p` chains by `n = lr.ncols()` factor
/// columns) and `ct` is `p × m`. Writing `Bᵀ = bt`, `Cᵀ = ct`, this computes
/// the transpose of [`lr_gemm_panel`]'s update via `W = Bᵀ·V` (`p × k`)
/// followed by `Cᵀ ← β·Cᵀ + α·W·Uᵀ`, so every chain's contraction runs over
/// contiguous lanes.
pub fn lr_gemm_panel_t(
    alpha: f64,
    lr: &LowRankBlock,
    bt: &DenseMatrix,
    beta: f64,
    ct: &mut DenseMatrix,
) {
    assert_eq!(
        bt.ncols(),
        lr.ncols(),
        "lr_gemm_panel_t: inner dimension mismatch"
    );
    assert_eq!(
        ct.ncols(),
        lr.nrows(),
        "lr_gemm_panel_t: output col mismatch"
    );
    assert_eq!(
        ct.nrows(),
        bt.nrows(),
        "lr_gemm_panel_t: output row mismatch"
    );
    if lr.rank() == 0 {
        if beta != 1.0 {
            ct.scale(beta);
        }
        return;
    }
    // W = B^T V  (p × k)
    let mut w = DenseMatrix::zeros(bt.nrows(), lr.rank());
    gemm_nn(1.0, bt, &lr.v, 0.0, &mut w);
    // C^T = beta C^T + alpha W U^T
    gemm_nt(alpha, &w, &lr.u, beta, ct);
}

/// `D ← D − A·Aᵀ` where `A = U·Vᵀ` is low-rank and `D` is a dense (diagonal)
/// tile — the TLR `SYRK`.
pub fn lr_aa_t_update(diag: &mut DenseMatrix, a: &LowRankBlock) {
    assert_eq!(diag.nrows(), a.nrows());
    assert_eq!(diag.ncols(), a.nrows());
    if a.rank() == 0 {
        return;
    }
    // W = V^T V (k × k), T = U W (m × k), D -= T U^T.
    let mut w = DenseMatrix::zeros(a.rank(), a.rank());
    gemm_tn(1.0, &a.v, &a.v, 0.0, &mut w);
    let mut t = DenseMatrix::zeros(a.nrows(), a.rank());
    gemm_nn(1.0, &a.u, &w, 0.0, &mut t);
    gemm_nt(-1.0, &t, &a.u, 1.0, diag);
}

/// Add two low-rank representations and recompress: returns a low-rank block
/// representing `U₁V₁ᵀ + U₂V₂ᵀ` truncated back to the requested tolerance.
///
/// Recompression uses the standard QR rounding: `[U₁ U₂] = Q_u R_u`,
/// `[V₁ V₂] = Q_v R_v`, then the small core `R_u R_vᵀ` (at most
/// `(ra+rb)²`) goes through the same rank-revealing truncation as
/// [`compress_dense`](crate::compress_dense) — a pivoted QR that stops at
/// `τ/√2`, then a Jacobi SVD of only the kept rows within the budget left —
/// so the result is within `τ` of the exact sum in Frobenius norm (unless
/// `max_rank` caps it first).
pub fn lr_add_recompress(
    a: &LowRankBlock,
    b: &LowRankBlock,
    tol: CompressionTol,
    max_rank: usize,
) -> LowRankBlock {
    assert_eq!(a.nrows(), b.nrows(), "lr_add: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "lr_add: col mismatch");
    let m = a.nrows();
    let n = a.ncols();
    let ra = a.rank();
    let rb = b.rank();
    if ra + rb == 0 {
        return LowRankBlock::zero(m, n);
    }
    // Concatenate factors.
    let ucat = DenseMatrix::from_fn(m, ra + rb, |i, j| {
        if j < ra {
            a.u.get(i, j)
        } else {
            b.u.get(i, j - ra)
        }
    });
    let vcat = DenseMatrix::from_fn(n, ra + rb, |i, j| {
        if j < ra {
            a.v.get(i, j)
        } else {
            b.v.get(i, j - ra)
        }
    });
    let qu = qr_factor(&ucat);
    let qv = qr_factor(&vcat);
    // Core = R_u R_v^T  (small square of size <= ra+rb); its truncation
    // U_c V_c^T gives U = Q_u U_c, V = Q_v V_c.
    let core = qu.r.matmul_nt(&qv.r);
    let small = truncate(&core, tol.absolute_for(core.frobenius_norm()), max_rank);
    let rank = small.rank();
    if rank == 0 {
        return LowRankBlock::zero(m, n);
    }
    let mut u = DenseMatrix::zeros(m, rank);
    gemm_nn(1.0, &qu.q, &small.u, 0.0, &mut u);
    let mut v = DenseMatrix::zeros(n, rank);
    gemm_nn(1.0, &qv.q, &small.v, 0.0, &mut v);
    LowRankBlock::new(u, v)
}

/// `C ← C − A·Bᵀ` where all three tiles are low-rank — the TLR `GEMM` of the
/// Cholesky trailing update, with recompression of the result.
pub fn lr_lr_t_update(
    c: &LowRankBlock,
    a: &LowRankBlock,
    b: &LowRankBlock,
    tol: CompressionTol,
    max_rank: usize,
) -> LowRankBlock {
    assert_eq!(a.ncols(), b.ncols(), "lr_lr_t: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows());
    assert_eq!(c.ncols(), b.nrows());
    if a.rank() == 0 || b.rank() == 0 {
        return c.clone();
    }
    // A B^T = U_a (V_a^T V_b) U_b^T: X = -U_a (V_a^T V_b), Y = U_b.
    let mut w = DenseMatrix::zeros(a.rank(), b.rank());
    gemm_tn(1.0, &a.v, &b.v, 0.0, &mut w);
    let mut x = DenseMatrix::zeros(a.nrows(), b.rank());
    gemm_nn(-1.0, &a.u, &w, 0.0, &mut x);
    let update = LowRankBlock::new(x, b.u.clone());
    lr_add_recompress(c, &update, tol, max_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_dense;
    use crate::compress::tests::{fro_error, grid_tile, optimal_truncation, truncation_bound};
    use tile_la::max_abs_diff;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn rand_lowrank(m: usize, n: usize, k: usize, seed: u64) -> LowRankBlock {
        LowRankBlock::new(rand_matrix(m, k, seed), rand_matrix(n, k, seed + 1))
    }

    #[test]
    fn lr_gemm_panel_matches_dense_product() {
        let lr = rand_lowrank(8, 6, 3, 1);
        let b = rand_matrix(6, 4, 3);
        let mut c = rand_matrix(8, 4, 5);
        let mut want = c.clone();
        want.scale(0.5);
        want.add_scaled(-2.0, &lr.to_dense().matmul(&b));
        lr_gemm_panel(-2.0, &lr, &b, 0.5, &mut c);
        assert!(max_abs_diff(&c, &want) < 1e-12);
    }

    #[test]
    fn lr_gemm_panel_rank_zero_only_scales() {
        let lr = LowRankBlock::zero(5, 5);
        let b = rand_matrix(5, 3, 9);
        let mut c = rand_matrix(5, 3, 10);
        let mut want = c.clone();
        want.scale(0.25);
        lr_gemm_panel(1.0, &lr, &b, 0.25, &mut c);
        assert!(max_abs_diff(&c, &want) < 1e-15);
    }

    #[test]
    fn lr_gemm_panel_t_matches_transposed_dense_product() {
        let lr = rand_lowrank(8, 6, 3, 1);
        let bt = rand_matrix(4, 6, 3); // 4 chains × 6 factor columns
        let mut ct = rand_matrix(4, 8, 5);
        let mut want = ct.clone();
        want.scale(0.5);
        // Cᵀ += α·Bᵀ·(UVᵀ)ᵀ  ⇔  want += α·bt·dense(lr)ᵀ
        want.add_scaled(-2.0, &bt.matmul_nt(&lr.to_dense()));
        lr_gemm_panel_t(-2.0, &lr, &bt, 0.5, &mut ct);
        assert!(max_abs_diff(&ct, &want) < 1e-12);
    }

    #[test]
    fn lr_gemm_panel_t_rank_zero_only_scales() {
        let lr = LowRankBlock::zero(5, 6);
        let bt = rand_matrix(3, 6, 9);
        let mut ct = rand_matrix(3, 5, 10);
        let mut want = ct.clone();
        want.scale(0.25);
        lr_gemm_panel_t(1.0, &lr, &bt, 0.25, &mut ct);
        assert!(max_abs_diff(&ct, &want) < 1e-15);
    }

    #[test]
    fn lr_syrk_matches_dense_update() {
        let a = rand_lowrank(7, 9, 2, 11);
        let mut d = rand_matrix(7, 7, 13);
        let mut want = d.clone();
        let ad = a.to_dense();
        want.add_scaled(-1.0, &ad.matmul_nt(&ad));
        lr_aa_t_update(&mut d, &a);
        assert!(max_abs_diff(&d, &want) < 1e-12);
    }

    #[test]
    fn add_recompress_is_accurate_and_rank_bounded() {
        let a = rand_lowrank(12, 10, 3, 21);
        let b = rand_lowrank(12, 10, 2, 23);
        let sum = lr_add_recompress(&a, &b, CompressionTol::Absolute(1e-12), usize::MAX);
        let mut want = a.to_dense();
        want.add_scaled(1.0, &b.to_dense());
        assert!(max_abs_diff(&sum.to_dense(), &want) < 1e-10);
        assert!(sum.rank() <= 5);
    }

    #[test]
    fn add_recompress_detects_cancellation() {
        // a + (-a) must recompress to (near) rank zero.
        let a = rand_lowrank(9, 9, 3, 31);
        let neg = LowRankBlock::new(
            {
                let mut u = a.u.clone();
                u.scale(-1.0);
                u
            },
            a.v.clone(),
        );
        let sum = lr_add_recompress(&a, &neg, CompressionTol::Absolute(1e-10), usize::MAX);
        assert_eq!(sum.rank(), 0, "cancelling sum should truncate to rank 0");
    }

    #[test]
    fn lr_lr_t_update_matches_dense_computation() {
        let c = rand_lowrank(8, 6, 2, 41);
        let a = rand_lowrank(8, 5, 3, 43);
        let b = rand_lowrank(6, 5, 2, 45);
        let result = lr_lr_t_update(&c, &a, &b, CompressionTol::Absolute(1e-12), usize::MAX);
        let mut want = c.to_dense();
        want.add_scaled(-1.0, &a.to_dense().matmul_nt(&b.to_dense()));
        assert!(max_abs_diff(&result.to_dense(), &want) < 1e-10);
    }

    #[test]
    fn update_with_rank_zero_operand_is_identity() {
        let c = rand_lowrank(6, 6, 2, 51);
        let a = LowRankBlock::zero(6, 4);
        let b = rand_lowrank(6, 4, 2, 53);
        let result = lr_lr_t_update(&c, &a, &b, CompressionTol::Absolute(1e-8), usize::MAX);
        assert!(max_abs_diff(&result.to_dense(), &c.to_dense()) < 1e-14);
    }

    #[test]
    fn recompression_respects_loose_tolerance_by_dropping_rank() {
        // Build a nearly-rank-1 sum out of a dominant block and a tiny one.
        let dominant = rand_lowrank(15, 15, 1, 61);
        let mut small_u = rand_matrix(15, 3, 63);
        small_u.scale(1e-9);
        let small = LowRankBlock::new(small_u, rand_matrix(15, 3, 65));
        let sum = lr_add_recompress(
            &dominant,
            &small,
            CompressionTol::Relative(1e-4),
            usize::MAX,
        );
        assert_eq!(sum.rank(), 1);
    }

    #[test]
    fn compress_then_add_roundtrip() {
        // Compress two halves of a smooth tile and verify the recompressed sum
        // approximates the full tile.
        let full = DenseMatrix::from_fn(20, 20, |i, j| {
            (-((i as f64 - j as f64 - 30.0).abs()) / 25.0).exp()
        });
        let half1 = DenseMatrix::from_fn(20, 20, |i, j| 0.5 * full.get(i, j));
        let a = compress_dense(&half1, CompressionTol::Absolute(1e-10), usize::MAX);
        let sum = lr_add_recompress(&a, &a, CompressionTol::Absolute(1e-9), usize::MAX);
        assert!(max_abs_diff(&sum.to_dense(), &full) < 1e-7);
    }

    #[test]
    fn recompressed_benchmark_sums_meet_the_tolerance_at_near_optimal_rank() {
        // Sums of two compressed tiles of the n = 1,600 benchmark covariance,
        // against the truncated SVD of the exact dense sum.
        const TAU: f64 = 1e-3;
        const MAX_RANK: usize = 50;
        let tol = CompressionTol::Absolute(TAU);
        for i in 2..16 {
            let a = compress_dense(&grid_tile(i, 1), tol, MAX_RANK);
            let mut b = compress_dense(&grid_tile(i, 0), tol, MAX_RANK);
            b.u.scale(-0.5);
            let mut exact = a.to_dense();
            exact.add_scaled(1.0, &b.to_dense());
            let sum = lr_add_recompress(&a, &b, tol, MAX_RANK);
            let err = fro_error(&sum, &exact);
            let (best, best_err) = optimal_truncation(&exact, TAU, MAX_RANK);
            let bound = truncation_bound(TAU, best_err);
            assert!(err <= bound, "row {i}: err {err} > {bound}");
            assert!(
                sum.rank() <= best + 2,
                "row {i}: rank {} vs optimal {best}",
                sum.rank()
            );
        }
    }
}
