//! Low-rank tile arithmetic used by the TLR Cholesky factorization and the
//! TLR-aware PMVN propagation step.
//!
//! The low-rank operations work on factor pairs without ever forming the
//! dense product of a low-rank tile, except for the final small `rank × rank`
//! core matrices. A recompression whose result needs more than the tile's
//! break-even rank returns the exact dense tile instead, and
//! [`tile_gemm_update`] runs the trailing update on tiles of any format.

use crate::compress::{break_even_rank, compress_tile, truncate, CompressionTol};
use crate::dag::Tile;
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

/// Add two low-rank representations and recompress: returns `U₁V₁ᵀ + U₂V₂ᵀ`
/// in the format that pays, within the requested tolerance.
///
/// Recompression uses the standard QR rounding: `[U₁ U₂] = Q_u R_u`,
/// `[V₁ V₂] = Q_v R_v`, then the small core `R_u R_vᵀ` (at most
/// `(ra+rb)²`) goes through the same rank-revealing truncation as
/// [`compress_tile`] — a pivoted QR that stops at `τ/√2`, then a Jacobi SVD
/// of only the kept rows within the budget left — so a low-rank result is
/// within `τ` of the exact sum in Frobenius norm. When the sum needs more than the tile's break-even rank, the
/// result is the exact dense sum: `U₁V₁ᵀ` expanded, plus `U₂V₂ᵀ` in one
/// `gemm_nt`.
pub fn lr_add_recompress(a: &LowRankBlock, b: &LowRankBlock, tol: CompressionTol) -> Tile {
    assert_eq!(a.nrows(), b.nrows(), "lr_add: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "lr_add: col mismatch");
    let m = a.nrows();
    let n = a.ncols();
    let ra = a.rank();
    let rb = b.rank();
    if ra + rb == 0 {
        return Tile::LowRank(LowRankBlock::zero(m, n));
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
    let CompressionTol::Absolute(tau) = tol;
    let Some(small) = truncate(&core, tau, break_even_rank(m, n)) else {
        let mut sum = a.to_dense();
        gemm_nt(1.0, &b.u, &b.v, 1.0, &mut sum);
        return Tile::Dense(sum);
    };
    let rank = small.rank();
    if rank == 0 {
        return Tile::LowRank(LowRankBlock::zero(m, n));
    }
    let mut u = DenseMatrix::zeros(m, rank);
    gemm_nn(1.0, &qu.q, &small.u, 0.0, &mut u);
    let mut v = DenseMatrix::zeros(n, rank);
    gemm_nn(1.0, &qv.q, &small.v, 0.0, &mut v);
    Tile::LowRank(LowRankBlock::new(u, v))
}

/// `−A·Bᵀ` as factors `X·Yᵀ` of rank `min(r_a, r_b)` for two low-rank
/// tiles. `A·Bᵀ = Uₐ·(Vₐᵀ·V_b)·U_bᵀ`; the `rₐ × r_b` core goes to the wider
/// side, so the product is never carried at more columns than it has.
fn lr_product(a: &LowRankBlock, b: &LowRankBlock) -> LowRankBlock {
    if a.rank() < b.rank() {
        // X = −U_a, Y = U_b·(V_b^T V_a).
        let mut w = DenseMatrix::zeros(b.rank(), a.rank());
        gemm_tn(1.0, &b.v, &a.v, 0.0, &mut w);
        let mut y = DenseMatrix::zeros(b.nrows(), a.rank());
        gemm_nn(1.0, &b.u, &w, 0.0, &mut y);
        let mut x = a.u.clone();
        x.scale(-1.0);
        LowRankBlock::new(x, y)
    } else {
        // X = −U_a·(V_a^T V_b), Y = U_b.
        let mut w = DenseMatrix::zeros(a.rank(), b.rank());
        gemm_tn(1.0, &a.v, &b.v, 0.0, &mut w);
        let mut x = DenseMatrix::zeros(a.nrows(), b.rank());
        gemm_nn(-1.0, &a.u, &w, 0.0, &mut x);
        LowRankBlock::new(x, b.u.clone())
    }
}

/// `C ← C − A·Bᵀ` where all three tiles are low-rank — the TLR `GEMM` of the
/// Cholesky trailing update, with recompression of the result into the
/// format that pays ([`lr_add_recompress`]). The update is carried at rank
/// `min(r_a, r_b)`.
pub fn lr_lr_t_update(
    c: &LowRankBlock,
    a: &LowRankBlock,
    b: &LowRankBlock,
    tol: CompressionTol,
) -> Tile {
    assert_eq!(a.ncols(), b.ncols(), "lr_lr_t: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows());
    assert_eq!(c.ncols(), b.nrows());
    if a.rank() == 0 || b.rank() == 0 {
        return Tile::LowRank(c.clone());
    }
    lr_add_recompress(c, &lr_product(a, b), tol)
}

/// `C ← C − A·Bᵀ` for tiles of any format: the `GEMM` step of a factor
/// whose tiles mix formats.
///
/// * Low-rank `C`, low-rank reads: [`lr_lr_t_update`].
/// * Dense `C`: a dense accumulation. A low-rank read enters through its
///   factors, so the product is `X·Yᵀ` at the rank of the low-rank side and
///   `C` takes it in one `gemm_nt`; two dense reads are one `gemm_nt`.
/// * Low-rank `C`, a dense read: the product is formed densely, added to
///   the expanded `C`, and the sum goes to [`compress_tile`].
pub fn tile_gemm_update(c: &mut Tile, a: &Tile, b: &Tile, tol: CompressionTol) {
    if let (Tile::LowRank(lr), Tile::LowRank(a), Tile::LowRank(b)) = (&*c, a, b) {
        *c = lr_lr_t_update(lr, a, b, tol);
        return;
    }
    // −A·Bᵀ as factors when either read is low-rank.
    let product = match (a, b) {
        (Tile::LowRank(a), Tile::LowRank(b)) => Some(lr_product(a, b)),
        (Tile::LowRank(a), Tile::Dense(b)) => {
            // A·Bᵀ = U_a·(B·V_a)ᵀ.
            let mut y = DenseMatrix::zeros(b.nrows(), a.rank());
            gemm_nn(1.0, b, &a.v, 0.0, &mut y);
            let mut x = a.u.clone();
            x.scale(-1.0);
            Some(LowRankBlock::new(x, y))
        }
        (Tile::Dense(a), Tile::LowRank(b)) => {
            // A·Bᵀ = (A·V_b)·U_bᵀ.
            let mut x = DenseMatrix::zeros(a.nrows(), b.rank());
            gemm_nn(-1.0, a, &b.v, 0.0, &mut x);
            Some(LowRankBlock::new(x, b.u.clone()))
        }
        (Tile::Dense(_), Tile::Dense(_)) => None,
    };
    let subtract = |d: &mut DenseMatrix| match &product {
        Some(p) if p.rank() == 0 => {}
        Some(p) => gemm_nt(1.0, &p.u, &p.v, 1.0, d),
        None => gemm_nt(-1.0, a.as_dense(), b.as_dense(), 1.0, d),
    };
    match c {
        Tile::Dense(d) => subtract(d),
        Tile::LowRank(lr) => {
            let mut d = lr.to_dense();
            subtract(&mut d);
            *c = compress_tile(d, tol);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compress::compress_dense;
    use crate::compress::tests::{fro_error, grid_tile, optimal_rank, within};
    use tile_la::max_abs_diff;

    /// The low-rank payload of a tile the test expects to stay low-rank.
    fn low_rank(tile: Tile) -> LowRankBlock {
        match tile {
            Tile::LowRank(b) => b,
            Tile::Dense(_) => panic!("expected a low-rank tile"),
        }
    }

    pub(crate) fn rand_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    pub(crate) fn rand_lowrank(m: usize, n: usize, k: usize, seed: u64) -> LowRankBlock {
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
        let a = rand_lowrank(60, 50, 3, 21);
        let b = rand_lowrank(60, 50, 2, 23);
        let sum = low_rank(lr_add_recompress(&a, &b, CompressionTol::Absolute(1e-12)));
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
        let sum = lr_add_recompress(&a, &neg, CompressionTol::Absolute(1e-10));
        assert_eq!(low_rank(sum).rank(), 0, "cancelling sum should be rank 0");
    }

    #[test]
    fn a_sum_past_the_break_even_rank_is_the_exact_dense_sum() {
        // 12 × 10 tiles break even at rank 2; a rank-5 sum at a tight
        // tolerance must come back dense, and exact.
        assert_eq!(break_even_rank(12, 10), 2);
        let a = rand_lowrank(12, 10, 3, 21);
        let b = rand_lowrank(12, 10, 2, 23);
        let sum = lr_add_recompress(&a, &b, CompressionTol::Absolute(1e-12));
        let Tile::Dense(sum) = sum else {
            panic!("a rank-5 sum of a 12 x 10 tile must be dense")
        };
        let mut want = a.to_dense();
        gemm_nt(1.0, &b.u, &b.v, 1.0, &mut want);
        assert_eq!(sum, want);
    }

    #[test]
    fn lr_lr_t_update_matches_dense_computation() {
        // Update ranks (3, 2) and (2, 6): the product is carried at rank 2
        // either way, on the side that keeps it narrow.
        for (ra, rb) in [(3, 2), (2, 6)] {
            let c = rand_lowrank(40, 30, 2, 41);
            let a = rand_lowrank(40, 25, ra, 43);
            let b = rand_lowrank(30, 25, rb, 45);
            assert_eq!(lr_product(&a, &b).rank(), 2);
            let tol = CompressionTol::Absolute(1e-12);
            let result = low_rank(lr_lr_t_update(&c, &a, &b, tol));
            let mut want = c.to_dense();
            want.add_scaled(-1.0, &a.to_dense().matmul_nt(&b.to_dense()));
            assert!(max_abs_diff(&result.to_dense(), &want) < 1e-10, "{ra}/{rb}");
            assert!(result.rank() <= 4, "{ra}/{rb}: rank {}", result.rank());
        }
    }

    #[test]
    fn update_with_rank_zero_operand_is_identity() {
        let c = rand_lowrank(6, 6, 2, 51);
        let a = LowRankBlock::zero(6, 4);
        let b = rand_lowrank(6, 4, 2, 53);
        let result = lr_lr_t_update(&c, &a, &b, CompressionTol::Absolute(1e-8));
        assert!(max_abs_diff(&result.to_dense(), &c.to_dense()) < 1e-14);
    }

    #[test]
    fn recompression_respects_loose_tolerance_by_dropping_rank() {
        // Build a nearly-rank-1 sum out of a dominant block and a tiny one.
        let dominant = rand_lowrank(15, 15, 1, 61);
        let mut small_u = rand_matrix(15, 3, 63);
        small_u.scale(1e-9);
        let small = LowRankBlock::new(small_u, rand_matrix(15, 3, 65));
        let sum = lr_add_recompress(&dominant, &small, CompressionTol::Absolute(1e-4));
        assert_eq!(low_rank(sum).rank(), 1);
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
        let sum = lr_add_recompress(&a, &a, CompressionTol::Absolute(1e-9));
        assert!(max_abs_diff(&low_rank(sum).to_dense(), &full) < 1e-7);
    }

    #[test]
    fn recompressed_benchmark_sums_meet_the_tolerance_at_near_optimal_rank() {
        // Sums of two compressed tiles of the n = 1,600 benchmark covariance,
        // against the truncated SVD of the exact dense sum: a sum is dense
        // exactly when the rank it needs passes the break-even rank (up to
        // the pivoted QR's slack of 2 over the optimal rank at its stop,
        // τ/√2), exact when dense, and within τ at near-optimal rank when
        // low-rank.
        const TAU: f64 = 1e-3;
        let tol = CompressionTol::Absolute(TAU);
        let bound = break_even_rank(100, 100);
        let mut formats = [0; 2];
        for i in 2..16 {
            let a = compress_dense(&grid_tile(i, 1), tol, usize::MAX);
            let mut b = compress_dense(&grid_tile(i, 0), tol, usize::MAX);
            b.u.scale(-0.5);
            let mut exact = a.to_dense();
            exact.add_scaled(1.0, &b.to_dense());
            let best = optimal_rank(&exact, TAU);
            let at_qr_stop = optimal_rank(&exact, TAU / 2f64.sqrt());
            match lr_add_recompress(&a, &b, tol) {
                Tile::Dense(d) => {
                    assert!(at_qr_stop + 2 > bound, "row {i}: dense at {at_qr_stop}");
                    assert!(max_abs_diff(&d, &exact) < 1e-12, "row {i}");
                    formats[0] += 1;
                }
                Tile::LowRank(sum) => {
                    assert!(best <= bound, "row {i}: low-rank at optimal rank {best}");
                    let err = fro_error(&sum, &exact);
                    assert!(err <= within(TAU), "row {i}: err {err} > {TAU}");
                    assert!(
                        sum.rank() <= best + 2,
                        "row {i}: rank {} vs optimal {best}",
                        sum.rank()
                    );
                    formats[1] += 1;
                }
            }
        }
        // Both verdicts occur: the rows next to the diagonal need more than
        // the break-even rank, the far ones far less.
        assert!(
            formats[0] > 0 && formats[1] > 0,
            "{formats:?} (dense, low-rank)"
        );
    }
}
