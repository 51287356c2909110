//! Compression of dense tiles: each tile gets the format that pays.
//!
//! One private routine, `truncate`, picks every rank in the crate: tile
//! compression ([`compress_tile`], [`compress_dense`]) and the recompression
//! of low-rank sums ([`lr_add_recompress`](crate::lr_add_recompress)) both
//! call it. It reveals the rank with a Householder QR with column pivoting
//! that stops once the trailing columns' Frobenius norm is at most `τ/√2`,
//! then runs the Jacobi SVD only on the `k × n` factor `R` of the `k` kept
//! columns and truncates it within the budget left, `√(τ² − tail_qr²)`. The
//! two remainders are orthogonal, so the total Frobenius error is at most
//! `τ`, and Jacobi never sees a full tile.
//!
//! A tile stays low-rank only while the rank `τ` needs is at most its
//! break-even rank (`break_even_rank`, a function of the tile shape alone):
//! the rank above which one low-rank trailing update of the tile costs more
//! flops than the dense GEMM it replaces, capped at the rank above which the
//! factors store more than the tile. Above it the tile is dense, and stays
//! dense: the pivoted QR gives up as soon as it has kept more columns than
//! the bound, so a dense verdict costs neither the rest of the QR nor the
//! SVD. A 100 × 100 tile breaks even at rank 19; at the paper's tolerance
//! 1e-3, 66 of the 120 off-diagonal tiles of the benchmark's n = 1,600
//! covariance need fewer columns and stay low-rank.

use crate::dag::Tile;
use crate::lowrank::LowRankBlock;
use tile_la::kernels::jacobi_svd;
use tile_la::DenseMatrix;

/// Truncation tolerance for tile compression: the one setting of TLR.
///
/// The paper's "TLR accuracy 1e-3 / 1e-4" is an absolute threshold on the
/// discarded part of each tile (HiCMA's fixed-accuracy mode). No rank cap
/// goes with it: a tile is low-rank only up to its break-even rank, and
/// dense above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionTol {
    /// Keep enough singular values that the Frobenius norm of the discarded
    /// remainder is at most this value.
    Absolute(f64),
}

/// Compress a dense tile to a low-rank block, whatever rank it needs, then
/// keep at most the leading columns the rank cap allows.
///
/// Uncapped, the result `U·Vᵀ` satisfies `‖tile − U·Vᵀ‖_F ≤ tol`. A pivoted
/// Householder QR runs until the trailing columns' norm is at most `tol/√2`;
/// only the `k × n` factor `R` of the `k` kept columns goes through the
/// Jacobi SVD, which is truncated within the remaining budget
/// `√(tol² − tail_qr²)`. The singular values are folded into `U`
/// (`U ← Q_k·U_R·diag(s)`, `V = V_R`), matching the convention used by the
/// low-rank arithmetic kernels. Each column of `U` and `V` is built on its
/// own, so the leading `r` columns are bitwise the truncation to rank `r`.
/// The cap is kept only for the `mvn_perf` benchmark's compression probe,
/// and goes when the benchmark stops passing it. A tiled matrix compresses
/// through [`compress_tile`], which keeps a tile dense where low rank does
/// not pay.
pub fn compress_dense(tile: &DenseMatrix, tol: CompressionTol, max_rank: usize) -> LowRankBlock {
    let CompressionTol::Absolute(tau) = tol;
    let lr = truncate(tile, tau, usize::MAX).expect("an unbounded truncation is always low-rank");
    let rank = lr.rank().min(max_rank);
    LowRankBlock::new(
        lr.u.submatrix(0, 0, lr.nrows(), rank),
        lr.v.submatrix(0, 0, lr.ncols(), rank),
    )
}

/// The tile in the format that pays: [`compress_dense`]'s `U·Vᵀ` when the
/// rank `tol` needs is at most the tile's break-even rank, else `dense`
/// itself, moved in unchanged.
pub fn compress_tile(dense: DenseMatrix, tol: CompressionTol) -> Tile {
    let CompressionTol::Absolute(tau) = tol;
    let bound = break_even_rank(dense.nrows(), dense.ncols());
    match truncate(&dense, tau, bound) {
        Some(lr) => Tile::LowRank(lr),
        None => Tile::Dense(dense),
    }
}

/// The largest rank at which an `m × n` tile pays to keep low-rank.
///
/// The tiled Cholesky updates an off-diagonal tile `C ← C − A·Bᵀ` once per
/// panel to its left, with a `p`-column panel, `p = max(m, n)` (only a
/// tile-row can be ragged, and its panel is a full tile). Dense, that is
/// one GEMM of `2·m·n·p` flops. Low-rank, with `C` of rank `r` and an
/// update of rank at most `r` ([`lr_lr_t_update`](crate::lr_lr_t_update)),
/// the sum has `k = 2r` columns and costs, in flops:
///
/// * the update's factors, `Vₐᵀ·V_b` then `Uₐ·W`: `2·(p + m)·r²`,
/// * the two thin Householder QRs of the `m × k` and `n × k` concatenated
///   factors, `Q` formed: `4·(m + n)·k² − 8k³/3`,
/// * the core `R_u·R_vᵀ`: `2k³`,
/// * its pivoted QR to `r` columns, norms recomputed after each
///   reflector: `6·(k²r − kr² + r³/3)`,
/// * two one-sided Jacobi sweeps over the `r × k` factor `R` (graded by
///   the pivoting, it converges fast), `r²/2` rotations of `12k + 6r`
///   flops each: `r²·(12k + 6r)`,
/// * the final products `Q_u·U_c` and `Q_v·V_c`: `2·(m + n)·k·r`.
///
/// At `m = n = p` the sum is `44·m·r² + 38.7·r³`; it passes `2m³` at
/// `r ≈ m/5` (19 at `m = 100`, 3 at `m = 16`). The break-even rank is the
/// largest `r` whose update costs no more than the GEMM, capped at the
/// storage break-even `m·n/(m + n)`, above which the factors hold more
/// doubles than the tile.
pub(crate) fn break_even_rank(m: usize, n: usize) -> usize {
    let (mf, nf) = (m as f64, n as f64);
    let p = mf.max(nf);
    let dense = 2.0 * mf * nf * p;
    let low_rank = |r: f64| {
        let k = 2.0 * r;
        2.0 * (p + mf) * r * r + 4.0 * (mf + nf) * k * k - 8.0 * k * k * k / 3.0
            + 2.0 * k * k * k
            + 6.0 * (k * k * r - k * r * r + r * r * r / 3.0)
            + r * r * (12.0 * k + 6.0 * r)
            + 2.0 * (mf + nf) * k * r
    };
    let storage = (m * n).checked_div(m + n).unwrap_or(0);
    (1..=storage)
        .take_while(|&r| low_rank(r as f64) <= dense)
        .last()
        .unwrap_or(0)
}

/// Truncate `a` to `U·Vᵀ` with `‖a − U·Vᵀ‖_F ≤ tau` — the crate's only
/// rank decision — or `None` ("stays dense") when that needs more than
/// `dense_above` columns.
///
/// 1. Householder QR with column pivoting (largest remaining column first)
///    stops at the first `k` where the trailing block's Frobenius norm
///    `tail_qr` is at most `tau/√2`. The trailing column norms are recomputed
///    exactly after each reflector, which costs as much as applying it and
///    needs no downdating guard. Once it has kept `dense_above` columns and
///    the tail still needs another, the answer is `None`, before any more of
///    the QR and the SVD run.
/// 2. The `k × n` factor `R` (columns un-permuted) goes through
///    [`jacobi_svd`], truncated within the remaining budget
///    `tau² − tail_qr²`.
///
/// The QR remainder lies outside the range of `Q_k` and the SVD remainder
/// inside it, so the two squared errors add: `‖a − U·Vᵀ‖_F² = tail_qr² +
/// tail_svd² ≤ tau²`. Both stop tests are written so that a NaN (or
/// negative) `tau` keeps full rank and `+∞` gives rank 0; a zero matrix is
/// rank 0 at any tolerance.
pub(crate) fn truncate(a: &DenseMatrix, tau: f64, dense_above: usize) -> Option<LowRankBlock> {
    let m = a.nrows();
    let n = a.ncols();
    // Signed square: a negative τ stays below every tail and a NaN τ
    // compares false with it, so neither ever satisfies a `<=` stop test
    // and both run to full rank.
    let budget2 = tau * tau.abs();
    let stop2 = 0.5 * budget2;
    let mut work = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut norms2: Vec<f64> = (0..n).map(|c| sum_sq(work.col(c))).collect();
    let mut tail2: f64 = norms2.iter().sum();
    if tail2 == 0.0 {
        return Some(LowRankBlock::zero(m, n));
    }
    let mut reflectors: Vec<(Vec<f64>, f64)> = Vec::new();
    while reflectors.len() < m.min(n) {
        if tail2 <= stop2 {
            break;
        }
        if reflectors.len() == dense_above {
            return None;
        }
        let j = reflectors.len();
        let p = (j + 1..n).fold(j, |best, c| if norms2[c] > norms2[best] { c } else { best });
        if p != j {
            let (cj, cp) = work.two_cols_mut(j, p);
            cj.swap_with_slice(cp);
            perm.swap(j, p);
            norms2.swap(j, p);
        }
        // H = I − β·v·vᵀ maps column j (rows j..m) to α·e₁.
        let x = &mut work.col_mut(j)[j..];
        let normx = sum_sq(x).sqrt();
        let alpha = if x[0] >= 0.0 { -normx } else { normx };
        let mut v = x.to_vec();
        v[0] -= alpha;
        let vnorm2 = sum_sq(&v);
        let beta = if vnorm2 > 0.0 { 2.0 / vnorm2 } else { 0.0 };
        x[0] = alpha;
        x[1..].fill(0.0);
        tail2 = 0.0;
        for c in j + 1..n {
            let y = &mut work.col_mut(c)[j..];
            apply_reflector(&v, beta, y);
            norms2[c] = sum_sq(&y[1..]);
            tail2 += norms2[c];
        }
        reflectors.push((v, beta));
    }
    let k = reflectors.len();
    if k == 0 {
        return Some(LowRankBlock::zero(m, n));
    }

    // R = rows 0..k of the reduced matrix, columns back in input order.
    let mut r = DenseMatrix::zeros(k, n);
    for (c, &orig) in perm.iter().enumerate() {
        r.col_mut(orig).copy_from_slice(&work.col(c)[..k]);
    }
    let svd = jacobi_svd(&r);
    let svd_budget2 = budget2 - tail2;
    let mut rank = svd.s.len();
    let mut svd_tail2 = 0.0;
    while rank > 0 && svd_tail2 + svd.s[rank - 1] * svd.s[rank - 1] <= svd_budget2 {
        svd_tail2 += svd.s[rank - 1] * svd.s[rank - 1];
        rank -= 1;
    }
    if rank == 0 {
        return Some(LowRankBlock::zero(m, n));
    }

    // U = Q_k·[U_R·diag(s); 0], applying the reflectors last to first.
    let mut u = DenseMatrix::zeros(m, rank);
    for c in 0..rank {
        let s = svd.s[c];
        for (dst, src) in u.col_mut(c).iter_mut().zip(svd.u.col(c)) {
            *dst = src * s;
        }
    }
    for (j, (v, beta)) in reflectors.iter().enumerate().rev() {
        for c in 0..rank {
            apply_reflector(v, *beta, &mut u.col_mut(c)[j..]);
        }
    }
    let v = DenseMatrix::from_fn(n, rank, |i, c| svd.vt.get(c, i));
    Some(LowRankBlock::new(u, v))
}

fn sum_sq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// `y ← (I − β·v·vᵀ)·y`.
fn apply_reflector(v: &[f64], beta: f64, y: &mut [f64]) {
    let f = beta * v.iter().zip(y.iter()).map(|(a, b)| a * b).sum::<f64>();
    if f != 0.0 {
        for (yi, vi) in y.iter_mut().zip(v) {
            *yi -= f * vi;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use task_runtime::run_map_once;
    use tile_la::max_abs_diff;

    fn smooth_kernel_tile(m: usize, n: usize, offset: usize) -> DenseMatrix {
        // A tile of a smooth covariance kernel evaluated away from the diagonal:
        // numerically low rank.
        DenseMatrix::from_fn(m, n, |i, j| {
            let d = (i as f64 - (j + offset) as f64).abs() / 40.0;
            (-d).exp()
        })
    }

    /// The split budget makes `‖tile − U·Vᵀ‖_F ≤ τ` exact up to rounding.
    pub(crate) fn within(tau: f64) -> f64 {
        tau * (1.0 + 1e-12) + 1e-14
    }

    /// Frobenius error of a low-rank approximation of `exact`.
    pub(crate) fn fro_error(lr: &LowRankBlock, exact: &DenseMatrix) -> f64 {
        let mut diff = lr.to_dense();
        diff.add_scaled(-1.0, exact);
        diff.frobenius_norm()
    }

    /// The SVD-optimal τ-rank: the fewest singular values whose discarded
    /// tail is at most `tau`.
    pub(crate) fn optimal_rank(exact: &DenseMatrix, tau: f64) -> usize {
        let s = jacobi_svd(exact).s;
        let tail2 = |r: usize| s[r..].iter().map(|x| x * x).sum::<f64>();
        (0..=s.len()).find(|&r| tail2(r) <= tau * tau).unwrap()
    }

    /// The `pmvn_tlr` benchmark's covariance: a 40 × 40 unit-square grid
    /// under an exponential kernel of range 0.1.
    fn grid_cov(i: usize, j: usize) -> f64 {
        let at = |k: usize| ((k % 40) as f64 / 39.0, (k / 40) as f64 / 39.0);
        let ((xi, yi), (xj, yj)) = (at(i), at(j));
        (-(xi - xj).hypot(yi - yj) / 0.1).exp()
    }

    pub(crate) fn grid_tile(ti: usize, tj: usize) -> DenseMatrix {
        DenseMatrix::from_fn(100, 100, |i, j| grid_cov(100 * ti + i, 100 * tj + j))
    }

    #[test]
    fn compression_error_respects_absolute_tolerance() {
        let tile = smooth_kernel_tile(40, 40, 60);
        for tol in [1e-1, 1e-3, 1e-6, 1e-9] {
            let lr = compress_dense(&tile, CompressionTol::Absolute(tol), usize::MAX);
            let err = fro_error(&lr, &tile);
            assert!(err <= within(tol), "tol {tol}: err {err}");
        }
    }

    #[test]
    fn tighter_tolerance_means_higher_rank() {
        let tile = smooth_kernel_tile(50, 50, 80);
        let r1 = compress_dense(&tile, CompressionTol::Absolute(1e-1), usize::MAX).rank();
        let r2 = compress_dense(&tile, CompressionTol::Absolute(1e-4), usize::MAX).rank();
        let r3 = compress_dense(&tile, CompressionTol::Absolute(1e-8), usize::MAX).rank();
        assert!(r1 <= r2 && r2 <= r3, "ranks {r1}, {r2}, {r3} not monotone");
        assert!(r3 < 50, "smooth tile should still be numerically low rank");
    }

    #[test]
    fn a_capped_compression_is_the_leading_columns_of_the_uncapped_one() {
        let tile = full_rank_tile(30, 24);
        let tol = CompressionTol::Absolute(1e-12);
        let full = compress_dense(&tile, tol, usize::MAX);
        let rank = full.rank();
        assert_eq!(rank, 24);
        for cap in [0, 5, rank, rank + 3] {
            let lr = compress_dense(&tile, tol, cap);
            let kept = cap.min(rank);
            assert_eq!(lr.rank(), kept, "cap {cap}");
            assert_eq!(lr.u, full.u.submatrix(0, 0, 30, kept), "U, cap {cap}");
            assert_eq!(lr.v, full.v.submatrix(0, 0, 24, kept), "V, cap {cap}");
        }
    }

    #[test]
    fn zero_tile_compresses_to_rank_zero() {
        let tile = DenseMatrix::zeros(20, 10);
        let lr = compress_dense(&tile, CompressionTol::Absolute(1e-3), usize::MAX);
        assert_eq!(lr.rank(), 0);
    }

    #[test]
    fn exact_low_rank_matrix_recovers_exact_rank() {
        // Rank-2 tile.
        let a = DenseMatrix::from_fn(20, 1, |i, _| (i as f64 * 0.1).sin());
        let b = DenseMatrix::from_fn(20, 1, |i, _| (i as f64 * 0.07).cos());
        let tile = {
            let mut t = a.matmul_nt(&a);
            t.add_scaled(1.0, &b.matmul_nt(&b));
            t
        };
        let lr = compress_dense(&tile, CompressionTol::Absolute(1e-10), usize::MAX);
        assert_eq!(lr.rank(), 2);
        assert!(max_abs_diff(&lr.to_dense(), &tile) < 1e-9);
    }

    #[test]
    fn loose_tolerance_on_tiny_tile_gives_rank_zero() {
        let tile = DenseMatrix::from_fn(10, 10, |_, _| 1e-8);
        let lr = compress_dense(&tile, CompressionTol::Absolute(1e-3), usize::MAX);
        assert_eq!(lr.rank(), 0);
    }

    /// A full-rank, well-conditioned tile: every column carries energy.
    fn full_rank_tile(m: usize, n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(m, n, |i, j| {
            if i == j {
                2.0
            } else {
                1.0 / (1.0 + i as f64 + j as f64)
            }
        })
    }

    #[test]
    fn nan_zero_and_negative_tolerances_keep_full_rank() {
        for (m, n) in [(12, 9), (9, 12)] {
            let tile = full_rank_tile(m, n);
            for t in [f64::NAN, 0.0, -1e-3] {
                let lr = compress_dense(&tile, CompressionTol::Absolute(t), usize::MAX);
                assert_eq!(lr.rank(), m.min(n), "{m}x{n}, τ = {t}");
                assert!(max_abs_diff(&lr.to_dense(), &tile) < 1e-12, "τ = {t}");
            }
        }
    }

    #[test]
    fn infinite_tolerance_gives_rank_zero() {
        let tile = full_rank_tile(12, 9);
        let tol = CompressionTol::Absolute(f64::INFINITY);
        assert_eq!(compress_dense(&tile, tol, usize::MAX).rank(), 0);
    }

    #[test]
    fn zero_tile_is_rank_zero_at_every_tolerance() {
        let tile = DenseMatrix::zeros(8, 6);
        for t in [f64::NAN, 0.0, -1.0, 1e-3, f64::INFINITY] {
            let tol = CompressionTol::Absolute(t);
            assert_eq!(compress_dense(&tile, tol, usize::MAX).rank(), 0, "τ = {t}");
        }
    }

    #[test]
    fn break_even_rank_is_a_fifth_of_a_square_tile_and_below_the_storage_bound() {
        assert_eq!(break_even_rank(100, 100), 19);
        assert_eq!(break_even_rank(16, 16), 3);
        for (m, n) in [
            (1, 1),
            (2, 1),
            (7, 16),
            (16, 7),
            (50, 100),
            (100, 100),
            (400, 400),
        ] {
            let r = break_even_rank(m, n);
            assert!(r <= m * n / (m + n), "{m}x{n}: {r}");
            assert!(r >= (m.min(n) / 6).saturating_sub(1), "{m}x{n}: {r}");
        }
        assert_eq!(break_even_rank(1, 1), 0);
        assert_eq!(break_even_rank(0, 5), 0);
    }

    #[test]
    fn a_ragged_tile_breaks_even_no_later_than_a_full_one() {
        // A rank bound chosen for a full `nb × nb` tile also bounds every
        // ragged tile of the same tiling: `break_even_rank(m, n)` is at most
        // `break_even_rank(nb, nb)` for all `m, n ≤ nb ≤ 128`.
        const NB: usize = 128;
        let square: Vec<usize> = (0..=NB).map(|nb| break_even_rank(nb, nb)).collect();
        // The smallest full-tile bound over `nb ≥ k`, for each `k`.
        let mut least = square.clone();
        for k in (0..NB).rev() {
            least[k] = least[k].min(least[k + 1]);
        }
        for m in 0..=NB {
            for n in 0..=NB {
                let r = break_even_rank(m, n);
                assert!(r <= least[m.max(n)], "{m}x{n}: {r} > {}", least[m.max(n)]);
            }
        }
    }

    #[test]
    fn compress_tile_keeps_a_tile_dense_past_its_break_even_rank() {
        // A full-rank tile comes back dense, bit for bit the input; a smooth
        // one comes back as `compress_dense`'s factors.
        let full = full_rank_tile(20, 20);
        match compress_tile(full.clone(), CompressionTol::Absolute(1e-3)) {
            Tile::Dense(d) => assert_eq!(d, full),
            Tile::LowRank(b) => panic!("full-rank tile kept at rank {}", b.rank()),
        }
        let tile = smooth_kernel_tile(40, 40, 60);
        let tol = CompressionTol::Absolute(1e-3);
        let want = compress_dense(&tile, tol, usize::MAX);
        match compress_tile(tile, tol) {
            Tile::LowRank(b) => assert!(b.u == want.u && b.v == want.v),
            Tile::Dense(_) => panic!("a smooth tile went dense"),
        }
        // Zero and infinitely tolerated tiles are rank 0 whatever the bound.
        for (tile, t) in [(DenseMatrix::zeros(8, 8), 1e-3), (full, f64::INFINITY)] {
            let tol = CompressionTol::Absolute(t);
            assert!(matches!(compress_tile(tile, tol), Tile::LowRank(b) if b.rank() == 0));
        }
    }

    #[test]
    fn benchmark_tiles_meet_the_tolerance_at_near_optimal_rank() {
        // Every off-diagonal tile of the n = 1,600, nb = 100 covariance: a
        // tile is dense exactly when the rank it needs passes the break-even
        // rank, and every low-rank tile meets τ at near-optimal rank. The
        // pivoted QR decides the format where it stops, at τ/√2, and keeps
        // up to 2 columns more than the optimal τ/√2-rank there; so a dense
        // tile's optimal τ/√2-rank is within 2 of the bound, and a low-rank
        // tile's optimal τ-rank is at most the bound.
        const TAU: f64 = 1e-3;
        let bound = break_even_rank(100, 100);
        let tiles: Vec<(usize, usize)> =
            (1..16).flat_map(|i| (0..i).map(move |j| (i, j))).collect();
        // Per tile: stored doubles if low-rank, those of its optimal rank,
        // and whether it is dense.
        let stored = run_map_once("compress-check", &tiles, |_, &(ti, tj)| {
            let tile = grid_tile(ti, tj);
            let best = optimal_rank(&tile, TAU);
            let at_qr_stop = optimal_rank(&tile, TAU / 2f64.sqrt());
            match compress_tile(tile.clone(), CompressionTol::Absolute(TAU)) {
                Tile::Dense(d) => {
                    assert!(
                        at_qr_stop + 2 > bound,
                        "({ti},{tj}): dense at optimal τ/√2-rank {at_qr_stop}"
                    );
                    assert_eq!(d, tile);
                    (0, 0, 1)
                }
                Tile::LowRank(lr) => {
                    assert!(
                        best <= bound,
                        "({ti},{tj}): low-rank at optimal rank {best}"
                    );
                    let err = fro_error(&lr, &tile);
                    assert!(err <= within(TAU), "({ti},{tj}): err {err} > {TAU}");
                    assert!(
                        lr.rank() <= best + 2,
                        "({ti},{tj}): rank {} vs optimal {best}",
                        lr.rank()
                    );
                    (lr.stored_elements(), 200 * best, 0)
                }
            }
        });
        // The low-rank tiles together store within 1 % of their optimal
        // ranks' factors.
        let got: usize = stored.iter().map(|s| s.0).sum();
        let best: usize = stored.iter().map(|s| s.1).sum();
        let dense: usize = stored.iter().map(|s| s.2).sum();
        assert!(
            got as f64 <= 1.01 * best as f64,
            "stored {got} elements vs optimal {best}"
        );
        // Both formats occur: tiles of neighbouring grid rows need more than
        // the break-even rank, far ones much less.
        assert!(dense > 0 && dense < tiles.len(), "{dense} dense tiles");
    }
}
