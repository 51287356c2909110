//! The tiled Cholesky factorization of a [`TlrMatrix`] (the HiCMA `POTRF`
//! on a TLR matrix, Chameleon's on a dense one): the one Cholesky driver of
//! the workspace.
//!
//! One task structure ([`cholesky_plan`](tile_la::dag::cholesky_plan)) for
//! both formats; on a dense matrix every step is the dense kernel, and on a
//! TLR matrix the panel and update kernels act on each tile in its own
//! format (all in one step body, [`tlr_step`]); a step on dense tiles only
//! is the dense kernel:
//!
//! * `POTRF` — dense, on the (dense) diagonal tiles,
//! * `TRSM`  — only the `V` factor of each low-rank panel tile is solved,
//! * `SYRK`  — diagonal update from a low-rank tile (`lr_aa_t_update`),
//! * `GEMM`  — an update with recompression into a low-rank tile, which
//!   turns dense once its rank passes the break-even rank, or a dense
//!   accumulation into a dense one (`tile_gemm_update`).

use crate::dag::tlr_step;
use crate::tlr_matrix::TlrMatrix;
use task_runtime::{HandleRegistry, TileStore, WorkerPool};
use tile_la::dag::{register_tile_handles, submit_steps};
use tile_la::{CholeskyError, FactorStatus};

/// In-place tiled Cholesky factorization on `pool`.
///
/// On success the diagonal tiles hold the dense `L_kk` factors and the
/// off-diagonal tiles hold `L_ik` in their own format (for a dense matrix,
/// the bits of the sequential plan walk through
/// [`dense_step`](tile_la::dag::dense_step)). A non-positive pivot — the matrix
/// is not SPD, or a TLR compression tolerance too loose for it to stay
/// numerically SPD — is [`CholeskyError::NotPositiveDefinite`] at its global
/// index. The tasks stream through [`WorkerPool::execute`]; the factor is
/// bitwise identical for every worker count.
pub fn potrf_tlr(a: &mut TlrMatrix, pool: &WorkerPool) -> Result<(), CholeskyError> {
    let (layout, compression) = (a.layout(), a.compression());
    // One handle per lower tile, in the matrix's storage order.
    let handles = register_tile_handles(&mut HandleRegistry::new(), layout);
    // The formats the tiles start in: what labels a trailing update.
    let low_rank: Vec<Vec<bool>> = (0..layout.num_tiles())
        .map(|i| (0..=i).map(|j| a.tile(i, j).is_low_rank()).collect())
        .collect();
    let mut store = TileStore::new();
    for (&h, tile) in handles.iter().flatten().zip(a.take_tiles()) {
        store.insert(h, tile);
    }
    let status = FactorStatus::new();
    pool.execute(|sink| {
        submit_steps(
            sink,
            &store,
            &handles,
            layout,
            &status,
            &low_rank,
            move |step, out, reads| tlr_step(step, out, reads, layout, compression),
        )
    });
    a.put_tiles(handles.iter().flatten().map(|&h| store.take(h)).collect());
    match status.pivot() {
        Some(pivot) => Err(CholeskyError::NotPositiveDefinite(pivot)),
        None => Ok(()),
    }
}

/// Log-determinant `2·Σ log L_ii` of `Σ` from its tiled Cholesky factor.
pub fn log_det_from_tlr_factor(l: &TlrMatrix) -> f64 {
    let mut s = 0.0;
    for t in 0..l.num_tiles() {
        let d = l.diag_tile(t);
        for i in 0..d.nrows() {
            s += d.get(i, i).ln();
        }
    }
    2.0 * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressionTol;
    use crate::dag::Tile;
    use tile_la::kernels::potrf_in_place;
    use tile_la::{max_abs_diff, DenseMatrix};

    /// Compression at absolute tolerance `tol`.
    fn absolute(tol: f64) -> Option<CompressionTol> {
        Some(CompressionTol::Absolute(tol))
    }

    fn kernel(range: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 60.0;
            (-d / range).exp() + if i == j { 1e-6 } else { 0.0 }
        }
    }

    fn spd_kernel(range: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / range).exp() + if i == j { 1e-3 } else { 0.0 }
        }
    }

    fn factored(mut a: TlrMatrix, pool: &WorkerPool) -> Result<TlrMatrix, CholeskyError> {
        potrf_tlr(&mut a, pool).map(|()| a)
    }

    /// The dense tiled factor of `f`: its assembled tiles moved into a
    /// [`TlrMatrix`] and factored on `pool`.
    fn dense_factor(
        n: usize,
        nb: usize,
        f: impl Fn(usize, usize) -> f64 + Sync,
        pool: &WorkerPool,
    ) -> Result<TlrMatrix, CholeskyError> {
        factored(TlrMatrix::assemble(n, nb, None, f), pool)
    }

    /// The unblocked dense Cholesky factor of `f`.
    fn unblocked(n: usize, f: impl Fn(usize, usize) -> f64) -> DenseMatrix {
        let mut l = DenseMatrix::from_fn(n, n, f);
        potrf_in_place(&mut l).unwrap();
        l
    }

    fn diagonal(d: impl Fn(usize) -> f64 + Sync) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| if i == j { d(i) } else { 0.0 }
    }

    /// The identity, except for a negative pivot at 13 (in tile 2 at nb = 6).
    fn indefinite_at_13() -> impl Fn(usize, usize) -> f64 + Sync {
        diagonal(|i| if i == 13 { -1.0 } else { 1.0 })
    }

    #[test]
    fn tiled_factor_matches_dense_reference() {
        let n = 45;
        let f = spd_kernel(7.0);
        let want = unblocked(n, &f);
        for nb in [5, 8, 16, 45, 64] {
            let l = dense_factor(n, nb, &f, &WorkerPool::new(1)).unwrap();
            assert!(
                max_abs_diff(&l.to_dense_lower(), &want) < 1e-10,
                "tile size {nb} disagrees with dense reference"
            );
        }
    }

    #[test]
    fn factor_of_identity_is_identity() {
        let l = dense_factor(20, 6, diagonal(|_| 1.0), &WorkerPool::new(1)).unwrap();
        assert!(max_abs_diff(&l.to_dense_lower(), &DenseMatrix::identity(20)) < 1e-14);
    }

    #[test]
    fn reconstruction_error_is_small_for_larger_problem() {
        let n = 150;
        let f = spd_kernel(15.0);
        let l = dense_factor(n, 32, &f, &WorkerPool::new(1))
            .unwrap()
            .to_dense_lower();
        let orig = DenseMatrix::from_fn(n, n, &f);
        assert!(max_abs_diff(&l.matmul_nt(&l), &orig) < 1e-9);
    }

    #[test]
    fn not_positive_definite_reports_global_pivot() {
        let err = dense_factor(20, 6, indefinite_at_13(), &WorkerPool::new(1)).unwrap_err();
        assert_eq!(err, CholeskyError::NotPositiveDefinite(13));
        assert!(err.to_string().contains("positive definite"));
    }

    #[test]
    fn log_det_matches_sum_of_log_eigen_for_diagonal_matrix() {
        let n = 12;
        let l = dense_factor(n, 5, diagonal(|i| (i + 1) as f64), &WorkerPool::new(1)).unwrap();
        let want: f64 = (1..=n).map(|i| (i as f64).ln()).sum();
        assert!((log_det_from_tlr_factor(&l) - want).abs() < 1e-12);
    }

    #[test]
    fn one_pool_factors_many_matrices_and_reports_pivot_failures() {
        let pool = WorkerPool::new(4);
        for range in [3.0, 8.0, 20.0] {
            let f = spd_kernel(range);
            let l = dense_factor(60, 16, &f, &pool).unwrap().to_dense_lower();
            let orig = DenseMatrix::from_fn(60, 60, &f);
            assert!(
                max_abs_diff(&l.matmul_nt(&l), &orig) < 1e-10,
                "range={range}"
            );
        }
        let err = dense_factor(20, 6, indefinite_at_13(), &pool).unwrap_err();
        assert_eq!(err, CholeskyError::NotPositiveDefinite(13));
        assert_eq!(pool.stats().graphs_run, 4);
    }

    #[test]
    fn tlr_factor_matches_dense_factor_at_tight_tolerance() {
        let n = 96;
        let nb = 24;
        let f = kernel(0.5);
        let tlr = TlrMatrix::assemble(n, nb, absolute(1e-10), &f);
        let tlr = factored(tlr, &WorkerPool::new(1)).unwrap();
        let dense = dense_factor(n, nb, &f, &WorkerPool::new(1)).unwrap();
        assert!(max_abs_diff(&tlr.to_dense_lower(), &dense.to_dense_lower()) < 1e-6);
    }

    #[test]
    fn reconstruction_error_scales_with_tolerance() {
        let n = 80;
        let nb = 20;
        let f = kernel(0.8);
        let orig = DenseMatrix::from_fn(n, n, &f);
        let mut previous_err = f64::INFINITY;
        for tol in [1e-2, 1e-5, 1e-9] {
            let mut tlr = TlrMatrix::assemble(n, nb, absolute(tol), &f);
            potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
            let l = tlr.to_dense_lower();
            let rec = l.matmul_nt(&l);
            let mut diff = rec.clone();
            diff.add_scaled(-1.0, &orig);
            let err = diff.frobenius_norm();
            assert!(
                err < previous_err * 1.5 + 1e-12,
                "error did not improve with tighter tolerance: {err} vs {previous_err}"
            );
            assert!(
                err < tol * 100.0 + 1e-10,
                "tol {tol}: reconstruction error {err}"
            );
            previous_err = err;
        }
    }

    #[test]
    fn factor_bits_do_not_depend_on_worker_count() {
        // 1/2/4/8 workers: identical factors to the bit, dense and TLR; the
        // dense one within 1e-10 of the unblocked reference.
        let n = 75;
        let f = spd_kernel(11.0);
        let dense = TlrMatrix::assemble(n, 16, None, &f);
        let g = kernel(0.5);
        let tlr = TlrMatrix::assemble(96, 24, absolute(1e-8), &g);
        let bits = |l: TlrMatrix| -> Vec<u64> {
            let d = l.to_dense_lower();
            d.data().iter().map(|x| x.to_bits()).collect()
        };
        let reference = factored(dense.clone(), &WorkerPool::new(1)).unwrap();
        assert!(max_abs_diff(&reference.to_dense_lower(), &unblocked(n, &f)) < 1e-10);
        // 5 tile rows: 5 potrf + 10 trsm + 10 syrk + 10 gemm; 4 tile rows:
        // 4 + 6 + 6 + 4.
        for (base, tasks) in [(dense, 35), (tlr, 20)] {
            let want = bits(factored(base.clone(), &WorkerPool::new(1)).unwrap());
            for workers in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let got = bits(factored(base.clone(), &pool).unwrap());
                assert!(got == want, "n={} workers={workers}", base.n());
                assert_eq!(pool.stats().tasks_run, tasks);
            }
        }
    }

    #[test]
    fn no_low_rank_tile_passes_its_break_even_rank() {
        // The invariant that leaves τ as TLR's only setting: after assembly
        // and after the factorization, a low-rank tile's rank is at most its
        // break-even rank, so no rank cap at or above that bound can bind.
        // On the mixed-format matrix, and on an exponential covariance (range
        // 0.3) over a 50 × 8 strip of a grid of spacing 1/7, ordered across
        // the strip so that a tile is a compact patch, at three tile sizes
        // (400 = 12·32 + 16 is ragged). Every case keeps tiles low-rank.
        let within_bound = |a: &TlrMatrix, what: &str| {
            let layout = a.layout();
            for i in 0..a.num_tiles() {
                for j in 0..i {
                    if let Tile::LowRank(b) = a.tile(i, j) {
                        let (m, n) = (layout.tile_size(i), layout.tile_size(j));
                        let bound = crate::compress::break_even_rank(m, n);
                        assert!(b.rank() <= bound, "{what} ({i},{j}): {}", b.rank());
                    }
                }
            }
        };
        let grid = |i: usize, j: usize| {
            let at = |k: usize| ((k / 8) as f64 / 7.0, (k % 8) as f64 / 7.0);
            let ((xi, yi), (xj, yj)) = (at(i), at(j));
            (-(xi - xj).hypot(yi - yj) / 0.3).exp()
        };
        let pool = WorkerPool::new(2);
        for tol in [1e-3, 1e-6] {
            let mut cases = vec![(
                "mixed".to_string(),
                TlrMatrix::assemble(60, 12, absolute(tol), crate::dag::tests::mixed_formats),
            )];
            for nb in [16, 32, 100] {
                let a = TlrMatrix::assemble(400, nb, absolute(tol), grid);
                cases.push((format!("grid nb={nb}"), a));
            }
            for (name, a) in cases {
                let what = format!("{name} τ={tol}");
                assert!(
                    (0..a.num_tiles()).any(|i| (0..i).any(|j| a.tile(i, j).is_low_rank())),
                    "{what}: no low-rank tile"
                );
                within_bound(&a, &format!("{what}, assembled"));
                let l = factored(a, &pool).unwrap();
                within_bound(&l, &format!("{what}, factored"));
            }
        }
    }

    #[test]
    fn forward_solve_with_tlr_factor() {
        let n = 72;
        let tlr = TlrMatrix::assemble(n, 18, absolute(1e-10), kernel(0.5));
        let l = factored(tlr, &WorkerPool::new(1)).unwrap();
        let b0 = DenseMatrix::from_fn(n, 3, |i, j| ((i + j) as f64 * 0.37).sin());
        let mut x = b0.clone();
        l.solve_lower_panel(&mut x);
        let rec = l.to_dense_lower().matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-6);
    }

    #[test]
    fn forward_solve_matches_direct_reconstruction() {
        // A dense factor on a ragged layout (33 = 4·8 + 1).
        let l = dense_factor(33, 8, spd_kernel(6.0), &WorkerPool::new(1)).unwrap();
        let b0 = DenseMatrix::from_fn(33, 4, |i, j| ((i * 3 + j) as f64 * 0.23).cos());
        let mut x = b0.clone();
        l.solve_lower_panel(&mut x);
        let rec = l.to_dense_lower().matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-9);
    }

    #[test]
    fn multiply_lower_panel_uses_factor_consistently() {
        let n = 60;
        let tlr = TlrMatrix::assemble(n, 15, absolute(1e-10), kernel(0.4));
        let l = factored(tlr, &WorkerPool::new(1)).unwrap();
        let z = DenseMatrix::from_fn(n, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.11).cos());
        let want = l.to_dense_lower().matmul(&z);
        assert!(max_abs_diff(&l.multiply_lower_panel(&z), &want) < 1e-8);
    }

    #[test]
    fn multiply_lower_matches_dense_product() {
        // A dense factor on a ragged layout (29 = 3·9 + 2).
        let l = dense_factor(29, 9, spd_kernel(6.0), &WorkerPool::new(1)).unwrap();
        let z = DenseMatrix::from_fn(29, 5, |i, j| ((i * 7 + j * 3) as f64 * 0.11).cos());
        let want = l.to_dense_lower().matmul(&z);
        assert!(max_abs_diff(&l.multiply_lower_panel(&z), &want) < 1e-11);
    }

    #[test]
    fn multiply_then_solve_is_identity() {
        let l = dense_factor(24, 5, spd_kernel(6.0), &WorkerPool::new(1)).unwrap();
        let z = DenseMatrix::from_fn(24, 3, |i, j| ((i * 5 + j) as f64 * 0.29).sin());
        let mut y = l.multiply_lower_panel(&z);
        l.solve_lower_panel(&mut y);
        assert!(max_abs_diff(&y, &z) < 1e-9);
    }

    #[test]
    #[should_panic]
    fn mismatched_panel_rows_panic() {
        let l = dense_factor(16, 4, spd_kernel(6.0), &WorkerPool::new(1)).unwrap();
        l.solve_lower_panel(&mut DenseMatrix::zeros(10, 2));
    }

    #[test]
    fn log_det_matches_dense_factor() {
        let n = 64;
        let f = kernel(0.7);
        let mut tlr = TlrMatrix::assemble(n, 16, absolute(1e-10), &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let l = unblocked(n, &f);
        let want = 2.0 * (0..n).map(|i| l.get(i, i).ln()).sum::<f64>();
        assert!((log_det_from_tlr_factor(&tlr) - want).abs() < 1e-6);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let f = |i: usize, j: usize| if i == j { -1.0 } else { 0.0 };
        for pool in [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)] {
            let mut tlr = TlrMatrix::assemble(30, 10, absolute(1e-6), f);
            let err = potrf_tlr(&mut tlr, &pool).unwrap_err();
            assert_eq!(err, CholeskyError::NotPositiveDefinite(0));
            assert!(err.to_string().contains("not positive definite"));
        }
    }
}
