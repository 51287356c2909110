//! The tiled Cholesky factorization of a [`TlrMatrix`] (the HiCMA `POTRF`
//! on a TLR matrix, Chameleon's on a dense one).
//!
//! Identical task structure to the dense tiled Cholesky; on a dense matrix
//! every step is the dense kernel, and on a TLR matrix the panel and update
//! kernels act on compressed tiles (all in one step body,
//! [`tlr_step`]):
//!
//! * `POTRF` — dense, on the (dense) diagonal tiles,
//! * `TRSM`  — only the `V` factor of each low-rank panel tile is solved,
//! * `SYRK`  — diagonal update from a low-rank tile (`lr_aa_t_update`),
//! * `GEMM`  — low-rank × low-rank update with recompression
//!   (`lr_lr_t_update`).

use crate::dag::tlr_step;
use crate::tlr_matrix::TlrMatrix;
use task_runtime::{HandleRegistry, TileStore, WorkerPool};
use tile_la::dag::{register_tile_handles, submit_steps};
use tile_la::{CholeskyError, FactorStatus};

/// In-place tiled Cholesky factorization on `pool`.
///
/// On success the diagonal tiles hold the dense `L_kk` factors and the
/// off-diagonal tiles hold `L_ik` in their own format (for a dense matrix,
/// the bits of [`tile_la::potrf_tiled`]). A non-positive pivot — the matrix
/// is not SPD, or a TLR compression tolerance too loose for it to stay
/// numerically SPD — is [`CholeskyError::NotPositiveDefinite`] at its global
/// index. The tasks stream through [`WorkerPool::execute`]; the factor is
/// bitwise identical for every worker count.
pub fn potrf_tlr(a: &mut TlrMatrix, pool: &WorkerPool) -> Result<(), CholeskyError> {
    let (layout, compression) = (a.layout(), a.compression());
    // One handle per lower tile, in the matrix's storage order.
    let handles = register_tile_handles(&mut HandleRegistry::new(), layout);
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
            compression.is_some(),
            move |step, out, reads| tlr_step(step, out, reads, layout, compression),
        )
    });
    a.put_tiles(handles.iter().flatten().map(|&h| store.take(h)).collect());
    match status.pivot() {
        Some(pivot) => Err(CholeskyError::NotPositiveDefinite(pivot)),
        None => Ok(()),
    }
}

/// Log-determinant from a tiled Cholesky factor.
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
    use tile_la::{max_abs_diff, potrf_tiled, SymTileMatrix};

    fn kernel(range: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 60.0;
            (-d / range).exp() + if i == j { 1e-6 } else { 0.0 }
        }
    }

    #[test]
    fn tlr_factor_matches_dense_factor_at_tight_tolerance() {
        let n = 96;
        let nb = 24;
        let f = kernel(0.5);
        let mut tlr = TlrMatrix::from_fn(n, nb, CompressionTol::Absolute(1e-10), usize::MAX, &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();

        let mut dense = SymTileMatrix::from_fn(n, nb, &f);
        potrf_tiled(&mut dense, &WorkerPool::new(1)).unwrap();

        assert!(max_abs_diff(&tlr.to_dense_lower(), &dense.to_dense_lower()) < 1e-6);
    }

    #[test]
    fn reconstruction_error_scales_with_tolerance() {
        let n = 80;
        let nb = 20;
        let f = kernel(0.8);
        let orig = tile_la::DenseMatrix::from_fn(n, n, &f);
        let mut previous_err = f64::INFINITY;
        for tol in [1e-2, 1e-5, 1e-9] {
            let mut tlr = TlrMatrix::from_fn(n, nb, CompressionTol::Absolute(tol), usize::MAX, &f);
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
        // 1/2/4/8 workers: identical factors to the bit.
        let n = 96;
        let f = kernel(0.5);
        let base = TlrMatrix::from_fn(n, 24, CompressionTol::Absolute(1e-8), usize::MAX, &f);
        let mut reference = base.clone();
        potrf_tlr(&mut reference, &WorkerPool::new(1)).unwrap();
        let want = reference.to_dense_lower();
        for workers in [1usize, 2, 4, 8] {
            let mut a = base.clone();
            potrf_tlr(&mut a, &WorkerPool::new(workers)).unwrap();
            assert!(
                max_abs_diff(&a.to_dense_lower(), &want) == 0.0,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn rank_capped_factor_is_deterministic_across_worker_counts() {
        let f = kernel(0.7);
        let base = TlrMatrix::from_fn(80, 20, CompressionTol::Absolute(1e-6), 10, &f);
        let mut reference = base.clone();
        potrf_tlr(&mut reference, &WorkerPool::new(1)).unwrap();
        for workers in [2usize, 8] {
            let mut a = base.clone();
            potrf_tlr(&mut a, &WorkerPool::new(workers)).unwrap();
            assert!(max_abs_diff(&a.to_dense_lower(), &reference.to_dense_lower()) == 0.0);
        }
    }

    #[test]
    fn forward_solve_with_tlr_factor() {
        let n = 72;
        let f = kernel(0.5);
        let mut tlr = TlrMatrix::from_fn(n, 18, CompressionTol::Absolute(1e-10), usize::MAX, &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let b0 = tile_la::DenseMatrix::from_fn(n, 3, |i, j| ((i + j) as f64 * 0.37).sin());
        let mut x = b0.clone();
        tlr.solve_lower_panel(&mut x);
        let l = tlr.to_dense_lower();
        let rec = l.matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-6);
    }

    #[test]
    fn multiply_lower_panel_uses_factor_consistently() {
        let n = 60;
        let f = kernel(0.4);
        let mut tlr = TlrMatrix::from_fn(n, 15, CompressionTol::Absolute(1e-10), usize::MAX, &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let z = tile_la::DenseMatrix::from_fn(n, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.11).cos());
        let y = tlr.multiply_lower_panel(&z);
        let l = tlr.to_dense_lower();
        let want = l.matmul(&z);
        assert!(max_abs_diff(&y, &want) < 1e-8);
    }

    #[test]
    fn log_det_matches_dense_factor() {
        let n = 64;
        let f = kernel(0.7);
        let mut tlr = TlrMatrix::from_fn(n, 16, CompressionTol::Absolute(1e-10), usize::MAX, &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let mut dense = SymTileMatrix::from_fn(n, 16, &f);
        potrf_tiled(&mut dense, &WorkerPool::new(1)).unwrap();
        let want = tile_la::cholesky::log_det_from_factor(&dense);
        assert!((log_det_from_tlr_factor(&tlr) - want).abs() < 1e-6);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let f = |i: usize, j: usize| if i == j { -1.0 } else { 0.0 };
        for pool in [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(4)] {
            let mut tlr = TlrMatrix::from_fn(30, 10, CompressionTol::Absolute(1e-6), usize::MAX, f);
            let err = potrf_tlr(&mut tlr, &pool).unwrap_err();
            assert_eq!(err, CholeskyError::NotPositiveDefinite(0));
            assert!(err.to_string().contains("not positive definite"));
        }
    }
}
