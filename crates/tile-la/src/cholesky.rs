//! Parallel tiled Cholesky factorization (the paper's step (a)).
//!
//! The right-looking tiled algorithm factors the symmetric tile matrix in
//! place: for every panel `k` it runs `POTRF` on the diagonal tile, `TRSM`s the
//! tiles below it, and then applies the trailing `SYRK`/`GEMM` updates.
//!
//! [`potrf_tiled`] submits that task structure ([`crate::dag`]) to a
//! [`WorkerPool`], matching the paper's StarPU task graph: no barrier between
//! panels. The tests cross-check it against the unblocked
//! [`potrf_in_place`](crate::kernels::potrf_in_place) on the dense matrix.

use crate::dag::{dense_step, register_tile_handles, submit_steps, FactorStatus};
use crate::sym_tile::SymTileMatrix;
use task_runtime::{HandleRegistry, TileStore, WorkerPool};

/// Failure modes of the tiled Cholesky factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not (numerically) positive definite; the payload is the
    /// global index of the failing pivot.
    NotPositiveDefinite(usize),
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// In-place parallel tiled Cholesky factorization `Σ = L·Lᵀ` on `pool`.
///
/// On success the lower tiles of `a` hold `L`. The tasks stream through
/// [`WorkerPool::execute`]; the factor is bitwise identical for every worker
/// count. A one-worker pool (`WorkerPool::new(1)`) spawns no thread and
/// factors inline.
pub fn potrf_tiled(a: &mut SymTileMatrix, pool: &WorkerPool) -> Result<(), CholeskyError> {
    let layout = a.layout();
    // One handle per lower tile, so tasks can access tiles concurrently.
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
            false,
            |step, out, reads| dense_step(step, out, reads, layout),
        )
    });
    a.put_tiles(handles.iter().flatten().map(|&h| store.take(h)).collect());
    match status.pivot() {
        Some(p) => Err(CholeskyError::NotPositiveDefinite(p)),
        None => Ok(()),
    }
}

/// Log-determinant of `Σ` from its Cholesky factor: `2·Σ log L_ii`.
pub fn log_det_from_factor(l: &SymTileMatrix) -> f64 {
    2.0 * l.diagonal().iter().map(|d| d.ln()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::kernels::potrf_in_place;
    use crate::norms::max_abs_diff;

    fn spd_kernel(range: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / range).exp() + if i == j { 1e-3 } else { 0.0 }
        }
    }

    #[test]
    fn tiled_factor_matches_dense_reference() {
        let n = 45;
        let f = spd_kernel(7.0);
        // Dense reference.
        let mut dense = DenseMatrix::from_fn(n, n, &f);
        potrf_in_place(&mut dense).unwrap();
        // Tiled.
        for nb in [5, 8, 16, 45, 64] {
            let mut tiled = SymTileMatrix::from_fn(n, nb, &f);
            potrf_tiled(&mut tiled, &WorkerPool::new(1)).unwrap();
            let l = tiled.to_dense_lower();
            assert!(
                max_abs_diff(&l, &dense) < 1e-10,
                "tile size {nb} disagrees with dense reference"
            );
        }
    }

    #[test]
    fn factor_of_identity_is_identity() {
        let n = 20;
        let mut a = SymTileMatrix::from_fn(n, 6, |i, j| if i == j { 1.0 } else { 0.0 });
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let l = a.to_dense_lower();
        assert!(max_abs_diff(&l, &DenseMatrix::identity(n)) < 1e-14);
    }

    #[test]
    fn reconstruction_error_is_small_for_larger_problem() {
        let n = 150;
        let f = spd_kernel(15.0);
        let mut a = SymTileMatrix::from_fn(n, 32, &f);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let l = a.to_dense_lower();
        let rec = l.matmul_nt(&l);
        let orig = DenseMatrix::from_fn(n, n, &f);
        assert!(max_abs_diff(&rec, &orig) < 1e-9);
    }

    #[test]
    fn not_positive_definite_reports_global_pivot() {
        // Make the matrix indefinite by a large negative diagonal entry late on.
        let n = 20;
        let mut a = SymTileMatrix::from_fn(n, 6, |i, j| if i == j { 1.0 } else { 0.0 });
        a.set(13, 13, -1.0);
        let err = potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap_err();
        assert_eq!(err, CholeskyError::NotPositiveDefinite(13));
        assert!(err.to_string().contains("positive definite"));
    }

    #[test]
    fn log_det_matches_sum_of_log_eigen_for_diagonal_matrix() {
        let n = 12;
        let mut a = SymTileMatrix::from_fn(n, 5, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let want: f64 = (1..=n).map(|i| (i as f64).ln()).sum();
        assert!((log_det_from_factor(&a) - want).abs() < 1e-12);
    }

    #[test]
    fn factor_bits_do_not_depend_on_worker_count() {
        // 1/2/4/8 workers: identical tiles to the bit, within 1e-10 of the
        // unblocked reference.
        let n = 75;
        let f = spd_kernel(11.0);
        let mut dense = DenseMatrix::from_fn(n, n, &f);
        potrf_in_place(&mut dense).unwrap();
        let mut reference = SymTileMatrix::from_fn(n, 16, &f);
        potrf_tiled(&mut reference, &WorkerPool::new(1)).unwrap();
        let want = reference.to_dense_lower();
        assert!(max_abs_diff(&want, &dense) < 1e-10);
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut a = SymTileMatrix::from_fn(n, 16, &f);
            potrf_tiled(&mut a, &pool).unwrap();
            let got = a.to_dense_lower();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        got.get(i, j).to_bits() == want.get(i, j).to_bits(),
                        "workers={workers}: ({i},{j}) differs"
                    );
                }
            }
            // 5 tile rows: 5 potrf + 10 trsm + 10 syrk + 10 gemm.
            assert_eq!(pool.stats().tasks_run, 35);
        }
    }

    #[test]
    fn one_pool_factors_many_matrices_and_reports_pivot_failures() {
        let pool = WorkerPool::new(4);
        for range in [3.0, 8.0, 20.0] {
            let f = spd_kernel(range);
            let mut a = SymTileMatrix::from_fn(60, 16, &f);
            potrf_tiled(&mut a, &pool).unwrap();
            let l = a.to_dense_lower();
            let orig = DenseMatrix::from_fn(60, 60, &f);
            assert!(
                max_abs_diff(&l.matmul_nt(&l), &orig) < 1e-10,
                "range={range}"
            );
        }
        let mut bad = SymTileMatrix::from_fn(20, 6, |i, j| if i == j { 1.0 } else { 0.0 });
        bad.set(13, 13, -1.0);
        let err = potrf_tiled(&mut bad, &pool).unwrap_err();
        assert_eq!(err, CholeskyError::NotPositiveDefinite(13));
        assert_eq!(pool.stats().graphs_run, 4);
    }
}
