//! Building the standardized correlation factor consumed by the MVN integrals.
//!
//! Algorithm 1 standardizes the integration limits by `√Σᵢᵢ` (line 13); the
//! equivalent formulation used here evaluates the MVN probability under the
//! correlation matrix `R = D^{-1/2} Σ D^{-1/2}` with standardized limits, which
//! keeps all diagonal tiles well scaled. The factor is one tiled factor,
//! held dense or in TLR-compressed form — exactly the paper's two execution
//! modes.

use mvn_core::MvnEngine;
use std::sync::Mutex;
use task_runtime::WorkerPool;
use tile_la::kernels::gemm_nt;
use tile_la::{DenseMatrix, SymTileMatrix};
use tlr::{CompressionTol, TlrMatrix};

/// A Cholesky factor of a correlation matrix.
///
/// This is exactly the engine's reusable factor handle
/// ([`mvn_core::Factor`]), re-exported under the historical name: a
/// correlation factor is one tiled factor — dense (every tile dense) or TLR
/// — and plugs directly into `MvnEngine::solve` and friends with no
/// rewrapping.
pub use mvn_core::Factor as CorrelationFactor;

/// Standard deviations (square roots of the diagonal) of a covariance matrix.
///
/// Zero diagonal entries are allowed: they mark *degenerate* locations
/// (conditioned/observed sites of a kriging posterior, whose posterior
/// variance is exactly zero). The factor builders below give such locations
/// an independent unit row in the correlation matrix — a placeholder
/// variable the MVN integrals neutralize with hard `±∞` limits (see
/// `crd::standardized_limit`), so it never influences the probability. Negative
/// diagonals panic.
pub fn standard_deviations(cov: &DenseMatrix) -> Vec<f64> {
    assert_eq!(cov.nrows(), cov.ncols());
    (0..cov.nrows())
        .map(|i| {
            let v = cov.get(i, i);
            assert!(
                v >= 0.0,
                "covariance diagonal must be non-negative (index {i})"
            );
            v.sqrt()
        })
        .collect()
}

/// The standardized correlation entry for the factor builders: `Σᵢⱼ/(σᵢσⱼ)`
/// with a tiny diagonal regularization, and an independent unit row for
/// degenerate (`σ == 0`) locations so the matrix stays positive definite.
fn correlation_entry(cov: &DenseMatrix, sd: &[f64], i: usize, j: usize) -> f64 {
    if i == j {
        1.0 + 1e-10
    } else if sd[i] == 0.0 || sd[j] == 0.0 {
        0.0
    } else {
        cov.get(i, j) / (sd[i] * sd[j])
    }
}

/// Assemble the (unfactored) correlation matrix of `cov` in dense tiled
/// storage, together with the standard deviations used to standardize it.
///
/// This is the single definition of the standardized entries (unit-plus-1e-10
/// diagonal, independent unit rows for degenerate sites) shared by
/// [`correlation_factor_dense`] and by callers that factor on their own
/// worker pool (the `mvn-service` shard engines): factoring this matrix with
/// any `potrf` path yields a factor bitwise identical to
/// [`correlation_factor_dense`]'s.
pub fn correlation_matrix_dense(cov: &DenseMatrix, nb: usize) -> (SymTileMatrix, Vec<f64>) {
    let sd = standard_deviations(cov);
    let n = cov.nrows();
    let corr = SymTileMatrix::from_fn(n, nb, |i, j| correlation_entry(cov, &sd, i, j));
    (corr, sd)
}

/// TLR counterpart of [`correlation_matrix_dense`].
pub fn correlation_matrix_tlr(
    cov: &DenseMatrix,
    nb: usize,
    tol: CompressionTol,
    max_rank: usize,
) -> (TlrMatrix, Vec<f64>) {
    let sd = standard_deviations(cov);
    let n = cov.nrows();
    let corr = TlrMatrix::from_fn(n, nb, tol, max_rank, |i, j| {
        correlation_entry(cov, &sd, i, j)
    });
    (corr, sd)
}

/// Build the dense tiled Cholesky factor of the correlation matrix of `cov`,
/// returning the factor together with the per-location standard deviations.
pub fn correlation_factor_dense(cov: &DenseMatrix, nb: usize) -> (CorrelationFactor, Vec<f64>) {
    let (corr, sd) = correlation_matrix_dense(cov, nb);
    (factor_correlation(TlrMatrix::from(corr)), sd)
}

/// Build the TLR Cholesky factor of the correlation matrix of `cov` at the
/// given compression tolerance.
pub fn correlation_factor_tlr(
    cov: &DenseMatrix,
    nb: usize,
    tol: CompressionTol,
    max_rank: usize,
) -> (CorrelationFactor, Vec<f64>) {
    let (corr, sd) = correlation_matrix_tlr(cov, nb, tol, max_rank);
    (factor_correlation(corr), sd)
}

/// Factor an assembled correlation matrix on an engine of one worker per
/// core.
fn factor_correlation(corr: TlrMatrix) -> CorrelationFactor {
    let engine = MvnEngine::builder().build().expect("default engine");
    engine
        .factor_tlr(corr)
        .expect("correlation matrix must be positive definite")
}

/// The correlation matrix `R̃ = L·Lᵀ` held by `factor`, symmetrically
/// permuted so that row and column `k` belong to location `order[k]`
/// (unfactored, dense tiles of the factor's tile size), assembled on `pool`.
///
/// One task per lower tile `(I, J)` of `R̃` in location order computes
/// `Σ_{K ≤ J} L_{I,K}·L_{J,K}ᵀ` (a tiled SYRK, `n³/3` flops; low-rank tiles
/// are expanded from `U·Vᵀ` as they are read) and scatters it into its permuted
/// positions, so beyond the result only one tile per worker is ever live.
/// Every entry is written exactly once by one task, so the result is bitwise
/// independent of the worker count.
///
/// # Panics
///
/// On a Vecchia factor, which has no Cholesky rows to permute.
pub(crate) fn permuted_correlation(
    pool: &WorkerPool,
    factor: &CorrelationFactor,
    order: &[usize],
) -> SymTileMatrix {
    let CorrelationFactor::Tiled(l) = factor else {
        panic!(
            "confidence-region detection needs a dense or TLR correlation factor: \
             a Vecchia factor has no Cholesky rows to permute"
        )
    };
    let layout = l.layout();
    let n = layout.n();
    assert_eq!(order.len(), n, "order must list every location once");
    let mut rank = vec![usize::MAX; n];
    for (k, &site) in order.iter().enumerate() {
        rank[site] = k;
    }
    assert!(rank.iter().all(|&k| k < n), "order must be a permutation");
    let nt = layout.num_tiles();
    // The result's tiles are allocated by the pool's workers, so the memory
    // they release after the sweep sits in the workers' allocator arenas,
    // where the next task sets on the pool reuse it instead of growing the
    // process.
    let lower: Vec<(usize, usize)> = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
    let zeros = pool.run_map(
        "crd_permute_alloc",
        &lower,
        |_, _| 1.0,
        |_, &(i, j)| DenseMatrix::zeros(layout.tile_size(i), layout.tile_size(j)),
    );
    let permuted = Mutex::new(SymTileMatrix::from_tiles(n, layout.nb(), zeros));
    // Longest tasks (most `K` terms) first, so no long task trails the set.
    let tiles: Vec<(usize, usize)> = (0..nt)
        .rev()
        .flat_map(|j| (j..nt).map(move |i| (i, j)))
        .collect();
    pool.run_map(
        "crd_permute_tile",
        &tiles,
        |_, &(_, j)| (j + 1) as f64,
        |_, &(ti, tj)| {
            let mut acc = DenseMatrix::zeros(layout.tile_size(ti), layout.tile_size(tj));
            for k in 0..=tj {
                let (lik, ljk) = (l.tile(ti, k).to_dense(), l.tile(tj, k).to_dense());
                gemm_nt(1.0, &lik, &ljk, 1.0, &mut acc);
            }
            let (r0, c0) = (layout.tile_start(ti), layout.tile_start(tj));
            let mut out = permuted.lock().expect("a permuted-tile task panicked");
            for q in 0..acc.ncols() {
                // The diagonal tile is symmetric: its lower half suffices.
                let first = if ti == tj { q } else { 0 };
                for p in first..acc.nrows() {
                    out.set(rank[r0 + p], rank[c0 + q], acc.get(p, q));
                }
            }
        },
    );
    permuted
        .into_inner()
        .expect("a permuted-tile task panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostat::{regular_grid, CovarianceKernel};
    use mvn_core::{MvnConfig, MvnEngine};

    fn cov_matrix() -> DenseMatrix {
        let locs = regular_grid(8, 8);
        let k = CovarianceKernel::Exponential {
            sigma2: 2.5, // non-unit variance so standardization matters
            range: 0.3,
        };
        k.dense_covariance(&locs, 1e-8)
    }

    #[test]
    fn standard_deviations_match_diagonal() {
        let cov = cov_matrix();
        let sd = standard_deviations(&cov);
        for (i, s) in sd.iter().enumerate() {
            assert!((s * s - cov.get(i, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_factor_reconstructs_the_correlation_matrix() {
        let cov = cov_matrix();
        let (factor, sd) = correlation_factor_dense(&cov, 16);
        let CorrelationFactor::Tiled(l) = &factor else {
            panic!("expected a tiled factor")
        };
        let ld = l.to_dense_lower();
        let rec = ld.matmul_nt(&ld);
        for i in 0..cov.nrows() {
            for j in 0..cov.ncols() {
                let want = cov.get(i, j) / (sd[i] * sd[j]);
                assert!((rec.get(i, j) - want).abs() < 1e-6, "({i},{j})");
            }
        }
    }

    #[test]
    fn dense_and_tlr_factors_give_matching_mvn_probabilities() {
        let cov = cov_matrix();
        let (fd, sd) = correlation_factor_dense(&cov, 16);
        let (ft, sd2) =
            correlation_factor_tlr(&cov, 16, CompressionTol::Absolute(1e-8), usize::MAX);
        assert_eq!(sd.len(), sd2.len());
        let n = cov.nrows();
        let a = vec![-0.3; n];
        let b = vec![f64::INFINITY; n];
        let engine = MvnEngine::with_config(MvnConfig::with_samples(4000)).unwrap();
        let pd = engine.solve(&fd, &a, &b);
        let pt = engine.solve(&ft, &a, &b);
        assert!(
            (pd.prob - pt.prob).abs() < 2e-3,
            "{} vs {}",
            pd.prob,
            pt.prob
        );
        // Storage accounting is exposed for both formats (at this tiny size the
        // TLR format is not expected to win; compression-ratio behaviour is
        // covered by the tlr crate's own tests).
        assert!(ft.stored_elements() > 0 && fd.stored_elements() > 0);
        assert_eq!(fd.dim(), n);
    }

    #[test]
    #[should_panic]
    fn negative_variance_diagonal_panics() {
        let mut cov = cov_matrix();
        cov.set(3, 3, -1.0);
        let _ = standard_deviations(&cov);
    }

    #[test]
    fn zero_variance_sites_get_independent_unit_rows() {
        // Degenerate (conditioned) sites must not break the factorization:
        // they become independent unit placeholder variables, and the other
        // correlations are untouched.
        let mut cov = cov_matrix();
        let n = cov.nrows();
        for &d in &[3usize, 17] {
            for j in 0..n {
                cov.set(d, j, 0.0);
                cov.set(j, d, 0.0);
            }
        }
        let (factor, sd) = correlation_factor_dense(&cov, 16);
        assert_eq!(sd[3], 0.0);
        assert_eq!(sd[17], 0.0);
        let CorrelationFactor::Tiled(l) = &factor else {
            panic!("expected a tiled factor")
        };
        let ld = l.to_dense_lower();
        let rec = ld.matmul_nt(&ld);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j {
                    1.0
                } else if sd[i] == 0.0 || sd[j] == 0.0 {
                    0.0
                } else {
                    cov.get(i, j) / (sd[i] * sd[j])
                };
                assert!((rec.get(i, j) - want).abs() < 1e-6, "({i},{j})");
            }
        }
    }
}
