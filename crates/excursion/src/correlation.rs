//! Building the standardized correlation factor consumed by the MVN integrals.
//!
//! Algorithm 1 standardizes the integration limits by `√Σᵢᵢ` (line 13); the
//! equivalent formulation used here evaluates the MVN probability under the
//! correlation matrix `R = D^{-1/2} Σ D^{-1/2}` with standardized limits, which
//! keeps all diagonal tiles well scaled. The correlation is assembled tile by
//! tile from [`correlation_entry`] by `TlrMatrix::assemble` and factored on
//! the caller's engine: one tiled factor, held dense or in TLR-compressed
//! form — exactly the paper's two execution modes.

use mvn_core::{Factor, MvnEngine};
use std::sync::Mutex;
use task_runtime::WorkerPool;
use tile_la::kernels::gemm_nt;
use tile_la::{CholeskyError, DenseMatrix, SymTileMatrix};
use tlr::{CompressionTol, TlrMatrix};

/// A Cholesky factor of a correlation matrix: [`mvn_core::Factor`] under its
/// old name. Kept only for the `mvn_perf` benchmark; it goes when the
/// benchmark moves to `Factor`.
pub use mvn_core::Factor as CorrelationFactor;

/// Standard deviations (square roots of the diagonal) of a covariance matrix.
///
/// Zero diagonal entries are allowed: they mark *degenerate* locations
/// (conditioned/observed sites of a kriging posterior, whose posterior
/// variance is exactly zero). [`correlation_entry`] gives such locations an
/// independent unit row in the correlation matrix — a placeholder variable
/// the MVN integrals neutralize with hard `±∞` limits (see
/// `crd::standardized_limit`), so it never influences the probability.
/// Negative diagonals panic.
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

/// The standardized correlation entry of the covariance entry function
/// `cov` with standard deviations `sd`: `cov(i, j)/(sdᵢ·sdⱼ)`, a unit
/// diagonal plus `1e-10`, and an independent unit row for a degenerate
/// (`sd == 0`) location so the matrix stays positive definite. This is the
/// one definition of the standardized entries: [`correlation_factor`] and
/// the served standardized specs assemble it.
pub fn correlation_entry<'a>(
    cov: impl Fn(usize, usize) -> f64 + Sync + 'a,
    sd: &'a [f64],
) -> impl Fn(usize, usize) -> f64 + Sync + 'a {
    move |i, j| {
        if i == j {
            1.0 + 1e-10
        } else if sd[i] == 0.0 || sd[j] == 0.0 {
            0.0
        } else {
            cov(i, j) / (sd[i] * sd[j])
        }
    }
}

/// Assemble the correlation matrix of `cov` in tiles of `nb` — dense, or
/// TLR under `compression` (see [`TlrMatrix::assemble`]) — and factor it on
/// `engine`'s pool, returning the factor together with the per-location
/// standard deviations. A correlation that is not positive definite is the
/// factorization's typed error, with its failing pivot.
pub fn correlation_factor(
    engine: &MvnEngine,
    cov: &DenseMatrix,
    nb: usize,
    compression: Option<(CompressionTol, usize)>,
) -> Result<(Factor, Vec<f64>), CholeskyError> {
    let (corr, sd) = correlation_matrix(cov, nb, compression);
    Ok((engine.factor(corr)?, sd))
}

/// The dense [`correlation_factor`], on an engine of one worker per core.
/// Kept only for the `mvn_perf` benchmark; it goes when the benchmark moves
/// to `correlation_factor`.
pub fn correlation_factor_dense(cov: &DenseMatrix, nb: usize) -> (CorrelationFactor, Vec<f64>) {
    let (corr, sd) = correlation_matrix(cov, nb, None);
    // Built after the assembly, as before this wrapper existed: with its
    // pool's threads alive during the assembly, `crd_wind`'s peak RSS rose
    // from ≈ 72 to 76–83 MB.
    let engine = MvnEngine::builder().build().expect("default engine");
    let factor = engine.factor(corr);
    (
        factor.expect("correlation matrix must be positive definite"),
        sd,
    )
}

/// The assembled correlation matrix of `cov` and its standard deviations.
fn correlation_matrix(
    cov: &DenseMatrix,
    nb: usize,
    compression: Option<(CompressionTol, usize)>,
) -> (TlrMatrix, Vec<f64>) {
    let sd = standard_deviations(cov);
    let entry = correlation_entry(|i, j| cov.get(i, j), &sd);
    (TlrMatrix::assemble(cov.nrows(), nb, compression, entry), sd)
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
    factor: &Factor,
    order: &[usize],
) -> SymTileMatrix {
    let Factor::Tiled(l) = factor else {
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
    let zeros = pool.map("crd_permute_alloc", &lower, |_, &(i, j)| {
        DenseMatrix::zeros(layout.tile_size(i), layout.tile_size(j))
    });
    let permuted = Mutex::new(SymTileMatrix::from_tiles(n, layout.nb(), zeros));
    // Longest tasks (most `K` terms) first, so no long task trails the set.
    let tiles: Vec<(usize, usize)> = (0..nt)
        .rev()
        .flat_map(|j| (j..nt).map(move |i| (i, j)))
        .collect();
    pool.map("crd_permute_tile", &tiles, |_, &(ti, tj)| {
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
    });
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
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let (factor, sd) = correlation_factor(&engine, &cov, 16, None).unwrap();
        let Factor::Tiled(l) = &factor else {
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
        let engine = MvnEngine::with_config(MvnConfig::with_samples(4000)).unwrap();
        let (fd, sd) = correlation_factor(&engine, &cov, 16, None).unwrap();
        let (ft, sd2) = correlation_factor(
            &engine,
            &cov,
            16,
            Some((CompressionTol::Absolute(1e-8), usize::MAX)),
        )
        .unwrap();
        assert_eq!(sd.len(), sd2.len());
        let n = cov.nrows();
        let a = vec![-0.3; n];
        let b = vec![f64::INFINITY; n];
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
    fn a_correlation_that_is_not_positive_definite_is_a_typed_error() {
        // Sites 5, 6 and 7 (variance 4) carry the indefinite correlation
        // block [[1, .9, -.9], [.9, 1, .9], [-.9, .9, 1]]: the factorization
        // fails at its last pivot, row 7, inside diagonal tile 1, on either
        // compression setting.
        let mut cov = DenseMatrix::identity(12);
        let block = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]];
        for (p, row) in block.iter().enumerate() {
            for (q, &r) in row.iter().enumerate() {
                cov.set(5 + p, 5 + q, 4.0 * r);
            }
        }
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let tlr = Some((CompressionTol::Absolute(1e-8), usize::MAX));
        for compression in [None, tlr] {
            let got = correlation_factor(&engine, &cov, 4, compression);
            assert!(
                matches!(got, Err(CholeskyError::NotPositiveDefinite(7))),
                "{compression:?}: {:?}",
                got.map(|(f, _)| f.kind())
            );
        }
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
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let (factor, sd) = correlation_factor(&engine, &cov, 16, None).unwrap();
        assert_eq!(sd[3], 0.0);
        assert_eq!(sd[17], 0.0);
        let Factor::Tiled(l) = &factor else {
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
