//! Maximum-likelihood estimation of Matérn covariance parameters
//! (the ExaGeoStat MLE step of the paper's Algorithm 1 inputs).

use crate::covariance::{CovarianceKernel, MaternParams, MAX_MATERN_SMOOTHNESS};
use crate::field::default_tile_size;
use crate::geometry::Location;
use crate::optim::{nelder_mead, NelderMeadOptions};
use task_runtime::WorkerPool;
use tile_la::DenseMatrix;
use tlr::cholesky::log_det_from_tlr_factor;
use tlr::{potrf_tlr, TlrMatrix};

/// Result of a Matérn maximum-likelihood fit.
#[derive(Debug, Clone)]
pub struct MleResult {
    /// The fitted parameters.
    pub params: MaternParams,
    /// The log-likelihood at the fitted parameters.
    pub loglik: f64,
    /// Number of optimizer iterations.
    pub iterations: usize,
    /// Whether the optimizer reported convergence.
    pub converged: bool,
}

/// Exact Gaussian log-likelihood of zero-mean data under the given covariance
/// kernel: `−½ (zᵀΣ⁻¹z + log|Σ| + n·log 2π)`.
///
/// Factors the covariance as a dense [`TlrMatrix`] with the parallel tiled
/// Cholesky ([`potrf_tlr`]) on the caller's `pool` (e.g. an
/// `mvn_core::MvnEngine`'s), so it scales to the problem sizes of the
/// paper's synthetic studies. The covariance carries a stabilizing nugget of
/// `1e-10 · max(σ², 1e-12)`. The value is bitwise the same on every pool
/// (the factor is worker-count-deterministic).
pub fn gaussian_loglik(
    locs: &[Location],
    data: &[f64],
    kernel: &CovarianceKernel,
    pool: &WorkerPool,
) -> f64 {
    let n = locs.len();
    assert_eq!(data.len(), n, "data length must match number of locations");
    let nb = default_tile_size(n);
    let nugget = 1e-10 * kernel.sigma2().max(1e-12);
    let mut l = TlrMatrix::assemble(locs.len(), nb, None, kernel.entry(locs, nugget));
    if potrf_tlr(&mut l, pool).is_err() {
        return f64::NEG_INFINITY;
    }
    let log_det = log_det_from_tlr_factor(&l);
    // Whitened residual: w = L^{-1} z, quadratic form = ||w||^2.
    let mut z = DenseMatrix::from_fn(n, 1, |i, _| data[i]);
    l.solve_lower_panel(&mut z);
    let quad: f64 = z.data().iter().map(|v| v * v).sum();
    -0.5 * (quad + log_det + n as f64 * (2.0 * std::f64::consts::PI).ln())
}

/// Fit Matérn parameters by maximum likelihood with Nelder–Mead over
/// log-transformed parameters.
///
/// If `estimate_smoothness` is false the smoothness is held fixed at
/// `init.smoothness` (the common practice for the exponential-kernel synthetic
/// data, where ν = ½ is known).
///
/// Every objective evaluation factors an `n × n` covariance on `pool`, so
/// the hundreds of factorizations of one fit share its workers; the fitted
/// parameters are bitwise the same on every pool.
pub fn fit_matern(
    locs: &[Location],
    data: &[f64],
    init: MaternParams,
    estimate_smoothness: bool,
    pool: &WorkerPool,
) -> Option<MleResult> {
    assert_eq!(locs.len(), data.len());
    let fixed_nu = init.smoothness;

    let unpack = move |x: &[f64]| -> MaternParams {
        MaternParams {
            sigma2: x[0].exp(),
            range: x[1].exp(),
            smoothness: if estimate_smoothness {
                x[2].exp()
            } else {
                fixed_nu
            },
        }
    };

    let objective = |x: &[f64]| -> f64 {
        let p = unpack(x);
        // Guard against absurd parameter excursions of the simplex.
        if !(1e-8..1e8).contains(&p.sigma2)
            || !(1e-8..1e4).contains(&p.range)
            || !(0.01..MAX_MATERN_SMOOTHNESS).contains(&p.smoothness)
        {
            return 1e12;
        }
        -gaussian_loglik(locs, data, &CovarianceKernel::Matern(p), pool)
    };

    let mut x0 = vec![init.sigma2.ln(), init.range.ln()];
    if estimate_smoothness {
        x0.push(init.smoothness.ln());
    }
    let result = nelder_mead(
        objective,
        &x0,
        NelderMeadOptions {
            max_iter: 200,
            f_tol: 1e-6,
            x_tol: 1e-5,
            initial_step: 0.3,
        },
    );
    if !result.fval.is_finite() {
        return None;
    }
    Some(MleResult {
        params: unpack(&result.x),
        loglik: -result.fval,
        iterations: result.iterations,
        converged: result.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::simulate_field;
    use crate::geometry::regular_grid;

    #[test]
    fn loglik_prefers_truth_over_badly_wrong_parameters() {
        let locs = regular_grid(15, 15);
        let truth = MaternParams {
            sigma2: 1.0,
            range: 0.15,
            smoothness: 0.5,
        };
        let pool = WorkerPool::new(1);
        let sample = simulate_field(&locs, &CovarianceKernel::Matern(truth), 0.0, 31, &pool);
        let ll_truth = gaussian_loglik(
            &locs,
            &sample.values,
            &CovarianceKernel::Matern(truth),
            &pool,
        );
        let wrong_range = MaternParams {
            range: 1.5,
            ..truth
        };
        let wrong_sigma = MaternParams {
            sigma2: 25.0,
            ..truth
        };
        let ll_wr = gaussian_loglik(
            &locs,
            &sample.values,
            &CovarianceKernel::Matern(wrong_range),
            &pool,
        );
        let ll_ws = gaussian_loglik(
            &locs,
            &sample.values,
            &CovarianceKernel::Matern(wrong_sigma),
            &pool,
        );
        assert!(ll_truth > ll_wr, "{ll_truth} vs {ll_wr}");
        assert!(ll_truth > ll_ws, "{ll_truth} vs {ll_ws}");
    }

    #[test]
    fn loglik_of_white_noise_matches_closed_form() {
        // With a (numerically) diagonal covariance sigma^2 I the log-likelihood
        // has a closed form.
        let locs = regular_grid(6, 6);
        let n = locs.len();
        let data: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) / 5.0).collect();
        let sigma2 = 0.8;
        // A minuscule range makes off-diagonal covariances numerically zero.
        let kernel = CovarianceKernel::Exponential {
            sigma2,
            range: 1e-6,
        };
        let ll = gaussian_loglik(&locs, &data, &kernel, &WorkerPool::new(1));
        let quad: f64 = data.iter().map(|v| v * v / sigma2).sum();
        let want =
            -0.5 * (quad + n as f64 * sigma2.ln() + n as f64 * (2.0 * std::f64::consts::PI).ln());
        assert!((ll - want).abs() < 1e-6, "{ll} vs {want}");
    }

    #[test]
    fn degenerate_zero_variance_kernel_is_heavily_penalized() {
        // sigma^2 = 0 collapses the covariance to the stabilizing nugget, so
        // any non-zero data must receive an enormous penalty (the optimizer
        // bound guard keeps the simplex away from this region anyway).
        let locs = regular_grid(4, 4);
        let data: Vec<f64> = (0..16).map(|i| 0.1 * (i as f64 - 8.0)).collect();
        let kernel = CovarianceKernel::Matern(MaternParams {
            sigma2: 0.0,
            range: 0.1,
            smoothness: 0.5,
        });
        let ll = gaussian_loglik(&locs, &data, &kernel, &WorkerPool::new(1));
        assert!(ll < -1e6, "expected a huge penalty, got {ll}");
    }

    #[test]
    fn pooled_loglik_is_bitwise_identical_to_plain_loglik() {
        let locs = regular_grid(12, 12);
        let truth = MaternParams {
            sigma2: 1.2,
            range: 0.2,
            smoothness: 0.5,
        };
        let sample = simulate_field(
            &locs,
            &CovarianceKernel::Matern(truth),
            0.0,
            11,
            &WorkerPool::new(1),
        );
        let kernel = CovarianceKernel::Matern(truth);
        // "Plain" is the one-worker pool: every task inline on the caller.
        let plain = gaussian_loglik(&locs, &sample.values, &kernel, &WorkerPool::new(1));
        for workers in [2usize, 4] {
            let pool = WorkerPool::new(workers);
            let pooled = gaussian_loglik(&locs, &sample.values, &kernel, &pool);
            assert!(
                pooled.to_bits() == plain.to_bits(),
                "workers={workers}: {pooled} vs {plain}"
            );
        }
    }

    #[test]
    fn pooled_fit_matches_plain_fit_and_reuses_the_pool() {
        let locs = regular_grid(10, 10);
        let truth = MaternParams {
            sigma2: 1.0,
            range: 0.15,
            smoothness: 0.5,
        };
        let sample = simulate_field(
            &locs,
            &CovarianceKernel::Matern(truth),
            0.0,
            42,
            &WorkerPool::new(1),
        );
        let start = MaternParams {
            sigma2: 2.0,
            range: 0.4,
            smoothness: 0.5,
        };
        // "Plain" is the one-worker pool: every task inline on the caller.
        let plain = fit_matern(&locs, &sample.values, start, false, &WorkerPool::new(1)).unwrap();
        let pool = WorkerPool::new(2);
        let pooled = fit_matern(&locs, &sample.values, start, false, &pool).unwrap();
        assert_eq!(plain.iterations, pooled.iterations);
        assert!(plain.loglik.to_bits() == pooled.loglik.to_bits());
        assert!(plain.params.range.to_bits() == pooled.params.range.to_bits());
        // Every objective evaluation factored one covariance on the pool: at
        // least one non-empty task set each.
        let stats = pool.stats();
        assert!(stats.graphs_run as usize >= pooled.iterations);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn fit_improves_on_a_deliberately_bad_start() {
        let locs = regular_grid(14, 14);
        let truth = MaternParams {
            sigma2: 1.0,
            range: 0.1,
            smoothness: 0.5,
        };
        let pool = WorkerPool::new(1);
        let sample = simulate_field(&locs, &CovarianceKernel::Matern(truth), 0.0, 77, &pool);
        let bad_start = MaternParams {
            sigma2: 4.0,
            range: 0.5,
            smoothness: 0.5,
        };
        let ll_start = gaussian_loglik(
            &locs,
            &sample.values,
            &CovarianceKernel::Matern(bad_start),
            &pool,
        );
        let fit = fit_matern(&locs, &sample.values, bad_start, false, &pool).unwrap();
        assert!(fit.loglik > ll_start, "{} vs {}", fit.loglik, ll_start);
        assert!(fit.params.range < 0.5);
    }
}
