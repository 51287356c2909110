//! Sequential Genz (1992) QMC algorithm for the MVN probability.
//!
//! This is the reference implementation the tiled parallel PMVN is validated
//! against: a single thread, a dense Cholesky factor, one SOV chain per sample
//! point. It corresponds to the R implementations the paper compares with
//! (`mvtnorm` / `tlrmvnmvt` in their dense mode) and is the natural baseline
//! for measuring the parallel speedup.

use crate::sov::sov_sample_probability;
use crate::{MvnConfig, MvnResult};
use qmc::{lattice_points, PointSet};
use tile_la::DenseMatrix;

/// Estimate `Φₙ(a, b; 0, Σ)` from the dense lower Cholesky factor `l` of `Σ`.
///
/// The standard error is estimated from 10 sample batches (or fewer when the
/// sample size is small).
pub fn mvn_prob_genz(l: &DenseMatrix, a: &[f64], b: &[f64], cfg: &MvnConfig) -> MvnResult {
    let n = a.len();
    assert_eq!(b.len(), n, "limit vectors must have equal length");
    assert_eq!(l.nrows(), n, "Cholesky factor dimension mismatch");
    assert_eq!(l.ncols(), n, "Cholesky factor must be square");
    assert!(cfg.sample_size > 0, "sample size must be positive");

    let points = lattice_points(n, cfg.seed);
    let n_batches = 10.min(cfg.sample_size);
    let batch_size = cfg.sample_size.div_ceil(n_batches);

    let mut w = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut batches = Vec::with_capacity(n_batches);
    for batch in 0..n_batches {
        let start = batch * batch_size;
        let end = ((batch + 1) * batch_size).min(cfg.sample_size);
        if start >= end {
            break;
        }
        let mut sum = 0.0;
        for j in start..end {
            points.point(j, &mut w);
            sum += sov_sample_probability(l, a, b, &w, &mut y);
        }
        batches.push((sum / (end - start) as f64, end - start));
    }
    MvnResult::from_batches(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::norm_cdf;
    use tile_la::kernels::potrf_in_place;

    fn chol(sigma: &DenseMatrix) -> DenseMatrix {
        let mut l = sigma.clone();
        potrf_in_place(&mut l).unwrap();
        l
    }

    fn equicorrelated(n: usize, rho: f64) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { rho })
    }

    #[test]
    fn independent_probabilities_factorize() {
        let n = 6;
        let l = DenseMatrix::identity(n);
        let a = vec![-1.0; n];
        let b = vec![2.0; n];
        let cfg = MvnConfig::with_samples(2000);
        let r = mvn_prob_genz(&l, &a, &b, &cfg);
        let want = (norm_cdf(2.0) - norm_cdf(-1.0)).powi(n as i32);
        assert!((r.prob - want).abs() < 1e-10, "{} vs {want}", r.prob);
        assert_eq!(r.samples, 2000);
    }

    #[test]
    fn bivariate_orthant_probability_matches_closed_form() {
        // P(X > 0, Y > 0) = 1/4 + asin(rho) / (2 pi).
        for rho in [-0.6, -0.2, 0.3, 0.7, 0.95] {
            let sigma = equicorrelated(2, rho);
            let l = chol(&sigma);
            let a = vec![0.0, 0.0];
            let b = vec![f64::INFINITY, f64::INFINITY];
            let cfg = MvnConfig::with_samples(20_000);
            let r = mvn_prob_genz(&l, &a, &b, &cfg);
            let want = 0.25 + rho.asin() / (2.0 * std::f64::consts::PI);
            assert!(
                (r.prob - want).abs() < 3e-3,
                "rho={rho}: {} vs {want}",
                r.prob
            );
        }
    }

    #[test]
    fn equicorrelated_half_orthant_is_one_over_n_plus_one() {
        // P(X_i <= 0 for all i) with pairwise correlation 1/2 equals 1/(n+1).
        for n in [3usize, 5, 8] {
            let sigma = equicorrelated(n, 0.5);
            let l = chol(&sigma);
            let a = vec![f64::NEG_INFINITY; n];
            let b = vec![0.0; n];
            let cfg = MvnConfig {
                sample_size: 30_000,
                seed: 7,
                ..Default::default()
            };
            let r = mvn_prob_genz(&l, &a, &b, &cfg);
            let want = 1.0 / (n as f64 + 1.0);
            assert!(
                (r.prob - want).abs() < 4e-3,
                "n={n}: {} vs {want} (se {})",
                r.prob,
                r.std_error
            );
        }
    }

    #[test]
    fn std_error_shrinks_with_more_samples() {
        let sigma = equicorrelated(10, 0.4);
        let l = chol(&sigma);
        let a = vec![-1.0; 10];
        let b = vec![1.5; 10];
        let small = mvn_prob_genz(
            &l,
            &a,
            &b,
            &MvnConfig {
                sample_size: 500,
                seed: 3,
                ..Default::default()
            },
        );
        let large = mvn_prob_genz(
            &l,
            &a,
            &b,
            &MvnConfig {
                sample_size: 50_000,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(large.std_error < small.std_error);
        assert!((small.prob - large.prob).abs() < 0.05);
    }

    #[test]
    fn whole_space_has_probability_one_and_empty_box_zero() {
        let sigma = equicorrelated(4, 0.3);
        let l = chol(&sigma);
        let cfg = MvnConfig::with_samples(200);
        let all = mvn_prob_genz(&l, &[f64::NEG_INFINITY; 4], &[f64::INFINITY; 4], &cfg);
        assert!((all.prob - 1.0).abs() < 1e-12);
        let none = mvn_prob_genz(&l, &[1.0; 4], &[1.0; 4], &cfg);
        assert_eq!(none.prob, 0.0);
    }
}
