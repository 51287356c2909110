//! Monte-Carlo validation of a detected confidence region.
//!
//! The paper validates `E⁺ᵤ,α` by drawing `N` samples from the fitted Gaussian
//! field and computing `p̂(α) = Ns/N`, the fraction of samples in which *every*
//! location of the region exceeds the threshold. If the region is correctly
//! detected, `p̂(α) ≈ 1 − α`; the third column of Fig. 1 plots
//! `1 − α − p̂(α)`, and Fig. 6 reports the runtime of this validation step.
//!
//! This is [`mvn_prob_mc`] on the box the detection integrates: each region
//! site's standardized lower limit (the one the prefix sweep uses), `-inf`
//! elsewhere, `+inf` above. Its sampling blocks run as independent tasks on
//! the [`MvnEngine`]'s worker pool — the same session threads the detection
//! itself used — and the estimate is bitwise independent of the worker count
//! (each block owns a seeded RNG stream).

use crate::crd::standardized_limit;
use mvn_core::{mvn_prob_mc, Factor, MvnConfig, MvnEngine};

/// Result of the MC validation of a region.
#[derive(Debug, Clone, Copy)]
pub struct McValidation {
    /// The estimated joint exceedance probability `p̂`.
    pub p_hat: f64,
    /// Binomial standard error of `p̂`.
    pub std_error: f64,
    /// Number of Monte-Carlo samples drawn.
    pub samples: usize,
}

/// Estimate the probability that every location in `region` exceeds
/// `threshold` under the Gaussian field with the given correlation factor,
/// `mean` and `sd`, using `n_samples` Monte-Carlo draws.
///
/// Sampling draws `x = L·z` with `z` standard normal, in parallel blocks of
/// `block` columns submitted as one task set on the engine's pool, and counts
/// the samples with `x > (threshold − mean)/sd` at every region site.
#[allow(clippy::too_many_arguments)]
pub fn mc_validate(
    engine: &MvnEngine,
    factor: &Factor,
    mean: &[f64],
    sd: &[f64],
    region: &[usize],
    threshold: f64,
    n_samples: usize,
    block: usize,
    seed: u64,
) -> McValidation {
    let n = mean.len();
    assert_eq!(sd.len(), n);
    assert!(region.iter().all(|&i| i < n), "region index out of range");
    assert!(n_samples > 0 && block > 0);

    if region.is_empty() {
        // An empty region trivially exceeds the threshold everywhere.
        return McValidation {
            p_hat: 1.0,
            std_error: 0.0,
            samples: n_samples,
        };
    }

    let mut a = vec![f64::NEG_INFINITY; n];
    for &i in region {
        a[i] = standardized_limit(mean[i], sd[i], threshold);
    }
    let b = vec![f64::INFINITY; n];
    let cfg = MvnConfig {
        sample_size: n_samples,
        panel_width: block,
        seed,
    };
    let p_hat = mvn_prob_mc(engine.pool(), factor, &a, &b, &cfg).prob;
    let std_error = (p_hat * (1.0 - p_hat) / n_samples as f64).sqrt();
    McValidation {
        p_hat,
        std_error,
        samples: n_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::correlation_factor;
    use crate::crd::{find_excursion_set, CrdConfig};
    use geostat::{regular_grid, CovarianceKernel};
    use mathx::norm_sf;
    use mvn_core::MvnResult;
    use tlr::CompressionTol;

    /// `true` when an MVN estimate and an MC validation agree within their
    /// combined `z`-sigma uncertainty:
    /// `|prob − p̂| ≤ mvn.half_width(z) + z·mc.std_error`.
    ///
    /// Uses [`MvnResult::half_width`] rather than ad-hoc `z * std_error`
    /// math, so a single-batch MVN estimate (standard error unavailable,
    /// `NaN`) yields an unbounded half-width and the check degrades to "no
    /// evidence of disagreement" instead of NaN-poisoning the comparison.
    fn estimates_agree(mvn: &MvnResult, mc: &McValidation, z: f64) -> bool {
        (mvn.prob - mc.p_hat).abs() <= mvn.half_width(z) + z * mc.std_error
    }

    fn test_engine() -> MvnEngine {
        MvnEngine::builder().workers(2).build().unwrap()
    }

    #[test]
    fn single_site_region_matches_marginal_probability() {
        let cov = tile_la::DenseMatrix::identity(6);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 3, None).unwrap();
        let mean = vec![0.4; 6];
        let engine = test_engine();
        let v = mc_validate(&engine, &factor, &mean, &sd, &[2], 0.0, 100_000, 500, 1);
        let want = norm_sf(-0.4);
        assert!(
            (v.p_hat - want).abs() < 4.0 * v.std_error.max(1e-3),
            "{} vs {want}",
            v.p_hat
        );
    }

    #[test]
    fn independent_two_site_region_gives_product() {
        let cov = tile_la::DenseMatrix::identity(5);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 2, None).unwrap();
        let mean = vec![1.0; 5];
        let engine = test_engine();
        let v = mc_validate(&engine, &factor, &mean, &sd, &[0, 3], 0.0, 200_000, 1000, 2);
        let want = norm_sf(-1.0) * norm_sf(-1.0);
        assert!((v.p_hat - want).abs() < 5e-3, "{} vs {want}", v.p_hat);
    }

    #[test]
    fn estimate_is_bitwise_independent_of_the_worker_count() {
        // Each block owns a seeded RNG stream and writes its own slot, so the
        // pool size must not change a single bit of the estimate.
        let locs = regular_grid(8, 8);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.2,
        };
        let cov = k.dense_covariance(&locs, 1e-8);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 16, None).unwrap();
        let mean = vec![0.3; locs.len()];
        let region: Vec<usize> = (0..10).collect();
        let reference = {
            let engine = MvnEngine::builder().workers(1).build().unwrap();
            mc_validate(&engine, &factor, &mean, &sd, &region, 0.0, 20_000, 256, 9)
        };
        for workers in [2usize, 4] {
            let engine = MvnEngine::builder().workers(workers).build().unwrap();
            let v = mc_validate(&engine, &factor, &mean, &sd, &region, 0.0, 20_000, 256, 9);
            assert!(
                v.p_hat.to_bits() == reference.p_hat.to_bits(),
                "workers={workers}: {} vs {}",
                v.p_hat,
                reference.p_hat
            );
        }
    }

    #[test]
    fn estimate_is_bitwise_the_estimator_on_the_standardized_box() {
        // Validation is the one Monte-Carlo estimator on the box the sweep
        // integrates, so its p̂ is that estimator's probability to the bit.
        let locs = regular_grid(6, 6);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let cov = k.dense_covariance(&locs, 1e-8);
        let engine = test_engine();
        let (factor, sd) = correlation_factor(&engine, &cov, 12, None).unwrap();
        let mean: Vec<f64> = locs.iter().map(|l| 1.2 - l.x).collect();
        let region = [0, 1, 6, 7, 13];
        let threshold = 0.1;
        let v = mc_validate(
            &engine, &factor, &mean, &sd, &region, threshold, 5_000, 128, 4,
        );
        let mut a = vec![f64::NEG_INFINITY; mean.len()];
        for &i in &region {
            a[i] = (threshold - mean[i]) / sd[i];
        }
        let b = vec![f64::INFINITY; mean.len()];
        let cfg = MvnConfig {
            sample_size: 5_000,
            panel_width: 128,
            seed: 4,
        };
        let r = mvn_prob_mc(engine.pool(), &factor, &a, &b, &cfg);
        assert!(
            v.p_hat.to_bits() == r.prob.to_bits(),
            "{} vs {}",
            v.p_hat,
            r.prob
        );
        assert!(v.p_hat > 0.0 && v.p_hat < 1.0, "{}", v.p_hat);
        assert_eq!(v.samples, 5_000);
    }

    #[test]
    fn empty_region_validates_to_one() {
        let cov = tile_la::DenseMatrix::identity(4);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 2, None).unwrap();
        let engine = test_engine();
        let v = mc_validate(&engine, &factor, &[0.0; 4], &sd, &[], 0.0, 100, 10, 3);
        assert_eq!(v.p_hat, 1.0);
        assert_eq!(v.std_error, 0.0);
    }

    #[test]
    fn validation_of_detected_region_is_close_to_target_confidence() {
        // End-to-end: detect a region at 1-alpha = 0.9 and validate it with MC;
        // p_hat should be >= 0.9 (within MC noise) because the detected prefix
        // has joint probability >= 0.9 by construction. One engine carries the
        // whole session: detection and MC validation.
        let locs = regular_grid(10, 10);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let cov = k.dense_covariance(&locs, 1e-8);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 25, None).unwrap();
        let mean: Vec<f64> = locs.iter().map(|l| 1.5 - 2.0 * l.x).collect();
        let cfg = CrdConfig {
            threshold: 0.0,
            alpha: 0.1,
            levels: 10,
            mvn: MvnConfig::with_samples(4000),
        };
        let engine = test_engine();
        let (region, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
        assert!(!region.is_empty());
        assert!(prob >= 0.9 - 1e-9);
        let v = mc_validate(&engine, &factor, &mean, &sd, &region, 0.0, 50_000, 500, 7);
        assert!(
            v.p_hat >= 0.9 - 4.0 * v.std_error - 0.02,
            "p_hat {} too far below the target 0.9",
            v.p_hat
        );
        // The MVN estimate of the selected prefix and the MC validation of
        // the same region must agree within their combined uncertainty.
        let mvn_est = engine.solve_factored_with(
            &factor,
            &{
                let mut a = vec![f64::NEG_INFINITY; mean.len()];
                for &i in &region {
                    a[i] = (cfg.threshold - mean[i]) / sd[i];
                }
                a
            },
            &vec![f64::INFINITY; mean.len()],
            &cfg.mvn,
        );
        assert!(
            estimates_agree(&mvn_est, &v, 5.0),
            "MVN {} ± {} vs MC {} ± {}",
            mvn_est.prob,
            mvn_est.half_width(5.0),
            v.p_hat,
            v.std_error
        );
    }

    #[test]
    fn dense_and_tlr_factors_validate_consistently() {
        let locs = regular_grid(9, 9);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        };
        let cov = k.dense_covariance(&locs, 1e-8);
        let (fd, sd) = correlation_factor(&test_engine(), &cov, 27, None).unwrap();
        let (ft, _) = correlation_factor(
            &test_engine(),
            &cov,
            27,
            Some(CompressionTol::Absolute(1e-6)),
        )
        .unwrap();
        let mean = vec![0.5; locs.len()];
        let region: Vec<usize> = (0..20).collect();
        let engine = test_engine();
        let vd = mc_validate(&engine, &fd, &mean, &sd, &region, 0.0, 60_000, 500, 5);
        let vt = mc_validate(&engine, &ft, &mean, &sd, &region, 0.0, 60_000, 500, 5);
        assert!(
            (vd.p_hat - vt.p_hat).abs() < 4.0 * (vd.std_error + vt.std_error),
            "dense {} vs TLR {}",
            vd.p_hat,
            vt.p_hat
        );
    }

    #[test]
    fn agreement_check_handles_the_single_batch_case() {
        let mc = McValidation {
            p_hat: 0.5,
            std_error: 0.001,
            samples: 1000,
        };
        // A single-batch MVN estimate has an unavailable standard error; the
        // check must not NaN-poison into a spurious "disagree".
        let single_batch = MvnResult::from_batches(&[(0.9, 100)]);
        assert!(estimates_agree(&single_batch, &mc, 3.0));
        // A tight, clearly-off estimate disagrees.
        let off = MvnResult {
            prob: 0.9,
            std_error: 0.001,
            samples: 100_000,
        };
        assert!(!estimates_agree(&off, &mc, 3.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_region_index_panics() {
        let cov = tile_la::DenseMatrix::identity(3);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 2, None).unwrap();
        let engine = test_engine();
        mc_validate(&engine, &factor, &[0.0; 3], &sd, &[7], 0.0, 100, 10, 1);
    }
}
