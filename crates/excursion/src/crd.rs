//! Confidence region detection (the paper's Algorithm 1, lines 6–15).
//!
//! Locations are ordered by decreasing marginal exceedance probability; the
//! joint probability that every location of a prefix of that order exceeds the
//! threshold is a non-increasing function of the prefix length, so
//!
//! * the positive confidence function at the `k`-th ordered location is the
//!   joint probability of the length-`k` prefix, and
//! * the excursion set `E⁺ᵤ,α` is the longest prefix whose joint probability is
//!   still at least `1 − α`.
//!
//! All `n` prefix probabilities come from **one** SOV sweep. The correlation
//! matrix `R̃ = L·Lᵀ` of the caller's factor is refactored in marginal order;
//! with the factor in that order, each chain's running product after row `k`
//! is its estimate of the length-`k` prefix, so the chain means after every
//! row ([`MvnEngine::solve_prefixes`]) are the whole confidence function —
//! exact at every site, pathwise non-increasing, no interpolation.
//! [`find_excursion_set`] reads its boundary off the same profile.
//!
//! Both entry points take an [`MvnEngine`]: the permuted factor is assembled,
//! factored and swept on its pool, so the probabilities are bitwise identical
//! for any worker count.

use crate::correlation::permuted_correlation;
use crate::marginal::{descending_order, marginal_exceedance};
use mvn_core::{Factor, MvnConfig, MvnEngine};
use tlr::TlrMatrix;

/// Configuration of a confidence-region detection run.
#[derive(Debug, Clone)]
pub struct CrdConfig {
    /// Exceedance threshold `u` (on the same scale as the mean/sd passed in).
    pub threshold: f64,
    /// Significance level `α` (the region has confidence `1 − α`).
    pub alpha: f64,
    /// How many evenly spaced prefix lengths [`CrdResult::prefix_probs`]
    /// lists (any value `≥ n`, e.g. `usize::MAX`, lists all `n`). Reporting
    /// only: every prefix is evaluated whatever its value.
    pub levels: usize,
    /// Sampling configuration of the underlying MVN probability estimator
    /// (sample size/kind, panel width, seed). The worker pool comes from the
    /// [`MvnEngine`] passed to the detection entry points.
    pub mvn: MvnConfig,
}

impl Default for CrdConfig {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            alpha: 0.05,
            levels: 20,
            mvn: MvnConfig::default(),
        }
    }
}

/// Output of [`detect_confidence_regions`].
#[derive(Debug, Clone)]
pub struct CrdResult {
    /// Marginal exceedance probability at every location.
    pub marginal: Vec<f64>,
    /// Location indices ordered by decreasing marginal probability (`opM`).
    pub order: Vec<usize>,
    /// `(prefix length, joint probability)` at `levels` evenly spaced prefix
    /// lengths, in increasing length (the last is always `n`).
    pub prefix_probs: Vec<(usize, f64)>,
    /// The positive confidence function `F⁺ᵤ` at every location (same indexing
    /// as `marginal`): the joint probability of the prefix ending at it.
    pub confidence: Vec<f64>,
}

/// The standardized lower limit of one prefix site (Algorithm 1, lines 9,
/// 12–13).
///
/// A degenerate site (`sd == 0`, e.g. a conditioned site of a kriging
/// posterior) contributes the hard limit of the standardization: its
/// exceedance is deterministic, so the limit is `-inf` when
/// `mean > threshold` (the event holds surely — factor 1) and `+inf`
/// otherwise (the event is impossible — every longer prefix has probability
/// 0). This matches [`marginal_exceedance`]'s deterministic convention; note
/// the naive division `(threshold - mean)/sd` would produce `NaN` at the
/// `mean == threshold` tie.
pub(crate) fn standardized_limit(mean: f64, sd: f64, threshold: f64) -> f64 {
    if sd > 0.0 {
        (threshold - mean) / sd
    } else if mean > threshold {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    }
}

/// Joint exceedance probability of every prefix of `order` — entry `k` for
/// its `k + 1` first sites — from one sweep over the correlation factor `l`
/// refactored in that order, clamped to `[0, 1]`. The permuted factor lives
/// only inside this call.
fn prefix_profile(
    engine: &MvnEngine,
    l: &TlrMatrix,
    mean: &[f64],
    sd: &[f64],
    threshold: f64,
    mvn: &MvnConfig,
    order: &[usize],
) -> Vec<f64> {
    let permuted = {
        let _span = obs::span("crd_permute");
        permuted_correlation(engine.pool(), l, order)
    };
    let permuted = {
        let _span = obs::span("crd_factor");
        (engine.factor(TlrMatrix::from(permuted)))
            .expect("the permuted correlation matrix must be positive definite")
    };
    let permuted = permuted
        .tiled()
        .expect("MvnEngine::factor returns a tiled factor");
    let a: Vec<f64> = (order.iter())
        .map(|&c| standardized_limit(mean[c], sd[c], threshold))
        .collect();
    let b = vec![f64::INFINITY; a.len()];
    let _span = obs::span("crd_sweep");
    (engine.solve_prefixes(permuted, &a, &b, mvn).iter())
        .map(|r| r.prob.clamp(0.0, 1.0))
        .collect()
}

/// Run Algorithm 1: marginal probabilities, ordering, the joint probability
/// of every prefix of the ordering, and the resulting confidence function.
///
/// `factor` is the Cholesky factor of the correlation matrix in location
/// order, dense or TLR; either way the marginal-order factor built from it is
/// dense (`n²/2` doubles while the call runs) and carries whatever
/// approximation `factor` holds.
///
/// # Panics
///
/// On a Vecchia factor, mismatched lengths, or `alpha` outside `(0, 1)`.
pub fn detect_confidence_regions(
    engine: &MvnEngine,
    factor: &Factor,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> CrdResult {
    let l = factor.tiled().expect(
        "confidence-region detection needs a dense or TLR correlation factor: \
         a Vecchia factor has no Cholesky rows to permute",
    );
    let n = mean.len();
    assert_eq!(sd.len(), n);
    assert_eq!(
        factor.dim(),
        n,
        "factor dimension must match number of locations"
    );
    assert!(cfg.alpha > 0.0 && cfg.alpha < 1.0, "alpha must be in (0,1)");

    let marginal = marginal_exceedance(mean, sd, cfg.threshold);
    let order = descending_order(&marginal);
    let profile = prefix_profile(engine, l, mean, sd, cfg.threshold, &cfg.mvn, &order);

    let mut confidence = vec![0.0; n];
    for (&site, &p) in order.iter().zip(&profile) {
        confidence[site] = p;
    }
    let levels = cfg.levels.max(1).min(n);
    let mut lens: Vec<usize> = (1..=levels).map(|k| (k * n).div_ceil(levels)).collect();
    lens.dedup();
    let prefix_probs = (lens.into_iter())
        .map(|len| (len, profile[len - 1]))
        .collect();

    CrdResult {
        marginal,
        order,
        prefix_probs,
        confidence,
    }
}

/// The excursion set at level `α`: all locations whose confidence function is
/// at least `1 − α`.
pub fn excursion_set(result: &CrdResult, alpha: f64) -> Vec<usize> {
    result
        .confidence
        .iter()
        .enumerate()
        .filter(|(_, &f)| f >= 1.0 - alpha)
        .map(|(i, _)| i)
        .collect()
}

/// The excursion set `E⁺ᵤ,α` at `cfg.alpha` and the joint probability of
/// that prefix (`1` for the empty set), read off the same one-sweep profile
/// as [`detect_confidence_regions`] — always exactly
/// `excursion_set(&detect_confidence_regions(..), cfg.alpha)`.
pub fn find_excursion_set(
    engine: &MvnEngine,
    factor: &Factor,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> (Vec<usize>, f64) {
    let result = detect_confidence_regions(engine, factor, mean, sd, cfg);
    let region = excursion_set(&result, cfg.alpha);
    let prob = match region.len() {
        0 => 1.0,
        len => result.confidence[result.order[len - 1]],
    };
    (region, prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::correlation_factor;
    use crate::validate::mc_validate;
    use geostat::{regular_grid, CovarianceKernel, MaternParams};
    use qmc::Xoshiro256pp;
    use tile_la::DenseMatrix;
    use tlr::CompressionTol;

    fn test_engine() -> MvnEngine {
        MvnEngine::builder().workers(2).build().unwrap()
    }

    /// Independent unit-variance field with a prescribed mean.
    fn independent_factor(n: usize) -> (Factor, Vec<f64>) {
        let cov = DenseMatrix::identity(n);
        correlation_factor(&test_engine(), &cov, (n / 3).max(2), None).unwrap()
    }

    fn spatial_cov(side: usize) -> (DenseMatrix, Vec<f64>) {
        let locs = regular_grid(side, side);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        };
        // A smooth mean surface: high in one corner, low in the other.
        let mean: Vec<f64> = locs.iter().map(|l| 2.0 - 3.0 * (l.x + l.y) / 2.0).collect();
        (k.dense_covariance(&locs, 1e-8), mean)
    }

    fn spatial_factor(side: usize) -> (Factor, Vec<f64>, Vec<f64>) {
        let (cov, mean) = spatial_cov(side);
        let (f, sd) = correlation_factor(&test_engine(), &cov, 32, None).unwrap();
        (f, sd, mean)
    }

    #[test]
    fn independent_case_confidence_equals_product_of_marginals() {
        // With independence, the joint probability of a prefix is the product
        // of its marginal probabilities, so the confidence function can be
        // checked in closed form at every site.
        let n = 10;
        let (factor, sd) = independent_factor(n);
        let mean: Vec<f64> = (0..n).map(|i| 3.0 - 0.4 * i as f64).collect();
        let cfg = CrdConfig {
            threshold: 0.0,
            alpha: 0.05,
            levels: n,
            mvn: MvnConfig::with_samples(500),
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        let marg = &r.marginal;
        assert_eq!(r.prefix_probs.len(), n);
        for len in 1..=n {
            let want: f64 = r.order[..len].iter().map(|&c| marg[c]).product();
            let got = r.confidence[r.order[len - 1]];
            assert!((got - want).abs() < 1e-6, "len={len}: {got} vs {want}");
            assert_eq!(r.prefix_probs[len - 1], (len, got));
        }
    }

    #[test]
    fn profile_is_bitwise_the_standalone_prefix_solve() {
        // The confidence of the k-th ordered site is bitwise the engine's
        // standalone solve of the length-k box against the permuted factor,
        // for dense and TLR inputs and on 1/2/4 workers.
        let (cov, mean) = spatial_cov(7);
        let (n, nb) = (49, 16);
        let (dense, sd) = correlation_factor(&test_engine(), &cov, nb, None).unwrap();
        let (tlr, _) = correlation_factor(
            &test_engine(),
            &cov,
            nb,
            Some(CompressionTol::Absolute(1e-6)),
        )
        .unwrap();
        let cfg = CrdConfig {
            threshold: 0.4,
            levels: usize::MAX,
            mvn: MvnConfig::with_samples(700),
            ..Default::default()
        };
        for factor in [&dense, &tlr] {
            let mut reference: Option<Vec<f64>> = None;
            for workers in [1usize, 2, 4] {
                let engine = MvnEngine::builder().workers(workers).build().unwrap();
                let r = detect_confidence_regions(&engine, factor, &mean, &sd, &cfg);
                let l = factor.tiled().unwrap();
                let permuted = permuted_correlation(engine.pool(), l, &r.order);
                let permuted = engine.factor(TlrMatrix::from(permuted)).unwrap();
                for k in [1, nb, nb + 1, n] {
                    let mut a = vec![f64::NEG_INFINITY; n];
                    for (limit, &c) in a.iter_mut().zip(&r.order[..k]) {
                        *limit = standardized_limit(mean[c], sd[c], cfg.threshold);
                    }
                    let b = vec![f64::INFINITY; n];
                    let solo = engine.solve_factored_with(&permuted, &a, &b, &cfg.mvn);
                    let got = r.confidence[r.order[k - 1]];
                    assert!(
                        got.to_bits() == solo.prob.clamp(0.0, 1.0).to_bits(),
                        "{} workers={workers} k={k}: {got} vs {}",
                        factor.kind().label(),
                        solo.prob
                    );
                }
                match &reference {
                    None => reference = Some(r.confidence),
                    Some(want) => assert!(
                        (r.confidence.iter().zip(want)).all(|(g, w)| g.to_bits() == w.to_bits()),
                        "workers={workers} changed the confidence function"
                    ),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a Vecchia factor has no Cholesky rows to permute")]
    fn vecchia_input_is_rejected() {
        let locs = regular_grid(4, 4);
        let kernel = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let engine = test_engine();
        let plan = mvn_core::full_conditioning_plan(locs.len());
        let factor = engine
            .factor_vecchia(plan, |i, j| kernel.cov_loc(&locs[i], &locs[j]))
            .unwrap();
        let n = locs.len();
        let cfg = CrdConfig::default();
        detect_confidence_regions(&engine, &factor, &vec![0.5; n], &vec![1.0; n], &cfg);
    }

    #[test]
    fn confidence_function_is_monotone_along_the_ordering() {
        let (factor, sd, mean) = spatial_factor(9);
        let cfg = CrdConfig {
            threshold: 0.5,
            alpha: 0.05,
            levels: 15,
            mvn: MvnConfig::with_samples(1000),
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        // Pathwise monotone: no clamping pass, not even a rounding-level
        // violation.
        for w in r.order.windows(2) {
            assert!(
                r.confidence[w[0]] >= r.confidence[w[1]],
                "confidence must decrease along the marginal ordering"
            );
        }
        // And it is bounded by the marginal probability (joint <= marginal).
        for i in 0..mean.len() {
            assert!(r.confidence[i] <= r.marginal[i] + 5e-2);
        }
        assert_eq!(r.prefix_probs.len(), 15);
        assert_eq!(r.prefix_probs.last().unwrap().0, mean.len());
    }

    #[test]
    fn excursion_set_shrinks_as_confidence_increases() {
        let (factor, sd, mean) = spatial_factor(8);
        let cfg = CrdConfig {
            threshold: 0.3,
            alpha: 0.05,
            levels: 16,
            mvn: MvnConfig::with_samples(1500),
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        let loose = excursion_set(&r, 0.5);
        let strict = excursion_set(&r, 0.01);
        assert!(strict.len() <= loose.len());
        for i in &strict {
            assert!(loose.contains(i));
        }
    }

    #[test]
    fn bisection_agrees_with_full_sweep_on_independent_case() {
        let n = 12;
        let (factor, sd) = independent_factor(n);
        let mean: Vec<f64> = (0..n).map(|i| 2.5 - 0.5 * i as f64).collect();
        let cfg = CrdConfig {
            threshold: 0.0,
            alpha: 0.1,
            levels: n,
            mvn: MvnConfig::with_samples(500),
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        let (region, prob) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(prob >= 1.0 - cfg.alpha);
        assert_eq!(region, excursion_set(&r, cfg.alpha));
        // The boundary probability is the product of the region's marginals.
        let want: f64 = region.iter().map(|&c| r.marginal[c]).product();
        assert!((prob - want).abs() < 1e-6, "{prob} vs {want}");
    }

    #[test]
    fn prefix_probability_edge_cases() {
        // Zero-mean independent field: the length-k prefix has probability
        // exactly 2^-k. `levels = 0` reports one level, the full prefix.
        let n = 5;
        let (factor, sd) = independent_factor(n);
        let cfg = CrdConfig {
            levels: 0,
            mvn: MvnConfig::with_samples(200),
            ..Default::default()
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &vec![0.0; n], &sd, &cfg);
        assert_eq!(r.prefix_probs.len(), 1);
        assert_eq!(r.prefix_probs[0].0, n);
        assert!((r.prefix_probs[0].1 - 0.5f64.powi(n as i32)).abs() < 1e-6);
        for (k, &site) in r.order.iter().enumerate() {
            assert!((r.confidence[site] - 0.5f64.powi(k as i32 + 1)).abs() < 1e-6);
        }
        // Nothing reaches 1 − α, so the region is empty with probability 1.
        let (region, prob) = find_excursion_set(&test_engine(), &factor, &vec![0.0; n], &sd, &cfg);
        assert!(region.is_empty());
        assert_eq!(prob, 1.0);
    }

    #[test]
    fn bisection_agrees_with_full_sweep_across_thresholds_and_alphas() {
        // `find_excursion_set` reads its boundary off the same profile as
        // `detect_confidence_regions`, so across thresholds and confidence
        // levels both select exactly the same region, and the reported
        // probability is the confidence of the region's last site.
        let (factor, sd, mean) = spatial_factor(7);
        let engine = test_engine();
        for &threshold in &[0.0, 0.4, 0.8] {
            for &alpha in &[0.05, 0.1, 0.3] {
                let cfg = CrdConfig {
                    threshold,
                    alpha,
                    levels: usize::MAX,
                    mvn: MvnConfig::with_samples(2000),
                };
                let r = detect_confidence_regions(&engine, &factor, &mean, &sd, &cfg);
                let sweep_region = excursion_set(&r, alpha);
                let (region, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
                assert!(region.is_empty() || prob >= 1.0 - alpha);
                assert_eq!(region, sweep_region, "threshold={threshold} alpha={alpha}");
                let last = region.iter().map(|&c| r.confidence[c]).fold(1.0, f64::min);
                assert!(prob.to_bits() == last.to_bits());
            }
        }
    }

    #[test]
    fn crd_handles_zero_variance_sites_end_to_end() {
        // A kriging posterior has sd == 0 at conditioned sites; CRD must
        // treat them deterministically instead of panicking (pre-fix:
        // `marginal_exceedance` asserted s > 0 and the limits divided by
        // zero).
        let locs = regular_grid(6, 6);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        };
        let mut cov = k.dense_covariance(&locs, 1e-8);
        let n = locs.len();
        let mut mean: Vec<f64> = locs.iter().map(|l| 1.5 - 2.0 * (l.x + l.y) / 2.0).collect();
        // Three observed sites: two surely above the threshold, one surely
        // below (and one exactly at it — not an exceedance).
        let (sure_hi, sure_lo, at_threshold) = (5usize, 20usize, 30usize);
        for &d in &[sure_hi, sure_lo, at_threshold] {
            for j in 0..n {
                cov.set(d, j, 0.0);
                cov.set(j, d, 0.0);
            }
        }
        let threshold = 0.5;
        mean[sure_hi] = 2.0;
        mean[sure_lo] = -1.0;
        mean[at_threshold] = threshold;
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 12, None).unwrap();
        assert_eq!(sd[sure_hi], 0.0);

        let cfg = CrdConfig {
            threshold,
            alpha: 0.05,
            levels: usize::MAX,
            mvn: MvnConfig::with_samples(1000),
        };
        let engine = test_engine();
        let r = detect_confidence_regions(&engine, &factor, &mean, &sd, &cfg);
        assert_eq!(r.marginal[sure_hi], 1.0);
        assert_eq!(r.marginal[sure_lo], 0.0);
        assert_eq!(r.marginal[at_threshold], 0.0, "ties are not exceedances");
        // The sure site sorts first and its prefix has probability exactly 1.
        assert_eq!(r.order[0], sure_hi);
        assert_eq!(r.prefix_probs[0].1, 1.0);
        // An impossible site zeroes its own prefix and every longer one.
        assert_eq!(r.confidence[sure_lo], 0.0);
        assert_eq!(r.confidence[at_threshold], 0.0);
        let region = excursion_set(&r, cfg.alpha);
        assert!(region.contains(&sure_hi), "sure site belongs to the region");
        assert!(!region.contains(&sure_lo));
        assert!(!region.contains(&at_threshold));
        let (bregion, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
        assert!(prob >= 1.0 - cfg.alpha);
        assert_eq!(
            bregion, region,
            "sweep and boundary search agree end-to-end"
        );
    }

    #[test]
    fn detected_regions_cover_at_the_engines_estimate_over_seeds() {
        // Monte-Carlo coverage of the detected region, over 30 fixed seeds of
        // the mean surface on an 8×8 Matérn field: every region's simulated
        // joint exceedance frequency must sit within 5 standard errors of
        // the engine's estimate of it, which is itself ≥ 1 − α.
        let locs = regular_grid(8, 8);
        let n = locs.len();
        let kernel = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.15,
            smoothness: 1.0,
        });
        let cov = kernel.dense_covariance(&locs, 1e-8);
        let (factor, sd) = correlation_factor(&test_engine(), &cov, 16, None).unwrap();
        let engine = test_engine();
        let (alpha, mc_samples) = (0.1, 4000);
        let mut non_empty = 0;
        for seed in 0..30u64 {
            let mut rng = Xoshiro256pp::seed_from(seed);
            let mean: Vec<f64> = (locs.iter())
                .map(|l| 1.6 - 2.0 * (l.x + l.y) / 2.0 + 0.3 * rng.next_normal())
                .collect();
            let cfg = CrdConfig {
                threshold: 0.0,
                alpha,
                levels: 8,
                mvn: MvnConfig {
                    sample_size: 1000,
                    seed,
                    ..Default::default()
                },
            };
            let (region, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
            if region.is_empty() {
                continue;
            }
            non_empty += 1;
            assert!(prob >= 1.0 - alpha, "seed {seed}: {prob}");
            // The engine's standard error of the same event, solved on its
            // own.
            let mut a = vec![f64::NEG_INFINITY; n];
            for &c in &region {
                a[c] = -mean[c] / sd[c];
            }
            let engine_se = engine
                .solve_factored_with(&factor, &a, &vec![f64::INFINITY; n], &cfg.mvn)
                .std_error;
            let mc = mc_validate(
                &engine, &factor, &mean, &sd, &region, 0.0, mc_samples, 500, seed,
            );
            let se = (mc.std_error.powi(2) + engine_se.powi(2)).sqrt();
            assert!(
                (mc.p_hat - prob).abs() <= 5.0 * se,
                "seed {seed}: {} sites, engine {prob} ± {engine_se}, Monte Carlo {mc:?}",
                region.len()
            );
        }
        assert!(
            non_empty >= 25,
            "only {non_empty} of 30 seeds detect a region"
        );
    }

    #[test]
    fn everything_qualifies_when_threshold_is_very_low() {
        let (factor, sd, mean) = spatial_factor(6);
        let cfg = CrdConfig {
            threshold: -50.0,
            alpha: 0.05,
            levels: 8,
            mvn: MvnConfig::with_samples(500),
        };
        let (region, prob) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert_eq!(region.len(), mean.len());
        assert!(prob > 0.99);
    }

    #[test]
    fn nothing_qualifies_when_threshold_is_very_high() {
        let (factor, sd, mean) = spatial_factor(6);
        let cfg = CrdConfig {
            threshold: 50.0,
            alpha: 0.05,
            levels: 8,
            mvn: MvnConfig::with_samples(500),
        };
        let (region, _) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(region.is_empty());
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(excursion_set(&r, 0.05).is_empty());
    }
}
