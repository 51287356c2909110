//! # excursion — confidence region (excursion set) detection
//!
//! Implements the paper's Algorithm 1: given a (posterior) Gaussian field over
//! a set of spatial locations, a threshold `u` and a confidence level `1 − α`,
//! find the largest region `E⁺ᵤ,α` such that the field exceeds `u` everywhere
//! in the region simultaneously with probability at least `1 − α`, together
//! with the positive confidence function `F⁺ᵤ(s)`.
//!
//! The joint exceedance probabilities are computed with the parallel PMVN
//! algorithm from [`mvn_core`], against either a dense or a TLR Cholesky
//! factor of the correlation matrix. A detection run is a *session* — many
//! MVN integrals and MC sampling blocks against one factor — so every entry
//! point takes an [`mvn_core::MvnEngine`] whose persistent worker pool is
//! shared across the whole run: the correlation is refactored in marginal
//! order and one SOV sweep yields the joint probability of every prefix of
//! that order, and [`validate::mc_validate`] runs its sampling blocks on the
//! same threads. The probabilities are bitwise identical for any worker
//! count.
//!
//! Modules:
//!
//! * [`marginal`] — per-location marginal exceedance probabilities and the
//!   descending ordering of Algorithm 1 (lines 3–6),
//! * [`crd`] — the one-sweep confidence function and the excursion set at a
//!   single confidence level (lines 9–15),
//! * [`correlation`] — helpers to turn a (posterior) covariance into the
//!   standardized correlation factor consumed by the MVN integrals, and to
//!   rebuild it in marginal order,
//! * [`validate`] — the Monte-Carlo validation estimator `p̂(α)` used in the
//!   paper's accuracy figures.

pub mod correlation;
pub mod crd;
pub mod marginal;
pub mod validate;

pub use correlation::{
    correlation_factor_dense, correlation_factor_tlr, correlation_matrix_dense,
    correlation_matrix_tlr, standard_deviations, CorrelationFactor,
};
pub use crd::{detect_confidence_regions, excursion_set, find_excursion_set, CrdConfig, CrdResult};
pub use marginal::{descending_order, marginal_exceedance};
pub use validate::{estimates_agree, mc_validate, McValidation};

#[cfg(test)]
mod tests {
    use super::*;
    use geostat::{regular_grid, simulate_field, CovarianceKernel};
    use mvn_core::{MvnConfig, MvnEngine};

    #[test]
    fn full_pipeline_on_a_small_synthetic_field() {
        // Simulate a field, detect the 0.95-confidence region for a moderate
        // threshold, and check basic coherence properties: the region is a
        // subset of the marginal-probability region, and the confidence
        // function is higher for locations with higher marginal probability.
        let locs = regular_grid(12, 12);
        let kernel = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.2,
        };
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let field = simulate_field(&locs, &kernel, 0.0, 5, engine.pool());
        let cov = kernel.dense_covariance(&locs, 1e-8);
        let (factor, sd) = correlation_factor_dense(&cov, 36);

        let cfg = CrdConfig {
            threshold: 0.5,
            alpha: 0.05,
            levels: 12,
            mvn: MvnConfig::with_samples(2000),
        };
        let result = detect_confidence_regions(&engine, &factor, &field.values, &sd, &cfg);
        let region = excursion_set(&result, 0.05);
        let marginal_region: Vec<usize> = result
            .marginal
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= 0.95)
            .map(|(i, _)| i)
            .collect();
        // The joint region can never be larger than the marginal one.
        assert!(region.len() <= marginal_region.len());
        for i in &region {
            assert!(marginal_region.contains(i), "joint region must be a subset");
        }
    }
}
