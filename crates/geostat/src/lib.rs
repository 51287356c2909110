//! # geostat — geostatistics substrate
//!
//! A pure-Rust substitute for the ExaGeoStat functionality the paper relies on:
//!
//! * [`geometry`] — spatial locations, regular and jittered grids, distances,
//! * [`covariance`] — the Matérn family (including the exponential special
//!   case), covariance-matrix assembly into dense, tiled or TLR storage,
//! * [`field`] — Gaussian random field simulation from a Cholesky factor and
//!   noisy-observation generation,
//! * [`posterior`] — the posterior mean/covariance update of the paper's
//!   Eq. (7)–(8) for partially observed fields,
//! * [`optim`] + [`mle`] — Nelder–Mead maximum-likelihood estimation of Matérn
//!   parameters (the ExaGeoStat + NLopt step),
//! * [`vecchia`] — maximin/coordinate orderings and k-nearest
//!   conditioning-set selection feeding the `mvn-core` Vecchia backend,
//! * [`wind`] — a synthetic Saudi-Arabia-like wind-speed dataset generator
//!   standing in for the proprietary reanalysis data used in Section V.

pub mod covariance;
pub mod field;
pub mod fingerprint;
pub mod geometry;
pub mod mle;
pub mod optim;
pub mod posterior;
pub mod vecchia;
pub mod wind;

pub use covariance::{CovarianceKernel, MaternParams, MAX_MATERN_SMOOTHNESS};
pub use field::{simulate_field, simulate_observations, FieldSample};
pub use fingerprint::{fingerprint_covariance, fingerprint_kernel, fingerprint_locations, Fnv1a};
pub use geometry::{jittered_grid, regular_grid, Location};
pub use mle::{fit_matern, gaussian_loglik, MleResult};
pub use optim::{nelder_mead, NelderMeadOptions, OptimResult};
pub use posterior::{posterior_update, Posterior};
pub use vecchia::{conditioning_sets, coordinate_order, maximin_order};
pub use wind::{default_fluctuation_params, orographic_mean, synthetic_wind_dataset, WindDataset};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_simulate_then_refit_recovers_parameters_roughly() {
        // Simulate a field from known Matérn parameters on a small grid and
        // check the MLE lands in a sensible neighbourhood. This is the
        // ExaGeoStat "generate then estimate" loop used by the paper to obtain
        // theta-hat before running confidence-region detection.
        let locs = regular_grid(18, 18);
        let truth = MaternParams {
            sigma2: 1.0,
            range: 0.12,
            smoothness: 0.5,
        };
        let kernel = CovarianceKernel::Matern(truth);
        let pool = task_runtime::WorkerPool::new(2);
        let sample = simulate_field(&locs, &kernel, 0.0, 2024, &pool);
        let fit =
            fit_matern(&locs, &sample.values, truth, false, &pool).expect("fit should converge");
        assert!(
            fit.params.sigma2 > 0.2 && fit.params.sigma2 < 5.0,
            "{:?}",
            fit.params
        );
        assert!(
            fit.params.range > 0.02 && fit.params.range < 0.6,
            "{:?}",
            fit.params
        );
        // The refit likelihood should not be worse than the truth's likelihood.
        let truth_ll = gaussian_loglik(&locs, &sample.values, &kernel, &pool);
        assert!(fit.loglik >= truth_ll - 1e-6);
    }
}
