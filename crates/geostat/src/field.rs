//! Gaussian random field simulation.
//!
//! The synthetic experiments of the paper (Fig. 1) start from a latent field
//! `x ~ N(µ, Σ)` simulated on a regular grid; a random subset of locations is
//! then observed with additive `N(0, 0.5²)` noise. This module provides both
//! steps.

use crate::covariance::CovarianceKernel;
use crate::geometry::Location;
use qmc::Xoshiro256pp;
use task_runtime::WorkerPool;
use tile_la::DenseMatrix;
use tlr::{potrf_tlr, TlrMatrix};

/// A simulated field: the latent values at every location.
#[derive(Debug, Clone)]
pub struct FieldSample {
    /// Latent field values `x(sᵢ)`.
    pub values: Vec<f64>,
    /// The constant mean that was added.
    pub mean: f64,
}

/// Observations of a field at a subset of locations.
#[derive(Debug, Clone)]
pub struct Observations {
    /// Indices (into the full location list) of the observed sites.
    pub indices: Vec<usize>,
    /// Noisy observed values `y = x(s) + ε`.
    pub values: Vec<f64>,
    /// Observation noise standard deviation.
    pub noise_sd: f64,
}

/// Simulate a zero-mean-plus-constant Gaussian random field `x ~ N(mean·1, Σ)`
/// at the given locations.
///
/// The covariance is assembled in tiled form, its tiles move into a dense
/// [`TlrMatrix`] and are factored by the parallel tiled Cholesky
/// ([`potrf_tlr`]) on the caller's `pool` (e.g. an `mvn_core::MvnEngine`'s),
/// and the sample is `mean + L·z` with `z` i.i.d. standard normal. The sample is
/// bitwise the same on every pool: the factor is worker-count-deterministic
/// and the RNG stream depends only on `seed`.
pub fn simulate_field(
    locs: &[Location],
    kernel: &CovarianceKernel,
    mean: f64,
    seed: u64,
    pool: &WorkerPool,
) -> FieldSample {
    let n = locs.len();
    let nb = default_tile_size(n);
    let mut l = TlrMatrix::from(kernel.tiled_covariance(locs, nb, 1e-10 * kernel.sigma2()));
    potrf_tlr(&mut l, pool).expect("covariance matrix must be positive definite");
    let mut rng = Xoshiro256pp::seed_from(seed);
    let z = DenseMatrix::from_fn(n, 1, |_, _| rng.next_normal());
    let x = l.multiply_lower_panel(&z);
    FieldSample {
        values: (0..n).map(|i| mean + x.get(i, 0)).collect(),
        mean,
    }
}

/// Observe `n_obs` randomly chosen locations of a simulated field with additive
/// Gaussian noise of standard deviation `noise_sd` (the paper uses 6,250
/// samples with `N(0, 0.5²)` noise out of 40,000 sites).
pub fn simulate_observations(
    field: &FieldSample,
    n_obs: usize,
    noise_sd: f64,
    seed: u64,
) -> Observations {
    let n = field.values.len();
    assert!(n_obs <= n, "cannot observe more sites than exist");
    let mut rng = Xoshiro256pp::seed_from(seed);
    // Partial Fisher–Yates to choose n_obs distinct indices.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..n_obs {
        let j = i + (rng.next_u64() as usize) % (n - i);
        idx.swap(i, j);
    }
    let mut indices: Vec<usize> = idx[..n_obs].to_vec();
    indices.sort_unstable();
    let values = indices
        .iter()
        .map(|&i| field.values[i] + noise_sd * rng.next_normal())
        .collect();
    Observations {
        indices,
        values,
        noise_sd,
    }
}

/// A reasonable default tile size for a problem of dimension `n`: large enough
/// that per-tile kernel overheads are amortized, small enough to expose
/// parallelism on a multicore host.
pub fn default_tile_size(n: usize) -> usize {
    if n <= 256 {
        (n / 4).max(32).min(n)
    } else if n <= 4096 {
        128
    } else {
        256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::regular_grid;

    /// A field on a one-worker pool, which runs every task inline.
    fn simulate(locs: &[Location], mean: f64, seed: u64) -> FieldSample {
        simulate_field(locs, &test_kernel(), mean, seed, &WorkerPool::new(1))
    }

    fn test_kernel() -> CovarianceKernel {
        CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.15,
        }
    }

    #[test]
    fn simulated_field_has_plausible_moments() {
        let locs = regular_grid(20, 20);
        let sample = simulate(&locs, 0.0, 7);
        assert_eq!(sample.values.len(), 400);
        let mean: f64 = sample.values.iter().sum::<f64>() / 400.0;
        let var: f64 = sample
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / 400.0;
        // Spatially correlated field: the empirical variance is noisy, but it
        // must be positive and of order sigma^2.
        assert!(var > 0.05 && var < 5.0, "var={var}");
        assert!(mean.abs() < 2.0, "mean={mean}");
        assert!(sample.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mean_shift_is_applied() {
        let locs = regular_grid(10, 10);
        let a = simulate(&locs, 0.0, 3);
        let b = simulate(&locs, 10.0, 3);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((y - x - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pooled_simulation_is_bitwise_identical_to_plain() {
        let locs = regular_grid(14, 14);
        // "Plain" is the one-worker pool: every task inline on the caller.
        let plain = simulate(&locs, 0.5, 21);
        let pool = WorkerPool::new(3);
        for _ in 0..3 {
            let pooled = simulate_field(&locs, &test_kernel(), 0.5, 21, &pool);
            for (a, b) in plain.values.iter().zip(&pooled.values) {
                assert!(a.to_bits() == b.to_bits());
            }
        }
        // One non-empty task set per simulation.
        assert_eq!(pool.stats().graphs_run, 3);
    }

    #[test]
    fn same_seed_reproduces_field() {
        let locs = regular_grid(12, 12);
        let a = simulate(&locs, 0.0, 99);
        let b = simulate(&locs, 0.0, 99);
        assert_eq!(a.values, b.values);
        let c = simulate(&locs, 0.0, 100);
        assert_ne!(a.values, c.values);
    }

    #[test]
    fn nearby_points_are_more_similar_than_distant_points() {
        // Average over several replicates to make the spatial-correlation check stable.
        let locs = regular_grid(25, 25);
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        let reps = 8;
        for r in 0..reps {
            let s = simulate(&locs, 0.0, 1000 + r);
            near_diff += (s.values[0] - s.values[1]).powi(2);
            far_diff += (s.values[0] - s.values[624]).powi(2);
        }
        assert!(
            near_diff < far_diff,
            "near {near_diff} should be smaller than far {far_diff}"
        );
    }

    #[test]
    fn observations_select_distinct_indices_with_noise() {
        let locs = regular_grid(15, 15);
        let field = simulate(&locs, 0.0, 5);
        let obs = simulate_observations(&field, 60, 0.5, 11);
        assert_eq!(obs.indices.len(), 60);
        assert_eq!(obs.values.len(), 60);
        let mut sorted = obs.indices.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 60, "observation indices must be distinct");
        // Noise: observed values differ from the latent ones but not wildly.
        let mse: f64 = obs
            .indices
            .iter()
            .zip(&obs.values)
            .map(|(&i, &y)| (y - field.values[i]).powi(2))
            .sum::<f64>()
            / 60.0;
        assert!(mse > 0.01 && mse < 2.0, "mse={mse}");
    }

    #[test]
    fn observing_every_site_works() {
        let locs = regular_grid(6, 6);
        let field = simulate(&locs, 0.0, 8);
        let obs = simulate_observations(&field, 36, 0.0, 9);
        assert_eq!(obs.indices, (0..36).collect::<Vec<_>>());
        for (&i, &y) in obs.indices.iter().zip(&obs.values) {
            assert!((y - field.values[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn default_tile_size_is_sane() {
        assert!(default_tile_size(100) <= 100);
        assert_eq!(default_tile_size(2000), 128);
        assert_eq!(default_tile_size(40_000), 256);
    }

    #[test]
    #[should_panic]
    fn too_many_observations_panic() {
        let locs = regular_grid(5, 5);
        let field = simulate(&locs, 0.0, 2);
        simulate_observations(&field, 26, 0.1, 3);
    }
}
