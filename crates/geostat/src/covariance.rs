//! Covariance kernels and covariance-matrix assembly.
//!
//! The paper uses the Matérn family (Eq. 6) with parameters
//! `θ = (σ², range a, smoothness ν)` and, for the synthetic experiments, the
//! exponential kernel (Matérn with ν = 1/2) at ranges 0.033 / 0.1 / 0.234.

use crate::geometry::Location;
use mathx::{bessel_k, gamma, ln_gamma};
use tile_la::{DenseMatrix, SymTileMatrix};
use tlr::{CompressionTol, TlrMatrix};

/// Matérn covariance parameters `θ = (σ², a, ν)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaternParams {
    /// Marginal variance σ² > 0.
    pub sigma2: f64,
    /// Spatial range a > 0.
    pub range: f64,
    /// Smoothness ν > 0.
    pub smoothness: f64,
}

impl MaternParams {
    /// Parameters in the `(σ², a, ν)` vector order used by the MLE.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![self.sigma2, self.range, self.smoothness]
    }

    /// Inverse of [`to_vec`](Self::to_vec).
    pub fn from_slice(v: &[f64]) -> Self {
        Self {
            sigma2: v[0],
            range: v[1],
            smoothness: v[2],
        }
    }
}

/// A stationary, isotropic covariance kernel `C(‖h‖; θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CovarianceKernel {
    /// Exponential kernel `σ²·exp(−d/a)` (Matérn with ν = 1/2, evaluated in
    /// closed form).
    Exponential {
        /// Marginal variance.
        sigma2: f64,
        /// Range parameter.
        range: f64,
    },
    /// Matérn kernel of Eq. (6) with arbitrary smoothness.
    Matern(MaternParams),
    /// Squared-exponential (Gaussian) kernel `σ²·exp(−d²/(2a²))` — the ν → ∞
    /// limit, used in tests and ablations.
    SquaredExponential {
        /// Marginal variance.
        sigma2: f64,
        /// Range parameter.
        range: f64,
    },
}

impl CovarianceKernel {
    /// Evaluate the covariance at distance `d ≥ 0`.
    pub fn cov(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        match *self {
            CovarianceKernel::Exponential { sigma2, range } => sigma2 * (-d / range).exp(),
            CovarianceKernel::SquaredExponential { sigma2, range } => {
                sigma2 * (-0.5 * (d / range).powi(2)).exp()
            }
            CovarianceKernel::Matern(MaternParams {
                sigma2,
                range,
                smoothness: nu,
            }) => {
                if d == 0.0 {
                    return sigma2;
                }
                // Closed forms for the common half-integer smoothness values,
                // under the paper's Eq. (6) parameterization (argument d/a with
                // no sqrt(2·nu) rescaling).
                let s = d / range;
                if (nu - 0.5).abs() < 1e-12 {
                    sigma2 * (-s).exp()
                } else if (nu - 1.5).abs() < 1e-12 {
                    sigma2 * (1.0 + s) * (-s).exp()
                } else if (nu - 2.5).abs() < 1e-12 {
                    sigma2 * (1.0 + s + s * s / 3.0) * (-s).exp()
                } else {
                    // General case via the modified Bessel function, as in Eq. (6):
                    // sigma^2 * 2^{1-nu}/Gamma(nu) * s^nu * K_nu(s).
                    let log_pref = (1.0 - nu) * std::f64::consts::LN_2 - ln_gamma(nu);
                    let k = bessel_k(nu, s);
                    if k == 0.0 {
                        return 0.0;
                    }
                    sigma2 * (log_pref + nu * s.ln()).exp() * k
                }
            }
        }
    }

    /// Marginal variance `C(0)`.
    pub fn sigma2(&self) -> f64 {
        match *self {
            CovarianceKernel::Exponential { sigma2, .. }
            | CovarianceKernel::SquaredExponential { sigma2, .. } => sigma2,
            CovarianceKernel::Matern(MaternParams { sigma2, .. }) => sigma2,
        }
    }

    /// Covariance between two locations.
    pub fn cov_loc(&self, a: &Location, b: &Location) -> f64 {
        self.cov(a.distance(b))
    }

    /// Assemble the dense covariance matrix for a set of locations, optionally
    /// adding a small diagonal `nugget` for numerical stability.
    pub fn dense_covariance(&self, locs: &[Location], nugget: f64) -> DenseMatrix {
        let n = locs.len();
        DenseMatrix::from_fn(n, n, |i, j| {
            self.cov_loc(&locs[i], &locs[j]) + if i == j { nugget } else { 0.0 }
        })
    }

    /// Assemble the covariance matrix in symmetric-tile storage (lower tiles),
    /// generated tile-by-tile in parallel.
    pub fn tiled_covariance(&self, locs: &[Location], nb: usize, nugget: f64) -> SymTileMatrix {
        let n = locs.len();
        SymTileMatrix::from_fn(n, nb, |i, j| {
            self.cov_loc(&locs[i], &locs[j]) + if i == j { nugget } else { 0.0 }
        })
    }

    /// Assemble the covariance matrix directly in TLR format.
    pub fn tlr_covariance(
        &self,
        locs: &[Location],
        nb: usize,
        nugget: f64,
        tol: CompressionTol,
        max_rank: usize,
    ) -> TlrMatrix {
        let n = locs.len();
        TlrMatrix::from_fn(n, nb, tol, max_rank, |i, j| {
            self.cov_loc(&locs[i], &locs[j]) + if i == j { nugget } else { 0.0 }
        })
    }
}

/// The Matérn normalizing constant `2^{1−ν}/Γ(ν)` (exposed for tests).
pub fn matern_prefactor(nu: f64) -> f64 {
    2f64.powf(1.0 - nu) / gamma(nu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::regular_grid;
    use mathx::relative_error;

    #[test]
    fn matern_half_equals_exponential() {
        let m = CovarianceKernel::Matern(MaternParams {
            sigma2: 2.0,
            range: 0.3,
            smoothness: 0.5,
        });
        let e = CovarianceKernel::Exponential {
            sigma2: 2.0,
            range: 0.3,
        };
        for &d in &[0.0, 0.01, 0.1, 0.5, 1.0, 3.0] {
            assert!(relative_error(m.cov(d), e.cov(d)) < 1e-12, "d={d}");
        }
    }

    #[test]
    fn general_matern_matches_half_integer_closed_forms() {
        for &nu in &[0.5, 1.5, 2.5] {
            let closed = CovarianceKernel::Matern(MaternParams {
                sigma2: 1.3,
                range: 0.2,
                smoothness: nu,
            });
            // Force the general Bessel path by perturbing nu imperceptibly.
            let general = CovarianceKernel::Matern(MaternParams {
                sigma2: 1.3,
                range: 0.2,
                smoothness: nu + 1e-9,
            });
            for &d in &[0.01, 0.05, 0.2, 0.6] {
                assert!(
                    relative_error(closed.cov(d), general.cov(d)) < 1e-6,
                    "nu={nu}, d={d}: {} vs {}",
                    closed.cov(d),
                    general.cov(d)
                );
            }
        }
    }

    #[test]
    fn covariance_properties_hold() {
        let kernels = [
            CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: 0.1,
            },
            CovarianceKernel::Matern(MaternParams {
                sigma2: 1.0,
                range: 0.1,
                smoothness: 1.0,
            }),
            CovarianceKernel::SquaredExponential {
                sigma2: 1.0,
                range: 0.1,
            },
        ];
        for k in kernels {
            assert!((k.cov(0.0) - 1.0).abs() < 1e-12);
            // Monotone decreasing in distance.
            let mut prev = k.cov(0.0);
            for i in 1..30 {
                let v = k.cov(i as f64 * 0.05);
                assert!(v <= prev + 1e-15);
                assert!(v >= 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn wind_parameters_from_the_paper_produce_valid_kernel() {
        // The paper's fitted wind parameters: (1, 0.005069, 1.43391).
        let k = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.005069,
            smoothness: 1.43391,
        });
        assert!((k.cov(0.0) - 1.0).abs() < 1e-12);
        let v = k.cov(0.01);
        assert!(v > 0.0 && v < 1.0);
        assert!(k.cov(0.5) < 1e-10); // essentially uncorrelated far away
    }

    #[test]
    fn dense_and_tiled_assembly_agree() {
        let locs = regular_grid(7, 6);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.2,
        };
        let dense = k.dense_covariance(&locs, 1e-8);
        let tiled = k.tiled_covariance(&locs, 10, 1e-8);
        assert!(tile_la::max_abs_diff(&dense, &tiled.to_dense_sym()) < 1e-14);
    }

    #[test]
    fn tlr_assembly_approximates_dense() {
        let locs = regular_grid(8, 8);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let dense = k.dense_covariance(&locs, 0.0);
        let tlr = k.tlr_covariance(&locs, 16, 0.0, CompressionTol::Absolute(1e-7), usize::MAX);
        assert!(tile_la::max_abs_diff(&dense, &tlr.to_dense_sym()) < 1e-5);
    }

    #[test]
    fn covariance_matrix_is_positive_definite() {
        let locs = regular_grid(9, 9);
        let k = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.15,
            smoothness: 1.5,
        });
        let mut sym = k.tiled_covariance(&locs, 20, 1e-10);
        assert!(tile_la::potrf_tiled(&mut sym, &task_runtime::WorkerPool::new(1)).is_ok());
    }

    #[test]
    fn prefactor_sane() {
        assert!(
            relative_error(
                matern_prefactor(0.5),
                2f64.powf(0.5) / std::f64::consts::PI.sqrt()
            ) < 1e-12
        );
        assert!((matern_prefactor(1.0) - 1.0).abs() < 1e-12);
    }
}
