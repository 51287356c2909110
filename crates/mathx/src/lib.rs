//! # mathx — special functions for Gaussian computation
//!
//! This crate provides the scalar special functions needed by the
//! Separation-of-Variables (SOV) multivariate normal probability algorithm and
//! the Matérn covariance family:
//!
//! * [`erf()`]/[`erfc`] — error function and its complement (Cody/SPECFUN rational
//!   approximations, ~1e-15 relative accuracy away from the deep tail),
//! * [`norm_cdf`] (Φ), [`norm_pdf`] (φ), [`norm_quantile`] (Φ⁻¹, Wichura AS241),
//!   and the numerically safe difference [`norm_cdf_diff`],
//! * [`ln_gamma`] — log gamma function (Lanczos),
//! * [`bessel_k`] — modified Bessel function of the second kind `K_ν(x)` for real
//!   order ν ≥ 0 (Temme series + continued fractions, Numerical-Recipes style),
//!   required by the Matérn covariance,
//! * numeric helpers used across the workspace ([`relative_error`], [`clamp_unit`]),
//! * batched slice forms of the normal primitives ([`batch`]:
//!   [`norm_cdf_slice`], [`norm_quantile_slice`],
//!   [`norm_cdf_and_diff_slice`]) — bitwise identical to the scalar
//!   functions, shaped for the chain-major PMVN kernel's contiguous lanes.
//!
//! Everything is allocation-free, so it can be called from the innermost
//! loops of the tiled QMC kernels.

pub mod batch;
pub mod bessel;
pub mod erf;
pub mod gamma;
pub mod normal;
pub mod util;

pub use batch::{norm_cdf_and_diff_slice, norm_cdf_slice, norm_quantile_slice};
pub use bessel::{bessel_i, bessel_k};
pub use erf::{erf, erfc};
#[cfg(test)]
use gamma::gamma;
pub use gamma::ln_gamma;
pub use normal::{norm_cdf, norm_cdf_diff, norm_pdf, norm_quantile, norm_sf, standardize};
pub use util::{clamp_unit, relative_error};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn cdf_and_quantile_roundtrip_over_wide_range() {
        for i in 1..1000 {
            let p = i as f64 / 1000.0;
            let x = norm_quantile(p);
            let p2 = norm_cdf(x);
            assert!(
                (p - p2).abs() < 1e-12,
                "roundtrip failed at p={p}: x={x}, p2={p2}"
            );
        }
    }

    #[test]
    fn matern_half_consistency_between_gamma_and_bessel() {
        // For nu = 1/2, the Matérn kernel reduces to the exponential kernel:
        // sigma^2 * 2^(1-nu)/Gamma(nu) * r^nu * K_nu(r) == sigma^2 * exp(-r).
        let nu = 0.5f64;
        for &r in &[0.01f64, 0.1, 0.5, 1.0, 2.0, 5.0] {
            let matern = 2.0f64.powf(1.0 - nu) / gamma(nu) * r.powf(nu) * bessel_k(nu, r);
            let expo = (-r).exp();
            assert!(
                relative_error(matern, expo) < 1e-9,
                "r={r}: matern={matern} exp={expo}"
            );
        }
    }
}
