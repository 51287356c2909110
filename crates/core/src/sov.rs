//! The scalar Separation-of-Variables recursion (Genz's transformation).
//!
//! For one sample `w ∈ [0,1)^n` and a lower-triangular Cholesky factor `L`,
//! the recursion walks the variables in order, at step `i` forming the
//! conditional limits
//!
//! ```text
//! a'_i = (a_i − Σ_{j<i} L_{ij} y_j) / L_{ii}
//! b'_i = (b_i − Σ_{j<i} L_{ij} y_j) / L_{ii}
//! ```
//!
//! multiplying the running probability by `Φ(b'_i) − Φ(a'_i)` and drawing
//! `y_i = Φ⁻¹(Φ(a'_i) + w_i·(Φ(b'_i) − Φ(a'_i)))`. The product over all `i`
//! is an unbiased estimate of `Φₙ(a, b; 0, Σ)` when `w` is uniform.

use mathx::{clamp_unit, norm_cdf, norm_cdf_diff, norm_quantile};
use tile_la::DenseMatrix;

/// Evaluate the SOV chain for a single sample.
///
/// * `l` — dense lower-triangular Cholesky factor (`n × n`),
/// * `a`, `b` — integration limits (entries may be ±∞),
/// * `w` — one uniform sample in `[0,1)^n`,
/// * `y` — workspace of length `n` (overwritten).
///
/// Returns the per-sample probability product. The recursion short-circuits to
/// 0 as soon as the running product underflows to exactly zero.
pub fn sov_sample_probability(
    l: &DenseMatrix,
    a: &[f64],
    b: &[f64],
    w: &[f64],
    y: &mut [f64],
) -> f64 {
    let n = a.len();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(w.len(), n);
    debug_assert_eq!(y.len(), n);
    debug_assert_eq!(l.nrows(), n);

    let mut prob = 1.0;
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..i {
            s += l.get(i, j) * y[j];
        }
        let lii = l.get(i, i);
        debug_assert!(lii > 0.0, "Cholesky factor must have positive diagonal");
        let ai = if a[i] == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            (a[i] - s) / lii
        };
        let bi = if b[i] == f64::INFINITY {
            f64::INFINITY
        } else {
            (b[i] - s) / lii
        };
        let phi_a = norm_cdf(ai);
        let diff = norm_cdf_diff(ai, bi);
        prob *= diff;
        if prob == 0.0 {
            // The remaining factors cannot resurrect the product; still fill y
            // deterministically so callers relying on its length are safe.
            for yk in y.iter_mut().skip(i) {
                *yk = 0.0;
            }
            return 0.0;
        }
        let u = clamp_unit(phi_a + w[i] * diff);
        y[i] = norm_quantile(u);
    }
    prob
}

/// Evaluate the Vecchia ordered-conditioning SOV chain for a single sample —
/// the scalar reference recursion of the panel kernel in [`crate::vecchia`].
///
/// Ordered step `k` visits location `order[k]`, conditions on the stored
/// neighbor values in the plan's fixed order, multiplies the running
/// probability by the conditional interval mass and draws the step's value
/// exactly as [`sov_sample_probability`] does against a dense factor — so
/// with a full conditioning plan (`m = n − 1`, identity order) the two
/// recursions agree to round-off, which the property tests pin.
///
/// * `factor` — a built Vecchia factor,
/// * `a`, `b` — integration limits over *original* coordinates (entries may
///   be ±∞),
/// * `w` — one uniform sample in `[0,1)^n` consumed in ordered-step order,
/// * `x` — workspace of length `n` for the simulated values per ordered step
///   (overwritten).
pub fn vecchia_sample_probability(
    factor: &crate::vecchia::VecchiaFactor,
    a: &[f64],
    b: &[f64],
    w: &[f64],
    x: &mut [f64],
) -> f64 {
    let n = a.len();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(w.len(), n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(factor.plan().n(), n);

    let mut prob = 1.0;
    for k in 0..n {
        let (i, d, nbrs, coeffs) = factor.step(k);
        let mut s = 0.0;
        for (&c, &co) in nbrs.iter().zip(coeffs) {
            s += co * x[c as usize];
        }
        let ai = if a[i] == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            (a[i] - s) / d
        };
        let bi = if b[i] == f64::INFINITY {
            f64::INFINITY
        } else {
            (b[i] - s) / d
        };
        let phi_a = norm_cdf(ai);
        let diff = norm_cdf_diff(ai, bi);
        prob *= diff;
        if prob == 0.0 {
            for xk in x.iter_mut().skip(k) {
                *xk = 0.0;
            }
            return 0.0;
        }
        let u = clamp_unit(phi_a + w[k] * diff);
        x[k] = s + d * norm_quantile(u);
    }
    prob
}

/// Replace infinite limits by finite "numerical infinity" values (±8.5 standard
/// deviations), which some kernels prefer to avoid special-casing IEEE
/// infinities in hot loops. Φ(−8.5) ≈ 1e−17, far below QMC resolution.
pub fn truncate_limits(a: &[f64], b: &[f64], cutoff: f64) -> (Vec<f64>, Vec<f64>) {
    assert!(cutoff > 0.0);
    let at = a
        .iter()
        .map(|&x| if x == f64::NEG_INFINITY { -cutoff } else { x })
        .collect();
    let bt = b
        .iter()
        .map(|&x| if x == f64::INFINITY { cutoff } else { x })
        .collect();
    (at, bt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::norm_cdf;

    fn identity_l(n: usize) -> DenseMatrix {
        DenseMatrix::identity(n)
    }

    #[test]
    fn independent_case_gives_exact_product_for_any_sample() {
        // With L = I the probability factorizes exactly, independent of w.
        let n = 4;
        let l = identity_l(n);
        let a = vec![-1.0, -0.5, 0.0, f64::NEG_INFINITY];
        let b = vec![1.0, 0.5, f64::INFINITY, 0.0];
        let w = vec![0.3, 0.9, 0.1, 0.5];
        let mut y = vec![0.0; n];
        let p = sov_sample_probability(&l, &a, &b, &w, &mut y);
        let want: f64 = (0..n)
            .map(|i| norm_cdf(b[i].min(1e30)) - norm_cdf(a[i].max(-1e30)))
            .product();
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    #[test]
    fn zero_width_interval_returns_zero() {
        let l = identity_l(3);
        let a = vec![0.5, -1.0, -1.0];
        let b = vec![0.5, 1.0, 1.0];
        let w = vec![0.2, 0.2, 0.2];
        let mut y = vec![0.0; 3];
        assert_eq!(sov_sample_probability(&l, &a, &b, &w, &mut y), 0.0);
    }

    #[test]
    fn scaling_the_factor_scales_the_effective_limits() {
        // For a 1-D problem with L = [2], P(a < X < b) with X ~ N(0, 4).
        let l = DenseMatrix::from_column_major(1, 1, vec![2.0]);
        let a = vec![-2.0];
        let b = vec![2.0];
        let w = vec![0.77];
        let mut y = vec![0.0];
        let p = sov_sample_probability(&l, &a, &b, &w, &mut y);
        let want = norm_cdf(1.0) - norm_cdf(-1.0);
        assert!((p - want).abs() < 1e-14);
    }

    #[test]
    fn sample_value_depends_on_w_but_probability_is_deterministic_when_independent() {
        let l = identity_l(2);
        let a = vec![-1.0, -1.0];
        let b = vec![1.0, 1.0];
        let mut y1 = vec![0.0; 2];
        let mut y2 = vec![0.0; 2];
        let p1 = sov_sample_probability(&l, &a, &b, &[0.1, 0.1], &mut y1);
        let p2 = sov_sample_probability(&l, &a, &b, &[0.9, 0.9], &mut y2);
        assert!((p1 - p2).abs() < 1e-15);
        assert!(y1[0] < y2[0]);
    }

    #[test]
    fn correlated_case_probability_depends_on_sample() {
        // With correlation, the conditional limits move with y_0 and therefore with w_0.
        let l = DenseMatrix::from_column_major(2, 2, vec![1.0, 0.9, 0.0, (1.0f64 - 0.81).sqrt()]);
        let a = vec![0.0, 0.0];
        let b = vec![f64::INFINITY, f64::INFINITY];
        let mut y = vec![0.0; 2];
        let p_low = sov_sample_probability(&l, &a, &b, &[0.05, 0.5], &mut y);
        let p_high = sov_sample_probability(&l, &a, &b, &[0.95, 0.5], &mut y);
        assert!(p_high > p_low, "{p_high} vs {p_low}");
    }

    #[test]
    fn vecchia_full_conditioning_matches_the_dense_recursion() {
        // With the full conditioning plan (identity order, every previous
        // location in each set) the Vecchia recursion is exact, so the
        // per-sample probability must match the dense SOV chain on the same
        // covariance to factorization round-off.
        let n = 8;
        let cov = |i: usize, j: usize| (-((i as f64 - j as f64).abs()) / 3.0).exp();
        let mut l = tlr::TlrMatrix::assemble(n, 4, None, cov);
        tlr::potrf_tlr(&mut l, &task_runtime::WorkerPool::new(1)).unwrap();
        let l = l.to_dense_lower();
        let engine = crate::MvnEngine::builder().workers(1).build().unwrap();
        let f = engine
            .factor_vecchia(crate::vecchia::full_conditioning_plan(n), cov)
            .unwrap();
        let crate::Factor::Vecchia(v) = &f else {
            panic!("expected vecchia factor")
        };
        let a = vec![-1.2; n];
        let b = vec![0.8; n];
        let w: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let (mut y, mut x) = (vec![0.0; n], vec![0.0; n]);
        let pd = sov_sample_probability(&l, &a, &b, &w, &mut y);
        let pv = vecchia_sample_probability(v, &a, &b, &w, &mut x);
        assert!((pd - pv).abs() < 1e-10, "{pd} vs {pv}");
        // The simulated chain values agree too (identity order: x is y in
        // covariance scale).
        for k in 0..n {
            assert!((x[k] - (0..=k).map(|j| l.get(k, j) * y[j]).sum::<f64>()).abs() < 1e-9);
        }
    }

    #[test]
    fn truncation_replaces_only_infinities() {
        let a = vec![f64::NEG_INFINITY, -1.0];
        let b = vec![2.0, f64::INFINITY];
        let (at, bt) = truncate_limits(&a, &b, 8.5);
        assert_eq!(at, vec![-8.5, -1.0]);
        assert_eq!(bt, vec![2.0, 8.5]);
    }
}
