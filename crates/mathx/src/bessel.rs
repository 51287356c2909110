//! Modified Bessel functions `I_ν(x)` and `K_ν(x)` for real order ν ≥ 0 and
//! argument x > 0, as required by the Matérn covariance function
//! `C(r) = σ² 2^{1−ν}/Γ(ν) (r/a)^ν K_ν(r/a)`.
//!
//! The algorithm follows the classic approach (Temme's method, as popularized by
//! *Numerical Recipes*' `bessik`): a continued fraction for `I'_ν/I_ν`, Temme's
//! series for `K_μ`, `K_{μ+1}` when `x < 2`, and Steed's CF2 otherwise, followed
//! by upward recurrence in the order. Accuracy is ~1e-10 relative, far beyond
//! what the covariance evaluation needs.
//!
//! [`bessel_k`] runs only the `K` half (the `K_μ`/`K_{μ+1}` pair and the
//! upward recurrence): it skips CF1 and the downward `I` recurrence, which
//! the `K` values never read, so it returns the joint routine's `K_ν` bit for
//! bit at roughly three quarters of the cost.

const EPS: f64 = 1e-16;
const FPMIN: f64 = 1e-300;
const MAXIT: usize = 10_000;
const XMIN: f64 = 2.0;
const PI: f64 = std::f64::consts::PI;

/// Chebyshev series evaluation on `[a, b]` (Clenshaw recurrence).
fn chebev(a: f64, b: f64, c: &[f64], x: f64) -> f64 {
    let y = (2.0 * x - a - b) / (b - a);
    let y2 = 2.0 * y;
    let mut d = 0.0;
    let mut dd = 0.0;
    for &cj in c.iter().skip(1).rev() {
        let sv = d;
        d = y2 * d - dd + cj;
        dd = sv;
    }
    y * d - dd + 0.5 * c[0]
}

/// Temme's Γ-related auxiliary quantities for |μ| ≤ 1/2.
fn beschb(x: f64) -> (f64, f64, f64, f64) {
    const C1: [f64; 7] = [
        -1.142022680371168e0,
        6.5165112670737e-3,
        3.087090173086e-4,
        -3.4706269649e-6,
        6.9437664e-9,
        3.67795e-11,
        -1.356e-13,
    ];
    const C2: [f64; 8] = [
        1.843740587300905e0,
        -7.68528408447867e-2,
        1.2719271366546e-3,
        -4.9717367042e-6,
        -3.31261198e-8,
        2.423096e-10,
        -1.702e-13,
        -1.49e-15,
    ];
    let xx = 8.0 * x * x - 1.0;
    let gam1 = chebev(-1.0, 1.0, &C1, xx);
    let gam2 = chebev(-1.0, 1.0, &C2, xx);
    let gampl = gam2 - x * gam1;
    let gammi = gam2 + x * gam1;
    (gam1, gam2, gampl, gammi)
}

/// Order split `ν = nl + μ` with |μ| ≤ 1/2, after the argument checks both
/// entry points share.
fn split_order(xnu: f64, x: f64) -> (i32, f64) {
    assert!(x > 0.0, "bessel: x must be positive, got {x}");
    assert!(xnu >= 0.0, "bessel: order must be non-negative, got {xnu}");
    let nl = (xnu + 0.5) as i32;
    (nl, xnu - nl as f64)
}

/// `(K_μ(x), K_{μ+1}(x))` for a fractional order |μ| ≤ 1/2: Temme's series
/// for `x < 2`, Steed's CF2 otherwise.
fn bessk_mu(xmu: f64, x: f64) -> (f64, f64) {
    let xmu2 = xmu * xmu;
    let xi = 1.0 / x;
    let xi2 = 2.0 * xi;
    if x < XMIN {
        // Temme's series.
        let x2 = 0.5 * x;
        let pimu = PI * xmu;
        let fact = if pimu.abs() < EPS {
            1.0
        } else {
            pimu / pimu.sin()
        };
        let mut d = -x2.ln();
        let mut e = xmu * d;
        let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
        let (gam1, gam2, gampl, gammi) = beschb(xmu);
        let mut ff = fact * (gam1 * e.cosh() + gam2 * fact2 * d);
        let mut sum = ff;
        e = e.exp();
        let mut p = 0.5 * e / gampl;
        let mut q = 0.5 / (e * gammi);
        let mut cc = 1.0;
        d = x2 * x2;
        let mut sum1 = p;
        let mut ok = false;
        for i in 1..=MAXIT {
            let fi = i as f64;
            ff = (fi * ff + p + q) / (fi * fi - xmu2);
            cc *= d / fi;
            p /= fi - xmu;
            q /= fi + xmu;
            let del = cc * ff;
            sum += del;
            let del1 = cc * (p - fi * ff);
            sum1 += del1;
            if del.abs() < sum.abs() * EPS {
                ok = true;
                break;
            }
        }
        debug_assert!(ok, "bessik Temme series did not converge");
        (sum, sum1 * xi2)
    } else {
        // Steed's CF2.
        let mut b = 2.0 * (1.0 + x);
        let mut d = 1.0 / b;
        let mut delh = d;
        let mut h2 = delh;
        let mut q1 = 0.0;
        let mut q2 = 1.0;
        let a1 = 0.25 - xmu2;
        let mut q = a1;
        let mut c = a1;
        let mut a = -a1;
        let mut s = 1.0 + q * delh;
        let mut ok = false;
        for i in 2..=MAXIT {
            a -= 2.0 * (i as f64 - 1.0);
            c = -a * c / i as f64;
            let qnew = (q1 - b * q2) / a;
            q1 = q2;
            q2 = qnew;
            q += c * qnew;
            b += 2.0;
            d = 1.0 / (b + a * d);
            delh *= b * d - 1.0;
            h2 += delh;
            let dels = q * delh;
            s += dels;
            if (dels / s).abs() < EPS {
                ok = true;
                break;
            }
        }
        debug_assert!(ok, "bessik CF2 did not converge");
        let h2 = a1 * h2;
        let rkmu = (PI / (2.0 * x)).sqrt() * (-x).exp() / s;
        (rkmu, rkmu * (xmu + x + 0.5 - h2) * xi)
    }
}

/// `K_{μ+nl}(x)` by upward recurrence in the order from `(K_μ, K_{μ+1})`.
fn recur_k_up(nl: i32, xmu: f64, x: f64, (mut rkmu, mut rk1): (f64, f64)) -> f64 {
    let xi2 = 2.0 * (1.0 / x);
    for i in 1..=nl {
        let rktemp = (xmu + i as f64) * xi2 * rk1 + rkmu;
        rkmu = rk1;
        rk1 = rktemp;
    }
    rkmu
}

/// `K_ν(x)` alone: the fractional-order pair and the upward recurrence,
/// without CF1 or the `I` recurrence.
fn bessk(xnu: f64, x: f64) -> f64 {
    let (nl, xmu) = split_order(xnu, x);
    recur_k_up(nl, xmu, x, bessk_mu(xmu, x))
}

/// Joint evaluation of `(I_ν(x), K_ν(x))`: CF1 for `I'_ν/I_ν` and the
/// downward recurrence give `I` up to scale, and the Wronskian against the
/// `K` pair of [`bessk_mu`] fixes the scale. `K_ν` is [`bessk`]'s, bit for
/// bit.
fn bessik(xnu: f64, x: f64) -> (f64, f64) {
    let (nl, xmu) = split_order(xnu, x);
    let xi = 1.0 / x;
    let xi2 = 2.0 * xi;
    // CF1 for I'_nu / I_nu.
    let mut h = xnu * xi;
    if h < FPMIN {
        h = FPMIN;
    }
    let mut b = xi2 * xnu;
    let mut d = 0.0;
    let mut c = h;
    let mut converged = false;
    for _ in 0..MAXIT {
        b += xi2;
        d = 1.0 / (b + d);
        c = b + 1.0 / c;
        let del = c * d;
        h *= del;
        if (del - 1.0).abs() < EPS {
            converged = true;
            break;
        }
    }
    debug_assert!(converged, "bessik CF1 did not converge for nu={xnu}, x={x}");
    let mut ril = FPMIN;
    let mut ripl = h * ril;
    let ril1 = ril;
    let mut fact = xnu * xi;
    for _ in (1..=nl).rev() {
        let ritemp = fact * ril + ripl;
        fact -= xi;
        ripl = fact * ritemp + ril;
        ril = ritemp;
    }
    let f = ripl / ril;
    let (rkmu, rk1) = bessk_mu(xmu, x);
    let rkmup = xmu * xi * rkmu - rk1;
    let rimu = xi / (f * rkmu - rkmup);
    let ri = rimu * ril1 / ril;
    (ri, recur_k_up(nl, xmu, x, (rkmu, rk1)))
}

/// Modified Bessel function of the second kind `K_ν(x)` for real ν and x > 0.
///
/// `K` is even in its order (`K_{−ν} = K_ν`), so negative orders are accepted.
/// For very large `x` the value underflows to 0, which is the correct limit for
/// the Matérn covariance at large distances.
pub fn bessel_k(nu: f64, x: f64) -> f64 {
    if x > 705.0 {
        // exp(-705) underflows; K_nu decays like sqrt(pi/2x) e^{-x}.
        return 0.0;
    }
    bessk(nu.abs(), x)
}

/// Modified Bessel function of the first kind `I_ν(x)` for ν ≥ 0, x > 0.
pub fn bessel_i(nu: f64, x: f64) -> f64 {
    bessik(nu, x).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::relative_error;

    /// Reference values for K_nu(x) (mpmath besselk, 30 digits).
    const K_TABLE: &[(f64, f64, f64)] = &[
        // (nu, x, K_nu(x))
        (0.0, 0.1, 2.427069024702016557819),
        (0.0, 1.0, 0.4210244382407083333356),
        (0.0, 5.0, 0.003691098334042594274735),
        (0.5, 0.5, 1.075047603499920238723),
        (0.5, 1.0, 0.4610685044478945584396),
        (0.5, 3.0, 0.03602598513176459256551),
        (1.0, 0.5, 1.656441120003300893696),
        (1.0, 1.0, 0.6019072301972345747375),
        (1.0, 10.0, 1.864877345382558459682e-5),
        (1.5, 1.0, 0.9221370088957891168791),
        (1.5, 2.5, 0.09109232041561398450404),
        (2.5, 1.0, 3.227479531135261909077),
        (2.5, 4.0, 0.02223789761717810352804),
        (0.3, 0.7, 0.6895624897569750649008),
        (3.7, 2.3, 0.7985505548497245704604),
        (5.0, 6.0, 0.008023718980129033413004),
    ];

    #[test]
    fn bessel_k_matches_reference_table() {
        for &(nu, x, want) in K_TABLE {
            let got = bessel_k(nu, x);
            assert!(
                relative_error(got, want) < 1e-8,
                "K_{nu}({x}) = {got:e}, want {want:e}"
            );
        }
        // Past the cut-off, K underflows to its limit 0.
        assert_eq!(bessel_k(0.5, 2000.0), 0.0);
    }

    #[test]
    fn half_integer_closed_forms() {
        // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let want = (PI / (2.0 * x)).sqrt() * (-x).exp();
            assert!(relative_error(bessel_k(0.5, x), want) < 1e-10, "x={x}");
            // K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)
            let want32 = want * (1.0 + 1.0 / x);
            assert!(relative_error(bessel_k(1.5, x), want32) < 1e-10, "x={x}");
            // K_{5/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 3/x + 3/x^2)
            let want52 = want * (1.0 + 3.0 / x + 3.0 / (x * x));
            assert!(relative_error(bessel_k(2.5, x), want52) < 1e-9, "x={x}");
        }
    }

    #[test]
    fn recurrence_relation_holds() {
        // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for &nu in &[0.7f64, 1.2, 2.3, 3.8] {
            for &x in &[0.3f64, 1.0, 2.7, 8.0] {
                let lhs = bessel_k(nu + 1.0, x);
                let rhs = bessel_k(nu - 1.0, x) + 2.0 * nu / x * bessel_k(nu, x);
                assert!(relative_error(lhs, rhs) < 1e-8, "nu={nu} x={x}");
            }
        }
    }

    #[test]
    fn wronskian_identity() {
        // I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x
        for &nu in &[0.0f64, 0.5, 1.3, 2.0] {
            for &x in &[0.2f64, 1.0, 3.0, 7.0] {
                let w = bessel_i(nu, x) * bessel_k(nu + 1.0, x)
                    + bessel_i(nu + 1.0, x) * bessel_k(nu, x);
                assert!(relative_error(w, 1.0 / x) < 1e-8, "nu={nu} x={x}: w={w}");
            }
        }
    }

    #[test]
    fn k_only_path_is_bitwise_the_joint_routines_k() {
        // Both sides of XMIN (Temme's series vs CF2), XMIN itself, and up to
        // the underflow cut-off.
        let xs = [
            1e-6, 0.01, 0.3, 1.0, 1.7, 1.999_999, 2.0, 2.000_001, 3.5, 9.0, 27.0, 100.0, 333.3,
            704.9, 705.0,
        ];
        for &nu in &[0.0, 0.3, 0.5, 1.0, 1.43391, 2.5, 3.7, 49.9] {
            for &x in &xs {
                assert_eq!(
                    bessel_k(nu, x).to_bits(),
                    bessik(nu, x).1.to_bits(),
                    "nu={nu} x={x}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_argument_panics() {
        bessel_k(1.0, -1.0);
    }
}
