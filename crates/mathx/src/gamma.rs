//! (Log-)gamma function via the Lanczos approximation (g = 7, 9 coefficients).

const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_59,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_741_78;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the reflection formula for `x < 0.5`; accuracy is ~1e-13 relative over
/// the range needed by the Matérn covariance (ν ∈ (0, 20]).
pub fn ln_gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        // Poles at non-positive integers.
        return f64::INFINITY;
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        return (std::f64::consts::PI / s.abs()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    LN_SQRT_2PI + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function Γ(x) for `x > 0` (and non-pole negative reals via the
/// reflection formula, with correct sign): the tests' oracle for
/// [`ln_gamma`].
#[cfg(test)]
pub(crate) fn gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 && x == x.floor() {
        return f64::NAN;
    }
    if x < 0.5 {
        let s = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI / (s * gamma(1.0 - x));
    }
    ln_gamma(x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::relative_error;

    #[test]
    fn gamma_at_integers_is_factorial() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                relative_error(gamma(n as f64), fact) < 1e-12,
                "Gamma({n}) = {}, want {fact}",
                gamma(n as f64)
            );
        }
    }

    #[test]
    fn gamma_at_half_integers() {
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(relative_error(gamma(0.5), sqrt_pi) < 1e-13);
        assert!(relative_error(gamma(1.5), 0.5 * sqrt_pi) < 1e-13);
        assert!(relative_error(gamma(2.5), 0.75 * sqrt_pi) < 1e-13);
        assert!(relative_error(gamma(-0.5), -2.0 * sqrt_pi) < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln Γ(x) + ln x.
        for i in 1..200 {
            let x = 0.1 * i as f64;
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-10, "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn ln_gamma_large_argument_stirling() {
        // Compare with Stirling series for a large argument.
        let x = 150.0f64;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
                - 1.0 / (360.0 * x.powi(3));
        assert!(relative_error(ln_gamma(x), stirling) < 1e-12);
    }

    #[test]
    fn poles_and_nan() {
        assert!(gamma(0.0).is_nan());
        assert!(gamma(-3.0).is_nan());
        assert_eq!(ln_gamma(0.0), f64::INFINITY);
        assert!(gamma(f64::NAN).is_nan());
    }
}
