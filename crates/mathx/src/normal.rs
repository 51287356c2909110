//! Univariate standard normal distribution: density, CDF, survival function,
//! quantile (inverse CDF), and numerically safe CDF differences.
//!
//! The CDF is built on the Cody `erfc`, the quantile is Wichura's AS241
//! (`PPND16`), both accurate to close to double precision. These two routines
//! are the workhorses of the SOV/QMC recursion — every sample of every Monte
//! Carlo chain calls them a handful of times — so they are branch-light and
//! allocation-free.

use crate::erf::erfc;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
const SQRT_2PI: f64 = 2.506_628_274_631_000_502_4;

/// Standard normal density φ(x).
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / SQRT_2PI
}

/// Standard normal cumulative distribution function Φ(x) = P(Z ≤ x).
///
/// Accurate in both tails (uses `erfc` rather than `0.5 + 0.5·erf`).
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x == f64::INFINITY {
        return 1.0;
    }
    if x == f64::NEG_INFINITY {
        return 0.0;
    }
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// Survival function 1 − Φ(x) = P(Z > x), accurate for large positive x.
#[inline]
pub fn norm_sf(x: f64) -> f64 {
    norm_cdf(-x)
}

/// Φ(b) − Φ(a) computed to avoid catastrophic cancellation when both limits sit
/// in the same tail.
///
/// The SOV recursion repeatedly needs this difference; when `a` and `b` are
/// both large positive (or both large negative) the naive difference of two
/// values close to 1 (or 0) loses all significant digits. Mirroring the
/// interval into the lower tail keeps full relative accuracy.
#[inline]
pub fn norm_cdf_diff(a: f64, b: f64) -> f64 {
    if a >= b {
        return 0.0;
    }
    if a > 0.0 {
        // Both in the upper tail: Φ(b) − Φ(a) = Φ(−a) − Φ(−b).
        norm_cdf(-a) - norm_cdf(-b)
    } else {
        norm_cdf(b) - norm_cdf(a)
    }
}

/// Standardize a value: `(x − mean)/sd`.
#[inline]
pub fn standardize(x: f64, mean: f64, sd: f64) -> f64 {
    (x - mean) / sd
}

/// Central-region AS241 rational approximation: Φ⁻¹(0.5 + q) for
/// `|q| ≤ 0.425`.
///
/// Branch-free (a pure rational polynomial in `q²`), so the batched
/// [`crate::batch::norm_quantile_slice`] can evaluate whole chain lanes
/// through it when every lane falls in the central region. Kept as the single
/// definition shared with the scalar [`norm_quantile`] so the two are bitwise
/// identical by construction.
#[inline]
pub(crate) fn quantile_central(q: f64) -> f64 {
    let r = 0.180625 - q * q;
    let num = (((((((2.509_080_928_730_122_6e3 * r + 3.343_057_558_358_812_8e4) * r
        + 6.726_577_092_700_870_1e4)
        * r
        + 4.592_195_393_154_987_1e4)
        * r
        + 1.373_169_376_550_946_1e4)
        * r
        + 1.971_590_950_306_551_3e3)
        * r
        + 1.331_416_678_917_843_8e2)
        * r
        + 3.387_132_872_796_366_5e0)
        * q;
    let den = ((((((5.226_495_278_852_545_5e3 * r + 2.872_908_573_572_194_3e4) * r
        + 3.930_789_580_009_271_1e4)
        * r
        + 2.121_379_430_158_659_7e4)
        * r
        + 5.394_196_021_424_751_1e3)
        * r
        + 6.871_870_074_920_579_1e2)
        * r
        + 4.231_333_070_160_091_1e1)
        * r
        + 1.0;
    num / den
}

/// Tail-region AS241 evaluation for `|p − 0.5| > 0.425` (`q = p − 0.5`).
#[inline]
pub(crate) fn quantile_tail(p: f64, q: f64) -> f64 {
    let mut r = if q < 0.0 { p } else { 1.0 - p };
    r = (-r.ln()).sqrt();
    let val = if r <= 5.0 {
        let r = r - 1.6;
        let num = ((((((7.745_450_142_783_414_1e-4 * r + 2.272_384_498_926_918_4e-2) * r
            + 2.417_807_251_774_506_1e-1)
            * r
            + 1.270_458_252_452_368_4e0)
            * r
            + 3.647_848_324_763_204_5e0)
            * r
            + 5.769_497_221_460_691_4e0)
            * r
            + 4.630_337_846_156_545_3e0)
            * r
            + 1.423_437_110_749_683_6e0;
        let den = ((((((1.050_750_071_644_416_9e-9 * r + 5.475_938_084_995_345e-4) * r
            + 1.519_866_656_361_645_7e-2)
            * r
            + 1.481_039_764_274_800_8e-1)
            * r
            + 6.897_673_349_851e-1)
            * r
            + 1.676_384_830_183_803_8e0)
            * r
            + 2.053_191_626_637_758_9e0)
            * r
            + 1.0;
        num / den
    } else {
        let r = r - 5.0;
        let num = ((((((2.010_334_399_292_288_1e-7 * r + 2.711_555_568_743_487_6e-5) * r
            + 1.242_660_947_388_078_4e-3)
            * r
            + 2.653_218_952_657_612_4e-2)
            * r
            + 2.965_605_718_285_048_9e-1)
            * r
            + 1.784_826_539_917_291_3e0)
            * r
            + 5.463_784_911_164_114_4e0)
            * r
            + 6.657_904_643_501_103_8e0;
        let den = ((((((2.044_263_103_389_939_8e-15 * r + 1.421_511_758_316_445_9e-7) * r
            + 1.846_318_317_510_054_7e-5)
            * r
            + 7.868_691_311_456_132_6e-4)
            * r
            + 1.487_536_129_085_061_5e-2)
            * r
            + 1.369_298_809_227_358e-1)
            * r
            + 5.998_322_065_558_88e-1)
            * r
            + 1.0;
        num / den
    };
    if q < 0.0 {
        -val
    } else {
        val
    }
}

/// Inverse standard normal CDF Φ⁻¹(p) (the quantile / probit function).
///
/// Wichura's algorithm AS241 (PPND16), relative accuracy about 1e-16 over
/// p ∈ (0, 1). Returns ±∞ for p = 0 or 1 and NaN outside [0, 1].
#[inline]
pub fn norm_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        quantile_central(q)
    } else {
        quantile_tail(p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::relative_error;

    /// Φ reference values (mpmath, 50 digits).
    const CDF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.5),
        (0.5, 0.6914624612740131036377),
        (1.0, 0.8413447460685429485852),
        (1.959963984540054, 0.975),
        (2.5, 0.9937903346742238648138),
        (-1.0, 0.1586552539314570514148),
        (-3.0, 0.001349898031630094526652),
        (-5.0, 2.866515718791939116738e-7),
        (-8.0, 6.220960574271784123516e-16),
        (-10.0, 7.619853024160526065973e-24),
        (-20.0, 2.753624118606233695076e-89),
    ];

    #[test]
    fn cdf_matches_reference() {
        for &(x, want) in CDF_TABLE {
            let got = norm_cdf(x);
            assert!(
                relative_error(got, want) < 1e-12,
                "Phi({x}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn quantile_matches_known_points() {
        let cases = [
            (0.5, 0.0),
            (0.975, 1.959963984540054),
            (0.025, -1.959963984540054),
            (0.84134474606854293, 1.0),
            (0.999, 3.090232306167813),
            (1e-10, -6.361340902404056),
        ];
        for (p, want) in cases {
            let got = norm_quantile(p);
            assert!(
                (got - want).abs() < 1e-9,
                "quantile({p}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
        assert!(norm_quantile(-0.1).is_nan());
        assert!(norm_quantile(1.1).is_nan());
        assert!(norm_quantile(f64::NAN).is_nan());
    }

    #[test]
    fn sf_is_symmetric_complement() {
        for i in -40..=40 {
            let x = i as f64 * 0.25;
            assert!(relative_error(norm_sf(x), norm_cdf(-x)) < 1e-15);
        }
    }

    #[test]
    fn cdf_diff_avoids_cancellation_in_upper_tail() {
        // Both limits deep in the upper tail: naive difference is 0, the true
        // value is Phi(-8) - Phi(-9).
        let got = norm_cdf_diff(8.0, 9.0);
        let want = norm_cdf(-8.0) - norm_cdf(-9.0);
        assert!(got > 0.0);
        assert!(relative_error(got, want) < 1e-12);
        // Degenerate / reversed interval.
        assert_eq!(norm_cdf_diff(1.0, 1.0), 0.0);
        assert_eq!(norm_cdf_diff(2.0, 1.0), 0.0);
    }

    #[test]
    fn cdf_diff_matches_naive_in_central_region() {
        for (a, b) in [(-1.0, 1.0), (-0.5, 2.0), (0.1, 0.2), (-3.0, -2.0)] {
            let got = norm_cdf_diff(a, b);
            let naive = norm_cdf(b) - norm_cdf(a);
            assert!((got - naive).abs() < 1e-14, "a={a} b={b}");
        }
    }

    #[test]
    fn pdf_integrates_to_one_by_trapezoid() {
        let mut sum = 0.0;
        let h = 0.001;
        let mut x = -10.0;
        while x < 10.0 {
            sum += 0.5 * (norm_pdf(x) + norm_pdf(x + h)) * h;
            x += h;
        }
        assert!((sum - 1.0).abs() < 1e-8);
    }

    #[test]
    fn infinities_handled() {
        assert_eq!(norm_cdf(f64::INFINITY), 1.0);
        assert_eq!(norm_cdf(f64::NEG_INFINITY), 0.0);
        assert_eq!(norm_cdf_diff(f64::NEG_INFINITY, f64::INFINITY), 1.0);
    }
}
