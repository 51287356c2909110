//! Error function family.
//!
//! The implementation follows W. J. Cody's SPECFUN `CALERF` rational
//! approximations (three regions), which deliver close to full double
//! precision. These are the same approximations used by the reference
//! implementations behind `pnorm` in R and `scipy.special.erf`.

use std::sync::OnceLock;

/// 1/sqrt(pi)
const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_286_95;
/// Threshold separating the small-|x| erf region from the erfc regions.
const THRESH: f64 = 0.468_75;

// Region 1 coefficients (|x| <= 0.46875): erf(x) = x * P(x^2)/Q(x^2).
const A: [f64; 5] = [
    3.161_123_743_870_565_60e0,
    1.138_641_541_510_501_56e2,
    3.774_852_376_853_020_21e2,
    3.209_377_589_138_469_47e3,
    1.857_777_061_846_031_53e-1,
];
const B: [f64; 4] = [
    2.360_129_095_234_412_09e1,
    2.440_246_379_344_441_73e2,
    1.282_616_526_077_372_28e3,
    2.844_236_833_439_170_62e3,
];

// Region 2 coefficients (0.46875 < |x| <= 4): erfc(x) = exp(-x^2) P(x)/Q(x).
const C: [f64; 9] = [
    5.641_884_969_886_700_89e-1,
    8.883_149_794_388_375_94e0,
    6.611_919_063_714_162_95e1,
    2.986_351_381_974_001_31e2,
    8.819_522_212_417_690_90e2,
    1.712_047_612_634_070_58e3,
    2.051_078_377_826_071_47e3,
    1.230_339_354_797_997_25e3,
    2.153_115_354_744_038_46e-8,
];
const D: [f64; 8] = [
    1.574_492_611_070_983_47e1,
    1.176_939_508_913_124_99e2,
    5.371_811_018_620_098_58e2,
    1.621_389_574_566_690_19e3,
    3.290_799_235_733_459_63e3,
    4.362_619_090_143_247_16e3,
    3.439_367_674_143_721_64e3,
    1.230_339_354_803_749_42e3,
];

// Region 3 coefficients (|x| > 4): erfc(x) = exp(-x^2)/x (1/sqrt(pi) - z P(z)/Q(z)), z = 1/x^2.
const P: [f64; 6] = [
    3.053_266_349_612_323_44e-1,
    3.603_448_999_498_044_39e-1,
    1.257_817_261_112_292_46e-1,
    1.608_378_514_874_227_66e-2,
    6.587_491_615_298_378_03e-4,
    1.631_538_713_730_209_78e-2,
];
const Q: [f64; 5] = [
    2.568_520_192_289_822_42e0,
    1.872_952_849_923_460_47e0,
    5.279_051_029_514_284_12e-1,
    6.051_834_131_244_131_91e-2,
    2.335_204_976_268_691_85e-3,
];

/// Number of distinct `trunc(16·y)` values [`exp_neg_sq`] can see: its callers
/// only reach it for `0.46875 < y < 26.6`, i.e. `16·y < 425.6`.
const EXP_NEG_SQ_STEPS: usize = 427;

/// `exp(-(k/16)²)` for every `k` below [`EXP_NEG_SQ_STEPS`], filled on first
/// use with the same `f64::exp` the direct evaluation would call — so a table
/// read is bit-identical to computing the factor.
fn exp_neg_sq_table() -> &'static [f64; EXP_NEG_SQ_STEPS] {
    static TABLE: OnceLock<[f64; EXP_NEG_SQ_STEPS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|k| {
            let ysq = k as f64 / 16.0;
            (-ysq * ysq).exp()
        })
    })
}

/// exp(-y^2) for `y >= 0`, evaluated with the argument split trick from
/// SPECFUN to reduce cancellation in the exponent for large y. The coarse
/// factor `exp(-ysq²)` only ever takes the values `exp(-(k/16)²)`, so it is
/// read from [`exp_neg_sq_table`] — one `exp` call per Φ instead of two;
/// an argument beyond the table (no caller passes one) evaluates it.
#[inline]
fn exp_neg_sq(y: f64) -> f64 {
    debug_assert!(y >= 0.0);
    let k = (y * 16.0).trunc();
    let ysq = k / 16.0;
    let del = (y - ysq) * (y + ysq);
    let coarse = match exp_neg_sq_table().get(k as usize) {
        Some(&e) => e,
        None => (-ysq * ysq).exp(),
    };
    coarse * (-del).exp()
}

/// erfc core for y = |x| > 0.46875.
fn erfc_abs(y: f64) -> f64 {
    if y <= 4.0 {
        let mut xnum = C[8] * y;
        let mut xden = y;
        for i in 0..7 {
            xnum = (xnum + C[i]) * y;
            xden = (xden + D[i]) * y;
        }
        exp_neg_sq(y) * (xnum + C[7]) / (xden + D[7])
    } else if y >= 26.6 {
        // erfc underflows to zero around 26.5 in double precision.
        0.0
    } else {
        let ysq = 1.0 / (y * y);
        let mut xnum = P[5] * ysq;
        let mut xden = ysq;
        for i in 0..4 {
            xnum = (xnum + P[i]) * ysq;
            xden = (xden + Q[i]) * ysq;
        }
        let mut result = ysq * (xnum + P[4]) / (xden + Q[4]);
        result = (FRAC_1_SQRT_PI - result) / y;
        exp_neg_sq(y) * result
    }
}

/// The error function `erf(x) = 2/sqrt(pi) * ∫₀ˣ exp(-t²) dt`.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= THRESH {
        let ysq = if y > 1.11e-16 { y * y } else { 0.0 };
        let mut xnum = A[4] * ysq;
        let mut xden = ysq;
        for i in 0..3 {
            xnum = (xnum + A[i]) * ysq;
            xden = (xden + B[i]) * ysq;
        }
        x * (xnum + A[3]) / (xden + B[3])
    } else {
        let e = erfc_abs(y);
        if x > 0.0 {
            1.0 - e
        } else {
            e - 1.0
        }
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, accurate in the
/// upper tail where `1 - erf(x)` would lose all precision.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= THRESH {
        1.0 - erf(x)
    } else if x > 0.0 {
        erfc_abs(y)
    } else {
        2.0 - erfc_abs(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::relative_error;

    /// Reference values computed with mpmath (50 digits).
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182848922033),
        (0.2, 0.2227025892104784541401),
        (0.46875, 0.4926134732179379915882),
        (0.5, 0.5204998778130465376827),
        (1.0, 0.8427007929497148693412),
        (1.5, 0.9661051464753107270669),
        (2.0, 0.9953222650189527341621),
        (3.0, 0.9999779095030014145586),
        (4.0, 0.9999999845827420997200),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (1.0, 0.1572992070502851306588),
        (2.0, 0.004677734981047265837931),
        (3.0, 2.209049699858544137278e-5),
        (4.0, 1.541725790028001885216e-8),
        (5.0, 1.537459794428034850188e-12),
        (6.0, 2.151973671249891311659e-17),
        (8.0, 1.122429717298292707997e-29),
        (10.0, 2.088487583762544757001e-45),
    ];

    #[test]
    fn erf_matches_reference_table() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-15, "erf({x}) = {got}, want {want}");
            // Odd symmetry.
            assert!((erf(-x) + want).abs() < 1e-15);
        }
    }

    #[test]
    fn erfc_matches_reference_table_in_relative_terms() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            assert!(
                relative_error(got, want) < 1e-12,
                "erfc({x}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn erfc_negative_arguments() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(-x);
            assert!(relative_error(got, 2.0 - want) < 1e-14);
        }
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in -60..=60 {
            let x = i as f64 * 0.1;
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-14, "x={x}: erf+erfc={s}");
        }
    }

    #[test]
    fn exp_neg_sq_table_lookup_is_bitwise_the_two_exp_evaluation() {
        // The SPECFUN form the table replaces, across every step the erfc
        // regions can reach (and the fallback just past the table).
        let direct = |y: f64| {
            let ysq = (y * 16.0).trunc() / 16.0;
            (-ysq * ysq).exp() * (-(y - ysq) * (y + ysq)).exp()
        };
        for k in 0..(EXP_NEG_SQ_STEPS + 8) {
            for frac in [0.0, 0.013, 0.5, 0.999] {
                let y = (k as f64 + frac) / 16.0;
                assert_eq!(exp_neg_sq(y).to_bits(), direct(y).to_bits(), "y = {y}");
            }
        }
        // The largest argument `erfc_abs` forwards stays inside the table.
        assert!((26.6f64 * 16.0).trunc() < EXP_NEG_SQ_STEPS as f64);
    }

    #[test]
    fn erf_handles_extremes_and_nan() {
        assert_eq!(erf(100.0), 1.0);
        assert_eq!(erf(-100.0), -1.0);
        assert_eq!(erfc(100.0), 0.0);
        assert!((erfc(-100.0) - 2.0).abs() < 1e-15);
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }
}
