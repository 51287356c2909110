//! Small numeric helpers shared across the workspace.

/// Relative error between `a` and `b`, using the larger magnitude as the scale.
///
/// Returns the absolute error when both values are tiny (|a|,|b| < 1e-300) to
/// avoid division by ~0.
pub fn relative_error(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale < 1e-300 {
        (a - b).abs()
    } else {
        (a - b).abs() / scale
    }
}

/// Clamp a value into the open-ish unit interval `[tiny, 1 - tiny]`.
///
/// Quasi-Monte-Carlo points equal to exactly 0 or 1 would map to ±∞ through the
/// normal quantile; clamping keeps the SOV recursion finite without biasing the
/// estimate measurably.
pub fn clamp_unit(u: f64) -> f64 {
    const TINY: f64 = 1e-16;
    u.clamp(TINY, 1.0 - TINY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert!(relative_error(1.0, 1.0) == 0.0);
        assert!((relative_error(1.0, 1.1) - 0.1 / 1.1).abs() < 1e-15);
        assert!(relative_error(0.0, 0.0) == 0.0);
    }

    #[test]
    fn clamp_unit_bounds() {
        assert!(clamp_unit(0.0) > 0.0);
        assert!(clamp_unit(1.0) < 1.0);
        assert_eq!(clamp_unit(0.5), 0.5);
    }
}
