//! Matrix norms and comparison helpers used throughout the test-suites and the
//! accuracy experiments.

use crate::dense::DenseMatrix;

/// Frobenius norm of a dense matrix.
pub fn frobenius_norm(a: &DenseMatrix) -> f64 {
    a.frobenius_norm()
}

/// Largest absolute element-wise difference between two equally sized matrices.
pub fn max_abs_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    assert_eq!(a.nrows(), b.nrows(), "max_abs_diff: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "max_abs_diff: col mismatch");
    a.data()
        .iter()
        .zip(b.data().iter())
        .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_known_matrix() {
        let a = DenseMatrix::from_column_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!((frobenius_norm(&a) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = DenseMatrix::from_fn(3, 4, |i, j| (i * j) as f64);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_single_element_change() {
        let a = DenseMatrix::zeros(3, 3);
        let mut b = a.clone();
        b.set(2, 1, -0.5);
        assert_eq!(max_abs_diff(&a, &b), 0.5);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(3, 3);
        max_abs_diff(&a, &b);
    }
}
