//! Symmetric rank-k update: `C ← C − A·Aᵀ` on the lower triangle (the trailing
//! diagonal-tile update of the right-looking Cholesky).

use super::isa::{self, Kernel};
use crate::dense::DenseMatrix;

/// `C ← β·C + α·A·Aᵀ`, updating only the lower triangle of the square tile `C`
/// (the strictly-upper part is left untouched).
pub fn syrk_lower(alpha: f64, a: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    isa::run(SyrkLower { alpha, a, beta, c })
}

/// One `syrk_lower` call.
pub(super) struct SyrkLower<'a> {
    pub(super) alpha: f64,
    pub(super) a: &'a DenseMatrix,
    pub(super) beta: f64,
    pub(super) c: &'a mut DenseMatrix,
}

impl Kernel for SyrkLower<'_> {
    #[inline(always)]
    fn run<const W: usize, const Q: usize>(self) {
        syrk_lower_body(self.alpha, self.a, self.beta, self.c)
    }
}

/// The body of [`syrk_lower`], inlined into each compilation (see `isa::Kernel`).
#[inline(always)]
fn syrk_lower_body(alpha: f64, a: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "syrk: C must be square");
    assert_eq!(a.nrows(), n, "syrk: A row count must match C");
    let k = a.ncols();
    if beta != 1.0 {
        for j in 0..n {
            for cij in &mut c.col_mut(j)[j..] {
                *cij *= beta;
            }
        }
    }
    for p in 0..k {
        let a_col = a.col(p);
        for j in 0..n {
            let ajp = alpha * a_col[j];
            if ajp == 0.0 {
                continue;
            }
            for (cij, &aip) in c.col_mut(j)[j..].iter_mut().zip(&a_col[j..]) {
                *cij += aip * ajp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn lower_of(m: &DenseMatrix) -> DenseMatrix {
        DenseMatrix::from_fn(
            m.nrows(),
            m.ncols(),
            |i, j| if i >= j { m.get(i, j) } else { 0.0 },
        )
    }

    #[test]
    fn syrk_matches_reference_on_lower_triangle() {
        let a = rand_matrix(6, 4, 7);
        let c0 = rand_matrix(6, 6, 8);
        let mut c = c0.clone();
        syrk_lower(-1.0, &a, 1.0, &mut c);
        let mut reference = c0.clone();
        reference.add_scaled(-1.0, &a.matmul(&a.transpose()));
        assert!(max_abs_diff(&lower_of(&c), &lower_of(&reference)) < 1e-13);
    }

    #[test]
    fn strictly_upper_triangle_is_untouched() {
        let a = rand_matrix(5, 3, 17);
        let c0 = rand_matrix(5, 5, 18);
        let mut c = c0.clone();
        syrk_lower(1.0, &a, 0.5, &mut c);
        for j in 0..5 {
            for i in 0..j {
                assert_eq!(
                    c.get(i, j),
                    c0.get(i, j),
                    "upper element ({i},{j}) modified"
                );
            }
        }
    }

    #[test]
    fn result_is_negative_semidefinite_update() {
        // C = 0, alpha=-1: diagonal of C must become non-positive.
        let a = rand_matrix(4, 4, 27);
        let mut c = DenseMatrix::zeros(4, 4);
        syrk_lower(-1.0, &a, 0.0, &mut c);
        for i in 0..4 {
            assert!(c.get(i, i) <= 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn non_square_c_panics() {
        let a = DenseMatrix::zeros(3, 2);
        let mut c = DenseMatrix::zeros(3, 4);
        syrk_lower(1.0, &a, 1.0, &mut c);
    }
}
