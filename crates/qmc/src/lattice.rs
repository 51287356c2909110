//! Richtmyer rank-1 lattice rule.
//!
//! Point `j` has components `frac((j+1) · √pᵢ)` where `pᵢ` is the `i`-th prime.
//! This is the classic generating vector used by Genz's multivariate normal
//! integration codes (`mvtnorm`, `tlrmvnmvt`): it is extensible in both the
//! number of points and the dimension, needs no tables, and combined with a
//! Cranley–Patterson random shift gives an unbiased estimator with practical
//! error estimates.

use crate::primes::first_primes;
use crate::PointSet;

/// Rank-1 lattice with generating vector `√p₁, …, √p_d` (fractional parts).
#[derive(Debug, Clone)]
pub struct RichtmyerLattice {
    /// Fractional parts of the square roots of the first `dim` primes.
    generators: Vec<f64>,
}

impl RichtmyerLattice {
    /// Create a lattice rule of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        let generators = first_primes(dim)
            .into_iter()
            .map(|p| (p as f64).sqrt().fract())
            .collect();
        Self { generators }
    }
}

impl PointSet for RichtmyerLattice {
    fn dim(&self) -> usize {
        self.generators.len()
    }

    fn point(&self, index: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.generators.len());
        // (j+1) so that index 0 is not the all-zeros corner point.
        let j = (index + 1) as f64;
        for (o, &g) in out.iter_mut().zip(&self.generators) {
            let v = (j * g).fract();
            // fract of a positive number is in [0,1); guard against 1.0 from rounding.
            *o = if v >= 1.0 { 0.0 } else { v };
        }
    }

    fn fill_block(&self, first: usize, count: usize, dim0: usize, ndims: usize, out: &mut [f64]) {
        assert!(
            dim0 + ndims <= self.generators.len(),
            "coordinate range out of bounds"
        );
        assert_eq!(out.len(), count * ndims, "output block size mismatch");
        // Each coordinate is an independent Weyl sequence, so a block fills
        // one contiguous chain lane per generator — same expressions as
        // `point`, hence bitwise identical values.
        for i in 0..ndims {
            let g = self.generators[dim0 + i];
            for (c, o) in out[i * count..(i + 1) * count].iter_mut().enumerate() {
                let j = (first + c + 1) as f64;
                let v = (j * g).fract();
                *o = if v >= 1.0 { 0.0 } else { v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::point_vec;

    #[test]
    fn dimensions_and_ranges() {
        let lat = RichtmyerLattice::new(6);
        assert_eq!(lat.dim(), 6);
        let mut out = vec![0.0; 6];
        for j in 0..1000 {
            lat.point(j, &mut out);
            assert!(out.iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }

    #[test]
    fn first_point_is_generating_vector() {
        let lat = RichtmyerLattice::new(3);
        let p = point_vec(&lat, 0);
        let sqrt2 = 2.0f64.sqrt().fract();
        let sqrt3 = 3.0f64.sqrt().fract();
        let sqrt5 = 5.0f64.sqrt().fract();
        assert!((p[0] - sqrt2).abs() < 1e-15);
        assert!((p[1] - sqrt3).abs() < 1e-15);
        assert!((p[2] - sqrt5).abs() < 1e-15);
    }

    #[test]
    fn lattice_structure_additivity() {
        // Point j is frac((j+1) g), so x_{j1} + x_{j2} ≡ x_{j1+j2+1} (mod 1).
        let lat = RichtmyerLattice::new(4);
        let a = point_vec(&lat, 3);
        let b = point_vec(&lat, 5);
        let c = point_vec(&lat, 9); // (3+1)+(5+1) = 10 = 9+1
        for i in 0..4 {
            let sum = (a[i] + b[i]).fract();
            let expect = c[i];
            assert!((sum - expect).abs() < 1e-12 || (sum - expect).abs() > 1.0 - 1e-12);
        }
    }

    #[test]
    fn shift_averaged_lattice_integrates_smooth_function_accurately() {
        // Integrate f(u) = prod(3 u_i^2) over [0,1]^d (exact value 1). A single
        // random shift of a Weyl/Richtmyer rule can be unlucky, so average over
        // several independent shifts (exactly how the MVN integrator uses it)
        // and require small error.
        use crate::{PointSet, ShiftedPointSet, Xoshiro256pp};
        let dim = 5;
        let n = 4096;
        let nshifts = 8;
        let f = |u: &[f64]| u.iter().map(|&x| 3.0 * x * x).product::<f64>();

        let mut rng = Xoshiro256pp::seed_from(17);
        let mut out = vec![0.0; dim];
        let mut estimates = Vec::new();
        for _ in 0..nshifts {
            let lat = ShiftedPointSet::with_random_shift(RichtmyerLattice::new(dim), &mut rng);
            let mut sum = 0.0;
            for j in 0..n {
                lat.point(j, &mut out);
                sum += f(&out);
            }
            estimates.push(sum / n as f64);
        }
        let mean = estimates.iter().sum::<f64>() / nshifts as f64;
        let err = (mean - 1.0).abs();
        assert!(err < 5e-3, "shift-averaged lattice error too large: {err}");
    }
}
