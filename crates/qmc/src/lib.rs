//! # qmc — the sample points of the MVN integration
//!
//! The Separation-of-Variables algorithm turns the multivariate normal
//! probability into an integral over the unit hypercube `[0,1]^{n-1}` which is
//! then evaluated by averaging over `N` sample points (the paper's matrix `R`).
//! Every estimate draws them from one rule, [`lattice_points`]: the
//! Richtmyer rank-1 lattice with a Cranley–Patterson random shift, as in the
//! reference `tlrmvnmvt` code. This crate provides:
//!
//! * [`rng::Xoshiro256pp`] — a fast, splittable pseudo-random generator used
//!   for the random shift and for the plain Monte-Carlo baselines and the MC
//!   validation algorithm,
//! * [`lattice::RichtmyerLattice`] — the rank-1 lattice rule used by Genz's MVN
//!   codes (component `i` of point `j` is `frac(j·√pᵢ)` for the `i`-th prime),
//! * [`ShiftedPointSet`] — Cranley–Patterson random shifting, which removes
//!   the QMC bias,
//! * [`PointSet`] — the interface the sweeps draw through, so a batch can
//!   serve a filled panel in place of the lattice itself.
//!
//! The paper states the sample matrix `R(i,j) ~ U(0,1)`; the shifted lattice
//! is an unbiased stand-in with a smaller error at the same `N`.

pub mod lattice;
pub mod primes;
pub mod rng;

pub use lattice::RichtmyerLattice;
pub use rng::Xoshiro256pp;

/// A deterministic point set in `[0,1)^d`: the `j`-th point can be generated
/// independently of all others (important for tile-parallel generation).
pub trait PointSet: Send + Sync {
    /// Dimensionality of the points.
    fn dim(&self) -> usize;
    /// Write the `index`-th point into `out` (`out.len() == dim()`).
    fn point(&self, index: usize, out: &mut [f64]);
    /// Fill a chain-major sample block: coordinate `dim0 + i` of point
    /// `first + c` lands at `out[i * count + c]` for `c < count`,
    /// `i < ndims` (one contiguous chain lane per coordinate — the layout of
    /// the PMVN sweep's `w` blocks).
    ///
    /// The values are **bitwise identical** to calling [`PointSet::point`]
    /// per chain and copying out the `dim0..dim0 + ndims` coordinate range,
    /// but only the requested coordinates are generated.
    fn fill_block(&self, first: usize, count: usize, dim0: usize, ndims: usize, out: &mut [f64]);
}

/// A point set with a Cranley–Patterson random shift applied modulo 1.
///
/// Shifting a deterministic QMC rule by an independent uniform vector makes the
/// estimator unbiased; averaging over several independent shifts provides a
/// practical error estimate (the paper's QMC standard error).
#[derive(Debug, Clone)]
pub struct ShiftedPointSet<P: PointSet> {
    inner: P,
    shift: Vec<f64>,
}

impl<P: PointSet> ShiftedPointSet<P> {
    /// Wrap `inner` with the uniform random `shift` (one entry per dimension).
    pub fn new(inner: P, shift: Vec<f64>) -> Self {
        assert_eq!(
            inner.dim(),
            shift.len(),
            "shift length must equal dimension"
        );
        Self { inner, shift }
    }

    /// Wrap `inner` with a shift drawn from `rng`.
    pub fn with_random_shift(inner: P, rng: &mut Xoshiro256pp) -> Self {
        let shift = (0..inner.dim()).map(|_| rng.next_f64()).collect();
        Self::new(inner, shift)
    }
}

impl<P: PointSet> PointSet for ShiftedPointSet<P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn point(&self, index: usize, out: &mut [f64]) {
        self.inner.point(index, out);
        for (o, s) in out.iter_mut().zip(&self.shift) {
            *o = (*o + *s).fract();
        }
    }

    fn fill_block(&self, first: usize, count: usize, dim0: usize, ndims: usize, out: &mut [f64]) {
        self.inner.fill_block(first, count, dim0, ndims, out);
        for i in 0..ndims {
            let s = self.shift[dim0 + i];
            for o in &mut out[i * count..(i + 1) * count] {
                *o = (*o + s).fract();
            }
        }
    }
}

/// The sample points of every SOV estimate: the Richtmyer lattice of
/// dimension `dim`, shifted by the first `dim` uniforms of
/// `Xoshiro256pp::seed_from(seed)`.
pub fn lattice_points(dim: usize, seed: u64) -> ShiftedPointSet<RichtmyerLattice> {
    let mut rng = Xoshiro256pp::seed_from(seed);
    ShiftedPointSet::with_random_shift(RichtmyerLattice::new(dim), &mut rng)
}

/// The sampling rule, as the `mvn_perf` benchmark still spells it. There is
/// one; the enum goes when the benchmark calls [`lattice_points`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleKind {
    /// Richtmyer rank-1 lattice with a Cranley–Patterson random shift.
    #[default]
    RichtmyerLattice,
}

/// Boxed [`lattice_points`]. Kept only for the `mvn_perf` benchmark; it goes
/// when the benchmark calls [`lattice_points`].
pub fn make_point_set(_kind: SampleKind, dim: usize, seed: u64) -> Box<dyn PointSet> {
    Box::new(lattice_points(dim, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `index`-th point of `ps`, freshly allocated: the per-point
    /// reference the block fills are checked against.
    pub(crate) fn point_vec(ps: &dyn PointSet, index: usize) -> Vec<f64> {
        let mut out = vec![0.0; ps.dim()];
        ps.point(index, &mut out);
        out
    }

    fn check_in_unit_cube(ps: &dyn PointSet, npoints: usize) {
        let mut out = vec![0.0; ps.dim()];
        for j in 0..npoints {
            ps.point(j, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert!(
                    (0.0..1.0).contains(&v),
                    "point {j} dim {i} out of range: {v}"
                );
            }
        }
    }

    #[test]
    fn all_families_stay_in_unit_cube() {
        check_in_unit_cube(&lattice_points(7, 42), 500);
    }

    #[test]
    fn points_are_reproducible_and_order_independent() {
        let ps = lattice_points(5, 7);
        let a = point_vec(&ps, 123);
        let b = point_vec(&ps, 7);
        let a2 = point_vec(&ps, 123);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn shifted_point_set_respects_shift() {
        let lat = RichtmyerLattice::new(3);
        let base = point_vec(&lat, 5);
        let shifted = ShiftedPointSet::new(lat, vec![0.25, 0.5, 0.75]);
        let s = point_vec(&shifted, 5);
        for i in 0..3 {
            let expect = (base[i] + [0.25, 0.5, 0.75][i]).fract();
            assert!((s[i] - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn mean_of_each_coordinate_is_about_half() {
        // A crude uniformity check.
        let dim = 4;
        let n = 4096;
        let ps = lattice_points(dim, 99);
        let mut sums = vec![0.0; dim];
        let mut out = vec![0.0; dim];
        for j in 0..n {
            ps.point(j, &mut out);
            for (s, &v) in sums.iter_mut().zip(&out) {
                *s += v;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let mean = s / n as f64;
            assert!((mean - 0.5).abs() < 0.03, "dim {i}: mean {mean}");
        }
    }

    #[test]
    #[should_panic]
    fn shift_length_mismatch_panics() {
        let lat = RichtmyerLattice::new(3);
        let _ = ShiftedPointSet::new(lat, vec![0.1, 0.2]);
    }

    #[test]
    fn fill_block_is_bitwise_identical_to_per_point_generation() {
        // The block-major fill must reproduce the column-by-column path bit
        // for bit — this is what keeps the chain-major PMVN sweep's sample
        // panels identical to the historical layout.
        let dim = 23;
        let ps = lattice_points(dim, 1234);
        for &(first, count, dim0, ndims) in &[
            (0usize, 7usize, 0usize, 23usize),
            (13, 5, 4, 9),
            (64, 1, 22, 1),
        ] {
            let mut block = vec![0.0; count * ndims];
            ps.fill_block(first, count, dim0, ndims, &mut block);
            for c in 0..count {
                let point = point_vec(&ps, first + c);
                for i in 0..ndims {
                    assert_eq!(
                        block[i * count + c].to_bits(),
                        point[dim0 + i].to_bits(),
                        "chain {c}, coordinate {}",
                        dim0 + i
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn fill_block_rejects_out_of_range_coordinates() {
        let ps = lattice_points(4, 1);
        let mut block = vec![0.0; 2 * 3];
        ps.fill_block(0, 2, 2, 3, &mut block);
    }
}
