//! Covariance kernels and covariance-matrix assembly.
//!
//! The paper uses the Matérn family (Eq. 6) with parameters
//! `θ = (σ², range a, smoothness ν)` and, for the synthetic experiments, the
//! exponential kernel (Matérn with ν = 1/2) at ranges 0.033 / 0.1 / 0.234.

use crate::geometry::Location;
use mathx::{bessel_k, ln_gamma};
use std::sync::Mutex;
use tile_la::{DenseMatrix, SymTileMatrix};
use tlr::{CompressionTol, TlrMatrix};

/// Column-block width of one [`CovarianceKernel::dense_covariance`] task.
const DENSE_BLOCK_COLS: usize = 64;

/// Exclusive upper bound on the Matérn smoothness ν that the MLE searches
/// and the serving layer accepts. `K_ν` recurs upward ⌊ν + ½⌋ steps for
/// every matrix entry, so an unbounded ν from the wire could pin a worker
/// for minutes.
pub const MAX_MATERN_SMOOTHNESS: f64 = 50.0;

/// Matérn covariance parameters `θ = (σ², a, ν)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaternParams {
    /// Marginal variance σ² > 0.
    pub sigma2: f64,
    /// Spatial range a > 0.
    pub range: f64,
    /// Smoothness ν > 0.
    pub smoothness: f64,
}

/// A stationary, isotropic covariance kernel `C(‖h‖; θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CovarianceKernel {
    /// Exponential kernel `σ²·exp(−d/a)` (Matérn with ν = 1/2, evaluated in
    /// closed form).
    Exponential {
        /// Marginal variance.
        sigma2: f64,
        /// Range parameter.
        range: f64,
    },
    /// Matérn kernel of Eq. (6) with arbitrary smoothness.
    Matern(MaternParams),
    /// Squared-exponential (Gaussian) kernel `σ²·exp(−d²/(2a²))` — the ν → ∞
    /// limit, used in tests and ablations.
    SquaredExponential {
        /// Marginal variance.
        sigma2: f64,
        /// Range parameter.
        range: f64,
    },
}

impl CovarianceKernel {
    /// Evaluate the covariance at distance `d ≥ 0`.
    pub fn cov(&self, d: f64) -> f64 {
        self.cov_with(d, None)
    }

    /// [`cov`](Self::cov) with the general Matérn arm's `ln(2^{1−ν}/Γ(ν))`
    /// supplied by an assembly that evaluated it once (`None`: evaluate it
    /// here). The formula and its operation order are the same either way,
    /// so both give the same bits.
    fn cov_with(&self, d: f64, matern_log_pref: Option<f64>) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        match *self {
            CovarianceKernel::Exponential { sigma2, range } => sigma2 * (-d / range).exp(),
            CovarianceKernel::SquaredExponential { sigma2, range } => {
                sigma2 * (-0.5 * (d / range).powi(2)).exp()
            }
            CovarianceKernel::Matern(MaternParams {
                sigma2,
                range,
                smoothness: nu,
            }) => {
                if d == 0.0 {
                    return sigma2;
                }
                // Closed forms for the common half-integer smoothness values,
                // under the paper's Eq. (6) parameterization (argument d/a with
                // no sqrt(2·nu) rescaling).
                let s = d / range;
                if (nu - 0.5).abs() < 1e-12 {
                    sigma2 * (-s).exp()
                } else if (nu - 1.5).abs() < 1e-12 {
                    sigma2 * (1.0 + s) * (-s).exp()
                } else if (nu - 2.5).abs() < 1e-12 {
                    sigma2 * (1.0 + s + s * s / 3.0) * (-s).exp()
                } else {
                    // General case via the modified Bessel function, as in Eq. (6):
                    // sigma^2 * 2^{1-nu}/Gamma(nu) * s^nu * K_nu(s).
                    let log_pref = matern_log_pref.unwrap_or_else(|| matern_log_prefactor(nu));
                    let k = bessel_k(nu, s);
                    if k == 0.0 {
                        return 0.0;
                    }
                    sigma2 * (log_pref + nu * s.ln()).exp() * k
                }
            }
        }
    }

    /// The entry `(i, j)` of the covariance matrix of `locs`:
    /// `C(‖locs[i] − locs[j]‖)` plus `nugget` on the diagonal. Every
    /// assembly builds it once, so per-kernel constants are evaluated once.
    /// `tlr::TlrMatrix::assemble(locs.len(), nb, compression, entry)` is the
    /// tiled covariance, dense or TLR.
    pub fn entry<'a>(
        &'a self,
        locs: &'a [Location],
        nugget: f64,
    ) -> impl Fn(usize, usize) -> f64 + Sync + 'a {
        let log_pref = match *self {
            CovarianceKernel::Matern(p) => Some(matern_log_prefactor(p.smoothness)),
            _ => None,
        };
        move |i, j| {
            self.cov_with(locs[i].distance(&locs[j]), log_pref) + if i == j { nugget } else { 0.0 }
        }
    }

    /// Marginal variance `C(0)`.
    pub fn sigma2(&self) -> f64 {
        match *self {
            CovarianceKernel::Exponential { sigma2, .. }
            | CovarianceKernel::SquaredExponential { sigma2, .. } => sigma2,
            CovarianceKernel::Matern(MaternParams { sigma2, .. }) => sigma2,
        }
    }

    /// Covariance between two locations.
    pub fn cov_loc(&self, a: &Location, b: &Location) -> f64 {
        self.cov(a.distance(b))
    }

    /// Assemble the dense covariance matrix for a set of locations, optionally
    /// adding a small diagonal `nugget` for numerical stability.
    ///
    /// Only the lower triangle is evaluated: blocks of columns fill their
    /// lower part in place as parallel tasks on a throwaway all-core pool,
    /// then the strict lower triangle is mirrored into the upper one. The
    /// result is bitwise the full-square `cov_loc` matrix because
    /// `cov_loc(a, b)` and `cov_loc(b, a)` have the same bits
    /// ([`Location::distance`] is bitwise symmetric).
    pub fn dense_covariance(&self, locs: &[Location], nugget: f64) -> DenseMatrix {
        let n = locs.len();
        let mut m = DenseMatrix::zeros(n, n);
        if n == 0 {
            return m;
        }
        let entry = self.entry(locs, nugget);
        let blocks: Vec<Mutex<&mut [f64]>> = m
            .data_mut()
            .chunks_mut(n * DENSE_BLOCK_COLS)
            .map(Mutex::new)
            .collect();
        task_runtime::run_map_once("assemble_cols", &blocks, |b, block| {
            let mut block = block.lock().unwrap();
            for (c, col) in block.chunks_mut(n).enumerate() {
                let j = b * DENSE_BLOCK_COLS + c;
                for (i, v) in col.iter_mut().enumerate().skip(j) {
                    *v = entry(i, j);
                }
            }
        });
        let data = m.data_mut();
        for j in 1..n {
            for i in 0..j {
                data[j * n + i] = data[i * n + j];
            }
        }
        m
    }

    /// The dense tiled covariance as a `SymTileMatrix`. Kept only for the
    /// `mvn_perf` benchmark; it goes when the benchmark moves to
    /// [`entry`](Self::entry) and `TlrMatrix::assemble`.
    pub fn tiled_covariance(&self, locs: &[Location], nb: usize, nugget: f64) -> SymTileMatrix {
        SymTileMatrix::from_fn(locs.len(), nb, self.entry(locs, nugget))
    }

    /// The TLR covariance. Kept only for the `mvn_perf` benchmark; it goes
    /// when the benchmark moves to [`entry`](Self::entry) and
    /// `TlrMatrix::assemble`. The rank cap is ignored: a low-rank tile's
    /// rank is at most its break-even rank, and each cap the benchmark
    /// passes (50 at nb = 100, 16 at 32, 18 at 36) is at or above that of
    /// its tiles.
    pub fn tlr_covariance(
        &self,
        locs: &[Location],
        nb: usize,
        nugget: f64,
        tol: CompressionTol,
        _max_rank: usize,
    ) -> TlrMatrix {
        TlrMatrix::assemble(locs.len(), nb, Some(tol), self.entry(locs, nugget))
    }
}

/// `ln(2^{1−ν}/Γ(ν))`, the log of the Matérn normalizing constant.
fn matern_log_prefactor(nu: f64) -> f64 {
    (1.0 - nu) * std::f64::consts::LN_2 - ln_gamma(nu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{jittered_grid, regular_grid};
    use mathx::relative_error;

    /// One kernel per arm of `cov`: exponential, squared exponential, the
    /// three Matérn closed forms and the general Bessel arm.
    fn every_arm() -> Vec<CovarianceKernel> {
        let matern = |smoothness| {
            CovarianceKernel::Matern(MaternParams {
                sigma2: 1.3,
                range: 0.1146,
                smoothness,
            })
        };
        let mut arms = vec![
            CovarianceKernel::Exponential {
                sigma2: 1.3,
                range: 0.1,
            },
            CovarianceKernel::SquaredExponential {
                sigma2: 1.3,
                range: 0.1,
            },
        ];
        arms.extend([0.5, 1.5, 2.5, 1.0, 1.43391].map(matern));
        arms
    }

    /// The full square, serially, straight from `cov_loc`.
    fn serial_full_square(k: &CovarianceKernel, locs: &[Location], nugget: f64) -> DenseMatrix {
        let n = locs.len();
        DenseMatrix::from_fn(n, n, |i, j| {
            k.cov_loc(&locs[i], &locs[j]) + if i == j { nugget } else { 0.0 }
        })
    }

    fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
        assert_eq!(
            (got.nrows(), got.ncols()),
            (want.nrows(), want.ncols()),
            "{what}"
        );
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}");
        }
    }

    #[test]
    fn cov_loc_is_bitwise_symmetric() {
        let locs = jittered_grid(9, 8, 11);
        for k in every_arm() {
            for a in &locs {
                for b in &locs {
                    assert_eq!(a.distance(b).to_bits(), b.distance(a).to_bits());
                    assert_eq!(
                        k.cov_loc(a, b).to_bits(),
                        k.cov_loc(b, a).to_bits(),
                        "{k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_covariance_is_bitwise_the_serial_full_square() {
        let locs = jittered_grid(10, 10, 3);
        let w = DENSE_BLOCK_COLS;
        for k in every_arm() {
            for n in [1, 2, w - 1, w, w + 1, 97] {
                let want = serial_full_square(&k, &locs[..n], 1e-8);
                let got = k.dense_covariance(&locs[..n], 1e-8);
                assert_same_bits(&got, &want, &format!("{k:?} n={n}"));
            }
        }
        assert_eq!(every_arm()[0].dense_covariance(&[], 1e-8).nrows(), 0);
        // From inside a task of another pool: the nested throwaway pool must
        // neither deadlock nor change a bit.
        let k = *every_arm().last().unwrap(); // general Matérn, ν = 1.43391
        let want = serial_full_square(&k, &locs[..97], 1e-8);
        let outer = task_runtime::WorkerPool::new(2);
        let nested = outer.map("outer", &[0u8; 3], |_, _| {
            k.dense_covariance(&locs[..97], 1e-8)
        });
        for got in &nested {
            assert_same_bits(got, &want, "nested");
        }
    }

    #[test]
    fn tiled_and_tlr_matern_assembly_are_bitwise_the_serial_entries() {
        // Matérn ν = 1 runs the general arm with the prefactor evaluated once
        // per assembly; the tiles must hold exactly what `cov_loc` gives.
        let locs = jittered_grid(9, 7, 5);
        let n = locs.len();
        let k = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.1146,
            smoothness: 1.0,
        });
        let want = serial_full_square(&k, &locs, 1e-8);
        let tiled = TlrMatrix::assemble(n, 16, None, k.entry(&locs, 1e-8));
        assert_same_bits(&tiled.to_dense_sym(), &want, "tiled");
        let tol = CompressionTol::Absolute(1e-6);
        let tlr = TlrMatrix::assemble(n, 16, Some(tol), k.entry(&locs, 1e-8));
        let tlr_want = TlrMatrix::assemble(n, 16, Some(tol), |i, j| want.get(i, j));
        assert_same_bits(&tlr.to_dense_sym(), &tlr_want.to_dense_sym(), "tlr");
    }

    #[test]
    fn matern_half_equals_exponential() {
        let m = CovarianceKernel::Matern(MaternParams {
            sigma2: 2.0,
            range: 0.3,
            smoothness: 0.5,
        });
        let e = CovarianceKernel::Exponential {
            sigma2: 2.0,
            range: 0.3,
        };
        for &d in &[0.0, 0.01, 0.1, 0.5, 1.0, 3.0] {
            assert!(relative_error(m.cov(d), e.cov(d)) < 1e-12, "d={d}");
        }
    }

    #[test]
    fn general_matern_matches_half_integer_closed_forms() {
        for &nu in &[0.5, 1.5, 2.5] {
            let closed = CovarianceKernel::Matern(MaternParams {
                sigma2: 1.3,
                range: 0.2,
                smoothness: nu,
            });
            // Force the general Bessel path by perturbing nu imperceptibly.
            let general = CovarianceKernel::Matern(MaternParams {
                sigma2: 1.3,
                range: 0.2,
                smoothness: nu + 1e-9,
            });
            for &d in &[0.01, 0.05, 0.2, 0.6] {
                assert!(
                    relative_error(closed.cov(d), general.cov(d)) < 1e-6,
                    "nu={nu}, d={d}: {} vs {}",
                    closed.cov(d),
                    general.cov(d)
                );
            }
        }
    }

    #[test]
    fn covariance_properties_hold() {
        let kernels = [
            CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: 0.1,
            },
            CovarianceKernel::Matern(MaternParams {
                sigma2: 1.0,
                range: 0.1,
                smoothness: 1.0,
            }),
            CovarianceKernel::SquaredExponential {
                sigma2: 1.0,
                range: 0.1,
            },
        ];
        for k in kernels {
            assert!((k.cov(0.0) - 1.0).abs() < 1e-12);
            // Monotone decreasing in distance.
            let mut prev = k.cov(0.0);
            for i in 1..30 {
                let v = k.cov(i as f64 * 0.05);
                assert!(v <= prev + 1e-15);
                assert!(v >= 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn wind_parameters_from_the_paper_produce_valid_kernel() {
        // The paper's fitted wind parameters: (1, 0.005069, 1.43391).
        let k = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.005069,
            smoothness: 1.43391,
        });
        assert!((k.cov(0.0) - 1.0).abs() < 1e-12);
        let v = k.cov(0.01);
        assert!(v > 0.0 && v < 1.0);
        assert!(k.cov(0.5) < 1e-10); // essentially uncorrelated far away
    }

    #[test]
    fn dense_and_tiled_assembly_agree() {
        let locs = regular_grid(7, 6);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.2,
        };
        let dense = k.dense_covariance(&locs, 1e-8);
        let tiled = TlrMatrix::assemble(locs.len(), 10, None, k.entry(&locs, 1e-8));
        assert!(tile_la::max_abs_diff(&dense, &tiled.to_dense_sym()) < 1e-14);
    }

    #[test]
    fn tlr_assembly_approximates_dense() {
        let locs = regular_grid(8, 8);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let dense = k.dense_covariance(&locs, 0.0);
        let tlr = TlrMatrix::assemble(
            locs.len(),
            16,
            Some(CompressionTol::Absolute(1e-7)),
            k.entry(&locs, 0.0),
        );
        assert!(tile_la::max_abs_diff(&dense, &tlr.to_dense_sym()) < 1e-5);
    }

    #[test]
    fn covariance_matrix_is_positive_definite() {
        let locs = regular_grid(9, 9);
        let k = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.15,
            smoothness: 1.5,
        });
        let mut l = TlrMatrix::assemble(locs.len(), 20, None, k.entry(&locs, 1e-10));
        assert!(tlr::potrf_tlr(&mut l, &task_runtime::WorkerPool::new(1)).is_ok());
    }

    #[test]
    fn prefactor_sane() {
        assert!(
            relative_error(
                matern_log_prefactor(0.5).exp(),
                2f64.powf(0.5) / std::f64::consts::PI.sqrt()
            ) < 1e-12
        );
        assert!(matern_log_prefactor(1.0).abs() < 1e-12);
    }
}
