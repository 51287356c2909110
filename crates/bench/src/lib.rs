//! Shared helpers for the benchmark and report harnesses that regenerate the
//! paper's tables and figures. Each figure/table has a dedicated binary (see
//! `src/bin/`) or Criterion bench (see `benches/`); the experiments table in
//! `DESIGN.md` maps them to the paper.

use geostat::{regular_grid, CovarianceKernel, Location};
use mvn_core::{Factor, MvnConfig, MvnEngine};
use std::time::Instant;
use tlr::CompressionTol;

/// The paper's three synthetic correlation settings (exponential kernel ranges
/// 0.033 / 0.1 / 0.234 on the unit square).
pub const CORRELATION_SETTINGS: &[(&str, f64)] =
    &[("weak", 0.033), ("medium", 0.1), ("strong", 0.234)];

/// A synthetic spatial problem: grid locations plus the exponential covariance
/// kernel at one of the paper's correlation ranges.
pub struct SyntheticProblem {
    /// Grid locations on the unit square.
    pub locations: Vec<Location>,
    /// The covariance kernel.
    pub kernel: CovarianceKernel,
    /// Human-readable name of the correlation setting.
    pub label: String,
}

impl SyntheticProblem {
    /// Build a `side × side` regular-grid problem with the given correlation
    /// range.
    pub fn new(side: usize, range: f64, label: &str) -> Self {
        Self {
            locations: regular_grid(side, side),
            kernel: CovarianceKernel::Exponential { sigma2: 1.0, range },
            label: label.to_string(),
        }
    }

    /// Number of locations.
    pub fn n(&self) -> usize {
        self.locations.len()
    }

    /// Assemble the covariance in dense tiled form and factor it on the
    /// engine; returns the factor and the factorization time in seconds.
    pub fn dense_factor(&self, engine: &MvnEngine, nb: usize) -> (Factor, f64) {
        let sigma = self.kernel.tiled_covariance(&self.locations, nb, 1e-9);
        timed(|| engine.factor_dense(sigma).expect("covariance must be SPD"))
    }

    /// Assemble the covariance in TLR form and factor it on the engine;
    /// returns the factor and the factorization time in seconds.
    pub fn tlr_factor(
        &self,
        engine: &MvnEngine,
        nb: usize,
        tol: f64,
        max_rank: usize,
    ) -> (Factor, f64) {
        let sigma = self.kernel.tlr_covariance(
            &self.locations,
            nb,
            1e-9,
            CompressionTol::Absolute(tol),
            max_rank,
        );
        timed(|| engine.factor_tlr(sigma).expect("covariance must be SPD"))
    }
}

/// Exceedance-style integration limits used by the timing experiments: lower
/// limit 0 (in standardized units) at every site, upper limit +∞.
pub fn exceedance_limits(n: usize) -> (Vec<f64>, Vec<f64>) {
    (vec![0.0; n], vec![f64::INFINITY; n])
}

/// An `MvnConfig` with the given QMC sample size and a fixed seed (so report
/// runs are reproducible).
pub fn mvn_config(samples: usize) -> MvnConfig {
    MvnConfig {
        sample_size: samples,
        panel_width: 64,
        seed: 20240518,
        ..Default::default()
    }
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `true` if `--full` was passed to a report binary (paper-scale sizes instead
/// of laptop-scale defaults).
pub fn full_scale_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_problem_builders_work() {
        let p = SyntheticProblem::new(8, 0.1, "medium");
        assert_eq!(p.n(), 64);
        let engine = MvnEngine::with_config(mvn_config(100)).unwrap();
        let (dense, t_dense) = p.dense_factor(&engine, 16);
        assert_eq!(dense.dim(), 64);
        assert!(t_dense >= 0.0);
        let (tlr, _) = p.tlr_factor(&engine, 16, 1e-6, 16);
        assert_eq!(tlr.dim(), 64);
        let (a, b) = exceedance_limits(64);
        assert_eq!(a.len(), 64);
        assert!(b.iter().all(|&x| x == f64::INFINITY));
        assert_eq!(mvn_config(100).sample_size, 100);
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
