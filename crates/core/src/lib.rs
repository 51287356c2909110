//! # mvn-core — high-dimensional multivariate normal probabilities
//!
//! This crate implements the paper's primary contribution: the
//! Separation-of-Variables (SOV) algorithm for the multivariate normal (MVN)
//! probability
//!
//! ```text
//! Φₙ(a, b; 0, Σ) = ∫_a^b (2π)^{-n/2} |Σ|^{-1/2} exp(-½ xᵀΣ⁻¹x) dx
//! ```
//!
//! in three flavours:
//!
//! * [`MvnEngine`] ([`engine`] module) — the solver front door: the paper's
//!   tiled, task-parallel PMVN algorithm (Algorithms 2 and 3, [`pmvn`]),
//!   running the QMC chains in independent column panels and propagating the
//!   SOV recursion row-block by row-block with `GEMM`s against the (dense,
//!   TLR or Vecchia) factor. The engine owns a persistent worker pool,
//!   returns reusable [`Factor`] handles and batches independent solves into
//!   one task set of `panel_sweep` tasks against the finished factor,
//! * [`genz::mvn_prob_genz`] — the sequential Genz (1992) quasi-Monte-Carlo
//!   algorithm operating on a dense Cholesky factor (the reference
//!   implementation the parallel versions are validated against),
//! * [`mc::mvn_prob_mc`] — the naive Monte-Carlo baseline (sample `x = L·z`,
//!   count how often it falls inside the box), used for validation exactly as
//!   in the paper's accuracy figures.
//!
//! The [`MvnConfig`]/[`MvnResult`] types are shared by all three, and
//! [`sov`] contains the scalar recursion used by both the sequential and the
//! tiled paths.

pub mod engine;
pub mod genz;
pub mod mc;
pub mod pmvn;
pub mod sov;
pub mod vecchia;

pub use engine::{
    validate_limits, EngineError, Factor, FactorBackend, MvnEngine, MvnEngineBuilder, Problem,
    ProblemError, MAX_ENGINE_WORKERS,
};
pub use genz::mvn_prob_genz;
pub use mc::mvn_prob_mc;
pub use pmvn::{
    combine_panel_results, qmc_kernel, qmc_kernel_scratch, sweep_panel, CholeskyFactor, QmcScratch,
};
pub use sov::{sov_sample_probability, truncate_limits, vecchia_sample_probability};
pub use vecchia::{
    build_vecchia_factor, full_conditioning_plan, VecchiaError, VecchiaFactor, VecchiaPlan,
};

use qmc::SampleKind;

/// Storage format of a Cholesky factorization — the single problem-spec
/// vocabulary shared by every layer that talks about factors: the engine
/// (which reports the format of a factor it built) and the `mvn-service`
/// serving layer (which selects the format a covariance is factored in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorKind {
    /// Dense tiles everywhere.
    Dense,
    /// Tile low-rank off-diagonal tiles.
    Tlr {
        /// Representative off-diagonal rank. A built factor reports the
        /// rounded mean rank of its off-diagonal tiles; the serving layer
        /// uses it as the compression *rank cap* passed to the TLR assembly
        /// (`0` = uncapped).
        mean_rank: usize,
    },
    /// Vecchia ordered-conditioning approximation: `O(n·m)` storage, sweep
    /// cost linear in `n` — the format for the `n ≫ 10⁴` regime no global
    /// factorization can reach (see [`vecchia`]).
    Vecchia {
        /// Conditioning-set size (maximum number of previously-ordered
        /// neighbors each location conditions on).
        m: usize,
    },
}

impl FactorKind {
    /// Short human/wire label of the storage format (`"dense"`, `"tlr"`,
    /// `"vecchia"`) — the single vocabulary used by `Debug` output, the
    /// service wire protocol and bench labels.
    pub fn label(&self) -> &'static str {
        match self {
            FactorKind::Dense => "dense",
            FactorKind::Tlr { .. } => "tlr",
            FactorKind::Vecchia { .. } => "vecchia",
        }
    }
}

/// The sampling description shared by all MVN probability estimators. How
/// the work is executed (the worker count) is not part of it:
/// that lives on [`MvnEngineBuilder`] and the estimate is bitwise independent
/// of it.
#[derive(Debug, Clone, Copy)]
pub struct MvnConfig {
    /// Number of (quasi-)Monte-Carlo samples `N` (the paper uses 100 / 1,000 /
    /// 10,000; 10,000 consistently gave the best accuracy).
    pub sample_size: usize,
    /// Width of a sample-column panel (the paper's tile size `m` along the
    /// sample dimension). Each panel is processed as one independent task.
    pub panel_width: usize,
    /// Which sampling family to use for the integration points.
    pub sample_kind: SampleKind,
    /// Random seed (controls the QMC shift / MC stream).
    pub seed: u64,
}

impl Default for MvnConfig {
    fn default() -> Self {
        Self {
            sample_size: 10_000,
            panel_width: 64,
            sample_kind: SampleKind::RichtmyerLattice,
            seed: 42,
        }
    }
}

impl MvnConfig {
    /// A convenience constructor fixing the sample size and keeping the other
    /// defaults.
    pub fn with_samples(sample_size: usize) -> Self {
        Self {
            sample_size,
            ..Default::default()
        }
    }
}

/// Result of an MVN probability estimation.
#[derive(Debug, Clone, Copy)]
pub struct MvnResult {
    /// The probability estimate.
    pub prob: f64,
    /// Estimated standard error of the estimate (batch-based).
    pub std_error: f64,
    /// Number of samples actually used.
    pub samples: usize,
}

impl MvnResult {
    /// Aggregate per-batch `(mean, sample count)` pairs into an overall
    /// estimate.
    ///
    /// The probability is the exact sample mean (batch means weighted by their
    /// sample counts); the standard error is estimated from the spread of the
    /// batch means, which is the usual batch-means error estimate for
    /// (randomized-)QMC estimators.
    ///
    /// **Single-batch semantics:** with fewer than two batches there is no
    /// spread to estimate from, so `std_error` is `f64::NAN`, meaning "error
    /// estimate unavailable" (*not* "error is zero"). Consumers that need an
    /// interval should call [`MvnResult::half_width`], which maps this case
    /// to an unbounded (`f64::INFINITY`) half-width instead of silently
    /// claiming perfect accuracy. An empty input additionally yields
    /// `prob = NAN` and `samples = 0`.
    pub fn from_batches(batches: &[(f64, usize)]) -> Self {
        let total: usize = batches.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return Self {
                prob: f64::NAN,
                std_error: f64::NAN,
                samples: 0,
            };
        }
        let prob = batches.iter().map(|(m, c)| m * *c as f64).sum::<f64>() / total as f64;
        let nb = batches.len() as f64;
        let std_error = if batches.len() > 1 {
            let mean_of_means = batches.iter().map(|(m, _)| m).sum::<f64>() / nb;
            let var = batches
                .iter()
                .map(|(m, _)| (m - mean_of_means) * (m - mean_of_means))
                .sum::<f64>()
                / (nb - 1.0);
            (var / nb).sqrt()
        } else {
            f64::NAN
        };
        Self {
            prob,
            std_error,
            samples: total,
        }
    }

    /// Half-width of the `z`-sigma interval around [`prob`](MvnResult::prob):
    /// `z · std_error`.
    ///
    /// When the standard error is unavailable (`NaN` — a single batch, see
    /// [`MvnResult::from_batches`]) this returns `f64::INFINITY`: the honest
    /// interval from one batch is unbounded. Use this instead of multiplying
    /// `std_error` by hand, so the unavailable case cannot leak `NaN` into
    /// comparisons (every `x < NaN` is false, which would silently pass or
    /// fail agreement checks depending on how they are written).
    pub fn half_width(&self, z: f64) -> f64 {
        if self.std_error.is_nan() {
            f64::INFINITY
        } else {
            z * self.std_error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sensible() {
        let c = MvnConfig::default();
        assert_eq!(c.sample_size, 10_000);
        assert!(c.panel_width > 0);
        let c2 = MvnConfig::with_samples(500);
        assert_eq!(c2.sample_size, 500);
        assert_eq!(c2.panel_width, c.panel_width);
    }

    #[test]
    fn batch_mean_aggregation() {
        let r = MvnResult::from_batches(&[(0.2, 1000), (0.3, 1000), (0.25, 1000), (0.25, 1000)]);
        assert!((r.prob - 0.25).abs() < 1e-12);
        assert!(r.std_error > 0.0 && r.std_error < 0.05);
        assert_eq!(r.samples, 4000);
        let single = MvnResult::from_batches(&[(0.5, 100)]);
        assert_eq!(single.prob, 0.5);
        assert!(single.std_error.is_nan());
        let empty = MvnResult::from_batches(&[]);
        assert!(empty.prob.is_nan());
    }

    #[test]
    fn half_width_scales_the_standard_error_and_handles_the_nan_case() {
        let r = MvnResult {
            prob: 0.5,
            std_error: 0.01,
            samples: 1000,
        };
        assert!((r.half_width(2.0) - 0.02).abs() < 1e-15);
        // Single batch: std_error is NaN ("unavailable"), the interval is
        // unbounded rather than NaN-poisoned.
        let single = MvnResult::from_batches(&[(0.5, 100)]);
        assert_eq!(single.half_width(4.0), f64::INFINITY);
    }

    #[test]
    fn unequal_batches_are_weighted_by_sample_count() {
        // 100 samples at 1.0 and 900 samples at 0.0 must give 0.1, not 0.5.
        let r = MvnResult::from_batches(&[(1.0, 100), (0.0, 900)]);
        assert!((r.prob - 0.1).abs() < 1e-15);
    }
}
