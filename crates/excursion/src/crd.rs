//! Confidence region detection (the paper's Algorithm 1, lines 6–15).
//!
//! Locations are ordered by decreasing marginal exceedance probability; the
//! joint probability that every location of a prefix of that order exceeds the
//! threshold is a non-increasing function of the prefix length, so
//!
//! * the positive confidence function at the `k`-th ordered location is the
//!   joint probability of the length-`k` prefix, and
//! * the excursion set `E⁺ᵤ,α` is the longest prefix whose joint probability is
//!   still at least `1 − α`.
//!
//! Evaluating every prefix (as the paper's Algorithm 1 does) costs `n` MVN
//! integrals; [`detect_confidence_regions`] evaluates a configurable number of
//! prefix lengths (`levels`, spread uniformly, or every prefix when
//! `levels >= n`) and [`find_excursion_set`] locates the boundary prefix for a
//! single `α` by bisection, which needs only `O(log n)` integrals.
//!
//! All entry points take an [`MvnEngine`]: the detection run is a *session*
//! — many MVN integrals against one factor — so the worker pool is created
//! once and shared. [`detect_confidence_regions`] goes further and submits
//! all prefix integrals of the confidence-function sweep as **one batched
//! task graph** ([`MvnEngine::solve_batch`] semantics); the probabilities are
//! bitwise identical to evaluating them one by one.

use crate::marginal::{descending_order, marginal_exceedance};
use mvn_core::{FactorBackend, MvnConfig, MvnEngine, Problem};

/// Abstraction over "estimate the joint probabilities of a batch of MVN
/// problems" — the only capability the CRD drivers below actually need from
/// the solver stack.
///
/// Two implementations exist: [`EngineSolver`] (an engine plus a factor the
/// caller already holds — the in-process path every `detect_*` entry point
/// uses) and `mvn-service`'s served solver, which routes the same problems
/// through the request queue, micro-batcher and factor cache of a running
/// service. Because each problem's estimate is a pure function of the factor,
/// the limits and the sampling configuration, both implementations are
/// bitwise identical for the same configuration (tested in `mvn-service`).
pub trait JointSolver {
    /// The MVN dimension `n` every submitted problem must have.
    fn dim(&self) -> usize;

    /// Joint probabilities of `problems`, position-stable and clamped to
    /// `[0, 1]`. Implementations must return estimates bitwise identical to
    /// solving each problem on its own (the `solve_batch` contract), so the
    /// CRD results cannot depend on how the driver chunks its queries.
    fn joint_probabilities(&self, problems: &[Problem]) -> Vec<f64>;
}

/// The in-process [`JointSolver`]: an engine, a factor, and the sampling
/// configuration to solve with.
pub struct EngineSolver<'a, F: FactorBackend> {
    /// The session engine (owns the worker pool).
    pub engine: &'a MvnEngine,
    /// The correlation factor to solve against.
    pub factor: &'a F,
    /// Sampling parameters (sample size/kind, panel width, seed).
    pub mvn: MvnConfig,
}

impl<F: FactorBackend> JointSolver for EngineSolver<'_, F> {
    fn dim(&self) -> usize {
        self.factor.dim()
    }

    fn joint_probabilities(&self, problems: &[Problem]) -> Vec<f64> {
        self.engine
            .solve_batch_factored_with(self.factor, problems, &self.mvn)
            .iter()
            .map(|r| r.prob.clamp(0.0, 1.0))
            .collect()
    }
}

/// Configuration of a confidence-region detection run.
#[derive(Debug, Clone)]
pub struct CrdConfig {
    /// Exceedance threshold `u` (on the same scale as the mean/sd passed in).
    pub threshold: f64,
    /// Significance level `α` (the region has confidence `1 − α`).
    pub alpha: f64,
    /// Number of prefix lengths at which the joint probability is evaluated
    /// when building the confidence function (use `usize::MAX` or any value
    /// `≥ n` for the paper's full per-prefix sweep).
    pub levels: usize,
    /// How many prefix integrals [`detect_confidence_regions`] submits to the
    /// engine as one batched task graph. Each batch materializes
    /// `prefix_batch` problems of `O(n)` limits at once, so this knob trades
    /// peak memory (small batches) against per-graph submission overhead and
    /// available parallelism (large batches). `0` solves *all* evaluated
    /// prefixes as a single batch — `O(levels · n)` peak memory, quadratic
    /// for the full per-prefix sweep. The probabilities are bitwise
    /// independent of the batch size (tested).
    ///
    /// Default: 32.
    pub prefix_batch: usize,
    /// Sampling configuration of the underlying MVN probability estimator
    /// (sample size/kind, panel width, seed). The worker pool — and whether
    /// it streams — comes from the [`MvnEngine`] passed to the detection
    /// entry points.
    pub mvn: MvnConfig,
}

impl Default for CrdConfig {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            alpha: 0.05,
            levels: 20,
            prefix_batch: 32,
            mvn: MvnConfig::default(),
        }
    }
}

/// Output of [`detect_confidence_regions`].
#[derive(Debug, Clone)]
pub struct CrdResult {
    /// Marginal exceedance probability at every location.
    pub marginal: Vec<f64>,
    /// Location indices ordered by decreasing marginal probability (`opM`).
    pub order: Vec<usize>,
    /// The evaluated `(prefix length, joint probability)` pairs, in increasing
    /// prefix length.
    pub prefix_probs: Vec<(usize, f64)>,
    /// The positive confidence function `F⁺ᵤ` at every location (same indexing
    /// as `marginal`).
    pub confidence: Vec<f64>,
}

/// The integration box of a prefix: standardized threshold at prefix
/// positions, `-inf` elsewhere; upper limits all `+inf` (Algorithm 1, lines
/// 9, 12-13).
///
/// A degenerate in-prefix location (`sd == 0`, e.g. a conditioned site of a
/// kriging posterior) contributes the hard limit of the standardization: its
/// exceedance is deterministic, so the lower limit is `-inf` when
/// `mean > threshold` (the event holds surely — factor 1) and `+inf`
/// otherwise (the event is impossible — the whole prefix probability is 0).
/// This matches [`marginal_exceedance`]'s deterministic convention; note the
/// naive division `(threshold - mean)/sd` would produce `NaN` at the
/// `mean == threshold` tie.
fn prefix_problem(
    mean: &[f64],
    sd: &[f64],
    threshold: f64,
    order: &[usize],
    prefix_len: usize,
) -> Problem {
    let n = mean.len();
    let mut a = vec![f64::NEG_INFINITY; n];
    for &c in &order[..prefix_len] {
        a[c] = if sd[c] == 0.0 {
            if mean[c] > threshold {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            (threshold - mean[c]) / sd[c]
        };
    }
    Problem::new(a, vec![f64::INFINITY; n])
}

/// Joint exceedance probability of a prefix of the ordered locations:
/// `P(X_c > u for every c in order[..prefix_len])`, solved on the engine's
/// pool with the sampling parameters of `mvn`.
pub fn prefix_joint_probability<F: FactorBackend>(
    engine: &MvnEngine,
    factor: &F,
    mean: &[f64],
    sd: &[f64],
    threshold: f64,
    order: &[usize],
    prefix_len: usize,
    mvn: &MvnConfig,
) -> f64 {
    let n = mean.len();
    assert!(prefix_len <= n);
    if prefix_len == 0 {
        return 1.0;
    }
    let problem = prefix_problem(mean, sd, threshold, order, prefix_len);
    engine
        .solve_factored_with(factor, &problem.a, &problem.b, mvn)
        .prob
        .clamp(0.0, 1.0)
}

/// Run Algorithm 1: marginal probabilities, ordering, joint probabilities at a
/// set of prefix lengths, and the resulting confidence function.
///
/// All prefix integrals are submitted to the engine as **one batch** (one
/// task graph), so their independent panel sweeps share the engine's pool;
/// each probability is bitwise identical to a standalone
/// [`prefix_joint_probability`] call.
pub fn detect_confidence_regions<F: FactorBackend>(
    engine: &MvnEngine,
    factor: &F,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> CrdResult {
    detect_confidence_regions_with(
        &EngineSolver {
            engine,
            factor,
            mvn: cfg.mvn,
        },
        mean,
        sd,
        cfg,
    )
}

/// [`detect_confidence_regions`] against any [`JointSolver`] — the generic
/// driver the engine path above and `mvn-service`'s served CRD both call, so
/// the algorithm cannot drift between the library and the server. Note the
/// solver owns its sampling configuration; `cfg.mvn` is not consulted here.
pub fn detect_confidence_regions_with<S: JointSolver>(
    solver: &S,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> CrdResult {
    let n = mean.len();
    assert_eq!(sd.len(), n);
    assert_eq!(
        solver.dim(),
        n,
        "solver dimension must match number of locations"
    );
    assert!(cfg.alpha > 0.0 && cfg.alpha < 1.0, "alpha must be in (0,1)");

    let marginal = marginal_exceedance(mean, sd, cfg.threshold);
    let order = descending_order(&marginal);

    // Prefix lengths to evaluate: `levels` values spread over 1..=n.
    let levels = cfg.levels.max(1).min(n);
    let mut prefix_lens: Vec<usize> = (1..=levels).map(|k| (k * n).div_ceil(levels)).collect();
    prefix_lens.dedup();

    // Solve the prefix integrals in bounded batches: each batch is one task
    // graph (its panel sweeps share the engine's pool), while peak memory
    // stays O(batch · n). Materializing all problems at once would be
    // O(levels · n) — quadratic for the full per-prefix sweep
    // (`levels >= n`), i.e. tens of GB at paper-scale grids. The batch size
    // is the caller's knob (`CrdConfig::prefix_batch`; `0` = one batch) and
    // never changes the probabilities, bitwise.
    let batch = if cfg.prefix_batch == 0 {
        prefix_lens.len().max(1)
    } else {
        cfg.prefix_batch
    };
    let mut prefix_probs: Vec<(usize, f64)> = Vec::with_capacity(prefix_lens.len());
    for chunk in prefix_lens.chunks(batch) {
        let problems: Vec<Problem> = chunk
            .iter()
            .map(|&len| prefix_problem(mean, sd, cfg.threshold, &order, len))
            .collect();
        let results = solver.joint_probabilities(&problems);
        prefix_probs.extend(chunk.iter().zip(&results).map(|(&len, &p)| (len, p)));
    }
    // Joint probabilities of nested events are theoretically non-increasing;
    // enforce monotonicity to wash out QMC noise before interpolating.
    for i in 1..prefix_probs.len() {
        if prefix_probs[i].1 > prefix_probs[i - 1].1 {
            prefix_probs[i].1 = prefix_probs[i - 1].1;
        }
    }

    // Confidence function: F+ at the k-th ordered location is the joint
    // probability of the length-k prefix; between evaluated lengths we
    // interpolate linearly in the prefix length.
    let mut confidence = vec![0.0; n];
    let mut prev_len = 0usize;
    let mut prev_prob = 1.0;
    for &(len, p) in &prefix_probs {
        for k in (prev_len + 1)..=len {
            let t = if len == prev_len {
                1.0
            } else {
                (k - prev_len) as f64 / (len - prev_len) as f64
            };
            confidence[order[k - 1]] = prev_prob + t * (p - prev_prob);
        }
        prev_len = len;
        prev_prob = p;
    }
    // Any tail locations beyond the last evaluated prefix keep the final value.
    for k in (prev_len + 1)..=n {
        confidence[order[k - 1]] = prev_prob;
    }

    CrdResult {
        marginal,
        order,
        prefix_probs,
        confidence,
    }
}

/// The excursion set at level `α`: all locations whose confidence function is
/// at least `1 − α`.
pub fn excursion_set(result: &CrdResult, alpha: f64) -> Vec<usize> {
    result
        .confidence
        .iter()
        .enumerate()
        .filter(|(_, &f)| f >= 1.0 - alpha)
        .map(|(i, _)| i)
        .collect()
}

/// Find the excursion set `E⁺ᵤ,α` directly by bisection over the prefix length
/// (at most `⌈log₂ n⌉ + 1` MVN evaluations). Returns the selected location
/// indices and the joint probability of the selected prefix.
pub fn find_excursion_set<F: FactorBackend>(
    engine: &MvnEngine,
    factor: &F,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> (Vec<usize>, f64) {
    find_excursion_set_with(
        &EngineSolver {
            engine,
            factor,
            mvn: cfg.mvn,
        },
        mean,
        sd,
        cfg,
    )
}

/// [`find_excursion_set`] against any [`JointSolver`] (see
/// [`detect_confidence_regions_with`]); the solver owns its sampling
/// configuration, `cfg.mvn` is not consulted.
pub fn find_excursion_set_with<S: JointSolver>(
    solver: &S,
    mean: &[f64],
    sd: &[f64],
    cfg: &CrdConfig,
) -> (Vec<usize>, f64) {
    let n = mean.len();
    let marginal = marginal_exceedance(mean, sd, cfg.threshold);
    let order = descending_order(&marginal);
    let target = 1.0 - cfg.alpha;

    let joint = |len: usize| {
        if len == 0 {
            return 1.0;
        }
        let problem = prefix_problem(mean, sd, cfg.threshold, &order, len);
        solver.joint_probabilities(std::slice::from_ref(&problem))[0]
    };

    // Empty prefix always qualifies (probability 1; `joint(0)` is 1 by
    // definition). If even the full set qualifies, return everything. The
    // full-set probability is clamped against the empty-prefix bracket
    // (`≤ 1`) exactly like every bisection probe below.
    let p_full = joint(n).min(1.0);
    if p_full >= target {
        return (order.clone(), p_full);
    }
    // Bisection invariant: joint(lo) ≥ target > joint(hi), with
    // lo_prob/hi_prob the (monotone-consistent) probabilities of the
    // bracket. Joint probabilities of nested prefixes are theoretically
    // non-increasing in the prefix length, but the raw QMC estimates are
    // not: estimator noise can return `joint(mid) > joint(lo)` for
    // `mid > lo` (or below `joint(hi)`), and carrying such a value forward
    // used to report a boundary probability inconsistent with the clamped
    // confidence function of `detect_confidence_regions` on the same
    // inputs. Clamping every probe into the running bracket
    // `[hi_prob, lo_prob]` washes the noise out: the stored bracket stays a
    // genuine non-increasing sequence, and the returned probability is the
    // monotone-consistent estimate of the selected prefix (the minimum over
    // the accepted probes). `min`/`max` rather than `f64::clamp` so a NaN
    // probe cannot poison the bracket or panic.
    let mut lo = 0usize;
    let mut hi = n;
    let mut lo_prob = 1.0f64;
    let mut hi_prob = p_full;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let p = joint(mid).min(lo_prob).max(hi_prob);
        if p >= target {
            lo = mid;
            lo_prob = p;
        } else {
            hi = mid;
            hi_prob = p;
        }
    }
    let mut region: Vec<usize> = order[..lo].to_vec();
    region.sort_unstable();
    (region, lo_prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::correlation_factor_dense;
    use geostat::{regular_grid, CovarianceKernel};
    use tile_la::DenseMatrix;

    fn test_engine() -> MvnEngine {
        MvnEngine::builder().workers(2).build().unwrap()
    }

    /// Independent unit-variance field with a prescribed mean.
    fn independent_factor(n: usize) -> (crate::CorrelationFactor, Vec<f64>) {
        let cov = DenseMatrix::identity(n);
        correlation_factor_dense(&cov, (n / 3).max(2))
    }

    fn spatial_factor(side: usize) -> (crate::CorrelationFactor, Vec<f64>, Vec<f64>) {
        let locs = regular_grid(side, side);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        };
        let cov = k.dense_covariance(&locs, 1e-8);
        let (f, sd) = correlation_factor_dense(&cov, 32);
        // A smooth mean surface: high in one corner, low in the other.
        let mean: Vec<f64> = locs.iter().map(|l| 2.0 - 3.0 * (l.x + l.y) / 2.0).collect();
        (f, sd, mean)
    }

    #[test]
    fn independent_case_confidence_equals_product_of_marginals() {
        // With independence, the joint probability of a prefix is the product
        // of its marginal probabilities, so the confidence function can be
        // checked in closed form.
        let n = 10;
        let (factor, sd) = independent_factor(n);
        let mean: Vec<f64> = (0..n).map(|i| 3.0 - 0.4 * i as f64).collect();
        let cfg = CrdConfig {
            threshold: 0.0,
            alpha: 0.05,
            levels: n, // full sweep
            mvn: MvnConfig::with_samples(500),
            ..Default::default()
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        // Check the evaluated prefix probabilities against the product form.
        let marg = &r.marginal;
        for &(len, p) in &r.prefix_probs {
            let want: f64 = r.order[..len].iter().map(|&c| marg[c]).product();
            assert!((p - want).abs() < 1e-6, "len={len}: {p} vs {want}");
        }
    }

    #[test]
    fn confidence_function_is_monotone_along_the_ordering() {
        let (factor, sd, mean) = spatial_factor(9);
        let cfg = CrdConfig {
            threshold: 0.5,
            alpha: 0.05,
            levels: 15,
            mvn: MvnConfig::with_samples(1000),
            ..Default::default()
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        for w in r.order.windows(2) {
            assert!(
                r.confidence[w[0]] >= r.confidence[w[1]] - 1e-12,
                "confidence must decrease along the marginal ordering"
            );
        }
        // And it is bounded by the marginal probability (joint <= marginal).
        for i in 0..mean.len() {
            assert!(r.confidence[i] <= r.marginal[i] + 5e-2);
        }
    }

    #[test]
    fn excursion_set_shrinks_as_confidence_increases() {
        let (factor, sd, mean) = spatial_factor(8);
        let cfg = CrdConfig {
            threshold: 0.3,
            alpha: 0.05,
            levels: 16,
            mvn: MvnConfig::with_samples(1500),
            ..Default::default()
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        let loose = excursion_set(&r, 0.5);
        let strict = excursion_set(&r, 0.01);
        assert!(strict.len() <= loose.len());
        for i in &strict {
            assert!(loose.contains(i));
        }
    }

    #[test]
    fn bisection_agrees_with_full_sweep_on_independent_case() {
        let n = 12;
        let (factor, sd) = independent_factor(n);
        let mean: Vec<f64> = (0..n).map(|i| 2.5 - 0.5 * i as f64).collect();
        let cfg = CrdConfig {
            threshold: 0.0,
            alpha: 0.1,
            levels: n,
            mvn: MvnConfig::with_samples(500),
            ..Default::default()
        };
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        let sweep_region = excursion_set(&r, cfg.alpha);
        let (bisect_region, prob) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(prob >= 1.0 - cfg.alpha - 1e-6);
        // The two should agree up to one boundary location (QMC noise).
        let diff = sweep_region.len().abs_diff(bisect_region.len());
        assert!(
            diff <= 1,
            "sweep {:?} vs bisect {:?}",
            sweep_region,
            bisect_region
        );
    }

    #[test]
    fn prefix_probability_edge_cases() {
        let (factor, sd) = independent_factor(5);
        let mean = vec![0.0; 5];
        let cfg = MvnConfig::with_samples(200);
        let order: Vec<usize> = (0..5).collect();
        let p0 =
            prefix_joint_probability(&test_engine(), &factor, &mean, &sd, 0.0, &order, 0, &cfg);
        assert_eq!(p0, 1.0);
        let p5 =
            prefix_joint_probability(&test_engine(), &factor, &mean, &sd, 0.0, &order, 5, &cfg);
        assert!((p5 - 0.5f64.powi(5)).abs() < 1e-6);
    }

    #[test]
    fn bisection_reports_monotone_consistent_probability_under_noise() {
        // Regression for the bisection bugfix. Raw QMC prefix probabilities
        // are *not* monotone in the prefix length — estimator noise wobbles
        // them — and the pre-fix bisection returned the raw estimate of the
        // final accepted prefix even when an earlier (shorter!) accepted
        // prefix had a lower estimate, i.e. a probability inconsistent with
        // the clamped confidence function `detect_confidence_regions` builds
        // from the same values. The fix clamps every probe into the running
        // bracket, so the returned probability is the running minimum over
        // the accepted probes.
        //
        // Noise-prone config: strongly equicorrelated field, tiny
        // pseudo-random sample, and — crucially — marginal probabilities
        // *increasing* with the location index, so the marginal ordering
        // runs against the factor's row order. (When the orders coincide,
        // each new prefix site is the last processed row and the
        // common-point SOV estimates are pathwise monotone by construction;
        // with the reversed ordering every extension perturbs all downstream
        // per-sample factors, which is what makes raw estimates
        // non-monotone in practice.)
        let n = 24;
        let cov = DenseMatrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.95 });
        let (factor, sd) = correlation_factor_dense(&cov, 8);
        let mean: Vec<f64> = (0..n).map(|i| 0.35 + 0.05 * i as f64).collect();
        let threshold = 0.0;
        let alpha = 0.32;
        let target = 1.0 - alpha;
        let engine = test_engine();
        let order = crate::descending_order(&crate::marginal_exceedance(&mean, &sd, threshold));

        // Search deterministically for a seed whose raw estimates make the
        // bisection's accepted chain non-monotone; the search order is
        // fixed, so the test is reproducible.
        let mut found = None;
        'seeds: for seed in 0..200u64 {
            let mvn = MvnConfig {
                sample_size: 32,
                sample_kind: qmc::SampleKind::PseudoRandom,
                seed,
                ..Default::default()
            };
            let raw: Vec<f64> = (1..=n)
                .map(|k| {
                    prefix_joint_probability(
                        &engine, &factor, &mean, &sd, threshold, &order, k, &mvn,
                    )
                })
                .collect();
            if raw[n - 1].min(1.0) >= target {
                continue; // full set qualifies, no bisection
            }
            // Replay the bisection's probe sequence on the raw values (the
            // bracket clamp never changes an accept/reject decision, only
            // the reported probability, so this mirrors both the pre- and
            // post-fix visit order).
            let (mut lo, mut hi) = (0usize, n);
            let mut accepted_min = 1.0f64;
            let mut last_accepted = 1.0f64;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if raw[mid - 1] >= target {
                    lo = mid;
                    accepted_min = accepted_min.min(raw[mid - 1]);
                    last_accepted = raw[mid - 1];
                } else {
                    hi = mid;
                }
            }
            // The bug is observable only when the accepted chain itself is
            // non-monotone: the final accepted raw value (what the pre-fix
            // code returned) sits strictly above an earlier accepted one.
            if lo > 0 && accepted_min < last_accepted {
                found = Some((mvn, lo, accepted_min, last_accepted));
                break 'seeds;
            }
        }
        let (mvn, lo, accepted_min, last_accepted) =
            found.expect("the noise-prone config must exhibit a non-monotone accepted chain");
        assert!(accepted_min < last_accepted);

        let cfg = CrdConfig {
            threshold,
            alpha,
            levels: n,
            mvn,
            ..Default::default()
        };
        let (region, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
        assert_eq!(region.len(), lo, "probe replay must match the bisection");
        // Pre-fix this returned `last_accepted` (the raw final probe);
        // post-fix it must be the monotone-consistent running minimum.
        assert!(
            prob.to_bits() == accepted_min.to_bits(),
            "returned probability {prob} must be the bracket-clamped minimum \
             {accepted_min}, not the raw final probe {last_accepted}"
        );
        assert!(prob >= target);
    }

    #[test]
    fn bisection_agrees_with_full_sweep_across_thresholds_and_alphas() {
        // `find_excursion_set` against the paper's full per-prefix sweep
        // (`levels >= n`) + `excursion_set`, same seed, several thresholds
        // and confidence levels: the prefix integrals are bitwise identical
        // between the two paths (batched vs. individual solves), so with a
        // well-resolved estimator both must select exactly the same region.
        let (factor, sd, mean) = spatial_factor(7);
        let engine = test_engine();
        for &threshold in &[0.0, 0.4, 0.8] {
            for &alpha in &[0.05, 0.1, 0.3] {
                let cfg = CrdConfig {
                    threshold,
                    alpha,
                    levels: usize::MAX, // full sweep
                    mvn: MvnConfig::with_samples(2000),
                    ..Default::default()
                };
                let r = detect_confidence_regions(&engine, &factor, &mean, &sd, &cfg);
                let sweep_region = excursion_set(&r, alpha);
                let (bisect_region, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
                assert!(bisect_region.is_empty() || prob >= 1.0 - alpha);
                assert_eq!(
                    bisect_region, sweep_region,
                    "threshold={threshold} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn crd_handles_zero_variance_sites_end_to_end() {
        // A kriging posterior has sd == 0 at conditioned sites; CRD must
        // treat them deterministically instead of panicking (pre-fix:
        // `marginal_exceedance` asserted s > 0 and `prefix_problem` divided
        // by zero).
        let locs = regular_grid(6, 6);
        let k = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        };
        let mut cov = k.dense_covariance(&locs, 1e-8);
        let n = locs.len();
        let mut mean: Vec<f64> = locs.iter().map(|l| 1.5 - 2.0 * (l.x + l.y) / 2.0).collect();
        // Three observed sites: two surely above the threshold, one surely
        // below (and one exactly at it — not an exceedance).
        let (sure_hi, sure_lo, at_threshold) = (5usize, 20usize, 30usize);
        for &d in &[sure_hi, sure_lo, at_threshold] {
            for j in 0..n {
                cov.set(d, j, 0.0);
                cov.set(j, d, 0.0);
            }
        }
        let threshold = 0.5;
        mean[sure_hi] = 2.0;
        mean[sure_lo] = -1.0;
        mean[at_threshold] = threshold;
        let (factor, sd) = correlation_factor_dense(&cov, 12);
        assert_eq!(sd[sure_hi], 0.0);

        let cfg = CrdConfig {
            threshold,
            alpha: 0.05,
            levels: usize::MAX,
            mvn: MvnConfig::with_samples(1000),
            ..Default::default()
        };
        let engine = test_engine();
        let r = detect_confidence_regions(&engine, &factor, &mean, &sd, &cfg);
        assert_eq!(r.marginal[sure_hi], 1.0);
        assert_eq!(r.marginal[sure_lo], 0.0);
        assert_eq!(r.marginal[at_threshold], 0.0, "ties are not exceedances");
        // The sure site sorts first and its prefix has probability exactly 1.
        assert_eq!(r.order[0], sure_hi);
        assert_eq!(r.prefix_probs[0].1, 1.0);
        let region = excursion_set(&r, cfg.alpha);
        assert!(region.contains(&sure_hi), "sure site belongs to the region");
        assert!(!region.contains(&sure_lo));
        assert!(!region.contains(&at_threshold));
        // Bisection sees the same degenerate convention.
        let (bregion, prob) = find_excursion_set(&engine, &factor, &mean, &sd, &cfg);
        assert!(bregion.contains(&sure_hi));
        assert!(!bregion.contains(&sure_lo));
        assert!(prob >= 1.0 - cfg.alpha);
        assert_eq!(bregion, region, "sweep and bisection agree end-to-end");
    }

    #[test]
    fn prefix_batch_size_never_changes_the_probabilities_bitwise() {
        // The batched sweep must be a pure memory/scheduling knob: any batch
        // size (including 0 = "one batch" and sizes that split unevenly)
        // yields bitwise-identical prefix probabilities and confidence
        // values.
        let (factor, sd, mean) = spatial_factor(6);
        let engine = test_engine();
        let mk = |prefix_batch: usize| CrdConfig {
            threshold: 0.4,
            alpha: 0.05,
            levels: usize::MAX,
            prefix_batch,
            mvn: MvnConfig::with_samples(600),
        };
        let want = detect_confidence_regions(&engine, &factor, &mean, &sd, &mk(32));
        for pb in [0usize, 1, 2, 5, 7, usize::MAX] {
            let got = detect_confidence_regions(&engine, &factor, &mean, &sd, &mk(pb));
            assert_eq!(got.prefix_probs.len(), want.prefix_probs.len());
            for (g, w) in got.prefix_probs.iter().zip(&want.prefix_probs) {
                assert_eq!(g.0, w.0);
                assert!(
                    g.1.to_bits() == w.1.to_bits(),
                    "prefix_batch={pb} len={}: {} vs {}",
                    g.0,
                    g.1,
                    w.1
                );
            }
            for (g, w) in got.confidence.iter().zip(&want.confidence) {
                assert!(g.to_bits() == w.to_bits(), "prefix_batch={pb}");
            }
        }
    }

    #[test]
    fn everything_qualifies_when_threshold_is_very_low() {
        let (factor, sd, mean) = spatial_factor(6);
        let cfg = CrdConfig {
            threshold: -50.0,
            alpha: 0.05,
            levels: 8,
            mvn: MvnConfig::with_samples(500),
            ..Default::default()
        };
        let (region, prob) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert_eq!(region.len(), mean.len());
        assert!(prob > 0.99);
    }

    #[test]
    fn nothing_qualifies_when_threshold_is_very_high() {
        let (factor, sd, mean) = spatial_factor(6);
        let cfg = CrdConfig {
            threshold: 50.0,
            alpha: 0.05,
            levels: 8,
            mvn: MvnConfig::with_samples(500),
            ..Default::default()
        };
        let (region, _) = find_excursion_set(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(region.is_empty());
        let r = detect_confidence_regions(&test_engine(), &factor, &mean, &sd, &cfg);
        assert!(excursion_set(&r, 0.05).is_empty());
    }
}
