//! `MvnEngine` — a persistent solver session for MVN probabilities.
//!
//! Spinning a worker pool up and down inside every call is exactly the
//! overhead that dominates hot loops which factor and solve hundreds of small
//! problems per optimization (the MLE objective). The
//! paper's StarPU runtime instead keeps one worker pool alive for the whole
//! confidence-region detection run; `MvnEngine` is that session object, and
//! the only solver front door:
//!
//! * it holds a persistent [`WorkerPool`] (threads parked on a condvar between
//!   graph submissions) — its own, or one shared with other engines through
//!   [`MvnEngineBuilder::pool`],
//! * [`MvnEngine::factor`] factors a tiled covariance (dense or TLR, as
//!   [`TlrMatrix::assemble`] built it) on the pool and returns a reusable
//!   [`Factor`] handle, so one factorization is amortized across many
//!   probability queries (the low-rank-MVN amortization of Cao et al.
//!   2020),
//! * [`MvnEngine::solve`] estimates one probability against a factor, and
//!   [`MvnEngine::solve_batch`] submits *all* problems of a batch into one
//!   task graph, so independent small solves share the pool instead of
//!   serializing per-call setup, and [`MvnEngine::solve_prefixes`] returns
//!   every prefix probability of one box from a single sweep.
//!
//! Every probability is factored first, then swept: each solve is one
//! `panel_sweep` task per sample panel against the finished factor.
//!
//! Every probability produced by the engine is a pure function of the factor,
//! the limits and the [`MvnConfig`]: bitwise identical for any worker count
//! (enforced by the tests below and `tests/golden_bitwise.rs`).
//!
//! ```
//! use mvn_core::{MvnEngine, Problem};
//! use tlr::TlrMatrix;
//!
//! let engine = MvnEngine::builder().workers(2).sample_size(2000).build().unwrap();
//! let sigma = TlrMatrix::assemble(32, 8, None, |i, j| if i == j { 1.0 } else { 0.25 });
//! let factor = engine.factor(sigma).unwrap();
//! let r = engine.solve(&factor, &[-1.0; 32], &[1.0; 32]);
//! let batch = engine.solve_batch(
//!     &factor,
//!     &[Problem::new(vec![-1.0; 32], vec![1.0; 32]),
//!       Problem::new(vec![0.0; 32], vec![f64::INFINITY; 32])],
//! );
//! assert_eq!(r.prob.to_bits(), batch[0].prob.to_bits());
//! ```

use crate::pmvn::{combine_panel_results, sweep_panel, sweep_panel_prefixes};
use crate::vecchia::{vecchia_sweep_panel, VecchiaError, VecchiaFactor, VecchiaPlan};
use crate::{MvnConfig, MvnResult};
use qmc::{lattice_points, PointSet};
use std::sync::{Arc, Mutex};
use task_runtime::{effective_workers, PoolStats, WorkerPool};
use tile_la::{CholeskyError, DenseMatrix, SymTileMatrix};
use tlr::{potrf_tlr, TlrMatrix};

/// Sanity cap on the number of worker threads an engine may be built with.
///
/// A request above this is almost certainly a bug (e.g. a problem size passed
/// as a worker count) and would silently oversubscribe the host with hundreds
/// of parked threads; [`MvnEngineBuilder::build`] rejects it with
/// [`EngineError::TooManyWorkers`] instead. `workers == 0` ("available
/// parallelism", see [`effective_workers`]) is always accepted.
pub const MAX_ENGINE_WORKERS: usize = 256;

/// Why an [`MvnEngine`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An explicit worker count above [`MAX_ENGINE_WORKERS`] was requested.
    TooManyWorkers {
        /// The requested worker count.
        requested: usize,
        /// The cap ([`MAX_ENGINE_WORKERS`]).
        max: usize,
    },
    /// A configuration field has an unusable value.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TooManyWorkers { requested, max } => write!(
                f,
                "requested {requested} workers, above the sanity cap of {max}: \
                 an engine keeps its workers alive for its whole lifetime, so \
                 this would oversubscribe the host (use 0 for one worker per \
                 available core)"
            ),
            EngineError::InvalidConfig(what) => write!(f, "invalid engine configuration: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Why an integration box is unusable (see [`Problem::validate`]).
///
/// Bad limits used to surface as a panic (or a silent all-dead sweep) deep
/// inside `qmc_kernel`; validating at the API boundary turns them into a
/// typed error that a serving layer can return to the offending client
/// without touching the worker pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProblemError {
    /// `a` and `b` have different lengths.
    LengthMismatch {
        /// `a.len()`.
        a_len: usize,
        /// `b.len()`.
        b_len: usize,
    },
    /// The limits do not match the factor dimension `n`.
    DimensionMismatch {
        /// The factor dimension.
        expected: usize,
        /// The limits' length.
        got: usize,
    },
    /// `a[index] > b[index]` — an inverted (empty) box. A degenerate box
    /// with `a[i] == b[i]` is allowed (probability 0, handled exactly).
    InvertedLimits {
        /// The offending coordinate.
        index: usize,
        /// The lower limit there.
        a: f64,
        /// The upper limit there.
        b: f64,
    },
    /// `a[index]` or `b[index]` is NaN.
    NanLimit {
        /// The offending coordinate.
        index: usize,
    },
    /// A Vecchia ordering/neighbor structure is internally inconsistent —
    /// see [`crate::vecchia::VecchiaPlan::new`].
    VecchiaStructure {
        /// What is inconsistent.
        reason: &'static str,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProblemError::LengthMismatch { a_len, b_len } => {
                write!(
                    f,
                    "limit vectors differ in length: a has {a_len}, b has {b_len}"
                )
            }
            ProblemError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "limits have length {got} but the factor dimension is {expected}"
                )
            }
            ProblemError::InvertedLimits { index, a, b } => {
                write!(f, "inverted box at coordinate {index}: a = {a} > b = {b}")
            }
            ProblemError::NanLimit { index } => {
                write!(f, "NaN limit at coordinate {index}")
            }
            ProblemError::VecchiaStructure { reason } => {
                write!(f, "vecchia structure mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Validate a pair of integration-limit slices: equal lengths, no NaN, and
/// `a[i] <= b[i]` everywhere (`±inf` and `a[i] == b[i]` are fine). This is
/// the single boundary check shared by [`Problem::validate`] and the engine
/// solve paths, so bad input is rejected before it reaches `qmc_kernel`.
pub fn validate_limits(a: &[f64], b: &[f64]) -> Result<(), ProblemError> {
    if a.len() != b.len() {
        return Err(ProblemError::LengthMismatch {
            a_len: a.len(),
            b_len: b.len(),
        });
    }
    for i in 0..a.len() {
        if a[i].is_nan() || b[i].is_nan() {
            return Err(ProblemError::NanLimit { index: i });
        }
        if a[i] > b[i] {
            return Err(ProblemError::InvertedLimits {
                index: i,
                a: a[i],
                b: b[i],
            });
        }
    }
    Ok(())
}

/// One integration box `[a, b]` for [`MvnEngine::solve_batch`].
#[derive(Debug, Clone)]
pub struct Problem {
    /// Lower integration limits (entries may be `-inf`).
    pub a: Vec<f64>,
    /// Upper integration limits (entries may be `+inf`).
    pub b: Vec<f64>,
}

impl Problem {
    /// A problem from its limit vectors.
    pub fn new(a: Vec<f64>, b: Vec<f64>) -> Self {
        Self { a, b }
    }

    /// Check the box is well-formed ([`validate_limits`]) and, when `dim` is
    /// given, that it matches the factor dimension.
    pub fn validate(&self, dim: Option<usize>) -> Result<(), ProblemError> {
        validate_limits(&self.a, &self.b)?;
        if let Some(n) = dim {
            if self.a.len() != n {
                return Err(ProblemError::DimensionMismatch {
                    expected: n,
                    got: self.a.len(),
                });
            }
        }
        Ok(())
    }
}

/// A reusable Cholesky factor handle produced by
/// [`MvnEngine::factor`] or [`MvnEngine::factor_vecchia`].
///
/// Holding the factor (rather than re-factoring per query) is what amortizes
/// the `O(n³/3)` factorization across many `solve`/`solve_batch` calls. The
/// variants are public so a factor computed elsewhere (e.g. by
/// [`tlr::potrf_tlr`]) can be wrapped directly. The `impl Factor` below is
/// the one place the variants are told apart for behaviour: the tiled factor
/// sweeps through [`sweep_panel`] (the tile-level
/// [`CholeskyFactor`](crate::CholeskyFactor) recursion), the Vecchia factor
/// through its sparse conditioning sweep. Either sweep is a pure function of
/// the factor bits and the panel index, which is what keeps results bitwise
/// identical across worker counts and batch compositions.
pub enum Factor {
    /// A tiled Cholesky factor: dense (every tile dense) or tile low-rank.
    Tiled(TlrMatrix),
    /// Vecchia ordered-conditioning approximation (no global factorization;
    /// see [`crate::vecchia`]).
    Vecchia(VecchiaFactor),
}

impl Factor {
    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        match self {
            Factor::Tiled(l) => l.n(),
            Factor::Vecchia(v) => v.plan().n(),
        }
    }

    /// The factor's storage format in the shared [`FactorKind`](crate::FactorKind)
    /// vocabulary: `Dense` for a tiled factor without compression, `Tlr` with
    /// it.
    pub fn kind(&self) -> crate::FactorKind {
        match self {
            Factor::Tiled(l) if l.compression().is_none() => crate::FactorKind::Dense,
            Factor::Tiled(_) => crate::FactorKind::Tlr,
            Factor::Vecchia(v) => crate::FactorKind::Vecchia { m: v.m() },
        }
    }

    /// Total number of stored doubles (to compare the dense, TLR and Vecchia
    /// storage formats; the serving cache's byte accounting is this × 8).
    pub fn stored_elements(&self) -> usize {
        match self {
            Factor::Tiled(l) => l.stored_elements(),
            Factor::Vecchia(v) => v.stored_elements(),
        }
    }

    /// The tiled Cholesky factor `L` (dense or TLR), or `None` for a Vecchia
    /// factor — for callers that need `L` itself, e.g. to sample `L·z`.
    pub fn tiled(&self) -> Option<&TlrMatrix> {
        match self {
            Factor::Tiled(l) => Some(l),
            Factor::Vecchia(_) => None,
        }
    }

    /// Run the complete SOV sweep of sample panel `panel` against this
    /// factor, returning the panel's `(probability mean, chain count)`.
    pub(crate) fn sweep_panel(
        &self,
        a: &[f64],
        b: &[f64],
        points: &dyn PointSet,
        cfg: &MvnConfig,
        panel: usize,
    ) -> (f64, usize) {
        match self {
            Factor::Tiled(l) => sweep_panel(l, a, b, points, cfg, panel),
            Factor::Vecchia(v) => vecchia_sweep_panel(v, a, b, points, cfg, panel),
        }
    }

    /// The samples `x = L·z` of a panel of standard-normal columns `z`, in
    /// location order (the Monte-Carlo estimator's draw).
    pub(crate) fn sample_panel(&self, z: &DenseMatrix) -> DenseMatrix {
        match self {
            Factor::Tiled(l) => l.multiply_lower_panel(z),
            // Sequential conditional simulation: step k draws
            // x = Σ coeffs·x_cond + d·z, the Vecchia analogue of L·z.
            Factor::Vecchia(v) => {
                let (n, cols) = (z.nrows(), z.ncols());
                let mut out = DenseMatrix::zeros(n, cols);
                // Step values in ordered-position space, chain-major.
                let mut xs = DenseMatrix::zeros(cols, n);
                for k in 0..n {
                    let (i, d, nbrs, coeffs) = v.step(k);
                    for c in 0..cols {
                        let mut s = 0.0;
                        for (&nb, &co) in nbrs.iter().zip(coeffs) {
                            s += co * xs.get(c, nb as usize);
                        }
                        let val = s + d * z.get(k, c);
                        xs.set(c, k, val);
                        out.set(i, c, val);
                    }
                }
                out
            }
        }
    }
}

impl std::fmt::Debug for Factor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factor")
            .field("kind", &self.kind().label())
            .field("n", &self.dim())
            .finish()
    }
}

/// Builder for [`MvnEngine`] (obtained via [`MvnEngine::builder`]). The
/// sampling description ([`MvnConfig`]) and the one execution setting
/// (`workers`) are independent: setting one never resets the other, in any
/// order. [`pool`](Self::pool) replaces the worker count with an existing
/// pool. How tasks reach the workers is not a setting: every task set
/// streams through [`WorkerPool::execute`].
#[derive(Debug, Clone)]
pub struct MvnEngineBuilder {
    cfg: MvnConfig,
    workers: usize,
    pool: Option<Arc<WorkerPool>>,
}

impl MvnEngineBuilder {
    /// Worker threads for the engine's pool (`0` — the default — means one
    /// worker per available core; see [`effective_workers`]). Explicit values
    /// above [`MAX_ENGINE_WORKERS`] are rejected by [`build`](Self::build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Run the engine on an existing pool instead of spawning one: every
    /// engine built on the same `Arc<WorkerPool>` submits to the same
    /// threads (this is how `mvn-service` puts one set of workers under all
    /// of its shards). The pool's own worker count applies;
    /// [`workers`](Self::workers) is ignored. Results are bitwise identical
    /// to a private pool's.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Number of (quasi-)Monte-Carlo samples per solve.
    pub fn sample_size(mut self, sample_size: usize) -> Self {
        self.cfg.sample_size = sample_size;
        self
    }

    /// Width of a sample-column panel (one panel = one task).
    pub fn panel_width(mut self, panel_width: usize) -> Self {
        self.cfg.panel_width = panel_width;
        self
    }

    /// Random seed (QMC shift / MC stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Replace the whole sampling configuration (the worker count is
    /// untouched).
    pub fn config(mut self, cfg: MvnConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Validate the configuration, spawn the worker pool (unless one was
    /// handed in) and return the engine.
    pub fn build(self) -> Result<MvnEngine, EngineError> {
        if self.cfg.sample_size == 0 {
            return Err(EngineError::InvalidConfig("sample_size must be positive"));
        }
        if self.cfg.panel_width == 0 {
            return Err(EngineError::InvalidConfig("panel_width must be positive"));
        }
        if self.workers > MAX_ENGINE_WORKERS {
            return Err(EngineError::TooManyWorkers {
                requested: self.workers,
                max: MAX_ENGINE_WORKERS,
            });
        }
        let pool = self
            .pool
            .unwrap_or_else(|| Arc::new(WorkerPool::new(effective_workers(self.workers))));
        Ok(MvnEngine {
            cfg: self.cfg,
            pool,
        })
    }
}

/// A long-lived MVN solver session: a configuration plus a persistent
/// [`WorkerPool`] reused across factorizations and solves (see the [module
/// docs](self)).
///
/// # Pool lifetime and `Drop`
///
/// The pool threads are spawned in [`build`](MvnEngineBuilder::build) and
/// live until the last engine holding the pool is dropped; between calls
/// they are parked on a condvar and consume no CPU. Dropping that last holder
/// wakes and joins every worker, so an engine never leaks threads — create
/// engines per session, not per call (a single-worker pool spawns no threads
/// at all).
///
/// # Thread safety
///
/// `MvnEngine` is `Send + Sync` (asserted at compile time below): multiple OS
/// threads may share one engine through `&MvnEngine`, and several engines may
/// share one pool ([`MvnEngineBuilder::pool`]), calling
/// `solve`/`solve_batch`/`factor_*` concurrently. The pool runs one task set
/// at a time on all of its workers: a submitter that arrives while another
/// task set is executing blocks on the pool's submission lock until that set
/// has drained, then gets every worker for its own. Every solve is a pure
/// function of the factor, the limits and the configuration, so concurrent
/// callers get results bitwise identical to sequential calls, and a task
/// panic is re-raised in the submitter whose task set it belongs to, never
/// in another one (both regression-tested). The shard dispatchers of
/// `mvn-service` depend on this: each owns an engine, all on one pool.
pub struct MvnEngine {
    cfg: MvnConfig,
    pool: Arc<WorkerPool>,
}

// The compile-time form of the thread-safety contract above: if a field ever
// loses `Send`/`Sync` (e.g. an `Rc` or a raw pointer slips into the pool),
// this fails to build rather than silently breaking the shard dispatcher.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MvnEngine>();
};

impl std::fmt::Debug for MvnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvnEngine")
            .field("cfg", &self.cfg)
            .field("workers", &self.pool.workers())
            .finish()
    }
}

impl MvnEngine {
    /// A builder initialized with [`MvnConfig::default`].
    pub fn builder() -> MvnEngineBuilder {
        MvnEngineBuilder {
            cfg: MvnConfig::default(),
            workers: 0,
            pool: None,
        }
    }

    /// An engine for an existing sampling configuration on one worker per
    /// core; shorthand for `builder().config(cfg).build()`.
    pub fn with_config(cfg: MvnConfig) -> Result<Self, EngineError> {
        Self::builder().config(cfg).build()
    }

    /// The engine's solve configuration.
    pub fn config(&self) -> &MvnConfig {
        &self.cfg
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The engine's worker pool, for routing non-MVN task graphs (e.g. the
    /// repeated factorizations of `geostat::mle`) through the same session
    /// threads.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Pool usage counters (worker count, non-empty task sets and tasks
    /// executed, per-label timing).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Factor a tiled covariance on the engine's pool ([`tlr::potrf_tlr`]),
    /// returning a reusable [`Factor`]: dense or TLR, whichever way
    /// [`TlrMatrix::assemble`] built it. Its dense steps are
    /// [`tile_la::dag::dense_step`] in plan order.
    ///
    /// Traced, it records one `engine_factor` span with args `n`, `nb` and
    /// `dense_tiles`, the factor's dense off-diagonal tiles (all of them for
    /// a dense factor; for a TLR one, those whose rank passed the break-even
    /// rank at assembly or during the factorization).
    pub fn factor(&self, mut sigma: TlrMatrix) -> Result<Factor, CholeskyError> {
        let start = obs::enabled().then(obs::now_ns);
        let factored = potrf_tlr(&mut sigma, &self.pool);
        if let Some(start) = start {
            let dense_tiles = tlr::RankStats::from_matrix(&sigma).dense_off_diagonal_tiles();
            let args = [
                ("n", sigma.n() as u64),
                ("nb", sigma.nb() as u64),
                ("dense_tiles", dense_tiles as u64),
            ];
            obs::complete_since("engine_factor", start, &args);
        }
        factored?;
        Ok(Factor::Tiled(sigma))
    }

    /// [`factor`](Self::factor) of the dense tiled matrix of `sigma`. Kept
    /// only for the `mvn_perf` benchmark; it goes when the benchmark moves
    /// to [`factor`](Self::factor).
    pub fn factor_dense(&self, sigma: SymTileMatrix) -> Result<Factor, CholeskyError> {
        self.factor(TlrMatrix::from(sigma))
    }

    /// [`factor`](Self::factor) under its old name. Kept only for the
    /// `mvn_perf` benchmark; it goes when the benchmark moves to
    /// [`factor`](Self::factor).
    pub fn factor_tlr(&self, sigma: TlrMatrix) -> Result<Factor, CholeskyError> {
        self.factor(sigma)
    }

    /// Build a Vecchia ordered-conditioning factor from a conditioning
    /// [`VecchiaPlan`] and a covariance entry function, batching the
    /// per-location conditioning solves onto the engine's pool (each
    /// location's small solve is independent — see
    /// [`crate::vecchia::build_vecchia_factor`]). The coefficients are a pure
    /// function of the plan and the covariance, bitwise identical for any
    /// worker count.
    pub fn factor_vecchia<C>(&self, plan: VecchiaPlan, cov: C) -> Result<Factor, VecchiaError>
    where
        C: Fn(usize, usize) -> f64 + Sync,
    {
        let _span = obs::span_with("engine_factor_vecchia", &[("n", plan.n() as u64)]);
        crate::vecchia::build_vecchia_factor(plan, &cov, &self.pool).map(Factor::Vecchia)
    }

    /// Estimate `Φₙ(a, b; 0, Σ)` against a factor with the engine's
    /// configuration.
    pub fn solve(&self, factor: &Factor, a: &[f64], b: &[f64]) -> MvnResult {
        self.solve_factored_with(factor, a, b, &self.cfg)
    }

    /// [`solve`](Self::solve) with an explicit per-call sampling
    /// configuration.
    pub fn solve_factored_with(
        &self,
        l: &Factor,
        a: &[f64],
        b: &[f64],
        cfg: &MvnConfig,
    ) -> MvnResult {
        let mut results = self.run_sweeps(&[(l, a, b)], cfg);
        results.pop().expect("one problem in, one result out")
    }

    /// Every prefix probability of one box from a single sweep: entry `k` is
    /// the estimate for the box truncated after row `k` (limits `a[..=k]`,
    /// `b[..=k]`, unbounded beyond), bitwise the
    /// [`solve_factored_with`](Self::solve_factored_with) of that truncated
    /// box against `Factor::Tiled(l)` — standard error included.
    ///
    /// This is the SOV estimator's sequential-conditioning structure: each
    /// chain's running product after row `k` *is* its estimate of the
    /// length-`k + 1` prefix, so the panels report their chain means after
    /// every row (one `panel_sweep` task per panel, as in a plain solve) and
    /// each row's panel means combine with [`combine_panel_results`]. The
    /// profile is pathwise non-increasing in `k` when `b` is unbounded.
    /// Costs one sweep plus `O(n · panels)` bookkeeping. It takes the tiled
    /// factor itself: a Vecchia sweep runs in its own ordering, so it has no
    /// prefix profile of the caller's box.
    pub fn solve_prefixes(
        &self,
        l: &TlrMatrix,
        a: &[f64],
        b: &[f64],
        cfg: &MvnConfig,
    ) -> Vec<MvnResult> {
        let n = l.n();
        check_inputs(n, a, b, cfg);
        let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
        let _span = obs::span_with(
            "engine_prefix_sweep",
            &[("n", n as u64), ("panels", n_panels as u64)],
        );
        let points = lattice_points(n, cfg.seed);
        let panels: Vec<usize> = (0..n_panels).collect();
        let means = self.pool.map("panel_sweep", &panels, |_, &p| {
            sweep_panel_prefixes(l, a, b, &points, cfg, p)
        });
        let mut row = vec![(0.0, 0usize); n_panels];
        (0..n)
            .map(|k| {
                for (slot, (m, c)) in row.iter_mut().zip(&means) {
                    *slot = (m[k], *c);
                }
                combine_panel_results(&row)
            })
            .collect()
    }

    /// Estimate a whole batch of probabilities against one factor in a
    /// *single* task graph: the panel-sweep tasks of all problems are
    /// submitted together, so independent small solves share the pool
    /// instead of serializing per-solve graph setup. Each returned result is
    /// bitwise identical to the corresponding individual
    /// [`solve`](Self::solve).
    pub fn solve_batch(&self, factor: &Factor, problems: &[Problem]) -> Vec<MvnResult> {
        let items: Vec<(&Factor, &[f64], &[f64])> = problems
            .iter()
            .map(|p| (factor, p.a.as_slice(), p.b.as_slice()))
            .collect();
        self.run_sweeps(&items, &self.cfg)
    }

    /// Estimate a *mixed* batch — each problem referencing its own factor —
    /// in a single task graph. This is the cross-fingerprint serving path:
    /// the panel-sweep tasks of every `(factor, problem)` pair are submitted
    /// together, so small solves against different covariances share one
    /// pool dispatch instead of fragmenting into per-factor
    /// [`solve_batch`](Self::solve_batch) calls. Factors may differ in
    /// dimension and storage (dense and TLR can share a batch).
    ///
    /// Each returned result is bitwise identical to the corresponding
    /// individual [`solve`](Self::solve): panels draw from a point set that
    /// is a pure function of `(dimension, seed)`, so problems of equal
    /// dimension share one point set and problems of distinct dimensions get
    /// exactly the set a solo solve would build.
    pub fn solve_batch_mixed(&self, batch: &[(Arc<Factor>, Problem)]) -> Vec<MvnResult> {
        let items: Vec<(&Factor, &[f64], &[f64])> = batch
            .iter()
            .map(|(f, p)| (f.as_ref(), p.a.as_slice(), p.b.as_slice()))
            .collect();
        self.run_sweeps(&items, &self.cfg)
    }

    /// Shared body of the solve entry points: one `panel_sweep` task per
    /// (item, panel) pair, all in one task set on the engine's pool — items
    /// may reference distinct factors (the mixed-batch path) or all share one
    /// (the classic batch). Panels are computed by the item's own
    /// [`Factor::sweep_panel`] against the item's factor and point set, so
    /// every per-item aggregate is bitwise identical to a solo solve.
    fn run_sweeps(&self, items: &[(&Factor, &[f64], &[f64])], cfg: &MvnConfig) -> Vec<MvnResult> {
        self.run_sweeps_on(items, cfg, |n| Box::new(lattice_points(n, cfg.seed)))
    }

    /// [`run_sweeps`](Self::run_sweeps) with the point-set constructor
    /// (dimension → set) as a parameter, so a test can count the fills.
    fn run_sweeps_on(
        &self,
        items: &[(&Factor, &[f64], &[f64])],
        cfg: &MvnConfig,
        point_set_of: impl Fn(usize) -> Box<dyn PointSet>,
    ) -> Vec<MvnResult> {
        for (l, a, b) in items {
            check_inputs(l.dim(), a, b, cfg);
        }
        if items.is_empty() {
            return Vec::new();
        }

        let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
        let _sweep_span = obs::span_with(
            "engine_sweep",
            &[("items", items.len() as u64), ("panels", n_panels as u64)],
        );
        let plan_start = obs::enabled().then(obs::now_ns);
        // A point set is a pure function of (kind, dimension, seed), so items
        // of equal dimension share one set — exactly the set a solo solve of
        // that dimension would build. Building per *distinct* dimension (not
        // per item) keeps the classic single-factor batch at one set.
        let mut groups: Vec<SampleGroup> = Vec::new();
        for (q, (l, _, _)) in items.iter().enumerate() {
            let n = l.dim();
            match groups.iter_mut().find(|g| g.points.dim() == n) {
                Some(g) => g.items.push(q),
                None => groups.push(SampleGroup {
                    points: point_set_of(n),
                    items: vec![q],
                    panels: Vec::new(),
                }),
            }
        }
        for g in groups.iter_mut().filter(|g| g.items.len() > 1) {
            g.panels = (0..n_panels)
                .map(|_| PanelSlot {
                    state: Mutex::new((g.items.len(), None)),
                })
                .collect();
        }
        if let Some(start) = plan_start {
            // The point-set/plan construction phase, distinct from the sweep
            // tasks that follow it on the timeline.
            obs::complete_since("engine_plan_build", start, &[("dims", groups.len() as u64)]);
        }

        // One independent write-task per (item, panel) pair, flattened so
        // every pair becomes one slot of a pool-level map. Within a group the
        // order is panel-major: the items sharing a panel's sample block run
        // back to back, so only the blocks of in-flight panels are resident.
        let jobs: Vec<(usize, usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| {
                (0..n_panels).flat_map(move |p| group.items.iter().map(move |&q| (g, q, p)))
            })
            .collect();
        let sweep = |_: usize, &(g, q, p): &(usize, usize, usize)| {
            let (l, a, b) = items[q];
            let group = &groups[g];
            let points = group.points.as_ref();
            match group.panels.get(p) {
                None => l.sweep_panel(a, b, points, cfg, p),
                Some(slot) => l.sweep_panel(a, b, &slot.checkout(points, cfg, p), cfg, p),
            }
        };
        let flat = self.pool.map("panel_sweep", &jobs, sweep);
        let mut by_item = vec![(0.0, 0usize); flat.len()];
        for (&(_, q, p), r) in jobs.iter().zip(flat) {
            by_item[q * n_panels + p] = r;
        }
        by_item
            .chunks(n_panels)
            .map(combine_panel_results)
            .collect()
    }
}

/// The boundary check of every solve entry point: malformed limits (length
/// mismatch, NaN, inverted box) or a degenerate sampling configuration must
/// never reach `qmc_kernel`. Callers that need a recoverable error (the
/// serving layer) validate with `Problem::validate` before submitting.
fn check_inputs(n: usize, a: &[f64], b: &[f64], cfg: &MvnConfig) {
    assert!(cfg.sample_size > 0, "sample size must be positive");
    assert!(cfg.panel_width > 0, "panel width must be positive");
    if let Err(e) = validate_limits(a, b) {
        panic!("invalid MVN problem: {e}");
    }
    assert_eq!(
        a.len(),
        n,
        "limit length must match the factor dimension {n}"
    );
}

/// The items of one `run_sweeps` call that share a dimension, and therefore a
/// point set.
struct SampleGroup {
    points: Box<dyn PointSet>,
    /// Indices into the call's item list, in item order.
    items: Vec<usize>,
    /// One slot per sample panel when the group has several items (their
    /// sweeps then read one fill of each panel); empty for a lone item, whose
    /// sweep fills its own blocks straight from `points`.
    panels: Vec<PanelSlot>,
}

/// The chain-major sample block of one panel (`cols × n`: column `i` is the
/// lane of coordinate `i` over the panel's chains), filled by the first item
/// sweep that asks for it and dropped with the last: the block is a pure
/// function of (dimension, seed, panel), so every same-dimension item of a
/// batch reads the same one.
struct PanelSlot {
    /// Checkouts still to come, and the block once it has been filled.
    state: Mutex<(usize, Option<Arc<DenseMatrix>>)>,
}

impl PanelSlot {
    /// Panel `p`'s block (filling it if this is the first checkout), wrapped
    /// as the point set an item's sweep of that panel reads it through.
    fn checkout<'a>(&self, points: &'a dyn PointSet, cfg: &MvnConfig, p: usize) -> FilledPanel<'a> {
        let first = p * cfg.panel_width;
        let mut state = self.state.lock().expect("a sample fill panicked");
        let (left, slot) = &mut *state;
        *left -= 1;
        let block = slot.take().unwrap_or_else(|| {
            let cols = cfg.panel_width.min(cfg.sample_size - first);
            let mut w = DenseMatrix::zeros(cols, points.dim());
            points.fill_block(first, cols, 0, points.dim(), w.data_mut());
            Arc::new(w)
        });
        if *left > 0 {
            *slot = Some(Arc::clone(&block));
        }
        FilledPanel {
            points,
            first,
            block,
        }
    }
}

/// A point set that serves one panel's chains from a filled block and
/// everything else from the set the block was filled from — what a batched
/// item's [`Factor::sweep_panel`] draws its samples through.
struct FilledPanel<'a> {
    points: &'a dyn PointSet,
    first: usize,
    block: Arc<DenseMatrix>,
}

impl PointSet for FilledPanel<'_> {
    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn point(&self, index: usize, out: &mut [f64]) {
        self.points.point(index, out);
    }

    fn fill_block(&self, first: usize, count: usize, dim0: usize, ndims: usize, out: &mut [f64]) {
        if first == self.first && count == self.block.nrows() {
            out.copy_from_slice(&self.block.data()[dim0 * count..(dim0 + ndims) * count]);
        } else {
            self.points.fill_block(first, count, dim0, ndims, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr::CompressionTol;

    fn exp_cov(range: f64) -> impl Fn(usize, usize) -> f64 + Sync + Copy {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 40.0;
            (-d / range).exp()
        }
    }

    fn test_cfg() -> MvnConfig {
        MvnConfig {
            sample_size: 3000,
            seed: 9,
            ..Default::default()
        }
    }

    fn test_engine(workers: usize) -> MvnEngine {
        let builder = MvnEngine::builder().workers(workers).config(test_cfg());
        builder.build().unwrap()
    }

    #[test]
    fn builder_rejects_oversubscription_and_bad_configs() {
        let err = MvnEngine::builder()
            .workers(MAX_ENGINE_WORKERS + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::TooManyWorkers {
                requested: MAX_ENGINE_WORKERS + 1,
                max: MAX_ENGINE_WORKERS
            }
        );
        assert!(err.to_string().contains("sanity cap"));
        assert!(MvnEngine::builder().sample_size(0).build().is_err());
        assert!(MvnEngine::builder().panel_width(0).build().is_err());
        // The cap itself and the "available parallelism" request are fine.
        assert!(MvnEngine::builder()
            .workers(MAX_ENGINE_WORKERS)
            .build()
            .is_ok());
        assert!(MvnEngine::builder().workers(0).build().is_ok());
    }

    #[test]
    fn solve_batch_matches_individual_solves_bitwise() {
        let n = 45;
        let f = exp_cov(0.3);
        for workers in [1usize, 2, 4] {
            let engine = test_engine(workers);
            let factor = engine.factor(TlrMatrix::assemble(n, 12, None, f)).unwrap();
            let problems: Vec<Problem> = (0..6)
                .map(|k| {
                    let lo = -0.2 - 0.1 * k as f64;
                    Problem::new(vec![lo; n], vec![f64::INFINITY; n])
                })
                .collect();
            let batch = engine.solve_batch(&factor, &problems);
            assert_eq!(batch.len(), problems.len());
            for (p, r) in problems.iter().zip(&batch) {
                let single = engine.solve(&factor, &p.a, &p.b);
                assert!(
                    r.prob.to_bits() == single.prob.to_bits(),
                    "workers={workers}: batch {} vs single {}",
                    r.prob,
                    single.prob
                );
                assert!(r.std_error.to_bits() == single.std_error.to_bits());
            }
        }
    }

    #[test]
    fn a_batch_fills_each_sample_panel_once_per_dimension() {
        // B same-dimension items read one fill of every panel (one
        // whole-width `fill_block` each), where B solo solves fill every
        // row block of every panel themselves; the bits are the same.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(Box<dyn PointSet>, Arc<AtomicUsize>);
        impl PointSet for Counting {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn point(&self, index: usize, out: &mut [f64]) {
                self.0.point(index, out);
            }
            fn fill_block(&self, first: usize, n: usize, d0: usize, nd: usize, out: &mut [f64]) {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.fill_block(first, n, d0, nd, out);
            }
        }
        let (n, nb, small) = (45, 12, 32);
        let cfg = test_cfg();
        let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
        for workers in [1usize, 2] {
            let engine = test_engine(workers);
            let big = engine
                .factor(TlrMatrix::assemble(n, nb, None, exp_cov(0.3)))
                .unwrap();
            let other = engine
                .factor(TlrMatrix::assemble(small, 8, None, exp_cov(0.7)))
                .unwrap();
            let limits: Vec<Vec<f64>> = (0..5).map(|k| vec![-0.2 - 0.1 * k as f64; n]).collect();
            let (hi, lo_small, hi_small) = (
                vec![f64::INFINITY; n],
                vec![-0.4; small],
                vec![f64::INFINITY; small],
            );
            // Five items against the 45-dim factor, one against the 32-dim one.
            let mut items: Vec<(&Factor, &[f64], &[f64])> = limits
                .iter()
                .map(|a| (&big, a.as_slice(), hi.as_slice()))
                .collect();
            items.insert(2, (&other, &lo_small, &hi_small));

            let fills = Arc::new(AtomicUsize::new(0));
            let counted = |dim: usize| -> Box<dyn PointSet> {
                Box::new(Counting(
                    Box::new(lattice_points(dim, cfg.seed)),
                    Arc::clone(&fills),
                ))
            };
            let batch = engine.run_sweeps_on(&items, &cfg, counted);
            let lone_tiles = small.div_ceil(8);
            assert_eq!(
                fills.load(Ordering::Relaxed),
                n_panels + n_panels * lone_tiles,
                "workers={workers}: one fill per shared panel, per-block fills for the lone item"
            );
            for ((l, a, b), r) in items.iter().zip(&batch) {
                let solo = engine.solve(l, a, b);
                assert!(r.prob.to_bits() == solo.prob.to_bits(), "workers={workers}");
                assert!(r.std_error.to_bits() == solo.std_error.to_bits());
            }
        }
    }

    #[test]
    fn prefix_profile_is_bitwise_the_truncated_solves() {
        // Entry k of one profile sweep must equal the standalone solve of
        // the box cut after row k, for dense and TLR factors, on 1/2/4
        // workers — including rows after every chain has died (row 30 is a
        // degenerate coordinate in the second box).
        let (n, nb) = (45, 12);
        let f = exp_cov(0.4);
        let dense = TlrMatrix::assemble(n, nb, None, f);
        let tlr = TlrMatrix::assemble(n, nb, Some(CompressionTol::Absolute(1e-8)), f);
        let a: Vec<f64> = (0..n).map(|i| -1.0 + 0.02 * i as f64).collect();
        let mut dead = a.clone();
        dead[30] = 1.0;
        let b = vec![f64::INFINITY; n];
        let mut b_dead = b.clone();
        b_dead[30] = 1.0;
        let cfg = test_cfg();
        for workers in [1usize, 2, 4] {
            let engine = test_engine(workers);
            let factors = [
                engine.factor(dense.clone()).unwrap(),
                engine.factor(tlr.clone()).unwrap(),
            ];
            for factor in &factors {
                for (a, b) in [(&a, &b), (&dead, &b_dead)] {
                    let profile = engine.solve_prefixes(factor.tiled().unwrap(), a, b, &cfg);
                    assert_eq!(profile.len(), n);
                    for k in [1, nb, nb + 1, 30, 31, n] {
                        let mut ak = vec![f64::NEG_INFINITY; n];
                        let mut bk = vec![f64::INFINITY; n];
                        ak[..k].copy_from_slice(&a[..k]);
                        bk[..k].copy_from_slice(&b[..k]);
                        let solo = engine.solve_factored_with(factor, &ak, &bk, &cfg);
                        let got = profile[k - 1];
                        assert!(
                            got.prob.to_bits() == solo.prob.to_bits()
                                && got.std_error.to_bits() == solo.std_error.to_bits(),
                            "workers={workers} {} k={k}: {got:?} vs {solo:?}",
                            factor.kind().label()
                        );
                    }
                    assert!(profile.windows(2).all(|w| w[1].prob <= w[0].prob));
                }
            }
        }
    }

    #[test]
    fn solve_batch_mixed_matches_individual_solves_bitwise() {
        // One task graph spanning heterogeneous factors — distinct
        // covariances, *dimensions* and storage kinds (dense, TLR and
        // Vecchia) — must reproduce the individual per-factor solves bit for
        // bit, for every worker count. The Vecchia factor has the dimension
        // of `f0` and `f2`, so its sweeps read the group's shared panel fills.
        for workers in [1usize, 2, 4] {
            let engine = test_engine(workers);
            let f0 = Arc::new(
                engine
                    .factor(TlrMatrix::assemble(45, 12, None, exp_cov(0.3)))
                    .unwrap(),
            );
            let f1 = Arc::new(
                engine
                    .factor(TlrMatrix::assemble(32, 8, None, exp_cov(0.7)))
                    .unwrap(),
            );
            let f2 = Arc::new(
                engine
                    .factor(TlrMatrix::assemble(
                        45,
                        16,
                        Some(CompressionTol::Absolute(1e-8)),
                        exp_cov(0.5),
                    ))
                    .unwrap(),
            );
            let f3 = Arc::new(
                engine
                    .factor_vecchia(crate::full_conditioning_plan(45), exp_cov(0.4))
                    .unwrap(),
            );
            let factors = [&f0, &f1, &f2, &f3];
            // Interleave the factors so the graph genuinely mixes them.
            let batch: Vec<(Arc<Factor>, Problem)> = (0..9)
                .map(|k| {
                    let f = factors[k % factors.len()];
                    let n = f.dim();
                    let lo = -0.2 - 0.05 * k as f64;
                    (
                        Arc::clone(f),
                        Problem::new(vec![lo; n], vec![f64::INFINITY; n]),
                    )
                })
                .collect();
            let got = engine.solve_batch_mixed(&batch);
            assert_eq!(got.len(), batch.len());
            for (k, ((f, p), r)) in batch.iter().zip(&got).enumerate() {
                let single = engine.solve(f, &p.a, &p.b);
                assert!(
                    r.prob.to_bits() == single.prob.to_bits(),
                    "workers={workers} item={k}: mixed {} vs single {}",
                    r.prob,
                    single.prob
                );
                assert!(r.std_error.to_bits() == single.std_error.to_bits());
            }
        }
    }

    #[test]
    fn solve_batch_mixed_with_one_factor_matches_solve_batch_bitwise() {
        // The degenerate mixed batch (every item referencing the same factor)
        // must be indistinguishable from the classic single-factor batch.
        let n = 45;
        let engine = test_engine(2);
        let factor = Arc::new(
            engine
                .factor(TlrMatrix::assemble(n, 12, None, exp_cov(0.3)))
                .unwrap(),
        );
        let problems: Vec<Problem> = (0..5)
            .map(|k| {
                let lo = -0.3 - 0.1 * k as f64;
                Problem::new(vec![lo; n], vec![f64::INFINITY; n])
            })
            .collect();
        let want = engine.solve_batch(&factor, &problems);
        let batch: Vec<(Arc<Factor>, Problem)> = problems
            .iter()
            .map(|p| (Arc::clone(&factor), p.clone()))
            .collect();
        let got = engine.solve_batch_mixed(&batch);
        for (g, w) in got.iter().zip(&want) {
            assert!(g.prob.to_bits() == w.prob.to_bits());
            assert!(g.std_error.to_bits() == w.std_error.to_bits());
        }
    }

    #[test]
    fn builder_settings_compose_in_any_order() {
        // Regression: `.config(cfg)` used to overwrite an earlier
        // `.workers(n)` (it lived inside the config).
        let c = test_cfg();
        let before = MvnEngine::builder().workers(2).config(c).build().unwrap();
        let after = MvnEngine::builder().config(c).workers(2).build().unwrap();
        assert_eq!(before.workers(), 2);
        assert_eq!(after.workers(), 2);
        assert_eq!(before.config().sample_size, 3000);
        assert_eq!(after.config().sample_size, 3000);
    }

    #[test]
    fn pool_is_reused_across_many_batches_without_thread_growth() {
        // The pool-reuse stress test: many sequential solve_batch calls must
        // run on the same fixed worker set (no thread leaks), visible through
        // the pool stats.
        let n = 30;
        let f = exp_cov(0.4);
        let engine = MvnEngine::builder()
            .workers(3)
            .sample_size(512)
            .panel_width(64)
            .build()
            .unwrap();
        let factor = engine.factor(TlrMatrix::assemble(n, 10, None, f)).unwrap();
        let baseline = engine.pool_stats();
        assert_eq!(baseline.workers, 3);

        let problems: Vec<Problem> = (0..4)
            .map(|k| Problem::new(vec![-0.5 - 0.1 * k as f64; n], vec![f64::INFINITY; n]))
            .collect();
        let reference = engine.solve_batch(&factor, &problems);
        let batches = 64u64;
        for _ in 1..batches {
            let again = engine.solve_batch(&factor, &problems);
            for (r, want) in again.iter().zip(&reference) {
                assert!(r.prob.to_bits() == want.prob.to_bits());
            }
        }
        let after = engine.pool_stats();
        assert_eq!(after.workers, 3, "worker count must never grow");
        // One non-empty task set per batch.
        assert_eq!(after.graphs_run, baseline.graphs_run + batches);
        // 4 problems × 8 panels per batch.
        assert_eq!(after.tasks_run, baseline.tasks_run + batches * 32);
    }

    #[test]
    fn factor_errors_surface_from_the_pool_path() {
        // The identity with one negative diagonal entry: both tiled backends
        // report the failing pivot as a typed error on any pool.
        let n = 20;
        let f = |i: usize, j: usize| match (i == j, i) {
            (true, 13) => -1.0,
            (true, _) => 1.0,
            (false, _) => 0.0,
        };
        for workers in [1, 2] {
            let engine = MvnEngine::builder().workers(workers).build().unwrap();
            let err = engine
                .factor(TlrMatrix::assemble(n, 6, None, f))
                .unwrap_err();
            assert_eq!(err, CholeskyError::NotPositiveDefinite(13), "{workers}");
            let tlr = TlrMatrix::assemble(n, 6, Some(CompressionTol::Absolute(1e-8)), f);
            let err = engine.factor(tlr).unwrap_err();
            assert!(
                matches!(err, CholeskyError::NotPositiveDefinite(_)),
                "{workers}: {err:?}"
            );
        }
    }

    #[test]
    fn a_dense_factor_is_the_sequential_plan_walk_bitwise() {
        // 50 = 3 × 16 + 2: four tile rows, the last one ragged. The dense
        // factor runs the tiled factorization path and must leave the bits
        // of the plan walked step by step through `dense_step` in every
        // tile, report itself dense, account exactly the dense storage, and
        // label its trailing updates `gemm`.
        let (n, nb) = (50, 16);
        let sigma = TlrMatrix::assemble(n, nb, None, exp_cov(0.4));
        let layout = sigma.layout();
        let at = |i: usize, j: usize| i * (i + 1) / 2 + j;
        let mut want: Vec<DenseMatrix> = (0..layout.num_tiles())
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| sigma.tile(i, j).as_dense().clone())
            .collect();
        for step in tile_la::dag::cholesky_plan(layout.num_tiles()) {
            let reads: Vec<DenseMatrix> = (step.reads().iter())
                .map(|&(i, j)| want[at(i, j)].clone())
                .collect();
            let reads: Vec<&DenseMatrix> = reads.iter().collect();
            let out = &mut want[at(step.out.0, step.out.1)];
            tile_la::dag::dense_step(step, out, &reads, layout).unwrap();
        }
        for workers in [1usize, 2] {
            let engine = test_engine(workers);
            let factor = engine.factor(sigma.clone()).unwrap();
            let Factor::Tiled(l) = &factor else {
                panic!("factor returned {factor:?}")
            };
            for i in 0..l.num_tiles() {
                for j in 0..=i {
                    let (got, want) = (l.tile(i, j).as_dense(), &want[at(i, j)]);
                    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
                    assert!(
                        (got.data().iter().zip(want.data()))
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                        "workers={workers} tile ({i},{j})"
                    );
                }
            }
            assert_eq!(factor.kind(), crate::FactorKind::Dense);
            assert_eq!(factor.stored_elements(), sigma.stored_elements());
            let stats = engine.pool_stats();
            assert!(stats
                .label_timing("gemm")
                .is_some_and(|(count, _)| count > 0));
            assert_eq!(stats.label_timing("lr_gemm"), None);
        }
    }

    #[test]
    fn problem_validation_rejects_malformed_limits() {
        let ok = Problem::new(vec![-1.0, f64::NEG_INFINITY], vec![1.0, f64::INFINITY]);
        assert_eq!(ok.validate(Some(2)), Ok(()));
        // Degenerate (a == b) boxes are allowed, including at ±inf.
        let degenerate = Problem::new(vec![1.0, f64::INFINITY], vec![1.0, f64::INFINITY]);
        assert_eq!(degenerate.validate(Some(2)), Ok(()));

        let mismatch = Problem::new(vec![0.0], vec![1.0, 2.0]);
        assert_eq!(
            mismatch.validate(None),
            Err(ProblemError::LengthMismatch { a_len: 1, b_len: 2 })
        );
        let wrong_dim = Problem::new(vec![0.0; 3], vec![1.0; 3]);
        assert_eq!(
            wrong_dim.validate(Some(4)),
            Err(ProblemError::DimensionMismatch {
                expected: 4,
                got: 3
            })
        );
        let inverted = Problem::new(vec![0.0, 2.0], vec![1.0, 1.0]);
        assert_eq!(
            inverted.validate(Some(2)),
            Err(ProblemError::InvertedLimits {
                index: 1,
                a: 2.0,
                b: 1.0
            })
        );
        let nan = Problem::new(vec![0.0, f64::NAN], vec![1.0, 1.0]);
        assert_eq!(
            nan.validate(Some(2)),
            Err(ProblemError::NanLimit { index: 1 })
        );
        // Errors render with the offending coordinate.
        assert!(inverted
            .validate(Some(2))
            .unwrap_err()
            .to_string()
            .contains("coordinate 1"));
    }

    #[test]
    fn engine_rejects_malformed_limits_at_the_boundary() {
        // The panic must come from the validation at the API boundary (with
        // the typed error's message), not from deep inside the sweep.
        let engine = MvnEngine::builder()
            .workers(1)
            .sample_size(64)
            .build()
            .unwrap();
        let factor = engine
            .factor(TlrMatrix::assemble(8, 4, None, |i, j| {
                if i == j {
                    1.0
                } else {
                    0.1
                }
            }))
            .unwrap();
        let mut a = vec![-1.0; 8];
        a[3] = f64::NAN;
        let b = vec![1.0; 8];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.solve(&factor, &a, &b)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("invalid MVN problem"), "got: {msg}");
        assert!(msg.contains("NaN limit at coordinate 3"), "got: {msg}");
    }

    #[test]
    fn factor_kind_reports_the_storage_format() {
        let engine = MvnEngine::builder().workers(1).build().unwrap();
        let f = exp_cov(0.5);
        let dense = engine.factor(TlrMatrix::assemble(40, 10, None, f)).unwrap();
        assert_eq!(dense.kind(), crate::FactorKind::Dense);
        let tol = Some(CompressionTol::Absolute(1e-8));
        let tlr = engine.factor(TlrMatrix::assemble(40, 10, tol, f)).unwrap();
        assert_eq!(tlr.kind(), crate::FactorKind::Tlr);
    }

    #[test]
    fn engine_shared_across_threads_matches_sequential_bitwise() {
        // The shard-dispatcher contract: two OS threads sharing one engine
        // via `&` must produce bitwise-identical results to the same solves
        // run sequentially. Exercised for 1, 2 and 4 workers (inline pool and
        // real pool paths).
        let n = 40;
        let f = exp_cov(0.4);
        for workers in [1usize, 2, 4] {
            let engine = test_engine(workers);
            let factor = engine.factor(TlrMatrix::assemble(n, 10, None, f)).unwrap();
            let problems: Vec<Problem> = (0..8)
                .map(|k| Problem::new(vec![-0.3 - 0.05 * k as f64; n], vec![f64::INFINITY; n]))
                .collect();
            let sequential: Vec<MvnResult> = problems
                .iter()
                .map(|p| engine.solve(&factor, &p.a, &p.b))
                .collect();

            let engine_ref = &engine;
            let factor_ref = &factor;
            let (first, second) = std::thread::scope(|scope| {
                let (front, back) = problems.split_at(problems.len() / 2);
                let t1 = scope.spawn(move || {
                    front
                        .iter()
                        .map(|p| engine_ref.solve(factor_ref, &p.a, &p.b))
                        .collect::<Vec<_>>()
                });
                let t2 = scope.spawn(move || {
                    back.iter()
                        .map(|p| engine_ref.solve(factor_ref, &p.a, &p.b))
                        .collect::<Vec<_>>()
                });
                (t1.join().unwrap(), t2.join().unwrap())
            });
            let concurrent: Vec<MvnResult> = first.into_iter().chain(second).collect();
            for (c, s) in concurrent.iter().zip(&sequential) {
                assert!(
                    c.prob.to_bits() == s.prob.to_bits(),
                    "workers={workers}: concurrent {} vs sequential {}",
                    c.prob,
                    s.prob
                );
                assert!(c.std_error.to_bits() == s.std_error.to_bits());
            }
        }
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let engine = MvnEngine::builder().workers(1).build().unwrap();
        let factor = engine
            .factor(TlrMatrix::assemble(8, 4, None, |i, j| {
                if i == j {
                    1.0
                } else {
                    0.0
                }
            }))
            .unwrap();
        assert!(engine.solve_batch(&factor, &[]).is_empty());
    }
}
