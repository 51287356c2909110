//! The tiled, parallel PMVN algorithm (the paper's Algorithms 2 and 3).
//!
//! The `N` (quasi-)Monte-Carlo chains are split into independent panels of
//! width `m = cfg.panel_width`; each panel is one parallel task (the paper's
//! step (b)/(d) tasks). Within a panel the SOV recursion advances one row
//! block of the Cholesky factor at a time:
//!
//! 1. the QMC kernel (Algorithm 3) runs the within-block recursion against the
//!    dense diagonal tile `L_{r,r}`, producing the block of `Y` values and
//!    multiplying the per-chain probabilities,
//! 2. the propagation step applies `A_{j,·} ← A_{j,·} − L_{j,r}·Y_{r,·}` for
//!    every later row block `j > r` (the paper's step (c) GEMMs). With a TLR
//!    factor these products use the compressed `U·Vᵀ` form.
//!
//! **Chain-major layout.** All per-panel blocks (`w`, `a`, `b`, `y`) store the
//! *chain* index down their columns: a block covering row block `r` is a
//! `cols × tile_size(r)` matrix whose column `i` is the contiguous lane of all
//! chains' values for global row `tile_start(r) + i`. The kernel processes one
//! row across every live chain at a time, so its inner loops (the triangular
//! dot products, the conditional-limit updates, the batched Φ/Φ⁻¹ lanes from
//! [`mathx::batch`]) all run over contiguous memory and autovectorize; the
//! propagation GEMMs become `acc ← acc − Y·L_{j,r}ᵀ` on the same layout (see
//! DESIGN.md, "Kernel layout & vectorization").
//!
//! The per-panel probability means are combined into the final estimate and a
//! batch standard error.

use crate::{MvnConfig, MvnResult};
use mathx::{clamp_unit, norm_cdf_and_diff_slice, norm_quantile_slice};
use qmc::PointSet;
use tile_la::kernels::gemm_nt;
use tile_la::{DenseMatrix, TileLayout};
use tlr::{lr_gemm_panel_t, Tile, TlrMatrix};

/// The tile view of a Cholesky factor the PMVN sweep consumes: its tiling
/// and its lower tiles, each dense or low-rank ([`Tile`]). A dense factor is
/// a tiled factor whose tiles are all dense. Implemented by the one tiled
/// factor, [`TlrMatrix`], and by the `mvn-dist` worker's assembled factor.
pub trait CholeskyFactor: Sync {
    /// Row/column tiling of the factor.
    fn tiling(&self) -> TileLayout;
    /// Lower tile `L_{i,j}` (`j ≤ i`); diagonal tiles are dense.
    fn tile(&self, i: usize, j: usize) -> &Tile;
}

impl CholeskyFactor for TlrMatrix {
    fn tiling(&self) -> TileLayout {
        self.layout()
    }
    fn tile(&self, i: usize, j: usize) -> &Tile {
        TlrMatrix::tile(self, i, j)
    }
}

/// Chain-major propagation update `acc ← acc − yt · L_{j,r}ᵀ` for a
/// strictly-lower tile `l_jr`: `yt` is the `cols × tile_size(r)`
/// conditioning-value block and `acc` the `cols × tile_size(j)`
/// conditional-limit block, both with one chain per row. The one place the
/// sweep chooses a kernel by tile format.
fn propagate(l_jr: &Tile, yt: &DenseMatrix, acc: &mut DenseMatrix) {
    match l_jr {
        Tile::Dense(t) => gemm_nt(-1.0, yt, t, 1.0, acc),
        Tile::LowRank(b) => lr_gemm_panel_t(-1.0, b, yt, 1.0, acc),
    }
}

/// Reusable scratch of the chain-major QMC kernel: the hoisted `L_{r,r}` row
/// plus six chain-lane buffers (triangular dot `s`, conditional limits,
/// Φ values, the uniforms fed to Φ⁻¹). One instance lives per panel so the
/// kernel allocates nothing per row block (the GEMM micro-kernels likewise
/// reuse a thread-local pack buffer).
#[derive(Debug, Default)]
pub struct QmcScratch {
    lrow: Vec<f64>,
    lanes: Vec<f64>,
}

impl QmcScratch {
    fn reserve(&mut self, m: usize, cols: usize) {
        if self.lrow.len() < m {
            self.lrow.resize(m, 0.0);
        }
        if self.lanes.len() < 6 * cols {
            self.lanes.resize(6 * cols, 0.0);
        }
    }
}

/// Algorithm 3: run the within-block SOV recursion for one row block against
/// the dense diagonal tile `l_rr`, processing each row across all chains at
/// once (chain-major blocks, see the [module docs](self)).
///
/// * `l_rr` — dense lower-triangular diagonal tile (`m × m`),
/// * `w` — the uniform sample block (`cols × m`, chain-major),
/// * `a`, `b` — the conditional limit blocks (`cols × m`, entries may be ±∞),
/// * `y` — output block of conditioning values (`cols × m`),
/// * `prob` — running per-chain probabilities (length `cols`), multiplied in
///   place.
///
/// Returns the number of chains still alive (`prob > 0`); the caller can skip
/// the remaining propagation work for the panel once this reaches zero. Dead
/// chains ride along in the vector lanes with benign values (their uniform is
/// pinned to `½`, so Φ⁻¹ lands exactly on `0.0`) instead of branching the
/// inner loops per chain — `prob == 0` *is* the active-chain mask, and a dead
/// lane can never corrupt a live one because every chain's arithmetic only
/// reads its own lane slot.
pub fn qmc_kernel(
    l_rr: &DenseMatrix,
    w: &DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    y: &mut DenseMatrix,
    prob: &mut [f64],
) -> usize {
    let mut scratch = QmcScratch::default();
    qmc_kernel_scratch(l_rr, w, a, b, y, prob, &mut scratch, None)
}

/// [`qmc_kernel`] with caller-owned scratch buffers (the allocation-free form
/// the panel sweep uses).
///
/// `row_sums`, when given (length `m`), receives after each row `i` the sum
/// of the running per-chain probabilities, `prob.iter().sum()` — the panel's
/// estimate of the box truncated after that row, times the chain count. Rows
/// the kernel skips because every chain is already dead get `0.0`. `None`
/// does no extra work.
pub fn qmc_kernel_scratch(
    l_rr: &DenseMatrix,
    w: &DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    y: &mut DenseMatrix,
    prob: &mut [f64],
    scratch: &mut QmcScratch,
    mut row_sums: Option<&mut [f64]>,
) -> usize {
    let m = l_rr.nrows();
    let cols = prob.len();
    debug_assert_eq!(l_rr.ncols(), m);
    debug_assert_eq!(w.nrows(), cols);
    debug_assert_eq!(w.ncols(), m);
    debug_assert_eq!(a.nrows(), cols);
    debug_assert_eq!(a.ncols(), m);
    debug_assert_eq!(b.nrows(), cols);
    debug_assert_eq!(b.ncols(), m);
    debug_assert_eq!(y.nrows(), cols);
    debug_assert_eq!(y.ncols(), m);
    debug_assert!(row_sums.as_ref().is_none_or(|s| s.len() == m));

    scratch.reserve(m, cols);
    let QmcScratch { lrow, lanes } = scratch;
    let (s, rest) = lanes.split_at_mut(cols);
    let (lo, rest) = rest.split_at_mut(cols);
    let (hi, rest) = rest.split_at_mut(cols);
    let (phi, rest) = rest.split_at_mut(cols);
    let (dif, rest) = rest.split_at_mut(cols);
    let (u, _) = rest.split_at_mut(cols);

    for i in 0..m {
        let lii = l_rr.get(i, i);
        if lii <= 0.0 || !lii.is_finite() {
            // Degenerate factor (non-positive or non-finite diagonal):
            // dividing by it would poison the whole estimate with NaNs. The
            // diagonal is shared by every chain, so all of them die here —
            // probability zero, conditioning values kept finite.
            for p in prob.iter_mut() {
                *p = 0.0;
            }
            for k in i..m {
                y.col_mut(k).fill(0.0);
            }
            if let Some(sums) = row_sums {
                sums[i..].fill(0.0);
            }
            return 0;
        }
        // Hoist row i of the triangular tile, then accumulate the triangular
        // dot products into the per-chain `s` lane in fixed `t` order (the
        // order is what keeps the estimate invariant across panel widths and
        // tile layouts — only whole lanes are vectorized, never the sum).
        for (t, lt) in lrow[..i].iter_mut().enumerate() {
            *lt = l_rr.get(i, t);
        }
        s.fill(0.0);
        for (t, &lt) in lrow[..i].iter().enumerate() {
            let yt = y.col(t);
            for (sc, &yv) in s.iter_mut().zip(yt) {
                *sc += lt * yv;
            }
        }
        let ac = a.col(i);
        let bc = b.col(i);
        for c in 0..cols {
            lo[c] = if ac[c] == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                (ac[c] - s[c]) / lii
            };
            hi[c] = if bc[c] == f64::INFINITY {
                f64::INFINITY
            } else {
                (bc[c] - s[c]) / lii
            };
        }
        norm_cdf_and_diff_slice(lo, hi, phi, dif);
        let wc = w.col(i);
        let mut alive = 0usize;
        for c in 0..cols {
            // Dead chains have prob == 0, so the unconditional multiply
            // keeps them at exactly 0 whatever their stale `dif` lane holds
            // (`dif ∈ [0, 1]` for the finite limits the sweep maintains).
            let p = prob[c] * dif[c];
            prob[c] = p;
            // Pin dead lanes to u = ½: Φ⁻¹(½) is exactly 0.0, which keeps
            // their conditioning values finite without a separate pass.
            u[c] = if p == 0.0 {
                0.5
            } else {
                clamp_unit(phi[c] + wc[c] * dif[c])
            };
            alive += (p != 0.0) as usize;
        }
        norm_quantile_slice(u, y.col_mut(i));
        if let Some(sums) = row_sums.as_deref_mut() {
            sums[i] = prob.iter().sum::<f64>();
        }
        if alive == 0 {
            for k in (i + 1)..m {
                y.col_mut(k).fill(0.0);
            }
            if let Some(sums) = row_sums {
                sums[i + 1..].fill(0.0);
            }
            return 0;
        }
    }
    prob.iter().filter(|&&p| p != 0.0).count()
}

/// Per-panel state of the SOV recursion: the conditional limit blocks, the
/// sample block, the conditioning values of the current row block and the
/// running per-chain probabilities. One instance lives per sample panel, for
/// the duration of one `panel_sweep` task against a finished factor
/// ([`sweep_panel`] / [`sweep_panel_prefixes`]), which advances it one row
/// block at a time.
///
/// All blocks are chain-major (`cols × tile_size(r)`, one chain per row —
/// see the [module docs](self)). `alive` caches the kernel's live-chain
/// count so a fully-dead panel skips its remaining row blocks and
/// propagation GEMMs entirely.
struct PanelState {
    a_blocks: Vec<DenseMatrix>,
    b_blocks: Vec<DenseMatrix>,
    w_blocks: Vec<DenseMatrix>,
    y_block: DenseMatrix,
    prob: Vec<f64>,
    cols: usize,
    skip_b_updates: bool,
    alive: usize,
    scratch: QmcScratch,
}

impl PanelState {
    /// Build the state of panel `p`: replicate the limits into row blocks and
    /// generate the panel's sample lanes block-major (each row block's
    /// coordinate range is written directly via [`PointSet::fill_block`] —
    /// no full-dimension point buffer, no strided re-copy).
    fn init(
        layout: TileLayout,
        a: &[f64],
        b: &[f64],
        points: &dyn PointSet,
        cfg: &MvnConfig,
        p: usize,
    ) -> Self {
        let nt = layout.num_tiles();
        let start = p * cfg.panel_width;
        let end = ((p + 1) * cfg.panel_width).min(cfg.sample_size);
        let cols = end - start;

        let mut a_blocks: Vec<DenseMatrix> = Vec::with_capacity(nt);
        let mut b_blocks: Vec<DenseMatrix> = Vec::with_capacity(nt);
        let mut w_blocks: Vec<DenseMatrix> = Vec::with_capacity(nt);
        for r in 0..nt {
            let rows = layout.tile_size(r);
            let r0 = layout.tile_start(r);
            a_blocks.push(DenseMatrix::from_fn(cols, rows, |_, i| a[r0 + i]));
            b_blocks.push(DenseMatrix::from_fn(cols, rows, |_, i| b[r0 + i]));
            let mut wb = DenseMatrix::zeros(cols, rows);
            points.fill_block(start, cols, r0, rows, wb.data_mut());
            w_blocks.push(wb);
        }

        Self {
            a_blocks,
            b_blocks,
            w_blocks,
            y_block: DenseMatrix::zeros(cols, layout.tile_size(0)),
            prob: vec![1.0; cols],
            cols,
            skip_b_updates: b.iter().all(|&x| x == f64::INFINITY),
            alive: cols,
            scratch: QmcScratch::default(),
        }
    }

    /// Advance the recursion by row block `r`: run the QMC kernel against the
    /// diagonal tile and propagate the conditioning values to the later row
    /// blocks (the paper's step (c) GEMMs).
    ///
    /// Once every chain in the panel is dead the remaining row blocks are
    /// skipped entirely: dead chains keep probability zero and conditioning
    /// value zero, so neither the kernel nor the propagation GEMMs could
    /// change the estimate.
    ///
    /// `row_sums` (one entry per row of block `r`) receives the kernel's
    /// per-row chain sums (see [`qmc_kernel_scratch`]).
    fn step<F: CholeskyFactor + ?Sized>(&mut self, l: &F, r: usize, row_sums: Option<&mut [f64]>) {
        if self.alive == 0 {
            if let Some(sums) = row_sums {
                sums.fill(0.0);
            }
            return;
        }
        let layout = l.tiling();
        let nt = layout.num_tiles();
        let rows = layout.tile_size(r);
        if self.y_block.ncols() != rows {
            self.y_block = DenseMatrix::zeros(self.cols, rows);
        }
        self.alive = qmc_kernel_scratch(
            l.tile(r, r).as_dense(),
            &self.w_blocks[r],
            &self.a_blocks[r],
            &self.b_blocks[r],
            &mut self.y_block,
            &mut self.prob,
            &mut self.scratch,
            row_sums,
        );
        if self.alive == 0 {
            return;
        }
        for j in (r + 1)..nt {
            let l_jr = l.tile(j, r);
            propagate(l_jr, &self.y_block, &mut self.a_blocks[j]);
            if !self.skip_b_updates {
                propagate(l_jr, &self.y_block, &mut self.b_blocks[j]);
            }
        }
    }

    /// The panel's contribution: (mean probability, chain count).
    fn result(&self) -> (f64, usize) {
        (self.prob.iter().sum::<f64>() / self.cols as f64, self.cols)
    }
}

/// Run the complete sweep of one panel against a finished factor (shared by
/// the engine's batched panel tasks in [`crate::engine`] and the per-node
/// partial sweeps of the distributed runtime). Panel `p`
/// covers chains `p·panel_width ..` of the point set; the result is the
/// panel's probability mean and live-chain count, and depends only on the
/// factor bits, the limits, the point set and `p` — not on which process or
/// thread runs it, which is what makes the distributed sweep bitwise
/// identical to the single-process one.
pub fn sweep_panel<F: CholeskyFactor + ?Sized>(
    l: &F,
    a: &[f64],
    b: &[f64],
    points: &dyn PointSet,
    cfg: &MvnConfig,
    p: usize,
) -> (f64, usize) {
    let layout = l.tiling();
    let mut state = PanelState::init(layout, a, b, points, cfg, p);
    for r in 0..layout.num_tiles() {
        if state.alive == 0 {
            break;
        }
        state.step(l, r, None);
    }
    state.result()
}

/// [`sweep_panel`] reporting the panel's mean after *every* row: entry `k`
/// of the returned vector is the panel mean of the box truncated after row
/// `k` (limits `a[..=k]`, `b[..=k]`, unbounded beyond), bitwise what
/// [`sweep_panel`] returns for that truncated box — its later rows multiply
/// every chain by exactly 1. Returns the means and the chain count.
pub(crate) fn sweep_panel_prefixes<F: CholeskyFactor + ?Sized>(
    l: &F,
    a: &[f64],
    b: &[f64],
    points: &dyn PointSet,
    cfg: &MvnConfig,
    p: usize,
) -> (Vec<f64>, usize) {
    let layout = l.tiling();
    let mut state = PanelState::init(layout, a, b, points, cfg, p);
    let mut means = vec![0.0; layout.n()];
    for r in 0..layout.num_tiles() {
        let rows = layout.tile_start(r)..layout.tile_start(r) + layout.tile_size(r);
        state.step(l, r, Some(&mut means[rows]));
    }
    for m in &mut means {
        *m /= state.cols as f64;
    }
    (means, state.cols)
}

/// Combine per-panel `(mean, count)` contributions into the final estimate
/// (batching the panels into ~10 groups for the standard error).
///
/// The combination depends on the *panel order* of the input (batch `i % 10`
/// membership), so any caller reassembling partial results — the engine's
/// batched graph or the distributed coordinator — must present them indexed
/// by panel, exactly as the single-process sweep produces them.
pub fn combine_panel_results(panel_results: &[(f64, usize)]) -> MvnResult {
    let n_batches = 10.min(panel_results.len());
    let mut batch_sum = vec![0.0; n_batches];
    let mut batch_cnt = vec![0usize; n_batches];
    for (i, (mean, c)) in panel_results.iter().enumerate() {
        let bidx = i % n_batches;
        batch_sum[bidx] += mean * *c as f64;
        batch_cnt[bidx] += c;
    }
    let batches: Vec<(f64, usize)> = batch_sum
        .iter()
        .zip(&batch_cnt)
        .filter(|(_, &c)| c > 0)
        .map(|(s, &c)| (s / c as f64, c))
        .collect();
    MvnResult::from_batches(&batches)
}

/// Test reference: sweep a finished factor panel by panel on the calling
/// thread — what every pooled execution must reproduce to the bit.
#[cfg(test)]
pub(crate) fn sweep_sequential(
    l: &dyn crate::FactorBackend,
    a: &[f64],
    b: &[f64],
    cfg: &MvnConfig,
) -> MvnResult {
    let points = qmc::make_point_set(cfg.sample_kind, l.dim(), cfg.seed);
    let panels: Vec<(f64, usize)> = (0..cfg.sample_size.div_ceil(cfg.panel_width))
        .map(|p| l.sweep_panel(a, b, points.as_ref(), cfg, p))
        .collect();
    combine_panel_results(&panels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genz::mvn_prob_genz;
    use crate::{FactorBackend, MvnEngine};
    use mathx::norm_cdf;
    use qmc::make_point_set;
    use task_runtime::WorkerPool;
    use tlr::{potrf_tlr, CompressionTol};

    /// One solve on a throwaway engine of `workers` workers.
    fn solve_on<F: FactorBackend>(
        workers: usize,
        l: &F,
        a: &[f64],
        b: &[f64],
        cfg: &MvnConfig,
    ) -> MvnResult {
        let engine = MvnEngine::builder().workers(workers).config(*cfg).build();
        engine.unwrap().solve_factored_with(l, a, b, cfg)
    }

    /// [`solve_on`] one worker per core (the engine default).
    fn solve<F: FactorBackend>(l: &F, a: &[f64], b: &[f64], cfg: &MvnConfig) -> MvnResult {
        solve_on(0, l, a, b, cfg)
    }

    fn exp_cov(range: f64) -> impl Fn(usize, usize) -> f64 + Sync + Copy {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 40.0;
            (-d / range).exp()
        }
    }

    fn dense_factor(f: impl Fn(usize, usize) -> f64 + Sync, n: usize, nb: usize) -> TlrMatrix {
        let mut l = TlrMatrix::assemble(n, nb, None, f);
        potrf_tlr(&mut l, &WorkerPool::new(1)).unwrap();
        l
    }

    #[test]
    fn independent_case_matches_exact_product() {
        let n = 12;
        let l = dense_factor(|i, j| if i == j { 1.0 } else { 0.0 }, n, 5);
        let a = vec![-1.5; n];
        let b = vec![0.5; n];
        let r = solve(&l, &a, &b, &MvnConfig::with_samples(2000));
        let want = (norm_cdf(0.5) - norm_cdf(-1.5)).powi(n as i32);
        assert!((r.prob - want).abs() < 1e-10, "{} vs {want}", r.prob);
    }

    #[test]
    fn equicorrelated_orthant_closed_form() {
        // P(all X_i <= 0) with correlation 0.5 is 1/(n+1).
        let n = 6;
        let l = dense_factor(|i, j| if i == j { 1.0 } else { 0.5 }, n, 3);
        let a = vec![f64::NEG_INFINITY; n];
        let b = vec![0.0; n];
        let cfg = MvnConfig {
            sample_size: 40_000,
            panel_width: 64,
            seed: 3,
            ..Default::default()
        };
        let r = solve(&l, &a, &b, &cfg);
        let want = 1.0 / (n as f64 + 1.0);
        assert!((r.prob - want).abs() < 4e-3, "{} vs {want}", r.prob);
    }

    #[test]
    fn agrees_with_sequential_genz_reference() {
        let n = 60;
        let f = exp_cov(0.5);
        let l_tiled = dense_factor(f, n, 16);
        let l_dense = l_tiled.to_dense_lower();
        let a = vec![-0.3; n];
        let b = vec![f64::INFINITY; n];
        let cfg = MvnConfig {
            sample_size: 30_000,
            seed: 11,
            ..Default::default()
        };
        let tiled = solve(&l_tiled, &a, &b, &cfg);
        let seq = mvn_prob_genz(&l_dense, &a, &b, &cfg);
        let tol = 4.0 * (tiled.std_error + seq.std_error).max(2e-3);
        assert!(
            (tiled.prob - seq.prob).abs() < tol,
            "tiled {} vs sequential {} (tol {tol})",
            tiled.prob,
            seq.prob
        );
    }

    #[test]
    fn result_is_invariant_to_panel_width_and_tile_size() {
        let n = 45;
        let f = exp_cov(0.3);
        let a = vec![-0.5; n];
        let b = vec![1.0; n];
        let mut probs = Vec::new();
        for (nb, panel) in [(9, 16), (15, 50), (45, 128)] {
            let l = dense_factor(f, n, nb);
            let cfg = MvnConfig {
                sample_size: 8000,
                panel_width: panel,
                seed: 21,
                ..Default::default()
            };
            probs.push(solve(&l, &a, &b, &cfg).prob);
        }
        // Same sample set, same chain values => identical estimates up to
        // floating-point reassociation.
        for w in probs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-10, "{probs:?}");
        }
    }

    #[test]
    fn tlr_factor_gives_same_probability_as_dense_factor() {
        let n = 100;
        let f = exp_cov(0.8);
        let l_dense = dense_factor(f, n, 25);
        let mut tlr =
            TlrMatrix::assemble(n, 25, Some((CompressionTol::Absolute(1e-8), usize::MAX)), f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let a = vec![-0.2; n];
        let b = vec![f64::INFINITY; n];
        let cfg = MvnConfig {
            sample_size: 10_000,
            seed: 5,
            ..Default::default()
        };
        let rd = solve(&l_dense, &a, &b, &cfg);
        let rt = solve(&tlr, &a, &b, &cfg);
        assert!(
            (rd.prob - rt.prob).abs() < 1e-3,
            "dense {} vs TLR {}",
            rd.prob,
            rt.prob
        );
    }

    #[test]
    fn loose_tlr_tolerance_still_close_as_in_the_paper() {
        // The paper's qualitative finding: 1e-3 (even 1e-1 for weak/medium
        // correlation) compression is enough for confidence-region accuracy.
        let n = 100;
        let f = exp_cov(0.8);
        let l_dense = dense_factor(f, n, 25);
        let mut tlr = TlrMatrix::assemble(n, 25, Some((CompressionTol::Absolute(1e-3), 20)), f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let a = vec![0.0; n];
        let b = vec![f64::INFINITY; n];
        let cfg = MvnConfig {
            sample_size: 10_000,
            seed: 6,
            ..Default::default()
        };
        let rd = solve(&l_dense, &a, &b, &cfg);
        let rt = solve(&tlr, &a, &b, &cfg);
        assert!(
            (rd.prob - rt.prob).abs() < 5e-3,
            "dense {} vs TLR {}",
            rd.prob,
            rt.prob
        );
    }

    #[test]
    fn finite_upper_limits_exercise_the_b_update_path() {
        let n = 40;
        let f = exp_cov(0.4);
        let l_tiled = dense_factor(f, n, 10);
        let l_dense = l_tiled.to_dense_lower();
        let a = vec![-1.0; n];
        let b = vec![0.8; n];
        let cfg = MvnConfig {
            sample_size: 20_000,
            seed: 13,
            ..Default::default()
        };
        let tiled = solve(&l_tiled, &a, &b, &cfg);
        let seq = mvn_prob_genz(&l_dense, &a, &b, &cfg);
        assert!(
            (tiled.prob - seq.prob).abs() < 4.0 * (tiled.std_error + seq.std_error).max(1e-3),
            "tiled {} vs sequential {}",
            tiled.prob,
            seq.prob
        );
    }

    #[test]
    fn probability_bounds_are_respected() {
        let n = 30;
        let l = dense_factor(exp_cov(0.6), n, 8);
        let cfg = MvnConfig::with_samples(4000);
        let whole = solve(
            &l,
            &vec![f64::NEG_INFINITY; n],
            &vec![f64::INFINITY; n],
            &cfg,
        );
        assert!((whole.prob - 1.0).abs() < 1e-12);
        let r = solve(&l, &vec![0.0; n], &vec![f64::INFINITY; n], &cfg);
        assert!(r.prob > 0.0 && r.prob < 1.0);
    }

    #[test]
    fn engine_sweep_is_bitwise_a_sequential_loop_over_the_panels() {
        // The acceptance condition: same seed => same bits as sweeping the
        // panels one after another on the calling thread, for dense and TLR
        // factors, independent of the worker count.
        let n = 45;
        let f = exp_cov(0.3);
        let l = dense_factor(f, n, 15);
        let mut tlr =
            TlrMatrix::assemble(n, 15, Some((CompressionTol::Absolute(1e-8), usize::MAX)), f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let a = vec![-0.5; n];
        let b = vec![1.0; n];
        let cfg = MvnConfig {
            sample_size: 4000,
            seed: 21,
            ..Default::default()
        };
        let seq_dense = sweep_sequential(&l, &a, &b, &cfg);
        let seq_tlr = sweep_sequential(&tlr, &a, &b, &cfg);
        for workers in [1usize, 2, 8] {
            let dense = solve_on(workers, &l, &a, &b, &cfg);
            let tlr = solve_on(workers, &tlr, &a, &b, &cfg);
            assert!(
                dense.prob.to_bits() == seq_dense.prob.to_bits(),
                "dense: workers={workers}: {} vs {}",
                dense.prob,
                seq_dense.prob
            );
            assert!(
                dense.std_error.to_bits() == seq_dense.std_error.to_bits(),
                "dense std_error differs at workers={workers}"
            );
            assert!(
                tlr.prob.to_bits() == seq_tlr.prob.to_bits(),
                "tlr: workers={workers}: {} vs {}",
                tlr.prob,
                seq_tlr.prob
            );
        }
    }

    #[test]
    fn degenerate_diagonal_kills_the_chain_instead_of_nans() {
        // Regression test for the unchecked division by l_rr[i,i]: a factor
        // with a zero (or negative) diagonal entry must produce a finite
        // probability (the affected chains die), never NaN. Blocks are
        // chain-major: (chain, row) indexing.
        let m = 6;
        let mut l_rr = DenseMatrix::zeros(m, m);
        for i in 0..m {
            l_rr.set(i, i, 1.0);
        }
        l_rr.set(3, 3, 0.0); // degenerate pivot
        let cols = 4;
        let a_blk = DenseMatrix::from_fn(cols, m, |_, _| -1.0);
        let b_blk = DenseMatrix::from_fn(cols, m, |_, _| 1.0);
        let w_blk = DenseMatrix::from_fn(cols, m, |c, i| {
            ((i * cols + c) as f64 + 0.5) / (m * cols) as f64
        });
        let mut y_blk = DenseMatrix::zeros(cols, m);
        let mut prob = vec![1.0; cols];
        let alive = qmc_kernel(&l_rr, &w_blk, &a_blk, &b_blk, &mut y_blk, &mut prob);
        assert_eq!(alive, 0);
        for c in 0..cols {
            assert_eq!(prob[c], 0.0, "chain {c} should be dead");
            for i in 0..m {
                assert!(y_blk.get(c, i).is_finite(), "y({i},{c}) must stay finite");
            }
        }

        // Negative pivot behaves the same.
        l_rr.set(3, 3, -2.0);
        let mut prob = vec![1.0; cols];
        let alive = qmc_kernel(&l_rr, &w_blk, &a_blk, &b_blk, &mut y_blk, &mut prob);
        assert_eq!(alive, 0);
        assert!(prob.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn qmc_kernel_matches_scalar_recursion_per_chain() {
        // Every chain of the chain-major kernel must reproduce the scalar
        // SOV recursion run on that chain's own sample — lanes may share the
        // vectorized loops but never each other's values.
        use crate::sov::sov_sample_probability;
        let m = 10;
        let cols = 7;
        let f = exp_cov(0.5);
        let l_tiled = dense_factor(f, m, m);
        let l_rr = l_tiled.diag_tile(0).clone();
        let a = vec![-0.7; m];
        let b = vec![1.2; m];
        let w_blk =
            DenseMatrix::from_fn(cols, m, |c, i| (((i * cols + c) % 29) as f64 + 0.5) / 29.0);

        let a_blk = DenseMatrix::from_fn(cols, m, |_, i| a[i]);
        let b_blk = DenseMatrix::from_fn(cols, m, |_, i| b[i]);
        let mut y_blk = DenseMatrix::zeros(cols, m);
        let mut prob = vec![1.0; cols];
        let alive = qmc_kernel(&l_rr, &w_blk, &a_blk, &b_blk, &mut y_blk, &mut prob);
        assert_eq!(alive, cols);

        for c in 0..cols {
            let w: Vec<f64> = (0..m).map(|i| w_blk.get(c, i)).collect();
            let mut y = vec![0.0; m];
            let p_ref = sov_sample_probability(&l_rr, &a, &b, &w, &mut y);
            assert!((prob[c] - p_ref).abs() < 1e-12, "chain {c}");
            for i in 0..m {
                assert!((y_blk.get(c, i) - y[i]).abs() < 1e-12, "chain {c} row {i}");
            }
        }
    }

    #[test]
    fn panel_w_blocks_match_per_point_generation_bitwise() {
        // The block-major fill of PanelState::init must reproduce the
        // historical column-by-column sample generation bit for bit, for
        // both deterministic QMC families.
        use qmc::SampleKind;
        let n = 45;
        let layout = TileLayout::new(n, 11); // uneven tail tile
        let a = vec![-0.5; n];
        let b = vec![1.0; n];
        for kind in [SampleKind::Halton, SampleKind::RichtmyerLattice] {
            let cfg = MvnConfig {
                sample_size: 100,
                panel_width: 32,
                sample_kind: kind,
                seed: 77,
            };
            let points = make_point_set(kind, n, cfg.seed);
            for p in 0..cfg.sample_size.div_ceil(cfg.panel_width) {
                let state = PanelState::init(layout, &a, &b, points.as_ref(), &cfg, p);
                let start = p * cfg.panel_width;
                for c in 0..state.cols {
                    let point = points.point_vec(start + c);
                    for r in 0..layout.num_tiles() {
                        let r0 = layout.tile_start(r);
                        for i in 0..layout.tile_size(r) {
                            assert_eq!(
                                state.w_blocks[r].get(c, i).to_bits(),
                                point[r0 + i].to_bits(),
                                "{kind:?}: panel {p}, chain {c}, row {}",
                                r0 + i
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_dead_panel_skips_remaining_blocks() {
        // Limits that kill every chain mid-sweep (an empty box at row 15,
        // inside block 1 of 4): the remaining row blocks and their
        // propagation GEMMs must be skipped without changing the result.
        let n = 40;
        let f = exp_cov(0.4);
        let l = dense_factor(f, n, 10);
        let layout = l.layout();
        let mut a = vec![-1.0; n];
        let mut b = vec![1.0; n];
        // A degenerate coordinate (a == b, the only empty-box shape that
        // passes `validate_limits` — inverted boxes are rejected at the API
        // boundary): Φ-diff is 0 for every chain.
        a[15] = 1.0;
        b[15] = 1.0;
        let cfg = MvnConfig {
            sample_size: 256,
            panel_width: 64,
            seed: 3,
            ..Default::default()
        };
        let points = make_point_set(cfg.sample_kind, n, cfg.seed);

        let mut state = PanelState::init(layout, &a, &b, points.as_ref(), &cfg, 0);
        state.step(&l, 0, None);
        assert_eq!(state.alive, state.cols, "block 0 keeps all chains alive");
        state.step(&l, 1, None);
        assert_eq!(state.alive, 0, "the empty box kills every chain");
        // The later limit blocks must no longer be touched.
        let a2_before = state.a_blocks[2].clone();
        let a3_before = state.a_blocks[3].clone();
        state.step(&l, 2, None);
        state.step(&l, 3, None);
        assert_eq!(state.a_blocks[2], a2_before);
        assert_eq!(state.a_blocks[3], a3_before);
        assert!(state.prob.iter().all(|&p| p == 0.0));
        let (mean, _) = state.result();
        assert_eq!(mean, 0.0);

        // End-to-end: the engine reports exactly zero probability, inline and
        // on a real pool, dead panels or not.
        assert_eq!(solve_on(1, &l, &a, &b, &cfg).prob, 0.0);
        let more = MvnConfig {
            sample_size: 4000,
            ..cfg
        };
        assert_eq!(solve_on(2, &l, &a, &b, &more).prob, 0.0);
    }
}
