//! The fused Cholesky + PMVN pipeline: factorization tasks and panel-sweep
//! tasks in *one* dependency-inferred task graph (the paper's core systems
//! contribution).
//!
//! The staged flow (`factor_dense` then `solve`) puts a global barrier
//! between the factorization and the sweep. Here the sweep task of
//! panel `p` at row block `r` declares read dependencies on exactly the
//! factor tiles it consumes — the diagonal tile `(r, r)` and the column tiles
//! `(j, r)`, `j > r` — so it becomes ready the moment the `TRSM`s of factor
//! column `r` finish, while the trailing `SYRK`/`GEMM` updates of later
//! columns are still in flight. Early row-block sweeping thus overlaps the
//! trailing factorization, which is where any wall-time win over
//! factor-then-sweep comes from; no `mvn_perf` workload times the two
//! against each other.
//!
//! Numerically nothing changes: every task applies the same kernels in the
//! same submission order as the staged flow, so the estimate (and the factor
//! left behind) are bitwise identical to the staged result, for any worker
//! count.

use crate::pmvn::{combine_panel_results, PanelState};
use crate::{MvnConfig, MvnResult};
use qmc::{make_point_set, PointSet};
use task_runtime::{
    AccessMode, DataHandle, HandleRegistry, TaskSink, TaskSpec, TileStore, WorkerPool,
};
use tile_la::dag::{attach_tiles, detach_tiles, submit_factor_tasks, FactorStatus};
use tile_la::kernels::gemm_nt;
use tile_la::{CholeskyError, DenseMatrix, SymTileMatrix, TileLayout};
use tlr::dag::{attach_tlr_tiles, detach_tlr_tiles, submit_tlr_factor_tasks};
use tlr::{lr_gemm_panel_t, LowRankBlock, TlrCholeskyError, TlrMatrix};

/// A view of factor tiles living in [`TileStore`]s, so the [`PanelState`]
/// sweep can run against in-flight tiles. Only used inside sweep-task
/// closures, whose declared read dependencies guarantee the accessed tiles
/// are final. Both backends address tiles through one lower-triangle handle
/// grid: `handles[i][j]`, `j ≤ i`.
struct StoredFactor<'s> {
    layout: TileLayout,
    handles: &'s [Vec<DataHandle>],
    stores: Stores<'s>,
}

/// Where the tiles behind `StoredFactor::handles` live.
enum Stores<'s> {
    Dense(&'s TileStore<DenseMatrix>),
    Tlr {
        diag: &'s TileStore<DenseMatrix>,
        off: &'s TileStore<LowRankBlock>,
    },
}

impl StoredFactor<'_> {
    /// Run `f` against the diagonal tile `(r, r)`, holding its read guard
    /// only for the duration of the call.
    fn with_diag<R>(&self, r: usize, f: impl FnOnce(&DenseMatrix) -> R) -> R {
        let (Stores::Dense(store) | Stores::Tlr { diag: store, .. }) = self.stores;
        f(&store.read(self.handles[r][r]))
    }

    /// Propagate `y` through the off-diagonal tile `(j, r)`:
    /// `blk ← blk − y · L(j,r)ᵀ` for the `a` block and (when present) the `b`
    /// block, reading the tile guard once for both updates.
    fn propagate(
        &self,
        j: usize,
        r: usize,
        y: &DenseMatrix,
        a_blk: &mut DenseMatrix,
        b_blk: Option<&mut DenseMatrix>,
    ) {
        let h = self.handles[j][r];
        match self.stores {
            Stores::Dense(store) => {
                let tile = store.read(h);
                gemm_nt(-1.0, y, &tile, 1.0, a_blk);
                if let Some(b_blk) = b_blk {
                    gemm_nt(-1.0, y, &tile, 1.0, b_blk);
                }
            }
            Stores::Tlr { off, .. } => {
                let tile = off.read(h);
                lr_gemm_panel_t(-1.0, &tile, y, 1.0, a_blk);
                if let Some(b_blk) = b_blk {
                    lr_gemm_panel_t(-1.0, &tile, y, 1.0, b_blk);
                }
            }
        }
    }

    /// Advance `state` by row block `r`, reading the factor tiles out of the
    /// stores. Mirrors [`PanelState::step`] exactly (same kernel calls in the
    /// same order, chain-major blocks, all-dead early exit), but holds tile
    /// read-guards only for the duration of each kernel. One generic body for
    /// every tiled backend — the per-variant kernel choice lives entirely in
    /// [`StoredFactor::with_diag`]/[`StoredFactor::propagate`].
    fn step_stored(&self, state: &mut PanelState, r: usize) {
        if state.alive == 0 {
            return;
        }
        let layout = self.layout;
        let nt = layout.num_tiles();
        let rows = layout.tile_size(r);
        if state.y_block.ncols() != rows {
            state.y_block = DenseMatrix::zeros(state.cols, rows);
        }
        // Destructure for disjoint borrows across the closure and the
        // propagation loop.
        let PanelState {
            a_blocks,
            b_blocks,
            w_blocks,
            y_block,
            prob,
            skip_b_updates,
            alive,
            scratch,
            ..
        } = state;
        *alive = self.with_diag(r, |diag| {
            crate::pmvn::qmc_kernel_scratch(
                diag,
                &w_blocks[r],
                &a_blocks[r],
                &b_blocks[r],
                y_block,
                prob,
                scratch,
                None,
            )
        });
        if *alive == 0 {
            return;
        }
        for j in (r + 1)..nt {
            let (a_blk, b_blk) = (&mut a_blocks[j], &mut b_blocks[j]);
            let b_blk = if *skip_b_updates { None } else { Some(b_blk) };
            self.propagate(j, r, y_block, a_blk, b_blk);
        }
    }
}

/// Submit the PMVN panel-sweep tasks into a [`TaskSink`], with read
/// dependencies on the factor tiles each step consumes.
#[allow(clippy::too_many_arguments)]
fn submit_sweep_tasks<'a, S: TaskSink<'a> + ?Sized>(
    graph: &mut S,
    factor: &'a StoredFactor<'a>,
    panel_store: &'a TileStore<PanelState>,
    panel_handles: &[DataHandle],
    status: &'a FactorStatus,
    a: &'a [f64],
    b: &'a [f64],
    points: &'a dyn PointSet,
    cfg: &'a MvnConfig,
) {
    let layout = factor.layout;
    let nt = layout.num_tiles();
    for (p, &panel_h) in panel_handles.iter().enumerate() {
        // Panel initialization: limits replication + sample generation. No
        // factor dependency, so it runs while the factorization starts.
        graph.submit_task(
            TaskSpec::new("panel_init")
                .access(panel_h, AccessMode::Write)
                .cost(cfg.panel_width as f64),
            Some(Box::new(move || {
                if status.is_failed() {
                    return;
                }
                *panel_store.write(panel_h) = PanelState::init(layout, a, b, points, cfg, p);
            })),
        );
        // One sweep task per row block, reading factor column r.
        for r in 0..nt {
            let mut spec = TaskSpec::new("panel_sweep")
                .access(panel_h, AccessMode::ReadWrite)
                .cost(layout.tile_size(r) as f64 * cfg.panel_width as f64);
            for j in r..nt {
                spec = spec.access(factor.handles[j][r], AccessMode::Read);
            }
            graph.submit_task(
                spec,
                Some(Box::new(move || {
                    if status.is_failed() {
                        return;
                    }
                    let mut state = panel_store.write(panel_h);
                    factor.step_stored(&mut state, r);
                })),
            );
        }
    }
}

/// Factor `sigma` in place *and* run the PMVN sweep as one task set on `pool`
/// (the body of `MvnEngine::factor_prob_dense`). On success `sigma` holds the
/// Cholesky factor exactly as `potrf_tiled` would leave it.
pub(crate) fn run_dense_fused(
    sigma: &mut SymTileMatrix,
    a: &[f64],
    b: &[f64],
    cfg: &MvnConfig,
    pool: &WorkerPool,
) -> Result<MvnResult, CholeskyError> {
    let n = sigma.n();
    // Same boundary validation as the staged paths: malformed limits get the
    // typed `ProblemError` message here, never a panic deep in the sweep.
    if let Err(e) = crate::engine::validate_limits(a, b) {
        panic!("invalid MVN problem: {e}");
    }
    assert_eq!(
        a.len(),
        n,
        "limit length must match the factor dimension {n}"
    );
    assert!(cfg.sample_size > 0, "sample size must be positive");
    assert!(cfg.panel_width > 0, "panel width must be positive");

    let layout = sigma.layout();
    let mut registry = HandleRegistry::new();
    let (handles, mut store) = detach_tiles(sigma, &mut registry);
    let status = FactorStatus::new();
    let points = make_point_set(cfg.sample_kind, n, cfg.seed);

    let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
    let mut panel_store: TileStore<PanelState> = TileStore::new();
    let panel_handles: Vec<DataHandle> = (0..n_panels)
        .map(|p| {
            let h = registry.register(format!("panel{p}"));
            panel_store.insert(h, PanelState::empty());
            h
        })
        .collect();

    let factor = StoredFactor {
        layout,
        handles: &handles,
        stores: Stores::Dense(&store),
    };
    pool.execute(|sink| {
        submit_factor_tasks(sink, &store, &handles, layout, &status);
        submit_sweep_tasks(
            sink,
            &factor,
            &panel_store,
            &panel_handles,
            &status,
            a,
            b,
            points.as_ref(),
            cfg,
        );
    });
    attach_tiles(sigma, &handles, &mut store);
    if let Some(p) = status.pivot() {
        return Err(CholeskyError::NotPositiveDefinite(p));
    }
    let panel_results: Vec<(f64, usize)> = panel_handles
        .iter()
        .map(|&h| panel_store.take(h).result())
        .collect();
    Ok(combine_panel_results(&panel_results))
}

/// TLR variant of [`run_dense_fused`] (the body of
/// `MvnEngine::factor_prob_tlr`).
pub(crate) fn run_tlr_fused(
    sigma: &mut TlrMatrix,
    a: &[f64],
    b: &[f64],
    cfg: &MvnConfig,
    pool: &WorkerPool,
) -> Result<MvnResult, TlrCholeskyError> {
    let n = sigma.n();
    // Same boundary validation as the staged paths: malformed limits get the
    // typed `ProblemError` message here, never a panic deep in the sweep.
    if let Err(e) = crate::engine::validate_limits(a, b) {
        panic!("invalid MVN problem: {e}");
    }
    assert_eq!(
        a.len(),
        n,
        "limit length must match the factor dimension {n}"
    );
    assert!(cfg.sample_size > 0, "sample size must be positive");
    assert!(cfg.panel_width > 0, "panel width must be positive");

    let layout = sigma.layout();
    let tol = sigma.tol();
    let max_rank = sigma.max_rank();
    let mut registry = HandleRegistry::new();
    let (handles, mut diag_store, mut off_store) = detach_tlr_tiles(sigma, &mut registry);
    let status = FactorStatus::new();
    let points = make_point_set(cfg.sample_kind, n, cfg.seed);

    let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
    let mut panel_store: TileStore<PanelState> = TileStore::new();
    let panel_handles: Vec<DataHandle> = (0..n_panels)
        .map(|p| {
            let h = registry.register(format!("panel{p}"));
            panel_store.insert(h, PanelState::empty());
            h
        })
        .collect();

    let factor = StoredFactor {
        layout,
        handles: &handles,
        stores: Stores::Tlr {
            diag: &diag_store,
            off: &off_store,
        },
    };
    pool.execute(|sink| {
        submit_tlr_factor_tasks(
            sink,
            &diag_store,
            &off_store,
            &handles,
            layout,
            tol,
            max_rank,
            &status,
        );
        submit_sweep_tasks(
            sink,
            &factor,
            &panel_store,
            &panel_handles,
            &status,
            a,
            b,
            points.as_ref(),
            cfg,
        );
    });
    attach_tlr_tiles(sigma, &handles, &mut diag_store, &mut off_store);
    if let Some(pivot) = status.pivot() {
        return Err(TlrCholeskyError::NotPositiveDefinite { pivot });
    }
    let panel_results: Vec<(f64, usize)> = panel_handles
        .iter()
        .map(|&h| panel_store.take(h).result())
        .collect();
    Ok(combine_panel_results(&panel_results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmvn::sweep_sequential;
    use tlr::CompressionTol;

    fn exp_cov(range: f64) -> impl Fn(usize, usize) -> f64 + Sync + Copy {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 40.0;
            (-d / range).exp()
        }
    }

    #[test]
    fn fused_tlr_matches_staged_bitwise_for_every_pool() {
        let n = 100;
        let f = exp_cov(0.8);
        let a = vec![-0.2; n];
        let b = vec![f64::INFINITY; n];
        let cfg = MvnConfig {
            sample_size: 1500,
            seed: 5,
            ..Default::default()
        };
        let make = || TlrMatrix::from_fn(n, 25, CompressionTol::Absolute(1e-8), usize::MAX, f);
        let mut l = make();
        tlr::potrf_tlr(&mut l, &WorkerPool::new(1)).unwrap();
        let want = sweep_sequential(&l, &a, &b, &cfg);
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut sigma = make();
            let got = run_tlr_fused(&mut sigma, &a, &b, &cfg, &pool).unwrap();
            assert!(
                got.prob.to_bits() == want.prob.to_bits(),
                "workers={workers}: {} vs {}",
                got.prob,
                want.prob
            );
        }
    }

    #[test]
    fn fused_pipeline_rejects_indefinite_covariance() {
        let n = 20;
        let a = vec![-1.0; n];
        let b = vec![1.0; n];
        for pool in [WorkerPool::new(1), WorkerPool::new(2)] {
            let mut sigma = SymTileMatrix::from_fn(n, 6, |i, j| if i == j { 1.0 } else { 0.0 });
            sigma.set(13, 13, -1.0);
            let err = run_dense_fused(&mut sigma, &a, &b, &MvnConfig::with_samples(500), &pool)
                .unwrap_err();
            assert_eq!(err, CholeskyError::NotPositiveDefinite(13));
        }
    }
}
