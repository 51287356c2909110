//! The tiled Cholesky as a sequential-task-flow producer for the
//! `task-runtime` pool (the paper's StarPU programming model): the one task
//! order [`cholesky_plan`], the one dense step body [`dense_step`], and the
//! building blocks the tiled factor's factorization in `tlr` and the
//! `mvn-dist` worker compose.
//!
//! Every lower tile `(i, j)` becomes a [`DataHandle`]; the `POTRF`/`TRSM`/
//! `SYRK`/`GEMM` steps of the plan are submitted in order declaring how they
//! access those handles, and the runtime infers the dependency DAG. There is
//! no global barrier after a panel: the `TRSM`s of panel `k+1` start as soon
//! as *their* inputs are ready, while trailing updates of panel `k` are still
//! in flight.
//!
//! Every task applies a fixed kernel to fixed tiles in a fixed submission
//! order, so the factor is bitwise identical to the sequential factorization
//! for any worker count.

use crate::dense::DenseMatrix;
use crate::kernels::{gemm_nt, potrf_in_place, syrk_lower, trsm_right_lower_trans};
use crate::layout::TileLayout;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use task_runtime::{
    AccessMode, DataHandle, HandleRegistry, TaskSink, TaskSpec, TileRef, TileStore,
};

/// Failure modes of the tiled Cholesky factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not (numerically) positive definite; the payload is the
    /// global index of the failing pivot.
    NotPositiveDefinite(usize),
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Shared failure state of a factorization task graph.
///
/// When a `POTRF` task hits a non-positive pivot it records the global pivot
/// index here; every task checks the flag on entry and becomes a no-op once it
/// is set ("kill the chain"), so the graph drains quickly instead of operating
/// on garbage tiles. Because all tasks that could observe a failed pivot are
/// transitively ordered after the failing `POTRF`, at most one failure is ever
/// recorded and the reported pivot is deterministic. The submitter turns it
/// into [`CholeskyError::NotPositiveDefinite`].
#[derive(Debug, Default)]
pub struct FactorStatus {
    failed: AtomicBool,
    pivot: AtomicUsize,
}

impl FactorStatus {
    /// A fresh, non-failed status.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a failure at the given global pivot index (first failure wins).
    pub fn fail(&self, pivot: usize) {
        if !self.failed.swap(true, Ordering::SeqCst) {
            self.pivot.store(pivot, Ordering::SeqCst);
        }
    }

    /// `true` once any task has failed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// The failing global pivot index, if any.
    pub fn pivot(&self) -> Option<usize> {
        if self.is_failed() {
            Some(self.pivot.load(Ordering::SeqCst))
        } else {
            None
        }
    }
}

/// Register one data handle per lower tile `(i, j)` (`j ≤ i`) of a symmetric
/// tile matrix; `handles[i][j]` is the handle of tile `(i, j)`.
pub fn register_tile_handles(
    registry: &mut HandleRegistry,
    layout: TileLayout,
) -> Vec<Vec<DataHandle>> {
    let nt = layout.num_tiles();
    let mut handles: Vec<Vec<DataHandle>> = Vec::with_capacity(nt);
    for i in 0..nt {
        let mut row = Vec::with_capacity(i + 1);
        for j in 0..=i {
            row.push(registry.register(format!("L[{i},{j}]")));
        }
        handles.push(row);
    }
    handles
}

/// A lower tile `(i, j)`, `j ≤ i`, of a tiled factor.
pub type TileId = (usize, usize);

/// The kernel a [`Step`] applies. The names are the dense ones; the TLR
/// factorization runs the compressed counterpart of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Cholesky of the diagonal tile of panel `k`.
    Potrf,
    /// Triangular solve of tile `(i, k)` against the panel-`k` diagonal.
    Trsm,
    /// Symmetric rank-`k` update of a diagonal tile by `(i, k)`.
    Syrk,
    /// Trailing update of `(i, j)` by `(i, k)·(j, k)ᵀ`.
    Gemm,
}

/// One task of the tiled Cholesky: a kernel applied to a fixed read-write
/// output tile, reading fixed input tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// The read-write output tile.
    pub out: TileId,
    /// Read-only inputs; only the first [`Step::reads`]`().len()` are used.
    reads: [TileId; 2],
}

impl Step {
    /// The read-only input tiles, in declaration order.
    pub fn reads(&self) -> &[TileId] {
        let n = match self.kernel {
            Kernel::Potrf => 0,
            Kernel::Trsm | Kernel::Syrk => 1,
            Kernel::Gemm => 2,
        };
        &self.reads[..n]
    }

    /// Whether this step produces the output tile's final version: `potrf`
    /// finalizes a diagonal tile and `trsm` an off-diagonal one; trailing
    /// `syrk`/`gemm` updates only produce intermediate versions.
    pub fn finalizes(&self) -> bool {
        matches!(self.kernel, Kernel::Potrf | Kernel::Trsm)
    }

    /// The panel `k` this step belongs to.
    pub fn panel(&self) -> usize {
        match self.kernel {
            Kernel::Potrf => self.out.0,
            Kernel::Trsm => self.out.1,
            Kernel::Syrk | Kernel::Gemm => self.reads[0].1,
        }
    }

    /// The task label: the kernel's name, with the off-diagonal trailing
    /// update called `lr_gemm` when `low_rank_out`, i.e. when its output
    /// tile is low-rank at the start of the factorization.
    pub fn label(&self, low_rank_out: bool) -> &'static str {
        match self.kernel {
            Kernel::Potrf => "potrf",
            Kernel::Trsm => "trsm",
            Kernel::Syrk => "syrk",
            Kernel::Gemm if low_rank_out => "lr_gemm",
            Kernel::Gemm => "gemm",
        }
    }

    /// The task spec of this step over the lower-triangle handle grid
    /// `handles[i][j]`: the reads, then the read-write output, labelled by
    /// [`Step::label`] with the output tile's entry of `low_rank`, the
    /// per-tile format snapshot (`true` = low-rank) taken before the
    /// factorization starts. A tile that turns dense mid-factorization
    /// keeps its `lr_gemm` label.
    pub fn spec(&self, handles: &[Vec<DataHandle>], low_rank: &[Vec<bool>]) -> TaskSpec {
        let h = |(i, j): TileId| handles[i][j];
        let (i, j) = self.out;
        self.reads()
            .iter()
            .fold(TaskSpec::new(self.label(low_rank[i][j])), |spec, &r| {
                spec.access(h(r), AccessMode::Read)
            })
            .access(h(self.out), AccessMode::ReadWrite)
    }
}

/// The right-looking tiled Cholesky of an `nt × nt` tile matrix as a
/// globally ordered step sequence: for every panel `k`, `potrf` on the
/// diagonal tile, the `trsm` column below it, then the trailing `syrk`/`gemm`
/// updates row by row.
///
/// This is the one place the factorization's task order is written down. The
/// tiled factor's submitter, the `mvn-dist` worker (owned slice and recovery
/// replay) both walk it, so each tile's writers come
/// in the same order everywhere — the per-tile kernel order every bitwise
/// identity argument rests on.
pub fn cholesky_plan(nt: usize) -> impl Iterator<Item = Step> {
    let step = |kernel, out, reads| Step { kernel, out, reads };
    (0..nt).flat_map(move |k| {
        let potrf = std::iter::once(step(Kernel::Potrf, (k, k), [(k, k); 2]));
        let trsm = ((k + 1)..nt).map(move |i| step(Kernel::Trsm, (i, k), [(k, k); 2]));
        let updates = ((k + 1)..nt).flat_map(move |i| {
            ((k + 1)..=i).map(move |j| {
                if i == j {
                    step(Kernel::Syrk, (i, i), [(i, k); 2])
                } else {
                    step(Kernel::Gemm, (i, j), [(i, k), (j, k)])
                }
            })
        });
        potrf.chain(trsm).chain(updates)
    })
}

/// Apply one plan step to its dense output tile, given the step's read
/// tiles in [`Step::reads`] order: the one place a dense step's kernel call
/// is written. The dense arms of the tiled factor's step function in
/// `tlr::dag` call it, and the tiled factorization and the `mvn-dist` worker
/// run that. A `potrf` that meets a non-positive pivot returns the pivot's
/// global index.
pub fn dense_step<R: Deref<Target = DenseMatrix>>(
    step: Step,
    out: &mut DenseMatrix,
    reads: &[R],
    layout: TileLayout,
) -> Result<(), usize> {
    match (step.kernel, reads) {
        (Kernel::Potrf, []) => {
            potrf_in_place(out).map_err(|local| layout.tile_start(step.out.0) + local)?
        }
        (Kernel::Trsm, [lkk]) => trsm_right_lower_trans(lkk, out),
        (Kernel::Syrk, [a]) => syrk_lower(-1.0, a, 1.0, out),
        (Kernel::Gemm, [a, b]) => gemm_nt(-1.0, a, b, 1.0, out),
        (kernel, _) => panic!("{kernel:?} given {} read tiles", reads.len()),
    }
    Ok(())
}

/// Submit the steps of [`cholesky_plan`] over the tiles behind `handles`
/// into any [`TaskSink`] (normally the one
/// [`WorkerPool::execute`](task_runtime::WorkerPool::execute) hands out),
/// declaring per-tile read/write accesses. Each task runs `apply` on its
/// output tile and read tiles, and records a returned pivot in `status`;
/// `low_rank` is the per-tile format snapshot (indexed like `handles`,
/// `true` = low-rank) that [`Step::spec`] labels the trailing updates by.
///
/// The tiled factor's submitter in `tlr` is this loop with its step
/// function. The caller owns the [`TileStore`] and the [`FactorStatus`]; after
/// executing the tasks it must check [`FactorStatus::pivot`].
pub fn submit_steps<'a, T, S, F>(
    graph: &mut S,
    store: &'a TileStore<T>,
    handles: &[Vec<DataHandle>],
    layout: TileLayout,
    status: &'a FactorStatus,
    low_rank: &[Vec<bool>],
    apply: F,
) where
    T: Send + Sync + 'a,
    S: TaskSink<'a> + ?Sized,
    F: Fn(Step, &mut T, &[TileRef<'_, T>]) -> Result<(), usize> + Copy + Send + 'a,
{
    let h = |&(i, j): &TileId| handles[i][j];
    for step in cholesky_plan(layout.num_tiles()) {
        let (out, reads): (_, Vec<_>) = (h(&step.out), step.reads().iter().map(h).collect());
        graph.submit_task(
            step.spec(handles, low_rank),
            Box::new(move || {
                if status.is_failed() {
                    return;
                }
                let reads: Vec<_> = reads.into_iter().map(|h| store.read(h)).collect();
                if let Err(pivot) = apply(step, &mut store.write(out), &reads) {
                    status.fail(pivot);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use task_runtime::WorkerPool;

    #[test]
    fn factor_status_records_first_failure_only() {
        let s = FactorStatus::new();
        assert!(!s.is_failed());
        assert_eq!(s.pivot(), None);
        s.fail(7);
        s.fail(3);
        assert_eq!(s.pivot(), Some(7));
    }

    #[test]
    fn task_graph_has_expected_kernel_counts() {
        let spd = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 5.0).exp() + if i == j { 1e-3 } else { 0.0 }
        };
        let layout = TileLayout::new(64, 16);
        let handles = register_tile_handles(&mut HandleRegistry::new(), layout);
        let mut store = TileStore::new();
        for (i, row) in handles.iter().enumerate() {
            for (j, &h) in row.iter().enumerate() {
                store.insert(
                    h,
                    DenseMatrix::from_fn(16, 16, |p, q| spd(16 * i + p, 16 * j + q)),
                );
            }
        }
        let status = FactorStatus::new();
        let dense: Vec<Vec<bool>> = handles.iter().map(|row| vec![false; row.len()]).collect();
        let pool = WorkerPool::new(2);
        pool.execute(|sink| {
            submit_steps(
                sink,
                &store,
                &handles,
                layout,
                &status,
                &dense,
                |step, out, reads| dense_step(step, out, reads, layout),
            )
        });
        assert_eq!(status.pivot(), None);
        let stats = pool.stats();
        let count = |label| stats.label_timing(label).map_or(0, |(c, _)| c);
        let nt = 4;
        assert_eq!(count("potrf"), nt);
        assert_eq!(count("trsm"), nt * (nt - 1) / 2);
        assert_eq!(count("syrk"), nt * (nt - 1) / 2);
        assert_eq!(count("gemm"), 4); // sum over k of C(nt-k-1, 2)
        assert_eq!(count("lr_gemm"), 0);
        assert_eq!(stats.tasks_run, 20);
    }

    #[test]
    fn plan_has_the_dag_kernel_counts_and_order() {
        // 4 tile rows: 4 potrf + 6 trsm + 6 syrk + 4 gemm = 20 steps.
        let plan: Vec<Step> = cholesky_plan(4).collect();
        assert_eq!(plan.len(), 20);
        let count = |k: Kernel| plan.iter().filter(|t| t.kernel == k).count();
        assert_eq!(count(Kernel::Potrf), 4);
        assert_eq!(count(Kernel::Trsm), 6);
        assert_eq!(count(Kernel::Syrk), 6);
        assert_eq!(count(Kernel::Gemm), 4);
        assert_eq!(plan[0].kernel, Kernel::Potrf);
        assert_eq!(plan[0].out, (0, 0));
        // Panel 0: potrf(0,0), trsm(1..4,0), then the trailing updates.
        assert_eq!(plan[1].out, (1, 0));
        assert_eq!(plan[4].kernel, Kernel::Syrk);
        assert_eq!(plan[4].out, (1, 1));
        assert_eq!(plan[5].kernel, Kernel::Gemm);
        assert_eq!(
            (plan[5].out, plan[5].reads()),
            ((2, 1), &[(2, 0), (1, 0)][..])
        );
    }

    #[test]
    fn every_tile_is_finalized_exactly_once() {
        let nt = TileLayout::new(100, 24).num_tiles();
        let plan: Vec<Step> = cholesky_plan(nt).collect();
        for i in 0..nt {
            for j in 0..=i {
                let n = plan
                    .iter()
                    .filter(|t| t.finalizes() && t.out == (i, j))
                    .count();
                assert_eq!(n, 1, "tile ({i},{j}) must be finalized exactly once");
            }
        }
    }

    #[test]
    fn remote_reads_are_always_of_final_tiles() {
        // The distributed consistency protocol: by the time a step runs,
        // each of its read tiles has already been finalized by an earlier one.
        let nt = TileLayout::new(120, 20).num_tiles();
        let mut finalized = std::collections::HashSet::new();
        for step in cholesky_plan(nt) {
            for r in step.reads() {
                assert!(
                    finalized.contains(r),
                    "{:?} reads non-final tile {r:?}",
                    step.kernel
                );
            }
            if step.finalizes() {
                finalized.insert(step.out);
            }
        }
    }
}
