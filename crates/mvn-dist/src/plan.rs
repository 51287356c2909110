//! The distributed factorization plan: the right-looking tiled Cholesky as an
//! explicit, globally ordered task list.
//!
//! [`factor_plan`] enumerates exactly the task sequence
//! `tile_la::dag::submit_factor_tasks` and `tlr::dag::submit_tlr_factor_tasks`
//! submit (the loop structure is shared by the dense and TLR factorizations —
//! only the kernels differ, and the worker picks those by factor kind). Every
//! worker walks the *same* global list and submits the tasks whose output
//! tile it owns into its local streaming session; because all writers of a
//! tile share the tile's owner, the per-tile kernel order — and therefore
//! every bit of the factor — is preserved.
//!
//! The plan also records which task *finalizes* each tile: `potrf` finalizes
//! the diagonal tile of its panel and `trsm` finalizes an off-diagonal tile.
//! Trailing `syrk`/`gemm` updates only produce intermediate versions, and
//! those are both produced and consumed by the owner — so a tile is served
//! to peers exactly once it is final, and every *remote* read in the plan is
//! of a final tile. That is the whole distributed-consistency protocol.

use distsim::ProcessGrid;
use tile_la::TileLayout;

/// A lower tile `(i, j)`, `j ≤ i`, of the factor.
pub type TileId = (usize, usize);

/// The kernel a task applies (dense names; the TLR factorization runs the
/// compressed counterpart of each — see `worker`).
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

/// One task of the global plan: a kernel applied to a fixed output tile,
/// reading fixed input tiles.
#[derive(Debug, Clone)]
pub struct TaskStep {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// The read-write output tile; its owner executes the task.
    pub out: TileId,
    /// Read-only input tiles (all of them final when the task runs).
    pub reads: Vec<TileId>,
    /// Whether this task produces the output tile's final version (after
    /// which it may be served to peers).
    pub finalizes: bool,
    /// Abstract cost, same convention as the single-process task specs.
    pub cost: f64,
}

/// The complete factorization plan for `layout`, in the exact submission
/// order of the single-process DAG.
pub fn factor_plan(layout: TileLayout) -> Vec<TaskStep> {
    let nt = layout.num_tiles();
    let mut plan = Vec::new();
    for k in 0..nt {
        let nbk = layout.tile_size(k) as f64;
        plan.push(TaskStep {
            kernel: Kernel::Potrf,
            out: (k, k),
            reads: Vec::new(),
            finalizes: true,
            cost: nbk * nbk * nbk / 3.0,
        });
        for i in (k + 1)..nt {
            let nbi = layout.tile_size(i) as f64;
            plan.push(TaskStep {
                kernel: Kernel::Trsm,
                out: (i, k),
                reads: vec![(k, k)],
                finalizes: true,
                cost: nbi * nbk * nbk,
            });
        }
        for i in (k + 1)..nt {
            let nbi = layout.tile_size(i) as f64;
            for j in (k + 1)..=i {
                let nbj = layout.tile_size(j) as f64;
                if i == j {
                    plan.push(TaskStep {
                        kernel: Kernel::Syrk,
                        out: (i, i),
                        reads: vec![(i, k)],
                        finalizes: false,
                        cost: nbi * nbi * nbk,
                    });
                } else {
                    plan.push(TaskStep {
                        kernel: Kernel::Gemm,
                        out: (i, j),
                        reads: vec![(i, k), (j, k)],
                        finalizes: false,
                        cost: 2.0 * nbi * nbj * nbk,
                    });
                }
            }
        }
    }
    plan
}

/// The sweep-panel indices node `rank` owns: `p % nodes == rank`, the same
/// round-robin assignment `distsim::taskgen` prices.
pub fn owned_panels(rank: usize, nodes: usize, n_panels: usize) -> Vec<usize> {
    (0..n_panels).filter(|p| p % nodes == rank).collect()
}

/// The sub-sequence of `plan` originally owned by `rank` under `grid`, in
/// plan order — exactly the slice a recovery executor must replay when it
/// re-owns a lost rank's tiles. Replaying this slice from the rank's initial
/// tiles reproduces every one of its final tiles bit for bit: each task is a
/// pure function of its (final, plan-earlier) inputs, and the slice preserves
/// the per-tile kernel order of the single-process DAG.
pub fn rank_slice<'a>(plan: &'a [TaskStep], grid: &ProcessGrid, rank: usize) -> Vec<&'a TaskStep> {
    plan.iter()
        .filter(|t| grid.owner(t.out.0, t.out.1) == rank)
        .collect()
}

/// All lower tiles of `layout` owned by `rank` under `grid`.
pub fn owned_tiles(grid: &ProcessGrid, layout: TileLayout, rank: usize) -> Vec<TileId> {
    let nt = layout.num_tiles();
    let mut tiles = Vec::new();
    for i in 0..nt {
        for j in 0..=i {
            if grid.owner(i, j) == rank {
                tiles.push((i, j));
            }
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_the_dag_kernel_counts_and_order() {
        // 4 tile rows: 4 potrf + 6 trsm + 6 syrk + 4 gemm = 20 tasks, the
        // same counts the single-process task set submits.
        let layout = TileLayout::new(64, 16);
        let plan = factor_plan(layout);
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
    }

    #[test]
    fn every_tile_is_finalized_exactly_once() {
        let layout = TileLayout::new(100, 24);
        let plan = factor_plan(layout);
        let nt = layout.num_tiles();
        for i in 0..nt {
            for j in 0..=i {
                let n = plan
                    .iter()
                    .filter(|t| t.finalizes && t.out == (i, j))
                    .count();
                assert_eq!(n, 1, "tile ({i},{j}) must be finalized exactly once");
            }
        }
    }

    #[test]
    fn remote_reads_are_always_of_final_tiles() {
        // The consistency protocol: by the time a task runs, each of its
        // read tiles must already have been finalized by an earlier task.
        let layout = TileLayout::new(120, 20);
        let plan = factor_plan(layout);
        let mut finalized = std::collections::HashSet::new();
        for step in &plan {
            for r in &step.reads {
                assert!(
                    finalized.contains(r),
                    "{:?} reads non-final tile {r:?}",
                    step.kernel
                );
            }
            if step.finalizes {
                finalized.insert(step.out);
            }
        }
    }

    #[test]
    fn rank_slices_partition_the_plan_in_order() {
        let layout = TileLayout::new(160, 20);
        let plan = factor_plan(layout);
        for nodes in [2usize, 3, 4] {
            let grid = ProcessGrid::new(nodes);
            let total: usize = (0..nodes).map(|r| rank_slice(&plan, &grid, r).len()).sum();
            assert_eq!(total, plan.len(), "slices must partition the plan");
            for r in 0..nodes {
                let slice = rank_slice(&plan, &grid, r);
                // Order preserved: the slice is a subsequence of the plan.
                let mut cursor = 0;
                for step in &slice {
                    let pos = plan[cursor..]
                        .iter()
                        .position(|p| std::ptr::eq(p, *step))
                        .expect("slice step must come from the plan, in order");
                    cursor += pos + 1;
                }
                // Every slice task's output is owned by r — the re-own
                // invariant a recovery executor relies on.
                assert!(slice.iter().all(|t| grid.owner(t.out.0, t.out.1) == r));
            }
        }
    }

    #[test]
    fn owner_computes_covers_the_plan_and_panels() {
        let layout = TileLayout::new(160, 20);
        let plan = factor_plan(layout);
        for nodes in [1usize, 2, 3, 4, 8] {
            let grid = ProcessGrid::new(nodes);
            let by_rank: Vec<usize> = (0..nodes)
                .map(|r| {
                    plan.iter()
                        .filter(|t| grid.owner(t.out.0, t.out.1) == r)
                        .count()
                })
                .collect();
            assert_eq!(by_rank.iter().sum::<usize>(), plan.len());
            let mut all: Vec<usize> = (0..nodes)
                .flat_map(|r| owned_panels(r, nodes, 17))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..17).collect::<Vec<_>>());
        }
    }
}
