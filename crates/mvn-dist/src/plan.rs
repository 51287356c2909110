//! Ownership of the distributed factorization: which rank executes which
//! steps of the one tiled-Cholesky plan, which tiles it holds and which
//! sweep panels it runs.
//!
//! The task order itself is [`tile_la::dag::cholesky_plan`] — the same steps
//! the single-process dense and TLR submitters walk (the worker picks the
//! kernels by factor kind). Every worker walks the *same* global plan and
//! submits the steps whose output tile it owns ([`rank_slice`]) into its
//! local streaming session; because all writers of a tile share the tile's
//! owner, the per-tile kernel order — and therefore every bit of the factor —
//! is preserved.
//!
//! The plan also records which step *finalizes* each tile
//! ([`Step::finalizes`]): `potrf` finalizes the diagonal tile of its panel
//! and `trsm` an off-diagonal tile. Trailing `syrk`/`gemm` updates only
//! produce intermediate versions, and those are both produced and consumed by
//! the owner — so a tile is served to peers exactly once it is final, and
//! every *remote* read in the plan is of a final tile. That is the whole
//! distributed-consistency protocol.

use distsim::ProcessGrid;
use tile_la::dag::{cholesky_plan, Step};
use tile_la::TileLayout;

pub use tile_la::dag::TileId;

/// The sweep-panel indices node `rank` owns: `p % nodes == rank`, the same
/// round-robin assignment `distsim::taskgen` prices.
pub fn owned_panels(rank: usize, nodes: usize, n_panels: usize) -> Vec<usize> {
    (0..n_panels).filter(|p| p % nodes == rank).collect()
}

/// The steps of the `nt × nt` tile plan owned by `rank` under `grid`, in
/// plan order — the slice a worker executes, and the slice a respawned
/// incarnation of a lost rank replays. Running this slice from the rank's
/// initial tiles reproduces every one of its final tiles bit for bit: each
/// step is a pure function of its (final, plan-earlier) inputs, and the
/// slice preserves the per-tile kernel order of the single-process DAG.
pub fn rank_slice(nt: usize, grid: &ProcessGrid, rank: usize) -> impl Iterator<Item = Step> + '_ {
    cholesky_plan(nt).filter(move |t| grid.owner(t.out.0, t.out.1) == rank)
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
    fn rank_slices_partition_the_plan_in_order() {
        let nt = TileLayout::new(160, 20).num_tiles();
        let plan: Vec<Step> = cholesky_plan(nt).collect();
        for nodes in [2usize, 3, 4] {
            let grid = ProcessGrid::new(nodes);
            let total: usize = (0..nodes).map(|r| rank_slice(nt, &grid, r).count()).sum();
            assert_eq!(total, plan.len(), "slices must partition the plan");
            for r in 0..nodes {
                // Order preserved: the slice is a subsequence of the plan.
                let mut cursor = 0;
                for step in rank_slice(nt, &grid, r) {
                    let pos = plan[cursor..]
                        .iter()
                        .position(|p| *p == step)
                        .expect("slice step must come from the plan, in order");
                    cursor += pos + 1;
                    // Every slice step's output is owned by r.
                    assert_eq!(grid.owner(step.out.0, step.out.1), r);
                }
            }
        }
    }

    #[test]
    fn owner_computes_covers_the_plan_and_panels() {
        let layout = TileLayout::new(160, 20);
        let plan: Vec<Step> = cholesky_plan(layout.num_tiles()).collect();
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
            let tiles: usize = (0..nodes)
                .map(|r| owned_tiles(&grid, layout, r).len())
                .sum();
            assert_eq!(tiles, layout.num_tiles() * (layout.num_tiles() + 1) / 2);
            let mut all: Vec<usize> = (0..nodes)
                .flat_map(|r| owned_panels(r, nodes, 17))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..17).collect::<Vec<_>>());
        }
    }
}
