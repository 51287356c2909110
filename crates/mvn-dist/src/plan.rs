//! Ownership of the distributed factorization: which rank executes which
//! steps of the one tiled-Cholesky plan, which tiles it holds and which
//! sweep panels it runs.
//!
//! Tile ownership is the 2-D block-cyclic map of a [`ProcessGrid`].
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

use tile_la::dag::{cholesky_plan, Step};
use tile_la::TileLayout;

pub use tile_la::dag::TileId;

/// The 2-D process grid of the block-cyclic tile distribution: the most
/// square factorization `pr × pc = nodes` with `pr ≤ pc`.
///
/// This is the *single* definition of tile ownership: the coordinator
/// scatters, the workers execute and serve, and the plan slices
/// ([`rank_slice`], [`owned_tiles`]) by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGrid {
    pr: usize,
    pc: usize,
}

impl ProcessGrid {
    /// The most square factorization of `nodes` (e.g. 16 → 4×4, 8 → 2×4,
    /// a prime p → 1×p).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "process grid needs at least one node");
        let mut pr = (nodes as f64).sqrt().floor() as usize;
        while pr > 1 && !nodes.is_multiple_of(pr) {
            pr -= 1;
        }
        let pr = pr.max(1);
        Self { pr, pc: nodes / pr }
    }

    /// Total node count `pr · pc`.
    pub fn nodes(&self) -> usize {
        self.pr * self.pc
    }

    /// The `(pr, pc)` grid dimensions.
    pub fn dims(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// Owner node of tile `(i, j)` under the 2-D block-cyclic distribution.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.pr) * self.pc + (j % self.pc)
    }
}

/// The sweep-panel indices node `rank` owns: `p % nodes == rank`.
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
    fn process_grid_is_a_factorization_and_square_when_possible() {
        for nodes in [1, 4, 16, 64, 128, 256, 512, 6, 12] {
            let grid = ProcessGrid::new(nodes);
            let (pr, pc) = grid.dims();
            assert_eq!(pr * pc, nodes, "nodes={nodes}");
            assert_eq!(grid.nodes(), nodes);
            assert!(pr <= pc);
        }
        assert_eq!(ProcessGrid::new(8).dims(), (2, 4));
        assert_eq!(ProcessGrid::new(16).dims(), (4, 4));
        assert_eq!(ProcessGrid::new(512).dims(), (16, 32));
        // The owner map itself: row block (i mod pr), column (j mod pc).
        assert_eq!(ProcessGrid::new(4).owner(3, 2), 2);
        assert_eq!(ProcessGrid::new(8).owner(5, 3), 7);
        assert_eq!(ProcessGrid::new(8).owner(6, 5), 1);
    }

    #[test]
    fn tile_owner_covers_all_nodes_cyclically() {
        let grid = ProcessGrid::new(8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 {
            for j in 0..8 {
                let o = grid.owner(i, j);
                assert!(o < 8);
                seen.insert(o);
            }
        }
        assert_eq!(seen.len(), 8, "every node owns at least one tile");
    }

    /// Exhaustive property check over non-square grids (pr ≠ pc) and prime
    /// node counts (1 × p grids): ownership is *total* (every lower tile has
    /// exactly one owner, in range, stable across calls) and *covering*
    /// (every node owns at least one lower tile whenever the tile rows are
    /// at least the node count).
    #[test]
    fn tile_owner_is_total_stable_and_covering_on_awkward_grids() {
        for nodes in 1..=24usize {
            let grid = ProcessGrid::new(nodes);
            let (pr, pc) = grid.dims();
            assert_eq!(pr * pc, nodes, "grid must factor the node count");
            assert!(pr <= pc, "grid must be row-short (pr <= pc)");
            for nt in nodes..nodes + 4 {
                let mut owned = vec![0usize; nodes];
                for i in 0..nt {
                    for j in 0..=i {
                        let o = grid.owner(i, j);
                        assert!(o < nodes, "owner out of range");
                        assert_eq!(o, grid.owner(i, j), "ownership must be stable");
                        owned[o] += 1;
                    }
                }
                // Coverage: with nt >= nodes every node (a, b) owns at least
                // the tile (i, b) with i the smallest index >= b congruent to
                // a mod pr — and i <= pr + pc - 2 <= nodes - 1 < nt.
                for (node, &count) in owned.iter().enumerate() {
                    assert!(
                        count > 0,
                        "nodes={nodes} nt={nt}: node {node} owns no lower tile"
                    );
                }
            }
        }
    }

    #[test]
    fn prime_node_counts_degenerate_to_row_grids() {
        for p in [2usize, 3, 5, 7, 11, 13, 17, 19, 23] {
            assert_eq!(ProcessGrid::new(p).dims(), (1, p));
            // A 1 × p grid owns by column: tile (i, j) belongs to j mod p.
            let g = ProcessGrid::new(p);
            for i in 0..3 * p {
                for j in 0..=i {
                    assert_eq!(g.owner(i, j), j % p);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_nodes_panics() {
        ProcessGrid::new(0);
    }

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
