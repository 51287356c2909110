//! The tile format and the one step body of the tiled Cholesky of a
//! [`TlrMatrix`](crate::TlrMatrix).
//!
//! The matrix's [`Tile`]s — all dense for a dense factor, low-rank off the
//! diagonal for a TLR one — are factored by the steps of
//! [`cholesky_plan`](tile_la::dag::cholesky_plan), each running
//! [`tlr_step`]: in [`potrf_tlr`](crate::potrf_tlr)'s tasks and in the
//! `mvn-dist` worker, so the factor is bitwise identical for every worker
//! count and every process count, and to the sequential walk of the plan.

use crate::arithmetic::{lr_aa_t_update, lr_lr_t_update};
use crate::compress::CompressionTol;
use crate::lowrank::LowRankBlock;
use std::borrow::Cow;
use std::ops::Deref;
use tile_la::dag::{dense_step, Kernel, Step};
use tile_la::kernels::trsm_left_lower_notrans;
use tile_la::{DenseMatrix, TileLayout};

/// One tile of a factor: dense (diagonal tiles, and every tile of a dense
/// factor) or low-rank (off-diagonal tiles of a TLR factor).
#[derive(Debug, Clone)]
pub enum Tile {
    /// A dense tile.
    Dense(DenseMatrix),
    /// A compressed `U·Vᵀ` tile.
    LowRank(LowRankBlock),
}

impl Tile {
    /// The dense payload, panicking on a low-rank tile (used where the plan
    /// guarantees density, e.g. diagonal tiles).
    pub fn as_dense(&self) -> &DenseMatrix {
        match self {
            Tile::Dense(d) => d,
            Tile::LowRank(_) => panic!("expected a dense tile"),
        }
    }

    /// The tile as a dense matrix: borrowed, or expanded from `U·Vᵀ`.
    pub fn to_dense(&self) -> Cow<'_, DenseMatrix> {
        match self {
            Tile::Dense(d) => Cow::Borrowed(d),
            Tile::LowRank(b) => Cow::Owned(b.to_dense()),
        }
    }

    /// Number of stored doubles (for transfer and cache accounting).
    pub fn stored_elements(&self) -> usize {
        match self {
            Tile::Dense(d) => d.nrows() * d.ncols(),
            Tile::LowRank(b) => b.stored_elements(),
        }
    }
}

/// Apply one plan step to its output tile, given the step's read tiles in
/// [`Step::reads`] order: the one step body of every tile Cholesky in the
/// workspace. Steps on dense tiles only run [`dense_step`]; the compressed
/// arms solve only the `V` factor of a low-rank panel tile (`trsm`), update a
/// dense diagonal tile from a low-rank one (`syrk`, [`lr_aa_t_update`]) and
/// recompress a low-rank trailing update (`gemm`, [`lr_lr_t_update`]) under
/// `compression`, the `(tolerance, rank cap)` pair of a TLR factor (`None`
/// for a dense one). A `potrf` that meets a non-positive pivot returns the
/// pivot's global index.
pub fn tlr_step<R: Deref<Target = Tile>>(
    step: Step,
    out: &mut Tile,
    reads: &[R],
    layout: TileLayout,
    compression: Option<(CompressionTol, usize)>,
) -> Result<(), usize> {
    let reads: Vec<&Tile> = reads.iter().map(|r| &**r).collect();
    match (step.kernel, out, reads.as_slice()) {
        (Kernel::Trsm, Tile::LowRank(blk), [Tile::Dense(lkk)]) => {
            if blk.rank() > 0 {
                trsm_left_lower_notrans(lkk, &mut blk.v);
            }
        }
        (Kernel::Syrk, Tile::Dense(c), [Tile::LowRank(a_ik)]) => lr_aa_t_update(c, a_ik),
        (Kernel::Gemm, Tile::LowRank(c), [Tile::LowRank(a_ik), Tile::LowRank(a_jk)]) => {
            let (tol, max_rank) =
                compression.expect("a low-rank gemm needs compression parameters");
            *c = lr_lr_t_update(c, a_ik, a_jk, tol, max_rank);
        }
        (_, Tile::Dense(c), reads) => {
            let reads: Vec<&DenseMatrix> = reads.iter().map(|r| r.as_dense()).collect();
            dense_step(step, c, &reads, layout)?
        }
        (kernel, Tile::LowRank(_), _) => panic!("{kernel:?} on mixed tile formats"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::potrf_tlr;
    use crate::tlr_matrix::TlrMatrix;
    use std::collections::HashMap;
    use task_runtime::WorkerPool;
    use tile_la::dag::{cholesky_plan, TileId};
    use tile_la::{CholeskyError, SymTileMatrix};

    /// Walk the plan sequentially through [`tlr_step`], stopping at the
    /// first failed pivot as the submitters' "kill the chain" does.
    fn walk(
        tiles: &mut HashMap<TileId, Tile>,
        layout: TileLayout,
        compression: Option<(CompressionTol, usize)>,
    ) -> Result<(), usize> {
        for step in cholesky_plan(layout.num_tiles()) {
            let mut out = tiles.remove(&step.out).unwrap();
            let reads: Vec<&Tile> = step.reads().iter().map(|r| &tiles[r]).collect();
            let stepped = tlr_step(step, &mut out, &reads, layout, compression);
            tiles.insert(step.out, out);
            stepped?;
        }
        Ok(())
    }

    fn bits(d: &DenseMatrix) -> (usize, usize, Vec<u64>) {
        let data = d.data().iter().map(|x| x.to_bits()).collect();
        (d.nrows(), d.ncols(), data)
    }

    fn lower_ids(layout: TileLayout) -> impl Iterator<Item = TileId> {
        let nt = layout.num_tiles();
        (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j)))
    }

    #[test]
    fn the_shared_step_bodies_are_the_dense_and_tlr_factorizations() {
        // 50 = 3 × 16 + 2: the last tile is ragged.
        let (n, nb) = (50, 16);
        let spd = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 8.0;
            (-d).exp() + if i == j { 1e-6 } else { 0.0 }
        };
        // Indefinite at pivot 49, inside the ragged tile.
        let indefinite = |i: usize, j: usize| if i == 49 && j == 49 { -1.0 } else { spd(i, j) };
        let tol = CompressionTol::Absolute(1e-10);
        let pool = WorkerPool::new(2);

        for (f, pivot) in [
            (&spd as &(dyn Fn(usize, usize) -> f64 + Sync), None),
            (&indefinite, Some(49)),
        ] {
            // The dense factor (every tile dense, no compression), then the
            // TLR one.
            let dense = TlrMatrix::from(SymTileMatrix::from_fn(n, nb, f));
            for mut l in [dense, TlrMatrix::from_fn(n, nb, tol, usize::MAX, f)] {
                let (layout, compression) = (l.layout(), l.compression());
                let mut tiles: HashMap<TileId, Tile> = lower_ids(layout)
                    .map(|(i, j)| ((i, j), l.tile(i, j).clone()))
                    .collect();
                let walked = walk(&mut tiles, layout, compression);
                let factored = potrf_tlr(&mut l, &pool);
                assert_eq!(
                    factored,
                    pivot.map_or(Ok(()), |p| Err(CholeskyError::NotPositiveDefinite(p)))
                );
                assert_eq!(walked, pivot.map_or(Ok(()), Err));
                if pivot.is_some() {
                    continue;
                }
                for (i, j) in lower_ids(layout) {
                    match (&tiles[&(i, j)], l.tile(i, j)) {
                        (Tile::Dense(d), Tile::Dense(want)) => {
                            assert_eq!(bits(d), bits(want), "({i},{j})")
                        }
                        (Tile::LowRank(b), Tile::LowRank(want)) => {
                            assert_eq!(bits(&b.u), bits(&want.u), "U ({i},{j})");
                            assert_eq!(bits(&b.v), bits(&want.v), "V ({i},{j})");
                        }
                        _ => panic!("({i},{j}) changed format"),
                    }
                }
            }
        }
    }
}
