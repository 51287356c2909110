//! The tile format and the one step body of the tiled Cholesky of a
//! [`TlrMatrix`](crate::TlrMatrix).
//!
//! The matrix's [`Tile`]s — all dense for a dense factor; for a TLR one,
//! dense on the diagonal and, off it, low-rank wherever that pays — are
//! factored by the steps of
//! [`cholesky_plan`](tile_la::dag::cholesky_plan), each running
//! [`tlr_step`]: in [`potrf_tlr`](crate::potrf_tlr)'s tasks and in the
//! `mvn-dist` worker, so the factor is bitwise identical for every worker
//! count and every process count, and to the sequential walk of the plan.

use crate::arithmetic::{lr_aa_t_update, tile_gemm_update};
use crate::compress::CompressionTol;
use crate::lowrank::LowRankBlock;
use std::borrow::Cow;
use std::ops::Deref;
use tile_la::dag::{dense_step, Kernel, Step};
use tile_la::kernels::trsm_left_lower_notrans;
use tile_la::{DenseMatrix, TileLayout};

/// One tile of a factor: dense (diagonal tiles, every tile of a dense
/// factor, and each off-diagonal tile of a TLR factor whose rank would not
/// pay) or low-rank (the other off-diagonal tiles of a TLR factor).
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

    /// `true` for a compressed tile.
    pub fn is_low_rank(&self) -> bool {
        matches!(self, Tile::LowRank(_))
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
/// workspace. Steps on dense tiles only run [`dense_step`], whatever the
/// factor; the compressed arms solve only the `V` factor of a low-rank panel
/// tile (`trsm`), update a dense diagonal tile from a low-rank one (`syrk`,
/// [`lr_aa_t_update`]) and run a trailing update with any low-rank tile
/// among its three (`gemm`, [`tile_gemm_update`]) under `compression`, the
/// `(tolerance, rank cap)` pair of a TLR factor (`None` for a dense one).
/// A low-rank update whose result needs more than the tile's break-even
/// rank leaves the tile dense. A `potrf` that meets a non-positive pivot
/// returns the pivot's global index.
pub fn tlr_step<R: Deref<Target = Tile>>(
    step: Step,
    out: &mut Tile,
    reads: &[R],
    layout: TileLayout,
    compression: Option<(CompressionTol, usize)>,
) -> Result<(), usize> {
    let reads: Vec<&Tile> = reads.iter().map(|r| &**r).collect();
    match (step.kernel, out, reads.as_slice()) {
        (_, Tile::Dense(c), reads) if reads.iter().all(|r| matches!(r, Tile::Dense(_))) => {
            let reads: Vec<&DenseMatrix> = reads.iter().map(|r| r.as_dense()).collect();
            dense_step(step, c, &reads, layout)?
        }
        (Kernel::Trsm, Tile::LowRank(blk), [Tile::Dense(lkk)]) => {
            if blk.rank() > 0 {
                trsm_left_lower_notrans(lkk, &mut blk.v);
            }
        }
        (Kernel::Syrk, Tile::Dense(c), [Tile::LowRank(a_ik)]) => lr_aa_t_update(c, a_ik),
        (Kernel::Gemm, c, [a_ik, a_jk]) => {
            let (tol, max_rank) =
                compression.expect("a low-rank gemm needs compression parameters");
            tile_gemm_update(c, a_ik, a_jk, tol, max_rank);
        }
        // Every diagonal tile is dense, so no other combination is planned.
        (kernel, _, _) => unreachable!("{kernel:?} on a low-rank diagonal tile"),
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arithmetic::tests::{rand_lowrank, rand_matrix};
    use crate::cholesky::potrf_tlr;
    use crate::tlr_matrix::TlrMatrix;
    use std::collections::HashMap;
    use task_runtime::WorkerPool;
    use tile_la::dag::{cholesky_plan, TileId};
    use tile_la::CholeskyError;

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

    /// An SPD matrix on 5 tiles of 12 whose TLR factor at τ = 1e-8 mixes
    /// formats (the break-even rank of a 12 × 12 tile is 2): the identity
    /// times 4 plus smooth rank-one terms, each supported on one pair of
    /// tiles, so an off-diagonal tile has exactly the rank its pair's count
    /// gives it. Tiles (4,2) and (4,3) are dense from the start; (2,1) is
    /// rank 2 and its update from panel 0 adds rank 1, so its recompression
    /// goes dense during the factorization; (3,2) and (4,2), (4,3) then meet
    /// low-rank C with a dense read and dense C with reads of both formats.
    pub(crate) fn mixed_formats(i: usize, j: usize) -> f64 {
        const PAIRS: [((usize, usize), usize); 7] = [
            ((0, 1), 1),
            ((0, 2), 1),
            ((1, 2), 2),
            ((0, 3), 1),
            ((0, 4), 1),
            ((2, 4), 3),
            ((3, 4), 3),
        ];
        let (ti, tj) = (i / 12, j / 12);
        let mut a = if i == j { 4.0 } else { 0.0 };
        for (s, &((p, q), count)) in PAIRS.iter().enumerate() {
            let inside = |t: usize| t == p || t == q;
            if inside(ti) && inside(tj) {
                for k in 0..count {
                    let v = |x: usize| (x as f64 * 0.37 * (k + 1) as f64 + s as f64 * 1.3).cos();
                    a += v(i) * v(j);
                }
            }
        }
        a
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
        let mixed = TlrMatrix::assemble(
            60,
            12,
            Some((CompressionTol::Absolute(1e-8), usize::MAX)),
            mixed_formats,
        );
        let cases = [
            (TlrMatrix::assemble(n, nb, None, spd), None),
            (
                TlrMatrix::assemble(n, nb, Some((tol, usize::MAX)), spd),
                None,
            ),
            (TlrMatrix::assemble(n, nb, None, indefinite), Some(49)),
            (
                TlrMatrix::assemble(n, nb, Some((tol, usize::MAX)), indefinite),
                Some(49),
            ),
            (mixed, None),
        ];
        for (base, pivot) in cases {
            let (layout, compression) = (base.layout(), base.compression());
            let mut tiles: HashMap<TileId, Tile> = lower_ids(layout)
                .map(|(i, j)| ((i, j), base.tile(i, j).clone()))
                .collect();
            let walked = walk(&mut tiles, layout, compression);
            assert_eq!(walked, pivot.map_or(Ok(()), Err));
            for workers in [1, 2, 4] {
                let mut l = base.clone();
                let factored = potrf_tlr(&mut l, &WorkerPool::new(workers));
                assert_eq!(
                    factored,
                    pivot.map_or(Ok(()), |p| Err(CholeskyError::NotPositiveDefinite(p)))
                );
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
                        _ => panic!("({i},{j}) has another format at {workers} workers"),
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_labels_follow_the_initial_format_of_the_output_tile() {
        // On the mixed factor, a trailing update is `lr_gemm` exactly when
        // its output tile is low-rank at assembly — (2,1), which turns dense
        // mid-factorization, included — and `gemm` otherwise.
        let a = TlrMatrix::assemble(
            60,
            12,
            Some((CompressionTol::Absolute(1e-8), usize::MAX)),
            mixed_formats,
        );
        let gemm_steps = |low_rank: bool| {
            cholesky_plan(a.num_tiles())
                .filter(|s| s.kernel == Kernel::Gemm)
                .filter(|s| a.tile(s.out.0, s.out.1).is_low_rank() == low_rank)
                .count() as u64
        };
        let (dense, low_rank) = (gemm_steps(false), gemm_steps(true));
        assert!(
            dense > 0 && low_rank > 0,
            "{dense} dense, {low_rank} low-rank"
        );
        for workers in [1, 2] {
            let pool = WorkerPool::new(workers);
            potrf_tlr(&mut a.clone(), &pool).unwrap();
            let stats = pool.stats();
            let count = |label| stats.label_timing(label).map_or(0, |(c, _)| c);
            assert_eq!(count("gemm"), dense, "workers={workers}");
            assert_eq!(count("lr_gemm"), low_rank, "workers={workers}");
        }
    }

    #[test]
    fn the_mixed_factor_mixes_formats_and_switches_a_tile_to_dense() {
        let tol = CompressionTol::Absolute(1e-8);
        let a = TlrMatrix::assemble(60, 12, Some((tol, usize::MAX)), mixed_formats);
        let mut l = a.clone();
        potrf_tlr(&mut l, &WorkerPool::new(2)).unwrap();
        let dense = |m: &TlrMatrix, i, j| matches!(m.tile(i, j), Tile::Dense(_));
        // Dense from the start, and still dense.
        for (i, j) in [(4, 2), (4, 3)] {
            assert!(dense(&a, i, j) && dense(&l, i, j), "({i},{j})");
        }
        // Low-rank at assembly, dense in the factor.
        assert!(!dense(&a, 2, 1) && dense(&l, 2, 1));
        // Low-rank throughout.
        for (i, j) in [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)] {
            assert!(!dense(&a, i, j) && !dense(&l, i, j), "({i},{j})");
        }
        // And the factor is the matrix's: L·Lᵀ within τ-scale of A.
        let lower = l.to_dense_lower();
        let want = DenseMatrix::from_fn(60, 60, mixed_formats);
        assert!(tile_la::max_abs_diff(&lower.matmul_nt(&lower), &want) < 1e-7);
    }

    #[test]
    fn every_gemm_arm_matches_the_dense_step_within_tau() {
        // Step (2,1) ← (2,1) − (2,0)·(1,0)ᵀ on 40 × 40 tiles, whose
        // break-even rank is 7: each format combination against
        // `dense_step` on the expanded tiles, and the format it leaves.
        let layout = TileLayout::new(120, 40);
        let step = cholesky_plan(3).find(|s| s.kernel == Kernel::Gemm).unwrap();
        assert_eq!((step.out, step.reads()), ((2, 1), &[(2, 0), (1, 0)][..]));
        let tau = 1e-6;
        let compression = Some((CompressionTol::Absolute(tau), usize::MAX));
        let lr = |k: usize, seed: u64| Tile::LowRank(rand_lowrank(40, 40, k, seed));
        let dense = |seed: u64| Tile::Dense(rand_matrix(40, 40, seed));
        let cases = [
            // (C, A, B, the format C ends in: true = dense)
            ("dense C, LR/LR", dense(1), lr(3, 2), lr(4, 4), true),
            ("dense C, LR/dense", dense(1), lr(3, 2), dense(6), true),
            ("dense C, dense/LR", dense(1), dense(7), lr(4, 4), true),
            ("LR C, LR/LR", lr(2, 8), lr(3, 2), lr(4, 4), false),
            (
                "LR C, LR/LR past break-even",
                lr(5, 8),
                lr(3, 2),
                lr(4, 4),
                true,
            ),
            ("LR C, LR/dense", lr(2, 8), lr(3, 2), dense(6), false),
            ("LR C, dense/LR", lr(2, 8), dense(7), lr(4, 4), false),
            ("LR C, dense/dense", lr(2, 8), dense(7), dense(6), true),
        ];
        for (name, c, a, b, ends_dense) in cases {
            let mut want = c.to_dense().into_owned();
            let reads = [a.to_dense().into_owned(), b.to_dense().into_owned()];
            dense_step(step, &mut want, &[&reads[0], &reads[1]], layout).unwrap();
            let mut got = c;
            tlr_step(step, &mut got, &[&a, &b], layout, compression).unwrap();
            assert_eq!(matches!(got, Tile::Dense(_)), ends_dense, "{name}");
            let mut diff = got.to_dense().into_owned();
            diff.add_scaled(-1.0, &want);
            let err = diff.frobenius_norm();
            assert!(err <= tau, "{name}: ‖got − dense‖_F = {err}");
        }
    }

    #[test]
    fn trsm_and_syrk_on_dense_off_diagonal_tiles_are_the_dense_step() {
        // A dense off-diagonal tile of a TLR factor runs `dense_step`, bit
        // for bit.
        let layout = TileLayout::new(80, 40);
        let compression = Some((CompressionTol::Absolute(1e-6), usize::MAX));
        let mut plan = cholesky_plan(2);
        let (trsm, syrk) = (plan.nth(1).unwrap(), plan.next().unwrap());
        assert_eq!((trsm.kernel, syrk.kernel), (Kernel::Trsm, Kernel::Syrk));
        let lkk = DenseMatrix::from_fn(40, 40, |i, j| {
            if i == j {
                2.0
            } else if j < i {
                0.1
            } else {
                0.0
            }
        });
        let panel = rand_matrix(40, 40, 3);
        for (step, out, read) in [
            (trsm, panel.clone(), lkk),
            (syrk, rand_matrix(40, 40, 5), panel),
        ] {
            let mut want = out.clone();
            dense_step(step, &mut want, &[&read], layout).unwrap();
            let mut got = Tile::Dense(out);
            tlr_step(step, &mut got, &[&Tile::Dense(read)], layout, compression).unwrap();
            assert_eq!(bits(got.as_dense()), bits(&want), "{:?}", step.kernel);
        }
    }
}
