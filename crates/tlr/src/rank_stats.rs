//! Per-tile rank statistics of a TLR matrix — the data behind the paper's
//! Figure 5 (rank heat-maps of a 19,600² covariance matrix under weak, medium
//! and strong correlation).

use crate::dag::Tile;
use crate::tlr_matrix::TlrMatrix;

/// The rank-bucket boundaries used by the paper's Figure 5 legend.
pub const RANK_BUCKETS: &[(usize, usize)] = &[
    (1, 5),
    (6, 10),
    (11, 20),
    (21, 50),
    (51, 100),
    (101, usize::MAX),
];

/// Ranks of every tile of a tiled matrix (dense tiles — every diagonal tile,
/// every tile of a dense matrix, and each off-diagonal tile of a TLR matrix
/// whose rank would not pay — count as full rank).
#[derive(Debug, Clone)]
pub struct RankStats {
    nt: usize,
    tile_size: usize,
    /// `ranks[i][j]` for `j ≤ i`.
    ranks: Vec<Vec<usize>>,
    /// Number of dense strictly-lower tiles.
    dense_off_diagonal: usize,
}

impl RankStats {
    /// Collect rank statistics from a tiled matrix.
    pub fn from_matrix(a: &TlrMatrix) -> Self {
        let nt = a.num_tiles();
        let ranks = (0..nt)
            .map(|i| {
                (0..=i)
                    .map(|j| match a.tile(i, j) {
                        Tile::LowRank(b) => b.rank(),
                        // A dense tile: its full size as its "rank".
                        Tile::Dense(d) => d.nrows().min(d.ncols()),
                    })
                    .collect()
            })
            .collect();
        let dense_off_diagonal = (0..nt)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .filter(|&(i, j)| matches!(a.tile(i, j), Tile::Dense(_)))
            .count();
        Self {
            nt,
            tile_size: a.nb(),
            ranks,
            dense_off_diagonal,
        }
    }

    /// Number of tile rows/columns.
    pub fn num_tiles(&self) -> usize {
        self.nt
    }

    /// Nominal tile size.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Rank of tile `(i, j)` (`j ≤ i`).
    pub fn rank(&self, i: usize, j: usize) -> usize {
        assert!(j <= i && i < self.nt);
        self.ranks[i][j]
    }

    /// All off-diagonal ranks as a flat vector.
    pub fn off_diagonal_ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for i in 1..self.nt {
            for j in 0..i {
                out.push(self.ranks[i][j]);
            }
        }
        out
    }

    /// Mean off-diagonal rank.
    pub fn mean_off_diagonal_rank(&self) -> f64 {
        let r = self.off_diagonal_ranks();
        if r.is_empty() {
            return 0.0;
        }
        r.iter().sum::<usize>() as f64 / r.len() as f64
    }

    /// Number of dense off-diagonal tiles.
    pub fn dense_off_diagonal_tiles(&self) -> usize {
        self.dense_off_diagonal
    }

    /// Fraction of the off-diagonal tiles stored dense (0 if there are none):
    /// 1 for a dense matrix; for a TLR one, the share whose rank passed the
    /// break-even rank, at assembly or during the factorization.
    pub fn dense_tile_frac(&self) -> f64 {
        let off = self.nt * self.nt.saturating_sub(1) / 2;
        if off == 0 {
            return 0.0;
        }
        self.dense_off_diagonal as f64 / off as f64
    }

    /// Histogram over the paper's Figure-5 buckets: returns, for each bucket,
    /// the number of off-diagonal tiles whose rank falls inside it (rank-0
    /// tiles are counted in the first bucket).
    pub fn bucket_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; RANK_BUCKETS.len()];
        for r in self.off_diagonal_ranks() {
            let r = r.max(1);
            for (b, &(lo, hi)) in RANK_BUCKETS.iter().enumerate() {
                if r >= lo && r <= hi {
                    hist[b] += 1;
                    break;
                }
            }
        }
        hist
    }

    /// Render the lower-triangular rank map as ASCII (one row of numbers per
    /// tile row), mirroring the paper's Figure 5 panels.
    pub fn to_ascii(&self) -> String {
        let mut s = String::new();
        for i in 0..self.nt {
            for j in 0..=i {
                s.push_str(&format!("{:>5}", self.ranks[i][j]));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressionTol;
    use crate::dag::tests::mixed_formats;
    use crate::potrf_tlr;

    fn build(range: f64, n: usize, nb: usize) -> TlrMatrix {
        // Squared-exponential kernel: its off-diagonal tile ranks genuinely
        // depend on the correlation range (unlike the 1-D exponential kernel,
        // whose separated tiles are exactly rank one).
        TlrMatrix::assemble(n, nb, Some(CompressionTol::Absolute(1e-3)), move |i, j| {
            let d = (i as f64 - j as f64).abs() / n as f64;
            (-0.5 * (d / range).powi(2)).exp()
        })
    }

    #[test]
    fn diagonal_reported_as_full_and_off_diagonal_small() {
        let a = build(0.1, 120, 30);
        let st = RankStats::from_matrix(&a);
        assert_eq!(st.num_tiles(), 4);
        for i in 0..4 {
            assert_eq!(st.rank(i, i), 30);
        }
        assert!(st.off_diagonal_ranks().iter().all(|&r| r < 30));
        assert!(st.mean_off_diagonal_rank() > 0.0);
    }

    fn build_2d(range: f64, side: usize, nb: usize) -> TlrMatrix {
        // Exponential kernel on a regular 2-D grid over the unit square — the
        // setting of the paper's Fig. 5 (only smaller).
        let n = side * side;
        TlrMatrix::assemble(n, nb, Some(CompressionTol::Absolute(1e-3)), move |i, j| {
            let (xi, yi) = ((i % side) as f64, (i / side) as f64);
            let (xj, yj) = ((j % side) as f64, (j / side) as f64);
            let d = (((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()) / (side - 1) as f64;
            (-d / range).exp()
        })
    }

    #[test]
    fn stronger_correlation_gives_lower_near_diagonal_ranks() {
        // Mirrors the paper's observation in Fig. 5: ranks degrade (shrink)
        // faster under stronger correlation; the effect is clearest on the
        // tiles adjacent to the diagonal, which dominate the factorization cost.
        let weak = RankStats::from_matrix(&build_2d(0.033, 16, 32));
        let strong = RankStats::from_matrix(&build_2d(0.234, 16, 32));
        let near_rank =
            |st: &RankStats| -> usize { (1..st.num_tiles()).map(|i| st.rank(i, i - 1)).sum() };
        let w = near_rank(&weak);
        let s = near_rank(&strong);
        assert!(
            s <= w,
            "strong near-diagonal ranks {s} should not exceed weak {w}"
        );
    }

    #[test]
    fn far_tiles_have_lower_rank_than_near_tiles() {
        let a = build(0.05, 200, 40);
        let st = RankStats::from_matrix(&a);
        let nt = st.num_tiles();
        // Tile adjacent to the diagonal vs the farthest corner tile.
        let near = st.rank(1, 0);
        let far = st.rank(nt - 1, 0);
        assert!(
            far <= near,
            "far rank {far} should not exceed near rank {near}"
        );
    }

    #[test]
    fn dense_tile_frac_counts_the_dense_off_diagonal_tiles() {
        // Every off-diagonal tile of a dense matrix, none of a smooth TLR
        // one, and the mixed matrix's 3 of 10 factor tiles.
        let f = |i: usize, j: usize| (-(i as f64 - j as f64).abs() / 30.0).exp();
        let dense = RankStats::from_matrix(&TlrMatrix::assemble(90, 30, None, f));
        assert_eq!(dense.dense_tile_frac(), 1.0);
        assert_eq!(dense.dense_off_diagonal_tiles(), 3);
        let tlr = RankStats::from_matrix(&build(0.1, 120, 30));
        assert_eq!(tlr.dense_tile_frac(), 0.0);
        let one = RankStats::from_matrix(&TlrMatrix::assemble(20, 30, None, f));
        assert_eq!(one.dense_tile_frac(), 0.0);

        let tol = CompressionTol::Absolute(1e-8);
        let mut l = TlrMatrix::assemble(60, 12, Some(tol), mixed_formats);
        potrf_tlr(&mut l, &task_runtime::WorkerPool::new(1)).unwrap();
        let mixed = RankStats::from_matrix(&l);
        assert_eq!(mixed.dense_off_diagonal_tiles(), 3);
        assert_eq!(mixed.dense_tile_frac(), 0.3);
    }

    #[test]
    fn histogram_counts_every_off_diagonal_tile_once() {
        let a = build(0.1, 150, 30);
        let st = RankStats::from_matrix(&a);
        let nt = st.num_tiles();
        let expected = nt * (nt - 1) / 2;
        assert_eq!(st.bucket_histogram().iter().sum::<usize>(), expected);
        assert_eq!(st.off_diagonal_ranks().len(), expected);
    }

    #[test]
    fn ascii_rendering_has_one_line_per_tile_row() {
        let a = build(0.1, 90, 30);
        let st = RankStats::from_matrix(&a);
        let text = st.to_ascii();
        assert_eq!(text.lines().count(), st.num_tiles());
    }
}
