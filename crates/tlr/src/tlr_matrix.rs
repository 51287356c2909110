//! The one tiled factor: a symmetric matrix stored as its lower tiles, each
//! dense or low-rank. A dense factor is a tiled factor whose tiles are all
//! dense; a TLR factor keeps its diagonal tiles dense and stores each
//! strictly-lower one in the format that pays.

use crate::arithmetic::lr_gemm_panel;
use crate::compress::{compress_tile, CompressionTol};
use crate::dag::Tile;
use crate::lowrank::LowRankBlock;
use task_runtime::run_map_once;
use tile_la::kernels::{gemm_nn, trsm_left_lower_notrans};
use tile_la::{DenseMatrix, SymTileMatrix, TileLayout};

/// A symmetric `n × n` matrix stored as its lower tiles, each a [`Tile`].
///
/// Built by [`assemble`](Self::assemble) with a compression it is in Tile
/// Low-Rank (TLR) format: diagonal tiles are stored dense (they carry the
/// full energy of the matrix and are never admissible for compression);
/// a strictly-lower off-diagonal tile is stored as `U·Vᵀ` factors within
/// the requested tolerance, found by a pivoted QR that stops at `τ/√2`
/// followed by a Jacobi SVD of its small `k × nb` factor `R`, when that rank
/// is at most the tile's break-even rank, and dense otherwise (see
/// [`compress_tile`]). Built without one it is dense: every tile is dense. Both run the same
/// factorization ([`potrf_tlr`](crate::potrf_tlr)) and the same sweep.
#[derive(Debug, Clone)]
pub struct TlrMatrix {
    layout: TileLayout,
    /// The `(tolerance, rank cap)` of a TLR matrix; `None` for a dense one.
    compression: Option<(CompressionTol, usize)>,
    /// Lower tiles `(i, j)` with `j ≤ i` at index `i·(i+1)/2 + j`.
    tiles: Vec<Tile>,
}

impl From<SymTileMatrix> for TlrMatrix {
    /// The dense tiled matrix of `a`, its tiles moved without copying: what
    /// [`TlrMatrix::assemble`] with no compression builds from the same
    /// entries.
    fn from(a: SymTileMatrix) -> Self {
        Self {
            layout: a.layout(),
            compression: None,
            tiles: a.into_tiles().into_iter().map(Tile::Dense).collect(),
        }
    }
}

impl TlrMatrix {
    fn tri_index(i: usize, j: usize) -> usize {
        assert!(j <= i, "only lower tiles are stored (got ({i},{j}))");
        i * (i + 1) / 2 + j
    }

    /// Assemble a symmetric matrix from its element function `entry(row,
    /// col)`, one task per lower tile (only `row ≥ col` entries are
    /// requested). With `compression` `Some((tol, max_rank))` every
    /// off-diagonal tile is compressed where it is built, into the format
    /// that pays ([`compress_tile`]), and the result is a TLR matrix; with
    /// `None` every tile stays dense.
    /// Each tile is `entry` evaluated in the same order whatever the pool,
    /// so the result is bitwise a serial tile-by-tile build.
    pub fn assemble(
        n: usize,
        nb: usize,
        compression: Option<(CompressionTol, usize)>,
        entry: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Self {
        let layout = TileLayout::new(n, nb);
        let nt = layout.num_tiles();
        let coords: Vec<(usize, usize)> =
            (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
        let tiles = run_map_once("assemble_tile", &coords, |_, &(i, j)| {
            let (ri, rj) = (layout.tile_start(i), layout.tile_start(j));
            let dense = DenseMatrix::from_fn(layout.tile_size(i), layout.tile_size(j), |a, b| {
                entry(ri + a, rj + b)
            });
            match compression {
                Some((tol, max_rank)) if i != j => compress_tile(dense, tol, max_rank),
                _ => Tile::Dense(dense),
            }
        });
        Self {
            layout,
            compression,
            tiles,
        }
    }

    /// [`assemble`](Self::assemble) with compression. Kept only for the
    /// `mvn_perf` benchmark; it goes when the benchmark moves to `assemble`.
    pub fn from_fn(
        n: usize,
        nb: usize,
        tol: CompressionTol,
        max_rank: usize,
        f: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Self {
        Self::assemble(n, nb, Some((tol, max_rank)), f)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.layout.nb()
    }

    /// Number of tile rows/columns.
    pub fn num_tiles(&self) -> usize {
        self.layout.num_tiles()
    }

    /// The tiling layout.
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    /// The `(tolerance, rank cap)` this matrix was compressed with, or `None`
    /// for a dense one.
    pub fn compression(&self) -> Option<(CompressionTol, usize)> {
        self.compression
    }

    /// Borrow lower tile `(i, j)` (`j ≤ i`).
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[Self::tri_index(i, j)]
    }

    /// Borrow a diagonal tile (always dense).
    pub fn diag_tile(&self, i: usize) -> &DenseMatrix {
        self.tile(i, i).as_dense()
    }

    /// Borrow a strictly-lower low-rank tile (`j < i`); panics on a dense
    /// one.
    pub fn off_tile(&self, i: usize, j: usize) -> &LowRankBlock {
        assert!(j < i, "off_tile requires j < i (got ({i},{j}))");
        match self.tile(i, j) {
            Tile::LowRank(b) => b,
            Tile::Dense(_) => panic!("tile ({i},{j}) is dense"),
        }
    }

    /// Move every tile out (in storage order), for the factorization's tile
    /// store; `put_tiles` moves them back.
    pub(crate) fn take_tiles(&mut self) -> Vec<Tile> {
        std::mem::take(&mut self.tiles)
    }

    pub(crate) fn put_tiles(&mut self, tiles: Vec<Tile>) {
        self.tiles = tiles;
    }

    /// Element access through the symmetric/lower structure (any `(i, j)`).
    ///
    /// Low-rank elements require expanding a factor product row, so this is
    /// intended for tests and small reports, not inner loops.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let (oi, oj) = (self.layout.offset_in_tile(i), self.layout.offset_in_tile(j));
        match self.tile(self.layout.tile_of(i), self.layout.tile_of(j)) {
            Tile::Dense(d) => d.get(oi, oj),
            Tile::LowRank(b) => {
                // (U V^T)[oi, oj]
                let mut s = 0.0;
                for r in 0..b.rank() {
                    s += b.u.get(oi, r) * b.v.get(oj, r);
                }
                s
            }
        }
    }

    /// Expand only the lower triangle to a dense matrix (the natural view of a
    /// Cholesky factor).
    pub fn to_dense_lower(&self) -> DenseMatrix {
        let n = self.n();
        let mut out = DenseMatrix::zeros(n, n);
        for ti in 0..self.num_tiles() {
            let ri = self.layout.tile_start(ti);
            for tj in 0..=ti {
                let rj = self.layout.tile_start(tj);
                let t = self.tile(ti, tj).to_dense();
                for j in 0..t.ncols() {
                    // A diagonal tile contributes its lower part only.
                    let first = if ti == tj { j } else { 0 };
                    for i in first..t.nrows() {
                        out.set(ri + i, rj + j, t.get(i, j));
                    }
                }
            }
        }
        out
    }

    /// Expand to the full dense symmetric matrix (before factorization).
    pub fn to_dense_sym(&self) -> DenseMatrix {
        let n = self.n();
        DenseMatrix::from_fn(n, n, |i, j| self.get(i, j))
    }

    /// Total number of stored doubles (dense tiles plus low-rank factors):
    /// for a dense matrix, every element of the lower tiles.
    pub fn stored_elements(&self) -> usize {
        self.tiles.iter().map(Tile::stored_elements).sum()
    }

    /// Storage relative to an uncompressed lower-triangular tile layout
    /// (1.0 = no savings; smaller is better).
    pub fn compression_ratio(&self) -> f64 {
        let nt = self.num_tiles();
        let mut dense_elems = 0usize;
        for i in 0..nt {
            for j in 0..=i {
                dense_elems += self.layout.tile_size(i) * self.layout.tile_size(j);
            }
        }
        self.stored_elements() as f64 / dense_elems as f64
    }

    /// `acc ← acc + alpha · L_{i,j} · x` for one tile of the factor, dense or
    /// low-rank.
    fn tile_gemm(&self, alpha: f64, i: usize, j: usize, x: &DenseMatrix, acc: &mut DenseMatrix) {
        match self.tile(i, j) {
            Tile::Dense(d) => gemm_nn(alpha, d, x, 1.0, acc),
            Tile::LowRank(b) => lr_gemm_panel(alpha, b, x, 1.0, acc),
        }
    }

    /// Forward substitution `L·X = B` with this matrix holding a Cholesky
    /// factor; `B` (an `n × m` panel) is overwritten with the solution.
    pub fn solve_lower_panel(&self, b: &mut DenseMatrix) {
        assert_eq!(b.nrows(), self.n());
        let nt = self.num_tiles();
        for ti in 0..nt {
            let ri = self.layout.tile_start(ti);
            let rows_i = self.layout.tile_size(ti);
            let mut block_i = b.submatrix(ri, 0, rows_i, b.ncols());
            for tj in 0..ti {
                let rj = self.layout.tile_start(tj);
                let rows_j = self.layout.tile_size(tj);
                let block_j = b.submatrix(rj, 0, rows_j, b.ncols());
                self.tile_gemm(-1.0, ti, tj, &block_j, &mut block_i);
            }
            trsm_left_lower_notrans(self.diag_tile(ti), &mut block_i);
            b.copy_block_from(&block_i, 0, 0, ri, 0, rows_i, b.ncols());
        }
    }

    /// `Y = L·X` with this matrix holding a Cholesky factor (used to sample
    /// Gaussian fields from the factor). Row block `i` accumulates
    /// `L_{i,0}·X_0, …, L_{i,i}·X_i` in that order; the factor's diagonal
    /// tiles are lower triangular, so they need no masking.
    pub fn multiply_lower_panel(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.nrows(), self.n());
        let mut y = DenseMatrix::zeros(x.nrows(), x.ncols());
        for ti in 0..self.num_tiles() {
            let ri = self.layout.tile_start(ti);
            let rows_i = self.layout.tile_size(ti);
            let mut acc = DenseMatrix::zeros(rows_i, x.ncols());
            for tj in 0..=ti {
                let rj = self.layout.tile_start(tj);
                let xb = x.submatrix(rj, 0, self.layout.tile_size(tj), x.ncols());
                self.tile_gemm(1.0, ti, tj, &xb, &mut acc);
            }
            y.copy_block_from(&acc, 0, 0, ri, 0, rows_i, x.ncols());
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tile_la::max_abs_diff;

    fn kernel(i: usize, j: usize) -> f64 {
        let d = (i as f64 - j as f64).abs() / 30.0;
        (-d).exp()
    }

    /// `kernel` assembled at absolute tolerance `tol`, uncapped.
    fn compressed(n: usize, nb: usize, tol: f64) -> TlrMatrix {
        TlrMatrix::assemble(
            n,
            nb,
            Some((CompressionTol::Absolute(tol), usize::MAX)),
            kernel,
        )
    }

    #[test]
    fn construction_approximates_the_dense_matrix() {
        let n = 90;
        let tlr = compressed(n, 30, 1e-8);
        let dense = DenseMatrix::from_fn(n, n, kernel);
        assert!(max_abs_diff(&tlr.to_dense_sym(), &dense) < 1e-6);
    }

    #[test]
    fn from_fn_is_bitwise_a_serial_tile_by_tile_build() {
        // nt = 1, 2 and 7 (ragged last tile): exact diagonal tiles, and
        // off-diagonal tiles equal to compressing each tile serially. The
        // last case is also assembled from inside a task of another pool,
        // which must not deadlock on the nested throwaway pool.
        let tol = CompressionTol::Absolute(1e-2);
        let check = |n: usize, nb: usize| {
            let tlr = TlrMatrix::assemble(n, nb, Some((tol, usize::MAX)), kernel);
            let layout = tlr.layout();
            let tile = |i: usize, j: usize| {
                let (ri, rj) = (layout.tile_start(i), layout.tile_start(j));
                DenseMatrix::from_fn(layout.tile_size(i), layout.tile_size(j), |a, b| {
                    kernel(ri + a, rj + b)
                })
            };
            for i in 0..tlr.num_tiles() {
                assert_eq!(tlr.diag_tile(i), &tile(i, i), "n={n} nb={nb} diag {i}");
                for j in 0..i {
                    let same = match (tlr.tile(i, j), compress_tile(tile(i, j), tol, usize::MAX)) {
                        (Tile::LowRank(got), Tile::LowRank(want)) => {
                            got.u == want.u && got.v == want.v
                        }
                        (Tile::Dense(got), Tile::Dense(want)) => *got == want,
                        _ => false,
                    };
                    assert!(same, "n={n} nb={nb} ({i},{j})");
                }
            }
            tlr.num_tiles()
        };
        assert_eq!(check(20, 32), 1);
        assert_eq!(check(20, 12), 2);
        assert_eq!(check(61, 9), 7);
        let outer = task_runtime::WorkerPool::new(2);
        let nested = outer.map("outer", &[0u8; 3], |_, _| check(61, 9));
        assert_eq!(nested, vec![7; 3]);
    }

    #[test]
    fn looser_tolerance_stores_less() {
        let loose = compressed(120, 30, 1e-1);
        let tight = compressed(120, 30, 1e-9);
        assert!(loose.stored_elements() <= tight.stored_elements());
        assert!(loose.compression_ratio() <= 1.0);
    }

    #[test]
    fn element_access_matches_kernel_within_tolerance() {
        let tlr = compressed(50, 10, 1e-10);
        for &(i, j) in &[(0usize, 0usize), (3, 47), (25, 10), (49, 49), (12, 30)] {
            assert!((tlr.get(i, j) - kernel(i.max(j), i.min(j))).abs() < 1e-8);
        }
    }

    #[test]
    fn ragged_edge_dimensions() {
        let tlr = compressed(55, 16, 1e-6);
        assert_eq!(tlr.num_tiles(), 4);
        assert_eq!(tlr.diag_tile(3).nrows(), 7);
        assert_eq!(tlr.off_tile(3, 0).nrows(), 7);
        assert_eq!(tlr.off_tile(3, 0).ncols(), 16);
    }

    #[test]
    #[should_panic]
    fn off_tile_requires_strictly_lower() {
        let tlr = compressed(20, 10, 1e-3);
        let _ = tlr.off_tile(0, 0);
    }
}
