//! Symmetric matrix stored as its lower-triangular tiles.
//!
//! This mirrors the descriptor layout the paper uses for the covariance matrix
//! `Σ`: only tiles `(i, j)` with `i ≥ j` are held in memory (halving storage
//! for large `n`), and each tile is an independent [`DenseMatrix`] so tasks
//! can assemble them individually. The workspace assembles every tiled
//! matrix with `tlr::TlrMatrix::assemble`; this container remains for the
//! inputs of the old dense entry points (`MvnEngine::factor_dense`,
//! `mvn_dist::solve_dense`) that the `mvn_perf` benchmark still calls, and
//! for the marginal-order correlation of confidence-region detection. A
//! `tlr::TlrMatrix` takes its tiles over without copying.

use crate::dense::DenseMatrix;
use crate::layout::TileLayout;

/// A symmetric `n × n` matrix stored as lower-triangular tiles of size `nb`.
#[derive(Debug, Clone)]
pub struct SymTileMatrix {
    layout: TileLayout,
    /// Lower tiles in row-major triangular order: tile `(i, j)` (with `j ≤ i`)
    /// lives at index `i·(i+1)/2 + j`.
    tiles: Vec<DenseMatrix>,
}

impl SymTileMatrix {
    fn tri_index(i: usize, j: usize) -> usize {
        debug_assert!(j <= i);
        i * (i + 1) / 2 + j
    }

    /// Build from an element function `f(row, col)`; only the lower triangle is
    /// evaluated, and tiles are generated in parallel. Kept only for the
    /// `mvn_perf` benchmark: `tlr::TlrMatrix::assemble` with no compression
    /// builds the same tiles.
    ///
    /// `f` must be symmetric for the result to represent a symmetric matrix
    /// (only `row ≥ col` entries are ever requested).
    pub fn from_fn(n: usize, nb: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let layout = TileLayout::new(n, nb);
        let nt = layout.num_tiles();
        let coords: Vec<(usize, usize)> =
            (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
        let tiles = task_runtime::run_map_once("assemble_tile", &coords, |_, &(ti, tj)| {
            let ri = layout.tile_start(ti);
            let rj = layout.tile_start(tj);
            DenseMatrix::from_fn(layout.tile_size(ti), layout.tile_size(tj), |a, b| {
                f(ri + a, rj + b)
            })
        });
        Self { layout, tiles }
    }

    /// Assemble from lower tiles already built elsewhere, in the order
    /// [`from_fn`](Self::from_fn) produces them: row-major over the lower
    /// triangle, `(0,0), (1,0), (1,1), (2,0), …`. Panics on a wrong count or
    /// shape.
    pub fn from_tiles(n: usize, nb: usize, tiles: Vec<DenseMatrix>) -> Self {
        let layout = TileLayout::new(n, nb);
        let nt = layout.num_tiles();
        assert_eq!(tiles.len(), nt * (nt + 1) / 2, "from_tiles: tile count");
        for i in 0..nt {
            for j in 0..=i {
                let t = &tiles[Self::tri_index(i, j)];
                assert!(
                    t.nrows() == layout.tile_size(i) && t.ncols() == layout.tile_size(j),
                    "from_tiles: tile ({i},{j}) has the wrong shape"
                );
            }
        }
        Self { layout, tiles }
    }

    /// The lower tiles, moved out in [`from_tiles`](Self::from_tiles) order.
    pub fn into_tiles(self) -> Vec<DenseMatrix> {
        self.tiles
    }

    /// The tiling layout (shared by rows and columns).
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    /// Element assignment through the symmetric structure: writes the
    /// lower-triangle representative of `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let (ti, tj) = (self.layout.tile_of(i), self.layout.tile_of(j));
        let (oi, oj) = (self.layout.offset_in_tile(i), self.layout.offset_in_tile(j));
        self.tiles[Self::tri_index(ti, tj)].set(oi, oj, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(i: usize, j: usize) -> f64 {
        (-((i as f64 - j as f64).abs()) / 3.0).exp()
    }

    #[test]
    fn from_fn_is_bitwise_a_serial_tile_by_tile_build() {
        // nt = 1, 2 and 7 (ragged last tile); the last case is also assembled
        // from inside a task of another pool, which must not deadlock on the
        // nested throwaway pool.
        let check = |n: usize, nb: usize| {
            let a = SymTileMatrix::from_fn(n, nb, kernel);
            let layout = a.layout();
            let mut tiles = a.into_tiles().into_iter();
            for ti in 0..layout.num_tiles() {
                for tj in 0..=ti {
                    let (ri, rj) = (layout.tile_start(ti), layout.tile_start(tj));
                    let want =
                        DenseMatrix::from_fn(layout.tile_size(ti), layout.tile_size(tj), |p, q| {
                            kernel(ri + p, rj + q)
                        });
                    assert_eq!(tiles.next(), Some(want), "n={n} nb={nb} tile ({ti},{tj})");
                }
            }
            assert_eq!(tiles.next(), None);
            layout.num_tiles()
        };
        assert_eq!(check(13, 16), 1);
        assert_eq!(check(13, 7), 2);
        assert_eq!(check(27, 4), 7);
        let outer = task_runtime::WorkerPool::new(2);
        let nested = outer.map("outer", &[0u8; 4], |_, _| check(27, 4));
        assert_eq!(nested, vec![7; 4]);
    }

    #[test]
    fn set_updates_symmetric_pair() {
        // (1, 4) is an upper-triangle request: it writes (4, 1), which is
        // entry (0, 1) of lower tile (2, 0), at storage index 3.
        let mut a = SymTileMatrix::from_fn(6, 2, kernel);
        a.set(1, 4, 7.5);
        let tiles = a.into_tiles();
        assert_eq!(tiles[3].get(0, 1), 7.5);
        assert_eq!(tiles[3].get(1, 0), kernel(5, 0));
    }

    #[test]
    fn ragged_edge_tiles_have_correct_sizes() {
        let a = SymTileMatrix::from_fn(11, 4, kernel);
        assert_eq!(a.layout().num_tiles(), 3);
        let tiles = a.into_tiles();
        assert_eq!(tiles[5].nrows(), 3); // (2, 2)
        assert_eq!((tiles[3].nrows(), tiles[3].ncols()), (3, 4)); // (2, 0)
    }

    #[test]
    #[should_panic(expected = "from_tiles: tile (1,0) has the wrong shape")]
    fn from_tiles_rejects_a_wrong_shape() {
        let mut tiles = SymTileMatrix::from_fn(8, 4, kernel).into_tiles();
        tiles[1] = DenseMatrix::zeros(4, 3);
        let _ = SymTileMatrix::from_tiles(8, 4, tiles);
    }
}
