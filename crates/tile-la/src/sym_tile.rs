//! Symmetric matrix stored as its lower-triangular tiles.
//!
//! This mirrors the descriptor layout the paper uses for the covariance matrix
//! `Σ`: only tiles `(i, j)` with `i ≥ j` are held in memory (halving storage
//! for large `n`), and each tile is an independent [`DenseMatrix`] so tasks
//! can assemble them individually. It is the assembly container only: the
//! Cholesky factor is a `tlr::TlrMatrix`, which takes these tiles over
//! without copying.

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
    /// evaluated, and tiles are generated in parallel.
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

    /// Borrow tile `(i, j)` (requires `j ≤ i`).
    pub fn tile(&self, i: usize, j: usize) -> &DenseMatrix {
        assert!(
            j <= i,
            "SymTileMatrix stores only lower tiles (got ({i},{j}))"
        );
        &self.tiles[Self::tri_index(i, j)]
    }

    /// Mutably borrow tile `(i, j)` (requires `j ≤ i`).
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut DenseMatrix {
        assert!(
            j <= i,
            "SymTileMatrix stores only lower tiles (got ({i},{j}))"
        );
        &mut self.tiles[Self::tri_index(i, j)]
    }

    /// Element access through the symmetric structure (either triangle).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let ti = self.layout.tile_of(i);
        let tj = self.layout.tile_of(j);
        self.tile(ti, tj)
            .get(self.layout.offset_in_tile(i), self.layout.offset_in_tile(j))
    }

    /// Element assignment (writes the lower-triangle representative).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let ti = self.layout.tile_of(i);
        let tj = self.layout.tile_of(j);
        let oi = self.layout.offset_in_tile(i);
        let oj = self.layout.offset_in_tile(j);
        self.tile_mut(ti, tj).set(oi, oj, v);
    }

    /// Expand to a full dense symmetric matrix.
    pub fn to_dense_sym(&self) -> DenseMatrix {
        let n = self.n();
        DenseMatrix::from_fn(n, n, |i, j| self.get(i, j))
    }

    /// Total number of stored `f64` values (memory footprint measure).
    pub fn stored_elements(&self) -> usize {
        self.tiles.iter().map(|t| t.nrows() * t.ncols()).sum()
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
            for ti in 0..layout.num_tiles() {
                for tj in 0..=ti {
                    let (ri, rj) = (layout.tile_start(ti), layout.tile_start(tj));
                    let want =
                        DenseMatrix::from_fn(layout.tile_size(ti), layout.tile_size(tj), |p, q| {
                            kernel(ri + p, rj + q)
                        });
                    assert_eq!(a.tile(ti, tj), &want, "n={n} nb={nb} tile ({ti},{tj})");
                }
            }
            a.num_tiles()
        };
        assert_eq!(check(13, 16), 1);
        assert_eq!(check(13, 7), 2);
        assert_eq!(check(27, 4), 7);
        let outer = task_runtime::WorkerPool::new(2);
        let nested = outer.run_map("outer", &[0u8; 4], |_, _| 1.0, |_, _| check(27, 4));
        assert_eq!(nested, vec![7; 4]);
    }

    #[test]
    fn element_access_both_triangles() {
        let a = SymTileMatrix::from_fn(10, 3, kernel);
        for i in 0..10 {
            for j in 0..10 {
                assert!((a.get(i, j) - kernel(i.max(j), i.min(j))).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn set_updates_symmetric_pair() {
        let mut a = SymTileMatrix::from_fn(6, 2, kernel);
        a.set(1, 4, 7.5); // upper-triangle request maps to (4,1)
        assert_eq!(a.get(4, 1), 7.5);
        assert_eq!(a.get(1, 4), 7.5);
    }

    #[test]
    fn storage_is_roughly_half_of_dense() {
        let n = 64;
        let a = SymTileMatrix::from_fn(n, 8, kernel);
        let stored = a.stored_elements();
        assert!(stored < n * n);
        // Lower-triangular tile storage for an exact tiling: nt(nt+1)/2 * nb^2.
        assert_eq!(stored, 8 * 9 / 2 * 64);
    }

    #[test]
    fn ragged_edge_tiles_have_correct_sizes() {
        let a = SymTileMatrix::from_fn(11, 4, kernel);
        assert_eq!(a.num_tiles(), 3);
        assert_eq!(a.tile(2, 2).nrows(), 3);
        assert_eq!(a.tile(2, 0).nrows(), 3);
        assert_eq!(a.tile(2, 0).ncols(), 4);
    }

    #[test]
    #[should_panic]
    fn upper_tile_borrow_panics() {
        let a = SymTileMatrix::from_fn(8, 4, kernel);
        let _ = a.tile(0, 1);
    }
}
