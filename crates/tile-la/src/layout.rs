//! One-dimensional tiling of an index range into fixed-size blocks.
//!
//! The same layout object describes both dimensions of the square covariance
//! matrix and the row dimension of the `n × N` sample panels; the PMVN sample
//! dimension uses its own layout when tiled.

/// A partition of `0..n` into `ceil(n / nb)` consecutive blocks of size `nb`
/// (the final block may be smaller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    n: usize,
    nb: usize,
}

impl TileLayout {
    /// Create a layout for a dimension of size `n` with tile size `nb`.
    pub fn new(n: usize, nb: usize) -> Self {
        assert!(n > 0, "layout: dimension must be positive");
        assert!(nb > 0, "layout: tile size must be positive");
        Self { n, nb }
    }

    /// Total dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal tile size.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tiles.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// First global index covered by tile `t`.
    #[inline]
    pub fn tile_start(&self, t: usize) -> usize {
        debug_assert!(t < self.num_tiles());
        t * self.nb
    }

    /// Number of indices covered by tile `t` (equal to `nb` except possibly for
    /// the last tile).
    #[inline]
    pub fn tile_size(&self, t: usize) -> usize {
        debug_assert!(t < self.num_tiles());
        let start = self.tile_start(t);
        self.nb.min(self.n - start)
    }

    /// Tile index containing global index `i`.
    #[inline]
    pub fn tile_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        i / self.nb
    }

    /// Offset of global index `i` within its tile.
    #[inline]
    pub fn offset_in_tile(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        i % self.nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let l = TileLayout::new(12, 4);
        assert_eq!(l.num_tiles(), 3);
        for t in 0..3 {
            assert_eq!(l.tile_size(t), 4);
            assert_eq!(l.tile_start(t), 4 * t);
        }
    }

    #[test]
    fn ragged_last_tile() {
        let l = TileLayout::new(10, 4);
        assert_eq!(l.num_tiles(), 3);
        assert_eq!(l.tile_size(0), 4);
        assert_eq!(l.tile_size(2), 2);
        assert_eq!(l.tile_start(2), 8);
    }

    #[test]
    fn tile_size_larger_than_dimension() {
        let l = TileLayout::new(5, 100);
        assert_eq!(l.num_tiles(), 1);
        assert_eq!(l.tile_size(0), 5);
    }

    #[test]
    fn index_mapping_roundtrip() {
        let l = TileLayout::new(23, 7);
        for i in 0..23 {
            let t = l.tile_of(i);
            let o = l.offset_in_tile(i);
            assert_eq!(l.tile_start(t) + o, i);
            assert!(o < l.tile_size(t));
        }
    }

    #[test]
    fn ranges_cover_dimension_exactly_once() {
        let l = TileLayout::new(37, 8);
        let mut covered = [0u32; 37];
        for t in 0..l.num_tiles() {
            for i in l.tile_start(t)..l.tile_start(t) + l.tile_size(t) {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic]
    fn zero_tile_size_panics() {
        TileLayout::new(10, 0);
    }
}
