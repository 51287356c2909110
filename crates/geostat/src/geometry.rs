//! Spatial locations and point-set generators.

use qmc::Xoshiro256pp;

/// A 2-D spatial location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// Horizontal coordinate (longitude-like).
    pub x: f64,
    /// Vertical coordinate (latitude-like).
    pub y: f64,
}

impl Location {
    /// Create a location.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another location.
    ///
    /// Bitwise symmetric: `a.distance(&b)` and `b.distance(&a)` have the same
    /// bits, because the coordinate differences differ only in sign and
    /// squaring drops it. Dense covariance assembly relies on this to mirror
    /// one evaluated triangle into the other.
    pub fn distance(&self, other: &Location) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A regular `nx × ny` grid over the unit square `[0,1]²`, in row-major order
/// (x varies fastest). This matches the "40K synthetic datasets generated in a
/// regular grid" of the paper's Fig. 1.
pub fn regular_grid(nx: usize, ny: usize) -> Vec<Location> {
    assert!(
        nx > 1 && ny > 1,
        "grid must have at least 2 points per side"
    );
    let mut locs = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            locs.push(Location::new(
                ix as f64 / (nx - 1) as f64,
                iy as f64 / (ny - 1) as f64,
            ));
        }
    }
    locs
}

/// A jittered grid: a regular grid perturbed by uniform noise of at most half a
/// cell in each coordinate. This is the "irregularly distributed spatial
/// locations" generator used by ExaGeoStat for synthetic experiments.
pub fn jittered_grid(nx: usize, ny: usize, seed: u64) -> Vec<Location> {
    assert!(nx > 1 && ny > 1);
    let mut rng = Xoshiro256pp::seed_from(seed);
    let dx = 1.0 / (nx - 1) as f64;
    let dy = 1.0 / (ny - 1) as f64;
    regular_grid(nx, ny)
        .into_iter()
        .map(|l| {
            let jx: f64 = (0.8 * rng.next_f64() - 0.4) * dx;
            let jy: f64 = (0.8 * rng.next_f64() - 0.4) * dy;
            Location::new((l.x + jx).clamp(0.0, 1.0), (l.y + jy).clamp(0.0, 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_grid_has_expected_corners_and_count() {
        let g = regular_grid(5, 4);
        assert_eq!(g.len(), 20);
        assert_eq!(g[0], Location::new(0.0, 0.0));
        assert_eq!(g[4], Location::new(1.0, 0.0));
        assert_eq!(g[19], Location::new(1.0, 1.0));
    }

    #[test]
    fn grid_spacing_is_uniform() {
        let g = regular_grid(11, 11);
        let d = g[0].distance(&g[1]);
        assert!((d - 0.1).abs() < 1e-12);
        let dv = g[0].distance(&g[11]);
        assert!((dv - 0.1).abs() < 1e-12);
    }

    #[test]
    fn jittered_grid_stays_in_unit_square_and_is_reproducible() {
        let a = jittered_grid(8, 8, 42);
        let b = jittered_grid(8, 8, 42);
        let c = jittered_grid(8, 8, 43);
        assert_eq!(a.len(), 64);
        assert!(a
            .iter()
            .all(|l| (0.0..=1.0).contains(&l.x) && (0.0..=1.0).contains(&l.y)));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p, q);
        }
        assert!(a.iter().zip(&c).any(|(p, q)| p != q));
    }

    #[test]
    fn jittered_points_are_distinct() {
        let a = jittered_grid(10, 10, 7);
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert!(a[i].distance(&a[j]) > 1e-6, "points {i} and {j} collide");
            }
        }
    }

    #[test]
    fn distance_is_symmetric_and_triangle_holds() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        let c = Location::new(1.0, 1.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-15);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) <= a.distance(&c) + c.distance(&b) + 1e-15);
    }

    #[test]
    #[should_panic]
    fn degenerate_grid_panics() {
        regular_grid(1, 5);
    }
}
