//! Synthetic Saudi-Arabia-like wind-speed dataset.
//!
//! The paper's real-data study uses a proprietary reanalysis dataset of hourly
//! wind speeds over Saudi Arabia (53,362 locations, 2013–2016), standardized
//! and fitted with a Matérn kernel before running confidence-region detection
//! with a 4 m/s threshold. We do not have that data, so this module generates a
//! synthetic stand-in that exercises the same pipeline:
//!
//! * locations on a jittered grid over the Saudi bounding box
//!   (34–56°E, 16–33°N),
//! * a smooth orographic mean surface with elevated winds along the western
//!   mountain ridge, the northern plateau and the eastern coast (the regions
//!   the paper's Fig. 2 highlights),
//! * Matérn-correlated fluctuations on top of the mean,
//! * values clipped at zero and reported in m/s.
//!
//! The detection pipeline (standardize → fit → detect) is identical to the
//! paper's; only the data source is synthetic.

use crate::covariance::{CovarianceKernel, MaternParams};
use crate::field::simulate_field;
use crate::geometry::{jittered_grid, Location};
use task_runtime::{effective_workers, WorkerPool};

/// Bounding box of the study region (lon_min, lon_max, lat_min, lat_max).
pub const SAUDI_BBOX: (f64, f64, f64, f64) = (34.0, 56.0, 16.0, 33.0);

/// A synthetic wind-speed snapshot.
#[derive(Debug, Clone)]
pub struct WindDataset {
    /// Locations in degrees (lon = x, lat = y).
    pub locations: Vec<Location>,
    /// Wind speed in m/s at each location.
    pub speed_ms: Vec<f64>,
    /// The same locations rescaled to the unit square (used for covariance
    /// fitting, matching the paper's normalized geometry).
    pub unit_locations: Vec<Location>,
}

impl WindDataset {
    /// Standardize the speeds to zero mean and unit variance; returns the
    /// standardized values together with `(mean, sd)` so thresholds in m/s can
    /// be mapped to the standardized scale (`u_std = (u − mean)/sd`).
    pub fn standardize(&self) -> (Vec<f64>, f64, f64) {
        let n = self.speed_ms.len() as f64;
        let mean = self.speed_ms.iter().sum::<f64>() / n;
        let var = self
            .speed_ms
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        let sd = var.sqrt().max(1e-12);
        (
            self.speed_ms.iter().map(|v| (v - mean) / sd).collect(),
            mean,
            sd,
        )
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }
}

/// Smooth orographic mean wind speed (m/s) at a location given in degrees.
///
/// Three elevated-wind structures echo the patterns visible in the paper's
/// Fig. 2a: the western (Hejaz/Asir) mountain ridge, the northern plateau and
/// the eastern Gulf coast.
pub fn orographic_mean(loc: &Location) -> f64 {
    let lon = loc.x;
    let lat = loc.y;
    let base = 3.0;
    // Western ridge: runs roughly north-south near 39-41E, strongest in the south-west.
    let ridge = 4.5 * (-((lon - 40.0) / 2.0).powi(2)).exp() * (0.4 + 0.6 * ((33.0 - lat) / 17.0));
    // Northern plateau: high winds above ~29N.
    let north = 3.0 * (-((lat - 31.5) / 2.5).powi(2)).exp();
    // Eastern coastal strip near 50-55E, mid latitudes.
    let east = 2.5 * (-((lon - 52.5) / 2.5).powi(2)).exp() * (-((lat - 26.0) / 4.0).powi(2)).exp();
    base + ridge + north + east
}

/// Generate a synthetic wind-speed dataset on a `side × side` jittered grid.
///
/// `fluct_params` controls the Matérn fluctuation field added on top of the
/// orographic mean (in standardized units, scaled by `fluct_scale_ms` m/s).
/// The fluctuation field is simulated once per dataset, on a pool of one
/// worker per core that is joined before this returns.
pub fn synthetic_wind_dataset(
    side: usize,
    seed: u64,
    fluct_params: MaternParams,
    fluct_scale_ms: f64,
) -> WindDataset {
    let (lon_min, lon_max, lat_min, lat_max) = SAUDI_BBOX;
    let unit_locations = jittered_grid(side, side, seed);
    let locations: Vec<Location> = unit_locations
        .iter()
        .map(|l| {
            Location::new(
                lon_min + l.x * (lon_max - lon_min),
                lat_min + l.y * (lat_max - lat_min),
            )
        })
        .collect();

    let fluct = simulate_field(
        &unit_locations,
        &CovarianceKernel::Matern(fluct_params),
        0.0,
        seed ^ 0x5EED_CAFE,
        &WorkerPool::new(effective_workers(0)),
    );

    let speed_ms: Vec<f64> = locations
        .iter()
        .zip(&fluct.values)
        .map(|(loc, &f)| (orographic_mean(loc) + fluct_scale_ms * f).max(0.0))
        .collect();

    WindDataset {
        locations,
        speed_ms,
        unit_locations,
    }
}

/// Default fluctuation parameters used by the examples and benches: a moderate
/// range so the field has visible spatial structure at grid scale.
pub fn default_fluctuation_params() -> MaternParams {
    MaternParams {
        sigma2: 1.0,
        range: 0.08,
        smoothness: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(side: usize) -> WindDataset {
        synthetic_wind_dataset(side, 11, default_fluctuation_params(), 1.2)
    }

    #[test]
    fn locations_are_inside_the_saudi_box_and_speeds_plausible() {
        let d = dataset(20);
        assert_eq!(d.len(), 400);
        assert!(!d.is_empty());
        let (lon_min, lon_max, lat_min, lat_max) = SAUDI_BBOX;
        for l in &d.locations {
            assert!(l.x >= lon_min && l.x <= lon_max);
            assert!(l.y >= lat_min && l.y <= lat_max);
        }
        for &v in &d.speed_ms {
            assert!((0.0..=20.0).contains(&v), "implausible wind speed {v}");
        }
        // Some region should exceed the paper's 4 m/s threshold, some should not.
        assert!(d.speed_ms.iter().any(|&v| v > 4.0));
        assert!(d.speed_ms.iter().any(|&v| v < 4.0));
    }

    #[test]
    fn western_ridge_is_windier_than_central_desert() {
        let ridge = orographic_mean(&Location::new(40.0, 21.0));
        let central = orographic_mean(&Location::new(46.0, 23.0));
        assert!(ridge > central + 1.0, "ridge {ridge} vs central {central}");
    }

    #[test]
    fn northern_plateau_is_windy() {
        let north = orographic_mean(&Location::new(44.0, 31.5));
        let central = orographic_mean(&Location::new(44.0, 24.0));
        assert!(north > central);
    }

    #[test]
    fn standardization_gives_zero_mean_unit_variance() {
        let d = dataset(15);
        let (std_vals, mean, sd) = d.standardize();
        assert!(mean > 0.0 && sd > 0.0);
        let m: f64 = std_vals.iter().sum::<f64>() / std_vals.len() as f64;
        let v: f64 =
            std_vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / std_vals.len() as f64;
        assert!(m.abs() < 1e-10);
        assert!((v - 1.0).abs() < 1e-10);
        // Threshold mapping consistency: u in m/s maps to (u - mean)/sd.
        let u = 4.0;
        let u_std = (u - mean) / sd;
        let count_ms = d.speed_ms.iter().filter(|&&x| x > u).count();
        let count_std = std_vals.iter().filter(|&&x| x > u_std).count();
        assert_eq!(count_ms, count_std);
    }

    #[test]
    fn generation_is_reproducible_per_seed() {
        let a = synthetic_wind_dataset(10, 3, default_fluctuation_params(), 1.0);
        let b = synthetic_wind_dataset(10, 3, default_fluctuation_params(), 1.0);
        let c = synthetic_wind_dataset(10, 4, default_fluctuation_params(), 1.0);
        assert_eq!(a.speed_ms, b.speed_ms);
        assert_ne!(a.speed_ms, c.speed_ms);
    }

    #[test]
    fn fluctuations_add_spatial_variability() {
        let smooth = synthetic_wind_dataset(12, 5, default_fluctuation_params(), 0.0);
        let noisy = synthetic_wind_dataset(12, 5, default_fluctuation_params(), 2.0);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&noisy.speed_ms) > var(&smooth.speed_ms));
    }
}
