//! Wind-farm siting: find the regions whose daily-average wind speed exceeds
//! 4 m/s with 95% joint confidence — the paper's Saudi-Arabia case study
//! (Fig. 2) run on the synthetic wind dataset, with Fig. 3's dense-vs-TLR
//! confidence-function difference.
//!
//! ```bash
//! cargo run --release --example wind_farm_siting
//! ```

use excursion::{correlation_factor, detect_confidence_regions, excursion_set, CrdConfig};
use geostat::{default_fluctuation_params, fit_matern, synthetic_wind_dataset, MaternParams};
use mvn_core::{MvnConfig, MvnEngine};
use tlr::CompressionTol;

fn main() {
    // 1. A synthetic Saudi-like wind-speed snapshot (see geostat::wind for the
    //    data substitution note).
    let wind = synthetic_wind_dataset(22, 2015, default_fluctuation_params(), 1.3);
    let n = wind.len();
    let above_threshold = wind.speed_ms.iter().filter(|&&v| v > 4.0).count();
    println!("{n} locations; {above_threshold} have raw wind speed above 4 m/s");

    // 2. Standardize and fit Matérn parameters by maximum likelihood
    //    (ExaGeoStat's role in the paper). The engine is created first so its
    //    persistent worker pool serves the hundreds of covariance
    //    factorizations inside the MLE objective as well as the detection
    //    below — no per-call thread setup.
    let engine = MvnEngine::builder().build().expect("engine");
    let (std_vals, mean, sd_scale) = wind.standardize();
    let fit = fit_matern(
        &wind.unit_locations,
        &std_vals,
        MaternParams {
            sigma2: 1.0,
            range: 0.05,
            smoothness: 1.0,
        },
        false,
        engine.pool(),
    )
    .expect("MLE should converge");
    println!(
        "fitted Matérn: sigma2 {:.3}, range {:.4}, nu {:.2}",
        fit.params.sigma2, fit.params.range, fit.params.smoothness
    );

    // 3. Detect the 95%-confidence exceedance region for u = 4 m/s with the
    //    dense and the TLR back-end and compare them.
    let u_std = (4.0 - mean) / sd_scale;
    let kernel = geostat::CovarianceKernel::Matern(fit.params);
    let cov = kernel.dense_covariance(&wind.unit_locations, 1e-8);
    let cfg = CrdConfig {
        threshold: u_std,
        alpha: 0.05,
        levels: 12,
        mvn: MvnConfig::with_samples(3_000),
    };

    let (dense_factor, csd) = correlation_factor(&engine, &cov, 88, None).expect("SPD");
    let dense = detect_confidence_regions(&engine, &dense_factor, &std_vals, &csd, &cfg);
    let dense_region = excursion_set(&dense, cfg.alpha);

    let compression = Some((CompressionTol::Absolute(1e-4), 44));
    let (tlr_factor, _) = correlation_factor(&engine, &cov, 88, compression).expect("SPD");
    let tlr = detect_confidence_regions(&engine, &tlr_factor, &std_vals, &csd, &cfg);
    let tlr_region = excursion_set(&tlr, cfg.alpha);

    let overlap = dense_region
        .iter()
        .filter(|i| tlr_region.contains(i))
        .count();
    println!(
        "confidence regions: dense {} sites, TLR {} sites, overlap {overlap}",
        dense_region.len(),
        tlr_region.len()
    );
    // Fig. 3: how far the TLR confidence function strays from the dense one.
    let max_diff = (dense.confidence.iter().zip(&tlr.confidence))
        .map(|(d, t)| (d - t).abs())
        .fold(0.0f64, f64::max);
    println!("max |F_dense - F_tlr| = {max_diff:.2e} (TLR tolerance 1e-4)");

    // 4. Report the windiest confirmed sites as candidate wind-farm locations.
    let mut candidates: Vec<usize> = dense_region.clone();
    candidates.sort_by(|&a, &b| wind.speed_ms[b].partial_cmp(&wind.speed_ms[a]).unwrap());
    println!("top candidate sites (lon, lat, speed m/s):");
    for &i in candidates.iter().take(5) {
        println!(
            "  ({:6.2}, {:5.2})  {:5.2} m/s",
            wind.locations[i].x, wind.locations[i].y, wind.speed_ms[i]
        );
    }
}
