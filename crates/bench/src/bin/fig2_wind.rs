//! Figures 2 and 3 — the wind-speed case study.
//!
//! Regenerates the pipeline of the paper's Saudi-Arabia wind study on the
//! synthetic wind dataset (see `geostat::wind` for the substitution note):
//! standardize the field, fit Matérn parameters, detect the regions with a
//! 0.95 probability of exceeding 4 m/s with both the dense and the TLR
//! back-end, and report the per-probability-level difference between the two
//! (Fig. 3).
//!
//! Pass `--full` for a denser grid.

use excursion::{
    correlation_factor_dense, correlation_factor_tlr, detect_confidence_regions, excursion_set,
    CrdConfig,
};
use geostat::{
    default_fluctuation_params, fit_matern_pooled, synthetic_wind_dataset, MaternParams,
};
use mvn_bench::{full_scale_requested, mvn_config};
use mvn_core::MvnEngine;
use tlr::CompressionTol;

fn main() {
    let full = full_scale_requested();
    let side = if full { 72 } else { 26 };
    let qmc_samples = if full { 10_000 } else { 2_000 };
    let nb = if full { 320 } else { 52 };
    let threshold_ms = 4.0; // m/s, as in the paper
    let alpha = 0.05; // confidence level 0.95

    println!("# Figures 2-3: wind-speed confidence regions (synthetic Saudi-like dataset)");
    let wind = synthetic_wind_dataset(side, 2015, default_fluctuation_params(), 1.3);
    let n = wind.len();
    println!("# {n} locations over {:?}", geostat::wind::SAUDI_BBOX);

    // Figure 2a: the raw field.
    let max_speed = wind.speed_ms.iter().cloned().fold(0.0f64, f64::max);
    let mean_speed = wind.speed_ms.iter().sum::<f64>() / n as f64;
    println!(
        "original field: mean {:.2} m/s, max {:.2} m/s, {} sites above {threshold_ms} m/s",
        mean_speed,
        max_speed,
        wind.speed_ms.iter().filter(|&&v| v > threshold_ms).count()
    );

    // Standardize and fit the Matérn parameters (the paper obtains
    // (1, 0.005069, 1.43391) on the real data with ExaGeoStat).
    let (std_vals, mean, sd) = wind.standardize();
    let u_std = (threshold_ms - mean) / sd;
    let init = MaternParams {
        sigma2: 1.0,
        range: 0.05,
        smoothness: 1.0,
    };
    // One engine session for the whole study: the MLE objective's repeated
    // factorizations and the two detection sweeps share its worker pool.
    let engine = MvnEngine::builder().build().expect("engine");
    let fit = fit_matern_pooled(&wind.unit_locations, &std_vals, init, false, engine.pool())
        .expect("MLE fit should converge");
    println!(
        "fitted Matérn parameters: sigma2 {:.4}, range {:.5}, smoothness {:.3} (loglik {:.1})",
        fit.params.sigma2, fit.params.range, fit.params.smoothness, fit.loglik
    );

    // Posterior here is the fitted field itself (fully observed, as in the
    // paper's wind study); the kernel defines the joint covariance.
    let kernel = geostat::CovarianceKernel::Matern(fit.params);
    let cov = kernel.dense_covariance(&wind.unit_locations, 1e-8);
    let (factor_dense, csd) = correlation_factor_dense(&cov, nb);
    let (factor_tlr, _) = correlation_factor_tlr(&cov, nb, CompressionTol::Absolute(1e-4), nb / 2);

    let cfg = CrdConfig {
        threshold: u_std,
        alpha,
        levels: 15,
        mvn: mvn_config(qmc_samples),
    };
    let dense = detect_confidence_regions(&engine, &factor_dense, &std_vals, &csd, &cfg);
    let tlr = detect_confidence_regions(&engine, &factor_tlr, &std_vals, &csd, &cfg);

    // Figure 2b vs 2c/2d.
    let marginal_region = dense.marginal.iter().filter(|&&p| p >= 1.0 - alpha).count();
    let region_dense = excursion_set(&dense, alpha);
    let region_tlr = excursion_set(&tlr, alpha);
    let overlap = region_dense
        .iter()
        .filter(|i| region_tlr.contains(i))
        .count();
    println!("\nmarginal probability map: {marginal_region} sites with P(X > 4 m/s) >= 0.95");
    println!(
        "confidence regions (1-alpha = 0.95): dense {} sites, TLR {} sites, overlap {overlap}",
        region_dense.len(),
        region_tlr.len()
    );

    // Figure 3: dense-vs-TLR confidence-function difference by probability level.
    println!("\nprobability-level bin    mean(F_dense - F_tlr)    max|F_dense - F_tlr|");
    for bin in 0..10 {
        let lo = bin as f64 / 10.0;
        let hi = lo + 0.1;
        let diffs: Vec<f64> = dense
            .confidence
            .iter()
            .zip(&tlr.confidence)
            .filter(|(d, _)| **d >= lo && **d < hi)
            .map(|(d, t)| d - t)
            .collect();
        if diffs.is_empty() {
            continue;
        }
        let mean_diff = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let max_abs = diffs.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        println!("[{lo:.1}, {hi:.1})               {mean_diff:+.6}                {max_abs:.6}");
    }
    println!(
        "\n(The paper's Fig. 3 shows dense-vs-TLR differences of order 1e-4 at tolerance 1e-4.)"
    );
}
