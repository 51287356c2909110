//! Confidence-region detection on a synthetic partially observed field — the
//! workflow of the paper's Fig. 1 on a laptop-scale problem.
//!
//! ```bash
//! cargo run --release --example confidence_region_synthetic
//! ```

use excursion::{
    correlation_factor_dense, detect_confidence_regions, excursion_set, find_excursion_set,
    mc_validate, CrdConfig,
};
use geostat::{
    posterior_update, regular_grid, simulate_field, simulate_observations, CovarianceKernel,
};
use mvn_core::{MvnConfig, MvnEngine};

fn main() {
    // One MvnEngine carries the whole session: its worker pool is created
    // once and shared by the field simulation, the marginal-order
    // refactorization, the one sweep that yields every prefix probability,
    // and the MC validation below.
    let engine = MvnEngine::builder().build().expect("engine");

    // 1. Simulate a latent field on a 24x24 grid and observe 20% of the sites
    //    with noise (sd 0.5), as in the paper's synthetic study.
    let locations = regular_grid(24, 24);
    let n = locations.len();
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.1,
    };
    let field = simulate_field(&locations, &kernel, 0.0, 42, engine.pool());
    let obs = simulate_observations(&field, n / 5, 0.5, 43);
    println!(
        "simulated {n} sites, observed {} of them",
        obs.indices.len()
    );

    // 2. Posterior of the latent field given the noisy observations (Eq. 7-8).
    let prior_cov = kernel.dense_covariance(&locations, 1e-9);
    let post = posterior_update(&prior_cov, &vec![0.0; n], &obs.indices, &obs.values, 0.5);

    // 3. Detect where the field exceeds u = 0.5 with 95% joint confidence.
    let (factor, sd) = correlation_factor_dense(&post.cov, 96);
    let cfg = CrdConfig {
        threshold: 0.5,
        alpha: 0.05,
        levels: 15,
        mvn: MvnConfig::with_samples(4_000),
    };
    let result = detect_confidence_regions(&engine, &factor, &post.mean, &sd, &cfg);
    let marginal_count = result.marginal.iter().filter(|&&p| p >= 0.95).count();
    let region = excursion_set(&result, cfg.alpha);
    println!("marginal-probability region (P > u marginally >= 0.95): {marginal_count} sites");
    println!(
        "joint confidence region E+ (u=0.5, 1-alpha=0.95):        {} sites",
        region.len()
    );

    // 4. The same region with the joint probability of its boundary prefix.
    let (boundary_region, joint_prob) = find_excursion_set(&engine, &factor, &post.mean, &sd, &cfg);
    println!(
        "boundary search: {} sites with joint exceedance probability {:.4}",
        boundary_region.len(),
        joint_prob
    );

    // 5. Monte-Carlo validation: the whole detected region should exceed the
    //    threshold in ~95% of posterior samples.
    let v = mc_validate(
        &engine, &factor, &post.mean, &sd, &region, 0.5, 30_000, 500, 7,
    );
    println!(
        "MC validation: p_hat = {:.4} (target {:.2}, standard error {:.4})",
        v.p_hat,
        1.0 - cfg.alpha,
        v.std_error
    );
}
