//! Quickstart: estimate a high-dimensional multivariate normal probability
//! with the dense and the TLR back-end and compare against the naive
//! Monte-Carlo baseline.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use geostat::{regular_grid, CovarianceKernel};
use mvn_core::{mvn_prob_mc, MvnConfig, MvnEngine, Problem};
use tlr::{CompressionTol, TlrMatrix};

fn main() {
    // 1. A spatial problem: 900 locations on a regular grid with an
    //    exponential covariance (the paper's "medium correlation" setting).
    let locations = regular_grid(30, 30);
    let n = locations.len();
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.1,
    };

    // 2. The probability that the field exceeds 0 at *every* location —
    //    lower limits 0, upper limits +inf.
    let a = vec![0.0; n];
    let b = vec![f64::INFINITY; n];
    let cfg = MvnConfig {
        sample_size: 5_000,
        ..Default::default()
    };

    // 3. One MvnEngine is the session: it owns a persistent worker pool that
    //    every factorization and solve below reuses (no per-call thread
    //    setup). Dense path: factor once into a reusable handle (the tiled
    //    Cholesky as one task graph), then sweep it — one PMVN task per
    //    sample panel.
    let engine = MvnEngine::builder().config(cfg).build().expect("engine");
    let sigma = TlrMatrix::assemble(n, 128, None, kernel.entry(&locations, 1e-9));
    let dense_factor = engine.factor(sigma).expect("SPD");
    let dense = engine.solve(&dense_factor, &a, &b);
    println!(
        "dense PMVN : P = {:.6e}  (std error {:.1e}, {} samples)",
        dense.prob, dense.std_error, dense.samples
    );

    // 4. TLR path: the covariance is compressed at tolerance 1e-3 before the
    //    factorization (the paper's fast mode). One factor answers a whole
    //    batch of queries in one task graph.
    let sigma_tlr = TlrMatrix::assemble(
        n,
        128,
        Some(CompressionTol::Absolute(1e-3)),
        kernel.entry(&locations, 1e-9),
    );
    let compression_ratio = sigma_tlr.compression_ratio();
    let factor = engine.factor(sigma_tlr).expect("SPD");
    let tlr = engine.solve(&factor, &a, &b);
    println!(
        "TLR   PMVN : P = {:.6e}  (std error {:.1e}, compression ratio {:.2})",
        tlr.prob, tlr.std_error, compression_ratio
    );
    let thresholds = [-0.5, 0.0, 0.5, 1.0];
    let batch = engine.solve_batch(
        &factor,
        &thresholds
            .iter()
            .map(|&u| Problem::new(vec![u; n], vec![f64::INFINITY; n]))
            .collect::<Vec<_>>(),
    );
    for (u, r) in thresholds.iter().zip(&batch) {
        println!("  batched  P(all sites > {u:4.1}) = {:.6e}", r.prob);
    }

    // 5. Naive Monte-Carlo baseline for comparison (impractical in truly high
    //    dimensions, which is the paper's motivation for the SOV algorithm).
    //    It samples x = L·z, so it reuses the dense factor of step 3.
    let l = dense_factor.tiled().expect("a Cholesky factor is tiled");
    let mc = mvn_prob_mc(l, &a, &b, &MvnConfig::with_samples(200_000));
    println!(
        "naive MC   : P = {:.6e}  (std error {:.1e}, {} samples)",
        mc.prob, mc.std_error, mc.samples
    );

    println!(
        "\ndense vs TLR difference: {:.2e}",
        (dense.prob - tlr.prob).abs()
    );
}
