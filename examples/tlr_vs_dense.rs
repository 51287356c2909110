//! TLR vs dense: accuracy/speed trade-off of the tile-low-rank approximation
//! for the MVN probability, across compression tolerances (the paper's central
//! ablation), plus the rank structure behind it (Fig. 5's heat map at
//! tolerance 1e-3).
//!
//! ```bash
//! cargo run --release --example tlr_vs_dense
//! ```

use geostat::{regular_grid, CovarianceKernel};
use mvn_core::{MvnConfig, MvnEngine};
use std::time::Instant;
use tlr::{CompressionTol, RankStats, TlrMatrix};

fn main() {
    let locations = regular_grid(32, 32);
    let n = locations.len();
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.234, // strong correlation: best case for TLR
    };
    let a = vec![0.0; n];
    let b = vec![f64::INFINITY; n];
    let engine = MvnEngine::with_config(MvnConfig::with_samples(4_000)).unwrap();
    let nb = 128;

    // Dense reference.
    let t = Instant::now();
    let sigma = TlrMatrix::assemble(n, nb, None, kernel.entry(&locations, 1e-9));
    let dense = engine.solve(&engine.factor(sigma).unwrap(), &a, &b);
    let t_dense = t.elapsed().as_secs_f64();
    println!(
        "dense      : P = {:.6e}   total {:.2}s",
        dense.prob, t_dense
    );

    // TLR at several tolerances.
    println!(
        "\n tolerance   probability      |diff vs dense|   time (s)   mean rank   dense tiles"
    );
    let mut fig5 = None;
    for tol in [1e-1, 1e-2, 1e-3, 1e-5] {
        let t = Instant::now();
        let sigma = TlrMatrix::assemble(
            n,
            nb,
            Some(CompressionTol::Absolute(tol)),
            kernel.entry(&locations, 1e-9),
        );
        let factor = engine.factor(sigma).unwrap();
        let r = engine.solve(&factor, &a, &b);
        let secs = t.elapsed().as_secs_f64();
        let ranks = RankStats::from_matrix(factor.tiled().expect("a Cholesky factor is tiled"));
        // Mean rank counts a dense tile (one whose rank did not pay) as
        // full rank.
        println!(
            "  {tol:7.0e}   {:.6e}   {:.3e}        {secs:7.2}    {:6.1}      {:5.1} %",
            r.prob,
            (r.prob - dense.prob).abs(),
            ranks.mean_off_diagonal_rank(),
            100.0 * ranks.dense_tile_frac()
        );
        if tol == 1e-3 {
            fig5 = Some(ranks);
        }
    }

    // Fig. 5: per-tile ranks at tolerance 1e-3 — largest near the diagonal,
    // where tiles past their break-even rank are dense and show full rank.
    let ranks = fig5.expect("1e-3 is one of the tolerances");
    println!("\nranks at tolerance 1e-3:\n{}", ranks.to_ascii());
    println!(
        "rank buckets [1,5] [6,10] [11,20] [21,50] [51,100] [101+]: {:?}",
        ranks.bucket_histogram()
    );
}
