//! Vecchia accuracy-vs-`m` study — how fast the ordered-conditioning
//! approximation converges to the exact (dense-factor) MVN probability as the
//! conditioning-set size grows.
//!
//! For each correlation setting (the paper's weak / medium / strong
//! exponential ranges) the study solves one orthant-style problem on a
//! regular grid with the dense tiled factor (the exact reference) and with
//! Vecchia factors at a ladder of conditioning sizes `m`, under both
//! orderings (maximin and the coordinate sweep). Reported per row:
//!
//! * the absolute and relative deviation from the dense probability,
//! * the stored-element count (the `O(n·m)` memory story vs the dense
//!   `O(n²/2)`),
//! * build + solve wall time.
//!
//! Defaults are laptop-scale (24×24 grid, 2,000 QMC samples); `--full` runs
//! the paper-scale 40×40 grid with 10,000 samples. Pass `--grid S` /
//! `--samples N` to override either.
//!
//! Every row is also emitted as a JSON-lines point
//! (`vecchia_study_{setting}_{ordering}_m{m}_abs_err`) so the study can ride
//! in the bench artifact next to the kernels points.

use geostat::{
    conditioning_sets, coordinate_order, maximin_order, regular_grid, CovarianceKernel, Location,
};
use mvn_bench::{full_scale_requested, CORRELATION_SETTINGS};
use mvn_core::{MvnConfig, MvnEngine, VecchiaPlan};
use std::time::Instant;
use tile_la::SymTileMatrix;

fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let full = full_scale_requested();
    let side = arg_usize("--grid", if full { 40 } else { 24 });
    let samples = arg_usize("--samples", if full { 10_000 } else { 2_000 });
    let nugget = 1e-8;
    let ms = [5usize, 10, 20, 30, 45, 60];

    let locs = regular_grid(side, side);
    let n = locs.len();
    let cfg = MvnConfig {
        sample_size: samples,
        seed: 20240518,
        ..Default::default()
    };
    let engine = MvnEngine::with_config(cfg).unwrap();

    println!("# Vecchia accuracy vs conditioning-set size m");
    println!("# grid {side}x{side} ({n} locations), QMC N = {samples}, orthant a = -2, b = +inf");

    for &(label, range) in CORRELATION_SETTINGS {
        let kernel = CovarianceKernel::Exponential { sigma2: 1.0, range };
        let cov = cov_fn(&locs, kernel, nugget);
        let a = vec![-2.0; n];
        let b = vec![f64::INFINITY; n];

        let t = Instant::now();
        let dense = engine
            .factor_dense(SymTileMatrix::from_fn(n, 64, &cov))
            .unwrap();
        let p_dense = engine.solve(&dense, &a, &b).prob;
        let dense_ms = t.elapsed().as_secs_f64() * 1e3;
        let dense_elems = dense.stored_elements();
        println!(
            "\n## correlation = {label} (range {range}): dense p = {p_dense:.6e} \
             ({dense_elems} stored, {dense_ms:.0} ms)"
        );
        println!(
            "{:>10} {:>4} {:>12} {:>10} {:>10} {:>9} {:>8}",
            "ordering", "m", "p_vecchia", "abs_err", "rel_err", "stored", "ms"
        );

        for (ordering, order) in [
            ("maximin", maximin_order(&locs)),
            ("coordinate", coordinate_order(&locs)),
        ] {
            for &m in &ms {
                let t = Instant::now();
                let (starts, neighbors) = conditioning_sets(&locs, &order, m);
                let plan = VecchiaPlan::new(order.clone(), starts, neighbors).unwrap();
                let factor = engine.factor_vecchia(plan, &cov).unwrap();
                let p = engine.solve(&factor, &a, &b).prob;
                let ms_wall = t.elapsed().as_secs_f64() * 1e3;
                let abs_err = (p - p_dense).abs();
                let rel_err = abs_err / p_dense;
                println!(
                    "{ordering:>10} {m:>4} {p:>12.6e} {abs_err:>10.2e} {rel_err:>10.2e} \
                     {:>9} {ms_wall:>8.0}",
                    factor.stored_elements()
                );
                println!(
                    "{{\"benchmark\":\"vecchia_study_{label}_{ordering}_m{m}_abs_err\",\
                     \"mean_ns\":{abs_err:e},\"samples\":{samples}}}"
                );
            }
        }
    }
    println!("\n# abs_err shrinks with m for both orderings and plateaus once every set");
    println!("# captures the kernel's effective range. On short-range regular grids the");
    println!("# coordinate sweep converges at smaller m (its neighbors are all adjacent");
    println!("# rows/columns); maximin narrows the gap as the correlation range grows.");
}

/// Covariance entry closure over grid locations: kernel + nugget on the
/// diagonal — the non-standardized convention `CovSpec` uses.
fn cov_fn(
    locs: &[Location],
    kernel: CovarianceKernel,
    nugget: f64,
) -> impl Fn(usize, usize) -> f64 + Sync + '_ {
    move |i: usize, j: usize| {
        let c = kernel.cov_loc(&locs[i], &locs[j]);
        if i == j {
            c + nugget
        } else {
            c
        }
    }
}
