//! Figure 4 and Table II — time-to-solution of one MVN integration on the host
//! (shared memory), dense vs. TLR, across problem dimensions and QMC sample
//! sizes, and the resulting TLR/dense speedups.
//!
//! The paper runs dimensions {4,900, 19,600, 44,100, 78,400} on four machines;
//! the defaults here are laptop-scale dimensions on the current host (pass
//! `--full` for the paper's dimensions — expect a long run and tens of GB of
//! memory).

use mvn_bench::{exceedance_limits, full_scale_requested, mvn_config, timed, SyntheticProblem};
use mvn_core::MvnEngine;

fn main() {
    let full = full_scale_requested();
    // Grid sides (n = side^2), mirroring the paper's 70/140/210/280 grids.
    let sides: Vec<usize> = if full {
        vec![70, 140, 210, 280]
    } else {
        vec![20, 30, 40]
    };
    let qmc_sizes: Vec<usize> = vec![100, 1000, 10_000];
    let nb = if full { 320 } else { 80 };
    let tlr_tol = 1e-3;
    let range = 0.1; // medium correlation

    println!("# Figure 4 / Table II: one MVN integration, dense vs TLR, on this host");
    println!("# tile size {nb}, TLR tolerance {tlr_tol:.0e}, exponential range {range}");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "n", "QMC N", "method", "chol (s)", "integr (s)", "total (s)", "prob", "speedup"
    );

    // One session for the whole report: every factorization and integration
    // below runs on this engine's pool.
    let engine = MvnEngine::builder().build().expect("default engine");
    for &side in &sides {
        let problem = SyntheticProblem::new(side, range, "medium");
        let n = problem.n();
        let (a, b) = exceedance_limits(n);

        // Factorizations are reused across QMC sizes (as in the paper, the
        // Cholesky is performed once per covariance matrix).
        let (dense_factor, t_chol_dense) = problem.dense_factor(&engine, nb);
        let (tlr_factor, t_chol_tlr) = problem.tlr_factor(&engine, nb, tlr_tol, nb / 2);

        for &nqmc in &qmc_sizes {
            let cfg = mvn_config(nqmc);
            let (rd, t_int_dense) =
                timed(|| engine.solve_factored_with(&dense_factor, &a, &b, &cfg));
            let (rt, t_int_tlr) = timed(|| engine.solve_factored_with(&tlr_factor, &a, &b, &cfg));
            let total_dense = t_chol_dense + t_int_dense;
            let total_tlr = t_chol_tlr + t_int_tlr;
            let speedup = total_dense / total_tlr.max(1e-12);
            println!(
                "{n:>8} {nqmc:>8} {:>10} {t_chol_dense:>12.3} {t_int_dense:>12.3} {total_dense:>12.3} {:>12.3e} {:>9}",
                "dense", rd.prob, ""
            );
            println!(
                "{n:>8} {nqmc:>8} {:>10} {t_chol_tlr:>12.3} {t_int_tlr:>12.3} {total_tlr:>12.3} {:>12.3e} {speedup:>8.1}x",
                "TLR", rt.prob
            );
        }
    }
    println!("\n# Table II analogue: the speedup column for each (n, QMC N) pair.");
    println!("# The paper reports 2-5x at N=100/1,000 and 9-20x at N=10,000 on its four machines;");
    println!(
        "# the qualitative trend (speedup grows with the QMC sample size and with n) should match."
    );
}
