//! Criterion bench for Figure 4: time of one MVN integration (dense vs. TLR)
//! across problem dimensions and QMC sample sizes on the host machine.
//!
//! The dimensions are laptop-scale stand-ins for the paper's 4,900–78,400
//! range; the `fig4_table2_report` binary prints the same measurements as a
//! table (and accepts `--full` for paper-scale sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvn_bench::{exceedance_limits, mvn_config, SyntheticProblem};
use mvn_core::MvnEngine;
use std::hint::black_box;

fn bench_mvn_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_mvn_integration");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let engine = MvnEngine::builder().build().unwrap();

    for side in [16usize, 24, 32] {
        let problem = SyntheticProblem::new(side, 0.1, "medium");
        let n = problem.n();
        let nb = 64.min(n);
        let (dense, _) = problem.dense_factor(&engine, nb);
        let (tlr, _) = problem.tlr_factor(&engine, nb, 1e-3, nb / 2);
        let (a, b) = exceedance_limits(n);

        for qmc in [100usize, 1000] {
            let cfg = mvn_config(qmc);
            group.bench_with_input(
                BenchmarkId::new(format!("dense_n{n}"), qmc),
                &qmc,
                |bench, _| {
                    bench.iter(|| black_box(engine.solve_factored_with(&dense, &a, &b, &cfg)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("tlr_n{n}"), qmc),
                &qmc,
                |bench, _| {
                    bench.iter(|| black_box(engine.solve_factored_with(&tlr, &a, &b, &cfg)));
                },
            );
        }
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_cholesky");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let engine = MvnEngine::builder().build().unwrap();
    for side in [24usize, 32] {
        let problem = SyntheticProblem::new(side, 0.1, "medium");
        let n = problem.n();
        let nb = 64.min(n);
        group.bench_function(BenchmarkId::new("dense", n), |bench| {
            bench.iter(|| black_box(problem.dense_factor(&engine, nb)));
        });
        group.bench_function(BenchmarkId::new("tlr_1e-3", n), |bench| {
            bench.iter(|| black_box(problem.tlr_factor(&engine, nb, 1e-3, nb / 2)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mvn_integration, bench_cholesky);
criterion_main!(benches);
