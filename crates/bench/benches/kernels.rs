//! Criterion micro-benchmarks of the linear-algebra substrate: tile kernels,
//! the parallel tiled Cholesky and the TLR compression. These are ablation
//! benches for the design choices called out in DESIGN.md (tile size, Jacobi
//! SVD compression cost, dense vs. TLR factorization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mathx::{clamp_unit, norm_cdf, norm_cdf_diff, norm_quantile};
use mvn_core::{MvnConfig, MvnEngine, QmcScratch};
use std::hint::black_box;
use task_runtime::{effective_workers, WorkerPool};
use tile_la::kernels::{gemm_nn, gemm_nt, jacobi_svd, potrf_in_place};
use tile_la::{potrf_tiled, DenseMatrix, SymTileMatrix};
use tlr::{compress_dense, potrf_tlr, CompressionTol, TlrMatrix};

fn kernel_matrix(n: usize, offset: usize) -> DenseMatrix {
    DenseMatrix::from_fn(n, n, |i, j| {
        (-((i as f64 - (j + offset) as f64).abs()) / (n as f64)).exp()
    })
}

/// The pre-chain-major scalar QMC kernel (chain-at-a-time, per-element
/// Φ/Φ⁻¹ calls, row-major `m × cols` blocks), kept verbatim as the "before"
/// baseline of the `qmc_kernel` bench points.
#[allow(clippy::too_many_arguments)]
fn qmc_kernel_scalar_ref(
    l_rr: &DenseMatrix,
    w: &DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    y: &mut DenseMatrix,
    prob: &mut [f64],
) {
    let m = l_rr.nrows();
    let cols = w.ncols();
    for c in 0..cols {
        if prob[c] == 0.0 {
            for i in 0..m {
                y.set(i, c, 0.0);
            }
            continue;
        }
        for i in 0..m {
            let mut s = 0.0;
            for t in 0..i {
                s += l_rr.get(i, t) * y.get(t, c);
            }
            let lii = l_rr.get(i, i);
            if lii <= 0.0 || !lii.is_finite() {
                prob[c] = 0.0;
                for k in i..m {
                    y.set(k, c, 0.0);
                }
                break;
            }
            let ai = a.get(i, c);
            let bi = b.get(i, c);
            let a_cond = if ai == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                (ai - s) / lii
            };
            let b_cond = if bi == f64::INFINITY {
                f64::INFINITY
            } else {
                (bi - s) / lii
            };
            let phi_a = norm_cdf(a_cond);
            let diff = norm_cdf_diff(a_cond, b_cond);
            prob[c] *= diff;
            let u = clamp_unit(phi_a + w.get(i, c) * diff);
            y.set(i, c, norm_quantile(u));
            if prob[c] == 0.0 {
                for k in (i + 1)..m {
                    y.set(k, c, 0.0);
                }
                break;
            }
        }
    }
}

/// Naive triple-loop `C ← α·A·B + β·C` (the pre-micro-kernel `gemm_nn`),
/// kept as the "before" baseline of the `gemm` bench points.
fn gemm_nn_naive_ref(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    let m = a.nrows();
    let k = a.ncols();
    let n = b.ncols();
    if beta != 1.0 {
        c.scale(beta);
    }
    for j in 0..n {
        for p in 0..k {
            let bpj = alpha * b.get(p, j);
            if bpj == 0.0 {
                continue;
            }
            let a_col = a.col(p);
            let c_col = c.col_mut(j);
            for i in 0..m {
                c_col[i] += a_col[i] * bpj;
            }
        }
    }
}

/// Naive `C ← α·A·Bᵀ + β·C` (the pre-micro-kernel `gemm_nt`).
fn gemm_nt_naive_ref(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    let m = a.nrows();
    let k = a.ncols();
    let n = b.nrows();
    if beta != 1.0 {
        c.scale(beta);
    }
    for p in 0..k {
        let a_col = a.col(p);
        for j in 0..n {
            let bjp = alpha * b.get(j, p);
            if bjp == 0.0 {
                continue;
            }
            let c_col = c.col_mut(j);
            for i in 0..m {
                c_col[i] += a_col[i] * bjp;
            }
        }
    }
}

/// One sweep-shaped workload of the QMC kernel: a triangular diagonal tile
/// and `cols` chains with the given limits, run through either kernel layout.
/// `semi_infinite` benches the CRD shape (`b = +∞`), the branch-heaviest case
/// of the scalar kernel.
fn bench_qmc_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("qmc_kernel");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let m = 64usize;
    let cols = 64usize;
    let mut l_rr = kernel_matrix(m, 0);
    potrf_in_place(&mut l_rr).unwrap();
    let wf = |i: usize, c: usize| (((i * cols + c) % 251) as f64 + 0.5) / 251.0;

    for (label, a_val, b_val) in [
        ("finite_box", -0.8, 1.2),
        ("semi_infinite", -0.3, f64::INFINITY),
    ] {
        // Chain-major blocks for the new kernel …
        let w_cm = DenseMatrix::from_fn(cols, m, |c, i| wf(i, c));
        let a_cm = DenseMatrix::from_fn(cols, m, |_, _| a_val);
        let b_cm = DenseMatrix::from_fn(cols, m, |_, _| b_val);
        // … and row-major blocks for the scalar reference.
        let w_rm = DenseMatrix::from_fn(m, cols, wf);
        let a_rm = DenseMatrix::from_fn(m, cols, |_, _| a_val);
        let b_rm = DenseMatrix::from_fn(m, cols, |_, _| b_val);

        group.bench_function(BenchmarkId::new("chain_major", label), |bench| {
            let mut y = DenseMatrix::zeros(cols, m);
            let mut scratch = QmcScratch::default();
            bench.iter(|| {
                let mut prob = vec![1.0; cols];
                mvn_core::qmc_kernel_scratch(
                    &l_rr,
                    &w_cm,
                    &a_cm,
                    &b_cm,
                    &mut y,
                    &mut prob,
                    &mut scratch,
                    None,
                );
                black_box(prob)
            });
        });
        group.bench_function(BenchmarkId::new("scalar_ref", label), |bench| {
            let mut y = DenseMatrix::zeros(m, cols);
            bench.iter(|| {
                let mut prob = vec![1.0; cols];
                qmc_kernel_scalar_ref(&l_rr, &w_rm, &a_rm, &b_rm, &mut y, &mut prob);
                black_box(prob)
            });
        });
    }
    group.finish();
}

fn bench_tile_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_kernels");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for nb in [64usize, 128] {
        let a = kernel_matrix(nb, 0);
        let b = kernel_matrix(nb, 7);
        group.bench_function(BenchmarkId::new("gemm_nt", nb), |bench| {
            bench.iter(|| {
                let mut cmat = DenseMatrix::zeros(nb, nb);
                gemm_nt(-1.0, &a, &b, 1.0, &mut cmat);
                black_box(cmat)
            });
        });
        group.bench_function(BenchmarkId::new("gemm_nt_naive_ref", nb), |bench| {
            bench.iter(|| {
                let mut cmat = DenseMatrix::zeros(nb, nb);
                gemm_nt_naive_ref(-1.0, &a, &b, 1.0, &mut cmat);
                black_box(cmat)
            });
        });
        group.bench_function(BenchmarkId::new("gemm_nn", nb), |bench| {
            bench.iter(|| {
                let mut cmat = DenseMatrix::zeros(nb, nb);
                gemm_nn(-1.0, &a, &b, 1.0, &mut cmat);
                black_box(cmat)
            });
        });
        group.bench_function(BenchmarkId::new("gemm_nn_naive_ref", nb), |bench| {
            bench.iter(|| {
                let mut cmat = DenseMatrix::zeros(nb, nb);
                gemm_nn_naive_ref(-1.0, &a, &b, 1.0, &mut cmat);
                black_box(cmat)
            });
        });
        group.bench_function(BenchmarkId::new("potrf", nb), |bench| {
            bench.iter(|| {
                let mut spd = DenseMatrix::from_fn(nb, nb, |i, j| {
                    (-((i as f64 - j as f64).abs()) / 10.0).exp() + if i == j { 0.1 } else { 0.0 }
                });
                potrf_in_place(&mut spd).unwrap();
                black_box(spd)
            });
        });
        group.bench_function(BenchmarkId::new("jacobi_svd", nb), |bench| {
            let tile = kernel_matrix(nb, 3 * nb);
            bench.iter(|| black_box(jacobi_svd(&tile)));
        });
        group.bench_function(BenchmarkId::new("compress_1e-3", nb), |bench| {
            let tile = kernel_matrix(nb, 3 * nb);
            bench.iter(|| {
                black_box(compress_dense(
                    &tile,
                    CompressionTol::Absolute(1e-3),
                    usize::MAX,
                ))
            });
        });
    }
    group.finish();
}

fn bench_factorizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorization");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 768;
    let nb = 96;
    let f = |i: usize, j: usize| {
        (-((i as f64 - j as f64).abs()) / 200.0).exp() + if i == j { 1e-4 } else { 0.0 }
    };
    let pool = WorkerPool::new(effective_workers(0));
    group.bench_function("dense_tiled_cholesky_768", |bench| {
        bench.iter(|| {
            let mut a = SymTileMatrix::from_fn(n, nb, f);
            potrf_tiled(&mut a, &pool).unwrap();
            black_box(a)
        });
    });
    group.bench_function("tlr_cholesky_768_tol1e-3", |bench| {
        bench.iter(|| {
            let mut a = TlrMatrix::from_fn(n, nb, CompressionTol::Absolute(1e-3), nb / 2, f);
            potrf_tlr(&mut a, &pool).unwrap();
            black_box(a)
        });
    });
    group.finish();
}

/// Staged vs fused submission of the same numerical work on one engine
/// session. Two timing points:
///
/// * `dag_potrf_pmvn` — factorization, then the panel sweep (two task sets,
///   barrier between them),
/// * `fused_potrf_pmvn` — one task set for factor + sweep, early row-block
///   sweeping overlapping the trailing factorization.
///
/// Both produce bitwise-identical probabilities; only wall time differs.
fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let n = 512;
    let nb = 64;
    let f = |i: usize, j: usize| {
        (-((i as f64 - j as f64).abs()) / 150.0).exp() + if i == j { 1e-4 } else { 0.0 }
    };
    let a = vec![-0.3; n];
    let b = vec![f64::INFINITY; n];
    let cfg = MvnConfig {
        sample_size: 2000,
        seed: 20240518,
        ..Default::default()
    };
    let engine = MvnEngine::with_config(cfg).unwrap();

    group.bench_function("dag_potrf_pmvn", |bench| {
        bench.iter(|| {
            let factor = engine
                .factor_dense(SymTileMatrix::from_fn(n, nb, f))
                .unwrap();
            black_box(engine.solve(&factor, &a, &b))
        });
    });
    group.bench_function("fused_potrf_pmvn", |bench| {
        bench.iter(|| {
            let mut sigma = SymTileMatrix::from_fn(n, nb, f);
            black_box(engine.factor_prob_dense(&mut sigma, &a, &b).unwrap())
        });
    });

    // The session shape real traffic has: 64 small solves against one factor
    // on one engine whose workers stay parked between solves.
    let small_n = 64;
    let small_cfg = MvnConfig {
        sample_size: 256,
        panel_width: 64,
        seed: 20240518,
        ..Default::default()
    };
    let small_f = |i: usize, j: usize| {
        (-((i as f64 - j as f64).abs()) / 20.0).exp() + if i == j { 1e-4 } else { 0.0 }
    };
    let small_engine = MvnEngine::builder().workers(2).config(small_cfg);
    let small_engine = small_engine.build().unwrap();
    let small_factor = small_engine
        .factor_dense(SymTileMatrix::from_fn(small_n, 16, small_f))
        .unwrap();
    let solves = 64usize;
    let limits: Vec<(Vec<f64>, Vec<f64>)> = (0..solves)
        .map(|k| {
            (
                vec![-0.5 - 0.01 * k as f64; small_n],
                vec![f64::INFINITY; small_n],
            )
        })
        .collect();
    group.bench_function("engine_reuse_shared_engine", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for (a, b) in &limits {
                acc += small_engine.solve(&small_factor, a, b).prob;
            }
            black_box(acc)
        });
    });
    group.finish();
}

/// The Vecchia backend's accuracy/scale points, emitted in the JSON-lines
/// shape CI appends to `BENCH_kernels.json`:
///
/// * `vecchia_n{size}_wall` / `vecchia_n{size}_abs_err` — paper-scale grids
///   (`n ≈ 1–2k`, `m = 30`): wall nanoseconds for plan + conditioning-solve
///   build + sweep, and the absolute deviation from the dense-factor
///   probability on the same covariance (the acceptance tolerance the
///   property tests pin at small `n`, measured here at paper scale),
/// * `vecchia_n100000_wall` — the Vecchia-only point in the `n ≫ 10⁴` regime
///   no dense/TLR factorization can reach on this container (a dense factor
///   alone would be 40 GB); coordinate ordering, `m = 30`, reduced sample
///   count so the point stays seconds-scale on one core.
///
/// These are one-shot `Instant` measurements (the workload is seconds-scale
/// and deterministic), not criterion statistics — same pattern as the
/// streaming peak-task accounting above.
fn bench_vecchia(_c: &mut Criterion) {
    use geostat::{conditioning_sets, coordinate_order, maximin_order, regular_grid};
    use mvn_core::VecchiaPlan;
    use std::time::Instant;

    let kernel = geostat::CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.3,
    };
    let nugget = 1e-8;
    let m = 30usize;
    let cfg = MvnConfig {
        sample_size: 1000,
        seed: 20240518,
        ..Default::default()
    };
    let engine = MvnEngine::with_config(cfg).unwrap();

    // Paper-scale accuracy points: Vecchia vs the dense factor on the same
    // covariance over the same grid.
    for (nx, ny) in [(32usize, 32usize), (64, 32)] {
        let locs = regular_grid(nx, ny);
        let n = locs.len();
        let cov = |i: usize, j: usize| {
            let c = kernel.cov_loc(&locs[i], &locs[j]);
            if i == j {
                c + nugget
            } else {
                c
            }
        };
        let a = vec![-3.0; n];
        let b = vec![f64::INFINITY; n];

        let dense = engine
            .factor_dense(SymTileMatrix::from_fn(n, 128, cov))
            .unwrap();
        let p_dense = engine.solve(&dense, &a, &b).prob;

        let t = Instant::now();
        let order = maximin_order(&locs);
        let (starts, neighbors) = conditioning_sets(&locs, &order, m);
        let plan = VecchiaPlan::new(order, starts, neighbors).unwrap();
        let vecchia = engine.factor_vecchia(plan, cov).unwrap();
        let p_vecchia = engine.solve(&vecchia, &a, &b).prob;
        let wall = t.elapsed().as_nanos();

        let abs_err = (p_dense - p_vecchia).abs();
        assert!(
            abs_err < 0.05,
            "vecchia n={n} m={m} drifted from dense: {p_vecchia} vs {p_dense}"
        );
        println!(
            "{{\"benchmark\":\"vecchia_n{n}_wall\",\"mean_ns\":{wall},\"samples\":{}}}",
            cfg.sample_size
        );
        println!(
            "{{\"benchmark\":\"vecchia_n{n}_abs_err\",\"mean_ns\":{abs_err:e},\"samples\":{}}}",
            cfg.sample_size
        );
    }

    // The n = 10⁵ Vecchia-only point: coordinate ordering (maximin is O(n²)
    // and capped at 10⁴ by the serving layer too), O(n·m) storage.
    {
        let locs = regular_grid(400, 250);
        let n = locs.len();
        let cov = |i: usize, j: usize| {
            let c = kernel.cov_loc(&locs[i], &locs[j]);
            if i == j {
                c + nugget
            } else {
                c
            }
        };
        let big_cfg = MvnConfig {
            sample_size: 500,
            ..cfg
        };
        let a = vec![-4.0; n];
        let b = vec![f64::INFINITY; n];

        let t = Instant::now();
        let order = coordinate_order(&locs);
        let (starts, neighbors) = conditioning_sets(&locs, &order, m);
        let plan = VecchiaPlan::new(order, starts, neighbors).unwrap();
        let factor = engine.factor_vecchia(plan, cov).unwrap();
        let result = engine.solve_factored_with(&factor, &a, &b, &big_cfg);
        let wall = t.elapsed().as_nanos();

        assert!(
            result.prob.is_finite() && result.prob > 0.0 && result.prob <= 1.0,
            "vecchia n={n} produced a degenerate probability {}",
            result.prob
        );
        println!(
            "{{\"benchmark\":\"vecchia_n{n}_wall\",\"mean_ns\":{wall},\"samples\":{}}}",
            big_cfg.sample_size
        );
    }
}

/// Tracing-overhead guard: the same fused factor+sweep workload timed with
/// the [`obs`] recorder disabled and enabled, reported as a percentage in
/// the `mean_ns` field (`obs_overhead_pct`; CI fails the run above 5%). A
/// one-shot paired measurement, not criterion statistics — the two arms run
/// interleaved over identical deterministic work, so the ratio is stable
/// even if the absolute times wander.
fn bench_obs_overhead(_c: &mut Criterion) {
    use std::time::Instant;

    let n = 256;
    let nb = 32;
    let f = |i: usize, j: usize| {
        (-((i as f64 - j as f64).abs()) / 150.0).exp() + if i == j { 1e-4 } else { 0.0 }
    };
    let a = vec![-0.3; n];
    let b = vec![f64::INFINITY; n];
    let cfg = MvnConfig {
        sample_size: 1000,
        seed: 20240518,
        ..Default::default()
    };
    let engine = MvnEngine::with_config(cfg).unwrap();
    let run = || {
        let mut sigma = SymTileMatrix::from_fn(n, nb, f);
        black_box(engine.factor_prob_dense(&mut sigma, &a, &b).unwrap())
    };

    // Warm up once per arm so neither pays first-touch costs.
    run();
    obs::set_enabled(true);
    run();
    obs::take_events();
    obs::set_enabled(false);

    let reps = 6;
    let (mut off_ns, mut on_ns) = (0u128, 0u128);
    for _ in 0..reps {
        let t = Instant::now();
        run();
        off_ns += t.elapsed().as_nanos();

        obs::set_enabled(true);
        let t = Instant::now();
        run();
        on_ns += t.elapsed().as_nanos();
        obs::set_enabled(false);
        // Drop the recorded events so buffers never grow across reps.
        obs::take_events();
    }

    let pct = (on_ns as f64 / off_ns as f64 - 1.0) * 100.0;
    println!("{{\"benchmark\":\"obs_overhead_pct\",\"mean_ns\":{pct:.3},\"samples\":{reps}}}");
}

criterion_group!(
    benches,
    bench_qmc_kernel,
    bench_tile_kernels,
    bench_factorizations,
    bench_scheduling,
    bench_vecchia,
    bench_obs_overhead
);
criterion_main!(benches);
