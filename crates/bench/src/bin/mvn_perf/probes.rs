//! Kernel probes: each layer's building blocks timed from outside, one
//! thread, inputs from `--seed`. Each probe runs once per benchmark, in the
//! traced run of the workload whose clock it explains.

use crate::gen::{self, Rng, Stream};
use crate::pmvn::engine;
use crate::run::Run;
use crate::serve::{hot_specs, HOT_SAMPLES};
use crate::stats;
use geostat::{regular_grid, CovarianceKernel};
use mvn_core::Problem;
use mvn_service::{render_solve_request, Json};
use qmc::{make_point_set, SampleKind};
use std::hint::black_box;
use std::time::Instant;
use task_runtime::WorkerPool;
use tile_la::kernels::{gemm_nn, gemm_nt, potrf_in_place, syrk_lower, trsm_right_lower_trans};
use tile_la::DenseMatrix;
use tlr::{compress_dense, CompressionTol};

/// Tile edge of the kernel probes (the `nb` of the batch workloads).
const NB: usize = 100;
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean seconds per call of `f`,
/// each batch sized to about `budget_s`.
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((budget_s / once) as usize).clamp(1, 1_000_000);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    stats::median(&batches)
}

/// Peak double-precision rate of one thread as this build's flags allow:
/// 32 independent multiply-add chains that never leave the registers.
fn peak_gflops(budget_s: f64) -> f64 {
    const ROUNDS: usize = 4096;
    let (mul, add) = (black_box(0.999_999_f64), black_box(1e-6_f64));
    let per_call = time_per_call(budget_s, || {
        let mut acc = [[1.0f64; 4]; 8];
        for _ in 0..ROUNDS {
            for lane in &mut acc {
                for x in lane.iter_mut() {
                    *x = *x * mul + add;
                }
            }
        }
        black_box(acc);
    });
    (ROUNDS * 32 * 2) as f64 / per_call * 1e-9
}

fn random_tile(rng: &mut Rng) -> DenseMatrix {
    DenseMatrix::from_fn(NB, NB, |_, _| rng.next_f64() - 0.5)
}

/// `pmvn_dense`: the machine's roofline base and the dense tile kernels.
pub fn machine_and_tile_kernels(cx: &mut Run) {
    let (budget_s, mut rng) = start(cx);
    let rng = &mut rng;
    let peak = peak_gflops(budget_s);
    cx.set_value("machine.peak_gflops_1t", peak);
    let nb = NB as f64;
    let (a, b) = (random_tile(rng), random_tile(rng));
    let mut c = random_tile(rng);
    let gflops = |flops: f64, secs: f64| flops / secs * 1e-9;

    let nt = time_per_call(budget_s, || gemm_nt(-1.0, &a, &b, 1.0, black_box(&mut c)));
    cx.set_value("tile-la.gemm_nt_gflops", gflops(2.0 * nb * nb * nb, nt));
    cx.set_value(
        "tile-la.gemm_peak_frac",
        gflops(2.0 * nb * nb * nb, nt) / peak,
    );
    c.fill(0.0);
    let nn = time_per_call(budget_s, || gemm_nn(-1.0, &a, &b, 0.5, black_box(&mut c)));
    cx.set_value("tile-la.gemm_nn_gflops", gflops(2.0 * nb * nb * nb, nn));
    c.fill(0.0);
    let syrk = time_per_call(budget_s, || syrk_lower(-1.0, &a, 0.5, black_box(&mut c)));
    cx.set_value("tile-la.syrk_gflops", gflops(nb * nb * (nb + 1.0), syrk));

    // A well-conditioned SPD tile and its factor; the in-place kernels get a
    // fresh copy per call (the 80 kB copy is part of the measured call).
    let spd = DenseMatrix::from_fn(NB, NB, |i, j| {
        (-(i as f64 - j as f64).abs() / 10.0).exp() + if i == j { 0.5 } else { 0.0 }
    });
    let mut l = spd.clone();
    potrf_in_place(&mut l).expect("probe tile is SPD");
    let mut work = spd.clone();
    let potrf = time_per_call(budget_s, || {
        work.data_mut().copy_from_slice(spd.data());
        potrf_in_place(black_box(&mut work)).expect("probe tile is SPD");
    });
    cx.set_value("tile-la.potrf_gflops", gflops(nb * nb * nb / 3.0, potrf));
    let trsm = time_per_call(budget_s, || {
        work.data_mut().copy_from_slice(b.data());
        trsm_right_lower_trans(&l, black_box(&mut work));
    });
    cx.set_value("tile-la.trsm_gflops", gflops(nb * nb * nb, trsm));
}

/// `crd_wind`: what its prefix sweeps and Matérn assembly are made of —
/// Φ, Φ⁻¹, K₁, QMC points and the pool's per-task overhead.
pub fn sweep_building_blocks(cx: &mut Run) {
    let (budget_s, mut rng) = start(cx);
    special_functions(cx, &mut rng, budget_s);
    qmc_fill(cx, budget_s);
    task_overhead(cx, if cx.opts.smoke { 2_000 } else { 20_000 });
}

fn special_functions(cx: &mut Run, rng: &mut Rng, budget_s: f64) {
    const LEN: usize = 65_536;
    let x: Vec<f64> = (0..LEN).map(|_| 8.0 * rng.next_f64() - 4.0).collect();
    let p: Vec<f64> = (0..LEN)
        .map(|_| rng.next_f64().clamp(1e-12, 1.0 - 1e-12))
        .collect();
    let mut out = vec![0.0; LEN];
    let cdf = time_per_call(budget_s, || mathx::norm_cdf_slice(&x, black_box(&mut out)));
    cx.set_value("mathx.norm_cdf_ns", cdf * 1e9 / LEN as f64);
    let quantile = time_per_call(budget_s, || {
        mathx::norm_quantile_slice(&p, black_box(&mut out))
    });
    cx.set_value("mathx.norm_quantile_ns", quantile * 1e9 / LEN as f64);
    // Matérn ν = 1 arguments d/range over the unit square.
    let args: Vec<f64> = (0..4096).map(|_| 0.01 + 12.0 * rng.next_f64()).collect();
    let bessel = time_per_call(budget_s, || {
        let sum: f64 = args.iter().map(|&x| mathx::bessel_k(1.0, x)).sum();
        black_box(sum);
    });
    cx.set_value("mathx.bessel_k_ns", bessel * 1e9 / args.len() as f64);
}

fn qmc_fill(cx: &mut Run, budget_s: f64) {
    const DIM: usize = 1600;
    const CHAINS: usize = 64;
    let points = make_point_set(
        SampleKind::RichtmyerLattice,
        DIM,
        gen::engine_seed(cx.seed()),
    );
    let mut block = vec![0.0; CHAINS * NB];
    let mut first = 0;
    let fill = time_per_call(budget_s, || {
        // Walk the tile rows of a dim-1,600 sweep panel by panel.
        for dim0 in (0..DIM).step_by(NB) {
            points.fill_block(first, CHAINS, dim0, NB, black_box(&mut block));
        }
        first = (first + CHAINS) % 4096;
    });
    cx.set_value("qmc.fill_ns", fill * 1e9 / (DIM * CHAINS) as f64);
}

/// `pmvn_tlr`: compressing tile (1, 0) of its covariance.
pub fn compress(cx: &mut Run) {
    let (budget_s, _) = start(cx);
    let locs = regular_grid(40, 40);
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.1,
    };
    let tile = DenseMatrix::from_fn(NB, NB, |i, j| kernel.cov_loc(&locs[NB + i], &locs[j]));
    let secs = time_per_call(budget_s, || {
        black_box(compress_dense(&tile, CompressionTol::Absolute(1e-3), 50));
    });
    cx.set_value("tlr.compress_ms", secs * 1e3);
}

fn task_overhead(cx: &mut Run, items: usize) {
    let pool = WorkerPool::new(2);
    let work = vec![(); items];
    let walls: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            black_box(pool.run_map("noop", &work, |_, _| 1.0, |_, _| ()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    cx.set_value(
        "task-runtime.task_overhead_us",
        stats::median(&walls) * 1e6 / items as f64,
    );
}

/// `serve_hot`: engine floor and wire costs at its request shape.
pub fn small_solves_and_wire(cx: &mut Run) {
    const BATCH: usize = 64;
    let (budget_s, mut rng) = start(cx);
    let rng = &mut rng;
    let specs = hot_specs();
    let n = specs[0].n();
    let engine = engine(cx.seed(), 1, HOT_SAMPLES);
    let factor = specs[0].build_factor(&engine).expect("spec factors");
    let problems: Vec<Problem> = (0..BATCH)
        .map(|_| Problem::new(gen::lower_limits(rng, n, -1.0, 0.5), vec![f64::INFINITY; n]))
        .collect();
    let batched = time_per_call(budget_s, || {
        black_box(engine.solve_batch(&factor, &problems));
    });
    let single = time_per_call(budget_s, || {
        for p in &problems {
            black_box(engine.solve(&factor, &p.a, &p.b));
        }
    });
    cx.set_value("mvn-core.small_solve_us", batched * 1e6 / BATCH as f64);
    cx.set_value("mvn-core.batch_gain", single / batched);

    let lines: Vec<String> = problems
        .iter()
        .zip(0u64..)
        .map(|(p, id)| render_solve_request(id, &specs[id as usize % specs.len()], &p.a, &p.b))
        .collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    cx.set_value("wire.req_bytes", bytes as f64 / BATCH as f64);
    let parse = time_per_call(budget_s, || {
        for line in &lines {
            black_box(Json::parse(line).expect("rendered request parses"));
        }
    });
    cx.set_value("wire.parse_us", parse * 1e6 / BATCH as f64);
    let render = time_per_call(budget_s, || {
        for (p, id) in problems.iter().zip(0u64..) {
            black_box(render_solve_request(id, &specs[0], &p.a, &p.b));
        }
    });
    cx.set_value("wire.render_us", render * 1e6 / BATCH as f64);
}

/// The per-batch time budget and the probe input stream. A latency-bound
/// workload leaves the cores idling at a low clock, and the probes are too
/// short to bring it up: spend a moment at full rate first, so their numbers
/// do not depend on what ran before.
fn start(cx: &Run) -> (f64, Rng) {
    let smoke = cx.opts.smoke;
    peak_gflops(if smoke { 0.0 } else { 0.2 });
    (
        if smoke { 0.002 } else { 0.02 },
        Rng::new(cx.seed(), Stream::Probe),
    )
}
