//! `pmvn_dense` and `pmvn_tlr`: one high-dimensional MVN probability, inputs
//! to answer, through the engine front door (assemble → factor → sweep).

use crate::gen::{self, Rng, Stream};
use crate::probes;
use crate::run::{label_delta, timed, Run};
use crate::stats;
use geostat::{regular_grid, CovarianceKernel, Location};
use mvn_core::{Factor, MvnConfig, MvnEngine, MvnResult};
use task_runtime::PoolStats;
use tile_la::SymTileMatrix;
use tlr::{CompressionTol, TlrMatrix};

/// Worker threads of every engine pool the benchmark starts (= cores here).
pub const ENGINE_WORKERS: usize = 2;
const RANGE: f64 = 0.1;
const NUGGET: f64 = 1e-9;
const TLR_TOL: f64 = 1e-3;

struct Shape {
    side: usize,
    nb: usize,
    samples: usize,
    max_rank: usize,
    reps: usize,
}

const DENSE: Shape = Shape {
    side: 70,
    nb: 100,
    samples: 500,
    max_rank: 0,
    reps: 4,
};
const TLR: Shape = Shape {
    side: 40,
    nb: 100,
    samples: 1000,
    max_rank: 50,
    reps: 3,
};
const SMOKE: Shape = Shape {
    side: 12,
    nb: 36,
    samples: 512,
    max_rank: 18,
    reps: 1,
};

/// An engine with the benchmark's pool size and this run's QMC seed.
pub fn engine(seed: u64, workers: usize, samples: usize) -> MvnEngine {
    MvnEngine::builder()
        .workers(workers)
        .sample_size(samples)
        .seed(gen::engine_seed(seed))
        .build()
        .expect("engine configuration is valid")
}

/// The exact anchor of every batch workload's set-up: the equicorrelated
/// (ρ = ½) orthant probability in n = 64 dimensions is 1/65; the dense and
/// the TLR engine answers must each be within 5 standard errors of it.
pub fn anchor_checks(cx: &mut Run, engine: &MvnEngine) {
    const N: usize = 64;
    let truth = 1.0 / (N as f64 + 1.0);
    let entry = |i: usize, j: usize| if i == j { 1.0 } else { 0.5 };
    let cfg = MvnConfig {
        sample_size: 4096,
        ..*engine.config()
    };
    let (a, b) = (vec![0.0; N], vec![f64::INFINITY; N]);
    let dense = engine
        .factor_dense(SymTileMatrix::from_fn(N, 32, entry))
        .expect("equicorrelated matrix is SPD");
    let tlr = engine
        .factor_tlr(TlrMatrix::from_fn(
            N,
            32,
            CompressionTol::Absolute(TLR_TOL),
            16,
            entry,
        ))
        .expect("equicorrelated matrix is SPD");
    for (kind, factor) in [("dense", &dense), ("tlr", &tlr)] {
        let r = engine.solve_factored_with(factor, &a, &b, &cfg);
        cx.check((r.prob - truth).abs() <= r.half_width(5.0), || {
            format!(
                "{kind} anchor: p = {} ± {} but 1/65 = {truth}",
                r.prob, r.std_error
            )
        });
    }
}

/// Grid, exponential kernel, seeded limits and a 2-worker engine whose
/// set-up passed the anchor: the inputs of `pmvn_*` and `dist_dense`.
pub struct Inputs {
    pub locs: Vec<Location>,
    pub kernel: CovarianceKernel,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub engine: MvnEngine,
}

impl Inputs {
    pub fn build(cx: &mut Run, side: usize, samples: usize) -> Self {
        let locs = regular_grid(side, side);
        let mut rng = Rng::new(cx.seed(), Stream::Limits);
        let a = gen::lower_limits(&mut rng, locs.len(), -3.5, 0.25);
        let b = vec![f64::INFINITY; locs.len()];
        let engine = engine(cx.seed(), ENGINE_WORKERS, samples);
        anchor_checks(cx, &engine);
        Self {
            locs,
            kernel: CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: RANGE,
            },
            a,
            b,
            engine,
        }
    }

    /// The dense tiled covariance of the problem.
    pub fn assemble_dense(&self, nb: usize) -> SymTileMatrix {
        self.kernel.tiled_covariance(&self.locs, nb, NUGGET)
    }
}

#[derive(Clone, Copy)]
enum Backend {
    Dense,
    Tlr,
}

/// One repetition's answer, its factor (dropped by the caller once the clock
/// has stopped) and the pool counters around the factorization and sweep.
struct Rep {
    result: MvnResult,
    factor: Factor,
    pool: [PoolStats; 3],
}

/// One repetition on `engine`: assemble → factor → sweep, each in its span.
fn solve_rep(
    cx: &Run,
    engine: &MvnEngine,
    inp: &Inputs,
    shape: &Shape,
    backend: Backend,
    cfg: &MvnConfig,
    rep: u64,
) -> Rep {
    let _rep = cx.span("rep", rep);
    let p0 = engine.pool_stats();
    let factor = match backend {
        Backend::Dense => {
            let sigma = {
                let _s = cx.span("assemble", rep);
                inp.assemble_dense(shape.nb)
            };
            let _s = cx.span("factor", rep);
            engine.factor_dense(sigma).expect("covariance is SPD")
        }
        Backend::Tlr => {
            let sigma = {
                let _s = cx.span("assemble", rep);
                inp.kernel.tlr_covariance(
                    &inp.locs,
                    shape.nb,
                    NUGGET,
                    CompressionTol::Absolute(TLR_TOL),
                    shape.max_rank,
                )
            };
            let _s = cx.span("factor", rep);
            engine
                .factor_tlr(sigma)
                .expect("compressed covariance is SPD")
        }
    };
    let p1 = engine.pool_stats();
    let result = {
        let _s = cx.span("sweep", rep);
        engine.solve_factored_with(&factor, &inp.a, &inp.b, cfg)
    };
    Rep {
        result,
        factor,
        pool: [p0, p1, engine.pool_stats()],
    }
}

fn sane(r: &MvnResult) -> bool {
    (0.0..=1.0).contains(&r.prob) && r.std_error.is_finite()
}

/// Per-kernel busy seconds of a factorization from the pool's label
/// counters; returns the summed busy time.
fn set_factor_kernels(cx: &mut Run, before: &PoolStats, after: &PoolStats) -> f64 {
    let mut busy = 0.0;
    let mut tasks = 0;
    for (label, metric) in [
        ("gemm", "tile-la.gemm_busy_s"),
        ("trsm", "tile-la.trsm_busy_s"),
        ("syrk", "tile-la.syrk_busy_s"),
        ("potrf", "tile-la.potrf_busy_s"),
        ("lr_gemm", "tlr.lr_gemm_busy_s"),
    ] {
        let (s, count) = label_delta(before, after, label);
        cx.set_value(metric, s);
        busy += s;
        tasks += count;
    }
    cx.set_value("tile-la.tasks", tasks as f64);
    busy
}

pub fn run_dense(cx: &mut Run) {
    let shape = if cx.opts.smoke { &SMOKE } else { &DENSE };
    let (inp, setup_wall) = cx.setup(|cx| Inputs::build(cx, shape.side, shape.samples));
    let cfg = *inp.engine.config();
    let warm_cfg = MvnConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    // The warm-up repetition runs on another QMC seed, so the timed answer
    // can be held against an independent estimate of the same probability.
    let (warm, warm_wall) =
        timed(|| solve_rep(cx, &inp.engine, &inp, shape, Backend::Dense, &warm_cfg, 0));
    let warm = warm.result;
    let setup_s = setup_wall + warm_wall;

    let mut walls = Vec::new();
    for rep in 1..=cx.reps(shape.reps) {
        let (out, wall) = timed(|| {
            solve_rep(
                cx,
                &inp.engine,
                &inp,
                shape,
                Backend::Dense,
                &cfg,
                rep as u64,
            )
        });
        let r = out.result;
        let tol = 5.0 * (r.std_error.powi(2) + warm.std_error.powi(2)).sqrt();
        let ok = sane(&r) && (r.prob - warm.prob).abs() <= tol;
        cx.check(ok, || {
            format!("repetition {rep}: {r:?} disagrees with the warm-up {warm:?}")
        });
        walls.push(wall);
    }
    if !cx.opts.trace {
        cx.set_end_to_end_batch(setup_s, &walls);
        return;
    }

    let (out, spans) =
        cx.traced(|cx| solve_rep(cx, &inp.engine, &inp, shape, Backend::Dense, &cfg, 99));
    cx.set_trace_guards(&spans, stats::median(&walls));
    let n = inp.locs.len() as f64;
    let factor_s = cx.phase_s(&spans, "factor");
    let sweep_s = cx.phase_s(&spans, "sweep");
    cx.set_value("geostat.assemble_exp_s", cx.phase_s(&spans, "assemble"));
    cx.set_value("tile-la.factor_s", factor_s);
    cx.set_value("tile-la.factor_gflops", n * n * n / 3.0 / factor_s * 1e-9);
    cx.set_value("mvn-core.sweep_s", sweep_s);
    let factor_busy = set_factor_kernels(cx, &out.pool[0], &out.pool[1]);
    let (sweep_busy, _) = label_delta(&out.pool[1], &out.pool[2], "panel_sweep");
    cx.set_value(
        "task-runtime.busy_frac",
        (factor_busy + sweep_busy) / (ENGINE_WORKERS as f64 * (factor_s + sweep_s)),
    );
    cx.set_value(
        "mvn-core.sweep_ns_per_row_chain",
        sweep_busy * 1e9 / (n * shape.samples as f64),
    );
    cx.set_value(
        "mvn-core.rel_std_error",
        out.result.std_error / out.result.prob,
    );
    drop(out);

    // The plain single-threaded baseline: the same repetition on one worker.
    let serial = engine(cx.seed(), 1, shape.samples);
    let (out, serial_wall) =
        timed(|| solve_rep(cx, &serial, &inp, shape, Backend::Dense, &cfg, 100));
    drop(out);
    cx.set_value(
        "task-runtime.speedup_2t",
        serial_wall / stats::median(&walls),
    );
    probes::machine_and_tile_kernels(cx);
}

pub fn run_tlr(cx: &mut Run) {
    let shape = if cx.opts.smoke { &SMOKE } else { &TLR };
    let (inp, setup_wall) = cx.setup(|cx| Inputs::build(cx, shape.side, shape.samples));
    let cfg = *inp.engine.config();
    // A dense solve of the same problem and seed: the reference the TLR
    // answer is checked against, and the base of `tlr.time_vs_dense`.
    let (dense, dense_wall) =
        timed(|| solve_rep(cx, &inp.engine, &inp, shape, Backend::Dense, &cfg, 0));
    let dense = dense.result;
    let (warm, warm_wall) =
        timed(|| solve_rep(cx, &inp.engine, &inp, shape, Backend::Tlr, &cfg, 0));
    drop(warm);
    let setup_s = setup_wall + dense_wall + warm_wall;

    let agrees = |r: &MvnResult| (r.prob - dense.prob).abs() <= 5.0 * r.std_error + TLR_TOL;
    let mut walls = Vec::new();
    for rep in 1..=cx.reps(shape.reps) {
        let (out, wall) =
            timed(|| solve_rep(cx, &inp.engine, &inp, shape, Backend::Tlr, &cfg, rep as u64));
        let r = out.result;
        let ok = sane(&r) && agrees(&r);
        cx.check(ok, || {
            format!("repetition {rep}: TLR {r:?} disagrees with dense {dense:?}")
        });
        walls.push(wall);
    }
    if !cx.opts.trace {
        cx.set_end_to_end_batch(setup_s, &walls);
        return;
    }

    let (out, spans) =
        cx.traced(|cx| solve_rep(cx, &inp.engine, &inp, shape, Backend::Tlr, &cfg, 99));
    cx.set_trace_guards(&spans, stats::median(&walls));
    let n = inp.locs.len();
    cx.set_value("tlr.assemble_compress_s", cx.phase_s(&spans, "assemble"));
    cx.set_value("tlr.factor_s", cx.phase_s(&spans, "factor"));
    cx.set_value("tlr.sweep_s", cx.phase_s(&spans, "sweep"));
    set_factor_kernels(cx, &out.pool[0], &out.pool[1]);
    cx.set_value(
        "tlr.stored_ratio",
        out.factor.stored_elements() as f64 / (n * (n + 1) / 2) as f64,
    );
    cx.set_value(
        "tlr.abs_diff_vs_dense",
        (out.result.prob - dense.prob).abs(),
    );
    cx.set_value("tlr.time_vs_dense", stats::median(&walls) / dense_wall);
    cx.set_value(
        "mvn-core.rel_std_error",
        out.result.std_error / out.result.prob,
    );
    drop(out);
    probes::compress(cx);
}
