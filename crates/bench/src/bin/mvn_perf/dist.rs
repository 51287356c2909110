//! `dist_dense`: `mvn_dist::solve_dense` across 2 worker processes of one
//! thread each — the only process count two cores can time honestly. The
//! workers are this binary re-invoked as `mvn_perf worker <addr>`.

use crate::pmvn::Inputs;
use crate::run::{timed, Run};
use crate::stats;
use mvn_core::MvnResult;
use mvn_dist::{solve_dense, DistConfig, DistReport};

const NODES: usize = 2;
/// The distributed answer must equal the single-process engine's to this
/// relative tolerance (the runtime promises bitwise identity).
const IDENTITY_REL_TOL: f64 = 1e-12;

struct Shape {
    side: usize,
    nb: usize,
    samples: usize,
    warmups: usize,
    reps: usize,
}

/// n = 400 in 4×4 tiles. Every remote tile fetch stalls on the loopback for
/// a delayed-ACK quantum (4 ms or 40 ms, see [`Run::settle`]), so a
/// repetition's wall is a random stall count times that quantum: twenty
/// short repetitions give a far steadier median than three n = 1,600 ones
/// (whose medians ranged 5.9–7.2 s run to run) in a third of the time.
const FULL: Shape = Shape {
    side: 20,
    nb: 100,
    samples: 1000,
    warmups: 2,
    reps: 20,
};
const SMOKE: Shape = Shape {
    side: 12,
    nb: 36,
    samples: 128,
    warmups: 1,
    reps: 1,
};

fn dist_config(nodes: usize) -> DistConfig {
    let exe = std::env::current_exe().expect("path of this binary");
    DistConfig::new(
        nodes,
        vec![exe.to_string_lossy().into_owned(), "worker".to_string()],
    )
}

/// One repetition: assemble, then factor + sweep across `nodes` workers.
fn rep(cx: &Run, inp: &Inputs, nb: usize, nodes: usize, rep: u64) -> DistReport {
    let _rep = cx.span("rep", rep);
    let sigma = {
        let _s = cx.span("assemble", rep);
        inp.assemble_dense(nb)
    };
    let _s = cx.span("solve_dense", rep);
    let cfg = inp.engine.config();
    solve_dense(&sigma, &inp.a, &inp.b, cfg, &dist_config(nodes)).expect("distributed solve")
}

/// The same problem on the single-process engine.
fn engine_solve(inp: &Inputs, nb: usize) -> MvnResult {
    let factor = inp
        .engine
        .factor_dense(inp.assemble_dense(nb))
        .expect("exponential covariance is SPD");
    inp.engine.solve(&factor, &inp.a, &inp.b)
}

fn max_s(ns: &[u64]) -> f64 {
    ns.iter().copied().max().unwrap_or(0) as f64 * 1e-9
}

pub fn run(cx: &mut Run) {
    let shape = if cx.opts.smoke { &SMOKE } else { &FULL };
    let (inp, setup_wall) = cx.setup(|cx| Inputs::build(cx, shape.side, shape.samples));
    let (reference, engine_s) = timed(|| engine_solve(&inp, shape.nb));
    cx.settle();
    let (_, warm_wall) = timed(|| {
        for _ in 0..shape.warmups {
            rep(cx, &inp, shape.nb, NODES, 0);
        }
    });
    let setup_s = setup_wall + engine_s + warm_wall;

    let mut walls = Vec::new();
    for r in 1..=cx.reps(shape.reps) {
        let (report, wall) = timed(|| rep(cx, &inp, shape.nb, NODES, r as u64));
        let p = report.result.prob;
        let ok = (p - reference.prob).abs() <= IDENTITY_REL_TOL * reference.prob.abs()
            && report.recoveries == 0;
        cx.check(ok, || {
            format!(
                "repetition {r}: distributed {p} vs engine {} with {} recoveries",
                reference.prob, report.recoveries
            )
        });
        walls.push(wall);
    }
    if !cx.opts.trace {
        cx.set_end_to_end_batch(setup_s, &walls);
        return;
    }

    let (report, spans) = cx.traced(|cx| rep(cx, &inp, shape.nb, NODES, 99));
    cx.set_trace_guards(&spans, stats::median(&walls));
    cx.set_value("geostat.assemble_exp_s", cx.phase_s(&spans, "assemble"));
    cx.set_value("mvn-dist.compute_s", max_s(&report.per_node_compute_ns));
    cx.set_value(
        "mvn-dist.fetch_wait_s",
        max_s(&report.per_node_fetch_wait_ns),
    );
    cx.set_value("mvn-dist.serve_s", max_s(&report.per_node_serve_ns));
    cx.set_value("mvn-dist.comm_mb", report.comm_bytes as f64 / 1e6);
    cx.set_value("mvn-dist.fetches", report.fetches as f64);
    cx.set_value("mvn-dist.recoveries", report.recoveries as f64);
    for (rank, lane) in report.worker_traces.into_iter().enumerate() {
        cx.lanes.push((rank as u64 + 1, lane));
    }
    // One worker process: what launching, scattering and gathering cost
    // with no tile ever crossing a process boundary.
    let (_, wall_p1) = timed(|| rep(cx, &inp, shape.nb, 1, 100));
    cx.set_value("mvn-dist.engine_s", engine_s);
    cx.set_value("mvn-dist.wall_p1_s", wall_p1);
    cx.set_value("mvn-dist.launch_s", wall_p1 - engine_s);
    cx.set_value(
        "mvn-dist.speedup_vs_engine",
        engine_s / stats::median(&walls),
    );
}
