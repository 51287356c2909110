//! Real multi-process strong-scaling replay of Fig. 7 (`mvn-dist` runtime).
//!
//! The binary launches one worker process per node on the local host
//! (re-invoking itself with the `worker` subcommand), runs the distributed
//! factor+sweep, verifies the probability is bitwise identical to the
//! single-process engine, and prints the measured wall time, transfer
//! volume and fetch count per node count. The paper's 512-node Cray XC40
//! runs are not reproduced: every process here shares one host's cores.
//!
//! Modes:
//! * `mvn_dist worker <addr>` — internal: run as a worker process.
//! * `mvn_dist --smoke`      — 4-process bitwise smoke test (CI).
//! * `mvn_dist --chaos <seed>` — fault-injected smoke: derive a planned
//!   kill/sever from the seed ([`mvn_dist::faults::FaultPlan::from_seed`]),
//!   run dense and TLR under the default recovery (a lost rank is
//!   respawned), and verify the recovered probabilities are still bitwise
//!   identical to the engine. Combinable with `--smoke` (CI runs both).
//! * `mvn_dist [--full]`     — the scaling replay (1..=4 nodes; `--full`
//!   adds 8 and grows the problem).
//!
//! Observability flags (combinable with any mode above):
//! * `--trace <out.json>` — enable workspace tracing, merge the coordinator's
//!   own timeline (pid 0) with every collected worker lane (one pid per
//!   worker report stream) and write a Chrome-trace JSON file loadable in
//!   `chrome://tracing` / Perfetto.
//! * `--metrics` — print the process-wide metrics registry to stderr in
//!   Prometheus text format after the run.
//!
//! Each solve also prints a `#`-prefixed per-rank phase table (compute vs
//! tile-fetch-wait vs serve, the Fig. 7 decomposition), and the chaos mode
//! prints the measured detection-to-recovered wall time.

use mvn_core::{MvnConfig, MvnEngine, MvnResult};
use mvn_dist::faults::FaultPlan;
use mvn_dist::{solve, DistConfig, DistReport};
use std::time::Duration;
use tlr::{CompressionTol, TlrMatrix};

fn cov(n: usize) -> impl Fn(usize, usize) -> f64 + Sync {
    move |i, j| {
        let d = (i as f64 - j as f64).abs() / n as f64;
        (-d / 0.3).exp()
    }
}

/// The sampling settings and exceedance limits (`[0, +∞)` at every site)
/// every mode solves with.
fn problem(n: usize, qmc: usize) -> (MvnConfig, Vec<f64>, Vec<f64>) {
    let cfg = MvnConfig {
        sample_size: qmc,
        seed: 20240518,
        ..Default::default()
    };
    (cfg, vec![0.0; n], vec![f64::INFINITY; n])
}

fn dist_config(nodes: usize) -> DistConfig {
    let exe = std::env::current_exe()
        .expect("bench binary path")
        .to_string_lossy()
        .into_owned();
    let mut dc = DistConfig::new(nodes, vec![exe, "worker".to_string()]);
    dc.timeout = Duration::from_secs(600);
    dc
}

/// Accumulates worker trace lanes across solves so `--trace` can write one
/// merged Chrome-trace file at exit. Each non-empty per-rank event stream
/// from a [`DistReport`] becomes its own pid lane (worker processes from
/// different solves are genuinely different OS processes); the coordinator's
/// own events are prepended as pid 0 at write time.
#[derive(Default)]
struct TraceOut {
    groups: Vec<(u64, Vec<obs::Event>)>,
}

impl TraceOut {
    fn collect(&mut self, report: &DistReport) {
        for lane in &report.worker_traces {
            if !lane.is_empty() {
                self.groups
                    .push((self.groups.len() as u64 + 1, lane.clone()));
            }
        }
    }

    fn write(mut self, path: &str) {
        obs::set_enabled(false);
        // Pool threads may be mid-drop on an open span guard (guards emit
        // End even after disable); give them a beat so the coordinator lane
        // is balanced.
        std::thread::sleep(Duration::from_millis(100));
        self.groups.insert(0, (0, obs::take_events()));
        let lanes: Vec<(u64, &[obs::Event])> = self
            .groups
            .iter()
            .map(|(pid, events)| (*pid, events.as_slice()))
            .collect();
        let json = obs::export_chrome_trace(&lanes);
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!(
                "# trace: wrote {} lanes ({} bytes) to {path}",
                lanes.len(),
                json.len()
            ),
            Err(e) => {
                eprintln!("# trace: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Print the measured per-rank phase decomposition (the Fig. 7 view: where
/// did each process spend its time) as `#`-prefixed lines.
fn print_phase_table(tag: &str, report: &DistReport) {
    let s = |ns: u64| ns as f64 / 1e9;
    println!(
        "# {tag} phases: {:>4} {:>12} {:>14} {:>12}",
        "rank", "compute (s)", "fetch-wait (s)", "serve (s)"
    );
    for rank in 0..report.per_node_compute_ns.len() {
        println!(
            "# {tag} phases: {rank:>4} {:>12.4} {:>14.4} {:>12.4}",
            s(report.per_node_compute_ns[rank]),
            s(report.per_node_fetch_wait_ns[rank]),
            s(report.per_node_serve_ns[rank]),
        );
    }
}

fn check_bitwise(tag: &str, got: MvnResult, want: MvnResult) {
    if got.prob.to_bits() != want.prob.to_bits()
        || got.std_error.to_bits() != want.std_error.to_bits()
    {
        eprintln!(
            "{tag}: distributed result ({} ± {}) is not bitwise identical to the engine ({} ± {})",
            got.prob, got.std_error, want.prob, want.std_error
        );
        std::process::exit(1);
    }
}

fn scaling(full: bool, only_nodes: Option<usize>, trace: &mut TraceOut) {
    let (n, nb, qmc) = if full {
        (400, 40, 10_000)
    } else {
        (120, 24, 1_000)
    };
    let default_counts: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 2, 4] };
    let single;
    let node_counts: &[usize] = match only_nodes {
        Some(k) => {
            single = [k];
            &single
        }
        None => default_counts,
    };
    let (cfg, a, b) = problem(n, qmc);
    let tol = CompressionTol::Absolute(1e-8);

    let dense = TlrMatrix::assemble(n, nb, None, cov(n));
    let tlr = TlrMatrix::assemble(n, nb, Some(tol), cov(n));

    let engine = MvnEngine::with_config(cfg).expect("engine config");
    let dense_ref = engine.solve(&engine.factor(dense.clone()).expect("SPD"), &a, &b);
    let tlr_ref = engine.solve(&engine.factor(tlr.clone()).expect("SPD"), &a, &b);

    println!("# mvn-dist strong-scaling replay: n={n}, nb={nb}, QMC={qmc}");
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>10}",
        "kind", "nodes", "wall (s)", "comm (KiB)", "fetches"
    );
    for &nodes in node_counts {
        for (kind_name, factor, reference) in [("dense", &dense, dense_ref), ("tlr", &tlr, tlr_ref)]
        {
            let report: DistReport = solve(factor, &a, &b, &cfg, &dist_config(nodes))
                .unwrap_or_else(|e| {
                    eprintln!("{kind_name} x{nodes}: {e}");
                    std::process::exit(1);
                });
            check_bitwise(&format!("{kind_name} x{nodes}"), report.result, reference);
            trace.collect(&report);
            print_phase_table(&format!("{kind_name} x{nodes}"), &report);
            let wall = report.wall.as_secs_f64();
            println!(
                "{kind_name:>6} {nodes:>7} {wall:>12.3} {:>12.1} {:>10}",
                report.comm_bytes as f64 / 1024.0,
                report.fetches
            );
        }
    }
}

fn smoke(trace: &mut TraceOut) {
    let (n, nb, qmc, nodes) = (60, 16, 256, 4);
    let (cfg, a, b) = problem(n, qmc);
    let dense = TlrMatrix::assemble(n, nb, None, cov(n));
    let tol = CompressionTol::Absolute(1e-8);
    let tlr = TlrMatrix::assemble(n, nb, Some(tol), cov(n));

    let engine = MvnEngine::with_config(cfg).expect("engine config");
    let dense_ref = engine.solve(&engine.factor(dense.clone()).expect("SPD"), &a, &b);
    let tlr_ref = engine.solve(&engine.factor(tlr.clone()).expect("SPD"), &a, &b);

    let dr = solve(&dense, &a, &b, &cfg, &dist_config(nodes)).unwrap_or_else(|e| {
        eprintln!("dense smoke: {e}");
        std::process::exit(1);
    });
    check_bitwise("dense smoke", dr.result, dense_ref);
    trace.collect(&dr);
    print_phase_table("dense smoke", &dr);

    let tr = solve(&tlr, &a, &b, &cfg, &dist_config(nodes)).unwrap_or_else(|e| {
        eprintln!("tlr smoke: {e}");
        std::process::exit(1);
    });
    check_bitwise("tlr smoke", tr.result, tlr_ref);
    trace.collect(&tr);
    print_phase_table("tlr smoke", &tr);

    println!(
        "# smoke OK: {nodes} processes, dense p={} tlr p={}, bitwise identical to the engine",
        dr.result.prob, tr.result.prob
    );
}

/// Fault-injected smoke: derive a planned fault from the seed, run the
/// dense and TLR distributed solves under it, and require each recovered
/// probability to be bitwise identical to the engine's.
fn chaos(seed: u64, trace: &mut TraceOut) {
    let (n, nb, qmc, nodes) = (60usize, 16usize, 256usize, 4usize);
    let (cfg, a, b) = problem(n, qmc);
    let dense = TlrMatrix::assemble(n, nb, None, cov(n));
    let tol = CompressionTol::Absolute(1e-8);
    let tlr = TlrMatrix::assemble(n, nb, Some(tol), cov(n));

    let engine = MvnEngine::with_config(cfg).expect("engine config");
    let dense_ref = engine.solve(&engine.factor(dense.clone()).expect("SPD"), &a, &b);
    let tlr_ref = engine.solve(&engine.factor(tlr.clone()).expect("SPD"), &a, &b);

    // Tight bounds so the seeded kill point always lands inside the
    // victim's slice: every rank owns >= 2 factor tasks and >= 1 panel at
    // this problem size and node count.
    let faults = FaultPlan::from_seed(seed, nodes, 2, 1);
    println!("# chaos plan (seed {seed}): {}", faults.to_env());

    for kind in ["dense", "tlr"] {
        let mut dc = dist_config(nodes);
        dc.faults = faults.clone();
        let (report, reference) = match kind {
            "dense" => (solve(&dense, &a, &b, &cfg, &dc), dense_ref),
            _ => (solve(&tlr, &a, &b, &cfg, &dc), tlr_ref),
        };
        let report = report.unwrap_or_else(|e| {
            eprintln!("chaos {kind} (seed {seed}): {e}");
            std::process::exit(1);
        });
        check_bitwise(&format!("chaos {kind}"), report.result, reference);
        trace.collect(&report);
        print_phase_table(&format!("chaos {kind}"), &report);
        println!(
            "# chaos {kind}: {} recoveries, {} replayed tasks, {} reconnects, recovered in {:.3}s",
            report.recoveries,
            report.replayed_tasks,
            report.reconnects,
            report.recovery_wall.as_secs_f64()
        );
    }
    println!("# chaos OK: seed {seed}, recovered results bitwise identical to the engine");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => {
            let Some(addr) = args.get(1) else {
                eprintln!("usage: mvn_dist worker <coordinator-addr>");
                std::process::exit(2);
            };
            if let Err(e) = mvn_dist::run_worker(addr) {
                eprintln!("mvn_dist worker: {e}");
                std::process::exit(1);
            }
        }
        _ => {
            // `--trace <path>` turns on tracing before any solve so the
            // coordinator propagates MVN_DIST_TRACE into every worker it
            // spawns; lanes are merged and written once, at exit.
            let trace_path = args
                .iter()
                .position(|a| a == "--trace")
                .and_then(|i| args.get(i + 1))
                .cloned();
            if trace_path.is_some() {
                obs::set_enabled(true);
            }
            let mut trace = TraceOut::default();

            // `--chaos [seed]` is position-independent so CI can run
            // `--smoke --chaos 1` as one invocation.
            let chaos_seed = args.iter().position(|a| a == "--chaos").map(|i| {
                args.get(i + 1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1)
            });
            if args.iter().any(|a| a == "--smoke") {
                smoke(&mut trace);
            }
            if let Some(seed) = chaos_seed {
                chaos(seed, &mut trace);
            }
            if chaos_seed.is_none() && !args.iter().any(|a| a == "--smoke") {
                // `--nodes K` runs the replay at a single process count.
                let only_nodes = args
                    .iter()
                    .position(|a| a == "--nodes")
                    .and_then(|i| args.get(i + 1))
                    .and_then(|v| v.parse().ok());
                let full = args.iter().any(|a| a == "--full");
                scaling(full, only_nodes, &mut trace);
            }

            if let Some(path) = trace_path {
                trace.write(&path);
            }
            if args.iter().any(|a| a == "--metrics") {
                eprint!("{}", obs::render_prometheus(&[]));
            }
        }
    }
}
