//! Observability contract of the multi-process runtime: tracing must be
//! provably non-perturbing (the traced solve is bitwise identical to both
//! the untraced solve and the single-process engine), the per-rank trace
//! lanes carried home in [`DistReport::worker_traces`] must be balanced
//! span streams, and the per-rank phase breakdown must be populated even
//! with tracing off (the phase clocks are always-on).
//!
//! Tests that toggle the process-wide trace recorder serialize on
//! [`TRACE_LOCK`]; the phase test takes it too so a concurrently-enabled
//! recorder cannot leak `MVN_DIST_TRACE` into its workers.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mvn_core::{MvnConfig, MvnEngine, MvnResult};
use mvn_dist::{solve, DistConfig, DistReport};
use tlr::TlrMatrix;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 60;
const NB: usize = 16;

fn cov(i: usize, j: usize) -> f64 {
    let d = (i as f64 - j as f64).abs() / N as f64;
    (-d / 0.3).exp()
}

fn limits() -> (Vec<f64>, Vec<f64>) {
    let a = (0..N).map(|i| -4.0 - (i % 5) as f64 * 0.1).collect();
    let b = (0..N).map(|i| 0.5 + (i % 3) as f64 * 0.25).collect();
    (a, b)
}

fn cfg() -> MvnConfig {
    MvnConfig {
        sample_size: 256,
        panel_width: 32,
        seed: 20240731,
    }
}

fn dist_config(nodes: usize) -> DistConfig {
    DistConfig::new(
        nodes,
        vec![env!("CARGO_BIN_EXE_mvn_dist_worker").to_string()],
    )
}

fn assert_bitwise(tag: &str, got: MvnResult, want: MvnResult) {
    assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "{tag}: prob");
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{tag}: std_error"
    );
}

/// Replay one rank's event stream: Begin/End must pair up label-exact per
/// thread (spans nest), and every span must be closed by the end of the
/// stream. Returns the number of spans seen so callers can assert coverage.
fn assert_lane_balanced(rank: usize, lane: &[obs::Event]) -> usize {
    let mut stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut spans = 0usize;
    for e in lane {
        match e.kind {
            obs::EventKind::Begin => {
                stacks.entry(e.tid).or_default().push(e.label);
                spans += 1;
            }
            obs::EventKind::End => {
                let top = stacks.entry(e.tid).or_default().pop();
                assert_eq!(
                    top,
                    Some(e.label),
                    "rank {rank} tid {}: End({}) does not close the innermost span",
                    e.tid,
                    e.label
                );
            }
            obs::EventKind::Complete { .. } => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "rank {rank} tid {tid}: unclosed spans {stack:?}"
        );
    }
    spans
}

#[test]
fn tracing_is_bitwise_non_perturbing_and_lanes_are_balanced() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();
    let nodes = 2;

    let engine = MvnEngine::with_config(cfg).unwrap();
    let reference = engine.solve(&engine.factor(sigma.clone()).unwrap(), &a, &b);

    let plain = solve(&sigma, &a, &b, &cfg, &dist_config(nodes)).unwrap();
    assert_bitwise("untraced dist", plain.result, reference);
    assert!(
        plain.worker_traces.iter().all(Vec::is_empty),
        "untraced solves must not carry trace events over the wire"
    );

    obs::set_enabled(true);
    let traced = solve(&sigma, &a, &b, &cfg, &dist_config(nodes));
    obs::set_enabled(false);
    let coordinator_lane = obs::take_events();
    let traced = traced.unwrap();

    assert_bitwise("traced dist", traced.result, reference);
    assert_bitwise("traced vs untraced", traced.result, plain.result);

    // The coordinator propagates MVN_DIST_TRACE into every worker it
    // spawns, so each rank must send a non-empty, balanced lane home.
    assert_eq!(traced.worker_traces.len(), nodes);
    let mut spans = 0;
    for (rank, lane) in traced.worker_traces.iter().enumerate() {
        assert!(!lane.is_empty(), "rank {rank} sent no trace events");
        spans += assert_lane_balanced(rank, lane);
    }
    assert!(spans > 0, "workers must record factor/sweep spans");
    assert!(
        coordinator_lane
            .iter()
            .any(|e| e.label == "dist_solve" && matches!(e.kind, obs::EventKind::Complete { .. })),
        "the coordinator must record the dist_solve phase"
    );
}

#[test]
fn phase_breakdown_is_populated_without_tracing() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();
    let nodes = 2;

    let report: DistReport = solve(&sigma, &a, &b, &cfg, &dist_config(nodes)).unwrap();
    assert_eq!(report.per_node_compute_ns.len(), nodes);
    assert_eq!(report.per_node_fetch_wait_ns.len(), nodes);
    assert_eq!(report.per_node_serve_ns.len(), nodes);

    // The phase clocks are always-on: compute time accrues on every rank,
    // and at two nodes tiles cross the wire, so somebody waited and
    // somebody served.
    assert!(
        report.per_node_compute_ns.iter().all(|&ns| ns > 0),
        "every rank runs kernels: {:?}",
        report.per_node_compute_ns
    );
    assert!(report.fetches > 0, "two nodes must exchange tiles");
    assert!(
        report.per_node_fetch_wait_ns.iter().sum::<u64>() > 0,
        "remote fetches imply somebody blocked waiting"
    );
    assert!(
        report.per_node_serve_ns.iter().sum::<u64>() > 0,
        "remote fetches imply somebody served"
    );
}

#[test]
fn dist_counters_land_in_the_metrics_registry() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();

    let solves_before = obs::counter("mvn_dist_solves_total").get();
    let fetches_before = obs::counter("mvn_dist_fetches_total").get();
    let report = solve(&sigma, &a, &b, &cfg, &dist_config(2)).unwrap();

    assert_eq!(
        obs::counter("mvn_dist_solves_total").get(),
        solves_before + 1
    );
    assert_eq!(
        obs::counter("mvn_dist_fetches_total").get(),
        fetches_before + report.fetches as u64
    );
    let text = obs::render_prometheus(&[]);
    for name in [
        "mvn_dist_solves_total",
        "mvn_dist_fetches_total",
        "mvn_dist_comm_bytes_total",
        "mvn_dist_recoveries_total",
        "mvn_dist_solve_wall_ns_count",
    ] {
        assert!(text.contains(name), "metrics exposition must list {name}");
    }
}
