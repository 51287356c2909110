//! End-to-end tests of the real multi-process runtime: the distributed
//! probability must be **bitwise identical** to the single-process
//! [`MvnEngine`] for dense and TLR factors across process and thread counts,
//! and a worker crash must surface as a typed error
//! without hanging the coordinator.

use std::time::{Duration, Instant};

use mvn_core::{MvnConfig, MvnEngine, MvnResult};
use mvn_dist::{solve, DistConfig, DistError, FaultAction, FaultPlan};
use qmc::SampleKind;
use tlr::{CompressionTol, TlrMatrix};

const N: usize = 60;
const NB: usize = 16;

/// An exponential-kernel covariance on a 1-D grid: SPD, with off-diagonal
/// decay so TLR compression actually truncates.
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
        sample_kind: SampleKind::RichtmyerLattice,
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
    assert_eq!(
        got.prob.to_bits(),
        want.prob.to_bits(),
        "{tag}: prob {} != engine {}",
        got.prob,
        want.prob
    );
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{tag}: std_error {} != engine {}",
        got.std_error,
        want.std_error
    );
    assert_eq!(got.samples, want.samples, "{tag}: sample count");
}

#[test]
fn dense_matches_engine_bitwise_across_process_counts() {
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();

    let engine = MvnEngine::with_config(cfg).unwrap();
    let factor = engine.factor(sigma.clone()).unwrap();
    let reference = engine.solve(&factor, &a, &b);
    assert!(reference.prob > 0.0 && reference.prob < 1.0);

    for nodes in [1usize, 2, 4] {
        let report = solve(&sigma, &a, &b, &cfg, &dist_config(nodes))
            .unwrap_or_else(|e| panic!("dense solve with {nodes} nodes: {e}"));
        assert_bitwise(&format!("dense x{nodes}"), report.result, reference);
        assert_eq!(report.nodes, nodes);
        if nodes == 1 {
            // One process owns everything: nothing crosses the wire.
            assert_eq!(report.comm_bytes, 0, "single node must not fetch");
        } else {
            assert!(report.comm_bytes > 0, "multi-node runs must transfer tiles");
        }
    }
}

#[test]
fn dense_is_thread_invariant() {
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();

    let engine = MvnEngine::with_config(cfg).unwrap();
    let factor = engine.factor(sigma.clone()).unwrap();
    let reference = engine.solve(&factor, &a, &b);

    for workers in [1usize, 2] {
        let mut dc = dist_config(2);
        dc.workers_per_node = workers;
        let report =
            solve(&sigma, &a, &b, &cfg, &dc).unwrap_or_else(|e| panic!("workers {workers}: {e}"));
        assert_bitwise(
            &format!("dense workers={workers}"),
            report.result,
            reference,
        );
    }
}

#[test]
fn tlr_matches_engine_bitwise_including_prime_node_counts() {
    let tol = CompressionTol::Absolute(1e-8);
    let sigma = TlrMatrix::assemble(N, NB, Some((tol, usize::MAX)), cov);
    let (a, b) = limits();
    let cfg = cfg();

    let engine = MvnEngine::with_config(cfg).unwrap();
    let factor = engine.factor(sigma.clone()).unwrap();
    let reference = engine.solve(&factor, &a, &b);
    assert!(reference.prob > 0.0 && reference.prob < 1.0);

    // 3 nodes degenerates to a 1x3 process grid — the awkward-case coverage
    // of the ownership property tests, exercised for real.
    for nodes in [1usize, 3, 4] {
        let report = solve(&sigma, &a, &b, &cfg, &dist_config(nodes))
            .unwrap_or_else(|e| panic!("tlr solve with {nodes} nodes: {e}"));
        assert_bitwise(&format!("tlr x{nodes}"), report.result, reference);
    }
}

#[test]
fn worker_crash_mid_factor_is_a_typed_error_not_a_hang() {
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let cfg = cfg();

    let mut dc = dist_config(2);
    dc.timeout = Duration::from_secs(60);
    // Pin the pre-recovery fail-stop policy: this test asserts the *typed
    // error* path; the recovery paths have their own test matrix
    // (tests/dist_recovery.rs).
    dc.recovery = mvn_dist::Recovery::Off;
    dc.faults = FaultPlan {
        actions: vec![FaultAction::KillAtTask { rank: 1, after: 2 }],
    };

    let start = Instant::now();
    let err = solve(&sigma, &a, &b, &cfg, &dc).expect_err("a crashing worker must fail the solve");
    // The lost rank is detected either directly (its connection drops) or
    // via the surviving rank's failed tile fetch — both are typed, neither
    // may block until the deadline.
    match err {
        DistError::WorkerDied { .. } | DistError::WorkerFailed { .. } => {}
        other => panic!("expected a worker-loss error, got: {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(50),
        "crash detection must not wait for the deadline"
    );
}

#[test]
fn invalid_limits_are_rejected_before_any_spawn() {
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, _) = limits();
    let b_bad = vec![0.0; N - 1];
    let err = solve(&sigma, &a, &b_bad, &cfg(), &dist_config(2))
        .expect_err("mismatched limits must fail");
    assert!(matches!(err, DistError::InvalidProblem(_)), "got: {err}");
}
