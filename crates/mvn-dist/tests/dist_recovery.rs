//! The recovery matrix: kill ranks at planned points of the deterministic
//! execution — mid-factor, mid-sweep, or by severing a peer connection
//! mid-fetch — and assert the recovered distributed probability is
//! **bitwise identical** to the single-process engine, for dense and TLR
//! factors, at 2/3/4 processes, with every lost rank respawned.
//!
//! Every fault here is planned (see [`mvn_dist::faults`]): a `(rank,
//! counter)` pair pins the failure to one reproducible instant, so these
//! are real end-to-end recoveries, not flaky chaos. The bitwise assertion
//! is the whole point — recovery replays a lost rank's plan slice from
//! initial data, and every tile is a pure function of that data and its
//! plan prefix, so a recovered run must be indistinguishable (to the last
//! bit) from a fault-free one.

use std::time::Duration;

use mvn_core::{MvnConfig, MvnEngine, MvnResult};
use mvn_dist::faults::{FaultAction, FaultPlan};
use mvn_dist::{solve, DistConfig, DistReport};
use qmc::SampleKind;
use tlr::{CompressionTol, TlrMatrix};

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
        sample_kind: SampleKind::RichtmyerLattice,
        seed: 20240731,
    }
}

fn dist_config(nodes: usize, faults: FaultPlan) -> DistConfig {
    let mut dc = DistConfig::new(
        nodes,
        vec![env!("CARGO_BIN_EXE_mvn_dist_worker").to_string()],
    );
    dc.faults = faults;
    dc.timeout = Duration::from_secs(90);
    dc
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

fn assert_recovered(tag: &str, report: &DistReport) {
    assert!(report.recoveries >= 1, "{tag}: no recovery recorded");
    assert!(
        report.recovery_wall > Duration::ZERO,
        "{tag}: recovery wall time not recorded"
    );
}

fn dense_reference(cfg: &MvnConfig) -> (TlrMatrix, MvnResult) {
    let sigma = TlrMatrix::assemble(N, NB, None, cov);
    let (a, b) = limits();
    let engine = MvnEngine::with_config(*cfg).unwrap();
    let factor = engine.factor(sigma.clone()).unwrap();
    let reference = engine.solve(&factor, &a, &b);
    assert!(reference.prob > 0.0 && reference.prob < 1.0);
    (sigma, reference)
}

fn tlr_reference(cfg: &MvnConfig) -> (TlrMatrix, MvnResult) {
    let tol = CompressionTol::Absolute(1e-8);
    let sigma = TlrMatrix::assemble(N, NB, Some((tol, usize::MAX)), cov);
    let (a, b) = limits();
    let engine = MvnEngine::with_config(*cfg).unwrap();
    let factor = engine.factor(sigma.clone()).unwrap();
    let reference = engine.solve(&factor, &a, &b);
    assert!(reference.prob > 0.0 && reference.prob < 1.0);
    (sigma, reference)
}

fn kill_at_task(rank: usize, after: usize) -> FaultPlan {
    FaultPlan {
        actions: vec![FaultAction::KillAtTask { rank, after }],
    }
}

#[test]
fn respawn_recovers_mid_factor_kills_bitwise_dense() {
    let cfg = cfg();
    let (sigma, reference) = dense_reference(&cfg);
    let (a, b) = limits();

    // The (nodes, victim rank, task index) matrix: early, mid and late kill
    // points across every process count, including rank 0.
    for (nodes, rank, after) in [
        (2usize, 0usize, 0usize),
        (2, 1, 2),
        (3, 1, 1),
        (4, 2, 3),
        (2, 1, 0),
        (3, 0, 2),
        (3, 2, 4),
        (4, 3, 1),
    ] {
        let tag = format!("respawn dense x{nodes} kill {rank}@task{after}");
        let dc = dist_config(nodes, kill_at_task(rank, after));
        let report = solve(&sigma, &a, &b, &cfg, &dc).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_bitwise(&tag, report.result, reference);
        assert_recovered(&tag, &report);
        assert!(
            report.replayed_tasks >= 1,
            "{tag}: respawned rank must replay its slice"
        );
    }
}

#[test]
fn respawn_recovers_tlr_kills_bitwise() {
    let cfg = cfg();
    let (sigma, reference) = tlr_reference(&cfg);
    let (a, b) = limits();

    for (nodes, rank, after) in [
        (3usize, 0usize, 1usize),
        // Rank 1 owns only two factor tasks on the 2x2 grid at this size,
        // so the kill point must sit inside its slice.
        (4, 1, 1),
        (2, 1, 3),
        (3, 2, 0),
    ] {
        let tag = format!("respawn tlr x{nodes} kill {rank}@task{after}");
        let dc = dist_config(nodes, kill_at_task(rank, after));
        let report = solve(&sigma, &a, &b, &cfg, &dc).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_bitwise(&tag, report.result, reference);
        assert_recovered(&tag, &report);
    }
}

#[test]
fn mid_sweep_kills_recover_bitwise() {
    let cfg = cfg();
    let (sigma, reference) = dense_reference(&cfg);
    let (a, b) = limits();

    // The victim dies after completing its first sweep panel: the factor is
    // fully finalized (and largely fetched by peers), so recovery is mostly
    // a panel re-sweep — the panels it never reported are recomputed by the
    // respawned rank and must combine to the identical probability.
    let tag = "dense x2 kill 1@panel0";
    let faults = FaultPlan {
        actions: vec![FaultAction::KillAtPanel { rank: 1, after: 0 }],
    };
    let report = solve(&sigma, &a, &b, &cfg, &dist_config(2, faults))
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_bitwise(tag, report.result, reference);
    assert_recovered(tag, &report);
}

#[test]
fn severed_fetch_reroutes_and_retries_instead_of_hanging() {
    let cfg = cfg();
    let (sigma, reference) = dense_reference(&cfg);
    let (a, b) = limits();

    // Sever rank 0's very first tile fetch mid-request: the transport must
    // drop the link, re-resolve the route and retry — the peer is healthy,
    // so no recovery round is needed, but the reconnect must be recorded.
    let faults = FaultPlan {
        actions: vec![FaultAction::SeverFetch { rank: 0, at: 0 }],
    };
    let dc = dist_config(2, faults);
    let report = solve(&sigma, &a, &b, &cfg, &dc).expect("severed fetch must not hang");
    assert_bitwise("sever 0@fetch0", report.result, reference);
    assert_eq!(
        report.recoveries, 0,
        "a severed connection to a healthy peer needs no recovery round"
    );
    assert!(
        report.reconnects >= 1,
        "the severed edge must be re-established, not abandoned"
    );
}

#[test]
fn delayed_fetches_change_timing_but_not_one_bit() {
    let cfg = cfg();
    let (sigma, reference) = dense_reference(&cfg);
    let (a, b) = limits();

    let faults = FaultPlan {
        actions: vec![FaultAction::DelayFetch {
            rank: 1,
            at: 1,
            millis: 150,
        }],
    };
    let dc = dist_config(2, faults);
    let report = solve(&sigma, &a, &b, &cfg, &dc).expect("a slow fetch is not a fault");
    assert_bitwise("delay 1@fetch1", report.result, reference);
    assert_eq!(report.recoveries, 0);
    assert_eq!(report.reconnects, 0);
}
