//! Golden bitwise-identity regression suite for the dense and TLR solve
//! paths.
//!
//! The probabilities below were captured from the engine in which every
//! layer matched the two-variant `Factor` enum by hand. The contract is that
//! dense and TLR results stay **bitwise identical** through any
//! restructuring of the dispatch — so each scenario pins the exact `f64`
//! bits of `prob` and `std_error` across worker counts and batch
//! compositions. A golden mismatch means a change moved numerics, not just
//! shape.
//! The dense rows are the original capture; each intentional change of the
//! TLR numerics is one [`NUMERICS_EPOCH`]. Beside the pin,
//! `tlr_solve_agrees_with_dense_solve` checks the TLR answer against the
//! dense one, so a re-pin cannot hide an accuracy loss.
//!
//! To re-capture after an *intentional* numerical change, run
//! `cargo test -p mvn-core --test golden_bitwise -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`; the lines after it give each
//! moved row's diff in ulps and in units of its own `std_error`.

use mvn_core::{Factor, MvnConfig, MvnEngine, Problem};
use std::sync::Arc;
use tlr::{CompressionTol, TlrMatrix};

/// The TLR numerics this table pins, counted from the original capture.
///
/// * Epoch 1: tile compression moved to a pivoted QR followed by a small
///   SVD; the five TLR-fed rows (`tlr_solve_w*`, `mixed_batch_p2`/`p5`)
///   were re-pinned.
/// * Epoch 2: break-even tile formats (a tile stays low-rank only while its
///   rank is at most its break-even rank, and turns dense otherwise) and
///   the trailing update carried at rank `min(rₐ, r_b)`. The five TLR-fed
///   rows kept their bits: every factor tile of their 1-D exponential
///   covariance is rank 1, below the break-even rank 3 of a 16 × 16 tile,
///   and a rank-1 by rank-1 update is built the same way at either rank.
///   The `tlr_mixed_formats` row was added to pin a factor that mixes
///   formats and turns a tile dense during the factorization.
const NUMERICS_EPOCH: u32 = 2;

/// Synthetic 1-D exponential covariance (the engine test family).
fn exp_cov(range: f64) -> impl Fn(usize, usize) -> f64 + Sync + Copy {
    move |i: usize, j: usize| {
        let d = (i as f64 - j as f64).abs() / 40.0;
        (-d / range).exp()
    }
}

/// A covariance on 5 tiles of 12 whose TLR factor at τ = 1e-8 mixes tile
/// formats (a 12 × 12 tile breaks even at rank 2): 4·I plus smooth rank-one
/// terms, each on one pair of tiles. Tiles (4,2) and (4,3) are dense from
/// the start, and (2,1) is low-rank until its first trailing update turns it
/// dense.
fn mixed_formats_cov(i: usize, j: usize) -> f64 {
    const PAIRS: [((usize, usize), usize); 7] = [
        ((0, 1), 1),
        ((0, 2), 1),
        ((1, 2), 2),
        ((0, 3), 1),
        ((0, 4), 1),
        ((2, 4), 3),
        ((3, 4), 3),
    ];
    let (ti, tj) = (i / 12, j / 12);
    let mut a = if i == j { 4.0 } else { 0.0 };
    for (s, &((p, q), count)) in PAIRS.iter().enumerate() {
        let inside = |t: usize| t == p || t == q;
        if inside(ti) && inside(tj) {
            for k in 0..count {
                let v = |x: usize| (x as f64 * 0.37 * (k + 1) as f64 + s as f64 * 1.3).cos();
                a += v(i) * v(j);
            }
        }
    }
    a
}

fn cfg() -> MvnConfig {
    MvnConfig {
        sample_size: 2500,
        seed: 9,
        ..Default::default()
    }
}

fn engine(workers: usize) -> MvnEngine {
    let builder = MvnEngine::builder().config(cfg()).workers(workers);
    builder.build().unwrap()
}

fn dense_factor(e: &MvnEngine, n: usize, nb: usize, range: f64) -> Factor {
    e.factor(TlrMatrix::assemble(n, nb, None, exp_cov(range)))
        .unwrap()
}

fn tlr_factor(e: &MvnEngine, n: usize, nb: usize, range: f64) -> Factor {
    e.factor(TlrMatrix::assemble(
        n,
        nb,
        Some(CompressionTol::Absolute(1e-8)),
        exp_cov(range),
    ))
    .unwrap()
}

/// Run every golden scenario, returning `(name, prob_bits, std_error_bits)`
/// rows in a fixed order.
fn compute_scenarios() -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    let mut push = |name: &str, r: mvn_core::MvnResult| {
        rows.push((name.to_string(), r.prob.to_bits(), r.std_error.to_bits()));
    };

    let n = 60;
    let a = vec![-0.4; n];
    let b = vec![0.9; n];

    // Plain solves, dense + TLR, across worker counts (the bits must not
    // depend on the worker count — asserted separately below).
    for workers in [1usize, 2, 4] {
        let e = engine(workers);
        let fd = dense_factor(&e, n, 16, 0.5);
        let ft = tlr_factor(&e, n, 16, 0.5);
        push(&format!("dense_solve_w{workers}"), e.solve(&fd, &a, &b));
        push(&format!("tlr_solve_w{workers}"), e.solve(&ft, &a, &b));
    }

    // Batched solves over one factor.
    let e = engine(2);
    let fd = dense_factor(&e, 45, 12, 0.3);
    let problems: Vec<Problem> = (0..5)
        .map(|k| {
            let lo = -0.5 - 0.1 * k as f64;
            let hi = 0.8 + 0.05 * k as f64;
            Problem::new(vec![lo; 45], vec![hi; 45])
        })
        .collect();
    for (k, r) in e.solve_batch(&fd, &problems).into_iter().enumerate() {
        push(&format!("dense_batch_p{k}"), r);
    }

    // Mixed-fingerprint batch: two dense factors with different layouts plus
    // a TLR factor, interleaved.
    let f1 = Arc::new(dense_factor(&e, 45, 12, 0.3));
    let f2 = Arc::new(dense_factor(&e, 32, 8, 0.7));
    let f3 = Arc::new(tlr_factor(&e, 45, 16, 0.5));
    let mixed: Vec<(Arc<Factor>, Problem)> = (0..6)
        .map(|k| {
            let (f, dim): (&Arc<Factor>, usize) = match k % 3 {
                0 => (&f1, 45),
                1 => (&f2, 32),
                _ => (&f3, 45),
            };
            (
                Arc::clone(f),
                Problem::new(vec![-0.6; dim], vec![0.7 + 0.1 * (k % 3) as f64; dim]),
            )
        })
        .collect();
    for (k, r) in e.solve_batch_mixed(&mixed).into_iter().enumerate() {
        push(&format!("mixed_batch_p{k}"), r);
    }

    // A TLR factor whose tiles mix formats.
    let sigma = TlrMatrix::assemble(
        60,
        12,
        Some(CompressionTol::Absolute(1e-8)),
        mixed_formats_cov,
    );
    let fm = e.factor(sigma).unwrap();
    push("tlr_mixed_formats", e.solve(&fm, &[-5.0; 60], &[5.0; 60]));

    rows
}

/// Pinned bits at [`NUMERICS_EPOCH`]: `(scenario, prob bits, std_error
/// bits)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("dense_solve_w1", 0x3f0bdf6c2b0bb8a4, 0x3eb7210f89fc1031),
    ("tlr_solve_w1", 0x3f0bdf6c2b0bb89f, 0x3eb7210f89fc101d),
    ("dense_solve_w2", 0x3f0bdf6c2b0bb8a4, 0x3eb7210f89fc1031),
    ("tlr_solve_w2", 0x3f0bdf6c2b0bb89f, 0x3eb7210f89fc101d),
    ("dense_solve_w4", 0x3f0bdf6c2b0bb8a4, 0x3eb7210f89fc1031),
    ("tlr_solve_w4", 0x3f0bdf6c2b0bb89f, 0x3eb7210f89fc101d),
    ("dense_batch_p0", 0x3efe36d3f9a0b9d1, 0x3ea58c58266cccb0),
    ("dense_batch_p1", 0x3f266ca8f03df3cd, 0x3ed0cbca7f11bcce),
    ("dense_batch_p2", 0x3f4722804c7ebb71, 0x3ef17f300ed57302),
    ("dense_batch_p3", 0x3f6229a72a449118, 0x3f0af581f4f0c284),
    ("dense_batch_p4", 0x3f7722ede05cf189, 0x3f207d7bd0717507),
    ("mixed_batch_p0", 0x3eff1e1d25846e09, 0x3ea5ac4feadf5527),
    ("mixed_batch_p1", 0x3f94f1417926d354, 0x3f4045299de0f671),
    ("mixed_batch_p2", 0x3f683fecc541308d, 0x3f13c73c24f3452c),
    ("mixed_batch_p3", 0x3eff1e1d25846e09, 0x3ea5ac4feadf5527),
    ("mixed_batch_p4", 0x3f94f1417926d354, 0x3f4045299de0f671),
    ("mixed_batch_p5", 0x3f683fecc541308d, 0x3f13c73c24f3452c),
    ("tlr_mixed_formats", 0x3fb4ce1ef29bfae9, 0x3f42280a81ed2b5f),
];

#[test]
fn dense_and_tlr_paths_match_pre_refactor_bits() {
    let got = compute_scenarios();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "scenario count drifted; re-capture the golden table"
    );
    for ((name, pb, sb), (gname, gpb, gsb)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "scenario order drifted");
        assert_eq!(
            *pb,
            *gpb,
            "{name}: prob {} != golden {}",
            f64::from_bits(*pb),
            f64::from_bits(*gpb)
        );
        assert_eq!(
            *sb,
            *gsb,
            "{name}: std_error {} != golden {}",
            f64::from_bits(*sb),
            f64::from_bits(*gsb)
        );
    }
}

#[test]
fn solve_bits_do_not_depend_on_worker_count() {
    let got = compute_scenarios();
    let bits = |name: &str| {
        got.iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("missing scenario {name}"))
            .1
    };
    assert_eq!(bits("dense_solve_w1"), bits("dense_solve_w2"));
    assert_eq!(bits("dense_solve_w1"), bits("dense_solve_w4"));
    assert_eq!(bits("tlr_solve_w1"), bits("tlr_solve_w2"));
    assert_eq!(bits("tlr_solve_w1"), bits("tlr_solve_w4"));
}

#[test]
fn tlr_solve_agrees_with_dense_solve() {
    // Same QMC points, tolerance 1e-8: the compression error is far below
    // the estimator's own error, so the two answers agree to 1e-10.
    let got = compute_scenarios();
    let prob = |name: &str| {
        let row = got.iter().find(|(n, _, _)| n == name).unwrap();
        f64::from_bits(row.1)
    };
    let (dense, tlr) = (prob("dense_solve_w1"), prob("tlr_solve_w1"));
    assert!(
        (tlr - dense).abs() <= 1e-10 * dense.abs(),
        "tlr {tlr} vs dense {dense}"
    );
}

#[test]
fn mixed_formats_solve_agrees_with_dense_solve() {
    // The pinned mixed-format row against a dense factor of the same
    // matrix, on the same QMC points: dense tiles are exact and the
    // low-rank ones are within 1e-8, far below the estimator's own error.
    let got = compute_scenarios();
    let row = got
        .iter()
        .find(|(n, _, _)| n == "tlr_mixed_formats")
        .unwrap();
    let (tlr, std_error) = (f64::from_bits(row.1), f64::from_bits(row.2));
    let e = engine(2);
    let fd = e
        .factor(TlrMatrix::assemble(60, 12, None, mixed_formats_cov))
        .unwrap();
    let dense = e.solve(&fd, &[-5.0; 60], &[5.0; 60]).prob;
    assert!(
        (tlr - dense).abs() <= 1e-6 * std_error,
        "tlr {tlr} vs dense {dense}"
    );
}

/// Capture helper: prints the golden table in Rust-literal form, then each
/// row that moved against `GOLDEN`, in ulps and in units of its pinned
/// `std_error`.
#[test]
#[ignore = "capture helper, not a regression test"]
fn print_golden_table() {
    let rows = compute_scenarios();
    println!("    // numerics epoch {NUMERICS_EPOCH}");
    for (name, pb, sb) in &rows {
        println!("    (\"{name}\", 0x{pb:016x}, 0x{sb:016x}),");
    }
    for ((name, pb, sb), (_, gpb, gsb)) in rows.iter().zip(GOLDEN) {
        if (pb, sb) != (gpb, gsb) {
            let (p, gp, gs) = (
                f64::from_bits(*pb),
                f64::from_bits(*gpb),
                f64::from_bits(*gsb),
            );
            println!(
                "// {name}: prob {:+} ulp ({:+.3e} std_error), std_error {:+} ulp",
                *pb as i64 - *gpb as i64,
                (p - gp) / gs,
                *sb as i64 - *gsb as i64
            );
        }
    }
}
