//! Workspace-level property-style tests on the core invariants.
//!
//! The container this repo builds in has no access to crates.io, so instead
//! of `proptest` the case generation is a deterministic parameter sweep driven
//! by the workspace's own seeded RNG — same invariants, reproducible cases.

use mathx::{norm_cdf, norm_quantile};
use mvn_core::{MvnConfig, MvnEngine};
use qmc::Xoshiro256pp;
use task_runtime::WorkerPool;
use tile_la::{max_abs_diff, DenseMatrix};
use tlr::{compress_dense, lr_add_recompress, potrf_tlr, CompressionTol, TlrMatrix};

/// Deterministic case driver over the workspace RNG.
struct CaseStream {
    rng: Xoshiro256pp,
}

impl CaseStream {
    fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from(seed),
        }
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() % (hi - lo) as u64) as usize
    }
}

const CASES: usize = 32;

/// Φ and Φ⁻¹ are inverse functions over the bulk of the distribution.
#[test]
fn normal_cdf_quantile_roundtrip() {
    let mut s = CaseStream::new(1);
    for _ in 0..CASES {
        let p = s.in_range(1e-12, 1.0 - 1e-12);
        let x = norm_quantile(p);
        let p2 = norm_cdf(x);
        assert!((p - p2).abs() < 1e-9, "p={p}, roundtrip={p2}");
    }
}

/// Φ is monotone non-decreasing.
#[test]
fn normal_cdf_is_monotone() {
    let mut s = CaseStream::new(2);
    for _ in 0..CASES {
        let a = s.in_range(-30.0, 30.0);
        let delta = s.in_range(0.0, 5.0);
        assert!(norm_cdf(a + delta) >= norm_cdf(a));
    }
}

/// The tiled Cholesky factorization reconstructs the matrix it factored, for
/// random SPD matrices of random sizes and tile sizes.
#[test]
fn tiled_cholesky_reconstructs() {
    let mut s = CaseStream::new(3);
    for _ in 0..CASES {
        let n = s.usize_in(4, 40);
        let nb = s.usize_in(2, 16);
        let range = s.in_range(2.0, 20.0);
        let f = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / range).exp() + if i == j { 0.05 } else { 0.0 }
        };
        let mut a = TlrMatrix::assemble(n, nb, None, f);
        potrf_tlr(&mut a, &WorkerPool::new(1)).unwrap();
        let l = a.to_dense_lower();
        let rec = l.matmul_nt(&l);
        let orig = DenseMatrix::from_fn(n, n, f);
        assert!(
            max_abs_diff(&rec, &orig) < 1e-8,
            "n={n}, nb={nb}, range={range}"
        );
    }
}

/// Truncated-SVD tile compression never exceeds its error budget.
#[test]
fn compression_error_within_tolerance() {
    let mut s = CaseStream::new(4);
    for _ in 0..CASES {
        let m = s.usize_in(4, 24);
        let n = s.usize_in(4, 24);
        let offset = s.usize_in(0, 100);
        let tol = 10f64.powi(-(s.usize_in(1, 8) as i32));
        let tile = DenseMatrix::from_fn(m, n, |i, j| {
            (-((i as f64 - (j + offset) as f64).abs()) / 30.0).exp()
        });
        let lr = compress_dense(&tile, CompressionTol::Absolute(tol), usize::MAX);
        let mut diff = lr.to_dense();
        diff.add_scaled(-1.0, &tile);
        assert!(
            diff.frobenius_norm() <= tol * 1.5 + 1e-12,
            "m={m}, n={n}, offset={offset}, tol={tol}"
        );
    }
}

/// Low-rank addition with recompression approximates the exact sum.
#[test]
fn lowrank_addition_is_accurate() {
    let mut s = CaseStream::new(5);
    for _ in 0..CASES {
        let m = s.usize_in(4, 16);
        let k = s.usize_in(1, 4);
        let mut mk = |rows: usize, cols: usize| {
            DenseMatrix::from_fn(rows, cols, |_, _| s.in_range(-1.0, 1.0))
        };
        let a = tlr::LowRankBlock::new(mk(m, k), mk(m, k));
        let b = tlr::LowRankBlock::new(mk(m, k), mk(m, k));
        let sum = lr_add_recompress(&a, &b, CompressionTol::Absolute(1e-10));
        let mut want = a.to_dense();
        want.add_scaled(1.0, &b.to_dense());
        assert!(max_abs_diff(&sum.to_dense(), &want) < 1e-8, "m={m}, k={k}");
    }
}

/// MVN probabilities are in [0,1], equal to 1 on the whole space, and monotone
/// in the integration box.
#[test]
fn mvn_probability_monotone_in_the_box() {
    let mut s = CaseStream::new(6);
    for _ in 0..8 {
        let n = s.usize_in(2, 12);
        let lower = s.in_range(-2.0, 0.5);
        let f = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 5.0).exp() + if i == j { 0.01 } else { 0.0 }
        };
        let engine = MvnEngine::with_config(MvnConfig {
            sample_size: 2000,
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let l = engine.factor(TlrMatrix::assemble(n, 4, None, f)).unwrap();
        let b = vec![f64::INFINITY; n];
        let p_small = engine.solve(&l, &vec![lower + 0.5; n], &b).prob;
        let p_large = engine.solve(&l, &vec![lower; n], &b).prob;
        assert!((0.0..=1.0).contains(&p_small));
        assert!((0.0..=1.0).contains(&p_large));
        // Enlarging the box (lower limit decreases) cannot decrease the
        // probability.
        assert!(p_large >= p_small - 1e-9, "n={n}, lower={lower}");
        let whole = engine.solve(&l, &vec![f64::NEG_INFINITY; n], &b).prob;
        assert!((whole - 1.0).abs() < 1e-12);
    }
}

/// Marginal exceedance probabilities bound the joint prefix probabilities.
#[test]
fn joint_probability_never_exceeds_smallest_marginal() {
    let mut s = CaseStream::new(7);
    for _ in 0..8 {
        let n = s.usize_in(3, 10);
        let u = s.in_range(-1.0, 1.0);
        let f = |i: usize, j: usize| if i == j { 1.0 } else { 0.4 };
        let engine = MvnEngine::with_config(MvnConfig {
            sample_size: 4000,
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        let l = engine.factor(TlrMatrix::assemble(n, 3, None, f)).unwrap();
        let a = vec![u; n];
        let b = vec![f64::INFINITY; n];
        let joint = engine.solve(&l, &a, &b).prob;
        let marginal = 1.0 - norm_cdf(u);
        assert!(
            joint <= marginal + 0.01,
            "n={n}: joint {joint} vs marginal {marginal}"
        );
    }
}
