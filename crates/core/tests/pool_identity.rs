//! One pool, same bits: the two factor entry points leave identical factor
//! bits on 1, 2 and 4 workers, and the engine's factor-then-solve flow gives
//! the probability and error bits of a one-worker run on every pool.

use mvn_core::{MvnConfig, MvnEngine};
use task_runtime::WorkerPool;
use tlr::{potrf_tlr, CompressionTol, TlrMatrix};

fn exp_cov(i: usize, j: usize) -> f64 {
    (-(i as f64 - j as f64).abs() / 20.0).exp()
}

#[test]
fn factors_and_solves_are_bitwise_identical_on_every_pool() {
    let n = 60;
    let (a, b) = (vec![-0.4; n], vec![0.9; n]);
    let cfg = MvnConfig {
        sample_size: 2000,
        seed: 17,
        ..Default::default()
    };
    let dense = || TlrMatrix::assemble(n, 16, None, exp_cov);
    let tlr = || {
        TlrMatrix::assemble(
            n,
            16,
            Some((CompressionTol::Absolute(1e-8), usize::MAX)),
            exp_cov,
        )
    };

    // Reference: everything inline on one worker, factor then solve.
    let one = WorkerPool::new(1);
    let want_dense = factored(&one, dense()).to_dense_lower();
    let engine = MvnEngine::builder().workers(1).config(cfg).build().unwrap();
    let want = engine.solve(&engine.factor(dense()).unwrap(), &a, &b);
    let want_tlr = factored(&one, tlr()).to_dense_lower();

    for workers in [1usize, 2, 4] {
        let case = format!("workers={workers}");
        let pool = WorkerPool::new(workers);
        assert_eq!(
            factored(&pool, dense()).to_dense_lower(),
            want_dense,
            "{case}"
        );
        assert_eq!(factored(&pool, tlr()).to_dense_lower(), want_tlr, "{case}");

        let engine = MvnEngine::builder().workers(workers).config(cfg);
        let engine = engine.build().unwrap();
        let got = engine.solve(&engine.factor(dense()).unwrap(), &a, &b);
        assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "{case}");
        assert_eq!(got.std_error.to_bits(), want.std_error.to_bits(), "{case}");
    }
}

fn factored(pool: &WorkerPool, mut sigma: TlrMatrix) -> TlrMatrix {
    potrf_tlr(&mut sigma, pool).unwrap();
    sigma
}

#[test]
fn engines_sharing_one_pool_match_private_pools_and_keep_panics_apart() {
    // Two engines on one `Arc<WorkerPool>`, each hammered from its own thread
    // (factor + batched solves) while a third submitter keeps panicking
    // inside its own task sets on the same pool: both engines must return the
    // bits of a private-pool engine, every panic must surface in the
    // submitter that owns it, and the pool must stay usable throughout.
    use mvn_core::Problem;
    use std::sync::{Arc, Barrier};

    let n = 40;
    let cfg = MvnConfig {
        sample_size: 1024,
        seed: 17,
        ..Default::default()
    };
    let covs: [fn(usize, usize) -> f64; 2] =
        [exp_cov, |i, j| (-(i as f64 - j as f64).abs() / 7.0).exp()];
    let problems: Vec<Problem> = (0..6)
        .map(|k| Problem::new(vec![-0.3 - 0.05 * k as f64; n], vec![f64::INFINITY; n]))
        .collect();

    for workers in [1usize, 2, 4] {
        let private = MvnEngine::builder().workers(workers).config(cfg);
        let private = private.build().unwrap();
        let want: Vec<Vec<u64>> = covs
            .iter()
            .map(|&cov| {
                let f = private
                    .factor(TlrMatrix::assemble(n, 10, None, cov))
                    .unwrap();
                let solved = private.solve_batch(&f, &problems);
                solved.iter().map(|r| r.prob.to_bits()).collect()
            })
            .collect();

        let pool = Arc::new(WorkerPool::new(workers));
        let go = Barrier::new(3);
        std::thread::scope(|scope| {
            for (&cov, want) in covs.iter().zip(&want) {
                let engine = MvnEngine::builder().pool(Arc::clone(&pool)).config(cfg);
                let engine = engine.build().unwrap();
                assert_eq!(engine.workers(), workers);
                let (go, problems) = (&go, &problems);
                scope.spawn(move || {
                    go.wait();
                    for round in 0..6 {
                        let f = engine
                            .factor(TlrMatrix::assemble(n, 10, None, cov))
                            .unwrap();
                        let got = engine.solve_batch(&f, problems);
                        for (g, w) in got.iter().zip(want) {
                            assert_eq!(g.prob.to_bits(), *w, "workers={workers} round={round}");
                        }
                    }
                });
            }
            let (go, pool) = (&go, &pool);
            scope.spawn(move || {
                go.wait();
                for _ in 0..12 {
                    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.map("boom", &[0u8; 8], |i, _| assert!(i != 3, "task 3 exploded"))
                    }));
                    assert!(boom.is_err(), "the panic belongs to this submitter");
                }
            });
        });
        // Still serving after 12 panicking task sets.
        assert_eq!(pool.map("after", &[1u8, 2, 3], |_, &x| x * 2), [2, 4, 6]);
    }
}
