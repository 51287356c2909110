//! Pins the exact bits of `simulate_field` and `gaussian_loglik`.
//!
//! The `pooled_*` unit tests compare one pool with another at the same
//! version; this file compares the current version with recorded bits, so a
//! change to the factorization, the panel products or the log-determinant
//! that moves any bit fails here. The 15×15 grid (n = 225, nb = 56) has a
//! ragged last tile of one row; the 20×20 grid (n = 400, nb = 128) one of 16.

use geostat::{gaussian_loglik, regular_grid, simulate_field, CovarianceKernel, Fnv1a};
use task_runtime::WorkerPool;

fn matern(sigma2: f64, range: f64, smoothness: f64) -> CovarianceKernel {
    CovarianceKernel::Matern(geostat::MaternParams {
        sigma2,
        range,
        smoothness,
    })
}

#[test]
fn field_and_loglik_bits_are_pinned() {
    // (grid side, FNV-1a of the field's bits, bits of the log-likelihood)
    let want = [
        (15, 0x1dd9ee44150fb66a_u64, 0xc0612a3929c5b39c_u64),
        (20, 0x58630cccf4666e73, 0xc062f9db1691d3b7),
    ];
    for workers in [1usize, 2] {
        let pool = WorkerPool::new(workers);
        for (side, field_bits, ll_bits) in want {
            let locs = regular_grid(side, side);
            let field = simulate_field(&locs, &matern(1.0, 0.12, 1.5), 0.25, 2024, &pool);
            let mut h = Fnv1a::new();
            field.values.iter().for_each(|&v| h.write_f64(v));
            let ll = gaussian_loglik(&locs, &field.values, &matern(0.9, 0.2, 0.5), &pool);
            let got = (h.finish(), ll.to_bits());
            assert_eq!(
                got,
                (field_bits, ll_bits),
                "side={side} workers={workers}: {got:#x?}"
            );
        }
    }
}
