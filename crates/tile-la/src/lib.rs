//! # tile-la — tiled dense linear algebra
//!
//! A self-contained, pure-Rust substitute for the dense linear algebra stack the
//! paper builds on (Chameleon + BLAS/LAPACK). It provides:
//!
//! * [`DenseMatrix`] — a column-major dense matrix with the usual constructors,
//!   views and reference operations,
//! * [`kernels`] — BLAS-3 style tile kernels (`gemm`, `trsm`, `syrk`, `potrf`)
//!   plus Householder [`qr`](kernels::qr) and one-sided Jacobi
//!   [`svd`](kernels::svd) used for low-rank compression,
//! * [`TileLayout`] — 1-D tiling of a dimension into fixed-size blocks,
//! * [`SymTileMatrix`] — a symmetric matrix stored as its lower-triangular tiles
//!   (the assembly layout of covariance matrices; the engine moves its tiles
//!   into the one tiled factor of the `tlr` crate),
//! * [`cholesky`] — the parallel right-looking tiled Cholesky factorization
//!   ([`potrf_tiled`], on a `task_runtime::WorkerPool`), the dense linear
//!   algebra of field simulation and likelihoods,
//! * [`dag`] — its one task order (`cholesky_plan`, shared with the tiled,
//!   distributed and simulated factorizations), its one dense step body
//!   (`dense_step`, which the tiled factor's step body calls on dense tiles),
//!   and the building blocks (`register_tile_handles`, `submit_steps`,
//!   `FactorStatus`) the tiled and distributed factorizations compose with,
//! * [`solve`] — tiled triangular solves against dense panels,
//! * [`norms`] — Frobenius / max-abs norms and difference helpers.
//!
//! The crate deliberately contains a *reference* implementation of every
//! operation (naive triple loops on [`DenseMatrix`]) alongside the tiled
//! parallel algorithms, and the test-suite cross-checks one against the other.

pub mod cholesky;
pub mod dag;
pub mod dense;
pub mod kernels;
pub mod layout;
pub mod norms;
pub mod solve;
pub mod sym_tile;

pub use cholesky::{potrf_tiled, CholeskyError};
pub use dag::FactorStatus;
pub use dense::DenseMatrix;
pub use layout::TileLayout;
pub use norms::{frobenius_norm, max_abs_diff};
pub use solve::{
    multiply_lower_panel, solve_lower_panel, solve_lower_transpose_panel, solve_spd_panel,
};
pub use sym_tile::SymTileMatrix;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_tiled_cholesky_reconstructs_spd_matrix() {
        // Build a well-conditioned SPD matrix, factor it tiled, multiply back.
        let n = 37;
        let nb = 8;
        let spd = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 10.0).exp() + if i == j { 0.5 } else { 0.0 }
        };
        let mut a = SymTileMatrix::from_fn(n, nb, spd);
        potrf_tiled(&mut a, &task_runtime::WorkerPool::new(1))
            .expect("factorization should succeed");
        let l = a.to_dense_lower();
        let rec = l.matmul_nt(&l);
        let orig = DenseMatrix::from_fn(n, n, spd);
        assert!(max_abs_diff(&rec, &orig) < 1e-10);
    }
}
