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
//! * [`SymTileMatrix`] — a symmetric matrix stored as its lower-triangular
//!   dense tiles. Every tiled matrix is assembled by the `tlr` crate's
//!   `TlrMatrix::assemble`, straight into the one tiled factor; this
//!   container is left only as the input of the old dense entry points the
//!   `mvn_perf` benchmark still calls, and as confidence-region detection's
//!   marginal-order correlation. Its tiles move into a `TlrMatrix` without
//!   copying,
//! * [`dag`] — the tiled Cholesky's one task order (`cholesky_plan`, shared
//!   with the tiled and distributed factorizations), its one dense
//!   step body (`dense_step`, which the tiled factor's step body calls on
//!   dense tiles), and the building blocks (`register_tile_handles`,
//!   `submit_steps`, `FactorStatus`, `CholeskyError`) the tiled and
//!   distributed factorizations compose with,
//! * [`norms`] — Frobenius / max-abs norms and difference helpers.
//!
//! The crate deliberately contains a *reference* implementation of every
//! operation (naive triple loops on [`DenseMatrix`], the unblocked
//! [`potrf_in_place`](kernels::potrf_in_place)), against which the tests of
//! the tile kernels and of the tiled factorization in `tlr` cross-check.

pub mod dag;
pub mod dense;
pub mod kernels;
pub mod layout;
pub mod norms;
pub mod sym_tile;

pub use dag::{CholeskyError, FactorStatus};
pub use dense::DenseMatrix;
pub use layout::TileLayout;
pub use norms::{frobenius_norm, max_abs_diff};
pub use sym_tile::SymTileMatrix;
