//! BLAS-3 style tile kernels plus the dense factorizations needed by the tiled
//! and tile-low-rank algorithms.
//!
//! Each kernel operates on whole [`DenseMatrix`](crate::DenseMatrix) tiles. The
//! naming follows BLAS/LAPACK conventions (`gemm`, `trsm`, `syrk`, `potrf`,
//! `geqrf`-style QR, Jacobi `gesvd`) so readers familiar with the paper's
//! Chameleon/HiCMA kernel vocabulary can map one onto the other directly.

pub mod gemm;
mod isa;
pub mod potrf;
pub mod qr;
pub mod svd;
pub mod syrk;
pub mod trsm;

pub use gemm::{gemm_nn, gemm_nt, gemm_tn};
pub use potrf::potrf_in_place;
pub use qr::{qr_factor, QrFactors};
pub use svd::{jacobi_svd, Svd};
pub use syrk::syrk_lower;
pub use trsm::{trsm_left_lower_notrans, trsm_left_lower_trans, trsm_right_lower_trans};
