//! # tlr — tiled factors, dense or Tile Low-Rank
//!
//! A pure-Rust substitute for the HiCMA library used by the paper, and the
//! one tiled factor of the workspace: [`TlrMatrix`] stores a symmetric
//! matrix as its lower [`Tile`]s, each dense or compressed into low-rank
//! factors `U·Vᵀ`. A dense factor is a tiled factor whose tiles are all
//! dense; a TLR factor keeps its diagonal tiles dense and stores each
//! off-diagonal tile low-rank only while the rank the tolerance needs is at
//! most the tile's break-even rank (≈ `nb/5`, where one low-rank trailing
//! update costs as many flops as the dense GEMM); above it the tile is
//! dense. Both are factored by the same tiled Cholesky, carried out directly
//! in each tile's format, and a tile whose rank grows past its break-even
//! rank during the factorization turns dense and stays dense.
//!
//! The crate provides:
//!
//! * [`LowRankBlock`] — a single compressed tile with its `U`, `V` factors,
//! * [`CompressionTol`], [`compress_tile`] and [`compress_dense`] —
//!   compression at an absolute Frobenius tolerance, the one setting of TLR
//!   (a pivoted QR that stops at the tolerance, then a Jacobi SVD of the
//!   kept rows only), into the format that pays or, for `compress_dense`,
//!   always low-rank,
//! * [`arithmetic`] — the low-rank kernels used by the factorization
//!   (`LR×dense`, `LR×LRᵀ`, low-rank additions with QR-based recompression,
//!   and the trailing update on tiles of any format),
//! * [`TlrMatrix`] — the tiled symmetric matrix, with the panel products
//!   and solves of its factor. [`TlrMatrix::assemble`] builds every tiled
//!   matrix of the workspace from an entry function `(i, j) ↦ a_ij`, one
//!   task per lower tile: dense with no compression, TLR with one (each
//!   off-diagonal tile compressed where it is built), so no code path holds
//!   a second format or an `n²` buffer,
//! * [`potrf_tlr`] — its Cholesky factorization, the workspace's one
//!   Cholesky driver, whose one step body
//!   [`dag::tlr_step`] (over a dense-or-low-rank [`Tile`]) the `mvn-dist`
//!   worker runs too,
//! * [`RankStats`] — per-tile rank maps and summaries
//!   (the paper's Figure 5).

pub mod arithmetic;
pub mod cholesky;
pub mod compress;
pub mod dag;
pub mod lowrank;
pub mod rank_stats;
pub mod tlr_matrix;

pub use arithmetic::{
    lr_aa_t_update, lr_add_recompress, lr_gemm_panel, lr_gemm_panel_t, lr_lr_t_update,
    tile_gemm_update,
};
pub use cholesky::potrf_tlr;
pub use compress::{compress_dense, compress_tile, CompressionTol};
pub use dag::Tile;
pub use lowrank::LowRankBlock;
pub use rank_stats::RankStats;
pub use tlr_matrix::TlrMatrix;

#[cfg(test)]
mod tests {
    use super::*;
    use task_runtime::WorkerPool;
    use tile_la::{max_abs_diff, DenseMatrix};

    fn exp_kernel(range: f64) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs() / 50.0;
            (-d / range).exp() + if i == j { 1e-8 } else { 0.0 }
        }
    }

    #[test]
    fn end_to_end_tiled_cholesky_reconstructs_spd_matrix() {
        // Build a well-conditioned SPD matrix, factor it tiled, multiply back.
        let n = 37;
        let nb = 8;
        let spd = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 10.0).exp() + if i == j { 0.5 } else { 0.0 }
        };
        let mut a = TlrMatrix::assemble(n, nb, None, spd);
        potrf_tlr(&mut a, &WorkerPool::new(1)).expect("factorization should succeed");
        let l = a.to_dense_lower();
        let rec = l.matmul_nt(&l);
        let orig = DenseMatrix::from_fn(n, n, spd);
        assert!(max_abs_diff(&rec, &orig) < 1e-10);
    }

    #[test]
    fn end_to_end_tlr_cholesky_close_to_dense_cholesky() {
        let n = 120;
        let nb = 30;
        let f = exp_kernel(0.3);
        let tol = CompressionTol::Absolute(1e-9);

        let mut tlr = TlrMatrix::assemble(n, nb, Some(tol), &f);
        potrf_tlr(&mut tlr, &WorkerPool::new(1)).unwrap();
        let l_tlr = tlr.to_dense_lower();

        let mut dense = TlrMatrix::assemble(n, nb, None, &f);
        potrf_tlr(&mut dense, &WorkerPool::new(1)).unwrap();
        let l_dense = dense.to_dense_lower();

        assert!(max_abs_diff(&l_tlr, &l_dense) < 1e-5);

        // And the reconstruction L L^T matches the original covariance closely.
        let rec = l_tlr.matmul_nt(&l_tlr);
        let orig = DenseMatrix::from_fn(n, n, &f);
        assert!(max_abs_diff(&rec, &orig) < 1e-6);
    }
}
