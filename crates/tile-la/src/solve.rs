//! Tiled triangular solves against dense right-hand-side panels.
//!
//! Given a Cholesky factor `L` stored as a [`SymTileMatrix`], these routines
//! solve `L·X = B` (forward) and `Lᵀ·X = B` (backward) for a dense panel `B`
//! of shape `n × m`. They are used for Gaussian random field simulation
//! (`x = L·z`), posterior computations (`Σ⁻¹·B = L⁻ᵀ L⁻¹ B`) and the
//! Monte-Carlo validation algorithm.

use crate::dense::DenseMatrix;
use crate::kernels::{gemm_nn, gemm_tn, trsm_left_lower_notrans, trsm_left_lower_trans};
use crate::sym_tile::SymTileMatrix;

fn extract_row_block(b: &DenseMatrix, start: usize, rows: usize) -> DenseMatrix {
    b.submatrix(start, 0, rows, b.ncols())
}

fn write_row_block(b: &mut DenseMatrix, start: usize, block: &DenseMatrix) {
    b.copy_block_from(block, 0, 0, start, 0, block.nrows(), block.ncols());
}

/// Solve `L·X = B` in place (`B` becomes `X`), where `l` holds the lower
/// Cholesky factor tiles.
pub fn solve_lower_panel(l: &SymTileMatrix, b: &mut DenseMatrix) {
    assert_eq!(
        b.nrows(),
        l.n(),
        "solve: panel row count must equal matrix dimension"
    );
    let layout = l.layout();
    let nt = layout.num_tiles();
    for ti in 0..nt {
        let start_i = layout.tile_start(ti);
        let rows_i = layout.tile_size(ti);
        let mut block_i = extract_row_block(b, start_i, rows_i);
        for tj in 0..ti {
            let start_j = layout.tile_start(tj);
            let rows_j = layout.tile_size(tj);
            let block_j = extract_row_block(b, start_j, rows_j);
            gemm_nn(-1.0, l.tile(ti, tj), &block_j, 1.0, &mut block_i);
        }
        trsm_left_lower_notrans(l.tile(ti, ti), &mut block_i);
        write_row_block(b, start_i, &block_i);
    }
}

/// Solve `Lᵀ·X = B` in place (`B` becomes `X`).
pub fn solve_lower_transpose_panel(l: &SymTileMatrix, b: &mut DenseMatrix) {
    assert_eq!(
        b.nrows(),
        l.n(),
        "solve: panel row count must equal matrix dimension"
    );
    let layout = l.layout();
    let nt = layout.num_tiles();
    for ti in (0..nt).rev() {
        let start_i = layout.tile_start(ti);
        let rows_i = layout.tile_size(ti);
        let mut block_i = extract_row_block(b, start_i, rows_i);
        for tj in (ti + 1)..nt {
            let start_j = layout.tile_start(tj);
            let rows_j = layout.tile_size(tj);
            let block_j = extract_row_block(b, start_j, rows_j);
            // (L^T)_{ti,tj} = (L_{tj,ti})^T
            gemm_tn(-1.0, l.tile(tj, ti), &block_j, 1.0, &mut block_i);
        }
        trsm_left_lower_trans(l.tile(ti, ti), &mut block_i);
        write_row_block(b, start_i, &block_i);
    }
}

/// Full SPD solve `Σ·X = B` given the Cholesky factor of `Σ` (forward then
/// backward substitution); `B` is overwritten with the solution.
pub fn solve_spd_panel(l: &SymTileMatrix, b: &mut DenseMatrix) {
    solve_lower_panel(l, b);
    solve_lower_transpose_panel(l, b);
}

/// Multiply `Y = L·X` for a dense panel `X` (used to simulate Gaussian fields:
/// `x = L·z` with `z` standard normal).
pub fn multiply_lower_panel(l: &SymTileMatrix, x: &DenseMatrix) -> DenseMatrix {
    assert_eq!(x.nrows(), l.n());
    let layout = l.layout();
    let nt = layout.num_tiles();
    let mut y = DenseMatrix::zeros(x.nrows(), x.ncols());
    for ti in 0..nt {
        let start_i = layout.tile_start(ti);
        let rows_i = layout.tile_size(ti);
        let mut acc = DenseMatrix::zeros(rows_i, x.ncols());
        for tj in 0..=ti {
            let start_j = layout.tile_start(tj);
            let rows_j = layout.tile_size(tj);
            let xb = x.submatrix(start_j, 0, rows_j, x.ncols());
            gemm_nn(1.0, l.tile(ti, tj), &xb, 1.0, &mut acc);
        }
        y.copy_block_from(&acc, 0, 0, start_i, 0, rows_i, x.ncols());
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::potrf_tiled;
    use crate::norms::max_abs_diff;
    use task_runtime::WorkerPool;

    fn spd(n: usize, nb: usize) -> (SymTileMatrix, DenseMatrix) {
        let f = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 6.0).exp() + if i == j { 0.01 } else { 0.0 }
        };
        let sym = SymTileMatrix::from_fn(n, nb, f);
        let dense = DenseMatrix::from_fn(n, n, f);
        (sym, dense)
    }

    fn rand_panel(n: usize, m: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(n, m, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn forward_solve_matches_direct_reconstruction() {
        let (mut a, _) = spd(33, 8);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let b0 = rand_panel(33, 4, 1);
        let mut x = b0.clone();
        solve_lower_panel(&a, &mut x);
        let l = a.to_dense_lower();
        let rec = l.matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-9);
    }

    #[test]
    fn backward_solve_matches_direct_reconstruction() {
        let (mut a, _) = spd(26, 7);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let b0 = rand_panel(26, 3, 2);
        let mut x = b0.clone();
        solve_lower_transpose_panel(&a, &mut x);
        let lt = a.to_dense_lower().transpose();
        let rec = lt.matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-9);
    }

    #[test]
    fn spd_solve_recovers_right_hand_side() {
        let (mut a, dense) = spd(40, 8);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let b0 = rand_panel(40, 2, 3);
        let mut x = b0.clone();
        solve_spd_panel(&a, &mut x);
        let rec = dense.matmul(&x);
        assert!(max_abs_diff(&rec, &b0) < 1e-8);
    }

    #[test]
    fn multiply_lower_matches_dense_product() {
        let (mut a, _) = spd(29, 9);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let z = rand_panel(29, 5, 4);
        let y = multiply_lower_panel(&a, &z);
        let l = a.to_dense_lower();
        let want = l.matmul(&z);
        assert!(max_abs_diff(&y, &want) < 1e-11);
    }

    #[test]
    fn multiply_then_solve_is_identity() {
        let (mut a, _) = spd(24, 5);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let z = rand_panel(24, 3, 5);
        let mut y = multiply_lower_panel(&a, &z);
        solve_lower_panel(&a, &mut y);
        assert!(max_abs_diff(&y, &z) < 1e-9);
    }

    #[test]
    #[should_panic]
    fn mismatched_panel_rows_panic() {
        let (mut a, _) = spd(16, 4);
        potrf_tiled(&mut a, &WorkerPool::new(1)).unwrap();
        let mut b = DenseMatrix::zeros(10, 2);
        solve_lower_panel(&a, &mut b);
    }
}
