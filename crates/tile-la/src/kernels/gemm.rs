//! General matrix–matrix multiply kernels (`C ← α·op(A)·op(B) + β·C`).
//!
//! The kernels are cache-blocked, register-tiled micro-kernels shaped for the
//! tile sizes of this workspace (tens to a few hundred rows/columns, fitting
//! in L1/L2):
//!
//! * `gemm_nn`/`gemm_nt` pack an [`MR`]-row panel of `A` once per row block
//!   (contiguous, `p`-major) and stream it against [`NR`] columns of `B` at a
//!   time, accumulating an `MR × NR` block in registers. Every `A` load is
//!   reused `NR` times and every `B` load `MR` times, and the unrolled
//!   `MR`-lane inner updates are straight-line mul/add code the compiler
//!   autovectorizes.
//! * `gemm_tn` is a dot-product kernel (both operands walk contiguous
//!   columns); it blocks 4 output rows × 2 output columns so eight
//!   independent accumulation chains hide the FP add latency that bounds a
//!   naive single-chain dot product.
//!
//! **Determinism contract.** For every output element the `k`-dimension
//! accumulation runs in strictly increasing `p` order, one term at a time,
//! exactly like the naive triple loop: the accumulator block is *loaded from
//! `C`* (after the `β` scaling), updated in `p` order, and stored back, and
//! no fused-multiply-add or reduction splitting is introduced. Register
//! blocking therefore changes which elements are computed *together*, never
//! the order of the sum within an element — results are independent of the
//! blocking parameters, which is what keeps the PMVN sweep bitwise identical
//! across panel widths and worker counts (see DESIGN.md, "Kernel layout &
//! vectorization").

use crate::dense::DenseMatrix;

/// Rows of the register micro-tile (also the packed-panel height).
pub const MR: usize = 4;
/// Columns of the register micro-tile.
pub const NR: usize = 4;

std::thread_local! {
    /// Reused `A`-panel pack buffer. The PMVN sweep calls `gemm_nn`/`gemm_nt`
    /// once per off-diagonal tile per row block, so a per-call allocation
    /// would sit squarely in the hot loop the chain-major refactor otherwise
    /// made allocation-free; each worker thread owns one buffer instead.
    /// The kernels never nest, so the `RefCell` borrow is always available.
    static APACK: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with a thread-local scratch of at least `len` doubles.
#[inline]
fn with_apack<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    APACK.with(|buf| {
        let mut apack = buf.borrow_mut();
        if apack.len() < len {
            apack.resize(len, 0.0);
        }
        f(&mut apack[..len])
    })
}

/// Pack rows `i0..i0+MR` of the column-major `a` (`m × k`) into a contiguous
/// `p`-major panel: `apack[p*MR + r] = a[(i0 + r) + p*m]`.
#[inline]
fn pack_a_panel(a: &[f64], m: usize, k: usize, i0: usize, apack: &mut [f64]) {
    for p in 0..k {
        let src = &a[p * m + i0..p * m + i0 + MR];
        let dst = &mut apack[p * MR..p * MR + MR];
        dst.copy_from_slice(src);
    }
}

/// The shared `MR × NR` register micro-kernel: `C[i0.., j0..] += Apack · Bq`
/// where `Bq` yields the `NR` scaled `B` entries of step `p`.
///
/// The accumulators are initialized *from `C`* so the per-element sum order
/// is `c, +t_0, +t_1, …` — identical to the naive loop.
#[inline(always)]
fn micro_kernel<B: Fn(usize, usize) -> f64>(
    apack: &[f64],
    k: usize,
    bval: B,
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f64; MR]; NR];
    for (q, accq) in acc.iter_mut().enumerate() {
        let base = (j0 + q) * ldc + i0;
        accq.copy_from_slice(&c[base..base + MR]);
    }
    for p in 0..k {
        let ap = &apack[p * MR..p * MR + MR];
        for (q, accq) in acc.iter_mut().enumerate() {
            let b = bval(p, q);
            for r in 0..MR {
                accq[r] += ap[r] * b;
            }
        }
    }
    for (q, accq) in acc.iter().enumerate() {
        let base = (j0 + q) * ldc + i0;
        c[base..base + MR].copy_from_slice(accq);
    }
}

/// Scalar edge update for output element `(i, j)` of `C ← C + α·A·op(B)`
/// with the same `p`-sequential accumulation order as the micro-kernel.
#[inline(always)]
fn edge_element<B: Fn(usize) -> f64>(a: &[f64], m: usize, k: usize, i: usize, bval: B) -> f64 {
    let mut acc = 0.0;
    for p in 0..k {
        acc += a[p * m + i] * bval(p);
    }
    acc
}

/// `C ← α·A·B + β·C`.
pub fn gemm_nn(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    assert_eq!(a.ncols(), b.nrows(), "gemm_nn: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm_nn: C row mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm_nn: C col mismatch");
    let m = a.nrows();
    let k = a.ncols();
    let n = b.ncols();
    if beta != 1.0 {
        c.scale(beta);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_d = a.data();
    let b_d = b.data();
    let ldc = m;
    let c_d = c.data_mut();
    // b(p, j) = b_d[j*k + p], scaled by alpha at load (like the naive loop).
    let i0 = with_apack(MR * k, |apack| {
        let mut i0 = 0;
        while i0 + MR <= m {
            pack_a_panel(a_d, m, k, i0, apack);
            let mut j0 = 0;
            while j0 + NR <= n {
                micro_kernel(
                    &*apack,
                    k,
                    |p, q| alpha * b_d[(j0 + q) * k + p],
                    c_d,
                    ldc,
                    i0,
                    j0,
                );
                j0 += NR;
            }
            for j in j0..n {
                let bcol = &b_d[j * k..(j + 1) * k];
                for r in 0..MR {
                    let mut acc = c_d[j * ldc + i0 + r];
                    for p in 0..k {
                        acc += apack[p * MR + r] * (alpha * bcol[p]);
                    }
                    c_d[j * ldc + i0 + r] = acc;
                }
            }
            i0 += MR;
        }
        i0
    });
    for i in i0..m {
        for j in 0..n {
            let bcol = &b_d[j * k..(j + 1) * k];
            c_d[j * ldc + i] += edge_element(a_d, m, k, i, |p| alpha * bcol[p]);
        }
    }
}

/// `C ← α·A·Bᵀ + β·C`.
pub fn gemm_nt(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm_nt: C row mismatch");
    assert_eq!(c.ncols(), b.nrows(), "gemm_nt: C col mismatch");
    let m = a.nrows();
    let k = a.ncols();
    let n = b.nrows();
    if beta != 1.0 {
        c.scale(beta);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_d = a.data();
    let b_d = b.data();
    let ldc = m;
    let c_d = c.data_mut();
    // bᵀ(p, j) = b(j, p) = b_d[p*n + j]; the NR entries of a micro-step are
    // contiguous in memory.
    let i0 = with_apack(MR * k, |apack| {
        let mut i0 = 0;
        while i0 + MR <= m {
            pack_a_panel(a_d, m, k, i0, apack);
            let mut j0 = 0;
            while j0 + NR <= n {
                micro_kernel(
                    &*apack,
                    k,
                    |p, q| alpha * b_d[p * n + j0 + q],
                    c_d,
                    ldc,
                    i0,
                    j0,
                );
                j0 += NR;
            }
            for j in j0..n {
                for r in 0..MR {
                    let mut acc = c_d[j * ldc + i0 + r];
                    for p in 0..k {
                        acc += apack[p * MR + r] * (alpha * b_d[p * n + j]);
                    }
                    c_d[j * ldc + i0 + r] = acc;
                }
            }
            i0 += MR;
        }
        i0
    });
    for i in i0..m {
        for j in 0..n {
            c_d[j * ldc + i] += edge_element(a_d, m, k, i, |p| alpha * b_d[p * n + j]);
        }
    }
}

/// `C ← α·Aᵀ·B + β·C`.
///
/// Both operands walk contiguous columns, so this is a dot-product kernel:
/// 4 × 2 output elements share their operand loads and accumulate in eight
/// independent chains. Each chain still sums in strictly increasing `p`
/// order with `α` applied once at the end, exactly like the naive loop.
pub fn gemm_tn(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    assert_eq!(a.nrows(), b.nrows(), "gemm_tn: inner dimension mismatch");
    assert_eq!(c.nrows(), a.ncols(), "gemm_tn: C row mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm_tn: C col mismatch");
    let m = a.ncols();
    let k = a.nrows();
    let n = b.ncols();
    if beta != 1.0 {
        c.scale(beta);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    const TM: usize = 4;
    const TN: usize = 2;
    let a_d = a.data();
    let b_d = b.data();
    let ldc = m;
    let c_d = c.data_mut();
    let acol = |i: usize| &a_d[i * k..(i + 1) * k];
    let bcol = |j: usize| &b_d[j * k..(j + 1) * k];
    let mut j0 = 0;
    while j0 + TN <= n {
        let (b0, b1) = (bcol(j0), bcol(j0 + 1));
        let mut i0 = 0;
        while i0 + TM <= m {
            let (a0, a1, a2, a3) = (acol(i0), acol(i0 + 1), acol(i0 + 2), acol(i0 + 3));
            let mut acc = [[0.0f64; TM]; TN];
            for p in 0..k {
                let av = [a0[p], a1[p], a2[p], a3[p]];
                let bv = [b0[p], b1[p]];
                for q in 0..TN {
                    for r in 0..TM {
                        acc[q][r] += av[r] * bv[q];
                    }
                }
            }
            for q in 0..TN {
                for r in 0..TM {
                    c_d[(j0 + q) * ldc + i0 + r] += alpha * acc[q][r];
                }
            }
            i0 += TM;
        }
        for i in i0..m {
            let ai = acol(i);
            for (q, bq) in [b0, b1].into_iter().enumerate() {
                let mut s = 0.0;
                for p in 0..k {
                    s += ai[p] * bq[p];
                }
                c_d[(j0 + q) * ldc + i] += alpha * s;
            }
        }
        j0 += TN;
    }
    for j in j0..n {
        let bj = bcol(j);
        for i in 0..m {
            let ai = acol(i);
            let mut s = 0.0;
            for p in 0..k {
                s += ai[p] * bj[p];
            }
            c_d[j * ldc + i] += alpha * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> DenseMatrix {
        let mut s = seed;
        DenseMatrix::from_fn(m, n, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemm_nn_matches_reference() {
        let a = rand_matrix(7, 5, 1);
        let b = rand_matrix(5, 9, 2);
        let mut c = rand_matrix(7, 9, 3);
        let reference = {
            let mut r = c.clone();
            r.scale(0.5);
            r.add_scaled(2.0, &a.matmul(&b));
            r
        };
        gemm_nn(2.0, &a, &b, 0.5, &mut c);
        assert!(max_abs_diff(&c, &reference) < 1e-13);
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let a = rand_matrix(6, 4, 11);
        let b = rand_matrix(8, 4, 12);
        let mut c = DenseMatrix::zeros(6, 8);
        gemm_nt(1.0, &a, &b, 0.0, &mut c);
        let reference = a.matmul(&b.transpose());
        assert!(max_abs_diff(&c, &reference) < 1e-13);
    }

    #[test]
    fn gemm_tn_matches_reference() {
        let a = rand_matrix(4, 6, 21);
        let b = rand_matrix(4, 5, 22);
        let mut c = DenseMatrix::zeros(6, 5);
        gemm_tn(1.0, &a, &b, 0.0, &mut c);
        let reference = a.transpose().matmul(&b);
        assert!(max_abs_diff(&c, &reference) < 1e-13);
    }

    #[test]
    fn all_shapes_hit_micro_and_edge_paths() {
        // Sweep shapes around the MR/NR blocking so full blocks, row edges,
        // column edges and sub-block matrices are all exercised against the
        // naive reference products.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 3),
            (4, 4, 4),
            (5, 4, 5),
            (7, 3, 9),
            (8, 8, 8),
            (9, 5, 6),
            (12, 7, 10),
            (16, 16, 16),
            (17, 13, 19),
        ] {
            let a = rand_matrix(m, k, (m * 31 + k) as u64);
            let b = rand_matrix(k, n, (k * 17 + n) as u64);
            let mut c = rand_matrix(m, n, (m + n * 7) as u64);
            let reference = {
                let mut r = c.clone();
                r.scale(0.25);
                r.add_scaled(-1.5, &a.matmul(&b));
                r
            };
            gemm_nn(-1.5, &a, &b, 0.25, &mut c);
            assert!(
                max_abs_diff(&c, &reference) < 1e-12,
                "gemm_nn shape ({m},{k},{n})"
            );

            let bt = rand_matrix(n, k, (n * 13 + k) as u64);
            let mut c2 = rand_matrix(m, n, (m * 3 + n) as u64);
            let reference2 = {
                let mut r = c2.clone();
                r.add_scaled(2.0, &a.matmul(&bt.transpose()));
                r
            };
            gemm_nt(2.0, &a, &bt, 1.0, &mut c2);
            assert!(
                max_abs_diff(&c2, &reference2) < 1e-12,
                "gemm_nt shape ({m},{k},{n})"
            );

            let at = rand_matrix(k, m, (k * 11 + m) as u64);
            let b3 = rand_matrix(k, n, (k * 5 + n + 1) as u64);
            let mut c3 = rand_matrix(m, n, (m + n) as u64);
            let reference3 = {
                let mut r = c3.clone();
                r.add_scaled(0.7, &at.transpose().matmul(&b3));
                r
            };
            gemm_tn(0.7, &at, &b3, 1.0, &mut c3);
            assert!(
                max_abs_diff(&c3, &reference3) < 1e-12,
                "gemm_tn shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_free() {
        // beta = 0 with a C full of garbage must still produce a clean result
        // (this is how update tiles are first initialized).
        let a = rand_matrix(3, 3, 31);
        let b = rand_matrix(3, 3, 32);
        let mut c = DenseMatrix::from_fn(3, 3, |_, _| 1e300);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        let reference = a.matmul(&b);
        assert!(max_abs_diff(&c, &reference) < 1e-13);
    }

    #[test]
    fn accumulation_with_negative_alpha() {
        // The Cholesky trailing update uses alpha = -1, beta = 1.
        let a = rand_matrix(5, 3, 41);
        let b = rand_matrix(5, 3, 42);
        let mut c = rand_matrix(5, 5, 43);
        let reference = {
            let mut r = c.clone();
            r.add_scaled(-1.0, &a.matmul(&b.transpose()));
            r
        };
        gemm_nt(-1.0, &a, &b, 1.0, &mut c);
        assert!(max_abs_diff(&c, &reference) < 1e-13);
    }

    #[test]
    fn blocked_kernels_are_bitwise_invariant_to_output_position() {
        // The determinism contract: an output element's value depends only on
        // its operand row/column, not on where it sits relative to the
        // MR × NR blocking. Compute a product, then recompute with the output
        // embedded at a shifted column offset and compare bits.
        let m = 11;
        let k = 9;
        let n = 10;
        let a = rand_matrix(m, k, 91);
        let b = rand_matrix(k, n, 92);
        let mut c = DenseMatrix::zeros(m, n);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        for shift in 1..NR {
            // Prepend `shift` extra columns to B: the shared columns now sit
            // at different micro-tile positions.
            let b_shift = DenseMatrix::from_fn(k, n + shift, |i, j| {
                if j < shift {
                    0.25 * (i + j) as f64
                } else {
                    b.get(i, j - shift)
                }
            });
            let mut c_shift = DenseMatrix::zeros(m, n + shift);
            gemm_nn(1.0, &a, &b_shift, 0.0, &mut c_shift);
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(
                        c.get(i, j).to_bits(),
                        c_shift.get(i, j + shift).to_bits(),
                        "shift {shift}, element ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(3, 4);
        let b = DenseMatrix::zeros(3, 4);
        let mut c = DenseMatrix::zeros(3, 4);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
    }
}
