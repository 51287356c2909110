//! General matrix–matrix multiply kernels (`C ← α·op(A)·op(B) + β·C`).
//!
//! * `gemm_nn`/`gemm_nt` share one packed body. It packs `A` once into
//!   `W`-row panels (contiguous, `p`-major, zero rows past `m`) and then, one
//!   `Q`-column panel at a time, packs `op(B)` already scaled:
//!   `bp[p·Q + q] = α·op(B)(p, j0 + q)`, the very product the naive loop forms
//!   for every term. A `W × Q` register tile runs `acc[q][r] += a[r]·bp[q]`;
//!   every `A` load is reused `Q` times and every `B` value `W` times. The
//!   body is compiled twice, 4 × 4 for baseline x86-64 and 8 × 4 for AVX2,
//!   and one run-time check picks the compilation (see `isa`).
//! * `gemm_tn` is a dot-product kernel (both operands walk contiguous
//!   columns); it blocks 4 output rows × 2 output columns so eight
//!   independent accumulation chains hide the FP add latency that bounds a
//!   naive single-chain dot product. It runs in the baseline compilation
//!   only: its AVX2 compilation measured ≈ 20 % slower.
//!
//! **Determinism contract.** For every output element the `k`-dimension
//! accumulation runs in strictly increasing `p` order, one term at a time,
//! with no fused-multiply-add and no reduction splitting. Where the sum
//! starts is fixed by the row alone: rows `[0, m − m % 4)` (the full 4-row
//! blocks) load their accumulator *from `C`* (after the `β` scaling), so their
//! sum is `c, +t_0, +t_1, …` like the naive loop; the last `m % 4` rows sum
//! from zero and add to `C` once. So an element's bits depend on its operand
//! row and column and on whether its row is one of those edge rows — never on
//! its column position, the micro-tile shape or the ISA. The PMVN sweep's
//! propagation `gemm_nt` has the chains as rows, so its bits are the same
//! across worker counts and schedulers, and across panel widths whenever
//! every panel holds a multiple of 4 chains (see DESIGN.md, "Kernel layout &
//! vectorization").

use super::isa::{self, Kernel};
use crate::dense::DenseMatrix;

/// Height of the row blocks whose sums start from `C`; the last
/// `m % EDGE_BLOCK` rows sum from zero (see the determinism contract).
const EDGE_BLOCK: usize = 4;

/// One packed GEMM call: `C ← α·A·op(B) + β·C` with `op(B) = B`, or `Bᵀ` when
/// `b_trans`.
pub(super) struct Gemm<'a> {
    pub(super) alpha: f64,
    pub(super) a: &'a DenseMatrix,
    pub(super) b: &'a DenseMatrix,
    pub(super) b_trans: bool,
    pub(super) beta: f64,
    pub(super) c: &'a mut DenseMatrix,
}

impl Kernel for Gemm<'_> {
    #[inline(always)]
    fn run<const W: usize, const Q: usize>(self) {
        gemm_packed::<W, Q>(self.alpha, self.a, self.b, self.b_trans, self.beta, self.c)
    }
}

/// The one packed GEMM body, for a `W × Q` register tile, inlined into each
/// compilation (see `isa::Kernel`).
#[inline(always)]
fn gemm_packed<const W: usize, const Q: usize>(
    alpha: f64,
    a: &DenseMatrix,
    b: &DenseMatrix,
    b_trans: bool,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (m, k) = (a.nrows(), a.ncols());
    // op(B)(p, j) = b_d[p * b_p + j * b_j].
    let (n, b_p, b_j) = if b_trans {
        (b.nrows(), b.nrows(), 1)
    } else {
        (b.ncols(), 1, b.nrows())
    };
    if beta != 1.0 {
        c.scale(beta);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (a_d, b_d, c_d) = (a.data(), b.data(), c.data_mut());
    let from_c = m - m % EDGE_BLOCK;
    // Packed per call. A per-thread buffer kept at tile size raised the
    // peak RSS of the CRD benchmark by ~3 MB; one allocation per call is
    // small next to the O(m·n·k) work.
    let mut apack = Vec::with_capacity(m.div_ceil(W) * W * k);
    for i0 in (0..m).step_by(W) {
        let rows = W.min(m - i0);
        for p in 0..k {
            apack.extend_from_slice(&a_d[p * m + i0..p * m + i0 + rows]);
            apack.resize(apack.len() + W - rows, 0.0);
        }
    }
    let mut bpack = vec![0.0; Q * k];
    for j0 in (0..n).step_by(Q) {
        let cols = Q.min(n - j0);
        for (p, dst) in bpack.chunks_exact_mut(Q).enumerate() {
            for q in 0..cols {
                dst[q] = alpha * b_d[p * b_p + (j0 + q) * b_j];
            }
            dst[cols..].fill(0.0);
        }
        for (t, panel) in apack.chunks_exact(W * k).enumerate() {
            let i0 = t * W;
            let mut acc = [[0.0f64; W]; Q];
            if i0 + W <= from_c && cols == Q {
                for (q, accq) in acc.iter_mut().enumerate() {
                    let base = (j0 + q) * m + i0;
                    accq.copy_from_slice(&c_d[base..base + W]);
                }
                let acc = tile(panel, &bpack, acc);
                for (q, accq) in acc.iter().enumerate() {
                    let base = (j0 + q) * m + i0;
                    c_d[base..base + W].copy_from_slice(accq);
                }
            } else {
                // An edge tile: past the last row or column, or holding
                // rows that sum from zero.
                let rows = W.min(m - i0);
                for q in 0..cols {
                    for r in 0..rows.min(from_c.saturating_sub(i0)) {
                        acc[q][r] = c_d[(j0 + q) * m + i0 + r];
                    }
                }
                let acc = tile(panel, &bpack, acc);
                for q in 0..cols {
                    for r in 0..rows {
                        let cij = &mut c_d[(j0 + q) * m + i0 + r];
                        if i0 + r < from_c {
                            *cij = acc[q][r];
                        } else {
                            *cij += acc[q][r];
                        }
                    }
                }
            }
        }
    }
}

/// The `W × Q` register tile: `acc[q][r] += a[r]·b[q]` for every packed step
/// `p` in increasing order.
#[inline(always)]
fn tile<const W: usize, const Q: usize>(
    apanel: &[f64],
    bpanel: &[f64],
    mut acc: [[f64; W]; Q],
) -> [[f64; W]; Q] {
    for (a, b) in apanel.chunks_exact(W).zip(bpanel.chunks_exact(Q)) {
        for q in 0..Q {
            let bq = b[q];
            for r in 0..W {
                acc[q][r] += a[r] * bq;
            }
        }
    }
    acc
}

/// `C ← α·A·B + β·C`.
pub fn gemm_nn(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    assert_eq!(a.ncols(), b.nrows(), "gemm_nn: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm_nn: C row mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm_nn: C col mismatch");
    isa::run(Gemm {
        alpha,
        a,
        b,
        b_trans: false,
        beta,
        c,
    })
}

/// `C ← α·A·Bᵀ + β·C`.
pub fn gemm_nt(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm_nt: C row mismatch");
    assert_eq!(c.ncols(), b.nrows(), "gemm_nt: C col mismatch");
    isa::run(Gemm {
        alpha,
        a,
        b,
        b_trans: true,
        beta,
        c,
    })
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
    use crate::kernels::syrk::SyrkLower;
    use crate::kernels::trsm::TrsmRightLowerTrans;
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
        // Sweep shapes around the micro-tiles so full blocks, row edges,
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
        // its operand column, not on where it sits relative to the 4-column
        // micro-tiles. Compute a product, then recompute with the output
        // embedded at a shifted column offset and compare bits.
        let m = 11;
        let k = 9;
        let n = 10;
        let a = rand_matrix(m, k, 91);
        let b = rand_matrix(k, n, 92);
        let mut c = DenseMatrix::zeros(m, n);
        gemm_nn(1.0, &a, &b, 0.0, &mut c);
        for shift in 1..4 {
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

    /// `C ← α·A·B + β·C` by the naive loop of the determinism contract: the
    /// rows of full 4-row blocks sum from `C`, the last `m % 4` from zero.
    fn naive_gemm_nn(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
        let (m, k) = (a.nrows(), a.ncols());
        c.scale(beta);
        for j in 0..b.ncols() {
            for i in 0..m {
                let from_c = i < m - m % 4;
                let mut acc = if from_c { c.get(i, j) } else { 0.0 };
                for p in 0..k {
                    acc += a.get(i, p) * (alpha * b.get(p, j));
                }
                c.set(i, j, if from_c { acc } else { c.get(i, j) + acc });
            }
        }
    }

    #[test]
    fn row_blocks_are_bitwise_invariant_and_edge_rows_sum_from_zero() {
        // The row twin of the column test above. Rows inside the full 4-row
        // blocks keep their bits wherever they sit; the last `m % 4` rows sum
        // from zero and add to `C` once. Both are pinned against the naive
        // loop, for every row shift and both dispatched GEMMs.
        let (m, k, n) = (11, 9, 10);
        let (alpha, beta) = (-0.7, 0.5);
        let a = rand_matrix(m, k, 93);
        let b = rand_matrix(k, n, 94);
        let c0 = rand_matrix(m, n, 95);
        let mut edge_order_shows = false;
        for shift in 0..4 {
            // Prepend `shift` extra rows to A: the shared rows now sit at
            // other positions relative to the 4-row blocks and the edge.
            let rows = m + shift;
            let a_s = DenseMatrix::from_fn(rows, k, |i, p| {
                if i < shift {
                    0.25 * (i + p) as f64
                } else {
                    a.get(i - shift, p)
                }
            });
            let c_s =
                DenseMatrix::from_fn(
                    rows,
                    n,
                    |i, j| {
                        if i < shift {
                            1.0
                        } else {
                            c0.get(i - shift, j)
                        }
                    },
                );
            let mut naive = c_s.clone();
            naive_gemm_nn(alpha, &a_s, &b, beta, &mut naive);
            let mut nn = c_s.clone();
            gemm_nn(alpha, &a_s, &b, beta, &mut nn);
            let mut nt = c_s.clone();
            gemm_nt(alpha, &a_s, &b.transpose(), beta, &mut nt);
            for j in 0..n {
                for i in 0..rows {
                    let want = naive.get(i, j).to_bits();
                    assert_eq!(
                        nn.get(i, j).to_bits(),
                        want,
                        "gemm_nn shift {shift} ({i},{j})"
                    );
                    assert_eq!(
                        nt.get(i, j).to_bits(),
                        want,
                        "gemm_nt shift {shift} ({i},{j})"
                    );
                }
            }
            // The rows of A's full blocks in both layouts agree bit for bit.
            let mut base = c0.clone();
            gemm_nn(alpha, &a, &b, beta, &mut base);
            for i in 0..(m - m % 4).min(rows - rows % 4 - shift) {
                for j in 0..n {
                    assert_eq!(
                        base.get(i, j).to_bits(),
                        nn.get(i + shift, j).to_bits(),
                        "shift {shift}, block row {i}, column {j}"
                    );
                }
            }
            // The pin has teeth: summing an edge row from `C` gives other
            // bits somewhere.
            for i in rows - rows % 4..rows {
                for j in 0..n {
                    let mut acc = beta * c_s.get(i, j);
                    for p in 0..k {
                        acc += a_s.get(i, p) * (alpha * b.get(p, j));
                    }
                    edge_order_shows |= acc.to_bits() != nn.get(i, j).to_bits();
                }
            }
        }
        assert!(
            edge_order_shows,
            "no edge element told the two sum orders apart"
        );
    }

    /// A `rows × cols` matrix with `+0.0` and `-0.0` sprinkled among random
    /// entries.
    fn signed_zero_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let r = rand_matrix(rows, cols, seed);
        DenseMatrix::from_fn(rows, cols, |i, j| {
            match (i * 7 + j * 3 + seed as usize) % 11 {
                0 => -0.0,
                5 => 0.0,
                _ => r.get(i, j),
            }
        })
    }

    /// Run `k` on the dispatched (AVX2 where the CPU has it) compilation when
    /// `wide`, else on the portable one.
    fn on<K: Kernel>(wide: bool, k: K) {
        if wide {
            isa::run(k)
        } else {
            isa::portable(k)
        }
    }

    /// Run every dispatched kernel once for the shape `(m, k, n)`, on the
    /// compilation `on` picks for `wide`, and return the outputs.
    fn every_kernel(
        wide: bool,
        m: usize,
        k: usize,
        n: usize,
        alpha: f64,
        beta: f64,
    ) -> Vec<DenseMatrix> {
        let seed = (m * 1000 + k * 10 + n) as u64;
        let a = signed_zero_matrix(m, k, seed);
        let b_nn = signed_zero_matrix(k, n, seed + 1);
        let b_nt = signed_zero_matrix(n, k, seed + 2);
        let c = signed_zero_matrix(m, n, seed + 4);
        let mut out = Vec::new();
        for (b, b_trans) in [(&b_nn, false), (&b_nt, true)] {
            let mut c = c.clone();
            on(
                wide,
                Gemm {
                    alpha,
                    a: &a,
                    b,
                    b_trans,
                    beta,
                    c: &mut c,
                },
            );
            out.push(c);
        }
        let mut c_syrk = signed_zero_matrix(m, m, seed + 5);
        on(
            wide,
            SyrkLower {
                alpha,
                a: &a,
                beta,
                c: &mut c_syrk,
            },
        );
        out.push(c_syrk);
        let r = signed_zero_matrix(n, n, seed + 6);
        let l = DenseMatrix::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Greater => r.get(i, j),
            std::cmp::Ordering::Equal => 1.5 + r.get(i, j).abs(),
            std::cmp::Ordering::Less => 0.0,
        });
        let mut x = c;
        on(wide, TrsmRightLowerTrans { l: &l, b: &mut x });
        out.push(x);
        out
    }

    #[test]
    fn both_compilations_agree_bit_for_bit() {
        // What makes the run-time ISA choice invisible (and a cluster of
        // mixed CPUs safe without an ISA fingerprint): the 4 × 4 baseline and
        // the 8 × 4 AVX2 compilations of every dispatched kernel give the same
        // bits on ragged and full shapes alike.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: compared the portable compilation with itself");
        }
        let mut shapes = Vec::new();
        for m in 1..=13 {
            for k in [0, 1, 7, 100] {
                for n in 1..=13 {
                    shapes.push((m, k, n));
                }
            }
        }
        // The sweep's propagation, the factor tile, and ragged edges on both
        // micro-tiles.
        shapes.extend([(64, 100, 100), (100, 100, 100), (103, 37, 101)]);
        let names = ["gemm_nn", "gemm_nt", "syrk_lower", "trsm_right_lower_trans"];
        for &(m, k, n) in &shapes {
            for alpha in [-1.0, 0.7, 2.0] {
                for beta in [0.0, 0.5, 1.0] {
                    let portable = every_kernel(false, m, k, n, alpha, beta);
                    let wide = every_kernel(true, m, k, n, alpha, beta);
                    for ((name, p), w) in names.iter().zip(&portable).zip(&wide) {
                        let same = p
                            .data()
                            .iter()
                            .zip(w.data())
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(same, "{name} ({m},{k},{n}) alpha {alpha} beta {beta}");
                    }
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
