//! Batched (slice) forms of the normal-distribution primitives.
//!
//! The chain-major PMVN kernel (`mvn_core::qmc_kernel`) evaluates Φ, Φ-diff
//! and Φ⁻¹ over a contiguous lane of QMC chains at every row of the SOV
//! recursion. These slice APIs exist so that hot loop can stay free of
//! per-element function-call overhead and — where the math allows — run the
//! whole lane through a branch-free polynomial path the compiler can
//! autovectorize:
//!
//! * every function is **bitwise identical** to mapping its scalar
//!   counterpart over the slice (asserted exhaustively by the tests below,
//!   including ±∞, NaN, subnormals and the deep tails) — the fast paths are
//!   the *same expressions* as the scalar code, reached without per-lane
//!   branching;
//! * [`norm_quantile_slice`] classifies each 8-lane chunk once: when all
//!   lanes fall in the AS241 central region (the overwhelmingly common case
//!   for QMC samples) the chunk is evaluated through the branch-free rational
//!   polynomial (`quantile_central`, the same helper the scalar path calls)
//!   in a straight loop, which vectorizes; mixed chunks fall back to the
//!   scalar routine per lane;
//! * [`norm_cdf_and_diff_slice`] fuses the kernel's `Φ(a)` +
//!   `Φ(b) − Φ(a)` pair, reusing the already-computed `Φ(a)` whenever the
//!   scalar [`norm_cdf_diff`](crate::norm_cdf_diff) would recompute it (its
//!   `a ≤ 0` branch) and skipping the `Φ(b)` evaluation entirely for
//!   `b = +∞` — one to two fewer `erfc` evaluations per lane than the
//!   unfused scalar sequence, with bit-for-bit the same results.

use crate::normal::{norm_cdf, norm_quantile, quantile_central};

/// Lanes per classification chunk in [`norm_quantile_slice`].
const CHUNK: usize = 8;

/// Φ over a slice: `out[i] = norm_cdf(x[i])`, bitwise identical to the scalar
/// [`norm_cdf`].
#[inline]
pub fn norm_cdf_slice(x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "norm_cdf_slice: length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = norm_cdf(v);
    }
}

/// The fused per-row evaluation of the SOV recursion: for every lane `i`
/// write `phi_a[i] = norm_cdf(a[i])` and `diff[i] = norm_cdf_diff(a[i],
/// b[i])`, bitwise identical to the two scalar calls but sharing the Φ(a)
/// evaluation between them where the scalar difference would recompute it.
pub fn norm_cdf_and_diff_slice(a: &[f64], b: &[f64], phi_a: &mut [f64], diff: &mut [f64]) {
    let n = a.len();
    assert_eq!(b.len(), n, "norm_cdf_and_diff_slice: length mismatch");
    assert_eq!(phi_a.len(), n, "norm_cdf_and_diff_slice: length mismatch");
    assert_eq!(diff.len(), n, "norm_cdf_and_diff_slice: length mismatch");
    for i in 0..n {
        let ai = a[i];
        let bi = b[i];
        let pa = norm_cdf(ai);
        phi_a[i] = pa;
        // Mirrors `norm_cdf_diff` exactly; in its lower/central branch the
        // scalar code computes `norm_cdf(b) - norm_cdf(a)`, and `pa` *is*
        // `norm_cdf(a)`, so reusing it cannot change a bit.
        diff[i] = if ai >= bi {
            0.0
        } else if ai > 0.0 {
            norm_cdf(-ai) - norm_cdf(-bi)
        } else {
            norm_cdf(bi) - pa
        };
    }
}

/// `true` when `q = p − 0.5` lies in the AS241 central region, which also
/// implies `p` is a valid probability (NaN compares false).
#[inline(always)]
fn is_central(p: f64) -> bool {
    (p - 0.5).abs() <= 0.425
}

/// Φ⁻¹ over a slice: `out[i] = norm_quantile(p[i])`, bitwise identical to the
/// scalar [`norm_quantile`].
///
/// Chunks of `CHUNK` (8) lanes whose entries all fall in the central region
/// `|p − 0.5| ≤ 0.425` are evaluated through the branch-free rational
/// polynomial in one straight loop (no per-lane branches, so the compiler can
/// vectorize it); chunks containing tail, boundary or invalid entries fall
/// back to the scalar routine lane by lane.
pub fn norm_quantile_slice(p: &[f64], out: &mut [f64]) {
    assert_eq!(p.len(), out.len(), "norm_quantile_slice: length mismatch");
    let mut p_chunks = p.chunks_exact(CHUNK);
    let mut o_chunks = out.chunks_exact_mut(CHUNK);
    for (pc, oc) in (&mut p_chunks).zip(&mut o_chunks) {
        if pc.iter().all(|&v| is_central(v)) {
            for (o, &v) in oc.iter_mut().zip(pc) {
                *o = quantile_central(v - 0.5);
            }
        } else {
            for (o, &v) in oc.iter_mut().zip(pc) {
                *o = norm_quantile(v);
            }
        }
    }
    for (o, &v) in o_chunks
        .into_remainder()
        .iter_mut()
        .zip(p_chunks.remainder())
    {
        *o = norm_quantile(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::norm_cdf_diff;

    /// A deterministic 64-bit stream (SplitMix64) for property-style cases.
    struct Stream(u64);
    impl Stream {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Edge values for the CDF-side functions: zeros, infinities, NaN,
    /// subnormals, region boundaries of the Cody erfc and deep tails.
    fn cdf_edge_values() -> Vec<f64> {
        let thresh_x = 0.46875 * std::f64::consts::SQRT_2;
        let mut v = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE, // smallest normal
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 2.0,
            5e-324, // smallest subnormal
            -5e-324,
            thresh_x, // |y| = THRESH boundary of erfc
            -thresh_x,
            thresh_x + 1e-15,
            -(thresh_x + 1e-15),
            4.0 * std::f64::consts::SQRT_2, // region 2/3 boundary
            -4.0 * std::f64::consts::SQRT_2,
            8.0,
            -8.0,
            26.6 * std::f64::consts::SQRT_2, // erfc underflow threshold
            37.6,                            // Φ(-x) underflows to 0 nearby
            -37.6,
            40.0,
            -40.0,
            1e300,
            -1e300,
        ];
        let mut s = Stream(0xC0FFEE);
        for _ in 0..4096 {
            // Mix of central, moderate-tail and deep-tail magnitudes.
            let scale = match s.next_u64() % 4 {
                0 => 0.5,
                1 => 2.0,
                2 => 8.0,
                _ => 40.0,
            };
            v.push((s.uniform() * 2.0 - 1.0) * scale);
        }
        v
    }

    #[test]
    fn cdf_slice_is_bitwise_identical_to_scalar() {
        let xs = cdf_edge_values();
        let mut out = vec![0.0; xs.len()];
        norm_cdf_slice(&xs, &mut out);
        for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
            let want = norm_cdf(x);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "lane {i}: norm_cdf_slice({x:e}) = {got:e}, scalar {want:e}"
            );
        }
    }

    #[test]
    fn fused_cdf_and_diff_is_bitwise_identical_to_the_two_scalar_calls() {
        let xs = cdf_edge_values();
        let mut a: Vec<f64> = xs.clone();
        let mut b: Vec<f64> = xs.iter().rev().cloned().collect();
        // The kernel's common shapes: semi-infinite boxes and upper-tail
        // intervals (the branch where the scalar diff mirrors the interval).
        for &(x, y) in &[
            (-0.3, f64::INFINITY),
            (3.0, f64::INFINITY),
            (2.0, 5.0),
            (0.5, 0.6),
            (f64::NEG_INFINITY, 0.0),
            (f64::NAN, f64::NAN),
        ] {
            a.push(x);
            b.push(y);
        }
        let (mut phi, mut dif) = (vec![0.0; a.len()], vec![0.0; a.len()]);
        norm_cdf_and_diff_slice(&a, &b, &mut phi, &mut dif);
        for i in 0..a.len() {
            let want_phi = norm_cdf(a[i]);
            let want_dif = norm_cdf_diff(a[i], b[i]);
            assert_eq!(phi[i].to_bits(), want_phi.to_bits(), "phi lane {i}");
            assert_eq!(
                dif[i].to_bits(),
                want_dif.to_bits(),
                "diff lane {i}: ({:e}, {:e})",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn quantile_slice_is_bitwise_identical_to_scalar() {
        let mut ps = vec![
            0.0,
            1.0,
            -0.0,
            0.5,
            0.075, // exactly the central boundary (q = -0.425)
            0.925, // exactly the central boundary (q = +0.425)
            0.075 - 1e-15,
            0.925 + 1e-15,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal probability
            5e-324,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            1e-300,
            1e-10,
            1.0 - 1e-10,
            f64::NAN,
            -0.1,
            1.1,
            -1e300,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            // The r > 5 deep-tail branch of AS241 (p < ~e^-25).
            1e-12,
            1e-30,
            1e-200,
        ];
        let mut s = Stream(0xFEED);
        for i in 0..4096 {
            // Alternate central-heavy and full-range stretches so some CHUNK
            // windows take the vectorized path and others the scalar path.
            let p = if (i / CHUNK).is_multiple_of(2) {
                0.1 + 0.8 * s.uniform()
            } else {
                s.uniform()
            };
            ps.push(p);
        }
        let mut out = vec![0.0; ps.len()];
        norm_quantile_slice(&ps, &mut out);
        for (i, (&p, &got)) in ps.iter().zip(&out).enumerate() {
            let want = norm_quantile(p);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "lane {i}: quantile_slice({p:e}) = {got:e}, scalar {want:e}"
            );
        }
    }

    #[test]
    fn quantile_slice_result_does_not_depend_on_chunk_alignment() {
        // The same value must produce the same bits whether its chunk takes
        // the vectorized central path or the scalar fallback path.
        let mut s = Stream(0xA11CE);
        let ps: Vec<f64> = (0..513).map(|_| s.uniform()).collect();
        let mut full = vec![0.0; ps.len()];
        norm_quantile_slice(&ps, &mut full);
        for offset in 1..CHUNK {
            let sub = &ps[offset..];
            let mut out = vec![0.0; sub.len()];
            norm_quantile_slice(sub, &mut out);
            for (i, (&got, &want)) in out.iter().zip(&full[offset..]).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "offset {offset}, lane {i}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut out = vec![0.0; 3];
        norm_cdf_slice(&[0.0; 4], &mut out);
    }
}
