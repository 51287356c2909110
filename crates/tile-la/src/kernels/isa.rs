//! The one run-time ISA choice of the dense tile kernels.
//!
//! The bodies of `gemm_nn`/`gemm_nt` (one packed GEMM), `syrk_lower` and
//! `trsm_right_lower_trans` are written once, generic over the `W × Q` GEMM
//! micro-tile, and compiled twice: the baseline x86-64 (SSE2)
//! compilation with a 4 × 4 tile, and an AVX2 compilation with an 8 × 4 tile
//! (8 ymm accumulators, two `A` loads and one broadcast per step). An 8 × 6
//! tile (12 accumulators) leaves no register for the product a separate
//! multiply needs without FMA, spills, and ran slower than 8 × 4. [`run`]
//! picks one per call with `is_x86_feature_detected!("avx2")`, which std
//! caches after the first probe. `gemm_tn` is not dispatched: its
//! dot-product body ran ≈ 20 % slower in the AVX2 compilation.
//!
//! The choice never moves a bit: every lane of a vector instruction is one
//! output element doing the scalar IEEE operations in the scalar order, and
//! Rust never contracts a separate `*` and `+` into an FMA. That is why no ISA
//! level joins the factor fingerprint and why a cluster of mixed CPUs yields
//! the same factor bits (`gemm::tests::both_compilations_agree_bit_for_bit`).

/// One kernel call, carrying its operands.
///
/// Every impl is `#[inline(always)]` and hands the operands, as function
/// arguments, to an `#[inline(always)]` body, so that the whole loop nest is
/// compiled *inside* the AVX2 entry point. A body left behind a call (a
/// closure, `LocalKey::with`) keeps the baseline code generation and runs no
/// faster. A body that reads its `&mut` operand out of the call struct loses
/// the no-alias guarantee of a function argument; `syrk_lower` ran 15–35 %
/// slower that way.
pub(crate) trait Kernel {
    /// The whole loop nest of the call, for a `W × Q` GEMM micro-tile
    /// (kernels without one ignore it).
    fn run<const W: usize, const Q: usize>(self);
}

/// Run `k` on the AVX2 compilation when this CPU has AVX2, else on the
/// portable one.
#[inline]
pub(crate) fn run<K: Kernel>(k: K) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` only adds `target_feature(enable = "avx2")`, and the
        // check just above found that this CPU executes AVX2.
        return unsafe { avx2(k) };
    }
    portable(k)
}

/// Run `k` on the baseline x86-64 compilation, 4 × 4 micro-tile.
#[inline]
pub(crate) fn portable<K: Kernel>(k: K) {
    k.run::<4, 4>()
}

/// The AVX2 compilation, 8 × 4 micro-tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(k: K) {
    k.run::<8, 4>()
}
