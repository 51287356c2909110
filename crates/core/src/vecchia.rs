//! The Vecchia ordered-conditioning approximation — the third
//! [`FactorBackend`] next to dense and TLR, for the `n ≫ 10⁴` regime no
//! global factorization can touch.
//!
//! Following Nascimento & Shaby (2020), the joint density is approximated by
//! conditioning each location (in a fixed ordering) on a small set of at most
//! `m` previously-ordered neighbors instead of on *all* previous locations:
//!
//! ```text
//! p(x) ≈ Π_k p(x_{i_k} | x_{c(k)})     c(k) ⊂ {i_0, …, i_{k-1}}, |c(k)| ≤ m
//! ```
//!
//! Each conditional is univariate normal with mean `Σ_{i,c} Σ_{c,c}⁻¹ x_c`
//! and variance `σ_ii − Σ_{i,c} Σ_{c,c}⁻¹ Σ_{c,i}` — so "factoring" reduces
//! to `n` independent `m × m` conditioning solves (embarrassingly parallel on
//! the worker pool, cost `O(n·m³)` total), and the SOV sweep at step `k`
//! needs one sparse dot product over `|c(k)|` stored coefficients instead of
//! a dense row — cost linear in `n` per sample chain.
//!
//! The sweep kernel below is the chain-major analogue of
//! [`qmc_kernel_scratch`](crate::qmc_kernel_scratch): one lane per chain,
//! batched Φ/Φ⁻¹ slice kernels, dead lanes pinned to `u = ½`, early exit once
//! every chain in the panel is dead. Coefficients are accumulated in the
//! plan's fixed neighbor order, so the estimate is bitwise identical for any
//! worker count or batch composition — the same invariant the
//! dense/TLR sweeps maintain.

use crate::engine::{FactorBackend, ProblemError};
use crate::MvnConfig;
use mathx::{clamp_unit, norm_cdf_and_diff_slice, norm_quantile_slice};
use qmc::PointSet;
use task_runtime::WorkerPool;
use tile_la::DenseMatrix;

/// How many ordered steps of QMC coordinates are generated per
/// [`PointSet::fill_block`] call during the sweep (bounds the sample-block
/// scratch at `panel_width × W_CHUNK` doubles regardless of `n`).
const W_CHUNK: usize = 64;

/// Why a Vecchia factor could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VecchiaError {
    /// A conditioning solve met a non-positive (or non-finite) pivot or
    /// conditional variance — the covariance restricted to the conditioning
    /// set is not positive definite.
    NotPositiveDefinite {
        /// The ordered step whose conditioning solve failed.
        ordered_index: usize,
    },
}

impl std::fmt::Display for VecchiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            VecchiaError::NotPositiveDefinite { ordered_index } => write!(
                f,
                "conditioning covariance not positive definite at ordered step {ordered_index}"
            ),
        }
    }
}

impl std::error::Error for VecchiaError {}

/// The conditioning structure of a Vecchia approximation: a visiting order
/// over the `n` locations plus, per ordered step, the (strictly increasing)
/// *ordered positions* it conditions on.
///
/// The plan is pure structure — no covariance values — so it can be built
/// once per geometry (see `geostat::vecchia`) and reused across kernels.
/// [`VecchiaPlan::new`] validates every structural invariant up front with a
/// typed [`ProblemError::VecchiaStructure`], which is what lets the sweep
/// kernel index unchecked-by-construction.
#[derive(Debug, Clone)]
pub struct VecchiaPlan {
    /// `order[k]` = original location index visited at ordered step `k`.
    order: Vec<usize>,
    /// CSR offsets into `neighbors`, length `n + 1`.
    starts: Vec<usize>,
    /// Concatenated conditioning sets, as ordered positions `< k`, strictly
    /// increasing within each step (the fixed accumulation order of the
    /// sweep's sparse dot product).
    neighbors: Vec<u32>,
}

impl VecchiaPlan {
    /// Validate and wrap a conditioning structure. `order` must be a
    /// permutation of `0..n`, `starts` a CSR offset vector over `neighbors`,
    /// and each step's neighbors strictly increasing ordered positions below
    /// the step itself.
    pub fn new(
        order: Vec<usize>,
        starts: Vec<usize>,
        neighbors: Vec<u32>,
    ) -> Result<Self, ProblemError> {
        let fail = |reason: &'static str| Err(ProblemError::VecchiaStructure { reason });
        let n = order.len();
        if n == 0 {
            return fail("ordering is empty");
        }
        if starts.len() != n + 1 {
            return fail("neighbor offsets must have length n + 1");
        }
        if starts[0] != 0 || *starts.last().unwrap() != neighbors.len() {
            return fail("neighbor offsets must span the neighbor array");
        }
        let mut seen = vec![false; n];
        for &i in &order {
            if i >= n || seen[i] {
                return fail("ordering is not a permutation of the locations");
            }
            seen[i] = true;
        }
        for k in 0..n {
            if starts[k] > starts[k + 1] {
                return fail("neighbor offsets must be non-decreasing");
            }
            let mut prev: Option<u32> = None;
            for &c in &neighbors[starts[k]..starts[k + 1]] {
                if c as usize >= k {
                    return fail("a step may only condition on previously-ordered positions");
                }
                if prev.is_some_and(|p| c <= p) {
                    return fail("conditioning sets must be strictly increasing");
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            order,
            starts,
            neighbors,
        })
    }

    /// Number of locations.
    pub fn n(&self) -> usize {
        self.order.len()
    }

    /// The largest conditioning-set size (the `m` of the approximation).
    pub fn m(&self) -> usize {
        (0..self.n())
            .map(|k| self.starts[k + 1] - self.starts[k])
            .max()
            .unwrap_or(0)
    }

    /// The visiting order (`order[k]` = original index at step `k`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Conditioning set of ordered step `k` (ordered positions `< k`).
    pub fn neighbors_of(&self, k: usize) -> &[u32] {
        &self.neighbors[self.starts[k]..self.starts[k + 1]]
    }

    /// Total stored neighbor (= coefficient) count.
    pub fn stored_neighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// Check a problem's coordinate count against this structure, with the
    /// typed [`ProblemError::VecchiaStructure`] on disagreement.
    pub fn check_dim(&self, dim: usize) -> Result<(), ProblemError> {
        if dim != self.n() {
            return Err(ProblemError::VecchiaStructure {
                reason: "coordinate count disagrees with the ordering/neighbor structure",
            });
        }
        Ok(())
    }
}

/// A built Vecchia factor: the plan plus, per ordered step, the conditioning
/// coefficients `Σ_{c,c}⁻¹ Σ_{c,i}` (aligned with the plan's neighbor array)
/// and the conditional standard deviation.
///
/// Storage is `O(n·m)` — the format that solves `n ≥ 10⁵` problems whose
/// dense factor (`n²/2` doubles) cannot exist in memory.
#[derive(Debug, Clone)]
pub struct VecchiaFactor {
    plan: VecchiaPlan,
    /// Conditioning coefficients, CSR-aligned with `plan.neighbors`.
    coeffs: Vec<f64>,
    /// Conditional standard deviation `d_k` per ordered step.
    cond_sd: Vec<f64>,
}

impl VecchiaFactor {
    /// The conditioning structure.
    pub fn plan(&self) -> &VecchiaPlan {
        &self.plan
    }

    /// The largest conditioning-set size.
    pub fn m(&self) -> usize {
        self.plan.m()
    }

    /// Ordered step `k` as `(original index, conditional sd, neighbor
    /// positions, coefficients)` — the scalar reference recursion in
    /// [`crate::sov`] and the property tests consume this view.
    pub fn step(&self, k: usize) -> (usize, f64, &[u32], &[f64]) {
        let (s, e) = (self.plan.starts[k], self.plan.starts[k + 1]);
        (
            self.plan.order[k],
            self.cond_sd[k],
            &self.plan.neighbors[s..e],
            &self.coeffs[s..e],
        )
    }
}

impl FactorBackend for VecchiaFactor {
    fn dim(&self) -> usize {
        self.plan.n()
    }
    fn kind(&self) -> crate::FactorKind {
        crate::FactorKind::Vecchia { m: self.plan.m() }
    }
    fn stored_elements(&self) -> usize {
        // Coefficients + conditional sds (the neighbor indices are u32
        // structure, counted as half a double each).
        self.coeffs.len() + self.cond_sd.len() + self.plan.neighbors.len().div_ceil(2)
    }
    fn sweep_panel(
        &self,
        a: &[f64],
        b: &[f64],
        points: &dyn PointSet,
        cfg: &MvnConfig,
        panel: usize,
    ) -> (f64, usize) {
        vecchia_sweep_panel(self, a, b, points, cfg, panel)
    }
}

/// In-place Cholesky of the column-major `q × q` conditioning covariance and
/// solve for the coefficients: on success `v` holds `S⁻¹·v` and the return
/// value is `vᵀ·S⁻¹·v` (the variance reduction). Plain sequential loops —
/// `q ≤ m` is tens at most, and the fixed operation order is part of the
/// bitwise-determinism contract.
fn conditioning_solve(s: &mut [f64], q: usize, v: &mut [f64]) -> Option<f64> {
    debug_assert_eq!(s.len(), q * q);
    debug_assert_eq!(v.len(), q);
    // Lower Cholesky, column by column.
    for j in 0..q {
        let mut d = s[j + j * q];
        for t in 0..j {
            let l = s[j + t * q];
            d -= l * l;
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let d = d.sqrt();
        s[j + j * q] = d;
        for i in (j + 1)..q {
            let mut x = s[i + j * q];
            for t in 0..j {
                x -= s[i + t * q] * s[j + t * q];
            }
            s[i + j * q] = x / d;
        }
    }
    // Forward solve L z = v.
    for i in 0..q {
        let mut x = v[i];
        for t in 0..i {
            x -= s[i + t * q] * v[t];
        }
        v[i] = x / s[i + i * q];
    }
    let reduction: f64 = v.iter().map(|z| z * z).sum();
    // Backward solve Lᵀ b = z.
    for i in (0..q).rev() {
        let mut x = v[i];
        for t in (i + 1)..q {
            x -= s[t + i * q] * v[t];
        }
        v[i] = x / s[i + i * q];
    }
    Some(reduction)
}

/// Fixed chunk of ordered steps per pool task during the factor build.
const BUILD_CHUNK: usize = 256;

/// Build a [`VecchiaFactor`] from a validated plan and a covariance entry
/// function `cov(i, j)` over *original* location indices, running the `n`
/// independent conditioning solves as chunked tasks on `pool`.
///
/// The coefficients are a pure function of `(plan, cov)` — chunking only
/// partitions independent writes, so the factor is bitwise identical for any
/// worker count (the same invariant the pool's `potrf` paths keep).
pub fn build_vecchia_factor<C>(
    plan: VecchiaPlan,
    cov: &C,
    pool: &WorkerPool,
) -> Result<VecchiaFactor, VecchiaError>
where
    C: Fn(usize, usize) -> f64 + Sync,
{
    let n = plan.n();
    let m = plan.m();
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(BUILD_CHUNK)
        .map(|k0| (k0, (k0 + BUILD_CHUNK).min(n)))
        .collect();
    let solve_chunk = |_: usize, &(k0, k1): &(usize, usize)| {
        let mut coeffs = Vec::with_capacity(plan.starts[k1] - plan.starts[k0]);
        let mut cond_sd = Vec::with_capacity(k1 - k0);
        let mut s = vec![0.0; m * m];
        let mut v = vec![0.0; m];
        for k in k0..k1 {
            let i = plan.order[k];
            let nbrs = plan.neighbors_of(k);
            let q = nbrs.len();
            for (pc, &c) in nbrs.iter().enumerate() {
                let jc = plan.order[c as usize];
                v[pc] = cov(jc, i);
                for (pr, &r) in nbrs.iter().enumerate() {
                    s[pr + pc * q] = cov(plan.order[r as usize], jc);
                }
            }
            let var = cov(i, i);
            let Some(reduction) = conditioning_solve(&mut s[..q * q], q, &mut v[..q]) else {
                return Err(k);
            };
            let d2 = var - reduction;
            if d2 <= 0.0 || !d2.is_finite() {
                return Err(k);
            }
            coeffs.extend_from_slice(&v[..q]);
            cond_sd.push(d2.sqrt());
        }
        Ok((coeffs, cond_sd))
    };
    let results = pool.map("vecchia_cond_solve", &chunks, solve_chunk);

    let mut coeffs = Vec::with_capacity(plan.stored_neighbors());
    let mut cond_sd = Vec::with_capacity(n);
    for r in results {
        match r {
            Ok((c, d)) => {
                coeffs.extend_from_slice(&c);
                cond_sd.extend_from_slice(&d);
            }
            Err(k) => return Err(VecchiaError::NotPositiveDefinite { ordered_index: k }),
        }
    }
    Ok(VecchiaFactor {
        plan,
        coeffs,
        cond_sd,
    })
}

/// Run the complete Vecchia SOV sweep of sample panel `panel`: the sparse
/// per-location conditioning recursion over all chains of the panel at once
/// (chain-major lanes, batched Φ/Φ⁻¹, dead-lane pinning — the exact
/// conventions of the tiled `qmc_kernel`). Ordered step `k` consumes QMC
/// coordinate `k`, so the estimate depends only on the factor bits, the
/// limits, the point set and `panel`.
fn vecchia_sweep_panel(
    factor: &VecchiaFactor,
    a: &[f64],
    b: &[f64],
    points: &dyn PointSet,
    cfg: &MvnConfig,
    panel: usize,
) -> (f64, usize) {
    let n = factor.plan.n();
    let start = panel * cfg.panel_width;
    let end = ((panel + 1) * cfg.panel_width).min(cfg.sample_size);
    let cols = end - start;

    // Chain-major conditioning values: column `k` is the lane of all chains'
    // simulated values at ordered step `k`.
    let mut x = DenseMatrix::zeros(cols, n);
    let mut w = DenseMatrix::zeros(cols, W_CHUNK.min(n));
    let mut prob = vec![1.0; cols];
    let mut s = vec![0.0; cols];
    let mut lo = vec![0.0; cols];
    let mut hi = vec![0.0; cols];
    let mut phi = vec![0.0; cols];
    let mut dif = vec![0.0; cols];
    let mut u = vec![0.0; cols];

    for k in 0..n {
        let kc = k % W_CHUNK;
        if kc == 0 {
            let steps = W_CHUNK.min(n - k);
            points.fill_block(start, cols, k, steps, &mut w.data_mut()[..cols * steps]);
        }
        let (i, d, nbrs, coeffs) = factor.step(k);
        if d <= 0.0 || !d.is_finite() {
            // Degenerate conditional sd (unreachable after a successful
            // build, kept for parity with the dense kernel's pivot guard):
            // every chain dies, probability zero.
            for p in prob.iter_mut() {
                *p = 0.0;
            }
            return (0.0, cols);
        }
        // Sparse conditional mean, accumulated in the plan's fixed neighbor
        // order (whole lanes vectorize; the per-chain sum order never
        // changes).
        s.fill(0.0);
        for (&c, &coeff) in nbrs.iter().zip(coeffs) {
            let xc = x.col(c as usize);
            for (sc, &xv) in s.iter_mut().zip(xc) {
                *sc += coeff * xv;
            }
        }
        let (ai, bi) = (a[i], b[i]);
        for c in 0..cols {
            lo[c] = if ai == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                (ai - s[c]) / d
            };
            hi[c] = if bi == f64::INFINITY {
                f64::INFINITY
            } else {
                (bi - s[c]) / d
            };
        }
        norm_cdf_and_diff_slice(&lo, &hi, &mut phi, &mut dif);
        let wc = w.col(kc);
        let mut alive = 0usize;
        for c in 0..cols {
            let p = prob[c] * dif[c];
            prob[c] = p;
            // Dead lanes pinned to u = ½ (Φ⁻¹(½) is exactly 0), as in
            // `qmc_kernel`: finite conditioning values, no per-chain branch.
            u[c] = if p == 0.0 {
                0.5
            } else {
                clamp_unit(phi[c] + wc[c] * dif[c])
            };
            alive += (p != 0.0) as usize;
        }
        let xk = x.col_mut(k);
        norm_quantile_slice(&u, xk);
        for (xv, &sv) in xk.iter_mut().zip(s.iter()) {
            *xv = sv + d * *xv;
        }
        if alive == 0 {
            break;
        }
    }
    (prob.iter().sum::<f64>() / cols as f64, cols)
}

/// A full-conditioning plan in the identity order (step `k` conditions on
/// *all* previous locations): with `m = n − 1` the Vecchia "approximation" is
/// exact, which is the anchor of the property tests and the accuracy study.
pub fn full_conditioning_plan(n: usize) -> VecchiaPlan {
    let order: Vec<usize> = (0..n).collect();
    let mut starts = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::new();
    starts.push(0);
    for k in 0..n {
        for c in 0..k {
            neighbors.push(c as u32);
        }
        starts.push(neighbors.len());
    }
    VecchiaPlan::new(order, starts, neighbors).expect("full plan is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MvnEngine;
    use tlr::TlrMatrix;

    fn equicorrelated(rho: f64) -> impl Fn(usize, usize) -> f64 + Sync + Copy {
        move |i: usize, j: usize| if i == j { 1.0 } else { rho }
    }

    fn engine(workers: usize) -> MvnEngine {
        MvnEngine::builder()
            .workers(workers)
            .config(MvnConfig {
                sample_size: 4000,
                seed: 7,
                ..Default::default()
            })
            .build()
            .unwrap()
    }

    /// kNN-in-index-space plan on the identity order: step `k` conditions on
    /// its `m` nearest previous positions.
    fn knn_plan(n: usize, m: usize) -> VecchiaPlan {
        let order: Vec<usize> = (0..n).collect();
        let mut starts = vec![0usize];
        let mut neighbors = Vec::new();
        for k in 0..n {
            for c in k.saturating_sub(m)..k {
                neighbors.push(c as u32);
            }
            starts.push(neighbors.len());
        }
        VecchiaPlan::new(order, starts, neighbors).unwrap()
    }

    #[test]
    fn plan_validation_rejects_malformed_structures() {
        let fail = |o: Vec<usize>, s: Vec<usize>, nb: Vec<u32>| {
            assert!(matches!(
                VecchiaPlan::new(o, s, nb),
                Err(ProblemError::VecchiaStructure { .. })
            ));
        };
        fail(vec![], vec![0], vec![]);
        fail(vec![0, 0], vec![0, 0, 0], vec![]); // not a permutation
        fail(vec![0, 2], vec![0, 0, 0], vec![]); // out of range
        fail(vec![0, 1], vec![0, 0], vec![]); // offsets too short
        fail(vec![0, 1], vec![0, 1, 1], vec![0]); // step 0 conditions on itself
        fail(vec![0, 1, 2], vec![0, 0, 2, 2], vec![1, 0]); // not increasing
        fail(vec![0, 1], vec![0, 0, 3], vec![0]); // offsets exceed array
        assert!(VecchiaPlan::new(vec![1, 0], vec![0, 0, 1], vec![0]).is_ok());
    }

    #[test]
    fn problem_validation_rejects_structure_dimension_disagreement() {
        let e = engine(1);
        let f = e
            .factor_vecchia(knn_plan(12, 3), equicorrelated(0.4))
            .unwrap();
        let bad = crate::Problem::new(vec![-1.0; 11], vec![1.0; 11]);
        assert!(matches!(
            bad.validate_for(&f),
            Err(ProblemError::DimensionMismatch { .. })
        ));
        let good = crate::Problem::new(vec![-1.0; 12], vec![1.0; 12]);
        assert!(good.validate_for(&f).is_ok());
        // The typed structure error surfaces when the count disagrees with
        // the plan itself.
        let crate::Factor::Vecchia(v) = &f else {
            panic!("factor_vecchia must produce the Vecchia variant")
        };
        assert!(matches!(
            v.plan().check_dim(11),
            Err(ProblemError::VecchiaStructure { .. })
        ));
    }

    #[test]
    fn full_conditioning_reproduces_the_dense_answer() {
        // m = n − 1 conditions every location on all previous ones, so the
        // approximation is exact: the probability must match the dense sweep
        // to factorization round-off.
        let n = 24;
        let f = equicorrelated(0.5);
        let e = engine(2);
        let dense = e.factor(TlrMatrix::assemble(n, 8, None, f)).unwrap();
        let vecchia = e.factor_vecchia(full_conditioning_plan(n), f).unwrap();
        let a = vec![f64::NEG_INFINITY; n];
        let b = vec![0.4; n];
        let pd = e.solve(&dense, &a, &b);
        let pv = e.solve(&vecchia, &a, &b);
        assert!(
            (pd.prob - pv.prob).abs() < 1e-8,
            "dense {} vs vecchia {}",
            pd.prob,
            pv.prob
        );

        // The truncated counterpart on a spatial field: on a 32 × 32
        // exponential grid, maximin order with m = 30 ≪ n − 1 neighbors stays
        // within 0.05 of the dense answer.
        let locs = geostat::regular_grid(32, 32);
        let n = locs.len();
        let kernel = geostat::CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let cov = |i: usize, j: usize| {
            kernel.cov_loc(&locs[i], &locs[j]) + if i == j { 1e-8 } else { 0.0 }
        };
        let order = geostat::maximin_order(&locs);
        let (starts, neighbors) = geostat::conditioning_sets(&locs, &order, 30);
        let plan = VecchiaPlan::new(order, starts, neighbors).unwrap();
        let cfg = MvnConfig {
            sample_size: 1000,
            seed: 7,
            ..Default::default()
        };
        let (a, b) = (vec![-3.0; n], vec![f64::INFINITY; n]);
        let dense = e.factor(TlrMatrix::assemble(n, 128, None, cov)).unwrap();
        let vecchia = e.factor_vecchia(plan, cov).unwrap();
        let pd = e.solve_factored_with(&dense, &a, &b, &cfg);
        let pv = e.solve_factored_with(&vecchia, &a, &b, &cfg);
        assert!(
            (pd.prob - pv.prob).abs() < 0.05,
            "grid: dense {} vs vecchia (m = 30) {}",
            pd.prob,
            pv.prob
        );
    }

    #[test]
    fn accuracy_improves_monotonically_in_m_on_an_equicorrelated_field() {
        // Equicorrelation never decays with distance, so every dropped
        // neighbor loses real information: |err(m)| should shrink as m grows,
        // reaching (near) zero at m = n − 1.
        let n = 20;
        let f = equicorrelated(0.6);
        let e = engine(1);
        let a = vec![f64::NEG_INFINITY; n];
        let b = vec![0.0; n];
        let exact = e
            .solve(
                &e.factor_vecchia(full_conditioning_plan(n), f).unwrap(),
                &a,
                &b,
            )
            .prob;
        let mut errs = Vec::new();
        for m in [1usize, 4, n - 1] {
            let fac = e.factor_vecchia(knn_plan(n, m), f).unwrap();
            let p = e.solve(&fac, &a, &b).prob;
            errs.push((p - exact).abs());
        }
        assert!(
            errs[0] > errs[1] && errs[1] > errs[2],
            "errors not monotone: {errs:?}"
        );
        assert!(errs[2] < 1e-12, "m = n-1 must be exact: {errs:?}");
    }

    #[test]
    fn factor_is_bitwise_identical_across_worker_counts_and_batches() {
        let n = 40;
        let f = equicorrelated(0.3);
        let plan = knn_plan(n, 6);
        let a = vec![-0.8; n];
        let b = vec![0.9; n];
        let reference = {
            let e = engine(1);
            let fac = e.factor_vecchia(plan.clone(), f).unwrap();
            e.solve(&fac, &a, &b)
        };
        for workers in [2usize, 4] {
            let e = engine(workers);
            let fac = e.factor_vecchia(plan.clone(), f).unwrap();
            let got = e.solve(&fac, &a, &b);
            assert_eq!(got.prob.to_bits(), reference.prob.to_bits());
            assert_eq!(got.std_error.to_bits(), reference.std_error.to_bits());
            // Batched and mixed paths land on the same bits.
            let batch = e.solve_batch(&fac, &[crate::Problem::new(a.clone(), b.clone())]);
            assert_eq!(batch[0].prob.to_bits(), reference.prob.to_bits());
        }
    }

    #[test]
    fn non_positive_definite_conditioning_is_a_typed_error() {
        // Correlation > 1 between neighbors makes the 2x2 conditioning
        // covariance indefinite.
        let e = engine(1);
        let err = e
            .factor_vecchia(knn_plan(6, 2), |i, j| if i == j { 1.0 } else { 1.5 })
            .unwrap_err();
        assert!(matches!(err, VecchiaError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn kind_and_storage_accounting_report_the_sparse_format() {
        let e = engine(1);
        let fac = e
            .factor_vecchia(knn_plan(30, 5), equicorrelated(0.2))
            .unwrap();
        assert_eq!(fac.kind(), crate::FactorKind::Vecchia { m: 5 });
        // O(n·m) storage, far below the dense n(n+1)/2.
        assert!(fac.stored_elements() < 30 * 31 / 2);
        assert_eq!(fac.dim(), 30);
    }
}
