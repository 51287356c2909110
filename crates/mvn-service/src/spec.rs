//! Covariance specifications and their factor fingerprints.
//!
//! A serving request names its covariance *by specification* (kernel +
//! coordinates + assembly parameters), not by shipping a matrix: the matrix
//! is derived data the server can rebuild at will, and the specification is
//! what the factor cache keys on. [`CovSpec::fingerprint`] folds every field
//! that influences the factor — the covariance fingerprint of
//! [`geostat::fingerprint`] plus tile size, dense/TLR choice, compression
//! tolerance and standardization — into one 64-bit key, so two requests get
//! the same cache entry exactly when they would factor the same matrix the
//! same way.

use geostat::fingerprint::{fingerprint_covariance, Fnv1a};
use geostat::{CovarianceKernel, Location, MAX_MATERN_SMOOTHNESS};
use mvn_core::{Factor, FactorKind, MvnEngine};
use tlr::{CompressionTol, TlrMatrix};

/// Largest location count for which a Vecchia spec uses the `O(n²)` maximin
/// ordering; beyond it the `O(n log n)` diagonal coordinate sweep takes over
/// (see [`geostat::vecchia`]).
pub const VECCHIA_MAXIMIN_LIMIT: usize = 10_000;

/// The cache key of a factored covariance: a stable 64-bit hash of the full
/// [`CovSpec`] (see the [module docs](self) for what it covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactorFingerprint(pub u64);

impl std::fmt::Display for FactorFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A complete, self-contained description of a covariance matrix and how to
/// factor it — everything a shard needs to rebuild the factor on a cache
/// miss.
#[derive(Debug, Clone)]
pub struct CovSpec {
    /// Spatial locations (row/column order of the matrix).
    pub locations: Vec<Location>,
    /// The stationary covariance kernel.
    pub kernel: CovarianceKernel,
    /// Diagonal nugget added for numerical stability.
    pub nugget: f64,
    /// Tile size `nb` of the factor storage.
    pub tile_size: usize,
    /// Dense, TLR or Vecchia factorization (the shared [`FactorKind`]
    /// vocabulary).
    pub kind: FactorKind,
    /// Absolute TLR compression tolerance (ignored for dense factors).
    pub tlr_tol: f64,
    /// Factor the *correlation* matrix `D^{-1/2} Σ D^{-1/2}` instead of the
    /// covariance itself — the form the CRD/excursion integrals consume
    /// (limits are then standardized by [`CovSpec::standard_deviations`]).
    pub standardize: bool,
}

impl CovSpec {
    /// A dense-factor spec with no standardization.
    pub fn dense(
        locations: Vec<Location>,
        kernel: CovarianceKernel,
        nugget: f64,
        tile_size: usize,
    ) -> Self {
        Self {
            locations,
            kernel,
            nugget,
            tile_size,
            kind: FactorKind::Dense,
            tlr_tol: 0.0,
            standardize: false,
        }
    }

    /// A TLR-factor spec with no standardization, compressed at absolute
    /// tolerance `tol`.
    pub fn tlr(
        locations: Vec<Location>,
        kernel: CovarianceKernel,
        nugget: f64,
        tile_size: usize,
        tol: f64,
    ) -> Self {
        Self {
            locations,
            kernel,
            nugget,
            tile_size,
            kind: FactorKind::Tlr,
            tlr_tol: tol,
            standardize: false,
        }
    }

    /// A Vecchia-factor spec with no standardization: ordered conditioning on
    /// `m` nearest previously-ordered neighbors — the `O(n·m)` format for
    /// problems no dense or TLR factorization fits. The ordering and neighbor
    /// structure are a deterministic function of the spec (see
    /// [`CovSpec::build_factor`]), so the fingerprint only needs `m`.
    pub fn vecchia(
        locations: Vec<Location>,
        kernel: CovarianceKernel,
        nugget: f64,
        tile_size: usize,
        m: usize,
    ) -> Self {
        Self {
            locations,
            kernel,
            nugget,
            tile_size,
            kind: FactorKind::Vecchia { m },
            tlr_tol: 0.0,
            standardize: false,
        }
    }

    /// Switch the spec to factoring the correlation matrix (see
    /// [`CovSpec::standardize`]).
    pub fn standardized(mut self) -> Self {
        self.standardize = true;
        self
    }

    /// The MVN dimension (number of locations).
    pub fn n(&self) -> usize {
        self.locations.len()
    }

    /// The deterministic cache key of this spec (see the [module
    /// docs](self)).
    pub fn fingerprint(&self) -> FactorFingerprint {
        let mut h: Fnv1a = fingerprint_covariance(&self.kernel, &self.locations, self.nugget);
        h.write_usize(self.tile_size);
        match self.kind {
            FactorKind::Dense => h.write_bytes(b"dense"),
            FactorKind::Tlr => {
                h.write_bytes(b"tlr");
                h.write_f64(self.tlr_tol);
            }
            FactorKind::Vecchia { m } => {
                h.write_bytes(b"vecchia");
                h.write_usize(m);
            }
        }
        h.write_bytes(if self.standardize { b"corr" } else { b"cov" });
        FactorFingerprint(h.finish())
    }

    /// Per-location standard deviations `√(C(0) + nugget)` of the covariance
    /// this spec assembles — bitwise identical to
    /// [`excursion::standard_deviations`] on the assembled dense matrix
    /// (stationary kernels have a constant diagonal), so limits standardized
    /// with these values match the library CRD path exactly.
    pub fn standard_deviations(&self) -> Vec<f64> {
        vec![(self.kernel.cov(0.0) + self.nugget).sqrt(); self.locations.len()]
    }

    /// Structural validation of the spec itself: non-empty locations with
    /// finite coordinates, a positive tile size, usable kernel parameters.
    /// The service calls this at submission, so a malformed spec is a typed
    /// rejection to the one offending client — it must never reach a shard
    /// dispatcher, where a panic would take down 1/N of the service.
    pub fn validate(&self) -> Result<(), String> {
        if self.locations.is_empty() {
            return Err("spec has no locations".to_string());
        }
        if self
            .locations
            .iter()
            .any(|l| !l.x.is_finite() || !l.y.is_finite())
        {
            return Err("locations must have finite coordinates".to_string());
        }
        if self.tile_size == 0 {
            return Err("tile size must be positive".to_string());
        }
        let (sigma2, range) = match self.kernel {
            CovarianceKernel::Exponential { sigma2, range }
            | CovarianceKernel::SquaredExponential { sigma2, range } => (sigma2, range),
            CovarianceKernel::Matern(p) => {
                if !(p.smoothness > 0.0 && p.smoothness < MAX_MATERN_SMOOTHNESS) {
                    return Err(format!(
                        "matern smoothness must be positive and below {MAX_MATERN_SMOOTHNESS}"
                    ));
                }
                (p.sigma2, p.range)
            }
        };
        if !(sigma2.is_finite() && sigma2 > 0.0 && range.is_finite() && range > 0.0) {
            return Err("kernel sigma2 and range must be positive and finite".to_string());
        }
        if !(self.nugget.is_finite() && self.nugget >= 0.0) {
            return Err("nugget must be non-negative and finite".to_string());
        }
        if self.kind == FactorKind::Tlr && !(self.tlr_tol.is_finite() && self.tlr_tol > 0.0) {
            return Err("tlr tolerance must be positive and finite".to_string());
        }
        if let FactorKind::Vecchia { m } = self.kind {
            if m == 0 {
                return Err("vecchia conditioning-set size must be positive".to_string());
            }
            if m >= self.locations.len() && self.locations.len() > 1 {
                return Err(
                    "vecchia conditioning-set size must be below the location count".to_string(),
                );
            }
        }
        Ok(())
    }

    /// The tolerance a TLR spec compresses with, or `None` for a dense one —
    /// the argument of `TlrMatrix::assemble`.
    fn compression(&self) -> Option<CompressionTol> {
        (self.kind == FactorKind::Tlr).then_some(CompressionTol::Absolute(self.tlr_tol))
    }

    /// Deterministic Vecchia conditioning structure for this spec's geometry:
    /// maximin ordering up to [`VECCHIA_MAXIMIN_LIMIT`] locations (quality),
    /// diagonal coordinate sweep beyond it (the `O(n²)` preprocessing would
    /// dominate), with `m`-nearest conditioning sets either way. A pure
    /// function of the spec, so equal fingerprints imply identical plans.
    fn vecchia_plan(&self, m: usize) -> Result<mvn_core::VecchiaPlan, String> {
        let order = if self.locations.len() <= VECCHIA_MAXIMIN_LIMIT {
            geostat::maximin_order(&self.locations)
        } else {
            geostat::coordinate_order(&self.locations)
        };
        let (starts, neighbors) = geostat::conditioning_sets(&self.locations, &order, m);
        mvn_core::VecchiaPlan::new(order, starts, neighbors).map_err(|e| e.to_string())
    }

    /// Assemble the covariance (or correlation) matrix tile by tile and
    /// factor it on the engine's pool. The factor is bitwise identical to
    /// the library paths for the same spec: `tlr::potrf_tlr` leaves the same
    /// bits on any pool, and the standardized entries are
    /// [`excursion::correlation_entry`] over the kernel's entries, with the
    /// standard deviations read off their diagonal — what
    /// [`excursion::correlation_factor`] assembles from the dense covariance.
    /// A Vecchia spec conditions on those same entries.
    pub fn build_factor(&self, engine: &MvnEngine) -> Result<Factor, String> {
        assert!(
            self.tile_size > 0 && !self.locations.is_empty(),
            "spec must have locations and a positive tile size"
        );
        let n = self.n();
        let cov = self.kernel.entry(&self.locations, self.nugget);
        let sd: Vec<f64>;
        let corr;
        let entry: &(dyn Fn(usize, usize) -> f64 + Sync) = if self.standardize {
            sd = (0..n).map(|i| cov(i, i).sqrt()).collect();
            corr = excursion::correlation_entry(&cov, &sd);
            &corr
        } else {
            &cov
        };
        if let FactorKind::Vecchia { m } = self.kind {
            // The Vecchia backend never assembles a matrix: the plan is pure
            // geometry and the conditioning solves pull the same entries on
            // demand.
            let plan = self.vecchia_plan(m)?;
            return engine
                .factor_vecchia(plan, entry)
                .map_err(|e| e.to_string());
        }
        let sigma = TlrMatrix::assemble(n, self.tile_size, self.compression(), entry);
        engine.factor(sigma).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostat::regular_grid;

    fn base_spec() -> CovSpec {
        CovSpec::dense(
            regular_grid(5, 5),
            CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: 0.2,
            },
            1e-8,
            8,
        )
    }

    #[test]
    fn fingerprint_covers_every_assembly_knob() {
        let base = base_spec().fingerprint();
        assert_eq!(base, base_spec().fingerprint(), "deterministic");

        let mut tile = base_spec();
        tile.tile_size = 10;
        assert_ne!(base, tile.fingerprint());

        let mut tlr = base_spec();
        tlr.kind = FactorKind::Tlr;
        tlr.tlr_tol = 1e-6;
        assert_ne!(base, tlr.fingerprint());

        let mut tighter = tlr.clone();
        tighter.tlr_tol = 1e-7;
        assert_ne!(tlr.fingerprint(), tighter.fingerprint());

        assert_ne!(base, base_spec().standardized().fingerprint());

        let mut nugget = base_spec();
        nugget.nugget = 1e-9;
        assert_ne!(base, nugget.fingerprint());
    }

    #[test]
    fn standard_deviations_match_the_assembled_diagonal_bitwise() {
        let spec = base_spec();
        let cov = spec.kernel.dense_covariance(&spec.locations, spec.nugget);
        let want = excursion::standard_deviations(&cov);
        let got = spec.standard_deviations();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
        }
    }

    /// Every entry of the lower triangle of `got` has the bits of `want`'s.
    fn assert_same_factor(got: &Factor, want: &tlr::TlrMatrix, what: &str) {
        let Factor::Tiled(got) = got else {
            panic!("{what}: expected a tiled factor")
        };
        let (gd, wd) = (got.to_dense_lower(), want.to_dense_lower());
        assert_eq!(gd.nrows(), wd.nrows(), "{what}");
        for (g, w) in gd.data().iter().zip(wd.data()) {
            assert!(g.to_bits() == w.to_bits(), "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn built_factor_matches_the_library_paths_bitwise() {
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let one = task_runtime::WorkerPool::new(1);
        // Covariance path vs potrf_tlr on one worker.
        let spec = base_spec();
        let mut want = TlrMatrix::assemble(
            spec.locations.len(),
            spec.tile_size,
            None,
            spec.kernel.entry(&spec.locations, spec.nugget),
        );
        tlr::potrf_tlr(&mut want, &one).unwrap();
        assert_same_factor(&spec.build_factor(&engine).unwrap(), &want, "dense cov");
        // TLR covariance path vs potrf_tlr of its assembly.
        let tol = 1e-6;
        let mut tspec = base_spec();
        tspec.kind = FactorKind::Tlr;
        tspec.tlr_tol = tol;
        let mut want = TlrMatrix::assemble(
            tspec.locations.len(),
            tspec.tile_size,
            Some(CompressionTol::Absolute(tol)),
            tspec.kernel.entry(&tspec.locations, tspec.nugget),
        );
        tlr::potrf_tlr(&mut want, &one).unwrap();
        assert_same_factor(&tspec.build_factor(&engine).unwrap(), &want, "tlr cov");
        // Correlation path vs the library dense correlation factor, built on
        // one worker.
        let lib = MvnEngine::builder().workers(1).build().unwrap();
        let sspec = base_spec().standardized();
        let cov = sspec
            .kernel
            .dense_covariance(&sspec.locations, sspec.nugget);
        let (wantf, _sd) =
            excursion::correlation_factor(&lib, &cov, sspec.tile_size, None).unwrap();
        assert_same_factor(
            &sspec.build_factor(&engine).unwrap(),
            wantf.tiled().unwrap(),
            "dense corr",
        );
        // Standardized TLR path vs the library TLR correlation factor.
        let mut stspec = base_spec().standardized();
        stspec.kind = FactorKind::Tlr;
        stspec.tlr_tol = tol;
        let (wantf, _sd) = excursion::correlation_factor(
            &lib,
            &cov,
            stspec.tile_size,
            Some(CompressionTol::Absolute(tol)),
        )
        .unwrap();
        assert_same_factor(
            &stspec.build_factor(&engine).unwrap(),
            wantf.tiled().unwrap(),
            "tlr corr",
        );
    }

    #[test]
    fn built_vecchia_factor_matches_the_cov_loc_entries_bitwise() {
        // A Vecchia spec pulls its entries from `cov_loc` (plus the nugget on
        // the diagonal), or, standardized, divides them by `sdᵢ·sdⱼ` like
        // every other standardized spec.
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let base = CovSpec::vecchia(
            regular_grid(6, 6),
            CovarianceKernel::Matern(geostat::MaternParams {
                sigma2: 1.3,
                range: 0.2,
                smoothness: 1.0,
            }),
            1e-8,
            8,
            5,
        );
        for spec in [base.clone(), base.standardized()] {
            let (locs, kernel, nugget) = (&spec.locations, spec.kernel, spec.nugget);
            let sd: Vec<f64> = (locs.iter())
                .map(|x| (kernel.cov_loc(x, x) + nugget).sqrt())
                .collect();
            let entry = |i: usize, j: usize| {
                let c = kernel.cov_loc(&locs[i], &locs[j]);
                match (spec.standardize, i == j) {
                    (false, true) => c + nugget,
                    (false, false) => c,
                    (true, true) => 1.0 + 1e-10,
                    (true, false) => c / (sd[i] * sd[j]),
                }
            };
            let plan = spec.vecchia_plan(5).unwrap();
            let want = engine.factor_vecchia(plan, entry).unwrap();
            let got = spec.build_factor(&engine).unwrap();
            let (Factor::Vecchia(got), Factor::Vecchia(want)) = (&got, &want) else {
                panic!("expected Vecchia factors")
            };
            for k in 0..spec.n() {
                let (g, w) = (got.step(k), want.step(k));
                assert_eq!((g.0, g.2), (w.0, w.2), "step {k}");
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "step {k}");
                assert!(
                    (g.3.iter().zip(w.3)).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "step {k}"
                );
            }
        }
    }
}
