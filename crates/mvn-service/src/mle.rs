//! Matérn maximum-likelihood estimation through the serving layer's
//! [`FactorCache`], so MLE and probability traffic share Cholesky factors.
//!
//! `geostat::fit_matern` factors one `n × n` covariance per objective
//! evaluation — dozens to hundreds of factorizations per fit — and throws
//! every factor away. This module routes those factorizations through the
//! same cache the service shards use:
//!
//! * a repeated likelihood evaluation (the same candidate kernel showing up
//!   again — across restarts, across refits on new data, or as probability
//!   traffic against the fitted kernel) is a cache *hit* and skips the
//!   `O(n³/3)` factorization entirely;
//! * the cache key is the full [`CovSpec`] fingerprint, so an MLE factor and
//!   a probability-serving factor of the same spec are literally the same
//!   entry ([`mle_spec`] builds the spec the MLE path assembles).
//!
//! Bitwise contract: [`gaussian_loglik_cached`] equals
//! [`geostat::gaussian_loglik`] bit for bit. Both assemble
//! `kernel.tiled_covariance(locs, default_tile_size(n), mle_nugget(kernel))`
//! and `potrf_tiled` leaves the same bits on any pool (the engine contract),
//! so whether a factor was freshly built, cache-resident, or built by a
//! *probability* request first can never change a likelihood — and
//! therefore [`fit_matern_cached`] walks the
//! exact simplex trajectory of `geostat::fit_matern` and fits bitwise
//! identical parameters. Asserted in `tests/mle_cache.rs`.

use crate::cache::FactorCache;
use crate::spec::CovSpec;
use geostat::field::default_tile_size;
use geostat::{
    fit_matern_with_loglik, gaussian_loglik_factored, mle_nugget, CovarianceKernel, Location,
    MaternParams, MleResult,
};
use mvn_core::{Factor, MvnEngine};
use std::cell::RefCell;
use std::sync::Arc;

/// The [`CovSpec`] the MLE path assembles for a candidate kernel: dense,
/// tile size [`default_tile_size`]`(n)`, nugget [`mle_nugget`]`(kernel)` —
/// the exact matrix [`geostat::gaussian_loglik`] factors. Submitting
/// *probability* traffic under this spec (via
/// [`SpecHandle`](crate::SpecHandle)) shares its cache entry with the MLE
/// evaluations of the same kernel.
pub fn mle_spec(locations: &[Location], kernel: &CovarianceKernel) -> CovSpec {
    CovSpec::dense(
        locations.to_vec(),
        *kernel,
        mle_nugget(kernel),
        default_tile_size(locations.len()),
    )
}

/// [`geostat::gaussian_loglik`] with the factorization served from (and
/// inserted into) `cache` — bitwise identical to it (see the
/// [module docs](self)). Returns `-inf` when the covariance cannot be
/// factored, exactly as the uncached path does; failed factorizations are
/// never cached.
pub fn gaussian_loglik_cached(
    cache: &mut FactorCache,
    engine: &MvnEngine,
    locs: &[Location],
    data: &[f64],
    kernel: &CovarianceKernel,
) -> f64 {
    let spec = mle_spec(locs, kernel);
    let fp = spec.fingerprint();
    let factor = match cache.get(fp) {
        Some(f) => f,
        None => match spec.build_factor(engine) {
            Ok(f) => {
                let f = Arc::new(f);
                cache.insert(fp, Arc::clone(&f));
                f
            }
            Err(_) => return f64::NEG_INFINITY,
        },
    };
    let Factor::Dense(l) = factor.as_ref() else {
        unreachable!("mle_spec always builds a dense factor");
    };
    gaussian_loglik_factored(l, data)
}

/// [`geostat::fit_matern`] with every objective evaluation's factorization
/// routed through `cache` — the fitted parameters, log-likelihood and
/// iteration count are bitwise identical (same Nelder–Mead driver, bitwise
/// identical objective). The cache's [`stats`](FactorCache::stats) expose
/// how many factorizations the fit actually performed: a refit over
/// already-seen kernels (or traffic overlapping a previous fit) factors
/// nothing new.
pub fn fit_matern_cached(
    cache: &mut FactorCache,
    engine: &MvnEngine,
    locs: &[Location],
    data: &[f64],
    init: MaternParams,
    estimate_smoothness: bool,
) -> Option<MleResult> {
    // `fit_matern_with_loglik` takes `Fn`, so thread the mutable cache
    // through a `RefCell` (evaluations are strictly sequential — the
    // optimizer is single-threaded; parallelism lives inside the engine).
    let cell = RefCell::new(cache);
    fit_matern_with_loglik(locs, data, init, estimate_smoothness, |k| {
        let mut guard = cell.borrow_mut();
        gaussian_loglik_cached(&mut guard, engine, locs, data, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostat::{gaussian_loglik, regular_grid, simulate_field};

    #[test]
    fn cached_loglik_is_bitwise_identical_and_second_call_hits() {
        let locs = regular_grid(10, 10);
        let kernel = CovarianceKernel::Matern(MaternParams {
            sigma2: 1.1,
            range: 0.2,
            smoothness: 0.5,
        });
        let engine = MvnEngine::builder().workers(2).build().unwrap();
        let sample = simulate_field(&locs, &kernel, 0.0, 5, engine.pool());
        let want = gaussian_loglik(&locs, &sample.values, &kernel, engine.pool());
        let mut cache = FactorCache::new(usize::MAX);
        let cold = gaussian_loglik_cached(&mut cache, &engine, &locs, &sample.values, &kernel);
        let warm = gaussian_loglik_cached(&mut cache, &engine, &locs, &sample.values, &kernel);
        assert!(cold.to_bits() == want.to_bits(), "{cold} vs {want}");
        assert!(warm.to_bits() == want.to_bits(), "{warm} vs {want}");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn degenerate_kernels_match_the_uncached_path_bitwise() {
        // Near-singular covariances (huge range, zero variance) live on the
        // stabilizing MLE nugget; whatever value the uncached path assigns
        // them, the cached path must reproduce it bit for bit.
        let locs = regular_grid(6, 6);
        let data = vec![0.3; locs.len()];
        let engine = MvnEngine::builder().workers(1).build().unwrap();
        for kernel in [
            CovarianceKernel::Matern(MaternParams {
                sigma2: 1.0,
                range: 1e9,
                smoothness: 0.5,
            }),
            CovarianceKernel::Matern(MaternParams {
                sigma2: 0.0,
                range: 0.1,
                smoothness: 0.5,
            }),
        ] {
            let mut cache = FactorCache::new(usize::MAX);
            let ll = gaussian_loglik_cached(&mut cache, &engine, &locs, &data, &kernel);
            let want = gaussian_loglik(&locs, &data, &kernel, engine.pool());
            assert_eq!(ll.to_bits(), want.to_bits(), "{ll} vs {want}");
        }
    }
}
