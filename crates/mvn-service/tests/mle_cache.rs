//! The shared-MLE-factor acceptance suite: `fit_matern_cached` must walk
//! the exact optimizer trajectory of `geostat::fit_matern` (bitwise
//! identical parameters and likelihood) while the `FactorCache` counters
//! prove it factors strictly less — and the cache key must be the same
//! fingerprint probability traffic uses, so MLE and serving literally share
//! factors.

use geostat::CovarianceKernel;
use geostat::{fit_matern, gaussian_loglik, regular_grid, simulate_field, MaternParams};
use mvn_core::MvnEngine;
use mvn_service::{fit_matern_cached, gaussian_loglik_cached, mle_spec, FactorCache};
use task_runtime::WorkerPool;

fn workload() -> (Vec<geostat::Location>, Vec<f64>, MaternParams) {
    let locs = regular_grid(9, 9);
    let truth = MaternParams {
        sigma2: 1.0,
        range: 0.15,
        smoothness: 0.5,
    };
    let sample = simulate_field(
        &locs,
        &CovarianceKernel::Matern(truth),
        0.0,
        42,
        &WorkerPool::new(1),
    );
    (locs, sample.values, truth)
}

#[test]
fn cached_fit_is_bitwise_identical_and_a_refit_factors_nothing() {
    let (locs, data, init) = workload();
    let engine = MvnEngine::builder().workers(2).build().unwrap();

    let want =
        fit_matern(&locs, &data, init, false, engine.pool()).expect("reference fit converges");

    let mut cache = FactorCache::new(usize::MAX);
    let fit = fit_matern_cached(&mut cache, &engine, &locs, &data, init, false)
        .expect("cached fit converges");

    // Same simplex trajectory: parameters, likelihood, iteration count and
    // convergence flag all agree exactly.
    assert_eq!(fit.params.sigma2.to_bits(), want.params.sigma2.to_bits());
    assert_eq!(fit.params.range.to_bits(), want.params.range.to_bits());
    assert_eq!(
        fit.params.smoothness.to_bits(),
        want.params.smoothness.to_bits()
    );
    assert_eq!(fit.loglik.to_bits(), want.loglik.to_bits());
    assert_eq!(fit.iterations, want.iterations);
    assert_eq!(fit.converged, want.converged);

    let first = cache.stats();
    let evaluations = first.hits + first.misses;
    assert!(first.misses >= 1 && evaluations >= first.misses);

    // A refit over the same data walks the same kernels: zero new
    // factorizations, every evaluation a hit — across both fits the cache
    // does measurably fewer factorizations than likelihood evaluations.
    let refit = fit_matern_cached(&mut cache, &engine, &locs, &data, init, false).unwrap();
    assert_eq!(refit.params.range.to_bits(), want.params.range.to_bits());
    assert_eq!(refit.loglik.to_bits(), want.loglik.to_bits());
    let second = cache.stats();
    assert_eq!(
        second.misses, first.misses,
        "a refit over already-seen kernels must not factor anything new"
    );
    assert_eq!(second.hits, first.hits + evaluations);
    assert!(
        second.misses < second.hits + second.misses,
        "the shared cache must factor strictly fewer times than it evaluates \
         ({} factorizations for {} evaluations)",
        second.misses,
        second.hits + second.misses
    );
}

#[test]
fn mle_and_probability_traffic_share_cache_entries_by_fingerprint() {
    // One likelihood evaluation inserts the factor under `mle_spec`'s
    // fingerprint; a probability solve assembling the same spec must find it
    // resident — and the shared factor must answer bitwise identically to a
    // freshly built one.
    let (locs, data, _) = workload();
    let kernel = CovarianceKernel::Matern(MaternParams {
        sigma2: 1.2,
        range: 0.2,
        smoothness: 0.5,
    });
    let engine = MvnEngine::builder().workers(2).build().unwrap();
    let mut cache = FactorCache::new(usize::MAX);

    let ll = gaussian_loglik_cached(&mut cache, &engine, &locs, &data, &kernel);
    assert_eq!(
        ll.to_bits(),
        gaussian_loglik(&locs, &data, &kernel, engine.pool()).to_bits()
    );
    assert_eq!(cache.stats().misses, 1);

    // The serving layer would look this spec up by the same fingerprint.
    let spec = mle_spec(&locs, &kernel);
    let shared = cache
        .get(spec.fingerprint())
        .expect("the MLE factor must be resident under the probability spec's fingerprint");
    assert_eq!(cache.stats().hits, 1);

    let n = locs.len();
    let (a, b) = (vec![-0.3; n], vec![f64::INFINITY; n]);
    let direct = spec.build_factor(&engine).unwrap();
    let from_cache = engine.solve(shared.as_ref(), &a, &b).prob;
    let from_build = engine.solve(&direct, &a, &b).prob;
    assert_eq!(
        from_cache.to_bits(),
        from_build.to_bits(),
        "a probability served off the MLE's cached factor must equal a fresh build"
    );
}
