//! Cross-crate integration tests: the full confidence-region pipeline, dense
//! vs. TLR agreement, and the MVN estimators against each other.

use excursion::{
    correlation_factor, detect_confidence_regions, excursion_set, find_excursion_set, mc_validate,
    CrdConfig,
};
use geostat::{
    posterior_update, regular_grid, simulate_field, simulate_observations, CovarianceKernel,
};
use mvn_core::{mvn_prob_genz, mvn_prob_mc, MvnConfig, MvnEngine};
use tlr::{CompressionTol, TlrMatrix};

fn medium_kernel() -> CovarianceKernel {
    CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.1,
    }
}

#[test]
fn all_four_mvn_estimators_agree_on_a_spatial_problem() {
    let locations = regular_grid(12, 12);
    let n = locations.len();
    let kernel = medium_kernel();
    let a = vec![-0.2; n];
    let b = vec![f64::INFINITY; n];
    let cfg = MvnConfig {
        sample_size: 20_000,
        seed: 9,
        ..Default::default()
    };

    let engine = MvnEngine::with_config(cfg).unwrap();
    let dense = engine
        .factor(TlrMatrix::assemble(
            n,
            36,
            None,
            kernel.entry(&locations, 1e-9),
        ))
        .unwrap();
    let p_dense = engine.solve(&dense, &a, &b);

    let dense = dense.tiled().expect("a Cholesky factor is tiled");
    let p_genz = mvn_prob_genz(&dense.to_dense_lower(), &a, &b, &cfg);

    let tlr = TlrMatrix::assemble(
        n,
        36,
        Some((CompressionTol::Absolute(1e-6), 18)),
        kernel.entry(&locations, 1e-9),
    );
    let p_tlr = engine.solve(&engine.factor(tlr).unwrap(), &a, &b);

    let p_mc = mvn_prob_mc(dense, &a, &b, &MvnConfig::with_samples(400_000));

    let tol = 6.0 * (p_dense.std_error + p_genz.std_error + p_mc.std_error).max(3e-3);
    assert!(
        (p_dense.prob - p_genz.prob).abs() < tol,
        "dense {} vs genz {}",
        p_dense.prob,
        p_genz.prob
    );
    assert!(
        (p_dense.prob - p_tlr.prob).abs() < 2e-3,
        "dense {} vs tlr {}",
        p_dense.prob,
        p_tlr.prob
    );
    assert!(
        (p_dense.prob - p_mc.prob).abs() < tol,
        "dense {} vs mc {}",
        p_dense.prob,
        p_mc.prob
    );
}

#[test]
fn end_to_end_confidence_region_pipeline_with_posterior_and_validation() {
    // Simulate -> observe -> posterior -> detect -> validate, the complete
    // Algorithm-1 workflow of the paper.
    let locations = regular_grid(14, 14);
    let n = locations.len();
    let kernel = medium_kernel();
    let engine = MvnEngine::builder().workers(2).build().unwrap();
    let field = simulate_field(&locations, &kernel, 0.0, 7, engine.pool());
    let obs = simulate_observations(&field, n / 4, 0.5, 8);
    let prior = kernel.dense_covariance(&locations, 1e-9);
    let post = posterior_update(&prior, &vec![0.0; n], &obs.indices, &obs.values, 0.5);

    let (factor, sd) = correlation_factor(&engine, &post.cov, 49, None).unwrap();
    let cfg = CrdConfig {
        threshold: 0.4,
        alpha: 0.1,
        levels: 12,
        mvn: MvnConfig::with_samples(3_000),
    };
    let result = detect_confidence_regions(&engine, &factor, &post.mean, &sd, &cfg);
    let region = excursion_set(&result, cfg.alpha);

    // The joint region is a subset of the marginal region.
    for &i in &region {
        assert!(result.marginal[i] >= 1.0 - cfg.alpha - 0.05);
    }

    // The boundary search reads the same one-sweep profile: same region, and
    // its joint probability reaches 1-alpha.
    let (boundary_region, joint_prob) = find_excursion_set(&engine, &factor, &post.mean, &sd, &cfg);
    assert!(region.is_empty() || joint_prob >= 1.0 - cfg.alpha);
    assert_eq!(boundary_region, region);

    // The MC-validated joint exceedance probability of the region is
    // compatible with 1-alpha (the region is the one whose joint probability
    // is certified to be >= 1-alpha).
    let v = mc_validate(
        &engine, &factor, &post.mean, &sd, &region, 0.4, 40_000, 500, 3,
    );
    assert!(
        v.p_hat >= 1.0 - cfg.alpha - 4.0 * v.std_error - 0.03,
        "validated probability {} too far below {}",
        v.p_hat,
        1.0 - cfg.alpha
    );
}

#[test]
fn dense_and_tlr_confidence_functions_agree_as_in_the_paper() {
    let locations = regular_grid(12, 12);
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.234, // strong correlation
    };
    let cov = kernel.dense_covariance(&locations, 1e-9);
    let mean: Vec<f64> = locations.iter().map(|l| 1.0 - 1.5 * l.x).collect();

    let engine = MvnEngine::builder().workers(2).build().unwrap();
    let (fd, sd) = correlation_factor(&engine, &cov, 48, None).unwrap();
    let compression = Some((CompressionTol::Absolute(1e-3), 24));
    let (ft, _) = correlation_factor(&engine, &cov, 48, compression).unwrap();
    let cfg = CrdConfig {
        threshold: 0.0,
        alpha: 0.05,
        levels: 12,
        mvn: MvnConfig::with_samples(4_000),
    };
    let rd = detect_confidence_regions(&engine, &fd, &mean, &sd, &cfg);
    let rt = detect_confidence_regions(&engine, &ft, &mean, &sd, &cfg);
    let max_diff = rd
        .confidence
        .iter()
        .zip(&rt.confidence)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff < 0.02,
        "dense and TLR confidence functions should be close (max diff {max_diff})"
    );
    assert_eq!(
        excursion_set(&rd, 0.05).len() as i64 - excursion_set(&rt, 0.05).len() as i64,
        0,
        "regions should agree exactly at this scale"
    );

    // The boundary search selects exactly the sweep's region.
    let (region_b, _) = find_excursion_set(&engine, &fd, &mean, &sd, &cfg);
    assert_eq!(region_b, excursion_set(&rd, 0.05));
}

#[test]
fn one_engine_session_carries_factorization_solves_and_batches() {
    // The session workflow the MvnEngine API is built for: factor once, then
    // answer many probability queries (singly and batched) on one pool, with
    // results bitwise identical to an independent single-worker session.
    let locations = regular_grid(10, 10);
    let n = locations.len();
    let kernel = medium_kernel();
    let cfg = MvnConfig {
        sample_size: 4_000,
        seed: 31,
        ..Default::default()
    };

    let engine = MvnEngine::builder().workers(2).config(cfg).build().unwrap();
    let factor = engine
        .factor(TlrMatrix::assemble(
            n,
            25,
            None,
            kernel.entry(&locations, 1e-9),
        ))
        .unwrap();

    // Independent reference session: its own (inline, one-worker) pool and
    // its own factorization.
    let reference = MvnEngine::builder().workers(1).config(cfg).build().unwrap();
    let reference_factor = reference
        .factor(TlrMatrix::assemble(
            n,
            25,
            None,
            kernel.entry(&locations, 1e-9),
        ))
        .unwrap();

    let thresholds = [-0.5, -0.2, 0.0, 0.3];
    let problems: Vec<mvn_core::Problem> = thresholds
        .iter()
        .map(|&t| mvn_core::Problem::new(vec![t; n], vec![f64::INFINITY; n]))
        .collect();
    let batch = engine.solve_batch(&factor, &problems);
    let before = engine.pool_stats();
    for (p, r) in problems.iter().zip(&batch) {
        let single = engine.solve(&factor, &p.a, &p.b);
        let other = reference.solve(&reference_factor, &p.a, &p.b);
        assert!(r.prob.to_bits() == single.prob.to_bits());
        assert!(r.prob.to_bits() == other.prob.to_bits());
    }
    // All of the above ran on the session pool, which never grew.
    let after = engine.pool_stats();
    assert_eq!(after.workers, before.workers);
    assert_eq!(
        after.graphs_run,
        before.graphs_run + thresholds.len() as u64
    );
}
