//! The cross-fingerprint batching acceptance suite: mixed batches must be
//! bitwise invisible in the probabilities (against the direct `MvnEngine`
//! reference) while the metrics prove the batcher really does coalesce
//! across fingerprints — and the deadline/pinning admission machinery must
//! behave exactly as documented.

use geostat::{regular_grid, CovarianceKernel, MaternParams};
use mvn_core::{MvnConfig, MvnEngine, Problem};
use mvn_service::{
    CacheTicket, CovSpec, MvnService, ServiceConfig, ServiceError, SpecHandle, Ticket,
};
use std::time::Duration;

/// Same grid, different correlation ranges: each range is a distinct
/// fingerprint over the same 25 locations (so every factor has the same
/// byte size — handy for exact cache-capacity arithmetic).
fn spec(range: f64) -> CovSpec {
    CovSpec::dense(
        regular_grid(5, 5),
        CovarianceKernel::Exponential { sigma2: 1.0, range },
        1e-8,
        8,
    )
}

fn test_mvn(samples: usize) -> MvnConfig {
    MvnConfig {
        sample_size: samples,
        seed: 17,
        ..Default::default()
    }
}

/// Keep `service`'s dispatcher (one shard) busy for tens of milliseconds —
/// a queued warm-up of a cold n = 400 Matérn factor — so that everything
/// submitted right after it is queued together by the time the dispatcher
/// scans again. Batches only form from what is already queued, so this is how
/// a test gets a burst into one scan.
fn hold_dispatcher(service: &MvnService) -> CacheTicket {
    let cold = CovSpec::dense(
        regular_grid(20, 20),
        CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range: 0.1,
            smoothness: 1.0,
        }),
        1e-8,
        100,
    );
    service.warm_submit(&SpecHandle::new(cold), false).unwrap()
}

/// Problems with staggered lower limits (index-dependent, spec-independent).
fn problems(n: usize, count: usize, offset: f64) -> Vec<Problem> {
    (0..count)
        .map(|k| Problem::new(vec![offset - 0.06 * k as f64; n], vec![f64::INFINITY; n]))
        .collect()
}

/// Direct per-problem engine solves — the bitwise reference.
fn reference(spec: &CovSpec, problems: &[Problem], mvn: &MvnConfig) -> Vec<f64> {
    let engine = MvnEngine::builder()
        .workers(2)
        .config(*mvn)
        .build()
        .unwrap();
    let factor = spec.build_factor(&engine).unwrap();
    problems
        .iter()
        .map(|p| engine.solve(&factor, &p.a, &p.b).prob)
        .collect()
}

/// Bytes of one 25-dim dense factor as the cache stores it.
fn one_factor_bytes(s: &CovSpec) -> usize {
    let probe = MvnEngine::builder().workers(1).build().unwrap();
    s.build_factor(&probe).unwrap().stored_elements() * std::mem::size_of::<f64>()
}

#[test]
fn interleaved_fingerprints_match_direct_engine_bitwise_even_under_eviction() {
    // Three fingerprints, strictly interleaved, across 1/2/4 shards and two
    // cache sizes — unbounded, and one-factor-per-shard so resident sets
    // churn mid-stream. Every probability must equal the direct engine's bit
    // for bit regardless of which batch (mixed or not) served it and whether
    // its factor was freshly built, resident, or rebuilt after eviction.
    let samples = 300;
    let specs = [spec(0.1), spec(0.234), spec(0.4)];
    let n = specs[0].n();
    let mvn = test_mvn(samples);
    let per_spec = 6;
    let ps = problems(n, per_spec, -0.12);
    let want: Vec<Vec<f64>> = specs.iter().map(|s| reference(s, &ps, &mvn)).collect();
    let tiny = one_factor_bytes(&specs[0]);

    for shards in [1usize, 2, 4] {
        for capacity in [usize::MAX, tiny] {
            let service = MvnService::start(ServiceConfig {
                shards,
                workers: 2,
                mvn: test_mvn(samples),
                cache_capacity_bytes: capacity,
                ..Default::default()
            })
            .unwrap();
            let handles: Vec<SpecHandle> =
                specs.iter().map(|s| SpecHandle::new(s.clone())).collect();

            // Interleave: problem 0 of every spec, then problem 1 of every
            // spec, … — the access pattern that alternates fingerprints on
            // whatever shard they share.
            let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
            for (k, p) in ps.iter().enumerate() {
                for (si, h) in handles.iter().enumerate() {
                    tickets.push((si, k, service.submit(h, p.clone()).unwrap()));
                }
            }
            for (si, k, t) in tickets {
                let out = t.wait().unwrap();
                let w = want[si][k];
                assert!(
                    out.result.prob.to_bits() == w.to_bits(),
                    "shards={shards} capacity={capacity} spec={si} problem={k}: \
                     {} vs {w} (batch {}, hit {})",
                    out.result.prob,
                    out.batch_size,
                    out.cache_hit
                );
            }
            let stats = service.stats();
            assert_eq!(stats.completed, (specs.len() * per_spec) as u64);
            assert_eq!(stats.deadline_shed, 0);
            if capacity == tiny && shards == 1 {
                // Three same-size fingerprints through a one-factor cache
                // must churn it.
                assert!(
                    stats.cache_evictions() > 0,
                    "one-slot cache with three fingerprints must evict"
                );
            }
        }
    }
}

#[test]
fn warmed_interleaved_burst_forms_cross_fingerprint_batches() {
    // Both factors warmed (resident) on one shard, then a strictly
    // interleaved A/B burst queued while the dispatcher is busy: the
    // cross-spec batcher must take the queued burst as batches that mix
    // fingerprints — visible as mixed_batches > 0, per-request batch sizes
    // > 1, and mass in the >1 histogram buckets — while staying bitwise
    // exact.
    let samples = 300;
    let specs = [spec(0.1), spec(0.234)];
    let n = specs[0].n();
    let mvn = test_mvn(samples);
    let service = MvnService::start(ServiceConfig {
        shards: 1,
        mvn: test_mvn(samples),
        ..Default::default()
    })
    .unwrap();
    let handles: Vec<SpecHandle> = specs.iter().map(|s| SpecHandle::new(s.clone())).collect();
    for h in &handles {
        let out = service.warm(h, false).unwrap();
        assert!(out.resident, "warm must leave the factor resident");
        assert!(!out.pinned);
    }

    let ps = problems(n, 5, -0.15);
    let want: Vec<Vec<f64>> = specs.iter().map(|s| reference(s, &ps, &mvn)).collect();
    let held = hold_dispatcher(&service);
    let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
    for (k, p) in ps.iter().enumerate() {
        for (si, h) in handles.iter().enumerate() {
            tickets.push((si, k, service.submit(h, p.clone()).unwrap()));
        }
    }
    held.wait().unwrap();
    let mut max_batch = 0usize;
    for (si, k, t) in tickets {
        let out = t.wait().unwrap();
        assert!(out.cache_hit, "warmed factors must hit");
        assert!(
            out.result.prob.to_bits() == want[si][k].to_bits(),
            "spec={si} problem={k}: {} vs {}",
            out.result.prob,
            want[si][k]
        );
        max_batch = max_batch.max(out.batch_size);
    }
    assert!(
        max_batch > 1,
        "a warmed interleaved burst must coalesce (max batch {max_batch})"
    );
    let stats = service.stats();
    assert!(
        stats.mixed_batches > 0,
        "strict A/B interleave with both factors resident must mix fingerprints \
         in at least one batch ({:?})",
        stats.batch_hist
    );
    assert!(
        stats.batch_hist[1..].iter().sum::<u64>() > 0,
        "batch-size histogram must show batches > 1: {:?}",
        stats.batch_hist
    );
}

#[test]
fn expired_deadlines_are_shed_with_typed_errors_and_accounted() {
    // A deadline of zero has always lapsed by the time the dispatcher scans
    // the queue, so the request must be shed — typed error, deadline_shed
    // counted, and the completed/submitted balance intact. Undeadlined
    // traffic around it is untouched.
    let samples = 200;
    let s = spec(0.12);
    let n = s.n();
    let service = MvnService::start(ServiceConfig {
        shards: 1,
        mvn: test_mvn(samples),
        ..Default::default()
    })
    .unwrap();
    let handle = SpecHandle::new(s);
    let p = Problem::new(vec![-0.2; n], vec![f64::INFINITY; n]);

    let doomed = service
        .submit_with_deadline(&handle, p.clone(), Some(Duration::ZERO))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::DeadlineExceeded { shard, .. }) => assert_eq!(shard, 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous deadline is not shed.
    let out = service
        .submit_with_deadline(&handle, p.clone(), Some(Duration::from_secs(60)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(out.result.prob > 0.0);
    let undeadlined = service.solve(&handle, &p.a, &p.b).unwrap();
    assert!(undeadlined.result.prob.to_bits() == out.result.prob.to_bits());

    let stats = service.stats();
    assert_eq!(stats.deadline_shed, 1);
    assert_eq!(stats.submitted, 3);
    assert_eq!(
        stats.completed, 3,
        "sheds must count as completions so the balance holds"
    );
    assert_eq!(stats.queue_depth(), 0);
    let err = ServiceError::DeadlineExceeded {
        shard: 0,
        missed_by: Duration::from_millis(7),
    };
    assert!(err.to_string().contains("deadline exceeded"), "{err}");
}

#[test]
fn pinned_factor_survives_eviction_storms_until_unpinned() {
    // Service-level pinning: pin A through a one-factor cache, then hammer
    // the shard with other fingerprints. A must keep hitting (it is never an
    // eviction victim) while the foreigners churn; after unpin, the next
    // foreign build may finally evict A.
    let samples = 200;
    let a_spec = spec(0.1);
    let foreigners = [spec(0.234), spec(0.4), spec(0.55)];
    let n = a_spec.n();
    let service = MvnService::start(ServiceConfig {
        shards: 1,
        mvn: test_mvn(samples),
        cache_capacity_bytes: one_factor_bytes(&a_spec),
        ..Default::default()
    })
    .unwrap();
    let a = SpecHandle::new(a_spec);
    let warm = service.warm(&a, true).unwrap();
    assert!(!warm.was_resident && warm.resident && warm.pinned);
    assert_eq!(service.stats().cache_pinned(), 1);

    let lo = vec![-0.2; n];
    let hi = vec![f64::INFINITY; n];
    for round in 0..2 {
        for f in &foreigners {
            let h = SpecHandle::new(f.clone());
            let out = service.solve(&h, &lo, &hi).unwrap();
            assert!(
                !out.cache_hit,
                "round {round}: a one-slot cache cannot retain rotating foreigners"
            );
        }
        let out = service.solve(&a, &lo, &hi).unwrap();
        assert!(
            out.cache_hit,
            "round {round}: the pinned factor must survive the eviction storm"
        );
    }

    let unpin = service.unpin(&a).unwrap();
    assert!(unpin.was_resident && unpin.resident && !unpin.pinned);
    assert_eq!(service.stats().cache_pinned(), 0);
    // Enough foreign churn now evicts A: over capacity with nothing pinned,
    // the LRU drain may finally claim it.
    for f in &foreigners {
        let h = SpecHandle::new(f.clone());
        service.solve(&h, &lo, &hi).unwrap();
    }
    let out = service.solve(&a, &lo, &hi).unwrap();
    assert!(
        !out.cache_hit,
        "after unpin, foreign churn through a one-slot cache must evict A"
    );
}
