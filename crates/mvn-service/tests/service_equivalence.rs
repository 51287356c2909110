//! The service-level acceptance suite: everything the serving layer adds —
//! routing, micro-batching, caching, eviction, the TCP front-end, the served
//! CRD path — must be *bitwise invisible* in the probabilities. The direct
//! `MvnEngine` solve is the reference everywhere.

use geostat::{regular_grid, CovarianceKernel, MaternParams};
use mvn_core::{MvnConfig, MvnEngine, Problem, ProblemError};
use mvn_service::{
    render_solve_request, render_stats_request, CovSpec, MvnServer, MvnService, ServiceConfig,
    ServiceError, SpecHandle, Ticket,
};
use std::sync::Arc;

/// A small spec family: same grid, different correlation ranges, so each
/// range is a distinct fingerprint over the same locations.
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

fn service_cfg(shards: usize, workers: usize, samples: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        workers,
        mvn: test_mvn(samples),
        ..Default::default()
    }
}

/// Problems with staggered lower limits against one spec.
fn problems(n: usize, count: usize, offset: f64) -> Vec<Problem> {
    (0..count)
        .map(|k| Problem::new(vec![offset - 0.07 * k as f64; n], vec![f64::INFINITY; n]))
        .collect()
}

/// Reference solves through a plain engine with the same sampling config.
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

#[test]
fn concurrent_clients_match_direct_engine_bitwise_across_shards_and_pool_sizes() {
    // K client threads × M problems × 2 fingerprints through the service —
    // for 1, 2 and 4 shards over a shared pool of 1, 2 and 4 workers — must
    // equal the direct per-problem engine solves bit for bit.
    let samples = 400;
    let specs = [spec(0.1), spec(0.234)];
    let n = specs[0].n();
    let per_client = 6;
    let clients = 4usize;
    let mvn = test_mvn(samples);

    // One reference table per spec (problem k of client c is the same for
    // every spec: limits depend only on (c, k)).
    let all_problems: Vec<Vec<Problem>> = (0..clients)
        .map(|c| problems(n, per_client, -0.1 - 0.02 * c as f64))
        .collect();
    let want: Vec<Vec<f64>> = specs
        .iter()
        .map(|s| {
            let flat: Vec<Problem> = all_problems.iter().flatten().cloned().collect();
            reference(s, &flat, &mvn)
        })
        .collect();

    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let service =
                Arc::new(MvnService::start(service_cfg(shards, workers, samples)).unwrap());
            let handles: Vec<SpecHandle> =
                specs.iter().map(|s| SpecHandle::new(s.clone())).collect();

            let results: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..clients)
                    .map(|c| {
                        let service = Arc::clone(&service);
                        let handles = &handles;
                        let my_problems = &all_problems[c];
                        scope.spawn(move || {
                            // Interleave the two specs: submit everything
                            // first (tickets), then wait — the coalescing
                            // pattern a real client uses.
                            let tickets: Vec<Vec<Ticket>> = handles
                                .iter()
                                .map(|h| {
                                    my_problems
                                        .iter()
                                        .map(|p| service.submit(h, p.clone()).unwrap())
                                        .collect()
                                })
                                .collect();
                            tickets
                                .into_iter()
                                .map(|ts| {
                                    ts.into_iter()
                                        .map(|t| t.wait().unwrap().result.prob)
                                        .collect()
                                })
                                .collect::<Vec<Vec<f64>>>()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });

            for (c, client_results) in results.iter().enumerate() {
                for (s, probs) in client_results.iter().enumerate() {
                    for (k, &p) in probs.iter().enumerate() {
                        let w = want[s][c * per_client + k];
                        assert!(
                            p.to_bits() == w.to_bits(),
                            "shards={shards} workers={workers} client={c} spec={s} problem={k}: \
                             {p} vs {w}"
                        );
                    }
                }
            }

            let stats = service.stats();
            assert_eq!(stats.completed, (clients * per_client * specs.len()) as u64);
            assert_eq!(stats.rejected, 0);
            // Each fingerprint is factored at most once per service (two
            // specs, so at most two misses; a whole burst may legitimately
            // coalesce into one batch, so hits are not guaranteed *during*
            // it — but a follow-up request must hit).
            assert!(stats.cache_misses() <= specs.len() as u64);
            for h in &handles {
                let out = service
                    .solve(h, &vec![-0.5; n], &vec![f64::INFINITY; n])
                    .unwrap();
                assert!(out.cache_hit, "follow-up traffic must hit the cache");
            }
            assert!(service.stats().cache_hits() >= specs.len() as u64);
        }
    }
}

#[test]
fn served_vecchia_specs_match_direct_engine_bitwise_and_hit_the_cache() {
    // The third backend through the full serving path: a Vecchia spec must be
    // fingerprinted, batched, cached and served exactly like dense/TLR — and
    // every served probability must equal the direct engine solve bit for
    // bit. Two conditioning-set sizes over the same grid are two distinct
    // fingerprints.
    let samples = 400;
    let locs = regular_grid(6, 6);
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: 0.2,
    };
    let specs = [
        CovSpec::vecchia(locs.clone(), kernel, 1e-8, 8, 12),
        CovSpec::vecchia(locs.clone(), kernel, 1e-8, 8, 20),
    ];
    let n = specs[0].n();
    let mvn = test_mvn(samples);
    let ps = problems(n, 5, -0.15);
    let want: Vec<Vec<f64>> = specs.iter().map(|s| reference(s, &ps, &mvn)).collect();

    for shards in [1usize, 2] {
        let service = MvnService::start(service_cfg(shards, 2, samples)).unwrap();
        let handles: Vec<SpecHandle> = specs.iter().map(|s| SpecHandle::new(s.clone())).collect();
        // Interleaved pipelined traffic over both fingerprints.
        let tickets: Vec<(usize, usize, Ticket)> = ps
            .iter()
            .enumerate()
            .flat_map(|(k, p)| (0..handles.len()).map(move |si| (si, k, p.clone())))
            .map(|(si, k, p)| (si, k, service.submit(&handles[si], p).unwrap()))
            .collect();
        for (si, k, t) in tickets {
            let got = t.wait().unwrap().result.prob;
            let w = want[si][k];
            assert!(
                got.to_bits() == w.to_bits(),
                "shards={shards} spec={si} problem={k}: served {got} vs direct {w}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.completed, (ps.len() * specs.len()) as u64);
        // Each Vecchia fingerprint is factored at most once; follow-up
        // traffic must hit the cached sparse factor.
        assert!(stats.cache_misses() <= specs.len() as u64);
        for h in &handles {
            let out = service
                .solve(h, &vec![-0.5; n], &vec![f64::INFINITY; n])
                .unwrap();
            assert!(out.cache_hit, "vecchia follow-up traffic must hit");
        }
    }

    // Malformed conditioning sizes are rejected at submission with a typed
    // spec error, before reaching a shard.
    let service = MvnService::start(service_cfg(1, 1, samples)).unwrap();
    for bad_m in [0usize, n] {
        let bad = CovSpec::vecchia(locs.clone(), kernel, 1e-8, 8, bad_m);
        assert!(matches!(
            service.submit(
                &SpecHandle::new(bad),
                Problem::new(vec![0.0; n], vec![1.0; n])
            ),
            Err(ServiceError::InvalidSpec(_))
        ));
    }
}

#[test]
fn micro_batcher_coalesces_pipelined_requests() {
    // A burst of same-fingerprint requests that is queued while the
    // dispatcher is busy must be served in batches larger than one (and
    // every result still equals the reference — covered by the assertion on
    // probs too).
    let samples = 300;
    let s = spec(0.15);
    let n = s.n();
    let mvn = test_mvn(samples);
    let service = MvnService::start(service_cfg(1, 2, samples)).unwrap();
    let handle = SpecHandle::new(s.clone());
    // Warm the factor so the burst is not serialized behind the build.
    service
        .solve(&handle, &vec![0.0; n], &vec![f64::INFINITY; n])
        .unwrap();

    // Batches form from what is queued when the dispatcher scans, so keep it
    // busy (a cold n = 400 Matérn warm-up, tens of milliseconds) while the
    // burst is submitted.
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
    let held = service.warm_submit(&SpecHandle::new(cold), false).unwrap();
    let ps = problems(n, 12, -0.2);
    let tickets: Vec<Ticket> = ps
        .iter()
        .map(|p| service.submit(&handle, p.clone()).unwrap())
        .collect();
    held.wait().unwrap();
    let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let want = reference(&s, &ps, &mvn);
    let mut max_batch = 0;
    for (o, w) in outs.iter().zip(&want) {
        assert!(o.result.prob.to_bits() == w.to_bits());
        assert!(o.cache_hit, "factor was warmed, every request must hit");
        max_batch = max_batch.max(o.batch_size);
    }
    assert!(
        max_batch >= 2,
        "a burst queued behind a busy dispatcher must coalesce (max batch {max_batch})"
    );
    let stats = service.stats();
    assert!(
        stats.batch_hist[1..].iter().sum::<u64>() > 0,
        "{:?}",
        stats.batch_hist
    );
}

#[test]
fn evicted_factor_is_rebuilt_with_identical_probability() {
    // A cache sized for one factor, two fingerprints alternating on one
    // shard: every switch evicts, every rebuild must reproduce the evicted
    // factor's probabilities bit for bit.
    let samples = 300;
    let specs = [spec(0.1), spec(0.234)];
    let n = specs[0].n();
    let mvn = test_mvn(samples);
    // Capacity: exactly one 25-dim factor (25*25 lower ~ 400 doubles fits;
    // two do not — use the actual stored size to be exact).
    let probe_engine = MvnEngine::builder().workers(1).build().unwrap();
    let one = specs[0].build_factor(&probe_engine).unwrap();
    let cfg = ServiceConfig {
        shards: 1,
        cache_capacity_bytes: one.stored_elements() * 8,
        mvn: test_mvn(samples),
        ..Default::default()
    };
    let service = MvnService::start(cfg).unwrap();
    let handles: Vec<SpecHandle> = specs.iter().map(|s| SpecHandle::new(s.clone())).collect();
    let a = vec![-0.25; n];
    let b = vec![f64::INFINITY; n];
    let want: Vec<f64> = specs
        .iter()
        .map(|s| reference(s, &[Problem::new(a.clone(), b.clone())], &mvn)[0])
        .collect();

    let mut hits = 0u64;
    for round in 0..4 {
        for (i, h) in handles.iter().enumerate() {
            let out = service.solve(h, &a, &b).unwrap();
            assert!(
                out.result.prob.to_bits() == want[i].to_bits(),
                "round {round} spec {i}: {} vs {}",
                out.result.prob,
                want[i]
            );
            hits += out.cache_hit as u64;
        }
    }
    let stats = service.stats();
    assert!(
        stats.cache_evictions() >= 6,
        "alternating over a one-slot cache must evict (got {})",
        stats.cache_evictions()
    );
    assert_eq!(
        hits, 0,
        "a one-slot cache can never hit on alternating traffic"
    );
    assert_eq!(stats.cache_misses(), 8);
}

#[test]
fn admission_control_and_validation_reject_with_typed_errors() {
    let samples = 200;
    let s = spec(0.12);
    let n = s.n();
    let handle = SpecHandle::new(s);

    // Validation rejects before anything is enqueued.
    let service = MvnService::start(service_cfg(2, 2, samples)).unwrap();
    let bad_dim = Problem::new(vec![0.0; n + 1], vec![1.0; n + 1]);
    assert!(matches!(
        service.submit(&handle, bad_dim),
        Err(ServiceError::InvalidProblem(
            ProblemError::DimensionMismatch { .. }
        ))
    ));
    let mut a = vec![0.0; n];
    a[3] = f64::NAN;
    assert!(matches!(
        service.submit(&handle, Problem::new(a, vec![1.0; n])),
        Err(ServiceError::InvalidProblem(ProblemError::NanLimit {
            index: 3
        }))
    ));
    let mut inv = vec![0.0; n];
    inv[2] = 2.0;
    assert!(matches!(
        service.submit(&handle, Problem::new(inv, vec![1.0; n])),
        Err(ServiceError::InvalidProblem(ProblemError::InvertedLimits {
            index: 2,
            ..
        }))
    ));

    // A zero-capacity queue rejects every submission with `Overloaded`.
    let full = MvnService::start(ServiceConfig {
        queue_capacity: 0,
        mvn: test_mvn(samples),
        ..Default::default()
    })
    .unwrap();
    let err = full
        .submit(&handle, Problem::new(vec![0.0; n], vec![1.0; n]))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { capacity: 0, .. }));
    assert!(err.to_string().contains("overloaded"));
    assert_eq!(full.stats().rejected, 1);

    // A structurally malformed spec is rejected at submission (it must
    // never reach — and panic — a shard dispatcher).
    let mut zero_tile = spec(0.12);
    zero_tile.tile_size = 0;
    assert!(matches!(
        service.submit(
            &SpecHandle::new(zero_tile),
            Problem::new(vec![0.0; n], vec![1.0; n])
        ),
        Err(ServiceError::InvalidSpec(_))
    ));
    let mut bad_range = spec(0.12);
    bad_range.kernel = CovarianceKernel::Exponential {
        sigma2: 1.0,
        range: f64::NAN,
    };
    assert!(matches!(
        service.submit(
            &SpecHandle::new(bad_range),
            Problem::new(vec![0.0; n], vec![1.0; n])
        ),
        Err(ServiceError::InvalidSpec(_))
    ));
    // So is a smoothness whose K_ν recurrence would pin the shard.
    let mut rough = spec(0.12);
    rough.kernel = CovarianceKernel::Matern(MaternParams {
        sigma2: 1.0,
        range: 0.1,
        smoothness: 1e9,
    });
    assert!(matches!(
        service.submit(
            &SpecHandle::new(rough),
            Problem::new(vec![0.0; n], vec![1.0; n])
        ),
        Err(ServiceError::InvalidSpec(_))
    ));

    // A structurally valid but singular covariance (duplicated locations,
    // no nugget) surfaces as a typed factorization error from the shard.
    let mut bad_spec = spec(0.1);
    bad_spec.nugget = 0.0;
    bad_spec.locations[1] = bad_spec.locations[0]; // exact duplicate row
    let bad_handle = SpecHandle::new(bad_spec);
    let out = service.solve(&bad_handle, &vec![0.0; n], &vec![1.0; n]);
    assert!(
        matches!(out, Err(ServiceError::Factorization(_))),
        "{out:?}"
    );
    // And the shard dispatcher survives to serve good traffic afterwards.
    assert!(service.solve(&handle, &vec![0.0; n], &vec![1.0; n]).is_ok());
}

#[test]
fn tcp_front_end_round_trips_bitwise_and_reports_stats() {
    // Full-stack smoke: two interleaved specs over a real socket, pipelined;
    // wire probabilities must equal the in-process reference bit for bit
    // (shortest-roundtrip JSON numbers), and the stats line must show the
    // mixed workload hitting the cache.
    let samples = 300;
    let specs = [spec(0.1), spec(0.234)];
    let n = specs[0].n();
    let mvn = test_mvn(samples);
    let service = Arc::new(MvnService::start(service_cfg(2, 2, samples)).unwrap());
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = mvn_service::ServiceClient::connect(server.addr()).unwrap();

    let ps = problems(n, 4, -0.15);
    let want: Vec<Vec<f64>> = specs.iter().map(|s| reference(s, &ps, &mvn)).collect();
    // Two rounds of the same pipelined mixed workload: the second round is
    // guaranteed cache-hit traffic.
    for round in 0..2u64 {
        let mut expected = Vec::new();
        let mut id: u64 = round * 100;
        for (k, p) in ps.iter().enumerate() {
            for (si, s) in specs.iter().enumerate() {
                id += 1;
                client
                    .send(&render_solve_request(id, s, &p.a, &p.b))
                    .unwrap();
                expected.push((id, si, k));
            }
        }
        for (id, si, k) in &expected {
            let resp = client.read_response().unwrap();
            assert_eq!(resp.get("id").unwrap().as_usize(), Some(*id as usize));
            assert!(resp.get("error").is_none(), "{resp}");
            let prob = resp.get("prob").unwrap().as_f64().unwrap();
            assert!(
                prob.to_bits() == want[*si][*k].to_bits(),
                "id {id}: wire {prob} vs reference {}",
                want[*si][*k]
            );
            let cache = resp.get("cache").unwrap().as_str().unwrap();
            if *id > 100 {
                assert_eq!(cache, "hit", "round-two traffic must be cache hits");
            }
        }
    }
    let expected_total = 2 * ps.len() * specs.len();

    // Malformed requests answer with an error line instead of dying.
    let resp = client
        .request("{\"id\":99,\"spec\":{\"grid\":4},\"a\":[],\"b\":[]}")
        .unwrap();
    assert!(resp
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("range"));
    let resp = client.request("this is not json").unwrap();
    assert!(resp.get("error").is_some());

    let stats = client.request(&render_stats_request(1000)).unwrap();
    let s = stats.get("stats").unwrap();
    assert!(s.get("completed").unwrap().as_usize().unwrap() >= expected_total);
    assert!(s.get("cache_hits").unwrap().as_usize().unwrap() > 0);
    assert!(s.get("cache_hit_rate").unwrap().as_f64().unwrap() > 0.0);
    drop(client);
    drop(server);
}

#[test]
fn an_over_long_request_line_is_answered_with_an_error_and_the_connection_stays_up() {
    use std::io::{BufRead, BufReader, Write};
    let samples = 200;
    let s = spec(0.12);
    let n = s.n();
    let service = Arc::new(MvnService::start(service_cfg(1, 1, samples)).unwrap());
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut socket = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut replies = BufReader::new(socket.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        mvn_service::Json::parse(line.trim()).unwrap()
    };

    // One byte over the cap, never a newline until the end: the reader must
    // not buffer it, and must answer it once it has gone by.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..mvn_service::tcp::MAX_REQUEST_BYTES / chunk.len() {
        socket.write_all(&chunk).unwrap();
    }
    socket.write_all(b"x\n").unwrap();
    let err = reply();
    let msg = err
        .get("error")
        .and_then(mvn_service::Json::as_str)
        .unwrap();
    assert!(msg.contains("byte cap"), "{err}");

    // The same connection still serves.
    let p = Problem::new(vec![-0.2; n], vec![f64::INFINITY; n]);
    let line = render_solve_request(7, &s, &p.a, &p.b);
    socket.write_all(format!("{line}\n").as_bytes()).unwrap();
    let ok = reply();
    assert_eq!(ok.get("id").and_then(mvn_service::Json::as_usize), Some(7));
    let want = reference(&s, &[p], &test_mvn(samples))[0];
    let got = ok.get("prob").and_then(mvn_service::Json::as_f64).unwrap();
    assert!(got.to_bits() == want.to_bits(), "{ok}");
}

#[test]
fn a_huge_matern_smoothness_is_refused_at_once_and_the_connection_stays_up() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};
    let samples = 200;
    let s = spec(0.12);
    let n = s.n();
    let service = Arc::new(MvnService::start(service_cfg(1, 1, samples)).unwrap());
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut socket = std::net::TcpStream::connect(server.addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut replies = BufReader::new(socket.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        replies
            .read_line(&mut line)
            .expect("a reply within the read timeout");
        mvn_service::Json::parse(line.trim()).unwrap()
    };

    // ν = 1e9 would cost ~1e9 recurrence steps per covariance entry.
    let bad = format!(
        r#"{{"id":3,"spec":{{"grid":5,"kernel":"matern","range":0.1,"smoothness":1e9}},"a":[{}],"b":[{}]}}"#,
        vec!["0"; n].join(","),
        vec!["null"; n].join(",")
    );
    let t0 = Instant::now();
    socket.write_all(format!("{bad}\n").as_bytes()).unwrap();
    let err = reply();
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert_eq!(err.get("id").and_then(mvn_service::Json::as_usize), Some(3));
    let msg = err
        .get("error")
        .and_then(mvn_service::Json::as_str)
        .unwrap();
    assert!(msg.contains("smoothness"), "{err}");

    // The same connection still serves.
    let p = Problem::new(vec![-0.2; n], vec![f64::INFINITY; n]);
    let line = render_solve_request(4, &s, &p.a, &p.b);
    socket.write_all(format!("{line}\n").as_bytes()).unwrap();
    let ok = reply();
    assert_eq!(ok.get("id").and_then(mvn_service::Json::as_usize), Some(4));
    assert!(ok.get("prob").is_some(), "{ok}");
}

#[test]
fn served_crd_matches_library_crd_bitwise() {
    // excursion's CRD drivers on the service's cached factor and pool
    // against the plain engine path, same sampling config — prefix
    // probabilities, confidence function and the selected excursion set must
    // all agree exactly.
    let samples = 400;
    let locs = regular_grid(5, 5);
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.7,
        range: 0.25,
    };
    let nugget = 1e-8;
    let mean: Vec<f64> = locs.iter().map(|l| 1.5 - 2.0 * (l.x + l.y) / 2.0).collect();
    let crd_cfg = excursion::CrdConfig {
        threshold: 0.3,
        alpha: 0.1,
        levels: usize::MAX,
        mvn: test_mvn(samples),
    };

    // Library path: correlation factor + engine.
    let engine = MvnEngine::builder()
        .workers(2)
        .config(test_mvn(samples))
        .build()
        .unwrap();
    let cov = kernel.dense_covariance(&locs, nugget);
    let (factor, sd) = excursion::correlation_factor_dense(&cov, 8);
    let lib = excursion::detect_confidence_regions(&engine, &factor, &mean, &sd, &crd_cfg);
    let (lib_region, lib_prob) =
        excursion::find_excursion_set(&engine, &factor, &mean, &sd, &crd_cfg);

    // Service path: standardized spec, same sampling config.
    let service = MvnService::start(ServiceConfig {
        shards: 2,
        mvn: test_mvn(samples),
        ..Default::default()
    })
    .unwrap();
    let handle = SpecHandle::new(CovSpec::dense(locs.clone(), kernel, nugget, 8).standardized());
    let served =
        mvn_service::detect_confidence_regions_served(&service, &handle, &mean, &crd_cfg).unwrap();
    assert_eq!(served.order, lib.order);
    assert_eq!(served.prefix_probs.len(), lib.prefix_probs.len());
    for (s, l) in served.prefix_probs.iter().zip(&lib.prefix_probs) {
        assert_eq!(s.0, l.0);
        assert!(
            s.1.to_bits() == l.1.to_bits(),
            "len {}: {} vs {}",
            s.0,
            s.1,
            l.1
        );
    }
    for (s, l) in served.confidence.iter().zip(&lib.confidence) {
        assert!(s.to_bits() == l.to_bits());
    }
    assert_eq!(
        excursion::excursion_set(&served, crd_cfg.alpha),
        excursion::excursion_set(&lib, crd_cfg.alpha)
    );

    let (srv_region, srv_prob) =
        mvn_service::find_excursion_set_served(&service, &handle, &mean, &crd_cfg).unwrap();
    assert_eq!(srv_region, lib_region);
    assert!(srv_prob.to_bits() == lib_prob.to_bits());

    // The whole CRD session hit one cached factor after the first build.
    let stats = service.stats();
    assert_eq!(stats.cache_misses(), 1);
    assert!(stats.cache_hits() > 0);

    // What the library would panic on is a typed error here.
    let raw = SpecHandle::new(CovSpec::dense(locs.clone(), kernel, nugget, 8));
    let err = mvn_service::detect_confidence_regions_served(&service, &raw, &mean, &crd_cfg);
    assert!(matches!(err, Err(ServiceError::InvalidSpec(_))), "{err:?}");
    let vecchia = SpecHandle::new(CovSpec::vecchia(locs, kernel, nugget, 8, 4).standardized());
    let err = mvn_service::find_excursion_set_served(&service, &vecchia, &mean, &crd_cfg);
    assert!(matches!(err, Err(ServiceError::InvalidSpec(_))), "{err:?}");
    let err =
        mvn_service::detect_confidence_regions_served(&service, &handle, &mean[1..], &crd_cfg);
    assert!(
        matches!(err, Err(ServiceError::InvalidProblem(_))),
        "{err:?}"
    );
}
