//! `mvn-serve` — the MVN probability server paired with a closed-loop load
//! generator, reporting throughput, latency and cache hit rate on stderr.
//!
//! Three modes:
//!
//! * `--smoke` (CI): ~2 s of mixed traffic on laptop-scale problems, then
//!   hard assertions — non-zero completions, ≥ 2 distinct covariance
//!   fingerprints exercised, cache hit rate > 0 — exiting non-zero on any
//!   violation.
//! * `--soak` (CI, short via `--secs 2`): the sustained-load acceptance run
//!   for cross-fingerprint batching. Two phases — two dense fingerprints,
//!   then a dense and a Vecchia fingerprint — each warming *and pinning*
//!   both fingerprints over the wire, driving strictly interleaved two-spec
//!   traffic through pipelined clients, probing deadline shedding with a
//!   zero-deadline request, then scraping the full wire `stats` snapshot.
//!   Hard floors: cache hit rate ≥ 0.9, p99 ≤ `--p99-ms` (default 5000),
//!   `mixed_batches > 0` and accounting balance.
//! * default: a longer run on the same workload shape (tune with `--secs`,
//!   `--clients`, `--shards`, `--grid`, `--samples`).
//!
//! Every run ends with one summary line per phase on stderr (completed
//! requests, requests/s, client-observed p50/p99, cache hit rate); the
//! serving benchmark with noise bounds is `mvn_perf`'s `serve_hot` /
//! `serve_churn`. The load generator speaks the real TCP wire protocol (`ServiceClient`),
//! so the measured path includes JSON parsing, socket hops, routing,
//! micro-batching and the factor cache.
//!
//! Observability flags (combinable with any mode):
//!
//! * `--trace <out.json>` — enable workspace tracing for the whole run and
//!   write the process timeline as Chrome-trace JSON at exit (loadable in
//!   `chrome://tracing` / Perfetto).
//! * `--metrics` — after the run, scrape the server's wire metrics endpoint
//!   (`{"metrics":true}`) and print the Prometheus text to stderr; in
//!   `--soak` mode (servers are per-phase and already gone) the process
//!   registry is rendered directly instead.

use geostat::{regular_grid, CovarianceKernel};
use mvn_service::{
    render_metrics_request, render_solve_request, render_solve_request_deadline,
    render_stats_request, render_warm_request, CovSpec, Json, MvnServer, MvnService, ServiceClient,
    ServiceConfig,
};
use qmc::Xoshiro256pp;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_usize(name: &str, default: usize) -> usize {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// What one soak phase measured, read back over the wire.
struct SoakReport {
    completed: usize,
    rps: f64,
    p50_ns: u64,
    p99_ns: u64,
    mean_batch: f64,
    hit_rate: f64,
    mixed_batches: u64,
}

/// Run one soak phase: warm + pin both fingerprints over the wire, drive
/// `clients` pipelined connections of strictly interleaved two-spec traffic
/// for `secs`, probe deadline shedding, then scrape and sanity-check the
/// wire stats snapshot.
fn soak_phase(
    suffix: &str,
    specs: &[CovSpec],
    n: usize,
    secs: usize,
    clients: usize,
    samples: usize,
) -> SoakReport {
    let service = Arc::new(
        MvnService::start(ServiceConfig {
            shards: 1,
            mvn: mvn_core::MvnConfig {
                sample_size: samples,
                seed: 20240518,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("service must start"),
    );
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Warm and pin both fingerprints ahead of the burst, over the wire.
    let mut admin = ServiceClient::connect(addr).expect("connect");
    for (i, s) in specs.iter().enumerate() {
        let resp = admin
            .request(&render_warm_request(i as u64 + 1, s, true))
            .expect("warm");
        assert_eq!(
            resp.get("resident").and_then(Json::as_bool),
            Some(true),
            "soak/{suffix}: warm must leave the factor resident: {resp}"
        );
        assert_eq!(
            resp.get("pinned").and_then(Json::as_bool),
            Some(true),
            "soak/{suffix}: warm --pin must pin: {resp}"
        );
    }

    // Pipelined closed-loop clients: each sends a window of strictly
    // interleaved A/B requests, then reads the window back — the queue-depth
    // shape that gives the micro-batcher something to coalesce.
    const WINDOW: usize = 8;
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let mut lat = Vec::new();
                    let mut id = c as u64 * 1_000_000;
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let sent = Instant::now();
                        for k in 0..WINDOW {
                            id += 1;
                            let spec = &specs[k % specs.len()];
                            let lo = -0.45 - 0.005 * ((round % 40) as f64) - 0.01 * k as f64;
                            client
                                .send(&render_solve_request(
                                    id,
                                    spec,
                                    &vec![lo; n],
                                    &vec![f64::INFINITY; n],
                                ))
                                .expect("send");
                        }
                        round += 1;
                        for _ in 0..WINDOW {
                            let resp = client.read_response().expect("response");
                            assert!(
                                resp.get("error").is_none(),
                                "soak/{suffix}: server error: {resp}"
                            );
                            lat.push(sent.elapsed().as_nanos() as u64);
                        }
                    }
                    lat
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs(secs as u64));
        stop.store(true, Ordering::Relaxed);
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    // Deadline probe: a zero deadline has always lapsed by the time the
    // dispatcher scans the queue, so this request must be shed with the
    // typed wire error rather than served.
    let resp = admin
        .request(&render_solve_request_deadline(
            901,
            &specs[0],
            &vec![-0.2; n],
            &vec![f64::INFINITY; n],
            Some(0.0),
        ))
        .expect("deadline probe");
    let err = resp.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        err.contains("deadline"),
        "soak/{suffix}: a zero-deadline request must be shed: {resp}"
    );

    let stats_resp = admin.request(&render_stats_request(902)).expect("stats");
    let st = stats_resp.get("stats").expect("stats body");
    let num = |k: &str| st.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let completed = all.len();
    let pct = |q: f64| -> u64 {
        if all.is_empty() {
            0
        } else {
            all[((all.len() - 1) as f64 * q) as usize]
        }
    };

    let report = SoakReport {
        completed,
        rps: completed as f64 / wall.as_secs_f64(),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        mean_batch: num("mean_batch_size"),
        hit_rate: num("cache_hit_rate"),
        mixed_batches: num("mixed_batches") as u64,
    };

    assert!(report.completed > 0, "soak/{suffix}: nothing completed");
    assert_eq!(
        num("completed") as u64 + num("queue_depth") as u64,
        num("submitted") as u64,
        "soak/{suffix}: accounting must balance: {stats_resp}"
    );
    assert!(
        num("deadline_shed") as u64 >= 1,
        "soak/{suffix}: the shed probe must be counted: {stats_resp}"
    );
    assert!(
        report.hit_rate >= 0.9,
        "soak/{suffix}: warmed+pinned two-spec traffic must keep the hit rate \
         >= 0.9 (got {:.3})",
        report.hit_rate
    );
    assert!(
        report.mixed_batches > 0,
        "soak/{suffix}: interleaved resident traffic must form mixed batches: {stats_resp}"
    );

    eprintln!(
        "soak/{suffix}: completed={} rps={:.1} p50={}us p99={}us mean_batch={:.2} \
         hit_rate={:.3} mixed_batches={}",
        report.completed,
        report.rps,
        report.p50_ns / 1000,
        report.p99_ns / 1000,
        report.mean_batch,
        report.hit_rate,
        report.mixed_batches,
    );
    report
}

/// The `--soak` acceptance run: two dense fingerprints through the
/// cross-spec batcher, then a mixed dense + Vecchia phase proving the third
/// factor backend batches, caches and sheds through the same shard
/// dispatcher.
fn run_soak(secs: usize, clients: usize, grid: usize, samples: usize, p99_ms: usize) {
    let locations = regular_grid(grid, grid);
    let tile = (grid * grid).div_ceil(3).max(4);
    let specs: Vec<CovSpec> = [0.1, 0.234]
        .iter()
        .map(|&range| {
            CovSpec::dense(
                locations.clone(),
                CovarianceKernel::Exponential { sigma2: 1.0, range },
                1e-8,
                tile,
            )
        })
        .collect();
    let n = locations.len();
    eprintln!("mvn-serve --soak: clients={clients} n={n} samples={samples} {secs}s/phase");

    let cross = soak_phase("cross", &specs, n, secs, clients, samples);
    let ceiling_ns = p99_ms as u64 * 1_000_000;
    assert!(
        cross.p99_ns <= ceiling_ns,
        "soak: cross-phase p99 {}ms exceeds the --p99-ms ceiling {p99_ms}ms",
        cross.p99_ns / 1_000_000
    );
    eprintln!(
        "soak OK: mean_batch {:.2} rps {:.1} mixed_batches {}",
        cross.mean_batch, cross.rps, cross.mixed_batches
    );

    // Vecchia phase: one dense and one Vecchia fingerprint over the same
    // grid, interleaved through the cross-spec batcher. The phase's own
    // asserts (hit rate >= 0.9 on warmed+pinned traffic, mixed batches > 0,
    // deadline shed counted, accounting balance) are exactly the dense-phase
    // contract — proving the sparse backend is served by the same machinery.
    let vecchia_specs = vec![
        specs[0].clone(),
        CovSpec::vecchia(
            locations.clone(),
            CovarianceKernel::Exponential {
                sigma2: 1.0,
                range: 0.234,
            },
            1e-8,
            tile,
            (n / 3).clamp(4, 30),
        ),
    ];
    let vecchia = soak_phase("vecchia", &vecchia_specs, n, secs, clients, samples);
    assert!(
        vecchia.p99_ns <= ceiling_ns,
        "soak: vecchia-phase p99 {}ms exceeds the --p99-ms ceiling {p99_ms}ms",
        vecchia.p99_ns / 1_000_000
    );
    eprintln!(
        "soak vecchia OK: mean_batch {:.2} rps {:.1} mixed_batches {}",
        vecchia.mean_batch, vecchia.rps, vecchia.mixed_batches
    );
}

/// Flush the process trace recorder to `path` as Chrome-trace JSON
/// (single-process: everything in pid lane 0).
fn write_trace(path: &str) {
    obs::set_enabled(false);
    // Service threads may be a few instructions away from dropping an open
    // span guard (guards emit End even after disable); give them a beat so
    // the exported trace is balanced.
    std::thread::sleep(Duration::from_millis(100));
    let json = obs::export_current(0);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("trace: wrote {} bytes to {path}", json.len()),
        Err(e) => {
            eprintln!("trace: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let soak = std::env::args().any(|a| a == "--soak");
    let secs = arg_usize("--secs", if smoke || soak { 2 } else { 10 });
    let clients = arg_usize("--clients", if soak { 2 } else { 4 });
    let shards = arg_usize("--shards", 2);
    let grid = arg_usize("--grid", if soak { 5 } else { 6 });
    let samples = arg_usize("--samples", if smoke || soak { 500 } else { 2000 });
    let trace_path = arg_value("--trace");
    let want_metrics = std::env::args().any(|a| a == "--metrics");
    if trace_path.is_some() {
        obs::set_enabled(true);
    }

    if soak {
        run_soak(secs, clients, grid, samples, arg_usize("--p99-ms", 5000));
        if want_metrics {
            eprint!("{}", obs::render_prometheus(&[]));
        }
        if let Some(path) = trace_path {
            write_trace(&path);
        }
        return;
    }

    // The mixed workload: the paper's weak/strong synthetic correlation
    // settings over one grid — two distinct covariance fingerprints, so the
    // cache must discriminate while the micro-batcher coalesces.
    let locations = regular_grid(grid, grid);
    let specs: Vec<CovSpec> = [0.1, 0.234]
        .iter()
        .map(|&range| {
            CovSpec::dense(
                locations.clone(),
                CovarianceKernel::Exponential { sigma2: 1.0, range },
                1e-8,
                (grid * grid).div_ceil(3).max(4),
            )
        })
        .collect();
    let n = locations.len();

    let service = Arc::new(
        MvnService::start(ServiceConfig {
            shards,
            mvn: mvn_core::MvnConfig {
                sample_size: samples,
                seed: 20240518,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("service must start"),
    );
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    eprintln!(
        "mvn-serve: {addr} | shards={shards} clients={clients} n={n} samples={samples} {secs}s"
    );

    // Closed-loop clients: each thread owns one TCP connection and fires
    // request -> response -> request for the whole window, alternating
    // specs pseudo-randomly (seeded per client, reproducible).
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let stop = Arc::clone(&stop);
                let specs = &specs;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let mut rng = Xoshiro256pp::seed_from(900 + c as u64);
                    let mut lat = Vec::new();
                    let mut id = c as u64 * 1_000_000;
                    while !stop.load(Ordering::Relaxed) {
                        id += 1;
                        let spec = &specs[(rng.next_u64() % specs.len() as u64) as usize];
                        let lo = -0.5 + rng.next_f64();
                        let a = vec![lo; n];
                        let b = vec![f64::INFINITY; n];
                        let t = Instant::now();
                        let resp = client
                            .request(&render_solve_request(id, spec, &a, &b))
                            .expect("request");
                        lat.push(t.elapsed().as_nanos() as u64);
                        assert!(resp.get("error").is_none(), "server error: {resp}");
                    }
                    lat
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs(secs as u64));
        stop.store(true, Ordering::Relaxed);
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let completed = all.len();
    let stats = service.stats();

    // Scrape the wire metrics endpoint while the server is still up — this
    // exercises the same path an external Prometheus scraper would use.
    if want_metrics {
        let mut client = ServiceClient::connect(addr).expect("connect for metrics");
        let resp = client
            .request(&render_metrics_request(990_000))
            .expect("metrics scrape");
        let text = resp
            .get("metrics")
            .and_then(Json::as_str)
            .expect("metrics response must carry the text exposition");
        eprint!("{text}");
    }
    drop(server);

    let pct = |q: f64| -> u64 {
        if all.is_empty() {
            0
        } else {
            all[((all.len() - 1) as f64 * q) as usize]
        }
    };
    let rps = completed as f64 / wall.as_secs_f64();
    let hit_rate = stats.cache_hit_rate();

    eprintln!(
        "completed={completed} rejected={} rps={rps:.1} p50={}us p99={}us hit_rate={hit_rate:.3} \
         batch_hist={:?}",
        stats.rejected,
        pct(0.50) / 1000,
        pct(0.99) / 1000,
        stats.batch_hist,
    );

    if smoke {
        // The CI acceptance gate for the serving layer.
        assert!(completed > 0, "smoke: no requests completed");
        assert!(
            stats.cache_misses() >= specs.len() as u64,
            "smoke: both fingerprints must be exercised (misses {})",
            stats.cache_misses()
        );
        assert!(
            hit_rate > 0.0,
            "smoke: sustained mixed traffic must produce cache hits"
        );
        assert_eq!(
            stats.completed as usize + stats.queue_depth(),
            stats.submitted as usize,
            "smoke: accounting must balance"
        );
        eprintln!("smoke OK");
    }

    if let Some(path) = trace_path {
        write_trace(&path);
    }
}
