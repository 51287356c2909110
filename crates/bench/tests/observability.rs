//! Workspace observability contract, tested end to end across the stack:
//!
//! * **Non-interference** — enabling the trace recorder must not change a
//!   single bit of any result: engine solves across factor backends and
//!   worker counts, and served solves over the real TCP wire.
//! * **Trace validity** — drained event streams are balanced (every End
//!   closes the innermost Begin per thread), and the Chrome-trace export
//!   parses as JSON with the fields `chrome://tracing`/Perfetto require.
//! * **Metrics coverage** — the `{"metrics":true}` wire request exposes
//!   service, cache, batcher and pool instruments in one consistent scrape.
//! * **Stats consistency under load** — every [`ServiceStats`] snapshot
//!   taken mid-burst balances per shard and globally (the per-shard
//!   sampling regression).
//! * **One pool under every shard** — the trace of a single-fingerprint
//!   burst shows its `panel_sweep` tasks on more than one worker.
//! * **Cheap enough to leave on** — tracing adds under 5 % to a factor +
//!   solve (ignored by default: a timing guard, run alone in release
//!   with `cargo test --release -p mvn-bench --test observability --
//!   --ignored --test-threads=1`).
//!
//! Tests that toggle the process-wide recorder, or solve anything another
//! test could record, serialize on [`TRACE_LOCK`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geostat::{conditioning_sets, maximin_order, regular_grid, CovarianceKernel};
use mvn_core::{MvnConfig, MvnEngine, MvnResult, VecchiaPlan};
use mvn_service::{
    render_metrics_request, render_solve_request, CovSpec, Json, MvnServer, MvnService,
    ServiceClient, ServiceConfig,
};
use tlr::{CompressionTol, TlrMatrix};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 48;
const NB: usize = 16;

fn cov(i: usize, j: usize) -> f64 {
    let d = (i as f64 - j as f64).abs() / N as f64;
    (-d / 0.3).exp() + if i == j { 1e-8 } else { 0.0 }
}

fn limits() -> (Vec<f64>, Vec<f64>) {
    (vec![-2.5; N], vec![f64::INFINITY; N])
}

fn cfg() -> MvnConfig {
    MvnConfig {
        sample_size: 256,
        seed: 20240518,
        ..Default::default()
    }
}

fn engine(workers: usize) -> MvnEngine {
    let builder = MvnEngine::builder().workers(workers).config(cfg());
    builder.build().unwrap()
}

fn assert_bitwise(tag: &str, got: MvnResult, want: MvnResult) {
    assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "{tag}: prob");
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{tag}: std_error"
    );
}

/// Run `solve` once with the recorder off and once with it on (draining the
/// recorded events), and require bitwise identical results.
fn assert_non_perturbing(tag: &str, solve: impl Fn() -> MvnResult) {
    let off = solve();
    obs::set_enabled(true);
    let on = solve();
    obs::set_enabled(false);
    let events = obs::take_events();
    assert!(!events.is_empty(), "{tag}: tracing recorded nothing");
    assert_bitwise(tag, on, off);
}

#[test]
fn engine_solves_are_bitwise_identical_with_tracing_on() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (a, b) = limits();

    for workers in [1usize, 2, 4] {
        let engine = engine(workers);

        let dense = engine
            .factor(TlrMatrix::assemble(N, NB, None, cov))
            .unwrap();
        assert_non_perturbing(&format!("dense workers={workers}"), || {
            engine.solve(&dense, &a, &b)
        });

        let tlr = engine
            .factor(TlrMatrix::assemble(
                N,
                NB,
                Some((CompressionTol::Absolute(1e-8), usize::MAX)),
                cov,
            ))
            .unwrap();
        assert_non_perturbing(&format!("tlr workers={workers}"), || {
            engine.solve(&tlr, &a, &b)
        });

        let locs = regular_grid(6, 8);
        let kernel = CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.3,
        };
        let vcov = {
            let locs = locs.clone();
            move |i: usize, j: usize| {
                kernel.cov_loc(&locs[i], &locs[j]) + if i == j { 1e-8 } else { 0.0 }
            }
        };
        let order = maximin_order(&locs);
        let (starts, neighbors) = conditioning_sets(&locs, &order, 8);
        let plan = VecchiaPlan::new(order, starts, neighbors).unwrap();
        let vecchia = engine.factor_vecchia(plan, vcov).unwrap();
        assert_non_perturbing(&format!("vecchia workers={workers}"), || {
            engine.solve(&vecchia, &a, &b)
        });
    }
}

fn service_spec() -> (CovSpec, usize) {
    let locs = regular_grid(4, 4);
    let n = locs.len();
    let spec = CovSpec::dense(
        locs,
        CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.25,
        },
        1e-8,
        8,
    );
    (spec, n)
}

/// One served solve against a fresh single-shard service, read back over
/// the real TCP wire.
fn served_prob_bits() -> (u64, u64) {
    let (spec, n) = service_spec();
    let service = Arc::new(
        MvnService::start(ServiceConfig {
            shards: 1,
            mvn: mvn_core::MvnConfig {
                sample_size: 256,
                seed: 20240518,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    let resp = client
        .request(&render_solve_request(
            1,
            &spec,
            &vec![-1.5; n],
            &vec![f64::INFINITY; n],
        ))
        .unwrap();
    let prob = resp.get("prob").and_then(Json::as_f64).expect("prob");
    let se = resp.get("std_error").and_then(Json::as_f64).expect("se");
    (prob.to_bits(), se.to_bits())
}

#[test]
fn served_solves_are_bitwise_identical_with_tracing_on() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let off = served_prob_bits();
    obs::set_enabled(true);
    let on = served_prob_bits();
    obs::set_enabled(false);
    let _ = obs::take_events();
    assert_eq!(on, off, "tracing changed a served probability");
}

#[test]
fn drained_traces_are_balanced_and_export_as_valid_chrome_json() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (a, b) = limits();
    let engine = engine(2);

    // With the recorder off, nothing may be recorded at all.
    let _ = obs::take_events();
    let dense = engine
        .factor(TlrMatrix::assemble(N, NB, None, cov))
        .unwrap();
    engine.solve(&dense, &a, &b);
    assert!(
        obs::take_events().is_empty(),
        "a disabled recorder must stay empty"
    );

    obs::set_enabled(true);
    let dense = engine
        .factor(TlrMatrix::assemble(N, NB, None, cov))
        .unwrap();
    engine.solve(&dense, &a, &b);
    obs::set_enabled(false);
    let events = obs::take_events();
    assert!(!events.is_empty());

    // Balanced, label-exact nesting per thread.
    let mut stacks: std::collections::BTreeMap<u64, Vec<&'static str>> = Default::default();
    for e in &events {
        match e.kind {
            obs::EventKind::Begin => stacks.entry(e.tid).or_default().push(e.label),
            obs::EventKind::End => {
                assert_eq!(
                    stacks.entry(e.tid).or_default().pop(),
                    Some(e.label),
                    "End({}) does not close the innermost span on tid {}",
                    e.label,
                    e.tid
                );
            }
            obs::EventKind::Complete { .. } | obs::EventKind::Instant => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
    }
    assert!(
        (events.iter())
            .any(|e| e.label == "engine_factor" && e.args().iter().map(|a| a.0).eq(["n", "nb"])),
        "the engine factorization span must be present, with args n and nb"
    );

    // The export must be JSON a trace viewer accepts: a traceEvents array
    // whose entries carry name/ph/ts/pid/tid, with known phase codes.
    let exported = obs::export_chrome_trace(&[(0, &events)]);
    let doc = Json::parse(&exported).expect("chrome trace must parse as JSON");
    let list = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(
        list.len(),
        events.len(),
        "every drained event must be exported"
    );
    for entry in list {
        let ph = entry.get("ph").and_then(Json::as_str).expect("ph");
        assert!(
            matches!(ph, "B" | "E" | "X" | "i"),
            "unknown phase code {ph}"
        );
        for key in ["name", "ts", "pid", "tid"] {
            assert!(entry.get(key).is_some(), "trace entry missing {key}");
        }
        if ph == "X" {
            assert!(entry.get("dur").is_some(), "X events need a duration");
        }
    }
}

#[test]
fn a_single_fingerprint_burst_sweeps_on_more_than_one_worker() {
    // All traffic for one fingerprint lands on one shard, but shards own no
    // threads: the burst's `panel_sweep` tasks must run on both workers of
    // the shared pool. 24 requests × 16 panels of n = 64 is tens of
    // milliseconds of work, far longer than a parked worker takes to wake.
    let _guard = TRACE_LOCK.lock().unwrap();
    let spec = CovSpec::dense(
        regular_grid(8, 8),
        CovarianceKernel::Exponential {
            sigma2: 1.0,
            range: 0.2,
        },
        1e-8,
        32,
    );
    let n = spec.n();
    let service = MvnService::start(ServiceConfig {
        shards: 2,
        workers: 2,
        mvn: MvnConfig {
            sample_size: 1024,
            ..cfg()
        },
        ..Default::default()
    })
    .unwrap();
    let handle = mvn_service::SpecHandle::new(spec);
    service.warm(&handle, false).unwrap();
    let _ = obs::take_events();
    obs::set_enabled(true);
    let tickets: Vec<_> = (0..24)
        .map(|k| {
            let a = vec![-1.0 - 0.02 * k as f64; n];
            let problem = mvn_core::Problem::new(a, vec![f64::INFINITY; n]);
            service.submit(&handle, problem).unwrap()
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().shard, service.shard_of(&handle));
    }
    obs::set_enabled(false);
    drop(service);
    let mut workers: Vec<u64> = obs::take_events()
        .iter()
        .filter(|e| e.label == "panel_sweep" && matches!(e.kind, obs::EventKind::Begin))
        .filter_map(|e| e.args().iter().find(|(k, _)| *k == "worker").map(|a| a.1))
        .collect();
    assert_eq!(
        workers.len(),
        24 * 16,
        "one sweep task per (request, panel)"
    );
    workers.sort_unstable();
    workers.dedup();
    assert_eq!(workers, [0, 1], "both pool workers must have swept");
}

#[test]
fn wire_metrics_scrape_covers_service_cache_batcher_and_pool() {
    // Solves while another test records would put foreign `panel_sweep`
    // spans into that test's trace.
    let _guard = TRACE_LOCK.lock().unwrap();
    let (spec, n) = service_spec();
    let service = Arc::new(
        MvnService::start(ServiceConfig {
            shards: 1,
            mvn: mvn_core::MvnConfig {
                sample_size: 128,
                seed: 20240518,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    for id in 1..=3u64 {
        let resp = client
            .request(&render_solve_request(
                id,
                &spec,
                &vec![-1.0; n],
                &vec![f64::INFINITY; n],
            ))
            .unwrap();
        assert!(resp.get("error").is_none(), "solve failed: {resp}");
    }

    let resp = client.request(&render_metrics_request(99)).unwrap();
    let text = resp
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics text exposition");
    for name in [
        "mvn_service_submitted_total",
        "mvn_service_completed_total",
        "mvn_service_batches_total",
        "mvn_cache_hit_rate",
        "mvn_cache_entries",
        "mvn_pool_workers",
        "mvn_pool_tasks_total",
    ] {
        assert!(text.contains(name), "scrape must expose {name}:\n{text}");
    }
    // The scrape is Prometheus text exposition: TYPE headers then samples.
    assert!(text.contains("# TYPE "), "missing TYPE headers:\n{text}");
}

#[test]
fn stats_snapshots_balance_per_shard_and_globally_under_load() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (spec, n) = service_spec();
    let service = Arc::new(
        MvnService::start(ServiceConfig {
            shards: 2,
            mvn: mvn_core::MvnConfig {
                sample_size: 128,
                seed: 20240518,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for c in 0..3usize {
            let stop = Arc::clone(&stop);
            let spec = spec.clone();
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                let mut id = c as u64 * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    id += 1;
                    let resp = client
                        .request(&render_solve_request(
                            id,
                            &spec,
                            &vec![-1.0 - (id % 7) as f64 * 0.05; n],
                            &vec![f64::INFINITY; n],
                        ))
                        .unwrap();
                    assert!(resp.get("error").is_none(), "solve failed: {resp}");
                }
            });
        }

        // Scrape continuously while the burst is in flight: every snapshot
        // must balance, not just the quiescent one at the end.
        let deadline = Instant::now() + Duration::from_millis(700);
        let mut scrapes = 0usize;
        while Instant::now() < deadline {
            let st = service.stats();
            for sh in &st.shards {
                assert_eq!(
                    sh.submitted,
                    sh.completed + sh.rejected + sh.deadline_shed + sh.queue_depth as u64,
                    "shard {} snapshot does not balance",
                    sh.shard
                );
            }
            assert_eq!(
                st.submitted,
                st.completed + st.rejected + st.deadline_shed + st.queue_depth() as u64,
                "global snapshot does not balance"
            );
            scrapes += 1;
        }
        stop.store(true, Ordering::Relaxed);
        assert!(scrapes > 10, "load window too short to exercise sampling");
    });
}

#[test]
#[ignore = "timing guard: run alone, in release"]
fn tracing_adds_under_five_percent_to_a_solve() {
    // The same factor + solve timed with the recorder off and on. The arms
    // alternate so drift in the machine's speed hits both, and each arm keeps
    // its fastest repetition, the one least disturbed by the rest of the
    // machine.
    let _guard = TRACE_LOCK.lock().unwrap();
    let n = 256;
    let f = |i: usize, j: usize| {
        (-((i as f64 - j as f64).abs()) / 150.0).exp() + if i == j { 1e-4 } else { 0.0 }
    };
    let (a, b) = (vec![-0.3; n], vec![f64::INFINITY; n]);
    let engine = MvnEngine::with_config(MvnConfig {
        sample_size: 1000,
        ..cfg()
    })
    .unwrap();
    let run = |traced: bool| {
        let sigma = TlrMatrix::assemble(n, 32, None, f);
        obs::set_enabled(traced);
        let t = Instant::now();
        engine.solve(&engine.factor(sigma).unwrap(), &a, &b);
        let wall = t.elapsed();
        obs::set_enabled(false);
        // Drop the recorded events so buffers never grow across repetitions.
        let _ = obs::take_events();
        wall
    };

    // Warm both arms so neither pays first-touch costs.
    run(false);
    run(true);
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..8 {
        off = off.min(run(false));
        on = on.min(run(true));
    }
    let pct = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    eprintln!("tracing overhead {pct:.2}% (off {off:?}, on {on:?})");
    assert!(
        pct < 5.0,
        "tracing overhead {pct:.2}% exceeds the 5% budget"
    );
}
