//! `serve_hot` and `serve_churn`: probability requests over TCP against an
//! in-process `MvnServer`, closed loop (the real callers — served CRD, MLE —
//! wait for replies): 2 connections, each keeping a pipelined window of 8
//! requests in flight.

use crate::gen::{self, Request, Rng, Stream};
use crate::pmvn::engine;
use crate::probes;
use crate::run::{KeepAwake, Run};
use crate::stats;
use geostat::{regular_grid, CovarianceKernel, MaternParams};
use mvn_core::{Factor, MvnConfig, MvnEngine, Problem};
use mvn_service::{
    render_warm_request, CovSpec, Json, MvnServer, MvnService, ServiceClient, ServiceConfig,
    ServiceStats, SpecHandle,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

const CONNECTIONS: usize = 2;
const WINDOW: usize = 8;
const NUGGET: f64 = 1e-8;
/// Share of replies re-solved on a local engine after timing.
const AUDIT_SHARE: f64 = 0.01;
/// Replies must match the local engine to this relative tolerance (the
/// service promises bitwise identity; the wire round-trips `f64` exactly).
const AUDIT_REL_TOL: f64 = 1e-9;

struct Shape {
    specs: Vec<CovSpec>,
    samples: usize,
    per_segment: usize,
    /// Timed segments of an untraced run.
    segments: usize,
    /// Per-shard factor-cache capacity.
    cache_bytes: usize,
    /// Warm and pin every spec before traffic (`serve_hot`); otherwise the
    /// cache fills and evicts under the request stream (`serve_churn`).
    pinned: bool,
    /// Zipf(1) spec choice instead of round-robin interleaving.
    zipf: bool,
}

fn exponential(grid: usize, nb: usize, range: f64) -> CovSpec {
    CovSpec::dense(
        regular_grid(grid, grid),
        CovarianceKernel::Exponential { sigma2: 1.0, range },
        NUGGET,
        nb,
    )
}

fn matern(grid: usize, nb: usize, range: f64) -> CovSpec {
    CovSpec::dense(
        regular_grid(grid, grid),
        CovarianceKernel::Matern(MaternParams {
            sigma2: 1.0,
            range,
            smoothness: 1.0,
        }),
        NUGGET,
        nb,
    )
}

/// The four resident `serve_hot` covariances (also the shape of the
/// small-solve and wire probes).
pub fn hot_specs() -> Vec<CovSpec> {
    [0.05, 0.1, 0.17, 0.234]
        .iter()
        .map(|&range| exponential(8, 32, range))
        .collect()
}

/// QMC samples per `serve_hot` request.
pub const HOT_SAMPLES: usize = 256;

fn hot_shape(smoke: bool) -> Shape {
    Shape {
        specs: hot_specs(),
        samples: HOT_SAMPLES,
        per_segment: if smoke { 64 } else { 1500 },
        // Nine, because a segment's p99 rests on 15 latencies: the median of
        // three such p99 spread 21 % over ten runs, the median of nine 10 %.
        segments: 9,
        cache_bytes: 64 << 20,
        pinned: true,
        zipf: false,
    }
}

/// Grid side and tile size of the `serve_churn` covariances.
fn churn_grid(smoke: bool) -> (usize, usize) {
    if smoke {
        (10, 50)
    } else {
        (20, 100)
    }
}

fn churn_shape(smoke: bool) -> Shape {
    let (grid, nb) = churn_grid(smoke);
    // Frozen per-shard cache: two factors fit (800 kB each at n = 400,
    // nb = 100, so 1.7 MB), a third evicts — which puts the hit ratio of
    // the Zipf(1) stream over 8 specs inside 0.4–0.7.
    let tiles = grid * grid / nb;
    let factor_bytes = tiles * (tiles + 1) / 2 * nb * nb * std::mem::size_of::<f64>();
    Shape {
        specs: (0..8)
            .map(|k| matern(grid, nb, 0.05 + 0.01 * k as f64))
            .collect(),
        samples: 128,
        per_segment: if smoke { 40 } else { 350 },
        segments: 3,
        cache_bytes: 2 * factor_bytes + factor_bytes / 8,
        pinned: false,
        zipf: true,
    }
}

/// One client connection: raw pre-rendered bytes out, reply lines in, so the
/// load generator costs the server's cores as little as possible.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the in-process server");
        writer.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Self { writer, reader }
    }

    /// Send `reqs` keeping at most [`WINDOW`] in flight; returns each
    /// request's reply with its latency (its send → its reply line) and its
    /// completion time since `start`.
    fn drive(
        &mut self,
        reqs: &[&Request],
        start: Instant,
        labels: (&'static str, &'static str),
    ) -> Vec<Reply> {
        let mut sent_at = Vec::with_capacity(reqs.len());
        let mut out = Vec::with_capacity(reqs.len());
        while out.len() < reqs.len() {
            while sent_at.len() < reqs.len() && sent_at.len() - out.len() < WINDOW {
                let req = reqs[sent_at.len()];
                let _s = obs::span_with(labels.0, &[("id", req.id)]);
                sent_at.push(Instant::now());
                self.writer.write_all(&req.line).expect("send a request");
            }
            let mut line = String::new();
            {
                let _s = obs::span_with(labels.1, &[("id", reqs[out.len()].id)]);
                let n = self.reader.read_line(&mut line).expect("read a reply");
                assert!(n > 0, "server closed the connection");
            }
            out.push(Reply {
                latency: sent_at[out.len()].elapsed().as_secs_f64(),
                done: start.elapsed().as_secs_f64(),
                line,
            });
        }
        out
    }
}

/// One reply line with its request's latency and completion time (seconds
/// since the stream started).
struct Reply {
    latency: f64,
    done: f64,
    line: String,
}

/// A started service with its TCP front-end, client connections and the
/// pre-rendered request plan (`plan[0]` is the warm-up segment). Field order
/// is drop order: clients hang up before the server joins their handlers.
struct Stack {
    conns: Vec<Conn>,
    server: MvnServer,
    service: Arc<MvnService>,
    plan: Vec<Vec<Request>>,
}

impl Stack {
    fn start(cx: &mut Run, shape: &Shape, segments: usize) -> Self {
        let mvn = MvnConfig {
            sample_size: shape.samples,
            seed: gen::engine_seed(cx.seed()),
            ..Default::default()
        };
        let service = Arc::new(
            MvnService::start(ServiceConfig {
                mvn,
                cache_capacity_bytes: shape.cache_bytes,
                ..Default::default()
            })
            .expect("service configuration is valid"),
        );
        let server = MvnServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        if shape.pinned {
            let mut control = ServiceClient::connect(server.addr()).expect("control connection");
            for (id, spec) in shape.specs.iter().enumerate() {
                let reply = control
                    .request(&render_warm_request(id as u64, spec, true))
                    .expect("warm request");
                let pinned = reply.get("pinned").and_then(Json::as_bool) == Some(true);
                cx.check(pinned, || format!("warming spec {id} answered {reply}"));
            }
        }
        let (mut order_rng, mut limit_rng) = (
            Rng::new(cx.seed(), Stream::Order),
            Rng::new(cx.seed(), Stream::Limits),
        );
        let plan = (0..=segments)
            .map(|segment| {
                let order = if shape.zipf {
                    gen::zipf_order(&mut order_rng, shape.specs.len(), shape.per_segment)
                } else {
                    (0..shape.per_segment)
                        .map(|i| i % shape.specs.len())
                        .collect()
                };
                let first_id = (segment * shape.per_segment) as u64;
                gen::requests(&mut limit_rng, &shape.specs, &order, first_id)
            })
            .collect();
        Self {
            conns: (0..CONNECTIONS)
                .map(|_| Conn::connect(server.addr()))
                .collect(),
            server,
            service,
            plan,
        }
    }

    /// Drive the plan's `segments` over TCP as one continuous stream (the
    /// window never drains between segments, so only the stream's first and
    /// last few requests see an empty pipeline). Returns, per segment, its
    /// wall — from the previous segment's last reply to its own — and its
    /// replies in plan order.
    fn stream(&mut self, cx: &Run, segments: Range<usize>, rep: u64) -> Vec<(f64, Vec<Reply>)> {
        let plan = &self.plan[segments];
        let reqs: Vec<&Request> = plan.iter().flatten().collect();
        let labels = (cx.label("send"), cx.label("wait"));
        let _rep = cx.span("rep", rep);
        let start = Instant::now();
        let per_conn: Vec<Vec<Reply>> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mine: Vec<&Request> =
                        reqs.iter().copied().skip(c).step_by(CONNECTIONS).collect();
                    s.spawn(move || conn.drive(&mine, start, labels))
                })
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut per_conn: Vec<_> = per_conn.into_iter().map(Vec::into_iter).collect();
        let mut replies =
            (0..reqs.len()).map(|i| per_conn[i % CONNECTIONS].next().expect("one reply each"));
        let mut previous_end = 0.0;
        plan.iter()
            .map(|segment| {
                let replies: Vec<Reply> = replies.by_ref().take(segment.len()).collect();
                let end = replies.iter().map(|r| r.done).fold(previous_end, f64::max);
                let wall = end - previous_end;
                previous_end = end;
                (wall, replies)
            })
            .collect()
    }

    /// The same request stream through `MvnService::submit` (no TCP, no
    /// JSON): 2 submitters, each with a window of 8 tickets. Returns the wall.
    fn segment_in_process(&self, specs: &[CovSpec], segment: usize) -> f64 {
        let reqs = &self.plan[segment];
        let handles: Vec<SpecHandle> = specs.iter().cloned().map(SpecHandle::new).collect();
        let t = Instant::now();
        std::thread::scope(|s| {
            for c in 0..CONNECTIONS {
                let (service, handles) = (&self.service, &handles);
                s.spawn(move || {
                    let mut window = VecDeque::with_capacity(WINDOW);
                    for req in reqs.iter().skip(c).step_by(CONNECTIONS) {
                        if window.len() == WINDOW {
                            let ticket: mvn_service::Ticket = window.pop_front().expect("full");
                            ticket.wait().expect("request is served");
                        }
                        let problem = Problem::new(req.a.clone(), vec![f64::INFINITY; req.a.len()]);
                        let ticket = service.submit(&handles[req.spec], problem);
                        window.push_back(ticket.expect("request is admitted"));
                    }
                    for ticket in window {
                        ticket.wait().expect("request is served");
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    }
}

/// Re-solves sampled replies on a local engine with the service's sampling
/// configuration, building each spec's factor on first use.
struct Auditor<'a> {
    specs: &'a [CovSpec],
    engine: MvnEngine,
    factors: Vec<Option<Factor>>,
    rng: Rng,
}

impl<'a> Auditor<'a> {
    /// `samples` must be the service's: the local engine is built exactly
    /// like a shard's (same QMC seed, default panel width and point family).
    fn new(cx: &Run, specs: &'a [CovSpec], samples: usize) -> Self {
        Self {
            specs,
            engine: engine(cx.seed(), 1, samples),
            factors: specs.iter().map(|_| None).collect(),
            rng: Rng::new(cx.seed(), Stream::Audit),
        }
    }

    /// The local factor of `spec` and the engine to solve against it.
    fn factor(&mut self, spec: usize) -> (&MvnEngine, &Factor) {
        let (specs, engine) = (self.specs, &self.engine);
        let factor = self.factors[spec]
            .get_or_insert_with(|| specs[spec].build_factor(engine).expect("spec factors"));
        (engine, factor)
    }

    /// Check a segment's replies (every one well-formed and error-free, a
    /// seeded share re-solved); returns which requests were answered
    /// correctly.
    fn audit(&mut self, cx: &mut Run, reqs: &[Request], replies: &[Reply]) -> Vec<bool> {
        let probs: Vec<Option<f64>> = reqs
            .iter()
            .zip(replies)
            .map(|(req, Reply { line, .. })| {
                let reply = Json::parse(line.trim()).ok();
                let field = |k: &str| reply.as_ref().and_then(|r| r.get(k)).and_then(Json::as_f64);
                let prob = field("prob").filter(|_| field("id") == Some(req.id as f64));
                cx.check(prob.is_some(), || {
                    format!("request {} answered {}", req.id, line.trim())
                });
                prob
            })
            .collect();
        let samples = (AUDIT_SHARE * reqs.len() as f64).ceil() as usize;
        for _ in 0..samples {
            let i = self.rng.below(reqs.len());
            let Some(served) = probs[i] else { continue };
            let req = &reqs[i];
            let b = vec![f64::INFINITY; req.a.len()];
            let (engine, factor) = self.factor(req.spec);
            let local = engine.solve(factor, &req.a, &b).prob;
            cx.check(
                (served - local).abs() <= AUDIT_REL_TOL * local.abs(),
                || format!("request {}: served {served}, local engine {local}", req.id),
            );
        }
        probs.iter().map(Option::is_some).collect()
    }

    /// Engine floor at this workload's shape: µs per problem of one
    /// `solve_batch` of 64 requests against spec 0 on a one-worker engine.
    fn floor_us(&mut self, reqs: &[Request]) -> f64 {
        let n = self.specs[0].n();
        let problems: Vec<Problem> = reqs
            .iter()
            .filter(|r| r.spec == 0)
            .take(64)
            .map(|r| Problem::new(r.a.clone(), vec![f64::INFINITY; n]))
            .collect();
        let (engine, factor) = self.factor(0);
        let t = Instant::now();
        std::hint::black_box(engine.solve_batch(factor, &problems));
        t.elapsed().as_secs_f64() * 1e6 / problems.len() as f64
    }
}

/// Wall of one cold `warm` over the wire of a `serve_churn`-shaped spec no
/// workload requests: covariance assembly plus factorization, i.e. a miss.
fn miss_ms(cx: &mut Run, addr: SocketAddr) -> f64 {
    let (grid, nb) = churn_grid(cx.opts.smoke);
    let cold = matern(grid, nb, 0.2);
    let mut control = ServiceClient::connect(addr).expect("control connection");
    let t = Instant::now();
    let reply = control
        .request(&render_warm_request(1 << 40, &cold, false))
        .expect("warm request");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_build = reply.get("was_resident").and_then(Json::as_bool) == Some(false);
    cx.check(cold_build, || format!("cold warm answered {reply}"));
    ms
}

fn set_service_counters(cx: &mut Run, before: &ServiceStats, after: &ServiceStats) {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let (hits, misses) = (d(ServiceStats::cache_hits), d(ServiceStats::cache_misses));
    cx.set_value(
        "mvn-service.mean_batch",
        d(ServiceStats::solved) / d(ServiceStats::batches).max(1.0),
    );
    cx.set_value("mvn-service.mixed_batches", d(|s| s.mixed_batches));
    cx.set_value(
        "mvn-service.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    cx.set_value("mvn-service.factor_builds", misses);
    cx.set_value("mvn-service.evictions", d(ServiceStats::cache_evictions));
    cx.set_value("mvn-service.rejected", d(|s| s.rejected));
}

pub fn run_hot(cx: &mut Run) {
    run(cx, &hot_shape(cx.opts.smoke));
}

pub fn run_churn(cx: &mut Run) {
    run(cx, &churn_shape(cx.opts.smoke));
}

fn run(cx: &mut Run, shape: &Shape) {
    let timed_segments = cx.reps(shape.segments);
    // A traced run drives two more: one traced, one in-process.
    let planned = timed_segments + if cx.opts.trace { 2 } else { 0 };
    let (mut stack, setup_wall) = cx.setup(|cx| Stack::start(cx, shape, planned));
    // `serve_hot`'s 0.8 ms requests sit on wake-up latency; `serve_churn`'s
    // clock is factor builds, which the busy loops would only take cycles
    // from (106 against 113 req/s).
    let awake = shape.pinned.then(KeepAwake::start);
    let mut auditor = Auditor::new(cx, &shape.specs, shape.samples);
    let (warm_wall, warm_replies) = stack.stream(cx, 0..1, 0).remove(0);
    auditor.audit(cx, &stack.plan[0], &warm_replies);
    let setup_s = setup_wall + warm_wall;

    let stats_before = stack.service.stats();
    let timed = stack.stream(cx, 1..1 + timed_segments, 1);
    let stats_after = stack.service.stats();
    // Untimed: audit every reply; a failed request counts as beyond any
    // latency percentile.
    let (mut walls, mut answered) = (Vec::new(), Vec::new());
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    for (segment, (wall, replies)) in timed.iter().enumerate() {
        let ok = auditor.audit(cx, &stack.plan[segment + 1], replies);
        walls.push(*wall);
        answered.push(ok.iter().filter(|&&o| o).count() as f64);
        latencies.push(
            replies
                .iter()
                .zip(&ok)
                .map(|(r, &ok)| if ok { r.latency } else { f64::INFINITY })
                .collect(),
        );
    }
    let rejected = stats_after.rejected - stats_before.rejected;
    cx.check(rejected == 0, || {
        format!("{rejected} requests were rejected")
    });
    if !cx.opts.trace {
        let per_segment: Vec<&[f64]> = latencies.iter().map(Vec::as_slice).collect();
        cx.set_end_to_end_serve(setup_s, &walls, &answered, &per_segment);
        return;
    }

    set_service_counters(cx, &stats_before, &stats_after);
    let extra = timed_segments + 1;
    let (mut traced, spans) = cx.traced(|cx| stack.stream(cx, extra..extra + 1, 99));
    auditor.audit(cx, &stack.plan[extra], &traced.remove(0).1);
    cx.set_trace_guards(&spans, stats::median(&walls));

    let in_process_wall = stack.segment_in_process(&shape.specs, extra + 1);
    let requests = shape.per_segment as f64;
    cx.set_value("mvn-service.inproc_req_per_s", requests / in_process_wall);
    let shards = stack.service.config().shards as f64;
    cx.set_value(
        "mvn-service.engine_share",
        requests * auditor.floor_us(&stack.plan[1]) * 1e-6 / (stats::median(&walls) * shards),
    );
    // What each workload's clock is made of: engine floor and wire costs for
    // the resident specs, the cost of a miss for the churning ones.
    if shape.pinned {
        drop(stack);
        drop(awake);
        probes::small_solves_and_wire(cx);
    } else {
        let miss = miss_ms(cx, stack.server.addr());
        cx.set_value("mvn-service.miss_ms", miss);
    }
}
