//! The worker process: owns its block-cyclic share of the factor tiles,
//! executes exactly the owned tasks of the global plan through its local
//! worker pool (one streaming [`WorkerPool::execute`] session), serves
//! finalized tiles to peers over TCP, and sweeps its assigned share of the
//! QMC panels.
//!
//! ## Why this cannot deadlock
//!
//! Remote input tiles are prefetched **on the submitter thread**, in global
//! plan order, *before* the task that reads them is submitted; task closures
//! themselves never touch the network. Consider the globally earliest task
//! whose closure has not completed: its inputs are final outputs of strictly
//! earlier tasks (see [`crate::plan`]), so its owner's prefetches are
//! servable immediately by the peers' serving threads — which run
//! independently of their submitter — and the task is submitted and
//! executed. Induction over the plan order does the rest. (Fetching inside
//! task closures on a multi-worker pool would *not* be safe: a pool could
//! fill with tasks blocked on tiles whose producers sit behind them in the
//! same pool.) The argument survives recovery: a respawned rank walks its
//! slice in the same plan order through the same pipeline, so the globally
//! earliest unfinished task still always has an owner whose inputs are (or
//! become) servable.
//!
//! ## Why the result is bitwise identical to the single-process engine
//!
//! Each tile's writers all share the tile's owner, and the owner applies
//! them in global plan order through the hazard-inferring stream, so
//! per-tile kernel order equals the single-process DAG's. Every step runs
//! [`tlr::dag::tlr_step`], the step body the engine's `potrf_tlr` runs on
//! dense and TLR factors alike (this crate calls no kernel itself), on
//! bit-identical inputs (locally produced, or shipped as their raw `f64`
//! bits). The sweep then runs the engine's own [`mvn_core::sweep_panel`]
//! against bit-identical factor tiles with the same deterministic point
//! set, and panel results depend only on the panel index — not on which
//! node computes it, nor on whether it was computed before or after a
//! recovery.
//!
//! ## Recovery behavior
//!
//! A worker never treats a failed tile fetch as fatal: it drops the broken
//! connection, waits for a cluster-view change (or a capped backoff), and
//! retries against the *current* address of the tile's owner — which the
//! coordinator updates through an epoch message after it respawns a lost
//! rank. A control thread applies those updates concurrently with the
//! compute pipeline. Serving threads answer from any epoch (final tiles are
//! immutable and identical across incarnations) but refuse tiles this rank
//! does not own, so a misrouted request is answered instead of hanging.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mvn_core::{sweep_panel, CholeskyFactor, MvnConfig};
use qmc::lattice_points;
use task_runtime::{effective_workers, HandleRegistry, WorkerPool};
use tile_la::dag::{register_tile_handles, FactorStatus};
use tile_la::TileLayout;
use tlr::dag::tlr_step;
use tlr::Tile;
use wire::{read_msg, write_msg};

use crate::faults::{backoff_delay, FaultInjector, FetchFault};
use crate::plan::{rank_slice, ProcessGrid, TileId};
use crate::proto::{self, CtrlMsg, DoneMsg, WorkerErrorMsg, WorkerMsg};
use crate::store::DistStore;

/// Exit code of an injected crash (distinguishable from panics in CI logs).
pub const CRASH_EXIT_CODE: i32 = 42;

/// Env var: the address workers bind their tile server to (default
/// `127.0.0.1`); set by the coordinator from `DistConfig::bind_addr`.
pub const BIND_ENV: &str = "MVN_DIST_BIND";
/// Env var: any non-empty value other than `"0"` enables [`obs`] tracing in
/// the worker process; the recorded events ride the done report back to the
/// coordinator for the merged multi-process timeline. Set automatically by
/// the coordinator when tracing is enabled in its own process.
pub const TRACE_ENV: &str = "MVN_DIST_TRACE";

/// Cap on any single retry backoff sleep.
const RETRY_CAP: Duration = Duration::from_millis(500);
/// Bounded connect attempts for the worker → coordinator handshake.
const CONNECT_ATTEMPTS: u32 = 5;
/// Base backoff between connect attempts, doubling each attempt with
/// deterministic jitter (see [`backoff_delay`]).
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// How long a serving thread waits on a tile before re-checking shutdown.
const SERVE_WAIT_SLICE: Duration = Duration::from_millis(100);

/// The worker's live picture of the cluster: epoch and per-rank
/// tile-server addresses. Updated by the control thread on epoch messages;
/// fetch-retry loops block on it so a re-route is applied the moment it is
/// known instead of after a full backoff.
struct ClusterView {
    state: Mutex<ViewState>,
    cv: Condvar,
}

struct ViewState {
    epoch: u64,
    peers: Vec<String>,
}

impl ClusterView {
    fn new(epoch: u64, peers: Vec<String>) -> Self {
        Self {
            state: Mutex::new(ViewState { epoch, peers }),
            cv: Condvar::new(),
        }
    }

    /// Current route for `rank`'s tiles: `(epoch, address)`.
    fn route(&self, rank: usize) -> (u64, String) {
        let st = self.state.lock().unwrap();
        (st.epoch, st.peers[rank].clone())
    }

    /// Apply a strictly newer view; stale updates are dropped.
    fn update(&self, epoch: u64, peers: Vec<String>) {
        let mut st = self.state.lock().unwrap();
        if epoch > st.epoch {
            st.epoch = epoch;
            st.peers = peers;
            self.cv.notify_all();
        }
    }

    /// Block until the epoch advances past `seen` or `timeout` elapses.
    fn wait_change(&self, seen: u64, timeout: Duration) {
        let st = self.state.lock().unwrap();
        if st.epoch > seen {
            return;
        }
        let _unused = self
            .cv
            .wait_timeout_while(st, timeout, |s| s.epoch <= seen)
            .unwrap();
    }
}

/// Everything the worker's threads share.
struct WorkerCtx {
    rank: usize,
    grid: ProcessGrid,
    layout: TileLayout,
    problem: crate::proto::ProblemMsg,
    /// Epoch this incarnation was set up at; > 0 means it exists to recover
    /// a lost rank, and its factor work counts as replayed.
    born_epoch: u64,
    store: DistStore,
    /// The format each owned tile starts the factorization in (`true` =
    /// low-rank, indexed `[i][j]`; `false` for tiles owned elsewhere): a
    /// trailing update is labelled `lr_gemm` when its output starts
    /// low-rank, as in `tlr::potrf_tlr`.
    low_rank: Vec<Vec<bool>>,
    view: ClusterView,
    injector: FaultInjector,
    /// Absolute give-up point for retry loops (from the problem's deadline
    /// budget).
    deadline: Instant,
    /// Jitter salt (per-process, so concurrent retry storms decorrelate).
    salt: u64,
    /// Set by the control thread on shutdown/coordinator loss; retry loops
    /// abort on it.
    shutdown: AtomicBool,
    shutdown_cv: Condvar,
    shutdown_mx: Mutex<bool>,
    /// Nanoseconds the serving threads spent answering peer tile requests
    /// (accumulated per request; snapshot rides the done report).
    serve_ns: AtomicU64,
}

impl WorkerCtx {
    fn io_err(&self, message: String) -> WorkerErrorMsg {
        WorkerErrorMsg::Other {
            kind: "io".into(),
            message,
        }
    }

    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *self.shutdown_mx.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
        // Wake any fetch-retry loop blocked on the view.
        self.view.cv.notify_all();
    }
}

/// Transfer accounting for one thread's peer links.
#[derive(Default)]
struct LinkStats {
    comm_bytes: u64,
    fetches: u64,
    reconnects: u64,
    /// Time this thread spent blocked in [`ensure_final`] waiting for input
    /// tiles (remote fetches and their retries).
    fetch_wait_ns: u64,
}

/// Fetch connections (keyed by peer address) plus transfer accounting.
/// Only the pipeline thread fetches, so requests and responses on one
/// connection never interleave.
struct PeerLinks {
    conns: HashMap<String, (BufReader<TcpStream>, TcpStream)>,
    /// Addresses whose connection was dropped by an error or sever; the
    /// next successful connect to one counts as a reconnect.
    dirty: HashSet<String>,
    stats: LinkStats,
}

impl PeerLinks {
    fn new() -> Self {
        Self {
            conns: HashMap::new(),
            dirty: HashSet::new(),
            stats: LinkStats::default(),
        }
    }

    /// One fetch attempt against `addr`. Any failure drops the connection
    /// and marks the edge dirty; the caller owns retries and re-routing.
    fn try_fetch(
        &mut self,
        addr: &str,
        id: TileId,
        injector: &FaultInjector,
    ) -> Result<Tile, String> {
        match injector.on_fetch() {
            FetchFault::None => {}
            FetchFault::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            FetchFault::Sever => {
                // Injected connection loss: drop the link mid-request, as if
                // the peer (or the network) cut it.
                self.conns.remove(addr);
                self.dirty.insert(addr.to_string());
                return Err(format!("connection to {addr} severed (injected fault)"));
            }
        }
        let attempt = (|| -> Result<Tile, String> {
            if !self.conns.contains_key(addr) {
                let stream = TcpStream::connect(addr)
                    .and_then(proto::link)
                    .map_err(|e| format!("connecting to peer {addr}: {e}"))?;
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("cloning peer stream: {e}"))?,
                );
                if self.dirty.remove(addr) {
                    self.stats.reconnects += 1;
                }
                self.conns.insert(addr.to_string(), (reader, stream));
            }
            let (reader, writer) = self.conns.get_mut(addr).unwrap();
            write_msg(writer, &proto::tile_request(id))
                .map_err(|e| format!("requesting tile {id:?} from {addr}: {e}"))?;
            let (tile, n) = proto::read_tile(reader, id)
                .map_err(|e| format!("tile {id:?} from {addr}: {e}"))?
                .ok_or_else(|| format!("{addr} closed serving tile {id:?}"))?;
            self.stats.comm_bytes += n;
            self.stats.fetches += 1;
            Ok(tile)
        })();
        if attempt.is_err() {
            self.conns.remove(addr);
            self.dirty.insert(addr.to_string());
        }
        attempt
    }
}

/// Block until tile `id` is final on this node: an immediate hit if
/// resident, otherwise a fetch from its owner with re-routing retries.
/// Callers only ask for tiles another rank owns, or that this rank's own
/// pipeline has already finalized.
fn ensure_final(ctx: &WorkerCtx, links: &mut PeerLinks, id: TileId) -> Result<(), WorkerErrorMsg> {
    if ctx.store.has_final(id) {
        return Ok(()); // resident hit: not a wait, not counted
    }
    let wait_start = obs::now_ns();
    let result = ensure_final_wait(ctx, links, id);
    links.stats.fetch_wait_ns += obs::now_ns().saturating_sub(wait_start);
    obs::complete_since(
        "dist_fetch_wait",
        wait_start,
        &[("i", id.0 as u64), ("j", id.1 as u64)],
    );
    result
}

fn ensure_final_wait(
    ctx: &WorkerCtx,
    links: &mut PeerLinks,
    id: TileId,
) -> Result<(), WorkerErrorMsg> {
    let owner = ctx.grid.owner(id.0, id.1);
    let mut attempt: u32 = 0;
    let mut last_err = String::from("never attempted");
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return Err(ctx.io_err(format!("shutdown while waiting for tile {id:?}")));
        }
        if Instant::now() >= ctx.deadline {
            return Err(ctx.io_err(format!(
                "deadline exceeded waiting for tile {id:?} (owner {owner}): {last_err}"
            )));
        }
        let (epoch, addr) = ctx.view.route(owner);
        match links.try_fetch(&addr, id, &ctx.injector) {
            Ok(tile) => {
                ctx.store.insert_fetched(id, tile);
                return Ok(());
            }
            Err(e) => {
                last_err = e;
                // Wait for a route change (epoch bump) or back off, then
                // retry against whatever the view then says.
                let wait = backoff_delay(
                    Duration::from_millis(10),
                    attempt,
                    ctx.salt.wrapping_add(id.0 as u64) ^ (id.1 as u64),
                    RETRY_CAP,
                );
                ctx.view.wait_change(epoch, wait);
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

/// The fully assembled factor a sweeping node holds: every lower tile,
/// locally produced or fetched, viewed through the engine's
/// [`CholeskyFactor`] abstraction so the sweep kernels are literally the
/// single-process ones.
struct DistFactor {
    layout: TileLayout,
    /// `tiles[i]` holds tiles `(i, 0..=i)`.
    tiles: Vec<Vec<Arc<Tile>>>,
}

impl CholeskyFactor for DistFactor {
    fn tiling(&self) -> TileLayout {
        self.layout
    }
    fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[i][j]
    }
}

fn connect_with_retries(addr: &str, salt: u64) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr).and_then(proto::link) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            std::thread::sleep(backoff_delay(
                CONNECT_BACKOFF,
                attempt,
                salt,
                Duration::from_secs(2),
            ));
        }
    }
    Err(format!(
        "connecting to coordinator {addr}: {last} (after {CONNECT_ATTEMPTS} attempts)"
    ))
}

/// Run one worker process against the coordinator at `coordinator_addr`.
/// Returns after the coordinator orders shutdown (or disconnects).
pub fn run_worker(coordinator_addr: &str) -> Result<(), String> {
    if std::env::var(TRACE_ENV).is_ok_and(|v| !v.is_empty() && v != "0") {
        obs::set_enabled(true);
    }
    let salt = std::process::id() as u64;
    let coord = connect_with_retries(coordinator_addr, salt)?;
    let mut coord_writer = coord
        .try_clone()
        .map_err(|e| format!("cloning coordinator stream: {e}"))?;
    let mut coord_reader = BufReader::new(coord);

    // The tile server socket: peers fetch finalized tiles here.
    let bind = std::env::var(BIND_ENV).unwrap_or_else(|_| "127.0.0.1".to_string());
    let listener = TcpListener::bind(format!("{bind}:0"))
        .map_err(|e| format!("binding tile server on {bind}: {e}"))?;
    let listen_addr = listener
        .local_addr()
        .map_err(|e| format!("tile server address: {e}"))?
        .to_string();

    write_msg(&mut coord_writer, &proto::hello(&listen_addr))
        .map_err(|e| format!("sending hello: {e}"))?;
    let mut setup = proto::read_setup(&mut coord_reader)
        .map_err(|e| format!("reading setup from the coordinator: {e}"))?;

    let layout = TileLayout::new(setup.problem.n, setup.problem.nb);
    let nt = layout.num_tiles();
    let store = DistStore::new((0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))));
    let mut low_rank: Vec<Vec<bool>> = (0..nt).map(|i| vec![false; i + 1]).collect();
    for ((i, j), tile) in std::mem::take(&mut setup.tiles) {
        low_rank[i][j] = tile.is_low_rank();
        store.insert_initial((i, j), tile);
    }
    let injector = FaultInjector::from_env(setup.rank, CRASH_EXIT_CODE)?;
    let ctx = Arc::new(WorkerCtx {
        rank: setup.rank,
        grid: ProcessGrid::new(setup.nodes),
        layout,
        problem: setup.problem.clone(),
        born_epoch: setup.epoch,
        store,
        low_rank,
        view: ClusterView::new(setup.epoch, setup.peers.clone()),
        injector,
        deadline: Instant::now() + Duration::from_millis(setup.problem.deadline_ms.max(1)),
        salt,
        shutdown: AtomicBool::new(false),
        shutdown_cv: Condvar::new(),
        shutdown_mx: Mutex::new(false),
        serve_ns: AtomicU64::new(0),
    });

    // Serving threads: answer peer tile requests, independent of the
    // compute pipeline. Detached — they die with the process.
    {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || serve_tiles(listener, ctx));
    }

    // Control thread: applies coordinator epoch messages while the main
    // thread computes, and signals shutdown.
    let control = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || control_loop(&mut coord_reader, ctx))
    };

    let outcome = run_pipeline(&ctx, &setup.panels);
    let msg = match outcome {
        Ok(done) => WorkerMsg::Done(done),
        Err(err) => WorkerMsg::Error(err),
    };
    write_msg(&mut coord_writer, &proto::worker_msg_to_json(&msg))
        .map_err(|e| format!("reporting to coordinator: {e}"))?;

    // Keep serving tiles until the coordinator releases everyone: another
    // node may still be factoring or sweeping against tiles this rank owns.
    let mut done = ctx.shutdown_mx.lock().unwrap();
    while !*done {
        done = ctx.shutdown_cv.wait(done).unwrap();
    }
    drop(done);
    control.join().ok();
    Ok(())
}

/// Read coordinator control messages until shutdown or link loss.
fn control_loop(reader: &mut BufReader<TcpStream>, ctx: Arc<WorkerCtx>) {
    loop {
        let msg = match read_msg(reader) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => {
                // Coordinator gone: nothing left to report to.
                ctx.signal_shutdown();
                return;
            }
        };
        match proto::ctrl_from_json(&msg) {
            Ok(CtrlMsg::Shutdown) => {
                ctx.signal_shutdown();
                return;
            }
            Ok(CtrlMsg::Epoch(e)) => ctx.view.update(e.epoch, e.peers),
            Err(_) => { /* unknown control message: ignore */ }
        }
    }
}

/// Factor + sweep, returning this rank's report.
fn run_pipeline(ctx: &Arc<WorkerCtx>, panels: &[usize]) -> Result<DoneMsg, WorkerErrorMsg> {
    let p = &ctx.problem;
    let mut links = PeerLinks::new();
    let pool = WorkerPool::new(effective_workers(p.workers));

    let factor_span =
        obs::enabled().then(|| obs::span_with("dist_factor", &[("rank", ctx.rank as u64)]));
    let executed = factor(ctx, &mut links, &pool)?;
    drop(factor_span);
    let sweep_span = obs::enabled().then(|| {
        obs::span_with(
            "dist_sweep",
            &[("rank", ctx.rank as u64), ("panels", panels.len() as u64)],
        )
    });
    let panel_results = sweep_assigned(ctx, &mut links, panels, &pool)?;
    drop(sweep_span);

    // Kernel time (factor tasks + panel sweeps) from the pool's always-on
    // per-label accounting — the Fig.-7-style compute leg of the breakdown.
    let compute_ns: u64 = pool
        .stats()
        .tasks_by_label
        .iter()
        .map(|&(_, _, ns)| ns)
        .sum();
    Ok(DoneMsg {
        panels: panel_results,
        comm_bytes: links.stats.comm_bytes,
        fetches: links.stats.fetches,
        // A respawned incarnation exists to recover a lost rank: every
        // factor task it re-executes from initial data is replay work.
        replayed_tasks: if ctx.born_epoch > 0 { executed } else { 0 },
        reconnects: links.stats.reconnects,
        compute_ns,
        fetch_wait_ns: links.stats.fetch_wait_ns,
        serve_ns: ctx.serve_ns.load(Ordering::Relaxed),
        trace: if obs::enabled() {
            obs::take_events()
        } else {
            Vec::new()
        },
    })
}

/// Execute the owned slice of the factorization plan through one
/// [`WorkerPool::execute`] session (see the module docs for the prefetch
/// protocol): each task runs as soon as it is submitted, so the prefetches
/// between submissions never wait on tasks the pool is holding back.
/// Returns the number of owned tasks executed.
fn factor(
    ctx: &Arc<WorkerCtx>,
    links: &mut PeerLinks,
    pool: &WorkerPool,
) -> Result<u64, WorkerErrorMsg> {
    let layout = ctx.layout;
    let handles = register_tile_handles(&mut HandleRegistry::new(), layout);
    let status = FactorStatus::new();
    let compression = ctx.problem.compression;

    let store_ref: &DistStore = &ctx.store;
    let status_ref = &status;
    let executed = pool.execute(|sink| -> Result<u64, WorkerErrorMsg> {
        let mut executed = 0u64;
        for step in rank_slice(layout.num_tiles(), &ctx.grid, ctx.rank) {
            if status_ref.is_failed() {
                break; // kill the chain: peers are released by the coordinator
            }
            // Prefetch remote inputs on this (submitter) thread, in plan
            // order; the residency check is the per-edge transfer cache, and
            // `ensure_final` re-routes around lost peers.
            for &rid in step.reads() {
                if ctx.grid.owner(rid.0, rid.1) != ctx.rank {
                    ensure_final(ctx, links, rid)?;
                }
            }
            // Fault hook: a planned kill fires here, mid-factor, exactly
            // like a lost node — no error message, no cleanup.
            ctx.injector.on_task_submit();
            executed += 1;

            sink.submit_task(
                step.spec(&handles, &ctx.low_rank),
                Box::new(move || {
                    if status_ref.is_failed() {
                        return;
                    }
                    let mut tile = store_ref.take(step.out);
                    let reads = store_ref.final_reads(step);
                    // Unique pre-final by hazard ordering: no peer or local
                    // reader ever holds a non-final tile, so this mutates in
                    // place without copying.
                    let out = Arc::make_mut(&mut tile);
                    if let Err(pivot) = tlr_step(step, out, &reads, layout, compression) {
                        status_ref.fail(pivot);
                    }
                    store_ref.put(step.out, tile, step.finalizes());
                }),
            );
        }
        Ok(executed)
    })?;
    if let Some(pivot) = status.pivot() {
        return Err(WorkerErrorMsg::Factorization { pivot });
    }
    Ok(executed)
}

/// Sweep the given panels against the fully assembled factor, as one task
/// set on the worker's pool, returning `(panel index, panel probability
/// mean, live-chain count)` per panel. A panel's result depends only on the
/// panel index and the factor bits.
fn sweep_assigned(
    ctx: &Arc<WorkerCtx>,
    links: &mut PeerLinks,
    panels: &[usize],
    pool: &WorkerPool,
) -> Result<Vec<(usize, f64, usize)>, WorkerErrorMsg> {
    if panels.is_empty() {
        return Ok(Vec::new());
    }
    let p = &ctx.problem;
    let layout = ctx.layout;
    let nt = layout.num_tiles();
    // A sweeping node reads every factor tile; each tile crosses the edge
    // once thanks to the store's residency check.
    for i in 0..nt {
        for j in 0..=i {
            ensure_final(ctx, links, (i, j))?;
        }
    }
    let factor = DistFactor {
        layout,
        tiles: (0..nt)
            .map(|i| (0..=i).map(|j| ctx.store.get_final((i, j))).collect())
            .collect(),
    };
    let points = lattice_points(p.n, p.seed);
    let cfg = MvnConfig {
        sample_size: p.sample_size,
        panel_width: p.panel_width,
        seed: p.seed,
    };
    let results = pool.map("dist_panel_sweep", panels, |_, &panel| {
        let r = sweep_panel(&factor, &p.a, &p.b, &points, &cfg, panel);
        // Fault hook: a planned mid-sweep kill fires here, after this panel
        // completes.
        ctx.injector.on_panel_done();
        r
    });
    Ok(panels
        .iter()
        .zip(results)
        .map(|(&panel, (mean, count))| (panel, mean, count))
        .collect())
}

/// Accept loop of the tile server: one thread per peer connection, each
/// answering sequential `{"get":[i,j]}` requests with finalized tiles (a
/// tile header and its raw blocks, see [`proto::write_tile`]).
/// A request for a tile this rank does not own is *refused* (`{"err":..}`)
/// instead of waited on — the requester re-resolves its route and retries,
/// so a stale route never hangs either side.
fn serve_tiles(listener: TcpListener, ctx: Arc<WorkerCtx>) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { return };
        let Ok(stream) = proto::link(stream) else {
            continue;
        };
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            let Ok(peer_read) = stream.try_clone() else {
                return;
            };
            let mut reader = BufReader::new(peer_read);
            let mut writer = stream;
            while let Ok(Some(msg)) = read_msg(&mut reader) {
                // Serve time runs from request receipt to response written
                // (idle time blocked on the peer's next request is not
                // serving); a wait for the local pipeline to finalize the
                // tile *is* — the thread is occupied on the peer's behalf.
                let t0 = obs::now_ns();
                let id = match proto::parse_tile_request(&msg) {
                    Ok(id) => id,
                    Err(reason) => {
                        // Not a tile request: refuse it and keep the
                        // connection, like an id with no slot.
                        if write_msg(&mut writer, &proto::tile_error(&reason)).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let nt = ctx.layout.num_tiles();
                let owner = ctx.grid.owner(id.0, id.1);
                let sent = if id.1 > id.0 || id.0 >= nt {
                    // No such tile: refuse it and keep the connection.
                    let reason =
                        format!("tile {id:?} is outside the lower triangle of {nt} x {nt} tiles");
                    write_msg(&mut writer, &proto::tile_error(&reason))
                } else if owner != ctx.rank {
                    let reason =
                        format!("rank {} does not own tile {id:?} (owner {owner})", ctx.rank);
                    write_msg(&mut writer, &proto::tile_error(&reason))
                } else {
                    loop {
                        if let Some(tile) = ctx.store.wait_final_timeout(id, SERVE_WAIT_SLICE) {
                            break proto::write_tile(&writer, id, &tile);
                        }
                        if ctx.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                };
                if sent.is_err() {
                    return;
                }
                ctx.serve_ns
                    .fetch_add(obs::now_ns().saturating_sub(t0), Ordering::Relaxed);
                obs::complete_since(
                    "dist_serve_tile",
                    t0,
                    &[("i", id.0 as u64), ("j", id.1 as u64)],
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ProblemMsg, SetupMsg};
    use tile_la::DenseMatrix;
    use wire::Json;

    #[test]
    fn tile_server_refuses_ids_outside_the_layout_and_keeps_serving() {
        // Play coordinator for rank 0 of a two-rank, 2 x 2-tile dense
        // problem, then send its tile server a malformed request, two ids
        // that have no slot, one that rank 1 owns and one that rank 0 owns,
        // all on one connection. Under `ProcessGrid::new(2)` rank 0 owns
        // (0, 0) and (1, 0), and its slice (potrf (0, 0), trsm (1, 0))
        // reads nothing remote, so rank 1 never needs to exist.
        let coord = TcpListener::bind("127.0.0.1:0").unwrap();
        let coord_addr = coord.local_addr().unwrap().to_string();
        let worker = std::thread::spawn(move || run_worker(&coord_addr));
        let (conn, _) = coord.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut coord_reader = BufReader::new(conn.try_clone().unwrap());
        let mut coord_writer = conn;
        let hello = read_msg(&mut coord_reader).unwrap().unwrap();
        let tile_server = proto::parse_hello(&hello).unwrap();

        let (n, nb) = (4, 2);
        let tile = |i: usize, j: usize| {
            Tile::Dense(DenseMatrix::from_fn(nb, nb, |r, c| {
                if i == j && r == c {
                    1.0
                } else {
                    0.0
                }
            }))
        };
        let setup = SetupMsg {
            rank: 0,
            nodes: 2,
            epoch: 0,
            peers: vec![tile_server.clone(), "127.0.0.1:1".into()],
            panels: Vec::new(),
            problem: ProblemMsg {
                compression: None,
                n,
                nb,
                a: vec![-1.0; n],
                b: vec![1.0; n],
                sample_size: 64,
                panel_width: 32,
                seed: 1,
                workers: 1,
                deadline_ms: 60_000,
            },
            tiles: vec![((0, 0), tile(0, 0)), ((1, 0), tile(1, 0))],
        };
        proto::write_setup(&coord_writer, &setup).unwrap();
        let done = read_msg(&mut coord_reader).unwrap().unwrap();
        assert!(matches!(
            proto::worker_msg_from_json(&done),
            Ok(WorkerMsg::Done(_))
        ));

        let peer = TcpStream::connect(&tile_server).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut peer_reader = BufReader::new(peer.try_clone().unwrap());
        let mut peer_writer = peer;
        let mut send = |request: Json, id: TileId| {
            write_msg(&mut peer_writer, &request).unwrap();
            proto::read_tile(&mut peer_reader, id).map(|reply| {
                reply
                    .unwrap_or_else(|| panic!("the tile server hung up on {request}"))
                    .0
            })
        };
        let err = send(Json::parse(r#"{"get":"x"}"#).unwrap(), (0, 0)).unwrap_err();
        assert!(err.contains("expected a {\"get\""), "{err}");
        let mut get = |id: TileId| send(proto::tile_request(id), id);
        for bad in [(2, 0), (0, 1)] {
            let err = get(bad).unwrap_err();
            assert!(err.contains("outside the lower triangle"), "{bad:?}: {err}");
        }
        let err = get((1, 1)).unwrap_err();
        assert!(err.contains("does not own tile (1, 1)"), "{err}");
        let good = get((0, 0)).unwrap();
        assert_eq!(good.as_dense().get(1, 1), 1.0);

        write_msg(&mut coord_writer, &proto::shutdown()).unwrap();
        worker.join().unwrap().unwrap();
    }
}
