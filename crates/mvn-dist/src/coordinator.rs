//! The coordinator: launches one worker process per node, hands each its
//! block-cyclic tile share and the problem statement, then supervises the
//! deployment — gathering partial sweep results, detecting lost workers,
//! driving recovery — and finally combines the panel results exactly like
//! the single-process engine does.
//!
//! The coordinator performs no numerics beyond the final
//! [`mvn_core::combine_panel_results`] call over the panel results sorted by
//! panel index — the same order the engine's own sweep produces them in —
//! which is why the distributed probability is bitwise identical to
//! [`mvn_core::MvnEngine`]'s.
//!
//! ## Failure handling
//!
//! With [`Recovery::Off`] the policy is fail-stop: the first worker error
//! (typed pivot failure, transport error, or a silently dying process)
//! kills every child — which also releases any peer blocked in a tile wait
//! on the lost rank — and surfaces as a typed [`DistError`].
//!
//! With recovery enabled (the default, [`Recovery::Respawn`]) a lost rank
//! is *recovered* instead: the coordinator bumps the cluster epoch, spawns a
//! fresh fault-free process that re-assumes the rank, sends it the rank's
//! initial tiles and unreported panel assignment, and broadcasts its new
//! address so peers re-route their fetches. The new process *replays* the
//! rank's factor-plan slice from initial data ([`crate::plan::rank_slice`])
//! as an ordinary pipeline; every tile is a pure function of the initial
//! data and its plan prefix, so the recombined probability is bitwise
//! identical to a fault-free run (and to the engine). Reports are tagged
//! with the sender's incarnation, so a report buffered by a rank that was
//! later declared dead can never be double-counted.
//!
//! Factorization (pivot) failures always fail-stop even with recovery on:
//! they are deterministic, so a replay would fail identically.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mvn_core::{combine_panel_results, validate_limits, MvnConfig, MvnResult};
use tile_la::SymTileMatrix;
use tlr::TlrMatrix;
use wire::{read_msg, write_msg};

use crate::faults::{FaultPlan, FAULTS_ENV};
use crate::plan::{owned_panels, owned_tiles, ProcessGrid};
use crate::proto::{self, EpochMsg, ProblemMsg, SetupMsg, WorkerErrorMsg, WorkerMsg};
use crate::worker::{BIND_ENV, CONNECT_RETRIES_ENV, RETRY_BASE_MS_ENV, TRACE_ENV};

/// Cap on recovery rounds per solve: past this, something is systemically
/// wrong (a crash loop) and the run fails with the underlying error instead
/// of burning the whole deadline on respawns.
const MAX_RECOVERIES: u64 = 8;

/// What the coordinator does when a worker is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recovery {
    /// Fail-stop: tear everything down and surface a typed error (the
    /// pre-recovery behavior, still used by tests that assert on crashes).
    Off,
    /// Spawn a fresh process that re-assumes the lost rank: it receives the
    /// rank's initial tiles and unreported panels, replays the factor slice
    /// as a normal pipeline, and serves the rank's tiles again.
    #[default]
    Respawn,
}

/// How a distributed solve is deployed.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of worker processes (nodes).
    pub nodes: usize,
    /// Command line of the worker binary; the coordinator address is
    /// appended as the final argument. Tests use
    /// `env!("CARGO_BIN_EXE_mvn_dist_worker")`, the bench binary re-invokes
    /// itself with a `worker` subcommand.
    pub worker_command: Vec<String>,
    /// Extra environment for the workers (fault injection, logging).
    pub worker_env: Vec<(String, String)>,
    /// Worker threads per node (`0` = available parallelism).
    pub workers_per_node: usize,
    /// End-to-end deadline: handshake, factor, sweep, gather — and any
    /// recovery — must all land inside it, otherwise the run is torn down
    /// with [`DistError::Timeout`].
    pub timeout: Duration,
    /// Address the coordinator socket and the workers' tile servers bind to
    /// (default `127.0.0.1`; set to a routable interface to spread workers
    /// across hosts).
    pub bind_addr: String,
    /// Bounded connect attempts for the worker → coordinator handshake
    /// (default 5). Workers back off exponentially with deterministic
    /// jitter between attempts — see [`crate::faults::backoff_delay`].
    pub connect_retries: u32,
    /// Base backoff between connect attempts (default 50 ms, doubling each
    /// attempt).
    pub retry_base: Duration,
    /// What to do when a worker is lost mid-run.
    pub recovery: Recovery,
    /// Deterministic fault plan shipped to the workers (empty = healthy
    /// run). Respawned incarnations always run fault-free, so an injected
    /// kill cannot re-fire in a recovery loop.
    pub faults: FaultPlan,
}

impl DistConfig {
    /// A config with `nodes` workers launched via `worker_command`, one
    /// compute thread each, recovery enabled
    /// ([`Recovery::Respawn`]), and a generous deadline.
    pub fn new(nodes: usize, worker_command: Vec<String>) -> Self {
        Self {
            nodes,
            worker_command,
            worker_env: Vec::new(),
            workers_per_node: 1,
            timeout: Duration::from_secs(120),
            bind_addr: "127.0.0.1".to_string(),
            connect_retries: 5,
            retry_base: Duration::from_millis(50),
            recovery: Recovery::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// Everything that can go wrong in a distributed solve.
#[derive(Debug)]
pub enum DistError {
    /// The problem statement is malformed (limit lengths, NaNs, ...).
    InvalidProblem(String),
    /// A worker process could not be launched.
    Spawn(String),
    /// The handshake did not complete (a worker never connected, said
    /// something unexpected, or exited before reporting in).
    Handshake(String),
    /// A worker process died without reporting an error (crash, kill, ...)
    /// and recovery was off, exhausted, or impossible.
    WorkerDied {
        /// Rank of the lost worker.
        rank: usize,
    },
    /// A worker reported a non-factorization failure.
    WorkerFailed {
        /// Rank of the failing worker.
        rank: usize,
        /// Machine-readable failure kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The factorization hit a non-positive pivot (same meaning as the
    /// engine's factorization error; `pivot` is the global index).
    Factorization {
        /// Global pivot index.
        pivot: usize,
    },
    /// A worker sent something outside the protocol (bad panel coverage,
    /// malformed message).
    Protocol(String),
    /// The deadline elapsed.
    Timeout(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::InvalidProblem(m) => write!(f, "invalid problem: {m}"),
            DistError::Spawn(m) => write!(f, "spawning worker: {m}"),
            DistError::Handshake(m) => write!(f, "worker handshake: {m}"),
            DistError::WorkerDied { rank } => write!(f, "worker {rank} died"),
            DistError::WorkerFailed {
                rank,
                kind,
                message,
            } => write!(f, "worker {rank} failed ({kind}): {message}"),
            DistError::Factorization { pivot } => {
                write!(f, "matrix is not positive definite at pivot {pivot}")
            }
            DistError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DistError::Timeout(m) => write!(f, "distributed solve timed out: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

/// The outcome of a distributed solve, with transfer and recovery
/// accounting for the scaling replay and the chaos smoke.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// The probability estimate — bitwise identical to the single-process
    /// engine's for the same problem and config, faults or not.
    pub result: MvnResult,
    /// Number of worker processes used (initial deployment).
    pub nodes: usize,
    /// Wall time of the full solve (spawn through gather).
    pub wall: Duration,
    /// Total bytes of tile replies workers read off peer sockets (header
    /// lines plus raw blocks: 8 bytes an entry).
    pub comm_bytes: u64,
    /// Total remote tile fetches across all workers.
    pub fetches: u64,
    /// Per-rank fetched bytes (index = rank).
    pub per_node_comm: Vec<u64>,
    /// Recovery rounds performed (epoch bumps; 0 in a healthy run).
    pub recoveries: u64,
    /// Factor tasks replayed from initial data across all recoveries.
    pub replayed_tasks: u64,
    /// Peer connections workers re-established after an error or sever.
    pub reconnects: u64,
    /// Summed wall time from each loss detection to the recovered rank's
    /// report (0 in a healthy run; overlapping recoveries sum).
    pub recovery_wall: Duration,
    /// Per-rank nanoseconds in compute kernels — factor tasks plus panel
    /// sweeps (index = rank, like `per_node_comm`).
    pub per_node_compute_ns: Vec<u64>,
    /// Per-rank nanoseconds blocked waiting for remote input tiles,
    /// including retries.
    pub per_node_fetch_wait_ns: Vec<u64>,
    /// Per-rank nanoseconds serving tiles to peers, accrued up to each
    /// rank's report time.
    pub per_node_serve_ns: Vec<u64>,
    /// Trace events shipped by the workers, grouped by *sender* rank (empty
    /// unless tracing was enabled); export them with
    /// [`obs::export_chrome_trace`] using one `pid` lane per rank — the
    /// convention is `pid = rank + 1`, with the coordinator's own events on
    /// `pid` 0 — to get one merged multi-process timeline.
    pub worker_traces: Vec<Vec<obs::Event>>,
}

/// [`solve`] on the dense tiled matrix of `sigma`. Kept only for the
/// `mvn_perf` benchmark; it goes when the benchmark moves to [`solve`].
pub fn solve_dense(
    sigma: &SymTileMatrix,
    a: &[f64],
    b: &[f64],
    cfg: &MvnConfig,
    dist: &DistConfig,
) -> Result<DistReport, DistError> {
    solve(&TlrMatrix::from(sigma.clone()), a, b, cfg, dist)
}

/// Kills every still-running child on drop, so any early return tears the
/// whole deployment down (and thereby unblocks peers waiting on lost ranks).
struct ChildGuard(Vec<Option<Child>>);

impl ChildGuard {
    fn push(&mut self, child: Child) {
        self.0.push(Some(child));
    }

    /// Reap the first child found exited, if any, returning a description.
    fn any_exited(&mut self) -> Option<String> {
        for (idx, slot) in self.0.iter_mut().enumerate() {
            if let Some(child) = slot {
                if let Ok(Some(status)) = child.try_wait() {
                    *slot = None;
                    return Some(format!("worker process {idx} exited early ({status})"));
                }
            }
        }
        None
    }

    /// Wait briefly for voluntary exits after shutdown, then let drop kill
    /// the stragglers.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for slot in &mut self.0 {
            while let Some(child) = slot {
                match child.try_wait() {
                    Ok(Some(_)) => {
                        *slot = None;
                    }
                    _ if Instant::now() >= deadline => break,
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for slot in &mut self.0 {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// What a reader thread hands the supervision loop.
enum ReportPayload {
    /// A well-formed worker message.
    Msg(Box<WorkerMsg>),
    /// A syntactically broken message (always a protocol failure).
    Malformed(String),
    /// The link is gone: EOF or a read error — the worker is dead (or the
    /// coordinator closed the writer to evict it).
    Lost(String),
}

struct Event {
    rank: usize,
    incarnation: u64,
    payload: ReportPayload,
}

/// Spawn one worker process. `with_faults` is false for recovery respawns:
/// a replacement incarnation must run fault-free, or an injected kill would
/// re-fire on every respawn and the run could never converge.
fn spawn_worker(dist: &DistConfig, addr: &str, with_faults: bool) -> Result<Child, DistError> {
    let (cmd, cmd_args) = dist
        .worker_command
        .split_first()
        .ok_or_else(|| DistError::InvalidProblem("empty worker command".into()))?;
    let mut envs: Vec<(String, String)> = dist
        .worker_env
        .iter()
        .filter(|(k, _)| with_faults || k.as_str() != FAULTS_ENV)
        .cloned()
        .collect();
    if with_faults && !dist.faults.is_empty() {
        envs.push((FAULTS_ENV.to_string(), dist.faults.to_env()));
    }
    if obs::enabled() {
        // Tracing in the coordinator process implies tracing the workers:
        // their recorded events ride the done reports back for the merged
        // timeline. (An explicit MVN_DIST_TRACE in `worker_env` also works.)
        envs.push((TRACE_ENV.to_string(), "1".to_string()));
    }
    envs.push((BIND_ENV.to_string(), dist.bind_addr.clone()));
    envs.push((
        CONNECT_RETRIES_ENV.to_string(),
        dist.connect_retries.to_string(),
    ));
    envs.push((
        RETRY_BASE_MS_ENV.to_string(),
        dist.retry_base.as_millis().to_string(),
    ));
    // Stdout is nulled so worker noise can never corrupt a benchmark's
    // stdout protocol; stderr passes through for diagnostics.
    Command::new(cmd)
        .args(cmd_args)
        .arg(addr)
        .envs(envs)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| DistError::Spawn(format!("{cmd}: {e}")))
}

/// Accept one worker connection and read its hello, returning the reader,
/// the writer and the worker's tile-server address. `None` = nothing
/// pending (the listener is non-blocking).
fn accept_hello(
    listener: &TcpListener,
    deadline: Instant,
) -> Result<Option<(BufReader<TcpStream>, TcpStream, String)>, DistError> {
    match listener
        .accept()
        .and_then(|(stream, _)| proto::link(stream))
    {
        Ok(stream) => {
            stream
                .set_nonblocking(false)
                .map_err(|e| DistError::Handshake(e.to_string()))?;
            stream
                .set_read_timeout(Some(
                    deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1)),
                ))
                .map_err(|e| DistError::Handshake(e.to_string()))?;
            let writer = stream
                .try_clone()
                .map_err(|e| DistError::Handshake(e.to_string()))?;
            let mut reader = BufReader::new(stream);
            let hello = read_msg(&mut reader)
                .map_err(|e| DistError::Handshake(format!("reading hello: {e}")))?
                .ok_or_else(|| DistError::Handshake("worker closed before hello".into()))?;
            let peer = proto::parse_hello(&hello).map_err(DistError::Handshake)?;
            Ok(Some((reader, writer, peer)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(DistError::Handshake(format!("accept: {e}"))),
    }
}

/// Start a reader thread for one worker connection, tagged with the
/// connection's rank and incarnation so stale reports from evicted
/// incarnations are rejected by the supervision loop. The thread keeps
/// reading past the report until the link closes, so a worker lost after
/// reporting is still detected.
fn spawn_reader(
    mut reader: BufReader<TcpStream>,
    rank: usize,
    incarnation: u64,
    tx: mpsc::Sender<Event>,
) {
    std::thread::spawn(move || {
        let _ = reader.get_ref().set_read_timeout(None);
        loop {
            let payload = match read_msg(&mut reader) {
                Ok(Some(msg)) => match proto::worker_msg_from_json(&msg) {
                    Ok(m) => ReportPayload::Msg(Box::new(m)),
                    Err(e) => ReportPayload::Malformed(e),
                },
                Ok(None) => ReportPayload::Lost("connection closed".into()),
                Err(e) => ReportPayload::Lost(e.to_string()),
            };
            let lost = matches!(payload, ReportPayload::Lost(_));
            if tx
                .send(Event {
                    rank,
                    incarnation,
                    payload,
                })
                .is_err()
                || lost
            {
                return;
            }
        }
    });
}

/// Solve an MVN problem across `dist.nodes` worker processes, factoring the
/// tiled covariance `sigma` — dense, or TLR under its own compression, as
/// `TlrMatrix::assemble` built it.
pub fn solve(
    sigma: &TlrMatrix,
    a: &[f64],
    b: &[f64],
    cfg: &MvnConfig,
    dist: &DistConfig,
) -> Result<DistReport, DistError> {
    let layout = sigma.layout();
    validate_limits(a, b).map_err(|e| DistError::InvalidProblem(e.to_string()))?;
    if dist.nodes == 0 {
        return Err(DistError::InvalidProblem("need at least one node".into()));
    }
    if layout.n() != a.len() {
        return Err(DistError::InvalidProblem(format!(
            "matrix dimension {} does not match limit length {}",
            layout.n(),
            a.len()
        )));
    }

    let start = Instant::now();
    let solve_start = obs::now_ns();
    let deadline = start + dist.timeout;
    let listener = TcpListener::bind(format!("{}:0", dist.bind_addr))
        .map_err(|e| DistError::Spawn(format!("binding coordinator socket: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| DistError::Spawn(format!("coordinator address: {e}")))?
        .to_string();
    listener
        .set_nonblocking(true)
        .map_err(|e| DistError::Spawn(format!("configuring coordinator socket: {e}")))?;

    let mut guard = ChildGuard(Vec::with_capacity(dist.nodes));
    for _ in 0..dist.nodes {
        guard.push(spawn_worker(dist, &addr, true)?);
    }

    // Handshake: accept one connection per worker (rank = arrival order) and
    // read its tile-server address. A child that dies before connecting is
    // replaced when recovery is on (bounded by the recovery cap).
    let mut recoveries = 0u64;
    let mut conns: Vec<(BufReader<TcpStream>, TcpStream)> = Vec::with_capacity(dist.nodes);
    let mut peers: Vec<String> = Vec::with_capacity(dist.nodes);
    while conns.len() < dist.nodes {
        if Instant::now() >= deadline {
            return Err(DistError::Timeout(format!(
                "{} of {} workers connected",
                conns.len(),
                dist.nodes
            )));
        }
        if let Some(reason) = guard.any_exited() {
            if dist.recovery != Recovery::Off && recoveries < MAX_RECOVERIES {
                recoveries += 1;
                guard.push(spawn_worker(dist, &addr, true)?);
            } else {
                return Err(DistError::Handshake(reason));
            }
        }
        match accept_hello(&listener, deadline)? {
            Some((reader, writer, peer)) => {
                peers.push(peer);
                conns.push((reader, writer));
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }

    obs::complete_since(
        "dist_handshake",
        solve_start,
        &[("nodes", dist.nodes as u64)],
    );

    // Ship each rank its setup: the problem plus its owned initial tiles.
    let grid = ProcessGrid::new(dist.nodes);
    let n_panels = cfg.sample_size.div_ceil(cfg.panel_width);
    let problem = ProblemMsg {
        compression: sigma.compression(),
        n: layout.n(),
        nb: layout.nb(),
        a: a.to_vec(),
        b: b.to_vec(),
        sample_size: cfg.sample_size,
        panel_width: cfg.panel_width,
        sample_kind: cfg.sample_kind,
        seed: cfg.seed,
        workers: dist.workers_per_node,
        deadline_ms: dist.timeout.as_millis() as u64,
    };
    let assigned: Vec<Vec<usize>> = (0..dist.nodes)
        .map(|r| owned_panels(r, dist.nodes, n_panels))
        .collect();
    // Every incarnation of a rank gets the rank's initial tiles and the
    // panels it still owes.
    let send_setup = |writer: &TcpStream, rank, epoch, peers: &[String], panels: &[usize]| {
        let setup = SetupMsg {
            rank,
            nodes: dist.nodes,
            epoch,
            peers: peers.to_vec(),
            panels: panels.to_vec(),
            problem: problem.clone(),
            tiles: (owned_tiles(&grid, layout, rank).into_iter())
                .map(|(i, j)| ((i, j), sigma.tile(i, j).clone()))
                .collect(),
        };
        proto::write_setup(writer, &setup)
            .map_err(|e| DistError::Handshake(format!("sending setup to rank {rank}: {e}")))
    };
    let mut epoch = 0u64;
    for (rank, (_, writer)) in conns.iter().enumerate() {
        send_setup(writer, rank, epoch, &peers, &assigned[rank])?;
    }

    // Supervision: reader threads feed a channel; the main loop applies the
    // deadline, fills panel slots, and turns losses into recoveries.
    let (tx, rx) = mpsc::channel::<Event>();
    let mut writers: Vec<Option<TcpStream>> = Vec::with_capacity(dist.nodes);
    let mut incarnation: Vec<u64> = vec![0; dist.nodes];
    for (rank, (reader, writer)) in conns.into_iter().enumerate() {
        writers.push(Some(writer));
        spawn_reader(reader, rank, 0, tx.clone());
    }

    let mut panel_slots: Vec<Option<(f64, usize)>> = vec![None; n_panels];
    let mut panels_filled = 0usize;
    let mut rank_done: Vec<bool> = vec![false; dist.nodes];
    let mut per_node_comm = vec![0u64; dist.nodes];
    let mut per_node_compute_ns = vec![0u64; dist.nodes];
    let mut per_node_fetch_wait_ns = vec![0u64; dist.nodes];
    let mut per_node_serve_ns = vec![0u64; dist.nodes];
    let mut worker_traces: Vec<Vec<obs::Event>> = vec![Vec::new(); dist.nodes];
    let mut fetches = 0u64;
    let mut replayed_tasks = 0u64;
    let mut reconnects = 0u64;
    let mut recovery_wall = Duration::ZERO;
    let mut pending_recovery: HashMap<usize, Instant> = HashMap::new();
    let mut pending_respawn: VecDeque<usize> = VecDeque::new();

    // A solve is complete when every panel is in. In a healthy run that
    // coincides with every rank's report; during recovery, pending
    // tile-service-only recoveries are simply abandoned at shutdown.
    while panels_filled < n_panels {
        let timeout = deadline
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(10));
        let event = match rx.recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(DistError::Protocol("all reader threads gone".into()))
            }
        };

        if Instant::now() >= deadline {
            let missing = panel_slots.iter().filter(|s| s.is_none()).count();
            return Err(DistError::Timeout(format!(
                "{missing} of {n_panels} panels still outstanding"
            )));
        }

        // Complete pending respawn handshakes.
        if !pending_respawn.is_empty() {
            if let Some((reader, writer, peer)) = accept_hello(&listener, deadline)? {
                let r = pending_respawn.pop_front().unwrap();
                incarnation[r] += 1;
                peers[r] = peer;
                let owed: &[usize] = if rank_done[r] { &[] } else { &assigned[r] };
                send_setup(&writer, r, epoch, &peers, owed)?;
                spawn_reader(reader, r, incarnation[r], tx.clone());
                writers[r] = Some(writer);
                // Everyone else learns the new address of r.
                let msg = proto::epoch_to_json(&EpochMsg {
                    epoch,
                    peers: peers.clone(),
                });
                #[allow(clippy::collapsible_if)]
                for (other, w) in writers.iter_mut().enumerate() {
                    if other != r {
                        if let Some(w) = w {
                            let _ = write_msg(w, &msg);
                        }
                    }
                }
            }
        }

        let Some(event) = event else { continue };
        if event.incarnation != incarnation[event.rank] {
            continue; // stale: a declared-dead incarnation's leftovers
        }

        let r = event.rank;
        let why = match event.payload {
            ReportPayload::Msg(msg) => match *msg {
                WorkerMsg::Done(done) => {
                    if rank_done[r] {
                        if !done.panels.is_empty() {
                            return Err(DistError::Protocol(format!(
                                "rank {r} reported panels twice"
                            )));
                        }
                    } else {
                        for (p, mean, count) in &done.panels {
                            let slot = panel_slots.get_mut(*p).ok_or_else(|| {
                                DistError::Protocol(format!("rank {r} reported unknown panel {p}"))
                            })?;
                            if slot.replace((*mean, *count)).is_some() {
                                return Err(DistError::Protocol(format!(
                                    "panel {p} reported by two workers"
                                )));
                            }
                            panels_filled += 1;
                        }
                        rank_done[r] = true;
                    }
                    per_node_comm[r] += done.comm_bytes;
                    per_node_compute_ns[r] += done.compute_ns;
                    per_node_fetch_wait_ns[r] += done.fetch_wait_ns;
                    per_node_serve_ns[r] += done.serve_ns;
                    fetches += done.fetches;
                    replayed_tasks += done.replayed_tasks;
                    reconnects += done.reconnects;
                    // Always-on registry counters, so a `{"metrics":true}`
                    // scrape (or `mvn_dist --metrics`) sees dist transfer
                    // and recovery activity without any extra plumbing.
                    obs::counter("mvn_dist_fetches_total").add(done.fetches);
                    obs::counter("mvn_dist_comm_bytes_total").add(done.comm_bytes);
                    obs::counter("mvn_dist_replayed_tasks_total").add(done.replayed_tasks);
                    obs::counter("mvn_dist_reconnects_total").add(done.reconnects);
                    worker_traces[r].extend(done.trace);
                    if let Some(t0) = pending_recovery.remove(&r) {
                        recovery_wall += t0.elapsed();
                    }
                    continue;
                }
                WorkerMsg::Error(WorkerErrorMsg::Factorization { pivot }) => {
                    // Deterministic: a replay would hit the same pivot.
                    return Err(DistError::Factorization { pivot });
                }
                WorkerMsg::Error(WorkerErrorMsg::Other { kind, message }) => {
                    if dist.recovery == Recovery::Off {
                        return Err(DistError::WorkerFailed {
                            rank: r,
                            kind,
                            message,
                        });
                    }
                    // A reporting-but-broken worker is treated as lost.
                    format!("{kind}: {message}")
                }
            },
            ReportPayload::Malformed(e) => {
                return Err(DistError::Protocol(format!(
                    "rank {r} sent a malformed report: {e}"
                )));
            }
            ReportPayload::Lost(why) => {
                // A rank gone after every rank has reported is harmless;
                // otherwise it must be recovered even if its own report is
                // in — unfinished peers still need its tiles for their
                // sweeps.
                if rank_done.iter().all(|&d| d) {
                    writers[r] = None;
                    continue;
                }
                if dist.recovery == Recovery::Off {
                    return Err(DistError::WorkerDied { rank: r });
                }
                why
            }
        };

        // Recover the lost rank: evict its process (closing the writer
        // orders a still-running one to exit), invalidate its incarnation so
        // its buffered reports are stale, bump the epoch and spawn a fresh
        // fault-free process for it. The handshake completes at the top of
        // the loop, which then broadcasts the rank's new address (only known
        // at hello time).
        writers[r] = None;
        recoveries += 1;
        if recoveries > MAX_RECOVERIES {
            return Err(DistError::WorkerDied { rank: r });
        }
        incarnation[r] += 1;
        epoch += 1;
        if !rank_done[r] {
            pending_recovery.entry(r).or_insert_with(Instant::now);
        }
        eprintln!("mvn-dist: lost rank {r} ({why}); respawning it at epoch {epoch}");
        guard.push(spawn_worker(dist, &addr, false)?);
        pending_respawn.push_back(r);
    }

    // Combine in panel order — the exact order (and batch assignment) the
    // single-process sweep feeds `combine_panel_results`.
    let ordered = panel_slots
        .into_iter()
        .enumerate()
        .map(|(p, s)| s.ok_or_else(|| DistError::Protocol(format!("panel {p} never reported"))))
        .collect::<Result<Vec<_>, _>>()?;
    let result = combine_panel_results(&ordered);
    let wall = start.elapsed();
    obs::complete_since(
        "dist_solve",
        solve_start,
        &[
            ("nodes", dist.nodes as u64),
            ("recoveries", recoveries),
            ("fetches", fetches),
        ],
    );

    for writer in writers.iter_mut().flatten() {
        let _ = write_msg(writer, &proto::shutdown());
    }
    guard.reap(Duration::from_secs(5));

    obs::counter("mvn_dist_solves_total").inc();
    obs::counter("mvn_dist_recoveries_total").add(recoveries);
    obs::histogram("mvn_dist_solve_wall_ns").record(wall.as_nanos() as u64);
    Ok(DistReport {
        result,
        nodes: dist.nodes,
        wall,
        comm_bytes: per_node_comm.iter().sum(),
        fetches,
        per_node_comm,
        recoveries,
        replayed_tasks,
        reconnects,
        recovery_wall,
        per_node_compute_ns,
        per_node_fetch_wait_ns,
        per_node_serve_ns,
        worker_traces,
    })
}
