//! The in-process serving core: sharded queues and factor caches over one
//! shared worker pool, with a work-conserving micro-batcher and admission
//! control.
//!
//! # Architecture
//!
//! ```text
//!                    ┌────────────── MvnService ──────────────┐
//!  submit(spec, box) │  route by fingerprint: fp % shards     │
//!         ──────────▶│                                        │
//!                    │  shard 0          shard 1          …   │
//!                    │  ┌──────────┐     ┌──────────┐         │
//!                    │  │ bounded  │     │ bounded  │  ◀ Overloaded when full,
//!                    │  │ queue    │     │ queue    │    DeadlineExceeded when
//!                    │  ├──────────┤     ├──────────┤    a deadline lapses
//!                    │  │ micro-   │     │ micro-   │  ◀ takes what is queued,
//!                    │  │ batcher  │     │ batcher  │    ACROSS fingerprints
//!                    │  ├──────────┤     ├──────────┤         │
//!                    │  │ factor   │     │ factor   │  ◀ LRU, bytes-capped,
//!                    │  │ cache    │     │ cache    │    warm/pin aware
//!                    │  ├──────────┤     ├──────────┤         │
//!                    │  │ MvnEngine│     │ MvnEngine│  ◀ no threads of their own
//!                    │  └────┬─────┘     └────┬─────┘         │
//!                    │  ┌────┴────────────────┴─────┐         │
//!                    │  │    one shared WorkerPool  │  ◀ every core, whichever
//!                    │  └───────────────────────────┘    shard has the batch
//!                    └────────────────────────────────────────┘
//! ```
//!
//! * **Routing.** A request is routed by its spec's [`FactorFingerprint`]
//!   (`fp % shards`), so every query against one covariance lands on the
//!   same shard: its factor is built once and lives in exactly one cache.
//!   Shards own a queue, a dispatcher thread and a cache — no workers: every
//!   shard's engine is built on the service's single [`WorkerPool`]
//!   ([`ServiceConfig::workers`]), so the `panel_sweep` tasks of a hot
//!   fingerprint's batch spread over every core instead of the one thread
//!   its shard used to own. The pool runs one batch (or factor build) at a
//!   time on all workers; a dispatcher whose batch is ready while another
//!   shard's is executing waits for the pool, then gets all of it.
//! * **Work-conserving micro-batching.** The shard dispatcher pops the
//!   oldest request, takes every co-batchable request already queued (up to
//!   `max_batch`) and serves them at once — it never waits for a batch to
//!   fill. Batching under load comes from the requests that arrived while
//!   the previous batch was being solved. A request is co-batchable when it
//!   shares the primary's fingerprint *or* its factor is already
//!   cache-resident — resident foreigners cost no factorization, so the
//!   whole mixed batch is submitted as one
//!   [`MvnEngine::solve_batch_mixed`] task graph. A cache-miss fingerprint
//!   (its factorization would stall everyone) or a queued cache operation
//!   stays queued for the next round.
//! * **Deadline shedding.** A request may carry a deadline
//!   ([`MvnService::submit_with_deadline`]). The dispatcher sheds expired
//!   requests at every queue scan — they answer
//!   [`ServiceError::DeadlineExceeded`] instead of occupying a batch slot.
//!   Once a request makes it into a batch it is always served: the deadline
//!   bounds *queueing*, not solve time.
//! * **Warming & pinning.** [`MvnService::warm`] builds (and optionally
//!   pins) a spec's factor ahead of traffic through the same shard queue, so
//!   it cannot race the dispatcher. Pinned factors are never eviction
//!   victims (see [`FactorCache`]).
//! * **Bitwise guarantee.** `solve_batch_mixed` results are bitwise
//!   identical to per-problem `solve` calls (the engine contract), and a
//!   factor rebuilt after eviction is bitwise identical to the original
//!   (pure function of the spec) — so *when* a request arrives, *what* it is
//!   batched with (same or foreign fingerprints), and *whether* its factor
//!   was cached can never change the probability it receives. Asserted
//!   end-to-end in `tests/service_equivalence.rs` and
//!   `tests/mixed_batching.rs`.
//! * **Admission control.** Each shard queue is bounded; a full queue
//!   rejects with the typed [`ServiceError::Overloaded`] instead of growing
//!   without bound, and malformed limits are rejected at submission with
//!   [`ServiceError::InvalidProblem`] before they can reach the worker pool.

use crate::cache::{CacheStats, FactorCache};
use crate::spec::{CovSpec, FactorFingerprint};
use mvn_core::{
    EngineError, Factor, MvnConfig, MvnEngine, MvnResult, Problem, ProblemError, MAX_ENGINE_WORKERS,
};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use task_runtime::{effective_workers, PoolStats, WorkerPool};

/// Number of buckets in the batch-size histogram: power-of-two buckets
/// `1, 2, 3–4, 5–8, 9–16, 17–32, 33+`.
pub const BATCH_HIST_BUCKETS: usize = 7;

/// Configuration of an [`MvnService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (queue + dispatcher + cache triples). Requests are
    /// routed by fingerprint, so distinct covariances spread across shards
    /// while all traffic for one covariance stays on one shard.
    pub shards: usize,
    /// Worker threads of the one pool every shard's engine runs on (`0` =
    /// one per available core).
    pub workers: usize,
    /// Sampling configuration of every solve (sample size/kind, panel
    /// width, seed).
    pub mvn: MvnConfig,
    /// The most requests one batch may hold; a batch otherwise closes as
    /// soon as the shard queue holds nothing more it can take.
    pub max_batch: usize,
    /// Bounded per-shard queue: submissions beyond this depth are rejected
    /// with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Byte capacity of each shard's factor cache.
    pub cache_capacity_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            workers: 0,
            mvn: MvnConfig::default(),
            max_batch: 32,
            queue_capacity: 1024,
            cache_capacity_bytes: 64 << 20,
        }
    }
}

/// Why the service could not (or will not) answer a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The target shard's queue is full — back off and retry. This is
    /// admission control, not failure: rejecting at the door keeps latency
    /// bounded for the requests already admitted.
    Overloaded {
        /// The shard that rejected the request.
        shard: usize,
        /// Its queue depth at rejection time.
        depth: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The request's deadline lapsed while it waited in the shard queue, so
    /// the dispatcher shed it instead of solving it (see
    /// [`MvnService::submit_with_deadline`]). Shedding happens when the
    /// dispatcher next scans the queue: the answer may arrive noticeably
    /// after the deadline itself when the shard is busy solving.
    DeadlineExceeded {
        /// The shard that shed the request.
        shard: usize,
        /// How far past the deadline the queue scan that shed it ran.
        missed_by: Duration,
    },
    /// The problem failed [`Problem::validate`] (length mismatch, NaN,
    /// inverted box, wrong dimension).
    InvalidProblem(ProblemError),
    /// The spec failed [`CovSpec::validate`] (no locations, zero tile size,
    /// unusable kernel parameters) — rejected at submission so it can never
    /// panic a shard dispatcher.
    InvalidSpec(String),
    /// The spec's covariance could not be factored (e.g. not positive
    /// definite). Every request of the affected fingerprint's group
    /// receives this; other groups of the same mixed batch still solve.
    Factorization(String),
    /// The dispatcher caught a panic while serving this batch (a bug or a
    /// pathological input that slipped past validation). The shard stays
    /// alive and keeps serving subsequent batches.
    Internal(String),
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                shard,
                depth,
                capacity,
            } => write!(
                f,
                "overloaded: shard {shard} queue at {depth}/{capacity}, retry later"
            ),
            ServiceError::DeadlineExceeded { shard, missed_by } => write!(
                f,
                "deadline exceeded: shard {shard} shed the request {missed_by:?} past its deadline"
            ),
            ServiceError::InvalidProblem(e) => write!(f, "invalid problem: {e}"),
            ServiceError::InvalidSpec(e) => write!(f, "invalid spec: {e}"),
            ServiceError::Factorization(e) => write!(f, "factorization failed: {e}"),
            ServiceError::Internal(e) => write!(f, "internal error: {e}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A successfully served probability, with the serving metadata a client or
/// load generator may want to audit.
#[derive(Debug, Clone, Copy)]
pub struct SolveOutput {
    /// The probability estimate (bitwise identical to a direct
    /// [`MvnEngine::solve`] with the service's configuration).
    pub result: MvnResult,
    /// Whether this request's factor was already resident in the shard cache
    /// when its batch was served.
    pub cache_hit: bool,
    /// Size of the coalesced batch this request was solved in (the whole
    /// mixed batch, not just this fingerprint's group).
    pub batch_size: usize,
    /// The shard that served it.
    pub shard: usize,
}

type Response = Result<SolveOutput, ServiceError>;

/// The outcome of a cache operation ([`MvnService::warm`] /
/// [`MvnService::unpin`]).
#[derive(Debug, Clone, Copy)]
pub struct CacheOpOutput {
    /// The shard that served the operation.
    pub shard: usize,
    /// Whether the factor was resident *before* the operation.
    pub was_resident: bool,
    /// Whether the factor is resident after it (a warm of a factor larger
    /// than the whole cache reports `false`: the oversized bypass).
    pub resident: bool,
    /// Whether the factor is pinned after the operation.
    pub pinned: bool,
}

type CacheResponse = Result<CacheOpOutput, ServiceError>;

/// A registered spec: the spec plus its fingerprint, computed once. Cloning
/// is cheap (`Arc` inside); every request submitted through one handle is
/// routed and cached under the same key.
#[derive(Clone)]
pub struct SpecHandle {
    spec: Arc<CovSpec>,
    fp: FactorFingerprint,
}

impl SpecHandle {
    /// Register a spec (computes the fingerprint once).
    pub fn new(spec: CovSpec) -> Self {
        let fp = spec.fingerprint();
        Self {
            spec: Arc::new(spec),
            fp,
        }
    }

    /// The cache/routing key.
    pub fn fingerprint(&self) -> FactorFingerprint {
        self.fp
    }

    /// The underlying spec.
    pub fn spec(&self) -> &CovSpec {
        &self.spec
    }
}

impl std::fmt::Debug for SpecHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecHandle")
            .field("fingerprint", &format_args!("{}", self.fp))
            .field("n", &self.spec.n())
            .finish()
    }
}

/// A non-blocking look at a ticket's channel: the answer if there is one, the
/// shutdown error if the service dropped the request, `None` while pending.
fn answered<T>(
    polled: Result<Result<T, ServiceError>, mpsc::TryRecvError>,
) -> Option<Result<T, ServiceError>> {
    match polled {
        Ok(response) => Some(response),
        Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::ShuttingDown)),
        Err(mpsc::TryRecvError::Empty) => None,
    }
}

/// A pending response: wait on it with [`Ticket::wait`]. Submitting first
/// and waiting later is what lets concurrent callers coalesce into one
/// batch.
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
    shard: usize,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("shard", &self.shard)
            .finish()
    }
}

impl Ticket {
    /// Block until the service answers.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// The answer if the service has already given one.
    pub(crate) fn try_wait(&self) -> Option<Response> {
        answered(self.rx.try_recv())
    }

    /// The shard the request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// A pending cache-operation response (see [`MvnService::warm_submit`]).
pub struct CacheTicket {
    rx: mpsc::Receiver<CacheResponse>,
    shard: usize,
}

impl std::fmt::Debug for CacheTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheTicket")
            .field("shard", &self.shard)
            .finish()
    }
}

impl CacheTicket {
    /// Block until the shard dispatcher has applied the operation.
    pub fn wait(self) -> CacheResponse {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// The outcome if the shard dispatcher has already applied the operation.
    pub(crate) fn try_wait(&self) -> Option<CacheResponse> {
        answered(self.rx.try_recv())
    }

    /// The shard the operation was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

struct SolveRequest {
    spec: Arc<CovSpec>,
    fp: FactorFingerprint,
    problem: Problem,
    /// Shed (answer [`ServiceError::DeadlineExceeded`]) if still queued past
    /// this instant.
    deadline: Option<Instant>,
    /// Monotonic enqueue stamp ([`obs::now_ns`]), for the queue-wait
    /// histogram and (when tracing) the `svc_queue_wait` timeline event.
    enqueued_ns: u64,
    tx: mpsc::Sender<Response>,
}

/// What a queued cache operation should do to its fingerprint, and where its
/// answer goes.
enum CacheOp {
    /// Ensure the factor is resident (building it if needed), optionally
    /// pinning it.
    Warm {
        pin: bool,
        tx: mpsc::Sender<CacheResponse>,
    },
    /// Make a pinned factor evictable again.
    Unpin { tx: mpsc::Sender<CacheResponse> },
    /// Hand out the factor itself, building and caching it on a miss.
    Factor {
        tx: mpsc::Sender<Result<Arc<Factor>, ServiceError>>,
    },
}

struct CacheRequest {
    spec: Arc<CovSpec>,
    fp: FactorFingerprint,
    op: CacheOp,
}

/// One entry of a shard queue. Cache operations flow through the same queue
/// as solves so they serialize with the dispatcher (the cache is
/// single-threaded by design) and observe FIFO order relative to the
/// requests around them.
enum WorkItem {
    Solve(SolveRequest),
    Cache(CacheRequest),
}

/// Everything behind one shard's queue mutex: the queue itself plus every
/// request counter of the shard. Keeping the counters under the *same* lock
/// as the queue is what makes a [`MvnService::stats`] scrape consistent: a
/// request is, at every release of this lock, in exactly one of
/// {queued, in flight, completed}, so `completed + queue_depth == submitted`
/// holds for every snapshot — not just at quiescence. (Counters used to be
/// service-global atomics bumped outside the queue lock; a scrape racing a
/// submission or a batch could observe a request in zero or two states.)
struct QueueState {
    items: VecDeque<WorkItem>,
    shutdown: bool,
    /// Queued solve requests (cache ops in `items` are not requests).
    queued: u64,
    /// Solve requests dequeued into a forming/serving batch, not answered yet.
    in_flight: u64,
    /// Solve requests admitted (queued + in flight + completed).
    submitted: u64,
    /// Solve requests answered (successes, typed errors, deadline sheds).
    completed: u64,
    /// Submissions rejected by admission control (never admitted).
    rejected: u64,
    /// Deadline sheds (a subset of `completed`).
    deadline_shed: u64,
    /// Batches served to completion.
    batches: u64,
    /// Requests solved successfully (excludes sheds and errors).
    solved: u64,
    /// Served batches that mixed more than one fingerprint.
    mixed_batches: u64,
    /// Batch-size histogram of served batches (see [`ServiceStats`]).
    batch_hist: [u64; BATCH_HIST_BUCKETS],
}

impl QueueState {
    fn new() -> Self {
        Self {
            items: VecDeque::new(),
            shutdown: false,
            queued: 0,
            in_flight: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            deadline_shed: 0,
            batches: 0,
            solved: 0,
            mixed_batches: 0,
            batch_hist: [0; BATCH_HIST_BUCKETS],
        }
    }
}

/// Per-shard state shared between the submitting threads and the dispatcher.
struct Shard {
    queue: Mutex<QueueState>,
    cv: Condvar,
    /// The dispatcher's latest [`FactorCache::stats`] (the cache itself is
    /// dispatcher-local).
    cache: Mutex<CacheStats>,
}

/// A point-in-time snapshot of one shard (see [`ServiceStats`]).
///
/// All request counters of one shard are read under the shard's queue lock
/// in a single critical section, so they are mutually consistent:
/// `completed + queue_depth == submitted` holds *within every `ShardStats`*,
/// even while batches are mid-flight.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Requests admitted and not yet answered: still queued *or* dequeued
    /// into a batch that has not completed (in flight).
    pub queue_depth: usize,
    /// Requests admitted to this shard.
    pub submitted: u64,
    /// Requests answered by this shard (successes, errors, and sheds).
    pub completed: u64,
    /// Submissions this shard rejected by admission control.
    pub rejected: u64,
    /// Requests shed because their deadline lapsed in the queue.
    pub deadline_shed: u64,
    /// Batches served so far.
    pub batches: u64,
    /// Requests solved successfully so far (excludes sheds and errors).
    pub solved: u64,
    /// Served batches that mixed more than one fingerprint.
    pub mixed_batches: u64,
    /// This shard's batch-size histogram (see [`ServiceStats::batch_hist`]).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// The shard's factor-cache counters.
    pub cache: CacheStats,
}

/// A point-in-time snapshot of the whole service.
///
/// Service-wide totals are sums of per-shard snapshots, each taken under its
/// shard's queue lock — so `completed + queue_depth() == submitted` holds in
/// *every* snapshot (each shard's triple is internally consistent, and a sum
/// of consistent triples is consistent), not just at quiescence.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests admitted (including ones still queued or in flight).
    pub submitted: u64,
    /// Requests answered — successes, per-request errors, and deadline
    /// sheds all count, so `completed + queue_depth() == submitted` holds
    /// in every snapshot.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests shed because their deadline lapsed in the queue (a subset
    /// of [`completed`](Self::completed)).
    pub deadline_shed: u64,
    /// Batches that mixed more than one fingerprint (the cross-spec
    /// batcher at work).
    pub mixed_batches: u64,
    /// Batch-size histogram over power-of-two buckets
    /// `1, 2, 3–4, 5–8, 9–16, 17–32, 33+`.
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Per-shard snapshots.
    pub shards: Vec<ShardStats>,
    /// Counters of the one worker pool under every shard (workers, task sets
    /// and tasks run, per-label task time).
    pub pool: PoolStats,
}

impl ServiceStats {
    /// Requests admitted but not yet answered across all shards (queued or
    /// in flight in a batch).
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Batches dispatched across all shards.
    pub fn batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Requests solved across all shards (excludes sheds and errors).
    pub fn solved(&self) -> u64 {
        self.shards.iter().map(|s| s.solved).sum()
    }

    /// Mean coalesced-batch size so far (`0.0` before the first batch).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            0.0
        } else {
            self.solved() as f64 / batches as f64
        }
    }

    /// Factor-cache hits across all shards.
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.hits).sum()
    }

    /// Factor-cache misses across all shards.
    pub fn cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.misses).sum()
    }

    /// Factor-cache evictions across all shards.
    pub fn cache_evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.evictions).sum()
    }

    /// Oversized-bypass inserts across all shards (factors larger than the
    /// whole cache; see [`FactorCache::insert`]).
    pub fn cache_oversized(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.oversized).sum()
    }

    /// Currently pinned factors across all shards.
    pub fn cache_pinned(&self) -> usize {
        self.shards.iter().map(|s| s.cache.pinned).sum()
    }

    /// Aggregate cache hit rate (`0.0` before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let (h, m) = (self.cache_hits(), self.cache_misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// The histogram bucket of a batch size (see [`ServiceStats::batch_hist`]).
fn batch_bucket(size: usize) -> usize {
    debug_assert!(size >= 1);
    let b = (usize::BITS - (size - 1).leading_zeros()) as usize;
    b.min(BATCH_HIST_BUCKETS - 1)
}

/// A running MVN probability service (see the [module docs](self)).
///
/// Dropping the service stops accepting new requests, drains every queued
/// request (pending [`Ticket`]s still get answers), and joins the shard
/// dispatchers and the worker pool.
pub struct MvnService {
    cfg: ServiceConfig,
    shards: Vec<Arc<Shard>>,
    dispatchers: Vec<JoinHandle<()>>,
    pool: Arc<WorkerPool>,
}

impl MvnService {
    /// Spawn the worker pool, build one engine per shard on it and start one
    /// dispatcher thread per shard.
    pub fn start(cfg: ServiceConfig) -> Result<Self, EngineError> {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        if cfg.workers > MAX_ENGINE_WORKERS {
            return Err(EngineError::TooManyWorkers {
                requested: cfg.workers,
                max: MAX_ENGINE_WORKERS,
            });
        }
        let pool = Arc::new(WorkerPool::new(effective_workers(cfg.workers)));
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut dispatchers = Vec::with_capacity(cfg.shards);
        for shard_idx in 0..cfg.shards {
            // Build (and validate) the engine on the caller's thread so a
            // bad configuration fails construction instead of a dispatcher.
            let engine = MvnEngine::builder()
                .pool(Arc::clone(&pool))
                .config(cfg.mvn)
                .build()?;
            let shard = Arc::new(Shard {
                queue: Mutex::new(QueueState::new()),
                cv: Condvar::new(),
                cache: Mutex::new(CacheStats::default()),
            });
            shards.push(Arc::clone(&shard));
            let ctx = DispatcherCtx {
                shard,
                shard_idx,
                max_batch: cfg.max_batch,
            };
            let cache_capacity = cfg.cache_capacity_bytes;
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("mvn-service-shard-{shard_idx}"))
                    .spawn(move || dispatcher_main(ctx, engine, cache_capacity))
                    .expect("failed to spawn shard dispatcher"),
            );
        }
        Ok(Self {
            cfg,
            shards,
            dispatchers,
            pool,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The shard a spec's requests are routed to.
    pub fn shard_of(&self, handle: &SpecHandle) -> usize {
        (handle.fp.0 % self.cfg.shards as u64) as usize
    }

    /// Submit one problem, returning a [`Ticket`] immediately. Validation
    /// happens here (the typed-error boundary: both the problem *and* the
    /// spec, so a malformed request can never panic a shard dispatcher);
    /// admission control may reject with [`ServiceError::Overloaded`].
    pub fn submit(&self, handle: &SpecHandle, problem: Problem) -> Result<Ticket, ServiceError> {
        self.submit_with_deadline(handle, problem, None)
    }

    /// [`submit`](Self::submit) with a queueing deadline: if the request is
    /// still waiting in the shard queue `deadline` after submission, the
    /// dispatcher sheds it with [`ServiceError::DeadlineExceeded`] instead
    /// of solving it. The deadline bounds time-in-queue only — a request
    /// that makes it into a batch is always served (see the
    /// [module docs](self)).
    pub fn submit_with_deadline(
        &self,
        handle: &SpecHandle,
        problem: Problem,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServiceError> {
        handle.spec.validate().map_err(ServiceError::InvalidSpec)?;
        problem
            .validate(Some(handle.spec.n()))
            .map_err(ServiceError::InvalidProblem)?;
        let deadline = deadline.map(|d| Instant::now() + d);
        let idx = self.shard_of(handle);
        let shard = &self.shards[idx];
        let (tx, rx) = mpsc::channel();
        {
            let mut st = shard.queue.lock().unwrap();
            if st.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if st.items.len() >= self.cfg.queue_capacity {
                st.rejected += 1;
                return Err(ServiceError::Overloaded {
                    shard: idx,
                    depth: st.items.len(),
                    capacity: self.cfg.queue_capacity,
                });
            }
            // Admission and the `submitted` count land in the same critical
            // section, so no stats scrape can see the request queued but not
            // submitted (or vice versa).
            st.submitted += 1;
            st.queued += 1;
            st.items.push_back(WorkItem::Solve(SolveRequest {
                spec: Arc::clone(&handle.spec),
                fp: handle.fp,
                problem,
                deadline,
                enqueued_ns: obs::now_ns(),
                tx,
            }));
            shard.cv.notify_one();
        }
        Ok(Ticket { rx, shard: idx })
    }

    /// Submit and block for the answer (the one-call convenience path).
    pub fn solve(&self, handle: &SpecHandle, a: &[f64], b: &[f64]) -> Response {
        self.submit(handle, Problem::new(a.to_vec(), b.to_vec()))?
            .wait()
    }

    /// Queue a warm-up for a spec's factor, returning a [`CacheTicket`]
    /// immediately: the shard dispatcher builds the factor if it is not
    /// already resident and, with `pin`, pins it against eviction. Warming
    /// ahead of a traffic burst means the first real request hits a resident
    /// (and batchable) factor instead of paying the factorization.
    ///
    /// Cache operations ride the same bounded shard queue as solves (FIFO
    /// with respect to them) but are not counted in the
    /// submitted/completed request totals.
    pub fn warm_submit(&self, handle: &SpecHandle, pin: bool) -> Result<CacheTicket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let shard = self.submit_cache_op(handle, CacheOp::Warm { pin, tx })?;
        Ok(CacheTicket { rx, shard })
    }

    /// [`warm_submit`](Self::warm_submit) and block for the outcome.
    pub fn warm(&self, handle: &SpecHandle, pin: bool) -> CacheResponse {
        self.warm_submit(handle, pin)?.wait()
    }

    /// Queue an unpin for a spec's factor (the non-blocking form of
    /// [`unpin`](Self::unpin)).
    pub fn unpin_submit(&self, handle: &SpecHandle) -> Result<CacheTicket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let shard = self.submit_cache_op(handle, CacheOp::Unpin { tx })?;
        Ok(CacheTicket { rx, shard })
    }

    /// Make a previously pinned factor evictable again (blocking). Unpinning
    /// a non-resident or never-pinned fingerprint is a no-op that reports
    /// the current residency.
    pub fn unpin(&self, handle: &SpecHandle) -> CacheResponse {
        self.unpin_submit(handle)?.wait()
    }

    /// The spec's factor as its shard holds it (blocking): a counted cache
    /// hit, or a miss that builds and caches it exactly like a solve would.
    /// For computations that run on the factor themselves instead of
    /// submitting boxes — the served CRD sweeps it on the service's pool.
    /// Rides the shard queue like [`warm`](Self::warm).
    pub fn factor(&self, handle: &SpecHandle) -> Result<Arc<Factor>, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.submit_cache_op(handle, CacheOp::Factor { tx })?;
        rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// An engine on the service's worker pool with the service's sampling
    /// configuration: whatever it solves is bitwise what the shards serve.
    pub(crate) fn engine(&self) -> MvnEngine {
        MvnEngine::builder()
            .pool(Arc::clone(&self.pool))
            .config(self.cfg.mvn)
            .build()
            .expect("the configuration was validated when the service started")
    }

    /// Queue a cache operation on the spec's shard, returning the shard.
    fn submit_cache_op(&self, handle: &SpecHandle, op: CacheOp) -> Result<usize, ServiceError> {
        handle.spec.validate().map_err(ServiceError::InvalidSpec)?;
        let idx = self.shard_of(handle);
        let shard = &self.shards[idx];
        {
            let mut st = shard.queue.lock().unwrap();
            if st.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if st.items.len() >= self.cfg.queue_capacity {
                return Err(ServiceError::Overloaded {
                    shard: idx,
                    depth: st.items.len(),
                    capacity: self.cfg.queue_capacity,
                });
            }
            st.items.push_back(WorkItem::Cache(CacheRequest {
                spec: Arc::clone(&handle.spec),
                fp: handle.fp,
                op,
            }));
            shard.cv.notify_one();
        }
        Ok(idx)
    }

    /// A point-in-time snapshot of every counter the service keeps. Each
    /// shard is read in one critical section of its queue lock, so every
    /// [`ShardStats`] — and therefore the service-wide sums — satisfies
    /// `completed + queue_depth == submitted` even while requests are in
    /// flight.
    pub fn stats(&self) -> ServiceStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let q = s.queue.lock().unwrap();
                let mut shard = ShardStats {
                    shard: i,
                    queue_depth: (q.queued + q.in_flight) as usize,
                    submitted: q.submitted,
                    completed: q.completed,
                    rejected: q.rejected,
                    deadline_shed: q.deadline_shed,
                    batches: q.batches,
                    solved: q.solved,
                    mixed_batches: q.mixed_batches,
                    batch_hist: q.batch_hist,
                    cache: CacheStats::default(),
                };
                drop(q);
                shard.cache = *s.cache.lock().unwrap();
                shard
            })
            .collect();
        let mut batch_hist = [0u64; BATCH_HIST_BUCKETS];
        for s in &shards {
            for (total, b) in batch_hist.iter_mut().zip(s.batch_hist) {
                *total += b;
            }
        }
        ServiceStats {
            submitted: shards.iter().map(|s| s.submitted).sum(),
            completed: shards.iter().map(|s| s.completed).sum(),
            rejected: shards.iter().map(|s| s.rejected).sum(),
            deadline_shed: shards.iter().map(|s| s.deadline_shed).sum(),
            mixed_batches: shards.iter().map(|s| s.mixed_batches).sum(),
            batch_hist,
            shards,
            pool: self.pool.stats(),
        }
    }
}

impl Drop for MvnService {
    fn drop(&mut self) {
        for shard in &self.shards {
            let mut st = shard.queue.lock().unwrap();
            st.shutdown = true;
            shard.cv.notify_all();
        }
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
    }
}

/// Everything a shard dispatcher needs besides its engine and cache.
struct DispatcherCtx {
    shard: Arc<Shard>,
    shard_idx: usize,
    max_batch: usize,
}

/// One unit of dispatcher work out of [`collect_work`].
enum Work {
    Batch {
        batch: Vec<SolveRequest>,
        /// [`obs::now_ns`] stamp of the first dequeue, for the
        /// `svc_batch_form` timeline event (`None` when tracing is off).
        form_start: Option<u64>,
    },
    Cache(CacheRequest),
}

/// How far past its deadline a queued request is, if it is.
fn lapsed(r: &SolveRequest) -> Option<Duration> {
    let d = r.deadline?;
    let now = Instant::now();
    if now >= d {
        Some(now - d)
    } else {
        None
    }
}

/// Answer a deadline-expired request without solving it. Runs with the shard
/// queue lock held (`st`): the request moves from queued to completed in one
/// critical section, so sheds keep `completed + queue_depth == submitted`
/// true at every lock release. The channel send never blocks, so holding the
/// lock across it is fine.
fn shed(ctx: &DispatcherCtx, st: &mut QueueState, r: SolveRequest, missed_by: Duration) {
    st.queued -= 1;
    st.deadline_shed += 1;
    st.completed += 1;
    let _ = r.tx.send(Err(ServiceError::DeadlineExceeded {
        shard: ctx.shard_idx,
        missed_by,
    }));
}

/// Collect the dispatcher's next unit of work: a queued cache operation
/// (served immediately, FIFO), or a micro-batch — the oldest live request
/// plus every co-batchable one already queued, up to the size cap. The batch
/// closes when the queue has been scanned: a *blocked* item (a cache-miss
/// fingerprint or a cache op) stays queued for the next round, and requests
/// that arrive during this batch's solve form the next one. Expired requests
/// are shed during the scan. Blocks while the queue is empty; returns `None`
/// once it is empty and the service is shutting down.
///
/// `scratch` is the dispatcher's reusable partition buffer: extraction is a
/// single O(depth) drain pass (no per-element `VecDeque::remove` shifting
/// while the submit-side lock is held).
fn collect_work(
    ctx: &DispatcherCtx,
    cache: &FactorCache,
    scratch: &mut VecDeque<WorkItem>,
) -> Option<Work> {
    let shard = &*ctx.shard;
    let mut st = shard.queue.lock().unwrap();
    let first = loop {
        match st.items.pop_front() {
            Some(WorkItem::Cache(c)) => return Some(Work::Cache(c)),
            Some(WorkItem::Solve(r)) => match lapsed(&r) {
                Some(missed) => shed(ctx, &mut st, r, missed),
                None => break r,
            },
            None => {
                if st.shutdown {
                    return None;
                }
                st = shard.cv.wait(st).unwrap();
            }
        }
    };
    // Every member moves from queued to in flight inside this one critical
    // section, so a stats scrape sees each request in exactly one state.
    st.queued -= 1;
    st.in_flight += 1;
    let form_start = obs::enabled().then(obs::now_ns);
    let primary_fp = first.fp;
    let mut batch = vec![first];
    // Partition the queue in one pass: batchable solves into the batch (up
    // to the cap), everything else back in arrival order. A solve is
    // batchable when it shares the primary fingerprint or its factor is
    // already resident, so batching it costs no factorization stall.
    debug_assert!(scratch.is_empty());
    while let Some(item) = st.items.pop_front() {
        match item {
            WorkItem::Cache(c) => scratch.push_back(WorkItem::Cache(c)),
            WorkItem::Solve(r) => {
                if let Some(missed) = lapsed(&r) {
                    shed(ctx, &mut st, r, missed);
                } else if batch.len() < ctx.max_batch
                    && (r.fp == primary_fp || cache.contains(r.fp))
                {
                    st.queued -= 1;
                    st.in_flight += 1;
                    batch.push(r);
                } else {
                    scratch.push_back(WorkItem::Solve(r));
                }
            }
        }
    }
    std::mem::swap(&mut st.items, scratch);
    Some(Work::Batch { batch, form_start })
}

/// Render a caught panic payload for [`ServiceError::Internal`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Publish the shard's cache counters (done *before* responses go out, so a
/// client that reads `stats()` right after its `wait` returns always sees
/// its own request accounted for).
fn publish_cache_stats(ctx: &DispatcherCtx, cache: &FactorCache) {
    *ctx.shard.cache.lock().unwrap() = cache.stats();
}

/// Build a spec's factor and offer it to the cache (which may refuse it: the
/// oversized bypass). The caller has already found it missing.
fn build_and_cache(
    engine: &MvnEngine,
    cache: &mut FactorCache,
    fp: FactorFingerprint,
    spec: &CovSpec,
) -> Result<Arc<Factor>, ServiceError> {
    let f = Arc::new(
        spec.build_factor(engine)
            .map_err(ServiceError::Factorization)?,
    );
    cache.insert(fp, Arc::clone(&f));
    Ok(f)
}

/// Run a cache operation behind the dispatcher's panic boundary: a panic
/// answers the one client as [`ServiceError::Internal`] and the shard keeps
/// serving.
fn caught<T>(op: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
        .unwrap_or_else(|payload| Err(ServiceError::Internal(panic_message(payload))))
}

/// Serve one queued cache operation.
fn serve_cache_op(
    ctx: &DispatcherCtx,
    engine: &MvnEngine,
    cache: &mut FactorCache,
    req: CacheRequest,
) {
    let CacheRequest { spec, fp, op } = req;
    let status = |cache: &FactorCache, was_resident: bool| CacheOpOutput {
        shard: ctx.shard_idx,
        was_resident,
        resident: cache.contains(fp),
        pinned: cache.is_pinned(fp),
    };
    match op {
        // Warm probes with `contains` (uncounted) rather than `get`, so
        // warming does not skew the hit rate the solve traffic earns on its
        // own.
        CacheOp::Warm { pin, tx } => {
            let outcome = caught(|| {
                let was_resident = cache.contains(fp);
                if !was_resident {
                    // `resident` below reports whether the cache took it.
                    build_and_cache(engine, cache, fp, &spec)?;
                }
                if pin {
                    cache.pin(fp);
                }
                Ok(status(cache, was_resident))
            });
            publish_cache_stats(ctx, cache);
            let _ = tx.send(outcome);
        }
        CacheOp::Unpin { tx } => {
            let was_resident = cache.contains(fp);
            cache.unpin(fp);
            publish_cache_stats(ctx, cache);
            let _ = tx.send(Ok(status(cache, was_resident)));
        }
        CacheOp::Factor { tx } => {
            let outcome = caught(|| match cache.get(fp) {
                Some(f) => Ok(f),
                None => build_and_cache(engine, cache, fp, &spec),
            });
            publish_cache_stats(ctx, cache);
            let _ = tx.send(outcome);
        }
    }
}

/// Serve one micro-batch: resolve each distinct fingerprint's factor (one
/// counted cache lookup per fingerprint per batch), then solve every
/// request of the batch in a single [`MvnEngine::solve_batch_mixed`] graph.
/// A fingerprint whose factorization fails takes down only its own group;
/// the rest of the batch still solves.
fn serve_batch(
    ctx: &DispatcherCtx,
    engine: &MvnEngine,
    cache: &mut FactorCache,
    batch: Vec<SolveRequest>,
    batch_id: u64,
    form_start: Option<u64>,
) {
    let size = batch.len();
    let shard_arg = ctx.shard_idx as u64;
    let tracing = obs::enabled();
    if tracing {
        // Per-member queue-wait and the batch-forming window, linked to the
        // solve/reply spans below by the (shard, batch) argument pair.
        if let Some(t0) = form_start {
            obs::complete_since(
                "svc_batch_form",
                t0,
                &[
                    ("shard", shard_arg),
                    ("batch", batch_id),
                    ("size", size as u64),
                ],
            );
        }
        for r in &batch {
            obs::complete_since(
                "svc_queue_wait",
                r.enqueued_ns,
                &[("shard", shard_arg), ("batch", batch_id)],
            );
        }
    }
    // Always-on metrics (independent of tracing).
    let now = obs::now_ns();
    let wait_hist = obs::histogram("mvn_service_queue_wait_ns");
    for r in &batch {
        wait_hist.record(now.saturating_sub(r.enqueued_ns));
    }
    obs::histogram("mvn_service_batch_size").record(size as u64);
    let solve_span = tracing.then(|| {
        obs::span_with(
            "svc_solve",
            &[
                ("shard", shard_arg),
                ("batch", batch_id),
                ("size", size as u64),
            ],
        )
    });

    // Group by fingerprint in first-appearance order.
    let mut groups: Vec<(FactorFingerprint, Arc<CovSpec>)> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(size);
    for r in &batch {
        let g = groups
            .iter()
            .position(|(fp, _)| *fp == r.fp)
            .unwrap_or_else(|| {
                groups.push((r.fp, Arc::clone(&r.spec)));
                groups.len() - 1
            });
        group_of.push(g);
    }
    let mixed = groups.len() > 1;

    // The response channels stay *outside* the panic boundary so even a
    // panic out of the factorization or the solve (a bug, or a pathological
    // input that slipped past validation) reaches every client as a typed
    // `Internal` error instead of killing the dispatcher — that would strand
    // every queued request for this shard and silently brown-out 1/N of the
    // service.
    let (problems, txs): (Vec<Problem>, Vec<mpsc::Sender<Response>>) =
        batch.into_iter().map(|r| (r.problem, r.tx)).unzip();

    type Slot = Result<(MvnResult, bool), ServiceError>;
    let outcome: Result<Vec<Slot>, ServiceError> =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Vec<Slot> {
            // Resolve the factors in two passes: every lookup happens before
            // any build, and the looked-up `Arc`s are held here — so an
            // insert-driven eviction during the build pass can never drop a
            // factor this batch still needs, and each group's `cache_hit`
            // reflects residency at batch start.
            let looked_up: Vec<Option<Arc<Factor>>> =
                groups.iter().map(|(fp, _)| cache.get(*fp)).collect();
            let resolved: Vec<Result<(Arc<Factor>, bool), ServiceError>> = groups
                .iter()
                .zip(looked_up)
                .map(|((fp, spec), hit)| match hit {
                    Some(f) => Ok((f, true)),
                    None => build_and_cache(engine, cache, *fp, spec).map(|f| (f, false)),
                })
                .collect();
            // One mixed task graph over every solvable request, in queue
            // order; failed groups keep their slots as typed errors.
            let mut items: Vec<(Arc<Factor>, Problem)> = Vec::with_capacity(size);
            let mut slots: Vec<Result<(usize, bool), ServiceError>> = Vec::with_capacity(size);
            for (problem, &g) in problems.into_iter().zip(&group_of) {
                match &resolved[g] {
                    Ok((f, hit)) => {
                        slots.push(Ok((items.len(), *hit)));
                        items.push((Arc::clone(f), problem));
                    }
                    Err(e) => slots.push(Err(e.clone())),
                }
            }
            let results = engine.solve_batch_mixed(&items);
            slots
                .into_iter()
                .map(|s| s.map(|(i, hit)| (results[i], hit)))
                .collect()
        })) {
            Ok(slots) => Ok(slots),
            Err(payload) => Err(ServiceError::Internal(panic_message(payload))),
        };

    drop(solve_span);

    // Every counter is published *before* the responses go out, and the
    // whole batch moves from in flight to completed in one critical section
    // of the queue lock — a scrape racing this batch sees it either entirely
    // in flight or entirely completed, never split.
    let solved_now = match &outcome {
        Ok(slots) => slots.iter().filter(|s| s.is_ok()).count() as u64,
        Err(_) => 0,
    };
    {
        let mut st = ctx.shard.queue.lock().unwrap();
        st.in_flight -= size as u64;
        st.completed += size as u64;
        st.batches += 1;
        st.solved += solved_now;
        if mixed {
            st.mixed_batches += 1;
        }
        st.batch_hist[batch_bucket(size)] += 1;
    }
    publish_cache_stats(ctx, cache);

    let _reply_span =
        tracing.then(|| obs::span_with("svc_reply", &[("shard", shard_arg), ("batch", batch_id)]));
    match outcome {
        Ok(slots) => {
            for (slot, tx) in slots.into_iter().zip(txs) {
                // A dropped receiver (client gave up) is fine.
                let _ = tx.send(slot.map(|(result, cache_hit)| SolveOutput {
                    result,
                    cache_hit,
                    batch_size: size,
                    shard: ctx.shard_idx,
                }));
            }
        }
        Err(e) => {
            for tx in txs {
                let _ = tx.send(Err(e.clone()));
            }
        }
    }
}

/// The shard dispatcher: owns the engine and the factor cache, and serves
/// micro-batches and cache operations until shutdown drains the queue.
fn dispatcher_main(ctx: DispatcherCtx, engine: MvnEngine, cache_capacity: usize) {
    let mut cache = FactorCache::new(cache_capacity);
    let mut scratch = VecDeque::new();
    // Shard-local batch sequence number; with the shard index it uniquely
    // labels a batch in the trace, linking queue-wait/form/solve/reply
    // events of the same batch.
    let mut batch_seq: u64 = 0;
    while let Some(work) = collect_work(&ctx, &cache, &mut scratch) {
        match work {
            Work::Cache(req) => serve_cache_op(&ctx, &engine, &mut cache, req),
            Work::Batch { batch, form_start } => {
                batch_seq += 1;
                serve_batch(&ctx, &engine, &mut cache, batch, batch_seq, form_start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bucket_boundaries() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(16), 4);
        assert_eq!(batch_bucket(32), 5);
        assert_eq!(batch_bucket(33), 6);
        assert_eq!(batch_bucket(1000), 6);
    }
}
