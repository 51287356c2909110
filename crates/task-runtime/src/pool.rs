//! A persistent worker pool: threads are spawned once and parked on a condvar
//! between graph submissions, so hot call sites that execute many small task
//! graphs (the MLE objective, the CRD bisection, batched MVN solves) do not
//! pay a thread-spawn per graph.
//!
//! The pool is the one module that knows *how* tasks are submitted: it is
//! built either materializing ([`WorkerPool::new`]) or with a lookahead
//! window ([`WorkerPool::with_lookahead`]), and [`WorkerPool::execute`] hands
//! a producer written against [`TaskSink`] to a [`TaskGraph`] that is then
//! [`run`](WorkerPool::run), or to a [`stream`](WorkerPool::stream) session,
//! accordingly. Either way every task runs once, all inferred dependencies
//! are honoured, task panics propagate to the caller after the drain, and the
//! numerical result is bitwise identical for any worker count and window.
//! Long-lived sessions (`mvn_core::MvnEngine`) hold a pool and reuse it across
//! submissions; several sessions may hold the same one (`Arc<WorkerPool>` —
//! the shards of `mvn-service` do).
//!
//! # Concurrent submitters
//!
//! The pool executes **one task set at a time, on all of its workers**.
//! [`run`](WorkerPool::run) and [`stream`](WorkerPool::stream) take the
//! pool's submission lock for the duration of their task set; a second
//! thread that submits meanwhile blocks on that lock until the first set has
//! drained, and is then served by every worker. Submissions are therefore
//! serialized whole, in lock-acquisition order — there is no interleaving of
//! two submitters' tasks, no priority and no fairness guarantee beyond the
//! mutex's. What a waiting submitter loses is the wait; what it gains is the
//! whole machine for its own set, which is the better trade when task sets
//! are short and wide (a served batch of panel sweeps) and costs at most one
//! long set's duration otherwise (a factorization ahead of a batch). Each
//! set has its own completion and panic accounting: a task panic is re-raised
//! in the submitter that owns the task, the lock is released first, and
//! neither the pool nor any other submitter sees it. Sets of at most two
//! tasks, every set on a one-worker pool, and nested submissions from a
//! worker or from inside a `stream` closure run inline on the submitting
//! thread and take no lock.
//!
//! # How non-`'static` closures reach `'static` threads
//!
//! Task closures may borrow the submitting scope ([`TaskClosure`]`<'a>`), but
//! pool threads live arbitrarily long. The pool erases the closure lifetime
//! when publishing a job and guarantees soundness with a completion barrier:
//! [`WorkerPool::run`] does not return until every closure has been consumed
//! (executed and dropped), which the per-task completion accounting makes
//! observable — the same technique scoped thread APIs use, with the scope
//! replaced by the duration of one `run` call.

use crate::executor::{run_inline, ExecutionTrace, TaskRecord};
use crate::graph::{TaskClosure, TaskGraph, TaskSink};
use crate::stream::{StreamJob, StreamStats, StreamSubmitter};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Blocking MPMC ready-queue: a mutex-protected deque plus a condvar. Workers
/// sleep when no task is ready and are woken either by a new ready task or by
/// global completion.
struct ReadyQueue {
    deque: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

impl ReadyQueue {
    fn new() -> Self {
        Self {
            deque: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, task: usize) {
        self.deque.lock().unwrap().push_back(task);
        self.cv.notify_one();
    }

    /// Pop a ready task, or `None` once `remaining` hits zero.
    fn pop(&self, remaining: &AtomicUsize) -> Option<usize> {
        let mut q = self.deque.lock().unwrap();
        loop {
            if let Some(t) = q.pop_front() {
                return Some(t);
            }
            if remaining.load(Ordering::SeqCst) == 0 {
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
    }

    /// Wake every sleeping waiter (used on completion). Taking the lock first
    /// closes the check-then-wait race: a waiter holding the lock has either
    /// not yet checked `remaining` (and will see zero) or is already waiting
    /// (and receives the notification).
    fn wake_all(&self) {
        let _guard = self.deque.lock().unwrap();
        self.cv.notify_all();
    }
}

/// One published graph execution: the dependency structure copied out of the
/// graph, the (lifetime-erased) closures, and the completion accounting.
struct Job {
    closures: Vec<Mutex<Option<TaskClosure<'static>>>>,
    pending: Vec<AtomicUsize>,
    remaining: AtomicUsize,
    queue: ReadyQueue,
    /// Completion signal for the submitter. Deliberately separate from the
    /// ready-queue condvar: `ReadyQueue::push` uses `notify_one`, and if the
    /// submitter waited on that same condvar it could swallow a wakeup meant
    /// for a parked worker, leaving a ready task unserved until another
    /// worker happened to loop around (silent parallelism loss).
    done_cv: Condvar,
    dependents: Vec<Vec<usize>>,
    names: Vec<String>,
    records: Mutex<Vec<TaskRecord>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    t0: Instant,
    /// Pool-wide submission id of this graph, carried by the per-task trace
    /// spans so a timeline can attribute tasks to their graph.
    graph_id: u64,
}

/// Releases a finished task's dependents and decrements the job's global
/// counter *on drop*. With the per-closure `catch_unwind` below a closure
/// panic cannot skip this bookkeeping anyway, but keeping it drop-based makes
/// the invariant local: once `remaining` reaches zero, every closure has been
/// consumed and every record pushed.
struct CompletionGuard<'g> {
    job: &'g Job,
    task: usize,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        for &dep in &self.job.dependents[self.task] {
            if self.job.pending[dep].fetch_sub(1, Ordering::SeqCst) == 1 {
                self.job.queue.push(dep);
            }
        }
        if self.job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Wake the workers still parked in `pop` (they will observe
            // `remaining == 0` and leave) and the submitter in `wait_done`.
            self.job.queue.wake_all();
            let _guard = self.job.queue.deque.lock().unwrap();
            self.job.done_cv.notify_all();
        }
    }
}

impl Job {
    /// Pull the structure and closures out of `graph`, erasing the closure
    /// lifetime.
    ///
    /// # Safety
    ///
    /// The caller must not let the returned job outlive the borrows captured
    /// by the graph's closures without first waiting for [`Job::wait_done`]:
    /// only once `remaining` is zero have all closures been consumed.
    unsafe fn new(graph: &mut TaskGraph<'_>, graph_id: u64) -> Self {
        let n = graph.len();
        let mut closures: Vec<Mutex<Option<TaskClosure<'static>>>> = Vec::with_capacity(n);
        for i in 0..n {
            let c = graph.take_closure(i);
            // SAFETY: lifetime erasure only — the `Send` bound stays in the
            // trait object. `WorkerPool::run` waits for `remaining == 0`
            // before returning, and each closure is consumed (executed and
            // dropped) strictly before its completion guard decrements
            // `remaining`, so no closure (and hence no borrow) survives the
            // `run` call that owns the real lifetime.
            let c: Option<TaskClosure<'static>> = unsafe { std::mem::transmute(c) };
            closures.push(Mutex::new(c));
        }
        let pending: Vec<AtomicUsize> = (0..n)
            .map(|i| AtomicUsize::new(graph.dependencies(i).len()))
            .collect();
        let queue = ReadyQueue::new();
        for i in 0..n {
            if graph.dependencies(i).is_empty() {
                queue.push(i);
            }
        }
        Self {
            closures,
            pending,
            remaining: AtomicUsize::new(n),
            queue,
            done_cv: Condvar::new(),
            dependents: (0..n).map(|i| graph.dependents(i).to_vec()).collect(),
            names: (0..n).map(|i| graph.spec(i).name.clone()).collect(),
            records: Mutex::new(Vec::with_capacity(n)),
            panic: Mutex::new(None),
            t0: Instant::now(),
            graph_id,
        }
    }

    /// Execute ready tasks until the job is drained.
    fn worker_loop(&self, worker_id: usize) {
        while let Some(task) = self.queue.pop(&self.remaining) {
            let _completion = CompletionGuard { job: self, task };
            // Per-task trace span (one relaxed load when tracing is off; the
            // label intern and argument capture only happen when it is on).
            let _span = obs::enabled().then(|| {
                obs::span_with(
                    obs::intern(&self.names[task]),
                    &[("worker", worker_id as u64), ("graph", self.graph_id)],
                )
            });
            let start = self.t0.elapsed().as_secs_f64();
            let closure = self.closures[task].lock().unwrap().take();
            if let Some(f) = closure {
                // Contain the panic so the pool thread survives for later
                // graphs; the first payload is re-raised by `run`.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    let mut slot = self.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let end = self.t0.elapsed().as_secs_f64();
            self.records.lock().unwrap().push(TaskRecord {
                task,
                name: self.names[task].clone(),
                worker: worker_id,
                start,
                end,
            });
        }
    }

    /// Block until every task has completed (closures consumed, records
    /// pushed). Waits on the dedicated completion condvar so it never
    /// competes with parked workers for `ReadyQueue::push` notifications.
    fn wait_done(&self) {
        let mut q = self.queue.deque.lock().unwrap();
        while self.remaining.load(Ordering::SeqCst) != 0 {
            q = self.done_cv.wait(q).unwrap();
        }
    }

    fn take_trace(&self) -> ExecutionTrace {
        let mut records = std::mem::take(&mut *self.records.lock().unwrap());
        records.sort_by(|a, b| a.end.partial_cmp(&b.end).unwrap());
        let makespan = records.last().map(|r| r.end).unwrap_or(0.0);
        ExecutionTrace { records, makespan }
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// What the pool's workers are currently serving: a materialized graph
/// execution or a streaming submission session.
enum PoolJob {
    Graph(Arc<Job>),
    Stream(Arc<StreamJob>),
}

struct PoolState {
    /// Monotonic submission counter; workers pick up a job only when the
    /// epoch advances past the last one they served, so a drained job is
    /// never re-entered while the submitter is still collecting its results.
    epoch: u64,
    job: Option<PoolJob>,
    shutdown: bool,
}

/// Resolve a worker-count request into a concrete thread count.
///
/// This is the single place defining the meaning of `workers == 0`: zero
/// requests one worker per core reported by
/// [`std::thread::available_parallelism`] (one worker when that is unknown).
/// Any non-zero value is used as-is.
pub fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Resolve a lookahead-window request into a concrete window size.
///
/// This is the single place defining the meaning of `lookahead == 0`: zero
/// requests the default window of `4 × workers` tasks — enough ready work to
/// keep every worker busy while the submitter refills the window, without
/// materializing a meaningful fraction of the graph (the same heuristic
/// StarPU-style runtimes use for their submission windows). Any non-zero
/// value is used as-is.
pub fn effective_lookahead(lookahead: usize, workers: usize) -> usize {
    if lookahead == 0 {
        4 * workers.max(1)
    } else {
        lookahead
    }
}

/// A snapshot of pool usage counters (see [`WorkerPool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads owned by the pool (constant for its whole
    /// lifetime — the pool never spawns on demand).
    pub workers: usize,
    /// Task graphs executed so far (including inlined ones).
    pub graphs_run: u64,
    /// Tasks executed so far (materialized and streamed).
    pub tasks_run: u64,
    /// Streaming sessions drained so far (see [`WorkerPool::stream`]).
    pub streams_run: u64,
    /// Maximum in-flight task count observed across all streaming sessions —
    /// bounded by the largest lookahead window any session used (the
    /// `O(lookahead)` peak-task-storage guarantee, asserted by tests).
    pub stream_peak_tasks: usize,
    /// Always-on cumulative per-task-kind timing: `(label, count,
    /// total nanoseconds)`, sorted by label. Covers every execution path
    /// (materialized, inline and streamed) of this pool, so an engine or
    /// serving snapshot can tell factorization kernels from panel sweeps
    /// without enabling tracing.
    pub tasks_by_label: Vec<(String, u64, u64)>,
}

impl PoolStats {
    /// The `(count, total ns)` recorded for task kind `label` so far.
    pub fn label_timing(&self, label: &str) -> Option<(u64, u64)> {
        self.tasks_by_label
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|&(_, c, ns)| (c, ns))
    }
}

/// A persistent pool of worker threads executing [`TaskGraph`]s.
///
/// Workers are spawned once in [`WorkerPool::new`] and parked on a condvar
/// between [`run`](WorkerPool::run) calls; dropping the pool shuts them down
/// and joins them. `run` takes `&self`, so a pool can be shared (typically as
/// `Arc<WorkerPool>`); a submitter that arrives while another task set is
/// executing waits for it to drain and then gets every worker (see the
/// [module docs](self), "Concurrent submitters").
///
/// A pool of one worker spawns no thread at all: every graph runs inline on
/// the submitting thread (submission order is a valid topological order under
/// the sequential-task-flow contract), as do trivially small graphs on any
/// pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// How [`execute`](WorkerPool::execute) submits: `None` materializes the
    /// whole graph, `Some(w)` streams through a window of `w` in-flight tasks.
    lookahead: Option<usize>,
    /// Serializes `run` calls: the pool executes one job at a time.
    submit_lock: Mutex<()>,
    /// The thread currently inside a [`stream`](WorkerPool::stream)
    /// submission closure (holding `submit_lock`), if any. Unlike `run` —
    /// whose graph is fully built before the lock is taken — the stream
    /// closure runs user code *while* the lock is held, so a nested pool
    /// entry from that thread would self-deadlock on the non-reentrant
    /// mutex; `run` and `stream` check this field and execute nested work
    /// inline instead, exactly like re-entrant submission from a worker.
    stream_submitter: Mutex<Option<std::thread::ThreadId>>,
    graphs_run: AtomicU64,
    tasks_run: AtomicU64,
    streams_run: AtomicU64,
    stream_peak_tasks: AtomicUsize,
    /// Cumulative per-task-kind `(count, ns)` across every execution path;
    /// merged once per graph/stream (not per task), so the always-on cost is
    /// one short lock per submission.
    label_times: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers.max(1)` workers whose
    /// [`execute`](WorkerPool::execute) materializes each task graph before
    /// running it. A single-worker pool spawns no OS thread (graphs run
    /// inline on the submitter).
    pub fn new(workers: usize) -> Self {
        Self::with_lookahead(workers, None)
    }

    /// [`new`](WorkerPool::new) with the submission mode chosen: `None`
    /// materializes, `Some(w)` makes [`execute`](WorkerPool::execute) stream
    /// through a window of at most `w` in-flight tasks (`Some(0)` = the
    /// default window, see [`effective_lookahead`]), so peak task storage is
    /// `O(w)` instead of `O(total tasks)` and execution overlaps submission.
    /// The data left behind is bitwise identical either way.
    pub fn with_lookahead(workers: usize, lookahead: Option<usize>) -> Self {
        let workers = workers.max(1);
        let lookahead = lookahead.map(|w| effective_lookahead(w, workers));
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let spawned = if workers == 1 { 0 } else { workers };
        let threads = (0..spawned)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("task-runtime-worker-{worker_id}"))
                    .spawn(move || Self::worker_main(shared, worker_id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            lookahead,
            submit_lock: Mutex::new(()),
            stream_submitter: Mutex::new(None),
            graphs_run: AtomicU64::new(0),
            tasks_run: AtomicU64::new(0),
            streams_run: AtomicU64::new(0),
            stream_peak_tasks: AtomicUsize::new(0),
            label_times: Mutex::new(BTreeMap::new()),
        }
    }

    /// Accumulate a drained graph's per-task records into the per-label
    /// timing map: aggregated locally first, so the shared lock is taken once
    /// per graph regardless of task count.
    fn merge_label_records(&self, records: &[TaskRecord]) {
        if records.is_empty() {
            return;
        }
        let mut local: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in records {
            let ns = ((r.end - r.start).max(0.0) * 1e9) as u64;
            let e = local.entry(r.name.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += ns;
        }
        let mut times = self.label_times.lock().unwrap();
        for (name, (c, ns)) in local {
            match times.get_mut(name) {
                Some(e) => {
                    e.0 += c;
                    e.1 += ns;
                }
                None => {
                    times.insert(name.to_string(), (c, ns));
                }
            }
        }
    }

    /// Merge a streaming session's per-label `(count, ns)` map.
    fn merge_label_map(&self, by_label: BTreeMap<String, (u64, u64)>) {
        if by_label.is_empty() {
            return;
        }
        let mut times = self.label_times.lock().unwrap();
        for (name, (c, ns)) in by_label {
            let e = times.entry(name).or_insert((0, 0));
            e.0 += c;
            e.1 += ns;
        }
    }

    /// `true` when `thread` cannot take the submission lock without
    /// deadlocking: it is one of this pool's own workers, or it is the
    /// thread currently inside a `stream` submission closure (which holds
    /// the lock). Nested work from such threads executes inline.
    fn must_run_inline(&self, thread: std::thread::ThreadId) -> bool {
        self.threads.iter().any(|t| t.thread().id() == thread)
            || *self.stream_submitter.lock().unwrap() == Some(thread)
    }

    fn worker_main(shared: Arc<Shared>, worker_id: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch > seen_epoch {
                        match st.job.as_ref() {
                            Some(PoolJob::Graph(job)) => {
                                seen_epoch = st.epoch;
                                break PoolJob::Graph(Arc::clone(job));
                            }
                            Some(PoolJob::Stream(job)) => {
                                seen_epoch = st.epoch;
                                break PoolJob::Stream(Arc::clone(job));
                            }
                            None => {}
                        }
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
            };
            match job {
                PoolJob::Graph(job) => job.worker_loop(worker_id),
                PoolJob::Stream(job) => job.worker_loop(worker_id),
            }
        }
    }

    /// Number of workers the pool executes graphs on (the worker count passed
    /// to [`WorkerPool::new`], floored at one).
    pub fn workers(&self) -> usize {
        self.threads.len().max(1)
    }

    /// The resolved lookahead window [`execute`](WorkerPool::execute) streams
    /// through, or `None` on a materializing pool.
    pub fn lookahead(&self) -> Option<usize> {
        self.lookahead
    }

    /// Usage counters: worker count, graphs executed, tasks executed. The
    /// worker count never changes after construction, which is what the
    /// pool-reuse tests assert against (no thread growth across submissions).
    pub fn stats(&self) -> PoolStats {
        let tasks_by_label = self
            .label_times
            .lock()
            .unwrap()
            .iter()
            .map(|(name, &(c, ns))| (name.clone(), c, ns))
            .collect();
        PoolStats {
            workers: self.workers(),
            graphs_run: self.graphs_run.load(Ordering::Relaxed),
            tasks_run: self.tasks_run.load(Ordering::Relaxed),
            streams_run: self.streams_run.load(Ordering::Relaxed),
            stream_peak_tasks: self.stream_peak_tasks.load(Ordering::Relaxed),
            tasks_by_label,
        }
    }

    /// Execute all tasks of `graph` on the pool, honouring the inferred
    /// dependencies, and return the execution trace. Blocks until the graph
    /// has drained; a task panic is re-raised here after the drain, and the
    /// pool remains usable afterwards.
    ///
    /// Calling `run` from inside one of this pool's own task closures is
    /// supported: the nested graph executes inline on that worker (it cannot
    /// be dispatched to the pool, whose submission slot is held by the outer
    /// graph for the duration of the call).
    ///
    /// The result left in the data handles is bitwise identical to any other
    /// execution of the same graph, for any worker count (see the
    /// [`executor`](crate::executor) module docs).
    pub fn run<'a>(&self, graph: &mut TaskGraph<'a>) -> ExecutionTrace {
        let n = graph.len();
        if n == 0 {
            return ExecutionTrace::default();
        }
        let graph_id = self.graphs_run.fetch_add(1, Ordering::Relaxed) + 1;
        self.tasks_run.fetch_add(n as u64, Ordering::Relaxed);
        if self.threads.is_empty() || n <= 2 {
            let trace = run_inline(graph);
            self.merge_label_records(&trace.records);
            return trace;
        }

        // A task closure cannot submit to the pool that is executing it: the
        // outer `run` holds the submission lock and waits for this closure
        // to finish, so a nested dispatch could never be served (deadlock).
        // The same holds for the thread inside a `stream` submission closure
        // (which holds the submission lock itself). Nested submission is
        // still legitimate — e.g. a pooled optimizer objective whose helper
        // routes through the same engine pool — so instead of failing,
        // execute the nested graph inline on the current thread (submission
        // order is a valid topological order, and the outer job's dependency
        // accounting is untouched).
        if self.must_run_inline(std::thread::current().id()) {
            let trace = run_inline(graph);
            self.merge_label_records(&trace.records);
            return trace;
        }

        let (trace, panic) = {
            let _submission = self.submit_lock.lock().unwrap();
            // SAFETY: `wait_done` below blocks until every closure has been
            // consumed, so no borrow captured by the graph's closures
            // outlives this call; worker threads may briefly keep the (by
            // then closure-free) job alive past it.
            let job = Arc::new(unsafe { Job::new(graph, graph_id) });
            {
                let mut st = self.shared.state.lock().unwrap();
                st.epoch += 1;
                st.job = Some(PoolJob::Graph(Arc::clone(&job)));
                self.shared.work_cv.notify_all();
            }
            job.wait_done();
            self.shared.state.lock().unwrap().job = None;
            // The submission lock is released before re-raising, so a task
            // panic never poisons the pool for later graphs.
            let outcome = (job.take_trace(), job.panic.lock().unwrap().take());
            outcome
        };
        self.merge_label_records(&trace.records);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        trace
    }

    /// Run one *streaming* submission session on the pool: `f` receives a
    /// [`StreamSubmitter`] and submits tasks in program order; each task is
    /// handed to the workers the moment it is submitted, and the submitting
    /// thread blocks while `lookahead` tasks are in flight — peak
    /// residency never exceeds the window (used as passed, floored at one).
    /// Most producers should go through [`execute`](WorkerPool::execute) and
    /// let the pool's construction decide the mode; `stream` stays public for
    /// submitters that do other work between submissions (`mvn-dist` fetches
    /// remote tiles while submitting).
    ///
    /// Dependency inference, determinism and panic semantics are identical to
    /// [`run`](WorkerPool::run) on a materialized graph of the same
    /// submission sequence: the data left behind is bitwise identical for
    /// any worker count and any window, a task panic drains the session and
    /// re-raises here, and a panic in `f` itself drains the already-submitted
    /// tasks before resuming. What changes is storage and overlap — peak
    /// resident task state is `O(lookahead)` instead of `O(total tasks)`,
    /// and execution overlaps submission (see the
    /// [`stream`](crate::stream) module docs).
    ///
    /// Task closures may borrow anything that outlives this call (the `'env`
    /// scope), exactly like `std::thread::scope`: `stream` does not return
    /// until every submitted closure has been consumed. On a single-worker
    /// pool — or when called from inside one of this pool's own task
    /// closures — the session runs inline on the submitting thread, each
    /// task executing at its submission point.
    ///
    /// Returns `f`'s result together with the session's [`StreamStats`].
    pub fn stream<'env, R>(
        &self,
        lookahead: usize,
        f: impl FnOnce(&mut StreamSubmitter<'_, 'env>) -> R,
    ) -> (R, StreamStats) {
        let lookahead = lookahead.max(1);
        let me = std::thread::current().id();
        if self.threads.is_empty() || self.must_run_inline(me) {
            // Single-worker pool, or re-entrant submission from a pool
            // worker or from inside another `stream` closure on this pool
            // (either way the submission slot is held by the outer job):
            // run the whole session inline, like `run` does.
            let mut s = StreamSubmitter::inline(lookahead);
            let out = catch_unwind(AssertUnwindSafe(|| f(&mut s)));
            let (stats, by_label, panic) = s.finish();
            self.merge_label_map(by_label);
            self.record_stream(&stats);
            match out {
                Ok(r) => {
                    if let Some(payload) = panic {
                        resume_unwind(payload);
                    }
                    (r, stats)
                }
                Err(payload) => resume_unwind(payload),
            }
        } else {
            let (out, stats, by_label, panic) = {
                let _submission = self.submit_lock.lock().unwrap();
                // Published while the submission closure runs under the
                // lock, so nested pool entry from this thread is routed
                // inline (see `must_run_inline`) instead of deadlocking.
                *self.stream_submitter.lock().unwrap() = Some(me);
                let stream_id = self.streams_run.load(Ordering::Relaxed) + 1;
                let job = Arc::new(StreamJob::new(lookahead, stream_id));
                {
                    let mut st = self.shared.state.lock().unwrap();
                    st.epoch += 1;
                    st.job = Some(PoolJob::Stream(Arc::clone(&job)));
                    self.shared.work_cv.notify_all();
                }
                let mut s = StreamSubmitter::pooled(&job);
                // Drain before inspecting the outcome: even if `f` panicked,
                // already-submitted closures (and the borrows they captured)
                // must be consumed before this frame unwinds.
                let out = catch_unwind(AssertUnwindSafe(|| f(&mut s)));
                let (stats, by_label, panic) = s.finish();
                *self.stream_submitter.lock().unwrap() = None;
                self.shared.state.lock().unwrap().job = None;
                (out, stats, by_label, panic)
            };
            self.merge_label_map(by_label);
            self.record_stream(&stats);
            match out {
                Ok(r) => {
                    if let Some(payload) = panic {
                        resume_unwind(payload);
                    }
                    (r, stats)
                }
                Err(payload) => resume_unwind(payload),
            }
        }
    }

    fn record_stream(&self, stats: &StreamStats) {
        if stats.tasks == 0 {
            return;
        }
        self.streams_run.fetch_add(1, Ordering::Relaxed);
        self.tasks_run.fetch_add(stats.tasks, Ordering::Relaxed);
        self.stream_peak_tasks
            .fetch_max(stats.peak_in_flight, Ordering::Relaxed);
    }

    /// Run one submission routine on the pool — the single entry point of
    /// every task producer in the workspace. `f` submits tasks in program
    /// order into the [`TaskSink`] it is handed; whether that sink is a
    /// [`TaskGraph`] that is [`run`](WorkerPool::run) once `f` returns or a
    /// [`stream`](WorkerPool::stream) session executing while `f` submits was
    /// decided when the pool was built (see
    /// [`with_lookahead`](WorkerPool::with_lookahead)). Returns `f`'s result
    /// after every submitted task has completed; closures may borrow anything
    /// that outlives the call.
    pub fn execute<'env, R>(&self, f: impl FnOnce(&mut dyn TaskSink<'env>) -> R) -> R {
        match self.lookahead {
            None => {
                let mut graph = TaskGraph::new();
                let out = f(&mut graph);
                self.run(&mut graph);
                out
            }
            Some(window) => self.stream(window, |s| f(s)).0,
        }
    }

    /// Evaluate `f` over `items` as independent write-tasks (one task per
    /// item, each owning its result slot) through
    /// [`execute`](WorkerPool::execute) and collect the results in item
    /// order.
    ///
    /// This is the "embarrassingly parallel map" shape shared by the MVN
    /// panel sweeps, tile assembly and the Monte-Carlo validation blocks; the
    /// helper owns the handle-registry/slot-store boilerplate so call sites
    /// only supply the per-item closure. `cost(i, item)` feeds the abstract
    /// cost model of the task specs (used for tracing/simulation, not
    /// scheduling correctness). Results are position-stable: `out[i] ==
    /// f(i, &items[i])` regardless of worker count, window or interleaving.
    pub fn run_map<T, R, C, F>(&self, name: &str, items: &[T], cost: C, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
        C: Fn(usize, &T) -> f64,
        F: Fn(usize, &T) -> R + Sync,
    {
        use crate::task::{AccessMode, TaskSpec};
        let mut registry = crate::HandleRegistry::new();
        let mut results = crate::TileStore::new();
        let handles: Vec<crate::DataHandle> = (0..items.len())
            .map(|i| {
                let h = registry.register(format!("{name}{i}"));
                results.insert(h, None);
                h
            })
            .collect();
        {
            let (results, f) = (&results, &f);
            self.execute(|sink| {
                for (i, (item, &h)) in items.iter().zip(&handles).enumerate() {
                    sink.submit_task(
                        TaskSpec::new(name)
                            .access(h, AccessMode::Write)
                            .cost(cost(i, item)),
                        Some(Box::new(move || {
                            *results.write(h) = Some(f(i, item));
                        })),
                    );
                }
            });
        }
        handles
            .iter()
            .map(|&h| results.take(h).expect("every map task writes its slot"))
            .collect()
    }
}

/// [`WorkerPool::run_map`] on a throwaway pool of one worker per core (at
/// most one per item): the data-parallel loop of call sites that hold no
/// session pool — tile assembly in `tile-la`/`tlr`, the Monte-Carlo blocks.
/// A single item or a single core runs inline without spawning a thread.
pub fn run_map_once<T, R, F>(name: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    WorkerPool::new(effective_workers(0).min(items.len())).run_map(name, items, |_, _| 1.0, f)
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::{AccessMode, TaskSpec};
    use crate::TileStore;
    use std::sync::atomic::AtomicUsize;

    fn counting_graph<'a>(
        reg: &mut HandleRegistry,
        counter: &'a AtomicUsize,
        tasks: usize,
    ) -> TaskGraph<'a> {
        let mut g = TaskGraph::new();
        for i in 0..tasks {
            let h = reg.register(format!("h{i}"));
            g.submit(
                TaskSpec::new("inc").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        g
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        let mut g = counting_graph(&mut reg, &counter, 40);
        let trace = pool.run(&mut g);
        assert_eq!(counter.load(Ordering::SeqCst), 40);
        assert_eq!(trace.records.len(), 40);
        let mut ids: Vec<usize> = trace.records.iter().map(|r| r.task).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_many_graphs_without_thread_growth() {
        let pool = WorkerPool::new(3);
        let before = pool.stats();
        assert_eq!(before.workers, 3);
        let mut reg = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            let mut g = counting_graph(&mut reg, &counter, 8);
            pool.run(&mut g);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
        let after = pool.stats();
        assert_eq!(after.workers, 3, "pool must never grow threads");
        assert_eq!(after.graphs_run, before.graphs_run + 50);
        assert_eq!(after.tasks_run, before.tasks_run + 400);
    }

    #[test]
    fn pool_respects_dependency_chains() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let value = Mutex::new(0u64);
        let mut g = TaskGraph::new();
        for k in 1..=6u64 {
            let value = &value;
            g.submit(
                TaskSpec::new(format!("w{k}")).access(x, AccessMode::Write),
                Some(Box::new(move || {
                    let mut v = value.lock().unwrap();
                    *v = *v * 10 + k;
                })),
            );
        }
        pool.run(&mut g);
        assert_eq!(*value.lock().unwrap(), 123_456);
    }

    #[test]
    fn single_worker_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.stats().workers, 1);
        let mut reg = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        let mut g = counting_graph(&mut reg, &counter, 5);
        let trace = pool.run(&mut g);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        // Inline execution records everything on worker 0 in submission order.
        assert!(trace.records.iter().all(|r| r.worker == 0));
        let ids: Vec<usize> = trace.records.iter().map(|r| r.task).collect();
        assert_eq!(ids, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_a_panicking_task_and_stays_usable() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let done = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        for i in 0..12 {
            let h = reg.register(format!("h{i}"));
            let done = &done;
            g.submit(
                TaskSpec::new("maybe_panic").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    if i == 5 {
                        panic!("task 5 exploded");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut g);
        }));
        assert!(result.is_err(), "the task panic must reach the caller");
        assert_eq!(done.load(Ordering::SeqCst), 11, "the graph must drain");

        // The pool (and all of its workers) must still be usable.
        let counter = AtomicUsize::new(0);
        let mut g2 = counting_graph(&mut reg, &counter, 16);
        pool.run(&mut g2);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(pool.stats().workers, 4);
    }

    #[test]
    fn closures_may_borrow_the_submitting_scope() {
        // The soundness-critical property: stack-borrowed data is safe
        // because `run` blocks until every closure is consumed.
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let mut store: TileStore<f64> = TileStore::new();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let h = reg.register(format!("s{i}"));
                store.insert(h, i as f64);
                h
            })
            .collect();
        let mut g = TaskGraph::new();
        for &h in &handles {
            let store = &store;
            g.submit(
                TaskSpec::new("double").access(h, AccessMode::ReadWrite),
                Some(Box::new(move || {
                    *store.write(h) *= 2.0;
                })),
            );
        }
        pool.run(&mut g);
        drop(g);
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(store.take(h), 2.0 * i as f64);
        }
    }

    #[test]
    fn run_map_collects_results_in_item_order_on_any_pool() {
        let items: Vec<u64> = (0..40).collect();
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let out = pool.run_map("square", &items, |_, _| 1.0, |i, &x| (i as u64, x * x));
            assert_eq!(out.len(), items.len());
            for (i, &(idx, sq)) in out.iter().enumerate() {
                assert_eq!(idx, i as u64);
                assert_eq!(sq, (i * i) as u64);
            }
        }
    }

    #[test]
    fn zero_requests_resolve_to_the_documented_defaults() {
        assert_eq!(effective_lookahead(0, 4), 16);
        assert_eq!(effective_lookahead(0, 0), 4);
        assert_eq!(effective_lookahead(7, 4), 7);
        assert_eq!(effective_lookahead(1, 256), 1);
        assert_eq!(effective_workers(3), 3);
        assert!(effective_workers(0) >= 1);
        assert_eq!(WorkerPool::new(2).lookahead(), None);
        assert_eq!(WorkerPool::with_lookahead(2, Some(0)).lookahead(), Some(8));
        assert_eq!(WorkerPool::with_lookahead(2, Some(5)).lookahead(), Some(5));
    }

    #[test]
    fn execute_picks_the_submission_mode_from_the_pool() {
        // The same WAW chain through `execute` on a materializing and on a
        // streaming pool: same result, and the counters show which path ran.
        for (lookahead, want_graphs, want_streams) in [(None, 1, 0), (Some(2), 0, 1)] {
            let pool = WorkerPool::with_lookahead(3, lookahead);
            let mut reg = HandleRegistry::new();
            let x = reg.register("x");
            let value = Mutex::new(0u64);
            let submitted = pool.execute(|sink| {
                for k in 1..=6u64 {
                    let value = &value;
                    sink.submit_task(
                        TaskSpec::new("w").access(x, AccessMode::Write),
                        Some(Box::new(move || {
                            let mut v = value.lock().unwrap();
                            *v = *v * 10 + k;
                        })),
                    );
                }
                6
            });
            assert_eq!(submitted, 6);
            assert_eq!(*value.lock().unwrap(), 123_456);
            let stats = pool.stats();
            assert_eq!(
                (stats.graphs_run, stats.streams_run),
                (want_graphs, want_streams)
            );
            assert_eq!(stats.tasks_run, 6);
        }
    }

    #[test]
    fn run_map_once_is_position_stable_and_safe_inside_another_pools_task() {
        let items: Vec<u64> = (0..25).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(run_map_once("sq", &items, |_, &x| x * x), want);
        assert!(run_map_once("sq", &[] as &[u64], |_, &x| x).is_empty());
        // Nested: a task of another pool builds its own throwaway pool.
        let outer = WorkerPool::new(2);
        let nested = outer.run_map(
            "outer",
            &[0u8; 4],
            |_, _| 1.0,
            |_, _| run_map_once("sq", &items, |_, &x| x * x),
        );
        assert!(nested.iter().all(|got| *got == want));
    }

    #[test]
    fn reentrant_submission_from_a_pool_worker_runs_inline_instead_of_deadlocking() {
        // A task closure submitting to its own pool must neither hang (the
        // submission lock is held by the outer run) nor fail: the nested
        // graph executes inline on the worker.
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let mut reg = HandleRegistry::new();
        let nested_done = std::sync::Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..4 {
            let h = reg.register(format!("h{i}"));
            let pool = std::sync::Arc::clone(&pool);
            let nested_done = std::sync::Arc::clone(&nested_done);
            g.submit(
                TaskSpec::new("nested").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    if i == 2 {
                        // Large enough (> 2 tasks) to miss the small-graph
                        // inline shortcut, so this exercises the
                        // worker-thread detection path.
                        let mut inner = TaskGraph::new();
                        for _ in 0..5 {
                            let nested_done = std::sync::Arc::clone(&nested_done);
                            inner.submit(
                                TaskSpec::new("inner"),
                                Some(Box::new(move || {
                                    nested_done.fetch_add(1, Ordering::SeqCst);
                                })),
                            );
                        }
                        pool.run(&mut inner);
                    }
                })),
            );
        }
        pool.run(&mut g);
        assert_eq!(nested_done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let mut g = TaskGraph::new();
        let trace = pool.run(&mut g);
        assert!(trace.records.is_empty());
        assert_eq!(pool.stats().graphs_run, 0);
    }

    #[test]
    fn per_label_timing_counts_every_execution_path() {
        // The always-on `tasks_by_label` accounting must see materialized,
        // inline-shortcut and streamed tasks alike, with exact counts.
        for workers in [1usize, 3] {
            let pool = WorkerPool::new(workers);
            let mut reg = HandleRegistry::new();
            // Materialized graph: 6 "alpha" + 2 "beta" tasks.
            let mut g = TaskGraph::new();
            for i in 0..8 {
                let h = reg.register(format!("h{i}"));
                let name = if i < 6 { "alpha" } else { "beta" };
                g.submit(
                    TaskSpec::new(name).access(h, AccessMode::Write),
                    Some(Box::new(move || {
                        std::hint::black_box(i);
                    })),
                );
            }
            pool.run(&mut g);
            // Small graph (inline shortcut on any pool): 2 more "beta".
            let mut small = TaskGraph::new();
            for i in 0..2 {
                let h = reg.register(format!("s{i}"));
                small.submit(TaskSpec::new("beta").access(h, AccessMode::Write), None);
            }
            pool.run(&mut small);
            // Streamed: 5 "gamma".
            pool.stream(4, |s| {
                for i in 0..5 {
                    let h = reg.register(format!("g{i}"));
                    s.submit(TaskSpec::new("gamma").access(h, AccessMode::Write), None);
                }
            });
            let stats = pool.stats();
            assert_eq!(
                stats.label_timing("alpha").map(|(c, _)| c),
                Some(6),
                "workers={workers}"
            );
            assert_eq!(stats.label_timing("beta").map(|(c, _)| c), Some(4));
            assert_eq!(stats.label_timing("gamma").map(|(c, _)| c), Some(5));
            assert_eq!(stats.label_timing("delta"), None);
            // Labels come out sorted (deterministic snapshots).
            let labels: Vec<&str> = stats
                .tasks_by_label
                .iter()
                .map(|(l, _, _)| l.as_str())
                .collect();
            let mut sorted = labels.clone();
            sorted.sort_unstable();
            assert_eq!(labels, sorted);
        }
    }
}
