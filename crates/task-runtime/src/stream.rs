//! Streaming, lookahead-limited task submission.
//!
//! A materialized [`TaskGraph`](crate::TaskGraph) stores *every* task spec,
//! closure and dependency list of a graph before the first task runs —
//! `O((n/nb)³)` of them for a tiled factorization, which is the memory wall
//! for paper-scale grids. A [`StreamSubmitter`] instead hands each task to
//! the [`WorkerPool`](crate::WorkerPool) the moment it is submitted and
//! *retires* its bookkeeping as soon as it completes; the submitting thread
//! blocks once `lookahead` tasks are in flight (peak residency never exceeds
//! the window). Peak task storage
//! is therefore `O(lookahead)` instead of `O(total tasks)`, and on multicore
//! hosts execution overlaps graph construction.
//!
//! **Dependency inference is unchanged.** Submission goes through the same
//! sequential-task-flow hazard rules as `TaskGraph::submit` (read-after-write,
//! write-after-write, write-after-read on the declared handles); an edge to an
//! already-retired task is trivially satisfied, which is exactly the semantics
//! the materialized executor gives a completed predecessor. Because every
//! closure still performs a fixed computation on the data it declared, the
//! contents of every data handle after a drained stream are **bitwise
//! identical** to executing the same submission sequence through a
//! materialized graph, for any worker count and any lookahead ≥ 1 (see the
//! streaming identity tests here and in `tile-la`, `tlr` and `mvn-core`).
//!
//! Entry point: [`WorkerPool::stream`](crate::WorkerPool::stream), which is a
//! scoped API — the submitter only exists inside the closure passed to
//! `stream`, and `stream` does not return until every submitted task has been
//! consumed, so task closures may borrow the submitting scope just like
//! materialized graphs.

use crate::graph::{HazardTracker, TaskClosure, TaskSink};
use crate::task::TaskSpec;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Per-label `(count, total ns)` accumulated by one streaming session and
/// merged into the pool's always-on timing map when the session drains.
pub(crate) type LabelTimes = BTreeMap<String, (u64, u64)>;

/// Usage counters of one drained streaming session (returned by
/// [`WorkerPool::stream`](crate::WorkerPool::stream)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Total tasks submitted (and executed) through the stream.
    pub tasks: u64,
    /// Maximum number of tasks resident at once (submitted but not yet
    /// retired). Bounded by [`StreamStats::lookahead`] — this is the
    /// `O(lookahead)` peak-task-storage guarantee the window exists for.
    pub peak_in_flight: usize,
    /// The effective lookahead window of the session.
    pub lookahead: usize,
}

/// Bookkeeping of one in-flight task: its (lifetime-erased) closure until a
/// worker takes it, the number of unfinished predecessors, and the successors
/// to release on completion. Retired (removed from the live map) as soon as
/// the task completes — this is all the storage a streamed task ever has.
struct LiveTask {
    closure: Option<TaskClosure<'static>>,
    pending: usize,
    dependents: Vec<usize>,
    /// Task-kind label (moved out of the spec at submission), for the
    /// always-on per-label timing and the per-task trace spans — the spec
    /// itself is not retained by the stream.
    name: String,
}

struct StreamState {
    /// In-flight tasks by id; `live.len()` is the current window occupancy.
    live: HashMap<usize, LiveTask>,
    /// Ids whose predecessors have all completed, awaiting a worker.
    ready: VecDeque<usize>,
    submitted: u64,
    peak: usize,
    /// Set once the submitting scope has ended; workers exit when the live
    /// map drains afterwards.
    closed: bool,
    /// First task panic, re-raised by `stream` after the drain.
    panic: Option<Box<dyn Any + Send>>,
    /// Per-label `(count, ns)` of retired tasks; updated under the state
    /// lock already held at completion, so it adds no synchronization.
    by_label: LabelTimes,
}

/// One published streaming session: shared between the submitting thread and
/// the pool workers.
pub(crate) struct StreamJob {
    state: Mutex<StreamState>,
    /// Wakes workers: a task became ready, or the session closed.
    work_cv: Condvar,
    /// Wakes the submitter blocked on a full window.
    space_cv: Condvar,
    /// Wakes the submitter waiting for the final drain.
    done_cv: Condvar,
    lookahead: usize,
    /// Pool-wide id of this session, carried by the per-task trace spans.
    stream_id: u64,
}

impl StreamJob {
    pub(crate) fn new(lookahead: usize, stream_id: u64) -> Self {
        Self {
            state: Mutex::new(StreamState {
                live: HashMap::new(),
                ready: VecDeque::new(),
                submitted: 0,
                peak: 0,
                closed: false,
                panic: None,
                by_label: LabelTimes::new(),
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            done_cv: Condvar::new(),
            lookahead,
            stream_id,
        }
    }

    /// Worker side: execute ready tasks until the session is closed *and*
    /// drained.
    pub(crate) fn worker_loop(&self, worker_id: usize) {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(id) = st.ready.pop_front() {
                let task = st.live.get_mut(&id).expect("ready task must be live");
                let closure = task.closure.take();
                // Per-task trace span: label interned only while tracing is
                // on (the name lives in the live map, which is about to be
                // unlocked).
                let span = obs::enabled().then(|| {
                    obs::span_with(
                        obs::intern(&task.name),
                        &[("worker", worker_id as u64), ("stream", self.stream_id)],
                    )
                });
                drop(st);
                let t0 = Instant::now();
                if let Some(f) = closure {
                    // Contain the panic so the pool thread survives; the
                    // first payload is re-raised by `stream` after the drain.
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                        let mut s = self.state.lock().unwrap();
                        if s.panic.is_none() {
                            s.panic = Some(payload);
                        }
                    }
                }
                let dur_ns = t0.elapsed().as_nanos() as u64;
                drop(span);
                st = self.state.lock().unwrap();
                self.complete(id, &mut st, dur_ns);
            } else if st.closed && st.live.is_empty() {
                return;
            } else {
                st = self.work_cv.wait(st).unwrap();
            }
        }
    }

    /// Retire a finished task: release its dependents, free its window slot,
    /// and signal the submitter.
    fn complete(&self, id: usize, st: &mut StreamState, dur_ns: u64) {
        let task = st.live.remove(&id).expect("completed task must be live");
        let e = st.by_label.entry(task.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += dur_ns;
        for dep in task.dependents {
            let t = st
                .live
                .get_mut(&dep)
                .expect("dependents of a live task are live");
            t.pending -= 1;
            if t.pending == 0 {
                st.ready.push_back(dep);
                self.work_cv.notify_one();
            }
        }
        self.space_cv.notify_one();
        if st.closed && st.live.is_empty() {
            // Wake the remaining parked workers (they observe the drained,
            // closed session and leave) and the submitter in `finish`.
            self.work_cv.notify_all();
            self.done_cv.notify_all();
        }
    }
}

/// How a [`StreamSubmitter`] executes: inline on the submitting thread (a
/// single-worker pool, or re-entrant submission from a pool worker), or
/// published to the pool's worker threads.
enum StreamTarget<'p> {
    Inline {
        tasks: u64,
        first_panic: Option<Box<dyn Any + Send>>,
        by_label: LabelTimes,
    },
    Pool(&'p StreamJob),
}

/// The submission handle of one streaming session (see the [module
/// docs](self)); obtained only inside the closure passed to
/// [`WorkerPool::stream`](crate::WorkerPool::stream).
///
/// [`submit`](StreamSubmitter::submit) mirrors `TaskGraph::submit` — same
/// spec, same optional closure, same inferred dependencies — but blocks once
/// the lookahead window is full. The `'env` lifetime plays the role of
/// `std::thread::scope`'s environment lifetime: closures may borrow anything
/// that outlives the `stream` call, and nothing shorter (in particular, no
/// locals of the submission closure itself).
pub struct StreamSubmitter<'p, 'env> {
    target: StreamTarget<'p>,
    lookahead: usize,
    /// The same hazard state (and inference code) the materialized
    /// [`TaskGraph`](crate::TaskGraph) uses, so the two modes cannot drift
    /// apart; the streaming side prunes retired readers on every update to
    /// keep the per-handle metadata bounded by the window.
    hazards: HazardTracker,
    /// Invariance in `'env` (the `std::thread::scope` trick): the borrows
    /// captured by submitted closures must outlive the whole `stream` call,
    /// never a region the compiler shrinks to fit.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'p, 'env> StreamSubmitter<'p, 'env> {
    pub(crate) fn inline(lookahead: usize) -> Self {
        Self {
            target: StreamTarget::Inline {
                tasks: 0,
                first_panic: None,
                by_label: LabelTimes::new(),
            },
            lookahead,
            hazards: HazardTracker::default(),
            _env: PhantomData,
        }
    }

    pub(crate) fn pooled(job: &'p StreamJob) -> Self {
        Self {
            target: StreamTarget::Pool(job),
            lookahead: job.lookahead,
            hazards: HazardTracker::default(),
            _env: PhantomData,
        }
    }

    /// The effective lookahead window of the session.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Submit a task; its dependencies on earlier submissions are inferred
    /// from the declared data accesses exactly as in `TaskGraph::submit`.
    /// Returns the task's submission index.
    ///
    /// Ready tasks start executing on the pool immediately; if `lookahead`
    /// tasks are already in flight this call blocks until one of them
    /// retires.
    pub fn submit(&mut self, spec: TaskSpec, closure: Option<TaskClosure<'env>>) -> usize {
        match &mut self.target {
            StreamTarget::Inline {
                tasks,
                first_panic,
                by_label,
            } => {
                // Submission order is a valid topological order under the
                // sequential-task-flow contract, so the inline stream needs
                // no hazard tracking: run the task now. Panic semantics match
                // the executor's inline path (drain, re-raise the first).
                let id = *tasks as usize;
                *tasks += 1;
                let span = obs::enabled()
                    .then(|| obs::span_with(obs::intern(&spec.name), &[("worker", 0)]));
                let t0 = Instant::now();
                if let Some(f) = closure {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                        first_panic.get_or_insert(payload);
                    }
                }
                let dur_ns = t0.elapsed().as_nanos() as u64;
                drop(span);
                let e = by_label.entry(spec.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += dur_ns;
                id
            }
            StreamTarget::Pool(job) => {
                let mut st = job.state.lock().unwrap();
                while st.live.len() >= job.lookahead {
                    st = job.space_cv.wait(st).unwrap();
                }
                let id = st.submitted as usize;
                st.submitted += 1;

                // Hazard inference (RAW/WAR/WAW) through the exact code the
                // materialized `TaskGraph::submit` runs; edges to
                // already-retired tasks are dropped below (their completion
                // already happened).
                let deps = self.hazards.dependencies(&spec);
                let mut pending = 0usize;
                for &d in &deps {
                    if let Some(t) = st.live.get_mut(&d) {
                        t.dependents.push(id);
                        pending += 1;
                    }
                }

                // SAFETY: lifetime erasure only — the `Send` bound stays in
                // the trait object. `WorkerPool::stream` drains the session
                // (every closure consumed: executed and dropped) before it
                // returns, and the submitter only exists inside that call,
                // so no closure outlives the `'env` borrows it captured.
                let closure: Option<TaskClosure<'static>> =
                    unsafe { std::mem::transmute::<Option<TaskClosure<'env>>, _>(closure) };
                st.live.insert(
                    id,
                    LiveTask {
                        closure,
                        pending,
                        dependents: Vec::new(),
                        // Placeholder until the spec is released by the
                        // hazard recording below; the real label is moved in
                        // before the lock drops, so workers always see it.
                        name: String::new(),
                    },
                );
                st.peak = st.peak.max(st.live.len());
                if pending == 0 {
                    st.ready.push_back(id);
                    job.work_cv.notify_one();
                }
                // Record the accesses while the live set is at hand: retired
                // readers are pruned from the per-handle lists (a WAR edge
                // to a retired task is trivially satisfied), which keeps the
                // submitter-side hazard metadata O(window) per handle even
                // when a handle — e.g. a factor tile swept by every panel —
                // is read by thousands of tasks over the session.
                self.hazards.record(&spec, id, |d| st.live.contains_key(&d));
                st.live
                    .get_mut(&id)
                    .expect("task inserted above is live")
                    .name = spec.name;
                id
            }
        }
    }

    /// Close the session and block until every submitted task has retired.
    /// Returns the session counters, the per-label `(count, ns)` timing map
    /// (merged into the pool's always-on stats), and the first task panic.
    pub(crate) fn finish(self) -> (StreamStats, LabelTimes, Option<Box<dyn Any + Send>>) {
        match self.target {
            StreamTarget::Inline {
                tasks,
                first_panic,
                by_label,
            } => (
                StreamStats {
                    tasks,
                    peak_in_flight: usize::from(tasks > 0),
                    lookahead: self.lookahead,
                },
                by_label,
                first_panic,
            ),
            StreamTarget::Pool(job) => {
                let mut st = job.state.lock().unwrap();
                st.closed = true;
                job.work_cv.notify_all();
                while !st.live.is_empty() {
                    st = job.done_cv.wait(st).unwrap();
                }
                let stats = StreamStats {
                    tasks: st.submitted,
                    peak_in_flight: st.peak,
                    lookahead: job.lookahead,
                };
                (stats, std::mem::take(&mut st.by_label), st.panic.take())
            }
        }
    }
}

impl<'env> TaskSink<'env> for StreamSubmitter<'_, 'env> {
    fn submit_task(&mut self, spec: TaskSpec, closure: Option<TaskClosure<'env>>) -> usize {
        self.submit(spec, closure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::AccessMode;
    use crate::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn streamed_waw_chain_applies_in_submission_order_for_any_window() {
        // The WAW hazard test of the materialized executor, through a stream:
        // six writers of one handle must serialize in submission order for
        // every worker count and window size.
        for workers in [1usize, 2, 4] {
            for lookahead in [1usize, 2, 3, 8] {
                let pool = WorkerPool::new(workers);
                let mut reg = HandleRegistry::new();
                let x = reg.register("x");
                let value = StdMutex::new(0u64);
                let ((), stats) = pool.stream(lookahead, |s| {
                    for k in 1..=6u64 {
                        let value = &value;
                        s.submit(
                            TaskSpec::new(format!("w{k}")).access(x, AccessMode::Write),
                            Some(Box::new(move || {
                                let mut v = value.lock().unwrap();
                                *v = *v * 10 + k;
                            })),
                        );
                    }
                });
                assert_eq!(*value.lock().unwrap(), 123_456, "workers={workers}");
                assert_eq!(stats.tasks, 6);
                assert!(
                    stats.peak_in_flight <= lookahead,
                    "workers={workers} lookahead={lookahead}: peak {}",
                    stats.peak_in_flight
                );
            }
        }
    }

    #[test]
    fn war_hazard_readers_complete_before_writer_in_a_stream() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let reads_done = AtomicUsize::new(0);
        let seen_at_write = AtomicUsize::new(usize::MAX);
        pool.stream(16, |s| {
            s.submit(
                TaskSpec::new("init").access(x, AccessMode::Write),
                Some(Box::new(|| {})),
            );
            for _ in 0..8 {
                let reads_done = &reads_done;
                s.submit(
                    TaskSpec::new("read").access(x, AccessMode::Read),
                    Some(Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        reads_done.fetch_add(1, Ordering::SeqCst);
                    })),
                );
            }
            let reads_done = &reads_done;
            let seen_at_write = &seen_at_write;
            s.submit(
                TaskSpec::new("write").access(x, AccessMode::Write),
                Some(Box::new(move || {
                    seen_at_write.store(reads_done.load(Ordering::SeqCst), Ordering::SeqCst);
                })),
            );
        });
        assert_eq!(seen_at_write.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn window_bounds_peak_in_flight_with_many_independent_tasks() {
        // 200 independent tasks through a window of 5: a materialized graph
        // would hold all 200 closures at once; the stream must never hold
        // more than 5.
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        let ((), stats) = pool.stream(5, |s| {
            for i in 0..200 {
                let h = reg.register(format!("h{i}"));
                let counter = &counter;
                s.submit(
                    TaskSpec::new("inc").access(h, AccessMode::Write),
                    Some(Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })),
                );
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(stats.tasks, 200);
        assert!(stats.peak_in_flight <= 5, "peak {}", stats.peak_in_flight);
        let ps = pool.stats();
        assert_eq!(ps.streams_run, 1);
        assert_eq!(ps.tasks_run, 200);
        assert!(ps.stream_peak_tasks <= 5);
    }

    #[test]
    fn dependency_edges_to_retired_tasks_are_satisfied() {
        // With lookahead 1 every task retires before the next is submitted,
        // so every RAW edge points at a retired task; the chain must still
        // execute in order (trivially) and produce the sequential result.
        let pool = WorkerPool::new(2);
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let log = StdMutex::new(Vec::new());
        let ((), stats) = pool.stream(1, |s| {
            for step in 0..20 {
                let log = &log;
                s.submit(
                    TaskSpec::new(format!("step{step}")).access(x, AccessMode::ReadWrite),
                    Some(Box::new(move || log.lock().unwrap().push(step))),
                );
            }
        });
        assert_eq!(log.lock().unwrap().clone(), (0..20).collect::<Vec<_>>());
        assert_eq!(stats.peak_in_flight, 1);
    }

    #[test]
    fn single_worker_pool_streams_inline() {
        let pool = WorkerPool::new(1);
        let mut reg = HandleRegistry::new();
        let order = StdMutex::new(Vec::new());
        let (ret, stats) = pool.stream(8, |s| {
            for i in 0..5 {
                let h = reg.register(format!("h{i}"));
                let order = &order;
                s.submit(
                    TaskSpec::new("t").access(h, AccessMode::Write),
                    Some(Box::new(move || order.lock().unwrap().push(i))),
                );
            }
            "done"
        });
        assert_eq!(ret, "done");
        assert_eq!(order.lock().unwrap().clone(), vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.tasks, 5);
        assert_eq!(stats.peak_in_flight, 1);
    }

    #[test]
    fn task_panic_drains_the_stream_and_reraises() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.stream(4, |s| {
                for i in 0..12 {
                    let h = reg.register(format!("h{i}"));
                    let done = &done;
                    s.submit(
                        TaskSpec::new("maybe_panic").access(h, AccessMode::Write),
                        Some(Box::new(move || {
                            if i == 5 {
                                panic!("task 5 exploded");
                            }
                            done.fetch_add(1, Ordering::SeqCst);
                        })),
                    );
                }
            });
        }));
        assert!(result.is_err(), "the task panic must reach the caller");
        assert_eq!(done.load(Ordering::SeqCst), 11, "the stream must drain");

        // The pool (and its workers) must still be usable afterwards.
        let counter = AtomicUsize::new(0);
        let ((), stats) = pool.stream(4, |s| {
            for i in 0..16 {
                let h = reg.register(format!("g{i}"));
                let counter = &counter;
                s.submit(
                    TaskSpec::new("inc").access(h, AccessMode::Write),
                    Some(Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })),
                );
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(stats.tasks, 16);
    }

    #[test]
    fn submitter_panic_drains_submitted_tasks_before_unwinding() {
        // A panic in the submission closure itself must not leave submitted
        // closures (borrowing this frame) alive in the workers.
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.stream(8, |s| {
                for i in 0..6 {
                    let h = reg.register(format!("h{i}"));
                    let done = &done;
                    s.submit(
                        TaskSpec::new("inc").access(h, AccessMode::Write),
                        Some(Box::new(move || {
                            done.fetch_add(1, Ordering::SeqCst);
                        })),
                    );
                }
                panic!("submitter exploded");
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 6, "submitted tasks must run");
    }

    #[test]
    fn reentrant_stream_from_a_pool_worker_runs_inline() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let mut reg = HandleRegistry::new();
        let nested_done = std::sync::Arc::new(AtomicUsize::new(0));
        let mut g = crate::TaskGraph::new();
        for i in 0..4 {
            let h = reg.register(format!("h{i}"));
            let pool = std::sync::Arc::clone(&pool);
            let nested_done = std::sync::Arc::clone(&nested_done);
            g.submit(
                TaskSpec::new("outer").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    if i == 2 {
                        let nested = std::sync::Arc::clone(&nested_done);
                        pool.stream(4, move |s| {
                            for _ in 0..5 {
                                let nested = std::sync::Arc::clone(&nested);
                                s.submit(
                                    TaskSpec::new("inner"),
                                    Some(Box::new(move || {
                                        nested.fetch_add(1, Ordering::SeqCst);
                                    })),
                                );
                            }
                        });
                    }
                })),
            );
        }
        pool.run(&mut g);
        assert_eq!(nested_done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn nested_pool_entry_from_the_stream_closure_runs_inline_instead_of_deadlocking() {
        // Regression: the stream submission closure runs while the pool's
        // submission lock is held, so a nested run/run_map/stream from the
        // *submitting* thread used to block forever on the non-reentrant
        // lock. It must execute inline instead, like worker re-entrancy.
        let pool = WorkerPool::new(2);
        let mut reg = HandleRegistry::new();
        let outer_done = AtomicUsize::new(0);
        let ((), stats) = pool.stream(4, |s| {
            // Nested materialized map on the same pool.
            let squares = pool.run_map("sq", &[1u64, 2, 3, 4], |_, _| 1.0, |_, &x| x * x);
            assert_eq!(squares, vec![1, 4, 9, 16]);
            // Nested stream on the same pool.
            let (sum, _) = pool.stream(2, |inner| {
                for i in 0..3 {
                    let h = reg.register(format!("inner{i}"));
                    inner.submit(TaskSpec::new("noop").access(h, AccessMode::Write), None);
                }
                42u32
            });
            assert_eq!(sum, 42);
            for i in 0..5 {
                let h = reg.register(format!("outer{i}"));
                let outer_done = &outer_done;
                s.submit(
                    TaskSpec::new("outer").access(h, AccessMode::Write),
                    Some(Box::new(move || {
                        outer_done.fetch_add(1, Ordering::SeqCst);
                    })),
                );
            }
        });
        assert_eq!(outer_done.load(Ordering::SeqCst), 5);
        assert_eq!(stats.tasks, 5);
    }

    #[test]
    fn run_map_on_a_streaming_pool_matches_a_materializing_pool() {
        let items: Vec<u64> = (0..40).collect();
        let square = |i: usize, &x: &u64| (i as u64, x * x);
        for workers in [1usize, 2, 4] {
            let want = WorkerPool::new(workers).run_map("square", &items, |_, _| 1.0, square);
            for lookahead in [1usize, 3, 64, 0] {
                let pool = WorkerPool::with_lookahead(workers, Some(lookahead));
                let got = pool.run_map("square", &items, |_, _| 1.0, square);
                assert_eq!(got, want, "workers={workers} lookahead={lookahead}");
                let stats = pool.stats();
                assert_eq!((stats.streams_run, stats.graphs_run), (1, 0));
                assert!(stats.stream_peak_tasks <= pool.lookahead().unwrap());
            }
        }
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let (r, stats) = pool.stream(4, |_| 7);
        assert_eq!(r, 7);
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.peak_in_flight, 0);
        assert_eq!(pool.stats().streams_run, 0);
    }
}
