//! The pool's one executor: streaming task submission.
//!
//! [`WorkerPool::execute`](crate::WorkerPool::execute) runs its submission
//! closure against a [`StreamSubmitter`], which hands each task to the pool's
//! workers the moment it is submitted and *retires* its bookkeeping as soon
//! as it completes. The submitter never waits on the pool while submitting,
//! so it may wait on anything else between submissions — including the
//! output of a task it already submitted, which is what `mvn-dist`'s
//! submitter does when it prefetches a remote tile another process produces
//! from tiles this one is still factoring. There is no window: peak task
//! storage is at most the number of tasks the closure submits, i.e. never
//! more than a graph materialized before execution would hold.
//!
//! **Dependency inference** follows the sequential-task-flow hazard rules
//! (read-after-write, write-after-write, write-after-read on the declared
//! handles); an edge to an already-retired task is trivially satisfied.
//! Because every closure performs a fixed computation on the data it
//! declared, the contents of every data handle after a drained session are
//! **bitwise identical** for any worker count and any interleaving of
//! submission and execution (see the identity tests here and in `tile-la`,
//! `tlr`, `mvn-core` and `mvn-dist`).
//!
//! The submitter only exists inside the closure passed to `execute`, and
//! `execute` does not return until every submitted task has been consumed,
//! so task closures may borrow the submitting scope.

use crate::graph::{HazardTracker, TaskClosure, TaskSink};
use crate::task::TaskSpec;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Per-label `(count, total ns)` accumulated by one session and merged into
/// the pool's always-on timing map when the session drains.
pub(crate) type LabelTimes = BTreeMap<String, (u64, u64)>;

/// What a drained session leaves: tasks executed, their per-label timing,
/// and the first task panic.
pub(crate) type Drained = (u64, LabelTimes, Option<Box<dyn Any + Send>>);

/// Bookkeeping of one in-flight task: its (lifetime-erased) closure until a
/// worker takes it, the number of unfinished predecessors, and the successors
/// to release on completion. Retired (removed from the live map) as soon as
/// the task completes — this is all the storage a submitted task ever has.
struct LiveTask {
    closure: Option<TaskClosure<'static>>,
    pending: usize,
    dependents: Vec<usize>,
    /// Task-kind label (moved out of the spec at submission), for the
    /// always-on per-label timing and the per-task trace spans — the spec
    /// itself is not retained.
    name: String,
}

struct StreamState {
    /// In-flight tasks by id.
    live: HashMap<usize, LiveTask>,
    /// Ids whose predecessors have all completed, awaiting a worker.
    ready: VecDeque<usize>,
    submitted: u64,
    /// Set once the submitting scope has ended; workers exit when the live
    /// map drains afterwards.
    closed: bool,
    /// First task panic, re-raised by `execute` after the drain.
    panic: Option<Box<dyn Any + Send>>,
    /// Per-label `(count, ns)` of retired tasks; updated under the state
    /// lock already held at completion, so it adds no synchronization.
    by_label: LabelTimes,
}

/// One published session: shared between the submitting thread and the pool
/// workers.
pub(crate) struct StreamJob {
    state: Mutex<StreamState>,
    /// Wakes workers: a task became ready, or the session closed.
    work_cv: Condvar,
    /// Wakes the submitter waiting for the final drain.
    done_cv: Condvar,
    /// Pool-wide id of this task set, carried by the per-task trace spans.
    graph_id: u64,
}

impl StreamJob {
    pub(crate) fn new(graph_id: u64) -> Self {
        Self {
            state: Mutex::new(StreamState {
                live: HashMap::new(),
                ready: VecDeque::new(),
                submitted: 0,
                closed: false,
                panic: None,
                by_label: LabelTimes::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            graph_id,
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
                        &[("worker", worker_id as u64), ("graph", self.graph_id)],
                    )
                });
                drop(st);
                let t0 = Instant::now();
                if let Some(f) = closure {
                    // Contain the panic so the pool thread survives; the
                    // first payload is re-raised by `execute` after the drain.
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

    /// Retire a finished task: release its dependents and, on the last
    /// retirement of a closed session, signal the drain.
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
        if st.closed && st.live.is_empty() {
            // Wake the remaining parked workers (they observe the drained,
            // closed session and leave) and the submitter in `finish`.
            self.work_cv.notify_all();
            self.done_cv.notify_all();
        }
    }
}

/// How a [`StreamSubmitter`] executes: inline on the submitting thread (a
/// single-worker pool, or re-entrant submission from a pool worker or from
/// inside another `execute` closure), or published to the pool's workers.
enum StreamTarget<'p> {
    Inline {
        tasks: u64,
        first_panic: Option<Box<dyn Any + Send>>,
        by_label: LabelTimes,
    },
    Pool(&'p StreamJob),
}

/// The submission handle of one session (see the [module docs](self)); the
/// [`TaskSink`] that [`WorkerPool::execute`](crate::WorkerPool::execute)
/// hands its closure.
///
/// The `'env` lifetime plays the role of `std::thread::scope`'s environment
/// lifetime: closures may borrow anything that outlives the `execute` call,
/// and nothing shorter (in particular, no locals of the submission closure
/// itself).
pub(crate) struct StreamSubmitter<'p, 'env> {
    target: StreamTarget<'p>,
    /// The hazard state; the submitter prunes retired readers on every
    /// update to keep the per-handle metadata bounded by the in-flight
    /// tasks.
    hazards: HazardTracker,
    /// Invariance in `'env` (the `std::thread::scope` trick): the borrows
    /// captured by submitted closures must outlive the whole `execute` call,
    /// never a region the compiler shrinks to fit.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'p, 'env> StreamSubmitter<'p, 'env> {
    pub(crate) fn inline() -> Self {
        Self::new(StreamTarget::Inline {
            tasks: 0,
            first_panic: None,
            by_label: LabelTimes::new(),
        })
    }

    pub(crate) fn pooled(job: &'p StreamJob) -> Self {
        Self::new(StreamTarget::Pool(job))
    }

    fn new(target: StreamTarget<'p>) -> Self {
        Self {
            target,
            hazards: HazardTracker::default(),
            _env: PhantomData,
        }
    }

    /// Close the session and block until every submitted task has retired.
    /// Returns the task count, the per-label `(count, ns)` timing map
    /// (merged into the pool's always-on stats), and the first task panic.
    pub(crate) fn finish(self) -> Drained {
        match self.target {
            StreamTarget::Inline {
                tasks,
                first_panic,
                by_label,
            } => (tasks, by_label, first_panic),
            StreamTarget::Pool(job) => {
                let mut st = job.state.lock().unwrap();
                st.closed = true;
                job.work_cv.notify_all();
                while !st.live.is_empty() {
                    st = job.done_cv.wait(st).unwrap();
                }
                (
                    st.submitted,
                    std::mem::take(&mut st.by_label),
                    st.panic.take(),
                )
            }
        }
    }
}

impl<'env> TaskSink<'env> for StreamSubmitter<'_, 'env> {
    /// Ready tasks start executing on the pool immediately; the call never
    /// waits for the pool.
    fn submit_task(&mut self, spec: TaskSpec, closure: TaskClosure<'env>) -> usize {
        match &mut self.target {
            StreamTarget::Inline {
                tasks,
                first_panic,
                by_label,
            } => {
                // Submission order is a valid topological order under the
                // sequential-task-flow contract, so the inline session needs
                // no hazard tracking: run the task now. A panic does not stop
                // later tasks; the first is re-raised after the drain.
                let id = *tasks as usize;
                *tasks += 1;
                let span = obs::enabled()
                    .then(|| obs::span_with(obs::intern(&spec.name), &[("worker", 0)]));
                let t0 = Instant::now();
                if let Err(payload) = catch_unwind(AssertUnwindSafe(closure)) {
                    first_panic.get_or_insert(payload);
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
                let id = st.submitted as usize;
                st.submitted += 1;

                // Hazard inference (RAW/WAR/WAW); edges to already-retired
                // tasks are dropped below (their completion already
                // happened).
                let deps = self.hazards.dependencies(&spec);
                let mut pending = 0usize;
                for &d in &deps {
                    if let Some(t) = st.live.get_mut(&d) {
                        t.dependents.push(id);
                        pending += 1;
                    }
                }

                // SAFETY: lifetime erasure only — the `Send` bound stays in
                // the trait object. `WorkerPool::execute` drains the session
                // (every closure consumed: executed and dropped) before it
                // returns, and the submitter only exists inside that call,
                // so no closure outlives the `'env` borrows it captured.
                let closure: TaskClosure<'static> =
                    unsafe { std::mem::transmute::<TaskClosure<'env>, _>(closure) };
                st.live.insert(
                    id,
                    LiveTask {
                        closure: Some(closure),
                        pending,
                        dependents: Vec::new(),
                        // Placeholder until the spec is released by the
                        // hazard recording below; the real label is moved in
                        // before the lock drops, so workers always see it.
                        name: String::new(),
                    },
                );
                if pending == 0 {
                    st.ready.push_back(id);
                    job.work_cv.notify_one();
                }
                // Record the accesses while the live set is at hand: retired
                // readers are pruned from the per-handle lists (a WAR edge
                // to a retired task is trivially satisfied), which keeps the
                // submitter-side hazard metadata bounded by the in-flight
                // tasks even when a handle — e.g. a factor tile swept by
                // every panel — is read by thousands of tasks over the
                // session.
                self.hazards.record(&spec, id, |d| st.live.contains_key(&d));
                st.live
                    .get_mut(&id)
                    .expect("task inserted above is live")
                    .name = spec.name;
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::AccessMode;
    use crate::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    /// Generous bound on one wait in the tests below: a regression that
    /// holds submitted tasks back fails here instead of hanging the suite.
    const WAIT: Duration = Duration::from_secs(20);

    #[test]
    fn streamed_waw_chain_applies_in_submission_order_for_any_worker_count() {
        // Six writers of one handle must serialize in submission order for
        // every worker count.
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut reg = HandleRegistry::new();
            let x = reg.register("x");
            let value = StdMutex::new(0u64);
            pool.execute(|s| {
                for k in 1..=6u64 {
                    let value = &value;
                    s.submit_task(
                        TaskSpec::new(format!("w{k}")).access(x, AccessMode::Write),
                        Box::new(move || {
                            let mut v = value.lock().unwrap();
                            *v = *v * 10 + k;
                        }),
                    );
                }
            });
            assert_eq!(*value.lock().unwrap(), 123_456, "workers={workers}");
            assert_eq!(pool.stats().tasks_run, 6);
        }
    }

    #[test]
    fn war_hazard_readers_complete_before_writer_in_a_stream() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let reads_done = AtomicUsize::new(0);
        let seen_at_write = AtomicUsize::new(usize::MAX);
        pool.execute(|s| {
            s.submit_task(
                TaskSpec::new("init").access(x, AccessMode::Write),
                Box::new(|| {}),
            );
            for _ in 0..8 {
                let reads_done = &reads_done;
                s.submit_task(
                    TaskSpec::new("read").access(x, AccessMode::Read),
                    Box::new(move || {
                        std::thread::sleep(Duration::from_millis(2));
                        reads_done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
            let reads_done = &reads_done;
            let seen_at_write = &seen_at_write;
            s.submit_task(
                TaskSpec::new("write").access(x, AccessMode::Write),
                Box::new(move || {
                    seen_at_write.store(reads_done.load(Ordering::SeqCst), Ordering::SeqCst);
                }),
            );
        });
        assert_eq!(seen_at_write.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn submitter_can_block_on_the_output_of_a_task_it_already_submitted() {
        // The property the single executor exists for (the `mvn-dist`
        // prefetch, within one process): the submitter waits for the result
        // of each step before submitting the next, which reads it. A
        // submission path that holds tasks back until the closure returns
        // times out here instead of completing.
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let mut reg = HandleRegistry::new();
            let x = reg.register("x");
            let value = StdMutex::new(1u64);
            let (tx, rx) = mpsc::channel();
            let last = pool.execute(|s| {
                let mut seen = 1u64;
                for step in 0..5u64 {
                    let (value, tx) = (&value, tx.clone());
                    s.submit_task(
                        TaskSpec::new("step").access(x, AccessMode::ReadWrite),
                        Box::new(move || {
                            let mut v = value.lock().unwrap();
                            *v = *v * 3 + step;
                            tx.send(*v).unwrap();
                        }),
                    );
                    let got = rx
                        .recv_timeout(WAIT)
                        .unwrap_or_else(|_| panic!("workers={workers}: step {step} never ran"));
                    assert_eq!(got, seen * 3 + step);
                    seen = got;
                }
                seen
            });
            assert_eq!(last, *value.lock().unwrap(), "workers={workers}");
        }
    }

    #[test]
    fn dependency_edges_to_retired_tasks_are_satisfied() {
        // Each round submits three readers of `x`, waits until all three
        // have run, then submits a writer: the writer's WAR edges point at
        // readers that have run and (typically) retired, whose entries the
        // hazard lists prune. Every reader must still see exactly the
        // writes submitted before it.
        let pool = WorkerPool::new(2);
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let value = StdMutex::new(0u64);
        let (tx, rx) = mpsc::channel();
        pool.execute(|s| {
            for round in 0..5u64 {
                for _ in 0..3 {
                    let (value, tx) = (&value, tx.clone());
                    s.submit_task(
                        TaskSpec::new("read").access(x, AccessMode::Read),
                        Box::new(move || tx.send(*value.lock().unwrap()).unwrap()),
                    );
                }
                for _ in 0..3 {
                    assert_eq!(rx.recv_timeout(WAIT).expect("reader runs"), round);
                }
                let value = &value;
                s.submit_task(
                    TaskSpec::new("write").access(x, AccessMode::ReadWrite),
                    Box::new(move || *value.lock().unwrap() += 1),
                );
            }
        });
        assert_eq!(*value.lock().unwrap(), 5);
    }

    #[test]
    fn single_worker_pool_streams_inline() {
        let pool = WorkerPool::new(1);
        let mut reg = HandleRegistry::new();
        let order = StdMutex::new(Vec::new());
        let ret = pool.execute(|s| {
            for i in 0..5 {
                let h = reg.register(format!("h{i}"));
                let order = &order;
                s.submit_task(
                    TaskSpec::new("t").access(h, AccessMode::Write),
                    Box::new(move || order.lock().unwrap().push(i)),
                );
                // Inline: the task ran at its submission point.
                assert_eq!(order.lock().unwrap().len(), i + 1);
            }
            "done"
        });
        assert_eq!(ret, "done");
        assert_eq!(order.lock().unwrap().clone(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.stats().tasks_run, 5);
    }

    #[test]
    fn task_panic_drains_the_stream_and_reraises() {
        // One worker runs inline, four through the pool: the contract is
        // the same — every other task still runs, then the panic re-raises.
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let mut reg = HandleRegistry::new();
            let done = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.execute(|s| {
                    for i in 0..12 {
                        let h = reg.register(format!("h{i}"));
                        let done = &done;
                        s.submit_task(
                            TaskSpec::new("maybe_panic").access(h, AccessMode::Write),
                            Box::new(move || {
                                if i == 5 {
                                    panic!("task 5 exploded");
                                }
                                done.fetch_add(1, Ordering::SeqCst);
                            }),
                        );
                    }
                });
            }));
            assert!(result.is_err(), "the task panic must reach the caller");
            assert_eq!(done.load(Ordering::SeqCst), 11, "the stream must drain");

            // The pool (and its workers) must still be usable afterwards.
            let counter = AtomicUsize::new(0);
            pool.execute(|s| {
                for i in 0..16 {
                    let h = reg.register(format!("g{i}"));
                    let counter = &counter;
                    s.submit_task(
                        TaskSpec::new("inc").access(h, AccessMode::Write),
                        Box::new(move || {
                            counter.fetch_add(1, Ordering::SeqCst);
                        }),
                    );
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 16);
            assert_eq!(pool.stats().workers, workers);
        }
    }

    #[test]
    fn submitter_panic_drains_submitted_tasks_before_unwinding() {
        // A panic in the submission closure itself must not leave submitted
        // closures (borrowing this frame) alive in the workers.
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(|s| {
                for i in 0..6 {
                    let h = reg.register(format!("h{i}"));
                    let done = &done;
                    s.submit_task(
                        TaskSpec::new("inc").access(h, AccessMode::Write),
                        Box::new(move || {
                            done.fetch_add(1, Ordering::SeqCst);
                        }),
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
        // A task closure submitting to its own pool must neither hang (the
        // submission lock is held by the outer set) nor fail: the nested
        // set executes inline on the worker.
        let pool = WorkerPool::new(2);
        let mut reg = HandleRegistry::new();
        let nested_done = AtomicUsize::new(0);
        pool.execute(|s| {
            for i in 0..4 {
                let h = reg.register(format!("h{i}"));
                let (pool, nested_done) = (&pool, &nested_done);
                s.submit_task(
                    TaskSpec::new("outer").access(h, AccessMode::Write),
                    Box::new(move || {
                        if i == 2 {
                            pool.execute(|inner| {
                                for _ in 0..5 {
                                    inner.submit_task(
                                        TaskSpec::new("inner"),
                                        Box::new(move || {
                                            nested_done.fetch_add(1, Ordering::SeqCst);
                                        }),
                                    );
                                }
                            });
                        }
                    }),
                );
            }
        });
        assert_eq!(nested_done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn nested_pool_entry_from_the_stream_closure_runs_inline_instead_of_deadlocking() {
        // Regression: the submission closure runs while the pool's
        // submission lock is held, so a nested `execute`/`map` from the
        // *submitting* thread used to block forever on the non-reentrant
        // lock. It must execute inline instead, like worker re-entrancy.
        let pool = WorkerPool::new(2);
        let mut reg = HandleRegistry::new();
        let outer_done = AtomicUsize::new(0);
        pool.execute(|s| {
            let squares = pool.map("sq", &[1u64, 2, 3, 4], |_, &x| x * x);
            assert_eq!(squares, vec![1, 4, 9, 16]);
            let sum = pool.execute(|inner| {
                for i in 0..3 {
                    let h = reg.register(format!("inner{i}"));
                    inner.submit_task(
                        TaskSpec::new("noop").access(h, AccessMode::Write),
                        Box::new(|| {}),
                    );
                }
                42u32
            });
            assert_eq!(sum, 42);
            for i in 0..5 {
                let h = reg.register(format!("outer{i}"));
                let outer_done = &outer_done;
                s.submit_task(
                    TaskSpec::new("outer").access(h, AccessMode::Write),
                    Box::new(move || {
                        outer_done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
        });
        assert_eq!(outer_done.load(Ordering::SeqCst), 5);
        // Three sets ran: the nested map, the nested execute, the outer one.
        assert_eq!(pool.stats().graphs_run, 3);
        assert_eq!(pool.stats().tasks_run, 4 + 3 + 5);
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.execute(|_| 7), 7);
        assert_eq!(pool.stats().graphs_run, 0);
        assert_eq!(pool.stats().tasks_run, 0);
    }
}
