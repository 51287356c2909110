//! A persistent worker pool: threads are spawned once and parked on a condvar
//! between task sets, so hot call sites that execute many small task sets
//! (the MLE objective, the CRD run's build/factor/sweep, batched MVN solves) do not pay a
//! thread-spawn per set.
//!
//! The pool is the one module that knows *how* tasks are submitted:
//! [`WorkerPool::execute`] runs a producer written against [`TaskSink`] as one
//! streaming session — each task goes to the workers as soon as it is
//! submitted and is retired when it completes, and the submitter waits only
//! where its own code waits (the `stream.rs` module docs say why there is no
//! window). Every task runs once, all inferred dependencies are honoured,
//! task panics propagate to the caller after the drain, and the numerical
//! result is bitwise identical for any worker count. Long-lived sessions
//! (`mvn_core::MvnEngine`) hold a pool and reuse it across submissions;
//! several sessions may hold the same one (`Arc<WorkerPool>` — the shards of
//! `mvn-service` do).
//!
//! # Concurrent submitters
//!
//! The pool executes **one task set at a time, on all of its workers**.
//! [`execute`](WorkerPool::execute) takes the pool's submission lock for the
//! duration of its closure and the drain of its tasks; a second thread that
//! submits meanwhile blocks on that lock until the first set has drained,
//! and is then served by every worker. Submissions are therefore serialized
//! whole, in lock-acquisition order — there is no interleaving of two
//! submitters' tasks, no priority and no fairness guarantee beyond the
//! mutex's. What a waiting submitter loses is the wait; what it gains is the
//! whole machine for its own set, which is the better trade when task sets
//! are short and wide (a served batch of panel sweeps) and costs at most one
//! long set's duration otherwise (a factorization ahead of a batch). Each
//! set has its own completion and panic accounting: a task panic is re-raised
//! in the submitter that owns the task, the lock is released first, and
//! neither the pool nor any other submitter sees it. Every set on a
//! one-worker pool, and nested submissions from a worker or from inside an
//! `execute` closure, run inline on the submitting thread and take no lock.
//!
//! # How non-`'static` closures reach `'static` threads
//!
//! Task closures may borrow the submitting scope
//! ([`TaskClosure`](crate::graph::TaskClosure)`<'a>`), but
//! pool threads live arbitrarily long. The pool erases the closure lifetime
//! when publishing a task and guarantees soundness with a completion barrier:
//! [`WorkerPool::execute`] does not return — not even by unwinding — until
//! every submitted closure has been consumed (executed and dropped), which
//! the per-task completion accounting makes observable — the same technique
//! scoped thread APIs use, with the scope replaced by the duration of one
//! `execute` call.

use crate::graph::TaskSink;
use crate::stream::{LabelTimes, StreamJob, StreamSubmitter};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

struct PoolState {
    /// Monotonic submission counter; workers pick up a job only when the
    /// epoch advances past the last one they served, so a drained job is
    /// never re-entered while the submitter is still collecting its results.
    epoch: u64,
    /// The task set the workers are currently serving.
    job: Option<Arc<StreamJob>>,
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

/// A snapshot of pool usage counters (see [`WorkerPool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads owned by the pool (constant for its whole
    /// lifetime — the pool never spawns on demand).
    pub workers: usize,
    /// Non-empty task sets executed so far (one per
    /// [`execute`](WorkerPool::execute) call that submitted at least one
    /// task, inline ones included).
    pub graphs_run: u64,
    /// Tasks executed so far.
    pub tasks_run: u64,
    /// Always-on cumulative per-task-kind timing: `(label, count,
    /// total nanoseconds)`, sorted by label. Covers inline and pooled
    /// execution alike, so an engine or serving snapshot can tell
    /// factorization kernels from panel sweeps without enabling tracing.
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

/// A persistent pool of worker threads executing task sets submitted through
/// [`execute`](WorkerPool::execute).
///
/// Workers are spawned once in [`WorkerPool::new`] and parked on a condvar
/// between task sets; dropping the pool shuts them down and joins them.
/// `execute` takes `&self`, so a pool can be shared (typically as
/// `Arc<WorkerPool>`); a submitter that arrives while another task set is
/// executing waits for it to drain and then gets every worker (see the
/// [module docs](self), "Concurrent submitters").
///
/// A pool of one worker spawns no thread at all: every task runs inline on
/// the submitting thread at its submission point (submission order is a
/// valid topological order under the sequential-task-flow contract).
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Serializes task sets: the pool executes one at a time.
    submit_lock: Mutex<()>,
    /// The thread currently inside an `execute` submission closure (holding
    /// `submit_lock`), if any: a nested `execute` from that thread would
    /// self-deadlock on the non-reentrant mutex, so it runs inline instead,
    /// exactly like re-entrant submission from a worker.
    submitter: Mutex<Option<ThreadId>>,
    graphs_run: AtomicU64,
    tasks_run: AtomicU64,
    /// Cumulative per-task-kind `(count, ns)`; merged once per task set (not
    /// per task), so the always-on cost is one short lock per submission.
    label_times: Mutex<LabelTimes>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers.max(1)` workers. A single-worker pool spawns
    /// no OS thread (tasks run inline on the submitter).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
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
            submit_lock: Mutex::new(()),
            submitter: Mutex::new(None),
            graphs_run: AtomicU64::new(0),
            tasks_run: AtomicU64::new(0),
            label_times: Mutex::new(LabelTimes::new()),
        }
    }

    /// `true` when `thread` cannot take the submission lock without
    /// deadlocking: it is one of this pool's own workers, or it is the
    /// thread currently inside an `execute` submission closure (which holds
    /// the lock). Nested work from such threads executes inline.
    fn is_reentrant(&self, thread: ThreadId) -> bool {
        self.threads.iter().any(|t| t.thread().id() == thread)
            || *self.submitter.lock().unwrap() == Some(thread)
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
                        if let Some(job) = st.job.as_ref() {
                            seen_epoch = st.epoch;
                            break Arc::clone(job);
                        }
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
            };
            job.worker_loop(worker_id);
        }
    }

    /// Number of workers the pool executes tasks on (the worker count passed
    /// to [`WorkerPool::new`], floored at one).
    pub fn workers(&self) -> usize {
        self.threads.len().max(1)
    }

    /// Usage counters: worker count, task sets executed, tasks executed,
    /// per-label timing. The worker count never changes after construction,
    /// which is what the pool-reuse tests assert against (no thread growth
    /// across submissions).
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
            tasks_by_label,
        }
    }

    /// Run one submission routine on the pool — the single entry point of
    /// every task producer in the workspace. `f` submits tasks in program
    /// order into the [`TaskSink`] it is handed; each task is handed to the
    /// workers the moment it is submitted (dependencies on earlier
    /// submissions inferred from the declared accesses), so `f` may wait on
    /// the output of a task it already submitted. Returns `f`'s result after
    /// every submitted task has completed; closures may borrow anything that
    /// outlives the call (the `'env` scope), exactly like
    /// `std::thread::scope`.
    ///
    /// A task panic drains the set and is re-raised here; a panic in `f`
    /// itself drains the already-submitted tasks before resuming. The pool
    /// stays usable either way. On a single-worker pool — or when called from
    /// one of this pool's own task closures or from inside another `execute`
    /// closure on it — the set runs inline on the calling thread, each task
    /// executing at its submission point.
    pub fn execute<'env, R>(&self, f: impl FnOnce(&mut dyn TaskSink<'env>) -> R) -> R {
        let me = std::thread::current().id();
        let (out, (tasks, by_label, panic)) = if self.threads.is_empty() || self.is_reentrant(me) {
            let mut s = StreamSubmitter::inline();
            let out = catch_unwind(AssertUnwindSafe(|| f(&mut s)));
            (out, s.finish())
        } else {
            let _submission = self.submit_lock.lock().unwrap();
            // Published while the submission closure runs under the lock, so
            // nested pool entry from this thread is routed inline (see
            // `is_reentrant`) instead of deadlocking.
            *self.submitter.lock().unwrap() = Some(me);
            let graph_id = self.graphs_run.load(Ordering::Relaxed) + 1;
            let job = Arc::new(StreamJob::new(graph_id));
            {
                let mut st = self.shared.state.lock().unwrap();
                st.epoch += 1;
                st.job = Some(Arc::clone(&job));
                self.shared.work_cv.notify_all();
            }
            let mut s = StreamSubmitter::pooled(&job);
            // Drain before inspecting the outcome: even if `f` panicked,
            // already-submitted closures (and the borrows they captured)
            // must be consumed before this frame unwinds.
            let out = catch_unwind(AssertUnwindSafe(|| f(&mut s)));
            let drained = s.finish();
            *self.submitter.lock().unwrap() = None;
            self.shared.state.lock().unwrap().job = None;
            // The submission lock is released before re-raising, so a panic
            // never poisons the pool for later sets.
            (out, drained)
        };
        if tasks > 0 {
            self.graphs_run.fetch_add(1, Ordering::Relaxed);
            self.tasks_run.fetch_add(tasks, Ordering::Relaxed);
            let mut times = self.label_times.lock().unwrap();
            for (name, (c, ns)) in by_label {
                let e = times.entry(name).or_insert((0, 0));
                e.0 += c;
                e.1 += ns;
            }
        }
        match (out, panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(r), None) => r,
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
    /// only supply the per-item closure. Results are position-stable:
    /// `out[i] == f(i, &items[i])` regardless of worker count or
    /// interleaving.
    pub fn map<T, R, F>(&self, name: &str, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
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
                        TaskSpec::new(name).access(h, AccessMode::Write),
                        Box::new(move || {
                            *results.write(h) = Some(f(i, item));
                        }),
                    );
                }
            });
        }
        handles
            .iter()
            .map(|&h| results.take(h).expect("every map task writes its slot"))
            .collect()
    }

    /// [`map`](WorkerPool::map) with an ignored per-item cost argument, kept
    /// only because the `mvn_perf` benchmark's task-overhead probe calls it.
    pub fn run_map<T, R, C, F>(&self, name: &str, items: &[T], _cost: C, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
        C: Fn(usize, &T) -> f64,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map(name, items, f)
    }
}

/// [`WorkerPool::map`] on a throwaway pool of one worker per core (at
/// most one per item): the data-parallel loop of call sites that hold no
/// session pool — tile assembly in `tile-la`/`tlr`, dense covariance
/// assembly in `geostat`, the Monte-Carlo blocks.
/// A single item or a single core runs inline without spawning a thread.
pub fn run_map_once<T, R, F>(name: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    WorkerPool::new(effective_workers(0).min(items.len())).map(name, items, f)
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

    /// Submit `tasks` independent tasks, each incrementing `counter`.
    fn submit_counting<'a>(
        sink: &mut dyn TaskSink<'a>,
        reg: &mut HandleRegistry,
        counter: &'a AtomicUsize,
        tasks: usize,
    ) {
        for i in 0..tasks {
            let h = reg.register(format!("h{i}"));
            sink.submit_task(
                TaskSpec::new("inc").access(h, AccessMode::Write),
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        pool.execute(|sink| {
            for run in &runs {
                let h = reg.register("slot");
                sink.submit_task(
                    TaskSpec::new("inc").access(h, AccessMode::Write),
                    Box::new(move || {
                        run.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
        });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(pool.stats().tasks_run, 40);
    }

    #[test]
    fn pool_is_reusable_across_many_graphs_without_thread_growth() {
        let pool = WorkerPool::new(3);
        let before = pool.stats();
        assert_eq!(before.workers, 3);
        let mut reg = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.execute(|sink| submit_counting(sink, &mut reg, &counter, 8));
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
        pool.execute(|sink| {
            for k in 1..=6u64 {
                let value = &value;
                sink.submit_task(
                    TaskSpec::new(format!("w{k}")).access(x, AccessMode::Write),
                    Box::new(move || {
                        let mut v = value.lock().unwrap();
                        *v = *v * 10 + k;
                    }),
                );
            }
        });
        assert_eq!(*value.lock().unwrap(), 123_456);
    }

    #[test]
    fn single_worker_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.stats().workers, 1);
        let me = std::thread::current().id();
        let mut reg = HandleRegistry::new();
        let ran_on = Mutex::new(Vec::new());
        pool.execute(|sink| {
            for i in 0..5 {
                let h = reg.register(format!("h{i}"));
                let ran_on = &ran_on;
                sink.submit_task(
                    TaskSpec::new("t").access(h, AccessMode::Write),
                    Box::new(move || {
                        ran_on
                            .lock()
                            .unwrap()
                            .push((i, std::thread::current().id()));
                    }),
                );
            }
        });
        // Inline execution: every task on the submitting thread, in
        // submission order.
        let want: Vec<_> = (0..5).map(|i| (i, me)).collect();
        assert_eq!(*ran_on.lock().unwrap(), want);
    }

    #[test]
    fn pool_survives_a_panicking_task_and_stays_usable() {
        let pool = WorkerPool::new(4);
        let mut reg = HandleRegistry::new();
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(|sink| {
                for i in 0..12 {
                    let h = reg.register(format!("h{i}"));
                    let done = &done;
                    sink.submit_task(
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
        assert_eq!(done.load(Ordering::SeqCst), 11, "the graph must drain");

        // The pool (and all of its workers) must still be usable.
        let counter = AtomicUsize::new(0);
        pool.execute(|sink| submit_counting(sink, &mut reg, &counter, 16));
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(pool.stats().workers, 4);
    }

    #[test]
    fn closures_may_borrow_the_submitting_scope() {
        // The soundness-critical property: stack-borrowed data is safe
        // because `execute` blocks until every closure is consumed.
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
        pool.execute(|sink| {
            for &h in &handles {
                let store = &store;
                sink.submit_task(
                    TaskSpec::new("double").access(h, AccessMode::ReadWrite),
                    Box::new(move || {
                        *store.write(h) *= 2.0;
                    }),
                );
            }
        });
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(store.take(h), 2.0 * i as f64);
        }
    }

    #[test]
    fn run_map_collects_results_in_item_order_on_any_pool() {
        let items: Vec<u64> = (0..40).collect();
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let out = pool.map("square", &items, |i, &x| (i as u64, x * x));
            assert_eq!(out.len(), items.len());
            // The cost-taking wrapper is the same map.
            assert_eq!(
                pool.run_map("square", &items, |_, _| 1.0, |i, &x| (i as u64, x * x)),
                out
            );
            for (i, &(idx, sq)) in out.iter().enumerate() {
                assert_eq!(idx, i as u64);
                assert_eq!(sq, (i * i) as u64);
            }
        }
    }

    #[test]
    fn zero_requests_resolve_to_the_documented_defaults() {
        assert_eq!(effective_workers(3), 3);
        assert!(effective_workers(0) >= 1);
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn run_map_once_is_position_stable_and_safe_inside_another_pools_task() {
        let items: Vec<u64> = (0..25).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(run_map_once("sq", &items, |_, &x| x * x), want);
        assert!(run_map_once("sq", &[] as &[u64], |_, &x| x).is_empty());
        // Nested: a task of another pool builds its own throwaway pool.
        let outer = WorkerPool::new(2);
        let nested = outer.map("outer", &[0u8; 4], |_, _| {
            run_map_once("sq", &items, |_, &x| x * x)
        });
        assert!(nested.iter().all(|got| *got == want));
    }

    #[test]
    fn reentrant_submission_from_a_pool_worker_runs_inline_instead_of_deadlocking() {
        // A task closure submitting to its own pool must neither hang (the
        // submission lock is held by the outer set) nor fail: the nested
        // set executes inline on the worker.
        let pool = WorkerPool::new(2);
        let nested_done = AtomicUsize::new(0);
        pool.map("nested", &[0u8; 4], |i, _| {
            if i == 2 {
                pool.map("inner", &[0u8; 5], |_, _| {
                    nested_done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(nested_done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.execute(|_| ());
        assert_eq!(pool.stats().graphs_run, 0);
        assert!(pool.stats().tasks_by_label.is_empty());
    }

    #[test]
    fn per_label_timing_counts_every_execution_path() {
        // The always-on `tasks_by_label` accounting must see pooled and
        // inline (single-worker or nested) tasks alike, with exact counts.
        for workers in [1usize, 3] {
            let pool = WorkerPool::new(workers);
            let mut reg = HandleRegistry::new();
            let labelled = |sink: &mut dyn TaskSink<'_>, reg: &mut HandleRegistry, name, n| {
                for _ in 0..n {
                    let h = reg.register("h");
                    sink.submit_task(
                        TaskSpec::new(name).access(h, AccessMode::Write),
                        Box::new(|| {}),
                    );
                }
            };
            // 6 "alpha" + 2 "beta", then 2 more "beta" in a second set.
            pool.execute(|sink| {
                labelled(sink, &mut reg, "alpha", 6);
                labelled(sink, &mut reg, "beta", 2);
            });
            pool.execute(|sink| labelled(sink, &mut reg, "beta", 2));
            // Nested from the submitting thread (inline on any pool): 5
            // "gamma".
            pool.execute(|_| pool.execute(|sink| labelled(sink, &mut reg, "gamma", 5)));
            let stats = pool.stats();
            assert_eq!(
                stats.label_timing("alpha").map(|(c, _)| c),
                Some(6),
                "workers={workers}"
            );
            assert_eq!(stats.label_timing("beta").map(|(c, _)| c), Some(4));
            assert_eq!(stats.label_timing("gamma").map(|(c, _)| c), Some(5));
            assert_eq!(stats.label_timing("delta"), None);
            assert_eq!(stats.graphs_run, 3, "the empty outer set is not counted");
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
