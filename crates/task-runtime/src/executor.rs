//! The execution trace types and the inline (single-worker / small-graph)
//! execution path of [`WorkerPool::run`](crate::WorkerPool::run).
//!
//! Execution is *worker-count-deterministic*: every task runs exactly once,
//! all inferred dependencies are honoured, and because each closure performs
//! a fixed computation on the data it declared, the final contents of every
//! data handle are bitwise identical for any number of workers. Only the
//! interleaving (and the [`ExecutionTrace`]) varies.

use crate::graph::TaskGraph;
use std::time::Instant;

/// One executed task, for tracing.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task index within the graph.
    pub task: usize,
    /// Kernel name.
    pub name: String,
    /// Worker thread index that ran the task.
    pub worker: usize,
    /// Start time in seconds since the start of the execution.
    pub start: f64,
    /// End time in seconds since the start of the execution.
    pub end: f64,
}

/// The trace of a graph execution, in completion order.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Per-task execution records.
    pub records: Vec<TaskRecord>,
    /// Wall-clock makespan in seconds.
    pub makespan: f64,
}

/// Run the whole graph inline on the calling thread. Submission order is a
/// valid topological order under the sequential-task-flow contract, so no
/// queue, no thread spawn. This keeps hot call sites that factor many small
/// matrices (e.g. the MLE objective) from paying a thread-pool setup per
/// call; it is the single-worker/small-graph shortcut of
/// [`WorkerPool::run`](crate::WorkerPool::run).
///
/// Panic semantics match the threaded path: a panicking task does not stop
/// the remaining tasks — the graph drains, and the first panic payload is
/// re-raised at the end — so the "drain then re-raise" contract holds for
/// every worker count, not just multi-worker pools.
pub(crate) fn run_inline(graph: &mut TaskGraph<'_>) -> ExecutionTrace {
    let n = graph.len();
    let t0 = Instant::now();
    let mut records = Vec::with_capacity(n);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for i in 0..n {
        // Per-task trace span, mirroring the threaded worker loop (inline
        // execution is always "worker 0"); one relaxed load when tracing is
        // off.
        let span = obs::enabled()
            .then(|| obs::span_with(obs::intern(&graph.spec(i).name), &[("worker", 0)]));
        let start = t0.elapsed().as_secs_f64();
        if let Some(f) = graph.take_closure(i) {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                first_panic.get_or_insert(payload);
            }
        }
        let end = t0.elapsed().as_secs_f64();
        drop(span);
        records.push(TaskRecord {
            task: i,
            name: graph.spec(i).name.clone(),
            worker: 0,
            start,
            end,
        });
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    let makespan = records.last().map(|r| r.end).unwrap_or(0.0);
    ExecutionTrace { records, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::{AccessMode, TaskSpec};
    use crate::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn empty_graph_executes_trivially() {
        let mut g = TaskGraph::new();
        let trace = WorkerPool::new(4).run(&mut g);
        assert!(trace.records.is_empty());
        assert_eq!(trace.makespan, 0.0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let mut reg = HandleRegistry::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..50 {
            let h = reg.register(format!("h{i}"));
            let c = Arc::clone(&counter);
            g.submit(
                TaskSpec::new("inc").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        let trace = WorkerPool::new(8).run(&mut g);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        assert_eq!(trace.records.len(), 50);
        let mut ids: Vec<usize> = trace.records.iter().map(|r| r.task).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn dependencies_are_respected_in_the_trace() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = TaskGraph::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let order = Arc::clone(&order);
            g.submit(
                TaskSpec::new(format!("t{i}")).access(x, AccessMode::ReadWrite),
                Some(Box::new(move || order.lock().unwrap().push(i))),
            );
        }
        let trace = WorkerPool::new(6).run(&mut g);
        assert_eq!(order.lock().unwrap().clone(), (0..10).collect::<Vec<_>>());
        // Trace start times along the chain are non-decreasing.
        let mut by_task = trace.records.clone();
        by_task.sort_by_key(|r| r.task);
        for w in by_task.windows(2) {
            assert!(w[1].start >= w[0].start - 1e-9);
        }
    }

    #[test]
    fn single_worker_execution_works() {
        let mut reg = HandleRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let mut g = TaskGraph::new();
        let total = Arc::new(AtomicUsize::new(0));
        for (h, v) in [(a, 1usize), (b, 2), (a, 4), (b, 8)] {
            let total = Arc::clone(&total);
            g.submit(
                TaskSpec::new("acc").access(h, AccessMode::ReadWrite),
                Some(Box::new(move || {
                    total.fetch_add(v, Ordering::SeqCst);
                })),
            );
        }
        WorkerPool::new(1).run(&mut g);
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn closures_may_borrow_the_submitting_scope() {
        // The point of the lifetime-generic graph: tasks can borrow stack
        // data (here a plain atomic) without Arc.
        let counter = AtomicUsize::new(0);
        let mut reg = HandleRegistry::new();
        let mut g = TaskGraph::new();
        for i in 0..16 {
            let h = reg.register(format!("h{i}"));
            let counter = &counter;
            g.submit(
                TaskSpec::new("borrow").access(h, AccessMode::Write),
                Some(Box::new(move || {
                    counter.fetch_add(i, Ordering::SeqCst);
                })),
            );
        }
        WorkerPool::new(4).run(&mut g);
        assert_eq!(counter.load(Ordering::SeqCst), (0..16).sum());
    }

    #[test]
    fn inline_execution_drains_on_panic_like_the_threaded_path() {
        // workers = 1 takes the inline path; its panic contract must match
        // the pool's: every other task still runs, then the panic re-raises.
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkerPool::new(1).run(&mut g);
        }));
        assert!(result.is_err(), "the task panic must reach the caller");
        assert_eq!(done.load(Ordering::SeqCst), 11, "the graph must drain");
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        // Regression: with 2+ workers, a panicking closure used to leave
        // `remaining` above zero and the other workers asleep forever. The
        // completion guard must drain the graph and re-raise the panic.
        let mut reg = HandleRegistry::new();
        let done = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        for i in 0..12 {
            let h = reg.register(format!("h{i}"));
            let done = Arc::clone(&done);
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkerPool::new(4).run(&mut g);
        }));
        assert!(result.is_err(), "the task panic must reach the caller");
        // Every non-panicking task still ran (the graph drained).
        assert_eq!(done.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn war_hazard_readers_complete_before_writer() {
        // read(x) by many tasks, then write(x): the writer must observe every
        // reader's side effect (write-after-read ordering).
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let reads_done = AtomicUsize::new(0);
        let seen_at_write = AtomicUsize::new(usize::MAX);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("init").access(x, AccessMode::Write),
            Some(Box::new(|| {})),
        );
        for _ in 0..8 {
            let reads_done = &reads_done;
            g.submit(
                TaskSpec::new("read").access(x, AccessMode::Read),
                Some(Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    reads_done.fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        {
            let reads_done = &reads_done;
            let seen_at_write = &seen_at_write;
            g.submit(
                TaskSpec::new("write").access(x, AccessMode::Write),
                Some(Box::new(move || {
                    seen_at_write.store(reads_done.load(Ordering::SeqCst), Ordering::SeqCst);
                })),
            );
        }
        WorkerPool::new(4).run(&mut g);
        assert_eq!(seen_at_write.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn waw_hazard_writes_apply_in_submission_order() {
        // Two writers of the same handle must serialize in submission order
        // even when the second is submitted while many workers are idle.
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
        WorkerPool::new(8).run(&mut g);
        assert_eq!(*value.lock().unwrap(), 123_456);
    }
}
