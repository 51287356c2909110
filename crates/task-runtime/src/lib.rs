//! # task-runtime — a sequential-task-flow runtime
//!
//! A compact substitute for the StarPU programming model the paper builds on:
//! tasks are submitted in program order, each declaring how it accesses a set
//! of *data handles* (read, write or read-write); the runtime infers the
//! dependency DAG from those declarations (read-after-write, write-after-read,
//! write-after-write) and executes ready tasks concurrently on a worker pool.
//!
//! Consumers in this workspace:
//!
//! * the [`pool`] module provides [`WorkerPool`], a persistent worker pool
//!   whose threads park on a condvar between submissions — the one executor
//!   behind long-lived solver sessions (`mvn_core::MvnEngine`), the tiled
//!   Cholesky in `tile-la`/`tlr` and the fused factor+sweep PMVN pipeline.
//!   Producers written against the [`TaskSink`] trait hand their submission
//!   routine to [`WorkerPool::execute`]; whether the tasks are materialized
//!   into a [`TaskGraph`] first or streamed through a lookahead window
//!   ([`stream`] module: peak task storage `O(lookahead)` instead of
//!   `O(total tasks)`) is fixed when the pool is built, with
//!   bitwise-identical results,
//! * the [`store`] module provides [`TileStore`], the typed payload storage
//!   task closures borrow tiles from according to their declared accesses,
//! * the [`graph`] alone — task names, access lists and abstract costs — is
//!   consumed by the `distsim` crate to *simulate* distributed-memory
//!   executions of the Cholesky + PMVN DAGs (the paper's Fig. 7 study).

pub mod executor;
pub mod graph;
pub mod handle;
pub mod pool;
pub mod store;
pub mod stream;
pub mod task;

pub use executor::{ExecutionTrace, TaskRecord};
pub use graph::{TaskGraph, TaskSink};
pub use handle::{DataHandle, HandleRegistry};
pub use pool::{effective_lookahead, effective_workers, run_map_once, PoolStats, WorkerPool};
pub use store::{TileRef, TileRefMut, TileStore};
pub use stream::{StreamStats, StreamSubmitter};
pub use task::{AccessMode, TaskSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn dependent_tasks_run_in_submission_semantics_order() {
        // A classic read-after-write chain: each task appends its id to a log;
        // the runtime must preserve the chain order even with many workers.
        let mut registry = HandleRegistry::new();
        let data = registry.register("x");
        let mut graph = TaskGraph::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for step in 0..20 {
            let log = Arc::clone(&log);
            graph.submit(
                TaskSpec::new(format!("step{step}"))
                    .access(data, AccessMode::ReadWrite)
                    .cost(1.0),
                Some(Box::new(move || {
                    log.lock().unwrap().push(step);
                })),
            );
        }
        let trace = WorkerPool::new(4).run(&mut graph);
        assert_eq!(trace.records.len(), 20);
        let final_log = log.lock().unwrap().clone();
        assert_eq!(final_log, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_can_overlap_across_workers() {
        let mut registry = HandleRegistry::new();
        let mut graph = TaskGraph::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..8 {
            let h = registry.register(format!("t{i}"));
            let counter = Arc::clone(&counter);
            graph.submit(
                TaskSpec::new(format!("independent{i}"))
                    .access(h, AccessMode::Write)
                    .cost(1.0),
                Some(Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                })),
            );
        }
        let trace = WorkerPool::new(4).run(&mut graph);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // With 4 workers and 5 ms tasks, at least two tasks must have executed
        // on different workers.
        let first_worker = trace.records[0].worker;
        assert!(trace.records.iter().any(|r| r.worker != first_worker));
    }
}
