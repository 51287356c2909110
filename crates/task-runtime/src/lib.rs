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
//!   Cholesky in `tile-la`/`tlr`, the engine's PMVN panel sweeps and the
//!   `mvn-dist` worker. Producers hand their submission routine to
//!   [`WorkerPool::execute`], which gives it a [`Submitter`] and streams
//!   every task to the workers as it is submitted; nothing about submission
//!   is configurable, and the result is bitwise identical for any worker
//!   count,
//! * the [`store`] module provides [`TileStore`], the typed payload storage
//!   task closures borrow tiles from according to their declared accesses,
//! * the [`graph`] module holds the task closure type and the hazard rules
//!   the [`Submitter`] infers the dependency DAG with.

pub mod graph;
pub mod handle;
pub mod pool;
pub mod store;
mod stream;
pub mod task;

pub use handle::{DataHandle, HandleRegistry};
pub use pool::{effective_workers, run_map_once, PoolStats, WorkerPool};
pub use store::{TileRef, TileRefMut, TileStore};
pub use stream::Submitter;
pub use task::{AccessMode, TaskSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn dependent_tasks_run_in_submission_semantics_order() {
        // A classic read-after-write chain: each task appends its id to a log;
        // the runtime must preserve the chain order even with many workers.
        let mut registry = HandleRegistry::new();
        let data = registry.register("x");
        let pool = WorkerPool::new(4);
        let log = Mutex::new(Vec::new());
        pool.execute(|sink| {
            for step in 0..20 {
                let log = &log;
                sink.submit_task(
                    TaskSpec::new(format!("step{step}")).access(data, AccessMode::ReadWrite),
                    Box::new(move || {
                        log.lock().unwrap().push(step);
                    }),
                );
            }
        });
        assert_eq!(pool.stats().tasks_run, 20);
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_can_overlap_across_workers() {
        let mut registry = HandleRegistry::new();
        let counter = AtomicUsize::new(0);
        let threads = Mutex::new(std::collections::HashSet::new());
        WorkerPool::new(4).execute(|sink| {
            for i in 0..8 {
                let h = registry.register(format!("t{i}"));
                let (counter, threads) = (&counter, &threads);
                sink.submit_task(
                    TaskSpec::new(format!("independent{i}")).access(h, AccessMode::Write),
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        threads.lock().unwrap().insert(std::thread::current().id());
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }),
                );
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // With 4 workers and 5 ms tasks, at least two tasks must have executed
        // on different workers.
        assert!(threads.lock().unwrap().len() > 1);
    }
}
