//! Dependency inference from sequential task submission (the
//! "sequential task flow" model of StarPU/Chameleon).

use crate::handle::DataHandle;
use crate::task::TaskSpec;
use std::collections::HashMap;

/// Work item executed by the worker pool. The lifetime lets task closures
/// borrow data owned by the submitting scope (e.g. a
/// [`TileStore`](crate::TileStore)); [`WorkerPool::execute`] does not return
/// until every closure has been consumed, so no `'static` bound is needed.
///
/// [`WorkerPool::execute`]: crate::WorkerPool::execute
pub type TaskClosure<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Anything tasks can be submitted to in program order under the
/// sequential-task-flow contract. Task producers — the tiled/TLR Cholesky
/// submission loops, the PMVN sweep, `mvn-dist`'s owned slice of the plan —
/// are written against this trait and handed to
/// [`WorkerPool::execute`](crate::WorkerPool::execute), which executes each
/// task as it is submitted. A [`TaskGraph`] is also a sink: it records the
/// DAG the same submissions induce (closures are dropped unexecuted), which
/// is how the kernel-count tests inspect a producer.
pub trait TaskSink<'a> {
    /// Submit a task with its declared accesses and optional closure;
    /// dependencies on earlier submissions are inferred from the access
    /// declarations. Returns the submission index.
    fn submit_task(&mut self, spec: TaskSpec, closure: Option<TaskClosure<'a>>) -> usize;
}

impl<'a> TaskSink<'a> for TaskGraph {
    fn submit_task(&mut self, spec: TaskSpec, _closure: Option<TaskClosure<'a>>) -> usize {
        self.submit(spec)
    }
}

/// The sequential-task-flow hazard state — last writer and readers since the
/// last write, per handle — shared by the [`TaskGraph`] recorder and the
/// pool's streaming submitter, so the DAG `distsim` simulates is the one the
/// pool executes.
#[derive(Debug, Default)]
pub(crate) struct HazardTracker {
    last_writer: HashMap<DataHandle, usize>,
    readers_since_write: HashMap<DataHandle, Vec<usize>>,
}

impl HazardTracker {
    /// The dependencies a task with `spec`'s accesses acquires on earlier
    /// submissions: read-after-write, write-after-write and write-after-read
    /// edges, sorted and deduplicated.
    pub(crate) fn dependencies(&self, spec: &TaskSpec) -> Vec<usize> {
        let mut deps: Vec<usize> = Vec::new();
        for (handle, mode) in &spec.accesses {
            if mode.reads() {
                // Read-after-write.
                if let Some(&w) = self.last_writer.get(handle) {
                    deps.push(w);
                }
            }
            if mode.writes() {
                // Write-after-write.
                if let Some(&w) = self.last_writer.get(handle) {
                    deps.push(w);
                }
                // Write-after-read.
                if let Some(readers) = self.readers_since_write.get(handle) {
                    deps.extend_from_slice(readers);
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Record the accesses of the just-submitted task `id`. `retain_reader`
    /// filters a handle's reader list before `id` is appended: the graph
    /// recorder keeps every reader (`|_| true`), while the streaming
    /// submitter drops already-retired readers here — a write-after-read
    /// edge to a retired task is trivially satisfied — so its per-handle
    /// metadata stays bounded by the in-flight tasks instead of growing with
    /// the total read count.
    pub(crate) fn record(
        &mut self,
        spec: &TaskSpec,
        id: usize,
        mut retain_reader: impl FnMut(usize) -> bool,
    ) {
        for (handle, mode) in &spec.accesses {
            if mode.writes() {
                self.last_writer.insert(*handle, id);
                self.readers_since_write.remove(handle);
            } else if mode.reads() {
                let readers = self.readers_since_write.entry(*handle).or_default();
                readers.retain(|&d| retain_reader(d));
                readers.push(id);
            }
        }
    }
}

/// A task DAG recorded by submitting task specs in program order: pure
/// dependency structure (names, accesses, abstract costs — no closures), as
/// simulated by the `distsim` crate and inspected by the kernel-count tests.
/// Execution goes through [`WorkerPool::execute`](crate::WorkerPool::execute)
/// instead.
#[derive(Debug, Default)]
pub struct TaskGraph {
    specs: Vec<TaskSpec>,
    /// `deps[i]` = indices of tasks that must complete before task `i`.
    deps: Vec<Vec<usize>>,
    /// `dependents[i]` = tasks waiting on task `i`.
    dependents: Vec<Vec<usize>>,
    hazards: HazardTracker,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a task; its dependencies on previously submitted tasks are
    /// inferred from the declared data accesses. Returns the task index.
    pub fn submit(&mut self, spec: TaskSpec) -> usize {
        let id = self.specs.len();
        let mut deps = self.hazards.dependencies(&spec);
        deps.retain(|&d| d != id);

        // Update the bookkeeping after computing dependencies; the recorder
        // keeps every reader (no task ever retires).
        self.hazards.record(&spec, id, |_| true);

        for &d in &deps {
            self.dependents[d].push(id);
        }
        self.deps.push(deps);
        self.dependents.push(Vec::new());
        self.specs.push(spec);
        id
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if no tasks have been submitted.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specification of task `i`.
    pub fn spec(&self, i: usize) -> &TaskSpec {
        &self.specs[i]
    }

    /// Direct dependencies of task `i`.
    pub fn dependencies(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Tasks directly depending on task `i`.
    pub fn dependents(&self, i: usize) -> &[usize] {
        &self.dependents[i]
    }

    /// Total cost of all tasks (the sequential execution time of the DAG under
    /// the abstract cost model).
    pub fn total_cost(&self) -> f64 {
        self.specs.iter().map(|s| s.cost).sum()
    }

    /// Length of the critical path under the abstract cost model (a lower
    /// bound on any parallel schedule).
    pub fn critical_path_cost(&self) -> f64 {
        let n = self.len();
        let mut finish = vec![0.0f64; n];
        for i in 0..n {
            let ready = self.deps[i]
                .iter()
                .map(|&d| finish[d])
                .fold(0.0f64, f64::max);
            finish[i] = ready + self.specs[i].cost;
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Number of tasks per kernel name (useful for reporting).
    pub fn kernel_counts(&self) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for s in &self.specs {
            *counts.entry(s.name.clone()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::AccessMode;

    fn spec(name: &str, accesses: &[(DataHandle, AccessMode)], cost: f64) -> TaskSpec {
        let mut t = TaskSpec::new(name).cost(cost);
        for &(h, m) in accesses {
            t = t.access(h, m);
        }
        t
    }

    #[test]
    fn raw_war_waw_dependencies_are_inferred() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = TaskGraph::new();
        let w0 = g.submit(spec("write0", &[(x, AccessMode::Write)], 1.0));
        let r1 = g.submit(spec("read1", &[(x, AccessMode::Read)], 1.0));
        let r2 = g.submit(spec("read2", &[(x, AccessMode::Read)], 1.0));
        let w3 = g.submit(spec("write3", &[(x, AccessMode::Write)], 1.0));
        let r4 = g.submit(spec("read4", &[(x, AccessMode::Read)], 1.0));

        assert!(g.dependencies(w0).is_empty());
        assert_eq!(g.dependencies(r1), &[w0]);
        assert_eq!(g.dependencies(r2), &[w0]);
        // Write3 waits for the previous writer and both readers.
        assert_eq!(g.dependencies(w3), &[w0, r1, r2]);
        assert_eq!(g.dependencies(r4), &[w3]);
        assert_eq!(g.dependents(w0), &[r1, r2, w3]);
    }

    #[test]
    fn reads_of_the_same_data_do_not_depend_on_each_other() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = TaskGraph::new();
        g.submit(spec("w", &[(x, AccessMode::Write)], 1.0));
        let r1 = g.submit(spec("r1", &[(x, AccessMode::Read)], 1.0));
        let r2 = g.submit(spec("r2", &[(x, AccessMode::Read)], 1.0));
        assert!(!g.dependencies(r2).contains(&r1));
    }

    #[test]
    fn independent_handles_produce_independent_tasks() {
        let mut reg = HandleRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let mut g = TaskGraph::new();
        g.submit(spec("ta", &[(a, AccessMode::ReadWrite)], 2.0));
        let tb = g.submit(spec("tb", &[(b, AccessMode::ReadWrite)], 3.0));
        assert!(g.dependencies(tb).is_empty());
        assert_eq!(g.total_cost(), 5.0);
        // Critical path is the longer of the two independent tasks.
        assert_eq!(g.critical_path_cost(), 3.0);
    }

    #[test]
    fn critical_path_of_a_chain_is_the_total_cost() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.submit(spec(&format!("t{i}"), &[(x, AccessMode::ReadWrite)], 2.0));
        }
        assert_eq!(g.critical_path_cost(), 10.0);
        assert_eq!(g.total_cost(), 10.0);
        assert_eq!(g.kernel_counts().len(), 5);
    }

    #[test]
    fn cholesky_like_pattern_has_expected_dag_shape() {
        // A 2x2 tiled Cholesky: potrf(0), trsm(1,0), syrk(1,1), potrf(1,1).
        let mut reg = HandleRegistry::new();
        let t00 = reg.register("t00");
        let t10 = reg.register("t10");
        let t11 = reg.register("t11");
        let mut g = TaskGraph::new();
        let potrf0 = g.submit(spec("potrf", &[(t00, AccessMode::ReadWrite)], 1.0));
        let trsm = g.submit(spec(
            "trsm",
            &[(t00, AccessMode::Read), (t10, AccessMode::ReadWrite)],
            2.0,
        ));
        let syrk = g.submit(spec(
            "syrk",
            &[(t10, AccessMode::Read), (t11, AccessMode::ReadWrite)],
            2.0,
        ));
        let potrf1 = g.submit(spec("potrf", &[(t11, AccessMode::ReadWrite)], 1.0));
        assert_eq!(g.dependencies(trsm), &[potrf0]);
        assert_eq!(g.dependencies(syrk), &[trsm]);
        assert_eq!(g.dependencies(potrf1), &[syrk]);
        assert_eq!(g.critical_path_cost(), 6.0);
        assert_eq!(g.kernel_counts()["potrf"], 2);
    }
}
