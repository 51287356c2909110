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
/// task as it is submitted.
pub trait TaskSink<'a> {
    /// Submit a task with its declared accesses and its closure;
    /// dependencies on earlier submissions are inferred from the access
    /// declarations. Returns the submission index.
    fn submit_task(&mut self, spec: TaskSpec, closure: TaskClosure<'a>) -> usize;
}

/// The sequential-task-flow hazard state of the pool's streaming submitter:
/// last writer and readers since the last write, per handle.
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
    /// filters a handle's reader list before `id` is appended: the streaming
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::AccessMode;

    /// Submits task specs in program order to one tracker, the way the
    /// pool's submitter does with no task ever retiring, and returns each
    /// task's dependencies.
    #[derive(Default)]
    struct Submitter {
        hazards: HazardTracker,
        next: usize,
    }

    impl Submitter {
        fn submit(&mut self, name: &str, accesses: &[(DataHandle, AccessMode)]) -> Vec<usize> {
            let spec = accesses
                .iter()
                .fold(TaskSpec::new(name), |t, &(h, m)| t.access(h, m));
            let deps = self.hazards.dependencies(&spec);
            self.hazards.record(&spec, self.next, |_| true);
            self.next += 1;
            deps
        }
    }

    #[test]
    fn raw_war_waw_dependencies_are_inferred() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = Submitter::default();
        let (w0, r1, r2, w3) = (0, 1, 2, 3);
        assert!(g.submit("write0", &[(x, AccessMode::Write)]).is_empty());
        assert_eq!(g.submit("read1", &[(x, AccessMode::Read)]), [w0]);
        assert_eq!(g.submit("read2", &[(x, AccessMode::Read)]), [w0]);
        // Write3 waits for the previous writer and both readers.
        assert_eq!(g.submit("write3", &[(x, AccessMode::Write)]), [w0, r1, r2]);
        assert_eq!(g.submit("read4", &[(x, AccessMode::Read)]), [w3]);
    }

    #[test]
    fn reads_of_the_same_data_do_not_depend_on_each_other() {
        let mut reg = HandleRegistry::new();
        let x = reg.register("x");
        let mut g = Submitter::default();
        g.submit("w", &[(x, AccessMode::Write)]);
        assert_eq!(g.submit("r1", &[(x, AccessMode::Read)]), [0]);
        // The second reader waits for the writer only, not for `r1`.
        assert_eq!(g.submit("r2", &[(x, AccessMode::Read)]), [0]);
    }

    #[test]
    fn independent_handles_produce_independent_tasks() {
        let mut reg = HandleRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let mut g = Submitter::default();
        g.submit("ta", &[(a, AccessMode::ReadWrite)]);
        assert!(g.submit("tb", &[(b, AccessMode::ReadWrite)]).is_empty());
    }

    #[test]
    fn cholesky_like_pattern_has_expected_dag_shape() {
        // A 2x2 tiled Cholesky: potrf(0), trsm(1,0), syrk(1,1), potrf(1,1).
        let mut reg = HandleRegistry::new();
        let t00 = reg.register("t00");
        let t10 = reg.register("t10");
        let t11 = reg.register("t11");
        let mut g = Submitter::default();
        let (potrf0, trsm, syrk) = (0, 1, 2);
        assert!(g
            .submit("potrf", &[(t00, AccessMode::ReadWrite)])
            .is_empty());
        let trsm_deps = g.submit(
            "trsm",
            &[(t00, AccessMode::Read), (t10, AccessMode::ReadWrite)],
        );
        assert_eq!(trsm_deps, [potrf0]);
        let syrk_deps = g.submit(
            "syrk",
            &[(t10, AccessMode::Read), (t11, AccessMode::ReadWrite)],
        );
        assert_eq!(syrk_deps, [trsm]);
        assert_eq!(g.submit("potrf", &[(t11, AccessMode::ReadWrite)]), [syrk]);
    }
}
