//! The tiled Cholesky as a sequential-task-flow producer for the
//! `task-runtime` pool (the paper's StarPU programming model): the building
//! blocks [`potrf_tiled`](crate::potrf_tiled) and the fused PMVN pipeline in
//! `mvn-core` compose.
//!
//! Every lower tile `(i, j)` becomes a [`DataHandle`]; `POTRF`/`TRSM`/`SYRK`/
//! `GEMM` tasks are submitted in program order declaring how they access those
//! handles, and the runtime infers the dependency DAG. There is no global
//! barrier after a panel: the `TRSM`s of panel `k+1` start as soon as *their*
//! inputs are ready, while trailing updates of panel `k` are still in flight,
//! and — crucially for the fused PMVN pipeline in `mvn-core` — consumers
//! outside the factorization can declare read dependencies on individual
//! factor tiles and overlap with it.
//!
//! Every task applies a fixed kernel to fixed tiles in a fixed submission
//! order, so the factor is bitwise identical to the sequential factorization
//! for any worker count.

use crate::dense::DenseMatrix;
use crate::kernels::{gemm_nt, potrf_in_place, syrk_lower, trsm_right_lower_trans};
use crate::layout::TileLayout;
use crate::sym_tile::SymTileMatrix;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use task_runtime::{AccessMode, DataHandle, HandleRegistry, TaskSink, TaskSpec, TileStore};

/// Shared failure state of a factorization task graph.
///
/// When a `POTRF` task hits a non-positive pivot it records the global pivot
/// index here; every task checks the flag on entry and becomes a no-op once it
/// is set ("kill the chain"), so the graph drains quickly instead of operating
/// on garbage tiles. Because all tasks that could observe a failed pivot are
/// transitively ordered after the failing `POTRF`, at most one failure is ever
/// recorded and the reported pivot is deterministic.
#[derive(Debug, Default)]
pub struct FactorStatus {
    failed: AtomicBool,
    pivot: AtomicUsize,
}

impl FactorStatus {
    /// A fresh, non-failed status.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a failure at the given global pivot index (first failure wins).
    pub fn fail(&self, pivot: usize) {
        if !self.failed.swap(true, Ordering::SeqCst) {
            self.pivot.store(pivot, Ordering::SeqCst);
        }
    }

    /// `true` once any task has failed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// The failing global pivot index, if any.
    pub fn pivot(&self) -> Option<usize> {
        if self.is_failed() {
            Some(self.pivot.load(Ordering::SeqCst))
        } else {
            None
        }
    }
}

/// Register one data handle per lower tile `(i, j)` (`j ≤ i`) of a symmetric
/// tile matrix; `handles[i][j]` is the handle of tile `(i, j)`.
pub fn register_tile_handles(
    registry: &mut HandleRegistry,
    layout: TileLayout,
) -> Vec<Vec<DataHandle>> {
    let nt = layout.num_tiles();
    let mut handles: Vec<Vec<DataHandle>> = Vec::with_capacity(nt);
    for i in 0..nt {
        let mut row = Vec::with_capacity(i + 1);
        for j in 0..=i {
            let bytes = layout.tile_size(i) * layout.tile_size(j) * std::mem::size_of::<f64>();
            row.push(registry.register_sized(format!("L[{i},{j}]"), bytes));
        }
        handles.push(row);
    }
    handles
}

/// Move the tiles of `a` out into a [`TileStore`] keyed by freshly registered
/// handles, so task closures can access them concurrently. Reverse with
/// [`attach_tiles`].
pub fn detach_tiles(
    a: &mut SymTileMatrix,
    registry: &mut HandleRegistry,
) -> (Vec<Vec<DataHandle>>, TileStore<DenseMatrix>) {
    let layout = a.layout();
    let handles = register_tile_handles(registry, layout);
    let mut store = TileStore::new();
    for (i, row) in handles.iter().enumerate() {
        for (j, &h) in row.iter().enumerate() {
            store.insert(h, a.take_tile(i, j));
        }
    }
    (handles, store)
}

/// Move the tiles of a [`TileStore`] back into `a` (inverse of
/// [`detach_tiles`]; the graph borrowing the store must have been dropped).
pub fn attach_tiles(
    a: &mut SymTileMatrix,
    handles: &[Vec<DataHandle>],
    store: &mut TileStore<DenseMatrix>,
) {
    for (i, row) in handles.iter().enumerate() {
        for (j, &h) in row.iter().enumerate() {
            a.put_tile(i, j, store.take(h));
        }
    }
}

/// Submit the right-looking tiled Cholesky factorization of the tiles behind
/// `handles` into any [`TaskSink`] (normally the one
/// [`WorkerPool::execute`](task_runtime::WorkerPool::execute) hands out),
/// declaring per-tile read/write accesses.
///
/// The caller owns the [`TileStore`] holding the tiles and the
/// [`FactorStatus`]; after executing the tasks it must check
/// [`FactorStatus::pivot`]. Exposed (rather than folded into
/// [`potrf_tiled`](crate::potrf_tiled)) so `mvn-core` can submit PMVN sweep
/// tasks into the *same* sink with read dependencies on the factor tiles.
pub fn submit_factor_tasks<'a, S: TaskSink<'a> + ?Sized>(
    graph: &mut S,
    store: &'a TileStore<DenseMatrix>,
    handles: &[Vec<DataHandle>],
    layout: TileLayout,
    status: &'a FactorStatus,
) {
    let nt = layout.num_tiles();
    for k in 0..nt {
        let nbk = layout.tile_size(k) as f64;
        let h_kk = handles[k][k];
        let pivot0 = layout.tile_start(k);
        graph.submit_task(
            TaskSpec::new("potrf")
                .access(h_kk, AccessMode::ReadWrite)
                .cost(nbk * nbk * nbk / 3.0),
            Some(Box::new(move || {
                if status.is_failed() {
                    return;
                }
                let mut d = store.write(h_kk);
                if let Err(local) = potrf_in_place(&mut d) {
                    status.fail(pivot0 + local);
                }
            })),
        );

        for i in (k + 1)..nt {
            let h_ik = handles[i][k];
            let nbi = layout.tile_size(i) as f64;
            graph.submit_task(
                TaskSpec::new("trsm")
                    .access(h_kk, AccessMode::Read)
                    .access(h_ik, AccessMode::ReadWrite)
                    .cost(nbi * nbk * nbk),
                Some(Box::new(move || {
                    if status.is_failed() {
                        return;
                    }
                    let lkk = store.read(h_kk);
                    let mut t = store.write(h_ik);
                    trsm_right_lower_trans(&lkk, &mut t);
                })),
            );
        }

        for i in (k + 1)..nt {
            let h_ik = handles[i][k];
            let nbi = layout.tile_size(i) as f64;
            for j in (k + 1)..=i {
                let h_ij = handles[i][j];
                let nbj = layout.tile_size(j) as f64;
                if i == j {
                    graph.submit_task(
                        TaskSpec::new("syrk")
                            .access(h_ik, AccessMode::Read)
                            .access(h_ij, AccessMode::ReadWrite)
                            .cost(nbi * nbi * nbk),
                        Some(Box::new(move || {
                            if status.is_failed() {
                                return;
                            }
                            let lik = store.read(h_ik);
                            let mut t = store.write(h_ij);
                            syrk_lower(-1.0, &lik, 1.0, &mut t);
                        })),
                    );
                } else {
                    let h_jk = handles[j][k];
                    graph.submit_task(
                        TaskSpec::new("gemm")
                            .access(h_ik, AccessMode::Read)
                            .access(h_jk, AccessMode::Read)
                            .access(h_ij, AccessMode::ReadWrite)
                            .cost(2.0 * nbi * nbj * nbk),
                        Some(Box::new(move || {
                            if status.is_failed() {
                                return;
                            }
                            let lik = store.read(h_ik);
                            let ljk = store.read(h_jk);
                            let mut t = store.write(h_ij);
                            gemm_nt(-1.0, &lik, &ljk, 1.0, &mut t);
                        })),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use task_runtime::TaskGraph;

    #[test]
    fn factor_status_records_first_failure_only() {
        let s = FactorStatus::new();
        assert!(!s.is_failed());
        assert_eq!(s.pivot(), None);
        s.fail(7);
        s.fail(3);
        assert_eq!(s.pivot(), Some(7));
    }

    #[test]
    fn task_graph_has_expected_kernel_counts() {
        let spd = |i: usize, j: usize| {
            let d = (i as f64 - j as f64).abs();
            (-d / 5.0).exp() + if i == j { 1e-3 } else { 0.0 }
        };
        let mut a = SymTileMatrix::from_fn(64, 16, spd);
        let layout = a.layout();
        let mut registry = HandleRegistry::new();
        let (handles, store) = detach_tiles(&mut a, &mut registry);
        let status = FactorStatus::new();
        let mut graph = TaskGraph::new();
        submit_factor_tasks(&mut graph, &store, &handles, layout, &status);
        let counts = graph.kernel_counts();
        let nt = 4;
        assert_eq!(counts["potrf"], nt);
        assert_eq!(counts["trsm"], nt * (nt - 1) / 2);
        assert_eq!(counts["syrk"], nt * (nt - 1) / 2);
        assert_eq!(counts["gemm"], 4); // sum over k of C(nt-k-1, 2)
    }
}
