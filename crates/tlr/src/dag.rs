//! The HiCMA-style TLR Cholesky as a sequential-task-flow producer for the
//! `task-runtime` pool, mirroring [`tile_la::dag`] for the compressed format:
//! the building blocks [`potrf_tlr`](crate::potrf_tlr) and the fused PMVN
//! pipeline in `mvn-core` compose.
//!
//! Diagonal tiles (dense) and strictly-lower off-diagonal tiles (low-rank)
//! live in two typed [`TileStore`]s sharing one [`HandleRegistry`], so a
//! single sink can declare accesses on both. The task structure is identical
//! to the dense one — `POTRF`/`TRSM`/`SYRK`/`GEMM` per panel — with the
//! compressed kernels, and the factor is bitwise identical for every worker
//! count.

use crate::arithmetic::{lr_aa_t_update, lr_lr_t_update};
use crate::compress::CompressionTol;
use crate::lowrank::LowRankBlock;
use crate::tlr_matrix::TlrMatrix;
use task_runtime::{AccessMode, DataHandle, HandleRegistry, TaskSink, TaskSpec, TileStore};
use tile_la::dag::FactorStatus;
use tile_la::kernels::{potrf_in_place, trsm_left_lower_notrans};
use tile_la::{DenseMatrix, TileLayout};

/// Data handles of a TLR matrix: `diag[i]` for the dense diagonal tile,
/// `off[i][j]` (`j < i`) for the low-rank strictly-lower tiles.
pub struct TlrHandles {
    /// Handles of the dense diagonal tiles.
    pub diag: Vec<DataHandle>,
    /// Handles of the strictly-lower low-rank tiles; `off[i]` has length `i`.
    pub off: Vec<Vec<DataHandle>>,
}

impl TlrHandles {
    /// Handle of tile `(i, j)` through the lower structure (`j ≤ i`).
    pub fn tile(&self, i: usize, j: usize) -> DataHandle {
        if i == j {
            self.diag[i]
        } else {
            self.off[i][j]
        }
    }
}

/// Move the tiles of `a` out into typed stores keyed by freshly registered
/// handles. Reverse with [`attach_tlr_tiles`].
pub fn detach_tlr_tiles(
    a: &mut TlrMatrix,
    registry: &mut HandleRegistry,
) -> (TlrHandles, TileStore<DenseMatrix>, TileStore<LowRankBlock>) {
    let layout = a.layout();
    let nt = layout.num_tiles();
    let mut diag_handles = Vec::with_capacity(nt);
    let mut off_handles: Vec<Vec<DataHandle>> = Vec::with_capacity(nt);
    let mut diag_store = TileStore::new();
    let mut off_store = TileStore::new();
    for i in 0..nt {
        let bytes = layout.tile_size(i) * layout.tile_size(i) * std::mem::size_of::<f64>();
        let h = registry.register_sized(format!("D[{i}]"), bytes);
        diag_store.insert(h, a.take_diag(i));
        diag_handles.push(h);
        let mut row = Vec::with_capacity(i);
        for j in 0..i {
            let blk = a.take_off(i, j);
            let bytes = blk.stored_elements() * std::mem::size_of::<f64>();
            let h = registry.register_sized(format!("L[{i},{j}]"), bytes);
            off_store.insert(h, blk);
            row.push(h);
        }
        off_handles.push(row);
    }
    (
        TlrHandles {
            diag: diag_handles,
            off: off_handles,
        },
        diag_store,
        off_store,
    )
}

/// Move the tiles of the typed stores back into `a` (inverse of
/// [`detach_tlr_tiles`]; the graph borrowing the stores must have been
/// dropped).
pub fn attach_tlr_tiles(
    a: &mut TlrMatrix,
    handles: &TlrHandles,
    diag_store: &mut TileStore<DenseMatrix>,
    off_store: &mut TileStore<LowRankBlock>,
) {
    for (i, &h) in handles.diag.iter().enumerate() {
        a.put_diag(i, diag_store.take(h));
    }
    for (i, row) in handles.off.iter().enumerate() {
        for (j, &h) in row.iter().enumerate() {
            a.put_off(i, j, off_store.take(h));
        }
    }
}

/// Submit the TLR Cholesky factorization into any [`TaskSink`] (normally the
/// one [`WorkerPool::execute`](task_runtime::WorkerPool::execute) hands out),
/// declaring per-tile accesses. Exposed so `mvn-core` can submit PMVN sweep
/// tasks into the same sink (reading factor tiles while the trailing
/// factorization runs).
#[allow(clippy::too_many_arguments)]
pub fn submit_tlr_factor_tasks<'a, S: TaskSink<'a> + ?Sized>(
    graph: &mut S,
    diag_store: &'a TileStore<DenseMatrix>,
    off_store: &'a TileStore<LowRankBlock>,
    handles: &TlrHandles,
    layout: TileLayout,
    tol: CompressionTol,
    max_rank: usize,
    status: &'a FactorStatus,
) {
    let nt = layout.num_tiles();
    for k in 0..nt {
        let nbk = layout.tile_size(k) as f64;
        let h_kk = handles.diag[k];
        let pivot0 = layout.tile_start(k);
        graph.submit_task(
            TaskSpec::new("potrf")
                .access(h_kk, AccessMode::ReadWrite)
                .cost(nbk * nbk * nbk / 3.0),
            Some(Box::new(move || {
                if status.is_failed() {
                    return;
                }
                let mut d = diag_store.write(h_kk);
                if let Err(local) = potrf_in_place(&mut d) {
                    status.fail(pivot0 + local);
                }
            })),
        );

        for i in (k + 1)..nt {
            let h_ik = handles.off[i][k];
            graph.submit_task(
                TaskSpec::new("trsm")
                    .access(h_kk, AccessMode::Read)
                    .access(h_ik, AccessMode::ReadWrite)
                    .cost(nbk * nbk),
                Some(Box::new(move || {
                    if status.is_failed() {
                        return;
                    }
                    let lkk = diag_store.read(h_kk);
                    let mut blk = off_store.write(h_ik);
                    if blk.rank() > 0 {
                        trsm_left_lower_notrans(&lkk, &mut blk.v);
                    }
                })),
            );
        }

        for i in (k + 1)..nt {
            let h_ik = handles.off[i][k];
            for j in (k + 1)..=i {
                if i == j {
                    let h_ii = handles.diag[i];
                    graph.submit_task(
                        TaskSpec::new("syrk")
                            .access(h_ik, AccessMode::Read)
                            .access(h_ii, AccessMode::ReadWrite)
                            .cost(nbk * nbk),
                        Some(Box::new(move || {
                            if status.is_failed() {
                                return;
                            }
                            let a_ik = off_store.read(h_ik);
                            let mut d = diag_store.write(h_ii);
                            lr_aa_t_update(&mut d, &a_ik);
                        })),
                    );
                } else {
                    let h_jk = handles.off[j][k];
                    let h_ij = handles.off[i][j];
                    graph.submit_task(
                        TaskSpec::new("lr_gemm")
                            .access(h_ik, AccessMode::Read)
                            .access(h_jk, AccessMode::Read)
                            .access(h_ij, AccessMode::ReadWrite)
                            .cost(nbk * nbk),
                        Some(Box::new(move || {
                            if status.is_failed() {
                                return;
                            }
                            let a_ik = off_store.read(h_ik);
                            let a_jk = off_store.read(h_jk);
                            let mut c = off_store.write(h_ij);
                            let updated = lr_lr_t_update(&c, &a_ik, &a_jk, tol, max_rank);
                            *c = updated;
                        })),
                    );
                }
            }
        }
    }
}
