//! The HiCMA-style TLR Cholesky as a sequential-task-flow producer for the
//! `task-runtime` pool, mirroring [`tile_la::dag`] for the compressed format:
//! the building blocks [`potrf_tlr`](crate::potrf_tlr) and the `distsim`
//! graph test compose.
//!
//! Diagonal tiles (dense) and strictly-lower off-diagonal tiles (low-rank)
//! live in two typed [`TileStore`]s sharing one [`HandleRegistry`], so a
//! single sink can declare accesses on both through one lower-triangle handle
//! grid. The task order is the dense one — [`cholesky_plan`] — with the
//! compressed kernels, and the factor is bitwise identical for every worker
//! count.

use crate::arithmetic::{lr_aa_t_update, lr_lr_t_update};
use crate::compress::CompressionTol;
use crate::lowrank::LowRankBlock;
use crate::tlr_matrix::TlrMatrix;
use task_runtime::{DataHandle, HandleRegistry, TaskSink, TileStore};
use tile_la::dag::{cholesky_plan, FactorStatus, Kernel};
use tile_la::kernels::{potrf_in_place, trsm_left_lower_notrans};
use tile_la::{DenseMatrix, TileLayout};

/// Move the tiles of `a` out into typed stores keyed by freshly registered
/// handles: `handles[i][j]` (`j ≤ i`) names the dense diagonal tile when
/// `i == j` and the low-rank tile otherwise — the same lower-triangle grid as
/// the dense [`tile_la::dag::detach_tiles`]. Reverse with
/// [`attach_tlr_tiles`].
pub fn detach_tlr_tiles(
    a: &mut TlrMatrix,
    registry: &mut HandleRegistry,
) -> (
    Vec<Vec<DataHandle>>,
    TileStore<DenseMatrix>,
    TileStore<LowRankBlock>,
) {
    let layout = a.layout();
    let nt = layout.num_tiles();
    let mut handles: Vec<Vec<DataHandle>> = Vec::with_capacity(nt);
    let mut diag_store = TileStore::new();
    let mut off_store = TileStore::new();
    for i in 0..nt {
        let bytes = layout.tile_size(i) * layout.tile_size(i) * std::mem::size_of::<f64>();
        let h_ii = registry.register_sized(format!("D[{i}]"), bytes);
        diag_store.insert(h_ii, a.take_diag(i));
        let mut row = Vec::with_capacity(i + 1);
        for j in 0..i {
            let blk = a.take_off(i, j);
            let bytes = blk.stored_elements() * std::mem::size_of::<f64>();
            let h = registry.register_sized(format!("L[{i},{j}]"), bytes);
            off_store.insert(h, blk);
            row.push(h);
        }
        row.push(h_ii);
        handles.push(row);
    }
    (handles, diag_store, off_store)
}

/// Move the tiles of the typed stores back into `a` (inverse of
/// [`detach_tlr_tiles`]; the graph borrowing the stores must have been
/// dropped).
pub fn attach_tlr_tiles(
    a: &mut TlrMatrix,
    handles: &[Vec<DataHandle>],
    diag_store: &mut TileStore<DenseMatrix>,
    off_store: &mut TileStore<LowRankBlock>,
) {
    for (i, row) in handles.iter().enumerate() {
        a.put_diag(i, diag_store.take(row[i]));
        for (j, &h) in row[..i].iter().enumerate() {
            a.put_off(i, j, off_store.take(h));
        }
    }
}

/// Submit the TLR Cholesky factorization — the steps of
/// [`cholesky_plan`] with the compressed kernels — into any [`TaskSink`]
/// (normally the one
/// [`WorkerPool::execute`](task_runtime::WorkerPool::execute) hands out),
/// declaring per-tile accesses. Exposed so `mvn-core` can submit PMVN sweep
/// tasks into the same sink (reading factor tiles while the trailing
/// factorization runs).
#[allow(clippy::too_many_arguments)]
pub fn submit_tlr_factor_tasks<'a, S: TaskSink<'a> + ?Sized>(
    graph: &mut S,
    diag_store: &'a TileStore<DenseMatrix>,
    off_store: &'a TileStore<LowRankBlock>,
    handles: &[Vec<DataHandle>],
    layout: TileLayout,
    tol: CompressionTol,
    max_rank: usize,
    status: &'a FactorStatus,
) {
    for step in cholesky_plan(layout.num_tiles()) {
        let (out, [r0, r1]) = step.handles_in(handles);
        let pivot0 = layout.tile_start(step.out.0);
        let kernel = step.kernel;
        graph.submit_task(
            step.spec(handles, true).cost(step.flops(layout)),
            Some(Box::new(move || {
                if status.is_failed() {
                    return;
                }
                match kernel {
                    Kernel::Potrf => {
                        if let Err(local) = potrf_in_place(&mut diag_store.write(out)) {
                            status.fail(pivot0 + local);
                        }
                    }
                    Kernel::Trsm => {
                        let lkk = diag_store.read(r0);
                        let mut blk = off_store.write(out);
                        if blk.rank() > 0 {
                            trsm_left_lower_notrans(&lkk, &mut blk.v);
                        }
                    }
                    Kernel::Syrk => lr_aa_t_update(&mut diag_store.write(out), &off_store.read(r0)),
                    Kernel::Gemm => {
                        let a_ik = off_store.read(r0);
                        let a_jk = off_store.read(r1);
                        let mut c = off_store.write(out);
                        let updated = lr_lr_t_update(&c, &a_ik, &a_jk, tol, max_rank);
                        *c = updated;
                    }
                }
            })),
        );
    }
}
