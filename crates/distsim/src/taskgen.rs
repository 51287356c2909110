//! Generation of the distributed task graphs: the tiled Cholesky factorization
//! (dense or TLR) followed by the PMVN sweep, with per-task flop costs and
//! per-handle byte sizes.
//!
//! Task costs are expressed in *flops* (the simulator converts them into
//! seconds using the node specification), handle sizes in bytes (used for
//! communication costs).
//!
//! **The modelled sweep is not the executed one.** [`pmvn_task_graph`] models
//! the paper's StarPU sweep: per panel and row block, a `qmc` task on the
//! diagonal tile and one `panel_gemm` per later row block, each reading one
//! factor tile, so a panel's early row blocks can start before the
//! factorization ends. Nothing in this workspace executes that graph: the
//! engine and `mvn-dist` factor first, then run one `panel_sweep` task per
//! panel against the finished factor. Modelling the executed form instead —
//! one task per panel reading every factor tile — breaks the Fig. 7 trend at
//! n = 25,600, nb = 320, N = 10,000: every rank that owns a panel must
//! receive the whole factor, so the simulated wall goes from 1.22 s (16
//! nodes) / 0.57 s (128 nodes) to 8.70 s / 8.42 s, against 0.59 s / 0.31 s
//! for the factorization alone. Whether the model is recalibrated against
//! the runtime or deleted is decided separately; until then its sweep stays
//! the paper's.

use crate::cluster::ClusterSpec;
use task_runtime::{AccessMode, DataHandle, HandleRegistry, TaskGraph, TaskSpec};
use tile_la::dag::{cholesky_plan, Kernel, Step, TileId};
use tile_la::TileLayout;

// The dense/TLR storage vocabulary is shared with the serving layer; it is
// defined once in `mvn_core` so the simulator's cost model and the server's
// factor requests cannot drift apart.
pub use mvn_core::FactorKind;

/// Description of the problem whose execution is being modelled.
#[derive(Debug, Clone, Copy)]
pub struct ProblemSpec {
    /// MVN dimension `n` (number of spatial locations).
    pub n: usize,
    /// Tile size `nb`.
    pub tile_size: usize,
    /// QMC sample count `N`.
    pub qmc_samples: usize,
    /// Sample-panel width `m`.
    pub panel_width: usize,
    /// Dense or TLR factorization.
    pub kind: FactorKind,
}

/// A task graph together with the data-placement information the simulator
/// needs.
pub struct DistributedWorkload {
    /// The dependency graph with flop costs (pure structure, no closures).
    pub graph: TaskGraph,
    /// Registered data handles (tiles, panel blocks) with byte sizes.
    pub registry: HandleRegistry,
    /// Owner node of each handle, indexed by handle id.
    pub owner: Vec<usize>,
    /// Node on which each task executes, indexed by task id.
    pub exec_node: Vec<usize>,
}

/// A plausible mean off-diagonal rank at compression tolerance 1e-3, given the
/// tile size and the correlation strength (matching the trend of Fig. 5).
pub fn typical_mean_rank(tile_size: usize, strong_correlation: bool) -> usize {
    let base = (tile_size as f64).sqrt() * if strong_correlation { 0.4 } else { 1.2 };
    (base.round() as usize).clamp(2, tile_size)
}

fn tile_bytes(rows: usize, cols: usize) -> usize {
    rows * cols * 8
}

/// The tiling of the problem dimension (the last tile may be partial).
fn layout_of(spec: &ProblemSpec) -> TileLayout {
    TileLayout::new(spec.n, spec.tile_size)
}

/// Modelled bytes of factor tile `(i, j)`: dense, or — off the diagonal of
/// a TLR factor — the two `size × mean_rank` low-rank factors.
fn factor_tile_bytes(kind: FactorKind, layout: TileLayout, (i, j): TileId) -> usize {
    let (rows, cols) = (layout.tile_size(i), layout.tile_size(j));
    match kind {
        FactorKind::Tlr { mean_rank } if i != j => tile_bytes(rows + cols, mean_rank),
        FactorKind::Dense | FactorKind::Tlr { .. } => tile_bytes(rows, cols),
        FactorKind::Vecchia { .. } => unreachable!("vecchia uses its own graph builder"),
    }
}

/// Modelled flops of one plan step: the dense count for a dense factor and
/// for every `potrf`; the compressed kernels at `mean_rank` for TLR.
fn step_flops(kind: FactorKind, layout: TileLayout, step: &Step) -> f64 {
    let r = match kind {
        FactorKind::Dense => return step.flops(layout),
        FactorKind::Tlr { mean_rank } => mean_rank as f64,
        FactorKind::Vecchia { .. } => unreachable!("vecchia uses its own graph builder"),
    };
    let size = |t: usize| layout.tile_size(t) as f64;
    let (nbi, nbj, nbk) = (size(step.out.0), size(step.out.1), size(step.panel()));
    match step.kernel {
        Kernel::Potrf => step.flops(layout),
        // Only the panel-side factor of the low-rank tile is solved.
        Kernel::Trsm => nbk * nbk * r,
        Kernel::Syrk => 2.0 * nbk * r * r + 2.0 * nbi * nbi * r,
        // Low-rank product + QR-based recompression.
        Kernel::Gemm => 15.0 * (nbi + nbj) * r * r,
    }
}

/// Generate the tiled Cholesky factorization DAG for the given problem, mapped
/// onto the cluster with the 2-D block-cyclic distribution.
pub fn cholesky_task_graph(spec: &ProblemSpec, cluster: &ClusterSpec) -> DistributedWorkload {
    cholesky_with_tiles(spec, cluster).0
}

/// Internal builder that also returns the per-tile data handles, so the PMVN
/// sweep can reference the factor tiles it reads. The task order, accesses
/// and labels are those of [`cholesky_plan`] — the steps the executed dense
/// and TLR factorizations submit — priced by [`step_flops`].
fn cholesky_with_tiles(
    spec: &ProblemSpec,
    cluster: &ClusterSpec,
) -> (DistributedWorkload, Vec<Vec<DataHandle>>) {
    if let FactorKind::Vecchia { m } = spec.kind {
        // The Vecchia "factorization" has no inter-tile dependency structure
        // at all — n independent m×m conditioning solves — so it gets its own
        // builder instead of the tiled plan.
        return vecchia_with_blocks(spec, cluster, m);
    }
    let layout = layout_of(spec);
    let nt = layout.num_tiles();
    let low_rank = matches!(spec.kind, FactorKind::Tlr { .. });

    let mut registry = HandleRegistry::new();
    let mut owner = Vec::new();
    // Handle per lower tile (i, j), j <= i.
    let tiles: Vec<Vec<DataHandle>> = (0..nt)
        .map(|i| {
            (0..=i)
                .map(|j| {
                    owner.push(cluster.tile_owner(i, j));
                    let bytes = factor_tile_bytes(spec.kind, layout, (i, j));
                    registry.register_sized(format!("L[{i},{j}]"), bytes)
                })
                .collect()
        })
        .collect();

    let mut graph = TaskGraph::new();
    let mut exec_node = Vec::new();
    for step in cholesky_plan(nt) {
        graph.submit(
            step.spec(&tiles, low_rank)
                .cost(step_flops(spec.kind, layout, &step)),
        );
        exec_node.push(cluster.tile_owner(step.out.0, step.out.1));
    }

    (
        DistributedWorkload {
            graph,
            registry,
            owner,
            exec_node,
        },
        tiles,
    )
}

/// Vecchia analogue of [`cholesky_with_tiles`]: one handle per row block of
/// conditioning coefficients (`O(nb·m)` bytes) and one dependency-free
/// `cond_solve` task per block — the embarrassingly parallel build that makes
/// the format linear in `n`.
fn vecchia_with_blocks(
    spec: &ProblemSpec,
    cluster: &ClusterSpec,
    m: usize,
) -> (DistributedWorkload, Vec<Vec<DataHandle>>) {
    let layout = layout_of(spec);
    let nt = layout.num_tiles();
    let mf = m as f64;

    let mut registry = HandleRegistry::new();
    let mut owner = Vec::new();
    let mut blocks: Vec<Vec<DataHandle>> = vec![Vec::new(); nt];
    for (i, row) in blocks.iter_mut().enumerate() {
        // Coefficients (f64) + neighbor indices (u32) + conditional sds.
        let rows = layout.tile_size(i);
        let bytes = rows * m * 12 + rows * 8;
        let h = registry.register_sized(format!("V[{i}]"), bytes);
        row.push(h);
        owner.push(cluster.tile_owner(i, 0));
    }

    let mut graph = TaskGraph::new();
    let mut exec_node = Vec::new();
    for (i, row) in blocks.iter().enumerate() {
        // One m×m conditioning solve per row: Cholesky (m³/3) plus two
        // triangular solves (2m²) each. No cross-block dependencies.
        let cost = layout.tile_size(i) as f64 * (mf * mf * mf / 3.0 + 2.0 * mf * mf);
        graph.submit(
            TaskSpec::new("cond_solve")
                .access(row[0], AccessMode::ReadWrite)
                .cost(cost),
        );
        exec_node.push(cluster.tile_owner(i, 0));
    }

    (
        DistributedWorkload {
            graph,
            registry,
            owner,
            exec_node,
        },
        blocks,
    )
}

/// Generate the full MVN-integration DAG: Cholesky factorization followed by
/// the PMVN sweep over all sample panels.
pub fn pmvn_task_graph(spec: &ProblemSpec, cluster: &ClusterSpec) -> DistributedWorkload {
    let (mut wl, tiles) = cholesky_with_tiles(spec, cluster);
    let layout = layout_of(spec);
    let nt = layout.num_tiles();
    let size = |t: usize| layout.tile_size(t) as f64;
    let w = spec.panel_width;
    let wf = w as f64;
    let n_panels = spec.qmc_samples.div_ceil(w);

    // The QMC special-function cost per element (Phi + Phi^{-1} evaluations).
    const PHI_FLOPS: f64 = 60.0;

    if let FactorKind::Vecchia { m } = spec.kind {
        // Sparse conditioning sweep: per panel, one task per row block of
        // ordered steps, each reading the block's coefficients and chained on
        // the previous block's simulated values (the recursion is sequential
        // in the ordering; panels stay independent).
        for p in 0..n_panels {
            let panel_node = p % cluster.nodes;
            let mut prev: Option<DataHandle> = None;
            for r in 0..nt {
                let h = wl.registry.register_sized(
                    format!("panel{p}_block{r}"),
                    tile_bytes(layout.tile_size(r), w),
                );
                wl.owner.push(panel_node);
                let cost = 2.0 * size(r) * m as f64 * wf + PHI_FLOPS * size(r) * wf;
                let mut t = TaskSpec::new("vecchia_sweep")
                    .access(tiles[r][0], AccessMode::Read)
                    .access(h, AccessMode::ReadWrite)
                    .cost(cost);
                if let Some(ph) = prev {
                    t = t.access(ph, AccessMode::Read);
                }
                wl.graph.submit(t);
                wl.exec_node.push(panel_node);
                prev = Some(h);
            }
        }
        return wl;
    }

    for p in 0..n_panels {
        let panel_node = p % cluster.nodes;
        // One handle per row block of this panel's A/Y data.
        let mut panel_blocks = Vec::with_capacity(nt);
        for r in 0..nt {
            let h = wl.registry.register_sized(
                format!("panel{p}_block{r}"),
                tile_bytes(layout.tile_size(r), w),
            );
            wl.owner.push(panel_node);
            panel_blocks.push(h);
        }
        for r in 0..nt {
            // QMC kernel on row block r of this panel.
            let qmc_cost = 0.5 * size(r) * size(r) * wf + PHI_FLOPS * size(r) * wf;
            wl.graph.submit(
                TaskSpec::new("qmc")
                    .access(tiles[r][r], AccessMode::Read)
                    .access(panel_blocks[r], AccessMode::ReadWrite)
                    .cost(qmc_cost),
            );
            wl.exec_node.push(panel_node);
            // Propagation GEMMs to the later row blocks. The propagation uses
            // the dense representation of the factor tiles in the paper (A/B
            // are non-admissible), so it stays dense in the TLR variant too.
            for j in (r + 1)..nt {
                wl.graph.submit(
                    TaskSpec::new("panel_gemm")
                        .access(tiles[j][r], AccessMode::Read)
                        .access(panel_blocks[r], AccessMode::Read)
                        .access(panel_blocks[j], AccessMode::ReadWrite)
                        .cost(2.0 * size(j) * size(r) * wf),
                );
                wl.exec_node.push(panel_node);
            }
        }
    }
    wl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize, kind: FactorKind) -> ProblemSpec {
        spec_nb(n, 320, kind)
    }

    fn spec_nb(n: usize, tile_size: usize, kind: FactorKind) -> ProblemSpec {
        ProblemSpec {
            n,
            tile_size,
            qmc_samples: 1000,
            panel_width: 100,
            kind,
        }
    }

    #[test]
    fn cholesky_task_counts_match_tile_counts() {
        let cluster = ClusterSpec::cray_xc40(4);
        let s = spec(3200, FactorKind::Dense); // nt = 10
        let wl = cholesky_task_graph(&s, &cluster);
        let nt = 10;
        let counts = wl.graph.kernel_counts();
        assert_eq!(counts["potrf"], nt);
        assert_eq!(counts["trsm"], nt * (nt - 1) / 2);
        // syrk: one per diagonal tile per panel; gemm: strictly-lower updates.
        assert_eq!(counts["syrk"], nt * (nt - 1) / 2);
        assert_eq!(
            counts["gemm"],
            (0..nt)
                .map(|k| {
                    let m = nt - k - 1;
                    m * (m + 1) / 2 - m
                })
                .sum::<usize>()
        );
        assert_eq!(wl.exec_node.len(), wl.graph.len());
        assert!(wl.exec_node.iter().all(|&n| n < 4));
    }

    #[test]
    fn a_partial_last_tile_is_priced_at_its_size() {
        // n = 330 at nb = 320: the second tile row holds 10 indices, and the
        // model must price it so rather than as a full 320 × 320 tile.
        let cluster = ClusterSpec::cray_xc40(2);
        let s = spec(330, FactorKind::Dense);
        let layout = TileLayout::new(330, 320);
        let wl = cholesky_task_graph(&s, &cluster);
        let want: f64 = cholesky_plan(2).map(|t| t.flops(layout)).sum();
        assert_eq!(wl.graph.total_cost(), want);
        let bytes = 8 * (320 * 320 + 10 * 320 + 10 * 10);
        assert_eq!(wl.registry.total_bytes(), bytes);
    }

    #[test]
    fn the_model_graph_is_the_executed_graph() {
        // The simulated factorization and `potrf_tlr`'s submission — on a
        // dense and on a TLR matrix — walk one plan: task by task, the same
        // labels and the same dependencies.
        use task_runtime::TileStore;
        use tile_la::dag::{register_tile_handles, submit_steps, FactorStatus};
        use tlr::dag::tlr_step;
        use tlr::{CompressionTol, Tile};

        let cluster = ClusterSpec::cray_xc40(3);
        // nt = 1, 2, 5, 7 at nb = 4; the last layout ends in a 3-wide tile.
        for n in [4usize, 8, 20, 27] {
            let nb = 4;
            let layout = TileLayout::new(n, nb);
            let status = FactorStatus::new();
            let store = TileStore::<Tile>::new();
            // What `potrf_tlr` submits under `compression` (recording only:
            // no task runs, so the store stays empty).
            let executed = |compression: Option<(CompressionTol, usize)>| {
                let handles = register_tile_handles(&mut HandleRegistry::new(), layout);
                let mut graph = TaskGraph::new();
                submit_steps(
                    &mut graph,
                    &store,
                    &handles,
                    layout,
                    &status,
                    compression.is_some(),
                    move |step, out, reads| tlr_step(step, out, reads, layout, compression),
                );
                graph
            };
            let executed_dense = executed(None);
            let executed_tlr = executed(Some((CompressionTol::Absolute(1e-8), nb)));

            for (kind, executed) in [
                (FactorKind::Dense, &executed_dense),
                (FactorKind::Tlr { mean_rank: 2 }, &executed_tlr),
            ] {
                let model = cholesky_task_graph(&spec_nb(n, nb, kind), &cluster).graph;
                assert_eq!(model.len(), executed.len(), "n = {n}, {kind:?}");
                for i in 0..model.len() {
                    assert_eq!(model.spec(i).name, executed.spec(i).name, "task {i}");
                    assert_eq!(
                        model.dependencies(i),
                        executed.dependencies(i),
                        "n = {n}, {kind:?}, task {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tlr_cholesky_has_lower_total_cost_than_dense() {
        let cluster = ClusterSpec::cray_xc40(4);
        let dense = cholesky_task_graph(&spec(6400, FactorKind::Dense), &cluster);
        let tlr = cholesky_task_graph(&spec(6400, FactorKind::Tlr { mean_rank: 20 }), &cluster);
        assert!(tlr.graph.total_cost() < dense.graph.total_cost() * 0.5);
        // And the storage of off-diagonal tiles is smaller too.
        assert!(tlr.registry.total_bytes() < dense.registry.total_bytes());
    }

    #[test]
    fn pmvn_graph_extends_cholesky_graph() {
        let cluster = ClusterSpec::cray_xc40(2);
        let s = spec(1600, FactorKind::Dense); // nt = 5
        let chol = cholesky_task_graph(&s, &cluster);
        let full = pmvn_task_graph(&s, &cluster);
        assert!(full.graph.len() > chol.graph.len());
        let counts = full.graph.kernel_counts();
        let nt = 5;
        let n_panels = 10;
        assert_eq!(counts["qmc"], nt * n_panels);
        assert_eq!(counts["panel_gemm"], n_panels * nt * (nt - 1) / 2);
    }

    #[test]
    fn vecchia_graphs_have_the_sparse_shape() {
        // The Vecchia build is nt independent conditioning-solve tasks (no
        // panel factorization at all), and the pmvn sweep is one sequential
        // chain of nt tasks per panel — O(n·m) storage against the dense
        // O(n²/2).
        let cluster = ClusterSpec::cray_xc40(4);
        let s = spec(3200, FactorKind::Vecchia { m: 30 }); // nt = 10, 10 panels
        let (nt, n_panels) = (10usize, 10usize);

        let build = cholesky_task_graph(&s, &cluster);
        let counts = build.graph.kernel_counts();
        assert_eq!(counts["cond_solve"], nt);
        assert_eq!(build.graph.len(), nt, "no potrf/trsm/syrk in the build");
        for i in 0..build.graph.len() {
            assert!(
                build.graph.dependencies(i).is_empty(),
                "conditioning solves are embarrassingly parallel"
            );
        }
        let dense = cholesky_task_graph(&spec(3200, FactorKind::Dense), &cluster);
        assert!(build.registry.total_bytes() < dense.registry.total_bytes() / 4);

        let full = pmvn_task_graph(&s, &cluster);
        let counts = full.graph.kernel_counts();
        assert_eq!(counts["vecchia_sweep"], nt * n_panels);
        assert_eq!(full.graph.len(), nt + nt * n_panels);
        // Within a panel the sweep is a chain: every task after the first
        // depends on its predecessor (the recursion is sequential in the
        // ordering); the first block only waits on its coefficients.
        for p in 0..n_panels {
            let base = nt + p * nt;
            for r in 1..nt {
                assert!(
                    full.graph.dependencies(base + r).contains(&(base + r - 1)),
                    "panel {p} block {r} must chain on block {}",
                    r - 1
                );
            }
        }
    }

    #[test]
    fn qmc_tasks_depend_on_the_factorization() {
        let cluster = ClusterSpec::cray_xc40(2);
        let s = ProblemSpec {
            n: 640,
            tile_size: 320,
            qmc_samples: 100,
            panel_width: 100,
            kind: FactorKind::Dense,
        };
        let wl = pmvn_task_graph(&s, &cluster);
        // Find the first qmc task and check it has at least one dependency
        // (the potrf of its diagonal tile).
        let qmc_idx = (0..wl.graph.len())
            .find(|&i| wl.graph.spec(i).name == "qmc")
            .unwrap();
        assert!(!wl.graph.dependencies(qmc_idx).is_empty());
    }

    #[test]
    fn typical_rank_trends() {
        assert!(typical_mean_rank(980, true) < typical_mean_rank(980, false));
        assert!(typical_mean_rank(320, false) <= 320);
        assert!(typical_mean_rank(100, true) >= 2);
    }

    #[test]
    fn larger_problems_produce_more_expensive_graphs() {
        let cluster = ClusterSpec::cray_xc40(8);
        let small = pmvn_task_graph(&spec(3200, FactorKind::Dense), &cluster);
        let large = pmvn_task_graph(&spec(9600, FactorKind::Dense), &cluster);
        assert!(large.graph.total_cost() > small.graph.total_cost() * 5.0);
    }
}
