//! # mvn-dist — the multi-process distributed MVN runtime
//!
//! `distsim` *models* the paper's 512-node Cray runs; this crate *executes*
//! the same owner-computes task structure for real across N worker
//! processes on one host:
//!
//! * **Ownership.** Every lower tile `(i, j)` of the covariance factor is
//!   owned by exactly one worker under the same 2-D block-cyclic map the
//!   simulator uses ([`distsim::ProcessGrid`]); every step of the one
//!   factorization plan ([`tile_la::dag::cholesky_plan`], which the
//!   single-process submitters and `distsim::taskgen` walk too) is executed
//!   by the owner of its output tile, and sweep panel `p` runs on node
//!   `p % nodes` — both identical to the assignment `distsim::taskgen` feeds
//!   the performance model.
//! * **Transport.** Remote input tiles are fetched over `std`-only TCP with
//!   the bit-exact `f64` framing shared with the serving layer
//!   ([`wire`]), and cached on the requesting side so each tile crosses
//!   each (owner → requester) edge at most once — exactly the transfer
//!   dedup `distsim::sim` models.
//! * **Execution.** Inside each worker the owned task sequence streams
//!   through one [`task_runtime::WorkerPool::execute`] session with
//!   hazard-inferred dependencies, so per-tile kernel order — and therefore
//!   every bit of the factor — matches the single-process DAG. Each step
//!   runs the single-process step body, [`tlr::dag::tlr_step`], on a
//!   [`tlr::Tile`].
//!
//! The headline property is **bitwise identity**: for any node count and
//! worker count, the distributed probability equals
//! `MvnEngine::solve` bit for bit, for dense and TLR factors. The argument
//! (spelled out in DESIGN.md, "Distributed runtime") reduces to two facts:
//! every remote read is of a *final* tile (potrf/trsm outputs; intermediate
//! accumulation versions never leave their owner), and per-tile kernel
//! order is preserved because all writers of a tile share its owner.
//!
//! [`coordinator::solve_dense`]/[`coordinator::solve_tlr`] drive the whole
//! pipeline: spawn N worker processes (the `mvn_dist_worker` binary),
//! handshake, scatter owned initial tiles, collect per-panel sweep results
//! and combine them with the engine's own batching
//! ([`mvn_core::pmvn::combine_panel_results`]).
//!
//! **Fault tolerance.** The coordinator is a supervisor, not just a
//! spawner: with [`coordinator::Recovery`] enabled (the default), a lost
//! worker is detected (process exit, dropped link, failed report) and its
//! rank is respawned: a fresh process *replays* the dead rank's plan slice
//! from initial data ([`plan::rank_slice`]) and serves its tiles again.
//! Because every tile is a pure function of the initial data and its plan
//! prefix, the recovered result is bitwise identical to a fault-free run. The [`faults`] module provides
//! the deterministic injection harness (seeded kills, severed fetches) that
//! keeps those paths honest.

pub mod coordinator;
pub mod faults;
pub mod plan;
pub mod proto;
pub mod store;
pub mod worker;

pub use coordinator::{solve_dense, solve_tlr, DistConfig, DistError, DistReport, Recovery};
pub use faults::{FaultAction, FaultPlan};
pub use plan::{rank_slice, TileId};
pub use worker::run_worker;
