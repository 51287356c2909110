//! # pmvn — parallel high-dimensional MVN probabilities & confidence regions
//!
//! Umbrella crate re-exporting the whole stack so examples and downstream users
//! can depend on a single crate:
//!
//! * [`mathx`] — special functions (Φ, Φ⁻¹, erfc, ln Γ, K_ν),
//! * [`qmc`] — quasi-Monte-Carlo point sets and RNG streams,
//! * [`task_runtime`] — the sequential-task-flow runtime (dependency-inferred
//!   task graphs, the one worker pool, typed tile store),
//! * [`tile_la`] — tiled dense linear algebra: tile kernels and the tiled
//!   Cholesky's task order and dense step,
//! * [`tlr`] — the one tiled matrix, dense or tile low-rank: its assembly
//!   ([`tlr::TlrMatrix::assemble`]) and its Cholesky,
//! * [`geostat`] — covariance models, field simulation, posterior, MLE, wind data,
//! * [`mvn_core`] — the SOV / PMVN probability algorithms behind one solver
//!   session, [`mvn_core::MvnEngine`] (factor an assembled matrix once with
//!   [`mvn_core::MvnEngine::factor`], then [`mvn_core::MvnEngine::solve`]
//!   against the factor),
//! * [`excursion`] — confidence-region detection and MC validation,
//! * [`wire`] — the shared bit-exact JSON/f64 wire layer,
//! * [`mvn_service`] — the sharded, micro-batching probability server,
//! * [`mvn_dist`] — the real multi-process distributed runtime.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and
//! the paper-reproduction map.

pub use excursion;
pub use geostat;
pub use mathx;
pub use mvn_core;
pub use mvn_dist;
pub use mvn_service;
pub use qmc;
pub use task_runtime;
pub use tile_la;
pub use tlr;
pub use wire;
