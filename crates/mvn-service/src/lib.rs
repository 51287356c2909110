//! # mvn-service — a sharded, micro-batching MVN probability server
//!
//! The library crates answer *one* probability query at a time for *one*
//! caller; this crate is the serving layer that turns them into a system
//! that takes concurrent traffic. The paper's CRD workload is exactly the
//! traffic shape it targets — many probability queries against few
//! covariance matrices — and Cao et al. (2020) observe that the expensive,
//! reusable artifact in that workload is the Cholesky factorization. The
//! service is built around those two facts:
//!
//! * **Factor cache** ([`cache`]): covariances are named by deterministic
//!   [fingerprints](spec::CovSpec::fingerprint) of their specification, and
//!   each shard keeps an LRU cache of factored matrices (capacity in bytes),
//!   so repeated CRD traffic skips re-factorization entirely.
//! * **Cross-spec micro-batcher** ([`service`]): concurrently submitted
//!   problems are coalesced into a single
//!   [`MvnEngine::solve_batch_mixed`](mvn_core::MvnEngine::solve_batch_mixed)
//!   task graph *across* fingerprints — a foreign request joins the batch
//!   whenever its factor is cache-resident. The batcher is work-conserving:
//!   a batch is what is queued when the dispatcher looks (up to a size
//!   cap), never something it waits for — with the engine's guarantee that
//!   a batched solve is bitwise identical to a direct `solve`. Requests may
//!   carry deadlines (expired ones are shed with a typed
//!   [`ServiceError::DeadlineExceeded`]), and hot factors can be
//!   [warmed and pinned](MvnService::warm) ahead of a burst.
//! * **Sharded dispatch over one worker pool** ([`service`]): N shards, each
//!   a queue, a dispatcher and a cache; requests are routed by fingerprint
//!   so a factor lives on one shard. Every shard's engine runs on the
//!   service's single worker pool, so whichever shard has a batch gets
//!   every core. Bounded queues reject with a typed
//!   [`ServiceError::Overloaded`] (admission control), and [`ServiceStats`]
//!   snapshots queue depth, the batch-size histogram, cache hit rate and
//!   the pool's counters.
//! * **TCP front-end** ([`tcp`]): a std-only, line-delimited JSON protocol
//!   (and the matching [`ServiceClient`]) so the service can sit behind a
//!   socket; `mvn-bench`'s `mvn_serve` binary pairs it with a closed-loop
//!   load generator.
//!
//! ```no_run
//! use mvn_service::{CovSpec, MvnService, ServiceConfig, SpecHandle};
//! use geostat::{regular_grid, CovarianceKernel};
//!
//! let service = MvnService::start(ServiceConfig::default()).unwrap();
//! let spec = SpecHandle::new(CovSpec::dense(
//!     regular_grid(8, 8),
//!     CovarianceKernel::Exponential { sigma2: 1.0, range: 0.1 },
//!     1e-8,
//!     16,
//! ));
//! let n = 64;
//! let out = service.solve(&spec, &vec![0.0; n], &vec![f64::INFINITY; n]).unwrap();
//! println!("P = {} (cache {})", out.result.prob, if out.cache_hit { "hit" } else { "miss" });
//! ```

pub mod cache;
pub mod service;
pub mod spec;
pub mod tcp;

pub use cache::{CacheStats, FactorCache};
// The JSON value type and bit-exact f64 encoding moved to the shared `wire`
// crate (the distributed runtime's tile transport uses the same bits);
// re-exported here so `mvn_service::json::...` paths keep working.
pub use service::{
    CacheOpOutput, MvnService, ServiceConfig, ServiceError, ServiceStats, ShardStats, SolveOutput,
    SpecHandle, Ticket, BATCH_HIST_BUCKETS,
};
pub use spec::{CovSpec, FactorFingerprint};
pub use tcp::{
    render_metrics_request, render_solve_request, render_solve_request_deadline,
    render_stats_request, render_warm_request, MvnServer, ServiceClient,
};
pub use wire::json;
pub use wire::Json;
