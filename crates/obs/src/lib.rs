//! # obs — workspace-wide observability
//!
//! The cross-cutting measurement layer of the PMVN stack, std-only like the
//! rest of the workspace. Two halves:
//!
//! * [`trace`] — a low-overhead span/event recorder with Chrome-trace
//!   (`chrome://tracing` / Perfetto) JSON export. Off by default; every
//!   instrumented site costs one relaxed atomic load until
//!   [`set_enabled`]`(true)`. The `task-runtime` worker loops, the
//!   `mvn_core` engine phases, the `mvn-service` request lifecycle and the
//!   `mvn-dist` worker phases are instrumented against it, and the
//!   `--trace out.json` flags on `mvn_serve`/`mvn_dist` write the merged
//!   timeline.
//! * [`metrics`] — an always-on registry of named atomic counters and
//!   log-bucketed histograms with p50/p95/p99 extraction, rendered as
//!   Prometheus-style text exposition ([`render_prometheus`]); the serving
//!   layer exposes it over the TCP wire as the `{"metrics":true}` request.
//!
//! Recording never touches the numerics: tracing reads the clock and appends
//! to side buffers, metrics are side counters. Enabling either cannot change
//! a result bit (asserted by the workspace's bitwise non-interference suite).

pub mod metrics;
pub mod trace;

pub use metrics::{counter, histogram, render_prometheus, Counter, Histogram, HIST_BUCKETS};
pub use trace::{
    complete_since, enabled, export_chrome_trace, export_current, intern, now_ns, set_enabled,
    span, span_with, take_events, Event, EventKind, SpanGuard, MAX_ARGS,
};
