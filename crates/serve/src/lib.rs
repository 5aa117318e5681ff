//! annoda-serve: the ANNODA Figure 5 interface served over HTTP.
//!
//! The paper presents ANNODA as a web application — a single access
//! point where a biologist fills the query form (Figure 5a), reads the
//! integrated annotation view (Figure 5b), and navigates web-links to
//! individual object views (Figure 5c). This crate turns the in-process
//! reproduction into exactly that: a network-served, observable,
//! overload-safe system — on `std::net` alone, no external
//! dependencies.
//!
//! Architecture, front to back:
//!
//! - [`http`] — bounded, *incremental* HTTP/1.1 parsing and response
//!   encoding (every response carries `Date` and `Connection`).
//! - [`shard`] — the serve tier's core: N reactor event loops, each
//!   owning its connections outright — non-blocking reads into
//!   per-connection buffers, buffered writes, and no thread ever parked
//!   on an idle keep-alive socket.
//! - [`cache`] — an epoch-keyed response cache per shard: snapshot
//!   generation → strong `ETag`, identical reads within an epoch served
//!   as pre-serialized bytes, conditional requests answered `304`, and
//!   wholesale invalidation whenever the epoch turns.
//! - [`pool`] — a fixed worker pool behind a *bounded* queue, now a
//!   slow-path compute pool: one job per request, never per connection.
//! - [`routes`] — the Figure 5 screens as routes over a shared
//!   [`annoda::Annoda`], with `Accept`-negotiated text/JSON bodies.
//! - [`server`] — the acceptor: connection cap, least-loaded shard
//!   placement, graceful drain-on-shutdown.
//! - [`metrics`] — per-route counters, log-scale latency histograms
//!   (p50/p99 derivable), cache and shed gauges at `/metrics`.
//! - [`json`] — the crate's own RFC 8259 writer (the build is offline;
//!   no serde).
//! - [`loadgen`] — a loopback load generator (closed- and open-loop)
//!   with a status-code breakdown, for benchmarks and smoke tests.

pub mod cache;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod routes;
pub mod server;
pub mod shard;

pub use cache::{
    etag_for_deps, parse_etag, revalidate_etag, CacheGauges, CacheSnapshot, ResponseCache,
    ShardDeps,
};
pub use json::Json;
pub use loadgen::{
    LoadMode, LoadgenConfig, LoadgenStats, MultiStats, StatusBreakdown, TargetSpec, TargetStats,
};
pub use metrics::{HttpGauges, Metrics, SnapshotGauges, StoreGauges};
pub use pool::{Pool, QueueGauge};
pub use routes::{format_position, handle, negotiate, parse_position, App, Format};
pub use server::{ServeConfig, Server, ShutdownReport};
pub use shard::{Shard, ShardConfig, ShedGauges, ShedSnapshot};
