//! Request metrics: per-route counters, fixed log-scale latency
//! histograms with derivable p50/p99, queue pressure, the response
//! cache and admission-control gauges, and the mediator cache stats —
//! rendered in a Prometheus-style text exposition (and JSON, for
//! negotiating clients).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use annoda::{PersistStats, ReplStats, ShardGauges, TxnStats};
use annoda_federation::RemoteStatsSnapshot;
use annoda_mediator::CacheStats;
use annoda_stream::FeedSnapshot;

use crate::cache::CacheSnapshot;
use crate::json::Json;
use crate::pool::QueueGauge;
use crate::shard::ShedSnapshot;

/// The routes the server distinguishes, plus a catch-all.
pub const ROUTES: [&str; 8] = [
    "genes", "lorel", "search", "object", "healthz", "metrics", "admin", "other",
];

/// Ranked-search gauges sampled at scrape time: the shape of the live
/// snapshot's inverted index plus the serve-tier hit counters. Search
/// latency histograms come from the per-route slot (`route="search"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchGauges {
    /// Sources contributing posting lists.
    pub sources: usize,
    /// Text documents indexed.
    pub docs: usize,
    /// Distinct terms across sources.
    pub terms: usize,
    /// Total postings (term, doc) pairs.
    pub postings: usize,
    /// Microseconds the last index build (or segment load) took.
    pub build_us: u64,
    /// Epoch of the snapshot the index was published with.
    pub index_epoch: u64,
    /// `/search` queries answered.
    pub queries: u64,
    /// `/search` queries that matched no locus.
    pub zero_hits: u64,
}

/// Snapshot-serving gauges sampled at scrape time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotGauges {
    /// Epoch of the live GML snapshot (0 when none is built yet).
    pub epoch: u64,
    /// Objects in the served snapshot.
    pub objects: usize,
    /// Process-lifetime full `OemStore` clones
    /// ([`annoda_oem::store_clone_count`]) — flat under warm `/lorel`
    /// traffic, which is the zero-clone property in gauge form.
    pub store_clones_total: u64,
    /// Worker threads the parallel evaluator can use
    /// (`available_parallelism`).
    pub eval_workers: usize,
}

/// Sharded-store gauges sampled at scrape time: one row per store
/// shard (objects, MVCC epoch, WAL segment size) plus the transaction
/// counters — commits and first-writer-wins conflicts.
#[derive(Debug, Clone, Default)]
pub struct StoreGauges {
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<ShardGauges>,
    /// Transaction counters.
    pub txns: TxnStats,
}

/// HTTP serve-tier gauges sampled at scrape time: the response cache,
/// admission control, and the live serving generation (the ETag key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpGauges {
    /// Response-cache counters.
    pub cache: CacheSnapshot,
    /// Admission-control counters.
    pub shed: ShedSnapshot,
    /// The generation responses are currently stamped with.
    pub generation: u64,
}

/// Histogram bucket upper bounds, microseconds — fixed log scale
/// (powers of two from 64 µs to ~33.5 s), so p50/p99 are derivable
/// with bounded relative error at any latency magnitude.
const BUCKETS_US: [u64; 20] = [
    1 << 6,
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
];

#[derive(Default)]
struct Histogram {
    /// One counter per bound in [`BUCKETS_US`] plus the +Inf bucket.
    buckets: [AtomicU64; BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, us: u64) {
        let idx = BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-quantile (0..=1) as a bucket upper bound, microseconds —
    /// the smallest bound whose cumulative count covers `p` of the
    /// observations. Observations past the last bound report the last
    /// bound. `0` when empty.
    fn quantile_us(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = (count as f64 * p).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bound, bucket) in BUCKETS_US.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return *bound;
            }
        }
        BUCKETS_US[BUCKETS_US.len() - 1]
    }
}

#[derive(Default)]
struct RouteMetrics {
    requests: AtomicU64,
    /// Responses with status >= 400.
    errors: AtomicU64,
    latency: Histogram,
}

/// All counters the server maintains.
#[derive(Default)]
pub struct Metrics {
    routes: [RouteMetrics; ROUTES.len()],
    connections: AtomicU64,
}

impl Metrics {
    /// The metrics slot for a request path.
    pub fn route_index(path: &str) -> usize {
        let key = match path {
            "/genes" => "genes",
            "/lorel" => "lorel",
            "/search" => "search",
            "/healthz" => "healthz",
            "/metrics" => "metrics",
            p if p.starts_with("/object/") || p == "/object" => "object",
            p if p.starts_with("/admin/") || p == "/admin" => "admin",
            _ => "other",
        };
        ROUTES.iter().position(|r| *r == key).expect("known key")
    }

    /// Records one served request.
    pub fn record(&self, route_index: usize, status: u16, latency: Duration) {
        let route = &self.routes[route_index];
        route.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            route.errors.fetch_add(1, Ordering::Relaxed);
        }
        route
            .latency
            .observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records an accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests served across routes.
    pub fn requests_total(&self) -> u64 {
        self.routes
            .iter()
            .map(|r| r.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// The text exposition (Prometheus style).
    #[allow(clippy::too_many_arguments)] // one optional gauge block per subsystem
    pub fn render_text(
        &self,
        queue: &QueueGauge,
        http: HttpGauges,
        cache: Option<CacheStats>,
        persist: Option<PersistStats>,
        snapshot: Option<SnapshotGauges>,
        search: Option<SearchGauges>,
        repl: Option<ReplStats>,
        federation: &[(String, RemoteStatsSnapshot)],
        feeds: &[FeedSnapshot],
        store: Option<&StoreGauges>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "annoda_connections_total {}",
            self.connections.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "annoda_queue_depth {}", queue.depth());
        let _ = writeln!(out, "annoda_queue_depth_high_water {}", queue.high_water());
        let _ = writeln!(out, "annoda_rejected_total {}", queue.rejected());
        let _ = writeln!(out, "annoda_serving_generation {}", http.generation);
        let c = http.cache;
        let _ = writeln!(out, "annoda_http_cache_hits_total {}", c.hits);
        let _ = writeln!(out, "annoda_http_cache_misses_total {}", c.misses);
        let _ = writeln!(
            out,
            "annoda_http_cache_not_modified_total {}",
            c.not_modified
        );
        let _ = writeln!(out, "annoda_http_cache_evictions_total {}", c.evictions);
        let _ = writeln!(
            out,
            "annoda_http_cache_epoch_invalidations_total {}",
            c.epoch_invalidations
        );
        let _ = writeln!(
            out,
            "annoda_http_cache_deps_invalidations_total {}",
            c.deps_invalidations
        );
        let _ = writeln!(out, "annoda_http_cache_entries {}", c.entries);
        let s = http.shed;
        let _ = writeln!(out, "annoda_shed_total {}", s.total);
        let _ = writeln!(out, "annoda_shed_pool_full_total {}", s.pool_full);
        let _ = writeln!(
            out,
            "annoda_shed_in_flight_budget_total {}",
            s.in_flight_budget
        );
        let _ = writeln!(out, "annoda_shed_queue_delay_total {}", s.queue_delay);
        let _ = writeln!(out, "annoda_in_flight_requests {}", s.in_flight_now);
        let _ = writeln!(out, "annoda_service_ewma_us {}", s.service_ewma_us);
        for (name, route) in ROUTES.iter().zip(&self.routes) {
            let _ = writeln!(
                out,
                "annoda_requests_total{{route=\"{name}\"}} {}",
                route.requests.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "annoda_errors_total{{route=\"{name}\"}} {}",
                route.errors.load(Ordering::Relaxed)
            );
            let mut cumulative = 0u64;
            for (bound, bucket) in BUCKETS_US.iter().zip(&route.latency.buckets) {
                cumulative += bucket.load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "annoda_latency_us_bucket{{route=\"{name}\",le=\"{bound}\"}} {cumulative}"
                );
            }
            cumulative += route.latency.buckets[BUCKETS_US.len()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "annoda_latency_us_bucket{{route=\"{name}\",le=\"+Inf\"}} {cumulative}"
            );
            let _ = writeln!(
                out,
                "annoda_latency_us_sum{{route=\"{name}\"}} {}",
                route.latency.sum_us.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "annoda_latency_us_count{{route=\"{name}\"}} {}",
                route.latency.count.load(Ordering::Relaxed)
            );
            for (quantile, p) in [("p50", 0.50), ("p99", 0.99)] {
                let _ = writeln!(
                    out,
                    "annoda_latency_us{{route=\"{name}\",quantile=\"{quantile}\"}} {}",
                    route.latency.quantile_us(p)
                );
            }
        }
        if let Some(stats) = cache {
            let _ = writeln!(out, "annoda_mediator_cache_capacity {}", stats.capacity);
            let _ = writeln!(out, "annoda_mediator_cache_entries {}", stats.len);
            let _ = writeln!(out, "annoda_mediator_cache_hits_total {}", stats.hits);
            let _ = writeln!(out, "annoda_mediator_cache_misses_total {}", stats.misses);
            let _ = writeln!(
                out,
                "annoda_mediator_cache_evictions_total {}",
                stats.evictions
            );
            let _ = writeln!(
                out,
                "annoda_mediator_cache_hit_rate {:.4}",
                stats.hit_rate()
            );
        }
        if let Some(p) = persist {
            let _ = writeln!(out, "annoda_persist_generation {}", p.generation);
            let _ = writeln!(
                out,
                "annoda_persist_snapshot_loaded {}",
                u8::from(p.snapshot_loaded)
            );
            let _ = writeln!(
                out,
                "annoda_persist_replayed_records {}",
                p.replayed_records
            );
            let _ = writeln!(out, "annoda_persist_truncated_bytes {}", p.truncated_bytes);
            let _ = writeln!(out, "annoda_persist_wal_bytes {}", p.wal_bytes);
            let _ = writeln!(
                out,
                "annoda_persist_appended_records_total {}",
                p.appended_records
            );
            let _ = writeln!(
                out,
                "annoda_persist_appended_bytes_total {}",
                p.appended_bytes
            );
            let _ = writeln!(out, "annoda_persist_fsyncs_total {}", p.fsyncs);
            let _ = writeln!(out, "annoda_persist_snapshots_total {}", p.snapshots);
        }
        if let Some(s) = snapshot {
            let _ = writeln!(out, "annoda_snapshot_epoch {}", s.epoch);
            let _ = writeln!(out, "annoda_snapshot_objects {}", s.objects);
            let _ = writeln!(out, "annoda_store_clones_total {}", s.store_clones_total);
            let _ = writeln!(out, "annoda_eval_workers {}", s.eval_workers);
        }
        if let Some(s) = search {
            let _ = writeln!(out, "annoda_search_index_sources {}", s.sources);
            let _ = writeln!(out, "annoda_search_index_docs {}", s.docs);
            let _ = writeln!(out, "annoda_search_index_terms {}", s.terms);
            let _ = writeln!(out, "annoda_search_index_postings {}", s.postings);
            let _ = writeln!(out, "annoda_search_index_build_us {}", s.build_us);
            let _ = writeln!(out, "annoda_search_index_epoch {}", s.index_epoch);
            let _ = writeln!(out, "annoda_search_queries_total {}", s.queries);
            let _ = writeln!(out, "annoda_search_zero_hits_total {}", s.zero_hits);
        }
        if let Some(s) = store {
            let _ = writeln!(out, "annoda_store_shards {}", s.shards.len());
            for shard in &s.shards {
                let i = shard.shard;
                let _ = writeln!(
                    out,
                    "annoda_store_shard_objects{{shard=\"{i}\"}} {}",
                    shard.objects
                );
                let _ = writeln!(
                    out,
                    "annoda_store_shard_fragments{{shard=\"{i}\"}} {}",
                    shard.fragments
                );
                let _ = writeln!(
                    out,
                    "annoda_store_shard_epoch{{shard=\"{i}\"}} {}",
                    shard.epoch
                );
                let _ = writeln!(
                    out,
                    "annoda_store_shard_wal_bytes{{shard=\"{i}\"}} {}",
                    shard.wal_bytes
                );
                let _ = writeln!(
                    out,
                    "annoda_store_shard_generation{{shard=\"{i}\"}} {}",
                    shard.generation
                );
            }
            let _ = writeln!(out, "annoda_txn_commits_total {}", s.txns.commits);
            let _ = writeln!(out, "annoda_txn_conflicts_total {}", s.txns.conflicts);
        }
        if let Some(r) = repl {
            // Role as a one-hot enum gauge, Prometheus style.
            let _ = writeln!(
                out,
                "annoda_repl_role{{role=\"leader\"}} {}",
                u8::from(!r.follower)
            );
            let _ = writeln!(
                out,
                "annoda_repl_role{{role=\"follower\"}} {}",
                u8::from(r.follower)
            );
            let _ = writeln!(out, "annoda_repl_leader_offset {}", r.leader_offset);
            let _ = writeln!(out, "annoda_repl_lag_bytes {}", r.lag_bytes);
            let _ = writeln!(out, "annoda_repl_lag_records {}", r.lag_records);
            let _ = writeln!(out, "annoda_repl_lag_us {}", r.lag_us);
            let _ = writeln!(
                out,
                "annoda_repl_snapshot_xfer_bytes_total {}",
                r.snapshot_xfer_bytes
            );
            let _ = writeln!(
                out,
                "annoda_repl_batches_applied_total {}",
                r.batches_applied
            );
            let _ = writeln!(
                out,
                "annoda_repl_records_applied_total {}",
                r.records_applied
            );
            let _ = writeln!(out, "annoda_repl_resubscribes_total {}", r.resubscribes);
            let _ = writeln!(
                out,
                "annoda_repl_snapshot_xfers_sent_total {}",
                r.snapshot_xfers_sent
            );
            let _ = writeln!(out, "annoda_repl_batches_sent_total {}", r.batches_sent);
            let _ = writeln!(out, "annoda_repl_shipped_bytes_total {}", r.shipped_bytes);
        }
        for (source, f) in federation {
            // Breaker state as a one-hot enum gauge, Prometheus style.
            for state in ["closed", "open", "half-open"] {
                let _ = writeln!(
                    out,
                    "annoda_federation_breaker_state{{source=\"{source}\",state=\"{state}\"}} {}",
                    u8::from(f.breaker.as_str() == state)
                );
            }
            let _ = writeln!(
                out,
                "annoda_federation_requests_total{{source=\"{source}\"}} {}",
                f.requests
            );
            let _ = writeln!(
                out,
                "annoda_federation_retries_total{{source=\"{source}\"}} {}",
                f.retries
            );
            let _ = writeln!(
                out,
                "annoda_federation_transport_errors_total{{source=\"{source}\"}} {}",
                f.transport_errors
            );
            let _ = writeln!(
                out,
                "annoda_federation_refusals_total{{source=\"{source}\"}} {}",
                f.refusals
            );
            let _ = writeln!(
                out,
                "annoda_federation_breaker_opens_total{{source=\"{source}\"}} {}",
                f.breaker_opens
            );
            let _ = writeln!(
                out,
                "annoda_federation_fast_failures_total{{source=\"{source}\"}} {}",
                f.fast_failures
            );
            let _ = writeln!(
                out,
                "annoda_federation_wall_us_total{{source=\"{source}\"}} {}",
                f.wall_us_total
            );
            let _ = writeln!(
                out,
                "annoda_federation_last_wall_us{{source=\"{source}\"}} {}",
                f.last_wall_us
            );
        }
        for f in feeds {
            let source = &f.source;
            let _ = writeln!(
                out,
                "annoda_feed_applied_seq{{source=\"{source}\"}} {}",
                f.applied_seq
            );
            let _ = writeln!(
                out,
                "annoda_feed_head_seq{{source=\"{source}\"}} {}",
                f.head_seq
            );
            let _ = writeln!(
                out,
                "annoda_feed_lag_records{{source=\"{source}\"}} {}",
                f.lag_records
            );
            let _ = writeln!(
                out,
                "annoda_feed_lag_us{{source=\"{source}\"}} {}",
                f.lag_us
            );
            let _ = writeln!(
                out,
                "annoda_feed_batches_total{{source=\"{source}\"}} {}",
                f.batches
            );
            let _ = writeln!(
                out,
                "annoda_feed_records_total{{source=\"{source}\"}} {}",
                f.records
            );
            let _ = writeln!(
                out,
                "annoda_feed_bootstraps_total{{source=\"{source}\"}} {}",
                f.bootstraps
            );
            let _ = writeln!(
                out,
                "annoda_feed_resubscribes_total{{source=\"{source}\"}} {}",
                f.resubscribes
            );
            let _ = writeln!(
                out,
                "annoda_feed_absorb_us_total{{source=\"{source}\"}} {}",
                f.absorb_us
            );
        }
        out
    }

    /// The same snapshot as a JSON value.
    #[allow(clippy::too_many_arguments)]
    pub fn render_json(
        &self,
        queue: &QueueGauge,
        http: HttpGauges,
        cache: Option<CacheStats>,
        persist: Option<PersistStats>,
        snapshot: Option<SnapshotGauges>,
        search: Option<SearchGauges>,
        repl: Option<ReplStats>,
        federation: &[(String, RemoteStatsSnapshot)],
        feeds: &[FeedSnapshot],
        store: Option<&StoreGauges>,
    ) -> Json {
        let routes = ROUTES
            .iter()
            .zip(&self.routes)
            .map(|(name, route)| {
                (
                    (*name).to_string(),
                    Json::obj([
                        (
                            "requests",
                            Json::Int(route.requests.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "errors",
                            Json::Int(route.errors.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "latency_us_sum",
                            Json::Int(route.latency.sum_us.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "latency_count",
                            Json::Int(route.latency.count.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "latency_p50_us",
                            Json::Int(route.latency.quantile_us(0.50) as i64),
                        ),
                        (
                            "latency_p99_us",
                            Json::Int(route.latency.quantile_us(0.99) as i64),
                        ),
                    ]),
                )
            })
            .collect();
        let http_json = Json::obj([
            ("generation", Json::Int(http.generation as i64)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Int(http.cache.hits as i64)),
                    ("misses", Json::Int(http.cache.misses as i64)),
                    ("not_modified", Json::Int(http.cache.not_modified as i64)),
                    ("evictions", Json::Int(http.cache.evictions as i64)),
                    (
                        "epoch_invalidations",
                        Json::Int(http.cache.epoch_invalidations as i64),
                    ),
                    (
                        "deps_invalidations",
                        Json::Int(http.cache.deps_invalidations as i64),
                    ),
                    ("entries", Json::Int(http.cache.entries as i64)),
                ]),
            ),
            (
                "shed",
                Json::obj([
                    ("total", Json::Int(http.shed.total as i64)),
                    ("pool_full", Json::Int(http.shed.pool_full as i64)),
                    (
                        "in_flight_budget",
                        Json::Int(http.shed.in_flight_budget as i64),
                    ),
                    ("queue_delay", Json::Int(http.shed.queue_delay as i64)),
                    ("in_flight_now", Json::Int(http.shed.in_flight_now as i64)),
                    (
                        "service_ewma_us",
                        Json::Int(http.shed.service_ewma_us as i64),
                    ),
                ]),
            ),
        ]);
        let cache_json = match cache {
            Some(stats) => Json::obj([
                ("capacity", Json::Int(stats.capacity as i64)),
                ("entries", Json::Int(stats.len as i64)),
                ("hits", Json::Int(stats.hits as i64)),
                ("misses", Json::Int(stats.misses as i64)),
                ("evictions", Json::Int(stats.evictions as i64)),
                ("hit_rate", Json::Float(stats.hit_rate())),
            ]),
            None => Json::Null,
        };
        let persist_json = match persist {
            Some(p) => Json::obj([
                ("generation", Json::Int(p.generation as i64)),
                ("snapshot_loaded", Json::Bool(p.snapshot_loaded)),
                ("replayed_records", Json::Int(p.replayed_records as i64)),
                ("truncated_bytes", Json::Int(p.truncated_bytes as i64)),
                ("wal_bytes", Json::Int(p.wal_bytes as i64)),
                ("appended_records", Json::Int(p.appended_records as i64)),
                ("appended_bytes", Json::Int(p.appended_bytes as i64)),
                ("fsyncs", Json::Int(p.fsyncs as i64)),
                ("snapshots", Json::Int(p.snapshots as i64)),
            ]),
            None => Json::Null,
        };
        let snapshot_json = match snapshot {
            Some(s) => Json::obj([
                ("epoch", Json::Int(s.epoch as i64)),
                ("objects", Json::Int(s.objects as i64)),
                ("store_clones_total", Json::Int(s.store_clones_total as i64)),
                ("eval_workers", Json::Int(s.eval_workers as i64)),
            ]),
            None => Json::Null,
        };
        let search_json = match search {
            Some(s) => Json::obj([
                ("sources", Json::Int(s.sources as i64)),
                ("docs", Json::Int(s.docs as i64)),
                ("terms", Json::Int(s.terms as i64)),
                ("postings", Json::Int(s.postings as i64)),
                ("build_us", Json::Int(s.build_us as i64)),
                ("index_epoch", Json::Int(s.index_epoch as i64)),
                ("queries", Json::Int(s.queries as i64)),
                ("zero_hits", Json::Int(s.zero_hits as i64)),
            ]),
            None => Json::Null,
        };
        let store_json = match store {
            Some(s) => Json::obj([
                (
                    "shards",
                    Json::Arr(
                        s.shards
                            .iter()
                            .map(|shard| {
                                Json::obj([
                                    ("shard", Json::Int(shard.shard as i64)),
                                    ("objects", Json::Int(shard.objects as i64)),
                                    ("fragments", Json::Int(shard.fragments as i64)),
                                    ("epoch", Json::Int(shard.epoch as i64)),
                                    ("wal_bytes", Json::Int(shard.wal_bytes as i64)),
                                    ("generation", Json::Int(shard.generation as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "txn",
                    Json::obj([
                        ("commits", Json::Int(s.txns.commits as i64)),
                        ("conflicts", Json::Int(s.txns.conflicts as i64)),
                    ]),
                ),
            ]),
            None => Json::Null,
        };
        let repl_json = match repl {
            Some(r) => Json::obj([
                (
                    "role",
                    Json::str(if r.follower { "follower" } else { "leader" }),
                ),
                ("leader_offset", Json::Int(r.leader_offset as i64)),
                ("lag_bytes", Json::Int(r.lag_bytes as i64)),
                ("lag_records", Json::Int(r.lag_records as i64)),
                ("lag_us", Json::Int(r.lag_us as i64)),
                (
                    "snapshot_xfer_bytes",
                    Json::Int(r.snapshot_xfer_bytes as i64),
                ),
                ("batches_applied", Json::Int(r.batches_applied as i64)),
                ("records_applied", Json::Int(r.records_applied as i64)),
                ("resubscribes", Json::Int(r.resubscribes as i64)),
                (
                    "snapshot_xfers_sent",
                    Json::Int(r.snapshot_xfers_sent as i64),
                ),
                ("batches_sent", Json::Int(r.batches_sent as i64)),
                ("shipped_bytes", Json::Int(r.shipped_bytes as i64)),
            ]),
            None => Json::Null,
        };
        let federation_json = Json::Obj(
            federation
                .iter()
                .map(|(source, f)| {
                    (
                        source.clone(),
                        Json::obj([
                            ("breaker", Json::Str(f.breaker.as_str().to_string())),
                            ("requests", Json::Int(f.requests as i64)),
                            ("retries", Json::Int(f.retries as i64)),
                            ("transport_errors", Json::Int(f.transport_errors as i64)),
                            ("refusals", Json::Int(f.refusals as i64)),
                            ("breaker_opens", Json::Int(f.breaker_opens as i64)),
                            ("fast_failures", Json::Int(f.fast_failures as i64)),
                            ("wall_us_total", Json::Int(f.wall_us_total as i64)),
                            ("last_wall_us", Json::Int(f.last_wall_us as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        let feeds_json = Json::Obj(
            feeds
                .iter()
                .map(|f| {
                    (
                        f.source.clone(),
                        Json::obj([
                            ("applied_seq", Json::Int(f.applied_seq as i64)),
                            ("head_seq", Json::Int(f.head_seq as i64)),
                            ("lag_records", Json::Int(f.lag_records as i64)),
                            ("lag_us", Json::Int(f.lag_us as i64)),
                            ("batches", Json::Int(f.batches as i64)),
                            ("records", Json::Int(f.records as i64)),
                            ("bootstraps", Json::Int(f.bootstraps as i64)),
                            ("resubscribes", Json::Int(f.resubscribes as i64)),
                            ("absorb_us", Json::Int(f.absorb_us as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            (
                "connections",
                Json::Int(self.connections.load(Ordering::Relaxed) as i64),
            ),
            ("queue_depth", Json::Int(queue.depth() as i64)),
            (
                "queue_depth_high_water",
                Json::Int(queue.high_water() as i64),
            ),
            ("rejected", Json::Int(queue.rejected() as i64)),
            ("http", http_json),
            ("routes", Json::Obj(routes)),
            ("mediator_cache", cache_json),
            ("persist", persist_json),
            ("snapshot", snapshot_json),
            ("search", search_json),
            ("replication", repl_json),
            ("federation", federation_json),
            ("feeds", feeds_json),
            ("store", store_json),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_map_to_slots() {
        assert_eq!(ROUTES[Metrics::route_index("/genes")], "genes");
        assert_eq!(ROUTES[Metrics::route_index("/lorel")], "lorel");
        assert_eq!(ROUTES[Metrics::route_index("/search")], "search");
        assert_eq!(ROUTES[Metrics::route_index("/object/gene/TP53")], "object");
        assert_eq!(ROUTES[Metrics::route_index("/healthz")], "healthz");
        assert_eq!(ROUTES[Metrics::route_index("/metrics")], "metrics");
        assert_eq!(ROUTES[Metrics::route_index("/admin/refresh")], "admin");
        assert_eq!(ROUTES[Metrics::route_index("/admin/snapshot")], "admin");
        assert_eq!(ROUTES[Metrics::route_index("/nope")], "other");
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::default();
        let gauge = QueueGauge::default();
        m.record(
            Metrics::route_index("/genes"),
            200,
            Duration::from_micros(800),
        );
        m.record(
            Metrics::route_index("/genes"),
            400,
            Duration::from_micros(80),
        );
        m.record(
            Metrics::route_index("/object/x/y"),
            404,
            Duration::from_secs(2),
        );
        assert_eq!(m.requests_total(), 3);
        let http = HttpGauges {
            cache: CacheSnapshot {
                hits: 12,
                misses: 4,
                not_modified: 2,
                evictions: 1,
                epoch_invalidations: 3,
                deps_invalidations: 7,
                entries: 5,
            },
            shed: ShedSnapshot {
                total: 6,
                pool_full: 1,
                in_flight_budget: 2,
                queue_delay: 3,
                in_flight_now: 4,
                service_ewma_us: 750,
            },
            generation: 9,
        };
        let text = m.render_text(
            &gauge,
            http,
            Some(CacheStats {
                capacity: 256,
                len: 3,
                hits: 9,
                misses: 1,
                evictions: 0,
            }),
            Some(PersistStats {
                generation: 2,
                snapshot_loaded: true,
                replayed_records: 5,
                truncated_bytes: 12,
                wal_bytes: 340,
                appended_records: 7,
                appended_bytes: 280,
                fsyncs: 7,
                snapshots: 1,
            }),
            Some(SnapshotGauges {
                epoch: 4,
                objects: 120,
                store_clones_total: 6,
                eval_workers: 2,
            }),
            Some(SearchGauges {
                sources: 3,
                docs: 48,
                terms: 210,
                postings: 530,
                build_us: 1_450,
                index_epoch: 4,
                queries: 17,
                zero_hits: 2,
            }),
            Some(ReplStats {
                follower: true,
                leader_offset: 1_500,
                lag_bytes: 287,
                lag_records: 4,
                lag_us: 950,
                snapshot_xfer_bytes: 4_096,
                batches_applied: 8,
                records_applied: 40,
                resubscribes: 1,
                snapshot_xfers_sent: 0,
                batches_sent: 0,
                shipped_bytes: 0,
            }),
            &[(
                "OMIM".to_string(),
                RemoteStatsSnapshot {
                    requests: 11,
                    retries: 3,
                    transport_errors: 4,
                    refusals: 1,
                    breaker_opens: 1,
                    fast_failures: 2,
                    wall_us_total: 9_000,
                    last_wall_us: 700,
                    breaker: annoda_federation::BreakerState::Open,
                },
            )],
            &[FeedSnapshot {
                source: "OMIM".to_string(),
                applied_seq: 42,
                head_seq: 45,
                lag_records: 3,
                lag_us: 1_800,
                batches: 6,
                records: 42,
                bootstraps: 1,
                resubscribes: 2,
                absorb_us: 5_400,
            }],
            Some(&StoreGauges {
                shards: vec![
                    ShardGauges {
                        shard: 0,
                        objects: 61,
                        fragments: 20,
                        epoch: 5,
                        wal_bytes: 900,
                        generation: 2,
                    },
                    ShardGauges {
                        shard: 1,
                        objects: 58,
                        fragments: 19,
                        epoch: 3,
                        wal_bytes: 700,
                        generation: 1,
                    },
                ],
                txns: TxnStats {
                    commits: 9,
                    conflicts: 2,
                },
            }),
        );
        assert!(
            text.contains("annoda_requests_total{route=\"genes\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("annoda_errors_total{route=\"genes\"} 1"),
            "{text}"
        );
        // Log-scale buckets: 80us lands at le=128; 800us joins it
        // cumulatively at le=1024.
        assert!(text.contains("annoda_latency_us_bucket{route=\"genes\",le=\"128\"} 1"));
        assert!(text.contains("annoda_latency_us_bucket{route=\"genes\",le=\"1024\"} 2"));
        // The 2s observation: above 2^20 us, within 2^21 us.
        assert!(text.contains("annoda_latency_us_bucket{route=\"object\",le=\"1048576\"} 0"));
        assert!(text.contains("annoda_latency_us_bucket{route=\"object\",le=\"2097152\"} 1"));
        // Quantiles derive from the buckets: of the two genes
        // observations (80us, 800us), p50 covers the first bucket and
        // p99 the second.
        assert!(
            text.contains("annoda_latency_us{route=\"genes\",quantile=\"p50\"} 128"),
            "{text}"
        );
        assert!(
            text.contains("annoda_latency_us{route=\"genes\",quantile=\"p99\"} 1024"),
            "{text}"
        );
        // The serve-tier gauges.
        assert!(text.contains("annoda_serving_generation 9"));
        assert!(text.contains("annoda_http_cache_hits_total 12"));
        assert!(text.contains("annoda_http_cache_misses_total 4"));
        assert!(text.contains("annoda_http_cache_not_modified_total 2"));
        assert!(text.contains("annoda_http_cache_evictions_total 1"));
        assert!(text.contains("annoda_http_cache_epoch_invalidations_total 3"));
        assert!(text.contains("annoda_shed_total 6"));
        assert!(text.contains("annoda_shed_pool_full_total 1"));
        assert!(text.contains("annoda_shed_in_flight_budget_total 2"));
        assert!(text.contains("annoda_shed_queue_delay_total 3"));
        assert!(text.contains("annoda_in_flight_requests 4"));
        assert!(text.contains("annoda_service_ewma_us 750"));
        assert!(text.contains("annoda_mediator_cache_hits_total 9"));
        assert!(text.contains("annoda_mediator_cache_hit_rate 0.9000"));
        assert!(text.contains("annoda_queue_depth_high_water 0"));
        assert!(text.contains("annoda_persist_generation 2"));
        assert!(text.contains("annoda_persist_snapshot_loaded 1"));
        assert!(text.contains("annoda_persist_replayed_records 5"));
        assert!(text.contains("annoda_persist_wal_bytes 340"));
        assert!(text.contains("annoda_snapshot_epoch 4"));
        assert!(text.contains("annoda_snapshot_objects 120"));
        assert!(text.contains("annoda_store_clones_total 6"));
        assert!(text.contains("annoda_eval_workers 2"));
        assert!(text.contains("annoda_search_index_sources 3"));
        assert!(text.contains("annoda_search_index_docs 48"));
        assert!(text.contains("annoda_search_index_terms 210"));
        assert!(text.contains("annoda_search_index_postings 530"));
        assert!(text.contains("annoda_search_index_build_us 1450"));
        assert!(text.contains("annoda_search_index_epoch 4"));
        assert!(text.contains("annoda_search_queries_total 17"));
        assert!(text.contains("annoda_search_zero_hits_total 2"));
        assert!(text.contains("annoda_repl_role{role=\"follower\"} 1"));
        assert!(text.contains("annoda_repl_role{role=\"leader\"} 0"));
        assert!(text.contains("annoda_repl_leader_offset 1500"));
        assert!(text.contains("annoda_repl_lag_bytes 287"));
        assert!(text.contains("annoda_repl_lag_records 4"));
        assert!(text.contains("annoda_repl_lag_us 950"));
        assert!(text.contains("annoda_repl_snapshot_xfer_bytes_total 4096"));
        assert!(text.contains("annoda_repl_batches_applied_total 8"));
        assert!(text.contains("annoda_repl_records_applied_total 40"));
        assert!(text.contains("annoda_repl_resubscribes_total 1"));
        assert!(text.contains("annoda_http_cache_deps_invalidations_total 7"));
        assert!(text.contains("annoda_store_shards 2"));
        assert!(text.contains("annoda_store_shard_objects{shard=\"0\"} 61"));
        assert!(text.contains("annoda_store_shard_epoch{shard=\"1\"} 3"));
        assert!(text.contains("annoda_store_shard_wal_bytes{shard=\"0\"} 900"));
        assert!(text.contains("annoda_store_shard_generation{shard=\"1\"} 1"));
        assert!(text.contains("annoda_txn_commits_total 9"));
        assert!(text.contains("annoda_txn_conflicts_total 2"));
        assert!(
            text.contains("annoda_federation_breaker_state{source=\"OMIM\",state=\"open\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("annoda_federation_breaker_state{source=\"OMIM\",state=\"closed\"} 0")
        );
        assert!(text.contains("annoda_federation_requests_total{source=\"OMIM\"} 11"));
        assert!(text.contains("annoda_federation_retries_total{source=\"OMIM\"} 3"));
        assert!(text.contains("annoda_federation_transport_errors_total{source=\"OMIM\"} 4"));
        assert!(text.contains("annoda_federation_breaker_opens_total{source=\"OMIM\"} 1"));
        assert!(text.contains("annoda_federation_wall_us_total{source=\"OMIM\"} 9000"));
        assert!(text.contains("annoda_federation_last_wall_us{source=\"OMIM\"} 700"));
        assert!(text.contains("annoda_feed_applied_seq{source=\"OMIM\"} 42"));
        assert!(text.contains("annoda_feed_head_seq{source=\"OMIM\"} 45"));
        assert!(text.contains("annoda_feed_lag_records{source=\"OMIM\"} 3"));
        assert!(text.contains("annoda_feed_lag_us{source=\"OMIM\"} 1800"));
        assert!(text.contains("annoda_feed_batches_total{source=\"OMIM\"} 6"));
        assert!(text.contains("annoda_feed_records_total{source=\"OMIM\"} 42"));
        assert!(text.contains("annoda_feed_bootstraps_total{source=\"OMIM\"} 1"));
        assert!(text.contains("annoda_feed_resubscribes_total{source=\"OMIM\"} 2"));
        assert!(text.contains("annoda_feed_absorb_us_total{source=\"OMIM\"} 5400"));

        let json = m
            .render_json(&gauge, http, None, None, None, None, None, &[], &[], None)
            .to_text();
        assert!(
            json.contains("\"genes\":{\"requests\":2,\"errors\":1"),
            "{json}"
        );
        assert!(json.contains("\"mediator_cache\":null"));
        assert!(json.contains("\"persist\":null"));
        assert!(json.contains("\"snapshot\":null"));
        assert!(json.contains("\"search\":null"));
        assert!(json.contains("\"replication\":null"));
        assert!(json.contains("\"store\":null"));
        assert!(json.contains("\"federation\":{}"));
        assert!(json.contains("\"feeds\":{}"));
        assert!(json.contains("\"generation\":9"), "{json}");
        assert!(json.contains("\"not_modified\":2"), "{json}");
        assert!(json.contains("\"in_flight_budget\":2"), "{json}");
        assert!(json.contains("\"latency_p50_us\":128"), "{json}");

        let json = m
            .render_json(
                &gauge,
                HttpGauges::default(),
                None,
                None,
                None,
                None,
                None,
                &[("GO".to_string(), RemoteStatsSnapshot::default())],
                &[FeedSnapshot {
                    source: "LocusLink".to_string(),
                    applied_seq: 9,
                    head_seq: 9,
                    lag_records: 0,
                    lag_us: 0,
                    batches: 4,
                    records: 9,
                    bootstraps: 0,
                    resubscribes: 1,
                    absorb_us: 2_100,
                }],
                None,
            )
            .to_text();
        assert!(
            json.contains("\"federation\":{\"GO\":{\"breaker\":\"closed\""),
            "{json}"
        );
        assert!(
            json.contains("\"feeds\":{\"LocusLink\":{\"applied_seq\":9,\"head_seq\":9"),
            "{json}"
        );
    }
}
