//! The reactor shards: N event loops, each owning a set of accepted
//! sockets polled for readiness — no thread ever parks on an idle
//! keep-alive connection.
//!
//! This generalizes the peek-polled idle-session technique from the
//! federation source-server: sockets are non-blocking; each tick the
//! shard drains readable bytes into per-connection buffers, feeds them
//! to the incremental parser ([`crate::http::try_parse`]), and flushes
//! buffered response bytes opportunistically ([`crate::http::encode_response`]
//! serializes into a per-connection outbox, writev-style). A connection
//! costs memory, never a thread.
//!
//! Division of labour per request, front to back:
//!
//! 1. **Inline fast path** (on the shard, microseconds): conditional
//!    requests whose `If-None-Match` matches the live generation get
//!    `304 Not Modified`; cacheable `GET`s that hit the per-shard
//!    [`ResponseCache`] are answered from pre-serialized bytes.
//! 2. **Admission control** (on the shard, before any queueing): a
//!    per-shard in-flight budget and a queue-delay watermark — the
//!    estimated wait `in_flight × EWMA(service time)` against a target
//!    p99 — shed with `503 + Retry-After` *before* latency explodes,
//!    not after.
//! 3. **Slow path** (worker pool): everything else is dispatched as a
//!    one-request job; the worker routes it, records metrics, and posts
//!    the response back to the shard's completion inbox. At most one
//!    dispatched request per connection keeps pipelined responses in
//!    request order.
//!
//! Cache stamping rule: the serving generation is captured **before**
//! the response is computed. A refresh landing mid-computation can only
//! mis-stamp new data as old (harmless — it revalidates), never old
//! data as new.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::cache::{
    etag_for_deps, revalidate_etag, CacheGauges, CacheKey, ResponseCache, ShardDeps,
};
use crate::http::{encode_response, try_parse, Limits, Parsed, Request, RequestError, Response};
use crate::metrics::Metrics;
use crate::pool::Submitter;
use crate::routes::{handle, negotiate, App};

/// Per-shard tuning, derived from [`crate::server::ServeConfig`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Request input bounds.
    pub limits: Limits,
    /// Idle connections (nothing buffered, nothing in flight) are
    /// closed after this long without progress.
    pub read_timeout: Duration,
    /// A connection whose outbox makes no write progress for this long
    /// is closed (slow-reader defence).
    pub write_timeout: Duration,
    /// Requests served per connection before the server closes it.
    pub keep_alive_max_requests: usize,
    /// Cap on parsed-but-unanswered pipelined requests per connection;
    /// beyond it the shard stops reading (TCP backpressure).
    pub pipeline_max: usize,
    /// Per-shard budget of concurrently dispatched (slow-path) requests.
    pub max_in_flight: usize,
    /// Queue-delay watermark: shed once `in_flight × EWMA(service)`
    /// exceeds this.
    pub target_p99: Duration,
    /// Response-cache entries per shard (0 disables caching).
    pub cache_capacity: usize,
    /// The poll tick: how long the shard sleeps when nothing is ready.
    pub poll_interval: Duration,
    /// Test-only artificial handler delay (see `ServeConfig`).
    pub handler_delay: Duration,
}

/// Admission-control counters, shared across shards for `/metrics`.
#[derive(Debug, Default)]
pub struct ShedGauges {
    /// All admission sheds (sum of the three causes).
    pub shed_total: AtomicU64,
    /// Sheds because the worker pool refused the job.
    pub shed_pool_full: AtomicU64,
    /// Sheds because the per-shard in-flight budget was exhausted.
    pub shed_in_flight: AtomicU64,
    /// Sheds because estimated queue delay exceeded the target p99.
    pub shed_queue_delay: AtomicU64,
    /// Requests currently dispatched to the pool (all shards).
    pub in_flight: AtomicU64,
    /// Exponentially weighted moving average of slow-path service time,
    /// microseconds.
    pub service_ewma_us: AtomicU64,
}

/// A point-in-time copy of [`ShedGauges`] for rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedSnapshot {
    /// All admission sheds.
    pub total: u64,
    /// Pool-refusal sheds.
    pub pool_full: u64,
    /// In-flight-budget sheds.
    pub in_flight_budget: u64,
    /// Queue-delay-watermark sheds.
    pub queue_delay: u64,
    /// Currently dispatched slow-path requests.
    pub in_flight_now: u64,
    /// EWMA of slow-path service time, microseconds.
    pub service_ewma_us: u64,
}

impl ShedGauges {
    /// Samples every counter.
    pub fn snapshot(&self) -> ShedSnapshot {
        ShedSnapshot {
            total: self.shed_total.load(Ordering::Relaxed),
            pool_full: self.shed_pool_full.load(Ordering::Relaxed),
            in_flight_budget: self.shed_in_flight.load(Ordering::Relaxed),
            queue_delay: self.shed_queue_delay.load(Ordering::Relaxed),
            in_flight_now: self.in_flight.load(Ordering::Relaxed),
            service_ewma_us: self.service_ewma_us.load(Ordering::Relaxed),
        }
    }
}

/// A finished slow-path request on its way back to the owning shard.
struct Completion {
    conn: u64,
    response: Response,
    /// The generation captured at dispatch — the cache stamp.
    generation: u64,
    /// Where to cache the response and the shard deps the handler
    /// computed it under (cacheable 200s only).
    cache: Option<(CacheKey, ShardDeps)>,
}

#[derive(Default)]
struct Inbox {
    sockets: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// The cross-thread face of a shard: the acceptor pushes sockets, pool
/// workers push completions, the server signals drain.
pub struct ShardShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
    /// Open connections on this shard (least-loaded accept assignment).
    load: AtomicUsize,
    /// Set at shutdown: finish in-flight work by this instant.
    deadline: Mutex<Option<Instant>>,
}

impl ShardShared {
    /// Current open-connection count (accept balancing).
    pub fn load(&self) -> usize {
        self.load.load(Ordering::Relaxed)
    }

    /// Hands an accepted (non-blocking) socket to this shard.
    pub fn enqueue(&self, socket: TcpStream) {
        self.load.fetch_add(1, Ordering::Relaxed);
        let mut inbox = self.inbox.lock().unwrap_or_else(|p| p.into_inner());
        inbox.sockets.push(socket);
        drop(inbox);
        self.wake.notify_all();
    }

    fn complete(&self, completion: Completion) {
        let mut inbox = self.inbox.lock().unwrap_or_else(|p| p.into_inner());
        inbox.completions.push(completion);
        drop(inbox);
        self.wake.notify_all();
    }
}

/// One running reactor shard.
pub struct Shard {
    shared: Arc<ShardShared>,
    thread: thread::JoinHandle<bool>,
}

impl Shard {
    /// Spawns shard `index`'s event loop.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        index: usize,
        app: Arc<App>,
        submit: Submitter,
        generation: Arc<AtomicU64>,
        cache_gauges: Arc<CacheGauges>,
        shed: Arc<ShedGauges>,
        stop: Arc<AtomicBool>,
        config: ShardConfig,
    ) -> Shard {
        let shared = Arc::new(ShardShared {
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
            load: AtomicUsize::new(0),
            deadline: Mutex::new(None),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("annoda-serve-shard-{index}"))
                .spawn(move || {
                    run(
                        &shared,
                        &app,
                        &submit,
                        &generation,
                        cache_gauges,
                        &shed,
                        &stop,
                        &config,
                    )
                })
                .expect("spawn shard")
        };
        Shard { shared, thread }
    }

    /// The shared handle the acceptor and workers use.
    pub fn shared(&self) -> Arc<ShardShared> {
        Arc::clone(&self.shared)
    }

    /// Starts the drain: the shard finishes in-flight requests, flushes
    /// outboxes, and exits — by `deadline` at the latest. The caller
    /// must have set the server-wide stop flag first.
    pub fn begin_drain(&self, deadline: Instant) {
        *self
            .shared
            .deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(deadline);
        self.shared.wake.notify_all();
    }

    /// Waits for the event loop to exit; `true` when it fully drained.
    pub fn join(self) -> bool {
        self.thread.join().unwrap_or(false)
    }
}

/// One connection owned by a shard: socket plus buffers and pipeline
/// state. Never blocks the shard — all I/O is `WouldBlock`-aware.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed.
    inbuf: Vec<u8>,
    /// Serialized response bytes not yet written (the outbox).
    outbuf: Vec<u8>,
    /// Parsed requests awaiting dispatch, in arrival order.
    pending: VecDeque<Request>,
    /// Whether one slow-path request is out at the pool (at most one,
    /// to keep pipelined responses ordered).
    dispatched: bool,
    /// `Connection: close` of the dispatched request, captured before
    /// the request moved into the job.
    dispatched_wants_close: bool,
    /// Requests answered on this connection.
    served: usize,
    /// Close once the outbox is flushed (error paths, `Connection:
    /// close`, keep-alive cap).
    close_after_flush: bool,
    /// The peer half-closed its write side (EOF on read).
    peer_closed: bool,
    /// Last read, write, or completion progress (timeout bookkeeping).
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            dispatched: false,
            dispatched_wants_close: false,
            served: 0,
            close_after_flush: false,
            peer_closed: false,
            last_activity: Instant::now(),
        }
    }

    /// Drains readable bytes into `inbuf` (bounded per tick). `Err`
    /// means the socket is dead.
    fn fill(&mut self, scratch: &mut [u8]) -> Result<(), ()> {
        let mut reads = 0;
        while reads < 4 && !self.peer_closed {
            match self.stream.read(scratch) {
                Ok(0) => self.peer_closed = true,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    self.last_activity = Instant::now();
                    reads += 1;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Writes as much of the outbox as the socket accepts. `Err` means
    /// the socket is dead.
    fn flush(&mut self) -> Result<(), ()> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Serializes an inline (shard-computed) response into the outbox.
    fn answer(
        &mut self,
        response: &Response,
        wants_close: bool,
        stopping: bool,
        config: &ShardConfig,
    ) {
        self.served += 1;
        let keep_alive = !wants_close && !stopping && self.served < config.keep_alive_max_requests;
        encode_response(&mut self.outbuf, response, keep_alive);
        if !keep_alive {
            self.close_after_flush = true;
            self.pending.clear();
        }
        self.last_activity = Instant::now();
    }
}

/// Whether a request may be served from / stored into the response
/// cache: `GET` on the snapshot-derived read routes. Reads pinned to a
/// replication position (`min_position`) are answered against the
/// WAL positions, not the serving epoch the cache is keyed by, so they
/// always take the slow path.
fn cacheable(req: &Request) -> bool {
    req.method == "GET"
        && (req.path == "/genes" || req.path == "/search" || req.path.starts_with("/object/"))
        && !req.query.contains("min_position")
}

/// The cache identity of a request target (path plus raw query).
fn request_target(req: &Request) -> String {
    if req.query.is_empty() {
        req.path.clone()
    } else {
        format!("{}?{}", req.path, req.query)
    }
}

fn error_response(e: &RequestError) -> Response {
    match e {
        RequestError::HeadTooLarge => Response::text(431, "error: request head too large\n"),
        RequestError::BodyTooLarge => Response::text(413, "error: request body too large\n"),
        RequestError::Malformed(msg) => Response::text(400, format!("error: {msg}\n")),
        _ => Response::text(400, "error: bad request\n"),
    }
}

/// The shard event loop. Returns `true` when a requested drain finished
/// cleanly (every connection flushed and closed before the deadline).
#[allow(clippy::too_many_arguments)]
fn run(
    shared: &Arc<ShardShared>,
    app: &Arc<App>,
    submit: &Submitter,
    generation: &Arc<AtomicU64>,
    cache_gauges: Arc<CacheGauges>,
    shed: &Arc<ShedGauges>,
    stop: &Arc<AtomicBool>,
    config: &ShardConfig,
) -> bool {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut cache = ResponseCache::new(config.cache_capacity, cache_gauges);
    let mut next_id = 0u64;
    let mut in_flight = 0usize;
    let mut scratch = vec![0u8; 16 * 1024];

    loop {
        let stopping = stop.load(Ordering::SeqCst);

        // Intake: accepted sockets and finished slow-path responses.
        // Sleep one poll tick when nothing is queued — a completion or
        // a new socket wakes the shard early via the condvar.
        let (sockets, completions) = {
            let mut inbox = shared.inbox.lock().unwrap_or_else(|p| p.into_inner());
            if inbox.sockets.is_empty() && inbox.completions.is_empty() {
                let wait = if conns.is_empty() && !stopping {
                    // Idle shard: tick slowly, the condvar wakes us.
                    Duration::from_millis(20)
                } else {
                    config.poll_interval
                };
                let (guard, _) = shared
                    .wake
                    .wait_timeout(inbox, wait)
                    .unwrap_or_else(|p| p.into_inner());
                inbox = guard;
            }
            (
                std::mem::take(&mut inbox.sockets),
                std::mem::take(&mut inbox.completions),
            )
        };

        for socket in sockets {
            next_id += 1;
            conns.insert(next_id, Conn::new(socket));
        }

        let now = Instant::now();

        // Completions: serialize into the outbox, cache if asked.
        for completion in completions {
            in_flight = in_flight.saturating_sub(1);
            shed.in_flight.fetch_sub(1, Ordering::Relaxed);
            let Some(conn) = conns.get_mut(&completion.conn) else {
                continue; // connection died while the request ran
            };
            conn.dispatched = false;
            if let Some((key, deps)) = completion.cache {
                cache.insert(
                    key,
                    completion.generation,
                    deps,
                    completion.response.clone(),
                );
            }
            let wants_close = conn.dispatched_wants_close;
            conn.answer(&completion.response, wants_close, stopping, config);
        }

        let generation_now = generation.load(Ordering::Acquire);
        // Snapshot the live epoch vector once per tick — cache entries
        // and ETags validate against it without touching the system
        // lock. An app without an epoch handle never caches.
        let epochs_now: Option<Arc<Vec<u64>>> =
            app.epochs.as_ref().map(|handle| Arc::clone(&handle.read()));
        let mut dead: Vec<u64> = Vec::new();

        for (&id, conn) in &mut conns {
            // Read + parse, unless draining or the pipeline is full
            // (not reading is the backpressure).
            if !stopping && !conn.close_after_flush {
                let budget = |conn: &Conn| conn.pending.len() + usize::from(conn.dispatched);
                if budget(conn) < config.pipeline_max && conn.fill(&mut scratch).is_err() {
                    dead.push(id);
                    continue;
                }
                while budget(conn) < config.pipeline_max && !conn.close_after_flush {
                    match try_parse(&conn.inbuf, &config.limits) {
                        Ok(Parsed::NeedMore) => break,
                        Ok(Parsed::Complete { request, consumed }) => {
                            conn.inbuf.drain(..consumed);
                            conn.last_activity = now;
                            conn.pending.push_back(request);
                        }
                        Err(e) => {
                            let response = error_response(&e);
                            encode_response(&mut conn.outbuf, &response, false);
                            conn.close_after_flush = true;
                            conn.inbuf.clear();
                            conn.pending.clear();
                        }
                    }
                }
            }

            // Dispatch the head of the pipeline. Inline answers (cache
            // hit, 304, shed) loop on to the next pending request; a
            // slow-path dispatch stops — one in flight per connection.
            while !conn.dispatched && !conn.close_after_flush {
                let Some(req) = conn.pending.pop_front() else {
                    break;
                };
                let format = negotiate(req.header("accept"));
                let mut cache_key: Option<CacheKey> = None;
                if let (true, Some(format), Some(live_epochs)) =
                    (cacheable(&req), format, epochs_now.as_deref())
                {
                    if let Some(etag) = req
                        .header("if-none-match")
                        .and_then(|h| revalidate_etag(h, generation_now, live_epochs))
                    {
                        // The client's copy is provably current — same
                        // generation and an unchanged epoch sum over its
                        // shard mask — so revalidate without computing.
                        cache.gauges().not_modified.fetch_add(1, Ordering::Relaxed);
                        app.metrics
                            .record(Metrics::route_index(&req.path), 304, Duration::ZERO);
                        let response = Response::not_modified(&etag);
                        conn.answer(&response, req.wants_close(), stopping, config);
                        continue;
                    }
                    let key = CacheKey {
                        target: request_target(&req),
                        format,
                    };
                    if let Some(cached) = cache.lookup(&key, generation_now, live_epochs) {
                        app.metrics.record(
                            Metrics::route_index(&req.path),
                            cached.status,
                            Duration::ZERO,
                        );
                        conn.served += 1;
                        let keep_alive = !req.wants_close()
                            && !stopping
                            && conn.served < config.keep_alive_max_requests;
                        encode_response(&mut conn.outbuf, cached, keep_alive);
                        if !keep_alive {
                            conn.close_after_flush = true;
                            conn.pending.clear();
                        }
                        conn.last_activity = now;
                        continue;
                    }
                    cache_key = Some(key);
                }

                // Admission control — shed before queueing, not after.
                let shed_cause = if in_flight >= config.max_in_flight {
                    Some(&shed.shed_in_flight)
                } else {
                    let ewma = shed.service_ewma_us.load(Ordering::Relaxed);
                    let est_wait_us = in_flight as u64 * ewma;
                    if ewma > 0 && est_wait_us > config.target_p99.as_micros() as u64 {
                        Some(&shed.shed_queue_delay)
                    } else {
                        None
                    }
                };
                if let Some(cause) = shed_cause {
                    cause.fetch_add(1, Ordering::Relaxed);
                    shed_response(app, conn, &req, shed, stopping, config);
                    continue;
                }

                let wants_close = req.wants_close();
                let route_index = Metrics::route_index(&req.path);
                let job = slow_path_job(
                    Arc::clone(app),
                    Arc::clone(shared),
                    Arc::clone(shed),
                    req,
                    id,
                    generation_now,
                    cache_key,
                    config.handler_delay,
                );
                if submit.try_submit(Box::new(job)) {
                    conn.dispatched = true;
                    conn.dispatched_wants_close = wants_close;
                    in_flight += 1;
                    shed.in_flight.fetch_add(1, Ordering::Relaxed);
                } else {
                    // The pool's bounded queue refused: same shed
                    // answer, counted both here and on the pool gauge.
                    shed.shed_pool_full.fetch_add(1, Ordering::Relaxed);
                    shed.shed_total.fetch_add(1, Ordering::Relaxed);
                    app.metrics.record(route_index, 503, Duration::ZERO);
                    conn.answer(&shed_503(), wants_close, stopping, config);
                }
            }

            if conn.flush().is_err() {
                dead.push(id);
                continue;
            }

            // Close sweep.
            let done = conn.outbuf.is_empty() && !conn.dispatched;
            if done && conn.close_after_flush {
                dead.push(id);
                continue;
            }
            // On half-close, answer everything the peer pipelined —
            // parsed or still sitting in the input buffer — before
            // closing. A buffer holding only a partial head can never
            // complete and is left to the idle timeout.
            if done
                && conn.pending.is_empty()
                && (stopping || (conn.peer_closed && conn.inbuf.is_empty()))
            {
                dead.push(id);
                continue;
            }
            let timeout = if conn.outbuf.is_empty() {
                config.read_timeout
            } else {
                config.write_timeout
            };
            if !conn.dispatched && now.duration_since(conn.last_activity) > timeout {
                // Idle keep-alive, stalled drip, or dead reader: close
                // silently, exactly like a socket timeout used to.
                dead.push(id);
            }
        }

        for id in dead {
            conns.remove(&id);
            shared.load.fetch_sub(1, Ordering::Relaxed);
        }

        if stopping {
            if conns.is_empty() {
                return true;
            }
            let deadline = *shared.deadline.lock().unwrap_or_else(|p| p.into_inner());
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false; // connections dropped un-flushed
            }
        }
    }
}

fn shed_503() -> Response {
    let mut response = Response::text(503, "server busy, retry shortly\n");
    response.headers.push(("retry-after", "1".into()));
    response
}

/// Answers one admission-shed request inline and counts it.
fn shed_response(
    app: &Arc<App>,
    conn: &mut Conn,
    req: &Request,
    shed: &Arc<ShedGauges>,
    stopping: bool,
    config: &ShardConfig,
) {
    shed.shed_total.fetch_add(1, Ordering::Relaxed);
    app.metrics
        .record(Metrics::route_index(&req.path), 503, Duration::ZERO);
    let response = shed_503();
    conn.answer(&response, req.wants_close(), stopping, config);
}

/// Builds the pooled job for one slow-path request: route it, record
/// metrics, feed the service-time EWMA, and post the completion back to
/// the owning shard.
#[allow(clippy::too_many_arguments)]
fn slow_path_job(
    app: Arc<App>,
    shared: Arc<ShardShared>,
    shed: Arc<ShedGauges>,
    req: Request,
    conn: u64,
    generation: u64,
    cache_key: Option<CacheKey>,
    handler_delay: Duration,
) -> impl FnOnce() + Send + 'static {
    move || {
        if !handler_delay.is_zero() {
            thread::sleep(handler_delay);
        }
        let t0 = Instant::now();
        let mut response = handle(&app, &req);
        let elapsed = t0.elapsed();
        app.metrics
            .record(Metrics::route_index(&req.path), response.status, elapsed);
        let us = u64::try_from(elapsed.as_micros())
            .unwrap_or(u64::MAX)
            .clamp(1, 3_600_000_000);
        let prev = shed.service_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 { us } else { (prev * 7 + us) / 8 };
        shed.service_ewma_us.store(next, Ordering::Relaxed);
        // Only successful cacheable answers are cached; they carry the
        // strong ETag of the model state they were computed under. An
        // answer without shard deps has no invalidation story, so it is
        // served but never cached.
        let cache = match (cache_key, response.deps) {
            (Some(key), Some(deps)) if response.status == 200 => {
                response
                    .headers
                    .push(("etag", etag_for_deps(generation, deps)));
                Some((key, deps))
            }
            _ => None,
        };
        shared.complete(Completion {
            conn,
            response,
            generation,
            cache,
        });
    }
}
