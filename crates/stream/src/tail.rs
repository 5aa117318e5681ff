//! [`StreamClient`] — one background thread tailing one source's
//! change feed.
//!
//! Connect, subscribe from the last absorbed sequence, then strictly
//! alternate: acknowledge what is absorbed, receive the next batch,
//! absorb it, repeat. An empty batch means caught up (sleep one poll
//! interval); a `bootstrap` batch replaces the local native database
//! with the feed's full dump (the journal compacted past our cursor).
//! Any transport error, frame corruption, or absorb failure tears the
//! connection down and re-subscribes after a backoff — from the last
//! *acked* sequence, so a batch that never finished absorbing is
//! simply replayed.
//!
//! The target address lives behind a mutex and is re-read on every
//! connection attempt ([`StreamClient::set_addr`]), so a feed can fail
//! over to a respawned source-server without restarting the tailer.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use annoda::DurableSystem;
use annoda_federation::proto::{self, Message, ProtoError};

/// Tailer-side tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Per-socket read timeout (the server answers every ack
    /// immediately, so this only trips on a dead source).
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// The feed cadence: the tailer sleeps this long after every ack
    /// round — while caught up *and* after absorbing a batch. Absorb
    /// cost is per batch (one OML re-export, one transactional commit),
    /// so the journal coalescing records during the sleep is what makes
    /// high record rates sustainable; the price is at most this much
    /// extra staleness.
    pub poll_interval: Duration,
    /// Sleep before reconnecting after an error.
    pub backoff: Duration,
    /// Nice value for the tailer thread (Linux: each thread carries its
    /// own). Absorbing a batch burns real CPU — re-export, fuse,
    /// commit — and the feed is background work: on a saturated box it
    /// must lose scheduler quanta to foreground reads, not take them.
    /// The write-phase lock hold is immune to the handicap — readers
    /// blocked on the lock leave the scheduler nothing better to run.
    pub background_nice: i32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(20),
            backoff: Duration::from_millis(100),
            background_nice: 5,
        }
    }
}

/// Lowers the calling thread's scheduling priority (best effort; Linux
/// semantics — `setpriority(PRIO_PROCESS, 0, ..)` targets the calling
/// thread there, and lowering needs no privilege). Declared directly
/// against the C library `std` already links, so no crate dependency.
#[cfg(target_os = "linux")]
fn deprioritize_current_thread(nice: i32) {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    unsafe {
        let _ = setpriority(PRIO_PROCESS, 0, nice);
    }
}

#[cfg(not(target_os = "linux"))]
fn deprioritize_current_thread(_nice: i32) {}

/// Per-source feed gauges, written by the tailer thread and read by
/// `/metrics` and `/healthz` with no lock on the system.
#[derive(Debug)]
pub struct FeedGauges {
    /// The source this feed tails.
    pub source: String,
    /// Last sequence durably absorbed (and acked). 0 = nothing yet.
    pub applied_seq: AtomicU64,
    /// Highest sequence the server has reported or shipped.
    pub head_seq: AtomicU64,
    /// Known outstanding records (`head_seq - applied_seq`); exact at
    /// subscribe time, raised as soon as a batch arrives (before it is
    /// absorbed), zero whenever an empty batch confirms caught-up.
    pub lag_records: AtomicU64,
    /// Microseconds since the feed was last confirmed caught up; 0 when
    /// caught up, pinned to at least 1 while behind.
    pub lag_us: AtomicU64,
    /// Non-empty batches absorbed.
    pub batches: AtomicU64,
    /// Records absorbed across all batches.
    pub records: AtomicU64,
    /// Bootstrap dumps absorbed (journal compacted past our cursor).
    pub bootstraps: AtomicU64,
    /// Connection lifetimes torn down and re-subscribed.
    pub resubscribes: AtomicU64,
    /// Cumulative microseconds spent absorbing (apply plus commit).
    pub absorb_us: AtomicU64,
}

impl FeedGauges {
    fn new(source: &str) -> FeedGauges {
        FeedGauges {
            source: source.to_string(),
            applied_seq: AtomicU64::new(0),
            head_seq: AtomicU64::new(0),
            lag_records: AtomicU64::new(0),
            lag_us: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            records: AtomicU64::new(0),
            bootstraps: AtomicU64::new(0),
            resubscribes: AtomicU64::new(0),
            absorb_us: AtomicU64::new(0),
        }
    }

    /// A coherent-enough point-in-time copy for rendering.
    pub fn snapshot(&self) -> FeedSnapshot {
        FeedSnapshot {
            source: self.source.clone(),
            applied_seq: self.applied_seq.load(Ordering::Acquire),
            head_seq: self.head_seq.load(Ordering::Acquire),
            lag_records: self.lag_records.load(Ordering::Acquire),
            lag_us: self.lag_us.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            resubscribes: self.resubscribes.load(Ordering::Relaxed),
            absorb_us: self.absorb_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`FeedGauges`], for `/metrics` and `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedSnapshot {
    pub source: String,
    pub applied_seq: u64,
    pub head_seq: u64,
    pub lag_records: u64,
    pub lag_us: u64,
    pub batches: u64,
    pub records: u64,
    pub bootstraps: u64,
    pub resubscribes: u64,
    pub absorb_us: u64,
}

/// A running feed subscription. Dropping it stops and joins the tailer
/// thread.
pub struct StreamClient {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    gauges: Arc<FeedGauges>,
    addr: Arc<Mutex<String>>,
}

impl StreamClient {
    /// Starts tailing `source`'s change feed at `addr` into `system`.
    /// `source` must name both the remote wrapper (the server refuses a
    /// mismatched subscription) and the local wrapper the deltas apply
    /// to.
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        source: &str,
        addr: &str,
        config: StreamConfig,
    ) -> StreamClient {
        let stop = Arc::new(AtomicBool::new(false));
        let gauges = Arc::new(FeedGauges::new(source));
        let addr = Arc::new(Mutex::new(addr.to_string()));
        let thread = {
            let stop = Arc::clone(&stop);
            let gauges = Arc::clone(&gauges);
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                deprioritize_current_thread(config.background_nice);
                run(&system, &gauges, &addr, &stop, config)
            })
        };
        StreamClient {
            stop,
            thread: Some(thread),
            gauges,
            addr,
        }
    }

    /// The feed's live gauges.
    pub fn gauges(&self) -> Arc<FeedGauges> {
        Arc::clone(&self.gauges)
    }

    /// Points the tailer at a new address; takes effect on the next
    /// connection attempt (kill the old source and the tailer fails
    /// over by itself).
    pub fn set_addr(&self, addr: &str) {
        *self.addr.lock().expect("addr lock") = addr.to_string();
    }

    /// Stops the tailer thread and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StreamClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Acquires the writer lock without parking while readers are active.
/// A parked writer blocks every later-arriving reader until it has
/// acquired and released (writer preference), so parking behind a slow
/// read would stall the whole serve tier for that read's duration.
/// Spinning with short naps keeps reads flowing through the absorb
/// cycle; the bounded fallback parks, so a steady reader stream cannot
/// starve the feed forever.
fn lock_write_politely(
    system: &RwLock<DurableSystem>,
) -> std::sync::RwLockWriteGuard<'_, DurableSystem> {
    for _ in 0..50 {
        match system.try_write() {
            Ok(guard) => return guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("system lock: {e}"),
        }
    }
    system.write().expect("system lock")
}

fn run(
    system: &RwLock<DurableSystem>,
    gauges: &FeedGauges,
    addr: &Mutex<String>,
    stop: &AtomicBool,
    config: StreamConfig,
) {
    let mut caught_up_at: Option<Instant> = None;
    while !stop.load(Ordering::SeqCst) {
        let target = addr.lock().expect("addr lock").clone();
        match tail_once(system, gauges, &target, stop, config, &mut caught_up_at) {
            Ok(()) => return, // clean stop
            Err(_) => {
                gauges.resubscribes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(config.backoff);
            }
        }
    }
}

/// One subscription lifetime: connect, subscribe, alternate ack/batch
/// until an error (`Err` → re-subscribe) or a clean stop (`Ok`).
fn tail_once(
    system: &RwLock<DurableSystem>,
    gauges: &FeedGauges,
    addr: &str,
    stop: &AtomicBool,
    config: StreamConfig,
    caught_up_at: &mut Option<Instant>,
) -> Result<(), ProtoError> {
    let target = addr
        .parse()
        .map_err(|e| ProtoError::Frame(format!("bad feed address {addr}: {e}")))?;
    let mut conn = TcpStream::connect_timeout(&target, config.connect_timeout)?;
    conn.set_read_timeout(Some(config.read_timeout))?;
    conn.set_write_timeout(Some(config.write_timeout))?;
    let _ = conn.set_nodelay(true);
    proto::send_hello(&mut conn)?;
    proto::expect_hello(&mut conn)?;

    let applied = gauges.applied_seq.load(Ordering::Acquire);
    proto::send(
        &mut conn,
        &Message::SubscribeSource {
            source: gauges.source.clone(),
            from_seq: applied.saturating_add(1),
        },
    )?;
    match proto::recv(&mut conn)? {
        Message::FeedStatus { source, head, .. } if source == gauges.source => {
            gauges.head_seq.store(head, Ordering::Release);
            gauges
                .lag_records
                .store(head.saturating_sub(applied), Ordering::Release);
        }
        other => {
            return Err(ProtoError::Frame(format!(
                "unexpected subscribe reply: {other:?}"
            )))
        }
    }

    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let applied = gauges.applied_seq.load(Ordering::Acquire);
        proto::send(&mut conn, &Message::ChangeAck { seq: applied })?;
        match proto::recv(&mut conn)? {
            Message::ChangeBatch {
                seq,
                bootstrap,
                records,
            } => {
                if records.is_empty() && !bootstrap {
                    // Caught up: the server echoed our cursor.
                    *caught_up_at = Some(Instant::now());
                    gauges.lag_records.store(0, Ordering::Release);
                    gauges.lag_us.store(0, Ordering::Release);
                    std::thread::sleep(config.poll_interval);
                    continue;
                }
                // The batch proves the head is at least `seq`: publish
                // the lag before absorbing, so the gauges read behind
                // for as long as the records wait on the system lock
                // and the commit.
                let head = gauges.head_seq.load(Ordering::Acquire).max(seq);
                gauges.head_seq.store(head, Ordering::Release);
                gauges
                    .lag_records
                    .store(head.saturating_sub(applied), Ordering::Release);
                let absorb_started = Instant::now();
                let absorb_err = |e| ProtoError::Frame(format!("absorb: {e}"));
                // Hold the writer lock only for the record-level apply;
                // the expensive materialise-and-commit is `&self`, so it
                // runs under a reader lock and the serve tier keeps
                // answering queries meanwhile. Either phase failing
                // tears the connection down unacked — the replay
                // re-applies the records idempotently.
                let refreshed = lock_write_politely(system)
                    .absorb_apply(&gauges.source, &records, bootstrap)
                    .map_err(absorb_err)?;
                {
                    let sys = system.read().expect("system lock");
                    sys.absorb_commit(&gauges.source, refreshed)
                        .map_err(absorb_err)?;
                    // Eagerly publish the post-commit snapshot from the
                    // tailer thread: the first query after a commit pays
                    // the reassembly otherwise, and that tail latency
                    // belongs to the feed, not to a reader.
                    let _ = sys.query_snapshot();
                }
                gauges.absorb_us.fetch_add(
                    absorb_started.elapsed().as_micros() as u64,
                    Ordering::Relaxed,
                );
                // Ack-after-absorb: only now may the cursor advance.
                gauges.applied_seq.store(seq, Ordering::Release);
                gauges.batches.fetch_add(1, Ordering::Relaxed);
                gauges
                    .records
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                if bootstrap {
                    gauges.bootstraps.fetch_add(1, Ordering::Relaxed);
                }
                gauges
                    .lag_records
                    .store(head.saturating_sub(seq), Ordering::Release);
                if head <= seq {
                    *caught_up_at = Some(Instant::now());
                    gauges.lag_us.store(0, Ordering::Release);
                } else {
                    let behind_us = caught_up_at
                        .map(|t| t.elapsed().as_micros() as u64)
                        .unwrap_or(0);
                    gauges.lag_us.store(behind_us.max(1), Ordering::Release);
                }
                // Pace the feed: sleep one interval before the next ack
                // so the upstream journal coalesces the next window of
                // records into one batch instead of trickling them in
                // at one commit per record.
                std::thread::sleep(config.poll_interval);
            }
            other => {
                return Err(ProtoError::Frame(format!(
                    "unexpected feed message: {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda::{Annoda, FusionStrategy};
    use annoda_federation::{ChangeJournal, ChangeRecord, ServerConfig, SourceServer};
    use annoda_sources::{Corpus, CorpusConfig};
    use annoda_wrap::{scripted_mutation, OmimWrapper, Wrapper};

    fn fast() -> StreamConfig {
        StreamConfig {
            poll_interval: Duration::from_millis(5),
            backoff: Duration::from_millis(20),
            ..StreamConfig::default()
        }
    }

    fn subscriber(corpus: &Corpus) -> Arc<RwLock<DurableSystem>> {
        let (a, _) = Annoda::over_sources(
            corpus.locuslink.clone(),
            corpus.go.clone(),
            corpus.omim.clone(),
        );
        Arc::new(RwLock::new(DurableSystem::new_sharded(a, 4).unwrap()))
    }

    /// Applies one scripted mutation on the served wrapper, journaling
    /// it — exactly what `source-server --mutate-every` does per tick.
    fn mutate(server: &SourceServer, seed: u64, step: u64) {
        let mut w = server.wrapper().write().unwrap();
        let (key, flat) = scripted_mutation(&mut **w, seed, step).expect("mutable source");
        server.journal().append(ChangeRecord {
            key,
            flat: Some(flat),
        });
        w.refresh();
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    fn omim_dump(sys: &Arc<RwLock<DurableSystem>>) -> Vec<(String, String)> {
        sys.write()
            .unwrap()
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("OMIM")
            .unwrap()
            .change_dump()
            .unwrap()
    }

    #[test]
    fn tailer_absorbs_and_survives_source_failover() {
        let corpus = Corpus::generate(CorpusConfig::tiny(42));
        let wrapper: Box<dyn Wrapper> = Box::new(OmimWrapper::new(corpus.omim.clone()));
        let shared = Arc::new(RwLock::new(wrapper));
        let journal = Arc::new(ChangeJournal::new(64));
        let mut server = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();

        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();

        for step in 0..4 {
            mutate(&server, 7, step);
        }
        wait_until("first 4 changes absorbed", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 4
        });
        {
            let upstream = shared.read().unwrap().change_dump().unwrap();
            assert_eq!(omim_dump(&sys), upstream, "tailing converges");
        }
        // The scripted OMIM revision carries "penetrance" — the
        // incrementally-updated search index must already serve it.
        let hits = sys
            .read()
            .unwrap()
            .search_shared("penetrance", 5, FusionStrategy::Weighted)
            .unwrap();
        assert!(!hits.is_empty(), "streamed text is searchable");

        // Kill the source mid-tail; respawn over the same wrapper and
        // journal on a fresh port (same state, new address) and point
        // the tailer at it. It resumes at the acked sequence: nothing
        // lost, nothing double-applied.
        server.shutdown();
        drop(server);
        let server2 = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        client.set_addr(&server2.addr().to_string());
        for step in 4..9 {
            mutate(&server2, 7, step);
        }
        wait_until("all 9 changes absorbed after failover", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 9
        });
        let upstream = shared.read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "failover converges");
        let snap = gauges.snapshot();
        assert!(snap.resubscribes >= 1, "the outage was observed");
        assert_eq!(snap.records, 9, "each change absorbed exactly once");
        assert_eq!(snap.bootstraps, 0, "resume never needed a dump");
        client.shutdown();
    }

    /// The lag gauge must read behind while a received batch waits to
    /// be absorbed — here, for as long as the test holds the system's
    /// writer lock.
    #[test]
    fn lag_gauge_reads_behind_while_a_batch_waits() {
        let corpus = Corpus::generate(CorpusConfig::tiny(42));
        let wrapper: Box<dyn Wrapper> = Box::new(OmimWrapper::new(corpus.omim.clone()));
        let shared = Arc::new(RwLock::new(wrapper));
        let journal = Arc::new(ChangeJournal::new(64));
        let server = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();
        mutate(&server, 3, 0);
        wait_until("the first change absorbed", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 1
        });

        let held = sys.write().unwrap();
        mutate(&server, 3, 1);
        wait_until("the gauge to see the pending batch", || {
            gauges.lag_records.load(Ordering::Acquire) > 0
        });
        assert_eq!(gauges.head_seq.load(Ordering::Acquire), 2);
        assert_eq!(
            gauges.applied_seq.load(Ordering::Acquire),
            1,
            "still blocked"
        );
        drop(held);
        wait_until("the batch absorbed and the lag cleared", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 2
                && gauges.lag_records.load(Ordering::Acquire) == 0
        });
        client.shutdown();
    }

    #[test]
    fn compacted_journal_forces_bootstrap() {
        let corpus = Corpus::generate(CorpusConfig::tiny(5));
        let wrapper: Box<dyn Wrapper> = Box::new(OmimWrapper::new(corpus.omim.clone()));
        let shared = Arc::new(RwLock::new(wrapper));
        // Cap 2: ten mutations before anyone subscribes compact the
        // journal far past a fresh subscriber's cursor.
        let journal = Arc::new(ChangeJournal::new(2));
        let server = SourceServer::spawn_shared(
            Arc::clone(&shared),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        for step in 0..10 {
            mutate(&server, 11, step);
        }

        let sys = subscriber(&corpus);
        let mut client =
            StreamClient::spawn(Arc::clone(&sys), "OMIM", &server.addr().to_string(), fast());
        let gauges = client.gauges();
        wait_until("bootstrap dump absorbed", || {
            gauges.applied_seq.load(Ordering::Acquire) >= 10
        });
        let upstream = shared.read().unwrap().change_dump().unwrap();
        assert_eq!(omim_dump(&sys), upstream, "bootstrap converges");
        assert!(gauges.snapshot().bootstraps >= 1, "a dump was needed");
        client.shutdown();
    }
}
