//! [`LeaderServer`] — the leader's side of the replication stream.
//!
//! A small AFED server (accept loop + bounded worker pool, mirroring
//! `annoda-federation`'s `SourceServer`) that answers exactly three
//! things: `Subscribe` and `ReplicaStatus` with the next shard's
//! `WalBatch` (or that shard's `SnapshotXfer` when the subscriber's
//! position for it is unservable, or `ReplicaRefused` when the
//! subscriber's shard count differs), and `Ping` with `Pong`. Batches
//! are read under the system's *read* lock — shipping never blocks
//! serving, only writes do.

use std::collections::VecDeque;
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use annoda::DurableSystem;
use annoda_federation::proto::{self, Message};
use annoda_persist::crc32;

/// Leader-side tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderConfig {
    /// Worker threads; each owns one subscriber session at a time, so
    /// this bounds the number of concurrently-served replicas.
    pub workers: usize,
    /// Pending-connection queue bound.
    pub queue_capacity: usize,
    /// Per-socket read timeout (idle sessions are reaped past it; the
    /// replica client polls well inside it).
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Byte budget per `WalBatch` (frames; at least one record always
    /// ships when available).
    pub max_batch_bytes: u64,
    /// Test-only fault injection: corrupt the payload of the first `n`
    /// non-empty `WalBatch` frames *after* their checksum is computed —
    /// the subscriber must detect the damage and re-subscribe, never
    /// apply it.
    pub corrupt_first_batches: u64,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            workers: 4,
            queue_capacity: 16,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_batch_bytes: 1 << 20,
            corrupt_first_batches: 0,
        }
    }
}

/// A running replication leader. Dropping it stops and joins every
/// thread.
pub struct LeaderServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

type ConnQueue = Arc<(Mutex<VecDeque<TcpStream>>, Condvar)>;

impl LeaderServer {
    /// Binds `bind` (port 0 for ephemeral) and ships `system`'s shard
    /// WALs to subscribers until shutdown or drop. Fails fast when the
    /// system has no durable store — there is no log to ship.
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        bind: &str,
        config: LeaderConfig,
    ) -> io::Result<LeaderServer> {
        {
            let sys = system.read().expect("system lock");
            if !sys.is_durable() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "replication needs a durable system (no --data-dir, no WAL to ship)",
                ));
            }
        }
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue: ConnQueue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let corrupt_budget = Arc::new(AtomicU64::new(config.corrupt_first_batches));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let system = Arc::clone(&system);
            let corrupt = Arc::clone(&corrupt_budget);
            threads.push(std::thread::spawn(move || {
                worker_loop(&queue, &stop, &system, &corrupt, config)
            }));
        }
        {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, config, &queue, &stop)
            }));
        }
        Ok(LeaderServer {
            addr,
            stop,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, tears down subscriber sessions, joins threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LeaderServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, config: LeaderConfig, queue: &ConnQueue, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                let _ = conn.set_read_timeout(Some(config.read_timeout));
                let _ = conn.set_write_timeout(Some(config.write_timeout));
                let _ = conn.set_nodelay(true);
                let (lock, cvar) = &**queue;
                let mut pending = lock.lock().expect("queue lock");
                if pending.len() >= config.queue_capacity {
                    drop(conn);
                } else {
                    pending.push_back(conn);
                    cvar.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    queue.1.notify_all();
}

fn worker_loop(
    queue: &ConnQueue,
    stop: &AtomicBool,
    system: &RwLock<DurableSystem>,
    corrupt_budget: &AtomicU64,
    config: LeaderConfig,
) {
    let (lock, cvar) = &**queue;
    loop {
        let conn = {
            let mut pending = lock.lock().expect("queue lock");
            loop {
                if let Some(conn) = pending.pop_front() {
                    break conn;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let (next, _timeout) = cvar
                    .wait_timeout(pending, Duration::from_millis(50))
                    .expect("queue lock");
                pending = next;
            }
        };
        serve_subscriber(conn, system, stop, corrupt_budget, config);
    }
}

/// Waits for the next request byte without consuming it, watching the
/// stop flag — a subscriber parked between polls must not pin a worker
/// for the whole read timeout at shutdown.
fn await_request(conn: &TcpStream, stop: &AtomicBool, read_timeout: Duration) -> bool {
    let poll = Duration::from_millis(20).min(read_timeout);
    let _ = conn.set_read_timeout(Some(poll));
    let idle_since = std::time::Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match conn.peek(&mut [0u8; 1]) {
            Ok(0) => return false,
            Ok(_) => {
                let _ = conn.set_read_timeout(Some(read_timeout));
                return true;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if idle_since.elapsed() >= read_timeout {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Computes the reply to a subscriber at per-shard `positions`,
/// scanning shards round-robin from `*next`: the first shard with
/// records to ship gets a batch, the first with an unservable position
/// a snapshot transfer. When every shard is caught up the reply is an
/// empty batch for the last shard scanned. A position vector of the
/// wrong length is refused for good. `None` drops the session (the
/// store is gone or unreadable — the subscriber will reconnect and try
/// again).
fn position_reply(
    system: &RwLock<DurableSystem>,
    positions: &[(u64, u64)],
    next: &mut usize,
    config: &LeaderConfig,
) -> Option<Message> {
    let sys = system.read().expect("system lock");
    let shards = sys.shards().shard_count();
    if positions.len() != shards {
        return Some(Message::ReplicaRefused {
            reason: format!(
                "follower has {} store shards, leader has {shards}; open the follower \
                 with --store-shards {shards} over an empty data dir",
                positions.len()
            ),
        });
    }
    let repl = sys.repl_handle();
    let mut caught_up = None;
    for k in 0..shards {
        let shard = (*next + k) % shards;
        let (generation, from_offset) = positions[shard];
        match sys.read_wal_tail(shard, generation, from_offset, config.max_batch_bytes) {
            Ok(Some(tail)) => {
                let shipped: u64 = tail.records.iter().map(|r| r.len() as u64).sum();
                let empty = tail.records.is_empty();
                let batch = Message::WalBatch {
                    shard,
                    generation: tail.generation,
                    from_offset,
                    records: tail.records,
                    next_offset: tail.next_offset,
                    leader_offset: tail.end_offset,
                    remaining_records: tail.remaining_records,
                };
                if empty {
                    caught_up = Some(batch);
                    continue;
                }
                *next = shard + 1;
                repl.batches_sent.fetch_add(1, Ordering::Relaxed);
                repl.shipped_bytes.fetch_add(shipped, Ordering::Relaxed);
                return Some(batch);
            }
            Ok(None) => {
                let (store, generation) = sys.base_snapshot(shard).ok()?;
                *next = shard + 1;
                repl.snapshot_xfers_sent.fetch_add(1, Ordering::Relaxed);
                return Some(Message::SnapshotXfer {
                    shard,
                    generation,
                    store,
                    sources: sys.source_names(),
                });
            }
            Err(_) => return None,
        }
    }
    caught_up
}

fn serve_subscriber(
    mut conn: TcpStream,
    system: &RwLock<DurableSystem>,
    stop: &AtomicBool,
    corrupt_budget: &AtomicU64,
    config: LeaderConfig,
) {
    if !await_request(&conn, stop, config.read_timeout) {
        return;
    }
    if proto::expect_hello(&mut conn).is_err() || proto::send_hello(&mut conn).is_err() {
        return;
    }
    let mut next_shard = 0;
    while !stop.load(Ordering::SeqCst) {
        if !await_request(&conn, stop, config.read_timeout) {
            return;
        }
        let request = match proto::recv(&mut conn) {
            Ok(msg) => msg,
            Err(_) => return,
        };
        let reply = match request {
            Message::Subscribe { positions } | Message::ReplicaStatus { positions } => {
                match position_reply(system, &positions, &mut next_shard, &config) {
                    Some(reply) => reply,
                    None => return,
                }
            }
            Message::Ping => Message::Pong,
            // Anything else on a replication socket is a protocol
            // violation; drop the session.
            _ => return,
        };
        let batch_with_records = matches!(
            &reply,
            Message::WalBatch { records, .. } if !records.is_empty()
        );
        let sent = if batch_with_records && take_corruption_token(corrupt_budget) {
            send_corrupted(&mut conn, &reply.encode()).is_ok()
        } else {
            proto::send(&mut conn, &reply).is_ok()
        };
        if !sent {
            return;
        }
    }
}

fn take_corruption_token(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// Writes a frame whose header carries the checksum of the *clean*
/// payload but whose body has one byte flipped — exactly what torn or
/// bit-rotted bytes on the wire look like to the subscriber.
fn send_corrupted(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut damaged = payload.to_vec();
    let last = damaged.len() - 1;
    damaged[last] ^= 0x40;
    w.write_all(&head)?;
    w.write_all(&damaged)?;
    w.flush()
}
