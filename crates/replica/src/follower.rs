//! [`ReplicaClient`] — the follower's side of the replication stream.
//!
//! One background thread: connect, subscribe from the local durable
//! per-shard positions (or from impossible positions to force snapshot
//! transfers when the local WALs are not a trusted replica), then poll
//! — one `ReplicaStatus` per applied shard batch, sleeping briefly
//! while caught up. Any transport error, frame corruption, or position
//! the leader cannot serve tears the connection down and re-subscribes
//! from the last *durably applied* positions; a damaged batch is never
//! applied, so the follower can lag but never diverge.
//!
//! The thread exits on [`ReplicaClient::shutdown`]/drop, on its own
//! when the node stops being a follower (promotion), or when the
//! leader refuses the subscription for good (a different shard count,
//! recorded in [`ReplShared::refusal`]).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use annoda::{DurableSystem, ReplShared, Role};
use annoda_federation::proto::{self, Message, ProtoError};
use annoda_persist::encode_store;

/// Follower-side tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Per-socket read timeout (the leader answers every poll
    /// immediately, so this only trips on a dead leader).
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Sleep between polls while caught up (an empty batch came back).
    pub poll_interval: Duration,
    /// Sleep before reconnecting after an error.
    pub backoff: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(20),
            backoff: Duration::from_millis(100),
        }
    }
}

/// A running replica subscription. Dropping it stops and joins the
/// shipping thread.
pub struct ReplicaClient {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaClient {
    /// Starts shipping `leader_addr`'s WAL into `system` (which must
    /// have been opened with [`DurableSystem::open_follower`]).
    pub fn spawn(
        system: Arc<RwLock<DurableSystem>>,
        leader_addr: &str,
        config: ReplicaConfig,
    ) -> ReplicaClient {
        let stop = Arc::new(AtomicBool::new(false));
        let repl = system.read().expect("system lock").repl_handle();
        let addr = leader_addr.to_string();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run(&system, &repl, &addr, &stop, config))
        };
        ReplicaClient {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the shipping thread and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicaClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(
    system: &RwLock<DurableSystem>,
    repl: &ReplShared,
    leader_addr: &str,
    stop: &AtomicBool,
    config: ReplicaConfig,
) {
    let mut caught_up_at: Option<Instant> = None;
    while !stop.load(Ordering::SeqCst) && repl.role() == Role::Follower {
        match stream_once(system, repl, leader_addr, stop, config, &mut caught_up_at) {
            Ok(()) => return, // clean exit: stopped or promoted
            Err(_) => {
                repl.resubscribes.fetch_add(1, Ordering::Relaxed);
                // Lag clock keeps running across the outage.
                std::thread::sleep(config.backoff);
            }
        }
    }
}

/// One subscription lifetime: connect, subscribe, poll until an error
/// (`Err` → re-subscribe) or a clean stop (`Ok`).
fn stream_once(
    system: &RwLock<DurableSystem>,
    repl: &ReplShared,
    leader_addr: &str,
    stop: &AtomicBool,
    config: ReplicaConfig,
    caught_up_at: &mut Option<Instant>,
) -> Result<(), ProtoError> {
    let addr = leader_addr
        .parse()
        .map_err(|e| ProtoError::Frame(format!("bad leader address {leader_addr}: {e}")))?;
    let mut conn = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
    conn.set_read_timeout(Some(config.read_timeout))?;
    conn.set_write_timeout(Some(config.write_timeout))?;
    let _ = conn.set_nodelay(true);
    proto::send_hello(&mut conn)?;
    proto::expect_hello(&mut conn)?;

    // Resume from the local durable positions when they are a trusted
    // replica of the leader's logs; otherwise subscribe from positions
    // no log can serve, forcing snapshot transfers.
    let mut positions = {
        let sys = system.read().expect("system lock");
        sys.replica_resume_position()
            .unwrap_or_else(|| vec![(u64::MAX, 0); sys.shards().shard_count()])
    };
    proto::send(
        &mut conn,
        &Message::Subscribe {
            positions: positions.clone(),
        },
    )?;
    // Per shard: (leader log end, applied offset, records not yet
    // shipped) as of that shard's last batch.
    let mut lag = vec![(0u64, 0u64, 0u64); positions.len()];

    loop {
        if stop.load(Ordering::SeqCst) || repl.role() != Role::Follower {
            return Ok(());
        }
        match proto::recv(&mut conn)? {
            Message::SnapshotXfer {
                shard,
                generation,
                store,
                sources,
            } => {
                let bytes = encode_store(&store).len() as u64;
                let mut sys = system.write().expect("system lock");
                let base = sys
                    .install_replica_snapshot(shard, store, generation, &sources)
                    .map_err(|e| ProtoError::Frame(format!("snapshot install: {e}")))?;
                repl.snapshot_xfer_bytes.fetch_add(bytes, Ordering::Relaxed);
                positions[shard] = (generation, base);
            }
            Message::WalBatch {
                shard,
                generation,
                from_offset,
                records,
                next_offset,
                leader_offset,
                remaining_records,
            } => {
                let applied = {
                    let mut sys = system.write().expect("system lock");
                    sys.apply_replica_batch(shard, generation, from_offset, &records)
                        .map_err(|e| ProtoError::Frame(format!("batch apply: {e}")))?
                };
                debug_assert_eq!(applied, next_offset);
                positions[shard] = (generation, applied);
                if records.is_empty() {
                    // The leader answers empty only when every shard is
                    // caught up.
                    lag.iter_mut()
                        .for_each(|(end, at, left)| (*at, *left) = (*end, 0));
                }
                lag[shard] = (leader_offset, applied, remaining_records);
                let (leader_end, applied_total, behind) = lag
                    .iter()
                    .fold((0, 0, 0), |(e, a, r), l| (e + l.0, a + l.1, r + l.2));
                repl.set_lag(leader_end, applied_total, behind);
                if applied_total >= leader_end && behind == 0 {
                    *caught_up_at = Some(Instant::now());
                    repl.lag_us.store(0, Ordering::Release);
                } else {
                    let behind_us = caught_up_at
                        .map(|t| t.elapsed().as_micros() as u64)
                        .unwrap_or(0);
                    repl.lag_us.store(behind_us.max(1), Ordering::Release);
                }
                if records.is_empty() {
                    std::thread::sleep(config.poll_interval);
                }
            }
            // Permanent: re-subscribing would be refused again.
            Message::ReplicaRefused { reason } => {
                *repl.refusal.lock() = reason;
                return Ok(());
            }
            // Anything else is a protocol violation; re-subscribe.
            other => {
                return Err(ProtoError::Frame(format!(
                    "unexpected replication message: {other:?}"
                )))
            }
        }
        proto::send(
            &mut conn,
            &Message::ReplicaStatus {
                positions: positions.clone(),
            },
        )?;
    }
}
