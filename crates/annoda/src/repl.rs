//! Replication role state and shared position gauges.
//!
//! A [`crate::DurableSystem`] is born a [`Role::Leader`] — the single
//! integrating process whose WAL is the replication stream. Opened with
//! [`crate::DurableSystem::open_follower`] it starts as a
//! [`Role::Follower`]: a read-only serving node whose store is advanced
//! exclusively by applying the leader's shipped per-shard WAL records,
//! and which can be promoted to leader on failover.
//!
//! [`ReplShared`] is the lock-free meeting point of three parties: the
//! replica client thread (writes leader positions and lag), the
//! leader-side shipping server (writes subscriber counters), and the
//! HTTP layer (`/metrics` reads them without taking the system lock).
//! Positions themselves are per-shard `(generation, offset)` vectors
//! read from the durable store ([`crate::DurableSystem::wal_position`]).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;

/// Which side of the replication stream this process is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; its WAL is the replication stream.
    Leader,
    /// Read-only; applies the leader's WAL and can be promoted.
    Follower,
}

impl Role {
    fn from_u8(v: u8) -> Role {
        if v == 1 {
            Role::Follower
        } else {
            Role::Leader
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Role::Leader => 0,
            Role::Follower => 1,
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Leader => write!(f, "leader"),
            Role::Follower => write!(f, "follower"),
        }
    }
}

/// Lock-free replication gauges, shared as an `Arc` between the
/// durable system, the replication threads, and the HTTP layer.
#[derive(Debug, Default)]
pub struct ReplShared {
    role: AtomicU8,
    /// End of the leader's WAL as of each shard's last batch, summed
    /// over shards.
    pub leader_offset: AtomicU64,
    /// Leader WAL bytes not yet applied, summed over shards.
    pub lag_bytes: AtomicU64,
    /// Complete leader records not yet shipped, summed over shards.
    pub lag_records: AtomicU64,
    /// Microseconds since the follower was last caught up (0 while
    /// caught up); maintained by the replica client.
    pub lag_us: AtomicU64,
    /// Bytes received in snapshot transfers (follower side).
    pub snapshot_xfer_bytes: AtomicU64,
    /// Non-empty batches applied (follower side).
    pub batches_applied: AtomicU64,
    /// Records applied from batches (follower side).
    pub records_applied: AtomicU64,
    /// Times the subscription was torn down and re-established after a
    /// transport/frame error or a position the leader refused.
    pub resubscribes: AtomicU64,
    /// Snapshot transfers served (leader side).
    pub snapshot_xfers_sent: AtomicU64,
    /// Non-empty batches served (leader side).
    pub batches_sent: AtomicU64,
    /// Record payload bytes shipped in batches (leader side).
    pub shipped_bytes: AtomicU64,
    /// Where writes live, for read-only refusals on a follower.
    pub leader_addr: Mutex<String>,
    /// Why the leader refused this follower's subscription for good
    /// (empty while none did).
    pub refusal: Mutex<String>,
}

/// One consistent reading of the gauges, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// 0 = leader, 1 = follower.
    pub follower: bool,
    /// Leader WAL ends as of the last batches, summed over shards.
    pub leader_offset: u64,
    /// Byte lag, summed over shards.
    pub lag_bytes: u64,
    /// Record lag, summed over shards.
    pub lag_records: u64,
    /// Microseconds behind (0 while caught up).
    pub lag_us: u64,
    /// Snapshot-transfer bytes received.
    pub snapshot_xfer_bytes: u64,
    /// Non-empty batches applied.
    pub batches_applied: u64,
    /// Records applied.
    pub records_applied: u64,
    /// Re-subscribes after errors/stale positions.
    pub resubscribes: u64,
    /// Leader side: snapshot transfers served.
    pub snapshot_xfers_sent: u64,
    /// Leader side: non-empty batches served.
    pub batches_sent: u64,
    /// Leader side: payload bytes shipped.
    pub shipped_bytes: u64,
}

impl ReplShared {
    /// A fresh gauge block in `role`.
    pub fn new(role: Role) -> ReplShared {
        ReplShared {
            role: AtomicU8::new(role.as_u8()),
            ..ReplShared::default()
        }
    }

    /// The current role.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    /// Flips the role (promotion/demotion).
    pub fn set_role(&self, role: Role) {
        self.role.store(role.as_u8(), Ordering::Release);
    }

    /// Updates the lag gauges (totals over shards).
    pub fn set_lag(&self, leader_offset: u64, applied_offset: u64, lag_records: u64) {
        self.leader_offset.store(leader_offset, Ordering::Release);
        self.lag_bytes.store(
            leader_offset.saturating_sub(applied_offset),
            Ordering::Release,
        );
        self.lag_records.store(lag_records, Ordering::Release);
    }

    /// One consistent-enough snapshot of every counter.
    pub fn stats(&self) -> ReplStats {
        ReplStats {
            follower: self.role() == Role::Follower,
            leader_offset: self.leader_offset.load(Ordering::Acquire),
            lag_bytes: self.lag_bytes.load(Ordering::Acquire),
            lag_records: self.lag_records.load(Ordering::Acquire),
            lag_us: self.lag_us.load(Ordering::Acquire),
            snapshot_xfer_bytes: self.snapshot_xfer_bytes.load(Ordering::Acquire),
            batches_applied: self.batches_applied.load(Ordering::Acquire),
            records_applied: self.records_applied.load(Ordering::Acquire),
            resubscribes: self.resubscribes.load(Ordering::Acquire),
            snapshot_xfers_sent: self.snapshot_xfers_sent.load(Ordering::Acquire),
            batches_sent: self.batches_sent.load(Ordering::Acquire),
            shipped_bytes: self.shipped_bytes.load(Ordering::Acquire),
        }
    }

    /// Where the leader lives, for 403 bodies on a follower.
    pub fn leader_addr(&self) -> String {
        self.leader_addr.lock().clone()
    }

    /// Sets the advertised leader address.
    pub fn set_leader_addr(&self, addr: &str) {
        *self.leader_addr.lock() = addr.to_string();
    }

    /// Why the leader refused this follower for good, if it did.
    pub fn refusal(&self) -> Option<String> {
        Some(self.refusal.lock().clone()).filter(|r| !r.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_round_trips_and_flips() {
        let shared = ReplShared::new(Role::Follower);
        assert_eq!(shared.role(), Role::Follower);
        assert!(shared.stats().follower);
        shared.set_role(Role::Leader);
        assert_eq!(shared.role(), Role::Leader);
        assert_eq!(Role::Leader.to_string(), "leader");
        assert_eq!(Role::Follower.to_string(), "follower");
    }

    #[test]
    fn lag_tracks() {
        let shared = ReplShared::new(Role::Follower);
        shared.set_lag(250, 100, 3);
        let s = shared.stats();
        assert_eq!(s.leader_offset, 250);
        assert_eq!(s.lag_bytes, 150);
        assert_eq!(s.lag_records, 3);
        shared.set_leader_addr("127.0.0.1:9000");
        assert_eq!(shared.leader_addr(), "127.0.0.1:9000");
    }
}
