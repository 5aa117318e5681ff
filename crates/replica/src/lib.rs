//! # annoda-replica — WAL-shipping read replicas
//!
//! The warehousing tier scaled horizontally: one integrating *leader*
//! (the mediator process that owns the sources and the writes) ships
//! its `annoda-persist` WALs — one per store shard — over the AFED wire
//! protocol to any number of read-only *followers*, each serving
//! `/genes`, `/lorel`, and `/search` from its own byte-identical copy
//! of the materialised ANNODA-GML shards.
//!
//! The protocol is pull-based and preserves AFED's strict
//! request/response alternation:
//!
//! ```text
//! follower                              leader
//!    | Subscribe{[(gen, offset); N]}       |
//!    |------------------------------------>|
//!    |  SnapshotXfer{shard} | WalBatch{shard}  unservable shard position
//!    |<------------------------------------|   → that shard's state;
//!    | ReplicaStatus{[(gen, applied); N]}  |   otherwise its records
//!    |------------------------------------>|   ... one shard batch per
//!    |                    WalBatch{shard}  |   poll, round-robin; empty
//!    |<------------------------------------|   batch = all caught up
//! ```
//!
//! A position is a vector of `(generation, byte offset)` pairs, one per
//! shard log. Followers journal the *original* record bytes
//! ([`annoda::DurableStore::journal_raw`]) into the same shard's
//! segment, so each follower WAL is byte-identical to the leader's
//! prefix and its own file length *is* that shard's replication
//! position — restarts resume with no handshake state. A follower whose
//! shard count differs from the leader's is refused with
//! `ReplicaRefused` naming both counts. A torn or corrupted batch frame
//! is caught by the AFED crc32 framing and answered by tearing the
//! subscription down and re-subscribing from the last durable
//! positions, never by applying garbage.
//!
//! Failover: any follower can be promoted
//! ([`annoda::DurableSystem::promote`]) — it seals every replicated
//! shard WAL behind a snapshot (bumping each generation so the old
//! stream can never be confused with the new one) and starts accepting
//! writes; surviving followers re-subscribe to it and bootstrap from
//! its snapshots.

pub mod follower;
pub mod leader;

pub use follower::{ReplicaClient, ReplicaConfig};
pub use leader::{LeaderConfig, LeaderServer};
