//! [`DurableSystem`] — the ANNODA façade with a disk life.
//!
//! [`Annoda`] alone is ephemeral: every process start re-wraps all
//! sources and re-materialises ANNODA-GML from scratch. This layer
//! serves the materialised global model from one engine, a
//! [`ShardedGml`] of N ≥ 1 hash-routed shards with per-shard MVCC
//! epochs, optionally backed by one WAL + snapshot segment per shard:
//!
//! * **cold start** — no persisted GML yet: materialise once, partition
//!   it, and journal every shard, so the *next* start is warm;
//! * **warm start** — recovery rebuilt the exact shards the previous
//!   process held (snapshot + WAL replay per segment); queries are
//!   served from them immediately without touching the wrappers;
//! * **refresh** — wrappers re-pull their native databases (which also
//!   invalidates the mediator's subquery cache), the re-materialised
//!   GML is committed as a shard transaction, and only the shards it
//!   changed bump their epochs and journal their delta via
//!   [`annoda_persist::sync_root`]. A segment whose log outgrows the
//!   state it compacts into is snapshotted on the spot.
//!
//! [`DurableSystem::new`] keeps the façade fully usable without a disk
//! — the serving layer treats that as "no `--data-dir` given".

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use annoda_lorel::{run_query_with, EvalWorkers, FunctionRegistry, PlanExplain, QueryOutcome};
use annoda_mediator::{Mediator, MediatorError};
use annoda_oem::shard::ShardRouter;
use annoda_oem::{OemStore, Snapshot, TextDoc};
use annoda_persist::{
    DurableStore, FsyncPolicy, JournalRecord, PersistStats, RecoveryReport, SnapshotMeta,
    SourceEventKind, TailRead,
};
use annoda_search::{
    docs_fingerprint, load_segments, save_segments, FusionStrategy, RankedAnswer, SearchIndex,
    SearchStats,
};
use annoda_wrap::{Cost, LatencyModel, Wrapper};
use parking_lot::RwLock;

use crate::registry::PlugReport;
use crate::repl::{ReplShared, Role};
use crate::system::{Annoda, AnnodaError};
use crate::txn::{CommitError, CommitOutcome, EpochsHandle, ShardedGml};

/// The name the mediator binds the materialised global model under —
/// also the root name every shard journal tracks.
pub const GML_ROOT: &str = "ANNODA-GML";

/// Marker file a follower leaves in its data directory: its shard WALs
/// are byte-for-byte replicas of some leader's logs, so the local WAL
/// lengths are valid replication resume positions. A directory without
/// the marker may hold locally-journaled bytes (a leader's, or a cold
/// materialisation) whose offsets mean nothing on the leader's logs —
/// such a follower must bootstrap via snapshot transfer. Promotion
/// removes the marker.
const FOLLOWER_MARKER: &str = "replica.follower";

/// One shard's replication position: `(generation, WAL offset)`.
pub type Position = (u64, u64);

/// What one durable refresh did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Objects re-pulled by the wrappers.
    pub refreshed_objects: usize,
    /// Journal records written for the resulting GML delta, zero when
    /// persistence is off.
    pub journaled_records: usize,
    /// Whether a durable store backs this system.
    pub persisted: bool,
    /// Shards whose epoch bumped for this delta — the blast radius a
    /// cached reader sees.
    pub changed_shards: usize,
    /// Entity fragments that structurally changed across the bumped
    /// shards — the record-level grain of the delta.
    pub changed_fragments: usize,
}

/// One epoch of the served global model: an immutable `Arc<OemStore>`
/// shared by every in-flight query, plus what it cost to build.
///
/// Snapshots are built lazily by [`DurableSystem::query_snapshot`] and
/// swapped atomically whenever the GML changes (refresh, plug, unplug,
/// façade mutation). Queries evaluate against the `Arc` with **no lock
/// held and no store clone** — answers land in per-query
/// [`annoda_oem::AnswerOverlay`]s above the snapshot's high-water mark.
#[derive(Debug, Clone)]
pub struct GmlSnapshot {
    /// Monotonic epoch number; bumps on every rebuild.
    pub epoch: u64,
    /// The immutable global model this epoch serves.
    pub store: Arc<OemStore>,
    /// What building this epoch cost (one amortised local copy).
    pub build_cost: Cost,
    /// The ranked-search index over the same epoch's wrapper text —
    /// published atomically with the store (one `RwLock` swap installs
    /// both), so `/search` and `/genes` can never observe different
    /// epochs within one generation. The builder re-checks the epoch
    /// vector across store assembly and corpus harvest, retrying if a
    /// commit landed in between, so the pair inside one snapshot comes
    /// from one committed state.
    pub search: Arc<SearchIndex>,
    /// The per-shard epoch vector this snapshot was assembled from
    /// (always `Some`). The serve tier stamps cache entries with sums
    /// over this vector for selective invalidation.
    pub shard_epochs: Option<Arc<Vec<u64>>>,
    /// The key router (always `Some`), so response handlers can map
    /// entity keys to the shards they depend on.
    pub shard_router: Option<ShardRouter>,
}

/// A point-in-time view of the current snapshot, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The served epoch.
    pub epoch: u64,
    /// Objects in the served store.
    pub objects: usize,
}

/// One served Lorel answer: the outcome plus the `base ⊕ overlay` view
/// it renders through, the epoch it was computed against, and real cost
/// and planner accounting.
#[derive(Debug, Clone)]
pub struct LorelServed {
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
    /// Object count of the base store (answer oids start here).
    pub store_len: usize,
    /// The answer view — render with [`annoda_oem::text::write_rooted`].
    pub view: Snapshot<Arc<OemStore>>,
    /// The query outcome (answer oid, rows, projections, groups).
    pub outcome: QueryOutcome,
    /// Snapshot build cost plus the local evaluation charge.
    pub cost: Cost,
    /// What the planner did, including `workers_used`.
    pub explain: PlanExplain,
}

/// An [`Annoda`] system serving its global model from a [`ShardedGml`],
/// optionally backed by per-shard WAL + snapshot segments.
pub struct DurableSystem {
    system: Annoda,
    /// The transactional shard vector — the one storage engine.
    store: Arc<ShardedGml>,
    /// The data directory; `None` when persistence is off.
    dir: Option<PathBuf>,
    /// The current serving snapshot; `None` until first use or after an
    /// invalidation. Readers clone the `Arc` and drop the guard before
    /// evaluating.
    snapshot: RwLock<Option<Arc<GmlSnapshot>>>,
    /// Epochs handed out so far.
    epochs: AtomicU64,
    /// The serving generation: bumps on every wholesale invalidation
    /// (full refresh, plug, unplug, façade mutation, text-only delta),
    /// whether or not a snapshot is ever rebuilt. Shared as an `Arc` so
    /// the HTTP layer can key its response cache and mint `ETag`s
    /// without taking the system lock.
    generation: Arc<AtomicU64>,
    /// Replication role and lag gauges, shared with the replication
    /// threads and the HTTP layer.
    repl: Arc<ReplShared>,
    /// Whether the local WAL positions are trusted replication resume
    /// points (follower opened over a marked or fresh directory).
    follower_resume: bool,
    /// Set by [`DurableSystem::annoda_mut`], which may change what the
    /// GML materialises to: the next snapshot build reconciles the
    /// shard vector through a transaction, so only the truly-changed
    /// shards bump.
    dirty: AtomicBool,
    /// In-memory search-index reuse: `(corpus fingerprint, index)` of
    /// the last build. A shard commit that did not change any harvested
    /// text republishes the same index instead of rebuilding — the
    /// search half of selective invalidation.
    search_memo: RwLock<Option<(u32, Arc<SearchIndex>)>>,
}

impl DurableSystem {
    fn over(system: Annoda, store: ShardedGml, dir: Option<&Path>, role: Role) -> Self {
        DurableSystem {
            system,
            store: Arc::new(store),
            dir: dir.map(Path::to_path_buf),
            snapshot: RwLock::new(None),
            epochs: AtomicU64::new(0),
            generation: Arc::new(AtomicU64::new(1)),
            repl: Arc::new(ReplShared::new(role)),
            follower_resume: false,
            dirty: AtomicBool::new(false),
            search_memo: RwLock::new(None),
        }
    }

    /// Wraps a system over an in-memory one-shard store, no
    /// persistence. Infallible: when a source cannot materialise now,
    /// the store starts empty and the first snapshot build reconciles
    /// it.
    pub fn new(system: Annoda) -> Self {
        let (gml, dirty) = match system.mediator().materialize_gml() {
            Ok((gml, _cost)) => (gml, false),
            Err(_) => {
                let mut empty = OemStore::new();
                let root = empty.new_complex();
                empty.set_name(GML_ROOT, root).expect("fresh store");
                (empty, true)
            }
        };
        let store = ShardedGml::new(&gml, GML_ROOT, 1).expect("a named root partitions");
        let this = Self::over(system, store, None, Role::Leader);
        this.dirty.store(dirty, Ordering::Release);
        this
    }

    /// Wraps a system over an in-memory store of `shards` shards, no
    /// persistence. The GML is materialised once and partitioned.
    pub fn new_sharded(system: Annoda, shards: usize) -> Result<Self, AnnodaError> {
        let (gml, _cost) = system.mediator().materialize_gml()?;
        let store = ShardedGml::new(&gml, GML_ROOT, shards)?;
        Ok(Self::over(system, store, None, Role::Leader))
    }

    /// Opens `dir` as a durable store of `shards` shards (0 adopts the
    /// count a warm directory records): per-shard WAL segments and
    /// snapshot generations under `dir/shard-NNN/`. A warm directory
    /// rebuilds the shard vector straight from the recovered segments;
    /// a cold one materialises the GML once, partitions it, and
    /// journals every shard.
    pub fn open_sharded(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<Self, AnnodaError> {
        let store = ShardedGml::open(dir, policy, shards, GML_ROOT, || {
            let (gml, _cost) = system.mediator().materialize_gml()?;
            Ok(gml)
        })?;
        // This process journals locally from here on; a follower later
        // opened over the same directory must bootstrap via snapshot
        // transfer, not resume from these offsets.
        let _ = std::fs::remove_file(dir.join(FOLLOWER_MARKER));
        Ok(Self::over(system, store, Some(dir), Role::Leader))
    }

    /// The wrapped façade.
    pub fn annoda(&self) -> &Annoda {
        &self.system
    }

    /// Mutable façade access (annotations, eval functions, ...).
    /// Invalidates the serving snapshot — the caller may change what
    /// the GML materialises to, so the next snapshot build reconciles
    /// the shard vector first.
    pub fn annoda_mut(&mut self) -> &mut Annoda {
        *self.snapshot.get_mut() = None;
        *self.dirty.get_mut() = true;
        self.generation.fetch_add(1, Ordering::Release);
        &mut self.system
    }

    /// The current serving generation — a strong cache key for any
    /// response derived from the global model. Two reads returning the
    /// same value bracket a window in which no wholesale invalidation
    /// happened (shard commits are tracked by the epoch vector).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A shared handle to the generation counter, for readers (the HTTP
    /// cache) that must observe invalidations without taking any lock
    /// on the system itself.
    pub fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// Whether per-shard WAL segments back this system.
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// What recovery found at open time, summed over shards.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.store.recovery()
    }

    /// Journal/WAL counters for `/metrics`, summed over shards.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.store.with_durable(|d| d.total_stats())
    }

    // -----------------------------------------------------------------
    // replication

    /// Opens `dir` as a read-only follower with `shards` shards (which
    /// must match the leader's): never materialises (its store advances
    /// only by applying the leader's shipped per-shard WALs), and
    /// decides whether the local WAL positions can resume the
    /// subscription. A directory carrying the follower marker — or a
    /// completely fresh one, trivially in sync at the log bases —
    /// resumes from its own positions; anything else holds
    /// locally-journaled bytes and must bootstrap via snapshot transfer.
    pub fn open_follower(
        system: Annoda,
        dir: &Path,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<Self, AnnodaError> {
        let store = ShardedGml::open_replica(dir, policy, shards, GML_ROOT)?;
        let r = *store.recovery().expect("a replica is durable");
        let base = (0, DurableStore::wal_base_offset());
        let fresh = !r.snapshot_loaded
            && r.replayed_records == 0
            && r.truncated_bytes == 0
            && store
                .with_durable(|d| d.positions().iter().all(|p| *p == base))
                .unwrap_or(false);
        let marker = dir.join(FOLLOWER_MARKER);
        let resume = marker.exists() || fresh;
        if resume {
            write_marker(dir)?;
        }
        let mut this = Self::over(system, store, Some(dir), Role::Follower);
        this.follower_resume = resume;
        Ok(this)
    }

    /// This node's replication role.
    pub fn role(&self) -> Role {
        self.repl.role()
    }

    /// The shared replication gauges — role, lag, counters — read by
    /// the HTTP layer and written by the replication threads without
    /// taking the system lock.
    pub fn repl_handle(&self) -> Arc<ReplShared> {
        Arc::clone(&self.repl)
    }

    /// The durable per-shard `(generation, wal_offset)` positions —
    /// what `/healthz` reports and what read-your-writes clients
    /// compare against, shard by shard. `None` without persistence.
    pub fn wal_position(&self) -> Option<Vec<Position>> {
        self.store.with_durable(|d| d.positions())
    }

    /// Where a replica client should resume its subscription: the local
    /// WAL positions when they are a trusted replica of the leader's
    /// logs, `None` when only snapshot transfers can synchronise this
    /// node.
    pub fn replica_resume_position(&self) -> Option<Vec<Position>> {
        self.wal_position().filter(|_| self.follower_resume)
    }

    /// Leader side: reads `shard`'s WAL records for a subscriber
    /// positioned at `(generation, from_offset)`. `Ok(None)` means the
    /// position is unservable (stale generation or misaligned offset)
    /// and the subscriber needs that shard's
    /// [`DurableSystem::base_snapshot`].
    pub fn read_wal_tail(
        &self,
        shard: usize,
        generation: u64,
        from_offset: u64,
        max_bytes: u64,
    ) -> Result<Option<TailRead>, AnnodaError> {
        self.store
            .with_durable(|d| d.shard(shard).read_tail(generation, from_offset, max_bytes))
            .ok_or_else(|| AnnodaError::Replication("no durable store to tail".into()))?
            .map_err(AnnodaError::from)
    }

    /// Leader side: the base state a bootstrapping subscriber installs
    /// for `shard` before replaying that shard's WAL (the on-disk
    /// snapshot, or the empty store at generation 0).
    pub fn base_snapshot(&self, shard: usize) -> Result<(OemStore, u64), AnnodaError> {
        self.store
            .with_durable(|d| d.shard(shard).base_snapshot())
            .ok_or_else(|| AnnodaError::Replication("no durable store to snapshot".into()))?
            .map_err(AnnodaError::from)
    }

    /// The registered source names, shipped with every snapshot
    /// transfer (see [`DurableSystem::install_replica_snapshot`]).
    pub fn source_names(&self) -> Vec<String> {
        let registry = self.system.registry();
        registry.sources().iter().map(|d| d.name.clone()).collect()
    }

    /// Follower side: installs a transferred base snapshot for `shard`,
    /// discarding that shard's local state, and returns the offset to
    /// tail from (the WAL base). The snapshot may have sealed away
    /// unplug events the follower never replayed, so every local source
    /// missing from the leader's `sources` is unplugged here. Marks the
    /// directory as a genuine replica so restarts resume instead of
    /// re-transferring.
    pub fn install_replica_snapshot(
        &mut self,
        shard: usize,
        store: OemStore,
        generation: u64,
        sources: &[String],
    ) -> Result<u64, AnnodaError> {
        self.require_follower("snapshot install")?;
        self.store.replicate(shard, |segment| {
            Ok(segment.install_snapshot(store, generation)?)
        })?;
        for name in self.source_names() {
            if !sources.contains(&name) {
                self.system.unplug(&name);
            }
        }
        if let Some(dir) = &self.dir {
            write_marker(dir)?;
        }
        self.follower_resume = true;
        self.invalidate_snapshot();
        Ok(DurableStore::wal_base_offset())
    }

    /// Follower side: applies one shipped batch of `shard`'s raw WAL
    /// record payloads. The batch must extend that shard's applied
    /// position exactly, and each record is journaled with its
    /// *original* bytes, keeping the local log byte-identical to the
    /// leader's. Source-unplug events are mirrored into the live
    /// registry so search harvesting tracks the replicated model.
    /// Returns the shard's new applied offset.
    pub fn apply_replica_batch(
        &mut self,
        shard: usize,
        generation: u64,
        from_offset: u64,
        records: &[Vec<u8>],
    ) -> Result<u64, AnnodaError> {
        self.require_follower("batch apply")?;
        let at = self.wal_position().and_then(|p| p.get(shard).copied());
        if at != Some((generation, from_offset)) {
            return Err(AnnodaError::Replication(format!(
                "shard {shard} batch at ({generation}, {from_offset}) does not extend \
                 applied position {at:?}"
            )));
        }
        if records.is_empty() {
            return Ok(from_offset);
        }
        let decoded = self.store.replicate(shard, |segment| {
            let decoded: Result<Vec<_>, _> =
                records.iter().map(|r| segment.journal_raw(r)).collect();
            Ok(decoded?)
        })?;
        for record in decoded {
            if let JournalRecord::SourceEvent {
                kind: SourceEventKind::Unplug,
                name,
            } = record
            {
                self.system.unplug(&name);
            }
        }
        self.repl.batches_applied.fetch_add(1, Ordering::Relaxed);
        self.repl
            .records_applied
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.invalidate_snapshot();
        Ok(self.wal_position().expect("a follower is durable")[shard].1)
    }

    /// Failover: promotes this follower to leader. Seals every
    /// replicated shard WAL behind a snapshot (bumping each generation,
    /// so stale subscribers of the old leader can never mistake the new
    /// logs for the old ones), removes the replica marker, and flips the
    /// role — writes are accepted from here on. Returns the new
    /// per-shard positions.
    pub fn promote(&mut self) -> Result<Vec<Position>, AnnodaError> {
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(
                "promote refused: already the leader".into(),
            ));
        }
        self.snapshot_shards(true)?;
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_file(dir.join(FOLLOWER_MARKER));
        }
        self.follower_resume = false;
        self.repl.set_role(Role::Leader);
        self.invalidate_snapshot();
        Ok(self.wal_position().expect("a follower is durable"))
    }

    /// Replica writes are refused unless this node is a follower.
    fn require_follower(&self, what: &str) -> Result<(), AnnodaError> {
        if self.repl.role() != Role::Follower {
            return Err(AnnodaError::Replication(format!(
                "{what} refused: not a follower"
            )));
        }
        Ok(())
    }

    /// Writes (and leader-only admin) are refused on a follower.
    fn require_leader(&self, what: &str) -> Result<(), AnnodaError> {
        if self.repl.role() != Role::Leader {
            let leader = self.repl.leader_addr();
            return Err(AnnodaError::Replication(format!(
                "{what} refused: this node is a read-only follower{}",
                if leader.is_empty() {
                    String::new()
                } else {
                    format!(" (leader: {leader})")
                }
            )));
        }
        Ok(())
    }

    /// Plugs a source, journals the lifecycle event, and commits the
    /// re-materialised GML.
    pub fn plug(&mut self, wrapper: Box<dyn Wrapper>) -> Result<PlugReport, AnnodaError> {
        self.require_leader("plug")?;
        let name = wrapper.description().name.clone();
        let report = self.system.plug(wrapper);
        self.commit_lifecycle(SourceEventKind::Plug, &name)?;
        Ok(report)
    }

    /// Plugs a remote federation source, journaling the lifecycle event
    /// like any other plug.
    pub fn plug_remote(&mut self, addr: &str) -> Result<PlugReport, AnnodaError> {
        let remote = annoda_federation::RemoteWrapper::connect(
            addr,
            annoda_federation::ClientConfig::default(),
        )?;
        self.plug(Box::new(remote))
    }

    /// Unplugs a source, journals the lifecycle event, and commits the
    /// re-materialised GML.
    pub fn unplug(&mut self, name: &str) -> Result<bool, AnnodaError> {
        self.require_leader("unplug")?;
        let removed = self.system.unplug(name);
        if removed {
            self.commit_lifecycle(SourceEventKind::Unplug, name)?;
        }
        Ok(removed)
    }

    /// Journals a plug/unplug event into shard 0's log (followers mirror
    /// unplugs from it), commits the GML the new source set
    /// materialises, fsyncs, and invalidates wholesale.
    fn commit_lifecycle(&mut self, kind: SourceEventKind, name: &str) -> Result<(), AnnodaError> {
        let event = JournalRecord::SourceEvent {
            kind,
            name: name.to_string(),
        };
        self.store
            .with_durable(|d| d.shard_mut(0).journal(&event))
            .transpose()?;
        self.resync()?;
        self.store.sync()?;
        self.invalidate_snapshot();
        Ok(())
    }

    /// Refreshes every wrapper from its native database (invalidating
    /// the mediator's subquery cache) and commits the GML delta. Re-
    /// pulling everything is a wholesale invalidation: the serving
    /// generation turns even when no shard changed.
    pub fn refresh(&mut self) -> Result<RefreshOutcome, AnnodaError> {
        self.require_leader("refresh")?;
        let refreshed_objects = self.system.registry_mut().mediator_mut().refresh_all();
        let outcome = self.commit_refreshed(refreshed_objects)?;
        self.invalidate_snapshot();
        Ok(outcome)
    }

    /// The shared tail of every refresh-shaped write: commits the
    /// re-materialised GML, bumping only the truly-changed shards (no
    /// generation bump — shard epochs carry the invalidation), and
    /// reports the blast radius. Deliberately `&self`: every step —
    /// materialise, stage, the first-writer-wins commit, snapshot
    /// invalidation — works through shared handles, so concurrent
    /// readers keep serving the previous epoch vector while the commit
    /// runs.
    fn commit_refreshed(&self, refreshed_objects: usize) -> Result<RefreshOutcome, AnnodaError> {
        let (outcome, changed_fragments) = self.resync()?;
        if !outcome.changed.is_empty() {
            *self.snapshot.write() = None;
        } else if self.search_is_stale() {
            // A text-only delta: nothing the GML materialises moved,
            // so no shard epoch bumped — but the harvested text (and
            // with it `/search`) drifted. Epoch-stamped caches would
            // serve the old index forever; invalidate by generation.
            *self.snapshot.write() = None;
            self.generation.fetch_add(1, Ordering::Release);
        }
        self.store.sync()?;
        Ok(RefreshOutcome {
            refreshed_objects,
            journaled_records: outcome.journaled,
            persisted: self.is_durable(),
            changed_shards: outcome.changed.len(),
            changed_fragments,
        })
    }

    /// Drops the serving snapshot; the next query builds (and swaps in)
    /// a fresh epoch. Bumps the serving generation so response caches
    /// invalidate wholesale.
    fn invalidate_snapshot(&self) {
        *self.snapshot.write() = None;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The transactional shard vector.
    pub fn shards(&self) -> &Arc<ShardedGml> {
        &self.store
    }

    /// Shared live epoch vector, for the serve tier's cache stamps
    /// (always `Some`).
    pub fn shard_epochs_handle(&self) -> Option<EpochsHandle> {
        Some(self.store.epochs_handle())
    }

    /// Materialises the current GML and commits it through a
    /// transaction, retrying on first-writer-wins conflicts (other
    /// writers may hold direct [`ShardedGml`] handles). Only the shards
    /// the new materialisation actually changed bump their epochs.
    fn resync(&self) -> Result<(CommitOutcome, usize), AnnodaError> {
        const RETRIES: usize = 16;
        let mut last = None;
        for _ in 0..RETRIES {
            let (gml, _cost) = self.system.mediator().materialize_gml()?;
            let mut txn = self.store.begin();
            txn.stage(&gml)?;
            let changed_fragments = txn.changed_fragment_count();
            match self.store.commit(txn) {
                Ok(outcome) => {
                    // Everything `annoda_mut` could have changed is in
                    // this materialisation.
                    self.dirty.store(false, Ordering::Release);
                    return Ok((outcome, changed_fragments));
                }
                Err(CommitError::Conflict { shards }) => {
                    last = Some(shards);
                    continue;
                }
                Err(CommitError::Annoda(e)) => return Err(e),
            }
        }
        Err(AnnodaError::Txn(format!(
            "resync lost {RETRIES} consecutive first-writer-wins races (last conflict on \
             shards {last:?})"
        )))
    }

    /// Re-pulls **one** source from its native database and commits the
    /// delta transactionally: only the shards holding that source's
    /// changed entities bump — every cached response that does not
    /// depend on them stays valid.
    pub fn refresh_source(&mut self, name: &str) -> Result<RefreshOutcome, AnnodaError> {
        self.require_leader("refresh")?;
        let refreshed_objects = self
            .system
            .registry_mut()
            .mediator_mut()
            .refresh_source(name)
            .ok_or_else(|| AnnodaError::Mediator(MediatorError::UnknownSource(name.to_string())))?;
        self.commit_refreshed(refreshed_objects)
    }

    /// Applies one change-feed batch from `source`'s feed (see
    /// `annoda_federation::feed`) and commits the resulting delta —
    /// the push-based sibling of [`DurableSystem::refresh_source`],
    /// which re-pulls the whole native database instead. Equivalent to
    /// [`DurableSystem::absorb_apply`] then
    /// [`DurableSystem::absorb_commit`].
    ///
    /// Upserts (`flat: Some`) and deletes (`flat: None`) mutate the
    /// local wrapper's native database record-by-record; a `bootstrap`
    /// batch *replaces* it with the feed's full dump. Either way the
    /// wrapper then re-materialises once per batch, and the commit
    /// rides the same transactional path as a pull refresh: only the
    /// shards holding touched entities bump their epochs, and only
    /// their WAL segments journal the delta. The search index is
    /// refreshed incrementally — untouched sources keep their in-memory
    /// postings (see
    /// [`annoda_search::SearchIndex::with_source_updated`]).
    ///
    /// The caller must acknowledge the batch upstream only after this
    /// returns `Ok` — resuming from the last acked sequence then
    /// replays exactly the records that were never absorbed.
    pub fn absorb_delta(
        &mut self,
        source: &str,
        records: &[annoda_federation::ChangeRecord],
        bootstrap: bool,
    ) -> Result<RefreshOutcome, AnnodaError> {
        let refreshed_objects = self.absorb_apply(source, records, bootstrap)?;
        self.absorb_commit(source, refreshed_objects)
    }

    /// The exclusive half of [`DurableSystem::absorb_delta`]: applies
    /// the batch to the local wrapper's native database and re-exports
    /// that one source's OML. This is record-level work — microseconds
    /// per record plus one per-batch re-export — so a serve tier can
    /// hold its writer lock only for this call and run the expensive
    /// [`DurableSystem::absorb_commit`] under a reader lock, keeping
    /// queries flowing while the commit materialises and stages.
    ///
    /// Returns the refreshed model's object count, which the matching
    /// `absorb_commit` reports back in its [`RefreshOutcome`].
    pub fn absorb_apply(
        &mut self,
        source: &str,
        records: &[annoda_federation::ChangeRecord],
        bootstrap: bool,
    ) -> Result<usize, AnnodaError> {
        self.require_leader("absorb")?;
        let unknown = || AnnodaError::Mediator(MediatorError::UnknownSource(source.to_string()));
        let wrap_err = |e| AnnodaError::Mediator(MediatorError::Wrap(e));
        {
            let wrapper = self
                .system
                .registry_mut()
                .mediator_mut()
                .wrapper_mut(source)
                .ok_or_else(unknown)?;
            if bootstrap {
                let dump: Vec<(String, String)> = records
                    .iter()
                    .filter_map(|r| r.flat.clone().map(|flat| (r.key.clone(), flat)))
                    .collect();
                wrapper.apply_bootstrap(&dump).map_err(wrap_err)?;
            } else {
                for record in records {
                    wrapper
                        .apply_change(&record.key, record.flat.as_deref())
                        .map_err(wrap_err)?;
                }
            }
        }
        self.system
            .registry_mut()
            .mediator_mut()
            .refresh_source(source)
            .ok_or_else(unknown)
    }

    /// The shared half of [`DurableSystem::absorb_delta`]: materialises
    /// the post-apply model, commits it through the first-writer-wins
    /// transaction path (bumping only the shards the delta touched),
    /// and refreshes `source`'s slice of the search index. `&self`
    /// throughout — concurrent readers keep serving the previous epoch
    /// vector, and a reader racing the commit assembles the last
    /// *committed* state, never a half-applied one.
    ///
    /// A crash between `absorb_apply` and this commit is safe: the
    /// batch was never acked, so the feed replays it and the
    /// record-level upserts/deletes re-apply idempotently.
    pub fn absorb_commit(
        &self,
        source: &str,
        refreshed_objects: usize,
    ) -> Result<RefreshOutcome, AnnodaError> {
        let outcome = self.commit_refreshed(refreshed_objects)?;
        self.refresh_search_incrementally(source);
        Ok(outcome)
    }

    /// Whether the published snapshot's search index no longer matches
    /// what the wrappers harvest to — the text-only-delta case the
    /// shard-epoch stamps cannot see. `false` when no snapshot is live
    /// (the next build fingerprints for itself).
    fn search_is_stale(&self) -> bool {
        let published = match self.snapshot.read().as_ref() {
            Some(s) => s.search.fingerprint(),
            None => return false,
        };
        let docs = self.system.mediator().harvest_text_docs();
        docs_fingerprint(&docs) != published
    }

    /// Where persisted search-index segments live (`search.seg` inside
    /// the data dir); `None` when persistence is off.
    fn search_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| dir.join("search.seg"))
    }

    /// Rebuilds only `source`'s slice of the memoised search index
    /// after a delta, so the next snapshot's
    /// [`DurableSystem::build_search_index`] is a memo hit instead of a
    /// full re-tokenise. Falls back to doing nothing — the next
    /// snapshot then rebuilds from scratch — when no index is memoised
    /// yet. The incremental build time is measured into the published
    /// [`SearchStats::build_us`].
    fn refresh_search_incrementally(&self, source: &str) {
        let docs = self.system.mediator().harvest_text_docs();
        let fingerprint = docs_fingerprint(&docs);
        let mut memo = self.search_memo.write();
        let Some((fp, index)) = memo.as_ref() else {
            return;
        };
        if *fp == fingerprint {
            return; // the delta touched no searchable text
        }
        // Prove the memo differs from the fresh harvest *only* in
        // `source`: swap the memoised slice back in and the fingerprint
        // must return to the memoised one. Anything else — another
        // source drifted without a snapshot build, a plug/unplug —
        // falls through to the next full rebuild instead of publishing
        // stale postings under a fresh fingerprint.
        let mut check: Vec<(String, Vec<TextDoc>)> = docs
            .iter()
            .filter(|(name, _)| name != source)
            .cloned()
            .collect();
        if let Some(s) = index.sources().find(|s| s.source == source) {
            check.push((source.to_string(), s.text_docs()));
        }
        if docs_fingerprint(&check) != *fp {
            return;
        }
        let source_docs = docs
            .iter()
            .find(|(name, _)| name == source)
            .map(|(_, d)| d.as_slice())
            .unwrap_or(&[]);
        let updated = Arc::new(index.with_source_updated(source, source_docs, fingerprint));
        if let Some(path) = self.search_path() {
            // Best effort, like every segment save.
            let _ = save_segments(&path, &updated);
        }
        *memo = Some((fingerprint, updated));
    }

    /// The current serving snapshot, building one if none is live.
    ///
    /// Fast path: one brief read-lock to clone the `Arc`, valid while
    /// the live epoch vector still equals the one it was assembled
    /// from. Slow path: after a façade mutation the shard vector is
    /// first reconciled through a transaction (leader only — a
    /// follower's store moves only by replication); the store is then
    /// reassembled from the shards — shared with
    /// [`ShardedGml::assembled`]'s per-vector cache, so the only
    /// per-commit cost is reassembling, never a store copy per query —
    /// and installed under a write lock. Evaluation never runs under
    /// this lock.
    pub fn query_snapshot(&self) -> Result<Arc<GmlSnapshot>, AnnodaError> {
        self.reconcile()?;
        let live = self.store.epoch_vector();
        if let Some(s) = self.snapshot.read().as_ref() {
            if s.shard_epochs.as_deref() == Some(live.as_ref()) {
                return Ok(Arc::clone(s));
            }
        }
        // The store and the search index must describe the *same*
        // committed state: assemble, harvest, then re-read the live
        // vector — if a commit landed in between, the harvested corpus
        // may already reflect it while the assembled store does not, so
        // retry the pair against the newer vector. (Mediator mutations
        // reach readers only through a commit, so an unmoved vector
        // brackets an unchanged corpus.) Bounded: each retry means a
        // whole commit landed during one snapshot build.
        const PAIR_RETRIES: usize = 8;
        let (mut vector, mut store) = self.store.assembled();
        let mut search = self.build_search_index();
        for _ in 0..PAIR_RETRIES {
            if *self.store.epoch_vector() == vector {
                break;
            }
            (vector, store) = self.store.assembled();
            search = self.build_search_index();
        }
        let mut build_cost = Cost::new();
        build_cost.charge(&LatencyModel::local(), store.len() as u64);
        let mut guard = self.snapshot.write();
        if let Some(s) = guard.as_ref() {
            if s.shard_epochs.as_deref() == Some(&vector) {
                return Ok(Arc::clone(s));
            }
        }
        let snap = Arc::new(GmlSnapshot {
            epoch: self.epochs.fetch_add(1, Ordering::Relaxed) + 1,
            store,
            build_cost,
            search,
            shard_epochs: Some(Arc::new(vector)),
            shard_router: Some(self.store.router()),
        });
        *guard = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// Settles a pending [`DurableSystem::annoda_mut`] reconcile through
    /// one transaction — leader only: a follower's store moves only by
    /// replication.
    fn reconcile(&self) -> Result<(), AnnodaError> {
        if self.dirty.swap(false, Ordering::AcqRel) && self.role() == Role::Leader {
            if let Err(e) = self.resync() {
                self.dirty.store(true, Ordering::Release);
                return Err(e);
            }
        }
        Ok(())
    }

    /// The epoch's search index: harvest the wrappers' text documents,
    /// then — in fingerprint order — reuse the previous epoch's index
    /// when the harvested corpus is unchanged (selective invalidation:
    /// a shard commit that touched no searchable text republishes the
    /// same `Arc`), adopt the persisted segments (crc-framed, any
    /// torn/corrupt/stale file is silently discarded), or build from
    /// scratch and re-persist. Segments are a pure cache: losing one
    /// costs a rebuild, never a wrong answer.
    fn build_search_index(&self) -> Arc<SearchIndex> {
        let docs = self.system.mediator().harvest_text_docs();
        let fingerprint = docs_fingerprint(&docs);
        if let Some((fp, index)) = self.search_memo.read().as_ref() {
            if *fp == fingerprint {
                return Arc::clone(index);
            }
        }
        let path = self.search_path();
        let index = if let Some(index) = path
            .as_ref()
            .and_then(|path| load_segments(path, fingerprint))
        {
            Arc::new(index)
        } else {
            let index = SearchIndex::build(&docs);
            if let Some(path) = &path {
                // Best effort — the segment file is a startup
                // accelerator, not a durability obligation.
                let _ = save_segments(path, &index);
            }
            Arc::new(index)
        };
        *self.search_memo.write() = Some((fingerprint, Arc::clone(&index)));
        index
    }

    /// The served epoch and object count, when a snapshot is live.
    pub fn snapshot_stats(&self) -> Option<SnapshotInfo> {
        self.snapshot.read().as_ref().map(|s| SnapshotInfo {
            epoch: s.epoch,
            objects: s.store.len(),
        })
    }

    /// Runs a Lorel query against the current epoch snapshot — the
    /// zero-clone warm path. Equivalent to [`DurableSystem::query_snapshot`]
    /// followed by [`DurableSystem::lorel_on`]; callers that must not
    /// hold a lock during evaluation (the HTTP layer) do those two steps
    /// themselves.
    pub fn lorel_shared(&self, text: &str) -> Result<LorelServed, AnnodaError> {
        let snap = self.query_snapshot()?;
        Self::lorel_on(&snap, text)
    }

    /// Evaluates `text` against an already-acquired snapshot. An
    /// associated function on purpose: it needs no `&self`, so the HTTP
    /// layer calls it with **no system lock held** — a slow query can
    /// never stall `refresh` or health probes.
    pub fn lorel_on(snap: &GmlSnapshot, text: &str) -> Result<LorelServed, AnnodaError> {
        Self::lorel_on_with(snap, text, EvalWorkers::Auto)
    }

    /// [`DurableSystem::lorel_on`] with an explicit worker policy for
    /// the parallel binding loop (benches pin 1/2/8).
    pub fn lorel_on_with(
        snap: &GmlSnapshot,
        text: &str,
        workers: EvalWorkers,
    ) -> Result<LorelServed, AnnodaError> {
        let (overlay, outcome, explain) =
            Mediator::query_gml_shared(&snap.store, text, &FunctionRegistry::standard(), workers)
                .map_err(AnnodaError::from)?;
        let mut cost = snap.build_cost;
        cost.charge(&LatencyModel::local(), outcome.rows.len() as u64);
        let store_len = snap.store.len();
        let view = Snapshot::new(Arc::clone(&snap.store), overlay)
            .expect("overlay was built over this snapshot's store");
        Ok(LorelServed {
            epoch: snap.epoch,
            store_len,
            view,
            outcome,
            cost,
            explain,
        })
    }

    /// Ranked full-text search against an already-acquired snapshot.
    /// Associated function for the same reason as [`DurableSystem::lorel_on`]:
    /// no `&self`, so the HTTP layer searches with no system lock held.
    pub fn search_on(
        snap: &GmlSnapshot,
        query: &str,
        k: usize,
        strategy: FusionStrategy,
    ) -> Vec<RankedAnswer> {
        snap.search.search(query, k, strategy)
    }

    /// Ranked search via the current epoch snapshot — acquire-then-search
    /// convenience over [`DurableSystem::search_on`].
    pub fn search_shared(
        &self,
        query: &str,
        k: usize,
        strategy: FusionStrategy,
    ) -> Result<Vec<RankedAnswer>, AnnodaError> {
        let snap = self.query_snapshot()?;
        Ok(Self::search_on(&snap, query, k, strategy))
    }

    /// Shape of the live snapshot's search index, when one is published.
    pub fn search_stats(&self) -> Option<SearchStats> {
        self.snapshot.read().as_ref().map(|s| s.search.stats())
    }

    /// Runs a Lorel query, returning an owned store the answer lives
    /// in: a clone of the current assembled store — one full-store copy
    /// per call and no serving snapshot, the baseline
    /// [`DurableSystem::lorel_shared`] exists to beat (`bench_report
    /// query-serve` measures both). The returned
    /// [`Cost`] carries the real local charges — the per-request copy
    /// plus per-row evaluation.
    pub fn lorel(&self, text: &str) -> Result<(OemStore, QueryOutcome, Cost), AnnodaError> {
        self.reconcile()?;
        let (_, gml) = self.store.assembled();
        let mut store = (*gml).clone();
        let outcome = run_query_with(&mut store, text, &FunctionRegistry::standard())
            .map_err(|e| AnnodaError::Mediator(MediatorError::Lorel(e)))?;
        let mut cost = Cost::new();
        cost.charge(&LatencyModel::local(), gml.len() as u64);
        cost.charge(&LatencyModel::local(), outcome.rows.len() as u64);
        Ok((store, outcome, cost))
    }

    /// Snapshots every shard whose WAL holds records and truncates
    /// those logs. `Ok(None)` when persistence is off.
    pub fn snapshot(&mut self) -> Result<Option<SnapshotMeta>, AnnodaError> {
        self.require_leader("snapshot")?;
        self.snapshot_shards(false)
    }

    /// Snapshots every shard (`every`) or only those with a non-empty
    /// WAL, returning the summed object and byte counts under the
    /// highest resulting generation.
    fn snapshot_shards(&self, every: bool) -> Result<Option<SnapshotMeta>, AnnodaError> {
        let base = DurableStore::wal_base_offset();
        self.store
            .with_durable(|d| {
                let mut total = SnapshotMeta {
                    generation: 0,
                    objects: 0,
                    bytes: 0,
                };
                for i in 0..d.shard_count() {
                    if every || d.shard(i).wal_offset() > base {
                        let meta = d.shard_mut(i).snapshot()?;
                        total.objects += meta.objects;
                        total.bytes += meta.bytes;
                    }
                    total.generation = total.generation.max(d.shard(i).generation());
                }
                Ok::<_, AnnodaError>(total)
            })
            .transpose()
    }
}

/// Marks `dir` as holding genuine replica logs.
fn write_marker(dir: &Path) -> Result<(), AnnodaError> {
    std::fs::write(dir.join(FOLLOWER_MARKER), b"replica\n")
        .map_err(|e| AnnodaError::Replication(format!("cannot write marker: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_persist::encode_store;
    use annoda_sources::{Corpus, CorpusConfig};

    fn system() -> Annoda {
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        a
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("annoda-dursys-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A one-shard durable store over `dir`.
    fn open(system: Annoda, dir: &Path) -> DurableSystem {
        DurableSystem::open_sharded(system, dir, FsyncPolicy::Always, 1).unwrap()
    }

    /// The canonical encoding of the served global model.
    fn served_bytes(sys: &DurableSystem) -> Vec<u8> {
        encode_store(&sys.query_snapshot().unwrap().store)
    }

    #[test]
    fn ephemeral_system_still_answers() {
        let sys = DurableSystem::new(system());
        assert!(!sys.is_durable());
        assert!(sys.persist_stats().is_none());
        let (gml, outcome, _cost) = sys
            .lorel(r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#)
            .unwrap();
        assert!(outcome.sole_result(&gml).is_some());
    }

    #[test]
    fn cold_open_then_warm_open_serves_identical_gml() {
        let dir = tmp_dir("coldwarm");
        let cold = open(system(), &dir);
        assert!(cold.is_durable());
        let report = *cold.recovery().unwrap();
        assert!(!report.snapshot_loaded);
        let cold_bytes = served_bytes(&cold);
        drop(cold); // no snapshot: simulate an unclean exit

        let warm = open(system(), &dir);
        let report = *warm.recovery().unwrap();
        assert!(report.replayed_records > 0, "WAL replay restored GML");
        assert_eq!(served_bytes(&warm), cold_bytes);

        // Warm queries answer from the recovered store.
        let (gml, outcome, _cost) = warm
            .lorel(r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#)
            .unwrap();
        assert!(outcome.sole_result(&gml).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bumps_on_every_invalidation() {
        let mut sys = DurableSystem::new(system());
        let handle = sys.generation_handle();
        let g0 = sys.generation();
        assert_eq!(g0, handle.load(Ordering::Acquire));
        sys.refresh().unwrap();
        let g1 = sys.generation();
        assert!(g1 > g0, "refresh must bump the generation");
        let _ = sys.annoda_mut();
        let g2 = sys.generation();
        assert!(g2 > g1, "façade mutation must bump the generation");
        assert!(sys.unplug("OMIM").unwrap());
        let g3 = sys.generation();
        assert!(g3 > g2, "unplug must bump the generation");
        assert_eq!(g3, handle.load(Ordering::Acquire), "handle tracks");
        // Queries do not bump it.
        let _ = sys.lorel_shared("select count(GML.Gene) from ANNODA-GML GML");
        assert_eq!(sys.generation(), g3);
    }

    #[test]
    fn refresh_journals_and_snapshot_truncates() {
        let dir = tmp_dir("refresh");
        let mut sys = open(system(), &dir);
        mutate_locus(&mut sys, 1000, "refresh journals this description");
        let outcome = sys.refresh().unwrap();
        assert!(outcome.persisted);
        assert!(outcome.journaled_records >= 1, "the delta is journaled");
        let before = sys.persist_stats().unwrap();
        let meta = sys.snapshot().unwrap().unwrap();
        assert!(meta.objects > 0);
        let after = sys.persist_stats().unwrap();
        assert!(after.wal_bytes < before.wal_bytes);
        assert_eq!(after.generation, before.generation + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query term guaranteed to hit: the first token of a harvested
    /// document (the corpus vocabulary is seed-dependent, so tests derive
    /// terms instead of hard-coding them).
    fn live_term(sys: &DurableSystem) -> String {
        let docs = sys.system.mediator().harvest_text_docs();
        docs.iter()
            .flat_map(|(_, d)| d.iter())
            .filter(|d| !d.loci.is_empty())
            .flat_map(|d| annoda_search::tokenize(&d.text))
            .next()
            .expect("tiny corpus harvests at least one locus-bearing doc")
    }

    #[test]
    fn snapshot_publishes_search_index_with_store() {
        let sys = DurableSystem::new(system());
        assert!(sys.search_stats().is_none(), "no index before a snapshot");
        let term = live_term(&sys);
        let snap = sys.query_snapshot().unwrap();
        let hits = DurableSystem::search_on(&snap, &term, 5, FusionStrategy::Weighted);
        assert!(!hits.is_empty(), "derived term must hit");
        let stats = sys.search_stats().unwrap();
        assert!(stats.sources >= 2, "GO and OMIM both harvest text");
        assert!(stats.terms > 0 && stats.postings > 0);
        // The convenience path answers identically.
        assert_eq!(
            sys.search_shared(&term, 5, FusionStrategy::Weighted)
                .unwrap(),
            hits
        );
    }

    #[test]
    fn search_segments_persist_and_warm_load_identically() {
        let dir = tmp_dir("searchseg");
        let cold = open(system(), &dir);
        let term = live_term(&cold);
        let cold_hits = cold.search_shared(&term, 10, FusionStrategy::Rrf).unwrap();
        assert!(
            dir.join("search.seg").exists(),
            "snapshot persists segments"
        );
        drop(cold);

        let warm = open(system(), &dir);
        let warm_hits = warm.search_shared(&term, 10, FusionStrategy::Rrf).unwrap();
        assert_eq!(
            warm_hits, cold_hits,
            "segment load answers byte-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_republishes_search_with_new_epoch() {
        let mut sys = DurableSystem::new(system());
        let term = live_term(&sys);
        let first = sys.query_snapshot().unwrap();
        let e0 = first.epoch;
        drop(first);
        sys.refresh().unwrap();
        let second = sys.query_snapshot().unwrap();
        assert!(second.epoch > e0, "refresh publishes a fresh epoch");
        let hits = DurableSystem::search_on(&second, &term, 5, FusionStrategy::MaxScore);
        assert!(!hits.is_empty(), "rebuilt index still answers");
    }

    /// Manually pumps the leader's shard WALs into the follower — the
    /// same install/apply sequence the socket-level replica client
    /// drives.
    fn pump(leader: &DurableSystem, follower: &mut DurableSystem) {
        for shard in 0..leader.shards().shard_count() {
            loop {
                let (generation, offset) = follower.wal_position().unwrap()[shard];
                match leader
                    .read_wal_tail(shard, generation, offset, u64::MAX)
                    .unwrap()
                {
                    Some(tail) => {
                        follower
                            .apply_replica_batch(shard, tail.generation, offset, &tail.records)
                            .unwrap();
                        if tail.next_offset == tail.end_offset {
                            break;
                        }
                    }
                    None => {
                        let (store, generation) = leader.base_snapshot(shard).unwrap();
                        let sources = leader.source_names();
                        follower
                            .install_replica_snapshot(shard, store, generation, &sources)
                            .unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn follower_replays_leader_writes_and_mirrors_unplug() {
        let leader_dir = tmp_dir("repl-leader");
        let follower_dir = tmp_dir("repl-follower");
        let mut leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 3).unwrap();
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 3).unwrap();
        assert_eq!(follower.role(), Role::Follower);
        assert!(
            follower.replica_resume_position().is_some(),
            "fresh directory is trivially in sync"
        );

        pump(&leader, &mut follower);
        assert_eq!(
            served_bytes(&follower),
            served_bytes(&leader),
            "bootstrap converges"
        );

        // An acknowledged leader write: unplug OMIM (journals a real
        // GML delta plus the lifecycle event).
        assert!(leader.unplug("OMIM").unwrap());
        pump(&leader, &mut follower);
        assert_eq!(
            served_bytes(&follower),
            served_bytes(&leader),
            "write replicates"
        );
        assert_eq!(follower.wal_position(), leader.wal_position());
        // The registry mirrored the unplug (search harvest tracks it).
        assert!(!follower
            .annoda()
            .registry()
            .sources()
            .iter()
            .any(|s| s.name == "OMIM"));

        // Queries answer identically on both nodes.
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let leader_rows = leader.lorel(q).unwrap().1.rows;
        let follower_rows = follower.lorel(q).unwrap().1.rows;
        assert_eq!(leader_rows, follower_rows);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// An automatic compaction can seal shard 0's unplug event before a
    /// follower reads it; the snapshot transfer still carries the
    /// unplug over, through the leader's source list.
    #[test]
    fn follower_mirrors_an_unplug_that_compaction_sealed() {
        let leader_dir = tmp_dir("sealed-leader");
        let follower_dir = tmp_dir("sealed-follower");
        let mut leader =
            DurableSystem::open_sharded(system(), &leader_dir, FsyncPolicy::Always, 1).unwrap();
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        pump(&leader, &mut follower);

        assert!(leader.unplug("OMIM").unwrap());
        let sealed_from = leader.wal_position().unwrap()[0].0;
        let mut step = 0u32;
        while leader.wal_position().unwrap()[0].0 == sealed_from {
            mutate_locus(
                &mut leader,
                1000,
                &format!("edit {step} {}", "x".repeat(4000)),
            );
            leader.refresh_source("LocusLink").unwrap();
            step += 1;
            assert!(step < 200, "edits never pushed shard 0 over its bound");
        }

        pump(&leader, &mut follower);
        assert_eq!(served_bytes(&follower), served_bytes(&leader));
        assert!(
            !follower.source_names().iter().any(|n| n == "OMIM"),
            "the follower still lists the unplugged source: {:?}",
            follower.source_names()
        );
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_restart_resumes_without_snapshot_transfer() {
        let leader_dir = tmp_dir("resume-leader");
        let follower_dir = tmp_dir("resume-follower");
        let mut leader = open(system(), &leader_dir);
        // Put the leader past generation 0 so a bootstrap needs a
        // genuine snapshot transfer.
        leader.snapshot().unwrap();
        leader.refresh().unwrap();

        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        pump(&leader, &mut follower);
        let position = follower.wal_position();
        drop(follower);

        // Restart: the marker makes the local position trustworthy.
        let follower2 =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        assert_eq!(follower2.replica_resume_position(), position);
        assert_eq!(served_bytes(&follower2), served_bytes(&leader));

        // A directory that once journaled locally must NOT resume.
        drop(follower2);
        let local = open(system(), &follower_dir);
        drop(local);
        let follower3 =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        assert!(
            follower3.replica_resume_position().is_none(),
            "locally-journaled bytes force a snapshot transfer"
        );
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn follower_refuses_writes_until_promoted() {
        let leader_dir = tmp_dir("promote-leader");
        let follower_dir = tmp_dir("promote-follower");
        let leader = open(system(), &leader_dir);
        let mut follower =
            DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, 1).unwrap();
        pump(&leader, &mut follower);

        assert!(matches!(
            follower.refresh(),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.unplug("OMIM"),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.snapshot(),
            Err(AnnodaError::Replication(_))
        ));
        // Batches that do not extend the applied position are refused,
        // and so are shards the store does not have.
        let (generation, offset) = follower.wal_position().unwrap()[0];
        assert!(matches!(
            follower.apply_replica_batch(0, generation, offset + 1, &[vec![0]]),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.apply_replica_batch(0, generation + 1, offset, &[]),
            Err(AnnodaError::Replication(_))
        ));
        assert!(matches!(
            follower.apply_replica_batch(1, generation, offset, &[]),
            Err(AnnodaError::Replication(_))
        ));

        // Promotion compacts the store behind a snapshot (oids may be
        // renumbered), so the invariant is identical *answers*, not
        // identical raw bytes.
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let before_rows = follower.lorel(q).unwrap().1.rows.len();
        let old_generation = follower.wal_position().unwrap()[0].0;
        let (new_generation, _offset) = follower.promote().unwrap()[0];
        assert_eq!(follower.role(), Role::Leader);
        assert!(new_generation > old_generation, "promotion seals the WAL");
        assert_eq!(
            follower.lorel(q).unwrap().1.rows.len(),
            before_rows,
            "promotion loses nothing"
        );
        // Writes are accepted now; a second promote is refused.
        assert!(follower.unplug("OMIM").unwrap());
        assert!(matches!(
            follower.promote(),
            Err(AnnodaError::Replication(_))
        ));
        // The old leader cannot ship to a promoted node.
        assert!(matches!(
            follower.apply_replica_batch(0, new_generation, 13, &[]),
            Err(AnnodaError::Replication(_))
        ));
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    /// Rewrites one locus description in the live LocusLink native DB
    /// (the same mutation the freshness experiment applies).
    fn mutate_locus(sys: &mut DurableSystem, locus_id: u32, desc: &str) {
        let w = sys
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .as_any_mut()
            .downcast_mut::<annoda_wrap::LocusLinkWrapper>()
            .unwrap();
        w.db_mut().by_id_mut(locus_id).unwrap().description = desc.to_string();
    }

    #[test]
    fn four_shards_answer_identically_to_one() {
        let sharded = DurableSystem::new_sharded(system(), 4).unwrap();
        let flat = DurableSystem::new(system());
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        assert_eq!(
            sharded.lorel_shared(q).unwrap().outcome.rows,
            flat.lorel_shared(q).unwrap().outcome.rows
        );
        // Search answers over the assembled model too.
        let term = live_term(&sharded);
        assert_eq!(
            sharded
                .search_shared(&term, 5, FusionStrategy::Weighted)
                .unwrap()
                .len(),
            flat.search_shared(&term, 5, FusionStrategy::Weighted)
                .unwrap()
                .len()
        );
    }

    #[test]
    fn sharded_refresh_source_bumps_only_touched_shards() {
        let mut sys = DurableSystem::new_sharded(system(), 4).unwrap();
        let handle = Arc::clone(sys.shards());
        let _ = sys.query_snapshot().unwrap();
        let g0 = sys.generation();
        let e0 = handle.epoch_vector();

        // A refresh with an unchanged native DB commits nothing.
        let out = sys.refresh_source("LocusLink").unwrap();
        assert_eq!(out.journaled_records, 0);
        assert_eq!(*handle.epoch_vector(), *e0, "no-op refresh bumps nothing");
        assert_eq!(sys.generation(), g0, "sharded refresh keeps the generation");

        // Mutate one locus; only the shards its entities live on bump.
        mutate_locus(&mut sys, 1000, "sharded-refresh rewrites this locus");
        let g_after_mut = sys.generation();
        sys.refresh_source("LocusLink").unwrap();
        let e1 = handle.epoch_vector();
        let bumped: Vec<usize> = (0..4).filter(|&i| e1[i] != e0[i]).collect();
        assert!(!bumped.is_empty(), "a real change must bump something");
        assert!(
            bumped.len() < 4,
            "a one-locus change must not bump every shard (bumped {bumped:?})"
        );
        assert_eq!(
            sys.generation(),
            g_after_mut,
            "selective commit leaves the generation alone"
        );
        // The new description is served.
        let snap = sys.query_snapshot().unwrap();
        assert_eq!(snap.shard_epochs.as_deref(), Some(e1.as_ref()));
        let stats = handle.txn_stats();
        assert!(stats.commits >= 1);
        assert_eq!(stats.conflicts, 0);
        let gauges = handle.shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert!(gauges.iter().all(|g| g.objects > 0 && g.epoch >= 1));

        // Unknown sources are refused.
        assert!(sys.refresh_source("NOPE").is_err());
    }

    #[test]
    fn absorb_delta_matches_direct_mutation_and_refresh() {
        use annoda_federation::ChangeRecord;
        use annoda_wrap::scripted_mutation;
        // Control: mutate the wrapper in place, pull-refresh. Streamed:
        // absorb the emitted (key, flat) pairs as change batches — the
        // path a feed subscriber drives.
        let mut control = DurableSystem::new_sharded(system(), 4).unwrap();
        let mut streamed = DurableSystem::new_sharded(system(), 4).unwrap();
        let _ = streamed.query_snapshot().unwrap();
        let emit = |control: &mut DurableSystem, source: &str, step: u64| {
            let w = control
                .annoda_mut()
                .registry_mut()
                .mediator_mut()
                .wrapper_mut(source)
                .unwrap();
            let (key, flat) =
                scripted_mutation(&mut **w, 9, step).expect("source supports scripted mutation");
            control.refresh_source(source).unwrap();
            vec![ChangeRecord {
                key,
                flat: Some(flat),
            }]
        };
        // LocusLink description edits are store-bearing: the GML's Gene
        // Description changes, so shards bump — but never all of them.
        for step in 0..5u64 {
            let batch = emit(&mut control, "LocusLink", step);
            let out = streamed.absorb_delta("LocusLink", &batch, false).unwrap();
            assert!(out.changed_shards >= 1, "a description edit bumps a shard");
            assert!(out.changed_shards < 4, "one record must not bump them all");
            assert!(out.changed_fragments >= 1);
        }
        // OMIM text edits are search-only: the GML carries no Text
        // attribute, so no shard bumps — yet `/search` must still see
        // the revision (the generation carries the invalidation).
        for step in 0..3u64 {
            let batch = emit(&mut control, "OMIM", step);
            let out = streamed.absorb_delta("OMIM", &batch, false).unwrap();
            assert_eq!(out.changed_shards, 0, "text is not materialised");
        }
        let a = streamed.query_snapshot().unwrap();
        let b = control.query_snapshot().unwrap();
        assert_eq!(
            encode_store(&a.store),
            encode_store(&b.store),
            "incremental absorb assembles the byte-identical store"
        );
        // "penetrance" only occurs in the scripted OMIM revision, so a
        // hit proves both indexes re-published past the text-only delta.
        for term in [live_term(&control), "penetrance".to_string()] {
            let hits = DurableSystem::search_on(&a, &term, 5, FusionStrategy::Weighted);
            assert!(!hits.is_empty(), "term {term} must hit");
            assert_eq!(
                hits,
                DurableSystem::search_on(&b, &term, 5, FusionStrategy::Weighted),
                "the incrementally-updated index ranks identically"
            );
        }

        // Deltas are refused on unknown sources and absorbed as no-ops
        // when empty.
        assert!(streamed.absorb_delta("NOPE", &[], false).is_err());
        let out = streamed.absorb_delta("OMIM", &[], false).unwrap();
        assert_eq!(out.changed_shards, 0);
    }

    #[test]
    fn bootstrap_batch_replaces_the_native_db() {
        use annoda_federation::ChangeRecord;
        // Different seeds: the subscriber's local corpus disagrees with
        // the feed until the bootstrap dump replaces it.
        let c = Corpus::generate(CorpusConfig::tiny(7));
        let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        let mut upstream = DurableSystem::new(a);
        let mut sub = DurableSystem::new_sharded(system(), 4).unwrap();

        let dump = upstream
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .change_dump()
            .unwrap();
        let records: Vec<ChangeRecord> = dump
            .iter()
            .map(|(key, flat)| ChangeRecord {
                key: key.clone(),
                flat: Some(flat.clone()),
            })
            .collect();
        sub.absorb_delta("LocusLink", &records, true).unwrap();
        let sub_dump = sub
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut("LocusLink")
            .unwrap()
            .change_dump()
            .unwrap();
        assert_eq!(sub_dump, dump, "bootstrap replaces, record for record");
    }

    #[test]
    fn sharded_durable_roundtrip_serves_after_restart() {
        let dir = tmp_dir("sharded-durable");
        let q = "select count(GML.Gene) from ANNODA-GML GML";
        let rows = {
            let mut sys =
                DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 3).unwrap();
            assert!(sys.is_durable());
            mutate_locus(&mut sys, 1001, "durable sharded mutation");
            sys.refresh_source("LocusLink").unwrap();
            sys.lorel_shared(q).unwrap().outcome.rows
        };
        // Warm restart adopts the manifest shard count and recovered
        // per-shard segments.
        let warm = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(warm.shards().shard_count(), 3);
        assert_eq!(warm.lorel_shared(q).unwrap().outcome.rows, rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unplug_is_journaled_and_survives_restart() {
        let dir = tmp_dir("unplug");
        let mut sys = open(system(), &dir);
        assert!(sys.unplug("OMIM").unwrap());
        let bytes = served_bytes(&sys);
        drop(sys);
        // Restart with OMIM already gone from the live registry too.
        let c = Corpus::generate(CorpusConfig::tiny(42));
        let (mut a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
        a.unplug("OMIM");
        let warm = open(a, &dir);
        assert_eq!(served_bytes(&warm), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A warm 3-shard open after commits that were never snapshotted
    /// reports what recovery really did, summed over the shards; after
    /// a snapshot of the shards holding records, only the post-snapshot
    /// commit replays on top of the loaded snapshots.
    #[test]
    fn warm_open_reports_true_aggregate_recovery() {
        let dir = tmp_dir("recovery");
        let open3 = |dir: &Path| {
            DurableSystem::open_sharded(system(), dir, FsyncPolicy::Always, 3).unwrap()
        };
        let journaled = {
            let mut sys = open3(&dir);
            let cold = sys.persist_stats().unwrap().appended_records;
            assert_eq!(cold, 3, "the cold open journals one root per shard");
            mutate_locus(&mut sys, 1000, "never snapshotted");
            let out = sys.refresh_source("LocusLink").unwrap();
            assert!(out.journaled_records > 0);
            cold + out.journaled_records as u64
        };
        let mut sys = open3(&dir);
        let r = *sys.recovery().unwrap();
        assert!(!r.snapshot_loaded, "no shard was ever snapshotted");
        assert_eq!(
            r.replayed_records, journaled,
            "every journaled record replays"
        );
        assert_eq!(sys.persist_stats().unwrap().replayed_records, journaled);

        let meta = sys.snapshot().unwrap().unwrap();
        assert!(meta.objects > 0 && meta.bytes > 0);
        mutate_locus(&mut sys, 1001, "after the snapshot");
        let suffix = sys.refresh_source("LocusLink").unwrap().journaled_records as u64;
        drop(sys);
        let sys = open3(&dir);
        let r = *sys.recovery().unwrap();
        assert!(r.snapshot_loaded);
        assert_eq!(r.snapshot_objects, meta.objects);
        assert_eq!(
            r.replayed_records, suffix,
            "only the post-snapshot suffix replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard whose WAL outgrows twice its snapshot size is compacted
    /// by the commit that crossed the bound, so a sustained stream of
    /// edits keeps every log under it.
    #[test]
    fn commits_compact_a_shard_whose_wal_outgrew_it() {
        let dir = tmp_dir("compact");
        let mut sys = DurableSystem::open_sharded(system(), &dir, FsyncPolicy::Always, 2).unwrap();
        let bound = |sys: &DurableSystem| {
            sys.shards()
                .with_durable(|d| {
                    (0..d.shard_count())
                        .map(|i| (d.shard(i).stats().wal_bytes, d.shard(i).wal_outgrown()))
                        .collect::<Vec<_>>()
                })
                .unwrap()
        };
        for step in 0..60u32 {
            let text = format!("edit {step} {}", "x".repeat(2000));
            mutate_locus(&mut sys, 1000 + step % 2, &text);
            sys.refresh_source("LocusLink").unwrap();
            for (wal_bytes, outgrown) in bound(&sys) {
                assert!(
                    !outgrown,
                    "a commit left a {wal_bytes}-byte WAL over its bound"
                );
            }
        }
        let stats = sys.persist_stats().unwrap();
        assert!(stats.snapshots > 0, "the edits outgrew some shard's bound");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
