//! Segment-addressed sharded durability: one [`DurableStore`] per shard.
//!
//! The sharded OEM store ([`annoda_oem::shard::ShardedStore`]) swaps
//! shards independently, so its durability must be segment-addressed
//! too: each shard journals into its own `shard-NNN/` subdirectory
//! (its own crc32-framed WAL + snapshot generations, reusing the
//! existing codec and recovery machinery verbatim), and a commit that
//! touches two shards writes exactly two WAL segments. A `shards.meta`
//! manifest pins the shard count so a restart cannot silently re-route
//! keys across a different partition layout.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use annoda_oem::IoFailure;

use crate::durable::{DurableStore, PersistStats, RecoveryReport};
use crate::error::PersistError;
use crate::wal::FsyncPolicy;

/// Name of the shard-layout manifest inside the store directory.
pub const SHARDS_META: &str = "shards.meta";

fn io_err(op: &'static str, path: &Path, err: std::io::Error) -> PersistError {
    PersistError::Io(IoFailure::new(op, path, &err))
}

fn shard_dir(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("shard-{idx:03}"))
}

fn write_manifest(dir: &Path, shards: usize) -> Result<(), PersistError> {
    let tmp = dir.join("shards.meta.tmp");
    let body = format!("annoda-shards v1\nshards={shards}\n");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(body.as_bytes())
        .map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    let dst = dir.join(SHARDS_META);
    fs::rename(&tmp, &dst).map_err(|e| io_err("rename", &dst, e))?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<Option<usize>, PersistError> {
    let path = dir.join(SHARDS_META);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read", &path, e)),
    };
    let mut lines = text.lines();
    if lines.next() != Some("annoda-shards v1") {
        return Err(PersistError::Corrupt {
            what: "shards.meta",
            offset: 0,
            reason: "bad manifest header".to_string(),
        });
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or(PersistError::Corrupt {
            what: "shards.meta",
            offset: 0,
            reason: "bad shard count".to_string(),
        })?;
    Ok(Some(shards))
}

/// A fixed-width vector of independently journaled [`DurableStore`]s.
///
/// Shard `i` of the in-memory [`ShardedStore`] persists under
/// `dir/shard-00i/`; its WAL segment and snapshot generation advance
/// only when that shard commits. Recovery opens every segment with the
/// standard torn-tail-tolerant path and hands back the per-shard GML
/// roots for direct reassembly (no re-partitioning on warm start).
///
/// [`ShardedStore`]: annoda_oem::shard::ShardedStore
pub struct ShardedDurableStore {
    shards: Vec<DurableStore>,
}

impl ShardedDurableStore {
    /// Opens (or creates) a sharded store of exactly `shards` segments
    /// under `dir`. An existing manifest with a different shard count is
    /// an error: the on-disk partition layout is keyed by the count and
    /// cannot be reinterpreted. Pass `shards = 0` to adopt whatever
    /// count the manifest records (error if the store does not exist).
    /// A directory holding a single store at its root (`wal.log` or a
    /// snapshot, no manifest) is refused rather than shadowed by new
    /// shard segments.
    pub fn open(dir: &Path, policy: FsyncPolicy, shards: usize) -> Result<Self, PersistError> {
        let layout = |reason: String| PersistError::Layout { reason };
        let count = match (read_manifest(dir)?, shards) {
            (Some(on_disk), 0) => on_disk,
            (Some(on_disk), want) if on_disk == want => on_disk,
            (Some(on_disk), want) => {
                return Err(layout(format!(
                    "{} holds a {on_disk}-shard store, {want} shards were asked for",
                    dir.display()
                )));
            }
            (None, _) if DurableStore::holds_state(dir) => {
                return Err(layout(format!(
                    "{} holds an unsharded store from an older release (state at its \
                     root, no {SHARDS_META}); use a fresh directory",
                    dir.display()
                )));
            }
            (None, 0) => {
                return Err(layout(format!("{} holds no sharded store", dir.display())));
            }
            (None, want) => {
                fs::create_dir_all(dir).map_err(|e| io_err("create_dir_all", dir, e))?;
                write_manifest(dir, want)?;
                want
            }
        };
        let mut stores = Vec::with_capacity(count);
        for i in 0..count {
            stores.push(DurableStore::open(&shard_dir(dir, i), policy)?);
        }
        Ok(Self { shards: stores })
    }

    /// Number of shard segments.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's durable segment.
    pub fn shard(&self, idx: usize) -> &DurableStore {
        &self.shards[idx]
    }

    /// Mutable access to one shard's durable segment.
    pub fn shard_mut(&mut self, idx: usize) -> &mut DurableStore {
        &mut self.shards[idx]
    }

    /// Stats across every segment: counters and byte sizes summed,
    /// `snapshot_loaded` when any segment loaded one, and the highest
    /// generation.
    pub fn total_stats(&self) -> PersistStats {
        self.shards
            .iter()
            .map(DurableStore::stats)
            .fold(PersistStats::default(), |a, s| PersistStats {
                generation: a.generation.max(s.generation),
                snapshot_loaded: a.snapshot_loaded || s.snapshot_loaded,
                replayed_records: a.replayed_records + s.replayed_records,
                truncated_bytes: a.truncated_bytes + s.truncated_bytes,
                wal_bytes: a.wal_bytes + s.wal_bytes,
                appended_records: a.appended_records + s.appended_records,
                appended_bytes: a.appended_bytes + s.appended_bytes,
                fsyncs: a.fsyncs + s.fsyncs,
                snapshots: a.snapshots + s.snapshots,
            })
    }

    /// What recovery found across every segment at open time, summed
    /// the same way as [`ShardedDurableStore::total_stats`].
    pub fn recovery(&self) -> RecoveryReport {
        self.shards
            .iter()
            .map(|s| *s.recovery())
            .fold(RecoveryReport::default(), |a, r| RecoveryReport {
                snapshot_loaded: a.snapshot_loaded || r.snapshot_loaded,
                snapshot_objects: a.snapshot_objects + r.snapshot_objects,
                replayed_records: a.replayed_records + r.replayed_records,
                truncated_bytes: a.truncated_bytes + r.truncated_bytes,
                generation: a.generation.max(r.generation),
            })
    }

    /// Per-shard `(generation, WAL offset)` — the replication position
    /// vector.
    pub fn positions(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| (s.generation(), s.wal_offset()))
            .collect()
    }

    /// Fsyncs every shard segment.
    pub fn sync_all(&mut self) -> Result<(), PersistError> {
        for s in &mut self.shards {
            s.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_oem::shard::ShardedStore;
    use annoda_oem::OemStore;

    fn gml(symbols: &[&str]) -> OemStore {
        let mut s = OemStore::new();
        let root = s.new_complex();
        s.set_name("ANNODA-GML", root).unwrap();
        for sym in symbols {
            let g = s.add_complex_child(root, "Gene").unwrap();
            s.add_atomic_child(g, "Symbol", *sym).unwrap();
        }
        s
    }

    #[test]
    fn open_sync_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!("annoda-sharded-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let flat = gml(&["TP53", "BRCA1", "MDM2", "EGFR"]);
        let sharded = ShardedStore::partition(&flat, "ANNODA-GML", 3).unwrap();
        {
            let mut durable = ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 3).unwrap();
            for i in 0..3 {
                let store = sharded.shard(i);
                let root = store.named("ANNODA-GML").unwrap();
                crate::delta::sync_root(durable.shard_mut(i), "ANNODA-GML", store, root).unwrap();
            }
            durable.sync_all().unwrap();
        }
        // Warm reopen adopting the manifest count.
        let recovered = ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 0).unwrap();
        assert_eq!(recovered.shard_count(), 3);
        for i in 0..3 {
            let want = sharded.shard(i);
            let got = recovered.shard(i).store();
            let (rw, rg) = (
                want.named("ANNODA-GML").unwrap(),
                got.named("ANNODA-GML").unwrap(),
            );
            assert!(annoda_oem::graph::structural_eq(want, rw, got, rg));
        }
        // Mismatched count is refused.
        assert!(ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 5).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_needs_explicit_count() {
        let dir = std::env::temp_dir().join(format!("annoda-sharded-miss-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 0).is_err());
        assert!(!dir.exists(), "a refused open leaves no directory behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsharded_layout_is_refused_not_shadowed() {
        let dir = std::env::temp_dir().join(format!("annoda-sharded-flat-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut flat = DurableStore::open(&dir, FsyncPolicy::OnSnapshot).unwrap();
        let store = gml(&["TP53"]);
        let root = store.named("ANNODA-GML").unwrap();
        crate::delta::sync_root(&mut flat, "ANNODA-GML", &store, root).unwrap();
        drop(flat);
        match ShardedDurableStore::open(&dir, FsyncPolicy::OnSnapshot, 1) {
            Err(PersistError::Layout { reason }) => {
                assert!(reason.contains("unsharded"), "{reason}")
            }
            other => panic!("expected a layout refusal, got {:?}", other.err()),
        }
        assert!(!dir.join(SHARDS_META).exists(), "nothing was written");
        assert!(!shard_dir(&dir, 0).exists(), "nothing was written");
        let _ = fs::remove_dir_all(&dir);
    }
}
