//! Socket-level replication tests: a real [`LeaderServer`] shipping a
//! real per-shard WAL set over TCP into a [`ReplicaClient`]-driven
//! follower.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, FsyncPolicy};
use annoda_persist::encode_store;
use annoda_replica::{LeaderConfig, LeaderServer, ReplicaClient, ReplicaConfig};
use annoda_sources::{Corpus, CorpusConfig};

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
    a
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("annoda-replsock-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_client() -> ReplicaConfig {
    ReplicaConfig {
        poll_interval: Duration::from_millis(5),
        backoff: Duration::from_millis(10),
        ..ReplicaConfig::default()
    }
}

/// Polls `pred` for up to `timeout`, panicking with `what` on expiry.
fn wait_until(timeout: Duration, what: &str, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Store shards on both ends — more than one, so batches interleave
/// across shard logs.
const SHARDS: usize = 2;

fn leader_at(dir: &std::path::Path) -> DurableSystem {
    DurableSystem::open_sharded(system(), dir, FsyncPolicy::Always, SHARDS).unwrap()
}

fn follower_at(dir: &std::path::Path) -> DurableSystem {
    DurableSystem::open_follower(system(), dir, FsyncPolicy::Always, SHARDS).unwrap()
}

fn caught_up(leader: &RwLock<DurableSystem>, follower: &RwLock<DurableSystem>) -> bool {
    let l = leader.read().unwrap().wal_position();
    let f = follower.read().unwrap().wal_position();
    l == f
}

/// The canonical encoding of the served global model.
fn served(sys: &RwLock<DurableSystem>) -> Vec<u8> {
    encode_store(&sys.read().unwrap().query_snapshot().unwrap().store)
}

/// Every shard's WAL file, in shard order.
fn wal_files(dir: &std::path::Path) -> Vec<Vec<u8>> {
    (0..SHARDS)
        .map(|i| std::fs::read(dir.join(format!("shard-{i:03}")).join("wal.log")).unwrap())
        .collect()
}

#[test]
fn follower_bootstraps_from_snapshot_and_tails_live_writes() {
    let leader_dir = tmp_dir("boot-leader");
    let follower_dir = tmp_dir("boot-follower");
    let mut sys = leader_at(&leader_dir);
    // Past generation 0: a fresh follower cannot replay its way here
    // and must receive a genuine snapshot transfer.
    sys.snapshot().unwrap();
    sys.refresh().unwrap();
    let leader = Arc::new(RwLock::new(sys));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", LeaderConfig::default()).unwrap();

    let follower = Arc::new(RwLock::new(follower_at(&follower_dir)));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );

    wait_until(Duration::from_secs(10), "bootstrap to converge", || {
        caught_up(&leader, &follower)
    });
    assert_eq!(
        served(&follower),
        served(&leader),
        "bootstrap converges to the leader's store"
    );
    {
        let f = follower.read().unwrap();
        let repl = f.repl_handle();
        let stats = repl.stats();
        assert!(
            stats.snapshot_xfer_bytes > 0,
            "bootstrap shipped a snapshot"
        );
    }

    // A live acknowledged write tails over the wire.
    assert!(leader.write().unwrap().unplug("OMIM").unwrap());
    wait_until(Duration::from_secs(10), "live write to replicate", || {
        caught_up(&leader, &follower)
    });
    assert_eq!(served(&follower), served(&leader), "live tail converges");
    // The replicated WALs are byte-identical to the leader's files.
    assert_eq!(
        wal_files(&leader_dir),
        wal_files(&follower_dir),
        "follower WALs are byte-identical copies"
    );
    {
        let f = follower.read().unwrap();
        let stats = f.repl_handle().stats();
        assert_eq!(stats.lag_records, 0);
        assert_eq!(stats.lag_bytes, 0);
    }

    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn corrupt_batches_force_resubscribe_never_divergence() {
    let leader_dir = tmp_dir("corrupt-leader");
    let follower_dir = tmp_dir("corrupt-follower");
    let leader = Arc::new(RwLock::new(leader_at(&leader_dir)));
    // The first two non-empty batches arrive with a flipped byte; the
    // framing checksum must catch both and the client re-subscribe.
    let config = LeaderConfig {
        corrupt_first_batches: 2,
        ..LeaderConfig::default()
    };
    let server = LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", config).unwrap();

    let follower = Arc::new(RwLock::new(follower_at(&follower_dir)));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );

    wait_until(
        Duration::from_secs(10),
        "convergence despite corruption",
        || caught_up(&leader, &follower),
    );
    let stats = follower.read().unwrap().repl_handle().stats();
    assert!(
        stats.resubscribes >= 2,
        "each damaged frame tears the subscription down (saw {})",
        stats.resubscribes
    );
    assert_eq!(
        served(&follower),
        served(&leader),
        "no damaged byte was ever applied"
    );
    assert_eq!(wal_files(&leader_dir), wal_files(&follower_dir));

    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn promotion_stops_the_client_and_restarted_follower_resumes() {
    let leader_dir = tmp_dir("promo-leader");
    let follower_dir = tmp_dir("promo-follower");
    let leader = Arc::new(RwLock::new(leader_at(&leader_dir)));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", LeaderConfig::default()).unwrap();

    let follower = Arc::new(RwLock::new(follower_at(&follower_dir)));
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );
    wait_until(Duration::from_secs(10), "initial convergence", || {
        caught_up(&leader, &follower)
    });

    // Restart the follower process: the marker file lets it resume
    // from its local WAL without a second snapshot transfer.
    client.shutdown();
    let position = follower.read().unwrap().wal_position();
    {
        let mut guard = follower.write().unwrap();
        let resumed = follower_at(&follower_dir);
        assert_eq!(resumed.replica_resume_position(), position);
        *guard = resumed;
    }
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );
    assert!(leader.write().unwrap().refresh().is_ok());
    wait_until(Duration::from_secs(10), "resume to converge", || {
        caught_up(&leader, &follower)
    });
    assert_eq!(
        follower
            .read()
            .unwrap()
            .repl_handle()
            .stats()
            .snapshot_xfer_bytes,
        0,
        "resume needed no snapshot transfer"
    );

    // Promote: the shipping thread notices the role flip and exits on
    // its own; the node accepts writes from then on.
    let q = "select count(GML.Gene) from ANNODA-GML GML";
    let rows_before = follower.read().unwrap().lorel(q).unwrap().1.rows.len();
    follower.write().unwrap().promote().unwrap();
    // shutdown() joins; the thread exits on its own when it observes
    // the role flip, so this returns promptly either way.
    client.shutdown();
    let mut f = follower.write().unwrap();
    assert_eq!(f.lorel(q).unwrap().1.rows.len(), rows_before);
    assert!(f.unplug("OMIM").unwrap(), "promoted node accepts writes");

    drop(f);
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// A follower opened with a different shard count than its leader's is
/// refused at subscribe, with a message naming both counts — and its
/// client stops instead of retrying forever.
#[test]
fn mismatched_shard_count_is_refused_at_subscribe() {
    let leader_dir = tmp_dir("mismatch-leader");
    let follower_dir = tmp_dir("mismatch-follower");
    let leader = Arc::new(RwLock::new(leader_at(&leader_dir)));
    let server =
        LeaderServer::spawn(Arc::clone(&leader), "127.0.0.1:0", LeaderConfig::default()).unwrap();
    let follower = Arc::new(RwLock::new(
        DurableSystem::open_follower(system(), &follower_dir, FsyncPolicy::Always, SHARDS + 1)
            .unwrap(),
    ));
    let repl = follower.read().unwrap().repl_handle();
    let mut client = ReplicaClient::spawn(
        Arc::clone(&follower),
        &server.addr().to_string(),
        fast_client(),
    );
    wait_until(Duration::from_secs(10), "the refusal", || {
        repl.refusal().is_some()
    });
    let reason = repl.refusal().unwrap();
    assert!(
        reason.contains(&format!("follower has {} store shards", SHARDS + 1))
            && reason.contains(&format!("leader has {SHARDS}")),
        "{reason}"
    );
    assert_eq!(repl.stats().resubscribes, 0, "a refusal is not retried");
    client.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
