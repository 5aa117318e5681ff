//! The `annoda-serve` binary: generates a bundled corpus, plugs the
//! sources into ANNODA, and serves the Figure 5 interface over HTTP.
//!
//! Entirely offline — the corpus is synthesized in-process, the server
//! is std-only. `quit` (or EOF) on stdin triggers a graceful shutdown.
//!
//! The materialised ANNODA-GML is one store of `--store-shards N`
//! hash-routed shards (default 1) with per-shard MVCC epochs: refreshes
//! commit as shard transactions, readers pin consistent epoch vectors,
//! and the HTTP cache invalidates only the shards a write touched.
//!
//! With `--data-dir` every shard lives in its own WAL + snapshot
//! segment: a restart warm-starts from snapshot + journal replay
//! instead of re-materialising, `POST /admin/refresh` journals source
//! deltas, a segment whose WAL outgrows twice its snapshot is compacted,
//! and a clean `quit` snapshots every shard with journal records (a
//! kill does not — the journal covers it).
//!
//! Replication (both need `--data-dir`):
//!
//! - `--repl-bind ADDR` makes this node a shipping **leader**: its shard
//!   WALs stream to any follower that subscribes on ADDR.
//! - `--follow ADDR` makes it a read-only **follower** of the leader's
//!   replication address, with the leader's `--store-shards` count (a
//!   different count is refused by the leader): writes answer `403`
//!   (naming the leader when `--leader-http` is given), reads serve the
//!   replicated store, `GET /healthz` reports the per-shard position
//!   reads can pin with `?min_position=`, and `POST /admin/promote`
//!   fails it over to leader.
//!
//! With `--subscribe SOURCE=HOST:PORT` (repeatable) the node tails a
//! source-server's change feed: record-level deltas are absorbed
//! through `DurableSystem::absorb_apply`/`absorb_commit` as they are
//! pushed, so the served view stays fresh without `POST /admin/refresh`
//! round trips. `/metrics` exposes per-source feed gauges and
//! `/healthz` the feed positions. A `--follow` node rejects
//! `--subscribe` — a follower's store must stay a byte-identical
//! replica of its leader's WALs, so it inherits streamed changes
//! through replication instead.
//!
//! ```text
//! annoda-serve [--addr HOST:PORT] [--loci N] [--seed N]
//!              [--shards N] [--workers N] [--queue N]
//!              [--store-shards N]
//!              [--data-dir DIR] [--fsync always|batched:N|onsnapshot]
//!              [--repl-bind HOST:PORT]
//!              [--follow HOST:PORT] [--leader-http HOST:PORT]
//!              [--subscribe SOURCE=HOST:PORT]...
//! ```

use std::io::BufRead;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use annoda::{Annoda, DurableSystem, FsyncPolicy, Role};
use annoda_oem::MAX_SHARDS;
use annoda_replica::{LeaderConfig, LeaderServer, ReplicaClient, ReplicaConfig};
use annoda_serve::{ServeConfig, Server};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_stream::{StreamClient, StreamConfig};

const USAGE: &str = "annoda-serve [--addr HOST:PORT] [--loci N] [--seed N] \
                     [--shards N] [--workers N] [--queue N] \
                     [--store-shards N (1..=64, default 1)] [--data-dir DIR] \
                     [--fsync always|batched:N|onsnapshot] \
                     [--repl-bind HOST:PORT] [--follow HOST:PORT] \
                     [--leader-http HOST:PORT] \
                     [--subscribe SOURCE=HOST:PORT]...";

/// Everything the command line asked for.
struct Options {
    addr: String,
    loci: usize,
    seed: u64,
    shards: usize,
    workers: usize,
    queue: usize,
    store_shards: usize,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    repl_bind: Option<String>,
    follow: Option<String>,
    leader_http: Option<String>,
    subscriptions: Vec<(String, String)>,
}

/// The value after `flag`, parsed as `what`.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} takes {what}, got `{v}`"))
}

/// Parses the command line; `Ok(None)` after printing `--help`. Every
/// combination that cannot work is refused here, before any work.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut o = Options {
        addr: "127.0.0.1:8642".to_string(),
        loci: 500,
        seed: 7,
        shards: 2,
        workers: 4,
        queue: 64,
        store_shards: 1,
        data_dir: None,
        fsync: FsyncPolicy::Batched(64),
        repl_bind: None,
        follow: None,
        leader_http: None,
        subscriptions: Vec::new(),
    };
    while let Some(flag) = args.next() {
        let a = &mut args;
        match flag.as_str() {
            "--addr" => o.addr = value(a, &flag, "HOST:PORT")?,
            "--loci" => o.loci = value(a, &flag, "a locus count")?,
            "--seed" => o.seed = value(a, &flag, "a number")?,
            "--shards" => o.shards = value(a, &flag, "a reactor count")?,
            "--workers" => o.workers = value(a, &flag, "a worker count")?,
            "--queue" => o.queue = value(a, &flag, "a queue bound")?,
            "--store-shards" => {
                let what = format!("a shard count in 1..={MAX_SHARDS}");
                o.store_shards = value(a, &flag, &what)?;
                if !(1..=MAX_SHARDS).contains(&o.store_shards) {
                    return Err(format!("{flag} takes {what}, got {}", o.store_shards));
                }
            }
            "--data-dir" => o.data_dir = Some(value(a, &flag, "a directory")?),
            "--fsync" => {
                let v: String = value(a, &flag, "a policy")?;
                o.fsync = FsyncPolicy::parse(&v).ok_or_else(|| {
                    format!("{flag} takes always | batched:N | onsnapshot, got `{v}`")
                })?;
            }
            "--repl-bind" => o.repl_bind = Some(value(a, &flag, "HOST:PORT")?),
            "--follow" => o.follow = Some(value(a, &flag, "HOST:PORT")?),
            "--leader-http" => o.leader_http = Some(value(a, &flag, "HOST:PORT")?),
            "--subscribe" => {
                let v: String = value(a, &flag, "SOURCE=HOST:PORT")?;
                match v.split_once('=') {
                    Some((source, addr)) if !source.is_empty() && !addr.is_empty() => {
                        o.subscriptions.push((source.to_string(), addr.to_string()));
                    }
                    _ => return Err(format!("{flag} takes SOURCE=HOST:PORT, got `{v}`")),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if (o.repl_bind.is_some() || o.follow.is_some()) && o.data_dir.is_none() {
        return Err("--repl-bind / --follow need --data-dir (the WAL is the stream)".into());
    }
    if o.repl_bind.is_some() && o.follow.is_some() {
        return Err("--repl-bind and --follow are mutually exclusive".into());
    }
    if o.follow.is_some() && !o.subscriptions.is_empty() {
        return Err(
            "--subscribe needs a writable store (not --follow): a follower's \
                    store is a byte-identical replica of its leader's WALs, so it receives \
                    streamed changes through replication — subscribe on the leader instead"
                .into(),
        );
    }
    Ok(Some(o))
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("generating corpus ({} loci, seed {})...", o.loci, o.seed);
    let base = CorpusConfig::default();
    let factor = o.loci as f64 / base.loci as f64;
    let corpus = Corpus::generate(CorpusConfig {
        seed: o.seed,
        ..base.scaled(factor)
    });
    let (mut system, reports) = Annoda::over_sources(
        corpus.locuslink.clone(),
        corpus.go.clone(),
        corpus.omim.clone(),
    );
    for r in &reports {
        eprintln!("plugged source: {}", r.source);
    }
    system.registry_mut().mediator_mut().enable_cache();

    let n = o.store_shards;
    let opened = match &o.data_dir {
        Some(dir) if o.follow.is_some() => {
            DurableSystem::open_follower(system, Path::new(dir), o.fsync, n)
        }
        Some(dir) => DurableSystem::open_sharded(system, Path::new(dir), o.fsync, n),
        None => DurableSystem::new_sharded(system, n),
    };
    let durable = match opened {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot open the store: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (&o.data_dir, durable.recovery()) {
        (Some(dir), Some(r)) => eprintln!(
            "data dir {dir} ({}, {n} store shards): generation {}, snapshot {} \
             ({} objects), replayed {} journal records, truncated {} bytes",
            durable.role(),
            r.generation,
            if r.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            r.snapshot_objects,
            r.replayed_records,
            r.truncated_bytes,
        ),
        _ => eprintln!("in-memory store, {n} store shards"),
    }
    if let Some(leader) = o.leader_http.as_deref().or(o.follow.as_deref()) {
        durable.repl_handle().set_leader_addr(leader);
    }

    let config = ServeConfig {
        addr: o.addr.clone(),
        shards: o.shards,
        workers: o.workers,
        queue_capacity: o.queue,
        ..ServeConfig::default()
    };
    let server = match Server::start_durable(durable, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.addr();

    let system_handle = std::sync::Arc::clone(&server.app().system);
    let mut leader_server = match &o.repl_bind {
        Some(bind) => match LeaderServer::spawn(
            std::sync::Arc::clone(&system_handle),
            bind,
            LeaderConfig::default(),
        ) {
            Ok(s) => {
                eprintln!("replication leader shipping the WAL on {}", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("error: cannot bind replication listener: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut replica_client = o.follow.as_deref().map(|leader| {
        eprintln!("following leader WAL at {leader}");
        ReplicaClient::spawn(
            std::sync::Arc::clone(&system_handle),
            leader,
            ReplicaConfig::default(),
        )
    });
    let mut stream_clients: Vec<StreamClient> = o
        .subscriptions
        .iter()
        .map(|(source, feed_addr)| {
            eprintln!("tailing change feed for {source} at {feed_addr}");
            let client = StreamClient::spawn(
                std::sync::Arc::clone(&system_handle),
                source,
                feed_addr,
                StreamConfig::default(),
            );
            server.app().register_feed(client.gauges());
            client
        })
        .collect();

    println!("annoda-serve listening on http://{bound}");
    println!("routes:");
    println!("  GET  /genes?organism=...&function=require:...&combine=all");
    println!("  POST /lorel                 (body: Lorel query text)");
    println!("  GET  /object/{{kind}}/{{id}}    (kind: gene|function|disease|publication)");
    println!("  GET  /search?q=...&k=...&fusion=weighted|rrf|max");
    println!("  GET  /healthz               (role, per-shard position for ?min_position=)");
    println!("  GET  /metrics");
    println!("  POST /admin/refresh         (re-pull sources, journal the delta)");
    println!("  POST /admin/snapshot        (snapshot + journal truncation per shard)");
    println!("  POST /admin/promote         (failover: follower becomes leader)");
    println!("send `quit` (or EOF) on stdin for graceful shutdown");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    eprintln!("shutting down (draining in-flight requests)...");
    for client in &mut stream_clients {
        client.shutdown();
    }
    if let Some(client) = replica_client.as_mut() {
        client.shutdown();
    }
    if let Some(leader) = leader_server.as_mut() {
        leader.shutdown();
    }
    if o.data_dir.is_some() && server.app().system().role() == Role::Leader {
        // Clean shutdown compacts into snapshots; an unclean one (kill)
        // leaves the journals, which recovery replays. A follower never
        // snapshots — its WALs must stay byte-identical leader prefixes.
        match server.app().system_mut().snapshot() {
            Ok(Some(meta)) if meta.bytes == 0 => {
                eprintln!("no snapshot needed: every shard WAL is empty")
            }
            Ok(Some(meta)) => eprintln!(
                "snapshot written: generation {}, {} objects, {} bytes",
                meta.generation, meta.objects, meta.bytes
            ),
            Ok(None) => {}
            Err(e) => eprintln!("warning: shutdown snapshot failed: {e}"),
        }
    }
    let report = server.shutdown(Duration::from_secs(10));
    eprintln!(
        "served {} requests; drained: {}",
        report.requests_served, report.drained
    );
    ExitCode::SUCCESS
}
