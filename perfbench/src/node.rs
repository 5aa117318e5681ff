//! Builds a serving node the way `annoda-serve` builds it: the three
//! paper sources wrapped and plugged, the mediator cache on, the store
//! in memory or in a sharded data dir, the shipped `ServeConfig`, and
//! one change-feed tailer per subscribed source.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use annoda::{Annoda, DurableSystem, FsyncPolicy};
use annoda_serve::{ServeConfig, Server};
use annoda_sources::Corpus;
use annoda_stream::{FeedGauges, StreamClient, StreamConfig};

use crate::client;

/// `annoda-serve`'s default `--fsync`.
pub const DEFAULT_FSYNC: FsyncPolicy = FsyncPolicy::Batched(64);
/// The sharded layout of the `feed_absorb` node (`--store-shards 4`).
pub const STORE_SHARDS: usize = 4;

/// The native databases handed to the node.
#[derive(Clone)]
pub struct Sources {
    pub locuslink: annoda_sources::LocusLinkDb,
    pub go: annoda_sources::GoDb,
    pub omim: annoda_sources::OmimDb,
}

impl Sources {
    pub fn of(corpus: &Corpus) -> Sources {
        Sources {
            locuslink: corpus.locuslink.clone(),
            go: corpus.go.clone(),
            omim: corpus.omim.clone(),
        }
    }
}

/// What the node is built over.
pub enum Store<'a> {
    /// No `--data-dir`: the in-memory store.
    Memory,
    /// `--store-shards 4 --data-dir DIR`.
    ShardedDir(&'a Path),
}

/// Wraps and plugs the sources and opens the store — everything but
/// the socket.
pub fn system(sources: Sources, store: &Store<'_>) -> Result<DurableSystem, String> {
    let (mut system, _reports) = Annoda::over_sources(sources.locuslink, sources.go, sources.omim);
    system.registry_mut().mediator_mut().enable_cache();
    match store {
        Store::Memory => Ok(DurableSystem::new(system)),
        Store::ShardedDir(dir) => {
            DurableSystem::open_sharded(system, dir, DEFAULT_FSYNC, STORE_SHARDS)
                .map_err(|e| format!("open data dir {}: {e}", dir.display()))
        }
    }
}

pub struct Node {
    pub server: Server,
    pub feeds: Vec<StreamClient>,
    pub data_dir: Option<PathBuf>,
}

impl Node {
    /// Builds and binds a node; `subscribe` names `(source, feed address)`
    /// pairs to tail.
    pub fn start(
        sources: Sources,
        store: Store<'_>,
        subscribe: &[(&str, SocketAddr)],
    ) -> Result<Node, String> {
        let data_dir = match &store {
            Store::ShardedDir(dir) => Some(dir.to_path_buf()),
            Store::Memory => None,
        };
        let durable = system(sources, &store)?;
        let server = Server::start_durable(durable, ServeConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let feeds = subscribe
            .iter()
            .map(|(source, addr)| {
                let client = StreamClient::spawn(
                    Arc::clone(&server.app().system),
                    source,
                    &addr.to_string(),
                    StreamConfig::default(),
                );
                server.app().register_feed(client.gauges());
                client
            })
            .collect();
        Ok(Node {
            server,
            feeds,
            data_dir,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn gauges(&self, source: &str) -> Option<Arc<FeedGauges>> {
        self.feeds
            .iter()
            .map(StreamClient::gauges)
            .find(|g| g.source == source)
    }

    /// Stops the tailers and the server and removes the data dir.
    pub fn shutdown(mut self) {
        for feed in &mut self.feeds {
            feed.shutdown();
        }
        let _ = self.server.shutdown(Duration::from_secs(10));
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `/metrics` in its text exposition, as `name{labels}` → value. Each
/// scrape uses a connection of its own that the server closes after the
/// reply: a scrape connection held open would count in the server's
/// least-loaded placement and could put both load connections on one
/// reactor shard when they reconnect.
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let reply = client::get(addr, "/metrics").map_err(|e| format!("scrape /metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Ok(String::from_utf8_lossy(&reply.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Sum of every scraped series whose name (before labels) is `name`.
pub fn series_sum(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.iter()
        .filter(|(k, _)| k.split('{').next() == Some(name))
        .map(|(_, v)| v)
        .sum()
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
