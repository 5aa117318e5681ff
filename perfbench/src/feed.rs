//! The `feed_absorb` sources: two in-process source-servers the
//! benchmark mutates with `scripted_mutation`, the precomputed history
//! those mutations produce, and the replay-and-refetch control.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use annoda::DurableSystem;
use annoda_federation::{
    ChangeJournal, ChangeRecord, ServerConfig, SourceServer, DEFAULT_JOURNAL_CAP,
};
use annoda_sources::Corpus;
use annoda_wrap::{scripted_mutation, LocusLinkWrapper, OmimWrapper, Wrapper};

use crate::gen::Mutation;

pub const LOCUSLINK: &str = "LocusLink";
pub const OMIM: &str = "OMIM";

/// The scripted-mutation seed of each feed, derived from the run seed.
pub fn feed_seed(seed: u64, locuslink: bool) -> u64 {
    if locuslink {
        seed ^ 0x11_11
    } else {
        seed ^ 0x22_22
    }
}

/// One served source with its shared wrapper and change journal.
pub struct FeedSource {
    pub server: SourceServer,
    wrapper: Arc<RwLock<Box<dyn Wrapper>>>,
    journal: Arc<ChangeJournal>,
    seed: u64,
}

impl FeedSource {
    fn spawn(wrapper: Box<dyn Wrapper>, seed: u64) -> Result<FeedSource, String> {
        let wrapper = Arc::new(RwLock::new(wrapper));
        let journal = Arc::new(ChangeJournal::new(DEFAULT_JOURNAL_CAP));
        let server = SourceServer::spawn_shared(
            Arc::clone(&wrapper),
            Arc::clone(&journal),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind source-server: {e}"))?;
        Ok(FeedSource {
            server,
            wrapper,
            journal,
            seed,
        })
    }

    /// Applies scripted mutation `step` to the served database and
    /// journals it, as `source-server --mutate-every` does per tick.
    /// Returns the journal sequence.
    pub fn mutate(&self, step: u64) -> Result<u64, String> {
        let mut w = self.wrapper.write().map_err(|_| "wrapper lock poisoned")?;
        let (key, flat) = scripted_mutation(&mut **w, self.seed, step)
            .ok_or_else(|| format!("source {} is not scriptable", w.name()))?;
        Ok(self.journal.append(ChangeRecord {
            key,
            flat: Some(flat),
        }))
    }

    pub fn head(&self) -> u64 {
        self.journal.window().head
    }
}

pub struct FeedSources {
    pub locuslink: FeedSource,
    pub omim: FeedSource,
}

impl FeedSources {
    pub fn spawn(corpus: &Corpus, seed: u64) -> Result<FeedSources, String> {
        Ok(FeedSources {
            locuslink: FeedSource::spawn(
                Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())),
                feed_seed(seed, true),
            )?,
            omim: FeedSource::spawn(
                Box::new(OmimWrapper::new(corpus.omim.clone())),
                feed_seed(seed, false),
            )?,
        })
    }

    pub fn source(&self, locuslink: bool) -> &FeedSource {
        if locuslink {
            &self.locuslink
        } else {
            &self.omim
        }
    }

    pub fn shutdown(&mut self) {
        self.locuslink.server.shutdown();
        self.omim.server.shutdown();
    }
}

/// What the LocusLink feed will write, computed ahead on a private copy:
/// per gene symbol, its descriptions in order (the corpus one first,
/// tagged with no step).
pub struct History {
    pub symbol_of_step: Vec<String>,
    pub descriptions: HashMap<String, Vec<(Option<u64>, String)>>,
}

impl History {
    pub fn compute(corpus: &Corpus, seed: u64, steps: u64) -> History {
        let mut local = LocusLinkWrapper::new(corpus.locuslink.clone());
        let mut descriptions: HashMap<String, Vec<(Option<u64>, String)>> = HashMap::new();
        let mut symbol_of_step = Vec::with_capacity(steps as usize);
        for step in 0..steps {
            let (key, _flat) = scripted_mutation(&mut local, feed_seed(seed, true), step)
                .expect("LocusLink is scriptable");
            let id: u32 = key.parse().expect("locus keys are numeric");
            let rec = local.db().by_id(id).expect("mutated locus exists");
            let entry = descriptions.entry(rec.symbol.clone()).or_insert_with(|| {
                let original = corpus.locuslink.by_id(id).expect("corpus locus");
                vec![(None, original.description.clone())]
            });
            entry.push((Some(step), rec.description.clone()));
            symbol_of_step.push(rec.symbol.clone());
        }
        History {
            symbol_of_step,
            descriptions,
        }
    }

    /// Whether `served` is an acceptable description of `symbol` once
    /// every LocusLink step below `acked` has been acknowledged: it must
    /// be the newest acknowledged description or a later one.
    pub fn acceptable(&self, symbol: &str, served: &str, acked: u64) -> bool {
        let Some(history) = self.descriptions.get(symbol) else {
            return true; // never mutated: nothing to be stale about
        };
        let required = history
            .iter()
            .rposition(|(step, _)| step.is_none_or(|s| s < acked))
            .unwrap_or(0);
        history
            .iter()
            .position(|(_, d)| d == served)
            .is_some_and(|at| at >= required)
    }

    /// The final description of `symbol` after `steps` mutations.
    pub fn last(&self, symbol: &str, steps: u64) -> Option<&str> {
        self.descriptions.get(symbol).and_then(|h| {
            h.iter()
                .rev()
                .find(|(s, _)| s.is_none_or(|s| s < steps))
                .map(|(_, d)| d.as_str())
        })
    }
}

/// The description line of a text object view.
pub fn served_description(body: &str) -> Option<&str> {
    body.lines()
        .map(str::trim_start)
        .find_map(|l| l.strip_prefix("Description"))
        .map(str::trim)
}

/// The replay-and-refetch control: a fresh node-equivalent system that
/// applies the same scripted mutations directly to its wrappers and then
/// pulls each source once.
pub fn control(corpus: &Corpus, seed: u64, done: &[Mutation]) -> Result<DurableSystem, String> {
    let (mut system, _) = annoda::Annoda::over_sources(
        corpus.locuslink.clone(),
        corpus.go.clone(),
        corpus.omim.clone(),
    );
    system.registry_mut().mediator_mut().enable_cache();
    let mut control = DurableSystem::new_sharded(system, crate::node::STORE_SHARDS)
        .map_err(|e| format!("control: {e}"))?;
    for m in done {
        let name = if m.locuslink { LOCUSLINK } else { OMIM };
        let w = control
            .annoda_mut()
            .registry_mut()
            .mediator_mut()
            .wrapper_mut(name)
            .ok_or_else(|| format!("control has no {name}"))?;
        scripted_mutation(&mut **w, feed_seed(seed, m.locuslink), m.step)
            .ok_or_else(|| format!("control: {name} not scriptable"))?;
    }
    for name in [LOCUSLINK, OMIM] {
        control
            .refresh_source(name)
            .map_err(|e| format!("control refresh {name}: {e}"))?;
    }
    Ok(control)
}
